#!/usr/bin/env python3
"""Record stdout digests of the default seed's first rounds into digests.json.

    python3 bench/record_digests.py

Run it only on a commit whose outputs are known to be right: every job must
pass its output check, or nothing is written.  run.py then requires the same
stdout bytes from later commits for those jobs (the byte-identical output
contract), on the default seed only.
"""

from __future__ import annotations

import json
import signal
import sys

import run

from workloads import WORKLOADS, make_round


def main() -> int:
    cli = run.load_program()
    signal.signal(signal.SIGALRM, run._on_alarm)
    table = {}
    for workload in sorted(WORKLOADS):
        digests = {}
        for i in range(run.DIGEST_ROUNDS):
            for job in make_round(workload, run.DEFAULT_SEED, i):
                rc, out, err, _ = run.run_job(cli, job.argv)
                reason = run.verdict(job, rc, out, err, {})
                if reason is not None:
                    sys.exit(f"{workload} round {i}: {' '.join(job.argv)[:120]}: {reason}")
                digests[run.digest_key(job.argv)] = run.stdout_digest(out)
        table[workload] = digests
        print(workload, len(digests), "digests", file=sys.stderr)
    with open(run.DIGESTS, "w") as fh:
        json.dump({"seed": run.DEFAULT_SEED, "rounds": run.DIGEST_ROUNDS, "workloads": table},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
