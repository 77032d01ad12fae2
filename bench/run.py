#!/usr/bin/env python3
"""The geomindep benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload converse --seed 0 --seconds 22 --trace 0

Jobs are geomindep command lines run in this process through
``geomindep.cli.main(argv)`` with stdout captured: one client, jobs back to
back (a closed loop).  Whole rounds of jobs run until the timed job time
reaches ``--seconds``.  Every output is checked outside the timed region; a
wrong exit code, a wrong output or a job over its time budget counts as a
failure.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
The line before it records the seed, a hash of the inputs and the
environment.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
JOB_BUDGET_S = 15.0  # about ten times the slowest job at this commit
WALL_LIMIT_S = 120.0  # no job starts after this; keeps a run under 180 s
SETUP_PROBES = 15
HASHED_ROUNDS = 8
DIGEST_ROUNDS = 16  # rounds of the default seed whose stdout digests are recorded
DIGESTS = os.path.join(HERE, "digests.json")
SPANS_DIR = os.path.join(HERE, "out")

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; not an Exception, so the CLI's
    catch-all handler cannot turn it into an ordinary exit code."""


def _on_alarm(signum, frame):
    raise JobTimeout


def load_program():
    """Import geomindep.cli from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "geomindep", "cli.py")):
        sys.exit(f"error: no geomindep sources under {SRC}")
    sys.path.insert(0, SRC)
    import geomindep.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported geomindep from {cli.__file__}, not {SRC}")
    return cli


def run_job(cli, argv):
    """(exit code or None on timeout, stdout, stderr, seconds) of one job."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
        t0 = perf_counter()
        try:
            try:
                rc = cli.main(list(argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:  # also when it lands while the timer is being cleared
            pass
        t1 = perf_counter()
    return rc, out.getvalue(), err.getvalue(), t1 - t0


def digest_key(argv) -> str:
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()[:16]


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def load_digests(workload: str, seed: int) -> dict:
    """Recorded stdout digests, used only for the seed they were recorded with."""
    if seed != DEFAULT_SEED:
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)["workloads"][workload]


def verdict(job, rc, out: str, err: str, digests: dict) -> str | None:
    """None for a right answer, else why the job failed."""
    if rc is None:
        return f"timeout after {JOB_BUDGET_S} s"
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    reason = checks.check(job, out)
    if reason is None:
        want = digests.get(digest_key(job.argv))
        if want is not None and want != stdout_digest(out):
            reason = "stdout bytes differ from the recorded digest"
    return reason


class Tally:
    def __init__(self, cli, digests: dict):
        self.cli = cli
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.kernel_s: list[float] = []  # host sample before the first job and after each
        self.settle_ratio: list[float] = []  # settling run over sample, after each job
        self.job_s = 0.0
        self.failures: list[dict] = []

    def run(self, job) -> None:
        if not self.kernel_s:
            self.kernel_s.append(calibration.host_sample()[1])
        rc, out, err, dt = run_job(self.cli, job.argv)
        self.attempted += 1
        self.latencies.append(dt)
        self.job_s += dt
        reason = verdict(job, rc, out, err, self.digests)
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append({"argv": " ".join(job.argv)[:200], "reason": reason})
        settle, sample = calibration.host_sample()
        self.kernel_s.append(sample)
        self.settle_ratio.append(settle / sample)

    def scaled_latencies(self) -> list[float]:
        """Each job's time at the nominal host speed: scaled by the calibration
        kernel's nominal time over the mean of the host samples just before
        and just after it."""
        k = self.kernel_s
        return [dt * 2 * calibration.NOMINAL_S / (k[i] + k[i + 1])
                for i, dt in enumerate(self.latencies)]

    def kernel_summary(self) -> dict:
        """The host samples' median and spread (interquartile range over
        median), and the median settling-run ratio: how much slower the
        kernel ran right after a job than a moment later."""
        k = self.kernel_s
        qs = statistics.quantiles(k, n=4)
        med = statistics.median(k)
        return {"median_ms": med * 1000, "iqr_over_median": (qs[2] - qs[0]) / med,
                "settle_ratio": statistics.median(self.settle_ratio)}


def run_rounds(workload, seed, seconds, untraced: Tally, tracer=None, traced=None):
    """Run whole rounds until the timed job time reaches `seconds`; return
    the number of rounds completed and whether the wall-time limit cut the
    run short.

    With a tracer, even-numbered rounds run untraced and odd-numbered ones
    traced, so no traced job replays an input just run untraced; the run
    stops after a traced round, and both job times count towards `seconds`.
    """
    wall0 = perf_counter()
    rounds = 0
    while True:
        tally, tr = (traced, tracer) if tracer and rounds % 2 else (untraced, None)
        if tr:
            tr.install()
        try:
            for job in workloads.make_round(workload, seed, rounds):
                if perf_counter() - wall0 > WALL_LIMIT_S:
                    return rounds, True
                if tr:
                    tr.reset_stack()
                tally.run(job)
        finally:
            if tr:
                tr.uninstall()
        rounds += 1
        if tracer and rounds % 2:
            continue
        if untraced.job_s + (traced.job_s if traced else 0.0) >= seconds:
            return rounds, False


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median over fresh interpreters of import plus one tiny job, scaled to
    the nominal host speed like the job times, and unscaled."""
    probe = os.path.join(HERE, "probe.py")
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-I", probe, SRC, *workloads.WARMUP[workload]],
            capture_output=True, text=True, timeout=60, check=True)
        seconds, kernel_s, rc = done.stdout.split()
        if rc != "0":
            sys.exit(f"error: start-up probe exited {rc}: {done.stderr.strip()[:200]}")
        raw.append(float(seconds))
        scaled.append(float(seconds) * calibration.NOMINAL_S / float(kernel_s))
    return statistics.median(scaled), statistics.median(raw)


def jobs_sha256(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for i in range(HASHED_ROUNDS):
        for job in workloads.make_round(workload, seed, i):
            h.update(json.dumps(job.argv).encode())
    return h.hexdigest()


def git_commit() -> str:
    head = os.path.join(os.path.dirname(HERE), ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(os.path.dirname(head), ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def timings(latencies, setup_s: float, ok: int) -> dict:
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "jobs_per_s": ok / sum(latencies),
        "job_p50_ms": deciles[4] * 1000,
        "job_p90_ms": deciles[8] * 1000,
        "setup_s": setup_s,
    }


def end_to_end(t: Tally, setup_s: float) -> dict:
    ok = t.attempted - t.failed
    return {
        **timings(t.scaled_latencies(), setup_s, ok),
        "ok_ratio": ok / t.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = load_program()
    signal.signal(signal.SIGALRM, _on_alarm)
    setup_s, raw_setup_s = setup_seconds(args.workload) if not args.trace else (None, None)
    digests = load_digests(args.workload, args.seed)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs_sha256": jobs_sha256(args.workload, args.seed),
        "hashed_rounds": HASHED_ROUNDS,
        "byte_checked": bool(digests),
        "env": environment(),
    }

    untraced = Tally(cli, digests)
    if args.trace:
        tracer, traced = tracing.Tracer(), Tally(cli, digests)
        rounds, truncated = run_rounds(args.workload, args.seed, args.seconds,
                                       untraced, tracer, traced)
        # per traced round; a run cut short before one completed counts as one
        layers = tracing.layer_metrics(tracer, max(rounds // 2, 1), traced.job_s,
                                       untraced.job_s)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, f"spans-{args.workload}.txt.gz")
        tracer.write_spans(spans, {"workload": args.workload, "seed": args.seed})
        info.update(spans=os.path.relpath(spans), traced_job_s=traced.job_s,
                    self_total_s=tracer.self_total())
        tallies = (untraced, traced)
    else:
        rounds, truncated = run_rounds(args.workload, args.seed, args.seconds, untraced)
        e2e = end_to_end(untraced, setup_s)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
        info["unscaled"] = timings(untraced.latencies, raw_setup_s,
                                   untraced.attempted - untraced.failed)
        info["kernel"] = untraced.kernel_summary()
        tallies = (untraced,)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    info.update(rounds=rounds, truncated=truncated, jobs=attempted,
                job_s=sum(t.job_s for t in tallies),
                failures=[f for t in tallies for f in t.failures])
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0 and not truncated, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
