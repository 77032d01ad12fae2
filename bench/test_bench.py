"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

Each workload runs one round (``--seconds 0``) in a subprocess, untraced and
traced; the other tests run single jobs in this process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    info, last = done.stdout.splitlines()[-2:]
    return json.loads(info), json.loads(last)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_prints_the_declared_metrics(workload):
    info, result = _bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["failures"] == []
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer_and_self_time_fits_wall_time(workload):
    info, result = _bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert 0 < info["self_total_s"] <= info["traced_job_s"]
    shares = [v["value"] for k, v in result["metrics"].items() if k.endswith(".share")]
    assert sum(shares) <= 1.0


def _corrupt(text: str) -> str:
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def _one_job_per_kind():
    jobs = {}
    for w in workloads.WORKLOADS:
        for job in workloads.make_round(w, 3, 0):
            jobs.setdefault(job.kind, job)
    return sorted(jobs.values(), key=lambda j: j.kind)


CLI = run.load_program()


@pytest.mark.parametrize("job", _one_job_per_kind(), ids=lambda j: j.kind)
def test_corrupted_output_counts_as_failed(job, monkeypatch):
    rc, out, err, _ = run.run_job(CLI, job.argv)
    assert rc == 0 and checks.check(job, out) is None
    assert checks.check(job, _corrupt(out)) is not None
    monkeypatch.setattr(run, "run_job", lambda cli, argv: (0, _corrupt(out), "", 0.01))
    tally = run.Tally(CLI, {})
    tally.run(job)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_enum_check_counts_a_dropped_set_as_failed():
    for job in workloads.make_round("converse", 3, 0):
        if job.kind == "enum":
            rc, out, err, _ = run.run_job(CLI, job.argv)
            result = json.loads(out)
            if result["found"]:
                break
    assert rc == 0 and result["found"] and checks.check(job, out) is None
    result["found"].pop(len(result["found"]) // 2)
    assert checks.check(job, json.dumps(result) + "\n") is not None


class _Recorder:
    """A stand-in Tally that records command lines and counts 1 s per job."""

    def __init__(self):
        self.argvs, self.job_s = [], 0.0

    def run(self, job):
        self.argvs.append(job.argv)
        self.job_s += 1.0


class _NullTracer:
    def install(self):
        pass

    def uninstall(self):
        pass

    def reset_stack(self):
        pass


def test_traced_rounds_run_inputs_of_their_own():
    untraced, traced = _Recorder(), _Recorder()
    rounds, truncated = run.run_rounds("symbolic-measure", 3, 60, untraced,
                                       _NullTracer(), traced)
    assert not truncated and rounds == 4
    assert len(untraced.argvs) == len(traced.argvs) == 50
    assert not set(untraced.argvs) & set(traced.argvs)


def test_job_over_budget_is_interrupted_and_counted(monkeypatch):
    monkeypatch.setattr(run, "JOB_BUDGET_S", 0.01)
    run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    job = workloads.make_round("converse", 3, 0)[-1]  # a threshold job of ~0.3 s
    tally = run.Tally(CLI, {})
    tally.run(job)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.failures[0]["reason"].startswith("timeout")


def test_digests_cover_the_first_rounds_of_the_default_seed():
    with open(run.DIGESTS) as fh:
        table = json.load(fh)
    assert table["seed"] == run.DEFAULT_SEED
    for w in workloads.WORKLOADS:
        for i in range(table["rounds"]):
            for job in workloads.make_round(w, run.DEFAULT_SEED, i):
                assert run.digest_key(job.argv) in table["workloads"][w]


def test_same_seed_same_inputs_other_seed_other_inputs():
    for w in workloads.WORKLOADS:
        assert run.jobs_sha256(w, 5) == run.jobs_sha256(w, 5) != run.jobs_sha256(w, 6)
