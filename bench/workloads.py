"""Seeded job generation for the four benchmark workloads.

A job is one ``geomindep`` command line plus what its output must satisfy.
A workload is an endless sequence of rounds; round i is generated from
``random.Random(f"{workload}/{seed}/{i}")`` alone, so its content does not
depend on how many rounds ran before it.  Each round is a fixed ladder of
slots (command, size, ratio); the seed draws only the content of each slot.
Keeping the ladder fixed keeps the cost of a round, and with it the
throughput and the latency percentiles, steady from seed to seed, while a
run still covers many distinct inputs.  Every round holds 25 jobs, so the
50th and 90th percentiles fall among the slots ranked 13th and 23rd by
cost; the ladders put like-sized slots there, not the edge between two
groups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import floor

import oracle as O

GOLDEN_MINPOLY = "poly(-1,0,1,0,1)"


@dataclass(frozen=True)
class Job:
    """One command line.  ``kind`` selects the output check in checks.py and
    ``expect`` carries the exact reference data it needs."""

    argv: tuple[str, ...]
    kind: str
    expect: dict = field(default_factory=dict)


def _ratio_text(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


def _random_window(rng, P: int, Q: int, fill: float) -> O.Window:
    """A random set whose period holds a member and, for Q >= 2, a non-member,
    so that its measure is neither 0 nor 1 (every set is independent of those)."""
    members = {x for x in range(P + Q) if rng.random() < fill}
    if not any(x >= P for x in members):
        members.add(P + rng.randrange(Q))
    if Q >= 2 and all(x in members for x in range(P, P + Q)):
        members.discard(P + rng.randrange(Q))
    return O.Window(P, Q, frozenset(members))


def _window_text(s: O.Window) -> str:
    """A valid, usually non-canonical, ep(...) text; the program canonicalises."""
    pre = sorted(x for x in s.members if x < s.P)
    off = sorted(x - s.P for x in s.members if x >= s.P)
    return O.ep_text(s.P, pre, s.Q, off)


def _indep(sets, mode_args, kind: str, expect: dict) -> Job:
    """An `indep` job over set texts or windows."""
    argv = ["indep"]
    for s in sets:
        argv += ["--set", s if isinstance(s, str) else _window_text(s)]
    return Job(tuple(argv) + tuple(mode_args), kind, expect)


# ---------------------------------------------------------------- converse

# Ratios certified just under t_m are rationals floor(t_m * D) / D.
_THRESHOLD_LO = {m: O.threshold_lo(m) for m in range(1, 5)}

# (n, N) for `search converse`: cost doubles with each step of N.
_CONVERSE_SLOTS = ((3, 14), (2, 14), (4, 14), (5, 14), (4, 15), (5, 15), (3, 16),
                   (2, 16), (4, 17), (5, 18), (2, 18), (3, 20))
_ENUM_BOUNDS = (12, 13, 14, 14, 15, 16)
# (m range, digits range) for `threshold`
_THRESHOLD_SLOTS = 4 * (((5, 30), (10, 30)),) + (
    ((60, 100), (40, 50)), ((130, 140), (95, 100)), ((280, 300), (45, 50)))


def _converse_round(rng) -> list[Job]:
    jobs = []
    for slot, (n, bound) in enumerate(_CONVERSE_SLOTS):
        # alternate slots: a small ratio p/q <= 1/2, or one just under t_{n-1};
        # both are seeded, so no command line repeats from round to round
        if slot % 2 == 0:
            q = rng.randint(2, 40)
            r = Fraction(rng.randint(1, q // 2), q)
        else:
            d = rng.randint(10, 1000)
            r = Fraction(floor(_THRESHOLD_LO[n - 1] * d), d)
        argv = ("search", "converse", "--n", str(n), "--r", _ratio_text(r),
                "--max", str(bound))
        jobs.append(Job(argv, "converse", {"n": n, "r": r, "max": bound}))
    for bound in _ENUM_BOUNDS:
        b = _random_window(rng, rng.randrange(0, 5), rng.randrange(2, 9), 0.5)
        r = Fraction(rng.randrange(1, 7), 7)
        argv = ("search", "enum", "--set", _window_text(b), "--r", _ratio_text(r),
                "--max", str(bound))
        jobs.append(Job(argv, "enum", {"set": b, "r": r, "max": bound}))
    for (m_lo, m_hi), (d_lo, d_hi) in _THRESHOLD_SLOTS:
        m, digits = rng.randint(m_lo, m_hi), rng.randint(d_lo, d_hi)
        argv = ("threshold", "--m", str(m), "--digits", str(digits))
        jobs.append(Job(argv, "threshold", {"m": m, "digits": digits}))
    return jobs


# --------------------------------------------------------- nested-rational

# (params, ratio) of `construct sequence` followed by `indep --r` on the
# family: periods 1024, 2048 and 4096.  Each family's ratios are ones whose
# exact outputs print under CPython's 4300-digit int-to-str limit; larger
# outputs fail today (see README.md).
_NESTED_FAMILIES = (((2, 3, 5, 9), "1/2"), ((2, 3, 5, 9), "2/3"),
                    ((2, 3, 5, 9), "7/10"), ((2, 3, 5, 9), "999/1000"),
                    ((2, 3, 5, 17), "7/10"), ((2, 3, 9, 17), "1/2"))
# (period, ratio) of random pairs; 2 * (P + Q) * log10(denominator) stays
# under the same digit limit
_NESTED_PAIRS = (4 * ((1024, "1/2"), (1024, "2/3"), (1024, "7/10")))[:10] + (
    (2048, "1/2"), (2048, "2/3"), (4096, "1/2"))


@cache
def _sequence(params) -> list[O.Window]:
    return O.sequence_family(params)


def _nested_round(rng) -> list[Job]:
    jobs = []
    for params, ratio in _NESTED_FAMILIES:
        fam = _sequence(params)
        texts = [O.canonical_text(s) for s in fam]
        argv = ("construct", "sequence", "--params", ",".join(map(str, params)))
        jobs.append(Job(argv, "sequence", {"params": list(params), "sets": texts}))
        r = Fraction(ratio)
        jobs.append(_indep(texts, ("--r", ratio), "indep_at",
                           {"sets": fam, "r": r, "family": True}))
    for qlen, ratio in _NESTED_PAIRS:
        r = Fraction(ratio)
        a = _random_window(rng, rng.randrange(0, 9), qlen, 0.5)
        b = _random_window(rng, rng.randrange(0, 9), qlen, 0.5)
        jobs.append(_indep([a, b], ("--r", ratio), "indep_at",
                           {"sets": [a, b], "r": r, "family": False}))
    return jobs


# ---------------------------------------------------------- symbolic-indep

_SYM_SEQUENCES = (((2, 3, 5, 9), "--symbolic"), ((2, 3, 5, 9), "--minpoly"),
                  ((3, 5, 9), "--symbolic"), ((2, 5, 9), "--symbolic"),
                  ((2, 3, 5), "--symbolic"), ((2, 3, 5), "--minpoly"),
                  ((3, 5, 9), "--minpoly"))
_PAIR_NS = ((2, "--symbolic"), (3, "--symbolic"), (4, "--symbolic"), (5, "--minpoly"),
            (9, "--minpoly"), (17, "--symbolic"), (3, "--minpoly"))
# (n, b) with 2(b-1) dividing n-1
_TRIPLES = ((5, 2, "--symbolic"), (9, 3, "--symbolic"), (13, 4, "--minpoly"),
            (9, 2, "--minpoly"), (17, 5, "--symbolic"), (13, 2, "--symbolic"))
# (period of A, period of B): a fixed pair per slot, since whether the
# periods match changes the cost twofold
_RANDOM_PAIR_PERIODS = ((32, 32), (48, 48), (64, 32), (96, 48))


def _mode_args(mode: str) -> tuple[str, ...]:
    return (mode,) if mode == "--symbolic" else (mode, GOLDEN_MINPOLY)


def _seed_inside(rng, inside: O.Window, qlen: int, periodic: bool) -> O.Window:
    """A random nonempty seed inside `inside`: finite, or periodic with period qlen."""
    if not periodic:
        cands = [x for x in range(1, 3 * qlen) if x in inside]
        return O.finite(rng.sample(cands, rng.randint(1, min(4, len(cands)))))
    return O.window(0, qlen, lambda x: x in inside and x > 0 and rng.random() < 0.5
                    or x == 1)


def _symbolic_indep_round(rng) -> list[Job]:
    jobs = []
    point = Fraction(rng.randrange(1, 9), 9)
    for params, mode in _SYM_SEQUENCES:
        fam = _sequence(params)
        jobs.append(_indep([O.canonical_text(s) for s in fam], _mode_args(mode),
                           "indep_fn", {"sets": fam, "family": True, "point": point}))
    for slot, (n, mode) in enumerate(_PAIR_NS):
        B = O.blocks(n)
        A = O.shift_sum(_seed_inside(rng, B, 4 * (n - 1), slot % 2 == 1), n - 1)
        jobs.append(_indep([A, B], _mode_args(mode), "indep_fn",
                           {"sets": [A, B], "family": True, "point": point}))
    for slot, (n, b, mode) in enumerate(_TRIPLES):
        m, w = n - 1, b - 1
        refined = O.ep(0, (), 2 * m, [x for j in range(m // (2 * w))
                                      for x in range(2 * j * w + 1, (2 * j + 1) * w + 1)])
        T = _seed_inside(rng, refined, 2 * m, slot % 2 == 0)
        fam = [O.shift_sum(O.shift_sum(T, w), m), O.shift_sum(refined, m), O.blocks(n)]
        jobs.append(_indep(fam, _mode_args(mode), "indep_fn",
                           {"sets": fam, "family": True, "point": point}))
    golden = [O.finite((1, 4, 6)), O.blocks(2)]
    jobs.append(_indep(golden, _mode_args("--minpoly"), "indep_fn",
                       {"sets": golden, "family": True, "point": point}))
    for qa, qb in _RANDOM_PAIR_PERIODS:
        a = _random_window(rng, rng.randrange(0, 5), qa, 0.5)
        b = _random_window(rng, rng.randrange(0, 5), qb, 0.5)
        jobs.append(_indep([a, b], _mode_args("--symbolic"), "indep_fn",
                           {"sets": [a, b], "family": False, "point": point}))
    return jobs


# -------------------------------------------------------- symbolic-measure

# (period, fill): five like slots around the median, three around the 90th
# percentile, cheap sizes the most frequent
_MEASURE_SLOTS = (5 * ((64, 0.3), (64, 0.7)) + 5 * ((80, 0.5),)
                  + ((96, 0.4), (96, 0.6), (112, 0.3), (112, 0.7), (128, 0.5),
                     (160, 0.5)) + 3 * ((192, 0.5),) + ((256, 0.5),))


def _symbolic_measure_round(rng) -> list[Job]:
    jobs = []
    for qlen, fill in _MEASURE_SLOTS:
        s = _random_window(rng, rng.randrange(0, 9), qlen, fill)
        point = Fraction(rng.randrange(1, 11), 11)
        jobs.append(Job(("measure", "--set", _window_text(s), "--symbolic"),
                        "measure_fn", {"set": s, "point": point}))
    return jobs


# ----------------------------------------------------------------- registry

WORKLOADS = {
    "converse": _converse_round,
    "nested-rational": _nested_round,
    "symbolic-indep": _symbolic_indep_round,
    "symbolic-measure": _symbolic_measure_round,
}

# A tiny job of each workload's kind, run once in a fresh interpreter to
# time start-up (import plus any lazy set-up before the first job).
WARMUP = {
    "converse": ("search", "converse", "--n", "2", "--r", "1/2", "--max", "6"),
    "nested-rational": ("indep", "--set", "ep(P=0;pre=;Q=2;off=1)", "--set",
                        "ep(P=0;pre=;Q=8;off=1,2,3,4)", "--r", "1/2"),
    "symbolic-indep": ("indep", "--set", "ep(P=0;pre=;Q=2;off=1)", "--set",
                       "ep(P=0;pre=;Q=8;off=1,2,3,4)", "--symbolic"),
    "symbolic-measure": ("measure", "--set", "ep(P=1;pre=;Q=6;off=0,2,3)", "--symbolic"),
}


def make_round(workload: str, seed: int, index: int) -> list[Job]:
    rng = random.Random(f"{workload}/{seed}/{index}")
    return WORKLOADS[workload](rng)
