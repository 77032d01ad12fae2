"""Output checks, one per job kind.

``check(job, stdout)`` returns None when the output is right and a short
reason otherwise.  Every check is exact: rationals are compared as
Fractions, rational functions by evaluating the printed numerator and
denominator at a rational point and comparing with ``oracle.measure``.
Verdicts the paper proves are asserted outright: constructed families are
independent, the converse sweep below the threshold finds exactly the grown
forms, and the golden-ratio pair passes modulo its minimal polynomial.
Lists of sets found are compared whole, so a missing set fails too.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import reduce

import oracle as O


class Wrong(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


def _ratfn_at(obj: dict, x: Fraction) -> Fraction:
    num, den = O.parse_poly(obj["num"]), O.parse_poly(obj["den"])
    _expect(den[-1] > 0, "denominator leading coefficient not positive")
    _expect(O.content(num + den) == 1, "numerator and denominator share content")
    d = O.poly_at(den, x)
    _expect(d != 0, "denominator vanishes at the check point")
    return O.poly_at(num, x) / d


def _converse(job, out) -> None:
    e = job.expect
    _expect((out["n"], out["max"]) == (e["n"], e["max"]), "echoed arguments")
    _expect(Fraction(out["r"]) == e["r"], "echoed ratio")
    lo, hi = Fraction(out["bracket"]["lo"]), Fraction(out["bracket"]["hi"])
    m = e["n"] - 1
    _expect(O.threshold_fn(m, lo) < 0 < O.threshold_fn(m, hi), "bracket is no certificate")
    _expect(0 < hi - lo <= Fraction(1, 10 ** 12) and e["r"] <= lo, "bracket width or r")
    _expect(out["violations"] == [], "violations below the threshold")
    _expect(out["found"] == O.grown_forms(e["n"], e["max"]), "found != grown forms")


def _enum(job, out) -> None:
    e = job.expect
    b, r, bound = e["set"], e["r"], e["max"]
    _expect(out["set"] == O.canonical_text(b), "echoed set not canonical")
    _expect(Fraction(out["r"]) == r and out["max"] == bound, "echoed arguments")
    _expect(out["found"] == O.independent_subsets(b, r, bound),
            "found != the independent subsets")


def _threshold(job, out) -> None:
    e = job.expect
    t = out["t"]
    _expect(out["m"] == e["m"] and t.startswith("0.") and len(t) == e["digits"] + 2,
            "threshold shape")
    scale = 10 ** e["digits"]
    lo = Fraction(int(t[2:]), scale)
    _expect(O.threshold_fn(e["m"], lo) < 0 < O.threshold_fn(e["m"], lo + Fraction(1, scale)),
            "root not inside the truncation")


def _sequence(job, out) -> None:
    _expect(out == job.expect, "constructed family differs from the reference")


def _conditions(out, k: int) -> list:
    rows = out["conditions"]
    _expect([tuple(c["subset"]) for c in rows] == O.index_subsets(k), "condition subsets")
    _expect(out["independent"] == all(c["passed"] for c in rows), "verdict vs conditions")
    return rows


def _indep_at(job, out) -> None:
    e = job.expect
    sets, r = e["sets"], e["r"]
    _expect(out["mode"] == "at_rational" and Fraction(out["r"]) == r, "mode or ratio")
    rows = _conditions(out, len(sets))
    singles = [O.measure(s, r) for s in sets]
    for c in rows:
        lhs, rhs = Fraction(c["lhs"]), Fraction(c["rhs"])
        _expect(rhs == reduce(lambda x, i: x * singles[i], c["subset"], 1), "rhs value")
        _expect(c["passed"] == (lhs == rhs), "passed flag")
        if e["family"]:
            _expect(c["passed"], "a constructed family failed a condition")
        else:
            inter = O.intersection([sets[i] for i in c["subset"]])
            _expect(lhs == O.measure(inter, r), "lhs value")


def _indep_fn(job, out) -> None:
    e = job.expect
    sets, x = e["sets"], e["point"]
    rows = _conditions(out, len(sets))
    singles = [O.measure(s, x) for s in sets]
    for c in rows:
        inter = O.intersection([sets[i] for i in c["subset"]])
        _expect(_ratfn_at(c["lhs"], x) == O.measure(inter, x), "lhs value")
        _expect(_ratfn_at(c["rhs"], x)
                == reduce(lambda v, i: v * singles[i], c["subset"], 1), "rhs value")
        if out["mode"] == "symbolic":
            # canonical forms: equal functions print identically
            _expect(c["passed"] == (c["lhs"] == c["rhs"]), "passed flag")
    if e["family"]:
        _expect(out["independent"], "a constructed family is not independent")


def _measure_fn(job, out) -> None:
    e = job.expect
    _expect(set(out) == {"num", "den"}, "measure keys")
    _expect(_ratfn_at(out, e["point"]) == O.measure(e["set"], e["point"]), "measure value")


_CHECKS = {
    "converse": _converse,
    "enum": _enum,
    "threshold": _threshold,
    "sequence": _sequence,
    "indep_at": _indep_at,
    "indep_fn": _indep_fn,
    "measure_fn": _measure_fn,
}


def check(job, stdout: str) -> str | None:
    """None if stdout is a right answer for job, else the reason it is not."""
    if not stdout.endswith("\n") or stdout.count("\n") != 1:
        return "stdout is not one line"
    try:
        _CHECKS[job.kind](job, json.loads(stdout))
    except Wrong as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
