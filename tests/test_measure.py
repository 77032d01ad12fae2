"""Measure of a set: symbolic rational function, exact value, float check."""

import random
from fractions import Fraction

import pytest

from geomindep.measure import measure_at, measure_numeric, measure_symbolic
from geomindep.polynomials import ONE, Polynomial, RationalFunction
from geomindep.sets import (
    EMPTY,
    NATURALS,
    EPSet,
    FiniteSet,
    intersect,
    translate,
    union,
)
from support import measure_at_reference, rand_ratio, rand_set, rand_wide_pattern

ODDS = EPSet(0, (), 2, (1,))


def blocks(n):
    return EPSet(0, (), 2 * (n - 1), tuple(range(1, n)))


def test_block_set_symbolic():
    got = measure_symbolic(blocks(3))
    assert got == RationalFunction(ONE, Polynomial((1, 0, 1)))


def test_block_identity_all_n():
    # 1 / (1 + r^(n-1)) for every n
    for n in range(2, 13):
        expected = RationalFunction(ONE, ONE + Polynomial.monomial(n - 1))
        assert measure_symbolic(blocks(n)) == expected


def test_finite_set_symbolic():
    # (1-r)(1 + r) = 1 - r^2
    got = measure_symbolic(FiniteSet((1, 2)))
    assert got == RationalFunction(Polynomial((1, 0, -1)), ONE)


def test_atom_zero_is_null():
    assert measure_symbolic(FiniteSet((0,))).is_zero
    assert measure_symbolic(union(FiniteSet((0,)), ODDS)) == measure_symbolic(ODDS)


def test_whole_space():
    assert measure_symbolic(NATURALS).is_one
    assert measure_symbolic(EPSet(1, (), 1, (0,))).is_one
    assert measure_symbolic(EMPTY).is_zero


def test_exact_values():
    assert measure_at(ODDS, Fraction(1, 2)) == Fraction(2, 3)
    assert measure_at(FiniteSet((1,)), Fraction(1, 2)) == Fraction(1, 2)
    assert measure_at(blocks(3), Fraction(1, 2)) == Fraction(4, 5)
    assert measure_at(ODDS, Fraction(2, 3)) == Fraction(3, 5)


def test_measure_at_accepts_int_ratio_strings():
    assert measure_at(ODDS, Fraction(1, 3)) == measure_at(ODDS, Fraction(2, 6))


def test_measure_at_range_check():
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(ValueError):
            measure_at(ODDS, bad)


def test_symbolic_matches_exact_evaluation():
    rng = random.Random(6201)
    for _ in range(120):
        s = rand_set(rng)
        r = rand_ratio(rng)
        f = measure_symbolic(s)
        assert f.evaluate(r) == measure_at(s, r)


def test_numeric_close_to_exact():
    rng = random.Random(6202)
    for _ in range(40):
        s = rand_set(rng)
        r = rand_ratio(rng)
        approx = measure_numeric(s, float(r), tol=1e-12)
        assert abs(approx - float(measure_at(s, r))) < 1e-9


def test_additivity():
    rng = random.Random(6203)
    for _ in range(80):
        a = rand_set(rng)
        b = rand_set(rng)
        lhs = measure_symbolic(a) + measure_symbolic(b)
        rhs = measure_symbolic(union(a, b)) + measure_symbolic(intersect(a, b))
        assert lhs == rhs


def test_translation_scales_by_monomial():
    # P(S + t) = r^t P(S) whenever 0 is not in S
    rng = random.Random(6204)
    factor_cache = {}
    for _ in range(60):
        s = translate(rand_set(rng), 1)
        t = rng.randint(0, 6)
        factor = factor_cache.setdefault(
            t, RationalFunction(Polynomial.monomial(t), ONE)
        )
        assert measure_symbolic(translate(s, t)) == factor * measure_symbolic(s)


def test_measure_is_a_probability():
    rng = random.Random(6205)
    r = Fraction(3, 7)
    for _ in range(80):
        s = rand_set(rng)
        v = measure_at(s, r)
        assert 0 <= v <= 1


def test_measure_at_matches_fraction_sum_at_long_periods():
    rng = random.Random(6206)
    ratios = (Fraction(1, 2), Fraction(7, 10), Fraction(999, 1000), Fraction(1, 3))
    for i in range(24):
        min_qlen = 1024 if i % 4 == 0 else 1
        plen, pre, qlen, off = rand_wide_pattern(rng, 70, min_qlen, 1024)
        plen = (0, 1, plen)[i % 3]
        pre = tuple(k for k in pre if k < plen)
        if i % 2:
            # atom 0 is a member, so its zero mass must be skipped
            pre, off = (pre, off + (0,)) if plen == 0 else (pre + (0,), off)
        s = EPSet(plen, tuple(sorted(set(pre))), qlen, tuple(sorted(set(off))))
        f = FiniteSet(tuple(k for k in range(plen + qlen) if k in s))
        for r in ratios:
            assert measure_at(s, r) == measure_at_reference(s, r)
            assert measure_at(f, r) == measure_at_reference(f, r)
