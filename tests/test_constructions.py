"""Building blocks: periodic block sets and the derived independent families."""

import random
from fractions import Fraction

import pytest

from geomindep.constructions import (
    alternating_blocks,
    build_pair,
    build_sequence,
    build_triple,
    finite_space_check,
    golden_ratio_counterexample,
    multiples_pair,
    quotient_lift,
    quotient_lower,
)
from geomindep.independence import indep_family_at, indep_family_symbolic
from geomindep.measure import measure_at, measure_symbolic
from geomindep.polynomials import ONE, Polynomial, RationalFunction
from geomindep.sets import EPSet, FiniteSet, is_subset, minkowski, sets_equal
from support import members_upto

ODDS = EPSet(0, (), 2, (1,))


def test_alternating_blocks_shape():
    b = alternating_blocks(3)
    assert b == EPSet(0, (), 4, (1, 2))
    assert members_upto(b, 10) == [1, 2, 5, 6, 9, 10]
    assert alternating_blocks(2) == ODDS
    with pytest.raises(ValueError):
        alternating_blocks(1)


def test_alternating_blocks_measure():
    for n in range(2, 13):
        expected = RationalFunction(ONE, ONE + Polynomial.monomial(n - 1))
        assert measure_symbolic(alternating_blocks(n)) == expected


def test_build_pair_basic():
    spec = build_pair(3, FiniteSet((1, 2)))
    assert spec.n == 3
    assert spec.A == FiniteSet((1, 2, 3, 4))
    assert sets_equal(spec.B, alternating_blocks(3))
    assert indep_family_symbolic([spec.A, spec.B]).independent


def test_build_pair_accepts_periodic_seed():
    spec = build_pair(2, ODDS)
    assert sets_equal(spec.A, EPSet(1, (), 1, (0,)))
    assert indep_family_symbolic([spec.A, spec.B]).independent


def test_build_pair_rejects_bad_seed():
    with pytest.raises(ValueError):
        build_pair(3, FiniteSet(()))
    with pytest.raises(ValueError):
        build_pair(3, FiniteSet((3,)))


def test_build_pair_many_random_seeds():
    rng = random.Random(5501)
    for n in (2, 3, 5):
        pool = members_upto(alternating_blocks(n), 30)
        for _ in range(25):
            seed = FiniteSet(tuple(rng.sample(pool, rng.randint(1, 5))))
            spec = build_pair(n, seed)
            assert is_subset(seed, spec.B)
            assert sets_equal(spec.A, minkowski(FiniteSet((0, n - 1)), seed))
            assert indep_family_symbolic([spec.A, spec.B]).independent


def test_build_triple_worked_example():
    spec = build_triple(5, 2, FiniteSet((1,)))
    assert (spec.n, spec.b, spec.k) == (5, 2, 2)
    assert spec.B1 == EPSet(0, (), 8, (1, 3))
    assert spec.A1 == FiniteSet((1, 2, 5, 6))
    assert sets_equal(spec.A2, ODDS)
    assert sets_equal(spec.B, alternating_blocks(5))
    report = indep_family_symbolic([spec.A1, spec.A2, spec.B])
    assert report.independent
    assert len(report.conditions) == 4


def test_build_triple_block_measure_identity():
    # narrow blocks: 1 / ((1 + r^(b-1)) (1 + r^(n-1)))
    for n, b in ((3, 2), (5, 2), (5, 3), (9, 3), (9, 5)):
        spec = build_triple(n, b, FiniteSet((1,)))
        m = n - 1
        expected = RationalFunction(
            ONE, (ONE + Polynomial.monomial(b - 1)) * (ONE + Polynomial.monomial(m))
        )
        assert measure_symbolic(spec.B1) == expected


def test_build_triple_divisibility_guard():
    with pytest.raises(ValueError) as err:
        build_triple(4, 2, FiniteSet((1,)))
    assert "divide" in str(err.value)
    with pytest.raises(ValueError):
        build_triple(5, 4, FiniteSet((1,)))
    with pytest.raises(ValueError):
        build_triple(5, 2, FiniteSet((2,)))


def test_multiples_pair():
    for n in range(1, 9):
        a, b = multiples_pair(n)
        assert a == FiniteSet(tuple(range(1, n + 1)))
        assert members_upto(b, 3 * n) == [n, 2 * n, 3 * n]
        assert indep_family_symbolic([a, b]).independent


def test_golden_ratio_counterexample():
    a, b, minpoly = golden_ratio_counterexample()
    assert a == FiniteSet((1, 4, 6))
    assert sets_equal(b, ODDS)
    assert minpoly == Polynomial((-1, 0, 1, 0, 1))
    from geomindep.independence import indep_family_mod

    assert indep_family_mod([a, b], minpoly).independent
    assert not indep_family_symbolic([a, b]).independent
    assert not indep_family_at([a, b], Fraction(1, 2)).independent


def test_quotient_lift_finite():
    # class k maps to the k-th block of the coarse set
    assert quotient_lift(3, FiniteSet((1,))) == FiniteSet((1, 2))
    assert quotient_lift(3, FiniteSet((2,))) == FiniteSet((5, 6))
    assert quotient_lift(2, FiniteSet((1, 3))) == FiniteSet((1, 5))
    with pytest.raises(ValueError):
        quotient_lift(3, FiniteSet((0, 1)))


def test_quotient_lift_periodic():
    got = quotient_lift(2, ODDS)
    assert got == EPSet(0, (), 8, (1, 5))
    assert sets_equal(quotient_lift(2, EPSet(1, (), 1, (0,))), ODDS)


def test_quotient_lift_measure_identity():
    # coarse atom k has mass (1-s)s^(k-1) inside the block set, s = r^(2(n-1))
    for n in (2, 3, 4):
        for k in range(1, 11):
            for r in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
                s = r ** (2 * (n - 1))
                lifted = quotient_lift(n, FiniteSet((k,)))
                base = measure_at(alternating_blocks(n), r)
                assert measure_at(lifted, r) == base * (1 - s) * s ** (k - 1)


def test_quotient_lift_lands_inside_the_blocks():
    rng = random.Random(5502)
    for _ in range(40):
        n = rng.randint(2, 5)
        classes = FiniteSet(tuple(rng.sample(range(1, 12), rng.randint(1, 4))))
        assert is_subset(quotient_lift(n, classes), alternating_blocks(n))


def test_quotient_lower_is_independent_of_the_blocks():
    for n in (2, 3, 4):
        low = quotient_lower(n, FiniteSet((1, 3)))
        assert indep_family_symbolic([low, alternating_blocks(n)]).independent


def test_build_sequence_all_twos():
    spec = build_sequence((2, 2, 2))
    assert spec.params == (2, 2, 2)
    assert [s for s in spec.sets] == [
        alternating_blocks(2),
        alternating_blocks(3),
        alternating_blocks(5),
    ]
    report = indep_family_symbolic(list(spec.sets))
    assert report.independent
    assert len(report.conditions) == 4


def test_build_sequence_mixed_params():
    spec = build_sequence((3, 2))
    assert sets_equal(spec.sets[0], alternating_blocks(3))
    assert indep_family_symbolic(list(spec.sets)).independent
    # second set is the doubled-period image of the width-1 blocks
    assert sets_equal(spec.sets[1], quotient_lower(3, alternating_blocks(2)))


def test_build_sequence_long_family_independent_at_half():
    # five terms: the last set has period 2*4*8*16*32 = 32768
    spec = build_sequence((2, 3, 5, 9, 17))
    assert max(s.qlen for s in spec.sets) == 32768
    report = indep_family_at(list(spec.sets), Fraction(1, 2))
    assert report.independent
    assert len(report.conditions) == 26


def test_build_sequence_validation():
    with pytest.raises(ValueError):
        build_sequence(())
    with pytest.raises(ValueError):
        build_sequence((2, 1))
    with pytest.raises(ValueError):
        build_sequence((2,) * 18)


def test_finite_space_check_example():
    chk = finite_space_check(4, 2)
    assert (chk.n, chk.s, chk.t) == (4, 2, 2)
    assert chk.A == FiniteSet((1, 2))
    assert chk.B == FiniteSet((1, 3))
    assert 0.5187 < chk.q < 0.5189
    assert chk.residual < 1e-12


def test_finite_space_check_grid():
    for n, s in ((4, 2), (6, 2), (6, 3), (9, 3), (12, 4)):
        chk = finite_space_check(n, s)
        assert chk.t == n // s
        assert chk.residual < 1e-12
        assert len(chk.A) == s
        assert len(chk.B) == chk.t


def test_finite_space_check_validation():
    with pytest.raises(ValueError):
        finite_space_check(4, 3)
    with pytest.raises(ValueError):
        finite_space_check(4, 1)
    with pytest.raises(ValueError):
        finite_space_check(4, 4)
