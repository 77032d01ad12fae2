"""Canonical set forms and the boolean / translation operations."""

import random
from math import lcm

import pytest

from geomindep.sets import (
    EMPTY,
    NATURALS,
    EPSet,
    FiniteSet,
    complement,
    diff,
    from_predicate,
    intersect,
    is_empty,
    is_subset,
    member,
    minkowski,
    prefix,
    rebased,
    sets_equal,
    to_epset,
    translate,
    union,
)
from support import (
    members_upto,
    rand_epset,
    rand_finite,
    rand_set,
    rand_wide_pattern,
    raw_member,
)

ODDS = EPSet(0, (), 2, (1,))


def blocks(n):
    # {1..n-1} repeated with period 2(n-1)
    return EPSet(0, (), 2 * (n - 1), tuple(range(1, n)))


def test_finite_set_sorts_and_dedupes():
    s = FiniteSet((6, 1, 4, 1))
    assert s.elements == (1, 4, 6)
    assert len(s) == 3
    assert list(s) == [1, 4, 6]


def test_finite_set_rejects_bad_elements():
    with pytest.raises(ValueError):
        FiniteSet((-1,))
    with pytest.raises(ValueError):
        FiniteSet((1.5,))


def test_epset_validation():
    with pytest.raises(ValueError):
        EPSet(0, (), 0, ())
    with pytest.raises(ValueError):
        EPSet(2, (3,), 2, ())
    with pytest.raises(ValueError):
        EPSet(0, (), 2, (2,))


def test_membership():
    b3 = blocks(3)
    assert 5 in b3 and 6 in b3
    assert 3 not in b3 and 4 not in b3
    assert 0 not in b3
    assert 50 not in FiniteSet((1, 4, 6))
    assert member(ODDS, 17)


def test_period_is_minimized():
    assert EPSet(0, (), 4, (1, 3)) == ODDS
    assert EPSet(0, (), 6, (0, 2, 4)).qlen == 2


def test_preperiod_is_minimized():
    # prefix cell agrees with the cycle, so it folds in and the cycle rotates
    assert EPSet(1, (), 4, (0, 2)) == ODDS
    assert EPSet(2, (1,), 2, (1,)) == ODDS


def test_canonical_form_is_idempotent():
    rng = random.Random(4401)
    for _ in range(200):
        s = rand_epset(rng)
        assert EPSet(s.plen, s.pre, s.qlen, s.off) == s


def test_rebased_preserves_membership():
    rng = random.Random(4402)
    for _ in range(100):
        s = rand_epset(rng)
        plen, pre, qlen, off = rebased(s, s.plen + rng.randint(1, 5))
        horizon = plen + 2 * qlen + 5
        rebuilt = [
            (k in pre) if k < plen else ((k - plen) % qlen in off)
            for k in range(horizon)
        ]
        assert rebuilt == [k in s for k in range(horizon)]


def test_to_epset_roundtrip():
    f = FiniteSet((1, 4))
    e = to_epset(f)
    assert isinstance(e, EPSet)
    assert members_upto(e, 30) == [1, 4]
    assert to_epset(e) is e


def test_eventually_finite_pattern_collapses():
    # all-false cycle means the set is extensionally finite
    assert EPSet(3, (1,), 2, ()) == to_epset(FiniteSet((1,)))


def test_union_of_odds_and_complement_is_everything():
    assert sets_equal(union(ODDS, complement(ODDS)), NATURALS)


def test_intersection_of_two_block_sets():
    got = intersect(blocks(2), blocks(3))
    assert got == EPSet(0, (), 4, (1,))
    assert members_upto(got, 20) == [1, 5, 9, 13, 17]


def test_boolean_ops_preserve_kind():
    assert isinstance(union(FiniteSet((1,)), FiniteSet((2,))), FiniteSet)
    assert isinstance(intersect(blocks(2), FiniteSet((1, 2, 3))), FiniteSet)
    assert isinstance(diff(FiniteSet((1, 2)), ODDS), FiniteSet)
    assert isinstance(complement(FiniteSet((1,))), EPSet)
    assert isinstance(union(ODDS, blocks(3)), EPSet)


def test_complement_of_naturals_is_empty():
    assert is_empty(complement(NATURALS))
    assert sets_equal(complement(EMPTY), NATURALS)


def test_translate_examples():
    assert translate(FiniteSet((0, 2)), 3) == FiniteSet((3, 5))
    assert members_upto(translate(ODDS, 1), 10) == [2, 4, 6, 8, 10]
    with pytest.raises(ValueError):
        translate(ODDS, -1)


def test_minkowski_examples():
    assert minkowski(FiniteSet((0, 1)), FiniteSet((1, 3))) == FiniteSet((1, 2, 3, 4))
    assert sets_equal(minkowski(FiniteSet((0, 1)), ODDS), EPSet(1, (), 1, (0,)))
    with pytest.raises(ValueError):
        minkowski(FiniteSet(()), ODDS)
    with pytest.raises(ValueError):
        minkowski(ODDS, FiniteSet((1,)))


def test_prefix():
    assert prefix(blocks(3), 9) == FiniteSet((1, 2, 5, 6, 9))
    assert prefix(FiniteSet((1, 4, 6)), 4) == FiniteSet((1, 4))
    assert prefix(ODDS, 0) == EMPTY


def test_subset_and_equality():
    assert is_subset(FiniteSet((1, 5)), ODDS)
    assert not is_subset(ODDS, blocks(3))
    assert sets_equal(EPSet(1, (), 4, (0, 2)), ODDS)
    assert not sets_equal(ODDS, complement(ODDS))


def test_from_predicate():
    got = from_predicate(lambda k: k % 2 == 1, 0, 2)
    assert got == ODDS


def test_boolean_ops_match_pointwise_oracle():
    rng = random.Random(4403)
    for _ in range(150):
        a = rand_set(rng)
        b = rand_set(rng)
        qa = a.qlen if isinstance(a, EPSet) else 1
        qb = b.qlen if isinstance(b, EPSet) else 1
        pa = a.plen if isinstance(a, EPSet) else (max(a.elements) + 1 if len(a) else 0)
        pb = b.plen if isinstance(b, EPSet) else (max(b.elements) + 1 if len(b) else 0)
        horizon = max(pa, pb) + 4 * lcm(qa, qb) + 3
        ma = [k in a for k in range(horizon)]
        mb = [k in b for k in range(horizon)]
        assert [k in union(a, b) for k in range(horizon)] == [
            x or y for x, y in zip(ma, mb)
        ]
        assert [k in intersect(a, b) for k in range(horizon)] == [
            x and y for x, y in zip(ma, mb)
        ]
        assert [k in diff(a, b) for k in range(horizon)] == [
            x and not y for x, y in zip(ma, mb)
        ]
        assert [k in complement(a) for k in range(horizon)] == [not x for x in ma]


def test_minkowski_matches_pointwise_oracle():
    rng = random.Random(4404)
    for _ in range(80):
        e = rand_finite(rng, max_elem=8)
        t = rand_set(rng)
        s = minkowski(e, t)
        for x in range(40):
            expected = any(x >= a and (x - a) in t for a in e)
            assert (x in s) == expected


def test_translate_composes():
    rng = random.Random(4405)
    for _ in range(60):
        s = rand_set(rng)
        i, j = rng.randint(0, 5), rng.randint(0, 5)
        assert sets_equal(translate(translate(s, i), j), translate(s, i + j))


def test_equality_ignores_representation():
    rng = random.Random(4406)
    for _ in range(100):
        s = rand_epset(rng)
        plen, pre, qlen, off = rebased(s, s.plen + rng.randint(1, 4))
        # unroll the cycle a few extra times too
        reps = rng.randint(1, 3)
        fat_off = tuple(o + k * qlen for k in range(reps) for o in off)
        assert EPSet(plen, pre, qlen * reps, tuple(sorted(fat_off))) == s


# periods on both sides of 64-bit word boundaries, with small lcms
WIDE_PERIODS = (32, 48, 63, 64, 65, 96, 128, 192, 256, 384, 512)


def is_canonical(s):
    """No proper divisor of qlen is a period, and no prefix position folds."""
    off = set(s.off)
    for d in range(1, s.qlen):
        if s.qlen % d == 0 and all((o in off) == (o % d in off) for o in range(s.qlen)):
            return False
    return not (s.plen and ((s.plen - 1) in s.pre) == ((s.qlen - 1) in off))


def test_wide_canonical_forms_are_minimal_and_exact():
    rng = random.Random(4407)
    for _ in range(80):
        raw = rand_wide_pattern(rng)
        s = EPSet(*raw)
        assert is_canonical(s)
        assert raw[2] % s.qlen == 0 and s.plen <= raw[0]
        horizon = raw[0] + 2 * raw[2]
        assert members_upto(s, horizon) == [k for k in range(horizon + 1) if raw_member(raw, k)]
        assert EPSet(s.plen, s.pre, s.qlen, s.off) == s


def test_wide_set_algebra_matches_pointwise_oracle():
    rng = random.Random(4408)
    for _ in range(40):
        qa, qb = rng.choice(WIDE_PERIODS), rng.choice(WIDE_PERIODS)
        ra = rand_wide_pattern(rng, min_qlen=qa, max_qlen=qa)
        rb = rand_wide_pattern(rng, min_qlen=qb, max_qlen=qb)
        a, b = EPSet(*ra), EPSet(*rb)
        t = rng.randint(0, 70)
        e = FiniteSet(tuple(rng.sample(range(40), 3)))
        n = max(ra[0], rb[0]) + 2 * lcm(ra[2], rb[2]) + t + 40
        ma = [raw_member(ra, k) for k in range(n + 1)]
        mb = [raw_member(rb, k) for k in range(n + 1)]

        def oracle(pred):
            return [k for k in range(n + 1) if pred(k)]

        results = {
            "union": (union(a, b), oracle(lambda k: ma[k] or mb[k])),
            "intersect": (intersect(a, b), oracle(lambda k: ma[k] and mb[k])),
            "diff": (diff(a, b), oracle(lambda k: ma[k] and not mb[k])),
            "complement": (complement(a), oracle(lambda k: not ma[k])),
            "translate": (translate(a, t), oracle(lambda k: k >= t and ma[k - t])),
            "minkowski": (
                minkowski(e, b),
                oracle(lambda k: any(k >= x and mb[k - x] for x in e)),
            ),
        }
        for name, (got, expected) in results.items():
            assert members_upto(got, n) == expected, name
            assert is_canonical(got), name
        m = rng.randint(0, n)
        assert prefix(a, m) == FiniteSet(tuple(oracle(lambda k: k <= m and ma[k])))


def test_wide_boolean_laws_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def build(plen, qlen, pre_bits, off_bits):
        pre = tuple(k for k in range(plen) if pre_bits >> k & 1)
        off = tuple(o for o in range(qlen) if off_bits >> o & 1)
        return EPSet(plen, pre, qlen, off)

    wide = st.builds(
        build,
        st.integers(0, 70),
        st.sampled_from(WIDE_PERIODS),
        st.integers(0, (1 << 70) - 1),
        st.integers(0, (1 << 512) - 1),
    )

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(wide, wide, wide)
    def laws(a, b, c):
        assert complement(complement(a)) == a
        assert union(a, b) == union(b, a)
        assert complement(union(a, b)) == intersect(complement(a), complement(b))
        assert intersect(a, union(b, c)) == union(intersect(a, b), intersect(a, c))
        assert diff(a, b) == intersect(a, complement(b))
        assert is_subset(intersect(a, b), a)

    laws()
