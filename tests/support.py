"""Shared test helpers: seeded random generators and membership oracles."""

from fractions import Fraction

from geomindep.sets import EPSet, FiniteSet, rebased


def rand_finite(rng, max_elem=20, allow_empty=False):
    lo = 0 if allow_empty else 1
    count = rng.randint(lo, 6)
    return FiniteSet(tuple(rng.sample(range(max_elem + 1), count)))


def rand_epset(rng, max_plen=4, max_qlen=6):
    plen = rng.randint(0, max_plen)
    qlen = rng.randint(1, max_qlen)
    pre = tuple(k for k in range(plen) if rng.random() < 0.4)
    off = tuple(o for o in range(qlen) if rng.random() < 0.4)
    return EPSet(plen, pre, qlen, off)


def rand_wide_pattern(rng, max_plen=70, min_qlen=32, max_qlen=512):
    """A raw (plen, pre, qlen, off) with masks wider than a machine word.

    Half the time the period repeats a shorter base pattern, and half the
    time the last preperiod positions copy the period extended backwards,
    so canonicalisation has a period to shrink and a prefix to fold.
    """
    plen = rng.randint(0, max_plen)
    qlen = rng.randint(min_qlen, max_qlen)
    fill = rng.random()
    if rng.random() < 0.5:
        d = rng.choice([d for d in range(1, qlen + 1) if qlen % d == 0])
        base = [rng.random() < fill for _ in range(d)]
        bits = [base[o % d] for o in range(qlen)]
    else:
        bits = [rng.random() < fill for _ in range(qlen)]
    pre = [rng.random() < fill for _ in range(plen)]
    if rng.random() < 0.5:
        for x in range(plen - rng.randint(0, plen), plen):
            pre[x] = bits[(x - plen) % qlen]
    return (
        plen,
        tuple(k for k in range(plen) if pre[k]),
        qlen,
        tuple(o for o in range(qlen) if bits[o]),
    )


def raw_member(pattern, k):
    """Membership of k in a raw (plen, pre, qlen, off), read off directly."""
    plen, pre, qlen, off = pattern
    return k in pre if k < plen else (k - plen) % qlen in off


def rand_set(rng):
    return rand_finite(rng) if rng.random() < 0.5 else rand_epset(rng)


def rand_ratio(rng, max_den=9):
    den = rng.randint(2, max_den)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def members_upto(s, n):
    return [k for k in range(n + 1) if k in s]


def measure_at_reference(s, r):
    """Exact measure at r as a plain sum of Fractions, one per member."""
    r = Fraction(r)
    if isinstance(s, FiniteSet):
        return sum(((1 - r) * r ** (k - 1) for k in s if k >= 1), Fraction(0))
    plen, pre, qlen, off = rebased(s, max(1, s.plen))
    head = sum(((1 - r) * r ** (k - 1) for k in pre if k >= 1), Fraction(0))
    tail = sum((r ** o for o in off), Fraction(0))
    return head + (1 - r) * r ** (plen - 1) * tail / (1 - r ** qlen)
