"""The geometric probability measure as an exact function of the ratio r.

Atom k >= 1 carries mass (1-r)*r^(k-1) and atom 0 carries mass zero, so
sets may contain 0 without it ever contributing to a measure.  Three entry
points share that convention: a symbolic closed form, exact evaluation at
a rational ratio, and a truncated-series float used as a cross-check
oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polynomials import ONE, Polynomial, RationalFunction
from .sets import FiniteSet, SetSpec, bitset, prefix, rebased

ONE_MINUS_R = Polynomial((1, -1))


def _power_sum(exponents) -> Polynomial:
    """Sum of r^e over the given exponents (with multiplicity collapsed upstream)."""
    exponents = list(exponents)
    if not exponents:
        return Polynomial()
    coeffs = [0] * (max(exponents) + 1)
    for e in exponents:
        coeffs[e] += 1
    return Polynomial(tuple(coeffs))


def measure_symbolic(s: SetSpec) -> RationalFunction:
    """Closed-form measure: sum of (1-r)*r^(k-1) over the positive members."""
    if isinstance(s, FiniteSet):
        body = _power_sum(k - 1 for k in s if k >= 1)
        return RationalFunction(ONE_MINUS_R * body, ONE)
    # rebase so the periodic part starts at position >= 1; the prefix sum
    # can then skip atom 0 explicitly and the geometric tail never sees it
    plen, pre, qlen, off = rebased(s, max(1, s.plen))
    head = _power_sum(k - 1 for k in pre if k >= 1)
    tail = _power_sum(off)
    cycle = ONE - Polynomial.monomial(qlen)
    num = ONE_MINUS_R * (head * cycle + Polynomial.monomial(plen - 1) * tail)
    return RationalFunction(num, cycle)


def _power_sum_at(bits: int, p: int, q: int) -> tuple[int, int]:
    """(num, w) with sum of r^j over the set bits j of bits equal to num / q^w.

    One integer pass at r = p/q: each byte of the bitset becomes a looked-up
    sum of p^j q^(8-j), then neighbouring chunks pair up level by level as
    lo * q^width + hi * p^width, like Horner's rule on a balanced tree, so
    the multiplications stay balanced and no Fraction is formed.
    """
    table = [0]
    for j in range(8):
        w = p ** j * q ** (8 - j)
        table += [t + w for t in table]
    chunks = [table[b] for b in bits.to_bytes((bits.bit_length() + 7) // 8, "little")]
    if not chunks:
        return 0, 0
    width, pw, qw = 8, p ** 8, q ** 8
    while len(chunks) > 1:
        if len(chunks) % 2:
            chunks.append(0)
        chunks = [lo * qw + hi * pw for lo, hi in zip(chunks[::2], chunks[1::2])]
        width, pw, qw = 2 * width, pw * pw, qw * qw
    return chunks[0], width


def measure_at(s: SetSpec, r) -> Fraction:
    """Exact measure at a rational ratio r in (0,1)."""
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("ratio must satisfy 0 < r < 1")
    p, q = r.numerator, r.denominator
    if isinstance(s, FiniteSet):
        plen, pre, qlen, off = 0, bitset(s.elements), 1, 0
        zero = pre & 1
    else:
        plen, pre, qlen, off = s.plen, s.pre_bits, s.qlen, s.off_bits
        zero = (pre if plen else off) & 1
    # sum of r^k over the members k is head + r^plen * tail / (1 - r^qlen);
    # the measure is (1-r)/r times that sum without atom 0
    head, hw = _power_sum_at(pre, p, q)
    tail, tw = _power_sum_at(off, p, q)
    e = max(hw, plen + tw)
    cycle = q ** qlen - p ** qlen
    num = ((head * q ** (e - hw) - zero * q ** e) * cycle
           + p ** plen * tail * q ** (qlen + e - plen - tw))
    return Fraction((q - p) * num, p * q ** e * cycle)


def measure_numeric(s: SetSpec, r: float, tol: float) -> float:
    """Truncated-series float measure, within tol of the exact value.

    The mass beyond position K is exactly r^K, so summing the members up to
    the smallest K with r^K <= tol gives the stated error bound.
    """
    if not 0 < r < 1:
        raise ValueError("ratio must satisfy 0 < r < 1")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    k = max(1, math.ceil(math.log(tol) / math.log(r)))
    while r ** k > tol:
        k += 1
    return sum((1 - r) * r ** (e - 1) for e in prefix(s, k) if e >= 1)
