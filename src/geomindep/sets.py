"""Finite and eventually periodic subsets of the nonnegative integers.

Two immutable representations cover every event this package handles:

* ``FiniteSet`` -- an explicit sorted tuple of elements.
* ``EPSet`` -- eventually periodic membership: position x < plen is a
  member iff bit x of ``pre_bits`` is set; position x >= plen is a member
  iff bit ((x - plen) mod qlen) of ``off_bits`` is set.

An EPSet keeps its two patterns as Python ints used as bitsets, and every
operation computes on whole ints: membership is a shift, complement an
XOR, and union, intersection and difference one bitwise operation on
windows over the common preperiod and ``lcm`` period, each window a
pattern repeated by doubling shifts.  The tuples ``pre`` and ``off`` (the
member positions of each pattern) are a read-only view built on demand,
so the text forms are unchanged.

``EPSet.__post_init__`` rewrites the representation to the canonical one
(minimal period, then minimal preperiod), so structural equality of two
EPSets decides extensional equality.  Both classes support ``in``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import lcm
from operator import and_, or_
from typing import Callable, Union


@dataclass(frozen=True)
class FiniteSet:
    elements: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for e in self.elements:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"set elements must be naturals, got {e!r}")
        object.__setattr__(self, "elements", tuple(sorted(set(self.elements))))

    def __contains__(self, k: int) -> bool:
        return k in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


# bin() digits to 0/1 bytes, so compress() can select positions in C
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def bitset(positions) -> int:
    """The bitset with exactly the given (natural) positions set."""
    if not positions:
        return 0
    digits = bytearray(b"0") * (max(positions) + 1)
    for p in positions:
        digits[~p] = 49  # ord("1"); the most significant digit comes first
    return int(digits, 2)


def _positions(bits: int) -> tuple[int, ...]:
    """The set positions of a bitset, ascending."""
    digits = bin(bits)[:1:-1].encode().translate(_DIGIT_BITS)
    return tuple(compress(range(len(digits)), digits))


def _repeat(pattern: int, width: int, n: int) -> int:
    """A width-bit pattern repeated from bit 0 upwards, cut to n bits."""
    while width < n:
        pattern |= pattern << width
        width *= 2
    return pattern & ((1 << n) - 1) if n > 0 else 0


def _rotate_right(bits: int, k: int, width: int) -> int:
    """Bit (i + k) mod width of a width-bit pattern moved to bit i."""
    k %= width
    return (bits >> k) | ((bits & ((1 << k) - 1)) << (width - k))


def _prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True, init=False, repr=False)
class EPSet:
    plen: int
    pre_bits: int
    qlen: int
    off_bits: int

    def __init__(self, plen: int = 0, pre: tuple[int, ...] = (), qlen: int = 1,
                 off: tuple[int, ...] = ()) -> None:
        if not isinstance(plen, int) or plen < 0:
            raise ValueError("preperiod length must be a natural")
        if not isinstance(qlen, int) or qlen < 1:
            raise ValueError("period length must be >= 1")
        if not all(isinstance(p, int) and 0 <= p < plen for p in pre):
            raise ValueError("pre must lie in [0, plen)")
        if not all(isinstance(o, int) and 0 <= o < qlen for o in off):
            raise ValueError("off must lie in [0, qlen)")
        self._assign(plen, bitset(pre), qlen, bitset(off))
        self.__post_init__()

    @classmethod
    def _from_bits(cls, plen: int, pre_bits: int, qlen: int, off_bits: int) -> EPSet:
        """The canonical set of valid patterns: pre_bits < 2^plen, off_bits < 2^qlen."""
        s = cls.__new__(cls)
        s._assign(plen, pre_bits, qlen, off_bits)
        s.__post_init__()
        return s

    def _assign(self, plen: int, pre_bits: int, qlen: int, off_bits: int) -> None:
        object.__setattr__(self, "plen", plen)
        object.__setattr__(self, "pre_bits", pre_bits)
        object.__setattr__(self, "qlen", qlen)
        object.__setattr__(self, "off_bits", off_bits)

    def __post_init__(self) -> None:
        plen, pre, qlen, off = self.plen, self.pre_bits, self.qlen, self.off_bits
        # minimal period: the periods of a cyclic pattern that divide qlen are
        # the multiples of the minimal one, so divide out one prime at a time
        # while the pattern still repeats with the smaller period
        for f in _prime_factors(qlen):
            while qlen % f == 0:
                q = qlen // f
                # period q: bit i equals bit i + q for every i < qlen - q
                if off >> q != off ^ ((off >> (qlen - q)) << (qlen - q)):
                    break
                qlen, off = q, off & ((1 << q) - 1)
        # minimal preperiod: fold every trailing prefix position that agrees
        # with the period extended backwards, rotating the pattern as it moves
        if plen:
            back = _repeat(_rotate_right(off, -plen, qlen), qlen, plen)
            fold = plen - (pre ^ back).bit_length()
            if fold:
                plen -= fold
                pre &= (1 << plen) - 1
                off = _rotate_right(off, -fold, qlen)
        self._assign(plen, pre, qlen, off)

    @property
    def pre(self) -> tuple[int, ...]:
        return _positions(self.pre_bits)

    @property
    def off(self) -> tuple[int, ...]:
        return _positions(self.off_bits)

    def __repr__(self) -> str:
        return f"EPSet(plen={self.plen}, pre={self.pre}, qlen={self.qlen}, off={self.off})"

    def __contains__(self, k: int) -> bool:
        if k < 0:
            return False
        if k < self.plen:
            return bool(self.pre_bits >> k & 1)
        return bool(self.off_bits >> ((k - self.plen) % self.qlen) & 1)


SetSpec = Union[FiniteSet, EPSet]

EMPTY = FiniteSet()
NATURALS = EPSet(0, (), 1, (0,))


def member(s: SetSpec, k: int) -> bool:
    return k in s


def to_epset(s: SetSpec) -> EPSet:
    """Eventually periodic view of any set; finite sets get an empty period."""
    if isinstance(s, EPSet):
        return s
    if not s.elements:
        return EPSet()
    return EPSet(s.elements[-1] + 1, s.elements, 1, ())


def _window(s: EPSet, n: int) -> int:
    """Membership of positions [0, n) as a bitset."""
    body = _repeat(s.off_bits, s.qlen, n - s.plen) << s.plen
    return (s.pre_bits | body) & ((1 << n) - 1)


def _combine(a: EPSet, b: EPSet, op: Callable[[int, int], int]) -> EPSet:
    """The set whose membership is op applied bitwise to a's and b's."""
    plen = max(a.plen, b.plen)
    qlen = lcm(a.qlen, b.qlen)
    bits = op(_window(a, plen + qlen), _window(b, plen + qlen))
    return EPSet._from_bits(plen, bits & ((1 << plen) - 1), qlen, bits >> plen)


def _and_not(x: int, y: int) -> int:
    return x & ~y


def union(a: SetSpec, b: SetSpec) -> SetSpec:
    if isinstance(a, FiniteSet) and isinstance(b, FiniteSet):
        return FiniteSet(a.elements + b.elements)
    return _combine(to_epset(a), to_epset(b), or_)


def intersect(a: SetSpec, b: SetSpec) -> SetSpec:
    # an intersection with a finite set is finite, so keep it explicit
    if isinstance(a, FiniteSet):
        return FiniteSet(tuple(e for e in a if e in b))
    if isinstance(b, FiniteSet):
        return FiniteSet(tuple(e for e in b if e in a))
    return _combine(a, b, and_)


def diff(a: SetSpec, b: SetSpec) -> SetSpec:
    if isinstance(a, FiniteSet):
        return FiniteSet(tuple(e for e in a if e not in b))
    return _combine(a, to_epset(b), _and_not)


def complement(s: SetSpec) -> EPSet:
    e = to_epset(s)
    return EPSet._from_bits(e.plen, e.pre_bits ^ ((1 << e.plen) - 1),
                            e.qlen, e.off_bits ^ ((1 << e.qlen) - 1))


def translate(s: SetSpec, t: int) -> SetSpec:
    """{x + t : x in s} for a natural shift t."""
    if not isinstance(t, int) or t < 0:
        raise ValueError("translation must be by a natural")
    if isinstance(s, FiniteSet):
        return FiniteSet(tuple(e + t for e in s))
    return EPSet._from_bits(s.plen + t, s.pre_bits << t, s.qlen, s.off_bits)


def minkowski(e: FiniteSet, t: SetSpec) -> SetSpec:
    """{a + b : a in e, b in t}; the left operand must be finite and nonempty."""
    if not isinstance(e, FiniteSet):
        raise ValueError("left operand of the set sum must be finite")
    if not e.elements:
        raise ValueError("left operand of the set sum must be nonempty")
    acc = translate(t, e.elements[0])
    for shift in e.elements[1:]:
        acc = union(acc, translate(t, shift))
    return acc


def prefix(s: SetSpec, n: int) -> FiniteSet:
    """The members of s that are <= n, as an explicit finite set."""
    if n < 0:
        raise ValueError("prefix bound must be a natural")
    if isinstance(s, FiniteSet):
        return FiniteSet(tuple(e for e in s if e <= n))
    return FiniteSet(_positions(_window(s, n + 1)))


def sets_equal(a: SetSpec, b: SetSpec) -> bool:
    """Extensional equality, decided on canonical eventually periodic forms."""
    return to_epset(a) == to_epset(b)


def is_empty(s: SetSpec) -> bool:
    if isinstance(s, FiniteSet):
        return not s.elements
    return not (s.pre_bits or s.off_bits)


def is_subset(a: SetSpec, b: SetSpec) -> bool:
    return is_empty(diff(a, b))


def from_predicate(pred: Callable[[int], bool], plen: int, qlen: int) -> EPSet:
    """Build a set by sampling pred over one preperiod and one period window.

    The caller guarantees that pred is eventually periodic with preperiod
    plen and period qlen; the result is then exact.
    """
    if plen < 0 or qlen < 1:
        raise ValueError("need plen >= 0 and qlen >= 1")
    pre = [k for k in range(plen) if pred(k)]
    off = [o for o in range(qlen) if pred(plen + o)]
    return EPSet._from_bits(plen, bitset(pre), qlen, bitset(off))


def rebased(s: EPSet, min_plen: int) -> tuple[int, tuple[int, ...], int, tuple[int, ...]]:
    """A non-canonical (plen, pre, qlen, off) view of s with plen >= min_plen.

    Moves the period start forward; the extension is unchanged.
    """
    plen = max(s.plen, min_plen)
    off = _rotate_right(s.off_bits, plen - s.plen, s.qlen)
    return plen, _positions(_window(s, plen)), s.qlen, _positions(off)
