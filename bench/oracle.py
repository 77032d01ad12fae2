"""Exact reference computations the benchmark checks program output against.

Nothing here imports geomindep.  Sets are held in a plain "window" form: an
eventually periodic set is ``Window(P, Q, members)`` where ``members`` lists
the members below ``P + Q`` and every position x >= P repeats with period Q.
The form need not be canonical; ``canonical_text`` produces the canonical
text the program prints.  Measures are evaluated by integer Horner sums, a
different route from the library's Fraction and polynomial arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


@dataclass(frozen=True)
class Window:
    P: int
    Q: int
    members: frozenset

    def __contains__(self, x: int) -> bool:
        if x >= self.P + self.Q:
            x = self.P + (x - self.P) % self.Q
        return x in self.members


def window(P: int, Q: int, pred) -> Window:
    return Window(P, Q, frozenset(x for x in range(P + Q) if pred(x)))


def finite(elements) -> Window:
    elements = frozenset(elements)
    return Window(max(elements, default=-1) + 1, 1, elements)


def ep(P: int, pre, Q: int, off) -> Window:
    return Window(P, Q, frozenset(pre) | frozenset(P + o for o in off))


def blocks(n: int) -> Window:
    """B(n): the block {1..n-1} repeated with period 2(n-1)."""
    return ep(0, (), 2 * (n - 1), range(1, n))


def shift_sum(s: Window, t: int) -> Window:
    """{0, t} + s."""
    return window(s.P + t, s.Q, lambda x: x in s or (x >= t and x - t in s))


def intersection(sets) -> Window:
    P = max(s.P for s in sets)
    Q = lcm(*(s.Q for s in sets))
    return window(P, Q, lambda x: all(x in s for s in sets))


def lowered(n: int, classes: Window) -> Window:
    """Class k >= 1 replaced by the k-th block of B(n), then summed with {0, n-1}."""
    m = n - 1

    def lift(x: int) -> bool:
        if x < 1:
            return False
        q, rem = divmod(x - 1, 2 * m)
        return rem < m and (q + 1) in classes

    lifted = window(2 * m * classes.P, 2 * m * classes.Q, lift)
    return shift_sum(lifted, m)


def sequence_family(params) -> list[Window]:
    out = []
    for i, p in enumerate(params):
        s = blocks(p)
        for outer in reversed(params[:i]):
            s = lowered(outer, s)
        out.append(s)
    return out


# ---------------------------------------------------------------- text forms

_EP = re.compile(r"ep\(P=(\d+);pre=([\d,]*);Q=(\d+);off=([\d,]*)\)\Z")
_FIN = re.compile(r"fin\(([\d,]*)\)\Z")


def _nats(text: str) -> list[int]:
    return [int(v) for v in text.split(",")] if text else []


def parse_set(text: str) -> Window:
    m = _EP.match(text)
    if m:
        return ep(int(m[1]), _nats(m[2]), int(m[3]), _nats(m[4]))
    m = _FIN.match(text)
    if m:
        return finite(_nats(m[1]))
    raise ValueError(f"not a set: {text[:60]!r}")


def ep_text(P: int, pre, Q: int, off) -> str:
    j = lambda xs: ",".join(map(str, xs))  # noqa: E731
    return f"ep(P={P};pre={j(pre)};Q={Q};off={j(off)})"


def fin_text(elements) -> str:
    return "fin(" + ",".join(map(str, sorted(elements))) + ")"


def canonical_text(s: Window) -> str:
    """The canonical ep(...) text: minimal period, then minimal preperiod."""
    P, Q = s.P, s.Q
    for d in range(1, Q + 1):
        if Q % d == 0 and all((P + o in s) == (P + o % d in s) for o in range(Q)):
            Q = d
            break
    while P > 0 and ((P - 1) in s) == ((P - 1 + Q) in s):
        P -= 1
    pre = [x for x in range(P) if x in s]
    off = [o for o in range(Q) if P + o in s]
    return ep_text(P, pre, Q, off)


def parse_poly(text: str) -> list[int]:
    if not (text.startswith("poly(") and text.endswith(")")):
        raise ValueError(f"not a polynomial: {text[:60]!r}")
    return [int(c) for c in text[5:-1].split(",")]


# ------------------------------------------------------------------ measures


def _horner(exponents, top: int, p: int, q: int) -> int:
    """sum of p^k q^(top-k) over the given exponents k in [0, top]."""
    present = set(exponents)
    acc, pk = 0, 1
    for k in range(top + 1):
        acc *= q
        if k in present:
            acc += pk
        pk *= p
    return acc


def measure(s: Window, r: Fraction) -> Fraction:
    """P(s) at ratio r: atom x >= 1 has mass (1-r) r^(x-1), atom 0 none.

    The window [0, P+Q) is summed term by term; the positions beyond it
    repeat the last period and form a geometric tail.
    """
    p, q = r.numerator, r.denominator
    L = s.P + s.Q
    head = Fraction(0)
    if L >= 2:
        exps = [x - 1 for x in s.members if x >= 1]
        head = Fraction(_horner(exps, L - 2, p, q), q ** (L - 2))
    offs = [x - s.P for x in s.members if x >= s.P]
    cyc = _horner(offs, s.Q - 1, p, q)  # sum r^o times q^(Q-1)
    tail = Fraction(p ** (L - 1) * cyc * q, q ** (L - 1) * (q ** s.Q - p ** s.Q))
    return (1 - r) * (head + tail)


def poly_at(coeffs, r: Fraction) -> Fraction:
    p, q = r.numerator, r.denominator
    d = len(coeffs) - 1
    acc, qpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * qpow
        qpow *= q
    # acc = sum c_i p^i q^(d-i)
    return Fraction(acc, q ** d)


def threshold_fn(m: int, x: Fraction) -> Fraction:
    xm = x ** m
    return (2 * x - 1) * (1 + xm) - xm


def threshold_lo(m: int) -> Fraction:
    """A rational within 1e-9 below t_m."""
    lo, hi = Fraction(1, 2), Fraction(1)
    while hi - lo > Fraction(1, 10 ** 9):
        mid = (lo + hi) / 2
        if threshold_fn(m, mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo


def index_subsets(k: int) -> list[tuple[int, ...]]:
    return sorted(c for size in range(2, k + 1) for c in combinations(range(k), size))


def grown_forms(n: int, bound: int) -> list[str]:
    """Every subset of {0..bound} of the form {0,n-1}+T, T a nonempty block seed,
    with and without the null atom 0, as fin(...) texts in enumeration order."""
    m = n - 1
    b = blocks(n)
    seeds = [t for t in range(1, bound - m + 1) if t in b]
    out = []
    for mask in range(1, 1 << len(seeds)):
        T = [t for i, t in enumerate(seeds) if mask >> i & 1]
        core = set(T) | {t + m for t in T}
        out.append(tuple(sorted(core)))
        out.append(tuple(sorted(core | {0})))
    out.sort()
    return [fin_text(e) for e in out]


def independent_subsets(b: Window, r: Fraction, bound: int) -> list[str]:
    """Every subset of {0..bound} of positive measure independent of b at r,
    as fin(...) texts in the order of their sorted elements.

    With atom k of mass w_k / q^bound and P(b) = n/d, a set A of atoms in
    {1..bound} is independent of b iff the sum over A of
    w_k (d [k in b] - n) is 0.  The atoms are split in two halves whose
    subset sums are matched through a dict; the null atom 0 may be added to
    any match.
    """
    pb = measure(b, r)
    p, q = r.numerator, r.denominator
    coef = {k: (q - p) * p ** (k - 1) * q ** (bound - k)
            * (pb.denominator * (k in b) - pb.numerator) for k in range(1, bound + 1)}

    def subset_sums(atoms) -> dict[int, list[tuple[int, ...]]]:
        out: dict[int, list[tuple[int, ...]]] = {}
        for mask in range(1 << len(atoms)):
            chosen = tuple(k for i, k in enumerate(atoms) if mask >> i & 1)
            out.setdefault(sum(coef[k] for k in chosen), []).append(chosen)
        return out

    half = bound // 2
    low = subset_sums(range(1, half + 1))
    found = []
    for total, highs in subset_sums(range(half + 1, bound + 1)).items():
        for lo in low.get(-total, ()):
            for hi in highs:
                if lo or hi:
                    found += [lo + hi, (0,) + lo + hi]
    found.sort()
    return [fin_text(e) for e in found]


def content(coeffs) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return g
