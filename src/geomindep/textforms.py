"""Strict parsers and formatters for the textual value forms.

Grammar, with no whitespace anywhere:

  rational   INT | INT/NAT
  poly       poly(INT,INT,...)                     ascending coefficients
  set        fin(NAT,...)                          strictly ascending, may be empty
             ep(P=NAT;pre=LIST;Q=NAT;off=LIST)     LIST = possibly empty NAT,...

Parse errors carry the 0-based offset of the first offending character.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import ge

from .polynomials import Polynomial
from .sets import EPSet, FiniteSet, SetSpec


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise ParseError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def integer(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not _is_digit(self.peek()):
            raise ParseError("expected a digit", self.pos)
        while _is_digit(self.peek()):
            self.pos += 1
        return int(self.text[start:self.pos])

    def natural(self) -> int:
        if self.peek() == "-":
            raise ParseError("expected a natural number", self.pos)
        return self.integer()

    def done(self) -> None:
        if self.pos != len(self.text):
            raise ParseError("trailing input", self.pos)


_NATURALS_LIST = re.compile(r"[0-9]+(?:,[0-9]+)*")


def _ascending_naturals(c: _Cursor) -> tuple[int, ...]:
    m = _NATURALS_LIST.match(c.text, c.pos)
    if not m:
        return ()
    tokens = m.group().split(",")
    out = tuple(map(int, tokens))
    if any(map(ge, out, out[1:])):
        i = next(i for i in range(1, len(out)) if out[i] <= out[i - 1])
        start = c.pos + sum(len(t) + 1 for t in tokens[:i])
        raise ParseError("elements must be strictly ascending", start)
    c.pos = m.end()
    if c.peek() == ",":
        c.take(",")
        c.natural()  # raises: no natural number follows the comma
    return out


def parse_rational(text: str) -> Fraction:
    c = _Cursor(text)
    num = c.integer()
    den = 1
    if c.peek() == "/":
        c.take("/")
        start = c.pos
        den = c.natural()
        if den == 0:
            raise ParseError("zero denominator", start)
    c.done()
    return Fraction(num, den)


def parse_poly(text: str) -> Polynomial:
    c = _Cursor(text)
    c.take("poly(")
    coeffs = [c.integer()]
    while c.peek() == ",":
        c.take(",")
        coeffs.append(c.integer())
    c.take(")")
    c.done()
    return Polynomial(tuple(coeffs))


def parse_set(text: str) -> SetSpec:
    c = _Cursor(text)
    if text.startswith("fin("):
        c.take("fin(")
        elems = _ascending_naturals(c)
        c.take(")")
        c.done()
        return FiniteSet(elems)
    if text.startswith("ep("):
        c.take("ep(")
        c.take("P=")
        plen = c.natural()
        c.take(";pre=")
        pre = _ascending_naturals(c)
        c.take(";Q=")
        qlen = c.natural()
        c.take(";off=")
        off = _ascending_naturals(c)
        c.take(")")
        c.done()
        try:
            return EPSet(plen, pre, qlen, off)
        except ValueError as exc:
            raise ParseError(str(exc), 0) from exc
    raise ParseError("expected 'fin(' or 'ep('", 0)


def format_rational(f: Fraction) -> str:
    return str(f)


def format_poly(p: Polynomial) -> str:
    coeffs = p.coeffs or (0,)
    return "poly(" + ",".join(str(c) for c in coeffs) + ")"


def format_set(s: SetSpec) -> str:
    if isinstance(s, FiniteSet):
        return "fin(" + ",".join(str(e) for e in s.elements) + ")"
    pre = ",".join(str(p) for p in s.pre)
    off = ",".join(str(o) for o in s.off)
    return f"ep(P={s.plen};pre={pre};Q={s.qlen};off={off})"
