"""Round-trip parsing and formatting of the text forms used by the CLI."""

import random
from fractions import Fraction

import pytest

from geomindep.polynomials import Polynomial
from geomindep.sets import EPSet, FiniteSet
from geomindep.textforms import (
    ParseError,
    format_poly,
    format_rational,
    format_set,
    parse_poly,
    parse_rational,
    parse_set,
)
from support import rand_epset, rand_finite


def test_parse_rational():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/3") == Fraction(-7, 3)


def test_parse_rational_errors():
    for bad in ("", "1/0", "1/2/3", "a", "1.5", "1/ 2"):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_parse_poly():
    assert parse_poly("poly(1,0,1)") == Polynomial((1, 0, 1))
    assert parse_poly("poly(-1,2)") == Polynomial((-1, 2))
    assert parse_poly("poly(0)") == Polynomial(())


def test_parse_poly_errors():
    for bad in ("poly()", "poly(1,)", "1,2", "poly(1 2)", "poly(1,2) "):
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_parse_set_finite():
    assert parse_set("fin(1,4,6)") == FiniteSet((1, 4, 6))
    assert parse_set("fin()") == FiniteSet(())


def test_parse_set_periodic():
    assert parse_set("ep(P=0;pre=;Q=2;off=1)") == EPSet(0, (), 2, (1,))
    assert parse_set("ep(P=2;pre=1;Q=4;off=0,2)") == EPSet(2, (1,), 4, (0, 2))


def test_parse_set_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_set("fin(3,1)")
    assert err.value.pos == 6
    assert "position 6" in str(err.value)
    with pytest.raises(ParseError):
        parse_set("fin(1,1)")
    with pytest.raises(ParseError):
        parse_set("ep(P=0;pre=;Q=0;off=)")
    with pytest.raises(ParseError):
        parse_set("ep(P=0;pre=;Q=2;off=5)")
    with pytest.raises(ParseError):
        parse_set("blocks(3)")


def test_list_errors_keep_their_messages_and_positions():
    cases = {
        "fin(1,-2)": ("expected a natural number", 6),
        "fin(1,)": ("expected a digit", 6),
        "fin(3,2)": ("elements must be strictly ascending", 6),
        "ep(P=0;pre=;Q=9;off=1,20,3)": ("elements must be strictly ascending", 25),
    }
    for text, (message, pos) in cases.items():
        with pytest.raises(ParseError) as err:
            parse_set(text)
        assert err.value.pos == pos
        assert str(err.value) == f"{message} (position {pos})"


def test_roundtrip_long_periodic_set():
    rng = random.Random(2204)
    off = tuple(sorted(rng.sample(range(8192), 4096)))
    s = EPSet(3, (1,), 8192, off)
    text = format_set(s)
    assert len(s.off) == 4096
    assert parse_set(text) == s
    assert format_set(parse_set(text)) == text


def test_format_examples():
    assert format_rational(Fraction(2, 3)) == "2/3"
    assert format_rational(Fraction(5)) == "5"
    assert format_poly(Polynomial((1, 0, 1))) == "poly(1,0,1)"
    assert format_poly(Polynomial(())) == "poly(0)"
    assert format_set(FiniteSet((1, 4))) == "fin(1,4)"
    assert format_set(EPSet(0, (), 2, (1,))) == "ep(P=0;pre=;Q=2;off=1)"


def test_format_uses_canonical_form():
    assert format_set(EPSet(1, (), 4, (0, 2))) == "ep(P=0;pre=;Q=2;off=1)"


def test_roundtrip_rationals():
    rng = random.Random(2201)
    for _ in range(100):
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        assert parse_rational(format_rational(q)) == q


def test_roundtrip_polys():
    rng = random.Random(2202)
    for _ in range(100):
        p = Polynomial(tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 7))))
        assert parse_poly(format_poly(p)) == p


def test_roundtrip_sets():
    rng = random.Random(2203)
    for _ in range(150):
        s = rand_finite(rng, allow_empty=True) if rng.random() < 0.5 else rand_epset(rng)
        assert parse_set(format_set(s)) == s
