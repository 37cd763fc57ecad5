"""The shared sparse substrate: TermMap equality, add_terms and the
binomial division written on it."""

import pytest

from macdaha.npoly import NPoly, TermMap, add_terms
from macdaha.qfield import CR_ONE, CoeffRat, UnitMono
from macdaha.sympoly import SymLaurent


def test_npoly_and_symlaurent_never_equal():
    terms = {(1, 0): CR_ONE, (0, 0): CoeffRat.from_int(3)}
    p = NPoly(2, terms)
    f = SymLaurent(2, terms)
    assert p.terms == f.terms and p.n == f.n
    assert p != f
    assert f != p
    assert NPoly.zero(2) != SymLaurent.zero(2)
    assert SymLaurent.one(2) != NPoly.one(2)
    assert p == NPoly(2, dict(terms)) and f == SymLaurent(2, dict(terms))


def test_shared_operations_keep_the_class():
    f = SymLaurent(2, {(1, 0): CR_ONE})
    p = NPoly(2, {(1, 0): CR_ONE})
    for g, cls in ((f, SymLaurent), (p, NPoly)):
        assert isinstance(g, TermMap)
        for h in (g + g, g - g, -g, g.scalar_mul(2), g.scalar_mul(0),
                  cls.zero(2), cls.one(2)):
            assert type(h) is cls
        assert (g - g).is_zero() and not (g - g)
        assert g.scalar_mul(0) == cls.zero(2)
        assert g + g == g.scalar_mul(CoeffRat.from_int(2))


def test_add_terms_drops_cancelled_sums():
    one, two = CR_ONE, CoeffRat.from_int(2)
    out = {"a": one, "b": two}
    got = add_terms(out, [("a", -one), ("b", one), ("c", two)])
    assert got is out
    assert out == {"b": CoeffRat.from_int(3), "c": two}
    add_terms(out, [("c", -two), ("c", two)])
    assert out == {"b": CoeffRat.from_int(3), "c": two}


def test_add_terms_never_inserts_a_zero():
    zero = CoeffRat.from_int(0)
    out = add_terms({}, [("a", zero), ("b", CR_ONE), ("b", -CR_ONE)])
    assert out == {}
    assert add_terms({"a": CR_ONE}, [("a", zero)]) == {"a": CR_ONE}


def test_divexact_binomial_single_slice():
    # Every term has the same x_1 exponent: one slice, so the quotient is
    # empty and the division is exact only for the zero polynomial.
    assert NPoly.zero(2).divexact_binomial(0, 1) == NPoly.zero(2)
    for terms in ({(0, 3): CR_ONE},
                  {(2, 1): CR_ONE, (2, -1): CoeffRat.from_int(5)}):
        with pytest.raises(ArithmeticError):
            NPoly(2, terms).divexact_binomial(0, 1)
        with pytest.raises(ArithmeticError):
            NPoly(2, terms).divexact_binomial(0, 1, UnitMono.q(2))


def test_divexact_binomial_round_trip():
    c = UnitMono.q(2)
    g = NPoly(3, {(2, 0, 1): CR_ONE, (0, -1, 0): CoeffRat.from_int(-4),
                  (1, 1, 1): CoeffRat.from_int(7)})
    for i, j in ((0, 1), (1, 0), (2, 0), (1, 2)):
        prod = g * NPoly.binomial_product(3, [(i, j, c)])
        assert prod.divexact_binomial(i, j, c) == g
        with pytest.raises(ArithmeticError):
            (prod + NPoly.one(3)).divexact_binomial(i, j, c)
