import time
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_mul

from macdaha import clear_caches
from macdaha.macops import macdonald_eigen
from macdaha.npoly import NPoly
from macdaha.qfield import CR_ONE, CoeffRat, LaurentQT, UnitMono, qnum
from macdaha.sympoly import (SymLaurent, e_sym, eval_sym, from_npoly, m_sym,
                             mono_shift, orbit, sym_to_json, to_npoly)


def test_m_sym_orbits():
    assert to_npoly(m_sym((1, 0), 2)).terms == {(1, 0): CR_ONE, (0, 1): CR_ONE}
    assert to_npoly(m_sym((1, 1), 2)).terms == {(1, 1): CR_ONE}
    assert to_npoly(m_sym((1, -1), 2)).terms == {(1, -1): CR_ONE, (-1, 1): CR_ONE}


def test_orbit_matches_all_permutations():
    rng = Random(20)
    sigs = [(), (0,), (1, 1, 1), (2, -1, -1, -3)]
    for _ in range(60):
        n = rng.randint(1, 7)
        sigs.append(tuple(sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)))
    for sig in sigs:
        assert orbit(sig) == tuple(sorted(set(permutations(sig)))), sig


def test_orbit_cost_follows_distinct_permutations():
    clear_caches()
    t0 = time.perf_counter()
    f = macdonald_eigen((0,) * 10, 10)
    assert time.perf_counter() - t0 < 0.5
    assert f == SymLaurent.one(10)


def test_e_sym():
    assert e_sym(0, 3) == SymLaurent.one(3)
    assert e_sym(1, 2) == m_sym((1, 0), 2)
    assert e_sym(2, 2) == m_sym((1, 1), 2)
    with pytest.raises(ValueError):
        e_sym(4, 3)


def test_mul_expansions():
    m10 = m_sym((1, 0), 2)
    assert m10 * m10 == m_sym((2, 0), 2) + m_sym((1, 1), 2).scalar_mul(2)
    f = m_sym((2, 1), 2) + m_sym((1, 1), 2).scalar_mul(3)
    assert f * SymLaurent.one(2) == f
    assert e_sym(1, 3) * e_sym(2, 3) == \
        m_sym((2, 1, 0), 3) + m_sym((1, 1, 1), 3).scalar_mul(3)


def test_mul_against_brute_force():
    f = m_sym((2, 0), 2) + m_sym((1, -1), 2).scalar_mul(2)
    g = m_sym((1, 1), 2) + m_sym((1, 0), 2)
    got = to_npoly(f * g).terms
    want = brute_mul(to_npoly(f).terms, to_npoly(g).terms)
    assert got == want


def test_eval():
    q = UnitMono.q
    assert eval_sym(m_sym((1, 0), 2), [q(1), q(-1)]) == qnum(2)
    assert eval_sym(SymLaurent.one(2), [q(7), UnitMono.t(3)]) == CR_ONE
    assert eval_sym(m_sym((1, 1), 2), [q(2), q(-2)]) == CR_ONE


def test_eval_is_ring_homomorphism():
    pt = [UnitMono.q(1), UnitMono(1, 1, 1)]
    f = m_sym((2, 0), 2) + m_sym((1, 1), 2).scalar_mul(3)
    g = m_sym((1, 0), 2) + m_sym((0, -1), 2)
    assert eval_sym(f * g, pt) == eval_sym(f, pt) * eval_sym(g, pt)
    assert eval_sym(f + g, pt) == eval_sym(f, pt) + eval_sym(g, pt)


def test_mono_shift():
    assert mono_shift(m_sym((1, 0), 2), 1) == m_sym((2, 1), 2)
    f = m_sym((2, 1), 2)
    assert mono_shift(f, 0) == f
    assert mono_shift(m_sym((0, 0), 2), -1) == m_sym((-1, -1), 2)
    g = m_sym((1, 0), 2)
    assert mono_shift(f, 1) * mono_shift(g, 2) == mono_shift(f * g, 3)


@st.composite
def sym_polys(draw):
    keys = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        parts = sorted((draw(st.integers(min_value=-2, max_value=2))
                        for _ in range(2)), reverse=True)
        keys.append(tuple(parts))
    terms = {k: CoeffRat.from_int(draw(st.integers(min_value=-3, max_value=3)))
             for k in keys}
    return SymLaurent(2, {k: v for k, v in terms.items() if v})


@settings(max_examples=30, deadline=None)
@given(sym_polys(), sym_polys(), sym_polys())
def test_mul_commutative_associative(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


def test_fold_rejects_nonsymmetric():
    p = NPoly(2, {(1, 0): CR_ONE})
    with pytest.raises(ArithmeticError):
        from_npoly(p)
    p2 = NPoly(2, {(1, 0): CR_ONE, (0, 1): CoeffRat.from_int(2)})
    with pytest.raises(ArithmeticError):
        from_npoly(p2)


def test_divexact_binomial():
    p = NPoly(2, {(2, 0): CR_ONE, (0, 2): -CR_ONE})
    assert p.divexact_binomial(0, 1).terms == {(1, 0): CR_ONE, (0, 1): CR_ONE}
    lau = NPoly(2, {(0, -1): CR_ONE, (-1, 0): -CR_ONE})
    assert lau.divexact_binomial(0, 1).terms == {(-1, -1): CR_ONE}
    scaled = NPoly(2, {(1, 0): CR_ONE, (0, 1): -UnitMono.q(2).as_coeffrat()})
    prod = scaled * NPoly(2, {(1, 1): CR_ONE})
    assert prod.divexact_binomial(0, 1, UnitMono.q(2)) == NPoly(2, {(1, 1): CR_ONE})
    with pytest.raises(ArithmeticError):
        NPoly(2, {(1, 0): CR_ONE}).divexact_binomial(0, 1)


def test_json_rendering():
    f = m_sym((2, 0), 2) + m_sym((1, 1), 2).scalar_mul(
        CoeffRat(LaurentQT({(1, 0): 1})))
    doc = sym_to_json(f)
    assert doc == {
        "n": 2,
        "basis": "monomial-symmetric",
        "terms": [{"sig": [1, 1], "coeff": "q"}, {"sig": [2, 0], "coeff": "1"}],
    }
