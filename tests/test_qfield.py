import importlib
import pkgutil
import sys

from hypothesis import given, settings, strategies as st

import macdaha
from macdaha.qfield import (CR_ONE, CR_ZERO, CoeffRat, DomainViolationError,
                            LaurentQT, UnitMono, poch_ratio, qfact, qfall, qfall_ratio,
                            qnum, subst)

import pytest


def L(terms):
    return LaurentQT(terms)


def test_qnum_values():
    assert qnum(0) == CR_ZERO
    assert qnum(1) == CR_ONE
    assert qnum(2) == CoeffRat(L({(1, 0): 1, (-1, 0): 1}))
    assert qnum(-2) == -qnum(2)
    assert str(qnum(3)) == "q^2 + 1 + q^-2"


def test_qfall_values():
    assert qfall(5, 0) == CR_ONE
    assert qfall(2, 2) == qnum(2)
    assert qfall(1, 3) == CR_ZERO


def test_qfact_values():
    assert qfact(0) == CR_ONE
    assert qfact(1) == CR_ONE
    assert qfact(3) == qnum(3) * qnum(2)
    with pytest.raises(ValueError):
        qfact(-1)


def test_poch_ratio_values():
    assert poch_ratio(7, 0, 3) == CR_ONE
    assert poch_ratio(0, 1, 1) == CoeffRat(L({(0, 0): 1, (0, 1): -1}))
    assert poch_ratio(2, 1, 0) == CoeffRat(L({(0, 0): 1, (2, 0): -1}))
    # the factor 1 - q^0 t^0 = 0 lies in the range
    assert poch_ratio(0, 1, 0) == CR_ZERO
    assert poch_ratio(-2, 3, 0) == CR_ZERO


def test_subst_examples():
    one_minus_t = CoeffRat(L({(0, 0): 1, (0, 1): -1}))
    assert subst(one_minus_t, t_image=UnitMono.q(2)) == \
        CoeffRat(L({(0, 0): 1, (2, 0): -1}))
    one_minus_q = CoeffRat(L({(0, 0): 1, (1, 0): -1}))
    assert subst(one_minus_t / one_minus_q, t_image=UnitMono.q(1)) == CR_ONE
    assert subst(qnum(2), q_image=UnitMono.q(-1)) == qnum(2)


def test_subst_vanishing_denominator_rejected():
    x = CR_ONE / CoeffRat(L({(0, 0): 1, (0, 1): -1}))  # 1/(1 - t)
    with pytest.raises(DomainViolationError):
        subst(x, t_image=UnitMono.one())


def test_qfall_recursion():
    for a in range(-4, 5):
        for m in range(1, 5):
            assert qfall(a, m) == qnum(a) * qfall(a - 1, m - 1)


def test_qfall_and_qfact_equal_the_sequential_product():
    # The product tree gives the product of q-numbers taken one at a time.
    for a in range(-6, 30):
        for m in range(0, 14):
            want = CR_ONE
            for i in range(m):
                want = want * qnum(a - i)
            assert str(qfall(a, m)) == str(want), (a, m)
    want = CR_ONE
    for a in range(0, 40):
        want = want * qnum(a) if a else want
        assert str(qfact(a)) == str(want), a


def _qnum_product(runs):
    """prod [x]_L^s over runs, each q-number multiplied or divided in turn
    in field arithmetic."""
    val = CR_ONE
    for x, L, s in runs:
        for _ in range(abs(s)):
            for i in range(L):
                val = val * qnum(x - i) if s > 0 else val / qnum(x - i)
    return val


def test_qfall_ratio_is_the_field_quotient():
    # Byte-identical strings: negative arguments, runs of length 0,
    # powers, q-numbers that cancel between runs, and an empty list.
    cases = [[], [(5, 0, 1)], [(3, 3, 1)], [(-2, 3, 1)], [(4, 2, -1)], [(-3, 2, -1)],
             [(7, 3, 1), (6, 2, -1)], [(5, 4, 2), (-1, 3, -1), (9, 2, -3)],
             [(12, 5, 1), (-4, 4, 1), (8, 6, -1), (-2, 2, -2)],
             [(a - b + 4, 3, s) for a, b, s in ((3, 1, 1), (2, 0, 1), (5, 2, -1), (1, 0, -1))]]
    for runs in cases:
        assert str(qfall_ratio(runs)) == str(_qnum_product(runs)), runs
    for x in range(-6, 7):
        for L in range(0, 4):
            for s in (1, -1, 2):
                runs = [(x, L, s), (x + 2, L + 1, -1)]
                if not any(0 <= y < M for y, M, _ in runs):
                    assert str(qfall_ratio(runs)) == str(_qnum_product(runs)), runs


def test_qfall_ratio_zero_argument():
    # [0] in a numerator run gives 0; in a denominator run it raises, also
    # when a numerator run holds [0] as well.
    assert qfall_ratio([(2, 3, 1), (5, 2, -1)]) == CR_ZERO
    assert qfall_ratio([(0, 1, 2)]) == CR_ZERO
    for runs in ([(1, 2, -1)], [(3, 4, -1), (2, 3, 1)], [(5, 2, 1), (0, 1, -2)]):
        with pytest.raises(DomainViolationError):
            qfall_ratio(runs)


def test_qfact_does_not_recurse():
    # [60]! with 30 frames of stack to spare: one frame per factor would
    # need 60.
    macdaha.clear_caches()
    limit = sys.getrecursionlimit()
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    sys.setrecursionlimit(depth + 30)
    try:
        value = qfact(60)
    finally:
        sys.setrecursionlimit(limit)
    assert value == qfall(60, 60) and len(value.num.terms) == 60 * 59 // 2 + 1


def test_poch_splitting():
    for a in (-3, 0, 2):
        for d1 in range(0, 4):
            for d2 in range(0, 3):
                for b in (0, 1, 2):
                    assert poch_ratio(a, d1 + d2, b) == \
                        poch_ratio(a, d1, b) * poch_ratio(a + d1, d2, b)


def test_canonical_denominator_form():
    x = CoeffRat(L({(0, 0): 1, (0, 1): -1}), L({(0, 0): 1, (1, 0): -1}))
    # Denominator leading coefficient positive under graded lex, no Laurent
    # content: (1-t)/(1-q) normalizes to (t-1)/(q-1).
    assert str(x) == "(t - 1)/(q - 1)"
    y = CoeffRat(L({(0, 0): 1}), L({(1, 1): 2, (2, 1): 2}))
    qmin = min(a for a, _ in y.den.terms)
    tmin = min(b for _, b in y.den.terms)
    assert qmin == 0 and tmin == 0


def test_rendering_term_order():
    # graded-lex term order (q before t), denominator lead positive
    x = CoeffRat(L({(2, 2): -1, (2, 0): 1, (0, 2): -1, (0, 0): 1}),
                 L({(2, 2): 1, (0, 0): -1}))
    assert str(x) == "(-q^2*t^2 + q^2 - t^2 + 1)/(q^2*t^2 - 1)"
    y = CoeffRat(L({(2, 2): -1, (2, 0): 1, (0, 2): -1, (0, 0): 1}),
                 L({(2, 2): -1, (0, 0): 1}))
    assert str(y) == "(q^2*t^2 - q^2 + t^2 - 1)/(q^2*t^2 - 1)"


def test_unit_mono_algebra():
    u = UnitMono(-1, 2, -1)
    assert u * u.inv() == UnitMono.one()
    assert u ** 3 == UnitMono(-1, 6, -3)
    assert u ** 2 == UnitMono(1, 4, -2)


small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def coeffrats(draw):
    nterms = draw(st.integers(min_value=1, max_value=3))
    num = {}
    for _ in range(nterms):
        num[(draw(small_ints), draw(st.integers(min_value=-2, max_value=2)))] = \
            draw(st.integers(min_value=-5, max_value=5))
    den = {(draw(st.integers(min_value=0, max_value=2)),
            draw(st.integers(min_value=0, max_value=2))):
           draw(st.integers(min_value=1, max_value=3))}
    den[(0, 0)] = den.get((0, 0), 0) + 1
    return CoeffRat(LaurentQT(num), LaurentQT(den))


@settings(max_examples=60, deadline=None)
@given(coeffrats(), coeffrats(), coeffrats())
def test_field_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert x - x == CR_ZERO


@settings(max_examples=40, deadline=None)
@given(coeffrats(), coeffrats())
def test_division_inverts(x, y):
    if not x.is_zero():
        assert x / x == CR_ONE
        assert (y / x) * x == y
        assert x.inv() * x == CR_ONE


@settings(max_examples=40, deadline=None)
@given(coeffrats())
def test_canonical_form_is_reduced(x):
    # gcd(num, den) must be trivial: re-normalizing changes nothing.
    y = CoeffRat(x.num, x.den)
    assert y.num.terms == x.num.terms and y.den.terms == x.den.terms


def test_qnum_qinv_symmetry():
    for a in range(0, 7):
        assert subst(qnum(a), q_image=UnitMono.q(-1)) == qnum(a)
        assert qnum(-a) == -qnum(a)


# ---------------------------------------------------------------------------
# The exact Z[q] kernel: GCDHEU with cofactors, packed products, exact
# division.  The pseudo-remainder gcd `_q_gcd` and schoolbook products are
# the oracles.

from math import gcd
from random import Random

from macdaha import qfield


def q_poly(rng, terms, lo=0, hi=12, cmax=9):
    u = {}
    for _ in range(terms):
        c = rng.randint(-cmax, cmax)
        if c:
            u[rng.randint(lo, hi)] = c
    return u or {lo: 1}


def q_number(a):
    return {a - 1 - 2 * i + a: 1 for i in range(a)}   # q^a [a], a polynomial


def q_numbers(*args):
    r = {0: 1}
    for a in args:
        r = qfield._q_mul(r, q_number(a))
    return r


def schoolbook(A, B):
    C = {}
    for (a1, b1), c1 in A.items():
        for (a2, b2), c2 in B.items():
            k = (a1 + a2, b1 + b2)
            C[k] = C.get(k, 0) + c1 * c2
    return {k: c for k, c in C.items() if c}


def gcd_cases():
    rng = Random(20260418)
    big = 2 ** 70 + 12345
    cases = [
        (q_numbers(3, 5, 7, 8), q_numbers(5, 8, 9, 11)),
        (q_numbers(*range(2, 12)), q_numbers(*range(6, 15))),
        (q_numbers(4, 4, 6), q_numbers(2, 3)),
        ({0: 6, 2: -4}, {0: 9, 2: -6}),             # integer content 2 and 3
        ({3: 1}, {1: 5, 4: 7}),                      # monomial
        ({0: 7}, {0: 14, 1: 21}),                    # constant
        ({0: -3}, {0: -3}),
        ({0: 1, 1: 1}, {0: 1, 1: -1}),               # coprime
        ({0: big, 5: -big}, {0: big * 3, 2: big}),   # beyond 2^64
        ({0: -1, 2: 1}, {0: -1, 2: 1}),              # equal inputs
    ]
    for _ in range(40):
        g = q_poly(rng, rng.randint(1, 6), hi=8)
        u = qfield._q_mul(g, q_poly(rng, rng.randint(1, 8)))
        v = qfield._q_mul(g, q_poly(rng, rng.randint(1, 8)))
        cases.append((qfield._q_scale(u, rng.choice((1, -2, 3))),
                      qfield._q_scale(v, rng.choice((1, 6, -big)))))
    return cases


@pytest.mark.parametrize("u, v", gcd_cases())
def test_gcd_cofactors_match_prs_oracle(u, v):
    g, f, h = qfield._q_gcd_cofactors(u, v)
    assert g == qfield._q_gcd(u, v)
    assert qfield._q_mul(g, f) == u
    assert qfield._q_mul(g, h) == v


@pytest.mark.parametrize("u, v", gcd_cases()[:20])
def test_gcd_cofactors_fallback_agrees(u, v, monkeypatch):
    expected = qfield._q_gcd_cofactors(u, v)
    monkeypatch.setattr(qfield, "_HEU_TRIES", 0)
    assert qfield._q_gcd_cofactors(u, v) == expected


def test_gcd_cofactors_laurent_maps():
    rng = Random(7)
    for _ in range(30):
        tfree = rng.random() < 0.5
        g = {(a, 0 if tfree else rng.randint(0, 2)): c
             for a, c in q_poly(rng, 3, hi=4).items()}
        A = schoolbook(g, {(a - 6, 0 if tfree else 1): c
                           for a, c in q_poly(rng, 5).items()})
        B = schoolbook(g, {(a - 3, 2): c for a, c in q_poly(rng, 4).items()})
        G, F, H = qfield._gcd_cofactors(A, B)
        assert min(a for a, _ in G) == 0 and min(b for _, b in G) == 0
        assert qfield._lead_coeff(G) > 0
        assert schoolbook(G, F) == A and schoolbook(G, H) == B
        # G is a gcd: it absorbs the planted factor up to a unit monomial.
        a0, b0 = qfield._min_exps(g)
        qfield._poly_divexact(G, qfield._shift(g, -a0, -b0))


def test_packed_product_matches_schoolbook(monkeypatch):
    packed = []
    kron = qfield._q_kron_mul
    monkeypatch.setattr(qfield, "_q_kron_mul",
                        lambda u, v: packed.append(1) or kron(u, v))
    rng = Random(11)
    cases = [
        # (1 + ... + q^31)(1 - q)(1 + q^32) = 1 - q^64: all else cancels.
        ({(a, 0): 1 for a in range(32)},
         {(0, 0): 1, (1, 0): -1, (32, 0): 1, (33, 0): -1}),
        ({(a - 20, 3): (-1) ** a * (2 ** 80 + a) for a in range(30)},
         {(-a, -1): -(3 ** a) for a in range(12)}),
    ]
    for _ in range(20):
        cases.append(({(a - 10, 0): c for a, c in q_poly(rng, 40, hi=60).items()},
                      {(a - 30, 0): c for a, c in
                       q_poly(rng, 20, hi=40, cmax=10 ** rng.randint(1, 30)).items()}))
    for _ in range(6):
        # both variables: t -> q^D packs them into one Z[q] product
        cases.append(({(rng.randint(-6, 6), rng.randint(-2, 2)): rng.randint(-9, 9) or 1
                       for _ in range(40)},
                      {(rng.randint(-3, 9), rng.randint(0, 4)): rng.randint(-10 ** 20, 10 ** 20) or 1
                       for _ in range(30)}))
    for A, B in cases:
        assert qfield._mul(A, B) == schoolbook(A, B)
        assert qfield._mul(A, qfield._neg(A)) == qfield._neg(schoolbook(A, A))
    assert len(packed) == 2 * len(cases)
    assert qfield._mul(*cases[0]) == {(0, 0): 1, (64, 0): -1}


def test_divexact_exact_and_wide_quotients():
    # (1 - q^10)^8 / (1 - q)^8 has quotient coefficients far wider than
    # either operand's; the division must still return it.
    u, v = {0: 1}, {0: 1}
    for _ in range(8):
        u = qfield._q_mul(u, {0: 1, 10: -1})
        v = qfield._q_mul(v, {0: 1, 1: -1})
    u = qfield._q_mul(u, q_numbers(*range(2, 20)))
    quo = qfield._q_divexact(u, v)
    assert qfield._q_mul(quo, v) == u
    big = q_numbers(*range(3, 16))
    for d in (q_numbers(4, 7), {0: 1}, {3: -2}, q_numbers(5, 5, 5, 9)):
        assert qfield._q_divexact(qfield._q_mul(big, d), d) == big


def test_divexact_wide_quotient_doubles_width(monkeypatch):
    # The quotient of (1 - q^10)^8 [2]...[19] by (1 - q)^8 is wider than
    # the first width: the packed division is redone at twice the width,
    # and long division is never reached.
    u, v = q_numbers(*range(2, 20)), {0: 1}
    for _ in range(8):
        u = qfield._q_mul(u, {0: 1, 10: -1})
        v = qfield._q_mul(v, {0: 1, 1: -1})
    widths = []
    unpack = qfield._unpack
    monkeypatch.setattr(qfield, "_unpack", lambda x, lo, w: widths.append(w) or unpack(x, lo, w))
    monkeypatch.setattr(qfield, "_q_longdiv", None)
    quo = qfield._q_divexact(u, v)
    assert widths == [8, 16] and qfield._q_mul(quo, v) == u


def test_divexact_sizes_long_division_by_the_quotient_span(monkeypatch):
    # q^400 - 1 over the 20 terms 1 + q + ... + q^19: the divisor has more
    # terms than the dividend, yet the quotient (q - 1)(1 + q^20 + ... +
    # q^380) spans 381 exponents, so long division (about 381 * 20 steps)
    # must not be picked; a term-count estimate, (2 - 20 + 1) * 2 < 0,
    # picked it whatever the quotient.
    u, v = {0: -1, 400: 1}, {a: 1 for a in range(20)}
    longdiv, calls = qfield._q_longdiv, []
    monkeypatch.setattr(qfield, "_q_longdiv", lambda u, v: calls.append(1) or longdiv(u, v))
    quo = qfield._q_divexact(u, v)
    assert len(quo) == 40 and qfield._q_mul(quo, v) == u and not calls
    # a short quotient still takes long division
    assert qfield._q_divexact({0: -1, 6: 1}, {0: 1, 1: 1, 2: 1}) == {0: -1, 1: 1, 3: -1, 4: 1}
    assert qfield._q_divexact({}, v) == {} and len(calls) == 2


def test_t_free_poly_divexact_rejects_inexact():
    two_d = lambda u, b=0: {(a, b): c for a, c in u.items()}
    big = q_numbers(*range(3, 16))
    for u, v in [
        (big, q_numbers(17)),                       # packed path
        (qfield._q_mul(big, q_numbers(6)), {0: 1, 1: 2, 2: 1}),  # (1 + q)^2
        ({0: 1, 2: 1}, {0: 1, 1: 1}),               # long division
        ({0: 3, 4: 3}, {0: 2}),
        ({0: 1}, {1: 1}),                           # negative quotient power
        (q_numbers(3), q_numbers(9)),               # divisor of higher degree
    ]:
        assert qfield._poly_divexact(two_d(u), two_d(v)) is None
        assert qfield._poly_divexact(two_d(u, 3), two_d(v, 1)) is None
    assert qfield._poly_divexact(two_d({0: 1}), two_d({0: 1}, 1)) is None
    assert qfield._poly_divexact(two_d(qfield._q_mul(big, {2: 5}), 4),
                                 two_d({2: 5}, 1)) == two_d(big, 3)


# ---------------------------------------------------------------------------
# The packed GCDHEU step of the limit engine against CoeffRat.

# Fractions that fall back at one byte per digit (s = 8), one per branch.
_WIDE = {0: 1, 1: 2, 2: 1}                          # (1 + q)^2
PACKED_FALLBACKS = [
    # GCDHEU bound: 2 min(|a|, |b|) + 2 = 256 is not below 2^s
    ({0: 127, 1: 1}, {0: 1, 1: 127}),
    # |a| = 2^(s-1): the digit -128 is at the balanced range's edge
    ({0: -128, 1: 1}, {0: 3, 1: 1}),
    # a non-dividing candidate: 385 = gcd(a(256), b(256)) has digits
    # 2q - 127, a divisor of neither; its quotients fail the digit bound,
    # and their packed products with it are not a and b
    ({0: -27, 1: 28, 2: -34, 3: -22, 4: 10}, {0: 2, 1: 3}),
]
# A true common factor (1 + q)^2 whose cofactor 21q^2 + 22q + 21 is too
# wide for the digit bound (22 * 2 * 3 >= 128): one packed product proves
# it, and the fraction stays on the packed path.
PACKED_WIDE_COFACTOR = (qfield._q_mul(_WIDE, {0: 21, 1: 22, 2: 21}),
                        qfield._q_mul(_WIDE, {0: -1, 1: 1}))


def packed_cases():
    """(u, ulo, v, vlo, w): q^ulo u and q^vlo v packed from exponent 0 at
    w bytes per digit.  Planted common factors, integer contents, integer
    denominators (as at M > 0), signs, q-power factors (zero low digits
    and exponent offsets), and the tightest width _limit could pick or
    twice it."""
    rng = Random(27)
    cases = [(u, 0, v, 0, 1) for u, v in PACKED_FALLBACKS + [PACKED_WIDE_COFACTOR]]
    for i in range(400):
        if i % 4:
            g, h = q_poly(rng, rng.randint(1, 4), hi=4, cmax=3), q_poly(rng, rng.randint(1, 5), hi=6)
        else:
            # factors q^2c - 1 over an integer, as in _limit's denominators
            g, h = {0: 1}, {0: 1}
            for _ in range(rng.randint(0, 4)):
                b = {0: -1, 2 * rng.randint(1, 4): 1}
                g, h = (qfield._q_mul(g, b), h) if rng.random() < 0.5 else (g, qfield._q_mul(h, b))
        u = qfield._q_mul(g, q_poly(rng, rng.randint(1, 5), hi=6))
        v = qfield._q_mul(g, h)
        u = qfield._q_scale(u, rng.choice((1, 1, -1, 2, -6, 35)))
        v = qfield._q_scale(v, rng.choice((1, -1, 4, 6, -10, 2 * 3 * 5 * 7)))
        w = qfield._width(max(qfield._norm(u), qfield._norm(v))) * rng.choice((1, 1, 2))
        cases.append((u, rng.randint(-6, 4), v, rng.randint(-3, 3), w))
    return cases


def test_packed_ratio_matches_coeffrat():
    for u, ulo, v, vlo, w in packed_cases():
        want = CoeffRat(LaurentQT({(a + ulo, 0): c for a, c in u.items()}),
                        LaurentQT({(a + vlo, 0): c for a, c in v.items()}))
        got = qfield._q_packed_ratio(qfield._pack(u, 0, w), ulo, qfield._pack(v, 0, w), vlo, w)
        assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms), \
            (u, ulo, v, vlo, w)


def test_packed_ratio_fast_path_and_fallbacks(monkeypatch):
    # Every PACKED_FALLBACKS case ends in CoeffRat, the wide cofactor and
    # most random pairs don't.
    canonical, calls = qfield._canonical, []
    monkeypatch.setattr(qfield, "_canonical",
                        lambda num, den: calls.append(1) or canonical(num, den))
    kron, products = qfield._q_kron_mul, []
    monkeypatch.setattr(qfield, "_q_kron_mul",
                        lambda u, v: products.append(1) or kron(u, v))
    cases = packed_cases()
    went = []
    for u, ulo, v, vlo, w in cases:
        calls.clear()
        products.clear()
        qfield._q_packed_ratio(qfield._pack(u, 0, w), ulo, qfield._pack(v, 0, w), vlo, w)
        went.append(bool(calls))
        if len(went) == len(PACKED_FALLBACKS) + 1:
            assert products == [1]          # the numerator's cofactor only
    n = len(PACKED_FALLBACKS)
    assert went[:n + 1] == [True] * n + [False]
    assert sum(went[n + 1:]) < len(cases) // 4
    assert qfield._q_packed_ratio(0, 0, 5, 0, 1) is CR_ZERO


def test_t_primitive_content_and_quotient():
    from functools import reduce
    rng = Random(5)
    for _ in range(20):
        g = q_poly(rng, 3, hi=5)
        F = {b: qfield._q_mul(g, q_poly(rng, rng.randint(1, 5), hi=6))
             for b in range(rng.randint(1, 4))}
        c, P = qfield._t_primitive(F)
        assert {b: qfield._q_mul(c, x) for b, x in P.items()} == F
        if len(F) > 1:
            assert c == reduce(qfield._q_gcd, F.values())


# ---------------------------------------------------------------------------
# The heuristic gcd of maps in both variables: cofactors against the
# pseudo-remainder `_poly_gcd` and re-multiplication, on both paths.

def binomials(*pairs):
    """prod (1 - q^a t^b) over the pairs, as a term map."""
    r = {(0, 0): 1}
    for a, b in pairs:
        r = schoolbook(r, {(0, 0): 1, (a, b): -1})
    return r


def qt_poly(rng, terms, hi=4, cmax=9):
    A = {(rng.randint(0, hi), rng.randint(0, hi)): rng.randint(-cmax, cmax)
         for _ in range(terms)}
    A = {k: c for k, c in A.items() if c}
    return A if len(A) > 1 else {(0, 0): 1, (1, 1): 2}


def t_poly(q_exp, coeffs):
    return {(q_exp, b): c for b, c in enumerate(coeffs) if c}


one_minus_t = {(0, 0): 1, (0, 1): -1}
# (1 + q t)(130 + t) against (1 + q t)(q + 2): the width is one byte, and
# the digits of 130 + 2^8 in t read back as 2 t - 126, a wrong cofactor
# whose product bound 2 * 126 lies below 2^8 but not below 2^7.
wide_pair = (schoolbook({(0, 0): 1, (1, 1): 1}, {(0, 0): 130, (0, 1): 1}),
             schoolbook({(0, 0): 1, (1, 1): 1}, {(1, 0): 1, (0, 0): 2}))
# Coprime maps whose images at t = 2^8 share the content 257: every
# t-coefficient p has p(-1) = 257 and 2^8 = -1 (mod 257), so the first
# candidate is t + 1.
spurious_pair = (
    {**t_poly(1, (9, -62, 62, -62, 62)), **t_poly(0, (13, -61, 61, -61, 61))},
    {**t_poly(1, (17, -60, 60, -60, 60)), **t_poly(0, (21, -59, 59, -59, 59))})


def qt_gcd_cases():
    rng = Random(20261018)
    big = 2 ** 70 + 12345
    cases = [
        (binomials((1, 1), (2, 1), (1, 2), (3, 0)), binomials((2, 1), (1, 2), (0, 3))),
        (binomials(*[(a, b) for a in range(4) for b in range(1, 3)]),
         binomials(*[(a, b) for a in range(1, 5) for b in range(2)])),
        (binomials((1, 1)), binomials((2, 2))),
        (binomials((1, 1), (1, 1), (2, 3)), binomials((1, 1), (1, 0))),
        # common factors only in the t-content
        (schoolbook(one_minus_t, {(1, 0): 1, (0, 0): 2}),
         schoolbook(one_minus_t, {(1, 0): 1, (0, 0): -3})),
        (schoolbook(binomials((0, 1), (0, 2)), {(1, 0): 3, (0, 0): 2}),
         schoolbook(binomials((0, 2), (0, 3)), {(2, 0): 1, (0, 0): -5})),
        # coprime, with images sharing the integer factor 3 at every
        # t = 2^(8w), since 2^(8w) = 1 (mod 3)
        ({(1, 1): 1, (1, 0): 2, (0, 1): 1, (0, 0): -4},
         {(1, 1): 1, (1, 0): 5, (0, 1): 2, (0, 0): 1}),
        spurious_pair,
        wide_pair,
        # integer contents, negative and wider than 2^64 coefficients
        (qfield._scale(binomials((1, 1), (0, 2)), 6),
         qfield._scale(binomials((1, 1), (2, 0)), -10)),
        (qfield._scale(binomials((1, 2), (2, 1)), big),
         qfield._scale(binomials((1, 2), (1, 1)), -3 * big)),
        (schoolbook(binomials((1, 1)), {(0, 0): big, (1, 2): -big - 1}),
         schoolbook(binomials((1, 1)), {(2, 0): 7, (0, 1): -(3 ** 50)})),
        (binomials((1, 2), (2, 1)), binomials((1, 2), (2, 1))),   # equal inputs
        (binomials((1, 2)), qfield._neg(binomials((1, 2), (3, 1)))),
    ]
    for _ in range(30):
        g = qt_poly(rng, rng.randint(2, 4), hi=3)
        A = schoolbook(g, qt_poly(rng, rng.randint(2, 6)))
        B = schoolbook(g, qt_poly(rng, rng.randint(2, 6), cmax=rng.choice((9, big))))
        cases.append((qfield._scale(A, rng.choice((1, -1, 4))), B))
    return cases


@pytest.mark.parametrize("A, B", qt_gcd_cases())
def test_qt_gcd_cofactors_match_prs_oracle(A, B, qt_gcd_path):
    qa, ta = qfield._min_exps(A)
    qb, tb = qfield._min_exps(B)
    A0, B0 = qfield._shift(A, -qa, -ta), qfield._shift(B, -qb, -tb)
    G, F, H = qfield._gcd_cofactors(A, B)
    assert G == qfield._poly_gcd(A0, B0)
    assert schoolbook(G, F) == A and schoolbook(G, H) == B


@pytest.mark.parametrize("A, B", qt_gcd_cases())
def test_qt_heuristic_decides_planted_cases(A, B):
    # On every case the heuristic itself finds the gcd within its widths.
    qa, ta = qfield._min_exps(A)
    qb, tb = qfield._min_exps(B)
    A0, B0 = qfield._shift(A, -qa, -ta), qfield._shift(B, -qb, -tb)
    if len(A0) == 1 or len(B0) == 1:
        return
    G, F, H = qfield._qt_heu_gcd(A0, B0)
    assert G == qfield._poly_gcd(A0, B0)
    assert schoolbook(G, F) == A0 and schoolbook(G, H) == B0


def test_qt_heuristic_rejects_wrong_candidates(monkeypatch):
    u, v = (qfield._t_eval(X, 8) for X in spurious_pair)
    assert gcd(*u.values(), *v.values()) == 257
    candidates = []
    interp = qfield._t_interp
    monkeypatch.setattr(qfield, "_t_interp",
                        lambda u, w: candidates.append(interp(u, w)) or candidates[-1])
    G, F, H = qfield._qt_heu_gcd(*spurious_pair)
    assert candidates[0] == {(0, 0): 1, (0, 1): 1} and G == {(0, 0): 1}
    assert (F, H) == spurious_pair
    # The cofactor read from digits fails the bound, and exact division
    # gives the right one.
    G, F, H = qfield._qt_heu_gcd(*wide_pair)
    assert F == {(0, 0): 130, (0, 1): 1} and schoolbook(G, H) == wide_pair[1]


def test_poly_divexact_both_variables():
    rng = Random(99)
    for _ in range(40):
        g = qt_poly(rng, rng.randint(1, 5))
        g = qfield._shift(g, *(-e for e in qfield._min_exps(g)))
        f = qt_poly(rng, rng.randint(1, 8), hi=6, cmax=rng.choice((9, 2 ** 80)))
        assert qfield._poly_divexact(schoolbook(g, f), g) == f
        assert qfield._poly_divexact(qfield._add(schoolbook(g, f), {(0, 0): 1}), g) is None
    # With D = 2, t -> q^2 sends t + q t to q (q + q^2), the image of
    # q (q + t): the quotient q wraps past q-degree 1 and is rejected.
    assert qfield._poly_divexact({(0, 1): 1, (1, 1): 1}, {(1, 0): 1, (0, 1): 1}) is None


def test_clear_caches_reaches_every_cache():
    # the registry holds exactly the functools caches bound in the modules
    for m in pkgutil.iter_modules(macdaha.__path__):
        importlib.import_module(f"macdaha.{m.name}")
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "macdaha" or name.startswith("macdaha.")):
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and callable(
                    getattr(obj, "cache_info", None)):
                found[id(obj)] = obj
    assert found and {id(c) for c in qfield._CACHES} == set(found)
    macdaha.trace_ratio((1, 0), 2, 2)
    macdaha.macdonald_branch((2, 1, 0), 3)
    assert any(c.cache_info().currsize for c in found.values())
    macdaha.clear_caches()
    assert all(c.cache_info().currsize == 0 for c in found.values())


# ---------------------------------------------------------------------------
# Products of binomials: cyclotomic factors, the binomial_ratio kernel, and
# values at integer points in fractions.Fraction.

from fractions import Fraction

from conftest import brute_mul, eval_fraction, prime_point


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for d in range(1, 61):
        want = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
        assert qfield._cyclotomic(d) == tuple(want), d


def _binomial_product(factors):
    r = CR_ONE
    for (a, b), e in factors.items():
        f = CoeffRat(L({(0, 0): 1}) - L({(a, b): 1}))
        r = r * f ** e if e >= 0 else r / f ** -e
    return r


def test_binomial_ratio_matches_field_arithmetic():
    # Random exponent maps, reduced through CoeffRat's gcd and then
    # substituted, including images that make a factor constant or zero.
    rng = Random(404)
    images = [UnitMono.q(), UnitMono.t(), UnitMono.q(2), UnitMono(-1, 1, 0),
              UnitMono(-1, 0, 1), UnitMono.one(), UnitMono(-1, 0, 0),
              UnitMono(1, 1, -1), UnitMono(-1, -2, 1), UnitMono(1, 0, 3)]
    raised = 0
    for _ in range(120):
        factors = {}
        for _ in range(rng.randint(1, 6)):
            a, b = rng.randint(-4, 4), rng.randint(-2, 2)
            if (a, b) != (0, 0):
                factors[a, b] = factors.get((a, b), 0) + rng.choice((-2, -1, 1, 1, 2))
        want = _binomial_product(factors)
        shift, t2 = rng.choice(images), rng.choice(images)
        try:
            want = want.subst(shift, t2)
        except DomainViolationError:
            raised += 1
            with pytest.raises(DomainViolationError):
                qfield.binomial_ratio(factors, shift, t2)
            continue
        assert qfield.binomial_ratio(factors, shift, t2) == want, (factors, shift, t2)
    assert raised


def test_binomial_ratio_zero_factor():
    q, t = UnitMono.q(), UnitMono.t()
    assert qfield.binomial_ratio({(0, 0): 1, (1, 0): -1}, q, t) == CR_ZERO
    with pytest.raises(DomainViolationError):
        qfield.binomial_ratio({(0, 0): -1, (1, 0): 1}, q, t)
    # 1 - q vanishes at q = 1: a zero numerator gives 0, a zero
    # denominator raises, and a cancelled pair is never substituted.
    one = UnitMono.one()
    assert qfield.binomial_ratio({(1, 0): 1, (0, 1): -1}, one, t) == CR_ZERO
    with pytest.raises(DomainViolationError):
        qfield.binomial_ratio({(1, 0): -1, (0, 1): 1}, one, t)
    assert qfield.binomial_ratio({(2, 0): 1, (1, 0): -1}, one, t) == CoeffRat.from_int(2)


def _qnum_value(a, q):
    return (Fraction(q) ** a - Fraction(q) ** -a) / (Fraction(q) - Fraction(1, q))


def test_scalar_values_at_prime_points():
    # Schwartz-Zippel: distinct rational functions of low degree almost
    # never agree at a random integer point.
    rng = Random(2718)
    for _ in range(40):
        q, t = prime_point(rng)
        a, d, b = rng.randint(-4, 4), rng.randint(0, 5), rng.randint(-2, 2)
        want = Fraction(1)
        for m in range(a, a + d):
            want *= 1 - Fraction(q) ** m * Fraction(t) ** b
        assert eval_fraction(poch_ratio(a, d, b), q, t) == want
        a, m = rng.randint(-5, 8), rng.randint(0, 5)
        want = Fraction(1)
        for i in range(m):
            want *= _qnum_value(a - i, q)
        assert eval_fraction(qfall(a, m), q, t) == want


# ---------------------------------------------------------------------------
# The gcd-free fast paths and rat_sum against the _canonical oracle
# CoeffRat(num, den), which reduces its input with a full gcd, and against
# a left fold of +.

from functools import reduce
from operator import add


@st.composite
def laurents(draw):
    """A non-zero Laurent polynomial in (q, t) with up to four terms."""
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        terms[(draw(small_ints), draw(st.integers(min_value=-2, max_value=2)))] = \
            draw(st.sampled_from([-3, -2, -1, 1, 2, 5]))
    return LaurentQT(terms)


@st.composite
def fractions_(draw):
    """a/b with b a genuine non-monomial polynomial, so a fast path is
    taken only where the operands' forms allow it."""
    b = {(0, 0): draw(st.sampled_from([1, 2, -3]))}
    b[(draw(st.integers(min_value=1, max_value=3)),
       draw(st.integers(min_value=0, max_value=2)))] = draw(st.sampled_from([-2, -1, 1, 4]))
    x = CoeffRat(draw(laurents()), LaurentQT(b))
    if x.den.terms == {(0, 0): 1}:
        x = x / CoeffRat(LaurentQT({(0, 0): 1, (1, 1): 1}))
    return x


_DEN_POOL = [LaurentQT({(0, 0): 1, (1, 0): -1}), LaurentQT({(0, 0): 1, (1, 0): 1}),
             LaurentQT({(0, 0): 1, (1, 1): -1}), LaurentQT({(0, 0): 2, (0, 1): 1}),
             LaurentQT({(0, 0): 1, (2, 0): -1}), LaurentQT({(0, 0): 3})]


@st.composite
def pooled_fractions(draw):
    """a/b with b a product of factors from one small pool, so that the
    denominators of a sum share factors without being equal."""
    den = LaurentQT.const(1)
    for i in draw(st.lists(st.integers(min_value=0, max_value=len(_DEN_POOL) - 1),
                           min_size=1, max_size=3)):
        den = den * _DEN_POOL[i]
    return CoeffRat(draw(laurents()), den)


unit_monos = st.builds(UnitMono, st.sampled_from([1, -1]), small_ints,
                       st.integers(min_value=-2, max_value=2))


def same(x, y):
    return x.num.terms == y.num.terms and x.den.terms == y.den.terms


@settings(max_examples=60, deadline=None)
@given(fractions_(), laurents(), unit_monos, st.integers(min_value=-6, max_value=6))
def test_fast_paths_match_the_canonical_oracle(x, c, u, m):
    cx = CoeffRat.from_laurent(c)
    # a zero operand returns the other one
    assert same(x + CR_ZERO, x) and same(CR_ZERO + x, x) and same(x - 0, x)
    # a/b + c = (a + cb)/b with c a Laurent polynomial
    want = CoeffRat(x.num + c * x.den, x.den)
    assert same(x + cx, want) and same(cx + x, want)
    # products with a monomial: a UnitMono, a unit q^a t^b, an integer
    mono = u.as_laurent()
    want = CoeffRat(x.num * mono, x.den)
    assert same(x * u, want) and same(u * x, want) and same(u.as_coeffrat() * x, want)
    if m:
        assert same(x * m, CoeffRat(x.num * LaurentQT.const(m), x.den))
        assert same(m * (x * u), CoeffRat(x.num * mono * LaurentQT.const(m), x.den))
    # inv() of a reduced fraction
    assert same(x.inv(), CoeffRat(x.den, x.num))
    assert same(cx.inv(), CoeffRat(L_ONE_, c))


L_ONE_ = LaurentQT.const(1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(pooled_fractions(), fractions_(),
                          laurents().map(CoeffRat.from_laurent),
                          st.integers(min_value=-3, max_value=3)),
                max_size=7))
def test_rat_sum_matches_fold_and_oracle(xs):
    xs = xs + [-xs[0]] + xs[:2] if xs else xs      # a cancelling term, repeated denominators
    got = qfield.rat_sum(xs)
    assert same(got, reduce(add, xs, CR_ZERO))
    rats = [CoeffRat.from_int(x) if isinstance(x, int) else x for x in xs]
    den = reduce(lambda p, x: p * x.den, rats, L_ONE_)
    num = LaurentQT()
    for i, x in enumerate(rats):
        num = num + reduce(lambda p, y: p * y.den, rats[:i] + rats[i + 1:], x.num)
    assert same(got, CoeffRat(num, den))


def test_rat_sum_edge_cases():
    one_minus_q = LaurentQT({(0, 0): 1, (1, 0): -1})
    x = CoeffRat(LaurentQT({(1, 0): 1}), one_minus_q)      # q/(1-q)
    assert qfield.rat_sum([]) is CR_ZERO
    assert qfield.rat_sum([CR_ZERO, 0]) is CR_ZERO
    assert qfield.rat_sum([CR_ZERO, x]) is x
    assert qfield.rat_sum([x, -x]) == CR_ZERO
    assert qfield.rat_sum(iter([x, 1, x])) == x + x + 1
    # q/(1-q) + 1 = 1/(1-q): one reduction over the lcm
    assert qfield.rat_sum([x, 1]) == CoeffRat(L_ONE_, one_minus_q)


def _rand_rat(rng):
    """A seeded CoeffRat: zero, a Laurent polynomial, or a fraction whose
    denominator is a product of _DEN_POOL factors (equal, coprime or
    sharing factors across draws)."""
    kind = rng.randrange(5)
    if kind == 0:
        return CR_ZERO
    num = LaurentQT({(rng.randint(-3, 3), rng.randint(-2, 2)): rng.choice((-3, -2, -1, 1, 2, 5))
                     for _ in range(rng.randint(1, 4))})
    if kind == 1:
        return CoeffRat.from_laurent(num)
    den = L_ONE_
    for _ in range(rng.randint(1, 3)):
        den = den * rng.choice(_DEN_POOL)
    return CoeffRat(num, den)


def _fold_dot(pairs, divisor=None):
    got = reduce(add, (x * y for x, y in pairs), CR_ZERO)
    return got if divisor is None else got / CoeffRat.from_laurent(LaurentQT(divisor))


def test_rat_dot_matches_left_fold():
    rng = Random(1812)
    for _ in range(200):
        pairs = [(_rand_rat(rng), _rand_rat(rng)) for _ in range(rng.randint(0, 6))]
        if pairs and rng.random() < 0.3:
            x, y = pairs[0]
            pairs.append((y, -x))               # cancels the first product
        divisor = rng.choice((None, {(0, 0): 1, (1, 0): -1}, {(0, 0): 2, (0, 1): 1},
                              {(1, 0): 1, (0, 0): 1, (2, 1): -3}, {(2, -1): -1}))
        got, want = qfield.rat_dot(pairs, divisor), _fold_dot(pairs, divisor)
        assert same(got, want) and str(got) == str(want), (pairs, divisor)


def test_rat_dot_edge_cases():
    one_minus_q = LaurentQT({(0, 0): 1, (1, 0): -1})
    one_plus_q = LaurentQT({(0, 0): 1, (1, 0): 1})
    x = CoeffRat(LaurentQT({(1, 0): 1}), one_minus_q)      # q/(1-q)
    y = CoeffRat(LaurentQT({(0, 1): 2}), one_minus_q)      # 2t/(1-q)
    z = CoeffRat(L_ONE_, one_plus_q)                       # 1/(1+q)
    two, one = CoeffRat.from_int(2), CR_ONE
    # zero products, with and without a divisor
    assert qfield.rat_dot([]) is CR_ZERO
    assert qfield.rat_dot([(CR_ZERO, x), (y, CR_ZERO)]) is CR_ZERO
    assert qfield.rat_dot([(CR_ZERO, x)], one_minus_q.terms) is CR_ZERO
    # sums that cancel to zero
    assert qfield.rat_dot([(x, y), (-y, x)]) == CR_ZERO
    assert qfield.rat_dot([(x, two), (y, z), (-x, two), (-z, y)], one_plus_q.terms) == CR_ZERO
    # equal denominators: q/(1-q) + 2t/(1-q)
    assert qfield.rat_dot([(x, one), (y, one)]) == x + y
    # coprime denominators: 2 q/(1-q) + 1/(1+q)
    assert qfield.rat_dot([(x, two), (z, one)]) == x * 2 + z
    # a single pair is x * y
    assert qfield.rat_dot([(x, z)]) == x * z
    assert str(qfield.rat_dot([(y, y)])) == str(y * y)
    # the divisor joins the one reduction: (q/(1-q) + 1) / (1+q) = 1/(1-q^2)
    assert qfield.rat_dot([(x, one), (one, one)], one_plus_q.terms) == \
        CoeffRat(L_ONE_, one_minus_q * one_plus_q)
    # a divisor that cancels the whole numerator: (1 - q^2) / (1 - q) = 1 + q
    assert qfield.rat_dot([(CoeffRat.from_laurent(one_minus_q * one_plus_q), one)],
                          one_minus_q.terms) == CoeffRat.from_laurent(one_plus_q)


def test_common_den_numerators_over_the_lcm():
    one_minus_q = LaurentQT({(0, 0): 1, (1, 0): -1})
    one_plus_q = LaurentQT({(0, 0): 1, (1, 0): 1})
    one_minus_t = LaurentQT({(0, 0): 1, (0, 1): -1})
    L_ONE_ = LaurentQT({(0, 0): 1})
    xs = [CoeffRat(LaurentQT({(2, 0): 3}), one_minus_q), CoeffRat(L_ONE_, one_minus_q * one_plus_q),
          CoeffRat.from_int(5), CoeffRat(LaurentQT({(0, 1): 1}), one_minus_t * one_plus_q),
          CoeffRat(LaurentQT({(2, 0): 3}), one_minus_q), CR_ZERO]
    den, nums = qfield.common_den(xs)
    assert den == one_minus_q * one_plus_q * one_minus_t or den == -(one_minus_q * one_plus_q * one_minus_t)
    assert all(num.den.terms == {(0, 0): 1} for num in nums)
    assert [CoeffRat(num.num, den) for num in nums] == xs
    assert nums[0] == nums[4] and not nums[5]
    one, = qfield.common_den([CoeffRat.from_int(2)])[1]
    assert one == CoeffRat.from_int(2)


def test_fast_paths_run_no_gcd(monkeypatch):
    calls = []
    inner = qfield._gcd_cofactors
    monkeypatch.setattr(qfield, "_gcd_cofactors",
                        lambda A, B: calls.append(1) or inner(A, B))
    x = CoeffRat(LaurentQT({(2, 1): 3, (0, 0): -1}), LaurentQT({(0, 0): 2, (1, 2): 1}))
    c = CoeffRat.from_laurent(LaurentQT({(-1, 0): 1, (3, 1): 2}))
    del calls[:]
    assert x + CR_ZERO is x and CR_ZERO + x is x
    x + c, c + x, x - c, 1 - x, x + 1
    x * UnitMono(-1, 3, -2), UnitMono.q(2) * x, x * UnitMono.q(1).as_coeffrat(), x * 4
    x.inv(), c.inv(), 1 / x, (-x).inv()
    x * x, x ** 4, c * c, c * (c + 1)              # squares, and Laurent polynomials
    assert calls == []
    x * CoeffRat._raw(x.num, x.den), x + x.inv()   # the general paths do run one
    assert calls


def test_scalar_operators_and_unit_monos():
    x = qnum(3)
    # UnitMono * CoeffRat is answered by CoeffRat.__rmul__
    assert UnitMono.q(2) * x == x * UnitMono.q(2) == \
        CoeffRat(LaurentQT({(4, 0): 1, (2, 0): 1, (0, 0): 1}))
    with pytest.raises(TypeError):
        UnitMono.q(2) * 3
    assert 1 - x == CR_ONE - x == -(x - 1)
    assert 1 / x == CR_ONE / x == x.inv()
    assert (2 / x) * x == CoeffRat.from_int(2)
    assert 3 + x == x + 3 and 3 * x == x * 3
    assert UnitMono.q(1) - x == CoeffRat(LaurentQT({(1, 0): 1})) - x


def test_squares_run_no_gcd(monkeypatch):
    # x * x is num^2 / den^2 with no gcd, and equals the general product
    # against an equal but distinct object; x ** e squares the same way.
    rng = Random(26)
    xs = [_rand_rat(rng) for _ in range(120)] + [CoeffRat(LaurentQT({(2, 1): 3, (0, 0): -1}),
                                                          LaurentQT({(0, 0): 2, (1, 2): 1}))]
    squares = [x * CoeffRat._raw(x.num, x.den) for x in xs]
    fourths = [y * CoeffRat._raw(y.num, y.den) for y in squares]

    def raising(A, B):
        raise AssertionError("gcd called")

    monkeypatch.setattr(qfield, "_gcd_cofactors", raising)
    for x, sq, sq4 in zip(xs, squares, fourths):
        assert same(x * x, sq) and same(x ** 2, sq) and same(x ** 4, sq4)


one_term_maps = st.dictionaries(
    st.tuples(small_ints, st.integers(min_value=-2, max_value=2)),
    st.sampled_from([-3, -1, 1, 2, 7]), min_size=1, max_size=1)
term_maps = st.one_of(one_term_maps, st.just({(0, 0): 1}), st.just({}),
                      st.dictionaries(st.tuples(small_ints, st.integers(min_value=-2, max_value=2)),
                                      st.integers(min_value=-9, max_value=9).filter(bool),
                                      max_size=12))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(term_maps, term_maps)
def test_mul_matches_brute_force(A, B):
    # one-term and unit operands take the shift-and-scale path
    got = qfield._mul(A, B)
    assert got == brute_mul(A, B) == qfield._mul(B, A)
    assert got is not A and got is not B


# ---------------------------------------------------------------------------
# Unit-binomial gcds by cyclotomic root tests, against the pseudo-remainder
# `_poly_gcd`, and the lcm fold's chain steps.

def phi_of(d, al, be):
    """Phi_d(q^al t^be) as a term map."""
    return {(al * k, be * k): c for k, c in enumerate(qfield._cyclotomic(d)) if c}


def unit_binomial_cases():
    """(X, A): X = s1 x^off + s2 x^(off + n z) over all four signs
    (n = 12 for z^12 - 1, n = 6 for z^6 + 1 = Phi_4(z) Phi_12(z)), A a
    random map times planted Phi_d(z) factors (some squared) at a monomial
    offset; z runs over q-only, t-only and mixed monomials, one with a
    negative t-exponent."""
    rng = Random(2028)
    cases = []
    for al, be in [(1, 0), (0, 1), (1, 1), (2, 1), (1, -2), (3, -1)]:
        for s1, s2 in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            off = (rng.randint(-3, 3), rng.randint(-3, 3))
            n = 12 if s1 != s2 else 6
            X = {off: s1, (off[0] + n * al, off[1] + n * be): s2}
            A = qt_poly(rng, rng.randint(2, 4), hi=2)
            for d in rng.sample([1, 2, 3, 4, 6, 12], rng.randint(0, 3)):
                for _ in range(rng.choice((1, 1, 2))):
                    A = schoolbook(A, phi_of(d, al, be))
            cases.append((X, qfield._shift(A, rng.randint(-4, 4), rng.randint(-4, 4))))
    return cases


def _oracle(P, Q):
    return qfield._poly_gcd(*(qfield._shift(X, *(-e for e in qfield._min_exps(X))) for X in (P, Q)))


def test_unit_binomial_gcd_matches_prs_oracle(monkeypatch):
    cases = unit_binomial_cases()
    want = [_oracle(X, A) for X, A in cases]
    assert sum(g != {(0, 0): 1} for g in want) > len(cases) // 3

    def raising(*args):
        raise AssertionError("GCDHEU ran on a unit binomial")

    monkeypatch.setattr(qfield, "_qt_heu_gcd", raising)
    monkeypatch.setattr(qfield, "_q_gcd_primitive", raising)
    for (X, A), g in zip(cases, want):
        for P, Q in ((X, A), (A, X)):
            G, F, H = qfield._gcd_cofactors(P, Q)
            assert G == g, (P, Q)
            assert schoolbook(G, F) == P and schoolbook(G, H) == Q
    # a copy that drops the divisors d >= 3 misses planted factors
    divisors = qfield._divisors
    monkeypatch.setattr(qfield, "_divisors", lambda n: [d for d in divisors(n) if d < 3])
    assert any(qfield._gcd_cofactors(X, A)[0] != g for (X, A), g in zip(cases, want))


def test_non_unit_binomials_take_the_old_path(monkeypatch):
    def raising(*args):
        raise AssertionError("cyclotomic gcd on a non-unit binomial")

    monkeypatch.setattr(qfield, "_cyclotomic_gcd", raising)
    heu, calls = qfield._q_gcd_primitive, []
    monkeypatch.setattr(qfield, "_q_gcd_primitive", lambda u, v: calls.append(1) or heu(u, v))
    for X in ({(1, 0): 2, (0, 0): -1}, {(2, 0): 1, (0, 0): -4}, {(1, 0): 2, (0, 1): -1}):
        A = schoolbook(X, {(0, 0): 3, (1, 1): 1})
        G, F, H = qfield._gcd_cofactors(X, A)
        assert G == _oracle(X, A) and schoolbook(G, F) == X and schoolbook(G, H) == A
    assert calls


def _den(*pairs):
    return CoeffRat(L({(0, 0): 1}), L(binomials(*pairs))).den.terms


def test_lcm_fold_chain_steps_run_no_gcd(monkeypatch):
    chain = [_den((10, 2)), _den((10, 2), (4, 2)), _den((4, 2)), _den((10, 2), (4, 2), (3, 1), (2, 2))]

    def raising(A, B):
        raise AssertionError("gcd on a chain step")

    monkeypatch.setattr(qfield, "_gcd_cofactors", raising)
    den, steps = qfield._lcm_fold(chain)
    assert den == chain[-1]
    L0 = chain[0]
    for d, (a, b) in zip(chain[1:], steps):
        assert schoolbook(L0, b) == schoolbook(a, d)
        L0 = schoolbook(L0, b)
    assert steps[1][1] == {(0, 0): 1}          # d | L0: the step (L0 / d, 1)


def test_lcm_fold_other_steps_run_their_gcd(monkeypatch):
    dens, want = [_den((1, 0), (1, 1)), _den((1, 1), (0, 1))], _den((1, 0), (1, 1), (0, 1))
    gcd, calls = qfield._gcd_cofactors, []
    monkeypatch.setattr(qfield, "_gcd_cofactors", lambda A, B: calls.append(1) or gcd(A, B))
    den, ((a, b),) = qfield._lcm_fold(dens)
    assert calls == [1] and den == want
    assert schoolbook(dens[0], b) == schoolbook(a, dens[1])


def test_mac_apply_gcd_count(monkeypatch):
    # Binomial denominators and chain steps leave 5 heuristic gcds in one
    # mac_apply of P_(6,0,0); every gcd ran GCDHEU before (15 calls).
    from macdaha import clear_caches
    from macdaha.macops import generic_params, mac_apply, macdonald_eigen
    clear_caches()
    f = macdonald_eigen((6, 0, 0), 3)
    heu, calls = qfield._qt_heu_gcd, []
    monkeypatch.setattr(qfield, "_qt_heu_gcd", lambda A, B: calls.append(1) or heu(A, B))
    mac_apply(f, 1, generic_params())
    assert len(calls) <= 5
