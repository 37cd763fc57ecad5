import pytest
from collections import Counter
from fractions import Fraction
from itertools import combinations
from random import Random

from conftest import adjoint_pairings_oracle, eval_fraction
from macdaha import indexops, qfield
from macdaha.indexops import (AdaptednessError, Box, IndexOpParams,
                              _pair_factor, index_apply, is_adapted,
                              jackson_inner, plain_apply, verify_adjoint)
from macdaha.macops import macdonald_qk
from macdaha.qfield import (CR_ONE, CoeffRat, DomainViolationError, LaurentQT,
                            UnitMono, qfall, qnum)
from macdaha.sympoly import e_sym, eval_sym

q = UnitMono.q
ONE_FN = lambda mu: CR_ONE


def qpow_fn(coeffs):
    return lambda mu: UnitMono.q(sum(c * m for c, m in zip(coeffs, mu))).as_coeffrat()


def test_jackson_inner_basics():
    box = Box((0,), (2,))
    assert jackson_inner(ONE_FN, ONE_FN, box) == CoeffRat.from_int(3)
    f = qpow_fn((1,))
    assert jackson_inner(f, ONE_FN, Box((0,), (1,))) == \
        CoeffRat(LaurentQT({(0, 0): 1, (1, 0): 1}))


def test_jackson_inner_bilinear():
    box = Box((0, -2), (1, -1))
    f = qpow_fn((1, -1))
    g = qpow_fn((2, 0))
    h = lambda mu: qnum(mu[0] - mu[1])
    s = lambda mu: g(mu) + h(mu)
    assert jackson_inner(f, s, box) == \
        jackson_inner(f, g, box) + jackson_inner(f, h, box)


def test_adaptedness():
    box = Box((0,), (2,))
    assert is_adapted(ONE_FN, box, 0)
    assert not is_adapted(ONE_FN, box, 1)
    f = lambda mu: qnum(mu[0] - 3) * qnum(mu[0] + 1)
    assert is_adapted(f, box, 1)
    assert not is_adapted(f, box, 2)


def test_kernel_adaptedness():
    # The falling-factorial kernel attached to lam is adapted of width k-1
    # to the box [lam_{i+1}, lam_i] in its own argument.
    for (lam, k) in [((2, 0), 2), ((2, 0), 3), ((3, 1, 0), 2)]:
        n = len(lam)
        lb = [lam[i] - k * i for i in range(n)]

        def kern(nu, lb=lb, k=k, n=n):
            nb = [nu[j] - k * j for j in range(n - 1)]
            val = CR_ONE
            for j in range(n - 1):
                for i in range(j + 1):
                    val = val * qfall(lb[i] - nb[j] + k - 1, k - 1)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    val = val * qfall(nb[i] - lb[j] - 1, k - 1)
            return val

        box = Box(tuple(lam[1:]), tuple(lam[:-1]))
        assert is_adapted(kern, box, k - 1)


def test_index_apply_trivial():
    f = qpow_fn((2,))
    p0 = IndexOpParams(k=2, variant="tilde", r=0)
    assert index_apply(f, p0, (5,)) == f((5,))
    p1 = IndexOpParams(k=2, variant="tilde", r=1)
    assert index_apply(f, p1, (5,)) == f((6,))
    pd = IndexOpParams(k=3, variant="dagger", r=1)
    assert index_apply(f, pd, (5,)) == f((4,))
    pp = IndexOpParams(k=2, variant="plain", r=1)
    assert index_apply(f, pp, (5,)) == f((6,))


# (numerator arguments, denominator arguments, q-power) per variant
PAIR_DEFS = {"plain": lambda k, d: ((d + k,), (d,), k),
             "tilde": lambda k, d: ((d + k, d - k + 1), (d, d + 1), 0),
             "dagger": lambda k, d: ((d + k - 1, d - k), (d - 1, d), 0)}


def _pair_value(variant, k, d):
    """The reduced value of the binomial form of one pair factor."""
    c, a, den = _pair_factor(variant, k, d)
    return indexops._reduced(({(a, 0): c} if c else {}, den))


def test_pair_factor_is_the_q_number_quotient():
    # the dense q-number product and quotient, over the bar differences
    # the lattice samples reach (about 36-48 for the box at (20, -20))
    raised = zero = 0
    for variant, args in PAIR_DEFS.items():
        for k in range(1, 5):
            for d in range(-50, 51):
                nums, dens, a = args(k, d)
                if 0 in dens:
                    # e.g. tilde, k = 1, d = -1 is [0][-1]/([-1][0]): a formal
                    # cancellation would give 1, but the quotient is undefined
                    with pytest.raises(DomainViolationError):
                        _pair_factor(variant, k, d)
                    raised += 1
                    continue
                want = q(a).as_coeffrat()
                for x in nums:
                    want = want * qnum(x)
                for x in dens:
                    want = want / qnum(x)
                zero += not want
                assert _pair_value(variant, k, d) == want, (variant, k, d)
    # raised: plain at d = 0, tilde at d = 0, -1 and dagger at d = 0, 1,
    # per k; zero: plain at d = -k, tilde at d = -k, k - 1 and dagger at
    # d = 1 - k, k, except where tilde and dagger raise at k = 1
    assert raised == 5 * 4
    assert zero == 4 + 2 * 3 + 2 * 3
    with pytest.raises(DomainViolationError):
        _pair_factor("tilde", 1, -1)
    # the k = 1 tilde and dagger factors are identically 1, as an empty map
    assert _pair_factor("tilde", 1, 7) == (1, 0, {})
    assert _pair_factor("dagger", 1, -7) == (1, 0, {})


def test_pair_factor_triple_is_the_unit_rule():
    # (c, a, den) read the other way: each argument y gives the binomial
    # q^(2|y|) - 1, and y < 0 the unit -q^(2y) of q^(2y) - 1 =
    # -q^(2y) (q^(-2y) - 1), the q-powers q^(1-y) of [y] cancelling with
    # the plain factor's q^k.
    for variant, args in PAIR_DEFS.items():
        for k in range(1, 5):
            for d in range(-12, 13):
                nums, dens, _ = args(k, d)
                if 0 in nums + dens:
                    continue
                c, a, den = 1, 0, {}
                for y, e in [(y, -1) for y in nums] + [(y, 1) for y in dens]:
                    if y < 0:
                        c, a = -c, a - 2 * y * e
                    den[2 * abs(y)] = den.get(2 * abs(y), 0) + e
                want = c, a, {x: e for x, e in den.items() if e}
                assert _pair_factor(variant, k, d) == want, (variant, k, d)


def test_index_apply_rejects_colliding_bars():
    f = qpow_fn((1, 1))
    p = IndexOpParams(k=2, variant="tilde", r=1)
    with pytest.raises(DomainViolationError):
        index_apply(f, p, (0, 2))  # bar coordinates collide at (0, 0)


def test_tilde_eigen_identity():
    # The diagonalized operator acts on the polynomial index with
    # elementary symmetric eigenvalue in the evaluation variables.
    k = 2
    pt = (q(5), q(1))

    def fP(nu):
        return eval_sym(macdonald_qk(tuple(nu), 2, k), pt)

    for mu in [(3, 1), (2, 0), (4, 1)]:
        for r in range(3):
            lhs = index_apply(fP, IndexOpParams(k=k, variant="tilde", r=r), mu)
            rhs = eval_sym(e_sym(r, 2), pt) * fP(mu)
            assert lhs == rhs, (mu, r)


def _delta(mu, k, length):
    bar = [mu[i] - k * i for i in range(len(mu))]
    out = CR_ONE
    for i in range(len(mu)):
        for j in range(i + 1, len(mu)):
            out = out * qfall(bar[i] - bar[j] + k - 1, length)
    return out


def test_conjugation_consistency():
    rng = Random(3)
    for _ in range(8):
        k = rng.randint(1, 3)
        co = (rng.randint(-2, 2), rng.randint(-2, 2))
        f = qpow_fn(co)
        mu = (rng.randint(6, 9), rng.randint(-3, 0))
        for r in range(3):
            tl = index_apply(f, IndexOpParams(k=k, variant="tilde", r=r), mu)
            conj = lambda nu, f=f, k=k: f(nu) / _delta(nu, k, k)
            assert tl == _delta(mu, k, k) * plain_apply(conj, mu, r, +1, k, k)
            dg = index_apply(f, IndexOpParams(k=k, variant="dagger", r=r), mu)
            conj2 = lambda nu, f=f, k=k: f(nu) * _delta(nu, k, k - 1)
            assert dg == plain_apply(conj2, mu, r, -1, k - 1, k) / _delta(mu, k, k - 1)


def _adapted_sample(rng, box, width):
    npts = box.dim
    cexp = [rng.randint(-1, 1) for _ in range(npts)]

    def f(mu):
        v = UnitMono.q(sum(c * m for c, m in zip(cexp, mu))).as_coeffrat()
        for i in range(npts):
            for j in range(1, width + 1):
                v = v * qnum(mu[i] - (box.upper[i] + j)) \
                    * qnum(mu[i] - (box.lower[i] - j))
        return v

    return f


def test_adjoint_one_dimensional():
    rng = Random(5)
    box = Box((0,), (2,))
    for k in (1, 2, 3):
        for _ in range(4):
            f = _adapted_sample(rng, box, 1)
            g = qpow_fn((rng.randint(-2, 2),))
            assert verify_adjoint(f, g, box, [1], k)
            assert verify_adjoint(f, g, box, [0], k)


def test_adjoint_two_dimensional():
    rng = Random(7)
    box = Box((20, -20), (22, -18))
    for k in (2, 3):
        for _ in range(3):
            l = rng.randint(1, 2)
            f = _adapted_sample(rng, box, l)
            g = qpow_fn((rng.randint(-1, 1), rng.randint(-1, 1)))
            rseq = [rng.randint(0, 2) for _ in range(l)]
            assert verify_adjoint(f, g, box, rseq, k)


def _adjoint_cases(seed):
    """Seeded summation-by-parts samples: 1-D boxes at every r, and 2-D
    boxes at (20, -20) whose rseq has some 0 < r < dim, the only degrees
    with pair factors."""
    rng = Random(seed)
    cases = []
    for k in (1, 2, 3):
        box = Box((0,), (2,))
        for l in (1, 2):
            rseq = [rng.randint(0, 1) for _ in range(l)]
            cases.append((_adapted_sample(rng, box, l), qpow_fn((rng.randint(-2, 2),)),
                          box, rseq, k))
        box = Box((20, -20), (22, -18))
        for rseq in ([1], [1, rng.randint(0, 2)], [rng.randint(0, 2), 1]):
            g = qpow_fn((rng.randint(-1, 1), rng.randint(-1, 1)))
            cases.append((_adapted_sample(rng, box, len(rseq)), g, box, rseq, k))
    return cases


def test_adjoint_agrees_with_two_pairing_oracle():
    for f, g, box, rseq, k in _adjoint_cases(13):
        lhs, rhs = adjoint_pairings_oracle(f, g, box, rseq, k)
        assert lhs == rhs, (box, rseq, k)
        assert verify_adjoint(f, g, box, rseq, k) is True, (box, rseq, k)


def _qnum_at_3(x):
    return (Fraction(3) ** x - Fraction(3) ** -x) / (Fraction(3) - Fraction(1, 3))


def _index_apply_at_3(fn, variant, k, r, mu, scale=1):
    """The tilde or dagger operator of degree r at mu, in Fractions at
    q = 3, from its defining product over the pairs j < i, i in I, j not
    in I (fn maps a point to a Fraction); each tilde pair factor is
    multiplied by scale."""
    bar = [m - k * i for i, m in enumerate(mu)]
    step = 1 if variant == "tilde" else -1
    out = Fraction(0)
    for I in combinations(range(len(mu)), r):
        coeff = Fraction(1)
        for i in I:
            for j in range(i):
                if j in I:
                    continue
                d = bar[i] - bar[j]
                if variant == "tilde":
                    coeff *= scale * _qnum_at_3(d + k) * _qnum_at_3(d - k + 1) \
                        / (_qnum_at_3(d) * _qnum_at_3(d + 1))
                else:
                    coeff *= _qnum_at_3(d + k - 1) * _qnum_at_3(d - k) \
                        / (_qnum_at_3(d - 1) * _qnum_at_3(d))
        out += coeff * fn(tuple(m + step if i in I else m for i, m in enumerate(mu)))
    return out


def _pairings_at_3(f, g, box, rseq, k, t=1, scale=1):
    """Both pairings of summation by parts evaluated independently in
    fractions.Fraction at (q, t) = (3, t), with every tilde pair factor
    multiplied by scale."""
    f3 = lambda mu: eval_fraction(f(mu), 3, t)
    g3 = lambda mu: eval_fraction(g(mu), 3, t)
    fd, gt = f3, g3
    for r in rseq:
        fd = lambda mu, fn=fd, r=r: _index_apply_at_3(fn, "dagger", k, r, mu)
    for r in reversed(rseq):
        gt = lambda mu, fn=gt, r=r: _index_apply_at_3(fn, "tilde", k, r, mu, scale)
    lhs3 = sum(fd(mu) * g3(mu) for mu in box.raised(len(rseq)).points())
    rhs3 = sum(f3(mu) * gt(mu) for mu in box.points())
    return lhs3, rhs3


def test_adjoint_pairings_at_q_three():
    # both pairings evaluated independently in fractions.Fraction at q = 3
    for f, g, box, rseq, k in _adjoint_cases(19):
        lhs3, rhs3 = _pairings_at_3(f, g, box, rseq, k)
        assert lhs3 == rhs3, (box, rseq, k)
        lhs, rhs = adjoint_pairings_oracle(f, g, box, rseq, k)
        assert eval_fraction(lhs, 3, 1) == lhs3 and eval_fraction(rhs, 3, 1) == rhs3
    # in 3 index dimensions (n = 4), against the Fractions alone: the
    # unmemoized two-pairing oracle takes seconds here
    box = Box((20, -20, -60), (21, -19, -59))
    f, g = _adapted_sample(Random(23), box, 2), qpow_fn((1, 0, -1))
    lhs3, rhs3 = _pairings_at_3(f, g, box, [1, 2], 2)
    assert lhs3 == rhs3
    assert verify_adjoint(f, g, box, [1, 2], 2) is True


def _times_q_on_tilde(factor):
    """_pair_factor with every tilde pair factor multiplied by q."""
    def wrong(variant, k, d):
        c, a, den = factor(variant, k, d)
        return (c, a + 1, den) if variant == "tilde" else (c, a, den)
    return wrong


def test_adjoint_detects_a_wrong_tilde_factor(monkeypatch):
    # with every tilde pair factor multiplied by q the identity fails, and
    # verify_adjoint, which reads the pair factors only through
    # _pair_factor, must say so
    box = Box((20, -20), (22, -18))
    f = _adapted_sample(Random(17), box, 1)
    g = qpow_fn((1, 0))
    assert verify_adjoint(f, g, box, [1], 2) is True
    monkeypatch.setattr(indexops, "_pair_factor", _times_q_on_tilde(indexops._pair_factor))
    lhs, rhs = adjoint_pairings_oracle(f, g, box, [1], 2)
    assert lhs != rhs
    assert verify_adjoint(f, g, box, [1], 2) is False


def _raising(*args):
    raise AssertionError("a gcd or canonical reduction ran")


def test_verify_adjoint_runs_no_gcd(monkeypatch):
    # Laurent f and g at dim 2, l = 2, k = 3, the box at (20, -20): the
    # check is decided by the zero test alone, true and with a wrong factor
    box = Box((20, -20), (22, -18))
    f = _adapted_sample(Random(29), box, 2)
    g = qpow_fn((1, -1))
    monkeypatch.setattr(qfield, "_gcd_cofactors", _raising)
    monkeypatch.setattr(qfield, "_canonical", _raising)
    assert verify_adjoint(f, g, box, [1, 1], 3) is True
    assert verify_adjoint(f, g, box, [1, 2], 3) is True
    monkeypatch.setattr(indexops, "_pair_factor", _times_q_on_tilde(indexops._pair_factor))
    assert verify_adjoint(f, g, box, [1, 1], 3) is False


def test_index_apply_reduces_once(monkeypatch):
    canonical, calls = qfield._canonical, []

    def counting(num, den):
        calls.append(1)
        return canonical(num, den)

    monkeypatch.setattr(qfield, "_canonical", counting)
    f = qpow_fn((2, -1, 1))
    applied = 0
    for variant in ("plain", "tilde", "dagger"):
        for r in range(4):
            for k in (1, 3):
                assert index_apply(f, IndexOpParams(k=k, variant=variant, r=r), (25, -3, -40))
                applied += 1
                assert len(calls) == applied, (variant, r, k)
    assert plain_apply(f, (25, -3, -40), 1, -1, 1, 2)
    assert len(calls) == applied + 1


def _fraction_cases():
    """Adapted f and arbitrary g with fractions in q, or in (q, t), among
    their values: (label, f, g, box, rseq, k, t) with t the second
    coordinate of the Fraction evaluation point."""
    rng = Random(31)
    t = UnitMono.t().as_coeffrat()
    box = Box((20, -20), (21, -19))

    def over(num, den):
        return lambda mu: num(mu) / CoeffRat(LaurentQT(den(mu)))

    cases = []
    fa = _adapted_sample(rng, box, 1)
    cases.append(("f in Q(q)", over(fa, lambda mu: {(0, 0): 1, (1 + sum(mu) % 3, 0): 2}),
                  qpow_fn((1, 0)), box, [1], 2, 1))
    fb = _adapted_sample(rng, box, 2)
    cases.append(("g in Q(q)", fb, over(qpow_fn((0, 1)), lambda mu: {(1 + mu[0] % 2, 0): 2,
                                                                     (0, 0): -1}),
                  box, [1, 0], 3, 1))
    fc = _adapted_sample(rng, box, 1)
    cases.append(("f in Q(q, t)", over(lambda mu: fc(mu) * t,
                                       lambda mu: {(0, 0): 1, (1 + mu[1] % 3, 1): -1}),
                  qpow_fn((-1, 1)), box, [1], 2, 5))
    return cases


def test_adjoint_with_fraction_values(monkeypatch):
    # values with denominators other than binomials enter as opaque
    # factors; the check agrees with the two-pairing oracle and with the
    # Fraction evaluation, and a wrong tilde factor is caught in each case
    cases = _fraction_cases()
    for label, f, g, box, rseq, k, t in cases:
        lhs3, rhs3 = _pairings_at_3(f, g, box, rseq, k, t)
        lhs, rhs = adjoint_pairings_oracle(f, g, box, rseq, k)
        assert lhs == rhs and lhs3 == rhs3, label
        assert eval_fraction(lhs, 3, t) == lhs3, label
        assert verify_adjoint(f, g, box, rseq, k) is True, label
    monkeypatch.setattr(indexops, "_pair_factor", _times_q_on_tilde(indexops._pair_factor))
    for label, f, g, box, rseq, k, t in cases:
        lhs3, rhs3 = _pairings_at_3(f, g, box, rseq, k, t, scale=3)
        lhs, rhs = adjoint_pairings_oracle(f, g, box, rseq, k)
        assert lhs != rhs and lhs3 != rhs3, label
        assert (eval_fraction(lhs, 3, t), eval_fraction(rhs, 3, t)) == (lhs3, rhs3), label
        assert verify_adjoint(f, g, box, rseq, k) is False, label


def test_adjoint_nesting_queries_each_point_boundedly():
    # f and g are memoized once per check and each operator image that
    # feeds another is memoized too, so the adaptedness scan, both nests
    # and both pairings query each point of f and of g exactly once;
    # unmemoized, the counts multiply by C(dim, r) per level
    rng = Random(11)
    box = Box((20, -20), (21, -19))
    for rseq in ([1, 1, 1], [1, 2, 1]):
        f0 = _adapted_sample(rng, box, len(rseq))
        g0 = qpow_fn((1, -1))
        fq, gq = Counter(), Counter()

        def f(mu):
            fq[mu] += 1
            return f0(mu)

        def g(mu):
            gq[mu] += 1
            return g0(mu)

        assert verify_adjoint(f, g, box, rseq, 2)
        assert set(fq.values()) == {1} and set(gq.values()) == {1}, rseq


def test_adjoint_trivial_and_precondition():
    box = Box((0,), (3,))
    assert verify_adjoint(ONE_FN, ONE_FN, box, [], 2)
    with pytest.raises(AdaptednessError):
        verify_adjoint(ONE_FN, ONE_FN, box, [1], 2)


def test_box_validation():
    with pytest.raises(ValueError):
        Box((0, 0), (1,))
    with pytest.raises(ValueError):
        Box((2,), (1,))
    with pytest.raises(ValueError):
        IndexOpParams(k=0, variant="tilde", r=1)
    with pytest.raises(ValueError):
        IndexOpParams(k=2, variant="nope", r=1)
