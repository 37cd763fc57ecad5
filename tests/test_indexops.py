import pytest
from collections import Counter
from random import Random

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


def test_pair_factor_is_the_q_number_quotient():
    # (numerator arguments, denominator arguments, q-power) per variant
    defs = {"plain": lambda k, d: ((d + k,), (d,), k),
            "tilde": lambda k, d: ((d + k, d - k + 1), (d, d + 1), 0),
            "dagger": lambda k, d: ((d + k - 1, d - k), (d - 1, d), 0)}
    for variant, args in defs.items():
        for k in range(1, 5):
            for d in range(-8, 9):
                nums, dens, a = args(k, d)
                if 0 in dens:
                    # e.g. tilde, k = 1, d = -1 is [0][-1]/([-1][0]): a formal
                    # cancellation would give 1, but the quotient is undefined
                    with pytest.raises(DomainViolationError):
                        _pair_factor(variant, k, d)
                    continue
                want = q(a).as_coeffrat()
                for x in nums:
                    want = want * qnum(x)
                for x in dens:
                    want = want / qnum(x)
                assert _pair_factor(variant, k, d) == want, (variant, k, d)
    with pytest.raises(DomainViolationError):
        _pair_factor("tilde", 1, -1)


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
