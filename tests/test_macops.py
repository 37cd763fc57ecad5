import pytest

from fractions import Fraction
from itertools import permutations, product
from math import gcd, prod
from random import Random

from conftest import (box_chains, branch_oracle, eval_fraction, gt_oracle, mac_apply_oracle,
                      op_column_oracle, partitions_upto, per_chain_sum, perturbed, prime_point,
                      principal_specialization_holds, psi_branch_oracle, schur_oracle,
                      symmetry_ratio_oracle, tilde_weight)

from macdaha import clear_caches
from macdaha.combinat import interlacing_signatures, is_dominant

from macdaha.macops import (MacParams, _op_column, _psi, branch_sum, chain_sum,
                            eigen_point, eigenvalue, generic_params,
                            mac_apply, mac_generator_apply, macdonald_branch,
                            macdonald_eigen, macdonald_gt, macdonald_qk,
                            psi_branch, symmetry_check)
from macdaha.qfield import (CR_ONE, CR_ZERO, CoeffRat, DomainViolationError, LaurentQT,
                            UnitMono, qnum, subst)
from macdaha.sympoly import SymLaurent, e_sym, eval_sym, m_sym, mono_shift

P = generic_params()
q = UnitMono.q
t = UnitMono.t


def _rand_sym(rng, n, lo, hi):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        sig = tuple(sorted((rng.randint(lo, hi) for _ in range(n)), reverse=True))
        terms[sig] = CoeffRat.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
    return SymLaurent(n, terms)


def test_mac_apply_matches_defining_formula():
    # Seeded inputs, signatures with negative entries and P_lam with
    # fractional coefficients, at generic, restriction (shift q^{-2l},
    # thalf q) and negative-sign parameters, with and without half_root.
    rng = Random(20141202)
    params = [(P, None),
              (MacParams(shift=q(-4), thalf=q(1)), q(-2)),
              (MacParams(shift=q(-6), thalf=q(1)), None),
              (MacParams(shift=UnitMono(-1, 1, 2), thalf=UnitMono(-1, 0, 1)), None)]
    inputs = [_rand_sym(rng, n, -2, 2) for n in (1, 2, 3, 4) for _ in range(2)]
    inputs += [macdonald_eigen((2, 0), 2), mono_shift(macdonald_eigen((2, 1, 0), 3), -1),
               macdonald_eigen((1, 1, 0, 0), 4)]
    for f in inputs:
        for params_, half in params:
            for r in range(f.n + 1):
                want = mac_apply_oracle(f, r, params_)
                assert mac_apply(f, r, params_) == want, (f, r, params_)
                if half is not None:
                    assert mac_apply(f, r, params_, half_root=half) == \
                        mac_apply_oracle(f, r, params_, half_root=half)
    f5 = _rand_sym(rng, 5, -1, 1)
    for r in range(6):
        assert mac_apply(f5, r, P) == mac_apply_oracle(f5, r, P), (f5, r)


# Generic, restriction (shift q^{-2l}, thalf q and shift q^{-2}, thalf q^l)
# and negative-sign parameters.
_PARAMS = [P, MacParams(shift=q(-4), thalf=q(1)), MacParams(shift=q(-6), thalf=q(1)),
           MacParams(shift=q(-2), thalf=q(2)), MacParams(shift=q(-2), thalf=q(3)),
           MacParams(shift=UnitMono(-1, 1, 2), thalf=UnitMono(-1, 0, 1))]


def _signatures(n, maxdeg):
    """The partitions up to maxdeg and, for n > 1, signatures with negative entries."""
    lams = partitions_upto(maxdeg, n)
    if n > 1:
        lams += [(2,) + (0,) * (n - 2) + (-1,), (1,) + (-1,) * (n - 2) + (-3,),
                 (-1,) * (n - 1) + (-2,)]
    return lams


def test_op_column_matches_laurent_recurrence():
    # The exponent-arithmetic columns, and the closed forms at r = 0 and
    # r = n, against e_r built by LaurentQT products.
    for n in (1, 2, 3, 4, 5):
        for lam in _signatures(n, 3 if n < 5 else 2):
            for params_ in _PARAMS:
                for r in range(n + 1):
                    assert _op_column(lam, r, n, params_) == \
                        op_column_oracle(lam, r, n, params_), (lam, r, params_)


def test_eigenvalue_is_e_r_at_the_eigen_point():
    for n in (1, 2, 3, 4):
        for lam in _signatures(n, 3):
            for params_ in _PARAMS:
                for r in range(n + 1):
                    assert eigenvalue(lam, r, n, params_) == \
                        eval_sym(e_sym(r, n), eigen_point(lam, n, params_)), (lam, r, params_)


def test_mac_apply_single_variable():
    f = SymLaurent(1, {(2,): CR_ONE})
    assert mac_apply(f, 1, P) == f.scalar_mul(q(4).as_coeffrat())


def test_mac_apply_constant_eigenfunction():
    one = SymLaurent.one(2)
    assert mac_apply(one, 1, P) == \
        one.scalar_mul(CoeffRat(LaurentQT({(0, 1): 1, (0, -1): 1})))


def test_mac_apply_full_subset():
    m11 = m_sym((1, 1), 2)
    assert mac_apply(m11, 2, P) == m11.scalar_mul(q(4).as_coeffrat())


def test_generator_single_variable():
    f = SymLaurent(1, {(2,): CR_ONE})
    u = q(2)
    assert mac_generator_apply(f, u, P) == \
        f.scalar_mul(q(4).as_coeffrat() - q(2).as_coeffrat())
    # u = 0 keeps only the top operator
    assert mac_generator_apply(f, CR_ZERO, P) == mac_apply(f, 1, P)


def test_generator_eigen_factorization():
    lam = (2, 0)
    f = macdonald_eigen(lam, 2)
    u = q(2).as_coeffrat()
    fac = eigenvalue(lam, 2, 2, P) - eigenvalue(lam, 1, 2, P) * u + u * u
    assert mac_generator_apply(f, q(2), P) == f.scalar_mul(fac)


def test_eigen_first_cases():
    assert macdonald_eigen((1, 0, 0), 3) == e_sym(1, 3)
    assert macdonald_eigen((4,), 1) == SymLaurent(1, {(4,): CR_ONE})


def test_eigen_gram_schmidt_oracle_degree2():
    # Independent oracle: orthogonalize m_(2,0) against m_(1,1) in the
    # power-sum pairing with parameters (q^2, t^2).
    A = (CR_ONE - q(4).as_coeffrat()) / (CR_ONE - t(4).as_coeffrat())
    B = ((CR_ONE - q(2).as_coeffrat()) / (CR_ONE - t(2).as_coeffrat())) ** 2
    c = (A + A) / (A + B)
    assert macdonald_eigen((2, 0), 2).coeff((1, 1)) == c


def test_eigen_gram_schmidt_oracle_degree3():
    # Orthogonalize m_3 against span(m_21, m_111) in the full symmetric
    # function ring (the 3-part monomial matters for orthogonality even
    # though it vanishes in two variables).  Power-sum coordinates:
    # m_3 = p_3, m_21 = p_21 - p_3, m_111 = (p_111 - 3 p_21 + 2 p_3)/6.
    A1 = (CR_ONE - q(2).as_coeffrat()) / (CR_ONE - t(2).as_coeffrat())
    A2 = (CR_ONE - q(4).as_coeffrat()) / (CR_ONE - t(4).as_coeffrat())
    A3 = (CR_ONE - q(6).as_coeffrat()) / (CR_ONE - t(6).as_coeffrat())
    n111 = A1 ** 3 * 6
    n21 = A2 * A1 * 2
    n3 = A3 * 3
    third = CR_ONE / CoeffRat.from_int(3)
    sixth = CR_ONE / CoeffRat.from_int(6)
    half = CR_ONE / CoeffRat.from_int(2)
    g_3_21 = -n3
    g_3_111 = third * n3
    g_21_21 = n21 + n3
    g_21_111 = -half * n21 - third * n3
    g_111_111 = sixth * sixth * n111 + half * half * n21 + third * third * n3
    det = g_21_21 * g_111_111 - g_21_111 * g_21_111
    c1 = (-g_3_21 * g_111_111 + g_3_111 * g_21_111) / det
    assert macdonald_eigen((3, 0), 2).coeff((2, 1)) == c1
    # (2,1) has no dominated partition in two variables
    assert macdonald_eigen((2, 1), 2) == m_sym((2, 1), 2)


def test_psi_branch_values():
    assert psi_branch((1, 0), (1,)) == CR_ONE
    num = LaurentQT({(0, 0): 1, (1, 0): 1}) * LaurentQT({(0, 0): 1, (0, 1): -1})
    den = LaurentQT({(0, 0): 1, (1, 1): -1})
    assert psi_branch((2, 0), (1,)) == CoeffRat(num, den)
    assert psi_branch([2, 0], [1]) == CoeffRat(num, den)
    with pytest.raises(ValueError):
        psi_branch((2, 0), (3,))


def _psi_cases():
    lams = [lam for n in range(1, 5) for lam in product(range(-2, 7), repeat=n)
            if is_dominant(lam) and sum(map(abs, lam)) <= 6]
    return [(lam, mu) for lam in lams for mu in interlacing_signatures(lam)]


_PSI_PARAMS = [
    P,
    MacParams(shift=q(-4), thalf=q(1)), MacParams(shift=q(-6), thalf=q(1)),
    MacParams(shift=q(-2), thalf=q(2)), MacParams(shift=q(-2), thalf=q(3)),
    MacParams(shift=UnitMono(-1, 2, 0), thalf=UnitMono(-1, 0, 1)),
    # q -> -1 sends every t-free factor Phi_d(q) to the integer Phi_d(-1)
    MacParams(shift=UnitMono(-1, 0, 0), thalf=t(1)),
]


def test_psi_matches_oracle():
    # psi_branch and _psi against the running product of
    # CoeffRat-reduced Pochhammer ratios, substituted after reduction;
    # the vanishing denominators must raise in both.
    raised = contents = 0
    for lam, mu in _psi_cases():
        want = psi_branch_oracle(lam, mu)
        assert psi_branch(lam, mu) == want, (lam, mu)
        for p in _PSI_PARAMS:
            try:
                w = want.subst(p.shift, p.thalf ** 2)
            except DomainViolationError:
                raised += 1
                with pytest.raises(DomainViolationError):
                    _psi(lam, mu, p.shift, p.thalf ** 2)
                continue
            got = _psi(lam, mu, p.shift, p.thalf ** 2)
            assert got == w, (lam, mu, p)
            contents += max(gcd(*got.num.terms.values()), gcd(*got.den.terms.values())) > 1
    assert raised and contents


def _psi_value(lam, mu, q, t):
    """psi_{lam/mu} at the integer point (q, t) from Macdonald VI (6.24),
    with f(u) = (tu; q)_inf / (qu; q)_inf and
    f(v) / f(q^k v) = (tv; q)_k / (qv; q)_k."""
    q, t = Fraction(q), Fraction(t)

    def poch(x, k):
        r = Fraction(1)
        for m in range(k):
            r *= 1 - x * q ** m
        return r

    r = Fraction(1)
    for i in range(len(mu)):
        k = lam[i] - mu[i]
        for j in range(i, len(mu)):
            v1 = q ** (mu[i] - mu[j]) * t ** (j - i)
            v2 = q ** (mu[i] - lam[j + 1]) * t ** (j - i)
            r *= poch(t * v1, k) / poch(q * v1, k) * poch(q * v2, k) / poch(t * v2, k)
    return r


def test_psi_values_at_prime_points():
    rng = Random(1618)
    cases = _psi_cases()
    for lam, mu in rng.sample(cases, 150):
        q0, t0 = prime_point(rng)
        assert eval_fraction(psi_branch(lam, mu), q0, t0) == _psi_value(lam, mu, q0, t0)
        # generic parameters: psi(q^2, t^2)
        assert eval_fraction(_psi(lam, mu, P.shift, P.thalf ** 2), q0, t0) == \
            _psi_value(lam, mu, q0 ** 2, t0 ** 2)


def test_psi_branch_is_eigen_coefficient():
    # The x1*x2-coefficient of the (2,0) polynomial equals psi under the
    # parameter doubling q -> q^2, t -> t^2.
    got = macdonald_eigen((2, 0), 2).coeff((1, 1))
    assert got == subst(psi_branch((2, 0), (1,)), q(2), t(2))


def test_psi_branch_schur_case():
    for (lam, mu) in [((2, 0), (1,)), ((3, 1), (2,)), ((2, 1, 0), (2, 0)),
                      ((4, 2), (3,))]:
        assert subst(psi_branch(lam, mu), t_image=q(1)) == CR_ONE


def test_constructors_agree_smoke():
    for lam in [(1, 0), (2, 0), (2, 1), (2, 1, 0), (1, 1, 1)]:
        n = len(lam)
        a = macdonald_eigen(lam, n)
        assert a == macdonald_branch(lam, n) == macdonald_gt(lam, n)


def test_constructors_agree_at_the_old_envelope_edge():
    # Branch and GT took 0.9-7.6 s on these when they summed every monomial.
    for lam in [(6, 3, 1, 0), (5, 3, 2, 1, 0), (4, 2, 1, 0, -1)]:
        n = len(lam)
        assert macdonald_eigen(lam, n) == macdonald_branch(lam, n) == macdonald_gt(lam, n), lam


def test_branch_and_gt_match_expand_and_fold_oracles():
    # Byte-identical to the sums over every monomial, folded back: n <= 4
    # and |lam| <= 6 at shifts 0 and -2, and two shapes in 5 variables.
    sigs = [tuple(x + s for x in lam) for n in (1, 2, 3, 4)
            for lam in partitions_upto(6, n) for s in (0, -2)]
    sigs += [(2, 1, 0, 0, 0), (2, 1, 1, 0, -1)]
    for lam in sigs:
        n = len(lam)
        assert str(macdonald_branch(lam, n)) == str(branch_oracle(lam, P)), lam
        assert str(macdonald_gt(lam, n)) == str(gt_oracle(lam, P)), lam


def test_branch_sum_skips_mu_without_kept_terms():
    # a homogeneous P_mu has (n-1) sig[-1] <= |mu| on every key, so no
    # term survives when (n-1)(|lam| - |mu|) > |mu|: neither sub nor psi
    # is called for such mu, and the sum is unchanged
    for lam in [(3, 1, 0), (4, 0, 0), (2, 2, 1, 0), (2, 1, 0, -1)]:
        n = len(lam)
        called = set()

        def sub(mu):
            called.add(mu)
            return macdonald_branch(mu, n - 1)

        def psi(mu):
            called.add(mu)
            return _psi(lam, mu, P.shift, P.thalf ** 2)

        assert branch_sum(lam, psi, sub) == macdonald_branch(lam, n), lam
        mus = interlacing_signatures(lam)
        skipped = {mu for mu in mus if (n - 1) * (sum(lam) - sum(mu)) > sum(mu)}
        assert skipped and called == set(mus) - skipped, lam


def test_constructors_agree_on_both_gcd_paths(qt_gcd_path):
    # Cleared caches make every constructor run on the gcd path under test.
    clear_caches()
    lam = (4, 2, 0)
    a = macdonald_eigen(lam, 3)
    assert a == macdonald_branch(lam, 3) == macdonald_gt(lam, 3)


def test_eigen_beyond_pseudo_remainder_reach():
    # Past 100 s with the pseudo-remainder gcd alone; about 1 s now.  The
    # principal specialization P_lam(1, t^2, t^4, t^6; q^2, t^2) checks the
    # output against a closed form that shares no code with the package.
    lam = (7, 5, 2, 0)
    f = macdonald_eigen(lam, 4)
    assert mac_apply(f, 1, P) == f.scalar_mul(eigenvalue(lam, 1, 4, P))
    params = lambda q, t: (q ** 2, t ** 2)
    assert principal_specialization_holds(f, lam, Random(7520), params)
    assert not principal_specialization_holds(perturbed(f), lam, Random(7520), params)


def test_eigen_principal_specialization_at_the_raised_edge():
    # An n = 3 row near the eigen envelope: the solve's output against
    # Macdonald VI (6.11'), and a one-coefficient change fails the check.
    lam = (14, 2, 0)
    f = macdonald_eigen(lam, 3)
    params = lambda q, t: (q ** 2, t ** 2)
    assert principal_specialization_holds(f, lam, Random(1420), params)
    assert not principal_specialization_holds(perturbed(f), lam, Random(1420), params)


def test_gt_principal_specialization():
    # The dominant walk checked against Macdonald VI (6.11') at an edge-size
    # partition and at a signature with a negative entry; a one-coefficient
    # change fails the check.
    params = lambda q, t: (q ** 2, t ** 2)
    for lam, seed in (((8, 3, 0, 0), 830), ((3, 2, 1, -1), 321)):
        f = macdonald_gt(lam, 4)
        assert principal_specialization_holds(f, lam, Random(seed), params), lam
        assert not principal_specialization_holds(perturbed(f), lam, Random(seed), params), lam


def test_branch_principal_specialization():
    # The branching recursion at an n = 4 partition of degree 14 against
    # Macdonald VI (6.11') at (Q, T) = (q^2, t^2); a one-coefficient change
    # fails the check.
    lam = (8, 4, 2, 0)
    f = macdonald_branch(lam, 4)
    params = lambda q, t: (q ** 2, t ** 2)
    assert principal_specialization_holds(f, lam, Random(8420), params)
    assert not principal_specialization_holds(perturbed(f), lam, Random(8420), params)


def test_qk_principal_specialization():
    # P_lam(x; q^2, q^6), the t = q^3 specialization, against Macdonald VI
    # (6.11') at (Q, T) = (q^2, q^6); a one-coefficient change fails it.
    lam = (5, 3, 1, 0)
    f = macdonald_qk(lam, 4, 3)
    params = lambda q, t: (q ** 2, q ** 6)
    assert principal_specialization_holds(f, lam, Random(5310), params)
    assert not principal_specialization_holds(perturbed(f), lam, Random(5310), params)


def test_branch_base_cases():
    assert macdonald_branch((3,), 1) == SymLaurent(1, {(3,): CR_ONE})
    assert macdonald_gt((1, 0), 2) == m_sym((1, 0), 2)


def test_gt_specializes_to_schur():
    for lam in [(2, 0), (2, 1, 0), (3, 1)]:
        n = len(lam)
        assert macdonald_qk(lam, n, 1) == schur_oracle(lam, n)
    assert macdonald_qk([1, 0], 2, 2) == macdonald_qk((1, 0), 2, 2)


def test_eigen_identity_all_r():
    for lam in [(2, 0), (2, 1, 0)]:
        n = len(lam)
        f = macdonald_eigen(lam, n)
        for r in range(n + 1):
            assert mac_apply(f, r, P) == f.scalar_mul(eigenvalue(lam, r, n, P))


def test_operator_commutativity():
    f = m_sym((2, 1, 0), 3) + m_sym((1, 1, 1), 3).scalar_mul(3)
    assert mac_apply(mac_apply(f, 1, P), 2, P) == mac_apply(mac_apply(f, 2, P), 1, P)


def test_shift_equivariance():
    for lam in [(1, -1), (0, -2), (2, 1, -1)]:
        n = len(lam)
        c = lam[-1]
        base = tuple(x - c for x in lam)
        for ctor in (macdonald_eigen, macdonald_branch, macdonald_gt):
            assert ctor(lam, n) == mono_shift(ctor(base, n), c)


def test_symmetry_identity():
    l, r = symmetry_check((1, 0), (0, 0), 1)
    assert l == r == qnum(2)
    for (lam, mu, k) in [((2, 0), (1, 0), 2), ((2, 0), (0, 0), 3),
                         ((2, 1, 0), (1, 0, 0), 2), ((1, 1), (1, 0), 3)]:
        l, r = symmetry_check(lam, mu, k)
        assert l == r, (lam, mu, k)
    l, r = symmetry_check((2, 1), (2, 1), 3)
    assert l == r


def test_symmetry_ratio_is_the_delta_oracle():
    # The right side, byte-identical to the falling q-factorials
    # multiplied out and divided in the field, times the same evaluation.
    clear_caches()
    for n, maxdeg, ks in ((2, 5, (1, 2, 3, 6, 10)), (3, 4, (1, 2, 3)), (4, 3, (1, 2))):
        parts = partitions_upto(maxdeg, n)
        for k in ks:
            for lam in parts:
                pt = tuple(q(2 * lam[i] + k * (n - 1 - 2 * i)) for i in range(n))
                for mu in parts:
                    want = symmetry_ratio_oracle(lam, mu, k) * eval_sym(macdonald_qk(mu, n, k), pt)
                    assert str(symmetry_check(lam, mu, k)[1]) == str(want), (lam, mu, k)


def _eval_at(f, xs, q, t):
    """The SymLaurent f at the point xs, each coefficient taken at the
    integer point (q, t), in Fractions: m_nu(xs) sums over the distinct
    rearrangements of nu."""
    return sum(eval_fraction(c, q, t)
               * sum(prod(x ** a for x, a in zip(xs, e)) for e in set(permutations(sig)))
               for sig, c in f.terms.items())


def _symmetry_holds(polys, q, t):
    """Macdonald VI (6.6) for every pair of polys {lam: P_lam}, with the
    coefficients at the prime point (q, t), so (Q, T) = (q^2, t^2):
    P_lam(Q^mu T^delta) / P_lam(T^delta) = P_mu(Q^lam T^delta) / P_mu(T^delta),
    delta = (n-1, ..., 0)."""
    Q, T = Fraction(q) ** 2, Fraction(t) ** 2

    def ratio(lam, mu):
        n = len(mu)
        point = [Q ** m * T ** (n - 1 - i) for i, m in enumerate(mu)]
        return _eval_at(polys[lam], point, q, t) / \
            _eval_at(polys[lam], [T ** (n - 1 - i) for i in range(n)], q, t)

    return all(ratio(lam, mu) == ratio(mu, lam) for lam in polys for mu in polys)


def test_evaluation_symmetry_oracle():
    # Independent of symmetry_check and of the package arithmetic: the
    # generic coefficients of the eigen solve, evaluated in Fractions.  A
    # copy with one coefficient changed breaks the identity.
    for n, maxdeg, seed in ((2, 6, 66), (3, 4, 67), (4, 3, 68)):
        q, t = prime_point(Random(seed))
        polys = {lam: macdonald_eigen(lam, n) for lam in partitions_upto(maxdeg, n)}
        assert _symmetry_holds(polys, q, t), n
        lam = max(polys)
        assert not _symmetry_holds({**polys, lam: perturbed(polys[lam])}, q, t), n


def test_eigen_rejects_bad_input():
    with pytest.raises(ValueError):
        macdonald_eigen((0, 1), 2)
    with pytest.raises(ValueError):
        macdonald_eigen((1, 0), 3)


def test_half_root_scales_subset_terms():
    # With the half flag, each size-r subset term gains half_root^r.
    f = SymLaurent.one(2)
    params = MacParams(shift=q(-4), thalf=q(1))
    half = q(-2)
    for r in (0, 1, 2):
        a = mac_apply(f, r, params, half_root=half)
        b = mac_apply(f, r, params).scalar_mul((half ** r).as_coeffrat())
        assert a == b


def test_chain_sum_matches_per_chain_products():
    # The level-by-level walk against the plain sum of every box-filter
    # chain's link product.  The synthetic links vanish on some pairs and
    # carry denominators, so zero states, shared prefixes and the
    # one-reduction sums of every state are all exercised.
    def link(mu, nu):
        d = sum(nu) - sum(mu)
        v = qnum(d + sum(mu) % 3 - 1) * q(mu[0])
        return v / (CR_ONE - CoeffRat(LaurentQT({(d + 1, len(mu)): 1})))

    for lam, k, dominant in [((2, 1, 0), 2, False), ((1, 0, -1), 3, False),
                             ((2, 1, 0, 0), 1, False), ((3, 2, 0, 0), 1, True),
                             ((2, 1, -1, -1), 1, True), ((4,), 2, False), ((), 2, False)]:
        chains = [chain for chain in box_chains(lam, k)
                  if not dominant or is_dominant(tilde_weight(chain, k))]
        want = per_chain_sum(chains, k, link)
        assert chain_sum(lam, k, link, dominant) == want, (lam, k, dominant)
