"""Acceptance suite: one exact-equality criterion per test, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.

Every identity is checked by exact equality in Q(q, t) or Q(q) (zero
tolerance); the few stated time budgets are asserted as well.
"""

import time
from random import Random

from conftest import partitions_upto, schur_oracle, window

from macdaha import daha, indexops, intertwiner, macops, suites
from macdaha.combinat import interlacing_signatures
from macdaha.indexops import Box
from macdaha.macops import generic_params
from macdaha.qfield import CR_ONE, UnitMono, qnum


def _report(num, label, ok, t0, budget=None):
    dt = time.time() - t0
    print(f"\ncriterion {num:>2} ({label}): {'PASS' if ok else 'FAIL'} [{dt:.1f}s]")
    assert ok, f"criterion {num} failed"
    if budget is not None:
        assert dt < budget, f"criterion {num} exceeded {budget}s"


def _all_partitions(maxdeg, nmax):
    for n in range(1, nmax + 1):
        for lam in partitions_upto(maxdeg, n):
            yield n, lam


def test_criterion_01_constructor_agreement():
    t0 = time.time()
    ok = True
    for n, lam in _all_partitions(6, 3):
        a = macops.macdonald_eigen(lam, n)
        ok = ok and a == macops.macdonald_branch(lam, n)
        ok = ok and a == macops.macdonald_gt(lam, n)
    _report(1, "constructor agreement", ok, t0, budget=60)


def test_criterion_02_eigen_identities():
    t0 = time.time()
    params = generic_params()
    ok = True
    for n, lam in _all_partitions(6, 3):
        f = macops.macdonald_eigen(lam, n)
        for r in range(n + 1):
            ev = macops.eigenvalue(lam, r, n, params)
            ok = ok and macops.mac_apply(f, r, params) == f.scalar_mul(ev)
    _report(2, "eigen identities", ok, t0)


def test_criterion_03_symmetry_identity():
    t0 = time.time()
    ok = True
    for n in (1, 2, 3):
        parts = partitions_upto(4, n)
        for k in (1, 2, 3):
            for lam in parts:
                for mu in parts:
                    lhs, rhs = macops.symmetry_check(lam, mu, k)
                    ok = ok and lhs == rhs
    _report(3, "symmetry identity", ok, t0, budget=60)


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


def test_criterion_04_summation_by_parts():
    t0 = time.time()
    rng = Random(0)
    ok = True
    count = 0
    for dim in (1, 2):
        box = Box((0,), (2,)) if dim == 1 else Box((20, -20), (22, -18))
        for l in (1, 2):
            for k in (1, 2, 3):
                for _ in range(5):
                    f = _adapted_sample(rng, box, l)
                    cg = tuple(rng.randint(-1, 1) for _ in range(dim))
                    g = (lambda mu, c=cg: UnitMono.q(
                        sum(ci * mi for ci, mi in zip(c, mu))).as_coeffrat())
                    rseq = [rng.randint(0, dim) for _ in range(l)]
                    ok = ok and indexops.verify_adjoint(f, g, box, rseq, k)
                    count += 1
    ok = ok and count >= 50
    _report(4, f"summation by parts ({count} samples)", ok, t0)


def test_criterion_05_daha_relations():
    t0 = time.time()
    ok = True
    generic = daha.generic_daha_params()
    special = daha.DahaParams(qhalf=UnitMono.q(-2), thalf=UnitMono.q(1))
    for n in (2, 3):
        for p in (generic, special):
            rep = suites.verify_relations(n, p, seed=n, samples=20)
            ok = ok and all(c["pass"] for c in rep)
    _report(5, "DAHA relations", ok, t0)


def test_criterion_06_spherical_macdonald():
    t0 = time.time()
    rng = Random(1)
    p = daha.generic_daha_params()
    mp = macops.MacParams(shift=p.qhalf ** 2, thalf=p.thalf)
    ok = True
    for n in (1, 2, 3):
        for _ in range(4):
            f = suites._rand_sym(rng, n, 3)
            for r in range(n + 1):
                ok = ok and daha.e_r_Y_apply(f, r, p) == macops.mac_apply(f, r, mp)
            ok = ok and daha.p1_Yinv_apply(f, p) == daha.p1_Yinv_via_y(f, p)
    _report(6, "spherical operators", ok, t0)


def test_criterion_07_restriction_map():
    t0 = time.time()
    ok = True
    for (n, l) in [(1, 2), (1, 3), (2, 2)]:
        rep = suites.verify_res_intertwine(n, l, seed=0, samples=4)
        ok = ok and all(c["pass"] for c in rep)
        rep = suites.verify_res_diff(n, l, seed=0, samples=3)
        ok = ok and all(c["pass"] for c in rep)
    _report(7, "restriction map", ok, t0)


def test_criterion_08_matrix_element_routes():
    t0 = time.time()
    ok = True
    for n in (2, 3):
        for lam in partitions_upto(4, n):
            for k in (1, 2, 3):
                for mu in window(lam, k):
                    a = intertwiner.diag_coeff_sum(mu, lam, k)
                    ok = ok and a == intertwiner.mat_elt(mu, lam, k)
                    ok = ok and a * a == intertwiner.c_squared_chain(mu, lam, k)
    _report(8, "matrix-element routes", ok, t0)


def test_criterion_09_branching_at_qk():
    t0 = time.time()
    ok = True
    for n in (1, 2, 3):
        for lam in partitions_upto(4, n):
            for k in (1, 2, 3):
                lhs = intertwiner.branch_reconstruct_qk(lam, n, k)
                ok = ok and lhs == macops.macdonald_qk(lam, n, k)
                if n > 1:
                    for mu in interlacing_signatures(lam):
                        a = intertwiner.psi_qnum(lam, mu, k)
                        b = macops.psi_branch(lam, mu).subst(
                            UnitMono.q(2), UnitMono.q(2 * k))
                        ok = ok and a == b
    _report(9, "branching at t=q^k", ok, t0)


def test_criterion_10_trace_reconstruction():
    t0 = time.time()
    ok = True
    k = 2
    for n in (1, 2, 3):
        zero = (0,) * n
        ok = ok and intertwiner.trace_reconstruct(zero, n, k) == \
            intertwiner.ek_denominator(n, k)
        for lam in partitions_upto(3, n):
            ok = ok and intertwiner.trace_ratio(lam, n, k) == \
                macops.macdonald_qk(lam, n, k)
    _report(10, "trace reconstruction", ok, t0, budget=300)


def test_criterion_11_schur_degeneration():
    t0 = time.time()
    ok = True
    for n, lam in _all_partitions(6, 3):
        ok = ok and macops.macdonald_qk(lam, n, 1) == schur_oracle(lam, n)
        if n > 1:
            for mu in interlacing_signatures(lam):
                ok = ok and intertwiner.psi_qnum(lam, mu, 1) == CR_ONE
            for mu in window(lam, 1):
                ok = ok and intertwiner.diag_coeff_sum(mu, lam, 1) == CR_ONE
    _report(11, "Schur degeneration at k=1", ok, t0)
