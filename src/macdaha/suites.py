"""Named verification suites behind the command-line `verify` verb.

Every suite runs a bounded, seeded battery of exact checks and returns
{"suite", parameters..., "checks": [{"name", "pass"}, ...], "pass"}.
Identical arguments and seed give identical output.
"""

from __future__ import annotations

from random import Random

from . import daha, indexops, intertwiner, macops
from .combinat import format_signature, interlacing_signatures, partitions
from .qfield import CR_ONE, CoeffRat, LaurentQT, UnitMono, qfall, qnum, poch_ratio, subst


def _partitions_upto(maxdeg, n):
    """The partitions of 0, 1, ..., maxdeg into n parts."""
    return [lam for d in range(maxdeg + 1) for lam in partitions(d, n)]


def _rand_coeffrat(rng):
    num = LaurentQT({(rng.randint(-3, 3), rng.randint(-2, 2)): rng.randint(-4, 4)
                     for _ in range(rng.randint(1, 3))})
    den = LaurentQT({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                     for _ in range(rng.randint(1, 2))})
    if den.is_zero():
        den = LaurentQT.const(1)
    return CoeffRat(num, den)


def suite_qfield_axioms(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    rng = Random(seed)
    ok_field = True
    for _ in range(samples):
        x, y, z = (_rand_coeffrat(rng) for _ in range(3))
        ok_field = ok_field and (x + y) * z == x * z + y * z
        ok_field = ok_field and x * y == y * x
        if x:
            ok_field = ok_field and x / x == CR_ONE and (y / x) * x == y
    ok_qnum = all(qnum(-a) == -qnum(a)
                  and subst(qnum(a), UnitMono.q(-1)) == qnum(a)
                  for a in range(0, 6))
    ok_fall = all(qfall(a, m) == qnum(a) * qfall(a - 1, m - 1)
                  for a in range(-3, 4) for m in range(1, 4))
    ok_poch = True
    for _ in range(samples):
        a = rng.randint(-4, 4)
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        b = rng.randint(0, 2)
        ok_poch = ok_poch and \
            poch_ratio(a, d1 + d2, b) == poch_ratio(a, d1, b) * poch_ratio(a + d1, d2, b)
    return [{"name": "field-axioms", "pass": bool(ok_field)},
            {"name": "qnum-symmetry", "pass": bool(ok_qnum)},
            {"name": "qfall-recursion", "pass": bool(ok_fall)},
            {"name": "poch-multiplicative", "pass": bool(ok_poch)}]


def suite_macops_eigen(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    params = macops.generic_params()
    checks = []
    for lam in _partitions_upto(maxdeg, n):
        f = macops.macdonald_eigen(lam, n)
        ok = all(macops.mac_apply(f, r, params)
                 == f.scalar_mul(macops.eigenvalue(lam, r, n, params))
                 for r in range(n + 1))
        checks.append({"name": f"eigen[{format_signature(lam)}]", "pass": bool(ok)})
    return checks


def suite_constructor_agreement(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    checks = []
    for lam in _partitions_upto(maxdeg, n):
        a = macops.macdonald_eigen(lam, n)
        b = macops.macdonald_branch(lam, n)
        c = macops.macdonald_gt(lam, n)
        checks.append({"name": f"agree[{format_signature(lam)}]",
                       "pass": bool(a == b == c)})
    return checks


def suite_symmetry(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    checks = []
    parts = _partitions_upto(maxdeg, n)
    for lam in parts:
        ok = True
        for mu in parts:
            lhs, rhs = macops.symmetry_check(lam, mu, k)
            ok = ok and lhs == rhs
        checks.append({"name": f"symmetry[{format_signature(lam)}]", "pass": bool(ok)})
    return checks


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


def suite_adjoint(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    rng = Random(seed)
    dim = max(n - 1, 1)
    if dim == 1:
        box = indexops.Box((0,), (2,))
    else:
        base = 4 * (k + l)
        box = indexops.Box(tuple(base - 2 * i * base for i in range(dim)),
                           tuple(base - 2 * i * base + 2 for i in range(dim)))
    checks = []
    for s in range(samples):
        f = _adapted_sample(rng, box, l)
        cg = tuple(rng.randint(-1, 1) for _ in range(dim))
        g = (lambda mu, c=cg:
             UnitMono.q(sum(ci * mi for ci, mi in zip(c, mu))).as_coeffrat())
        rseq = [rng.randint(0, dim) for _ in range(l)]
        ok = indexops.verify_adjoint(f, g, box, rseq, k)
        checks.append({"name": f"adjoint-sample{s}", "pass": bool(ok)})
    return checks


def suite_daha_relations(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    generic = daha.generic_daha_params()
    special = daha.DahaParams(qhalf=UnitMono.q(-l), thalf=UnitMono.q(1))
    checks = []
    for tag, p in (("generic", generic), ("special", special)):
        for c in daha.verify_relations(n, p, seed=seed, samples=samples):
            checks.append({"name": f"{tag}:{c['name']}", "pass": c["pass"]})
    return checks


def suite_spherical_macdonald(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    rng = Random(seed)
    p = daha.generic_daha_params()
    mp = macops.MacParams(shift=p.qhalf ** 2, thalf=p.thalf)
    ok_er = True
    ok_p1 = True
    for _ in range(samples):
        f = daha._rand_sym(rng, n, maxdeg)
        for r in range(n + 1):
            ok_er = ok_er and daha.e_r_Y_apply(f, r, p) == macops.mac_apply(f, r, mp)
        ok_p1 = ok_p1 and daha.p1_Yinv_apply(f, p) == daha.p1_Yinv_via_y(f, p)
    return [{"name": "erY-equals-diffop", "pass": bool(ok_er)},
            {"name": "p1Yinv-routes", "pass": bool(ok_p1)}]


def suite_res_intertwine(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    return daha.verify_res_intertwine(n, l, seed=seed,
                                      samples=samples, maxdeg=min(maxdeg, 3))


def suite_res_diff(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    return daha.verify_res_diff(n, l, seed=seed,
                                samples=max(2, samples // 3), maxdeg=min(maxdeg, 2))


def suite_matelt_routes(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    checks = []
    for lam in _partitions_upto(maxdeg, n):
        ok = True
        for mu in interlacing_signatures(lam, k):
            a = intertwiner.diag_coeff_sum(mu, lam, k)
            ok = ok and a == intertwiner.mat_elt(mu, lam, k)
            ok = ok and a * a == intertwiner.c_squared_chain(mu, lam, k)
        checks.append({"name": f"routes[{format_signature(lam)}]", "pass": bool(ok)})
    return checks


def suite_branch(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    checks = []
    for lam in _partitions_upto(maxdeg, n):
        lhs = intertwiner.branch_reconstruct_qk(lam, n, k)
        ok = lhs == macops.macdonald_qk(lam, n, k)
        for mu in interlacing_signatures(lam):
            ok = ok and intertwiner.psi_qnum(lam, mu, k) == \
                macops.psi_branch(lam, mu).subst(UnitMono.q(2), UnitMono.q(2 * k))
        checks.append({"name": f"branch[{format_signature(lam)}]", "pass": bool(ok)})
    return checks


def suite_trace(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    checks = []
    zero = (0,) * n
    ok0 = intertwiner.trace_reconstruct(zero, n, k) == intertwiner.ek_denominator(n, k)
    checks.append({"name": "trace-at-zero", "pass": bool(ok0)})
    for lam in _partitions_upto(min(maxdeg, 3), n):
        ok = intertwiner.trace_ratio(lam, n, k) == macops.macdonald_qk(lam, n, k)
        checks.append({"name": f"trace[{format_signature(lam)}]", "pass": bool(ok)})
    return checks


SUITES = {
    "qfield-axioms": (suite_qfield_axioms,
                      "field axioms, q-number antisymmetry, falling-factorial "
                      "recursion and Pochhammer multiplicativity of the exact "
                      "(q,t) scalar arithmetic"),
    "macops-eigen": (suite_macops_eigen,
                     "the difference operators act diagonally on the "
                     "constructed polynomials with elementary symmetric "
                     "eigenvalues"),
    "constructor-agreement": (suite_constructor_agreement,
                              "triangular eigenvalue solve, branching "
                              "recursion and Gelfand-Tsetlin summation give "
                              "the same polynomials"),
    "symmetry": (suite_symmetry,
                 "evaluation symmetry identity between index and argument "
                 "at t = q^k"),
    "adjoint": (suite_adjoint,
                "summation by parts for index-side operators against the "
                "finite box pairing on adapted functions"),
    "daha-relations": (suite_daha_relations,
                       "defining relations of the double affine Hecke "
                       "algebra in its polynomial representation, generic "
                       "and specialized parameters"),
    "spherical-macdonald": (suite_spherical_macdonald,
                            "symmetrized elementary polynomials in the Y "
                            "operators act as the difference operators; both "
                            "routes to p_1 of inverse Y agree"),
    "res-intertwine": (suite_res_intertwine,
                       "the ladder restriction map intertwines degree-one "
                       "spherical operators and kills the ladder ideal"),
    "res-diff": (suite_res_diff,
                 "restriction of the generating difference operator factors "
                 "into the product of target generating operators, including "
                 "the half-exponent extension"),
    "matelt-routes": (suite_matelt_routes,
                      "operator, box-summation and squared Clebsch-Gordan "
                      "routes to the diagonal matrix elements agree"),
    "branch": (suite_branch,
               "branching reconstruction of the polynomials at t = q^k and "
               "agreement of both branching-coefficient forms"),
    "trace": (suite_trace,
              "weighted trace over shifted chains equals the denominator "
              "product times the polynomial"),
}


def list_suites():
    """Catalog of verification suites with one-line descriptions."""
    return [{"suite": name, "description": desc} for name, (_, desc) in SUITES.items()]


def run_suite(name, n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    fn, _ = SUITES[name]
    checks = fn(n=n, l=l, k=k, maxdeg=maxdeg, samples=samples, seed=seed)
    return {
        "suite": name,
        "n": n,
        "l": l,
        "k": k,
        "maxdeg": maxdeg,
        "samples": samples,
        "seed": seed,
        "checks": checks,
        "pass": bool(checks) and all(c["pass"] for c in checks),
    }
