"""Named verification suites behind the command-line `verify` verb.

Every suite runs a bounded, seeded battery of exact checks and returns
{"suite", parameters..., "checks": [{"name", "pass"}, ...], "pass"}.
Identical arguments and seed give identical output.

The check contract.  Every check is built by `_check` from its instances,
one boolean per evaluated identity (a sample, a partition, an operator
index).  The instances are counted and every one is evaluated, so a
failure does not hide the rest, and a check with no instance fails.  A
check with no instance by construction at some size (the braid relation
needs three variables) is guarded at its call site and not emitted there,
so a zero-instance failure marks a real fault.  A suite passes when it has
at least one check and every check passes.
"""

from __future__ import annotations

from itertools import chain, combinations
from operator import eq
from random import Random

from . import indexops, intertwiner, macops
from .combinat import format_signature, interlacing_signatures, partitions
from .daha import (DahaParams, act_e, act_T, act_T_inv, act_X, act_Y, e_r_Y_apply,
                   generic_daha_params, p1_Yinv_apply, p1_Yinv_via_y, res_map, res_map_half)
from .npoly import NPoly
from .qfield import CR_ONE, CoeffRat, LaurentQT, UnitMono, qfall, qnum, poch_ratio, subst
from .sympoly import SymLaurent, e_sym, from_npoly


def _check(name, outcomes):
    """The check name over outcomes, one boolean per instance: every
    instance is evaluated, and the check passes iff there was at least one
    and every one held."""
    count = held = 0
    for ok in outcomes:
        count += 1
        held += bool(ok)
    return {"name": name, "pass": 0 < count == held}


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


def _rand_sym(rng, n, maxdeg):
    """Random symmetric Laurent polynomial with small support."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        parts = sorted((rng.randint(-1, max(1, maxdeg // n))
                        for _ in range(n)), reverse=True)
        c = rng.randint(-3, 3)
        if c:
            terms[tuple(parts)] = CoeffRat.from_int(c)
    if not terms:
        terms = {(0,) * n: CR_ONE}
    return SymLaurent(n, terms)


def _rand_npoly(rng, n, deg=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(-deg, deg) for _ in range(n))
        c = rng.randint(-3, 3)
        if c:
            terms[e] = CoeffRat.from_int(c)
    if not terms:
        terms = {(0,) * n: CR_ONE}
    return NPoly(n, terms)


def suite_qfield_axioms(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    # Drawn as the checks run, in the order of whole lists (each _check
    # runs its generator out before the next starts): O(1) memory in samples.
    rng = Random(seed)
    xyz = ([_rand_coeffrat(rng) for _ in range(3)] for _ in range(samples))
    poch = ((rng.randint(-4, 4), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2))
            for _ in range(samples))
    return [
        _check("field-axioms", (ok for x, y, z in xyz for ok in
                                ((x + y) * z == x * z + y * z, x * y == y * x)
                                + ((x / x == CR_ONE, (y / x) * x == y) if x else ()))),
        _check("qnum-symmetry", (qnum(-a) == -qnum(a)
                                 and subst(qnum(a), UnitMono.q(-1)) == qnum(a)
                                 for a in range(0, 6))),
        _check("qfall-recursion", (qfall(a, m) == qnum(a) * qfall(a - 1, m - 1)
                                   for a in range(-3, 4) for m in range(1, 4))),
        _check("poch-multiplicative",
               (poch_ratio(a, d1 + d2, b) == poch_ratio(a, d1, b) * poch_ratio(a + d1, d2, b)
                for a, d1, d2, b in poch)),
    ]


def suite_macops_eigen(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    params = macops.generic_params()
    return [_check(f"eigen[{format_signature(lam)}]",
                   (macops.mac_apply(f, r, params)
                    == f.scalar_mul(macops.eigenvalue(lam, r, n, params))
                    for f in [macops.macdonald_eigen(lam, n)] for r in range(n + 1)))
            for lam in _partitions_upto(maxdeg, n)]


def suite_constructor_agreement(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    checks = []
    for lam in _partitions_upto(maxdeg, n):
        a, b, c = (ctor(lam, n) for ctor in (macops.macdonald_eigen, macops.macdonald_branch,
                                             macops.macdonald_gt))
        checks.append(_check(f"agree[{format_signature(lam)}]", (a == b, b == c)))
    return checks


def suite_symmetry(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    parts = _partitions_upto(maxdeg, n)
    return [_check(f"symmetry[{format_signature(lam)}]",
                   (eq(*macops.symmetry_check(lam, mu, k)) for mu in parts))
            for lam in parts]


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
        checks.append(_check(f"adjoint-sample{s}", [indexops.verify_adjoint(f, g, box, rseq, k)]))
    return checks


def _relations(n, p, seed, samples):
    """(name, instances) for each family of defining relations of the
    polynomial representation, on seeded random Laurent polynomials in n
    variables; a family with no instance in n variables is left out."""
    rng = Random(seed)
    fs = [_rand_npoly(rng, n) for _ in range(samples)]
    thc = p.thalf.as_coeffrat() - p.thalf.inv().as_coeffrat()
    q = (p.qhalf ** 2).as_coeffrat()
    T, Tinv, X, Y = act_T, act_T_inv, act_X, act_Y
    if n >= 2:
        yield "hecke-quadratic", ((T(i, T(i, f, p), p) - T(i, f, p).scalar_mul(thc) - f).is_zero()
                                  for f in fs for i in range(1, n))
    if n >= 3:
        yield "braid", ((T(i, T(i + 1, T(i, f, p), p), p)
                         - T(i + 1, T(i, T(i + 1, f, p), p), p)).is_zero()
                        for f in fs for i in range(1, n - 1))
        yield "locality", (ok for f in fs for i in range(1, n) for j in range(1, n + 1)
                           if abs(i - j) > 1
                           for ok in ((T(i, X(j, f), p) - X(j, T(i, f, p))).is_zero(),
                                      (T(i, Y(j, f, p), p) - Y(j, T(i, f, p), p)).is_zero()))
    if n >= 2:
        yield "TXT", ((T(i, X(i, T(i, f, p)), p) - X(i + 1, f)).is_zero()
                      for f in fs for i in range(1, n))
        yield "TinvYTinv", ((Tinv(i, Y(i, Tinv(i, f, p), p), p) - Y(i + 1, f, p)).is_zero()
                            for f in fs for i in range(1, n))
    yield "XX-commute", ((X(i, X(j, f)) - X(j, X(i, f))).is_zero()
                         for f in fs[:3] for i in range(1, n + 1) for j in range(1, n + 1))
    if n >= 2:
        yield "YY-commute", ((Y(i, Y(j, f, p), p) - Y(j, Y(i, f, p), p)).is_zero()
                             for f in fs for i in range(1, n + 1) for j in range(i + 1, n + 1))
    ones = (1,) * n
    yield "Y1-Xcycle", ((Y(1, f.mul_monomial(ones), p)
                         - Y(1, f, p).mul_monomial(ones).scalar_mul(q)).is_zero() for f in fs)
    if n >= 2:
        yield "X1inv-Y2", ((X(1, Y(2, f, p), power=-1)
                            - Y(2, X(1, Tinv(1, Tinv(1, f, p), p), power=-1), p)).is_zero()
                           for f in fs)
    yield "symmetrizer-idempotent", ((act_e(ef, p) - ef).is_zero()
                                     for ef in (act_e(f, p) for f in fs[:5]))


def verify_relations(n, p, seed=0, samples=20):
    """Check the defining relations on seeded random Laurent polynomials.

    Returns a list of {"name", "pass"} entries, one per relation family
    that has an instance in n variables.
    """
    return [_check(name, instances) for name, instances in _relations(n, p, seed, samples)]


def suite_daha_relations(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    special = DahaParams(qhalf=UnitMono.q(-l), thalf=UnitMono.q(1))
    return [_check(f"{tag}:{name}", instances)
            for tag, p in (("generic", generic_daha_params()), ("special", special))
            for name, instances in _relations(n, p, seed, samples)]


def suite_spherical_macdonald(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    rng = Random(seed)
    p = generic_daha_params()
    mp = macops.MacParams(shift=p.qhalf ** 2, thalf=p.thalf)
    fs = [_rand_sym(rng, n, maxdeg) for _ in range(samples)]
    return [_check("erY-equals-diffop", (e_r_Y_apply(f, r, p) == macops.mac_apply(f, r, mp)
                                         for f in fs for r in range(n + 1))),
            _check("p1Yinv-routes", (p1_Yinv_apply(f, p) == p1_Yinv_via_y(f, p) for f in fs))]


def verify_res_intertwine(n, l, seed=0, samples=5, maxdeg=3):
    """Intertwining of the ladder restriction with degree-one operators."""
    rng = Random(seed)
    src = macops.MacParams(shift=UnitMono.q(-2 * l), thalf=UnitMono.q(1))
    tgt = macops.MacParams(shift=UnitMono.q(-2), thalf=UnitMono.q(l))
    src_daha = DahaParams(qhalf=UnitMono.q(-l), thalf=UnitMono.q(1))
    tgt_daha = DahaParams(qhalf=UnitMono.q(-1), thalf=UnitMono.q(l))
    lnum = qnum(l)
    fs = [_rand_sym(rng, n * l, maxdeg) for _ in range(samples)]
    pairs = [(f, res_map(f, n, l)) for f in fs]
    checks = [
        _check("res-D1", (res_map(macops.mac_apply(f, 1, src), n, l)
                          == macops.mac_apply(rf, 1, tgt).scalar_mul(lnum) for f, rf in pairs)),
        _check("res-p1Yinv", (res_map(p1_Yinv_apply(f, src_daha), n, l)
                              == p1_Yinv_apply(rf, tgt_daha).scalar_mul(lnum) for f, rf in pairs)),
        _check("res-multX", (res_map(e_sym(1, n * l) * f, n, l)
                             == (e_sym(1, n) * rf).scalar_mul(lnum) for f, rf in pairs)),
    ]

    # Kernel containment: the symmetric product over all ordered pairs of
    # (X_a - q^2 X_b) vanishes on every ladder configuration, hence must
    # map to zero (vacuous at l = 1 where the substitution is injective).
    if l > 1:
        kern = NPoly.binomial_product(n * l, ((x, y, UnitMono.q(2))
                                              for a, b in combinations(range(n * l), 2)
                                              for x, y in ((a, b), (b, a))))
        kf = from_npoly(kern)
        g = _rand_sym(rng, n * l, 2)
        checks.append(_check("res-kernel", (res_map(h, n, l).is_zero() for h in (kf, kf * g))))
    return checks


def verify_res_diff(n, l, seed=0, samples=3, maxdeg=2):
    """Restriction of the generating operator at u = q^{l+1}: equals the
    product of target generating operators at u = q^2, ..., q^{2l}; also the
    half-exponent extension of the same identity."""
    rng = Random(seed)
    src = macops.MacParams(shift=UnitMono.q(-2 * l), thalf=UnitMono.q(1))
    tgt = macops.MacParams(shift=UnitMono.q(-2), thalf=UnitMono.q(l))
    u0, src_half, tgt_half = UnitMono.q(l + 1), UnitMono.q(-l), UnitMono.q(-1)
    fs = [_rand_sym(rng, n * l, maxdeg) for _ in range(2 * samples)]

    def target(g, half_root=None):
        for a in range(1, l + 1):
            g = macops.mac_generator_apply(g, UnitMono.q(2 * a), tgt, half_root=half_root)
        return g

    return [
        _check("res-diff", (res_map(macops.mac_generator_apply(f, u0, src), n, l)
                            == target(res_map(f, n, l)) for f in fs[:samples])),
        _check("res-diff-half",
               (res_map_half(macops.mac_generator_apply(f, u0, src, half_root=src_half), n, l)
                == (par, target(rf, tgt_half if par else None))
                for f in fs[samples:] for par, rf in [res_map_half(f, n, l)])),
    ]


def suite_res_intertwine(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    return verify_res_intertwine(n, l, seed=seed, samples=samples, maxdeg=min(maxdeg, 3))


def suite_res_diff(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    return verify_res_diff(n, l, seed=seed, samples=max(2, samples // 3), maxdeg=min(maxdeg, 2))


def suite_matelt_routes(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    return [_check(f"routes[{format_signature(lam)}]",
                   (ok for mu in interlacing_signatures(lam, k)
                    for a in [intertwiner.diag_coeff_sum(mu, lam, k)]
                    for ok in (a == intertwiner.mat_elt(mu, lam, k),
                               a * a == intertwiner.c_squared_chain(mu, lam, k))))
            for lam in _partitions_upto(maxdeg, n)]


def suite_branch(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    q2, q2k = UnitMono.q(2), UnitMono.q(2 * k)
    return [_check(f"branch[{format_signature(lam)}]", chain(
                [intertwiner.branch_reconstruct_qk(lam, n, k) == macops.macdonald_qk(lam, n, k)],
                (intertwiner.psi_qnum(lam, mu, k) == macops.psi_branch(lam, mu).subst(q2, q2k)
                 for mu in interlacing_signatures(lam))))
            for lam in _partitions_upto(maxdeg, n)]


def suite_trace(n=2, l=2, k=2, maxdeg=4, samples=10, seed=0):
    zero = (0,) * n
    return [_check("trace-at-zero", [intertwiner.trace_reconstruct(zero, n, k)
                                     == intertwiner.ek_denominator(n, k)])] + \
        [_check(f"trace[{format_signature(lam)}]",
                [intertwiner.trace_ratio(lam, n, k) == macops.macdonald_qk(lam, n, k)])
         for lam in _partitions_upto(min(maxdeg, 3), n)]


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
    """The report of the suite name, or of every suite under "all":
    {"suites": [report, ...], "pass"}."""
    if name == "all":
        reports = [run_suite(s, n=n, l=l, k=k, maxdeg=maxdeg, samples=samples, seed=seed)
                   for s in SUITES]
        return {"suites": reports, "pass": all(r["pass"] for r in reports)}
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
