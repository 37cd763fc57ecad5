"""The three workloads: seeded instance sets, one call per instance, checks.

An instance is a plain tuple `(kind, *args)`.  `run` performs the program
calls of one instance and the program-side identity it must satisfy, and
returns `(ok, text, extra)`: whether the identity held, a canonical text of
the outputs (for the run digest), and outputs kept for `oracle`, the
independent check that runs after the timed span.

The seed changes the inputs, not the work: every instance set has a fixed
make-up of classes whose cost is known to be stable (which signatures,
which levels, which operator sequences), and the seed draws the shifts,
coefficients, boxes, random points, sampled light instances and order.  A
common shift of every signature leaves the amount of work unchanged, so
ten seeds give ten different inputs with one cost profile, and a spread
between runs is the machine's, not the instance set's.
"""

from __future__ import annotations

from itertools import product
from random import Random

from macdaha import daha, indexops, intertwiner, macops
from macdaha.indexops import Box
from macdaha.qfield import CoeffRat, UnitMono, qnum
from macdaha.sympoly import SymLaurent

import oracles

WORKLOADS = ("routes", "operators", "lattice")

_GENERIC = macops.generic_params()


def partitions(maxdeg, n):
    """Partitions of 0..maxdeg into exactly n non-negative parts."""
    out = []

    def rec(pre, rem, mx):
        if len(pre) == n:
            if rem == 0:
                out.append(tuple(pre))
            return
        for p in range(min(mx, rem), -1, -1):
            rec(pre + [p], rem - p, p)

    for d in range(maxdeg + 1):
        rec([], d, d)
    return out


def window(lam, k):
    """The lattice window lam_{i+1} - (k-1) <= mu_i <= lam_i."""
    m = len(lam) - 1
    return [tuple(mu) for mu in
            product(*[range(lam[i + 1] - (k - 1), lam[i] + 1) for i in range(m)])]


def _shifted(sig, s):
    return tuple(x + s for x in sig)


# ---------------------------------------------------------------------------
# Instance sets.

def build(workload, seed, tiny=False):
    rng = Random(f"{workload}:{seed}")
    insts = {"routes": _routes, "operators": _operators,
             "lattice": _lattice}[workload](rng, tiny)
    rng.shuffle(insts)
    return insts


def _routes(rng, tiny):
    """Window points (mu, lam, k): the full windows of three n = 3
    signatures at k = 3 and of every n = 3 signature with |lam| <= 4 at
    k = 2, and 20 sampled n = 2 points; each shifted by a seeded constant."""
    if tiny:
        pts = [((1,), (1, 0), 2), ((0,), (2, 0), 3), ((1, 0), (1, 0, 0), 2)]
    else:
        pts = [(mu, lam, 3) for lam in ((0, 0, 0), (1, 0, 0), (1, 1, 1))
               for mu in window(lam, 3)]
        pts += [(mu, lam, 2) for lam in partitions(4, 3) for mu in window(lam, 2)]
        pool = [(mu, lam, k) for k in (2, 3) for lam in partitions(6, 2)
                for mu in window(lam, k)]
        pts += rng.sample(pool, 20)
    out = []
    for mu, lam, k in pts:
        s = rng.randint(-3, 3)
        out.append(("route", _shifted(mu, s), _shifted(lam, s), k))
    return out


# Ladder-restriction inputs: (n, l, signatures).  The signatures fix the
# cost; the seed draws the coefficients and a common exponent shift.
_RES_SHAPES = (
    (2, 2, ((1, 0, 0, -1),)),
    (2, 2, ((1, 1, 0, 0), (0, 0, 0, 0))),
    (2, 2, ((1, 0, -1, -1), (1, 1, 0, 0))),
    (1, 4, ((1, 0, 0, -1),)),
    (1, 4, ((1, 1, 0, 0), (0, 0, 0, 0))),
    (1, 4, ((1, 0, -1, -1), (1, 1, 0, 0))),
)
_RES_SHAPES_5 = (
    (1, 5, ((1, 0, 0, 0, -1), (0, 0, 0, 0, 0))),
    (1, 5, ((1, 1, 0, -1, -1),)),
)


def _operators(rng, tiny):
    """P_lam for n <= 3, |lam| <= 6 by all three constructors, and ladder
    restrictions of random symmetric polynomials in 4 and 5 variables."""
    out = []
    lams = [(n, lam) for n in (1, 2, 3) for lam in partitions(2 if tiny else 6, n)]
    for n, lam in lams:
        out.append(("ctor", _shifted(lam, rng.randint(-2, 2)), n, rng.getrandbits(32)))
    shapes = _RES_SHAPES[:1] if tiny else _RES_SHAPES * 9 + _RES_SHAPES_5
    for n, l, sigs in shapes:
        s = rng.randint(-1, 1)
        terms = tuple((_shifted(sig, s), rng.choice((-3, -2, -1, 1, 2, 3)))
                      for sig in sigs)
        out.append(("res", n, l, terms))
    return out


# Summation-by-parts samples: (dim, l, k, rseq).  The operator sequence
# fixes the cost (a degree strictly between 0 and dim nests the most
# operator terms); the seed draws f, g and the position of the box.
_ADJ_1 = [(1, l, k, rseq) for l in (1, 2) for k in (1, 2, 3)
          for rseq in product(range(2), repeat=l)]
_ADJ_2 = ([(2, 1, k, (r,)) for k in (1, 2, 3) for r in range(3)]
          + [(2, 2, 1, rseq) for rseq in product(range(3), repeat=2)]
          + [(2, 2, 2, rseq) for rseq in ((0, 0), (0, 2), (2, 0), (2, 2), (1, 0))]
          + [(2, 2, 3, rseq) for rseq in ((0, 0), (2, 2), (0, 1))])


def _lattice(rng, tiny):
    """trace_ratio against macdonald_qk for n <= 3, k in {2, 3}, |lam| <= 3,
    and summation-by-parts samples in 1 and 2 index dimensions."""
    out = []
    for k in ((2,) if tiny else (2, 3)):
        for n in (1, 2, 3):
            for lam in partitions(1 if tiny else 3, n):
                out.append(("trace", _shifted(lam, rng.randint(-2, 2)), n, k,
                            rng.getrandbits(32)))
    samples = _ADJ_1[:2] + _ADJ_2[:1] if tiny else _ADJ_1 * 3 + _ADJ_2
    for dim, l, k, rseq in samples:
        cexp = tuple(rng.randint(-1, 1) for _ in range(dim))
        cg = tuple(rng.randint(-1, 1) for _ in range(dim))
        out.append(("adjoint", dim, l, k, rseq, cexp, cg, rng.randint(-3, 3)))
    return out


def off_window_instances():
    """Instances that must fail: an off-window point where the routes
    disagree, and a malformed point that raises."""
    return [("route", (5, 5), (2, 1, 0), 2), ("route", (0,), (0, 0, 0), 2)]


# ---------------------------------------------------------------------------
# Running one instance.

def _sym_text(f):
    return ";".join(f"{sig}:{f.terms[sig]}" for sig in sorted(f.terms))


def run(inst):
    kind = inst[0]
    if kind == "route":
        _, mu, lam, k = inst
        c_sum = intertwiner.diag_coeff_sum(mu, lam, k)
        c_mat = intertwiner.mat_elt(mu, lam, k)
        c_cg = intertwiner.c_squared_chain(mu, lam, k)
        ok = c_sum == c_mat and c_sum * c_sum == c_cg
        return ok, f"{c_sum}|{c_mat}|{c_cg}", None
    if kind == "ctor":
        _, lam, n, _pt = inst
        a = macops.macdonald_eigen(lam, n)
        ok = a == macops.macdonald_branch(lam, n) and a == macops.macdonald_gt(lam, n)
        images = []
        for r in range(n + 1):
            d = macops.mac_apply(a, r, _GENERIC)
            ev = macops.eigenvalue(lam, r, n, _GENERIC)
            ok = ok and d == a.scalar_mul(ev)
            images.append(d)
        return ok, _sym_text(a), (a, images)
    if kind == "res":
        _, n, l, terms = inst
        f = SymLaurent(n * l, {sig: CoeffRat.from_int(c) for sig, c in terms})
        src = macops.MacParams(shift=UnitMono.q(-2 * l), thalf=UnitMono.q(1))
        tgt = macops.MacParams(shift=UnitMono.q(-2), thalf=UnitMono.q(l))
        src_daha = daha.DahaParams(qhalf=UnitMono.q(-l), thalf=UnitMono.q(1))
        tgt_daha = daha.DahaParams(qhalf=UnitMono.q(-1), thalf=UnitMono.q(l))
        rf = daha.res_map(f, n, l)
        lhs = daha.res_map(macops.mac_apply(f, 1, src), n, l)
        ok = lhs == macops.mac_apply(rf, 1, tgt).scalar_mul(qnum(l))
        lhs2 = daha.res_map(daha.p1_Yinv_apply(f, src_daha), n, l)
        ok = ok and lhs2 == daha.p1_Yinv_apply(rf, tgt_daha).scalar_mul(qnum(l))
        return ok, f"{_sym_text(lhs)}|{_sym_text(lhs2)}", None
    if kind == "trace":
        _, lam, n, k, _pt = inst
        tr = intertwiner.trace_ratio(lam, n, k)
        ok = tr == macops.macdonald_qk(lam, n, k)
        return ok, _sym_text(tr), None
    if kind == "adjoint":
        _, dim, l, k, rseq, cexp, cg, off = inst
        if dim == 1:
            box = Box((off,), (off + 2,))
        else:
            box = Box((20 + off, -20 + off), (22 + off, -18 + off))
        f = _adapted(box, l, cexp)

        def g(mu):
            return UnitMono.q(sum(c * m for c, m in zip(cg, mu))).as_coeffrat()

        ok = indexops.verify_adjoint(f, g, box, list(rseq), k)
        return ok, str(ok), None
    raise ValueError(f"unknown instance kind {kind!r}")


def _adapted(box, width, cexp):
    """q^{cexp . mu} times q-numbers vanishing on the width-l shell."""

    def f(mu):
        v = UnitMono.q(sum(c * m for c, m in zip(cexp, mu))).as_coeffrat()
        for i in range(box.dim):
            for j in range(1, width + 1):
                v = v * qnum(mu[i] - (box.upper[i] + j)) * qnum(mu[i] - (box.lower[i] - j))
        return v

    return f


# ---------------------------------------------------------------------------
# Independent checks, run after the timed span.

def oracle(inst, extra):
    """Check `extra` against a computation that does not use `macdaha`."""
    kind = inst[0]
    if kind == "ctor":
        _, lam, n, pt_seed = inst
        p, images = extra
        return _at_random_point(pt_seed, n, lambda q, t, x: all(
            oracles.sym_at(images[r], x, q, t) == oracles.macdonald_operator_at(p, r, x, q, t)
            for r in range(n + 1)))
    if kind == "trace":
        _, lam, n, _k, pt_seed = inst
        schur = macops.macdonald_qk(lam, n, 1)
        return _at_random_point(pt_seed, n, lambda q, t, x:
                                oracles.sym_at(schur, x, q, t) == oracles.schur_at(lam, x))
    return True


def _at_random_point(seed, n, check):
    """`check(q, t, x)` at the first seeded random point without a pole."""
    rng = Random(seed)
    for _ in range(20):
        q, t, x = oracles.random_point(rng, n)
        try:
            return check(q, t, x)
        except ZeroDivisionError:
            continue
    raise ZeroDivisionError("no admissible random point in 20 draws")
