"""Polynomial representation of the GL_n double affine Hecke algebra.

Operators act on Laurent polynomials in X_1..X_n: X_i acts by
multiplication, T_i by the Demazure-Lusztig expression

    T_i = t^{1/2} s_i + (t^{1/2} - t^{-1/2}) X_{i+1} (s_i - 1)/(X_i - X_{i+1}),

and Y_i by the usual product of T's, transpositions and the q-shift in
X_1.  Parameters enter through their square roots (unit monomials), so the
represented algebra has parameters (qhalf^2, thalf^2) and all
computations stay inside Q(q, t).

The restriction map collapses n*l variables onto n geometric ladders of
ratio q^2 and intertwines the spherical actions in ranks n*l and n; the
verification routines check this exactly on seeded samples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from random import Random

from .combinat import inversions, is_dominant
from .macops import MacParams, mac_apply, mac_generator_apply
from .npoly import NPoly
from .qfield import CR_ONE, L_ONE, CoeffRat, LaurentQT, UnitMono, cached, qnum, rat_dot
from .sympoly import SymLaurent, e_sym, from_npoly, mono_shift, orbit, to_npoly


@dataclass(frozen=True)
class DahaParams:
    """Square roots of the algebra parameters: q = qhalf^2, t = thalf^2."""

    qhalf: UnitMono
    thalf: UnitMono


def generic_daha_params():
    return DahaParams(qhalf=UnitMono.q(1), thalf=UnitMono.t(1))


def act_s(i, f):
    """The transposition s_i exchanging X_i and X_{i+1} (1 <= i <= n-1)."""
    return f.swap(i - 1, i)


def act_T(i, f, p):
    """Demazure-Lusztig action of T_i; the divided difference is exact."""
    if not 1 <= i <= f.n - 1:
        raise ValueError("T_i requires 1 <= i <= n-1")
    si_f = f.swap(i - 1, i)
    thalf = p.thalf.as_coeffrat()
    out = si_f.scalar_mul(thalf)
    diff = si_f - f
    if diff.is_zero():
        return out
    quo = diff.divexact_binomial(i - 1, i)
    e = [0] * f.n
    e[i] = 1
    corr = quo.mul_monomial(tuple(e), thalf - p.thalf.inv().as_coeffrat())
    return out + corr

def act_T_inv(i, f, p):
    """T_i^{-1} = T_i - t^{1/2} + t^{-1/2}, from the quadratic relation."""
    c = p.thalf.as_coeffrat() - p.thalf.inv().as_coeffrat()
    return act_T(i, f, p) - f.scalar_mul(c)


def act_X(i, f, power=1):
    """Multiplication by X_i^power."""
    e = [0] * f.n
    e[i - 1] = power
    return f.mul_monomial(tuple(e))


def act_q_shift(f, u):
    """X_1 -> u * X_1."""
    return f.scale_vars((0,), u)


def act_Y(i, f, p):
    """Y_i = T_i .. T_{n-1} s_{n-1} .. s_1 T_{q,X_1} T_1^{-1} .. T_{i-1}^{-1}."""
    n = f.n
    if not 1 <= i <= n:
        raise ValueError("Y_i requires 1 <= i <= n")
    g = f
    for j in range(i - 1, 0, -1):
        g = act_T_inv(j, g, p)
    g = act_q_shift(g, p.qhalf ** 2)
    for j in range(1, n):
        g = act_s(j, g)
    for j in range(n - 1, i - 1, -1):
        g = act_T(j, g, p)
    return g


def act_Y_inv(i, f, p):
    """Inverse of act_Y, factor by factor."""
    n = f.n
    g = f
    for j in range(i, n):
        g = act_T_inv(j, g, p)
    for j in range(n - 1, 0, -1):
        g = act_s(j, g)
    g = act_q_shift(g, p.qhalf ** -2)
    for j in range(1, i):
        g = act_T(j, g, p)
    return g


@cached
def _perm_words(n):
    """Reduced words for S_n: {one-line tuple: word of adjacent indices}."""
    identity = tuple(range(n))
    words = {identity: ()}
    frontier = [identity]
    while frontier:
        new = []
        for perm in frontier:
            word = words[perm]
            for i in range(n - 1):
                nxt = list(perm)
                nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
                nxt = tuple(nxt)
                if nxt not in words and inversions(nxt) == len(word) + 1:
                    words[nxt] = word + (i + 1,)
                    new.append(nxt)
        frontier = new
    return words


def act_e(f, p):
    """The normalized Hecke symmetrizer: an idempotent projector."""
    n = f.n
    t = (p.thalf ** 2).as_coeffrat()
    norm = CR_ONE
    one_minus_t = CR_ONE - t
    for m in range(1, n + 1):
        norm = norm * one_minus_t / (CR_ONE - (p.thalf ** (2 * m)).as_coeffrat())
    acc = NPoly.zero(n)
    for word in _perm_words(n).values():
        g = f
        for i in reversed(word):
            g = act_T(i, g, p)
        acc = acc + g.scalar_mul((p.thalf ** len(word)).as_coeffrat())
    return acc.scalar_mul(norm)


def e_r_Y_apply(f, r, p):
    """e_r(Y_1..Y_n) on a symmetric polynomial, via the Y operators."""
    n = f.n
    fn = to_npoly(f)
    acc = NPoly.zero(n)
    for I in combinations(range(1, n + 1), r):
        g = fn
        for i in reversed(I):
            g = act_Y(i, g, p)
        acc = acc + g
    return from_npoly(acc)


def p1_Yinv_apply(f, p):
    """p_1(Y^{-1}) on a symmetric polynomial, as a difference operator:

        t^{-(n-1)/2} sum_i prod_{j != i} (t X_j - X_i)/(X_j - X_i) T_{q^{-1}, i}.

    This is D^1 at shift q^{-1} and half-parameter t^{-1/2}.
    """
    return mac_apply(f, 1, MacParams(shift=p.qhalf ** -2, thalf=p.thalf.inv()))


def p1_Yinv_via_y(f, p):
    """Same element computed through the Y_i^{-1} compositions."""
    fn = to_npoly(f)
    acc = NPoly.zero(f.n)
    for i in range(1, f.n + 1):
        acc = acc + act_Y_inv(i, fn, p)
    return from_npoly(acc)


# ---------------------------------------------------------------------------
# Restriction onto geometric ladders.

def res_map(f, n, l):
    """Collapse n*l variables onto n ladders: X_i^(a) -> q^{1-l+2a} X_i.

    The source parameters are (q^{-2l}, q^2) and the target parameters
    (q^{-2}, q^{2l}); the map itself is the plain substitution above.

    The image is symmetric in X_1, ..., X_n, so only its dominant keys are
    accumulated: for dominant nu the coefficient of X^nu is that of m_nu,
    and a packed exponent that is not dominant is skipped.  Per input
    signature, the q-powers of the orbit monomials that pack to nu are
    counted in an integer map {(qexp, 0): count}; the coefficient of nu is
    then one rat_dot of the input coefficients with these Laurent
    polynomials, reduced once.
    """
    if f.n != n * l:
        raise ValueError("source must be symmetric in n*l variables")
    pairs = {}
    for sig, c in f.terms.items():
        counts = {}
        for e in orbit(sig):
            qexp = 0
            packed = [0] * n
            for idx, ex in enumerate(e):
                packed[idx // l] += ex
                qexp += (1 - l + 2 * (idx % l)) * ex
            if is_dominant(packed):
                cnt = counts.setdefault(tuple(packed), {})
                cnt[qexp, 0] = cnt.get((qexp, 0), 0) + 1
        for nu, cnt in counts.items():
            pairs.setdefault(nu, []).append((c, CoeffRat._raw(LaurentQT._raw(cnt), L_ONE)))
    return SymLaurent._raw(n, {nu: v for nu, ps in pairs.items() if (v := rat_dot(ps))})


def res_map_half(f, n, l):
    """Restriction of (prod X_i^(a))^{1/2} * f: the half-exponents map to
    (prod X_i)^{l/2} with no extra scalar.  Returns (parity, SymLaurent)
    where parity is the residual global half-exponent (l mod 2)."""
    base = res_map(f, n, l)
    return l % 2, mono_shift(base, l // 2)


def is_multiwheel(point, n, l, t):
    """True iff the n*l coordinates split into n ladders u, u*t, ..., u*t^{l-1}."""
    if len(point) != n * l:
        raise ValueError("point must have n*l coordinates")
    counts = Counter((u.sign, u.a, u.b) for u in point)

    def rec(counts, ladders_left):
        if ladders_left == 0:
            return True
        for base in list(counts):
            u = UnitMono(*base)
            ladder = [(v.sign, v.a, v.b)
                      for v in (u * (t ** a) for a in range(l))]
            need = Counter(ladder)
            if all(counts[x] >= c for x, c in need.items()):
                counts.subtract(need)
                if rec(counts, ladders_left - 1):
                    counts.update(need)
                    return True
                counts.update(need)
        return False

    return rec(counts, n)


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


def verify_relations(n, p, seed=0, samples=20):
    """Check the defining relations on seeded random Laurent polynomials.

    Returns a list of {"name", "pass"} entries, one per relation family.
    """
    rng = Random(seed)
    fs = [_rand_npoly(rng, n) for _ in range(samples)]
    thc = p.thalf.as_coeffrat() - p.thalf.inv().as_coeffrat()
    q = (p.qhalf ** 2).as_coeffrat()
    checks = []

    def record(name, ok):
        checks.append({"name": name, "pass": bool(ok)})

    ok = all((act_T(i, act_T(i, f, p), p) - act_T(i, f, p).scalar_mul(thc) - f).is_zero()
             for f in fs for i in range(1, n))
    record("hecke-quadratic", ok)

    ok = True
    for f in fs:
        for i in range(1, n - 1):
            a = act_T(i, act_T(i + 1, act_T(i, f, p), p), p)
            b = act_T(i + 1, act_T(i, act_T(i + 1, f, p), p), p)
            ok = ok and (a - b).is_zero()
    record("braid", ok)

    ok = True
    for f in fs:
        for i in range(1, n):
            for j in range(1, n + 1):
                if abs(i - j) > 1:
                    ok = ok and (act_T(i, act_X(j, f), p) - act_X(j, act_T(i, f, p))).is_zero()
                    ok = ok and (act_T(i, act_Y(j, f, p), p) - act_Y(j, act_T(i, f, p), p)).is_zero()
    record("locality", ok)

    ok = all((act_T(i, act_X(i, act_T(i, f, p)), p) - act_X(i + 1, f)).is_zero()
             for f in fs for i in range(1, n))
    record("TXT", ok)

    ok = all((act_T_inv(i, act_Y(i, act_T_inv(i, f, p), p), p) - act_Y(i + 1, f, p)).is_zero()
             for f in fs for i in range(1, n))
    record("TinvYTinv", ok)

    ok = all((act_X(i, act_X(j, f)) - act_X(j, act_X(i, f))).is_zero()
             for f in fs[:3] for i in range(1, n + 1) for j in range(1, n + 1))
    record("XX-commute", ok)

    ok = True
    for f in fs:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                ok = ok and (act_Y(i, act_Y(j, f, p), p) - act_Y(j, act_Y(i, f, p), p)).is_zero()
    record("YY-commute", ok)

    ok = True
    for f in fs:
        xprod = f.mul_monomial((1,) * n)
        lhs = act_Y(1, xprod, p)
        rhs = act_Y(1, f, p).mul_monomial((1,) * n).scalar_mul(q)
        ok = ok and (lhs - rhs).is_zero()
    record("Y1-Xcycle", ok)

    if n >= 2:
        ok = True
        for f in fs:
            lhs = act_X(1, act_Y(2, f, p), power=-1)
            rhs = act_Y(2, act_X(1, act_T_inv(1, act_T_inv(1, f, p), p), power=-1), p)
            ok = ok and (lhs - rhs).is_zero()
        record("X1inv-Y2", ok)

    ok = True
    for f in fs[:5]:
        ef = act_e(f, p)
        ok = ok and (act_e(ef, p) - ef).is_zero()
    record("symmetrizer-idempotent", ok)

    return checks


def verify_res_intertwine(n, l, seed=0, samples=5, maxdeg=3):
    """Intertwining of the ladder restriction with degree-one operators."""
    rng = Random(seed)
    src = MacParams(shift=UnitMono.q(-2 * l), thalf=UnitMono.q(1))
    tgt = MacParams(shift=UnitMono.q(-2), thalf=UnitMono.q(l))
    src_daha = DahaParams(qhalf=UnitMono.q(-l), thalf=UnitMono.q(1))
    tgt_daha = DahaParams(qhalf=UnitMono.q(-1), thalf=UnitMono.q(l))
    lnum = qnum(l)
    checks = []

    ok = ok2 = ok3 = True
    for _ in range(samples):
        f = _rand_sym(rng, n * l, maxdeg)
        rf = res_map(f, n, l)
        lhs = res_map(mac_apply(f, 1, src), n, l)
        rhs = mac_apply(rf, 1, tgt).scalar_mul(lnum)
        ok = ok and lhs == rhs
        lhs2 = res_map(p1_Yinv_apply(f, src_daha), n, l)
        rhs2 = p1_Yinv_apply(rf, tgt_daha).scalar_mul(lnum)
        ok2 = ok2 and lhs2 == rhs2
        lhs3 = res_map(e_sym(1, n * l) * f, n, l)
        rhs3 = (e_sym(1, n) * rf).scalar_mul(lnum)
        ok3 = ok3 and lhs3 == rhs3
    checks.append({"name": "res-D1", "pass": bool(ok)})
    checks.append({"name": "res-p1Yinv", "pass": bool(ok2)})
    checks.append({"name": "res-multX", "pass": bool(ok3)})

    # Kernel containment: the symmetric product over all ordered pairs of
    # (X_a - q^2 X_b) vanishes on every ladder configuration, hence must
    # map to zero (vacuous at l = 1 where the substitution is injective).
    if l > 1:
        kern = NPoly.binomial_product(n * l, ((x, y, UnitMono.q(2))
                                              for a, b in combinations(range(n * l), 2)
                                              for x, y in ((a, b), (b, a))))
        kf = from_npoly(kern)
        okk = res_map(kf, n, l).is_zero()
        g = _rand_sym(rng, n * l, 2)
        okk = okk and res_map(kf * g, n, l).is_zero()
        checks.append({"name": "res-kernel", "pass": bool(okk)})
    return checks


def verify_res_diff(n, l, seed=0, samples=3, maxdeg=2):
    """Restriction of the generating operator at u = q^{l+1}: equals the
    product of target generating operators at u = q^2, ..., q^{2l}; also the
    half-exponent extension of the same identity."""
    rng = Random(seed)
    src = MacParams(shift=UnitMono.q(-2 * l), thalf=UnitMono.q(1))
    tgt = MacParams(shift=UnitMono.q(-2), thalf=UnitMono.q(l))
    u0 = UnitMono.q(l + 1)
    checks = []

    ok = True
    for _ in range(samples):
        f = _rand_sym(rng, n * l, maxdeg)
        lhs = res_map(mac_generator_apply(f, u0, src), n, l)
        rhs = res_map(f, n, l)
        for a in range(1, l + 1):
            rhs = mac_generator_apply(rhs, UnitMono.q(2 * a), tgt)
        ok = ok and lhs == rhs
    checks.append({"name": "res-diff", "pass": bool(ok)})

    ok = True
    src_half = UnitMono.q(-l)
    tgt_half = UnitMono.q(-1)
    for _ in range(samples):
        f = _rand_sym(rng, n * l, maxdeg)
        par, lhs = res_map_half(mac_generator_apply(f, u0, src, half_root=src_half), n, l)
        par0, rhs = res_map_half(f, n, l)
        for a in range(1, l + 1):
            rhs = mac_generator_apply(rhs, UnitMono.q(2 * a), tgt,
                                      half_root=tgt_half if par0 else None)
        ok = ok and lhs == rhs and par == par0
    checks.append({"name": "res-diff-half", "pass": bool(ok)})
    return checks
