"""Polynomial representation of the GL_n double affine Hecke algebra.

Operators act on Laurent polynomials in X_1..X_n: X_i acts by
multiplication, T_i by the Demazure-Lusztig expression

    T_i = t^{1/2} s_i + (t^{1/2} - t^{-1/2}) X_{i+1} (s_i - 1)/(X_i - X_{i+1}),

and Y_i by the usual product of T's, transpositions and the q-shift in
X_1.  Parameters enter through their square roots (unit monomials), so the
represented algebra has parameters (qhalf^2, thalf^2) and all
computations stay inside Q(q, t).

The Hecke symmetrizer e sums t^{l(w)/2} T_w over S_n.  With w = u*v, u in
S_{n-1} and v a minimal coset representative (Humphreys, Reflection Groups
and Coxeter Groups, 1.10-1.11), it is a product of n - 1 coset sums, the
coset sum of S_n acting first (`act_e`).

The restriction map collapses n*l variables onto n geometric ladders of
ratio q^2 and intertwines the spherical actions in ranks n*l and n; the
`suites` module checks the relations and the intertwining exactly on
seeded samples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .combinat import is_dominant
from .macops import MacParams, mac_apply
from .npoly import NPoly
from .qfield import (L_ONE, CoeffRat, LaurentQT, UnitMono, binomial_ratio, common_den,
                     rat_dot)
from .sympoly import SymLaurent, from_npoly, mono_shift, orbit, to_npoly


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


def act_e(f, p):
    """The normalized Hecke symmetrizer prod_m (1 - t)/(1 - t^m) times
    sum_w t^{l(w)/2} T_w over S_n, an idempotent projector.

    Each w factors uniquely as w = u*v, u in S_{n-1} and v = s_{n-1} ...
    s_j a minimal coset representative, with l(w) = l(u) + l(v)
    (Humphreys 1.10-1.11 applied to w^{-1}), so T_w = T_u T_v: the coset
    sum 1 + t^{1/2} T_{n-1}(1 + t^{1/2} T_{n-2}(... (1 + t^{1/2} T_1)))
    acts first, then the S_{n-1} sum; n(n-1)/2 applications of T_i.

    T_i has Laurent matrix coefficients, so the loop runs on the
    numerators of f over one common denominator L (qfield.common_den) and
    its sums run no gcd.  Each output coefficient is multiplied by norm / L
    once, by rat_dot, and binomial_ratio gives the norm's binomials.
    """
    n = f.n
    if not f.terms:
        return f
    norm = {(0, 1): n - 1}
    norm.update({(0, m): -1 for m in range(2, n + 1)})
    norm = binomial_ratio(norm, UnitMono.q(), p.thalf ** 2)
    den, nums = common_den(list(f.terms.values()))
    thalf = p.thalf.as_coeffrat()
    g = NPoly._raw(n, dict(zip(f.terms, nums)))
    for m in range(n - 1, 0, -1):
        h = g
        for j in range(1, m + 1):
            h = g + act_T(j, h, p).scalar_mul(thalf)
        g = h
    return NPoly._raw(n, {key: rat_dot([(v, norm)], den.terms) for key, v in g.terms.items()})


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
