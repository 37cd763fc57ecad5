"""Macdonald difference operators and Macdonald polynomials.

The r-th operator with multiplicative shift S and half-parameter tau acts as

    D^r f = tau^{r(r-n)} sum_{|I|=r} prod_{i in I, j not in I}
            (tau^2 x_i - x_j)/(x_i - x_j) * f(x with x_i -> S x_i, i in I),

so (S, tau) = (q^2, t) gives the classical operators with parameters
(q^2, t^2) and eigenvalue e_r at the point (S^{lam_i} tau^{n+1-2i}).  The
half-parameter keeps every computed quantity inside Q(q, t).

The operators are applied in the a_delta-conjugated form (Macdonald,
Symmetric Functions and Hall Polynomials, VI.3)

    D^r = tau^{-r(n-1)} a_delta^{-1} sum_{w in S_n} eps(w) x^{w delta}
          sum_{|I|=r} tau^{2 sum_{i in I} (w delta)_i} T_{S,I},

with a_delta the Vandermonde determinant, delta = (n-1, ..., 0).  On an
orbit monomial this turns every term into an alternant, so a column
D^r m_lam has Laurent-polynomial coefficients and is computed without any
division; the columns are cached per (lam, r, n, parameters) and an input
is applied as the linear combination of its columns, each output
coefficient reduced once by qfield.rat_dot.  The columns at r = 0 and
r = n are closed forms of the defining formula, D^0 m_lam = m_lam and
D^n m_lam = S^{|lam|} m_lam.

Three independent constructions of the joint eigenfunctions are provided:
a triangular eigenvalue solve, the branching recursion, and the
Gelfand-Tsetlin summation formula.  The last two are written on
branch_sum and chain_sum, which intertwiner shares for the reconstruction
at t = q^k and for the trace.  Their results are symmetric and stored in
the orbit basis, so they accumulate only dominant keys: for dominant nu
the coefficient of x^nu is exactly the coefficient of m_nu, and no other
monomial is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .combinat import (check_signature, interlaces, interlacing_signatures, inversions,
                       kostka_dominant, lattice_sum, partitions)
from .npoly import add_terms
from .qfield import (CR_ONE, CR_ZERO, CoeffRat, LaurentQT, UnitMono, binomial_ratio, cached,
                     qfall_ratio, rat_dot)
from .sympoly import SymLaurent, eval_sym, mono_shift, orbit


@dataclass(frozen=True)
class MacParams:
    """Operator parameters: multiplicative shift and half of the t-argument."""

    shift: UnitMono
    thalf: UnitMono


def generic_params():
    """Formal parameters (q^2, t^2): shift q^2 and half-parameter t."""
    return MacParams(shift=UnitMono.q(2), thalf=UnitMono.t(1))


def mac_apply(f, r, params, half_root=None):
    """Apply D^r exactly to a symmetric Laurent polynomial.

    The result is sum_lam f_lam * D^r m_lam, each coefficient summed and
    reduced once by rat_dot.  Each column D^r m_lam is cached per
    (lam, r, n, params) and built without division from the a_delta form,
    with delta = (n-1, ..., 0):

        a_delta D^r m_lam = tau^{-r(n-1)}
            sum_{gamma in orbit(lam)} e_r(tau^{2 delta_j} S^{gamma_j}) a_{delta+gamma}.

    With half_root set to a square root of the shift, the input is read as
    (x_1...x_n)^{1/2} * f and the output in the same convention; this only
    multiplies the subset term by half_root^r.
    """
    n = f.n
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    if f.is_zero():
        return f
    if half_root is not None:
        f = f.scalar_mul((half_root ** r).as_coeffrat())
    pairs = {}
    for lam, c in f.terms.items():
        for nu, a in _op_column(lam, r, n, params).items():
            pairs.setdefault(nu, []).append((a, c))
    return SymLaurent._raw(n, {nu: v for nu, ps in pairs.items() if (v := rat_dot(ps))})


def mac_generator_apply(f, u, params, half_root=None):
    """Apply the generating combination sum_r (-u)^{n-r} D^r."""
    n = f.n
    if isinstance(u, UnitMono):
        u = u.as_coeffrat()
    elif isinstance(u, int):
        u = CoeffRat.from_int(u)
    out = SymLaurent.zero(n)
    upow = CR_ONE
    terms = []
    for r in range(n, -1, -1):
        terms.append((r, upow))
        upow = upow * u
    for r, up in terms:
        term = mac_apply(f, r, params, half_root=half_root).scalar_mul(up)
        if (n - r) % 2:
            term = -term
        out = out + term
    return out


def eigen_point(lam, n, params):
    """The point (S^{lam_i} tau^{n+1-2i}) whose e_r values are eigenvalues."""
    return tuple(params.shift ** lam[i] * params.thalf ** (n - 1 - 2 * i)
                 for i in range(n))


def eigenvalue(lam, r, n, params):
    """e_r at the eigen point, summed over r-subsets in exponent arithmetic."""
    ys = [(u.sign, u.a, u.b) for u in eigen_point(lam, n, params)]
    return CoeffRat.from_laurent(LaurentQT(_add_e_r({}, ys, r, 1)))


def _add_e_r(acc, ys, r, sign):
    """Add sign * e_r(ys) into the term map acc; ys are (sign, a, b) triples."""
    for subset in combinations(ys, r):
        s, a, b = sign, 0, 0
        for ysign, ya, yb in subset:
            s, a, b = s * ysign, a + ya, b + yb
        acc[a, b] = acc.get((a, b), 0) + s
    return acc


def _dominance_key(mu):
    s = 0
    key = []
    for p in mu:
        s += p
        key.append(s)
    return tuple(key)


@cached
def _op_column(lam, r, n, params):
    """D^r m_lam in the orbit basis, as {signature: CoeffRat}.

    D^0 m_lam = m_lam and D^n m_lam = S^{|lam|} m_lam straight from the
    defining formula: the only subset I is empty, or all of {1, ..., n},
    so tau^{r(r-n)} = 1 and there are no cross factors.  Other r take the
    a_delta form in mac_apply.  An alternant a_beta vanishes when beta has
    a repeated entry and is otherwise eps * a_delta s_mu, where eps is the
    sign of sorting beta strictly decreasing and mu = sort(beta) - delta.
    Kostka numbers, counted as Gelfand-Tsetlin patterns, expand s_mu in
    orbit monomials.

    Every factor is a unit monomial +-q^a t^b, so the coefficients are
    integer term maps {(a, b): c} built by exponent arithmetic alone: e_r
    is the sum over r-subsets of the signs and summed exponents,
    tau^{-r(n-1)} an exponent shift and the Kostka numbers integer scalings.
    Nothing is divided.
    """
    if r == 0:
        return {lam: CR_ONE}
    if r == n:
        return {lam: (params.shift ** sum(lam)).as_coeffrat()}
    delta = tuple(range(n - 1, -1, -1))
    S, tau = params.shift, params.thalf
    schur = {}
    for gamma in orbit(lam):
        beta = tuple(d + g for d, g in zip(delta, gamma))
        if len(set(beta)) < n:
            continue
        sign = -1 if inversions(tuple(-b for b in beta)) % 2 else 1
        mu = tuple(b - d for b, d in zip(sorted(beta, reverse=True), delta))
        # The triples of the unit monomials tau^{2 delta_j} S^{gamma_j}.
        ys = [(S.sign ** (g % 2), 2 * tau.a * d + S.a * g, 2 * tau.b * d + S.b * g)
              for d, g in zip(delta, gamma)]
        _add_e_r(schur.setdefault(mu, {}), ys, r, sign)
    unit = tau ** (-r * (n - 1))
    mono = {}
    for mu, er in schur.items():
        for nu, kostka in kostka_dominant(mu).items():
            col = mono.setdefault(nu, {})
            scale = unit.sign * kostka
            for (a, b), c in er.items():
                key = (a + unit.a, b + unit.b)
                col[key] = col.get(key, 0) + scale * c
    return {nu: CoeffRat.from_laurent(c) for nu, col in mono.items() if (c := LaurentQT(col))}


@cached
def _eigen_cached(lam, n, params):
    if lam and lam[-1] < 0:
        c = lam[-1]
        base = _eigen_cached(tuple(x - c for x in lam), n, params)
        return mono_shift(base, c)
    if n == 1:
        return SymLaurent(1, {lam: CR_ONE})
    top = _dominance_key(lam)
    basis = sorted((mu for mu in partitions(sum(lam), n)
                    if all(a <= b for a, b in zip(_dominance_key(mu), top))),
                   key=_dominance_key, reverse=True)
    cols = {mu: _op_column(mu, 1, n, params) for mu in basis}
    eig = eigenvalue(lam, 1, n, params)
    coeffs = {lam: CR_ONE}
    for mu in basis:
        if mu == lam:
            continue
        gap = eig - cols[mu].get(mu, CR_ZERO)
        if not gap:
            raise ArithmeticError("eigenvalue collision in triangular solve")
        coeffs[mu] = rat_dot(((a, c) for nu, c in coeffs.items()
                              if (a := cols[nu].get(mu)) is not None), gap.num.terms)
    return SymLaurent(n, {k: v for k, v in coeffs.items() if v})


def macdonald_eigen(lam, n, params=None):
    """Joint eigenfunction with leading orbit monomial m_lam, by the
    triangular solve against D^1."""
    lam = check_signature(lam, n)
    if params is None:
        params = generic_params()
    return _eigen_cached(lam, n, params)


def psi_branch(lam, mu):
    """Branching coefficient psi_{lam/mu}(q, t) of
    P_lam = sum_mu psi_{lam/mu} x_n^{|lam|-|mu|} P_mu, for any sequences
    lam and mu with mu interlacing lam.

    It is the finite product of binomials 1 - q^m t^p in _psi_factors
    (Macdonald, Symmetric Functions and Hall Polynomials, VI (6.24)),
    reduced and expanded by qfield.binomial_ratio without a gcd.
    """
    return _psi(tuple(lam), tuple(mu), UnitMono.q(), UnitMono.t())


def _psi_factors(lam, mu):
    """psi_{lam/mu} as {(m, p): e}, the exponent e of (1 - q^m t^p).

    Each infinite Pochhammer pairs with the one sharing its t-power and an
    integer q-gap lam_i - mu_i >= 0 forced by interlacing, leaving four
    finite gap products per index pair.
    """
    if not interlaces(mu, lam):
        raise ValueError("mu must interlace lam")
    factors = {}
    lm = len(mu)
    for i in range(lm):
        d = lam[i] - mu[i]
        for j in range(i, lm):
            for a, p, e in ((mu[i] - mu[j], j - i + 1, 1),
                            (mu[i] - lam[j + 1] + 1, j - i, 1),
                            (mu[i] - lam[j + 1], j - i + 1, -1),
                            (mu[i] - mu[j] + 1, j - i, -1)):
                for m in range(a, a + d):
                    factors[m, p] = factors.get((m, p), 0) + e
    return factors


@cached
def _psi(lam, mu, shift, t2):
    """psi_{lam/mu} under q -> shift and t -> t2."""
    return binomial_ratio(_psi_factors(lam, mu), shift, t2)


def branch_sum(lam, psi, sub):
    """sum over mu interlacing lam of psi(mu) x_n^{|lam|-|mu|} sub(mu),
    where sub(mu) is a SymLaurent in len(lam) - 1 variables: the branching
    rule when psi is a branching coefficient and sub(mu) is P_mu.

    The sum is symmetric, so only its dominant keys are accumulated: for
    dominant nu the coefficient of x^nu is that of m_nu, and it comes from
    the term m_sig of sub(mu) with sig = (nu_1, ..., nu_{n-1}), where
    nu_n = |lam| - |mu| <= sig[-1].  No orbit is expanded.

    sub(mu) must be homogeneous of degree |mu|.  Then every key sig has
    (n - 1) sig[-1] <= |mu|, so a mu with (n - 1)(|lam| - |mu|) > |mu|
    keeps no term, and neither sub(mu) nor psi(mu) is called for it.
    Each product c * psi(mu) is reduced on its own and added by add_terms:
    summing the pairs of each key by one rat_dot made macdonald_branch
    5-9% slower in 3 and 4 variables at degrees 7 to 10 (2-vCPU Xeon).
    """
    n = len(lam)
    if n == 1:
        return SymLaurent(1, {lam: CR_ONE})
    acc = {}
    for mu in interlacing_signatures(lam):
        d = sum(lam) - sum(mu)
        if d * (n - 1) > sum(mu):
            continue
        terms = [(sig + (d,), c) for sig, c in sub(mu).terms.items() if sig[-1] >= d]
        if terms:
            c_mu = psi(mu)
            add_terms(acc, ((nu, c * c_mu) for nu, c in terms))
    return SymLaurent._raw(n, acc)


@cached
def _branch_cached(lam, n, params):
    if n == 0:
        return SymLaurent.one(0)
    t2 = params.thalf ** 2
    return branch_sum(lam, lambda mu: _psi(lam, mu, params.shift, t2),
                      lambda mu: _branch_cached(mu, n - 1, params))


def macdonald_branch(lam, n, params=None):
    """Same polynomial via the branching recursion over interlacing mu."""
    lam = check_signature(lam, n)
    if params is None:
        params = generic_params()
    return _branch_cached(lam, n, params)


def chain_sum(lam, k, link, dominant=False):
    """The chain sum over Q(q, t), sum_chain prod_i link(mu^i, mu^{i+1}) x^w,
    as a term map {w: coefficient}: combinat.lattice_sum with the link
    products of each state formed unreduced and summed by rat_dot, one
    reduction per state.

    The trace sums over every chain of level k, because its numerator is
    not symmetric; the Gelfand-Tsetlin formula, which is, sums at k = 1
    over the dominant chains only, whose weights are the dominant keys (for
    dominant w the coefficient of x^w is that of m_w).
    """
    return lattice_sum(lam, k, link, CR_ONE, rat_dot, dominant)


def macdonald_gt(lam, n, params=None):
    """Same polynomial as a sum over Gelfand-Tsetlin patterns."""
    lam = check_signature(lam, n)
    if params is None:
        params = generic_params()
    t2 = params.thalf ** 2
    return SymLaurent._raw(n, chain_sum(lam, 1, lambda mu, nu: _psi(nu, mu, params.shift, t2),
                                        dominant=True))


def macdonald_qk(lam, n, k):
    """P_lam(x; q^2, q^{2k}): generic coefficients specialized at t = q^k."""
    return _qk_cached(tuple(lam), n, k)


@cached
def _qk_cached(lam, n, k):
    return specialize_qk(macdonald_eigen(lam, n), k)


def specialize_qk(f, k):
    """The SymLaurent f with t -> q^k in every coefficient."""
    qk = UnitMono.q(k)
    out = {}
    for sig, c in f.terms.items():
        w = c.subst(t_image=qk)
        if w:
            out[sig] = w
    return SymLaurent._raw(f.n, out)


def symmetry_check(lam, mu, k):
    """Both sides of the index/variable symmetry identity at t = q^k.

    Returns (LHS, RHS) where LHS = P_lam evaluated at q^{2mu + 2k rho} and
    RHS carries the falling-factorial ratio times P_mu at q^{2lam + 2k rho}.
    """
    n = len(lam)
    if len(mu) != n:
        raise ValueError("lam and mu must have equal length")
    p_lam = macdonald_qk(lam, n, k)
    p_mu = macdonald_qk(mu, n, k)
    pt_mu = tuple(UnitMono.q(2 * mu[i] + k * (n - 1 - 2 * i)) for i in range(n))
    pt_lam = tuple(UnitMono.q(2 * lam[i] + k * (n - 1 - 2 * i)) for i in range(n))
    lhs = eval_sym(p_lam, pt_mu)
    ratio = qfall_ratio([(a[i] - a[j] + k * (j - i) + k - 1, k, s)
                         for a, s in ((lam, 1), (mu, -1)) for i, j in combinations(range(n), 2)])
    rhs = ratio * eval_sym(p_mu, pt_lam)
    return lhs, rhs
