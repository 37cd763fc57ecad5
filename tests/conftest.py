"""Shared test oracles, kept independent of the code paths they check."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest

from macdaha import qfield
from macdaha.combinat import (interlaces, interlacing_signatures, inversions, is_dominant,
                              shifted_chain_enumerate)
from macdaha.indexops import IndexOpParams, index_apply
from macdaha.macops import _psi_for_params
from macdaha.npoly import NPoly, add_terms
from macdaha.qfield import (CR_ONE, CR_ZERO, L_ONE, L_ZERO, CoeffRat, DomainViolationError,
                            LaurentQT, UnitMono, _add, _mul, _scale)
from macdaha.sympoly import SymLaurent, from_npoly, orbit, to_npoly


@pytest.fixture(params=["heuristic", "prs"])
def qt_gcd_path(request, monkeypatch):
    """Runs a test on both gcd paths for maps in both variables: the
    heuristic gcd, and the pseudo-remainder gcd `_poly_gcd` with the
    heuristic giving up at once."""
    if request.param == "prs":
        monkeypatch.setattr(qfield, "_qt_heu_gcd", lambda A, B: None)
    return request.param


def partitions_upto(maxdeg, n):
    """All partitions of 0..maxdeg into exactly n (weakly decreasing,
    non-negative) parts."""
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


def perm_sign(perm):
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def schur_oracle(lam, n):
    """Schur polynomial via the bialternant determinant ratio.

    Expands det(x_i^{lam_j + n - j}) by permutations and divides exactly by
    the Vandermonde determinant, independently of the eigen/branching code.
    """
    exps = [lam[j] + n - 1 - j for j in range(n)]
    num = NPoly.zero(n)
    for perm in permutations(range(n)):
        e = tuple(exps[perm[i]] for i in range(n))
        num = num + NPoly.monomial(e, CR_ONE if perm_sign(perm) > 0 else -CR_ONE)
    for a in range(n):
        for b in range(a + 1, n):
            num = num.divexact_binomial(a, b)
    return from_npoly(num)


def mac_apply_oracle(f, r, params, half_root=None):
    """D^r from its defining formula: multiply every subset term by its
    (tau^2 x_i - x_j) factors and the Vandermonde factors within I and
    within its complement, sum with the inversion sign, and divide exactly
    by the Vandermonde product (mac_apply's conventions, half_root
    included)."""
    n = f.n
    if f.is_zero():
        return f
    tau = params.thalf
    tau2 = (tau * tau).as_coeffrat()
    fn = to_npoly(f)
    acc = NPoly.zero(n)
    for I in combinations(range(n), r):
        iset = set(I)
        comp = [j for j in range(n) if j not in iset]
        inv = sum(1 for i in I for j in comp if i > j)
        g = fn.scale_vars(I, params.shift)
        for i in I:
            for j in comp:
                ei = [0] * n
                ej = [0] * n
                ei[i] = 1
                ej[j] = 1
                g = g * NPoly(n, {tuple(ei): tau2, tuple(ej): -CR_ONE})
        for a, b in combinations(range(n), 2):
            if (a in iset) == (b in iset):
                ea = [0] * n
                eb = [0] * n
                ea[a] = 1
                eb[b] = 1
                g = g * NPoly(n, {tuple(ea): CR_ONE, tuple(eb): -CR_ONE})
        if inv % 2:
            g = -g
        acc = acc + g
    for a, b in combinations(range(n), 2):
        acc = acc.divexact_binomial(a, b)
    scale = (tau ** (r * (r - n))).as_coeffrat()
    if half_root is not None:
        scale = scale * (half_root ** r).as_coeffrat()
    return from_npoly(acc.scalar_mul(scale))


# Expand-and-fold oracles for the orbit-basis sums: each builds every
# monomial x^e of a symmetric result and folds it back with from_npoly,
# which also checks that the result is symmetric.

def branch_oracle(lam, params):
    """P_lam by the branching rule, every level expanded to all monomials
    x^e = x^sigma(sig) x_n^{|lam|-|mu|} and folded back."""
    n = len(lam)
    if n == 1:
        return SymLaurent(1, {lam: CR_ONE})
    acc = {}
    for mu in interlacing_signatures(lam):
        c_mu = _psi_for_params(lam, mu, params)
        xn = (sum(lam) - sum(mu),)
        for sig, c in branch_oracle(mu, params).terms.items():
            w = c * c_mu
            add_terms(acc, ((e + xn, w) for e in orbit(sig)))
    return from_npoly(NPoly._raw(n, acc))


def gt_oracle(lam, params):
    """P_lam as the sum over every Gelfand-Tsetlin pattern of its psi
    product times x^w, w_i = |mu^i| - |mu^{i-1}|, folded back."""
    acc = {}
    for chain in shifted_chain_enumerate(lam, 1):
        coeff = CR_ONE
        for mu, nu in zip(chain, chain[1:]):
            coeff = coeff * _psi_for_params(nu, mu, params)
        sums = [sum(row) for row in chain]
        add_terms(acc, ((tuple(b - a for a, b in zip([0] + sums, sums)), coeff),))
    return from_npoly(NPoly._raw(len(lam), acc))


def res_map_oracle(f, n, l):
    """The ladder substitution X_i^(a) -> q^{1-l+2a} X_i on every monomial
    of f, folded back."""
    acc = {}
    for sig, c in f.terms.items():
        for e in orbit(sig):
            packed = [0] * n
            qexp = 0
            for idx, ex in enumerate(e):
                packed[idx // l] += ex
                qexp += (1 - l + 2 * (idx % l)) * ex
            add_terms(acc, ((tuple(packed), c * UnitMono.q(qexp).as_coeffrat()),))
    return from_npoly(NPoly._raw(n, acc))


def _kostka_oracle(mu):
    """{nu: K_{mu, nu}} over dominant nu, counted over every pattern."""
    out = Counter()
    for chain in shifted_chain_enumerate(mu, 1):
        sums = [sum(row) for row in chain]
        w = tuple(b - a for a, b in zip([0] + sums, sums))
        if is_dominant(w):
            out[w] += 1
    return out


def op_column_oracle(lam, r, n, params):
    """D^r m_lam from the a_delta form with e_r(tau^{2 delta_j} S^{gamma_j})
    built by the LaurentQT recurrence e_k += e_{k-1} * y and every scaling
    a LaurentQT product."""
    delta = tuple(range(n - 1, -1, -1))
    tau2 = params.thalf ** 2
    schur = {}
    for gamma in orbit(lam):
        beta = tuple(d + g for d, g in zip(delta, gamma))
        if len(set(beta)) < n:
            continue
        er = [L_ONE] + [L_ZERO] * r
        for d, g in zip(delta, gamma):
            y = (tau2 ** d * params.shift ** g).as_laurent()
            for k in range(r, 0, -1):
                er[k] = er[k] + er[k - 1] * y
        c = -er[r] if inversions(tuple(-b for b in beta)) % 2 else er[r]
        mu = tuple(b - d for b, d in zip(sorted(beta, reverse=True), delta))
        add_terms(schur, ((mu, c),))
    unit = (params.thalf ** (-r * (n - 1))).as_laurent()
    mono = {}
    for mu, c in schur.items():
        c = c * unit
        add_terms(mono, ((nu, c * LaurentQT.const(kostka))
                         for nu, kostka in _kostka_oracle(mu).items()))
    return {nu: CoeffRat.from_laurent(c) for nu, c in mono.items()}


def adjoint_pairings_oracle(f, g, box, rseq, k):
    """Both pairings of summation by parts, as verify_adjoint compared them
    before it took one zero-tested sum: < Dagger-nest f, g > over the box
    raised by l = len(rseq) and < f, Tilde-nest g > over the box, each a
    left fold of + over its points, with the operator nests applied through
    index_apply and nothing memoized."""
    def nest(fn, variant, rs):
        for r in rs:
            fn = (lambda mu, fn=fn, r=r:
                  index_apply(fn, IndexOpParams(k=k, variant=variant, r=r), mu))
        return fn

    fd, gt = nest(f, "dagger", rseq), nest(g, "tilde", list(reversed(rseq)))
    lhs = rhs = CR_ZERO
    for mu in box.raised(len(rseq)).points():
        lhs = lhs + fd(mu) * g(mu)
    for mu in box.points():
        rhs = rhs + f(mu) * gt(mu)
    return lhs, rhs


def _gen_binom(d, j):
    if d >= 0:
        return comb(d, j)
    return -comb(j - d - 1, j) if j % 2 else comb(j - d - 1, j)


def _series_atom(c, d):
    """(key, sign) with B(c, d) = sign * B(key) and key = (c > 0) or (0, d > 0)."""
    if c < 0 or (c == 0 and d < 0):
        return (-c, -d), -1
    return (c, d), 1


def _series_term(mono, num, den):
    sign = mono.sign
    cn = Counter()
    cd = Counter()
    for c, d in num:
        key, s = _series_atom(c, d)
        if key == (0, 0):
            return None
        sign *= s
        cn[key] += 1
    for c, d in den:
        key, s = _series_atom(c, d)
        if key == (0, 0):
            raise DomainViolationError("identically vanishing denominator")
        sign *= s
        cd[key] += 1
    for key in list(cd):
        m = min(cn.get(key, 0), cd[key])
        if m:
            cn[key] -= m
            cd[key] -= m
    return sign, mono.a, len(den) - len(num), +cn, +cd


def _series_mul(A, B):
    out = [{} for _ in A]
    for i, a in enumerate(A):
        if a:
            for j in range(len(A) - i):
                if B[j]:
                    out[i + j] = _add(out[i + j], _mul(a, B[j]))
    return out


def limit_oracle(factors):
    """The regularization limit of intertwiner._limit as truncated series
    of q-term maps: with Z = 1 + eps, B(c, d) = q^c Z^d - q^-c Z^-d has the
    eps^j coefficient binom(d, j) q^c - binom(-d, j) q^-c; each term is
    multiplied out one atom at a time over its sum's common denominator,
    modulo eps^(M+1) for M the c = 0 denominator atoms."""
    sums = []
    for terms, power in factors:
        norm = [t for t in (_series_term(*a) for a in terms) if t is not None]
        if not norm:
            return CR_ZERO
        common = Counter()
        for term in norm:
            common |= term[4]
        sums.append((norm, common, power))
    order = sum(p * cnt for _, common, p in sums
                for (c, _), cnt in common.items() if c == 0)

    series = {}

    def atom(c, d):
        if (c, d) not in series:
            series[c, d] = [_add(_scale({(c, 0): 1}, _gen_binom(d, j)),
                                 _scale({(-c, 0): -1}, _gen_binom(-d, j)))
                            for j in range(order + 1)]
        return series[c, d]

    num = [{(0, 0): 1}] + [{}] * order
    den = L_ONE
    emin = 0
    for norm, common, power in sums:
        e0 = min(term[2] for term in norm)
        total = [{}] * (order + 1)
        for sign, qa, epow, cn, cd in norm:
            s = [{(qa, 0): sign}] + [{}] * order
            for key, cnt in (cn + common - cd + Counter({(1, 0): epow - e0})).items():
                for _ in range(cnt):
                    s = _series_mul(s, atom(*key))
            total = [_add(x, y) for x, y in zip(total, s)]
        for _ in range(power):
            num = _series_mul(num, total)
        for (c, d), cnt in common.items():
            lead = atom(c, d)[1 if c == 0 else 0]
            den = den * LaurentQT._raw(lead) ** (cnt * power)
        emin += power * e0
    if any(num[:order]):
        raise DomainViolationError("pole at the regularization limit")
    qmqi = LaurentQT._raw(atom(1, 0)[0])
    top = LaurentQT._raw(num[order])
    if emin >= 0:
        return CoeffRat(top * qmqi ** emin, den)
    return CoeffRat(top, den * qmqi ** (-emin))


def _poch_oracle(a, d, tpow):
    """prod_{m=a}^{a+d-1} (1 - q^m t^tpow), multiplied out term map by term
    map."""
    r = L_ONE
    for m in range(a, a + d):
        r = r * LaurentQT._raw(_add({(0, 0): 1}, {(m, tpow): -1}))
    return CoeffRat(r)


def psi_branch_oracle(lam, mu):
    """psi_{lam/mu}(q, t) as a running product of Pochhammer ratios, each
    reduced by the CoeffRat gcd (the formal psi before the binomial
    kernel)."""
    if not interlaces(mu, lam):
        raise ValueError("mu must interlace lam")
    r = CR_ONE
    lm = len(mu)
    for i in range(lm):
        d = lam[i] - mu[i]
        if d == 0:
            continue
        for j in range(i, lm):
            num = _poch_oracle(mu[i] - mu[j], d, j - i + 1) \
                * _poch_oracle(mu[i] - lam[j + 1] + 1, d, j - i)
            den = _poch_oracle(mu[i] - lam[j + 1], d, j - i + 1) \
                * _poch_oracle(mu[i] - mu[j] + 1, d, j - i)
            r = r * num / den
    return r


def eval_fraction(x, q, t):
    """The CoeffRat x at the integer point (q, t), in fractions.Fraction."""
    def value(terms):
        return sum(c * Fraction(q) ** a * Fraction(t) ** b for (a, b), c in terms.items())
    return value(x.num.terms) / value(x.den.terms)


def prime_point(rng):
    """A seeded point (q, t) of two distinct primes."""
    return tuple(rng.sample((2, 3, 5, 7, 11, 13), 2))


def window(lam, k):
    """The lattice window lam_{i+1} - (k-1) <= mu_i <= lam_i."""
    m = len(lam) - 1
    return product(*[range(lam[i + 1] - (k - 1), lam[i] + 1) for i in range(m)])


def brute_mul(A, B):
    """Naive dict-convolution product of monomial maps (test-local oracle)."""
    out = {}
    for ka, va in A.items():
        for kb, vb in B.items():
            key = tuple(a + b for a, b in zip(ka, kb))
            cur = out.get(key)
            cur = va * vb if cur is None else cur + va * vb
            if cur:
                out[key] = cur
            else:
                del out[key]
    return out
