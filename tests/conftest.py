"""Shared test oracles, kept independent of the code paths they check."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest

from macdaha import qfield
from macdaha.combinat import interlaces, interlacing_signatures, inversions, is_dominant, shift
from macdaha.daha import act_T
from macdaha.indexops import IndexOpParams, index_apply
from macdaha.intertwiner import _cg_qpower, diag_coeff_sum
from macdaha.macops import _psi
from macdaha.npoly import NPoly, add_terms
from macdaha.qfield import (CR_ONE, CR_ZERO, L_ONE, L_ZERO, CoeffRat, DomainViolationError,
                            LaurentQT, UnitMono, _add, _mul, _scale, qfact, qfall, rat_sum)
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


def box_chains(lam, k):
    """Every chain mu^1, ..., mu^n = lam with mu^{i+1}_j >= mu^i_j >=
    mu^{i+1}_{j+1} - (k-1), in lex order of the rows concatenated bottom-up:
    each row l filtered from the box [lam_n - (n-1)(k-1), lam_1]^l by those
    inequalities against the row above.  At k = 1 these are the
    Gelfand-Tsetlin patterns subordinate to lam."""
    n = len(lam)
    vals = range(lam[-1] - (n - 1) * (k - 1), lam[0] + 1) if lam else ()
    chains = [(lam,)]
    for l in range(n - 1, 0, -1):
        chains = [(mu,) + ch for ch in chains for mu in product(vals, repeat=l)
                  if all(ch[0][i + 1] - (k - 1) <= mu[i] <= ch[0][i] for i in range(l))]
    return sorted(chains, key=lambda ch: tuple(x for row in ch for x in row))


def tilde_weight(chain, k):
    """w_i = |tilde mu^i| - |tilde mu^{i-1}|, |tilde mu^0| = 0, with the
    level-k tilde shift mu_j - (k-1)(j-1); () for the chain of ()."""
    sums = [sum(x - (k - 1) * j for j, x in enumerate(row)) for row in chain if row]
    return tuple(b - a for a, b in zip([0] + sums, sums))


def per_chain_sum(chains, k, link):
    """{w: sum over the chains of weight w of prod_i link(mu^i, mu^{i+1})},
    each chain multiplied out on its own; zero sums dropped."""
    out = {}
    for chain in chains:
        c = CR_ONE
        for mu, nu in zip(chain, chain[1:]):
            c = c * link(mu, nu)
        w = tilde_weight(chain, k)
        out[w] = out.get(w, CR_ZERO) + c
    return {w: c for w, c in out.items() if c}


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
        c_mu = _psi(lam, mu, params.shift, params.thalf ** 2)
        xn = (sum(lam) - sum(mu),)
        for sig, c in branch_oracle(mu, params).terms.items():
            w = c * c_mu
            add_terms(acc, ((e + xn, w) for e in orbit(sig)))
    return from_npoly(NPoly._raw(n, acc))


def gt_oracle(lam, params):
    """P_lam as the sum over every Gelfand-Tsetlin pattern of its psi
    product times x^w, w_i = |mu^i| - |mu^{i-1}|, folded back."""
    t2 = params.thalf ** 2
    terms = per_chain_sum(box_chains(lam, 1), 1, lambda mu, nu: _psi(nu, mu, params.shift, t2))
    return from_npoly(NPoly(len(lam), terms))


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


def act_e_by_words(f, p):
    """The normalized Hecke symmetrizer as the sum of t^{l(w)/2} T_w f over
    one reduced word of every w in S_n, each applied from scratch."""
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


def kostka_oracle(mu):
    """{nu: K_{mu, nu}} over dominant nu, counted over every pattern."""
    weights = (tilde_weight(chain, 1) for chain in box_chains(mu, 1))
    return Counter(w for w in weights if is_dominant(w))


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
                         for nu, kostka in kostka_oracle(mu).items()))
    return {nu: CoeffRat.from_laurent(c) for nu, c in mono.items()}


def adjoint_pairings_oracle(f, g, box, rseq, k):
    """Both pairings of summation by parts, as verify_adjoint compared them
    before it took one zero-tested sum: < Dagger-nest f, g > over the box
    raised by l = len(rseq) and < f, Tilde-nest g > over the box, each a
    left fold of + over its points, with the operator nests applied through
    index_apply and nothing memoized.  index_apply reduces every image in
    Q(q, t), where verify_adjoint keeps one unreduced sum, but both read
    the same pair factors: the Fraction evaluation of the tests in
    test_indexops.py is the oracle that shares no code with them."""
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


# ---------------------------------------------------------------------------
# The route terms in list form, as the routes built them before they built
# intertwiner._limit's keyed form: a term is (mono, num, den), num and den
# lists of atoms (c, d) standing for [c + z*d], and a factor is (terms,
# power).  `keyed` turns such factors into _limit's input, `listed` turns
# _limit's input into factors for limit_oracle and _plain_value.

def _zero_atoms(mono, num, den):
    """(sign, zero) for the c = 0 atoms of a term, or None when an
    identically-zero numerator atom kills the term.  The sign is mono's,
    flipped once per atom (0, d < 0) (B(0, -d) = -B(0, d)), and zero maps
    d > 0 to the count of (0, +-d) in num minus that in den."""
    sign = mono.sign
    zero = {}
    for c, d in num:
        if not c:
            if d < 0:
                d, sign = -d, -sign
            elif not d:
                return None
            zero[d] = zero.get(d, 0) + 1
    for c, d in den:
        if not c:
            if d < 0:
                d, sign = -d, -sign
            elif not d:
                raise DomainViolationError("identically vanishing denominator")
            zero[d] = zero.get(d, 0) - 1
    return sign, zero


def _unit_atoms(num, den, sign, atoms, keep_d):
    """Add to atoms the count in num minus that in den of each c != 0
    atom, flipped to c > 0 and keyed (c, d), or (c, 0) when keep_d is 0;
    return sign flipped once per flipped atom."""
    for c, d in num:
        if c:
            if c < 0:
                c, d, sign = -c, -d, -sign
            key = c, d * keep_d
            atoms[key] = atoms.get(key, 0) + 1
    for c, d in den:
        if c:
            if c < 0:
                c, d, sign = -c, -d, -sign
            key = c, d * keep_d
            atoms[key] = atoms.get(key, 0) - 1
    return sign


def keyed(factors):
    """List-form factors in _limit's keyed form (terms, zden, power), dead
    terms kept.  A numerator atom (0, 0) kills its term, a denominator one
    raises DomainViolationError, and a factor with no term left makes the
    product zero."""
    sums = []
    for terms, power in factors:
        norm = [(z, t) for t in terms if (z := _zero_atoms(*t)) is not None]
        if not norm:
            return [([], {}, power)]
        zden = {}
        for (_, zero), _ in norm:
            for d, v in zero.items():
                if v < -zden.get(d, 0):
                    zden[d] = -v
        sums.append((norm, zden, power))
    keep = 1 if any(zden for _, zden, _ in sums) else 0
    out = []
    for norm, zden, power in sums:
        terms = []
        for (sign, zero), (mono, num, den) in norm:
            units = {}
            sign = _unit_atoms(num, den, sign, units, keep)
            terms.append((sign, mono.a, zero, units, len(den) - len(num)))
        out.append((terms, zden, power))
    return out


def live_terms(factors):
    """The terms of keyed factors that _limit keeps, per factor.

    With v a term's c = 0 numerator atoms over its factor's common
    denominator and m_g the least v of the kept terms of factor g, a term
    of factor f is dropped while v + sum_g p_g m_g - m_f > M, one factor at
    a time until none changes; no term is kept once a factor keeps none."""
    order = sum(power * sum(zden.values()) for _, zden, power in factors)
    kept = [[(sum(zden.values()) + sum(t[2].values()), t) for t in terms]
            for terms, zden, _ in factors]
    changed = True
    while changed:
        changed = False
        for f in range(len(factors)):
            if not all(kept):
                return [[] for _ in factors]
            lows = [min(v for v, _ in ts) for ts in kept]
            rest = sum(p * m for m, (*_, p) in zip(lows, factors)) - lows[f]
            keep = [(v, t) for v, t in kept[f] if v + rest <= order]
            changed |= len(keep) < len(kept[f])
            kept[f] = keep
    return [[t for _, t in ts] for ts in kept]


def listed(factors):
    """Keyed factors in list form: a count v of an atom is v copies of it
    in the numerator, or -v in the denominator.  The excess of each term
    must be that of its atoms."""
    out = []
    for terms, _, power in factors:
        lterms = []
        for sign, qa, zero, units, excess in terms:
            num, den = [], []
            for key, v in [((0, d), v) for d, v in zero.items()] + list(units.items()):
                (num if v > 0 else den).extend([key] * abs(v))
            assert excess == len(den) - len(num)
            lterms.append((UnitMono(sign, qa, 0), num, den))
        out.append((lterms, power))
    return out


def _kernel_atoms(lam, k, nu):
    """Atoms of the falling-factorial kernel at the point nu."""
    n = len(lam)
    m = n - 1
    lb = shift(lam, k, "bar")
    nbp = [nu[j] + (k - 1) - k * j for j in range(m)]
    atoms = []
    for j in range(m):
        for i in range(j + 1):
            for s in range(k - 1):
                atoms.append((lb[i] - nbp[j] + k - 1 - s, (n + i) - j))
    for i in range(m):
        for j in range(i + 1, n):
            for s in range(k - 1):
                atoms.append((nbp[i] - lb[j] - 1 - s, i - (n + j)))
    return atoms


def _delta2_atoms(lam, k):
    """Atoms of Delta_2(lam) = prod_{i<j} [lambar_i - lambar_j - 1]_{k-1}."""
    lb = shift(lam, k, "bar")
    return [(lb[i] - lb[j] - 1 - s, i - j)
            for i, j in combinations(range(len(lam)), 2) for s in range(k - 1)]


def _diag_factor_lists(mu, lam, k, v):
    """The atoms of the box-sum summand at nu' = mu' - v."""
    m = len(lam) - 1
    mbp = [mu[i] + (k - 1) - k * i for i in range(m)]
    nbp = [mbp[i] - v[i] for i in range(m)]
    num = _kernel_atoms(lam, k, [mu[i] - v[i] for i in range(m)])
    den = _delta2_atoms(lam, k)
    for i in range(m):
        for c in range(1, k - v[i]):
            den.append((c, 0))
        for c in range(1, v[i] + 1):
            den.append((c, 0))
        for j in range(i + 1, m):
            d = i - j
            A = mbp[i] - mbp[j]
            for s in range(2 * k - 1):
                num.append((A + k - 1 - s, d))
            num.append((nbp[i] - nbp[j], d))
            for s in range(k):
                den.append((nbp[i] - mbp[j] + k - 1 - s, d))
                den.append((mbp[i] - nbp[j] - s, d))
            for s in range(k - 1):
                den.append((A + k - 1 - s, d))
    return num, den


def _diag_lists(mu, lam, k):
    m = len(mu)
    pref = UnitMono(-1 if (m * (k - 1)) % 2 else 1, m * k * (k - 1), 0)
    terms = []
    for v in product(range(k), repeat=m):
        sv = sum(v)
        terms.append((UnitMono(-1 if sv % 2 else 1, -k * sv, 0) * pref,
                      *_diag_factor_lists(mu, lam, k, v)))
    return [(terms, 1)]


def _mat_elt_lists(mu, lam, k):
    m = len(lam) - 1
    mbp = [mu[i] + (k - 1) - k * i for i in range(m)]
    den_global = _delta2_atoms(lam, k)
    for i in range(m):
        for j in range(i, m):
            for s in range(k - 1):
                den_global.append((mbp[i] - mbp[j] + k - 1 - s, i - j))
    terms = []

    def expand(a, point, qexp, sign, num, den):
        if a == 0:
            terms.append((UnitMono(sign, qexp, 0), num + _kernel_atoms(lam, k, point),
                          den + den_global))
            return
        bar = [point[i] - k * i for i in range(m)]
        for r in range(m + 1):
            s2 = sign if (m - r) % 2 == 0 else -sign
            base_q = qexp + 2 * a * (m - r) + (k - 1) * r * (r - m)
            for I in combinations(range(m), r):
                addn, addd = [], []
                for i in I:
                    for j in range(m):
                        if j not in I:
                            addn.append((bar[i] - bar[j] + k - 1, i - j))
                            addd.append((bar[i] - bar[j], i - j))
                shifted = tuple(x - 1 if i in I else x for i, x in enumerate(point))
                expand(a - 1, shifted, base_q + (k - 1) * len(addn), s2,
                       num + addn, den + addd)

    expand(k - 1, mu, 0, 1, [], [])
    return [(terms, 1)]


def _s_sq_fact_atoms(a, da, b, db, fnum, fden):
    """Factorial descriptors (argument, direction) of S(a, b)^2."""
    for i in range(len(a)):
        for j in range(i, len(b)):
            fnum.append((a[i] - b[j] + j - i, da[i] - db[j]))
    for i in range(len(b)):
        for j in range(i + 1, len(a)):
            fden.append((b[i] - a[j] + j - i - 1, db[i] - da[j]))


def _telescope(fnum, fden):
    """Pair factorial descriptors per direction into q-number atoms.

    Paired factorials telescope into finite falling products (valid for
    negative arguments, matching the Gamma-reflection conventions);
    unpaired ones must have non-negative argument.
    """
    groups = {}
    for c, d in fnum:
        groups.setdefault(d, ([], []))[0].append(c)
    for c, d in fden:
        groups.setdefault(d, ([], []))[1].append(c)
    num_atoms = []
    den_atoms = []
    for d, (ln, ld) in groups.items():
        ln.sort(reverse=True)
        ld.sort(reverse=True)
        pairs = min(len(ln), len(ld))
        for aa, bb in zip(ln[:pairs], ld[:pairs]):
            if aa >= bb:
                num_atoms += [(j, d) for j in range(bb + 1, aa + 1)]
            else:
                den_atoms += [(j, d) for j in range(aa + 1, bb + 1)]
        for c in ln[pairs:]:
            if c < 0:
                raise ValueError("inadmissible pattern: negative factorial argument")
            num_atoms += [(j, d) for j in range(1, c + 1)]
        for c in ld[pairs:]:
            if c < 0:
                raise ValueError("inadmissible pattern: negative factorial argument")
            den_atoms += [(j, d) for j in range(1, c + 1)]
    return num_atoms, den_atoms


def _cg_lists(mu, lam, k):
    n = len(lam)
    m = n - 1
    tau_p = shift(lam, k, "tilde")
    tau = tuple(x - (k - 1) for x in tau_p)
    eta_p = shift(mu, k, "tilde")
    eta = tuple(x - (k - 1) for x in eta_p)
    p, r = n * (k - 1), m * (k - 1)
    dtau = [n + i for i in range(n)]
    deta = list(range(m))
    b = _cg_qpower(tau, p, tau_p, eta, r, eta_p)
    fnum = [(p - r, 0)]
    fden = []
    _s_sq_fact_atoms(eta_p, deta, eta, deta, fnum, fden)
    _s_sq_fact_atoms(tau, dtau, eta, deta, fnum, fden)
    _s_sq_fact_atoms(tau_p, dtau, tau_p, dtau, fnum, fden)
    _s_sq_fact_atoms(eta, deta, eta, deta, fnum, fden)
    _s_sq_fact_atoms(tau_p, dtau, tau, dtau, fden, fnum)
    _s_sq_fact_atoms(tau_p, dtau, eta_p, deta, fden, fnum)
    diag_num = []
    diag_den = []
    mb = shift(mu, k, "bar")
    for i in range(m):
        for j in range(i + 1, m):
            for s in range(k - 1):
                diag_num.append((mb[i] - mb[j] - 1 - s, i - j))
                diag_den.append((mb[i] - mb[j] + k - 1 - s, i - j))
    diag_den += _delta2_atoms(lam, k)
    lb = shift(lam, k, "bar")
    for i in range(n):
        for j in range(i + 1, n):
            for s in range(k - 1):
                diag_num.append((lb[i] - lb[j] + k - 1 - s, i - j))
    qconst = -b - m * (m - 1) * k * (k - 1) // 2 + n * (n - 1) * k * (k - 1) // 2
    sig_terms = []
    for sigma in product(*(range(lo, hi + 1) for lo, hi in zip(eta, eta_p))):
        snum = []
        sden = []
        _s_sq_fact_atoms(sigma, deta, sigma, deta, snum, sden)
        _s_sq_fact_atoms(tau_p, dtau, sigma, deta, snum, sden)
        _s_sq_fact_atoms(sigma, deta, eta, deta, sden, snum)
        _s_sq_fact_atoms(eta_p, deta, sigma, deta, sden, snum)
        _s_sq_fact_atoms(tau, dtau, sigma, deta, sden, snum)
        dsum = sum(sigma) - sum(eta)
        na, da = _telescope(snum, sden)
        sig_terms.append((UnitMono(-1 if dsum % 2 else 1, (p - r + 1) * dsum, 0), na, da))
    fa_num, fa_den = _telescope(fnum, fden)
    final = (UnitMono(1, qconst, 0), fa_num + diag_num, fa_den + diag_den)
    return [([final], 1), (sig_terms, 2)]


def route_factor_lists(route, mu, lam, k):
    """The list-form factors of c(mu, lam) (diag_coeff_sum, mat_elt) or of
    its square (c_squared_chain, at window points), every term of every sum
    listed atom by atom."""
    builder = {"diag_coeff_sum": _diag_lists, "mat_elt": _mat_elt_lists,
               "c_squared_chain": _cg_lists}[route]
    return builder(tuple(mu), tuple(lam), k)


# Closed-form references for the Clebsch-Gordan route.

def s_factorial_sq(a, b):
    """S(a, b)^2 = prod_{i<=j} [a_i - b_j + j - i]! / prod_{i<j} [b_i - a_j + j - i - 1]!.

    Arguments index a in the numerator's first slot and b in the second;
    a negative factorial argument means the pattern is inadmissible.
    """
    val = CR_ONE
    for i in range(len(a)):
        for j in range(i, len(b)):
            x = a[i] - b[j] + j - i
            if x < 0:
                raise ValueError("inadmissible pattern: negative factorial argument")
            val = val * qfact(x)
    for i in range(len(b)):
        for j in range(i + 1, len(a)):
            x = b[i] - a[j] + j - i - 1
            if x < 0:
                raise ValueError("inadmissible pattern: negative factorial argument")
            val = val / qfact(x)
    return val


def cg_reduced_squared(tau, p, tau_p, eta, r, eta_p):
    """Square of the reduced Clebsch-Gordan coefficient for
    L_{tau'} -> L_tau (x) Sym^p, between rows (eta, r) and (eta', ...).

    Everything is squared, so the value lives in Q(q) with no root
    ambiguity; the overall sign is not recoverable from this route.
    """
    tau, tau_p, eta, eta_p = tuple(tau), tuple(tau_p), tuple(eta), tuple(eta_p)
    n = len(tau)
    m = len(eta)
    if len(tau_p) != n or len(eta_p) != m or m != n - 1:
        raise ValueError("row lengths must be n, n, n-1, n-1")
    los = [max(eta[i], tau_p[i + 1]) for i in range(m)]
    his = [min(eta_p[i], tau[i]) for i in range(m)]
    if any(lo > hi for lo, hi in zip(los, his)):
        return CR_ZERO
    b = _cg_qpower(tau, p, tau_p, eta, r, eta_p)
    pref = s_factorial_sq(eta_p, eta) * s_factorial_sq(tau, eta) \
        * s_factorial_sq(tau_p, tau_p) * s_factorial_sq(eta, eta) \
        / (s_factorial_sq(tau_p, tau) * s_factorial_sq(tau_p, eta_p))
    total = CR_ZERO
    for sigma in product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        dsum = sum(sigma) - sum(eta)
        term = s_factorial_sq(sigma, sigma) * s_factorial_sq(tau_p, sigma) \
            / (s_factorial_sq(sigma, eta) * s_factorial_sq(eta_p, sigma)
               * s_factorial_sq(tau, sigma))
        total = total + term * UnitMono(-1 if dsum % 2 else 1,
                                        (p - r + 1) * dsum, 0).as_coeffrat()
    return UnitMono.q(-b).as_coeffrat() * qfact(p - r) * pref * total * total


def cg_diag_sq(lam, n, k):
    """Square of the iterated diagonal Clebsch-Gordan coefficient of the
    highest weight vector, normalized consistently with the untranslated
    reduced coefficient: q^{-n(n-1)k(k-1)/2} times the falling-factorial
    ratio over pairs.  (Each single level-j step squared carries
    q^{-(j-1)k(k-1)} times its pair ratio.)"""
    lb = shift(tuple(lam), k, "bar")
    val = UnitMono.q(-n * (n - 1) * k * (k - 1) // 2).as_coeffrat()
    for i in range(n):
        for j in range(i + 1, n):
            val = val * qfall(lb[i] - lb[j] - 1, k - 1) \
                / qfall(lb[i] - lb[j] + k - 1, k - 1)
    return val


# ---------------------------------------------------------------------------
# The Delta products of the branching coefficient at t = q^k, each falling
# q-factorial multiplied out and the quotients divided in the field.

def delta1_oracle(mu, k):
    """Delta_1(mu) = prod_{i<j} [mubar_i - mubar_j + (k-1)]_{k-1}."""
    b = shift(tuple(mu), k, "bar")
    val = CR_ONE
    for i, j in combinations(range(len(b)), 2):
        val = val * qfall(b[i] - b[j] + k - 1, k - 1)
    return val


def delta2_oracle(lam, k):
    """Delta_2(lam) = prod_{i<j} [lambar_i - lambar_j - 1]_{k-1}."""
    b = shift(tuple(lam), k, "bar")
    val = CR_ONE
    for i, j in combinations(range(len(b)), 2):
        val = val * qfall(b[i] - b[j] - 1, k - 1)
    return val


def delta_cross_oracle(mu, lam, k):
    """Delta(mu, lam) = prod_{i<=j} [lambar_i - mubar_j + k-1]_{k-1}
    * prod_{i<j} [mubar_i - lambar_j - 1]_{k-1}."""
    lb, mb = shift(tuple(lam), k, "bar"), shift(tuple(mu), k, "bar")
    val = CR_ONE
    for j in range(len(mb)):
        for i in range(j + 1):
            val = val * qfall(lb[i] - mb[j] + k - 1, k - 1)
    for i in range(len(mb)):
        for j in range(i + 1, len(lb)):
            val = val * qfall(mb[i] - lb[j] - 1, k - 1)
    return val


def psi_qnum_oracle(lam, mu, k):
    """psi = Delta(mu, lam) / ([k-1]!^{n-1} Delta_1(mu) Delta_2(lam))."""
    den = delta1_oracle(mu, k) * delta2_oracle(lam, k) * qfact(k - 1) ** (len(lam) - 1)
    return delta_cross_oracle(mu, lam, k) / den


def symmetry_ratio_oracle(lam, mu, k):
    """prod_{i<j} [lam_i - lam_j + k(j-i) + k-1]_k / [mu_i - mu_j + k(j-i) + k-1]_k."""
    val = CR_ONE
    for i, j in combinations(range(len(lam)), 2):
        val = val * qfall(lam[i] - lam[j] + k * (j - i) + k - 1, k) \
            / qfall(mu[i] - mu[j] + k * (j - i) + k - 1, k)
    return val


# ---------------------------------------------------------------------------
# Principal specialization, Macdonald VI (6.11').

def principal_value(lam, Q, T):
    """P_lam(1, T, ..., T^{n-1}; Q, T) for a signature lam, in Fractions:
    T^{n(lam)} prod_{s in lam} (1 - Q^{a'(s)} T^{n - l'(s)}) / (1 - Q^{a(s)} T^{l(s) + 1})
    for a partition, and P_{lam + c} = (x_1 ... x_n)^c P_lam."""
    n = len(lam)
    c = lam[-1]
    part = [x - c for x in lam]
    value = Fraction(T) ** (c * n * (n - 1) // 2 + sum(i * x for i, x in enumerate(part)))
    for i, row in enumerate(part):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in part[i + 1:] if r > j)
            value *= (1 - Fraction(Q) ** j * Fraction(T) ** (n - i)) \
                / (1 - Fraction(Q) ** arm * Fraction(T) ** (leg + 1))
    return value


def principal_specialization_holds(f, lam, rng, params):
    """Whether the symmetric polynomial f takes the value of P_lam at
    x = (1, T, ..., T^{n-1}), with every coefficient of f evaluated at a
    seeded prime point (q, t) and (Q, T) = params(q, t)."""
    q, t = prime_point(rng)
    Q, T = params(q, t)
    total = Fraction(0)
    for sig, c in f.terms.items():
        mono = sum(Fraction(T) ** sum(i * e for i, e in enumerate(exps)) for exps in orbit(sig))
        total += eval_fraction(c, q, t) * mono
    return total == principal_value(lam, Q, T)


def perturbed(f):
    """A copy of the SymLaurent f with its first coefficient plus one."""
    terms = dict(f.terms)
    sig = min(terms)
    terms[sig] = terms[sig] + CR_ONE
    return SymLaurent(f.n, terms)


# ---------------------------------------------------------------------------
# The trace as computed before each lattice state was reduced once and the
# EK division ran over one common denominator: every edge product formed
# (over Q(q, t), reduced) on its own, each state summed as a list of
# products, and each binomial divided out of the reduced coefficients, so
# that the carry adds fractions of unequal denominators.

def lattice_sum_oracle(lam, k, link, one, total, dominant=False):
    """combinat.lattice_sum with each edge product value * link formed on
    its own and total adding a list of products."""
    sizes, links = {}, {}

    def size(row):
        if row not in sizes:
            sizes[row] = sum(shift(row, k, "tilde"))
        return sizes[row]

    values = {(lam, ()): one}
    for i in range(len(lam) - 1, 0, -1):
        incoming = {}
        for (row, tail), value in values.items():
            top = size(row)
            for mu in interlacing_signatures(row, k):
                s = size(mu)
                w = top - s
                if dominant and (tail and w < tail[0] or s < i * w):
                    continue
                pair = (mu, row)
                if pair not in links:
                    links[pair] = link(*pair)
                if links[pair]:
                    incoming.setdefault((mu, (w,) + tail), []).append(value * links[pair])
        values = {state: v for state, terms in incoming.items() if (v := total(terms))}
    return {((size(row),) + tail if row else tail): value
            for (row, tail), value in values.items()}


def trace_ratio_oracle(lam, n, k):
    """trace_ratio with the chain sum of lattice_sum_oracle summed by
    rat_sum, and the EK binomials divided out of its reduced coefficients."""
    lam = tuple(lam)
    classes = {}

    def link(mu, nu):
        s = nu[-1]
        rep = (tuple(x - s for x in mu), tuple(x - s for x in nu))
        if rep not in classes:
            classes[rep] = diag_coeff_sum(*rep, k)
        return classes[rep]

    num = NPoly._raw(n, lattice_sum_oracle(lam, k, link, CR_ONE, rat_sum))
    for s in range(1, k):
        for i, j in combinations(range(n), 2):
            num = num.divexact_binomial(i, j, UnitMono.q(2 * s))
    return from_npoly(num.mul_monomial(((k - 1) * (n - 1),) * n))
