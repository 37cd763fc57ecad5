"""Diagonal intertwiner matrix elements, their three routes, and traces.

The matrix element c(mu, lam) at level k is computed three ways: by
applying index-side difference operators to a falling-factorial kernel
(mat_elt), by an explicit box summation (diag_coeff_sum), and in squared
form through reduced Clebsch-Gordan coefficients (c_squared_chain).  All
are rational in q.

The closed formulas are ratios that can develop removable 0/0 at lattice
points where bar-shifted coordinates collide (such points do occur inside
trace summations).  All three routes therefore evaluate along one exact
one-parameter regularization: every q-number argument c is perturbed to
c + z*d with a fixed generic integer direction d per coordinate pair, and
the limit Z = q^z -> 1 is taken by one engine, _limit.  It expands in
eps = Z - 1 only as far as the number M of denominator factors that
vanish at the limit (the atoms [0 + z*d]); the numerator coefficients
below eps^M must cancel (otherwise the point is a pole).  A term whose
numerator keeps more than M vanishing atoms over its sum's common
denominator reaches only eps^{>M} and is dropped unexpanded.  M = 0 is
plain evaluation: a term with a vanishing numerator atom is zero, and
every other atom [c + z*d] is [c] whatever d is, so atoms are merged by c
before anything is multiplied out.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

from .combinat import check_signature, in_window, interlaces, shift, shifted_chain_enumerate
from .macops import branch_sum, chain_sum, macdonald_qk
from .npoly import NPoly
from .qfield import (CR_ONE, CR_ZERO, CoeffRat, DomainViolationError, LaurentQT,
                     UnitMono, _unpack, _width, qfact, qfall)
from .sympoly import from_npoly


def _route_args(mu, lam, k):
    mu, lam = tuple(mu), tuple(lam)
    if len(mu) != len(lam) - 1:
        raise ValueError("mu must be one entry shorter than lam")
    if k < 1:
        raise ValueError("k must be a positive integer")
    return mu, lam


# ---------------------------------------------------------------------------
# The regularization limit.  A factor (c, d) stands for the q-number
# [c + z*d] = B(c, d) / (q - q^{-1}) with B(c, d) = q^c Z^d - q^{-c} Z^{-d}.
# Putting Z = 1 + eps, B(c, d) is a series in eps whose coefficients are
# Laurent polynomials in q with generalized binomial coefficients; it
# starts at eps^0 unless c = 0, where it starts at 2d * eps.  A sum of
# terms is assembled over its common denominator of c = 0 atoms, so the
# denominator of a product of such sums is eps^M times a series with
# nonzero constant term, M counting its c = 0 atoms; M is known from the
# c = 0 atoms alone.  Every series is truncated after eps^M, and the limit
# is the eps^M coefficient of the numerator over that constant term.
#
# Dead terms.  A term whose c = 0 atoms over that common denominator
# number nu > M starts at eps^nu; every other factor of the product is a
# power series, so the term reaches only eps^{>M} and is dropped before
# any series is formed.  At M = 0 that is any term with a c = 0 atom left
# in its numerator.  The common denominator is not recomputed from the
# live terms: that would change M.
#
# The c != 0 atoms are units: B(c, d) -> q^c - q^-c at Z = 1 whatever d
# is, and (q - q^-1) = B(1, 0).  At M = 0 the limit is plain evaluation,
# so atoms are keyed by (c, 0) and [c + z*d] in a numerator cancels
# [c + z*d'] in a denominator before anything is packed.  At any M, the
# least count of a c != 0 atom over the live terms of a sum (negative: a
# common denominator) is taken out of the sum.  Once num[:M] vanishes,
# only the constant term q^-c (q^{2c} - 1) of such a unit reaches the eps^M
# coefficient, so the taken-out atoms are merged by c and multiply the
# limit's numerator or denominator.
#
# Packed representation (Kronecker substitution, as in qfield): a series
# is a q-offset off and a list of M + 1 integers, coefficient i being
# q^-off P_i(q) for an integer polynomial P_i stored as its value P_i(2^s).
# With c >= 0 (atoms are flipped, B(-c, -d) = -B(c, d)),
# B(c, d) = q^-c (q^{2c} Z^d - Z^{-d}), so an atom raises off by c and adds
# binom(d, j) (x << 2cs) - binom(-d, j) x to slot i + j for each j <= M;
# at M = 0 that is one shift and one subtraction.  Terms are aligned to
# the largest offset by shifts and added, and powers of sums are truncated
# big-integer products.  Evaluation at 2^s is a ring map, so every integer
# is exact, and it decodes to the polynomial once every coefficient lies
# in (-2^(s-1), 2^(s-1)).  L1 norms bound them.  An atom has norm at most
# sum_{j<=M} |binom(d, j)| + |binom(-d, j)|, a term the product of its
# atoms' norms, a sum the sum of its live terms' norms, and L1 is
# submultiplicative under truncated products, so every numerator
# coefficient stays below prod (sum of term norms)^power * 2^up, with up
# the taken-out numerator atoms.  The denominator, a product of lead
# atoms 2d and of taken-out atoms q^-c (q^{2c} - 1), stays below the
# product of their norms.  qfield._width of the larger bound gives s; the
# pole check any(num[:M]) is then exact on the integers, and numerator and
# denominator are decoded once each.

def _binom(d, j):
    """The binomial coefficient d choose j for any integer d."""
    if d >= 0:
        return comb(d, j)
    return -comb(j - d - 1, j) if j % 2 else comb(j - d - 1, j)


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


def _trunc_mul(a, b):
    """The product of two packed series, truncated to the length of a."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


def _term_series(sign, qa, atoms, binoms, order, s):
    """(off, packed series) of sign q^qa prod_{(c, d)} B(c, d)^count."""
    ser = [sign] + [0] * order
    off = -qa
    for (c, d), cnt in atoms.items():
        if not cnt:
            continue
        off += c * cnt
        sh = 2 * c * s
        if order == 0:
            x = ser[0]
            for _ in range(cnt):
                x = (x << sh) - x
            ser[0] = x
            continue
        bp, bm, _ = binoms[d]
        for _ in range(cnt):
            out = [0] * (order + 1)
            for i, x in enumerate(ser):
                if x:
                    xs = x << sh
                    for j in range(order + 1 - i):
                        out[i + j] += bp[j] * xs - bm[j] * x
            ser = out
    return off, ser


def _limit(factors):
    """Exact Z -> 1 value of prod_f (sum_i mono_i prod [num_i] / prod [den_i])^p_f.

    factors lists pairs (terms, p_f); each term is (mono, num, den) with
    mono a q-power UnitMono and num/den lists of (c, d) factor descriptors.
    """
    sums = []
    order = 0
    for terms, power in factors:
        norm = [(z, t) for t in terms if (z := _zero_atoms(*t)) is not None]
        if not norm:
            return CR_ZERO
        zden = {}               # d -> the most atoms (0, d) any term has in den
        for (_, zero), _ in norm:
            for d, v in zero.items():
                if v < -zden.get(d, 0):
                    zden[d] = -v
        order += power * sum(zden.values())
        sums.append((norm, zden, power))
    keep_d = 1 if order else 0
    binoms = {}     # d -> binom(d, j), binom(-d, j) for j <= order, their L1 norm

    # Each live term's atoms over its sum's common c = 0 denominator, with
    # (q - q^-1) = B(1, 0) for its excess of den atoms over num atoms; the
    # taken-out c != 0 atoms (see above) and the bounds of the width.
    outer = {}                  # c -> power of q^c - q^-c taken out of the sums
    nbound = lead = 1           # lead: the product of the c = 0 lead atoms 2d
    expanded = []
    for norm, zden, power in sums:
        base = sum(zden.values())
        live = []
        for (sign, zero), (mono, num, den) in norm:
            if base + sum(zero.values()) > order:
                continue
            atoms = {(0, d): zden.get(d, 0) + zero.get(d, 0) for d in zden.keys() | zero}
            atoms[1, 0] = len(den) - len(num)
            sign = _unit_atoms(num, den, sign, atoms, keep_d)
            live.append((sign, mono.a, atoms))
        if not live:
            return CR_ZERO
        shared = {key: v for key, v in live[0][2].items() if key[0]}
        for *_, atoms in live[1:]:
            for key, v in shared.items():
                shared[key] = min(v, atoms.get(key, 0))
            for key, v in atoms.items():
                if v < 0 and key[0] and key not in shared:
                    shared[key] = v
        items = []
        total = 0
        for sign, qa, atoms in live:
            for key, v in shared.items():
                atoms[key] = atoms.get(key, 0) - v
            size = 1
            for (_, d), v in atoms.items():
                if v:
                    if d not in binoms:
                        bp = [_binom(d, j) for j in range(order + 1)]
                        bm = [_binom(-d, j) for j in range(order + 1)]
                        binoms[d] = bp, bm, sum(map(abs, bp + bm))
                    size *= binoms[d][2] ** v
            total += size
            items.append((sign, qa, atoms))
        nbound *= total ** power
        for (c, _), v in shared.items():
            if v:
                outer[c] = outer.get(c, 0) + v * power
        for d, v in zden.items():
            lead *= (2 * d) ** (v * power)
        expanded.append((items, power))
    up = sum(e for e in outer.values() if e > 0)
    w = _width(max(nbound << up, lead << up - sum(outer.values())))
    s = 8 * w

    num = [1] + [0] * order
    noff = 0
    den = lead
    doff = 0
    for items, power in expanded:
        series = [_term_series(*item, binoms, order, s) for item in items]
        top = max(off for off, _ in series)
        total = [0] * (order + 1)
        for off, ser in series:
            for i, x in enumerate(ser):
                total[i] += x << (top - off) * s
        for _ in range(power):
            num = _trunc_mul(num, total)
        noff += top * power
    if any(num[:order]):
        raise DomainViolationError("pole at the regularization limit")
    top = num[order]
    for c, e in outer.items():
        if e > 0:
            top *= ((1 << 2 * c * s) - 1) ** e
            noff += c * e
        elif e:
            den *= ((1 << 2 * c * s) - 1) ** -e
            doff -= c * e
    return CoeffRat(_q_laurent(_unpack(top, -noff, w)),
                    _q_laurent(_unpack(den, -doff, w)))


def _q_laurent(u):
    """The LaurentQT of a {q_exp: coeff} map."""
    return LaurentQT._raw({(a, 0): c for a, c in u.items()})


def delta1(mu, k):
    """prod_{i<j} [mubar_i - mubar_j + (k-1)]_{k-1}."""
    b = shift(mu, k, "bar")
    r = CR_ONE
    for i in range(len(mu)):
        for j in range(i + 1, len(mu)):
            r = r * qfall(b[i] - b[j] + k - 1, k - 1)
    return r


def delta2(mu, k):
    """prod_{i<j} [mubar_i - mubar_j - 1]_{k-1}."""
    b = shift(mu, k, "bar")
    r = CR_ONE
    for i in range(len(mu)):
        for j in range(i + 1, len(mu)):
            r = r * qfall(b[i] - b[j] - 1, k - 1)
    return r


def delta_cross(mu, lam, k):
    """prod_{i<=j} [lambar_i - mubar_j + k-1]_{k-1}
       * prod_{i<j} [mubar_i - lambar_j - 1]_{k-1}."""
    lb = shift(lam, k, "bar")
    mb = shift(mu, k, "bar")
    m = len(mu)
    r = CR_ONE
    for j in range(m):
        for i in range(j + 1):
            r = r * qfall(lb[i] - mb[j] + k - 1, k - 1)
    for i in range(m):
        for j in range(i + 1, len(lam)):
            r = r * qfall(mb[i] - lb[j] - 1, k - 1)
    return r


def psi_qnum(lam, mu, k):
    """Branching coefficient at t = q^k:

        psi = Delta(mu, lam) / ([k-1]!^{n-1} Delta_1(mu) Delta_2(lam)),

    the normalization that reproduces the generic branching coefficient
    under q -> q^2, t -> q^{2k} (the extra [k-1]! power per row is forced
    by that comparison)."""
    lam, mu = tuple(lam), tuple(mu)
    if not interlaces(mu, lam):
        raise ValueError("mu must interlace lam")
    n = len(lam)
    den = qfact(k - 1) ** (n - 1) * delta1(mu, k) * delta2(lam, k)
    return delta_cross(mu, lam, k) / den


# ---------------------------------------------------------------------------
# The explicit box summation for c(mu, lam).

def _diag_factor_lists(mu, lam, k, v):
    """Regularized factor lists (c, d) for one summand of the box sum.

    Directions: coordinate i of mu carries d = i, coordinate j of lam
    carries d = n + j, so every pair difference has a nonzero direction.
    """
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


def diag_coeff_sum(mu, lam, k):
    """c(mu, lam) as the explicit finite sum over the shifted box.

    The sum runs over nu' in [mu' - (k-1), mu'] componentwise with
    mu' = mu + (k-1); signs, q-powers, factorial and falling-factorial
    factors per summand, against the global prefactor
    (-1)^{(n-1)(k-1)} q^{(n-1)k(k-1)} / (Delta_2(lam) Delta_1(mu)).
    """
    mu, lam = _route_args(mu, lam, k)
    m = len(mu)
    pref = UnitMono(-1 if (m * (k - 1)) % 2 else 1, m * k * (k - 1), 0)
    terms = []
    for v in product(range(k), repeat=m):
        num, den = _diag_factor_lists(mu, lam, k, v)
        sv = sum(v)
        terms.append((UnitMono(-1 if sv % 2 else 1, -k * sv, 0) * pref, num, den))
    return _limit([(terms, 1)])


# ---------------------------------------------------------------------------
# The operator route for c(mu, lam).

def _kernel_atoms(lam, k, nu):
    """Factor descriptors of the falling-factorial kernel at the point nu."""
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
    """Factor descriptors of Delta_2(lam) = prod_{i<j} [lambar_i - lambar_j - 1]_{k-1}."""
    lb = shift(lam, k, "bar")
    return [(lb[i] - lb[j] - 1 - s, i - j)
            for i, j in combinations(range(len(lam)), 2) for s in range(k - 1)]


def mat_elt(mu, lam, k):
    """c(mu, lam) by applying prod_{a=1}^{k-1} D(q^{2a}; q^{-2}, q^{2(k-1)})
    to the kernel, evaluating at mu, and dividing by

        prod_{i<=j} [mubar'_i - mubar'_j + k-1]_{k-1}
        * prod_{i<j} [lambar_i - lambar_j - 1]_{k-1}.

    The composition is expanded into shift paths; each path contributes one
    product of factor atoms, so the whole value goes through the exact
    regularization limit in one pass.
    """
    mu, lam = _route_args(mu, lam, k)
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
            terms.append((UnitMono(sign, qexp, 0),
                          num + _kernel_atoms(lam, k, point),
                          den + den_global))
            return
        bar = [point[i] - k * i for i in range(m)]
        for r in range(m + 1):
            s2 = sign if (m - r) % 2 == 0 else -sign
            base_q = qexp + 2 * a * (m - r) + (k - 1) * r * (r - m)
            for I in combinations(range(m), r):
                iset = set(I)
                addn = []
                addd = []
                pairs = 0
                for i in I:
                    for j in range(m):
                        if j in iset:
                            continue
                        pairs += 1
                        addn.append((bar[i] - bar[j] + k - 1, i - j))
                        addd.append((bar[i] - bar[j], i - j))
                shifted = tuple(x - 1 if i in iset else x
                                for i, x in enumerate(point))
                expand(a - 1, shifted, base_q + (k - 1) * pairs, s2,
                       num + addn, den + addd)

    expand(k - 1, mu, 0, 1, [], [])
    return _limit([(terms, 1)])


# ---------------------------------------------------------------------------
# Reduced Clebsch-Gordan route, carried in squared form.

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


def _cg_qpower(tau, p, tau_p, eta, r, eta_p):
    """The exponent b of the q^{-b} prefactor of cg_reduced_squared."""
    n = len(tau)
    m = len(eta)
    b = 0
    for i in range(n):
        for j in range(i + 1, n):
            b += (tau_p[i] - tau[i]) * (tau_p[j] - tau[j])
    for i in range(m):
        for j in range(i + 1, m):
            b -= (eta_p[i] - eta[i]) * (eta_p[j] - eta[j])
    for i in range(m):
        b += (eta_p[i] - eta[i]) * (eta[i] - i)
    for i in range(n):
        b -= (tau_p[i] - tau[i]) * (tau[i] - i)
    b += (p - r) * (sum(tau) - sum(eta))
    return b


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
    lam = tuple(lam)
    lb = shift(lam, k, "bar")
    val = UnitMono.q(-n * (n - 1) * k * (k - 1) // 2).as_coeffrat()
    for i in range(n):
        for j in range(i + 1, n):
            val = val * qfall(lb[i] - lb[j] - 1, k - 1) \
                / qfall(lb[i] - lb[j] + k - 1, k - 1)
    return val


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


def c_squared_chain(mu, lam, k):
    """c(mu, lam)^2 assembled from the reduced Clebsch-Gordan square and
    the two diagonal normalizations; zero outside the window
    lam_{i+1} - (k-1) <= mu_i <= lam_i.

    The three pieces can carry compensating factorial zeros and poles at
    boundary patterns, so they are combined into one atom product times
    the square of the sigma-sum before the regularization limit.
    """
    mu, lam = _route_args(mu, lam, k)
    if not in_window(mu, lam, k):
        return CR_ZERO
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
    # Only the eta-side window clips survive regularization exactly (their
    # cropping factorials share the perturbation direction of sigma); the
    # tau-side clips become soft zeros that the limit accounts for itself.
    # The sigma-summand factorials and the prefactor factorials each
    # telescope on their own (direction counts balance by construction), so
    # the sum is assembled once and squared as a truncated series.
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
        sig_terms.append((UnitMono(-1 if dsum % 2 else 1,
                                   (p - r + 1) * dsum, 0), na, da))
    fa_num, fa_den = _telescope(fnum, fden)
    final = (UnitMono(1, qconst, 0), fa_num + diag_num, fa_den + diag_den)
    return _limit([([final], 1), (sig_terms, 2)])


# ---------------------------------------------------------------------------
# Branching and trace reconstruction.

def branch_reconstruct_qk(lam, n, k):
    """Assemble sum over interlacing mu of x_n^{|lam|-|mu|} P_mu psi at
    t = q^k; equals P_lam(x; q^2, q^{2k}) exactly."""
    lam = check_signature(lam, n)
    return branch_sum(lam, lambda mu: psi_qnum(lam, mu, k),
                      lambda mu: macdonald_qk(mu, n - 1, k))


def ek_denominator(n, k):
    """(x_1...x_n)^{-(k-1)(n-1)} prod_{s=1}^{k-1} prod_{i<j} (x_i - q^{2s} x_j).

    Not symmetric for k > 1; returned as a plain Laurent polynomial."""
    out = NPoly.binomial_product(n, ((i, j, UnitMono.q(2 * s)) for s in range(1, k)
                                     for i, j in combinations(range(n), 2)))
    return out.mul_monomial((-(k - 1) * (n - 1),) * n)


def trace_reconstruct(lam, n, k):
    """Sum over shifted chains of the c-products times the chain weight.

    The weight exponent of x_i is |tilde mu^i| - |tilde mu^{i-1}|; the
    result is a plain Laurent polynomial whose ratio against
    ek_denominator is symmetric.

    Every atom of _diag_factor_lists is a difference of coordinates, so
    c(mu + s, nu + s) = c(mu, nu): the links fall into translation
    classes, and diag_coeff_sum runs once per class, at its representative
    (mu - nu_n, nu - nu_n)."""
    lam = check_signature(lam, n)
    classes = {}

    def link(mu, nu):
        s = nu[-1]
        rep = (tuple(x - s for x in mu), tuple(x - s for x in nu))
        if rep not in classes:
            classes[rep] = diag_coeff_sum(*rep, k)
        return classes[rep]

    return NPoly._raw(n, chain_sum(shifted_chain_enumerate(lam, k), k, link))


def trace_ratio(lam, n, k):
    """trace_reconstruct(lam) / ek_denominator as an exact SymLaurent."""
    num = trace_reconstruct(lam, n, k)
    for s in range(1, k):
        for i in range(n):
            for j in range(i + 1, n):
                num = num.divexact_binomial(i, j, UnitMono.q(2 * s))
    num = num.mul_monomial(((k - 1) * (n - 1),) * n)
    return from_npoly(num)
