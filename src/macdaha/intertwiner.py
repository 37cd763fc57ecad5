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
below eps^M must cancel (otherwise the point is a pole).  Over the whole
product prod_f (sum of terms)^{p_f}, a term is dropped unexpanded when
its own vanishing numerator atoms over its sum's common denominator, plus
the least such counts of the other p_f - 1 copies of its sum and of every
other sum, exceed M: every product it enters reaches only eps^{>M}.  A sum
left with no term makes the value 0 before any series is formed, as at the
zeros of the squared Clebsch-Gordan route (see c_squared_chain).  M = 0 is
plain evaluation, and a branch of the same engine: a term with a
vanishing numerator atom is zero, every other atom [c + z*d] is [c]
whatever d is, so atoms are merged by c before anything is multiplied
out, and each live term is packed as one integer, with no fixed point over
the minima, no binomial table and no series.  It is the common case: in a
seed-1 round of the `routes` benchmark workload 379 of the 405 _limit
calls have M = 0 (345 of them nonzero), in `lattice` 394 of 401 (373), and
every M > 0 call of either is 0 by the dead-term rule.

Every route builds its terms in the engine's keyed form (see _limit).  Its
atoms come in runs [x + z*d], [x - 1 + z*d], ..., [x - L + 1 + z*d] along
one direction d, and a run holds the atom [0 + z*d] exactly when
0 <= x < L: the c = 0 counts, the common denominator and M come from run
endpoints, and only the terms that reach eps^M get their other atoms
counted.  With F(x) the atoms 1..x for x >= 0 and minus the atoms x+1..0
for x < 0, [a]!/[b]! = F(a) - F(b) for all integers a and b (ratios of
q-Gamma values telescope), so the Clebsch-Gordan factorials need no
pairing, and moving an argument by one adds or removes one atom.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

from .combinat import check_signature, in_window, interlaces, shift
from .macops import branch_sum, chain_sum, macdonald_qk
from .npoly import NPoly
from .qfield import (CR_ZERO, CoeffRat, DomainViolationError, LaurentQT,
                     UnitMono, _unpack, _width, common_den, qfall_ratio)
from .sympoly import SymLaurent, from_npoly


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
# Dead terms.  A term t of factor f whose c = 0 atoms over that common
# denominator number v_t starts at eps^{v_t}, and the sum of f starts at
# eps^{m_f} or later, m_f the least v_t over its live terms.  Every product
# that takes t from one of the p_f copies of that sum starts at
# eps^{v_t + (p_f - 1) m_f + sum_{g != f} p_g m_g} or later, so t is dropped
# before any series is formed when that exponent exceeds M: neither the
# pole check nor any coefficient up to eps^M sees it.  Dropping a term can
# only raise the minima, so the rule is applied until nothing changes, and
# a factor with no live term left makes the product 0.  With one factor to
# the first power (every diag_coeff_sum and mat_elt call) the rule is
# v_t > M, decided in one pass.  At M = 0 no sum has a c = 0 atom in its
# denominator, so every v_t is at least 0 and the minima cannot move: a
# term is live exactly when it has no c = 0 atom, in one pass for any
# product.  diag_coeff_sum and mat_elt build no term with v_t > M past its
# c = 0 counts, and every route hands each sum's common denominator with
# its terms: recomputing it from the live terms would change M.
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
# at M = 0 that is one shift and one subtraction, and a term is one
# integer whose atoms may come in any order.  Terms are aligned to the
# largest offset by shifts and added, and powers of sums are truncated
# big-integer products.  Evaluation at 2^s is a ring map, so every integer
# is exact, and it decodes to the polynomial once every coefficient lies
# in (-2^(s-1), 2^(s-1)).  L1 norms bound them.  An atom has norm at most
# sum_{j<=M} |binom(d, j)| + |binom(-d, j)| (2 at M = 0), a term the
# product of its atoms' norms, a sum the sum of its live terms' norms, and
# L1 is submultiplicative under truncated products, so every numerator
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


def _trunc_mul(a, b):
    """The product of two packed series, truncated to the length of a."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


def _term_series(sign, qa, atoms, binoms, order, s):
    """(off, packed) of sign q^qa prod_{(c, d)} B(c, d)^count: packed is one
    integer at order 0, else a series of order + 1 integers."""
    off = -qa
    if not order:
        x = sign
        for (c, _), cnt in atoms.items():
            if cnt:
                off += c * cnt
                sh = 2 * c * s
                for _ in range(cnt):
                    x = (x << sh) - x
        return off, x
    ser = [sign] + [0] * order
    for (c, d), cnt in sorted(atoms.items()):
        if not cnt:
            continue
        off += c * cnt
        sh = 2 * c * s
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
    """Exact Z -> 1 value of prod_f (sum of the terms of f)^p_f.

    factors lists triples (terms, zden, p_f).  A term (sign, qa, zero, units,
    excess) stands for sign q^qa prod_d B(0, d)^zero[d]
    prod_{(c, d)} B(c, d)^units[c, d] B(1, 0)^excess, with d > 0 in zero and
    c > 0 in units; units are keyed (c, 0) when no zden has an entry (M = 0).
    zden maps d to the most atoms (0, d) any term of the sum, dead ones
    included, has in its denominator.

    M = 0 (no zden entry) runs this body as plain evaluation: liveness in
    one pass, no c = 0 atoms merged, no binomial table, and one packed
    integer per live term.  It is most calls: 379 of 405 in a seed-1 round
    of the `routes` benchmark workload and 394 of 401 in `lattice`.
    """
    order = sum(power * sum(zden.values()) for _, zden, power in factors)
    binoms = {}     # d -> binom(d, j), binom(-d, j) for j <= order, their L1 norm

    # The dead-term rule over the whole product (see above): a term of
    # factor f is dead when v + extra_f > order, extra_f = sum_g p_g m_g - m_f
    # over the minima of the live terms, raised until it stops moving.
    vals = []
    for terms, zden, _ in factors:
        base = sum(zden.values())
        vals.append([base + sum(zero.values()) for _, _, zero, _, _ in terms])
    extras = [0] * len(factors)
    # At M = 0 every v is at least 0 and a term is live when v = 0: no
    # minimum can move, so a factor with no such term makes the value 0.
    if not order and not all(0 in vf for vf in vals):
        return CR_ZERO
    while order:
        mins = []
        low = 0
        for vf, extra, (*_, power) in zip(vals, extras, factors):
            live = [v for v in vf if v + extra <= order]
            if not live:
                return CR_ZERO
            mins.append(min(live))
            low += mins[-1] * power
        new = [low - m for m in mins]
        if new == extras:
            break
        extras = new

    # Each live term's atoms over its sum's common c = 0 denominator; the
    # taken-out c != 0 atoms (see above) and the bounds of the width.
    outer = {}                  # c -> power of q^c - q^-c taken out of the sums
    nbound = lead = 1           # lead: the product of the c = 0 lead atoms 2d
    expanded = []
    for (terms, zden, power), vf, extra in zip(factors, vals, extras):
        live = []
        for v, (sign, qa, zero, units, excess) in zip(vf, terms):
            if v + extra > order:
                continue
            atoms = dict(units)
            if order:
                for d in zden.keys() | zero:
                    atoms[0, d] = zden.get(d, 0) + zero.get(d, 0)
            atoms[1, 0] = atoms.get((1, 0), 0) + excess
            live.append((sign, qa, atoms))
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
            if not order:       # every atom q^c - q^-c has norm 2
                size = 1 << sum(atoms.values())
            else:
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
        noff += top * power
        if not order:
            num[0] *= sum(x << (top - off) * s for off, x in series) ** power
            continue
        total = [0] * (order + 1)
        for off, ser in series:
            for i, x in enumerate(ser):
                total[i] += x << (top - off) * s
        for _ in range(power):
            num = _trunc_mul(num, total)
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


# ---------------------------------------------------------------------------
# Route terms in keyed form.  A run (x, L, d, s) stands for the atoms
# [x - i + z*d], i < L, s times in the numerator (s > 0) or -s times in the
# denominator (s < 0).

def _runs_zero(runs, zero):
    """Add to zero, keyed |d|, the net count of the atoms [0 + z*d] of runs
    (a run holds one when 0 <= x < L); return zero."""
    for x, L, d, s in runs:
        if 0 <= x < L:
            d = abs(d)
            zero[d] = zero.get(d, 0) + s
    return zero


def _runs_units(runs, units, keep):
    """Add to units the net count of the atoms c != 0 of runs, flipped to
    c > 0 and keyed (c, d * keep); return the net number of flipped atoms,
    atoms [0 + z*d] with d < 0 included, and the excess of denominator over
    numerator atoms.  A run may stand s times for its atoms."""
    flips = excess = 0
    for x, L, d, s in runs:
        excess -= s * L
        b = x - L + 1
        dk = d * keep
        for c in range(max(b, 1), x + 1):
            units[c, dk] = units.get((c, dk), 0) + s
        if b <= 0:
            flips += s * ((x >= 0 and d < 0) + max(0, min(x + 1, 0) - b))
            for c in range(max(-x, 1), 1 - b):
                units[c, -dk] = units.get((c, -dk), 0) + s
    return flips, excess


def _common_den(zeros):
    """d -> the most atoms [0 + z*d] any of the zero maps has in its
    denominator."""
    zden = {}
    for zero in zeros:
        for d, v in zero.items():
            if v < -zden.get(d, 0):
                zden[d] = -v
    return zden


def _one_sum(shared, cands):
    """_limit's factors for one sum to the first power: cands lists (sign,
    qa, zero, runs) per term, zero counting the atoms [0 + z*d] of runs and
    of the runs shared by every term.  M is the size of the common
    denominator, so a term is live when its zero counts add up to at most 0;
    only live terms get their other atoms counted."""
    zden = _common_den(zero for _, _, zero, _ in cands)
    keep = 1 if zden else 0
    units0 = {}
    flips0, excess0 = _runs_units(shared, units0, keep)
    terms = []
    for sign, qa, zero, runs in cands:
        if sum(zero.values()) <= 0:
            units = dict(units0)
            flips, excess = _runs_units(runs, units, keep)
            terms.append((-sign if (flips0 + flips) % 2 else sign, qa, zero, units,
                          excess0 + excess))
    return [(terms, zden, 1)]


def _kernel_runs(lb, nbp, k):
    """Numerator runs of the falling-factorial kernel at the point nu, with
    nbp_j = nu_j + (k - 1) - k*j.  Coordinate i of nu carries the direction
    i, coordinate j of lam the direction n + j."""
    n = len(lb)
    return ([(lb[i] - nbp[j] + k - 1, k - 1, n + i - j, 1)
             for j in range(n - 1) for i in range(j + 1)]
            + [(nbp[i] - lb[j] - 1, k - 1, i - n - j, 1)
               for i in range(n - 1) for j in range(i + 1, n)])


def _delta2_runs(lb, k):
    """Denominator runs of Delta_2(lam) = prod_{i<j} [lambar_i - lambar_j - 1]_{k-1}."""
    return [(lb[i] - lb[j] - 1, k - 1, i - j, -1) for i, j in combinations(range(len(lb)), 2)]


def _den_runs(lb, mb, k):
    """Denominator runs of Delta_2(lam) Delta_1(mu) [k-1]!^{n-1}: Delta_1(mu)
    = prod_{i<j} [mubar_i - mubar_j + k-1]_{k-1} over the differences of mb
    (mubar up to a constant), and one [k-1]! per i = j."""
    m = len(mb)
    return _delta2_runs(lb, k) + [(mb[i] - mb[j] + k - 1, k - 1, i - j, -1)
                                  for i in range(m) for j in range(i, m)]


def psi_qnum(lam, mu, k):
    """Branching coefficient at t = q^k:

        psi = Delta(mu, lam) / ([k-1]!^{n-1} Delta_1(mu) Delta_2(lam)),

    the normalization that reproduces the generic branching coefficient
    under q -> q^2, t -> q^{2k} (the extra [k-1]! power per row is forced
    by that comparison).  Delta(mu, lam) is the kernel's runs at
    nbp = mubar, the denominator is mat_elt's, and qfall_ratio cancels
    their q-numbers formally, with no gcd."""
    mu, lam = _route_args(mu, lam, k)
    if not interlaces(mu, lam):
        raise ValueError("mu must interlace lam")
    lb, mb = shift(lam, k, "bar"), shift(mu, k, "bar")
    runs = _kernel_runs(lb, mb, k) + _den_runs(lb, mb, k)
    return qfall_ratio([(x, L, s) for x, L, _, s in runs])


# ---------------------------------------------------------------------------
# The explicit box summation for c(mu, lam).

def diag_coeff_sum(mu, lam, k):
    """c(mu, lam) as the explicit finite sum over the shifted box.

    The sum runs over nu' in [mu' - (k-1), mu'] componentwise with
    mu' = mu + (k-1); signs, q-powers, factorial and falling-factorial
    factors per summand, against the global prefactor
    (-1)^{(n-1)(k-1)} q^{(n-1)k(k-1)} / (Delta_2(lam) Delta_1(mu)).
    The summand at nu' = mu' - v has nbp = mbp - v.
    """
    mu, lam = _route_args(mu, lam, k)
    m = len(mu)
    lb = shift(lam, k, "bar")
    mbp = [mu[i] + (k - 1) - k * i for i in range(m)]
    pairs = list(combinations(range(m), 2))
    # Per pair, [A + k - 1]_{2k-1} / [A + k - 1]_{k-1} = [A]_k, A = mbp_i - mbp_j.
    shared = _delta2_runs(lb, k) + [(mbp[i] - mbp[j], k, i - j, 1) for i, j in pairs]
    zero0 = _runs_zero(shared, {})
    cands = []
    for v in product(range(k), repeat=m):
        nbp = [x - y for x, y in zip(mbp, v)]
        runs = _kernel_runs(lb, nbp, k)
        for x in v:
            runs += ((k - 1 - x, k - 1 - x, 0, -1), (x, x, 0, -1))
        for i, j in pairs:
            runs += ((nbp[i] - nbp[j], 1, i - j, 1), (nbp[i] - mbp[j] + k - 1, k, i - j, -1),
                     (mbp[i] - nbp[j], k, i - j, -1))
        sv = sum(v)
        cands.append((-1 if (sv + m * (k - 1)) % 2 else 1, m * k * (k - 1) - k * sv,
                      _runs_zero(runs, dict(zero0)), runs))
    return _limit(_one_sum(shared, cands))


# ---------------------------------------------------------------------------
# The operator route for c(mu, lam).

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
    lb = shift(lam, k, "bar")
    mbp = [mu[i] + (k - 1) - k * i for i in range(m)]
    shared = _den_runs(lb, mbp, k)
    zero0 = _runs_zero(shared, {})
    cands = []

    def expand(a, point, qexp, sign, path):
        if a == 0:
            runs = path + _kernel_runs(lb, [point[j] + k - 1 - k * j for j in range(m)], k)
            cands.append((sign, qexp, _runs_zero(runs, dict(zero0)), runs))
            return
        bar = [point[i] - k * i for i in range(m)]
        for I, rest, odd in subsets:
            step = [(bar[i] - bar[j] + c, 1, i - j, s) for i in I for j in rest
                    for c, s in ((k - 1, 1), (0, -1))]
            shifted = tuple(x - 1 if i in I else x for i, x in enumerate(point))
            # (k-1) r (r-m) and (k-1) per pair (i, j) cancel in the q-power
            expand(a - 1, shifted, qexp + 2 * a * len(rest), -sign if odd else sign, path + step)

    subsets = [(I, [j for j in range(m) if j not in I], (m - r) % 2)
               for r in range(m + 1) for I in combinations(range(m), r)]
    expand(k - 1, mu, 0, 1, [])
    return _limit(_one_sum(shared, cands))


# ---------------------------------------------------------------------------
# Reduced Clebsch-Gordan route, carried in squared form.

def _cg_qpower(tau, p, tau_p, eta, r, eta_p):
    """The exponent b of the q^{-b} prefactor of the squared reduced
    Clebsch-Gordan coefficient."""
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


def _s_sq_descs(a, da, b, db, s, out, sa=False, sb=False):
    """Append the factorials (argument, direction, s', moves) of
    S(a, b)^{2s} = prod_{i<=j} [a_i - b_j + j - i]!^s / prod_{i<j} [b_i - a_j + j - i - 1]!^s,
    s' = s or -s.  When a (sa) or b (sb) is the sigma row, moves lists
    (p, e): the argument moves by e with sigma_p.  S(sigma, sigma) has
    [0]! = 1 on its diagonal, which is left out."""
    out += [(a[i] - b[j] + j - i, da[i] - db[j], s, ((i, 1),) * sa + ((j, -1),) * sb)
            for i in range(len(a)) for j in range(i + (sa and sb), len(b))]
    out += [(b[i] - a[j] + j - i - 1, db[i] - da[j], -s, ((i, 1),) * sb + ((j, -1),) * sa)
            for i in range(len(b)) for j in range(i + 1, len(a))]


def _fact_runs(facts):
    """The runs of the factorials (x, d, s, _), [x]!^s = F(x)^s, netted.

    Per direction, sum_s F(x) counts an atom c >= 1 once per s of the
    arguments x >= c and an atom c <= 0 minus once per s of the arguments
    x < c, so the count is constant between consecutive distinct arguments
    and is read off from the top down.  [a]!/[b]! = F(a) - F(b) pairs any
    two factorials of one direction; one left unpaired (in a direction with
    more of its side) has x >= 0 for an admissible pattern."""
    groups = {}
    negs = []
    for x, d, s, _ in facts:
        w = groups.setdefault(d, {})
        w[x] = w.get(x, 0) + s
        if x < 0:
            negs.append((d, s))
    nets = {d: sum(w.values()) for d, w in groups.items()}
    if any(s * nets[d] > 0 for d, s in negs):
        raise ValueError("inadmissible pattern: negative factorial argument")
    runs = []
    for d, w in groups.items():
        net = nets[d]
        xs = sorted(w, reverse=True)
        acc = 0
        for top, low in zip(xs, xs[1:] + [min(xs[-1], 0)]):
            acc += w[top]                   # the count of the atoms low < c <= top
            if acc and top > 0:
                runs.append((top, top - max(low, 0), d, acc))
            if acc != net and low < 0:      # minus the count of the x < c, for c <= 0
                runs.append((min(top, 0), min(top, 0) - low, d, acc - net))
    return runs


def _snake(m, k):
    """Steps (p, e) of a walk from the origin through every point of
    {0, ..., k-1}^m, moving one coordinate p by e = +-1 at a time."""
    if not m:
        return []
    inner = [(p + 1, e) for p, e in _snake(m - 1, k)]
    back = [(p, -e) for p, e in reversed(inner)]
    steps = []
    for i in range(k):
        steps += (back if i % 2 else inner) + [(0, 1)]
    return steps[:-1]


def _sigma_walk(descs, runs, m, k, keep):
    """(sum sigma - sum eta, flips, excess, zero, units) of the sigma-summand
    at each point of the box {eta + v: 0 <= v_p < k}, walked from its
    factorials descs and their runs at sigma = eta; a factorial whose
    argument x moves gains [x + 1] (F(x + 1) - F(x)) or loses [x]."""
    zero, units = _runs_zero(runs, {}), {}
    flips, excess = _runs_units(runs, units, keep)
    movers = [[] for _ in range(m)]
    for idx, (_, d, s, moves) in enumerate(descs):
        for q, f in moves:
            movers[q].append((idx, f, d, d * keep, s))
    xs = [x for x, *_ in descs]
    dsum = 0
    walk = [(0, flips, excess, dict(zero), dict(units))]
    for q, e in _snake(m, k):
        for idx, f, d, dk, s in movers[q]:
            x = xs[idx]
            xs[idx] = x + f * e
            c, t = (x + 1, s) if f == e else (x, -s)
            excess -= t
            if c > 0:
                units[c, dk] = units.get((c, dk), 0) + t
            elif c:
                units[-c, -dk] = units.get((-c, -dk), 0) + t
                flips += 1
            else:
                zero[abs(d)] = zero.get(abs(d), 0) + t
                flips += d < 0
        dsum += e
        walk.append((dsum, flips, excess, dict(zero), dict(units)))
    return walk


def c_squared_chain(mu, lam, k):
    """c(mu, lam)^2 assembled from the reduced Clebsch-Gordan square and
    the two diagonal normalizations; zero outside the window
    lam_{i+1} - (k-1) <= mu_i <= lam_i.

    The three pieces can carry compensating factorial zeros and poles at
    boundary patterns, so they are combined into one atom product times
    the square of the sigma-sum before the regularization limit.  At every
    zero of c(mu, lam) checked so far the zeros win: the atom product's
    c = 0 numerator count plus twice the least count of the sigma-summands
    exceeds M, so _limit's dead-term rule returns 0 before any series is
    formed.  A test checks this on the k = 4 window of (1, 0, 0, 0) (50 of
    its 80 points are zeros) and on the n = 3, k = 3 windows of the
    `routes` benchmark.
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
    facts = [(p - r, 0, 1, ())]
    _s_sq_descs(eta_p, deta, eta, deta, 1, facts)
    _s_sq_descs(tau, dtau, eta, deta, 1, facts)
    _s_sq_descs(tau_p, dtau, tau_p, dtau, 1, facts)
    _s_sq_descs(eta, deta, eta, deta, 1, facts)
    _s_sq_descs(tau_p, dtau, tau, dtau, -1, facts)
    _s_sq_descs(tau_p, dtau, eta_p, deta, -1, facts)
    mb = shift(mu, k, "bar")
    lb = shift(lam, k, "bar")
    final = _fact_runs(facts) + _delta2_runs(lb, k)
    for i, j in combinations(range(m), 2):
        final += ((mb[i] - mb[j] - 1, k - 1, i - j, 1), (mb[i] - mb[j] + k - 1, k - 1, i - j, -1))
    final += [(lb[i] - lb[j] + k - 1, k - 1, i - j, 1) for i, j in combinations(range(n), 2)]
    qconst = (-_cg_qpower(tau, p, tau_p, eta, r, eta_p) - m * (m - 1) * k * (k - 1) // 2
              + n * (n - 1) * k * (k - 1) // 2)
    # Only the eta-side window clips survive regularization exactly (their
    # cropping factorials share the perturbation direction of sigma); the
    # tau-side clips become soft zeros that the limit accounts for itself.
    # The sigma-summand factorials and the prefactor factorials each
    # telescope on their own (direction counts balance by construction, so
    # no sigma factorial is unpaired but the [sigma_i - eta_i]! and
    # [eta'_i - sigma_i]!, whose arguments stay in [0, k - 1]), so the sum
    # is assembled once and squared as a truncated series.  The walk over
    # the sigma box from sigma = eta moves one coordinate at a time, and
    # each factorial whose argument moves gains or loses one atom.  It keys
    # the atoms (c, 0) unless M > 0, which shows only once the walk is done:
    # then it walks again keyed (c, d).
    descs = []
    _s_sq_descs(eta, deta, eta, deta, 1, descs, True, True)
    _s_sq_descs(tau_p, dtau, eta, deta, 1, descs, sb=True)
    _s_sq_descs(eta, deta, eta, deta, -1, descs, sa=True)
    _s_sq_descs(eta_p, deta, eta, deta, -1, descs, sb=True)
    _s_sq_descs(tau, dtau, eta, deta, -1, descs, sb=True)
    corner = _fact_runs(descs)
    zfin = _runs_zero(final, {})
    zden = _common_den([zfin])
    keep = 1 if zden else 0
    walk = _sigma_walk(descs, corner, m, k, keep)
    sden = _common_den(zero for *_, zero, _ in walk)
    if sden and not keep:
        keep = 1
        walk = _sigma_walk(descs, corner, m, k, keep)
    ufin = {}
    flips, excess = _runs_units(final, ufin, keep)
    final_term = (-1 if flips % 2 else 1, qconst, zfin, ufin, excess)
    sig_terms = [(-1 if (dsum + flips) % 2 else 1, (p - r + 1) * dsum, zero, units, excess)
                 for dsum, flips, excess, zero, units in walk]
    return _limit([([final_term], zden, 1), (sig_terms, sden, 2)])


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

    Every run of diag_coeff_sum starts at a difference of coordinates, so
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

    return NPoly._raw(n, chain_sum(lam, k, link))


def trace_ratio(lam, n, k):
    """trace_reconstruct(lam) / ek_denominator as an exact SymLaurent.

    The chain sum's coefficients are brought over one common denominator
    L by qfield.common_den, and their numerators, Laurent polynomials in
    q, are divided by each binomial x_i - q^{2s} x_j.  The binomial is
    monic in x_i and q^{2s} is a unit, so every quotient stays integral
    and each carry step of NPoly.divexact_binomial is a shift and an add
    of Laurent polynomials, with no gcd.  Symmetry is checked on the
    numerators, which over one L are equal exactly when the values are,
    and only the dominant coefficients are reduced, once each.  With one
    variable or k = 1 there is nothing to divide.
    """
    num = trace_reconstruct(lam, n, k)
    if n == 1 or k == 1 or not num:
        return from_npoly(num)
    den, nums = common_den(list(num.terms.values()))
    quo = NPoly._raw(n, dict(zip(num.terms, nums)))
    for s in range(1, k):
        for i, j in combinations(range(n), 2):
            quo = quo.divexact_binomial(i, j, UnitMono.q(2 * s))
    power = (k - 1) * (n - 1)
    return SymLaurent._raw(n, {tuple(e + power for e in key): CoeffRat(m.num, den)
                               for key, m in quo.fold_symmetric().items()})
