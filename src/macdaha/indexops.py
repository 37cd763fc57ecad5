"""Difference operators acting on a discrete index lattice.

Functions here take an additive lattice point mu in Z^{n-1}; the operators
act through the bar-shifted coordinates mubar_i = mu_i - k(i-1) and shift
the argument by +-1_I.  The Jackson-type pairing is a finite box sum, and
summation by parts holds against it once the left factor vanishes on a
border shell of the box ("adaptedness", checked exhaustively on the finite
shell: operator shifts never reach beyond it).

Every operator coefficient is a product of pair factors, quotients of
q-numbers at bar differences.  With [c] = sgn(c) q^(1-|c|) (q^(2|c|) - 1)
/ (q^2 - 1) each is a unit monomial times a quotient of binomials q^b - 1
read off _PAIR_ARGS, and no binomial is multiplied out where it need not
be.  A value inside the module is a pair (num, den): num a Laurent term
map and den a map {factor: e} for num / prod factor^e.  A factor is an int
b > 0, the binomial q^b - 1, or, for a value of f or g with another
denominator, that denominator kept opaque as the frozenset of its terms.
e > 0 puts the factor in the denominator; e < 0 keeps a numerator binomial
symbolic, so the pair factors that are identically 1 (tilde and dagger at
k = 1) cancel in the map.
- A product multiplies the numerators and adds the maps.
- A sum lifts each term to the highest exponent of each factor by
  multiplying in the factors it lacks (their product taken in pairs of
  similar size, so that large products take the packed kernel of
  LaurentQT) and adds the numerators, over a common multiple of the
  denominators rather than their lcm: no gcd runs.
verify_adjoint runs both operator nests in this form and decides summation
by parts as one zero test: the left pairing's terms and the negated right
pairing's terms go into one sum, and since every factor is a non-zero
polynomial the identity holds exactly when its numerator is zero.  No gcd
or canonical form is computed on that path.  index_apply and plain_apply
reduce their single output once, by one CoeffRat construction, and
jackson_inner reduces its pairing once by rat_sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, product

from .combinat import shift
from .npoly import add_terms
from .qfield import (CR_ZERO, L_ONE, CoeffRat, DomainViolationError, LaurentQT, _product,
                     _qnum_binomial, cached, rat_sum)


class AdaptednessError(ValueError):
    """The left factor of a summation-by-parts pairing is not adapted."""


@dataclass(frozen=True)
class Box:
    """Integer box [lower, upper] with componentwise lower <= upper."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("box bounds must have equal length")
        if any(u < l for l, u in zip(self.lower, self.upper)):
            raise ValueError("box upper bound below lower bound")

    @property
    def dim(self):
        return len(self.lower)

    def points(self):
        return product(*(range(l, u + 1) for l, u in zip(self.lower, self.upper)))

    def enlarged(self, l):
        return Box(tuple(x - l for x in self.lower),
                   tuple(x + l for x in self.upper))

    def raised(self, l):
        return Box(self.lower, tuple(x + l for x in self.upper))


@dataclass(frozen=True)
class IndexOpParams:
    """Operator selector: level k, variant plain/tilde/dagger, degree r."""

    k: int
    variant: str
    r: int

    def __post_init__(self):
        if self.variant not in ("plain", "tilde", "dagger"):
            raise ValueError("variant must be plain, tilde or dagger")
        if self.k < 1:
            raise ValueError("k must be a positive integer")


def jackson_inner(f, g, box):
    """Finite inner product sum_{mu in box} f(mu) g(mu), reduced once by
    rat_sum rather than after every point."""
    return rat_sum(f(mu) * g(mu) for mu in box.points())


def is_adapted(f, box, l):
    """True iff f vanishes on the width-l border shell around the box.

    The shell consists of lattice points of the l-enlarged box having some
    coordinate strictly outside the box; the check is exhaustive over that
    finite set.
    """
    if l == 0:
        return True
    for mu in box.enlarged(l).points():
        if all(lo <= x <= up for x, lo, up in zip(mu, box.lower, box.upper)):
            continue
        if f(mu):
            return False
    return True


# Numerator and denominator q-number arguments and the q-power of each
# pair factor.
_PAIR_ARGS = {
    "plain": lambda k, d: ((d + k,), (d,), k),
    "tilde": lambda k, d: ((d + k, d - k + 1), (d, d + 1), 0),
    "dagger": lambda k, d: ((d + k - 1, d - k), (d - 1, d), 0),
}
# The argument shift of each selected index, per variant.
_STEP = {"plain": 1, "tilde": 1, "dagger": -1}


@cached
def _pair_factor(variant, k, d):
    """The coefficient factor of one index pair at bar difference d:

        plain:  q^k [d+k] / [d]   (k is the t-argument exponent m),
        tilde:  [d+k][d-k+1] / ([d][d+1]),
        dagger: [d+k-1][d-k] / ([d-1][d]),

    returned as (c, a, den) for c q^a / prod (q^x - 1)^e over den = {x: e},
    read off _PAIR_ARGS with no polynomial arithmetic: each argument y != 0
    gives its sign, q-power and binomial q^(2|y|) - 1 over q^2 - 1 by
    qfield._qnum_binomial (the powers of q^2 - 1 cancel).  A numerator
    argument 0 makes the factor zero, (0, 0, {}).  Raises
    DomainViolationError when a denominator q-number vanishes, even where a
    numerator one vanishes too: the quotient is not cancelled formally."""
    nums, dens, a = _PAIR_ARGS[variant](k, d)
    if 0 in dens:
        raise DomainViolationError(
            f"vanishing q-number [0] in the {variant} pair factor at d = {d}")
    if 0 in nums:
        return 0, 0, {}
    c, den = 1, {}
    for y, e in chain(((y, -1) for y in nums), ((y, 1) for y in dens)):
        sign, qa, x = _qnum_binomial(y)
        c, a = c * sign, a - e * qa
        add_terms(den, [(x, e), (2, -e)])
    return c, a, den


def _lift(x):
    """A value of f or g, a CoeffRat or an int, as (num, den): a
    denominator other than 1 is one opaque factor."""
    if isinstance(x, int):
        return ({(0, 0): x} if x else {}), {}
    den = x.den.terms
    return x.num.terms, ({} if den == L_ONE.terms else {frozenset(den.items()): 1})


def _mul(a, b):
    """The product of two term maps; a one-term factor shifts and scales
    the other, and 1 returns it as it is (values are never mutated)."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) != 1:
        return (LaurentQT._raw(a) * LaurentQT._raw(b)).terms
    ((p, t), c), = a.items()
    if p == t == 0 and c == 1:
        return b
    return {(x + p, y + t): c * v for (x, y), v in b.items()}


def _expand(counts):
    """prod factor^e over counts = {factor: e >= 0}, as a term map,
    multiplied in pairs of similar size so that the large products go to
    the packed kernel of LaurentQT."""
    return _product([{(factor, 0): 1, (0, 0): -1} if type(factor) is int else dict(factor)
                     for factor, e in counts.items() for _ in range(e)])


def _times(x, y):
    """The product of two values: numerators multiplied, maps added."""
    (a, da), (b, db) = x, y
    if not a or not b:
        return {}, {}
    return _mul(a, b), add_terms(dict(da), db.items())


def _sum(values):
    """The sum of values over the highest exponent of each factor.

    Numerators with equal maps are added first; every other term is
    multiplied by the factors it lacks against the highest exponents, so
    the result's map is a common multiple of the terms' denominators."""
    groups, owned = {}, set()
    for num, den in values:
        if not num:
            continue
        key = frozenset(den.items())
        if key not in groups:
            groups[key] = [num, den]
            continue
        if key not in owned:
            owned.add(key)
            groups[key][0] = dict(groups[key][0])
        add_terms(groups[key][0], num.items())
    live = [g for g in groups.values() if g[0]]
    if len(live) <= 1:
        return tuple(live[0]) if live else ({}, {})
    factors = {factor for _, den in live for factor in den}
    top = {f: max(den.get(f, 0) for _, den in live) for f in factors}
    total = {}
    for num, den in live:
        lack = {f: e - den.get(f, 0) for f, e in top.items() if e > den.get(f, 0)}
        add_terms(total, (_mul(num, _expand(lack)) if lack else num).items())
    if not total:
        return {}, {}
    return total, {f: e for f, e in top.items() if e}


def _reduced(x):
    """A value as one reduced CoeffRat: its factors multiplied out and a
    single canonical reduction, by the CoeffRat constructor."""
    num, den = x
    if not num:
        return CR_ZERO
    num = _mul(num, _expand({f: -e for f, e in den.items() if e < 0}))
    bottom = _expand({f: e for f, e in den.items() if e > 0})
    return CoeffRat(LaurentQT._raw(num), LaurentQT._raw(bottom))


def _image(fn, variant, m, k, step, r, mu):
    """The degree-r operator of the variant at mu, over the values of fn,
    unreduced.  Coefficients are taken at the bar-shift of mu with level
    k, from the pair factors with parameter m over the pairs (i, j), i in
    I, j not in I (plain: every such j; tilde and dagger: j < i), and the
    argument of fn moves by step per selected index.  The plain operator
    also carries q^(m r (r - n))."""
    n = len(mu)
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= arity")
    # pairs i in I, j not in I exist only when 0 < r < n
    bar = shift(mu, k, "bar") if 0 < r < n else None
    plain = variant == "plain"
    terms = []
    for I in combinations(range(n), r):
        c, a, den = 1, m * r * (r - n) if plain else 0, {}
        for i in I:
            for j in range(n if plain else i):
                if j not in I:
                    pc, pa, pden = _pair_factor(variant, m, bar[i] - bar[j])
                    c, a = c * pc, a + pa
                    add_terms(den, pden.items())
        num, fden = fn(tuple(x + step if i in I else x for i, x in enumerate(mu)))
        if c and num:
            terms.append((_mul({(a, 0): c}, num), add_terms(den, fden.items())))
    return _sum(terms)


def plain_apply(f, mu, r, qdir, m, k):
    """D^r with shift q^{2*qdir} and t-argument q^{2m}, on additive indices.

    Coefficients are evaluated at the bar-shift of mu with level k; the
    function argument moves by qdir per selected index.
    """
    return _reduced(_image(lambda nu: _lift(f(nu)), "plain", m, k, qdir, r, tuple(mu)))


def index_apply(f, params, mu):
    """Apply one index-side operator at the point mu.

    plain: the t-conjugated original with shift q^2 and t-argument q^{2k};
    tilde: the diagonalized conjugate (shift +1 per selected index);
    dagger: the adjoint conjugate (shift -1 per selected index).
    """
    k, v = params.k, params.variant
    return _reduced(_image(lambda nu: _lift(f(nu)), v, k, k, _STEP[v], params.r, tuple(mu)))


def _memo(fn):
    """fn with its values kept, per point, for the life of the wrapper."""
    values = {}

    def at(mu):
        if mu not in values:
            values[mu] = fn(mu)
        return values[mu]
    return at


def _nested(fn, variant, rseq, k):
    """fn, a function to values, under the operators of rseq in turn.
    Each operator image that feeds another is memoized, so it is evaluated
    once per point rather than once per shift path.  The last image is
    not, and neither is fn."""
    for i, r in enumerate(rseq):
        fn = partial(_image, _memo(fn) if i else fn, variant, k, k, _STEP[variant], r)
    return fn


def verify_adjoint(f, g, box, rseq, k):
    """Exact summation-by-parts check.

    Requires f to be (box, l)-adapted with l = len(rseq); raises
    AdaptednessError otherwise.  Returns True iff

        < prod_i Dagger^{r_{l+1-i}} f, g >_{(lower, upper + l)}
            = < f, prod_i Tilde^{r_i} g >_box,

    decided as one zero test: the left pairing's terms and the negated
    right pairing's terms are summed over a common multiple of their
    denominators, with no gcd.  f and g are memoized once per check, so
    the adaptedness scan, both operator nests and both pairings share one
    evaluation per point.
    """
    f, g = _memo(f), _memo(g)
    l = len(rseq)
    if not is_adapted(f, box, l):
        raise AdaptednessError("left factor is not adapted to the box")
    fv, gv = (lambda mu: _lift(f(mu))), (lambda mu: _lift(g(mu)))
    fd = _nested(fv, "dagger", rseq, k)
    gt = _nested(gv, "tilde", reversed(rseq), k)
    lhs = (_times(fd(mu), gv(mu)) for mu in box.raised(l).points())
    rhs = (_times(fv(mu), gt(mu)) for mu in box.points())
    rhs = (({key: -c for key, c in num.items()}, den) for num, den in rhs)
    return not _sum(chain(lhs, rhs))[0]
