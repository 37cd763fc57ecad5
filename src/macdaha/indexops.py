"""Difference operators acting on a discrete index lattice.

Functions here take an additive lattice point mu in Z^{n-1}; the operators
act through the bar-shifted coordinates mubar_i = mu_i - k(i-1) and shift
the argument by +-1_I.  The Jackson-type pairing is a finite box sum, and
summation by parts holds against it once the left factor vanishes on a
border shell of the box ("adaptedness", checked exhaustively on the finite
shell: operator shifts never reach beyond it).

Every operator coefficient is a product of pair factors, quotients of
q-numbers at bar differences.  With [x] = q^(1-x) (q^(2x) - 1)/(q^2 - 1)
each is prod (q^(2a) - 1) / prod (q^(2b) - 1), built from maps of at most
4 terms and reduced by one small gcd, with no dense q-number product.
verify_adjoint decides summation by parts as one zero test: the left
pairing's terms and the negated right pairing's terms go into one
rat_sum, equality in Q(q) holds exactly when it is zero, and a zero sum
needs no final reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product

from .combinat import shift
from .qfield import (CR_ONE, CR_ZERO, CoeffRat, DomainViolationError, LaurentQT, UnitMono,
                     cached, rat_sum)


@cached
def _qpow(a):
    return UnitMono.q(a).as_coeffrat()


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


# Numerator and denominator q-number arguments of each pair factor: with
# [x] = q^(1-x) (q^(2x) - 1)/(q^2 - 1) the q-powers and the (q^2 - 1)
# powers cancel between them (the plain factor's q^k included).
_PAIR_ARGS = {
    "plain": lambda k, d: ((d + k,), (d,)),
    "tilde": lambda k, d: ((d + k, d - k + 1), (d, d + 1)),
    "dagger": lambda k, d: ((d + k - 1, d - k), (d - 1, d)),
}


def _binomial_product(args):
    """prod (q^(2x) - 1) over x in args: at most 4 terms, multiplied out
    here rather than through LaurentQT arithmetic."""
    out = {0: 1}
    for x in args:
        nxt = {}
        for a, c in out.items():
            nxt[a + 2 * x] = nxt.get(a + 2 * x, 0) + c
            nxt[a] = nxt.get(a, 0) - c
        out = nxt
    return LaurentQT._raw({(a, 0): c for a, c in out.items() if c})


@cached
def _pair_factor(variant, k, d):
    """The coefficient factor of one index pair at bar difference d:

        plain:  q^k [d+k] / [d]   (k is the t-argument exponent m),
        tilde:  [d+k][d-k+1] / ([d][d+1]),
        dagger: [d+k-1][d-k] / ([d-1][d]),

    that is prod (q^(2a) - 1) / prod (q^(2b) - 1), reduced by one gcd of
    maps of at most 4 terms.  Raises DomainViolationError when a
    denominator q-number vanishes, even where a numerator one vanishes
    too: the quotient is not cancelled formally."""
    nums, dens = _PAIR_ARGS[variant](k, d)
    if 0 in dens:
        raise DomainViolationError(
            f"vanishing q-number [0] in the {variant} pair factor at d = {d}")
    return CoeffRat(_binomial_product(nums), _binomial_product(dens))


def plain_apply(f, mu, r, qdir, m, k):
    """D^r with shift q^{2*qdir} and t-argument q^{2m}, on additive indices.

    Coefficients are evaluated at the bar-shift of mu with level k; the
    function argument moves by qdir per selected index.
    """
    np_ = len(mu)
    if not 0 <= r <= np_:
        raise ValueError("need 0 <= r <= arity")
    bar = shift(mu, k, "bar")
    total = CR_ZERO
    for I in combinations(range(np_), r):
        iset = set(I)
        coeff = CR_ONE
        for i in I:
            for j in range(np_):
                if j in iset:
                    continue
                coeff = coeff * _pair_factor("plain", m, bar[i] - bar[j])
        shifted = tuple(x + qdir if i in iset else x for i, x in enumerate(mu))
        total = total + coeff * f(shifted)
    return _qpow(m * r * (r - np_)) * total


def index_apply(f, params, mu):
    """Apply one index-side operator at the point mu.

    plain: the t-conjugated original with shift q^2 and t-argument q^{2k};
    tilde: the diagonalized conjugate (shift +1 per selected index);
    dagger: the adjoint conjugate (shift -1 per selected index).
    """
    mu = tuple(mu)
    k, r = params.k, params.r
    if params.variant == "plain":
        return plain_apply(f, mu, r, +1, k, k)
    bar = shift(mu, k, "bar")
    np_ = len(mu)
    if not 0 <= r <= np_:
        raise ValueError("need 0 <= r <= arity")
    total = CR_ZERO
    for I in combinations(range(np_), r):
        iset = set(I)
        coeff = CR_ONE
        for i in I:
            for j in range(np_):
                if j in iset or i < j:
                    continue
                coeff = coeff * _pair_factor(params.variant, k, bar[i] - bar[j])
        step = 1 if params.variant == "tilde" else -1
        shifted = tuple(x + step if i in iset else x for i, x in enumerate(mu))
        total = total + coeff * f(shifted)
    return total


def op_transform(f, params):
    """The operator as a function transformer: returns the image IndexFn."""
    return lambda mu: index_apply(f, params, mu)


def _memo(fn):
    """fn with its values kept, per point, for the life of the wrapper."""
    values = {}

    def at(mu):
        if mu not in values:
            values[mu] = fn(mu)
        return values[mu]
    return at


def _nested(fn, variant, rseq, k):
    """fn under the operators of rseq in turn.  Each operator image that
    feeds another operator is memoized, so it is evaluated once per point
    rather than once per shift path.  The last image is not, and neither
    is fn: the caller passes fn already memoized when it also reads fn
    elsewhere (verify_adjoint does), so one memo serves every reader."""
    for i, r in enumerate(rseq):
        fn = op_transform(_memo(fn) if i else fn, IndexOpParams(k=k, variant=variant, r=r))
    return fn


def verify_adjoint(f, g, box, rseq, k):
    """Exact summation-by-parts check.

    Requires f to be (box, l)-adapted with l = len(rseq); raises
    AdaptednessError otherwise.  Returns True iff

        < prod_i Dagger^{r_{l+1-i}} f, g >_{(lower, upper + l)}
            = < f, prod_i Tilde^{r_i} g >_box,

    decided as one rat_sum of the left pairing's terms and the negated
    right pairing's terms being zero.  f and g are memoized once per
    check, so the adaptedness scan, both operator nests and both pairings
    share one evaluation per point.
    """
    f, g = _memo(f), _memo(g)
    l = len(rseq)
    if not is_adapted(f, box, l):
        raise AdaptednessError("left factor is not adapted to the box")
    fd = _nested(f, "dagger", rseq, k)
    gt = _nested(g, "tilde", reversed(rseq), k)
    lhs = (fd(mu) * g(mu) for mu in box.raised(l).points())
    rhs = (-(f(mu) * gt(mu)) for mu in box.points())
    return not rat_sum(chain(lhs, rhs))
