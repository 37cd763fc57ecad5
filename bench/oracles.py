"""Checks that do not depend on the code they check.

Both evaluate at seeded random integer points with `fractions.Fraction`.
By the Schwartz-Zippel lemma a wrong rational function agrees with the
right one at a random point only with small probability.  Nothing here
calls into `macdaha`: program outputs are read through their public term
maps (`SymLaurent.terms`, `CoeffRat.num.terms`, `CoeffRat.den.terms`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

# Distinct primes, so that q^a t^b = 1 only for a = b = 0.
_PRIMES = (2, 3, 5, 7, 11, 13)


def random_point(rng, n):
    """(q, t, x) with q != t prime and x_1..x_n distinct nonzero integers."""
    q, t = rng.sample(_PRIMES, 2)
    x = rng.sample([v for v in range(-12, 13) if v], n)
    return Fraction(q), Fraction(t), tuple(Fraction(v) for v in x)


def _terms_at(terms, q, t):
    return sum(c * q ** a * t ** b for (a, b), c in terms.items())


def coeff_at(c, q, t):
    """A scalar of Q(q, t) at integers q, t; ZeroDivisionError on a pole."""
    den = _terms_at(c.den.terms, q, t)
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at the point")
    return _terms_at(c.num.terms, q, t) / den


def _orbit(sig):
    return set(permutations(sig))


def sym_at(f, x, q, t):
    """A symmetric polynomial stored as {dominant signature: coefficient}."""
    total = Fraction(0)
    for sig, c in f.terms.items():
        s = Fraction(0)
        for e in _orbit(sig):
            m = Fraction(1)
            for xi, ei in zip(x, e):
                m *= xi ** ei
            s += m
        total += coeff_at(c, q, t) * s
    return total


def macdonald_operator_at(f, r, x, q, t):
    """D^r f at x, from the defining formula with shift q^2 and tau = t:

        tau^{r(r-n)} sum_{|I|=r} prod_{i in I, j not in I}
            (tau^2 x_i - x_j)/(x_i - x_j) * f(x with x_i -> q^2 x_i, i in I).
    """
    n = len(x)
    tau = t
    total = Fraction(0)
    for I in combinations(range(n), r):
        coeff = Fraction(1)
        for i in I:
            for j in range(n):
                if j not in I:
                    coeff *= (tau * tau * x[i] - x[j]) / (x[i] - x[j])
        y = tuple(q * q * xi if i in I else xi for i, xi in enumerate(x))
        total += coeff * sym_at(f, y, q, t)
    return tau ** (r * (r - n)) * total


def _det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        prod = Fraction(sign)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += prod
    return total


def schur_at(lam, x):
    """Schur polynomial s_lam(x) as the bialternant det(x_i^{lam_j+n-j}) /
    det(x_i^{n-j})."""
    n = len(lam)
    num = _det([[xi ** (lam[j] + n - 1 - j) for j in range(n)] for xi in x])
    den = _det([[xi ** (n - 1 - j) for j in range(n)] for xi in x])
    return num / den
