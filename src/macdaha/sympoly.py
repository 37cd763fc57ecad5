"""Symmetric Laurent polynomials in the orbit-monomial basis.

A SymLaurent stores {signature: coefficient} and represents the sum of
orbit monomials m_sig = sum of x^{sigma(sig)} over distinct permutations.
It is a `npoly.TermMap`, so it shares NPoly's sums, negation and scalar
products, and its sums of terms go through `npoly.add_terms`.  Products are
computed by expanding to explicit monomials and folding back, which is
exact and adequate at the scales used here (n <= 6, low degree).
"""

from __future__ import annotations

from itertools import permutations

from .combinat import is_dominant
from .npoly import NPoly, TermMap
from .qfield import CR_ONE, CR_ZERO, CoeffRat, UnitMono, cached


@cached
def orbit(sig):
    """Distinct permutations of a signature, in lexicographic order.

    Distinct entries: itertools.permutations of the sorted entries, which
    come out in that order.  Repeated entries: the next-permutation step
    from the sorted entries, one step per distinct permutation rather than
    one per each of the n! permutations.
    """
    a = sorted(sig)
    n = len(a)
    if len(set(a)) == n:
        return tuple(permutations(a))
    out = [tuple(a)]
    while True:
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return tuple(out)
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]
        out.append(tuple(a))


class SymLaurent(TermMap):
    """Symmetric Laurent polynomial: {weakly decreasing key: CoeffRat}."""

    __slots__ = ()

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for k, v in terms.items():
                if not is_dominant(k):
                    raise ValueError(f"key {k} is not weakly decreasing")
                if v:
                    self.terms[tuple(k)] = v

    def __mul__(self, other):
        if isinstance(other, (CoeffRat, int)):
            return self.scalar_mul(other)
        return from_npoly(to_npoly(self) * to_npoly(other))

    def coeff(self, sig):
        return self.terms.get(tuple(sig), CR_ZERO)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[k]})*m{list(k)}"
                          for k in sorted(self.terms))


def m_sym(sig, n):
    """Orbit monomial m_sig with coefficient 1."""
    sig = tuple(sig)
    if len(sig) != n:
        raise ValueError("signature length must equal the variable count")
    if not is_dominant(sig):
        raise ValueError("signature must be weakly decreasing")
    return SymLaurent._raw(n, {sig: CR_ONE})


def e_sym(r, n):
    """Elementary symmetric polynomial e_r = m_{(1^r, 0^{n-r})}."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    return m_sym((1,) * r + (0,) * (n - r), n)


def to_npoly(f):
    out = {}
    for sig, c in f.terms.items():
        for e in orbit(sig):
            out[e] = c
    return NPoly._raw(f.n, out)


def from_npoly(p):
    """Fold a symmetric NPoly into the orbit basis (checks symmetry)."""
    return SymLaurent._raw(p.n, p.fold_symmetric())


def eval_sym(f, point):
    """Exact evaluation of a SymLaurent at a unit-monomial point."""
    coords = tuple(point)
    if len(coords) != f.n:
        raise ValueError("point dimension mismatch")
    total = CR_ZERO
    for sig, c in f.terms.items():
        acc = CR_ZERO
        for e in orbit(sig):
            m = UnitMono.one()
            for u, ei in zip(coords, e):
                m = m * (u ** ei)
            acc = acc + m.as_coeffrat()
        total = total + c * acc
    return total


def mono_shift(f, c):
    """Multiply by (x_1 ... x_n)^c: every key shifts by c in each entry."""
    if c == 0:
        return f
    return SymLaurent._raw(
        f.n, {tuple(x + c for x in k): v for k, v in f.terms.items()})


def sym_to_json(f):
    """Canonical JSON form with terms sorted by signature."""
    return {
        "n": f.n,
        "basis": "monomial-symmetric",
        "terms": [{"sig": list(k), "coeff": str(f.terms[k])}
                  for k in sorted(f.terms)],
    }


def npoly_to_json(p):
    return {
        "n": p.n,
        "basis": "laurent-monomial",
        "terms": [{"exp": list(k), "coeff": str(p.terms[k])}
                  for k in sorted(p.terms)],
    }
