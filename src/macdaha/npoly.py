"""Sparse Laurent polynomials in n variables over the scalar field Q(q, t).

Workhorse representation behind the symmetric-polynomial layer, the
Hecke-operator action, the branching sums, and the Gelfand-Tsetlin lattice
sums of the pattern formula and the traces.  Supports exact division by
binomials x_i - c*x_j, as the Demazure-Lusztig operators and the trace
ratio need.

`TermMap` is the sparse container that `NPoly` shares with
`sympoly.SymLaurent`: a dict {key: CoeffRat} with no zero values, whose
sums, negation and scalar products are written once.  `add_terms` is the
accumulator of the polynomial layer and of `macops.branch_sum`, adding
one value at a time with `CoeffRat.__add__`.  A long sum of scalars that
should be reduced once goes through `qfield.rat_sum` (the Jackson
pairing) or `qfield.rat_dot` (each output coefficient of
`macops.mac_apply`, of the triangular eigen solve and of `daha.res_map`,
and each state of the lattice walk behind `macops.chain_sum`).  Those
sums are sums of products of a Laurent polynomial (an operator column
entry, or the counted q-powers of a ladder orbit) or a reduced state
value with a fraction, so their products can be formed unreduced and the
sum reduced once; reduced products added one by one through `add_terms`
cost a gcd per product and one more per sum.  The branching sums of
`branch_sum` are the exception: there, products reduced one by one and
added by `add_terms` measured faster than one reduction per coefficient.

`divexact_binomial` divides by x_i - c*x_j with a carry from the top
power of x_i down; with c a unit monomial and coefficients over 1 (as
`intertwiner.trace_ratio` passes them, over one common denominator) each
carry step is a shift and an add, with no gcd.
"""

from __future__ import annotations

from math import factorial
from operator import add

from .qfield import CR_ONE, CoeffRat, UnitMono


def add_terms(out, pairs):
    """Add each (key, value) of pairs into the dict out and return out.

    A sum that cancels is removed and a zero value never enters as a new
    key, so out keeps no zero values.
    """
    get = out.get
    for k, v in pairs:
        w = get(k)
        if w is not None:
            v = w + v
            if not v:
                del out[k]
                continue
        elif not v:
            continue
        out[k] = v
    return out


class TermMap:
    """Sparse {key: CoeffRat} in n variables with no zero values.

    Equality also compares the class, so an NPoly never equals a SymLaurent.
    """

    __slots__ = ("n", "terms")

    @classmethod
    def _raw(cls, n, terms):
        self = object.__new__(cls)
        self.n = n
        self.terms = terms
        return self

    @classmethod
    def zero(cls, n):
        return cls._raw(n, {})

    @classmethod
    def one(cls, n):
        return cls._raw(n, {(0,) * n: CR_ONE})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (type(self) is type(other) and self.n == other.n
                and self.terms == other.terms)

    def __add__(self, other):
        return self._raw(self.n, add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._raw(self.n, {k: -v for k, v in self.terms.items()})

    def scalar_mul(self, c):
        if isinstance(c, int):
            c = CoeffRat.from_int(c)
        if not c:
            return self.zero(self.n)
        return self._raw(self.n, {k: v * c for k, v in self.terms.items()})

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class NPoly(TermMap):
    """Laurent polynomial in x_1..x_n: {exponent tuple: CoeffRat}."""

    __slots__ = ()

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for k, v in terms.items():
                if v:
                    self.terms[k] = v

    @classmethod
    def monomial(cls, exps, coeff=CR_ONE):
        if not coeff:
            return cls.zero(len(exps))
        return cls._raw(len(exps), {tuple(exps): coeff})

    @classmethod
    def binomial_product(cls, n, factors):
        """prod (x_i - c*x_j) over the triples (i, j, c), c a unit monomial."""
        out = cls.one(n)
        for i, j, c in factors:
            ei = [0] * n
            ej = [0] * n
            ei[i] = 1
            ej[j] = 1
            out = out * cls(n, {tuple(ei): CR_ONE, tuple(ej): -c.as_coeffrat()})
        return out

    def __mul__(self, other):
        if isinstance(other, (CoeffRat, int)):
            return self.scalar_mul(other)
        A, B = self.terms, other.terms
        if len(A) > len(B):
            A, B = B, A
        out = {}
        for ka, va in A.items():
            add_terms(out, ((tuple(map(add, ka, kb)), va * vb) for kb, vb in B.items()))
        return NPoly._raw(self.n, out)

    def mul_monomial(self, exps, coeff=CR_ONE):
        out = {}
        for k, v in self.terms.items():
            w = v * coeff
            if w:
                out[tuple(a + b for a, b in zip(k, exps))] = w
        return NPoly._raw(self.n, out)

    def scale_vars(self, idxs, u):
        """Substitute x_i -> u*x_i for every i in idxs (u a unit monomial)."""
        out = {}
        for k, v in self.terms.items():
            e = sum(k[i] for i in idxs)
            out[k] = v * (u ** e).as_coeffrat()
        return NPoly._raw(self.n, out)

    def permute(self, perm):
        """Relabel variables: x_i -> x_{perm[i]}."""
        out = {}
        for k, v in self.terms.items():
            nk = [0] * self.n
            for i, e in enumerate(k):
                nk[perm[i]] = e
            out[tuple(nk)] = v
        return NPoly._raw(self.n, out)

    def swap(self, i, j):
        perm = list(range(self.n))
        perm[i], perm[j] = perm[j], perm[i]
        return self.permute(perm)

    def divexact_binomial(self, i, j, c=None):
        """Exact division by (x_i - c*x_j); raises ArithmeticError if inexact."""
        if not self.terms:
            return self
        if c is None:
            c = CR_ONE
        elif isinstance(c, UnitMono):
            c = c.as_coeffrat()
        slices = {}
        for k, v in self.terms.items():
            m = k[i]
            rest = k[:i] + (0,) + k[i + 1:]
            slices.setdefault(m, {})[rest] = v
        mmin = min(slices)
        out = {}
        carry = {}
        for m in range(max(slices), mmin - 1, -1):
            carry = add_terms(dict(slices.get(m, ())),
                              ((rest[:j] + (rest[j] + 1,) + rest[j + 1:], v * c)
                               for rest, v in carry.items()))
            if m > mmin:
                for rest, v in carry.items():
                    out[rest[:i] + (m - 1,) + rest[i + 1:]] = v
        if carry:
            raise ArithmeticError("polynomial not divisible by binomial")
        return NPoly._raw(self.n, out)

    def fold_symmetric(self):
        """Collect a symmetric polynomial into {dominant exponent: coeff}.

        Raises ArithmeticError when the polynomial is not symmetric.
        """
        out = {}
        total = 0
        for k, v in self.terms.items():
            sk = tuple(sorted(k, reverse=True))
            if sk == k:
                out[sk] = v
                total += _orbit_size(sk)
        if total != len(self.terms):
            raise ArithmeticError("polynomial is not symmetric")
        for k, v in self.terms.items():
            sk = tuple(sorted(k, reverse=True))
            if out.get(sk) != v:
                raise ArithmeticError("polynomial is not symmetric")
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms, reverse=True):
            mono = "*".join(f"x{i+1}^{e}" for i, e in enumerate(k) if e)
            bits.append(f"({self.terms[k]})*{mono or '1'}")
        return " + ".join(bits)


def _orbit_size(sig):
    size = factorial(len(sig))
    run = 1
    for i in range(1, len(sig)):
        if sig[i] == sig[i - 1]:
            run += 1
        else:
            size //= factorial(run)
            run = 1
    size //= factorial(run)
    return size
