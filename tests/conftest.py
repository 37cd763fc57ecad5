"""Shared test oracles, kept independent of the code paths they check."""

from itertools import combinations, permutations, product

import pytest

from macdaha.npoly import NPoly
from macdaha.qfield import CR_ONE
from macdaha.sympoly import from_npoly, to_npoly


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
