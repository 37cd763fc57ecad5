"""Signatures, interlacing, Gelfand-Tsetlin chains, weights and shifts.

A signature is a weakly decreasing tuple of integers (negative entries
allowed, empty tuple allowed).  The chains of interlacing signatures ending
at one (at k = 1 the Gelfand-Tsetlin patterns subordinate to it) index both
the monomial expansion of the associated symmetric polynomials and the
trace summations used elsewhere in the package.  lattice_sum is the one
walk over them: it sums a product of links over the states of the pattern
lattice level by level and never lists a chain.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .qfield import cached


def is_dominant(sig):
    return all(sig[i] >= sig[i + 1] for i in range(len(sig) - 1))


def check_signature(lam, n):
    """lam as a tuple, once it is checked to be a dominant signature of
    length n; raises ValueError otherwise."""
    lam = tuple(lam)
    if len(lam) != n:
        raise ValueError("signature length must equal the variable count")
    if not is_dominant(lam):
        raise ValueError("signature must be dominant")
    return lam


def parse_signature(text):
    """Parse a comma-separated signature string such as "2,1,0" or "1,-1"."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"malformed signature {text!r}") from None
    if not is_dominant(parts):
        raise ValueError(f"signature {text!r} is not weakly decreasing")
    return parts


def format_signature(sig):
    return ",".join(str(p) for p in sig)


def inversions(seq):
    """The number of pairs a < b with seq[a] > seq[b]."""
    return sum(1 for a, b in combinations(range(len(seq)), 2) if seq[a] > seq[b])


def in_window(mu, lam, k):
    """True iff lam_{i+1} - (k-1) <= mu_i <= lam_i for every i: the window
    outside which the level-k matrix elements c(mu, lam) vanish."""
    if len(mu) != len(lam) - 1:
        raise ValueError("mu must be one entry shorter than lam")
    return all(lam[i + 1] - (k - 1) <= mu[i] <= lam[i] for i in range(len(mu)))


def interlaces(mu, lam):
    """True iff lam_1 >= mu_1 >= lam_2 >= ... >= mu_{n-1} >= lam_n."""
    return in_window(mu, lam, 1)


def interlacing_signatures(lam, k=1):
    """All mu of length len(lam)-1 in the level-k window of lam (see
    in_window), in lex order; at k = 1 these are the mu interlacing lam."""
    n = len(lam)
    if n == 0:
        raise ValueError("no signatures interlace the empty signature")
    ranges = [range(lam[i + 1] - (k - 1), lam[i] + 1) for i in range(n - 1)]
    return [tuple(mu) for mu in product(*ranges)]


def partitions(d, n):
    """All partitions of d into n weakly decreasing nonnegative parts, in
    decreasing lex order."""
    rows = [((), d)]
    for left in range(n, 0, -1):
        # ceil(rem / left) is the least part that leaves room for the rest
        rows = [(pre + (p,), rem - p)
                for pre, rem in rows
                for p in range(min(pre[-1] if pre else rem, rem), -(-rem // left) - 1, -1)]
    return [pre for pre, rem in rows if rem == 0]


def rho(n):
    """rho_i = (n + 1 - 2i)/2 as exact fractions."""
    return tuple(Fraction(n + 1 - 2 * i, 2) for i in range(1, n + 1))


def rho_tilde(n):
    """rho~_i = -(i - 1)."""
    return tuple(-(i - 1) for i in range(1, n + 1))


def shift(lam, k, variant):
    """Shifted signature: tilde_i = lam_i - (k-1)(i-1), bar_i = lam_i - k(i-1)."""
    if variant == "tilde":
        c = k - 1
    elif variant == "bar":
        c = k
    else:
        raise ValueError("variant must be 'tilde' or 'bar'")
    return tuple(lam[i] - c * i for i in range(len(lam)))


def lattice_sum(lam, k, link, one, total, dominant=False):
    """The chain sum, sum_chain prod_i link(mu^i, mu^{i+1}) x^w, over the
    chains mu^1, ..., mu^n = lam whose level-k tilde shifts interlace, as a
    term map {w: value}; with dominant, over those of weakly decreasing w
    only.  one is the empty product, and total(pairs) is the sum of
    value * link over a list of pairs (value, link).

    The chains are mu^{i+1}_j >= mu^i_j >= mu^{i+1}_{j+1} - (k-1), so each
    row below mu^{i+1} ranges over interlacing_signatures(mu^{i+1}, k); at
    k = 1 they are the Gelfand-Tsetlin patterns subordinate to lam.  Their
    weight is w_i = |tilde mu^i| - |tilde mu^{i-1}| with |tilde mu^0| = 0.

    The sum is taken level by level from mu^n = lam down, over the states
    (mu^i, (w_{i+1}, ..., w_n)): the sizes of the rows above fix those
    weights, so no chain is ever listed.  The dominant chains are cut out
    on each (state, child) pair: w_i >= w_{i+1}, and |tilde mu^{i-1}| >=
    (i-1) w_i, because the weights w_1, ..., w_{i-1} still to come sum to
    |tilde mu^{i-1}| and none of them is below w_i.  A state's value is the
    total, over the paths from lam to it, of their link products: the
    pairs (value, link) of its incoming edges are collected and summed by
    one call of total, so a total that forms the products unreduced
    reduces each state once.  Each distinct link is evaluated once and a
    zero link adds no pair, and a state of value zero is dropped, so no
    link below it is evaluated.  The bottom states (mu^1, (w_2, ..., w_n))
    are one per weight.
    """
    if not is_dominant(shift(lam, k, "tilde")):
        raise ValueError("tilde-shifted top row must be dominant")
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
                    incoming.setdefault((mu, (w,) + tail), []).append((value, links[pair]))
        values = {}
        for state, pairs in incoming.items():
            value = total(pairs)
            if value:
                values[state] = value
    return {((size(row),) + tail if row else tail): value
            for (row, tail), value in values.items()}


@cached
def kostka_dominant(lam):
    """{nu: number of Gelfand-Tsetlin patterns subordinate to lam with
    weight nu} over the dominant nu: the Kostka numbers K_{lam, nu}, the
    dominant lattice_sum at k = 1 counted in integers."""
    return lattice_sum(lam, 1, lambda mu, nu: 1, 1, lambda pairs: sum(a * b for a, b in pairs),
                       dominant=True)
