"""Signatures, interlacing, Gelfand-Tsetlin patterns, weights and shifts.

A signature is a weakly decreasing tuple of integers (negative entries
allowed, empty tuple allowed).  Gelfand-Tsetlin patterns subordinate to a
signature are interlacing chains ending at it; they index both the
monomial expansion of the associated symmetric polynomials and the trace
summations used elsewhere in the package.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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


def sig_sum(sig):
    return sum(sig)


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


@dataclass(frozen=True)
class GTPattern:
    """Triangular interlacing array; rows[l-1] has length l, last row = lam."""

    rows: tuple

    def __post_init__(self):
        for l, row in enumerate(self.rows, start=1):
            if len(row) != l:
                raise ValueError("row lengths must be 1, 2, ..., n")
        for l in range(len(self.rows) - 1):
            if not interlaces(self.rows[l], self.rows[l + 1]):
                raise ValueError("adjacent rows must interlace")

    @property
    def top(self):
        return self.rows[-1]

    def sort_key(self):
        return tuple(x for row in self.rows for x in row)


def gt_enumerate(lam):
    """All Gelfand-Tsetlin patterns subordinate to lam, each exactly once.

    Ordered lexicographically on the concatenation of rows bottom-up.
    """
    if not lam:
        return [GTPattern(rows=())]
    return [GTPattern(rows=chain) for chain in shifted_chain_enumerate(lam, 1)]


def gt_weight(pattern):
    """Weight vector (|mu^n|-|mu^{n-1}|, ..., |mu^2|-|mu^1|, |mu^1|)."""
    return chain_weight(pattern.rows)[::-1]


def chain_weight(chain, k=1):
    """The weight w of a chain mu^1, ..., mu^n: w_i = |tilde mu^i| -
    |tilde mu^{i-1}| with the level-k tilde shift and |tilde mu^0| = 0
    (the one empty row of the chain of () has no weight entry)."""
    sums = [sig_sum(shift(row, k, "tilde")) for row in chain if row]
    return tuple(b - a for a, b in zip([0] + sums, sums))


def dominant_chains(lam):
    """The Gelfand-Tsetlin patterns mu^1, ..., mu^n = lam (the k = 1
    chains) whose weight w = chain_weight(chain) is weakly decreasing.

    Walked from lam down, so the first step fixes w_n and each later step
    w_i, which must be at least w_{i+1}.  A row mu^i is also dropped at once
    when |mu^i| < i * w_{i+1}: the weights w_1, ..., w_i still to come sum
    to |mu^i| and none of them is below w_{i+1}.
    """
    walks = [((lam,), float("-inf"))]
    for i in range(len(lam) - 1, 0, -1):
        step = []
        for chain, floor in walks:
            total = sig_sum(chain[0])
            for mu in interlacing_signatures(chain[0]):
                s = sig_sum(mu)
                w = total - s
                if w >= floor and s >= i * w:
                    step.append(((mu,) + chain, w))
        walks = step
    return [chain for chain, _ in walks]


@cached
def kostka_dominant(lam):
    """{nu: number of Gelfand-Tsetlin patterns subordinate to lam with
    weight nu} over the dominant nu: the Kostka numbers K_{lam, nu},
    counted over dominant_chains(lam)."""
    if not is_dominant(lam):
        raise ValueError("signature must be dominant")
    return dict(Counter(map(chain_weight, dominant_chains(lam))))


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


def shifted_chain_enumerate(lam, k):
    """Chains mu^1, ..., mu^n = lam whose (k-1)-tilde shifts interlace.

    Equivalently mu^{i+1}_j >= mu^i_j >= mu^{i+1}_{j+1} - (k-1).  At k = 1
    these are exactly the Gelfand-Tsetlin patterns subordinate to lam.
    Ordered lexicographically on the concatenated rows bottom-up.
    """
    if not is_dominant(shift(lam, k, "tilde")):
        raise ValueError("tilde-shifted top row must be dominant")
    chains = [(lam,)]
    for _ in range(len(lam) - 1):
        chains = [(mu,) + chain
                  for chain in chains
                  for mu in interlacing_signatures(chain[0], k)]
    chains.sort(key=lambda ch: tuple(x for row in ch for x in row))
    return chains
