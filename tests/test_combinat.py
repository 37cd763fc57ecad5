from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from conftest import (box_chains, kostka_oracle, lattice_sum_oracle, partitions_upto,
                      schur_oracle, tilde_weight)

from macdaha.combinat import (check_signature, format_signature, interlaces,
                              interlacing_signatures, kostka_dominant, lattice_sum,
                              parse_signature, partitions, rho, rho_tilde, shift)
from macdaha.intertwiner import branch_reconstruct_qk, trace_reconstruct
from macdaha.macops import (_psi, chain_sum, generic_params, macdonald_branch, macdonald_eigen,
                            macdonald_gt)
from macdaha.npoly import NPoly
from macdaha.qfield import CR_ONE, UnitMono, rat_sum
from macdaha.sympoly import from_npoly


def decreasing(t):
    return all(t[i] >= t[i + 1] for i in range(len(t) - 1))


def signatures(n, lo, hi):
    """Weakly decreasing n-tuples with entries in [lo, hi], filtered from the box."""
    return [t for t in product(range(lo, hi + 1), repeat=n) if decreasing(t)]


def in_level_window(mu, lam, k):
    return all(lam[i + 1] - (k - 1) <= mu[i] <= lam[i] for i in range(len(mu)))


class Chains(frozenset):
    """A set of chains as a lattice_sum value: times a row mu it puts mu
    below every chain, so the walk sums the chains themselves."""

    def __mul__(self, mu):
        return Chains((mu,) + chain for chain in self)


def walked_chains(lam, k, dominant=False):
    """The chains lattice_sum walks, sorted, each checked against the
    weight it is summed under."""
    sums = lattice_sum(lam, k, lambda mu, nu: mu, Chains({(lam,)}),
                       lambda pairs: Chains(c for value, mu in pairs for c in value * mu), dominant)
    for w, chains in sums.items():
        assert all(tilde_weight(chain, k) == w for chain in chains), (lam, k, w)
    return sorted(chain for chains in sums.values() for chain in chains)


def int_dot(pairs):
    """lattice_sum's total in integers: the sum of value * link."""
    return sum(a * b for a, b in pairs)


def pattern_count(lam, k=1):
    return sum(lattice_sum(lam, k, lambda mu, nu: 1, 1, int_dot).values())


def weyl_dim(lam):
    n = len(lam)
    r = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            r *= Fraction(lam[i] - lam[j] + j - i, j - i)
    return int(r)


def test_interlaces():
    assert interlaces((1,), (2, 0))
    assert not interlaces((3,), (2, 0))
    assert interlaces((1, 0), (1, 1, 0))
    with pytest.raises(ValueError):
        interlaces((1, 0), (2, 0))


def test_gt_enumerate_counts():
    # The walk at k = 1 with every link 1 counts the patterns.
    assert pattern_count((1, 0)) == 2
    assert pattern_count((2, 0)) == 3
    assert pattern_count((1, 1, 0)) == 3
    assert pattern_count(()) == 1


def test_gt_counts_match_weyl_dimension():
    for n in (2, 3, 4):
        for lam in partitions_upto(6 if n < 4 else 4, n):
            assert pattern_count(lam) == weyl_dim(lam), lam


def test_gt_weight_values():
    assert lattice_sum((1, 0), 1, lambda mu, nu: 1, 1, int_dot) == {(1, 0): 1, (0, 1): 1}


def test_gt_weight_sum_is_schur():
    for lam in [(1, 0), (2, 0), (2, 1), (2, 1, 0), (3, 1, 0)]:
        n = len(lam)
        sums = NPoly._raw(n, chain_sum(lam, 1, lambda mu, nu: CR_ONE))
        assert from_npoly(sums) == schur_oracle(lam, n)


def test_kostka_dominant_counts_gt_patterns():
    # Against a Counter of the dominant weights of the box-filter patterns.
    for lam in [(), (0,), (-2,), (1, 0), (2, 1, 0), (3, 1, 0), (2, 2, 1, 0),
                (1, -1), (0, -1, -3), (3, 1, 1, -2), (2, 0, -1, -1)]:
        assert kostka_dominant(lam) == kostka_oracle(lam), lam
    assert kostka_dominant((2, 1, 0)) == {(2, 1, 0): 1, (1, 1, 1): 2}
    with pytest.raises(ValueError):
        kostka_dominant((0, 1))


def test_shifts():
    assert rho(3) == (1, 0, -1)
    assert rho(2) == (Fraction(1, 2), Fraction(-1, 2))
    assert rho_tilde(4) == (0, -1, -2, -3)
    assert shift((2, 0), 2, "bar") == (2, -2)
    assert shift((2, 0), 3, "tilde") == (2, -2)
    with pytest.raises(ValueError):
        shift((1, 0), 2, "hat")


def test_chains_at_k1_are_gt_patterns():
    # At k = 1 the walk visits exactly the row tuples whose adjacent rows
    # interlace.
    for n in (1, 2, 3, 4):
        for lam in signatures(n, -2, 2 if n < 4 else 1):
            rows = [list(product(range(lam[-1], lam[0] + 1), repeat=l)) for l in range(1, n)]
            want = [chain + (lam,) for chain in product(*rows)
                    if all(interlaces(a, b) for a, b in zip(chain, chain[1:] + (lam,)))]
            assert walked_chains(lam, 1) == sorted(want), lam
    assert walked_chains((), 1) == [((),)]


def test_dominant_chains_are_the_patterns_of_dominant_weight():
    # The dominant walk against the box-filter patterns of weakly
    # decreasing weight, and its chains counted per weight against a
    # Counter of the same filter, on signatures of both signs.
    for n in (1, 2, 3, 4):
        for lam in signatures(n, -2, 3 if n < 4 else 2):
            want = [chain for chain in box_chains(lam, 1) if decreasing(tilde_weight(chain, 1))]
            assert walked_chains(lam, 1, dominant=True) == want, lam
            counts = lattice_sum(lam, 1, lambda mu, nu: 1, 1, int_dot, dominant=True)
            assert counts == Counter(tilde_weight(chain, 1) for chain in want), lam
    assert walked_chains((2, 1, 0), 1, dominant=True) == [((1,), (1, 1), (2, 1, 0)),
                                                           ((1,), (2, 0), (2, 1, 0)),
                                                           ((2,), (2, 1), (2, 1, 0))]


def test_window_matches_box_filter():
    # The window as the lex-ordered filter of the box [lam_n - (k-1), lam_1]^(n-1).
    for n in (1, 2, 3, 4):
        for lam in signatures(n, -2, 2):
            for k in (1, 2, 3):
                box = product(range(lam[-1] - (k - 1), lam[0] + 1), repeat=n - 1)
                expected = [mu for mu in box if in_level_window(mu, lam, k)]
                assert interlacing_signatures(lam, k) == expected, (lam, k)
    assert interlacing_signatures((2, 0)) == [(0,), (1,), (2,)]


def test_shifted_chains_match_box_filter():
    # Row l of a level-k chain lies in [lam_n - (n-1)(k-1), lam_1]^l.
    for n in (1, 2, 3):
        for lam in signatures(n, -2, 2):
            for k in (1, 2, 3):
                vals = range(lam[-1] - (n - 1) * (k - 1), lam[0] + 1)
                rows = [list(product(vals, repeat=l)) for l in range(1, n)]
                expected = sorted(
                    chain + (lam,) for chain in product(*rows)
                    if all(in_level_window(a, b, k)
                           for a, b in zip(chain, chain[1:] + (lam,))))
                assert walked_chains(lam, k) == expected, (lam, k)
    with pytest.raises(ValueError):
        lattice_sum((0, 0), 0, lambda mu, nu: 1, 1, int_dot)


def test_partitions_match_filtered_product():
    for d in range(7):
        for n in range(5):
            expected = [t for t in product(range(d, -1, -1), repeat=n)
                        if sum(t) == d and decreasing(t)]
            assert partitions(d, n) == expected, (d, n)


def test_chain_window_example():
    assert sorted(c[0] for c in walked_chains((0, 0), 2)) == [(-1,), (0,)]
    assert lattice_sum((0, 0), 2, lambda mu, nu: 1, 1, int_dot) == {(-1, 0): 1, (0, -1): 1}


def test_chain_count_equals_shifted_gt_count():
    for (lam, k) in [((1, 0), 2), ((2, 0), 2), ((1, 1, 0), 2), ((1, 0, 0), 3)]:
        assert pattern_count(lam, k) == pattern_count(shift(lam, k, "tilde"))


def test_chain_rows_interlace_in_tilde_coordinates():
    for chain in walked_chains((2, 1, 0), 2):
        tilded = [shift(row, 2, "tilde") for row in chain]
        for a, b in zip(tilded, tilded[1:]):
            assert interlaces(a, b)


def test_signature_text_roundtrip():
    assert parse_signature("2,1,0") == (2, 1, 0)
    assert parse_signature("1,-1") == (1, -1)
    assert parse_signature("") == ()
    assert format_signature((1, -1)) == "1,-1"
    with pytest.raises(ValueError):
        parse_signature("1,2")
    with pytest.raises(ValueError):
        parse_signature("a,b")


def test_check_signature():
    assert check_signature([2, 1, -1], 3) == (2, 1, -1)
    assert check_signature((), 0) == ()
    length = "signature length must equal the variable count"
    dominant = "signature must be dominant"
    callers = [lambda lam, n: macdonald_eigen(lam, n),
               lambda lam, n: macdonald_branch(lam, n),
               lambda lam, n: macdonald_gt(lam, n),
               lambda lam, n: trace_reconstruct(lam, n, 2),
               lambda lam, n: branch_reconstruct_qk(lam, n, 2),
               check_signature]
    for call in callers:
        with pytest.raises(ValueError, match=length):
            call((2, 1), 3)
        with pytest.raises(ValueError, match=dominant):
            call((0, 1), 2)


def test_chain_sum_matches_per_edge_products():
    # One reduction per lattice state prints what reducing every edge
    # product and then each state's sum printed: the Gelfand-Tsetlin sums
    # over Q(q, t) on the dominant chains, and level-k sums over Q(q) of
    # every chain with links of distinct denominators.
    p = generic_params()
    t2 = p.thalf ** 2

    def psi_link(mu, nu):
        return _psi(nu, mu, p.shift, t2)

    def q_link(mu, nu):
        return sum(mu) + 1 - (CR_ONE + UnitMono.q(abs(sum(nu) - sum(mu)) + 1)).inv()

    cases = ([(lam, 1, psi_link, True) for lam in partitions_upto(5, 3) + partitions_upto(4, 4)]
             + [(lam, k, q_link, False)
                for lam, k in [((2, 1, 0), 2), ((1, 0, 0), 3), ((2, 0, 0, 0), 2)]])
    for lam, k, link, dominant in cases:
        got = chain_sum(lam, k, link, dominant)
        want = lattice_sum_oracle(lam, k, link, CR_ONE, rat_sum, dominant)
        assert {w: str(c) for w, c in got.items()} == {w: str(c) for w, c in want.items()}, lam
