from fractions import Fraction
from itertools import product

import pytest

from conftest import partitions_upto, schur_oracle

from macdaha.combinat import (GTPattern, chain_weight, check_signature, dominant_chains,
                              format_signature, gt_enumerate, gt_weight, interlaces,
                              interlacing_signatures,
                              is_dominant, kostka_dominant, parse_signature,
                              partitions, rho, rho_tilde, shift,
                              shifted_chain_enumerate)
from macdaha.intertwiner import branch_reconstruct_qk, trace_reconstruct
from macdaha.macops import macdonald_branch, macdonald_eigen, macdonald_gt
from macdaha.npoly import NPoly
from macdaha.qfield import CR_ONE
from macdaha.sympoly import from_npoly


def decreasing(t):
    return all(t[i] >= t[i + 1] for i in range(len(t) - 1))


def signatures(n, lo, hi):
    """Weakly decreasing n-tuples with entries in [lo, hi], filtered from the box."""
    return [t for t in product(range(lo, hi + 1), repeat=n) if decreasing(t)]


def in_level_window(mu, lam, k):
    return all(lam[i + 1] - (k - 1) <= mu[i] <= lam[i] for i in range(len(mu)))


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
    assert len(gt_enumerate((1, 0))) == 2
    assert len(gt_enumerate((2, 0))) == 3
    assert len(gt_enumerate((1, 1, 0))) == 3


def test_gt_counts_match_weyl_dimension():
    for n in (2, 3, 4):
        for lam in partitions_upto(6 if n < 4 else 4, n):
            assert len(gt_enumerate(lam)) == weyl_dim(lam), lam


def test_patterns_interlace_and_order_is_deterministic():
    pats = gt_enumerate((2, 1, 0))
    for p in pats:
        for l in range(len(p.rows) - 1):
            assert interlaces(p.rows[l], p.rows[l + 1])
    keys = [p.sort_key() for p in pats]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_gt_weight_values():
    up, down = gt_enumerate((1, 0))
    weights = {gt_weight(p) for p in (up, down)}
    assert weights == {(1, 0), (0, 1)}


def test_gt_weight_sum_is_schur():
    for lam in [(1, 0), (2, 0), (2, 1), (2, 1, 0), (3, 1, 0)]:
        n = len(lam)
        acc = NPoly.zero(n)
        for p in gt_enumerate(lam):
            acc = acc + NPoly.monomial(gt_weight(p), CR_ONE)
        assert from_npoly(acc) == schur_oracle(lam, n)


def test_kostka_dominant_counts_gt_patterns():
    for lam in [(), (0,), (-2,), (1, 0), (2, 1, 0), (3, 1, 0), (2, 2, 1, 0),
                (1, -1), (0, -1, -3), (3, 1, 1, -2)]:
        counts = {}
        for p in gt_enumerate(lam):
            nu = gt_weight(p)
            if is_dominant(nu):
                counts[nu] = counts.get(nu, 0) + 1
        assert kostka_dominant(lam) == counts, lam
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
    for n in (1, 2, 3, 4):
        for lam in signatures(n, -2, 2 if n < 4 else 1):
            chains = shifted_chain_enumerate(lam, 1)
            assert [p.rows for p in gt_enumerate(lam)] == chains, lam
    assert gt_enumerate(()) == [GTPattern(rows=())]


def test_dominant_chains_are_the_patterns_of_dominant_weight():
    # The pruned walk against a filter of every pattern, weights from row sums.
    for n in (1, 2, 3, 4):
        for lam in signatures(n, -2, 3 if n < 4 else 2):
            want = []
            for chain in shifted_chain_enumerate(lam, 1):
                sums = [sum(row) for row in chain]
                w = tuple(b - a for a, b in zip([0] + sums, sums))
                if decreasing(w):
                    want.append(chain)
                assert chain_weight(chain) == w
            assert sorted(dominant_chains(lam)) == want, lam
    assert sorted(dominant_chains((2, 1, 0))) == [((1,), (1, 1), (2, 1, 0)),
                                                  ((1,), (2, 0), (2, 1, 0)),
                                                  ((2,), (2, 1), (2, 1, 0))]
    assert chain_weight(((),)) == ()


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
                    (chain + (lam,) for chain in product(*rows)
                     if all(in_level_window(a, b, k)
                            for a, b in zip(chain, chain[1:] + (lam,)))),
                    key=lambda ch: tuple(x for row in ch for x in row))
                assert shifted_chain_enumerate(lam, k) == expected, (lam, k)


def test_partitions_match_filtered_product():
    for d in range(7):
        for n in range(5):
            expected = [t for t in product(range(d, -1, -1), repeat=n)
                        if sum(t) == d and decreasing(t)]
            assert partitions(d, n) == expected, (d, n)


def test_chain_window_example():
    chains = shifted_chain_enumerate((0, 0), 2)
    assert sorted(c[0] for c in chains) == [(-1,), (0,)]


def test_chain_count_equals_shifted_gt_count():
    for (lam, k) in [((1, 0), 2), ((2, 0), 2), ((1, 1, 0), 2), ((1, 0, 0), 3)]:
        shifted_top = shift(lam, k, "tilde")
        assert len(shifted_chain_enumerate(lam, k)) == \
            len(gt_enumerate(shifted_top))


def test_chain_rows_interlace_in_tilde_coordinates():
    for chain in shifted_chain_enumerate((2, 1, 0), 2):
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


def test_gtpattern_validation():
    with pytest.raises(ValueError):
        GTPattern(rows=((3,), (2, 0)))
    with pytest.raises(ValueError):
        GTPattern(rows=((1, 0),))
