import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (box_chains, cg_diag_sq, cg_reduced_squared, delta1_oracle,
                      delta2_oracle, delta_cross_oracle, eval_fraction, keyed, limit_oracle,
                      listed, live_terms, partitions_upto, perturbed,
                      principal_specialization_holds, psi_qnum_oracle, route_factor_lists,
                      s_factorial_sq, trace_ratio_oracle, _telescope, _unit_atoms, _zero_atoms,
                      window)

from macdaha import clear_caches, intertwiner, qfield, suites
from macdaha.combinat import interlacing_signatures
from macdaha.combinat import shift as sig_shift
from macdaha.intertwiner import (_limit, branch_reconstruct_qk, c_squared_chain,
                                 diag_coeff_sum, ek_denominator, mat_elt, psi_qnum, trace_ratio,
                                 trace_reconstruct)
from macdaha.macops import macdonald_qk, psi_branch
from macdaha.npoly import NPoly
from macdaha.qfield import (CR_ONE, CR_ZERO, CoeffRat, DomainViolationError,
                            LaurentQT, UnitMono, qfall, qnum)

q = UnitMono.q


def test_delta_factors_at_k1():
    # the Delta products of the psi_qnum oracle
    assert delta1_oracle((3, 1), 1) == CR_ONE
    assert delta2_oracle((3, 1), 1) == CR_ONE
    assert delta_cross_oracle((1,), (2, 0), 1) == CR_ONE


def test_delta_factors_values():
    # bar(3,1) = (3,-1): [3-(-1)+1]_1 = [5]
    assert delta1_oracle((3, 1), 2) == qnum(5)
    assert delta2_oracle((3, 1), 2) == qnum(3)
    # cross((1,),(2,0)): [bar(2)-bar(1)+1]_1 [bar(1)-bar(0,2nd)-1]_1
    assert delta_cross_oracle((1,), (2, 0), 2) == qnum(2) * qnum(2)
    assert delta1_oracle([3, 1], 2) == qnum(5)
    assert delta2_oracle([3, 1], 2) == qnum(3)
    assert delta_cross_oracle([1], [1, 0], 2) == delta_cross_oracle((1,), (1, 0), 2)


def test_psi_qnum_is_the_delta_oracle():
    # Byte-identical strings over every mu interlacing a shifted lam, in up
    # to 4 variables; the sweep meets [0] nowhere (every Delta factor is
    # nonzero on interlacing pairs) but cancels across all four products.
    clear_caches()
    points = 0
    for n, top, ks in ((2, 8, range(1, 11)), (3, 5, range(1, 8)), (4, 4, range(1, 6))):
        for lam in partitions_upto(top, n):
            lam = tuple(x - 1 for x in lam)
            for mu in interlacing_signatures(lam):
                for k in ks:
                    assert str(psi_qnum(lam, mu, k)) == str(psi_qnum_oracle(lam, mu, k)), \
                        (lam, mu, k)
                    points += 1
    assert points == 1541


def test_psi_qnum_runs_no_gcd(monkeypatch):
    # The branching coefficient takes qfall_ratio alone: no gcd and no
    # canonical reduction, also where a falling q-factorial multiplied out
    # would reach degree 2090 in q ([65]_19 here).
    def raising(*args):
        raise AssertionError("gcd or canonical reduction called")

    clear_caches()
    monkeypatch.setattr(qfield, "_gcd_cofactors", raising)
    monkeypatch.setattr(qfield, "_canonical", raising)
    value = psi_qnum((6, 3, 1, 0), (5, 2, 0), 20)
    assert value != CR_ZERO and value.den != CR_ONE.den


def test_psi_qnum_trivial_k1():
    for lam in [(1, 0), (2, 1), (2, 1, 0)]:
        for mu in interlacing_signatures(lam):
            assert psi_qnum(lam, mu, 1) == CR_ONE


def test_psi_qnum_frozen_value():
    num = LaurentQT({(0, 0): 1, (2, 0): 1}) ** 2
    den = LaurentQT({(0, 0): 1, (2, 0): 1, (4, 0): 1})
    assert psi_qnum((2, 0), (1,), 2) == CoeffRat(num, den)


def test_psi_qnum_shift_invariance():
    assert psi_qnum((3, 1), (2,), 2) == psi_qnum((4, 2), (3,), 2)
    assert psi_qnum((2, 1, 0), (1, 1), 3) == psi_qnum((3, 2, 1), (2, 2), 3)


def test_psi_qnum_matches_generic_specialization():
    for k in (1, 2, 3):
        for (lam, mu) in [((1, 0), (0,)), ((2, 0), (1,)), ((1, 1), (1,)),
                          ((2, 1), (1,)), ((2, 1, 0), (1, 1)), ((3, 1), (2,))]:
            a = psi_qnum(lam, mu, k)
            b = psi_branch(lam, mu).subst(q(2), q(2 * k))
            assert a == b, (lam, mu, k)


def test_psi_qnum_rejects_noninterlacing():
    with pytest.raises(ValueError):
        psi_qnum((2, 0), (3,), 2)


def test_c_trivial_cases():
    assert diag_coeff_sum((), (4,), 3) == CR_ONE
    assert mat_elt((), (4,), 3) == CR_ONE
    for lam in [(1, 0), (2, 1, 0)]:
        for mu in window(lam, 1):
            assert diag_coeff_sum(mu, lam, 1) == CR_ONE
            assert mat_elt(mu, lam, 1) == CR_ONE
            assert c_squared_chain(mu, lam, 1) == CR_ONE


def test_c_frozen_small_values():
    assert diag_coeff_sum((0,), (0, 0), 2) == CR_ONE
    assert diag_coeff_sum((-1,), (0, 0), 2) == -(q(2).as_coeffrat())
    assert mat_elt((0,), (0, 0), 2) == CR_ONE
    assert mat_elt((-1,), (0, 0), 2) == -(q(2).as_coeffrat())


def test_route_equality_small():
    for lam in [(1, 0), (1, 1), (2, 0), (1, 1, 0)]:
        for k in (2, 3, 4):
            for mu in window(lam, k):
                a = diag_coeff_sum(mu, lam, k)
                assert a == mat_elt(mu, lam, k), (mu, lam, k)
                assert a * a == c_squared_chain(mu, lam, k), (mu, lam, k)


def test_route_equality_boundary_rows():
    # tilde-dominant but not dominant upper rows occur inside trace chains
    for (mu, lam, k) in [((0,), (0, 1), 2), ((0,), (0, 1), 3),
                         ((0, 0), (1, 0, 1), 2)]:
        a = diag_coeff_sum(mu, lam, k)
        assert a == mat_elt(mu, lam, k)
        assert a * a == c_squared_chain(mu, lam, k)


def test_vanishing_outside_window():
    # The Clebsch-Gordan route vanishes identically outside the window; the
    # box-summation and operator displays do not encode the window (their
    # value off-window is generally nonzero and unused by the trace and
    # branching pipelines, which only index window points).
    for k in (2, 3):
        for lam in [(1, 0), (2, 0)]:
            lo = lam[1] - 2 * (k - 1)
            hi = lam[0] + k - 1
            for mu0 in range(lo, hi + 1):
                if lam[1] - (k - 1) <= mu0 <= lam[0]:
                    continue
                assert c_squared_chain((mu0,), lam, k).is_zero(), (mu0, lam, k)
    assert c_squared_chain((-4, -3), (1, 0, 0), 2).is_zero()
    # recorded counterexamples for the box summation off-window:
    assert diag_coeff_sum((-2,), (1, 0), 2) == -(qnum(4) / qnum(2))
    assert diag_coeff_sum((-2, -1), (1, 0, 0), 1) == mat_elt((-2, -1), (1, 0, 0), 1)


def test_s_factorial_sq():
    # S((2,0),(2,0))^2 = [0]! [3]! [0]! / [2]! = [3]
    assert s_factorial_sq((2, 0), (2, 0)) == qnum(3)
    assert s_factorial_sq((), ()) == CR_ONE
    with pytest.raises(ValueError):
        s_factorial_sq((0, 0), (2, 0))


def test_cg_window_empty_gives_zero():
    # sigma window empty: eta above tau
    assert cg_reduced_squared((0, 0), 2, (1, -1), (1,), 1, (1,)) == CR_ZERO


def test_cg_diagonal_closed_form():
    for (lam, k) in [((2, 0), 2), ((3, 1), 2), ((2, 1, 0), 2), ((2, 0), 3),
                     ((3, 1, 0), 3)]:
        n = len(lam)
        tl = sig_shift(lam, k, "tilde")
        tm = sig_shift(lam[:n - 1], k, "tilde")
        v = cg_reduced_squared(tuple(x - (k - 1) for x in tl), n * (k - 1), tl,
                               tuple(x - (k - 1) for x in tm),
                               (n - 1) * (k - 1), tm)
        lb = [lam[i] - k * i for i in range(n)]
        cf = UnitMono.q(-(n - 1) * k * (k - 1)).as_coeffrat()
        for i in range(n - 1):
            cf = cf * qfall(lb[i] - lb[n - 1] - 1, k - 1) \
                / qfall(lb[i] - lb[n - 1] + k - 1, k - 1)
        assert v == cf, (lam, k)
        assert v == cg_diag_sq(lam, n, k) / cg_diag_sq(lam[:n - 1], n - 1, k)
        # the closed pieces are the reference for the regularized chain at
        # window points with dominant mu, where none of them hits a pole
        for mu in window(lam, k):
            if any(mu[i] < mu[i + 1] for i in range(n - 2)):
                continue
            tm = sig_shift(mu, k, "tilde")
            c2 = cg_reduced_squared(tuple(x - (k - 1) for x in tl), n * (k - 1),
                                    tl, tuple(x - (k - 1) for x in tm),
                                    (n - 1) * (k - 1), tm)
            assert c_squared_chain(mu, lam, k) == \
                c2 * cg_diag_sq(mu, n - 1, k) / cg_diag_sq(lam, n, k), (mu, lam, k)


def test_ek_denominator():
    assert ek_denominator(2, 1) == NPoly.one(2)
    assert ek_denominator(1, 4) == NPoly.one(1)
    d = ek_denominator(2, 2)
    assert d.terms == {(0, -1): CR_ONE, (-1, 0): -q(2).as_coeffrat()}


def test_trace_base_cases():
    for n in (1, 2, 3):
        assert trace_reconstruct((0,) * n, n, 2) == ek_denominator(n, 2)
    assert trace_reconstruct((3,), 1, 2) == NPoly(1, {(3,): CR_ONE})


def test_trace_schur_at_k1():
    for lam in [(1, 0), (2, 1), (2, 1, 0)]:
        n = len(lam)
        assert trace_ratio(lam, n, 1) == macdonald_qk(lam, n, 1)


def test_trace_ratio_small():
    for lam in [(1, 0), (2, 0), (1, 1)]:
        assert trace_ratio(lam, 2, 2) == macdonald_qk(lam, 2, 2)
    assert trace_ratio((1, 1, 0), 3, 2) == macdonald_qk((1, 1, 0), 3, 2)


def test_trace_k3_two_variables():
    for lam in [(1, 0), (2, 0)]:
        assert trace_ratio(lam, 2, 3) == macdonald_qk(lam, 2, 3)


def test_trace_four_variables():
    assert trace_ratio((1, 0, 0, 0), 4, 3) == macdonald_qk((1, 0, 0, 0), 4, 3)


def test_trace_four_variables_level_four():
    # 6240 chains; about 1.2 s on a 2-vCPU Xeon (4 s before the limit
    # engine dropped dead terms, 7 s with a per-chain sum)
    assert trace_ratio((1, 0, 0, 0), 4, 4) == macdonald_qk((1, 0, 0, 0), 4, 4)


def test_trace_four_variables_level_four_two_rows():
    # 787 link classes; 2.0-2.5 s on a 2-vCPU Xeon (5.8-6.2 s before the
    # limit engine dropped dead terms and merged directions at order 0).
    # The trace is also P_lam(x; q^2, q^8) at x = (1, T, T^2, T^3), T = q^8,
    # by the principal specialization, which a one-coefficient change breaks.
    lam = (2, 1, 0, 0)
    tr = trace_ratio(lam, 4, 4)
    assert tr == macdonald_qk(lam, 4, 4)
    params = lambda q, t: (q ** 2, q ** 8)
    assert principal_specialization_holds(tr, lam, random.Random(4), params)
    assert not principal_specialization_holds(perturbed(tr), lam, random.Random(4), params)


def test_trace_five_variables_principal_specialization():
    # The level-k walk in 5 variables: P_lam(x; q^2, q^4) at
    # x = (1, T, ..., T^4), T = q^4, which a one-coefficient change breaks.
    lam = (2, 0, 0, 0, 0)
    tr = trace_ratio(lam, 5, 2)
    params = lambda q, t: (q ** 2, q ** 4)
    assert principal_specialization_holds(tr, lam, random.Random(5), params)
    assert not principal_specialization_holds(perturbed(tr), lam, random.Random(5), params)


def _trace_sweep():
    """(lam, n, k) for n <= 4, k <= 3 and every partition of size <= 3,
    translated by -1, 0 or 1 in turn."""
    cases = []
    for n in range(1, 5):
        for k in range(1, 4):
            for i, lam in enumerate(partitions_upto(3, n)):
                cases.append((tuple(x + i % 3 - 1 for x in lam), n, k))
    return cases


def test_trace_ratio_matches_reduced_carry_oracle():
    # The division over one common denominator, with each lattice state
    # reduced once, prints exactly what reducing every edge product and
    # carrying reduced fractions through each binomial printed.
    for lam, n, k in _trace_sweep():
        assert str(trace_ratio(lam, n, k)) == str(trace_ratio_oracle(lam, n, k)), (lam, n, k)


def test_ek_division_runs_no_gcd(monkeypatch):
    # Over one common denominator every carry step of the EK division is a
    # shift and an add of Laurent polynomials; the reduced carry of the
    # oracle runs gcds, which shows that the counter sees the carry.
    gcd, divide = qfield._gcd_cofactors, NPoly.divexact_binomial
    calls, seen = [], []

    def counting(A, B):
        calls.append(None)
        return gcd(A, B)

    def watched(self, i, j, c=None):
        before = len(calls)
        out = divide(self, i, j, c)
        seen.append(len(calls) - before)
        return out

    monkeypatch.setattr(qfield, "_gcd_cofactors", counting)
    monkeypatch.setattr(NPoly, "divexact_binomial", watched)
    oracle_gcds = 0
    for lam, n, k in [((2, 0), 2, 3), ((2, 1, 0), 3, 2), ((2, 1, 0), 3, 3), ((1, 0, 0, 0), 4, 2)]:
        clear_caches()
        seen.clear()
        before = len(calls)
        got = trace_ratio(lam, n, k)
        assert len(calls) > before
        assert seen == [0] * ((k - 1) * n * (n - 1) // 2), (lam, n, k)
        seen.clear()
        assert got == trace_ratio_oracle(lam, n, k)
        oracle_gcds += sum(seen)
    assert oracle_gcds > 0


def _sympy_coeff(c, sympy, q):
    """The CoeffRat c, in which t does not occur, as a sympy expression in q."""
    def value(terms):
        assert all(b == 0 for _, b in terms)
        return sum(m * q ** a for (a, _), m in terms.items())
    return value(c.num.terms) / value(c.den.terms)


@pytest.mark.parametrize("lam,n,k", [((0, 0), 2, 2), ((2, 1), 2, 3), ((1, 0, 0), 3, 2),
                                     ((2, 1, 0), 3, 2)])
def test_chain_sum_is_ek_denominator_times_polynomial(lam, n, k):
    # trace_reconstruct before any division: the chain sum equals
    # (x_1...x_n)^{-(k-1)(n-1)} prod_{s<k} prod_{i<j} (x_i - q^{2s} x_j)
    # times P_lam(x; q^2, q^{2k}), with the product expanded by sympy from
    # its formula and m_nu summed over the rearrangements of nu.
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    xs = sympy.symbols(f"x1:{n + 1}")

    def monomial(exps):
        return sympy.Mul(*(x ** e for x, e in zip(xs, exps)))

    ek = sympy.Mul(*(xs[i] - q ** (2 * s) * xs[j] for s in range(1, k)
                     for i in range(n) for j in range(i + 1, n)))
    ek = ek / sympy.Mul(*xs) ** ((k - 1) * (n - 1))
    p = sum(_sympy_coeff(c, sympy, q) * sum(monomial(e) for e in set(permutations(sig)))
            for sig, c in macdonald_qk(lam, n, k).terms.items())
    chain = sum(_sympy_coeff(c, sympy, q) * monomial(e)
                for e, c in trace_reconstruct(lam, n, k).terms.items())
    assert sympy.cancel(chain - ek * p) == 0
    assert sympy.cancel(chain + 1 - ek * p) != 0


def test_routes_are_translation_invariant():
    # every route atom is a difference of coordinates, so
    # c(mu + s, lam + s) = c(mu, lam); trace_reconstruct relies on it
    rng = random.Random(12)
    pts = [(mu, lam, k) for n in (2, 3) for k in (1, 2, 3)
           for lam in partitions_upto(2, n) for mu in window(lam, k)]
    for mu, lam, k in rng.sample(pts, 24):
        s = rng.choice([x for x in range(-3, 4) if x])
        mus, lams = tuple(x + s for x in mu), tuple(x + s for x in lam)
        for route in (diag_coeff_sum, mat_elt, c_squared_chain):
            assert route(mus, lams, k) == route(mu, lam, k), (route.__name__, mu, lam, k, s)


def test_trace_reconstruct_equals_per_chain_sum():
    # trace_reconstruct computes each translation class of links
    # (mu^i, mu^{i+1}) once per call and sums the chains level by level;
    # the plain sum re-evaluates every link of every chain and multiplies
    # each chain out.  (1, 0, -1) and (1, 0, 0, 0) have many links per
    # class, and (2, 1, 0) at k = 4 many chains per state.
    for lam, k in [((2, 1, 0), 2), ((3, 1, 0), 2), ((2, 0, 0), 3),
                   ((1, 0, -1), 3), ((1, 0, 0, 0), 2), ((2, 1, 0), 4)]:
        n = len(lam)
        acc = NPoly.zero(n)
        for chain in box_chains(lam, k):
            coeff = CR_ONE
            for i in range(n - 1):
                coeff = coeff * diag_coeff_sum(chain[i], chain[i + 1], k)
            tsums = [sum(sig_shift(row, k, "tilde")) for row in chain]
            exps = tuple(tsums[i] - (tsums[i - 1] if i else 0) for i in range(n))
            acc = acc + NPoly.monomial(exps, coeff)
        assert trace_reconstruct(lam, n, k) == acc, (lam, k)


def test_branch_reconstruction_small():
    for k in (1, 2, 3):
        for lam in [(1, 0), (2, 0), (2, 1), (1, 1, 0)]:
            n = len(lam)
            assert branch_reconstruct_qk(lam, n, k) == macdonald_qk(lam, n, k)


def test_preconditions():
    with pytest.raises(ValueError):
        diag_coeff_sum((0, 0), (1, 0), 2)
    with pytest.raises(ValueError):
        mat_elt((0,), (1, 0), 0)
    with pytest.raises(ValueError):
        trace_reconstruct((0, 1), 2, 2)


# ---------------------------------------------------------------------------
# The packed limit engine against the truncated-series oracle.

def _frozen(factors):
    """A hashable copy of keyed factors."""
    return tuple((tuple((sign, qa, tuple(sorted(zero.items())), tuple(sorted(units.items())), ex)
                        for sign, qa, zero, units, ex in terms), tuple(sorted(zden.items())), p)
                 for terms, zden, p in factors)


def _route_factors(monkeypatch, points, routes=(diag_coeff_sum, mat_elt, c_squared_chain)):
    """Every distinct keyed factor list the routes hand to _limit at the
    points (mu, lam, k)."""
    seen = {}

    def spy(factors):
        seen.setdefault(_frozen(factors), factors)
        return _limit(factors)

    monkeypatch.setattr(intertwiner, "_limit", spy)
    for mu, lam, k in points:
        for route in routes:
            route(mu, lam, k)
    monkeypatch.undo()
    return list(seen.values())


def test_limit_matches_oracle_on_route_factors(monkeypatch):
    # every distinct factor list the three routes hand to _limit on the
    # criterion-08 set, the n = 3, k = 4 window set and the n = 2, k = 4, 5
    # windows (the keyed lists carry no dead terms, so the first two sets
    # give 964 distinct lists where the atom lists were over 1000)
    points = [(mu, lam, k) for n in (2, 3) for lam in partitions_upto(4, n)
              for k in (1, 2, 3) for mu in window(lam, k)]
    points += [(mu, lam, 4) for lam in partitions_upto(3, 3) for mu in window(lam, 4)]
    points += [(mu, lam, k) for lam in partitions_upto(4, 2) for k in (4, 5)
               for mu in window(lam, k)]
    lists = _route_factors(monkeypatch, points)
    assert len(lists) > 1000
    for factors in lists:
        assert _limit(factors) == limit_oracle(listed(factors))


def _net(terms):
    """Keyed terms with their zero counts dropped, in one order."""
    return sorted((sign, qa, sorted((d, v) for d, v in zero.items() if v),
                   sorted((key, v) for key, v in units.items() if v), excess)
                  for sign, qa, zero, units, excess in terms)


def test_keyed_builders_match_list_oracles(monkeypatch):
    # Each route hands _limit the net atom counts of the atom lists it built
    # before, over the same common denominators, and _limit keeps the same
    # terms of both; the one-sum routes hand it live terms only.  At n = 2,
    # k <= 5 and n = 3, k <= 3, shifted, and off the window too.
    points = [(tuple(x + s for x in mu), tuple(x + s for x in lam), k)
              for n, kmax in ((2, 5), (3, 3)) for k in range(1, kmax + 1)
              for lam in partitions_upto(3, n) for mu in window(lam, k) for s in (-2, 3)]
    off = [((-2,), (1, 0), 2), ((3,), (1, 0), 3), ((-2, -1), (1, 0, 0), 2), ((2, 2), (1, 0, 0), 3)]
    for route in (diag_coeff_sum, mat_elt, c_squared_chain):
        for mu, lam, k in points + (off if route is not c_squared_chain else []):
            got = _route_factors(monkeypatch, [(mu, lam, k)], (route,))[0]
            want = keyed(route_factor_lists(route.__name__, mu, lam, k))
            assert [(_net(terms), zden, p) for terms, (_, zden, p) in zip(live_terms(got), got)] == \
                [(_net(terms), zden, p) for terms, (_, zden, p) in zip(live_terms(want), want)], \
                (route.__name__, mu, lam, k)
            if route is not c_squared_chain:
                assert live_terms(got) == [terms for terms, _, _ in got]


def test_unit_atoms_only_for_live_terms(monkeypatch):
    # On the points of the seed-1 `routes` benchmark round, the box sum and
    # the operator route count the atoms c != 0 of their live terms only
    # (179 of 661 and 203 of 882), besides the atoms shared by every term.
    pool = [(mu, lam, k) for k in (2, 3) for lam in partitions_upto(6, 2) for mu in window(lam, k)]
    points = [(mu, lam, 3) for lam in ((0, 0, 0), (1, 0, 0), (1, 1, 1)) for mu in window(lam, 3)]
    points += [(mu, lam, 2) for lam in partitions_upto(4, 3) for mu in window(lam, 2)]
    points += random.Random("routes:1").sample(pool, 20)
    units = intertwiner._runs_units
    calls = []

    def counted(*args):
        calls.append(args)
        return units(*args)

    counts = {}
    for route in (diag_coeff_sum, mat_elt):
        monkeypatch.setattr(intertwiner, "_runs_units", counted)
        calls.clear()
        for mu, lam, k in points:
            route(mu, lam, k)
        monkeypatch.undo()
        built = len(calls) - len(points)
        lists = [route_factor_lists(route.__name__, mu, lam, k) for mu, lam, k in points]
        live = sum(len(terms) for f in lists for terms in live_terms(keyed(f)))
        counts[route.__name__] = built, live, sum(len(terms) for f in lists for terms, _ in f)
    assert counts == {"diag_coeff_sum": (179, 179, 661), "mat_elt": (203, 203, 882)}


def test_factorial_runs_match_telescoping():
    # [a]!/[b]! = F(a) - F(b): the runs F(x) of a set of factorials have the
    # net atom counts of the paired, telescoped atom lists, and both reject
    # an unpaired negative argument.
    rng = random.Random(1412)
    raised = 0
    for _ in range(300):
        facts = [(rng.randint(-5, 6), rng.choice((-2, -1, 1, 2)), rng.choice((-1, 1)), ())
                 for _ in range(rng.randint(0, 8))]
        fnum = [(x, d) for x, d, s, _ in facts if s > 0]
        fden = [(x, d) for x, d, s, _ in facts if s < 0]
        try:
            num, den = _telescope(fnum, fden)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError, match="inadmissible pattern"):
                intertwiner._fact_runs(facts)
            continue
        runs = intertwiner._fact_runs(facts)
        sign, zero = _zero_atoms(UnitMono(1, 0, 0), num, den)
        units = {}
        want = (_unit_atoms(num, den, sign, units, 1), 0, zero, units, len(den) - len(num))
        zero = intertwiner._runs_zero(runs, {})
        units = {}
        flips, excess = intertwiner._runs_units(runs, units, 1)
        assert _net([(-1 if flips % 2 else 1, 0, zero, units, excess)]) == _net([want])
    assert 50 < raised < 250


def _keyed_limit(factors):
    """_limit of list-form factors."""
    return _limit(keyed(factors))


def _difference_sum(rng, M, natoms):
    """Terms whose sum has a numerator series starting at eps^M.

    M c = 0 atoms sit in a shared denominator.  The numerators are the M-th
    finite difference, repeated by binomial multiplicity, of one atom
    product whose directions move along a fixed step: the eps^j coefficient
    of that product is a polynomial of degree j in the step, so every
    coefficient below eps^M cancels in the sum.  One more term has as many
    c = 0 atoms above its line as below, so it starts at eps^M on its own.
    """
    den = [(0, rng.choice([-1, 1]) * rng.randint(1, 10)) for _ in range(M)]
    den += [(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(-10, 10))
            for _ in range(rng.randint(0, 3))]
    base = [(rng.randint(-4, 4), rng.randint(-6, 6)) for _ in range(natoms)]
    steps = [rng.randint(-1, 1) for _ in base]
    qa = rng.randint(-3, 3)
    terms = []
    for i in range(M + 1):
        num = [(c, d + i * e) for (c, d), e in zip(base, steps)]
        terms += [(UnitMono(-1 if i % 2 else 1, qa, 0), num, den)] * comb(M, i)
    sub = rng.sample(den, rng.randint(0, len(den)))
    num = [(0, rng.randint(1, 10)) for c, _ in sub if c == 0]
    num += [(rng.randint(1, 4), rng.randint(-10, 10)) for _ in range(natoms // 2)]
    terms.append((UnitMono(1, rng.randint(-3, 3), 0), num, sub))
    return terms


def test_limit_matches_oracle_on_synthetic_factors():
    # M >= 4, |d| <= 10, and products wide enough for coefficients above 2^64
    rng = random.Random(2014)
    widest = 0
    for case in range(24):
        if case % 3 == 0:
            factors = [(_difference_sum(rng, 4, rng.randint(4, 12)), 1)]
        elif case % 3 == 1:
            factors = [(_difference_sum(rng, 2, rng.randint(4, 12)), 2),
                       (_difference_sum(rng, 1, rng.randint(2, 6)), 1)]
        else:
            factors = [(_difference_sum(rng, 2, 40), 2)]
        value = _keyed_limit(factors)
        assert value == limit_oracle(factors), case
        coeffs = list(value.num.terms.values()) + list(value.den.terms.values())
        widest = max(widest, max(map(abs, coeffs)))
    assert widest > 1 << 64


def test_limit_raise_paths():
    one = UnitMono(1, 0, 0)
    # 1 / [z]: the eps^0 numerator coefficient survives over an eps^1 lead
    pole = [([(one, [], [(0, 1)])], 1)]
    # ([2 + z] - [2 + 2z]) / [z] is finite at z = 0; adding 1 / [3z] to it
    # leaves a simple pole, and squaring the sum a double one
    diff = [(one, [(2, 1)], [(0, 1)]), (UnitMono(-1, 0, 0), [(2, 2)], [(0, 1)])]
    for factors in (pole, [(diff + [(one, [(1, 0)], [(0, 3)])], 2)]):
        for engine in (_keyed_limit, limit_oracle):
            with pytest.raises(DomainViolationError, match="pole at the regularization limit"):
                engine(factors)
    assert _keyed_limit([(diff, 2)]) == limit_oracle([(diff, 2)])
    vanishing = [([(one, [(3, 1)], [(2, 5), (0, 0)])], 1)]
    for engine in (_keyed_limit, limit_oracle):
        with pytest.raises(DomainViolationError, match="identically vanishing denominator"):
            engine(vanishing)
    # an identically zero numerator atom kills its term before the check
    assert _keyed_limit([([(one, [(0, 0)], [(0, 0)])], 1)]) == CR_ZERO


def _plain_value(factors, q):
    """prod_f (sum sign q^a prod [c] / prod [c'])^p_f at z = 0 and the
    integer q, in Fractions: [c] = (q^c - q^-c) / (q - q^-1), and the
    direction of an atom plays no part."""
    x = Fraction(q)
    qnum = {}
    for terms, _ in factors:
        for *_, num, den in terms:
            for c, _ in num + den:
                if c not in qnum:
                    qnum[c] = (x ** c - x ** -c) / (x - 1 / x)
    value = Fraction(1)
    for terms, power in factors:
        total = Fraction(0)
        for mono, num, den in terms:
            term = mono.sign * x ** mono.a
            for c, _ in num:
                term *= qnum[c]
            for c, _ in den:
                term /= qnum[c]
            total += term
        value *= total ** power
    return value


def test_limit_at_order_zero_is_plain_evaluation(monkeypatch):
    # Where no term has a denominator q-number [0 + z*d], the limit is the
    # value at z = 0, computed here term by term in Fractions without the
    # engine, at q = 3 and q = 5.
    points = [(mu, lam, k) for n in (1, 2, 3) for k in (1, 2, 3)
              for lam in partitions_upto(4, n) for mu in window(lam, k)]
    plain = [factors for factors in _route_factors(monkeypatch, points)
             if not any(zden for _, zden, _ in factors)]
    assert len(plain) > 500
    for factors in plain:
        value = _limit(factors)
        for q in (3, 5):
            assert eval_fraction(value, q, 1) == _plain_value(listed(factors), q)


def _shared_c_sum(rng, nterms):
    """A sum with no denominator atom [0 + z*d], whose atoms reuse a few
    values of c under many directions d, and some of whose terms have a
    numerator atom [0 + z*d]."""
    cs = rng.sample([c for c in range(-5, 6) if c], 3)
    terms = []
    for _ in range(nterms):
        num = [(rng.choice(cs), rng.randint(-6, 6)) for _ in range(rng.randint(0, 6))]
        den = [(rng.choice(cs), rng.randint(-6, 6)) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.3:
            num.append((0, rng.choice([-1, 1]) * rng.randint(1, 6)))
        terms.append((UnitMono(rng.choice([-1, 1]), rng.randint(-4, 4), 0), num, den))
    return terms


def test_limit_merges_directions_at_order_zero():
    # M = 0: [c + z*d] in a numerator cancels [c + z*d'] in a denominator
    rng = random.Random(14)
    for case in range(30):
        factors = [(_shared_c_sum(rng, rng.randint(1, 8)), rng.randint(1, 2))
                   for _ in range(rng.randint(1, 3))]
        value = _keyed_limit(factors)
        assert value == limit_oracle(factors), case
        assert eval_fraction(value, 3, 1) == _plain_value(factors, 3), case
    one = UnitMono(1, 0, 0)
    # [2 + z] / [2 - 3z] + [1 + 2z] [3] / ([3 + z] [1 - z]) = 2 at z = 0
    terms = [(one, [(2, 1)], [(2, -3)]), (one, [(1, 2), (3, 0)], [(3, 1), (1, -1)])]
    assert _keyed_limit([(terms, 1)]) == CoeffRat.from_int(2) == limit_oracle([(terms, 1)])


def _order_zero_factors(rng):
    """Seeded list-form factors with no denominator atom [0 + z*d], in the
    shapes the routes hand to _limit: one sum to the first power
    (diag_coeff_sum, mat_elt), one term times a squared sum
    (c_squared_chain), and 1-3 sums to powers 1-2.  Some terms carry a
    numerator [0 + z*d] (dead), and now and then every term of one sum
    does."""
    shape = rng.randrange(3)
    if shape == 0:
        factors = [(_shared_c_sum(rng, rng.randint(1, 8)), 1)]
    elif shape == 1:
        factors = [(_shared_c_sum(rng, 1), 1), (_shared_c_sum(rng, rng.randint(1, 8)), 2)]
    else:
        factors = [(_shared_c_sum(rng, rng.randint(1, 6)), rng.randint(1, 2))
                   for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.2:
        f = rng.randrange(len(factors))
        terms, power = factors[f]
        factors[f] = ([(mono, num + [(0, rng.choice([-1, 1]) * rng.randint(1, 6))], den)
                       for mono, num, den in terms], power)
    return factors


def test_limit_at_order_zero_matches_oracle():
    # The M = 0 branch against the series oracle, which keeps dead terms;
    # a sum whose terms are all dead makes the value 0.
    rng = random.Random(26)
    zeros = values = 0
    for case in range(300):
        factors = _order_zero_factors(rng)
        assert not any(zden for _, zden, _ in keyed(factors)), case
        value = _keyed_limit(factors)
        assert value == limit_oracle(factors), case
        assert eval_fraction(value, 3, 1) == _plain_value(factors, 3), case
        zeros += not value
        values += bool(value)
    assert zeros > 50 and values > 150


def test_limit_at_order_zero_builds_no_binomial(monkeypatch):
    # M = 0 bounds every atom by 2: no binomial table is built, on the
    # route lists with no denominator [0 + z*d] and on synthetic sums,
    # while a difference sum at M > 0 does build one.
    points = [(mu, lam, k) for n in (2, 3) for k in (2, 3)
              for lam in partitions_upto(3, n) for mu in window(lam, k)]
    lists = _route_factors(monkeypatch, points)
    rng = random.Random(45)
    lists += [keyed(_order_zero_factors(rng)) for _ in range(100)]
    calls = []
    binom = intertwiner._binom
    monkeypatch.setattr(intertwiner, "_binom", lambda d, j: calls.append(d) or binom(d, j))
    plain = [factors for factors in lists if not any(zden for _, zden, _ in factors)]
    assert len(plain) > 200
    for factors in plain:
        _limit(factors)
    assert not calls
    _keyed_limit([(_difference_sum(rng, 2, 4), 1)])
    assert calls


def _with_dead_terms(rng, terms, order):
    """terms plus copies of some of them whose numerator carries c = 0
    atoms enough to start above eps^order."""
    out = list(terms)
    for mono, num, den in rng.sample(terms, min(3, len(terms))):
        extra = [(0, rng.choice([-1, 1]) * rng.randint(1, 9))
                 for _ in range(order + 1 + sum(1 for c, _ in den if c == 0))]
        out.append((mono, num + extra, den))
    return out


def test_limit_drops_dead_terms_above_order():
    # M > 0 sums with terms of nu > M: equal to the oracle, which keeps them
    rng = random.Random(1412)
    for case in range(12):
        M = rng.randint(1, 3)
        order = M + 2 * (case % 2)
        factors = [(_with_dead_terms(rng, _difference_sum(rng, M, rng.randint(2, 8)), order), 1)]
        if case % 2:
            factors.append((_with_dead_terms(rng, _difference_sum(rng, 1, 3), order), 2))
        assert _keyed_limit(factors) == limit_oracle(factors), case
    one = UnitMono(1, 0, 0)
    # every term dead: ([z] [2z] [3] + [3z]^2) / [z] is 0 at z = 0, not a pole
    dead = [(one, [(0, 1), (0, 2), (3, 1)], [(0, 1)]), (one, [(0, 3), (0, 3)], [(0, 1)])]
    assert _keyed_limit([(dead, 1)]) == CR_ZERO == limit_oracle([(dead, 1)])
    finite = [(one, [(2, 1)], [(0, 1)]), (UnitMono(-1, 0, 0), [(2, 2)], [(0, 1)])]
    assert _keyed_limit([(finite, 1), (dead, 3)]) == CR_ZERO == limit_oracle([(finite, 1), (dead, 3)])


def _series_formed(monkeypatch):
    """A list that collects the arguments of every _term_series call."""
    formed = []
    series = intertwiner._term_series

    def counted(*args):
        formed.append(args)
        return series(*args)

    monkeypatch.setattr(intertwiner, "_term_series", counted)
    return formed


def test_dead_terms_across_the_product(monkeypatch):
    # A term is dead once its own c = 0 numerator count plus the least
    # counts of every other copy of every sum exceeds M.
    one = UnitMono(1, 0, 0)
    # [z][2] * ([3] + [z] + [z][3z]) / [2z]: M = 1, the first factor starts
    # at eps^1, so only [3] / [2z] of the sum is live; the value is
    # [2][3] / 2, and a rule that dropped terms at the bound would give 0.
    first = [(one, [(0, 1), (2, 1)], [])]
    second = [(one, [(3, 1)], [(0, 2)]), (one, [(0, 1)], [(0, 2)]),
              (one, [(0, 1), (0, 3)], [(0, 2)])]
    # ([z][2] + [z][2z][3])^2 * ([3] + [3z][1]) / ([z][2z]): M = 2; the
    # second copy of the squared sum starts at eps^1 too, so its [z][2z]
    # term is dead although 2 <= M.
    square = [(one, [(0, 1), (2, 1)], []), (one, [(0, 1), (0, 2), (1, 3)], [])]
    rest = [(one, [(3, 1)], [(0, 1), (0, 2)]), (one, [(0, 3), (1, 1)], [(0, 1), (0, 2)])]
    formed = _series_formed(monkeypatch)
    for factors, live in (([(first, 1), (second, 1)], 2), ([(square, 2), (rest, 1)], 2)):
        formed.clear()
        value = _keyed_limit(factors)
        assert value and value == limit_oracle(factors)
        assert len(formed) == live == sum(map(len, live_terms(keyed(factors))))
        assert sum(len(terms) for terms, _ in factors) > live


def _with_zeros(rng, terms, counts):
    """terms plus copies of some of them, each with a number drawn from
    counts of extra numerator atoms [0 + z*d]."""
    out = list(terms)
    for mono, num, den in rng.sample(terms, min(3, len(terms))):
        extra = [(0, rng.choice([-1, 1]) * rng.randint(1, 9)) for _ in range(rng.choice(counts))]
        out.append((mono, num + extra, den))
    return out


def test_limit_drops_dead_terms_across_factors(monkeypatch):
    # (Z^j D_A)^p * D_B / [0 + z*d]^{jp} for difference sums D_A, D_B,
    # with copies of their terms that start past the bound of the whole
    # product but not past M, and copies that start past M: equal to the
    # oracle, which keeps every term, and only the terms that live_terms
    # keeps reach a series.
    rng = random.Random(23)
    formed = _series_formed(monkeypatch)
    drops = values = 0
    for case in range(16):
        ma, mb, j, p = rng.randint(0, 1), rng.randint(0, 1), rng.randint(1, 2), 1 + case % 2
        order = p * ma + mb + j * p
        zs = [(0, rng.choice([-1, 1]) * rng.randint(1, 9)) for _ in range(j)]
        pole = [(0, rng.choice([-1, 1]) * rng.randint(1, 9)) for _ in range(j * p)]
        a = [(mono, num + zs, den) for mono, num, den in _difference_sum(rng, ma, rng.randint(2, 4))]
        b = [(mono, num, den + pole) for mono, num, den in _difference_sum(rng, mb, rng.randint(2, 4))]
        a = _with_dead_terms(rng, _with_zeros(rng, a, range(ma, order - j + 1)), order)
        b = _with_zeros(rng, b, range(mb, order + 1))
        factors = [(a, p), (b, 1)]
        formed.clear()
        value = _keyed_limit(factors)
        assert value == limit_oracle(factors), case
        keyed_factors = keyed(factors)
        assert len(formed) == sum(map(len, live_terms(keyed_factors))), case
        plain = sum(1 for terms, zden, _ in keyed_factors for t in terms
                    if sum(zden.values()) + sum(t[2].values()) <= order)
        drops += len(formed) < plain
        values += bool(value)
    assert drops >= 12 and values >= 12


def test_c_squared_chain_decides_zeros_without_series(monkeypatch):
    # The zero values of the squared route on the k = 4 window of
    # (1, 0, 0, 0) and the n = 3, k = 3 windows of the `routes` benchmark
    # come from the dead-term rule: no series is formed for them.
    points = [(mu, (1, 0, 0, 0), 4) for mu in window((1, 0, 0, 0), 4)]
    points += [(mu, lam, 3) for lam in ((0, 0, 0), (1, 0, 0), (1, 1, 1)) for mu in window(lam, 3)]
    formed = _series_formed(monkeypatch)
    zeros = 0
    for mu, lam, k in points:
        formed.clear()
        if not c_squared_chain(mu, lam, k):
            zeros += 1
            assert not formed, (mu, lam, k)
    assert zeros == 59


def test_matelt_routes_at_level_four_in_four_variables():
    # The north-star reach: the three routes agree at k = 4 in 4 variables.
    checks = suites.suite_matelt_routes(n=4, k=4, maxdeg=1)
    assert len(checks) == 2 and all(c["pass"] for c in checks)


def test_dead_terms_keep_the_raise_paths():
    one = UnitMono(1, 0, 0)
    dead = (one, [(0, 1), (0, 2), (4, 1)], [(0, 1)])
    # a simple pole stays a pole beside a dead term
    for engine in (_keyed_limit, limit_oracle):
        with pytest.raises(DomainViolationError, match="pole at the regularization limit"):
            engine([([(one, [], [(0, 1)]), dead], 1)])
    # an identically vanishing denominator raises in a term that is dead
    vanishing = (one, [(0, 1), (0, 2)], [(0, 1), (0, 0)])
    for engine in (_keyed_limit, limit_oracle):
        with pytest.raises(DomainViolationError, match="identically vanishing denominator"):
            engine([([(one, [(2, 1)], [(3, 1)]), vanishing], 1)])


def test_no_dead_term_reaches_term_series(monkeypatch):
    seen = []
    series = intertwiner._term_series

    def counted(sign, qa, atoms, binoms, order, s):
        seen.append((sum(v for (c, _), v in atoms.items() if c == 0), order))
        multiplied.append(sum(atoms.values()))
        return series(sign, qa, atoms, binoms, order, s)

    multiplied = []
    monkeypatch.setattr(intertwiner, "_term_series", counted)
    one = UnitMono(1, 0, 0)
    # order 0 merges directions: both terms are 1, and nothing is multiplied
    terms = [(one, [(2, 1)], [(2, -3)]), (one, [(1, 2), (3, 0)], [(3, 1), (1, -1)])]
    assert _keyed_limit([(terms, 1)]) == CoeffRat.from_int(2)
    assert seen == [(0, 0), (0, 0)] and multiplied == [0, 0]
    seen.clear()
    # order 0: three of five terms carry a numerator [0 + z*d]
    terms = [(one, [(1, 1)], [(2, 1)]), (one, [(0, 2)], [(1, 1)]),
             (one, [(3, -1), (0, -1)], []), (one, [], [(1, 2)]),
             (one, [(0, 4), (0, 1)], [(1, 3)])]
    assert _keyed_limit([(terms, 1)]) == limit_oracle([(terms, 1)])
    assert seen == [(0, 0), (0, 0)]
    # order 1: terms at eps^0 and eps^1 are live, one at eps^2 is not
    seen.clear()
    terms = [(one, [(2, 1)], [(0, 1)]), (UnitMono(-1, 0, 0), [(2, 2)], [(0, 1)]),
             (one, [(0, 3)], [(0, 1)]), (one, [(0, 3), (0, 2)], [(0, 1)])]
    assert _keyed_limit([(terms, 1)]) == limit_oracle([(terms, 1)])
    assert sorted(seen) == [(0, 1), (0, 1), (1, 1)]
    # the synthetic difference sums with dead terms added
    rng = random.Random(7)
    for _ in range(6):
        M = rng.randint(1, 3)
        seen.clear()
        _keyed_limit([(_with_dead_terms(rng, _difference_sum(rng, M, 4), M), 1)])
        assert seen and all(nu <= order == M for nu, order in seen)


_dominant3 = st.lists(st.integers(-1, 3), min_size=1, max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True))).filter(
    lambda lam: sum(map(abs, lam)) <= 3)


@settings(max_examples=30, deadline=None)
@given(_dominant3, st.integers(1, 4), st.data())
def test_routes_agree_property(lam, k, data):
    mu = data.draw(st.sampled_from(list(window(lam, k))))
    a = diag_coeff_sum(mu, lam, k)
    assert a == mat_elt(mu, lam, k), (mu, lam, k)
    assert a * a == c_squared_chain(mu, lam, k), (mu, lam, k)
