import pytest
from random import Random

from conftest import act_e_by_words, res_map_oracle

from macdaha import daha, qfield, suites
from macdaha.daha import (DahaParams, act_T, act_T_inv, act_Y, act_Y_inv,
                          act_e, e_r_Y_apply, generic_daha_params,
                          is_multiwheel, p1_Yinv_apply, p1_Yinv_via_y,
                          res_map, res_map_half)
from macdaha.macops import MacParams, mac_apply, mac_generator_apply
from macdaha.npoly import NPoly
from macdaha.qfield import CR_ONE, CoeffRat, UnitMono, qnum
from macdaha.suites import (_rand_npoly, _rand_sym, verify_relations, verify_res_diff,
                            verify_res_intertwine)
from macdaha.sympoly import SymLaurent, from_npoly, m_sym, mono_shift

P = generic_daha_params()
q = UnitMono.q
t = UnitMono.t


def test_act_T_symmetric_input():
    f = NPoly(2, {(1, 1): CR_ONE})
    assert act_T(1, f, P) == f.scalar_mul(t(1).as_coeffrat())
    g = NPoly(3, {(1, 1, 0): CR_ONE, (1, 0, 1): CR_ONE, (0, 1, 1): CR_ONE})
    assert act_T(2, g, P) == g.scalar_mul(t(1).as_coeffrat())


def test_act_T_quadratic_relation():
    rng = Random(0)
    thc = t(1).as_coeffrat() - t(-1).as_coeffrat()
    for n in (2, 3):
        for _ in range(4):
            f = _rand_npoly(rng, n)
            for i in range(1, n):
                lhs = act_T(i, act_T(i, f, P), P) - act_T(i, f, P).scalar_mul(thc) - f
                assert lhs.is_zero()


def test_act_T_inverse():
    rng = Random(1)
    f = _rand_npoly(rng, 2)
    assert act_T_inv(1, act_T(1, f, P), P) == f


def test_act_Y_single_variable():
    f = NPoly(1, {(3,): CR_ONE})
    assert act_Y(1, f, P) == f.scalar_mul(q(6).as_coeffrat())


def test_act_Y_constant_eigenvalue():
    for n in (2, 3):
        one = NPoly.one(n)
        for i in range(1, n + 1):
            assert act_Y(i, one, P) == one.scalar_mul(t(n + 1 - 2 * i).as_coeffrat())


def test_act_Y_inverse_roundtrip():
    rng = Random(2)
    for n in (2, 3):
        f = _rand_npoly(rng, n)
        for i in (1, n):
            assert act_Y_inv(i, act_Y(i, f, P), P) == f


def test_Y_commutativity_sample():
    rng = Random(3)
    f = _rand_npoly(rng, 2)
    assert act_Y(1, act_Y(2, f, P), P) == act_Y(2, act_Y(1, f, P), P)


def test_verify_relations_generic():
    # The braid relation T_i T_{i+1} T_i = T_{i+1} T_i T_{i+1} has an
    # instance only from 3 variables on, so it is emitted only there.
    for n in (2, 3):
        rep = verify_relations(n, P, seed=0, samples=6)
        assert all(c["pass"] for c in rep), rep
        names = [c["name"] for c in rep]
        assert "TinvYTinv" in names
        assert ("braid" in names) == (n == 3)


def test_verify_relations_specialized():
    spec = DahaParams(qhalf=q(-2), thalf=q(1))
    rep = verify_relations(2, spec, seed=1, samples=6)
    assert all(c["pass"] for c in rep), rep


def test_symmetrizer_idempotent_and_symmetric():
    rng = Random(4)
    for n in (2, 3):
        for _ in range(3):
            f = _rand_npoly(rng, n)
            ef = act_e(f, P)
            assert act_e(ef, P) == ef
            from_npoly(ef)  # symmetric by construction


# The two parameter sets of suite_daha_relations: generic, and special at l = 2.
RELATION_PARAMS = (P, DahaParams(qhalf=q(-2), thalf=q(1)))


def test_symmetrizer_equals_word_sum():
    for p in RELATION_PARAMS:
        rng = Random(7)
        for n in range(1, 6):
            for _ in range(2 if n == 5 else 4):
                f = _rand_npoly(rng, n)
                assert act_e(f, p) == act_e_by_words(f, p), (n, f)


def _act_e_one_level(bad):
    """A copy of act_e whose coset level m = bad weighs T_j by t, not t^{1/2}."""
    def act_e_copy(f, p):
        n = f.n
        t = (p.thalf ** 2).as_coeffrat()
        norm = CR_ONE
        one_minus_t = CR_ONE - t
        for m in range(1, n + 1):
            norm = norm * one_minus_t / (CR_ONE - (p.thalf ** (2 * m)).as_coeffrat())
        thalf = p.thalf.as_coeffrat()
        g = f
        for m in range(n - 1, 0, -1):
            c = t if m == bad else thalf
            h = g
            for j in range(1, m + 1):
                h = g + act_T(j, h, p).scalar_mul(c)
            g = h
        return g.scalar_mul(norm)
    return act_e_copy


def _idempotent_check(n, p):
    rep = verify_relations(n, p, seed=0, samples=5)
    return [c["pass"] for c in rep if c["name"] == "symmetrizer-idempotent"]


def test_symmetrizer_with_a_wrong_coset_power_is_not_idempotent(monkeypatch):
    for p in RELATION_PARAMS:
        monkeypatch.setattr(suites, "act_e", _act_e_one_level(None))
        assert _idempotent_check(3, p) == [True]
        for bad in (1, 2):
            monkeypatch.setattr(suites, "act_e", _act_e_one_level(bad))
            assert _idempotent_check(3, p) == [False], (p, bad)


def test_symmetrizer_applies_T_once_per_pair(monkeypatch):
    calls = []

    def counting(i, f, p):
        calls.append(i)
        return act_T(i, f, p)

    monkeypatch.setattr(daha, "act_T", counting)
    for n in range(1, 6):
        calls.clear()
        act_e(_rand_npoly(Random(n), n), P)
        assert len(calls) == n * (n - 1) // 2, n


def _fraction_npoly(rng, n):
    """_rand_npoly with its coefficients scaled by random Q(q, t) fractions,
    so that they have several distinct denominators."""
    f = _rand_npoly(rng, n)
    return NPoly(n, {key: v * suites._rand_coeffrat(rng) for key, v in f.terms.items()})


def test_symmetrizer_over_fraction_coefficients():
    for p in RELATION_PARAMS:
        rng = Random(13)
        for n in range(1, 5):
            for _ in range(3):
                f = _fraction_npoly(rng, n)
                assert act_e(f, p) == act_e_by_words(f, p), (n, f)
        assert act_e(NPoly.zero(3), p) == NPoly.zero(3)


def test_symmetrizer_reduces_each_output_coefficient_once(monkeypatch):
    # One gcd per distinct input denominator after the first (the common
    # denominator's fold) and one per distinct output value (the final
    # reduction of each distinct numerator): the coset loop runs on Laurent
    # numerators and reduces nothing.
    rng = Random(6)
    f = _fraction_npoly(rng, 6)
    while len(f.terms) < 3:
        f = _fraction_npoly(rng, 6)
    dens = {frozenset(v.den.terms.items()) for v in f.terms.values()}
    calls = []
    gcd = qfield._gcd_cofactors
    monkeypatch.setattr(qfield, "_gcd_cofactors", lambda A, B: calls.append(1) or gcd(A, B))
    g = act_e(f, P)
    assert len(dens) > 1 and g.terms
    assert len(calls) <= len(dens) - 1 + len(set(g.terms.values())), len(calls)


def test_verify_relations_five_variables():
    for p in RELATION_PARAMS:
        rep = verify_relations(5, p, seed=0, samples=1)
        assert rep and all(c["pass"] for c in rep), rep


def test_erY_equals_difference_operator():
    rng = Random(5)
    mp = MacParams(shift=q(2), thalf=t(1))
    for n in (2, 3):
        for _ in range(3):
            f = _rand_sym(rng, n, 3)
            for r in range(n + 1):
                assert e_r_Y_apply(f, r, P) == mac_apply(f, r, mp)


def test_erY_full_degree_scalar():
    m11 = m_sym((1, 1), 2)
    assert e_r_Y_apply(m11, 2, P) == m11.scalar_mul(q(4).as_coeffrat())


def test_erY_constant():
    one = SymLaurent.one(2)
    assert e_r_Y_apply(one, 1, P) == \
        one.scalar_mul(t(1).as_coeffrat() + t(-1).as_coeffrat())


def test_p1_Yinv_routes_and_constant():
    rng = Random(6)
    for n in (1, 2, 3):
        for _ in range(2):
            f = _rand_sym(rng, n, 2)
            assert p1_Yinv_apply(f, P) == p1_Yinv_via_y(f, P)
    one = SymLaurent.one(2)
    assert p1_Yinv_apply(one, P) == \
        one.scalar_mul(t(1).as_coeffrat() + t(-1).as_coeffrat())
    f1 = SymLaurent(1, {(2,): CR_ONE})
    assert p1_Yinv_apply(f1, P) == f1.scalar_mul(q(-4).as_coeffrat())


def test_res_map_examples():
    f = m_sym((1, 0), 2)
    assert res_map(f, 1, 2) == SymLaurent(1, {(1,): qnum(2)})
    g = m_sym((2, 1), 2)
    assert res_map(g, 2, 1) == g
    kern = NPoly(2, {(2, 0): -q(2).as_coeffrat(), (0, 2): -q(2).as_coeffrat(),
                     (1, 1): CR_ONE + q(4).as_coeffrat()})
    assert res_map(from_npoly(kern), 1, 2).is_zero()


def test_res_map_matches_expand_and_fold_oracle():
    # Seeded inputs in 4, 5 and 6 variables, every ladder split (n, l).
    rng = Random(1412)
    for n, l in ((4, 1), (2, 2), (1, 4), (5, 1), (1, 5), (6, 1), (3, 2), (2, 3), (1, 6)):
        for _ in range(4):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                sig = tuple(sorted((rng.randint(-2, 3) for _ in range(n * l)), reverse=True))
                terms[sig] = (CoeffRat.from_int(rng.choice((-2, -1, 1, 3)))
                              * qnum(rng.randint(1, 3)) / qnum(rng.randint(1, 3)))
            f = SymLaurent(n * l, terms)
            assert str(res_map(f, n, l)) == str(res_map_oracle(f, n, l)), (f, n, l)


def test_res_map_sums_fractions_over_signatures():
    # Coefficients in Q(q, t) over denominators that share factors across
    # signatures, so that one output coefficient sums unequal fractions, and
    # a second copy that cancels the first signature's image.
    rng = Random(1413)
    dens = [CR_ONE - q(1).as_coeffrat(), CR_ONE - (q(1) * t(1)).as_coeffrat(),
            CR_ONE + q(2).as_coeffrat()]
    for n, l in ((2, 2), (4, 1), (1, 5), (3, 2), (2, 3)):
        for _ in range(3):
            terms = {}
            for _ in range(rng.randint(2, 4)):
                sig = tuple(sorted((rng.randint(-2, 2) for _ in range(n * l)), reverse=True))
                c = CoeffRat.from_int(rng.choice((-2, -1, 1, 3))) * t(rng.randint(-1, 1))
                for _ in range(rng.randint(1, 2)):
                    c = c / rng.choice(dens)
                terms[sig] = c
            f = SymLaurent(n * l, terms)
            assert str(res_map(f, n, l)) == str(res_map_oracle(f, n, l)), (f, n, l)
            sig = min(terms)
            g = f + SymLaurent(n * l, {sig: -terms[sig]})
            assert res_map(g, n, l) == res_map_oracle(g, n, l), (g, n, l)


def test_res_map_half():
    f = m_sym((1, 0), 2)
    par, val = res_map_half(f, 1, 2)
    assert par == 0 and val == mono_shift(res_map(f, 1, 2), 1)
    par3, val3 = res_map_half(m_sym((0, 0, 0), 3), 1, 3)
    assert par3 == 1 and val3 == SymLaurent(1, {(1,): CR_ONE})


def test_is_multiwheel():
    t2 = q(2)
    z = UnitMono(1, 3, 1)
    assert is_multiwheel([z, z * t2], 1, 2, t2)
    assert not is_multiwheel([z, z * t2 * t2], 1, 2, t2)
    assert is_multiwheel([q(-1), q(1)], 1, 2, t2)
    w = UnitMono(-1, 0, 2)
    assert is_multiwheel([z * t2, w, z, w * t2], 2, 2, t2)
    assert not is_multiwheel([z, z * t2, w, w], 2, 2, t2)
    with pytest.raises(ValueError):
        is_multiwheel([z], 1, 2, t2)


def test_res_intertwine_suites():
    for (n, l) in [(1, 2), (1, 3), (2, 2)]:
        rep = verify_res_intertwine(n, l, seed=0, samples=3)
        assert all(c["pass"] for c in rep), (n, l, rep)


def test_res_diff_suites():
    for (n, l) in [(1, 2), (1, 3), (2, 2)]:
        rep = verify_res_diff(n, l, seed=0, samples=2)
        assert all(c["pass"] for c in rep), (n, l, rep)


def test_res_diff_six_variables():
    # The shape `macdaha verify --suite res-diff --n 3` runs, and its
    # three-ladder transpose; both restrict from 6 variables.
    for (n, l) in [(3, 2), (2, 3)]:
        rep = verify_res_diff(n, l)
        assert [c["pass"] for c in rep] == [True, True], (n, l, rep)


def test_res_diff_explicit_e1():
    # single-ladder generating-operator identity on e_1
    n, l = 1, 2
    src = MacParams(shift=q(-2 * l), thalf=q(1))
    tgt = MacParams(shift=q(-2), thalf=q(l))
    f = m_sym((1, 0), 2)
    lhs = res_map(mac_generator_apply(f, q(l + 1), src), n, l)
    rhs = res_map(f, n, l)
    for a in range(1, l + 1):
        rhs = mac_generator_apply(rhs, q(2 * a), tgt)
    assert lhs == rhs
