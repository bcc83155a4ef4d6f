from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macpoly import shapes
from macpoly.mpoly import (MPoly, VariableMismatchError, divided_difference,
                           specialize, t_pochhammer)
from macpoly.nonattacking import e_integral, j_compact, pr2, schur_oracle
from macpoly.quasisym import (NotQuasisymmetricError, demazure_t_atom,
                              g_integral, g_poly, hecke_T, placements,
                              qs_gamma, qsym_expand)
from macpoly.shapes import compositions, multiplicities, partitions_of


def e_k(n, k):
    """Elementary symmetric polynomial, for expectations."""
    from itertools import combinations
    out = MPoly.zero(n)
    for c in combinations(range(1, n + 1), k):
        m = MPoly.one(n)
        for i in c:
            m = m * MPoly.x(n, i)
        out = out + m
    return out


def test_placements():
    assert list(placements((2, 1), 3)) == [(2, 1, 0), (2, 0, 1), (0, 2, 1)]
    with pytest.raises(ValueError):
        list(placements((2, 0), 3))
    with pytest.raises(ValueError):
        list(placements((1, 1, 1), 2))


def test_g_integral_single_cell():
    one_m_t = MPoly.one(2) - MPoly.t(2)
    assert g_integral((1,), 2) == one_m_t * (MPoly.x(2, 1) + MPoly.x(2, 2))


def test_g_integral_empty():
    assert g_integral((), 3) == MPoly.one(3)


def test_g_refines_j():
    for lam in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)]:
        n = max(sum(lam), len(lam))
        total = MPoly.zero(n)
        for gamma in sorted(set(permutations(lam))):
            total = total + g_integral(gamma, n)
        assert total == j_compact(lam, n), lam


def test_g_poly_single_cell_is_e1():
    assert g_poly((1,), 3) == e_k(3, 1)


def test_pr2_of_g_ignores_zero_padding():
    """Zero parts add no cell, no multiplicity and no arm, so G's scalar is
    the same from the strong composition as from its padded sort."""
    cases = [(gamma, n) for m in range(1, 7) for gamma in compositions(m)
             for n in range(len(gamma), len(gamma) + 3)]
    assert len(cases) == 189
    for gamma, n in cases:
        padded = (0,) * (n - len(gamma)) + tuple(sorted(gamma))
        assert pr2(gamma, n) == pr2(padded, n), (gamma, n)


def test_g_at_zero_is_qs():
    for gamma in [(1,), (2,), (1, 1), (2, 1), (1, 2), (1, 1, 1)]:
        n = 3
        lhs = specialize(g_integral(gamma, n), {"q": 0, "t": 0})
        scal = specialize(pr2((0,) * (n - len(gamma)) + tuple(sorted(gamma)), n),
                          {"q": 0, "t": 0})
        assert scal == MPoly.one(n)
        assert lhs == qs_gamma(gamma, n), gamma


def test_qsym_expand_m1():
    p = MPoly.x(3, 1) + MPoly.x(3, 2) + MPoly.x(3, 3)
    exp = qsym_expand(p)
    assert set(exp.coeffs) == {(1,)}
    assert exp.coeffs[(1,)] == MPoly.one(3)
    assert exp.degree() == 1


def test_qsym_expand_failure_witness():
    with pytest.raises(NotQuasisymmetricError) as err:
        qsym_expand(MPoly.x(2, 1))
    w1, w2 = err.value.witness
    assert {w1[:2], w2[:2]} == {(1, 0), (0, 1)}


def test_qsym_expand_witness_names_a_key_where_the_coefficients_differ():
    x1, x2, q = MPoly.x(2, 1), MPoly.x(2, 2), MPoly.q(2)
    p = x1 + q * x1 + x2 + 2 * q * x2
    with pytest.raises(NotQuasisymmetricError) as err:
        qsym_expand(p)
    w1, w2 = err.value.witness
    assert (w1, w2) == ((1, 0, 1, 0), (0, 1, 1, 0))
    assert p.terms().get(w1) != p.terms().get(w2)


def test_qsym_expand_mismatched_coefficient():
    p = MPoly.x(2, 1) + 2 * MPoly.x(2, 2)
    with pytest.raises(NotQuasisymmetricError):
        qsym_expand(p)


def test_g_is_quasisymmetric():
    for gamma in [(2, 1), (1, 2), (1, 1, 1), (3,)]:
        qsym_expand(g_integral(gamma, 3))  # must not raise


def test_qsym_expansion_serialization():
    exp = qsym_expand(g_integral((1, 1), 2))
    data = exp.to_json_dict()
    assert data["degree"] == 2
    assert "1,1" in data["coeffs"]


def test_hecke_on_symmetric_input():
    n = 2
    p = MPoly.x(n, 1) + MPoly.x(n, 2)
    assert hecke_T(p, 1) == MPoly.t(n) * p


@settings(max_examples=80)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.integers(1, n - 1),
    st.builds(lambda terms: MPoly(n, terms), st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * n, st.integers(0, 1),
                  st.integers(0, 1)),
        st.integers(-3, 3), max_size=4)))))
def test_hecke_quadratic_relation(case):
    """(T_i - t)(T_i + 1) = 0 at every i of n <= 4 variables: a check of
    hecke_T that reads no divided difference.  It holds for T_i = t as
    well, so the recurrence tests are what catch a lost d_i p."""
    i, p = case
    n = p.nvars
    t = MPoly.t(n)
    tp = hecke_T(p, i)
    assert hecke_T(tp, i) - (t - MPoly.one(n)) * tp - t * p == MPoly.zero(n)


@settings(max_examples=60)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n - 1),
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * n, st.integers(0, 1),
                              st.integers(0, 2)),
                    st.integers(-3, 3), max_size=6))))
def test_hecke_matches_the_divided_difference_formula(case):
    # hecke_T reads divided_difference, so this checks the combining step
    # only; test_hecke_quadratic_relation and the reconstruction test of
    # divided_difference judge each function on its own.
    n, i, terms = case
    p, t = MPoly(n, terms), MPoly.t(n)
    factor = t * MPoly.x(n, i) - MPoly.x(n, i + 1)
    assert hecke_T(p, i) == t * p - factor * divided_difference(p, i)


@pytest.mark.parametrize("n, i", [(2, 0), (2, 2), (2, 3), (3, -1), (3, 3),
                                  (1, 1)])
def test_hecke_out_of_range_names_the_missing_variable(n, i):
    with pytest.raises(VariableMismatchError) as expected:
        MPoly.t(n) * MPoly.x(n, i) - MPoly.x(n, i + 1)
    with pytest.raises(VariableMismatchError) as got:
        hecke_T(MPoly.x(n, 1), i)
    assert str(got.value) == str(expected.value)


def test_every_placement_shares_one_walk_plan():
    shapes._walk_plan.cache_clear()
    g_integral((1, 2, 2), 5)
    info = shapes._walk_plan.cache_info()
    assert (info.misses, info.hits) == (1, 9)


def test_hecke_recurrence():
    # applying the operator to the integral form moves a descent of alpha
    n = 3
    for alpha in [(1, 0, 0), (2, 0, 0), (1, 1, 0), (2, 1, 0), (2, 0, 1),
                  (1, 0, 2), (3, 0, 0), (1, 1, 1), (2, 1, 1)]:
        for i in (1, 2):
            if alpha[i - 1] > alpha[i]:
                swapped = list(alpha)
                swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                lhs = hecke_T(e_integral(alpha, n), i)
                assert lhs == e_integral(tuple(swapped), n), (alpha, i)


def test_atom_examples():
    assert demazure_t_atom((1, 0), 2) == MPoly.x(2, 1)
    assert demazure_t_atom((0, 0, 0), 3) == MPoly.one(3)
    assert demazure_t_atom((1,), 2) == MPoly.x(2, 1)  # right-padded


def test_tatom_integral_form():
    n = 3
    from itertools import product
    for alpha in product(range(3), repeat=3):
        if sum(alpha) > 3:
            continue
        scal = MPoly.one(n)
        for m in multiplicities(alpha).values():
            scal = scal * t_pochhammer(m, n)
        lhs = scal * demazure_t_atom(alpha, n)
        rhs = specialize(e_integral(alpha, n), {"q": 0})
        assert lhs == rhs, alpha


def test_tatom_integral_form_four_variables():
    from itertools import product
    n = 4
    for alpha in product(range(5), repeat=4):
        if sum(alpha) > 4:
            continue
        scal = MPoly.one(n)
        for m in multiplicities(alpha).values():
            scal = scal * t_pochhammer(m, n)
        lhs = scal * demazure_t_atom(alpha, n)
        assert lhs == specialize(e_integral(alpha, n), {"q": 0}), alpha


def test_hecke_recurrence_four_variables():
    for alpha in [(2, 0, 1, 0), (1, 1, 0, 2), (3, 1, 0, 0), (0, 2, 1, 1)]:
        for i in (1, 2, 3):
            if alpha[i - 1] > alpha[i]:
                sw = list(alpha)
                sw[i - 1], sw[i] = sw[i], sw[i - 1]
                assert hecke_T(e_integral(alpha, 4), i) \
                    == e_integral(tuple(sw), 4), (alpha, i)


def test_qs_single_cell():
    n = 3
    assert qs_gamma((1,), n) == e_k(n, 1)


def test_qs_sums_to_schur():
    for m in range(1, 4):
        for lam in partitions_of(m):
            n = max(m, len(lam))
            total = MPoly.zero(n)
            for gamma in sorted(set(permutations(lam))):
                total = total + qs_gamma(gamma, n)
            assert total == schur_oracle(lam, n), lam


def test_atoms_padded_left_and_right_differ():
    # placements distinguish (1,0) from (0,1); their atoms differ
    a10 = demazure_t_atom((1, 0), 2)
    a01 = demazure_t_atom((0, 1), 2)
    assert a10 != a01
    assert specialize(a10 + a01, {"t": 0}) == e_k(2, 1)
