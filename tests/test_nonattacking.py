import os
import random
import re
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

import macpoly
from macpoly import nonattacking

from macpoly.mpoly import (MPoly, exact_div_xfree, specialize,
                           swap_vars, t_pochhammer)
from macpoly.nonattacking import (AugmentedFilling, attacks, coinv,
                                  coinversion_triples, e_general_q0,
                                  e_integral, e_integral_sum, enumerate_na,
                                  is_nonattacking, is_ordered, j_compact,
                                  j_hhl, maj_na, p_poly, pr1, pr2,
                                  schur_oracle)
from macpoly.shapes import (arm, conjugate, identity_perm, leg,
                            multiplicities, partitions_of)
from macpoly.tableaux import x_content

# ordered nonattacking filling of (0,0,1,2,2,2,3) with maj 3, coinv 7
WORKED = AugmentedFilling((0, 0, 1, 2, 2, 2, 3),
                          ((), (), (4,), (5, 5), (3, 1), (1, 2), (6, 7, 3)))


def test_attacks():
    assert attacks((1, 2), (3, 2))          # same row
    assert not attacks((2, 1), (2, 2))      # same column
    assert attacks((1, 1), (3, 2)) and attacks((3, 2), (1, 1))
    assert not attacks((3, 1), (1, 2))      # higher cell is to the left
    assert attacks((3, 1), (1, 0)) and attacks((1, 0), (3, 1))
    assert not attacks((1, 1), (3, 0))
    assert not attacks((1, 1), (1, 3))      # rows not adjacent


def test_worked_filling():
    assert is_nonattacking(WORKED)
    assert is_ordered(WORKED)
    assert maj_na(WORKED) == 3
    assert coinv(WORKED) == 7
    entry_triples = sorted(
        tuple(sorted(WORKED.entry(*c) for c in tri))
        for tri in coinversion_triples(WORKED))
    assert entry_triples == sorted([
        (1, 6, 7), (3, 6, 7), (5, 6, 7), (4, 6, 7),
        (1, 2, 3), (1, 2, 4), (3, 5, 7)])


def test_nonattacking_basics():
    two_equal = AugmentedFilling((1, 1), ((1,), (1,)))
    assert not is_nonattacking(two_equal)
    stacked = AugmentedFilling((3,), ((2, 2, 2),))
    assert is_nonattacking(stacked)


def test_augmented_filling_checks_its_columns_and_basement():
    with pytest.raises(ValueError,
                       match="column lengths do not match the shape"):
        AugmentedFilling((2, 1), ((1, 2), (1, 2)))
    with pytest.raises(ValueError,
                       match="basement length does not match the shape"):
        AugmentedFilling((1, 1), ((1,), (2,)), (1, 2, 3))
    with pytest.raises(ValueError, match="no basement row"):
        AugmentedFilling((1, 1), ((1,), (2,))).entry(1, 0)
    assert AugmentedFilling((1, 1), ((1,), (2,)), (2, 1)).entry(1, 0) == 2


def test_ordered():
    assert not is_ordered(AugmentedFilling((1, 1), ((1,), (2,))))
    assert is_ordered(AugmentedFilling((1, 2), ((1,), (1, 2))))  # distinct heights
    with pytest.raises(ValueError):
        is_ordered(AugmentedFilling((2, 1), ((1, 1), (2,))))


def test_maj_na_small():
    assert maj_na(AugmentedFilling((2,), ((1, 1),))) == 0
    assert maj_na(AugmentedFilling((2,), ((1, 2),))) == 1


def _tiebreak_rank(f):
    shape = f.shape
    order = []
    for r in range(max(shape, default=0), 0, -1):
        for i in range(1, len(shape) + 1):
            if shape[i - 1] >= r:
                order.append((i, r))
    order.extend((i, 0) for i in range(1, len(shape) + 1))
    return {c: k for k, c in enumerate(order)}


def _coinv_oracle(f):
    """Inequality form: a <= c < b, c < b <= a, or b <= a <= c."""
    shape = f.shape
    rank = _tiebreak_rank(f)

    def key(c):
        return (f.entry(*c), rank[c])

    def lt(c1, c2):
        return key(c1) < key(c2)

    def le(c1, c2):
        return not lt(c2, c1)

    count = 0
    has_base = f.basement is not None
    n = len(shape)
    for u in range(1, n + 1):
        for r in range(1, shape[u - 1] + 1):
            b, c = (u, r), (u, r - 1)
            lower_ok = r >= 2 or has_base
            for v in range(u + 1, n + 1):
                if not (r <= shape[v - 1] <= shape[u - 1]):
                    continue
                a = (v, r)
                if lower_ok:
                    if (le(a, c) and lt(c, b)) or (lt(c, b) and le(b, a)) \
                            or (le(b, a) and le(a, c)):
                        count += 1
                elif f.entry(v, 1) >= f.entry(u, 1):
                    count += 1
            for v in range(1, u):
                if shape[v - 1] >= shape[u - 1]:
                    continue
                if not (shape[v - 1] >= r - 1 >= 1 or (r == 1 and has_base)):
                    continue
                a = (v, r - 1)
                if lower_ok:
                    if (le(a, c) and lt(c, b)) or (lt(c, b) and le(b, a)) \
                            or (le(b, a) and le(a, c)):
                        count += 1
    return count


def test_coinv_matches_inequality_oracle():
    rng = random.Random(7)
    shapes = [((2, 1), None), ((1, 2), None), ((0, 1, 2), (1, 2, 3)),
              ((2, 0, 1), (1, 2, 3)), ((1, 2, 2), (3, 2, 1)),
              ((3, 1), None), ((0, 2, 2), (2, 3, 1))]
    for shape, basement in shapes:
        n = len(shape)
        found = 0
        for f in enumerate_na(shape, basement, n):
            assert coinv(f) == _coinv_oracle(f), (shape, basement, f.cols)
            found += 1
        assert found > 0 or sum(shape) > 0


def test_matched_vertical_pairs_never_coinvert():
    for shape, basement in [((0, 1, 2), (1, 2, 3)), ((2, 2), None)]:
        n = len(shape)
        for f in enumerate_na(shape, basement, n):
            for tri in coinversion_triples(f):
                if len(tri) == 3:
                    _, upper, lower = tri
                    assert f.entry(*upper) != f.entry(*lower)


def test_enumerate_na_examples():
    fills = list(enumerate_na((0, 1), (2, 1), 2))
    assert len(fills) == 1 and fills[0].entry(2, 1) == 1
    assert len(list(enumerate_na((1,), None, 3))) == 3
    ordered = list(enumerate_na((1, 1), None, 2, ordered_only=True))
    assert len(ordered) == 1
    assert [f.entry(i, 1) for f in ordered for i in (1, 2)] == [2, 1]


def test_enumerate_na_forces_bottom_row():
    # increasing shape with maximal-sorter basement: row 1 copies the basement
    from macpoly.shapes import beta_perm, inc_sort
    for alpha in [(2, 0, 1), (1, 1, 0), (0, 2, 2), (3, 1, 2)]:
        shape, basement = inc_sort(alpha), beta_perm(alpha)
        for f in enumerate_na(shape, basement, len(alpha)):
            for i in range(1, len(alpha) + 1):
                if shape[i - 1] >= 1:
                    assert f.entry(i, 1) == basement[i - 1]
            assert is_ordered(f)


def test_pr1_small():
    one, q, t = MPoly.one(0), MPoly.q(0), MPoly.t(0)
    assert pr1((1,)) == one - t
    for n in range(1, 6):
        assert pr1((1,) * n) == t_pochhammer(n)
    assert pr1((2,)) == (one - q * t) * (one - t)


def test_pr1_conjugate_form():
    # the same product over the conjugate diagram with arm and leg swapped
    from macpoly.shapes import arm, cells, leg
    one, q, t = MPoly.one(0), MPoly.q(0), MPoly.t(0)
    for lam in [(2, 1), (3, 1, 1), (2, 2, 2), (4, 2)]:
        conj = conjugate(lam)
        prod = MPoly.one(0)
        for c in cells(conj):
            prod = prod * (one - q ** arm(conj, c) * t ** (leg(conj, c) + 1))
        assert prod == pr1(lam)


def test_pr1_equals_pr2_of_sorted():
    for mu in [(1,), (2, 1), (2, 2), (3, 1, 1), (6, 6, 6, 6, 3, 3)]:
        assert pr1(mu) == pr2(tuple(sorted(mu))), mu
        assert pr1(mu) == pr2(mu)  # pr2 sorts internally


def test_pr2_is_the_product_of_its_factors():
    """pr2, the integral weight at the mask of all cells, equals (t;t)_m per
    part multiplicity m times 1 - q^(leg+1) t^(arm+1) over the cells above
    row 1 of the sorted diagram, multiplied as MPolys, for every weak
    composition of at most 6 with 1 to 5 parts."""
    from macpoly.shapes import cells, compositions
    seen = 0
    for parts in range(1, 6):
        for size in range(7):
            for alpha in compositions(size, parts):
                n = len(alpha)
                one, q, t = MPoly.one(n), MPoly.q(n), MPoly.t(n)
                shape = tuple(sorted(alpha))
                expected = one
                for m in multiplicities(alpha).values():
                    for j in range(1, m + 1):  # (t;t)_m
                        expected = expected * (one - t ** j)
                for c in cells(shape):
                    if c[1] >= 2:
                        expected = expected * (one - q ** (leg(shape, c) + 1)
                                               * t ** (arm(shape, c) + 1))
                assert pr2(alpha, n) == expected, alpha
                seen += 1
    assert seen == 791


def test_pr_at_zero():
    for lam in [(1,), (2, 1), (3, 2, 1)]:
        assert specialize(pr1(lam), {"q": 0, "t": 0}) == MPoly.one(0)


def test_e_integral_examples():
    one_m_t = MPoly.one(2) - MPoly.t(2)
    assert e_integral((1, 0)) == one_m_t * MPoly.x(2, 1)
    assert e_integral((0, 0, 0)) == MPoly.one(3)
    with pytest.raises(ValueError):
        e_integral((1, 0), 3)
    with pytest.raises(ValueError, match=re.escape(
            "(2, 0) does not sort to (0, 1)")):
        e_integral_sum([(1, 0), (2, 0)], 2)


def test_e_integral_sums_to_j():
    for lam in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)]:
        n = sum(lam)
        total = MPoly.zero(n)
        padded = tuple(lam) + (0,) * (n - len(lam))
        for alpha in sorted(set(permutations(padded))):
            total = total + e_integral(alpha, n)
        assert total == j_hhl(lam, n), lam


def test_j_simple():
    for n in (1, 2, 3, 4):
        mu = (1,) * n
        expect = MPoly.one(n)
        for i in range(1, n + 1):
            expect = expect * MPoly.x(n, i)
        assert j_compact(mu, n) == expect * t_pochhammer(n, n)
        # the compact sum has exactly one filling
        shape = tuple(sorted(mu))
        assert len(list(enumerate_na(shape, None, n, ordered_only=True))) == 1


def test_j_single_cell():
    one_m_t = MPoly.one(2) - MPoly.t(2)
    expect = one_m_t * (MPoly.x(2, 1) + MPoly.x(2, 2))
    assert j_compact((1,), 2) == expect
    assert j_hhl((1,), 2) == expect
    assert j_hhl((), 2) == MPoly.one(2)


def _j_per_filling(mu, n):
    """The sum that j_hhl took before it went by columns: the public coinv
    and maj_na of every filling that is_nonattacking keeps, over all
    n^|mu| fillings rather than enumerate_na's search, and the cell
    factors multiplied out per filling."""
    mu = tuple(mu)
    one, t = MPoly.one(n), MPoly.t(n)
    total = MPoly.zero(n)
    for flat in product(range(1, n + 1), repeat=sum(mu)):
        at = iter(flat)
        f = AugmentedFilling(mu, [[next(at) for _ in range(h)] for h in mu])
        if not is_nonattacking(f):
            continue
        w = MPoly.monomial(n, x_content(f.cols, n), maj_na(f), coinv(f))
        for i, r in f.cells():
            if r >= 2 and f.entry(i, r) == f.entry(i, r - 1):
                w = w * (one - MPoly.monomial(n, (0,) * n, leg(mu, (i, r)) + 1,
                                              arm(mu, (i, r)) + 1))
            else:
                w = w * (one - t)
        total = total + w
    return total


def test_j_hhl_equals_the_per_filling_sum():
    for m in range(5):
        for mu in partitions_of(m):
            for n in range(5):
                assert j_hhl(mu, n) == _j_per_filling(mu, n), (mu, n)


def test_j_hhl_edges():
    assert j_hhl((), 0) == MPoly.one(0)
    assert j_hhl((2, 1), 0) == MPoly.zero(0)
    # fewer variables than parts: row 1 cannot hold distinct entries
    assert j_hhl((2, 1), 1) == MPoly.zero(1)
    assert j_hhl((1, 1, 1), 2) == MPoly.zero(2)
    with pytest.raises(ValueError, match="is not a partition"):
        j_hhl((1, 2), 2)


def test_j_compact_equals_j_hhl():
    for m in range(1, 4):
        for mu in partitions_of(m):
            assert j_compact(mu, m) == j_hhl(mu, m), mu


def test_j_routes_agree_with_extra_variables():
    for mu, n in [((1,), 2), ((2,), 3), ((1, 1), 3), ((2, 1), 4)]:
        assert j_compact(mu, n) == j_hhl(mu, n), (mu, n)


def test_j_compact_needs_enough_variables():
    with pytest.raises(ValueError):
        j_compact((1, 1, 1), 2)


def test_j_divisibility():
    for mu in [(2, 1), (2, 2), (3, 1, 1)]:
        n = sum(mu)
        scal = MPoly.one(n)
        for m in multiplicities(mu).values():
            scal = scal * t_pochhammer(m, n)
        exact_div_xfree(j_compact(mu, n), scal)  # must not raise


def test_j_symmetric():
    for mu, n in [((2, 1), 3), ((2, 2), 3)]:
        j = j_compact(mu, n)
        for i in range(1, n):
            assert swap_vars(j, i, i + 1) == j


# Macdonald's operator D_1 = sum_i prod_{j != i} (t x_i - x_j)/(x_i - x_j)
# T_{q,x_i} has J_lambda as an eigenfunction, with eigenvalue
# e_lambda = sum_i q^lambda_i t^(n-i) (Macdonald, Symmetric Functions and
# Hall Polynomials, ch. VI).  Times the Vandermonde Delta = prod_{i<j}
# (x_i - x_j) it is a polynomial identity, as
# Delta / prod_{j != i} (x_i - x_j) = (-1)^(i-1) Delta without x_i.
_D1_CASES = [(lam, n) for n in (2, 3) for m in range(1, 5)
             for lam in partitions_of(m) if len(lam) <= n]


def _vandermonde(n, skip=0):
    """prod_{i<j} (x_i - x_j) over the variables other than x_skip."""
    xs = [MPoly.x(n, i) for i in range(1, n + 1) if i != skip]
    out = MPoly.one(n)
    for i, xi in enumerate(xs):
        for xj in xs[i + 1:]:
            out = out * (xi - xj)
    return out


def _t_q_shift(p, i):
    """T_{q,x_i} p: p with q x_i for x_i, each term's x_i exponent added to
    its q exponent."""
    n = p.nvars
    return MPoly(n, {(*key[:n], key[n] + key[i - 1], key[n + 1]): c
                     for key, c in p.terms().items()})


def _d1_failures(j_of):
    """The (lambda, n) of _D1_CASES at which J = j_of(lambda, n) breaks
    Delta D_1 J = e_lambda Delta J."""
    failed = []
    for lam, n in _D1_CASES:
        j = j_of(lam, n)
        x = [MPoly.x(n, i) for i in range(1, n + 1)]
        q, t = MPoly.q(n), MPoly.t(n)
        lhs = MPoly.zero(n)
        for i in range(1, n + 1):
            term = _vandermonde(n, skip=i) * _t_q_shift(j, i)
            for k in range(1, n + 1):
                if k != i:
                    term = term * (t * x[i - 1] - x[k - 1])
            lhs = lhs + (term if i % 2 else -term)
        parts = lam + (0,) * (n - len(lam))
        e = sum((q ** p * t ** (n - i) for i, p in enumerate(parts, start=1)),
                MPoly.zero(n))
        if lhs != e * _vandermonde(n) * j:
            failed.append((lam, n))
    return failed


def test_j_is_an_eigenfunction_of_macdonalds_d1():
    assert len(_D1_CASES) == 18
    assert _d1_failures(j_compact) == []


def test_j_of_the_conjugate_shape_fails_d1():
    # compact against brute force shares the shape convention; D_1 does not
    cases = [(lam, n) for lam, n in _D1_CASES
             if conjugate(lam) != lam and len(conjugate(lam)) <= n]
    assert len(cases) == 8
    failed = _d1_failures(
        lambda lam, n: j_compact(conjugate(lam), n)
        if (lam, n) in cases else j_compact(lam, n))
    assert failed == cases


def test_integral_weights_with_arm_for_arm_plus_one_fail_d1(monkeypatch):
    real = nonattacking._shape_factors

    def short_arm(shape):
        poch, upper = real(shape)
        return poch, [(k, (a, b - 1)) for k, (a, b) in upper]

    monkeypatch.setattr(nonattacking, "_shape_factors", short_arm)
    assert len(_d1_failures(j_compact)) == 10


def test_p_poly():
    # single cell: P = x1 + ... + xn
    p = p_poly((1,), 3)
    e1 = MPoly.x(3, 1) + MPoly.x(3, 2) + MPoly.x(3, 3)
    assert p == e1
    # column: P = x1 x2 x3 after exact cancellation
    p = p_poly((1, 1, 1), 3)
    e3 = MPoly.x(3, 1) * MPoly.x(3, 2) * MPoly.x(3, 3)
    assert p == e3


def test_schur_oracle_small():
    assert schur_oracle((1,), 3) == (MPoly.x(3, 1) + MPoly.x(3, 2)
                                     + MPoly.x(3, 3))
    assert schur_oracle((1, 1), 2) == MPoly.x(2, 1) * MPoly.x(2, 2)
    s21 = schur_oracle((2, 1), 3)
    ones = {f"x{i}": 1 for i in range(1, 4)}
    assert specialize(s21, ones) == MPoly.const(3, 8)


def test_p_at_zero_is_schur():
    for m in range(1, 5):
        for lam in partitions_of(m):
            j00 = specialize(j_compact(lam, m), {"q": 0, "t": 0})
            assert j00 == schur_oracle(lam, m), lam


def test_e_general_q0_examples():
    assert e_general_q0((1, 0), (1, 2), 2) == MPoly.x(2, 1)
    assert e_general_q0((0, 0), (1, 2), 2) == MPoly.one(2)
    t2 = MPoly.t(2)
    assert e_general_q0((0, 2), (1, 2), 2) == (
        MPoly.x(2, 2) ** 2
        + (MPoly.one(2) - t2) * MPoly.x(2, 1) * MPoly.x(2, 2))
    for alpha, basement, n in (((1, 0), (1, 2), 3), ((1, 0, 0), (1, 2), 3)):
        with pytest.raises(ValueError, match=(
                "shape, basement and variable count must agree")):
            e_general_q0(alpha, basement, n)


def test_e_general_q0_decreasing_is_monomial():
    for alpha in [(2, 0), (2, 1), (3, 1, 0), (2, 2, 1)]:
        n = len(alpha)
        expect = MPoly.one(n)
        for i, a in enumerate(alpha, start=1):
            expect = expect * MPoly.x(n, i) ** a
        assert e_general_q0(alpha, identity_perm(n), n) == expect


def test_e_general_q0_matches_integral_route():
    # multiplied up to integral form, the q=0 slice of the sorted-shape route
    from macpoly.quasisym import demazure_t_atom
    for alpha in product(range(4), repeat=2):
        n = 2
        scal = MPoly.one(n)
        for m in multiplicities(alpha).values():
            scal = scal * t_pochhammer(m, n)
        lhs = scal * demazure_t_atom(alpha, n)
        assert lhs == specialize(e_integral(alpha, n), {"q": 0}), alpha


# An unordered filling whose bottom row does not copy the basement (2, 1)
# that the diagram of (1, 1) gets, as the raw (entries, maj, coinv, eq)
# tuple of the walk that e_integral sums over.
_BAD = ([1, 2], 0, 0, 0)
_UNORDERED = f"""
from macpoly import nonattacking
from macpoly.nonattacking import e_integral
nonattacking._walk = lambda *args, **kwargs: iter([{_BAD!r}])
try:
    e_integral((1, 1))
except AssertionError as exc:
    print("raised:", exc)
"""


def test_e_integral_rejects_a_filling_off_the_basement(monkeypatch):
    monkeypatch.setattr(nonattacking, "_walk",
                        lambda *args, **kwargs: iter([_BAD]))
    with pytest.raises(AssertionError, match="not ordered on the basement"):
        e_integral((1, 1))


def test_e_integral_check_survives_python_O():
    env = dict(os.environ,
               PYTHONPATH=str(Path(macpoly.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _UNORDERED], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised:")
