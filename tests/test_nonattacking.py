import os
import random
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
                                  e_integral, enumerate_na, is_nonattacking,
                                  is_ordered, j_compact, j_hhl, maj_na,
                                  p_poly, pr1, pr2, schur_oracle)
from macpoly.shapes import (conjugate, identity_perm, multiplicities,
                            partitions_of)

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


def test_pr_at_zero():
    for lam in [(1,), (2, 1), (3, 2, 1)]:
        assert specialize(pr1(lam), {"q": 0, "t": 0}) == MPoly.one(0)


def test_e_integral_examples():
    one_m_t = MPoly.one(2) - MPoly.t(2)
    assert e_integral((1, 0)) == one_m_t * MPoly.x(2, 1)
    assert e_integral((0, 0, 0)) == MPoly.one(3)
    with pytest.raises(ValueError):
        e_integral((1, 0), 3)


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
# that the diagram of (1, 1) gets.
_UNORDERED = """
from macpoly import nonattacking
from macpoly.nonattacking import AugmentedFilling, e_integral
bad = AugmentedFilling((1, 1), ((1,), (2,)), (2, 1))
nonattacking.enumerate_na = lambda *args, **kwargs: iter([bad])
try:
    e_integral((1, 1))
except AssertionError as exc:
    print("raised:", exc)
"""


def test_e_integral_rejects_a_filling_off_the_basement(monkeypatch):
    bad = AugmentedFilling((1, 1), ((1,), (2,)), (2, 1))
    monkeypatch.setattr(nonattacking, "enumerate_na",
                        lambda *args, **kwargs: iter([bad]))
    with pytest.raises(AssertionError, match="not ordered on the basement"):
        e_integral((1, 1))


def test_e_integral_check_survives_python_O():
    env = dict(os.environ,
               PYTHONPATH=str(Path(macpoly.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _UNORDERED], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised:")
