from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from macpoly.shapes import (apply_perm, arm, beta_perm, canonical_w0_word,
                            cells, composition_stats, conjugate, inc_sort,
                            leg, multiplicities, partitions_of, perm_length,
                            strip_zeros)


def test_fig_arm_leg():
    shape = (4, 5, 3, 4, 1, 2, 4, 1, 3)
    assert arm(shape, (4, 3)) == 3
    assert leg(shape, (4, 3)) == 1


def test_arm_leg_basics():
    assert arm((1, 1, 1), (1, 1)) == 2
    assert leg((3, 2), (1, 3)) == 0          # top of column
    assert all(leg((1,) * 5, (i, 1)) == 0 for i in range(1, 6))
    with pytest.raises(ValueError):
        arm((2, 1), (3, 1))


def test_rectangle_top_cell_arm():
    # top cell of the leftmost column of a rectangle: all columns to the
    # right are equal height, nothing shorter sits below-left
    shape = (3, 3, 3, 3)
    assert arm(shape, (1, 3)) == 3


def _arm_oracle(shape, cell):
    i, r = cell
    count = 0
    for j in range(1, len(shape) + 1):
        if j > i and shape[j - 1] >= r and shape[j - 1] <= shape[i - 1]:
            count += 1
        if j < i and shape[j - 1] >= r - 1 >= 1 and shape[j - 1] < shape[i - 1]:
            count += 1
    return count


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6))
def test_arm_matches_scan(parts):
    shape = tuple(parts)
    for cell in cells(shape):
        assert arm(shape, cell) == _arm_oracle(shape, cell)
        assert leg(shape, cell) == shape[cell[0] - 1] - cell[1]


def test_composition_stats_example():
    s = composition_stats((0, 2, 0, 2, 1, 3))
    assert s.inc == (0, 0, 1, 2, 2, 3)
    assert s.dec == (3, 2, 2, 1, 0, 0)
    assert s.beta == (3, 1, 5, 4, 2, 6)
    assert s.aplus == (2, 2, 1, 3)
    assert s.ell == 4


def test_beta_strictly_increasing_is_identity():
    assert beta_perm((1, 2, 4)) == (1, 2, 3)


def test_beta_constant_is_longest():
    assert beta_perm((2, 2, 2, 2)) == (4, 3, 2, 1)


@pytest.mark.parametrize("alpha", [
    (0, 1), (1, 1), (2, 0, 2), (1, 0, 1, 2), (3, 1, 1, 0, 3),
])
def test_beta_is_maximal_sorter(alpha):
    n = len(alpha)
    sorters = [w for w in permutations(range(1, n + 1))
               if apply_perm(w, alpha) == inc_sort(alpha)]
    best = max(sorters, key=perm_length)
    assert perm_length(beta_perm(alpha)) == perm_length(best)
    assert beta_perm(alpha) in sorters
    longest = [w for w in sorters if perm_length(w) == perm_length(best)]
    assert longest == [beta_perm(alpha)]


def test_conjugate():
    assert conjugate((2, 1, 1)) == (3, 1)
    assert conjugate((1,)) == (1,)
    for m in range(0, 9):
        for lam in partitions_of(m):
            assert conjugate(conjugate(lam)) == lam


def test_arm_leg_swap_under_conjugation():
    for m in range(1, 7):
        for lam in partitions_of(m):
            stats = sorted((arm(lam, c), leg(lam, c)) for c in cells(lam))
            swapped = sorted((leg(conjugate(lam), c), arm(conjugate(lam), c))
                             for c in cells(conjugate(lam)))
            assert stats == swapped
            assert (sum(a + l + 1 for a, l in stats)
                    == sum(a + l + 1 for a, l in swapped))


def test_w0_word():
    assert canonical_w0_word(2) == (1,)
    assert canonical_w0_word(3) == (1, 2, 1)
    for n in range(1, 8):
        assert len(canonical_w0_word(n)) == n * (n - 1) // 2


def test_partitions_of():
    assert partitions_of(4) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    counts = [len(partitions_of(m)) for m in range(1, 9)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22]


def test_strip_zeros_and_mults():
    assert strip_zeros((0, 2, 0, 1)) == (2, 1)
    assert multiplicities((0, 2, 2, 1, 0)) == {2: 2, 1: 1}
