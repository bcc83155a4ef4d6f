import re
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from macpoly.shapes import (_walk_plan, arm, attacks, beta_perm,
                            canonical_w0_word, cells, check_permutation,
                            compositions, conjugate, inc_sort, leg,
                            multiplicities, partitions_of, perm_length,
                            rearrangements)


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
    with pytest.raises(ValueError,
                       match=re.escape("cell (1, 3) outside diagram (2, 1)")):
        leg((2, 1), (1, 3))
    with pytest.raises(ValueError, match=re.escape("(2, -1) has negative parts")):
        leg((2, -1), (1, 1))


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


def test_beta_strictly_increasing_is_identity():
    assert beta_perm((1, 2, 4)) == (1, 2, 3)


def test_beta_constant_is_longest():
    assert beta_perm((2, 2, 2, 2)) == (4, 3, 2, 1)


def test_check_permutation_rejects_a_non_permutation():
    assert check_permutation([2, 1]) == (2, 1)
    for w in ((1, 1), (2, 3), (0, 1)):
        with pytest.raises(ValueError, match=re.escape(
                f"{w} is not a permutation of 1..2")):
            check_permutation(w)


@pytest.mark.parametrize("alpha", [
    (0, 1), (1, 1), (2, 0, 2), (1, 0, 1, 2), (3, 1, 1, 0, 3),
])
def test_beta_is_maximal_sorter(alpha):
    n = len(alpha)
    sorters = [w for w in permutations(range(1, n + 1))
               if tuple(alpha[i - 1] for i in w) == inc_sort(alpha)]
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
    with pytest.raises(ValueError, match="n must be >= 1"):
        canonical_w0_word(0)


def test_partitions_of():
    assert partitions_of(4) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    counts = [len(partitions_of(m)) for m in range(1, 9)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22]
    with pytest.raises(ValueError, match="m must be nonnegative"):
        partitions_of(-1)


def test_multiplicities():
    assert multiplicities((0, 2, 2, 1, 0)) == {2: 2, 1: 1}


def test_rearrangements_are_the_distinct_permutations_in_lex_order():
    for length in range(7):
        for seq in product(range(4), repeat=length):
            assert list(rearrangements(seq)) == sorted(set(permutations(seq)))


def _strong_compositions(m):
    if m == 0:
        yield ()
        return
    for first in range(1, m + 1):
        for tail in _strong_compositions(m - first):
            yield (first,) + tail


def test_compositions_match_the_direct_generators():
    for m in range(8):
        assert list(compositions(m)) == list(_strong_compositions(m))
    for length in range(5):
        for m in range(7):
            assert list(compositions(m, length)) == [
                a for a in product(range(m + 1), repeat=length) if sum(a) == m]


def test_walk_plan_attackers_are_those_of_the_attack_rule():
    """Each cell's attackers in a walk plan are the earlier cells and the
    basement cells that attacks() finds, for every composition of at most 6
    cells in at most 6 columns, with and without a basement, in each mode."""
    plans = 0
    for width in range(1, 7):
        for shape in product(range(7), repeat=width):
            if sum(shape) > 6:
                continue
            order = cells(shape)
            for has_basement, ordered, no_descents in product((False, True),
                                                              repeat=3):
                slot = {c: k for k, c in enumerate(order)}
                if has_basement:
                    slot.update(((j, 0), len(order) + j - 1)
                                for j in range(1, width + 1))
                plan = _walk_plan.__wrapped__(shape, has_basement, ordered,
                                              no_descents, False)
                for k, (cell, step) in enumerate(zip(order, plan,
                                                     strict=True)):
                    assert set(step[0]) == {
                        j for c, j in slot.items()
                        if (j < k or c[1] == 0) and attacks(cell, c)}, \
                        (shape, has_basement, cell)
                plans += 1
    assert plans == 13720
