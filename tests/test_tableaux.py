import random
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from macpoly.mpoly import MPoly, specialize, t_multinomial
from macpoly.nonattacking import AugmentedFilling
from macpoly.shapes import cells, is_partition, partitions_of, perm_length
from macpoly.tableaux import (EQUAL, GREATER, LESS, Filling,
                              block_decomposition, compare_columns,
                              enumerate_fillings, enumerate_sorted, family,
                              family_tree, flip, htilde_brute, htilde_compact,
                              inv, is_packed, is_sorted, maj, pds, perm_t,
                              sort_filling, x_weight, _shortest_rearranger)

BIG_SORTED = Filling(((9, 5, 5, 1, 6), (9, 5, 5, 1, 6), (9, 6, 2, 1, 6),
                      (1, 6), (3, 6), (2,), (2,), (3,), (3,)))


def test_worked_filling_statistics():
    assert inv(BIG_SORTED) == 22
    assert maj(BIG_SORTED) == 5
    assert is_sorted(BIG_SORTED)
    expected = (t_multinomial(3, [2, 1]) * t_multinomial(2, [1, 1])
                * t_multinomial(4, [2, 2]))
    assert perm_t(BIG_SORTED) == expected


def test_rows_roundtrip():
    f = Filling.from_rows([(2,), (1, 1, 1)])
    assert f.cols == ((1, 2), (1,), (1,))
    assert Filling.from_rows(f.rows()) == f
    assert f.to_json_dict() == {"shape": [2, 1, 1], "rows": [[2], [1, 1, 1]]}
    assert Filling.from_rows([]) == Filling(())


@st.composite
def fillings(draw):
    heights = sorted(draw(st.lists(st.integers(1, 4), max_size=5)),
                     reverse=True)
    return Filling(tuple(tuple(draw(st.lists(st.integers(1, 9), min_size=h,
                                             max_size=h)))
                         for h in heights))


@given(fillings())
def test_from_rows_inverts_rows(f):
    assert Filling.from_rows(f.rows()) == f


@pytest.mark.parametrize("rows", [[(1, 2, 3), (1,)], [(1, 2), (3,)],
                                  [(1,), (), (2,)], [()], [(1,), ()]])
def test_from_rows_rejects_rows_that_are_not_a_partition(rows):
    with pytest.raises(ValueError, match="partition"):
        Filling.from_rows(rows)


def test_inv_small_rows():
    assert inv(Filling(((2,), (1,)))) == 1
    assert inv(Filling(((1,), (2,)))) == 0


def test_maj_small():
    assert maj(Filling(((1, 2),))) == 1
    assert maj(Filling(((2, 2), (2,)))) == 0


def test_x_weight():
    assert x_weight(Filling(((2,),)), 2) == MPoly.x(2, 2)
    f = Filling(((1, 1), (1,)))
    assert x_weight(f, 1) == MPoly.x(1, 1) ** 3


def test_enumerate_fillings_counts():
    assert len(list(enumerate_fillings((1,), 2))) == 2
    assert len(list(enumerate_fillings((2, 1, 1), 3))) == 81
    assert len(list(enumerate_fillings((2, 2), 2))) == 16


def _inv_oracle(f):
    """Triple count via the inequality characterization, ties by reading order."""
    shape = f.shape
    order = []
    for r in range(max(shape, default=0), 0, -1):
        for i in range(1, len(shape) + 1):
            if shape[i - 1] >= r:
                order.append((i, r))
    rank = {c: k for k, c in enumerate(order)}

    def key(cell):
        return (f.entry(*cell), rank[cell])

    count = 0
    for r in range(1, max(shape, default=0) + 1):
        live = [i for i in range(1, len(shape) + 1) if shape[i - 1] >= r]
        for ai in range(len(live)):
            for bi in range(ai + 1, len(live)):
                u, v = live[ai], live[bi]
                if r == 1:
                    if f.entry(u, 1) > f.entry(v, 1):
                        count += 1
                    continue
                a = key((v, r))
                b = key((u, r))
                c = key((u, r - 1))
                if (a < b <= c) or (c < a < b) or (b <= c < a):
                    count += 1
    return count


def test_inv_matches_inequality_oracle():
    for lam in partitions_of(4):
        for f in enumerate_fillings(lam, 3):
            assert inv(f) == _inv_oracle(f)


def test_htilde_brute_small():
    assert htilde_brute((1,), 2) == MPoly.x(2, 1) + MPoly.x(2, 2)
    h = htilde_brute((2, 1, 1), 3)
    ones = {f"x{i}": 1 for i in range(1, 4)} | {"q": 1, "t": 1}
    assert specialize(h, ones) == MPoly.const(3, 81)


def _diagrams(max_cells, max_cols):
    """Every composition with at most max_cols parts and max_cells cells."""
    out = [()]
    for shape in out:
        if len(shape) < max_cols:
            out.extend(shape + (h,) for h in range(max_cells - sum(shape) + 1))
    return out


def test_reading_key_is_the_printed_row_order():
    """ccw breaks ties by the key (-row, col): it lists the cells of a
    diagram in the order rows() prints their entries, the basement last."""
    checked = 0
    for shape in _diagrams(6, 6):
        diagram = cells(shape)
        label = {c: k for k, c in enumerate(diagram, start=1)}
        cols = tuple(tuple(label[(i, r)] for r in range(1, h + 1))
                     for i, h in enumerate(shape, start=1))
        basement = [(i, 0) for i in range(1, len(shape) + 1)]
        by_key = sorted(diagram + basement, key=lambda c: (-c[1], c[0]))
        printed = [e for row in AugmentedFilling(shape, cols).rows()
                   for e in row if e is not None]
        assert by_key == [diagram[e - 1] for e in printed] + basement, shape
        if is_partition(shape):
            printed = [e for row in Filling(cols).rows() for e in row]
            assert by_key[:len(diagram)] == [diagram[e - 1] for e in printed]
            checked += 1
    assert checked == sum(len(partitions_of(m)) for m in range(7))


def test_compare_columns_basics():
    assert compare_columns((1,), (2,)) == LESS
    assert compare_columns((2,), (1,)) == GREATER
    assert compare_columns((1, 3), (1, 3)) == EQUAL
    with pytest.raises(ValueError):
        compare_columns((1,), (1, 2))


def test_compare_columns_trichotomy():
    for h in (1, 2, 3):
        cols = list(product((1, 2, 3), repeat=h))
        for a in cols:
            for b in cols:
                if a == b:
                    assert compare_columns(a, b) == EQUAL
                else:
                    res = {compare_columns(a, b), compare_columns(b, a)}
                    assert res == {LESS, GREATER}, (a, b)


def test_is_sorted_small():
    assert is_sorted(BIG_SORTED)
    assert not is_sorted(Filling(((2,), (1,))))
    assert is_sorted(Filling(((1,), (1,))))


def test_enumerate_sorted_counts():
    assert len(list(enumerate_sorted((1, 1), 2))) == 3
    for k in (1, 2, 5):
        assert len(list(enumerate_sorted((1,), k))) == k
    st = list(enumerate_sorted((2, 1, 1), 3))
    assert len(st) == 54
    assert sum(1 for f in st if is_packed(f)) == 32


def test_enumerate_sorted_matches_filter():
    for lam in [(1, 1), (2,), (2, 1), (2, 2), (2, 1, 1), (3, 1)]:
        for n in (2, 3):
            direct = sorted(enumerate_sorted(lam, n), key=lambda f: f.cols)
            filtered = sorted((f for f in enumerate_fillings(lam, n)
                               if is_sorted(f)), key=lambda f: f.cols)
            assert direct == filtered


def test_perm_t_edge_cases():
    # distinct columns in one rectangle: [k]_t!
    f = Filling(((1,), (2,), (3,)))
    assert perm_t(f) == t_multinomial(3, [1, 1, 1])
    # all columns equal
    assert perm_t(Filling(((1, 2), (1, 2)))) == MPoly.one(0)
    with pytest.raises(ValueError):
        perm_t(Filling(((2,), (1,))))


def test_htilde_compact_equals_brute_small():
    for lam in [(1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1), (2, 2), (2, 1, 1)]:
        n = sum(lam)
        assert htilde_compact(lam, n) == htilde_brute(lam, n), lam


def test_htilde_routes_agree_with_few_variables():
    # fewer variables than cells exercises truncated alphabets
    for lam in [(2, 1, 1), (2, 2), (3, 1), (2, 2, 1)]:
        for n in (1, 2):
            assert htilde_compact(lam, n) == htilde_brute(lam, n), (lam, n)


def test_htilde_symmetric():
    from macpoly.mpoly import swap_vars
    for lam, n in [((2, 1), 3), ((2, 1, 1), 4), ((2, 2), 4)]:
        h = htilde_brute(lam, n)
        for i in range(1, n):
            assert swap_vars(h, i, i + 1) == h


def test_htilde_qt_symmetry():
    from macpoly.shapes import conjugate
    for lam in [(2, 1), (2, 2), (3, 1), (2, 1, 1)]:
        m = sum(lam)
        lhs = htilde_brute(lam, m)
        rhs = specialize(htilde_brute(conjugate(lam), m), {"q": "t", "t": "q"})
        assert lhs == rhs, lam


# -- operators ---------------------------------------------------------------

def test_flip_worked_example():
    f = Filling(((3, 1, 2, 3, 2, 3), (3, 4, 5, 4, 4, 3)))
    g, r = flip(f, 1)
    assert r == 2
    assert g.cols == ((3, 4, 5, 3, 2, 3), (3, 1, 2, 4, 4, 3))


def test_flip_single_row():
    g, r = flip(Filling(((1,), (2,))), 1)
    assert (g.cols, r) == (((2,), (1,)), 1)


def test_flip_errors():
    with pytest.raises(ValueError):
        flip(Filling(((1, 1), (1,))), 1)   # unequal heights
    with pytest.raises(ValueError):
        flip(Filling(((1,), (1,))), 1)     # identical columns


def test_flip_involution_randomized():
    rng = random.Random(20240811)
    shapes = [(2, 2), (3, 3), (2, 2, 2), (3, 3, 2), (4, 4)]
    for _ in range(10_000):
        lam = rng.choice(shapes)
        n = rng.choice((2, 3, 4))
        f = Filling(tuple(tuple(rng.randint(1, n) for _ in range(h))
                          for h in lam))
        eligible = [i for i in range(1, len(lam))
                    if lam[i - 1] == lam[i] and f.cols[i - 1] != f.cols[i]]
        if not eligible:
            continue
        i = rng.choice(eligible)
        g, _ = flip(f, i)
        assert flip(g, i)[0] == f


def test_pds_worked_example():
    assert pds((2, 5, 1, 4, 3)) == (3, 1, 4, 3, 2)
    assert pds((1, 2, 3)) == ()


def test_pds_set_n3():
    words = {pds(p) for p in permutations((1, 2, 3))}
    assert words == {(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)}
    assert (2, 1, 2) not in words


def test_pds_truncation_closure_s4():
    words = {pds(p) for p in permutations((1, 2, 3, 4))}
    assert len(words) == 24
    for w in words:
        for h in range(len(w) + 1):
            assert w[h:] in words


def test_blocks_worked_example():
    root = Filling.from_rows([(2, 1, 1), (1, 1, 3)])
    assert block_decomposition(root, 2) == [(1, 2), (3, 3)]
    assert block_decomposition(root, 1) == [(1, 3)]


def test_blocks_five_row_figure():
    f = Filling.from_rows([
        (3, 1, 3, 1, 1, 6),
        (1, 3, 3, 5, 5, 1),
        (3, 2, 2, 2, 2, 2),
        (4, 6, 6, 6, 5, 5),
        (3, 3, 3, 3, 9, 9),
    ])
    assert block_decomposition(f, 1) == [(1, 6)]
    assert block_decomposition(f, 2) == [(1, 4), (5, 6)]
    assert block_decomposition(f, 3) == [(1, 1), (2, 4), (5, 6)]
    assert block_decomposition(f, 4) == [(1, 1), (2, 4), (5, 6)]
    assert block_decomposition(f, 5) == [(1, 1), (2, 3), (4, 4), (5, 5), (6, 6)]


def test_blocks_row1_per_component():
    f = Filling(((1, 2), (2, 1), (3,), (1,)))
    assert block_decomposition(f, 1) == [(1, 2), (3, 4)]


FAMILY_CASES = [
    # (root rows top-first, multiset of (maj, inv) over the family)
    ([(1, 1, 1), (1, 2, 3)], [(0, 0), (0, 1), (0, 1), (0, 2), (0, 2), (0, 3)]),
    ([(1, 1, 2), (1, 1, 3)], [(0, 2), (0, 3), (0, 4)]),
    ([(3, 1, 1), (1, 1, 2)], [(1, 0), (1, 1), (1, 1), (1, 2), (1, 2), (1, 3)]),
    ([(2, 3, 1), (1, 1, 1)], [(2, 0), (2, 1), (2, 1), (2, 2), (2, 2), (2, 3)]),
    ([(2, 1, 1), (1, 1, 3)], [(1, 0), (1, 1), (1, 1), (1, 2), (1, 2), (1, 3)]),
    ([(1, 1, 3), (1, 1, 2)], [(1, 2), (1, 3), (1, 4)]),
]


@pytest.mark.parametrize("rows,weights", FAMILY_CASES)
def test_family_worked_examples(rows, weights):
    root = Filling.from_rows(rows)
    fam = family(root)
    assert sorted((maj(g), inv(g)) for g in fam) == sorted(weights)


def test_family_of_constant_filling():
    f = Filling(((1, 1), (1, 1), (1, 1)))
    assert family(f) == [f]


def test_family_requires_sorted():
    with pytest.raises(ValueError):
        family(Filling(((2,), (1,))))


def test_family_size_is_perm_t_at_one():
    for lam in [(2, 1), (2, 2), (1, 1, 1)]:
        for s in enumerate_sorted(lam, 3):
            size = specialize(perm_t(s), {"t": 1})
            assert MPoly.const(0, len(family(s))) == size


def test_family_tree_consistent():
    root = Filling.from_rows([(2, 1, 1), (1, 1, 3)])
    edges = family_tree(root)
    fam = set(family(root))
    nodes = {root} | {c for _, c, _, _ in edges}
    assert nodes == fam
    assert len(edges) == len(fam) - 1
    children = [c for _, c, _, _ in edges]
    assert len(set(children)) == len(children)


def test_family_tree_multicomponent():
    root = Filling(((1, 2), (1, 1), (1,), (2,)))
    assert is_sorted(root)
    edges = family_tree(root)
    fam = set(family(root))
    assert {root} | {c for _, c, _, _ in edges} == fam
    assert len(edges) == len(fam) - 1


def test_sort_filling_figure():
    tau = Filling.from_rows([(2, 1, 3, 3, 1), (3, 3, 2, 4, 2), (1, 2, 1, 2, 1)])
    sig = sort_filling(tau)
    assert sig.rows() == ((3, 2, 1, 1, 3), (2, 2, 3, 3, 4), (1, 1, 1, 2, 2))
    assert sort_filling(sig) == sig
    assert tau in family(sig)


def test_sort_filling_fixes_sorted():
    for s in enumerate_sorted((2, 2), 3):
        assert sort_filling(s) == s


def test_block_sort_single_row_over_support():
    two = Filling.from_rows([(7, 2, 4, 1, 1, 7), (1, 3, 3, 3, 4, 4)])
    assert sort_filling(two).rows()[0] == (7, 4, 1, 2, 7, 1)


def test_two_row_length_law():
    # a two-row tableau with constant bottom row c and sorted top row;
    # permuting the top row gives inv equal to the length of the shortest
    # rearranging permutation
    for width in (2, 3, 4):
        for c in (1, 2, 3):
            for top in product((1, 2, 3), repeat=width):
                start = tuple(sorted(e for e in top if e > c)) \
                    + tuple(sorted(e for e in top if e <= c))
                base = Filling(tuple((c, b) for b in start))
                assert is_sorted(base)
                for w in set(permutations(start)):
                    prime = Filling(tuple((c, b) for b in w))
                    wt = _shortest_rearranger(start, w)
                    assert inv(prime) == perm_length(wt), (start, w, c)


def test_partition_into_families():
    for lam in [(2, 1), (2, 2), (1, 1, 1), (3,)]:
        for n in (2, 3):
            seen = {}
            for s in enumerate_sorted(lam, n):
                for g in family(s):
                    assert g not in seen
                    seen[g] = s
            assert len(seen) == n ** sum(lam)
            for g, s in seen.items():
                assert sort_filling(g) == s


def test_family_weight_identity():
    n = 3
    q, t = MPoly.q(n), MPoly.t(n)
    for lam in [(2, 1), (2, 2), (1, 1, 1)]:
        for s in enumerate_sorted(lam, n):
            lhs = MPoly.zero(n)
            for g in family(s):
                lhs = lhs + q ** maj(g) * t ** inv(g)
            assert lhs == q ** maj(s) * t ** inv(s) * perm_t(s, n)
