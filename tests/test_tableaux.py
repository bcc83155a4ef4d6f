import hashlib
import random
import re
from collections import Counter
from itertools import combinations, permutations, product, starmap
from math import inf

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import macpoly.cli as cli
from macpoly import tableaux
from macpoly.mpoly import MPoly, specialize, t_multinomial
from macpoly.nonattacking import AugmentedFilling
from macpoly.shapes import cells, is_partition, partitions_of, perm_length
from macpoly.tableaux import (EQUAL, GREATER, LESS, Filling,
                              block_decomposition, compare_columns,
                              enumerate_fillings, enumerate_sorted, family,
                              ccw, cyclic_key, family_tree, flip, htilde_brute,
                              htilde_compact, inv, inverted, is_packed,
                              is_sorted, maj, pds, perm_t, sort_filling,
                              x_content, x_weight, _shortest_rearranger)

from memos import clear_tableaux_memos

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
    with pytest.raises(ValueError, match="entry 3 exceeds the variable count 2"):
        x_content(((1, 3),), 2)


def test_filling_rejects_rising_columns():
    with pytest.raises(ValueError, match=re.escape(
            "column heights (1, 2) do not weakly decrease")):
        Filling(((1,), (1, 2)))


def test_enumerate_fillings_counts():
    assert len(list(enumerate_fillings((1,), 2))) == 2
    assert len(list(enumerate_fillings((2, 1, 1), 3))) == 81
    assert len(list(enumerate_fillings((2, 2), 2))) == 16


def test_enumerate_fillings_follows_the_flat_entry_order():
    # column by column, each bottom to top, the last entry changing fastest
    for m in range(7):
        for lam in partitions_of(m):
            starts = [sum(lam[:i]) for i in range(len(lam) + 1)]
            for n in (1, 2, 3):
                flat = [tuple(e[a:b] for a, b in zip(starts, starts[1:]))
                        for e in product(range(1, n + 1), repeat=m)]
                assert [f.cols for f in enumerate_fillings(lam, n)] == flat


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


def _fillings_up_to_five_cells():
    return [f for m in range(6) for lam in partitions_of(m)
            for n in (1, 2, 3) for f in enumerate_fillings(lam, n)]


def _maj_direct(f):
    return sum(len(col) - r for col in f.cols for r in range(1, len(col))
               if col[r] > col[r - 1])


def _is_sorted_direct(f):
    return all(compare_columns(a, b) != GREATER
               for a, b in zip(f.cols, f.cols[1:]) if len(a) == len(b))


def test_the_memoised_statistics_are_the_direct_ones_cold_and_warm():
    fillings = _fillings_up_to_five_cells()
    clear_tableaux_memos()
    for _ in ("cold", "warm"):
        for f in fillings:
            assert inv(f) == _inv_oracle(f), f
            assert maj(f) == _maj_direct(f), f
            assert is_sorted(f) == _is_sorted_direct(f), f


def test_clear_tableaux_memos_empties_every_memo():
    for f in _fillings_up_to_five_cells()[:400]:
        inv(f), maj(f), is_sorted(f), sort_filling(f)
    tables = [v for v in vars(tableaux).values() if hasattr(v, "cache_clear")]
    assert {tableaux._pair_inv, tableaux._column_maj, tableaux._column_order,
            tableaux._flip_pair, tableaux._sort_component} <= set(tables)
    assert any(m.cache_info().currsize for m in tables)
    clear_tableaux_memos()
    assert all(m.cache_info().currsize == 0 for m in tables)


def test_htilde_brute_small():
    assert htilde_brute((1,), 2) == MPoly.x(2, 1) + MPoly.x(2, 2)
    h = htilde_brute((2, 1, 1), 3)
    ones = {f"x{i}": 1 for i in range(1, 4)} | {"q": 1, "t": 1}
    assert specialize(h, ones) == MPoly.const(3, 81)


def _htilde_per_filling(shape, n):
    """The sum that htilde_brute took before it went by columns: the public
    inv and maj of every filling."""
    terms = {}
    for f in enumerate_fillings(shape, n):
        key = x_content(f.cols, n) + (maj(f), inv(f))
        terms[key] = terms.get(key, 0) + 1
    return MPoly(n, terms)


def _tally_directly(shape, n, pair, extra):
    """(content, maj, pair sum, extra) -> count, one filling at a time."""
    out = Counter()
    for cols in product(*[product(range(1, n + 1), repeat=h) for h in shape]):
        pairs = list(starmap(pair, combinations(cols, 2)))
        if None not in pairs:
            out[x_content(cols, n), maj(Filling(cols)), sum(pairs),
                sum(starmap(extra, enumerate(cols)))] += 1
    return out


def _coinversions_apart(cu, cv):
    """A pair that forbids two columns with equal bottom entries."""
    return None if cu[0] == cv[0] else len(cv) - tableaux._inversions(cu, cv)


def _top_by_position(u, c):
    return (u + 1) * c[-1]


def test_column_tally_counts_every_filling_by_its_statistics():
    # the inversions with no extra, as htilde_brute takes them, and a pair
    # that drops fillings with an extra that is nonzero at every position
    cases = [(tableaux._inversions, None, lambda u, c: 0),
             (_coinversions_apart, _top_by_position, _top_by_position)]
    for m in range(5):
        for lam in partitions_of(m):
            for n in range(4):
                for pair, extra, direct in cases:
                    got = [((x, q, p, e), c) for x, q, p, e, c
                           in tableaux._column_tally(lam, n, pair, extra)]
                    assert len(dict(got)) == len(got), (lam, n)
                    assert dict(got) == _tally_directly(
                        lam, n, pair, direct), (lam, n)


def test_htilde_brute_equals_the_per_filling_sum():
    for m in range(5):
        for lam in partitions_of(m):
            for n in range(5):
                assert htilde_brute(lam, n) == _htilde_per_filling(lam, n), \
                    (lam, n)


def test_htilde_brute_edges():
    assert htilde_brute((), 3) == MPoly.one(3)
    assert htilde_brute((), 0) == MPoly.one(0)
    assert htilde_brute((2, 1), 0) == MPoly.zero(0)
    with pytest.raises(ValueError, match="is not a partition"):
        htilde_brute((1, 2), 2)


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


def test_inverted_is_the_geometric_orientation():
    """inverted(a, b, z) is ccw on the same-row-right triple (kind A, inv,
    the column order) and its negation on the row-below-left triple (kind
    B), at interior rows and over the basement; z = +inf is plain >."""
    vals = range(1, 6)
    for a, b, z in product(vals, repeat=3):
        for r in (2, 1):
            right = ccw((((2, r), b), ((1, r), a), ((1, r - 1), z)))
            below_left = ccw((((1, r - 1), b), ((2, r), a), ((2, r - 1), z)))
            assert inverted(a, b, z) == right == (not below_left), (a, b, z, r)
    for a, b in product(vals, repeat=2):
        assert inverted(a, b) == (a > b)


def test_inverted_compares_the_cyclic_keys():
    for a, b, z in product(range(1, 6), range(1, 6), [*range(1, 6), inf]):
        assert inverted(a, b, z) == (cyclic_key(a, z) > cyclic_key(b, z)), \
            (a, b, z)


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
        # is_sorted and enumerate_sorted compare adjacent columns only
        for a, b, c in product(cols, repeat=3):
            if GREATER not in (compare_columns(a, b), compare_columns(b, c)):
                assert compare_columns(a, c) != GREATER, (a, b, c)


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
    with pytest.raises(ValueError, match="differ in height"):
        flip(Filling(((1, 1), (1,))), 1)
    with pytest.raises(ValueError, match="are identical"):
        flip(Filling(((1,), (1,))), 1)
    # the memoised pair table leaves the column numbers to the caller
    with pytest.raises(ValueError, match="columns 2, 3 are identical"):
        flip(Filling(((2,), (1,), (1,))), 2)
    for i in (0, 2, -1):
        with pytest.raises(ValueError, match="out of range"):
            flip(Filling(((1,), (2,))), i)


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


def _sorted_roots_up_to_five_cells():
    return [s for m in range(1, 6) for lam in partitions_of(m)
            for n in (1, 2, 3) for s in enumerate_sorted(lam, n)]


def test_family_members_are_checked_fillings_and_the_memo_is_not_shared():
    # The members are built without the checks, and the component families
    # are memoised; a caller's list is its own.
    for s in _sorted_roots_up_to_five_cells():
        fam = family(s)
        assert all(g == Filling(g.cols) for g in fam), s
        members = list(fam)
        fam.clear()
        assert family(s) == members, s
        for g in members:
            assert sort_filling(g) == s
            for i in range(1, len(g.cols)):
                if len(g.cols[i - 1]) == len(g.cols[i]) \
                        and g.cols[i - 1] != g.cols[i]:
                    h = flip(g, i)[0]
                    assert h == Filling(h.cols), (g, i)


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


def test_family_tree_of_every_small_root():
    # Every sorted root with at most 5 cells at n <= 3.  A flip of the
    # parent at the edge's column reproduces the child and its row, which
    # pins the column offset of later components; the glued fillings are
    # what the checked constructor keeps.
    total = 0
    for m in range(6):
        for lam in partitions_of(m):
            for n in range(1, 4):
                for root in enumerate_sorted(lam, n):
                    edges = family_tree(root)
                    fam = family(root)
                    assert {root} | {c for _, c, _, _ in edges} == set(fam)
                    assert len(edges) == len(fam) - 1, root
                    for parent, child, i, r in edges:
                        assert flip(parent, i) == (child, r), (root, i)
                        for g in (parent, child):
                            assert g == Filling(g.cols)
                    total += len(edges)
    assert total == 801


def _sorted_roots_up_to_six_cells():
    return [s for m in range(7) for lam in partitions_of(m)
            for n in (1, 2, 3) for s in enumerate_sorted(lam, n)]


def test_family_comes_out_in_row_order():
    # family sorts by a row-major index of the flat column entries, which
    # must agree with sorting by Filling.rows().
    for s in _sorted_roots_up_to_six_cells():
        rows = [g.rows() for g in family(s)]
        assert rows == sorted(set(rows)), s


def test_sort_filling_without_the_memos_is_the_memoised_answer():
    for s in _sorted_roots_up_to_six_cells():
        for g in family(s):
            memoised = sort_filling(g)
            clear_tableaux_memos()
            assert sort_filling(g) == memoised == s, g


def _walk_digest(walk):
    h = hashlib.sha256()
    for s in _sorted_roots_up_to_six_cells():
        h.update(repr((s.cols, walk(s))).encode())
    return h.hexdigest()


def test_family_and_family_tree_keep_their_recorded_digests():
    # Recorded from the walks on Filling objects that preceded the walks
    # on column tuples: the same members and edges, in the same order.
    assert _walk_digest(lambda s: [g.cols for g in family(s)]) == \
        "a76208714a4c0a5deaaf3cf60bf3175dfee35901c990a12c013ef5bd909e420f"
    assert _walk_digest(lambda s: [(p.cols, c.cols, i, r)
                                   for p, c, i, r in family_tree(s)]) == \
        "da44ed8fdc81ea42ed0baaab59e182373c1a1f95aa48cbeb3b0e47f67b7a0907"


def _has_equal_parts(lam):
    return len(set(lam)) < len(lam)


@pytest.mark.parametrize("m", range(7))
def test_a_shape_without_equal_parts_is_all_width_one_runs(m):
    # Every filling is sorted and its own family of weight 1, and the
    # sorted tableaux stream in the walk's order, the flat entry order.
    for lam in partitions_of(m):
        if _has_equal_parts(lam):
            continue
        for n in (0, 1, 2, 3):
            fs = list(enumerate_sorted(lam, n))
            assert fs == list(enumerate_fillings(lam, n)), (lam, n)
            for f in fs:
                assert family(f) == [f]
                assert sort_filling(f) == f
                assert perm_t(f) == MPoly.one(0)


def _mixed_shapes():
    """The shapes of at most 7 cells with a width-one run beside a wider
    one: some part occurs once and some more than once."""
    return [lam for m in range(8) for lam in partitions_of(m)
            if _has_equal_parts(lam)
            and any(lam.count(h) == 1 for h in lam)]


def _width_one_mismatches():
    """The fillings of the mixed shapes at n <= 3 where family or
    sort_filling differs from the component memos composed over every run,
    the width-one runs included; the roots are found by is_sorted, so the
    enumeration under test is not relied on."""
    out = []
    for lam in _mixed_shapes():
        runs = tableaux.components(lam)
        for n in (1, 2, 3):
            for f in enumerate_fillings(lam, n):
                pieces = [f.cols[lo - 1:hi] for lo, hi in runs]
                if sort_filling(f).cols != sum(
                        map(tableaux._sort_component, pieces), ()):
                    out.append(("sort_filling", f))
                if not is_sorted(f):
                    continue
                members = sorted(
                    (Filling(sum(combo, ())) for combo in product(
                        *(tableaux._component_family(p)[0] for p in pieces))),
                    key=Filling.rows)
                if family(f) != members:
                    out.append(("family", f))
    return out


def test_width_one_runs_are_copied_beside_the_wider_runs():
    assert {(3, 2, 2), (2, 2, 1), (3, 1, 1)} <= set(_mixed_shapes())
    assert _width_one_mismatches() == []


def test_enumerate_sorted_streams_a_shape_without_equal_parts():
    assert next(enumerate_sorted((3,), 10 ** 6)) == Filling(((1, 1, 1),))


def test_two_equal_columns_taken_as_width_one_fail(monkeypatch):
    # A planted width-one rule that also takes a run of two equal columns
    # as width-one: family and sort_filling then leave such runs alone, and
    # enumerate_sorted streams the unsorted fillings of (1, 1) as roots,
    # which the family-partition suite's family call refuses.
    real = tableaux._shape_table

    def planted(shape):
        table = real(shape)
        return table._replace(wide=tuple((lo, hi) for lo, hi in table.wide
                                         if hi - lo > 1))

    clear_tableaux_memos()
    monkeypatch.setattr(tableaux, "_shape_table", planted)
    try:
        assert _width_one_mismatches()
        res = CliRunner().invoke(cli.main, ["validate", "--suite",
                                            "family-partition", "--max", "3"])
        assert res.exit_code != 0
        assert str(res.exception) == "filling is not a sorted tableau"
    finally:
        clear_tableaux_memos()


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
