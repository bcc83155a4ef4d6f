"""Fillings of partition diagrams and the compact modified-Macdonald machinery.

A :class:`Filling` assigns entries in {1..n} to the cells of a partition
diagram (columns weakly decreasing left to right, rows from 1 at the bottom).
This module computes the inv/maj statistics, the column order used to define
sorted tableaux, the inversion-flip operators together with their canonical
reduced words, block decompositions, the family generated by a sorted
tableau, and both the brute-force and the compact formula for the modified
Macdonald polynomial.

The one inversion rule: an upper entry a, its neighbour b and the entry z
below a are inverted when a comes after b in the cyclic order read upward
from z, the entries above z first, then those at most z, each part
increasing: the key (x <= z, x) of :func:`cyclic_key`.  Row 1 stands on an
implicit basement holding +inf, so row-1 pairs are inverted when a > b.  The
same rule judges inv, the column order, the flip operators and the
coinversions of :mod:`macpoly.nonattacking`; :func:`ccw` states it
geometrically.

:func:`htilde_compact`, through the kernel :func:`macpoly.mpoly.walk_sum`,
and :func:`enumerate_sorted` read the sorted mode of the one walk,
:func:`macpoly.shapes._walk`, which fills the columns left to right and
carries maj and coinv; on a partition every triple is inverted or a
coinversion, so inv is the count of all triples less coinv.  The public
:func:`inv`, :func:`maj`, :func:`is_sorted` and :func:`flip` read bounded
memos keyed by column tuples, each wrapping its rule: inv sums a per-pair
table of inverted triples, maj a per-column table, and the column order
and the flip each come from a per-pair table.  :func:`perm_t` and
:func:`family` check sortedness through the column-order table, and
:func:`sort_filling` checks each rectangular component once, in its memo.
The oracle :func:`htilde_brute` walks no search and reads none of these
memos: it sums over tuples of columns, with maj and inv tabled per column
and per two columns afresh on every call.  The tableau checks read one
table of same-height runs per shape.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import (chain, combinations, count, islice, product, repeat,
                       starmap)
from math import inf
from operator import add, itemgetter

from .mpoly import (MPoly, sum_by_content, t_multinomial_product, walk_sum,
                    weight_poly)
from .shapes import (Partition, _walk, canonical_w0_word, check_partition,
                     check_permutation, is_partition, rearrangements)

LESS, EQUAL, GREATER = -1, 0, 1


@dataclass(frozen=True)
class Filling:
    """Entries of a partition diagram, stored per column, bottom to top."""

    cols: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "cols", tuple(tuple(c) for c in self.cols))
        heights = self.shape
        if any(a < b for a, b in zip(heights, heights[1:])):
            raise ValueError(f"column heights {heights} do not weakly decrease")
        if any(e < 1 for col in self.cols for e in col):
            raise ValueError("entries must be positive")

    @classmethod
    def _trusted(cls, cols) -> "Filling":
        """The filling of a tuple of column tuples already known to be
        valid, built without the checks (for :func:`enumerate_sorted` and
        for the flips and the family walk, which keep the shape and the
        entries of a valid filling)."""
        f = object.__new__(cls)
        object.__setattr__(f, "cols", cols)
        return f

    @property
    def shape(self) -> Partition:
        return tuple(map(len, self.cols))

    def entry(self, i: int, r: int) -> int:
        return self.cols[i - 1][r - 1]

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Row-major entries, top row first (display order)."""
        shape = self.shape
        maxh = max(shape, default=0)
        return tuple(
            tuple(self.cols[i][r - 1] for i in range(len(shape)) if shape[i] >= r)
            for r in range(maxh, 0, -1))

    @classmethod
    def from_rows(cls, rows) -> "Filling":
        """Inverse of :meth:`rows` (rows given top first, left-justified).

        The row lengths, bottom row first, must form a partition.
        """
        rows = [tuple(r) for r in rows]
        lengths = [len(r) for r in reversed(rows)]
        if not is_partition(lengths):
            raise ValueError(f"row lengths {lengths[::-1]} (top first) do not "
                             "form a partition")
        ncols = len(rows[-1]) if rows else 0
        cols = []
        for i in range(ncols):
            col = [row[i] for row in reversed(rows) if i < len(row)]
            cols.append(tuple(col))
        return cls(tuple(cols))

    def to_json_dict(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(r) for r in self.rows()]}


def ccw(triple) -> bool:
    """triple: three ((col, row), entry) pairs; True iff counterclockwise.

    Cells are ranked by (entry, -row, col), so equal entries are read top
    row first, left to right.  The geometric reference the tests check
    :func:`inverted` against; no statistic or operator calls it:

    >>> ccw((((2, 2), 1), ((1, 2), 1), ((1, 1), 1)))
    False
    """
    ranked = sorted(triple, key=lambda ce: (ce[1], -ce[0][1], ce[0][0]))
    (x0, y0), (x1, y1), (x2, y2) = (c for c, _ in ranked)
    cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    return cross > 0


def cyclic_key(x, z=inf) -> tuple:
    """Rank of entry x in the cyclic order read upward from z."""
    return (x <= z, x)


def inverted(a, b, z=inf) -> bool:
    """Whether upper entry a, neighbour b and z below a form an inversion.

    Equal to ``ccw`` on the cells (b right of a, a, z under a), and to its
    negation on (b one row down left of a, a, z under a).  Compares the
    two :func:`cyclic_key` values without building them.
    """
    a_low, b_low = a <= z, b <= z
    return a > b if a_low == b_low else a_low


def inv(f: Filling) -> int:
    """Number of inverted triples, row-1 pairs over the basement included:
    the sum over each two columns of the memo :func:`_pair_inv`."""
    return sum(starmap(_pair_inv, combinations(f.cols, 2)))


def _inversions(cu, cv) -> int:
    """The inverted triples of column cv standing right of column cu: cv is
    no taller, so the pair shares the rows of cv, and the entry below row 1
    is the basement's +inf."""
    return sum(map(inverted, cu, cv, (inf,) + cu))


@lru_cache(maxsize=16384)
def _pair_inv(cu, cv) -> int:
    """:func:`_inversions`, memoised by the two column tuples, the last
    16,384 kept."""
    return _inversions(cu, cv)


def maj(f: Filling) -> int:
    """Sum of leg+1 over the cells above row 1 whose entry exceeds the
    entry below: the sum over the columns of the memo :func:`_column_maj`."""
    return sum(map(_column_maj, f.cols))


def _maj(cols) -> int:
    return sum(len(col) - k for col in cols for k in range(1, len(col))
               if col[k] > col[k - 1])


@lru_cache(maxsize=4096)
def _column_maj(col) -> int:
    """:func:`_maj` of one column tuple, memoised by it, the last 4,096
    kept."""
    return _maj((col,))


def x_content(cols, nvars: int) -> tuple[int, ...]:
    """The x-exponents of a filling given by its columns."""
    exps = [0] * nvars
    for col in cols:
        for e in col:
            if e > nvars:
                raise ValueError(f"entry {e} exceeds the variable count {nvars}")
            exps[e - 1] += 1
    return tuple(exps)


def x_weight(f: Filling, nvars: int) -> MPoly:
    return MPoly.monomial(nvars, x_content(f.cols, nvars))


def enumerate_fillings(shape, n: int):
    """All n^|shape| fillings with entries in 1..n, in a fixed order: the
    product of per-height lists of column tuples, the last entry changing
    fastest.  The shape is checked once and each filling is built without
    the checks."""
    shape = check_partition(shape)
    cols = {h: list(product(range(1, n + 1), repeat=h)) for h in set(shape)}
    for combo in product(*[cols[h] for h in shape]):
        yield Filling._trusted(combo)


def htilde_brute(shape, n: int) -> MPoly:
    """Modified Macdonald polynomial as the sum over all n^|shape|
    fillings, taken as tuples of columns by :func:`_column_tally`: each
    column's content and maj once per height, and the inv of two columns
    once per pair of heights, by :func:`_inversions` with no memo."""
    shape = check_partition(shape)
    # a filling's code: its content, a digit per value, then maj, then inv
    radices = (sum(i * h for i, h in enumerate(shape)) + 1,
               sum(h * (h - 1) // 2 for h in shape) + 1, sum(shape) + 1)
    tally = _column_tally(
        shape, n, lambda u, c: (sum(radices[2] ** (e - 1) for e in c)
                                * radices[1] + _maj((c,))) * radices[0],
        _inversions)
    return MPoly(n, _read_terms(tally, radices, n))


def _read_terms(tally, radices, n: int) -> dict:
    """The term dict of a tally of codes (content * q_radix + e_q) * t_radix
    + e_t, ``radices`` being (t_radix, q_radix, base): the content has a
    digit per value, base above the cell count, so columns add no carry."""
    t_radix, q_radix, base = radices
    xs: dict[int, tuple] = {}  # content code -> x-exponents
    terms = {}
    for code, c in tally.items():
        code, t = divmod(code, t_radix)
        code, q = divmod(code, q_radix)
        x = xs.get(code)
        if x is None:
            x = xs[code] = tuple(code // base ** k % base for k in range(n))
        terms[(*x, q, t)] = c
    return terms


def _column_tally(shape, n: int, code, pair, bound=inf) -> Counter:
    """Tally the codes of the n^|shape| fillings of a partition shape: the
    sum of code(u, c) over its column c at each position u and of
    pair(c, c') over each two of its columns, the left one first.  Both
    are tabled first, per column and per two columns of each pair of
    heights.  A filling or a prefix of it reaching ``bound`` is dropped.
    The last column is summed in one C-level pass per prefix: its codes
    plus the prefix's pair-table rows, tallied."""
    cols = {h: list(product(range(1, n + 1), repeat=h)) for h in shape}
    pairs = {hs: [[pair(cu, cv) for cv in cols[hs[1]]] for cu in cols[hs[0]]]
             for hs in set(combinations(shape, 2))}
    tally = Counter()
    last = len(shape) - 1

    def walk(u, s, acc):
        # acc[w]: per column at position u + w, its code plus its pair
        # values with the columns chosen left of u
        if u == last:
            out = map(add, acc[0], repeat(s))
            tally.update(out if bound == inf else filter(bound.__gt__, out))
            return
        tables = [pairs[shape[u], h] for h in shape[u + 1:]]
        for j, c in enumerate(acc[0]):
            if s + c < bound:
                walk(u + 1, s + c, [list(map(add, a, t[j]))
                                    for a, t in zip(acc[1:], tables)])

    if shape:
        walk(0, 0, [[code(u, c) for c in cols[h]]
                    for u, h in enumerate(shape)])
    else:
        tally[0] = 1
    return tally


# -- the column order and sorted tableaux ----------------------------------

def compare_columns(a, b) -> int:
    """Order two same-height columns, `a` standing to the left of `b`.

    Returns LESS, EQUAL or GREATER.  Columns are given bottom to top.
    """
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError("columns must have equal height")
    for x, y, z in zip(a, b, (inf,) + a):
        if x != y:
            return GREATER if inverted(x, y, z) else LESS
    return EQUAL


@lru_cache(maxsize=16384)
def _column_order(a, b) -> int:
    """:func:`compare_columns` on two same-height column tuples, memoised by
    them, the last 16,384 kept."""
    return compare_columns(a, b)


def is_sorted(f: Filling) -> bool:
    """True iff every run of same-height adjacent columns weakly increases,
    each two neighbours judged by the memo :func:`_column_order`."""
    cols = f.cols
    return all(_column_order(cols[i - 1], cols[i]) != GREATER
               for i in _shape_table(f.shape)[1])


def is_packed(f: Filling) -> bool:
    """True iff the set of entries is {1, ..., k} for some k."""
    vals = {e for col in f.cols for e in col}
    return vals == set(range(1, len(vals) + 1))


def components(shape) -> list[tuple[int, int]]:
    """Maximal runs of equal-height columns, as 1-based (lo, hi) ranges."""
    return list(_shape_table(tuple(shape))[0])


@lru_cache(maxsize=1024)
def _shape_table(shape) -> tuple:
    """The maximal runs of equal-height columns of a shape, as 1-based (lo,
    hi) ranges, and the columns i whose right neighbour has the same
    height, memoised by the shape's tuple, the last 1,024 kept."""
    runs, lo = [], 1
    for i in range(2, len(shape) + 1):
        if shape[i - 1] != shape[lo - 1]:
            runs.append((lo, i - 1))
            lo = i
    if shape:
        runs.append((lo, len(shape)))
    return tuple(runs), tuple(i for lo, hi in runs for i in range(lo, hi))


def enumerate_sorted(shape, n: int):
    """All sorted tableaux with entries in 1..n, built constructively.

    Columns are filled left to right, each bottom to top and each
    same-height run as a weakly increasing chain under the column order.
    """
    shape = check_partition(shape)
    cols = [slice(sum(shape[:i]), sum(shape[:i + 1]))
            for i in range(len(shape))]
    for entries, *_ in _walk(shape, None, n, sorted_tableaux=True):
        yield Filling._trusted(tuple([tuple(entries[col]) for col in cols]))


def _require_sorted(f: Filling) -> tuple:
    """The same-height runs of a sorted tableau; any other filling raises."""
    if not is_sorted(f):
        raise ValueError("filling is not a sorted tableau")
    return _shape_table(f.shape)[0]


def _signature(cols, runs):
    """Per same-height run: its width and sorted column multiplicities."""
    blocks = [cols[lo - 1:hi] for lo, hi in runs]
    return tuple((len(b), tuple(sorted(map(b.count, set(b))))) for b in blocks)


def perm_t(f: Filling, nvars: int = 0) -> MPoly:
    """Product over same-height runs of t-multinomials of column multiplicities."""
    sig = _signature(f.cols, _require_sorted(f))
    return weight_poly(t_multinomial_product(sig), nvars)


def htilde_compact(shape, n: int) -> MPoly:
    """Modified Macdonald polynomial as the sum over sorted tableaux, by
    content; inv is the count of all triples less coinv."""
    shape = check_partition(shape)
    triples = sum(i * h for i, h in enumerate(shape))
    return sum_by_content(n, sum(shape), lambda nu: walk_sum(
        _walk(shape, None, n, content=nu, sorted_tableaux=True),
        partial(_perm_t_weight, shape), inv_total=triples))


def _perm_t_weight(shape, mask):
    """The perm_t weight of a sorted tableau at a walk mask.  A column
    repeats its same-height left neighbour exactly when its top cell's bit
    is set, and equal columns of a run are adjacent, so the columns labelled
    by their runs of repeats and the shape's runs give the signature."""
    labels, top = [], -1
    for i, h in enumerate(shape):
        top += h
        labels.append(labels[-1] if mask >> top & 1 else i)
    return t_multinomial_product(_signature(labels, _shape_table(shape)[0]))


# -- inversion-flip operators ----------------------------------------------

def flip(f: Filling, i: int) -> tuple[Filling, int]:
    """Apply the inversion-flip operator at columns i, i+1.

    The pivot row r is the lowest row where the two columns differ (they
    must have equal height and not be identical).  Returns the new filling
    and r.  The swap climbs from row r for as long as it changes whether
    the pair one row up is inverted, judged in the cyclic order read upward
    from the entry below its left cell before and after the swap.  The
    flipped pair and r come from the memo :func:`_flip_pair`, keyed by the
    two column tuples, through :func:`_flip_cols`, which the family walk
    and :func:`sort_filling` call directly.  The swap keeps the shape and
    the entries of the valid input, so the result is built without the
    checks.
    """
    if not (1 <= i < len(f.cols)):
        raise ValueError(f"column {i} out of range")
    if len(f.cols[i - 1]) != len(f.cols[i]):
        raise ValueError(f"columns {i}, {i + 1} differ in height")
    cols, r = _flip_cols(f.cols, i)
    return Filling._trusted(cols), r


def _flip_cols(cols, i: int) -> tuple[tuple, int]:
    """:func:`flip` on column tuples, columns i, i+1 of equal height, the
    pair read from the memo :func:`_flip_pair`."""
    flipped = _flip_pair(cols[i - 1], cols[i])
    if flipped is None:
        raise ValueError(f"columns {i}, {i + 1} are identical")
    a, b, r = flipped
    return cols[:i - 1] + (a, b) + cols[i + 1:], r


@lru_cache(maxsize=16384)
def _flip_pair(a, b):
    """The flip of two equal-height column tuples: the flipped left and
    right columns and the pivot row, or None when the two are identical;
    memoised by the two tuples, the last 16,384 kept."""
    r = next((r for r in range(1, len(a) + 1) if a[r - 1] != b[r - 1]), None)
    if r is None:
        return None
    a, b = list(a), list(b)
    k = r - 1
    a[k], b[k] = b[k], a[k]
    while k + 1 < len(a) and (inverted(a[k + 1], b[k + 1], b[k])
                              != inverted(a[k + 1], b[k + 1], a[k])):
        k += 1
        a[k], b[k] = b[k], a[k]
    return tuple(a), tuple(b), r


def pds(v) -> tuple[int, ...]:
    """Canonical reduced word for v: the rightmost-greedy subword of
    (s_1)(s_2 s_1)...(s_{n-1} ... s_1).

    Returned left to right; when used as an operator word, the rightmost
    letter acts first.
    """
    cur = list(check_permutation(v))
    kept = []
    for i in reversed(canonical_w0_word(len(cur))):
        if cur[i - 1] > cur[i]:
            cur[i - 1], cur[i] = cur[i], cur[i - 1]
            kept.append(i)
    return tuple(reversed(kept))


# -- blocks, families, and the reverse algorithm ----------------------------

def block_decomposition(f: Filling, r: int) -> list[tuple[int, int]]:
    """Blocks of row r: maximal runs of columns agreeing on all rows below r.

    Runs never cross a change of column height; for r = 1 each same-height
    run is a single block.  Returned as 1-based (lo, hi) column ranges.
    """
    shape = f.shape
    return [(lo + a - 1, lo + b - 1) for lo, hi in components(shape)
            if shape[lo - 1] >= r for a, b in _row_blocks(f.cols[lo - 1:hi], r)]


def _row_blocks(cols, r: int) -> list[tuple[int, int]]:
    """The blocks of row r of a rectangular piece given by its nonempty
    column tuples, as 1-based (lo, hi) ranges within the piece."""
    out, start = [], 1
    for i in range(2, len(cols) + 1):
        if cols[i - 1][:r - 1] != cols[i - 2][:r - 1]:
            out.append((start, i - 1))
            start = i
    return out + [(start, len(cols))]


def _shortest_rearranger(base, target):
    """Shortest permutation p with target[j-1] == base[p^{-1}(j)-1].

    Equal values are matched in order, which minimizes the inversion count.
    """
    slots: dict[int, list[int]] = {}
    for j, v in enumerate(target, start=1):
        slots.setdefault(v, []).append(j)
    taken = {v: 0 for v in slots}
    p = [0] * len(base)
    for pos, v in enumerate(base, start=1):
        p[pos - 1] = slots[v][taken[v]]
        taken[v] += 1
    return tuple(p)


@lru_cache(maxsize=1024)
def _component_family(cols) -> tuple[tuple, tuple]:
    """The family of one rectangular component and its operator tree,
    memoised by the component's column tuple, the last 1,024 kept.

    Rows are handled top down, on column tuples through :func:`_flip_cols`;
    a row whose blocks are each constant has one arrangement, the empty
    word, and is skipped.  Returns the members' column tuples and the
    tree's edges (parent cols, child cols, column, row), one per member
    reached by a flip: the first flip reaching it, in the order reached.
    """
    members = [cols]
    edges: dict = {}  # child cols -> (parent cols, column, row)
    for r in range(len(cols[0]), 0, -1):
        root_row = tuple(col[r - 1] for col in cols)
        blocks = [root_row[lo - 1:hi] for lo, hi in _row_blocks(cols, r)]
        if all(len(set(block)) == 1 for block in blocks):
            continue
        # a word per block-respecting rearrangement, in the rows' lex order
        words = [pds(_shortest_rearranger(root_row, sum(combo, ())))
                 for combo in product(*map(rearrangements, blocks))]
        new_members = []
        for g in members:
            for w in words:
                cur = g
                for letter in reversed(w):  # rightmost letter acts first
                    nxt, rr = _flip_cols(cur, letter)
                    if rr != r:
                        raise AssertionError(
                            f"operator acted at row {rr}, expected {r}")
                    edges.setdefault(nxt, (cur, letter, rr))
                    cur = nxt
                new_members.append(cur)
        members = new_members
    return tuple(members), tuple((p, c, i, r) for c, (p, i, r) in edges.items())


def family(f: Filling) -> list[Filling]:
    """All fillings generated from a sorted tableau by the flip operators,
    in canonical (row-major) order.

    The root alone when each rectangular component's family is; otherwise
    the memoised members of the components (:func:`_component_family`),
    glued into a fresh list, sorted by the entries in row-major order
    through an index worked out once from the root's shape, and checked
    for duplicates on the column tuples.
    """
    parts = [_component_family(f.cols[lo - 1:hi])[0]
             for lo, hi in _require_sorted(f)]
    if all(len(members) == 1 for members in parts):
        return [f]
    members = [sum(combo, ()) for combo in product(*parts)]
    # the row-major order of rows(), read off a filling whose entries are
    # their own positions in the flat column-major entries
    at = count()
    index = Filling._trusted(tuple(tuple(islice(at, h)) for h in f.shape))
    entries = itemgetter(*chain.from_iterable(index.rows()))
    members.sort(key=lambda cols: entries((*chain.from_iterable(cols),)))
    if len(set(members)) != len(members):
        raise AssertionError("family produced a duplicate member")
    return [Filling._trusted(cols) for cols in members]


def family_tree(f: Filling) -> list[tuple[Filling, Filling, int, int]]:
    """Edges (parent, child, column, row) of the operator tree of a family.

    Components are chained: every member of an earlier component's tree is
    combined with the roots of later ones, so the edge set covers the whole
    family exactly once.  Each memoised component edge is glued between the
    prefix members and the root's columns to the right.
    """
    runs = _require_sorted(f)
    walks = [_component_family(f.cols[lo - 1:hi]) for lo, hi in runs]
    out = []
    for k, ((lo, hi), (_, edges)) in enumerate(zip(runs, walks)):
        suffix = f.cols[hi:]
        for pre in product(*(members for members, _ in walks[:k])):
            pre = sum(pre, ())
            out.extend((Filling._trusted(pre + parent + suffix),
                        Filling._trusted(pre + child + suffix), i + lo - 1, r)
                       for parent, child, i, r in edges)
    return out


def sort_filling(f: Filling) -> Filling:
    """The unique sorted tableau whose family contains f.

    Sorts one rectangular component at a time through the memo
    :func:`_sort_component`, which checks each component it reaches sorted;
    a glued filling is sorted exactly when each of its same-height
    components is, so the tableau reached is built without the checks.
    """
    return Filling._trusted(sum((_sort_component(f.cols[lo - 1:hi])
                                 for lo, hi in _shape_table(f.shape)[0]), ()))


@lru_cache(maxsize=1024)
def _sort_component(cols) -> tuple:
    """The sorted column tuple of one rectangular component's family,
    memoised by the component's column tuple, the last 1,024 kept.

    Puts each row into sorted order from the bottom up by undoing
    canonical operator words, on column tuples through :func:`_flip_cols`,
    then checks the columns reached weakly increase.
    """
    for r in range(1, len(cols[0]) + 1):
        target = []
        for blo, bhi in _row_blocks(cols, r):
            z = ((inf,) + cols[blo - 1])[r - 1]  # below the block
            seg = [col[r - 1] for col in cols[blo - 1:bhi]]
            target.extend(sorted(seg, key=lambda e: cyclic_key(e, z)))
        current = tuple(col[r - 1] for col in cols)
        target = tuple(target)
        if current != target:
            for letter in pds(_shortest_rearranger(target, current)):
                cols, rr = _flip_cols(cols, letter)
                if rr != r:
                    raise AssertionError(
                        f"undo step acted at row {rr}, expected {r}")
        if tuple(col[r - 1] for col in cols) != target:
            raise AssertionError("row did not reach sorted order")
    if GREATER in starmap(_column_order, zip(cols, cols[1:])):
        raise ValueError("filling is not a sorted tableau")
    return cols
