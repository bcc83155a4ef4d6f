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
carries maj and inv.  The public :func:`inv`, :func:`maj`,
:func:`is_sorted` and :func:`flip` read bounded memos keyed by column
tuples, each wrapping its rule: inv sums a per-pair table of inverted
triples, maj a per-column table, and the column order and the flip each
come from a per-pair table.  :func:`perm_t` and
:func:`family` check sortedness through the column-order table, and
:func:`sort_filling` checks each run of two or more columns once, in its
memo.
The oracles :func:`htilde_brute` and :func:`macpoly.nonattacking.j_hhl`
walk no search and read none of these memos: each reads the counts of
fillings by (content, maj, pair sum, extra) of one column tally,
:func:`_column_tally`, which tables the statistics per column and per two
columns afresh on every call.  The tableau checks read one table of
same-height runs per shape, :func:`_shape_table`.

The width-one rule: a same-height run of one column (for a partition, a
part that occurs once) is its own family, already sorted, of weight 1 and
fixed by every flip.  So :func:`family` and :func:`sort_filling` send only
the runs of two or more columns through the component memos and copy the
width-one columns as they are, :func:`perm_t` reads only the wider runs and
is 1 without one, and :func:`enumerate_sorted` streams every filling of a
shape with no two equal parts, which are all sorted, without walking.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import (accumulate, chain, combinations, count, islice, product,
                       repeat, starmap)
from math import inf
from operator import add, floordiv, itemgetter, mod
from typing import NamedTuple

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
    fillings: the counts of :func:`_column_tally` with the inv of two
    columns, :func:`_inversions`, as the pair statistic."""
    shape = check_partition(shape)
    return MPoly(n, {(*x, q, t): c for x, q, t, _, c
                     in _column_tally(shape, n, _inversions)})


def _column_tally(shape, n: int, pair, extra=None):
    """The n^|shape| fillings of a partition shape, taken as tuples of
    columns, counted by (content, maj, pair sum, extra): the x-exponents;
    the maj of the columns; the sum of pair(c, c') over each two columns,
    c left of c', an int in 0..len(c') or None where the two may not stand
    together, which drops the filling; and the sum of extra(u, c), a
    nonnegative int, over the column c at each position u (0 without
    ``extra``).  Returns an iterator of each distinct one and its count.

    The statistics are tabled per column and per two columns of each pair
    of heights as one integer code, lowest digit first: the pair sum, below
    1 + sum (i-1) h_i; maj; the content, a digit per value, base above the
    cell count; then the extra.  A filling's code is the sum of its
    columns' and its pairs' codes; a None pair reads as one past the
    largest code, which drops every prefix reaching it.  The last column is
    summed in one C-level pass per prefix, its codes plus the prefix's
    pair-table rows, and tallied; each distinct code is read back once."""
    base = sum(shape) + 1
    p_radix = sum(i * h for i, h in enumerate(shape)) + 1
    unit = (sum(h * (h - 1) // 2 for h in shape) + 1) * p_radix  # a content
    span = base ** n  # above every content
    top = span * unit  # an extra
    cols = {h: list(product(range(1, n + 1), repeat=h)) for h in shape}
    own = {h: [sum(base ** (e - 1) for e in c) * unit + _maj((c,)) * p_radix
               for c in cs] for h, cs in cols.items()}
    if extra is None:
        codes, bound = [own[h] for h in shape], top
    else:
        extras = [[extra(u, c) for c in cols[h]] for u, h in enumerate(shape)]
        codes = [[a + e * top for a, e in zip(own[h], es)]
                 for h, es in zip(shape, extras)]
        bound = top * (1 + sum(max(es, default=0) for es in extras))
    pairs = {hs: [[bound if v is None else v
                   for v in map(pair, repeat(cu), cols[hs[1]])]
                  for cu in cols[hs[0]]] for hs in set(combinations(shape, 2))}
    drop = any(bound in row for rows in pairs.values() for row in rows)
    tally = Counter([] if shape else [0])  # the empty shape: one filling
    last = len(shape) - 1

    def walk(u, s, acc):
        # acc[w]: per column at position u + w, its code plus its pair
        # values with the columns chosen left of u
        if u == last:
            out = map(add, acc[0], repeat(s))
            tally.update(filter(bound.__gt__, out) if drop else out)
            return
        later = [(a, pairs[shape[u], h])
                 for a, h in zip(acc[1:], shape[u + 1:])]
        for j, c in enumerate(map(add, acc[0], repeat(s))):
            if c < bound:
                walk(u + 1, c, [list(map(add, a, t[j])) for a, t in later])

    if shape:
        walk(0, 0, codes)
    heads = [*map(floordiv, tally, repeat(unit))]
    rests = [*map(mod, tally, repeat(unit))]
    contents = [*map(mod, heads, repeat(span))]
    xs = {c: tuple(c // base ** k % base for k in range(n)) for c in {*contents}}
    return zip(map(xs.__getitem__, contents),
               map(floordiv, rests, repeat(p_radix)),
               map(mod, rests, repeat(p_radix)),
               map(floordiv, heads, repeat(span)), tally.values())


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
               for i in _shape_table(f.shape).pairs)


def is_packed(f: Filling) -> bool:
    """True iff the set of entries is {1, ..., k} for some k."""
    vals = {e for col in f.cols for e in col}
    return vals == set(range(1, len(vals) + 1))


def components(shape) -> list[tuple[int, int]]:
    """Maximal runs of equal-height columns, as 1-based (lo, hi) ranges."""
    return list(_shape_table(tuple(shape)).runs)


class _ShapeTable(NamedTuple):
    runs: tuple  # the maximal same-height runs, 1-based (lo, hi) ranges
    pairs: tuple  # the columns i whose right neighbour has the same height
    wide: tuple  # the runs of two or more columns
    slices: tuple  # per column, its slice of the flat column-major entries
    row_major: object  # the flat entries in the row-major order of rows()


@lru_cache(maxsize=1024)
def _shape_table(shape) -> _ShapeTable:
    """The per-shape facts the tableau checks read, memoised by the shape's
    tuple, the last 1,024 kept.

    A width-one run, a column with no same-height neighbour (for a
    partition, a part that occurs once), is its own family: already sorted,
    of weight 1, and fixed by every flip.  So only the ``wide`` runs go
    through the family walk, the sorting walk and perm_t's signature.
    ``row_major`` takes the flat entries to the order of :meth:`rows`,
    read off a filling whose entries are their own flat positions; below
    two cells, where an itemgetter would fail or return a bare entry,
    ``tuple`` is that order.
    """
    runs, lo = [], 1
    for i in range(2, len(shape) + 1):
        if shape[i - 1] != shape[lo - 1]:
            runs.append((lo, i - 1))
            lo = i
    if shape:
        runs.append((lo, len(shape)))
    at = count()
    index = Filling._trusted(tuple(tuple(islice(at, h)) for h in shape))
    order = tuple(chain.from_iterable(index.rows()))
    ends = [0, *accumulate(shape)]
    return _ShapeTable(
        tuple(runs), tuple(i for lo, hi in runs for i in range(lo, hi)),
        tuple((lo, hi) for lo, hi in runs if hi > lo),
        tuple(map(slice, ends, ends[1:])),
        itemgetter(*order) if len(order) > 1 else tuple)


def enumerate_sorted(shape, n: int):
    """All sorted tableaux with entries in 1..n, built constructively.

    Columns are filled left to right, each bottom to top and each
    same-height run as a weakly increasing chain under the column order.
    A shape with no two equal parts has only width-one runs, so every
    filling is sorted: they are streamed in the walk's order from one
    product over the flat entries, without walking.
    """
    shape = check_partition(shape)
    table = _shape_table(shape)
    if not table.wide:
        for entries in product(range(1, n + 1), repeat=sum(shape)):
            yield Filling._trusted(tuple(map(entries.__getitem__,
                                             table.slices)))
        return
    for entries, *_ in _walk(shape, None, n, sorted_tableaux=True):
        yield Filling._trusted(tuple([tuple(entries[col])
                                      for col in table.slices]))


def _require_sorted(f: Filling) -> _ShapeTable:
    """The shape table of a sorted tableau; any other filling raises."""
    if not is_sorted(f):
        raise ValueError("filling is not a sorted tableau")
    return _shape_table(f.shape)


def _signature(cols, runs):
    """Per same-height run: its width and sorted column multiplicities."""
    blocks = [cols[lo - 1:hi] for lo, hi in runs]
    return tuple((len(b), tuple(sorted(map(b.count, set(b))))) for b in blocks)


def perm_t(f: Filling, nvars: int = 0) -> MPoly:
    """Product over same-height runs of t-multinomials of column
    multiplicities; a width-one run's factor is 1, so only the wide runs
    are read, and a shape without one gives 1."""
    sig = _signature(f.cols, _require_sorted(f).wide)
    return weight_poly(t_multinomial_product(sig), nvars)


def htilde_compact(shape, n: int) -> MPoly:
    """Modified Macdonald polynomial as the sum over sorted tableaux, by
    content, each weighed by q^maj t^inv, as the walk carries them, times
    perm_t."""
    shape = check_partition(shape)
    return sum_by_content(n, sum(shape), lambda nu: walk_sum(
        _walk(shape, None, n, content=nu, sorted_tableaux=True),
        partial(_perm_t_weight, shape)))


def _perm_t_weight(shape, mask):
    """The perm_t weight of a sorted tableau at a walk mask.  A column
    repeats its same-height left neighbour exactly when its top cell's bit
    is set, and equal columns of a run are adjacent, so the columns labelled
    by their runs of repeats and the shape's runs give the signature."""
    labels, top = [], -1
    for i, h in enumerate(shape):
        top += h
        labels.append(labels[-1] if mask >> top & 1 else i)
    return t_multinomial_product(_signature(labels, _shape_table(shape).wide))


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

    The root alone when each wide run's family is (a width-one run is its
    own family); otherwise the memoised members of the wide runs
    (:func:`_component_family`), glued between the width-one columns, which
    are copied as they are, into a fresh list, sorted by the entries in
    row-major order through the shape table's index, and checked for
    duplicates on the column tuples.
    """
    table = _require_sorted(f)
    cols, parts, at = f.cols, [], 0
    for lo, hi in table.wide:
        parts += [(cols[at:lo - 1],), _component_family(cols[lo - 1:hi])[0]]
        at = hi
    if all(len(members) == 1 for members in parts):
        return [f]
    members = [sum(combo, ()) + cols[at:] for combo in product(*parts)]
    members.sort(key=lambda m: table.row_major((*chain.from_iterable(m),)))
    if len(set(members)) != len(members):
        raise AssertionError("family produced a duplicate member")
    return [Filling._trusted(m) for m in members]


def family_tree(f: Filling) -> list[tuple[Filling, Filling, int, int]]:
    """Edges (parent, child, column, row) of the operator tree of a family.

    Components are chained: every member of an earlier component's tree is
    combined with the roots of later ones, so the edge set covers the whole
    family exactly once.  Each memoised component edge is glued between the
    prefix members and the root's columns to the right.
    """
    runs = _require_sorted(f).runs
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

    Sorts one wide run at a time through the memo :func:`_sort_component`,
    which checks each run it reaches sorted, and copies the width-one
    columns as they are; a glued filling is sorted exactly when each of its
    same-height runs is, so the tableau reached is built without the
    checks.
    """
    cols, out, at = f.cols, (), 0
    for lo, hi in _shape_table(f.shape).wide:
        out += cols[at:lo - 1] + _sort_component(cols[lo - 1:hi])
        at = hi
    return Filling._trusted(out + cols[at:])


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
