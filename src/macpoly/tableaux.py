"""Fillings of partition diagrams and the compact modified-Macdonald machinery.

A :class:`Filling` assigns entries in {1..n} to the cells of a partition
diagram (columns weakly decreasing left to right, rows from 1 at the bottom).
This module computes the inv/maj statistics, the column order used to define
sorted tableaux, the inversion-flip operators together with their canonical
reduced words, block decompositions, the family generated by a sorted
tableau, and both the brute-force and the compact formula for the modified
Macdonald polynomial.

Orientation of a triple of cells: rank the three entries, breaking ties by
reading order, the key (-row, col) (rows top to bottom, left to right within
a row; earlier is smaller), and walk the cells from smallest to largest.  A
counterclockwise walk is an inversion triple.  Row-1 pairs are judged
against an implicit row of basement cells holding a value larger than every
entry.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product

from .mpoly import (MPoly, accumulate, expand_symmetric, t_multinomial_product,
                    weight_poly)
from .shapes import (Partition, canonical_w0_word, check_partition,
                     check_permutation, content_budget, partitions_of)

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

    @property
    def shape(self) -> Partition:
        return tuple(len(c) for c in self.cols)

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
        if any(a < b for a, b in zip(lengths, lengths[1:])) or 0 in lengths:
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
    row first, left to right:

    >>> ccw((((2, 2), 1), ((1, 2), 1), ((1, 1), 1)))
    False
    """
    ranked = sorted(triple, key=lambda ce: (ce[1], -ce[0][1], ce[0][0]))
    (x0, y0), (x1, y1), (x2, y2) = (c for c, _ in ranked)
    cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    return cross > 0


def inv(f: Filling) -> int:
    """Number of counterclockwise (inversion) triples, degenerate included."""
    return _inv(f.cols)


def _inv(cols) -> int:
    # Column v right of column u is no taller, so the pair shares rows
    # 1..len(cols[v]); row 1 compares against the implicit basement.
    count = 0
    for u, cu in enumerate(cols, start=1):
        for v in range(u + 1, len(cols) + 1):
            cv = cols[v - 1]
            if not cv:
                break
            if cu[0] > cv[0]:
                count += 1
            for r in range(2, len(cv) + 1):
                if ccw((((v, r), cv[r - 1]), ((u, r), cu[r - 1]),
                        ((u, r - 1), cu[r - 2]))):
                    count += 1
    return count


def maj(f: Filling) -> int:
    """Sum of leg+1 over the cells above row 1 whose entry exceeds the
    entry below."""
    return _maj(f.cols)


def _maj(cols) -> int:
    return sum(len(col) - k for col in cols for k in range(1, len(col))
               if col[k] > col[k - 1])


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
    """All n^|shape| fillings with entries in 1..n, in a fixed order."""
    shape = check_partition(shape)
    widths = list(shape)
    for flat in product(range(1, n + 1), repeat=sum(widths)):
        cols, k = [], 0
        for h in widths:
            cols.append(flat[k:k + h])
            k += h
        yield Filling(tuple(cols))


def htilde_brute(shape, n: int) -> MPoly:
    """Modified Macdonald polynomial as the sum over all fillings."""
    shape = check_partition(shape)
    terms: dict[tuple[int, ...], int] = {}
    for f in enumerate_fillings(shape, n):
        exps = [0] * n
        for col in f.cols:
            for e in col:
                exps[e - 1] += 1
        key = tuple(exps) + (maj(f), inv(f))
        terms[key] = terms.get(key, 0) + 1
    return MPoly(n, terms)


# -- the column order and sorted tableaux ----------------------------------

def compare_columns(a, b) -> int:
    """Order two same-height columns, `a` standing to the left of `b`.

    Returns LESS, EQUAL or GREATER.  Columns are given bottom to top.
    """
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError("columns must have equal height")
    if a == b:
        return EQUAL
    r = next(k for k in range(len(a)) if a[k] != b[k]) + 1
    if r == 1:
        return LESS if a[0] < b[0] else GREATER
    # two-column gadget: left column at 0, right at 1
    tri = (((1, r), b[r - 1]), ((0, r), a[r - 1]), ((0, r - 1), a[r - 2]))
    return GREATER if ccw(tri) else LESS


def is_sorted(f: Filling) -> bool:
    """True iff every run of same-height adjacent columns weakly increases."""
    shape = f.shape
    for i in range(1, len(shape)):
        if shape[i - 1] == shape[i]:
            if compare_columns(f.cols[i - 1], f.cols[i]) == GREATER:
                return False
    return True


def is_packed(f: Filling) -> bool:
    """True iff the set of entries is {1, ..., k} for some k."""
    vals = {e for col in f.cols for e in col}
    return vals == set(range(1, len(vals) + 1))


def components(shape) -> list[tuple[int, int]]:
    """Maximal runs of equal-height columns, as 1-based (lo, hi) ranges."""
    shape = tuple(shape)
    runs, lo = [], 1
    for i in range(2, len(shape) + 1):
        if shape[i - 1] != shape[lo - 1]:
            runs.append((lo, i - 1))
            lo = i
    if shape:
        runs.append((lo, len(shape)))
    return runs


def enumerate_sorted(shape, n: int, content=None):
    """All sorted tableaux with entries in 1..n, built constructively.

    Columns are chosen left to right, each same-height run as a weakly
    increasing chain under the column order.  With ``content``, only the
    tableaux holding the value v exactly ``content[v-1]`` times are built,
    in the same order: entries range over 1..len(content), and a value's
    remaining budget is checked before the column order.
    """
    shape = check_partition(shape)
    left = content_budget(sum(shape), n, content)

    def columns(h):
        """Columns of height h in lexicographic order, each holding its
        entries out of the budget while it is in use."""
        if not h:
            yield ()
            return
        for v, budget in enumerate(left):
            if budget:
                left[v] -= 1
                for rest in columns(h - 1):
                    yield (v + 1,) + rest
                left[v] += 1

    cols: list[tuple[int, ...]] = []

    def extend(j):
        if j == len(shape):
            yield Filling(tuple(cols))
            return
        prev = cols[-1] if j and shape[j - 1] == shape[j] else None
        for c in columns(shape[j]):
            if prev is None or compare_columns(prev, c) != GREATER:
                cols.append(c)
                yield from extend(j + 1)
                cols.pop()

    yield from extend(0)


def _require_sorted(f: Filling) -> None:
    if not is_sorted(f):
        raise ValueError("filling is not a sorted tableau")


def _signature(cols, runs):
    """Per same-height run: its width and sorted column multiplicities."""
    return tuple((hi - lo + 1, tuple(sorted(Counter(cols[lo - 1:hi]).values())))
                 for lo, hi in runs)


def perm_t(f: Filling, nvars: int = 0) -> MPoly:
    """Product over same-height runs of t-multinomials of column multiplicities."""
    _require_sorted(f)
    sig = _signature(f.cols, components(f.shape))
    return weight_poly(t_multinomial_product(sig), nvars)


def htilde_compact(shape, n: int) -> MPoly:
    """Modified Macdonald polynomial as the sum over sorted tableaux.

    The sum is symmetric in x, so it is taken over the tableaux of each
    partition content nu only and expanded to the rearrangements of nu last.
    """
    shape = check_partition(shape)
    runs = components(shape)
    coeffs = {}
    for nu in partitions_of(sum(shape)):
        if len(nu) > n:
            continue
        terms: dict[tuple[int, int], int] = {}
        for f in enumerate_sorted(shape, n, content=nu):
            cols = f.cols
            accumulate(terms, (), t_multinomial_product(_signature(cols, runs)),
                       _maj(cols), _inv(cols))
        coeffs[nu] = MPoly(0, terms)
    return expand_symmetric(n, coeffs)


# -- inversion-flip operators ----------------------------------------------

def flip(f: Filling, i: int) -> tuple[Filling, int]:
    """Apply the inversion-flip operator at columns i, i+1.

    The pivot row r is the lowest row where the two columns differ (they
    must have equal height and not be identical).  Returns the new filling
    and r.  The swap at r propagates upward while the triple above changes
    orientation class.
    """
    shape = f.shape
    if not (1 <= i < len(shape)):
        raise ValueError(f"column {i} out of range")
    if shape[i - 1] != shape[i]:
        raise ValueError(f"columns {i}, {i + 1} differ in height")
    a, b = list(f.cols[i - 1]), list(f.cols[i])
    h = len(a)
    diffs = [r for r in range(1, h + 1) if a[r - 1] != b[r - 1]]
    if not diffs:
        raise ValueError(f"columns {i}, {i + 1} are identical")
    r = diffs[0]

    rr = r
    a[rr - 1], b[rr - 1] = b[rr - 1], a[rr - 1]
    while rr + 1 <= h:
        cells_above = (((i + 1, rr + 1), b[rr]), ((i, rr + 1), a[rr]))
        before = ccw(cells_above + (((i, rr), b[rr - 1]),))
        after = ccw(cells_above + (((i, rr), a[rr - 1]),))
        if before == after:
            break
        rr += 1
        a[rr - 1], b[rr - 1] = b[rr - 1], a[rr - 1]
    cols = list(f.cols)
    cols[i - 1], cols[i] = tuple(a), tuple(b)
    return Filling(tuple(cols)), r


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
    out = []
    for lo, hi in components(shape):
        if shape[lo - 1] < r:
            continue
        start = lo
        for i in range(lo + 1, hi + 1):
            if f.cols[i - 1][:r - 1] != f.cols[start - 1][:r - 1]:
                out.append((start, i - 1))
                start = i
        out.append((start, hi))
    return out


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


def _row_rearrangements(root_row, blocks):
    """Operator words for all block-respecting rearrangements of a row.

    `blocks` are 1-based column ranges of the row.  Yields
    (rearranged_row, word) pairs, deterministically.
    """
    segs = []
    for lo, hi in blocks:
        seg = root_row[lo - 1:hi]
        segs.append(sorted(set(permutations(seg))))
    for combo in product(*segs):
        row = tuple(v for seg in combo for v in seg)
        wtil = _shortest_rearranger(root_row, row)
        yield row, pds(wtil)


def _component_family(comp: Filling, edges: dict | None = None) -> list[Filling]:
    """Members of one rectangular component's family, rows handled top
    down; records the first flip reaching each member as
    ``edges[child] = (parent, column, row)`` when given a dict."""
    h = comp.shape[0] if comp.cols else 0
    members = [comp]
    for r in range(h, 0, -1):
        blocks = block_decomposition(comp, r)
        root_row = tuple(comp.entry(i, r) for i in range(1, len(comp.cols) + 1))
        words = [w for _, w in _row_rearrangements(root_row, blocks)]
        new_members = []
        for g in members:
            for w in words:
                cur = g
                for letter in reversed(w):  # rightmost letter acts first
                    nxt, rr = flip(cur, letter)
                    if rr != r:
                        raise AssertionError(
                            f"operator acted at row {rr}, expected {r}")
                    if edges is not None:
                        edges.setdefault(nxt, (cur, letter, rr))
                    cur = nxt
                new_members.append(cur)
        members = new_members
    return members


def family(f: Filling) -> list[Filling]:
    """All fillings generated from a sorted tableau by the flip operators,
    in canonical (row-major) order.
    """
    _require_sorted(f)
    runs = components(f.shape)
    parts = [_component_family(Filling(f.cols[lo - 1:hi])) for lo, hi in runs]
    out = []
    for combo in product(*parts):
        cols = tuple(col for piece in combo for col in piece.cols)
        out.append(Filling(cols))
    out.sort(key=lambda g: g.rows())
    if len(set(out)) != len(out):
        raise AssertionError("family produced a duplicate member")
    return out


def family_tree(f: Filling) -> list[tuple[Filling, Filling, int, int]]:
    """Edges (parent, child, column, row) of the operator tree of a family.

    Components are chained: every member of an earlier component's tree is
    combined with the roots of later ones, so the edge set covers the whole
    family exactly once.
    """
    _require_sorted(f)
    runs = components(f.shape)
    comps = [Filling(f.cols[lo - 1:hi]) for lo, hi in runs]

    comp_edges: list[dict] = [{} for _ in comps]
    comp_members = [_component_family(comp, edges)
                    for comp, edges in zip(comps, comp_edges)]

    def glue(pre, mid, suffix):
        return Filling(tuple(col for piece in pre + (mid,) + suffix
                             for col in piece.cols))

    out = []
    for k, edges in enumerate(comp_edges):
        prefix_choices = [comp_members[j] for j in range(k)]
        suffix = tuple(comps[j] for j in range(k + 1, len(comps)))
        for pre in product(*prefix_choices):
            offset = sum(len(c.cols) for c in pre)
            for child, (parent, letter, rr) in edges.items():
                out.append((glue(pre, parent, suffix),
                            glue(pre, child, suffix), letter + offset, rr))
    return out


def sort_filling(f: Filling) -> Filling:
    """The unique sorted tableau whose family contains f.

    Works one rectangular component at a time, putting each row into sorted
    order from the bottom up by undoing canonical operator words.
    """
    runs = components(f.shape)
    sorted_cols = []
    for lo, hi in runs:
        comp = Filling(f.cols[lo - 1:hi])
        h = comp.shape[0]
        for r in range(1, h + 1):
            blocks = block_decomposition(comp, r)
            target = []
            for blo, bhi in blocks:
                seg = [comp.entry(i, r) for i in range(blo, bhi + 1)]
                if r == 1:
                    target.extend(sorted(seg))
                else:
                    z = comp.entry(blo, r - 1)
                    target.extend(sorted(e for e in seg if e > z))
                    target.extend(sorted(e for e in seg if e <= z))
            current = tuple(comp.entry(i, r) for i in range(1, len(comp.cols) + 1))
            target = tuple(target)
            if current != target:
                wtil = _shortest_rearranger(target, current)
                for letter in pds(wtil):
                    comp, rr = flip(comp, letter)
                    if rr != r:
                        raise AssertionError(
                            f"undo step acted at row {rr}, expected {r}")
            now = tuple(comp.entry(i, r) for i in range(1, len(comp.cols) + 1))
            if now != target:
                raise AssertionError("row did not reach sorted order")
        sorted_cols.extend(comp.cols)
    out = Filling(tuple(sorted_cols))
    _require_sorted(out)
    return out
