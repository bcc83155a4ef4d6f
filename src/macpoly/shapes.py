"""The index sets of the formulas (partitions, compositions and the distinct
rearrangements of a sequence), column diagrams, symmetric-group helpers, and
the one walk over fillings that every compact sum reads.

Diagrams are bottom-justified columns: column i (1-based, left to right) has
``shape[i-1]`` cells, rows numbered from 1 at the bottom.  Row 0 is reserved
for an optional basement.  A cell is a pair ``(i, r)``.

Permutations are 1-based one-line tuples: ``w[i-1]`` is the image of i.

The walk, :func:`_walk`, has two modes.  It places the cells of a
nonattacking filling bottom row first, carrying maj and coinv down its
search, or those of a sorted tableau column by column, carrying maj and
inv.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import inf

Composition = tuple[int, ...]
Partition = tuple[int, ...]
Permutation = tuple[int, ...]
Cell = tuple[int, int]


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(a >= b for a, b in zip(parts, parts[1:])) and all(p > 0 for p in parts)


def check_partition(parts) -> Partition:
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"{parts} is not a partition (weakly decreasing, positive)")
    return parts


def check_composition(parts) -> Composition:
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"{parts} has negative parts")
    return parts


def inc_sort(alpha) -> Composition:
    return tuple(sorted(alpha))


def beta_perm(alpha) -> Permutation:
    """The longest permutation b with inc_sort(alpha)[i-1] == alpha[b(i)-1].

    Within each run of equal values of the sorted vector, the source
    positions are listed in decreasing order; that choice reverses every
    constant run and is the unique maximal-length sorter.
    """
    alpha = check_composition(alpha)
    out = []
    for v in sorted(set(alpha)):
        out.extend(sorted((i + 1 for i, a in enumerate(alpha) if a == v),
                          reverse=True))
    return tuple(out)


def conjugate(mu) -> Partition:
    """Conjugate partition: column lengths of the row diagram.

    >>> conjugate((2, 1, 1))
    (3, 1)
    """
    mu = check_partition(mu)
    if not mu:
        return ()
    return tuple(sum(1 for p in mu if p > j) for j in range(mu[0]))


def multiplicities(alpha) -> dict[int, int]:
    """How many times each positive value occurs among the parts."""
    m: dict[int, int] = {}
    for p in alpha:
        if p > 0:
            m[p] = m.get(p, 0) + 1
    return m


def cells(shape) -> list[Cell]:
    """All diagram cells, bottom-up then left-to-right within a row."""
    shape = check_composition(shape)
    maxh = max(shape, default=0)
    return [(i, r) for r in range(1, maxh + 1)
            for i in range(1, len(shape) + 1) if shape[i - 1] >= r]


def in_diagram(shape, cell: Cell) -> bool:
    i, r = cell
    return 1 <= i <= len(shape) and 1 <= r <= shape[i - 1]


def leg(shape, cell: Cell) -> int:
    """Number of cells strictly above `cell` in its column."""
    shape = check_composition(shape)
    if not in_diagram(shape, cell):
        raise ValueError(f"cell {cell} outside diagram {shape}")
    i, r = cell
    return shape[i - 1] - r


def arm(shape, cell: Cell) -> int:
    """Arm of a cell in a composition diagram.

    Counts the cells in the same row strictly to the right whose column is
    no taller, plus the cells one row down strictly to the left whose column
    is strictly shorter.  Basement cells are never counted here.
    """
    shape = check_composition(shape)
    if not in_diagram(shape, cell):
        raise ValueError(f"cell {cell} outside diagram {shape}")
    i, r = cell
    h = shape[i - 1]
    right = sum(1 for j in range(i + 1, len(shape) + 1)
                if r <= shape[j - 1] <= h)
    left_below = sum(1 for j in range(1, i)
                     if shape[j - 1] >= r - 1 >= 1 and shape[j - 1] < h)
    return right + left_below


# -- permutations ---------------------------------------------------------

def check_permutation(w) -> Permutation:
    w = tuple(w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"{w} is not a permutation of 1..{len(w)}")
    return w


def identity_perm(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def perm_length(w) -> int:
    """Number of inversions (Coxeter length)."""
    return sum(1 for a, b in combinations(w, 2) if a > b)


def canonical_w0_word(n: int) -> tuple[int, ...]:
    """The reduced word (s_1)(s_2 s_1)...(s_{n-1} ... s_2 s_1), left to right.

    >>> canonical_w0_word(3)
    (1, 2, 1)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    word: list[int] = []
    for k in range(1, n):
        word.extend(range(k, 0, -1))
    return tuple(word)


# -- index sets -----------------------------------------------------------

def partitions_of(m: int) -> list[Partition]:
    """All partitions of m, largest part first within each, in lex order.

    >>> partitions_of(4)
    [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    """
    if m < 0:
        raise ValueError("m must be nonnegative")

    def gen(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(1, min(rest, cap) + 1):
            for tail in gen(rest - first, first):
                yield (first,) + tail
    return sorted(gen(m, m))


def compositions(m: int, length: int | None = None):
    """The strong compositions of m (positive parts) in lex order; with
    ``length``, the weak ones (nonnegative parts) of exactly that length.

    >>> list(compositions(3))
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    >>> list(compositions(2, length=2))
    [(0, 2), (1, 1), (2, 0)]
    """
    if m == 0 and not length:
        yield ()
    if length == 0:
        return
    rest = None if length is None else length - 1
    for first in range(1 if length is None else 0, m + 1):
        for tail in compositions(m - first, rest):
            yield (first,) + tail


def rearrangements(parts):
    """Each distinct rearrangement of a sequence once, in lex order.

    Each step swaps the left entry of the rightmost ascent with the
    rightmost larger entry after it, then reverses what follows.

    >>> list(rearrangements((2, 1, 1)))
    [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    """
    a = sorted(parts)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


# -- the walk over fillings -----------------------------------------------

def attacks(c1: Cell, c2: Cell) -> bool:
    """Whether two distinct cells attack each other (symmetric): they share
    a row, or sit in adjacent rows with the higher one strictly right."""
    (i1, r1), (i2, r2) = sorted((c1, c2), key=lambda c: c[1])
    return i1 != i2 and (r1 == r2 or (r2 == r1 + 1 and i2 > i1))


@lru_cache(maxsize=1024)
def _walk_plan(shape, has_basement: bool, ordered_only: bool,
               no_descents: bool, sorted_tableaux: bool) -> tuple:
    """Per cell in the walk's order, row by row as in :func:`cells` or, for
    sorted tableaux, column by column, what the walk needs, each cell given
    by its index in the flat entry list (the cells, then the basement, then
    +inf): its earlier attackers, its entry bounds as (index, d) pairs
    capping it at entries[index] - d (the cell below without descents, the
    previous same-height bottom cell when ordered), the cell below (+inf
    under row 1 without basement) and leg + 1 for maj (0 in row 1), the
    triples (upper, third, lower) it completes, its partner, and the mask
    of the cells whose bits switch on its cyclic bound (None for none).

    A sorted tableau has no attackers or bounds.  A cell's partner is its
    same-height left neighbour, and while the two columns agree below it,
    its entry must equal the neighbour's or come after it in the cyclic
    order read upward from the entry below: the column order, checked one
    cell at a time.  Elsewhere a cell's partner is the cell below.
    """
    order = sorted(cells(shape)) if sorted_tableaux else cells(shape)
    at = {c: k for k, c in enumerate(order)}
    width = len(shape)
    if has_basement:
        at.update(((j, 0), len(order) + j - 1) for j in range(1, width + 1))
    inf_slot = len(order) + (width if has_basement else 0)
    plan = []
    for k, (i, r) in enumerate(order):
        h = shape[i - 1]
        below = at.get((i, r - 1), inf_slot)
        attackers, bounds, partner, cyclic = (), [], below, None
        if sorted_tableaux:
            partner = inf_slot
            if i > 1 and shape[i - 2] == h:
                partner = at[(i - 1, r)]
                cyclic = 0 if r == 1 else 1 << below
        else:
            # left of (i, r) in its row and the row below (or the basement)
            attackers = tuple(at[u, row] for row in (r - 1, r)
                              for u in range(1, i) if (u, row) in at)
            if no_descents:
                bounds.append((below, 0))
            if ordered_only and r == 1:
                prev = max((j for j in range(1, i) if shape[j - 1] >= 1),
                           default=None)
                if prev is not None and shape[prev - 1] == h:
                    bounds.append((at[(prev, 1)], 1))
        # Kind A triples end at their third cell (i, r), right of the upper
        # cell (u, r) and in a column no taller; kind B triples at their
        # upper cell (i, r), over a third cell one row down to the left, in
        # a strictly shorter column.  A bottom-row pair without basement
        # stands on +inf.
        triples = [(at[(u, r)], k, at.get((u, r - 1), inf_slot))
                   for u in range(1, i) if r <= h <= shape[u - 1]]
        if below != inf_slot:
            triples += [(k, at[(v, r - 1)], below) for v in range(1, i)
                        if r - 1 <= shape[v - 1] < h]
        plan.append((attackers, tuple(bounds), below,
                     h - r + 1 if r >= 2 else 0, tuple(triples), partner,
                     cyclic))
    return tuple(plan)


def _walk(shape, basement, n: int, ordered_only: bool = False,
          no_descents: bool = False, content=None, coinv_cap=inf,
          sorted_tableaux: bool = False):
    """The fillings of :func:`macpoly.nonattacking.enumerate_na`, or with
    ``sorted_tableaux`` the tableaux of
    :func:`macpoly.tableaux.enumerate_sorted`, in their order, as raw
    ``(entries, maj, stat, mask)`` tuples with the statistics carried down
    the search as cells are placed: stat is coinv for a nonattacking
    filling and inv for a sorted tableau.

    ``entries`` is one flat list reused between fillings, the cells first in
    the plan's order.  Bit k of ``mask`` is set when the k-th cell repeats
    its partner, in a sorted tableau with the columns agreeing below it.
    A nonattacking filling's coinv never falls along the search, so a
    partial one is dropped as soon as its coinv exceeds ``coinv_cap``.
    Each value 1..n may be placed in every cell, unless ``content`` is
    given: it must fill the cells, and only the fillings holding the value
    v exactly ``content[v-1]`` times are built, in the same order, with
    entries over 1..len(content) and a value's remaining budget checked
    before the other conditions.  The per-cell plan is cached by shape,
    mode and whether there is a basement; the basement's entries only fill
    their slots of ``entries``.
    """
    shape = (check_partition if sorted_tableaux else check_composition)(shape)
    if basement is not None:
        basement = check_permutation(basement)
        if len(basement) != len(shape):
            raise ValueError("basement length does not match the shape")
        if n != len(basement):
            raise ValueError("basement entries must be the letters 1..n")
    if ordered_only and any(a > b for a, b in zip(shape, shape[1:])):
        raise ValueError("ordered enumeration needs a weakly increasing shape")
    size = sum(shape)
    # left[v]: how many more times the value v may be placed (0 unused)
    if content is None:
        left = [0] + [size] * n  # a budget that never binds
    elif sum(content) != size:
        raise ValueError(f"content {tuple(content)} does not fill {size} cells")
    else:
        left = [0, *content[:n]]
    plan = _walk_plan(shape, basement is not None, ordered_only, no_descents,
                      sorted_tableaux)
    nvals = len(left) - 1
    entries = [0] * size + list(basement or ()) + [inf]
    if not size:
        yield entries, 0, 0, 0
        return
    # Level k holds an iterator over its candidates, the entries below and
    # to repeat (0 for none), and the statistics of the cells before it.
    # entries[k] is 0 (the budget's unused slot) until level k places a
    # value, so taking back its last value never needs a test.
    its, zs, sames = [None] * size, [0] * size, [0] * size
    majs, stats, masks = [0] * size, [0] * size, [0] * size
    legs, triples = [p[3] for p in plan], [p[4] for p in plan]
    # On a partition every triple is inverted or a coinversion, so a sorted
    # tableau's inv counts down from T, its number of triples, one step at
    # each coinversion; a nonattacking filling's coinv counts up from 0.
    step = -1 if sorted_tableaux else 1
    if sorted_tableaux:
        stats[0] = sum(map(len, triples))
    values = range(1, nvals + 1)

    def enter(k):
        attackers, bounds, below, _, _, partner, cyclic = plan[k]
        z, same = entries[below], entries[partner]
        if cyclic is None:
            top = nvals
            for j, d in bounds:
                if entries[j] - d < top:
                    top = entries[j] - d
            taken = [entries[j] for j in attackers]
            vals = [v for v in range(1, top + 1) if left[v] and v not in taken]
        elif masks[k] & cyclic != cyclic:  # the columns differ below
            vals, same = [v for v in values if left[v]], 0
        # the cyclic bound (v <= z, v) >= (same <= z, same), as ranges
        elif same <= z:
            vals = [v for v in values if left[v] and same <= v <= z]
        else:
            vals = [v for v in values if left[v] and not z < v < same]
        its[k], zs[k], sames[k] = iter(vals), z, same

    enter(0)
    k = 0
    while k >= 0:
        left[entries[k]] += 1
        v = next(its[k], 0)
        entries[k] = v
        if not v:
            k -= 1
            continue
        left[v] -= 1
        m, c, mask = majs[k], stats[k], masks[k]
        if v > zs[k]:
            m += legs[k]
        if v == sames[k]:
            mask |= 1 << k
        for a, b, z in triples[k]:
            # not inverted: (a <= z, a) <= (b <= z, b), without the tuples
            a, b, z = entries[a], entries[b], entries[z]
            if a <= b:
                if a > z or b <= z:
                    c += step
            elif a > z >= b:
                c += step
        if c > coinv_cap:
            continue
        if k + 1 == size:
            yield entries, m, c, mask
            continue
        k += 1
        majs[k], stats[k], masks[k] = m, c, mask
        enter(k)

