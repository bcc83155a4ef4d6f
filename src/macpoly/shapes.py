"""The index sets of the formulas (partitions, compositions and the distinct
rearrangements of a sequence), column diagrams, and symmetric-group helpers.

Diagrams are bottom-justified columns: column i (1-based, left to right) has
``shape[i-1]`` cells, rows numbered from 1 at the bottom.  Row 0 is reserved
for an optional basement.  A cell is a pair ``(i, r)``.

Permutations are 1-based one-line tuples: ``w[i-1]`` is the image of i.
"""

from __future__ import annotations

from itertools import combinations

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


def content_budget(size: int, n: int, content) -> list[int]:
    """How many more times each value 1..n may be placed while filling
    `size` cells to the given content; without one, a budget that never
    binds."""
    if content is None:
        return [size] * n
    if sum(content) != size:
        raise ValueError(f"content {tuple(content)} does not fill {size} cells")
    return list(content[:n])


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
