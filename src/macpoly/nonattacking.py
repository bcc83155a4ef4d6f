"""Nonattacking fillings of composition diagrams and the integral forms.

Diagrams here may carry a basement: a row 0 holding a permutation of 1..n.
Two cells attack each other when they share a row, or when they sit in
adjacent rows and different columns with the rightmost of the two strictly
higher.  A filling is nonattacking when attacking cells never share an
entry; basement cells take part in the relation.

Triples come in two kinds: an upper cell over its southern neighbour with a
third cell either in the same row further right, in a column that is no
taller (kind A), or one row down further left, in a strictly shorter column
(kind B).  Basement cells may serve as the lower or third cell, never as an
upper cell; a bottom-row pair of a basement-free diagram stands on +inf.
Either kind is a coinversion exactly when it is not inverted in the sense
of :func:`macpoly.tableaux.inverted`: upper entry a, third entry b, lower
entry z, judged in the cyclic order read upward from z.

The compact sums (:func:`j_compact`, :func:`e_integral_sum`,
:func:`e_general_q0` and :func:`macpoly.quasisym.qs_gamma`) sum the raw
tuples of the one walk, :func:`macpoly.shapes._walk`, through the kernel
:func:`macpoly.mpoly.walk_sum`, and :func:`enumerate_na` wraps the same
tuples in fillings.  The integral forms' weight of a walk mask (bit k: cell
k repeats the entry below) is the cached product of the shape's factors,
tabled once whatever the basement or content; ``walk_sum`` takes it once
per mask and sum.  The public :func:`coinv`, :func:`coinversion_triples`
and :func:`maj_na` recompute the statistics per object through
``inverted``.  The oracle :func:`j_hhl` walks no search: it sums over
tuples of columns, as ``htilde_brute`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from math import inf
from operator import ne

from .mpoly import (MPoly, RationalForm, cell_product, read_out,
                    sum_by_content, walk_sum, weight_poly)
from .shapes import (Cell, Composition, Partition, Permutation, _walk, arm,
                     attacks, beta_perm, cells, check_composition,
                     check_partition, check_permutation, inc_sort, leg,
                     multiplicities)
from .tableaux import (_column_tally, _inversions, _maj, _read_terms, inverted,
                       x_content)


@dataclass(frozen=True)
class AugmentedFilling:
    """A filling of a composition diagram, with an optional basement row."""

    shape: Composition
    cols: tuple[tuple[int, ...], ...]
    basement: Permutation | None = None

    def __post_init__(self):
        object.__setattr__(self, "shape", check_composition(self.shape))
        object.__setattr__(self, "cols", tuple(tuple(c) for c in self.cols))
        if tuple(len(c) for c in self.cols) != self.shape:
            raise ValueError("column lengths do not match the shape")
        if self.basement is not None:
            b = check_permutation(self.basement)
            if len(b) != len(self.shape):
                raise ValueError("basement length does not match the shape")
            object.__setattr__(self, "basement", b)

    @classmethod
    def _trusted(cls, shape, cols, basement) -> "AugmentedFilling":
        """The filling of a shape tuple, column tuples and basement (tuple or
        None) already known to be valid, built without the checks (for the
        enumerator)."""
        f = object.__new__(cls)
        for name, value in (("shape", shape), ("cols", cols),
                            ("basement", basement)):
            object.__setattr__(f, name, value)
        return f

    def entry(self, i: int, r: int) -> int:
        if r == 0:
            if self.basement is None:
                raise ValueError("no basement row")
            return self.basement[i - 1]
        return self.cols[i - 1][r - 1]

    def cells(self) -> list[Cell]:
        return [(i, r) for i in range(1, len(self.shape) + 1)
                for r in range(1, self.shape[i - 1] + 1)]

    def x_weight(self, nvars: int) -> MPoly:
        return MPoly.monomial(nvars, x_content(self.cols, nvars))

    def rows(self) -> list[list[int | None]]:
        """Row-major entries, top row first, None outside the diagram."""
        maxh = max(self.shape, default=0)
        out = []
        for r in range(maxh, 0, -1):
            out.append([self.cols[i - 1][r - 1] if self.shape[i - 1] >= r else None
                        for i in range(1, len(self.shape) + 1)])
        return out

    def to_json_dict(self) -> dict:
        return {"shape": list(self.shape),
                "basement": list(self.basement) if self.basement else None,
                "rows": self.rows()}


def is_nonattacking(f: AugmentedFilling) -> bool:
    cs = f.cells()
    if f.basement is not None:
        cs.extend((i, 0) for i in range(1, len(f.shape) + 1))
    for a, b in combinations(cs, 2):
        if attacks(a, b) and f.entry(*a) == f.entry(*b):
            return False
    return True


def is_ordered(f: AugmentedFilling) -> bool:
    """Bottom-row entries under equal-height columns strictly decrease.

    Only defined for weakly increasing shapes.
    """
    shape = f.shape
    if any(a > b for a, b in zip(shape, shape[1:])):
        raise ValueError("ordered is defined for weakly increasing shapes")
    prev = None
    for i in range(1, len(shape) + 1):
        if shape[i - 1] < 1:
            continue
        if prev is not None and shape[prev - 1] == shape[i - 1]:
            if f.entry(i, 1) >= f.entry(prev, 1):
                return False
        prev = i
    return True


@lru_cache(maxsize=1024)
def _coinversion_plan(shape, has_base: bool) -> tuple:
    """The candidate triples of a diagram, in the order coinversion_triples
    lists them, as (upper, third, lower) cells, lower None where it is the
    implicit +inf under a bottom-row pair.  Depends on the diagram only, so
    it is built once per shape."""
    n = len(shape)
    plan: list = []
    for u in range(1, n + 1):
        for r in range(1, shape[u - 1] + 1):
            upper = (u, r)
            lower = (u, r - 1) if r >= 2 or has_base else None
            plan.extend((upper, (v, r), lower) for v in range(u + 1, n + 1)
                        if r <= shape[v - 1] <= shape[u - 1])
            if lower is not None:
                plan.extend((upper, (v, r - 1), lower) for v in range(1, u)
                            if r - 1 <= shape[v - 1] < shape[u - 1])
    return tuple(plan)


def coinversion_triples(f: AugmentedFilling) -> list[tuple[Cell, ...]]:
    """The coinversion triples, each as (third cell, upper cell, lower cell);
    degenerate ones as (left cell, right cell)."""
    entry = f.entry
    return [(upper, third) if lower is None else (third, upper, lower)
            for upper, third, lower in _coinversion_plan(
                f.shape, f.basement is not None)
            if not inverted(entry(*upper), entry(*third),
                            inf if lower is None else entry(*lower))]


def coinv(f: AugmentedFilling) -> int:
    return len(coinversion_triples(f))


def maj_na(f: AugmentedFilling) -> int:
    """Sum of leg+1 over descents; row 1 is never compared to the basement."""
    return _maj(f.cols)


def enumerate_na(shape, basement, n: int, ordered_only: bool = False,
                 no_descents: bool = False):
    """All nonattacking fillings of the diagram with entries 1..n.

    ordered_only restricts the bottom row as in :func:`is_ordered`;
    no_descents keeps only fillings with no descent anywhere, the basement
    included (the surviving set at q = 0).
    """
    shape = check_composition(shape)
    order = cells(shape)
    base = None if basement is None else tuple(basement)
    for entries, *_ in _walk(shape, basement, n, ordered_only, no_descents):
        yield AugmentedFilling._trusted(
            shape, _columns(order, len(shape), entries), base)


def _columns(order, width: int, entries) -> tuple[tuple[int, ...], ...]:
    """The columns of a filling whose entries are listed in ``order``."""
    cols: list[list[int]] = [[] for _ in range(width)]
    for (i, _), e in zip(order, entries):
        cols[i - 1].append(e)
    return tuple(map(tuple, cols))


# -- scalar products --------------------------------------------------------

def pr1(mu, nvars: int = 0) -> MPoly:
    """Product over the diagram of mu of (1 - q^leg t^(arm+1))."""
    mu = check_partition(mu)
    return weight_poly(cell_product(tuple(sorted(
        (leg(mu, c), arm(mu, c) + 1) for c in cells(mu)))), nvars)


def pr2(alpha, nvars: int = 0) -> MPoly:
    """(t;t) factors of the part multiplicities, times
    (1 - q^(leg+1) t^(arm+1)) over the non-bottom cells of the sorted diagram."""
    alpha = check_composition(alpha)
    return weight_poly(_integral_weight(inc_sort(alpha), -1), nvars)


@lru_cache(maxsize=1024)
def _shape_factors(shape) -> tuple:
    """A shape's (t;t)_m factors (0, j), j <= m, per column height
    multiplicity m, and (k, (leg + 1, arm + 1)) per cell k above row 1, k
    counted in the walk's order, which is that of the mask's bits."""
    return ([(0, j) for m in multiplicities(shape).values()
             for j in range(1, m + 1)],
            [(k, (leg(shape, c) + 1, arm(shape, c) + 1))
             for k, c in enumerate(cells(shape)) if c[1] >= 2])


def _integral_weight(shape, mask):
    """The integral forms' weight at a walk mask, the product (cached by
    ``cell_product``) of the shape's (t;t) factors and, per cell above row
    1, 1 - q^(leg+1) t^(arm+1) where it repeats the entry below, else 1 - t."""
    poch, upper = _shape_factors(shape)
    return cell_product(tuple(sorted(
        poch + [ab if mask >> k & 1 else (0, 1) for k, ab in upper])))


def e_integral(alpha, n: int | None = None) -> MPoly:
    """Integral form of the permuted-basement polynomial attached to alpha.

    The diagram is the increasing sort of alpha with the maximal sorting
    permutation as basement; the nonattacking condition forces row 1 to copy
    the basement, which makes every filling ordered.
    """
    alpha = check_composition(alpha)
    return e_integral_sum([alpha], len(alpha) if n is None else n)


def e_integral_sum(alphas, n: int) -> MPoly:
    """The sum of :func:`e_integral` over compositions sharing one
    increasing sort, as one accumulation."""
    alphas = [check_composition(a) for a in alphas]
    shape = inc_sort(alphas[0]) if alphas else ()
    terms: dict[tuple[int, ...], int] = {}
    for alpha in alphas:
        if n != len(alpha):
            raise ValueError("the variable count must equal the number of parts")
        if inc_sort(alpha) != shape:
            raise ValueError(f"{alpha} does not sort to {shape}")
        basement = beta_perm(alpha)
        # row 1 leads the cells order and must copy the basement under the
        # nonempty columns, which makes each filling ordered (the basement of
        # an integral form decreases along each run of equal heights)
        bottom = [b for h, b in zip(shape, basement) if h]
        walk_sum(map(partial(_on_basement, shape, basement, bottom),
                     _walk(shape, basement, n)),
                 partial(_integral_weight, shape), n, sum(shape), terms=terms)
    return read_out(n, terms)


def _on_basement(shape, basement, bottom: list, raw):
    """The raw filling when its row 1 is ``bottom``; raises otherwise."""
    if raw[0][:len(bottom)] != bottom:
        f = AugmentedFilling(shape, _columns(cells(shape), len(shape), raw[0]),
                             basement)
        raise AssertionError(
            f"filling {f.rows()} is not ordered on the basement {basement}")
    return raw


def e_general_q0(alpha, basement, n: int) -> MPoly:
    """Permuted-basement polynomial at q = 0, any shape and basement.

    Only fillings without descents survive at q = 0 (descents are judged
    against the basement as well); each contributes x^f t^coinv times
    (1-t) for every cell differing from its southern neighbour, basement
    included.
    """
    alpha = check_composition(alpha)
    basement = check_permutation(basement)
    if len(alpha) != len(basement) or n != len(basement):
        raise ValueError("shape, basement and variable count must agree")
    size = sum(alpha)
    return read_out(n, walk_sum(
        _walk(alpha, basement, n, no_descents=True),
        lambda eq: cell_product(((0, 1),) * (size - eq.bit_count())), n, size))


def check_j_partition(mu, n: int) -> Partition:
    """The partition mu, checked to have at most n parts, as the increasing
    diagram of :func:`j_compact` has n columns."""
    mu = check_partition(mu)
    if n < len(mu):
        raise ValueError("need at least as many variables as parts")
    return mu


def j_compact(mu, n: int) -> MPoly:
    """Integral-form Macdonald polynomial as a sum over ordered
    nonattacking fillings of the increasing diagram, by content."""
    mu = check_j_partition(mu, n)
    shape = (0,) * (n - len(mu)) + tuple(sorted(mu))
    return sum_by_content(n, sum(mu), lambda nu: walk_sum(
        _walk(shape, None, n, ordered_only=True, content=nu),
        partial(_integral_weight, shape)))


def j_hhl(mu, n: int) -> MPoly:
    """Integral-form Macdonald polynomial as a sum over all nonattacking
    fillings of the partition diagram itself, the brute-force route, taken
    as tuples of columns by :func:`macpoly.tableaux._column_tally`: each
    column's content, maj and repeat mask once per height, and whether two
    columns may stand side by side and their coinversions once per pair of
    heights (a column to the left is never shorter, so every triple lies
    in one row).  The cell factors, 1 - t for each row-1 cell, are
    multiplied out once per tuple of masks."""
    mu = check_partition(mu)
    upper = [(leg(mu, c) + 1, arm(mu, c) + 1) for c in sorted(cells(mu))
             if c[1] >= 2]
    # a filling's code: its masks over its content, a digit per value, then
    # the exponents of q and of t, with room for a cell product's shift;
    # mask bit k stands for the k-th cell of upper
    radices = (sum(i * h for i, h in enumerate(mu)) + sum(b for _, b in upper)
               + len(mu) + 1, 2 * sum(a for a, _ in upper) + 1, sum(mu) + 1)
    unit = radices[0] * radices[1] * radices[2] ** n
    bits = [sum(mu[:u]) - u for u in range(len(mu))]  # first bit per column
    bound = unit << len(upper)

    def code(u, c):
        return ((_repeats(c) << bits[u]) * unit + (sum(
            radices[2] ** (e - 1) for e in c) * radices[1] + _maj((c,)))
            * radices[0])

    def pair(cu, cv):  # each row of cv holds one triple, inverted or not
        return (len(cv) - _inversions(cu, cv)
                if _side_by_side(cu, cv) else bound)

    weights: dict[int, list] = {}  # masks -> cell product, as code shifts
    terms: dict[int, int] = {}
    for key, count in _column_tally(mu, n, code, pair, bound).items():
        masks, key = divmod(key, unit)
        w = weights.get(masks)
        if w is None:
            w = weights[masks] = [(a * radices[0] + b, c) for (a, b), c in
                                  cell_product(tuple(sorted(
                                      [ab if masks >> k & 1 else (0, 1)
                                       for k, ab in enumerate(upper)]
                                      + [(0, 1)] * len(mu))))]
        for shift, c in w:
            terms[key + shift] = terms.get(key + shift, 0) + c * count
    return MPoly(n, _read_terms(terms, radices, n))


def _repeats(col) -> int:
    """Bit r - 2 set for each row r >= 2 of a column repeating the entry
    below."""
    return sum(1 << k for k in range(len(col) - 1) if col[k + 1] == col[k])


def _side_by_side(left, right) -> bool:
    """Whether two columns of a partition diagram, the left one no shorter,
    may stand in it with the left one anywhere to the left: no two of their
    cells attack (:func:`macpoly.shapes.attacks`) and share an entry, the
    cells of one row, or a left cell and the right cell one row up."""
    return all(map(ne, left, right)) and all(map(ne, left, right[1:]))


def p_poly(mu, n: int) -> RationalForm:
    """The monic symmetric Macdonald polynomial, as a rational form."""
    return RationalForm(j_compact(mu, n), pr1(mu, n))


def schur_oracle(lam, n: int) -> MPoly:
    """Schur polynomial by direct semistandard-tableau enumeration.

    Rows of the Young diagram weakly increase, columns strictly increase,
    entries at most n.
    """
    lam = check_partition(lam)
    terms: dict[tuple[int, ...], int] = {}
    rows = [[0] * r for r in lam]

    def backtrack(idx, flat):
        if idx == len(flat):
            exps = [0] * n
            for row in rows:
                for v in row:
                    exps[v - 1] += 1
            key = tuple(exps) + (0, 0)
            terms[key] = terms.get(key, 0) + 1
            return
        ri, ci = flat[idx]
        lo = 1
        if ci > 0:
            lo = max(lo, rows[ri][ci - 1])
        if ri > 0:
            lo = max(lo, rows[ri - 1][ci] + 1)
        for v in range(lo, n + 1):
            rows[ri][ci] = v
            backtrack(idx + 1, flat)
        rows[ri][ci] = 0

    flat = [(ri, ci) for ri, r in enumerate(lam) for ci in range(r)]
    backtrack(0, flat)
    return MPoly(n, terms)
