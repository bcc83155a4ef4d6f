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
upper cell.  A kind-A triple is a coinversion when its entries run
clockwise, a kind-B triple when they run counterclockwise; bottom-row pairs
of a basement-free diagram count as degenerate coinversions when the right
entry is not the smaller one.  Ties are broken by reading order, the key
(-row, col) of :func:`macpoly.tableaux.ccw`: rows top to bottom, left to
right within a row, so the basement (row 0) comes last.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .mpoly import (MPoly, accumulate, cell_product, expand_symmetric,
                    weight_poly)
from .shapes import (Cell, Composition, Permutation, arm, beta_perm, cells,
                     check_composition, check_partition, check_permutation,
                     content_budget, inc_sort, leg, multiplicities,
                     partitions_of)
from .tableaux import _maj, ccw, x_content


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


def attacks(c1: Cell, c2: Cell) -> bool:
    """Whether two distinct cells attack each other (symmetric)."""
    (i1, r1), (i2, r2) = c1, c2
    if i1 == i2:
        return False
    if r1 == r2:
        return True
    if abs(r1 - r2) != 1:
        return False
    hi = c1 if r1 > r2 else c2
    lo = c2 if r1 > r2 else c1
    return hi[0] > lo[0]


def _all_cells_with_basement(f: AugmentedFilling) -> list[Cell]:
    out = f.cells()
    if f.basement is not None:
        out.extend((i, 0) for i in range(1, len(f.shape) + 1))
    return out


def is_nonattacking(f: AugmentedFilling) -> bool:
    cs = _all_cells_with_basement(f)
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


def _coinversion_plan(shape, has_base: bool) -> list:
    """The candidate triples of a diagram, in the order coinversion_triples
    lists them, as (cells, want): a kind-A triple is a coinversion when
    ccw(...) is False, a kind-B one when it is True, and a degenerate
    bottom-row pair (want None) when the right entry is not the smaller.
    Depends on the diagram only, so sums build it once per shape."""
    n = len(shape)
    plan: list = []
    for u in range(1, n + 1):
        for r in range(1, shape[u - 1] + 1):
            upper, lower = (u, r), (u, r - 1)
            lower_ok = r >= 2 or has_base
            for v in range(u + 1, n + 1):
                if not (r <= shape[v - 1] <= shape[u - 1]):
                    continue
                if lower_ok:
                    plan.append((((v, r), upper, lower), False))
                else:
                    plan.append((((u, 1), (v, 1)), None))
            for v in range(1, u):
                if shape[v - 1] >= shape[u - 1]:
                    continue
                third_ok = shape[v - 1] >= r - 1 >= 1 or (r == 1 and has_base)
                if lower_ok and third_ok:
                    plan.append((((v, r - 1), upper, lower), True))
    return plan


def _coinversions(f: AugmentedFilling, plan):
    entry = f.entry
    for cells, want in plan:
        if want is None:
            if entry(*cells[1]) >= entry(*cells[0]):
                yield cells
        elif ccw(tuple((c, entry(*c)) for c in cells)) == want:
            yield cells


def coinversion_triples(f: AugmentedFilling) -> list[tuple[Cell, ...]]:
    """The coinversion triples, each as (third cell, upper cell, lower cell);
    degenerate ones as (left cell, right cell)."""
    plan = _coinversion_plan(f.shape, f.basement is not None)
    return list(_coinversions(f, plan))


def coinv(f: AugmentedFilling) -> int:
    return len(coinversion_triples(f))


def maj_na(f: AugmentedFilling) -> int:
    """Sum of leg+1 over descents; row 1 is never compared to the basement."""
    return _maj(f.cols)


def enumerate_na(shape, basement, n: int, ordered_only: bool = False,
                 no_descents: bool = False, content=None):
    """All nonattacking fillings of the diagram with entries 1..n.

    ordered_only restricts the bottom row as in :func:`is_ordered`;
    no_descents keeps only fillings with no descent anywhere, the basement
    included (the surviving set at q = 0).  With ``content``, only the
    fillings holding the value v exactly ``content[v-1]`` times are built,
    in the same order: entries range over 1..len(content), and a value's
    remaining budget is checked before the other conditions.
    """
    shape = check_composition(shape)
    if basement is not None:
        basement = check_permutation(basement)
        if len(basement) != len(shape):
            raise ValueError("basement length does not match the shape")
        if n != len(basement):
            raise ValueError("basement entries must be the letters 1..n")
    if ordered_only and any(a > b for a, b in zip(shape, shape[1:])):
        raise ValueError("ordered enumeration needs a weakly increasing shape")
    left = content_budget(sum(shape), n, content)

    ncols = len(shape)
    order = cells(shape)
    entries: dict[Cell, int] = {}
    # Per cell in order: the earlier cells and the basement values attacking
    # it, a fixed bound on its entry, and (cell, d) pairs bounding it by
    # entries[cell] - d: the cell below without descents, the previous
    # same-height bottom cell when ordered.
    plan = []
    for k, (i, r) in enumerate(order):
        hi, below = len(left), []
        if no_descents and r >= 2:
            below.append(((i, r - 1), 0))
        if no_descents and r == 1 and basement is not None:
            hi = min(hi, basement[i - 1])
        if ordered_only and r == 1:
            prev = max((j for j in range(1, i) if shape[j - 1] >= 1),
                       default=None)
            if prev is not None and shape[prev - 1] == shape[i - 1]:
                below.append(((prev, 1), 1))
        plan.append(([c for c in order[:k] if attacks((i, r), c)],
                     {basement[j - 1] for j in range(1, ncols + 1)
                      if attacks((i, r), (j, 0))} if basement else set(),
                     hi, below))

    def candidates(k):
        earlier, blocked, hi, below = plan[k]
        top = min([hi] + [entries[c] - d for c, d in below])
        taken = blocked.union(entries[c] for c in earlier)
        return [v for v in range(1, top + 1)
                if left[v - 1] and v not in taken]

    def backtrack(k):
        if k == len(order):
            cols = tuple(tuple(entries[(i, r)] for r in range(1, shape[i - 1] + 1))
                         for i in range(1, ncols + 1))
            yield AugmentedFilling(shape, cols, basement)
            return
        cell = order[k]
        for val in candidates(k):
            entries[cell] = val
            left[val - 1] -= 1
            yield from backtrack(k + 1)
            left[val - 1] += 1
            del entries[cell]

    yield from backtrack(0)


# -- scalar products --------------------------------------------------------

def _poch_factors(parts) -> list[tuple[int, int]]:
    """The cell factors (0, j), j <= m, of (t;t)_m per part multiplicity m."""
    return [(0, j) for m in multiplicities(parts).values()
            for j in range(1, m + 1)]


def _factor_poly(factors, nvars: int) -> MPoly:
    return weight_poly(cell_product(tuple(sorted(factors))), nvars)


def pr1(mu, nvars: int = 0) -> MPoly:
    """Product over the diagram of mu of (1 - q^leg t^(arm+1))."""
    mu = check_partition(mu)
    return _factor_poly([(leg(mu, c), arm(mu, c) + 1) for c in cells(mu)],
                        nvars)


def pr2(alpha, nvars: int = 0) -> MPoly:
    """(t;t) factors of the part multiplicities, times
    (1 - q^(leg+1) t^(arm+1)) over the non-bottom cells of the sorted diagram."""
    alpha = check_composition(alpha)
    shape = inc_sort(alpha)
    return _factor_poly(_poch_factors(alpha)
                        + [(leg(shape, c) + 1, arm(shape, c) + 1)
                           for c in cells(shape) if c[1] >= 2], nvars)


def _add_integral_terms(terms: dict, fillings, shape, basement,
                        n: int | None) -> None:
    """Add x^f q^maj t^coinv per filling, times, per cell above row 1,
    1 - q^(leg+1) t^(arm+1) where it repeats the entry below and 1 - t
    where it does not; with n None, the fillings share one content and
    only the x-free part is added.  With a basement, row 1 must copy it,
    which makes the filling ordered; a filling that does not raises."""
    upper = [(i - 1, r - 1, (leg(shape, (i, r)) + 1, arm(shape, (i, r)) + 1))
             for i, r in cells(shape) if r >= 2]
    plan = _coinversion_plan(shape, basement is not None)
    for f in fillings:
        cols = f.cols
        if basement is not None and (
                any(col and col[0] != b for col, b in zip(cols, basement))
                or not is_ordered(f)):
            raise AssertionError(
                f"filling {f.rows()} is not ordered on the basement {basement}")
        factors = tuple(sorted(ab if cols[i][r] == cols[i][r - 1] else (0, 1)
                               for i, r, ab in upper))
        accumulate(terms, () if n is None else x_content(cols, n),
                   cell_product(factors),
                   _maj(cols), sum(1 for _ in _coinversions(f, plan)))


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
    increasing sort, as one accumulation scaled once by their common
    (t;t) factors."""
    alphas = [check_composition(a) for a in alphas]
    shape = inc_sort(alphas[0]) if alphas else ()
    terms: dict[tuple[int, ...], int] = {}
    for alpha in alphas:
        if n != len(alpha):
            raise ValueError("the variable count must equal the number of parts")
        if inc_sort(alpha) != shape:
            raise ValueError(f"{alpha} does not sort to {shape}")
        basement = beta_perm(alpha)
        _add_integral_terms(terms, enumerate_na(shape, basement, n), shape,
                            basement, n)
    return MPoly(n, terms) * _factor_poly(_poch_factors(shape), n)


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
    plan = _coinversion_plan(alpha, True)
    terms: dict[tuple[int, ...], int] = {}
    for f in enumerate_na(alpha, basement, n, no_descents=True):
        ndiff = sum(1 for col, b in zip(f.cols, basement)
                    for r, e in enumerate(col) if e != (col[r - 1] if r else b))
        accumulate(terms, x_content(f.cols, n), cell_product(((0, 1),) * ndiff),
                   0, sum(1 for _ in _coinversions(f, plan)))
    return MPoly(n, terms)


def j_compact(mu, n: int) -> MPoly:
    """Integral-form Macdonald polynomial as a sum over ordered
    nonattacking fillings of the increasing diagram.

    The sum is symmetric in x, so it is taken over the fillings of each
    partition content nu only, scaled by the (t;t) factors, and expanded to
    the rearrangements of nu last.
    """
    mu = check_partition(mu)
    if n < len(mu):
        raise ValueError("need at least as many variables as parts")
    shape = (0,) * (n - len(mu)) + tuple(sorted(mu))
    scalar = _factor_poly(_poch_factors(mu), 0)
    coeffs = {}
    for nu in partitions_of(sum(mu)):
        if len(nu) > n:
            continue
        terms: dict[tuple[int, int], int] = {}
        _add_integral_terms(terms, enumerate_na(shape, None, n, ordered_only=True,
                                                content=nu), shape, None, None)
        coeffs[nu] = MPoly(0, terms) * scalar
    return expand_symmetric(n, coeffs)


def j_hhl(mu, n: int) -> MPoly:
    """Integral-form Macdonald polynomial as a sum over all nonattacking
    fillings of the partition diagram itself; the brute-force route."""
    mu = check_partition(mu)
    terms: dict[tuple[int, ...], int] = {}
    _add_integral_terms(terms, enumerate_na(mu, None, n), mu, None, n)
    return MPoly(n, terms) * (MPoly.one(n) - MPoly.t(n)) ** len(mu)


def p_poly(mu, n: int) -> "RationalForm":
    """The monic symmetric Macdonald polynomial, as a rational form."""
    from .mpoly import RationalForm
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
