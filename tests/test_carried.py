"""The statistics the one search carries equal the per-object oracles:
maj, inv and perm_t's signature for sorted tableaux, maj_na and coinv for
nonattacking fillings, over every lambda |- <= 5 at n <= 3."""

from itertools import permutations

import pytest

from macpoly.nonattacking import AugmentedFilling, coinv, enumerate_na, maj_na
from macpoly.shapes import _walk, cells, compositions, partitions_of
from macpoly.tableaux import (Filling, _signature, components,
                              enumerate_fillings, inv, is_sorted, maj,
                              x_content)


def _triples(shape) -> int:
    """T = sum of (v-1) h_v over the column heights h_v."""
    return sum((v - 1) * h for v, h in enumerate(shape, start=1))


def _mask_signature(mask, shape, runs):
    """Per same-height run, its width and the sorted lengths of its blocks
    of equal adjacent columns, read off the top-cell bits of the mask."""
    tops = [sum(shape[:i]) - 1 for i in range(1, len(shape) + 1)]
    sig = []
    for lo, hi in runs:
        mults = [1]
        for i in range(lo + 1, hi + 1):
            if mask >> tops[i - 1] & 1:
                mults[-1] += 1
            else:
                mults.append(1)
        sig.append((hi - lo + 1, tuple(sorted(mults))))
    return tuple(sig)


@pytest.mark.parametrize("m", range(1, 6))
def test_sorted_walk_carries_maj_inv_and_run_multiplicities(m):
    """The sorted mode yields exactly the sorted fillings, in lexicographic
    order of their columns, with maj, inv and a mask whose bit says a
    cell's column agrees up to it with its same-height left neighbour."""
    for lam in partitions_of(m):
        runs = components(lam)
        order = sorted(cells(lam))  # column by column
        walks = [(n, None) for n in range(1, 4)]
        walks += [(len(nu), nu) for nu in partitions_of(m) if len(nu) <= 3]
        for n, nu in walks:
            expect = [f for f in enumerate_fillings(lam, n) if is_sorted(f)
                      and (nu is None or all(
                          sum(col.count(v) for col in f.cols) == mult
                          for v, mult in enumerate(nu, start=1)))]
            assert expect, (lam, n, nu)
            for (entries, mj, c, mask), f in zip(
                    _walk(lam, None, n, content=nu, sorted_tableaux=True),
                    expect, strict=True):
                assert entries[:len(order)] == [f.entry(*cell) for cell in order]
                assert (mj, c) == (maj(f), inv(f)), (lam, f.cols)
                assert mask == sum(
                    1 << k for k, (i, r) in enumerate(order)
                    if i > 1 and lam[i - 2] == lam[i - 1]
                    and f.cols[i - 2][:r] == f.cols[i - 1][:r])
                assert _mask_signature(mask, lam, runs) == _signature(f.cols,
                                                                      runs)


@pytest.mark.parametrize("m", range(6))
def test_inv_plus_coinv_counts_every_triple(m):
    """On a partition without basement every triple is inverted or a
    coinversion, which is why the sorted walk can count inv down from T."""
    seen = 0
    for lam in partitions_of(m):
        for n in range(1, 4):
            for f in enumerate_fillings(lam, n):
                g = AugmentedFilling(f.shape, f.cols)
                assert inv(f) + coinv(g) == _triples(lam), (lam, f.cols)
                seen += 1
    assert seen == sum(n ** m for n in range(1, 4)) * len(partitions_of(m))


def _check_walk(shape, basement, n, content=None, **kw):
    """Each raw tuple of the walk against the public filling at the same
    place of enumerate_na, given a content among the fillings that hold it:
    entries, maj_na, coinv and the mask bits."""
    order = cells(shape)
    below = [(i, r - 1) if r >= 2 or basement is not None else None
             for i, r in order]
    fillings = [f for f in enumerate_na(shape, basement, n, **kw)
                if content is None
                or x_content(f.cols, n) == content + (0,) * (n - len(content))]
    for (entries, mj, c, eq), f in zip(
            _walk(shape, basement, n, content=content, **kw), fillings,
            strict=True):
        assert entries[:len(order)] == [f.entry(*cell) for cell in order]
        assert (mj, c) == (maj_na(f), coinv(f)), (shape, basement, f.cols)
        assert eq == sum(1 << k for k, (cell, b) in enumerate(zip(order, below))
                         if b is not None and f.entry(*cell) == f.entry(*b))


@pytest.mark.parametrize("m", range(1, 6))
def test_walk_carries_maj_and_coinv(m):
    for lam in partitions_of(m):
        # plain: the partition diagram itself, and its increasing sort
        for n in range(1, 4):
            _check_walk(lam, None, n)
            _check_walk(tuple(reversed(lam)), None, n)
        # ordered with content: j_compact's diagram
        for n in range(len(lam), 4):
            shape = (0,) * (n - len(lam)) + tuple(sorted(lam))
            for nu in partitions_of(m):
                if len(nu) <= n:
                    _check_walk(shape, None, n, ordered_only=True, content=nu)


@pytest.mark.parametrize("m", range(1, 6))
def test_walk_with_a_basement_carries_maj_and_coinv(m):
    """Every composition diagram of m cells in at most 3 columns, under
    every basement, with and without descents."""
    for n in range(1, 4):
        for alpha in compositions(m, length=n):
            for basement in permutations(range(1, n + 1)):
                _check_walk(alpha, basement, n)
                _check_walk(alpha, basement, n, no_descents=True)


@pytest.mark.parametrize("m", range(1, 6))
def test_coinv_cap_keeps_exactly_the_fillings_under_it(m):
    for n in range(1, 4):
        for alpha in compositions(m, length=n):
            for basement in [tuple(range(1, n + 1)),
                             tuple(range(n, 0, -1))]:
                walk = list(_raw(alpha, basement, n, no_descents=True))
                for cap in (0, 1):
                    capped = list(_raw(alpha, basement, n, no_descents=True,
                                       coinv_cap=cap))
                    assert capped == [w for w in walk if w[1] <= cap]


def _raw(shape, basement, n, **kw):
    size = sum(shape)
    for entries, _, c, _ in _walk(shape, basement, n, **kw):
        yield tuple(entries[:size]), c
