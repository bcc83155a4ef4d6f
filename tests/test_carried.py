"""The statistics the enumerators' searches carry equal the per-object
oracles: maj, inv and perm_t's signature for sorted tableaux, maj_na and
coinv for nonattacking fillings, over every lambda |- <= 5 at n <= 3."""

from itertools import permutations

import pytest

from macpoly.nonattacking import _walk, coinv, enumerate_na, maj_na
from macpoly.shapes import cells, compositions, partitions_of
from macpoly.tableaux import (Filling, _signature, _sorted_walk, components,
                              inv, maj)


def _run_signature(blocks, runs):
    """Split the blocks of equal adjacent columns by the same-height runs,
    as (width, sorted multiplicities) per run."""
    sig, k = [], 0
    for lo, hi in runs:
        mults = []
        while sum(mults) < hi - lo + 1:
            mults.append(blocks[k])
            k += 1
        assert sum(mults) == hi - lo + 1
        sig.append((hi - lo + 1, tuple(sorted(mults))))
    assert k == len(blocks)
    return tuple(sig)


@pytest.mark.parametrize("m", range(1, 6))
def test_sorted_walk_carries_maj_inv_and_run_multiplicities(m):
    for lam in partitions_of(m):
        runs = components(lam)
        walks = [(n, None) for n in range(1, 4)]
        walks += [(len(nu), nu) for nu in partitions_of(m) if len(nu) <= 3]
        for n, nu in walks:
            seen = 0
            for cols, mj, iv, blocks in _sorted_walk(lam, n, nu):
                f = Filling(cols)
                assert (mj, iv) == (maj(f), inv(f)), (lam, n, nu, cols)
                assert _run_signature(blocks, runs) == _signature(cols, runs)
                seen += 1
            assert seen, (lam, n, nu)


def _check_walk(shape, basement, n, **kw):
    """Each raw tuple of the walk against the public filling at the same
    place of enumerate_na: entries, maj_na, coinv and the eq bits."""
    order = cells(shape)
    below = [(i, r - 1) if r >= 2 or basement is not None else None
             for i, r in order]
    for (entries, mj, c, eq), f in zip(_walk(shape, basement, n, **kw),
                                       enumerate_na(shape, basement, n, **kw),
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
