"""The weighted-filling kernel: digest regression against recorded outputs,
the cached t-multinomials, in-place accumulation, the walk sum and the
perm_t weight it reads off a mask, the unchecked read-out, the walk
restricted to one content, and the symmetric expansion."""

import hashlib
import random
from itertools import chain, permutations, product

import pytest

from macpoly.mpoly import (ONE, MPoly, VariableMismatchError, cell_product,
                           divided_difference, exact_div_xfree,
                           expand_symmetric, read_out, specialize,
                           t_multinomial, t_multinomial_product, t_pochhammer,
                           walk_sum, weight_poly)
from macpoly.nonattacking import (e_general_q0, e_integral, e_integral_sum,
                                  j_compact, j_hhl, pr1, pr2)
from macpoly.quasisym import (demazure_t_atom, g_integral, placements,
                              qs_gamma, qsym_expand)
from macpoly.shapes import _walk, partitions_of, rearrangements
from macpoly.tableaux import (_perm_t_weight, enumerate_sorted, htilde_compact,
                              perm_t, x_content)


def _weak(n, deg):
    return [a for a in product(range(deg + 1), repeat=n) if sum(a) == deg]


def _strong(deg):
    if deg == 0:
        return [()]
    return [(f,) + rest for f in range(1, deg + 1) for rest in _strong(deg - f)]


def _partition_lines(fn, m):
    """Every lambda |- m with l(lambda) <= n <= 5."""
    return [f"{lam} {n} {fn(lam, n).to_json()}\n"
            for lam in partitions_of(m) for n in range(len(lam), 6)]


def _wide_lines(fn, m, extras):
    """Every lambda |- m at n = m + e for each e in extras."""
    return [f"{lam} {m + e} {fn(lam, m + e).to_json()}\n"
            for lam in partitions_of(m) for e in extras]


def _e_integral_lines():
    return [f"{a} {e_integral(a).to_json()}\n"
            for n in range(1, 5) for d in range(5) for a in _weak(n, d)]


def _e_general_q0_lines():
    return [f"{a} {b} {e_general_q0(a, b, len(b)).to_json()}\n"
            for n in range(1, 4) for d in range(4) for a in _weak(n, d)
            for b in permutations(range(1, n + 1))]


def _strong_lines(fn):
    return [f"{g} {n} {fn(g, n).to_json()}\n"
            for d in range(1, 5) for g in _strong(d) for n in range(len(g), 5)]


CASES = {
    **{(name, m): (lambda fn=fn, m=m: _partition_lines(fn, m))
       for name, fn in (("htilde_compact", htilde_compact),
                        ("j_compact", j_compact), ("j_hhl", j_hhl))
       for m in range(1, 6)},
    ("e_integral", 0): _e_integral_lines,
    ("e_general_q0", 0): _e_general_q0_lines,
    ("g_integral", 0): lambda: _strong_lines(g_integral),
    ("qs_gamma", 0): lambda: _strong_lines(qs_gamma),
    **{("htilde_compact at n=|lam|+1,+2", m):
       (lambda m=m: _wide_lines(htilde_compact, m, (1, 2))) for m in range(1, 5)},
    **{("j_compact at n=|lam|+1", m):
       (lambda m=m: _wide_lines(j_compact, m, (1,))) for m in range(1, 5)},
}


def case_digest(key) -> str:
    return hashlib.sha256("".join(CASES[key]()).encode()).hexdigest()


# SHA-256 of the to_json() lines above, recorded from the per-filling MPoly
# implementation that preceded the accumulator.
DIGESTS = {
    ('e_general_q0', 0):
        "448a53c3e7984b2b01c6bca76766156f7021dba22110484013e80503e25a241e",
    ('e_integral', 0):
        "ca9dbc05d4ed506471652cace48db44d61e4c066227169dd389843afb71782f9",
    ('g_integral', 0):
        "09a3f93dcb3505713e2dac236d8346fe74de6ac511f83f841c17f277d5a226a3",
    ('htilde_compact', 1):
        "6d5acf6560fb28327fbc4d34ea45a58a74f6740935c4621f0e7204b99e56c3ee",
    ('htilde_compact', 2):
        "9876461bacbbde926584a585d8d9697511acfdf899f0429da69fbe7eccda58b3",
    ('htilde_compact', 3):
        "f45c8172d021bcfa2d7cfac2041c6e51a3c6bdca3b03c54f78afa163792fdbdf",
    ('htilde_compact', 4):
        "a471f67062914b88deb82b66b617593ad9c59f72c1c2d8b86ce77b6867e8f9ed",
    ('htilde_compact', 5):
        "8f5eae5689a4894cc861d2f4cf3f42b860446159ffa24929b39839d6582d94c6",
    ('j_compact', 1):
        "ba8875c37a8cfd3286182af2dfb872a6cd9f9e35975ce8fcad7d0e9c0220c295",
    ('j_compact', 2):
        "58c09330ae2465ec756bba08ce9cadc42e2947802d518fb55aed950e1134215c",
    ('j_compact', 3):
        "7d735f2845d283cc983cd8f7253d7c432f5717e193025e7dc6a644dcd2016f11",
    ('j_compact', 4):
        "6b2cd5c8c16d7fb398e2552848511c868709488e0ccd2f4008f53804c546d5d1",
    ('j_compact', 5):
        "0beb81eceeb6f54b06946737a36248e30f30969c997a433c92d83a43d8b09a20",
    ('j_hhl', 1):
        "ba8875c37a8cfd3286182af2dfb872a6cd9f9e35975ce8fcad7d0e9c0220c295",
    ('j_hhl', 2):
        "58c09330ae2465ec756bba08ce9cadc42e2947802d518fb55aed950e1134215c",
    ('j_hhl', 3):
        "7d735f2845d283cc983cd8f7253d7c432f5717e193025e7dc6a644dcd2016f11",
    ('j_hhl', 4):
        "6b2cd5c8c16d7fb398e2552848511c868709488e0ccd2f4008f53804c546d5d1",
    ('j_hhl', 5):
        "0beb81eceeb6f54b06946737a36248e30f30969c997a433c92d83a43d8b09a20",
    ('qs_gamma', 0):
        "39e85c151e8a3a1a1a69307a70df41de94aefb79a03287293b462187446871a9",
    # recorded from the accumulator summing over every content, before the
    # sums were taken per partition content and expanded by symmetry
    ('htilde_compact at n=|lam|+1,+2', 1):
        "03e844b81dcd51edfec4c744316fb8334e0ff68f9adca2c7006971b067bdda2b",
    ('htilde_compact at n=|lam|+1,+2', 2):
        "b89b0c4f811ef2a6ffaa13694d37322c301bc34a77bda21f7f3ea1b6533de95a",
    ('htilde_compact at n=|lam|+1,+2', 3):
        "59901d1a567f9978d39bd33d3bbcf9594bfc4160449f6840b8b9ea166f62b65a",
    ('htilde_compact at n=|lam|+1,+2', 4):
        "2c5c56c3349c9d91da125f17bb067f7bd53e8ac614c6f0d9fdbc6d0212f3a19d",
    ('j_compact at n=|lam|+1', 1):
        "a9fec4e50804b5fc822933d6a2065c318c26afe34b11cab3a6deec7f52c7b8e9",
    ('j_compact at n=|lam|+1', 2):
        "f5d961e1dfe63285132bc169108c38085d8699a1671564f54e58a840669e307a",
    ('j_compact at n=|lam|+1', 3):
        "ca0da3f40e105fbdf81186211a16afca0291173f879b76fa2f475a72eb23e5d5",
    ('j_compact at n=|lam|+1', 4):
        "07e9b9b0bde2aa9e061cc16d0375f5aeb93e43c469dcbe4a4ff8805e0c2b27ce",
}


@pytest.mark.parametrize("key", sorted(CASES))
def test_outputs_match_recorded_digests(key):
    assert case_digest(key) == DIGESTS[key], key


def _t_factorial(k):
    out = MPoly.one(0)
    for j in range(2, k + 1):
        out = out * MPoly(0, {(0, e): 1 for e in range(j)})
    return out


def _factorial_ratio(k, parts):
    out = _t_factorial(k)
    for m in parts:
        out = exact_div_xfree(out, _t_factorial(m))
    return out


@pytest.mark.parametrize("k", range(11))
def test_cached_t_multinomial_equals_the_factorial_ratio(k):
    for parts in partitions_of(k):
        expected = _factorial_ratio(k, parts)
        for order in chain(rearrangements(parts), rearrangements(parts + (0,))):
            assert t_multinomial(k, order) == expected
        widened = MPoly(2, {(0, 0) + key: c for key, c in expected.terms().items()})
        assert t_multinomial(k, parts, 2) == widened


def test_t_multinomial_product_of_two_runs_is_the_product_of_their_ratios():
    ratios = {(k, parts): _factorial_ratio(k, parts)
              for k in range(1, 9) for parts in partitions_of(k)}
    for (k1, p1), (k2, p2) in product(ratios, repeat=2):
        if k1 + k2 <= 9:
            sig = ((k1, tuple(sorted(p1))), (k2, tuple(sorted(p2))))
            assert (weight_poly(t_multinomial_product(sig))
                    == ratios[k1, p1] * ratios[k2, p2]), sig


def test_cell_product_is_the_product_of_its_factors():
    one, q, t = MPoly.one(0), MPoly.q(0), MPoly.t(0)
    factors = ((0, 1), (0, 1), (1, 2), (2, 1))
    expected = (one - t) ** 2 * (one - q * t ** 2) * (one - q ** 2 * t)
    assert weight_poly(cell_product(factors)) == expected
    assert cell_product(()) == ONE
    assert cell_product(((0, 0), (1, 1))) == ()  # 1 - q^0 t^0 = 0


def test_walk_sum_drops_cancelled_terms_and_equals_the_add_chain():
    # Hand-made raw tuples: two cells with entries in 1..2, the q and t
    # shifts as maj and coinv, and a mask of its own per tuple, whose
    # weight is the one drawn for it.
    rng = random.Random(2)
    raw, weights, chain = [], {}, MPoly.zero(2)
    for k in range(400):
        entries = [rng.randint(1, 2), rng.randint(1, 2)]
        content = (entries.count(1), entries.count(2))
        weights[k] = tuple(sorted({(rng.randint(0, 1), rng.randint(0, 1)):
                                   rng.choice((-2, -1, 1, 2))
                                   for _ in range(2)}.items()))
        qexp, texp = rng.randint(0, 1), rng.randint(0, 1)
        raw.append((entries, qexp, texp, k))
        chain = chain + MPoly(2, {content + (a + qexp, b + texp): c
                                  for (a, b), c in weights[k]})
    terms = walk_sum(raw, weights.__getitem__, 2, 2)
    assert 0 not in terms.values()
    assert MPoly(2, terms) == chain
    # Each tuple again under a mask weighing its negation cancels it: the
    # copies of the content (1, 1) leave the other contents' terms alone,
    # and the copies of all of them leave nothing.
    both = {**weights, **{k + 400: tuple((key, -c) for key, c in w)
                          for k, w in weights.items()}}.__getitem__
    again = [(entries, qexp, texp, k + 400) for entries, qexp, texp, k in raw]
    kept = walk_sum(raw + [r for r in again if r[0].count(1) == 1], both, 2, 2)
    assert 0 not in kept.values()
    assert kept == {key: c for key, c in terms.items() if key[:2] != (1, 1)}
    assert walk_sum(raw + again, both, 2, 2) == {}


# Raw walk tuples: four entries of which the first three are cells, the
# fourth a basement slot that the content must not count.
_RAW = [([2, 1, 2, 3], 1, 0, 5), ([1, 1, 3, 2], 0, 2, 3),
        ([3, 2, 1, 1], 2, 1, 5), ([2, 1, 2, 1], 1, 0, 5)]
_ONE_MINUS_Q = (((0, 0), 1), ((1, 0), -1))


def test_walk_sum_counts_the_content_of_the_cells_only():
    calls = []

    def weight(mask):
        calls.append(mask)
        return _ONE_MINUS_Q

    one, q = MPoly.one(3), MPoly.q(3)
    expected = sum((MPoly.monomial(3, x_content((entries[:3],), 3), m, c)
                    * (one - q) for entries, m, c, _ in _RAW), MPoly.zero(3))
    assert read_out(3, walk_sum(iter(_RAW), weight, 3, 3)) == expected
    assert calls == [5, 3]  # once per mask, in the order first met


def test_walk_sum_takes_the_t_exponent_as_the_carried_stat():
    assert read_out(0, walk_sum(iter(_RAW), lambda mask: ONE)) == sum(
        (MPoly.monomial(0, (), m, s) for _, m, s, _ in _RAW), MPoly.zero(0))


def test_walk_sum_tallies_a_one_content_walk_by_maj_coinv_and_mask():
    # Without nvars the walk has one content, so the entries are never read
    # and each (maj, stat, mask) triple adds its weight once, times the
    # number of tuples that carry it.  Mask 1 weighs the negation of mask
    # 0, so the triples (5, 2, 0) and (5, 2, 1), three times each, cancel,
    # and mask 4 that of mask 2, so (5, 1, 2) and (5, 1, 4), twice each, do
    # too; the other tuples have maj at most 2, so their keys stay apart.
    rng = random.Random(5)
    weights = {0: (((0, 0), 1), ((1, 1), -2)), 1: (((0, 0), -1), ((1, 1), 2)),
               2: (((0, 1), 3),), 3: (((2, 0), -1), ((0, 2), 1)),
               4: (((0, 1), -3),)}
    raw = [([rng.randint(1, 3)], rng.randint(0, 2), rng.randint(0, 2),
            rng.choice((2, 3))) for _ in range(300)]
    raw += ([([1], 5, 2, 0)] * 3 + [([2], 5, 2, 1)] * 3 + [([3], 5, 1, 2)] * 2
            + [([1], 5, 1, 4)] * 2)
    rng.shuffle(raw)
    calls = []

    def weight(mask):
        calls.append(mask)
        return weights[mask]

    expected = MPoly.zero(0)
    for _, m, s, mask in raw:
        expected += MPoly(0, {(a + m, b + s): c for (a, b), c in weights[mask]})
    terms = walk_sum(iter(raw), weight)
    assert 0 not in terms.values()
    assert read_out(0, terms) == expected
    assert not any(a >= 5 for a, _ in terms)  # all of them cancelled
    assert calls == list(dict.fromkeys(mask for *_, mask in raw))


@pytest.mark.parametrize("m", range(1, 7))
def test_the_mask_weight_is_perm_t(m):
    """The perm_t weight read off a sorted tableau's walk mask is perm_t of
    the tableau, for every sorted tableau of lambda |- m at n <= 3."""
    for lam in partitions_of(m):
        for n in range(1, 4):
            for (_, _, _, mask), f in zip(
                    _walk(lam, None, n, sorted_tableaux=True),
                    enumerate_sorted(lam, n), strict=True):
                assert weight_poly(_perm_t_weight(lam, mask)) == perm_t(f), \
                    (lam, f.cols)


def _raw(walk):
    """A walk's raw tuples with each reused entry list copied."""
    return [(tuple(entries), *stats) for entries, *stats in walk]


@pytest.mark.parametrize("m", range(1, 6))
def test_content_enumeration_is_the_filtered_full_enumeration(m):
    """A walk given content nu yields the raw tuples of the full walk whose
    cells hold nu, in the same order, for the sorted tableaux, the ordered
    fillings of J's diagram and the nonattacking fillings of lambda."""
    n = m
    for lam in partitions_of(m):
        j_shape = (0,) * (n - len(lam)) + tuple(sorted(lam))
        walks = (
            lambda **kw: _walk(lam, None, n, sorted_tableaux=True, **kw),
            lambda **kw: _walk(j_shape, None, n, ordered_only=True, **kw),
            lambda **kw: _walk(lam, None, n, **kw),
        )
        for walk in walks:
            everything = _raw(walk())
            for nu in partitions_of(m):
                padded = nu + (0,) * (n - len(nu))
                expected = [r for r in everything
                            if x_content((r[0][:m],), n) == padded]
                assert _raw(walk(content=nu)) == expected


def test_sorted_222_has_281_tableaux_of_partition_content():
    assert sum(1 for _ in _walk((2, 2, 2), None, 6,
                                sorted_tableaux=True)) == 8436
    assert sum(1 for nu in partitions_of(6)
               for _ in _walk((2, 2, 2), None, 6, content=nu,
                              sorted_tableaux=True)) == 281


def test_content_must_fill_the_diagram():
    with pytest.raises(ValueError):
        next(_walk((2, 1), None, 3, content=(2,), sorted_tableaux=True))
    with pytest.raises(ValueError):
        next(_walk((1, 2), None, 3, content=(2, 2)))
    with pytest.raises(ValueError,
                       match=r"^content \(1, 1\) does not fill 3 cells$"):
        next(_walk((2, 1), None, 2, content=(1, 1)))


def test_expand_symmetric_writes_every_rearrangement():
    coeff = MPoly(0, {(1, 0): 2, (0, 1): -1})
    p = expand_symmetric(3, {(2, 1): coeff, (): MPoly.one(0)})
    rearranged = set(permutations((2, 1, 0)))
    assert len(p) == 2 * len(rearranged) + 1
    for xexps in rearranged:
        assert p.coefficient(xexps, 1, 0) == 2
        assert p.coefficient(xexps, 0, 1) == -1
    assert p.coefficient((0, 0, 0)) == 1
    assert expand_symmetric(2, {}) == MPoly.zero(2)
    with pytest.raises(VariableMismatchError):
        expand_symmetric(1, {(1, 1): MPoly.one(0)})
    with pytest.raises(VariableMismatchError):
        expand_symmetric(2, {(1, 1): MPoly.one(2)})


@pytest.mark.parametrize("d", range(1, 5))
def test_g_integral_qsym_coefficients_do_not_depend_on_n(d):
    for gamma in _strong(d):
        seen = []
        for n in (d, d + 1, d + 2):
            exp = qsym_expand(g_integral(gamma, n))
            seen.append({comp: {k[n:]: c for k, c in coeff.terms().items()}
                         for comp, coeff in exp.coeffs.items()})
        assert seen[0] == seen[1] == seen[2], gamma


# -- the unchecked read-out ---------------------------------------------------

def _small_polys():
    x1, x2, q, t = MPoly.x(2, 1), MPoly.x(2, 2), MPoly.q(2), MPoly.t(2)
    return [MPoly.zero(2), x1, q * x1 ** 2 - t * x2, (x1 + x2 + q) ** 3,
            x1 ** 2 * x2 + x1 * x2 ** 2, (1 - t) * (q * x1 - 3 * x2 ** 2)]


def _arithmetic():
    ps = _small_polys()
    return ([a + b for a in ps for b in ps] + [a * b - b for a in ps for b in ps]
            + [-a for a in ps] + [3 * a for a in ps])


def _weights():
    return ([weight_poly(cell_product(f), n) for n in range(3)
             for f in [(), ((0, 1),), ((1, 1), (1, 2), (2, 1))]]
            + [t_pochhammer(k, 2) for k in range(4)]
            + [t_multinomial(4, parts, 1) for parts in ((4,), (2, 2), (1, 2, 1))]
            + [perm_t(s, 3) for s in enumerate_sorted((2, 2), 2)]
            + [pr1((3, 1), 2), pr2((0, 2, 1), 3)])


def _specialized():
    bindings = [{"q": 0}, {"t": 1}, {"q": "t"}, {"q": "t", "t": "q"},
                {"x1": "x2"}, {"x1": 1, "x2": -1}, {"q": 0, "t": 0}]
    return [specialize(p, b) for p in _small_polys() for b in bindings]


def _divided_exactly():
    one, t = MPoly.one(2), MPoly.t(2)
    d = (one - t) * (one - MPoly.q(2) * t)
    return [exact_div_xfree(p * d, d) for p in _small_polys()]


def _accumulated():
    # raw tuples (entries, maj, coinv, mask) over two variables
    weights = {0: cell_product(((0, 1),)), 1: (((0, 1), 1),),
               2: cell_product(((1, 1), (0, 2)))}
    terms = walk_sum([([1, 1], 0, 0, 0), ([1, 1], 0, 0, 1),  # cancels -t
                      ([2, 2], 1, 2, 2)], weights.__getitem__, 2, 2)
    return [read_out(2, terms), read_out(0, {})]


def _e_integral_sums():
    return ([e_integral(a) for a in [(1, 0), (0, 2, 1), (2, 0, 1, 1), (1, 1, 2)]]
            + [e_integral_sum(placements(g, 3), 3) for g in ((1,), (2, 1), (1, 2))])


def _e_general_q0():
    return ([e_general_q0(a, b, 3) for a in [(2, 0, 1), (1, 1, 1)]
             for b in permutations((1, 2, 3))]
            + [demazure_t_atom(a, 3) for a in [(0, 1, 2), (2, 1)]])


def _qsym_coefficients():
    return [c for g, n in [((1,), 2), ((2, 1), 3), ((1, 2), 4)]
            for c in qsym_expand(g_integral(g, n)).coeffs.values()]


READ_OUTS = {
    "const": lambda: [MPoly.const(n, c) for n in range(3) for c in (-2, 0, 5)],
    "read_out": _accumulated,
    "arithmetic": _arithmetic,
    "weight_poly": _weights,
    "specialize": _specialized,
    # d_1 of x1^2 x2 + x1 x2^2 cancels to zero
    "divided_difference": lambda: [divided_difference(p, 1)
                                   for p in _small_polys()],
    "exact_div_xfree": _divided_exactly,
    "e_integral_sum": _e_integral_sums,
    "e_general_q0": _e_general_q0,
    "qs_gamma": lambda: [qs_gamma(g, n) for g, n in
                         [((1,), 2), ((2, 1), 3), ((1, 2), 4), ((3,), 1)]],
    "j_hhl": lambda: [j_hhl(mu, n) for mu, n in
                      [((1,), 1), ((2, 1), 2), ((2, 2), 3), ((1, 1), 1)]],
    "j_compact": lambda: [j_compact(mu, n) for mu, n in
                          [((1,), 1), ((2, 1), 2), ((2, 2), 3), ((3, 1), 4)]],
    "htilde_compact": lambda: [htilde_compact(lam, n) for lam, n in
                               [((1,), 1), ((2, 1), 2), ((2, 2), 3), ((2,), 0)]],
    "qsym_expand": _qsym_coefficients,
}


def _assert_well_formed(nvars, terms):
    for key, c in terms.items():
        assert c != 0 and len(key) == nvars + 2 and min(key) >= 0, (key, c)


@pytest.mark.parametrize("name", sorted(READ_OUTS))
def test_unchecked_read_outs_are_what_the_checked_constructor_keeps(name):
    polys = READ_OUTS[name]()
    assert any(polys)
    for p in polys:
        _assert_well_formed(p.nvars, p.terms())
        assert MPoly(p.nvars, p.terms()) == p
        for qt in getattr(p, "_coeffs", {}).values():  # per-content sums
            _assert_well_formed(0, qt)


def test_const_zero_is_the_zero_polynomial():
    for n in range(3):
        assert MPoly.const(n, 0).terms() == {} and MPoly.const(n, 0) == MPoly.zero(n)
