"""The weighted-filling kernel: digest regression against recorded outputs,
the cached t-multinomials, in-place accumulation, enumeration restricted to
one content, and the symmetric expansion."""

import hashlib
import random
from itertools import permutations, product

import pytest

from macpoly.mpoly import (ONE, MPoly, VariableMismatchError, accumulate,
                           cell_product, exact_div_xfree, expand_symmetric,
                           t_multinomial, weight_poly)
from macpoly.nonattacking import (e_general_q0, e_integral, enumerate_na,
                                  j_compact, j_hhl)
from macpoly.quasisym import g_integral, qs_gamma, qsym_expand
from macpoly.shapes import partitions_of
from macpoly.tableaux import enumerate_sorted, htilde_compact, x_content


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


@pytest.mark.parametrize("k", range(8))
def test_cached_t_multinomial_equals_the_factorial_ratio(k):
    for parts in partitions_of(k):
        expected = _t_factorial(k)
        for m in parts:
            expected = exact_div_xfree(expected, _t_factorial(m))
        for order in set(permutations(parts)):
            assert t_multinomial(k, order) == expected
        widened = MPoly(2, {(0, 0) + key: c for key, c in expected.terms().items()})
        assert t_multinomial(k, parts, 2) == widened


def test_cell_product_is_the_product_of_its_factors():
    one, q, t = MPoly.one(0), MPoly.q(0), MPoly.t(0)
    factors = ((0, 1), (0, 1), (1, 2), (2, 1))
    expected = (one - t) ** 2 * (one - q * t ** 2) * (one - q ** 2 * t)
    assert weight_poly(cell_product(factors)) == expected
    assert cell_product(()) == ONE
    assert cell_product(((0, 0), (1, 1))) == ()  # 1 - q^0 t^0 = 0


def test_accumulate_drops_cancelled_terms_and_equals_the_add_chain():
    rng = random.Random(2)
    terms, chain = {}, MPoly.zero(2)
    fed = []
    cancelled = 0
    for _ in range(400):
        content = (rng.randint(0, 1), rng.randint(0, 1))
        weight = tuple(sorted({(rng.randint(0, 1), rng.randint(0, 1)):
                               rng.choice((-2, -1, 1, 2)) for _ in range(2)}.items()))
        qexp, texp = rng.randint(0, 1), rng.randint(0, 1)
        before = len(terms)
        accumulate(terms, content, weight, qexp, texp)
        cancelled += len(terms) < before
        fed.append((content, weight, qexp, texp))
        chain = chain + MPoly(2, {content + (a + qexp, b + texp): c
                                  for (a, b), c in weight})
        assert 0 not in terms.values()
    assert cancelled > 0
    assert MPoly(2, terms) == chain
    for content, weight, qexp, texp in fed:
        accumulate(terms, content, tuple((key, -c) for key, c in weight),
                   qexp, texp)
    assert terms == {}


@pytest.mark.parametrize("m", range(1, 6))
def test_content_enumeration_is_the_filtered_full_enumeration(m):
    n = m
    for lam in partitions_of(m):
        j_shape = (0,) * (n - len(lam)) + tuple(sorted(lam))
        enumerators = (
            lambda **kw: enumerate_sorted(lam, n, **kw),
            lambda **kw: enumerate_na(j_shape, None, n, ordered_only=True, **kw),
            lambda **kw: enumerate_na(lam, None, n, **kw),
        )
        for enum in enumerators:
            everything = list(enum())
            for nu in partitions_of(m):
                padded = nu + (0,) * (n - len(nu))
                expected = [f for f in everything
                            if x_content(f.cols, n) == padded]
                assert list(enum(content=nu)) == expected


def test_sorted_222_has_281_tableaux_of_partition_content():
    assert len(list(enumerate_sorted((2, 2, 2), 6))) == 8436
    assert sum(1 for nu in partitions_of(6)
               for _ in enumerate_sorted((2, 2, 2), 6, content=nu)) == 281


def test_content_must_fill_the_diagram():
    with pytest.raises(ValueError):
        next(enumerate_sorted((2, 1), 3, content=(2,)))
    with pytest.raises(ValueError):
        next(enumerate_na((1, 2), None, 3, content=(2, 2)))


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
