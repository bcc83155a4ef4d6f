"""Symmetric results held as their m_nu coefficients: the writers against
those of the expanded MPoly, the operations that expand them, and a guard
that ``compute htilde|J|P`` writes without expanding."""

import json
import pickle
import tracemalloc
from itertools import permutations

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macpoly import cli, mpoly, shapes
from macpoly.cli import main
from macpoly.mpoly import (MPoly, RationalForm, SymmetricMPoly,
                           expand_symmetric, specialize)
from macpoly.nonattacking import j_compact, pr1
from macpoly.quasisym import qs_gamma
from macpoly.shapes import partitions_of, rearrangements
from macpoly.tableaux import htilde_compact

from test_mpoly import _reference_render

WRITERS = ("to_json", "text", "latex")


def _forbid_expansion(monkeypatch):
    def refuse(self):
        raise AssertionError("the x-expansion was built")
    monkeypatch.setattr(SymmetricMPoly, "_expand", refuse)


def _check_against_expanded(monkeypatch, r):
    """r writes what its expansion writes, without expanding, and every
    other operation sees the expansion and returns plain MPolys."""
    assert type(r) is SymmetricMPoly
    with monkeypatch.context() as m:
        _forbid_expansion(m)
        written = {w: getattr(r, w)() for w in WRITERS}
        assert repr(r) == f"MPoly({r.nvars}, {written['text']!r})"
    plain = MPoly(r.nvars, r.terms())
    assert type(plain) is MPoly
    for w in WRITERS:
        assert written[w] == getattr(plain, w)() == getattr(r, w)()
    assert written["to_json"] == json.dumps(plain.to_json_dict())

    assert r == plain and plain == r
    assert hash(r) == hash(plain)
    assert len(r) == len(plain)
    assert bool(r) is bool(plain)
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is MPoly and back == plain

    t = MPoly.t(r.nvars)
    for value, expected in ((r + t, plain + t), (t + r, t + plain),
                            (r - plain, MPoly.zero(r.nvars)), (-r, -plain),
                            (r * t, plain * t), (r * 3, plain * 3),
                            (specialize(r, {"q": 1}), specialize(plain, {"q": 1}))):
        assert type(value) is MPoly
        assert value == expected


@pytest.mark.parametrize("fn", [htilde_compact, j_compact],
                         ids=["htilde", "J"])
@pytest.mark.parametrize("m", range(1, 6))
def test_compact_results_write_as_their_expansion(monkeypatch, fn, m):
    for lam in partitions_of(m):
        for n in range(len(lam), 7):
            _check_against_expanded(monkeypatch, fn(lam, n))


def _coefficients(nvars):
    qt = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         st.one_of(st.integers(-5, 5),
                                   st.sampled_from([7 ** 30, -7 ** 30])),
                         max_size=5)
    nus = st.sampled_from([nu for size in range(5) for nu in partitions_of(size)
                           if len(nu) <= nvars])
    return st.dictionaries(nus, qt.map(lambda terms: MPoly(0, terms)),
                           max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n),
                                                     _coefficients(n))))
def test_any_coefficient_map_writes_as_its_expansion(case):
    n, coeffs = case
    expected: dict = {}
    for nu, coeff in coeffs.items():
        padded = nu + (0,) * (n - len(nu))
        for xexps in set(permutations(padded)):
            for key, c in coeff.terms().items():
                expected[xexps + key] = c
    r = expand_symmetric(n, coeffs)
    plain = MPoly(n, expected)
    for w in WRITERS:
        assert getattr(r, w)() == getattr(plain, w)()
    assert r == plain and hash(r) == hash(plain) and len(r) == len(plain)
    assert type(pickle.loads(pickle.dumps(r))) is MPoly


def _qt(*terms):
    return MPoly(0, dict(zip(terms[::2], terms[1::2])))


# Coefficient maps at n = 5..9, beyond the draws above: sizes below n, nu
# with n parts, nu = (), parts of 10 and more, and several sizes in one map.
FIXED_MAPS = [
    (5, {(): _qt((0, 0), 3), (2, 1): _qt((0, 0), -1, (2, 1), 7 ** 30),
         (1, 1, 1, 1, 1): _qt((1, 0), 2, (0, 3), -1),
         (12, 3): _qt((0, 1), 1)}),
    (6, {(3, 2, 1): _qt((0, 0), 1, (1, 1), -2, (0, 2), 5),
         (2, 2, 1, 1): _qt((3, 0), -4), (1, 1, 1, 1, 1, 1): _qt((0, 0), 1)}),
    (7, {(1,) * 7: _qt((0, 0), 1, (2, 2), -1), (4,): _qt((0, 0), -3),
         (2, 2): _qt((1, 2), 1, (0, 0), 2), (1,): _qt((5, 5), 1)}),
    (8, {(2, 1): _qt((0, 0), 1, (1, 0), -1), (1, 1, 1): _qt((0, 1), 4),
         (): _qt((2, 0), -1)}),
    (9, {(): _qt((0, 0), 1), (1,): _qt((0, 1), -1), (9,): _qt((1, 1), 2),
         (2, 2, 2, 1, 1, 1, 1, 1, 1): _qt((0, 0), 1, (0, 1), -1),
         (3, 3, 3): _qt((2, 0), 6)}),
]


@pytest.mark.parametrize("n, coeffs", FIXED_MAPS,
                         ids=[f"n{n}" for n, _ in FIXED_MAPS])
def test_fixed_coefficient_maps_write_as_their_expansion(monkeypatch, n,
                                                         coeffs):
    """Each writer of a symmetric result, laid out from its lex table of
    members, writes what the expansion through rearrangements writes, and
    what the term-by-term reference writes."""
    expected = {}
    for nu, coeff in coeffs.items():
        for xexps in rearrangements(nu + (0,) * (n - len(nu))):
            for key, c in coeff.terms().items():
                expected[xexps + key] = c
    plain = MPoly(n, expected)
    r = expand_symmetric(n, coeffs)
    with monkeypatch.context() as m:
        _forbid_expansion(m)
        written = {w: getattr(r, w)() for w in WRITERS}
    assert written == {w: getattr(plain, w)() for w in WRITERS}
    assert written["to_json"] == json.dumps(plain.to_json_dict())
    assert written["text"] == _reference_render(
        plain, lambda b, i: f"{b}{i}", lambda n, e: f"{n}^{e}", "*")
    assert written["latex"] == _reference_render(
        plain, lambda b, i: f"{b}_{{{i}}}", lambda n, e: f"{n}^{{{e}}}", " ")


def test_writing_a_symmetric_result_never_rearranges(monkeypatch):
    """The writers lay out the members from their lex table: no writer
    lists an orbit's rearrangements, as the expansion does."""
    values = [htilde_compact((2, 1), 4), j_compact((2, 2), 5),
              expand_symmetric(5, FIXED_MAPS[0][1])]

    def refuse(parts):
        raise AssertionError("rearrangements was called")
    monkeypatch.setattr(mpoly, "rearrangements", refuse)
    monkeypatch.setattr(shapes, "rearrangements", refuse)
    for value in values:
        for w in WRITERS:
            assert getattr(value, w)()
        for fmt in ("json", "text", "latex"):
            assert cli._render_poly(value, fmt)


def _denominators(nvars):
    qt = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         st.integers(-5, 5).filter(bool), min_size=1, max_size=4)
    return qt.map(lambda terms: MPoly(nvars, {(0,) * nvars + k: c
                                              for k, c in terms.items()}))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n), _coefficients(n), _denominators(n))))
@example((2, {(): MPoly(0, {(0, 0): 3, (1, 0): -1}), (1,): MPoly(0, {(0, 2): 1})},
          MPoly(2, {(0, 0, 0, 1): -1, (0, 0, 1, 0): 2})))
def test_any_coefficient_map_over_a_denominator_writes_as_its_expansion(case):
    """A RationalForm, the way P is written, over a symmetric numerator
    writes what it writes over the same numerator expanded to x-monomials,
    the bare x^0 terms of nu = () included."""
    n, coeffs, den = case
    expected: dict = {}
    for nu, coeff in coeffs.items():
        padded = nu + (0,) * (n - len(nu))
        for xexps in set(permutations(padded)):
            for key, c in coeff.terms().items():
                expected[xexps + key] = c
    form = RationalForm(expand_symmetric(n, coeffs), den)
    plain = RationalForm(MPoly(n, expected), den)
    for w in WRITERS:
        assert getattr(form, w)() == getattr(plain, w)()
    assert form.to_json() == json.dumps(plain.to_json_dict())


@pytest.mark.parametrize("value", [lambda: htilde_compact((1,) * 6, 7),
                                   lambda: j_compact((3, 3), 5)],
                         ids=["htilde-1^6-n7", "J-3,3-n5"])
def test_writing_a_symmetric_result_allocates_little_beyond_its_output(value):
    """The tracemalloc peak of writing a large symmetric result stays within
    2.5 times the length of what it writes: the round strings and the
    joined whole, without a list of per-term strings next to them."""
    value = value()
    cli._render_poly(value, "json")  # fill what is filled on first use
    tracemalloc.start()
    try:
        out = cli._render_poly(value, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(out), (peak, len(out), peak / len(out))


@pytest.mark.parametrize("fmt", ["text", "latex"])
@pytest.mark.parametrize("value", [lambda: htilde_compact((1,) * 6, 7),
                                   lambda: j_compact((3, 3), 5)],
                         ids=["htilde-1^6-n7", "J-3,3-n5"])
def test_writing_a_symmetric_result_as_text_allocates_little(value, fmt):
    """The text and latex writers, whose runs are shorter strings than
    JSON's, stay within the same 2.5 times the length of what they write."""
    value = value()
    cli._render_poly(value, fmt)  # fill what is filled on first use
    tracemalloc.start()
    try:
        out = cli._render_poly(value, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(out), (peak, len(out), peak / len(out))


@pytest.mark.parametrize("fmt, bound", [("json", 6), ("text", 14)])
def test_writing_a_plain_result_allocates_little_beyond_its_output(fmt,
                                                                   bound):
    """A plain result of many x-monomials with one term each, each its own
    orbit, is written within the bounds the writer met before it laid out
    orbits: 6 times the output for JSON and 14 times for text."""
    value = qs_gamma((3, 3), 6)
    assert type(value) is MPoly and len(value) == len(value.by_x()) == 336
    cli._render_poly(value, fmt)  # fill what is filled on first use
    tracemalloc.start()
    try:
        out = cli._render_poly(value, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * len(out), (peak, len(out), peak / len(out))


def test_expand_symmetric_takes_partitions_only():
    with pytest.raises(ValueError):
        expand_symmetric(3, {(1, 2): MPoly.one(0)})
    with pytest.raises(ValueError):
        expand_symmetric(3, {(1, 0): MPoly.one(0)})


REQUESTS = [("htilde", "2,1,1", 4), ("htilde", "", 0), ("htilde", "3,1", 2),
            ("J", "2,2", 4), ("J", "3", 1), ("P", "3,1", 4), ("P", "1,1", 3)]


def _direct(selector, shape, n):
    """The value the CLI prints, as an MPoly (or form) of expanded terms."""
    lam = tuple(int(p) for p in shape.split(",")) if shape else ()
    if selector == "htilde":
        return MPoly(n, htilde_compact(lam, n).terms())
    num = MPoly(n, j_compact(lam, n).terms())
    return num if selector == "J" else RationalForm(num, pr1(lam, n))


@pytest.mark.parametrize("selector, shape, n", REQUESTS)
def test_compute_writes_symmetric_results_without_expanding(
        monkeypatch, selector, shape, n):
    value = _direct(selector, shape, n)
    expected = {"json": value.to_json(), "text": value.text(),
                "latex": value.latex()}
    _forbid_expansion(monkeypatch)
    for fmt, out in expected.items():
        res = CliRunner().invoke(main, ["compute", selector, "--shape", shape,
                                        "--nvars", str(n), "--format", fmt])
        assert res.exit_code == 0, res.output
        assert res.output == out + "\n"
