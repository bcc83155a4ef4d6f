import json
import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macpoly.mpoly import (ExactDivisionError, MPoly, RationalForm,
                           VariableMismatchError, cell_product, diff_witness,
                           divided_difference, exact_div_xfree,
                           expand_symmetric, specialize, swap_vars,
                           t_multinomial, t_pochhammer, weight_poly)

N = 2  # default variable count for random polys


def mono(xe, qe=0, te=0, c=1, nvars=N):
    return MPoly.monomial(nvars, xe, qe, te, c)


@st.composite
def polys(draw, nvars=N, xfree=False, max_terms=4):
    nterms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(nterms):
        xe = tuple(0 if xfree else draw(st.integers(0, 2)) for _ in range(nvars))
        key = xe + (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        terms[key] = draw(st.integers(-4, 4))
    return MPoly(nvars, terms)


def test_construction_drops_zeros():
    p = MPoly(1, {(1, 0, 0): 0, (0, 1, 0): 2})
    assert len(p) == 1
    assert p.coefficient((0,), 1, 0) == 2


def test_width_mismatch():
    with pytest.raises(VariableMismatchError):
        MPoly(2, {(1, 0, 0): 1})
    with pytest.raises(VariableMismatchError):
        MPoly.x(2, 1) + MPoly.x(3, 1)
    with pytest.raises(VariableMismatchError,
                       match=re.escape("1 x-exponents for nvars=2")):
        MPoly.monomial(2, (1,))
    with pytest.raises(ValueError,
                       match=re.escape("negative exponent in (1, -1, 0)")):
        MPoly(1, {(1, 0, 0): 1, (1, -1, 0): 2})


NOT_AN_INT = "object cannot be interpreted as an integer"


def test_constructors_and_specialize_take_integers_only():
    # a float or a Fraction once passed: 2.5 printed as 2.5*x1 but was
    # written "c": "2", a float exponent broke to_json, and specialize
    # evaluated at int(value)
    for make in (lambda: MPoly(1, {(1, 0, 0): 2.5}),
                 lambda: MPoly(1, {(1.0, 0, 0): 1}),
                 lambda: MPoly(1, {(1, 0, 0): Fraction(2)}),
                 lambda: MPoly.const(1, 2.5),
                 lambda: specialize(MPoly.q(1), {"q": 2.5}),
                 lambda: specialize(MPoly.q(1), {"q": Fraction(1, 2)})):
        with pytest.raises(TypeError, match=NOT_AN_INT):
            make()
    # ints and whatever stands for one still pass, read as ints
    p = MPoly(1, {(True, 0, 0): True, (0, 1, 0): 0})
    assert p.terms() == {(1, 0, 0): 1} and type(p.coefficient((1,))) is int
    assert p.to_json() == json.dumps(p.to_json_dict())
    assert MPoly.const(1, True) == MPoly.one(1)
    assert specialize(MPoly.q(1) * 3, {"q": True}) == MPoly.const(1, 3)


def test_additive_inverse():
    x1 = MPoly.x(2, 1)
    assert (x1 + (-x1)).is_zero()


def test_q_plus_t_two_terms():
    p = MPoly.q(0) + MPoly.t(0)
    assert len(p) == 2


def test_difference_of_squares():
    one, t = MPoly.one(0), MPoly.t(0)
    assert (one - t) * (one + t) == one - t ** 2
    for e in (-1, 2.0):
        with pytest.raises(ValueError,
                           match="exponent must be a nonnegative int"):
            t ** e


def test_pochhammer_small():
    assert t_pochhammer(0) == MPoly.one(0)
    one, t = MPoly.one(0), MPoly.t(0)
    assert t_pochhammer(2) == one - t - t ** 2 + t ** 3
    assert t_pochhammer(3) == (one - t) * (one - t ** 2) * (one - t ** 3)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        t_pochhammer(-1)


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys(), polys(xfree=True))
def test_exact_div_roundtrip(p, d):
    if d.is_zero():
        return
    assert exact_div_xfree(p * d, d) == p


def test_exact_div_examples():
    one, t = MPoly.one(1), MPoly.t(1)
    x1 = MPoly.x(1, 1)
    assert exact_div_xfree(x1 * (one - t ** 2), one - t) == x1 * (one + t)
    with pytest.raises(ExactDivisionError):
        exact_div_xfree(MPoly.q(1), one - t)


def test_exact_div_rejects_x_divisor():
    with pytest.raises(ValueError):
        exact_div_xfree(MPoly.x(1, 1), MPoly.x(1, 1))
    with pytest.raises(VariableMismatchError, match="nvars mismatch"):
        exact_div_xfree(MPoly.x(1, 1), MPoly.one(2))
    with pytest.raises(ZeroDivisionError, match="division by zero polynomial"):
        exact_div_xfree(MPoly.x(1, 1), MPoly.zero(1))


def test_divided_difference_examples():
    x1, x2 = MPoly.x(2, 1), MPoly.x(2, 2)
    assert divided_difference(x1, 1) == MPoly.one(2)
    assert divided_difference(x1 * x2, 1).is_zero()
    assert divided_difference(x1 ** 2, 1) == x1 + x2
    for i in (0, 2):
        with pytest.raises(VariableMismatchError,
                           match=f"divided difference index {i} out of range"):
            divided_difference(x1, i)
    for i, j in ((0, 1), (1, 3)):
        with pytest.raises(VariableMismatchError,
                           match="swap index out of range"):
            swap_vars(x1, i, j)


@given(polys())
def test_divided_difference_reconstructs(p):
    x1, x2 = MPoly.x(2, 1), MPoly.x(2, 2)
    d = divided_difference(p, 1)
    assert (x1 - x2) * d == p - swap_vars(p, 1, 2)


def test_specialize():
    p = MPoly.q(2) * MPoly.x(2, 1) + MPoly.t(2) * MPoly.x(2, 2)
    assert specialize(p, {"q": 0, "t": 0}).is_zero()
    assert specialize(p, {"q": 1, "t": 1}) == MPoly.x(2, 1) + MPoly.x(2, 2)
    # simultaneous swap
    qt = MPoly.q(0) * MPoly.t(0) ** 2
    assert specialize(qt, {"q": "t", "t": "q"}) == MPoly.q(0) ** 2 * MPoly.t(0)
    # variable-to-variable collapse
    assert specialize(MPoly.x(2, 1), {"x1": "x2"}) == MPoly.x(2, 2)
    # the names are exactly q, t and x1..xn, as a binding or as its value
    for name in ("x", "xx", "x1.0", "x01", "x0", "x3", "x-1", " x1", "x1 ",
                 "x\u00b9", "y1", "Q", ""):
        for bindings in ({name: 0}, {"q": name}):
            with pytest.raises(VariableMismatchError,
                               match=re.escape(f"unknown variable {name!r}")):
                specialize(p, bindings)


def test_t_multinomial_examples():
    assert t_multinomial(3, [3]) == MPoly.one(0)
    t = MPoly.t(0)
    expected = 1 + t + 2 * t ** 2 + t ** 3 + t ** 4
    assert t_multinomial(4, [2, 2]) == expected
    with pytest.raises(ValueError):
        t_multinomial(4, [2, 1])


def _inversions(word):
    return sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
               if word[i] > word[j])


@pytest.mark.parametrize("parts", [
    (1,), (1, 1), (2,), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1),
    (1, 1, 1, 1), (3, 2), (2, 2, 1), (4, 1), (2, 2, 2), (3, 2, 1),
])
def test_t_multinomial_counts_inversions(parts):
    # sum of t^inv over distinct rearrangements of the sorted word
    n = sum(parts)
    word = tuple(v for v, m in enumerate(parts, start=1) for _ in range(m))
    terms = {}
    for w in set(permutations(word)):
        key = (0, _inversions(w))
        terms[key] = terms.get(key, 0) + 1
    assert t_multinomial(n, parts) == MPoly(0, terms)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6))
def test_cell_product_equals_the_mpoly_product(factors):
    one = MPoly.one(0)
    expected = one
    for a, b in factors:
        expected = expected * (one - MPoly.monomial(0, (), a, b))
    weight = cell_product(tuple(sorted(factors)))
    assert weight == tuple(sorted(expected.terms().items()))
    assert weight_poly(weight) == expected


def test_t_multinomial_at_one():
    from math import factorial
    for n, parts in [(4, (2, 2)), (5, (3, 1, 1)), (6, (2, 2, 2))]:
        val = specialize(t_multinomial(n, parts), {"t": 1})
        expect = factorial(n)
        for m in parts:
            expect //= factorial(m)
        assert val == MPoly.const(0, expect)


def test_sorted_terms_graded_lex():
    p = MPoly.x(2, 2) + MPoly.x(2, 1) ** 2 + MPoly.q(2) + MPoly.one(2)
    keys = [k for k, _ in p.sorted_terms()]
    assert keys == sorted(keys, key=lambda k: (sum(k), k))
    assert keys[0] == (0, 0, 0, 0)


def test_json_roundtrip():
    p = MPoly(2, {(1, 0, 2, 0): 3, (0, 1, 0, 1): -7 ** 30})
    blob = json.dumps(p.to_json_dict())
    assert MPoly.from_json_dict(json.loads(blob)) == p
    data = p.to_json_dict()
    assert all(isinstance(rec["c"], str) for rec in data["terms"])


def test_text_and_latex():
    p = MPoly.x(2, 1) * MPoly.t(2) - 2 * MPoly.q(2)
    assert p.text() == "-2*q + x1*t"
    assert p.latex() == "-2 q + x_{1} t"
    assert MPoly.zero(1).text() == "0"


def test_rational_form():
    one, t = MPoly.one(0), MPoly.t(0)
    a = RationalForm(one - t ** 2, one - t)
    b = RationalForm(one + t, one)
    assert a == b
    assert a == one + t
    with pytest.raises(ValueError):
        RationalForm(one, MPoly.x(1, 1))
    with pytest.raises(ZeroDivisionError):
        RationalForm(one, MPoly.zero(0))
    with pytest.raises(ValueError, match="denominator must be x-free"):
        RationalForm(MPoly.one(1), MPoly.x(1, 1))
    with pytest.raises(TypeError, match=re.escape(
            "RationalForm is unhashable (equality is cross-multiplied)")):
        hash(a)


@settings(max_examples=30)
@given(polys())
def test_pow_matches_repeated_mul(p):
    assert p ** 3 == p * p * p


# -- the direct writers against json.dumps and the term-by-term renderer -----

def _reference_render(p, var_fmt, pow_fmt, mul_sep):
    """The renderer that formatted every factor of every term afresh."""
    if p.is_zero():
        return "0"
    names = [var_fmt("x", i) for i in range(1, p.nvars + 1)] + ["q", "t"]
    chunks = []
    for key, coeff in sorted(p.terms().items(),
                             key=lambda kc: (sum(kc[0]), kc[0])):
        factors = []
        for name, e in zip(names, key):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(pow_fmt(name, e))
        body = mul_sep.join(factors)
        mag = abs(coeff)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}{mul_sep}{body}"
        chunks.append(("- " if coeff < 0 else "+ ") + piece)
    first = chunks[0]
    out = ("-" + first[2:]) if first.startswith("- ") else first[2:]
    return out + "".join(" " + c for c in chunks[1:])


_COEFFS = st.one_of(st.integers(-12, 12),
                    st.sampled_from([7 ** 30, -7 ** 30, 1, -1]))


@st.composite
def wide_polys(draw):
    nvars = draw(st.integers(0, 4))
    keys = st.tuples(*[st.integers(0, 3)] * (nvars + 2))
    terms = draw(st.dictionaries(keys, _COEFFS, max_size=12))
    return MPoly(nvars, terms)


@settings(max_examples=200, deadline=None)
@given(wide_polys())
def test_writers_match_json_dumps_and_the_reference_renderer(p):
    blob = p.to_json()
    assert blob == json.dumps(p.to_json_dict())
    assert MPoly.from_json_dict(json.loads(blob)) == p
    assert p.text() == _reference_render(
        p, lambda b, i: f"{b}{i}", lambda n, e: f"{n}^{e}", "*")
    assert p.latex() == _reference_render(
        p, lambda b, i: f"{b}_{{{i}}}", lambda n, e: f"{n}^{{{e}}}", " ")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rational_form_writer_matches_json_dumps(data):
    num = data.draw(wide_polys())
    qt = data.draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                   _COEFFS.filter(bool), min_size=1, max_size=6))
    den = MPoly(num.nvars, {(0,) * num.nvars + k: c for k, c in qt.items()})
    form = RationalForm(num, den)
    assert form.to_json() == json.dumps(form.to_json_dict())
    assert RationalForm.from_json_dict(json.loads(form.to_json())) == form


def test_diff_witness_names_the_first_grlex_key_with_both_coefficients():
    a = MPoly(2, {(1, 0, 0, 0): 2, (0, 0, 1, 0): 1, (0, 1, 0, 1): 5})
    b = MPoly(2, {(1, 0, 0, 0): 2, (0, 0, 1, 0): 3, (0, 0, 0, 3): 4})
    assert diff_witness(a, b) == ((0, 0, 1, 0), 1, 3)  # below (0, 1, 0, 1)
    assert diff_witness(b, a) == ((0, 0, 1, 0), 3, 1)
    # a key on one side only has coefficient 0 on the other, and at one
    # degree the keys come in lex order: t before q before x_1
    assert diff_witness(a, a + MPoly.t(2)) == ((0, 0, 0, 1), 0, 1)
    assert diff_witness(a, MPoly(2, a.terms())) is None
    sym = expand_symmetric(2, {(1,): MPoly(0, {(0, 0): 1})})
    assert diff_witness(sym, MPoly.x(2, 1) + MPoly.x(2, 2)) is None
    assert diff_witness(sym, MPoly.x(2, 2)) == ((1, 0, 0, 0), 1, 0)
    with pytest.raises(VariableMismatchError):
        diff_witness(a, MPoly.one(3))


def test_writers_on_the_zero_poly_and_no_variables():
    for n in range(3):
        assert MPoly.zero(n).to_json() == json.dumps(MPoly.zero(n).to_json_dict())
        assert MPoly.zero(n).text() == MPoly.zero(n).latex() == "0"
    p = MPoly(0, {(0, 0): -7 ** 30, (2, 1): 1})
    assert p.to_json() == ('{"nvars": 0, "terms": [{"x": [], "q": 0, "t": 0, '
                           f'"c": "{-7 ** 30}"}}, {{"x": [], "q": 2, "t": 1, '
                           '"c": "1"}]}')
    assert p.text() == f"-{7 ** 30} + q^2*t"


def _long_division(p, d):
    """exact_div_xfree as it was written before it kept a heap of leads:
    each quotient term divides the grlex-largest key left, found by max."""
    n = p.nvars
    den = {k[n:]: c for k, c in d.terms().items()}
    dlead = max(den, key=lambda k: (sum(k), k))
    groups = {}
    for k, c in p.terms().items():
        groups.setdefault(k[:n], {})[k[n:]] = c
    out = {}
    for xk, num in groups.items():
        while num:
            lead = max(num, key=lambda k: (sum(k), k))
            dq, dt = lead[0] - dlead[0], lead[1] - dlead[1]
            if dq < 0 or dt < 0 or num[lead] % den[dlead]:
                raise ExactDivisionError(
                    f"nonzero remainder dividing x-group {xk}")
            qc = num[lead] // den[dlead]
            out[xk + (dq, dt)] = qc
            for dk, dc in den.items():
                kk = (dk[0] + dq, dk[1] + dt)
                num[kk] = num.get(kk, 0) - qc * dc
                if not num[kk]:
                    del num[kk]
    return MPoly(n, out)


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except ExactDivisionError as exc:
        return "raised", str(exc)


@settings(max_examples=80)
@given(polys(max_terms=6), polys(xfree=True), st.integers(0, 2),
       st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3))
def test_exact_div_matches_the_long_division(p, d, e1, e2, e_q, c):
    if d.is_zero():
        return
    assert exact_div_xfree(p * d, d) == _long_division(p * d, d) == p
    # One monomial off a multiple: divisible only by a one-term divisor,
    # and otherwise the error names that monomial's x-group.
    off = p * d + mono((e1, e2), e_q, 3, c)
    got = _outcome(exact_div_xfree, off, d)
    assert got == _outcome(_long_division, off, d)
    if len(d) > 1 and c:
        assert got == ("raised", f"nonzero remainder dividing x-group "
                                 f"{(e1, e2)}")


def _specialize_reference(p, bindings):
    """specialize by generic MPoly arithmetic, one term at a time."""
    n = p.nvars
    names = [f"x{i}" for i in range(1, n + 1)] + ["q", "t"]
    var = dict(zip(names, [MPoly.x(n, i) for i in range(1, n + 1)]
                   + [MPoly.q(n), MPoly.t(n)]))
    out = MPoly.zero(n)
    for key, c in p.terms().items():
        term = MPoly.const(n, c)
        for name, e in zip(names, key):
            val = bindings.get(name, name)
            term = term * (var[val] if isinstance(val, str)
                           else MPoly.const(n, val)) ** e
        out = out + term
    return out


@settings(max_examples=60)
@given(polys(nvars=3, max_terms=6))
def test_specialize_matches_the_term_by_term_reference(p):
    for bindings in ({"q": 0}, {"q": 0, "t": 0}, {"x2": 0}, {"t": 2},
                     {"x1": -1, "q": 1}, {"q": "t", "t": "q"},
                     {"x1": "x3", "x3": "x1", "q": 0}, {"x1": "x2"},
                     {"q": "t"}, {"t": 0, "q": "t"}, {"x3": 3, "t": "x3"}):
        assert specialize(p, bindings) == _specialize_reference(p, bindings), \
            bindings

