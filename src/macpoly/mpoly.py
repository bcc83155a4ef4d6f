"""Exact sparse polynomial arithmetic over the integers in x_1..x_n, q, t.

An :class:`MPoly` stores a finite map from exponent keys to nonzero integer
coefficients.  Keys are fixed-width tuples ``(e_x1, ..., e_xn, e_q, e_t)``;
polynomials with different variable counts never mix implicitly (mixing is
an error, not a coercion).  All coefficients are arbitrary-precision ints,
so every identity in this package is checked exactly.

:class:`RationalForm` pairs an MPoly numerator with an x-free denominator;
it never reduces to lowest terms, and equality is by cross-multiplication.

The compact formulas sum x^content(f) * w_f(q, t) over fillings f.
:func:`accumulate` adds each term in place into one dict, dropping
coefficients that cancel.  The weights w_f, sorted tuples of ``((e_q,
e_t), c)`` pairs, come from two bounded caches filled on first use:
:func:`t_multinomial_product`, keyed by ``(k, sorted multiplicities)``
signatures and divided out of t-factorials by the remainder-checked
:func:`exact_div_xfree`, and :func:`cell_product`, keyed by the sorted
``(a, b)`` of a filling's cell factors ``1 - q^a t^b``.
"""

from __future__ import annotations

import json
from functools import lru_cache


class VariableMismatchError(ValueError):
    """Raised when combining polynomials over different variable counts."""


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


def _grlex(key: tuple[int, ...]) -> tuple:
    return (sum(key), key)


class MPoly:
    """Sparse exact polynomial in x_1..x_nvars, q, t with int coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=None):
        width = nvars + 2
        clean: dict[tuple[int, ...], int] = {}
        for key, coeff in (terms or {}).items():
            key = tuple(key)
            if len(key) != width:
                raise VariableMismatchError(
                    f"exponent key {key} has width {len(key)}, expected {width}")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            if coeff:
                clean[key] = clean.get(key, 0) + coeff
        self.nvars = nvars
        self._terms = {k: c for k, c in clean.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: int) -> "MPoly":
        return cls(nvars, {(0,) * (nvars + 2): c})

    @classmethod
    def one(cls, nvars: int) -> "MPoly":
        return cls.const(nvars, 1)

    @classmethod
    def x(cls, nvars: int, i: int) -> "MPoly":
        """The variable x_i, 1-based."""
        if not 1 <= i <= nvars:
            raise VariableMismatchError(f"x_{i} out of range for nvars={nvars}")
        key = [0] * (nvars + 2)
        key[i - 1] = 1
        return cls(nvars, {tuple(key): 1})

    @classmethod
    def q(cls, nvars: int) -> "MPoly":
        return cls.monomial(nvars, (0,) * nvars, 1, 0)

    @classmethod
    def t(cls, nvars: int) -> "MPoly":
        return cls.monomial(nvars, (0,) * nvars, 0, 1)

    @classmethod
    def monomial(cls, nvars: int, xexps, qexp: int = 0, texp: int = 0,
                 coeff: int = 1) -> "MPoly":
        xexps = tuple(xexps)
        if len(xexps) != nvars:
            raise VariableMismatchError(
                f"{len(xexps)} x-exponents for nvars={nvars}")
        return cls(nvars, {xexps + (qexp, texp): coeff})

    # -- queries -----------------------------------------------------------

    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in ascending graded-lex order on (x-exponents, q, t)."""
        return [(k, self._terms[k]) for k in sorted(self._terms, key=_grlex)]

    def is_zero(self) -> bool:
        return not self._terms

    def is_xfree(self) -> bool:
        n = self.nvars
        return all(not any(k[:n]) for k in self._terms)

    def coefficient(self, xexps, qexp: int = 0, texp: int = 0) -> int:
        return self._terms.get(tuple(xexps) + (qexp, texp), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ---------------------------------------------------

    def _like(self, terms: dict) -> "MPoly":
        """Same variables, terms already free of zeros; skips validation."""
        out = MPoly.__new__(MPoly)
        out.nvars = self.nvars
        out._terms = terms
        return out

    def _check(self, other: "MPoly") -> None:
        if self.nvars != other.nvars:
            raise VariableMismatchError(
                f"nvars mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if isinstance(other, int):
            other = MPoly.const(self.nvars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self._terms)
        for k, c in other._terms.items():
            nc = terms.get(k, 0) + c
            if nc:
                terms[k] = nc
            else:
                del terms[k]
        return self._like(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MPoly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MPoly.zero(self.nvars)
            return self._like({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        terms: dict[tuple[int, ...], int] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                nc = terms.get(k, 0) + c1 * c2
                if nc:
                    terms[k] = nc
                else:
                    del terms[k]
        return self._like(terms)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = MPoly.one(self.nvars)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MPoly.const(self.nvars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"MPoly({self.nvars}, {self.text()!r})"

    # -- rendering ---------------------------------------------------------

    def _render(self, var_fmt, pow_fmt, mul_sep: str) -> str:
        if not self._terms:
            return "0"
        names = [var_fmt("x", i) for i in range(1, self.nvars + 1)] + ["q", "t"]
        chunks = []
        for key, coeff in self.sorted_terms():
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
                piece = f"{mag}{mul_sep if mul_sep != ' ' else ' '}{body}"
            chunks.append(("- " if coeff < 0 else "+ ") + piece)
        first = chunks[0]
        out = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        return out + "".join(" " + c for c in chunks[1:])

    def text(self) -> str:
        """Plain-text rendering, terms in graded-lex order."""
        return self._render(lambda b, i: f"{b}{i}", lambda n, e: f"{n}^{e}", "*")

    def latex(self) -> str:
        return self._render(lambda b, i: f"{b}_{{{i}}}",
                            lambda n, e: f"{n}^{{{e}}}", " ")

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        n = self.nvars
        return {
            "nvars": n,
            "terms": [
                {"x": list(k[:n]), "q": k[n], "t": k[n + 1], "c": str(c)}
                for k, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MPoly":
        n = data["nvars"]
        terms = {}
        for rec in data["terms"]:
            key = tuple(rec["x"]) + (rec["q"], rec["t"])
            terms[key] = int(rec["c"])
        return cls(n, terms)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


class RationalForm:
    """An MPoly numerator over a nonzero x-free MPoly denominator.

    No reduction to lowest terms is attempted; two forms are equal iff they
    are equal after cross-multiplication.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: MPoly, denominator: MPoly):
        if numerator.nvars != denominator.nvars:
            raise VariableMismatchError("numerator/denominator nvars mismatch")
        if denominator.is_zero():
            raise ZeroDivisionError("denominator is zero")
        if not denominator.is_xfree():
            raise ValueError("denominator must be x-free")
        self.numerator = numerator
        self.denominator = denominator

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            other = RationalForm(other, MPoly.one(other.nvars))
        if not isinstance(other, RationalForm):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __hash__(self) -> int:
        raise TypeError("RationalForm is unhashable (equality is cross-multiplied)")

    def __repr__(self) -> str:
        return f"RationalForm({self.numerator.text()!r} / {self.denominator.text()!r})"

    def text(self) -> str:
        return f"({self.numerator.text()}) / ({self.denominator.text()})"

    def latex(self) -> str:
        return f"\\frac{{{self.numerator.latex()}}}{{{self.denominator.latex()}}}"

    def to_json_dict(self) -> dict:
        return {"numerator": self.numerator.to_json_dict(),
                "denominator": self.denominator.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RationalForm":
        return cls(MPoly.from_json_dict(data["numerator"]),
                   MPoly.from_json_dict(data["denominator"]))


def exact_div_xfree(p: MPoly, d: MPoly) -> MPoly:
    """Divide p by an x-free nonzero d, exactly.

    Works per x-monomial by long division in ZZ[q, t]; a nonzero remainder
    (or a coefficient the leading coefficient does not divide) raises
    :class:`ExactDivisionError` rather than returning a wrong answer.
    """
    if p.nvars != d.nvars:
        raise VariableMismatchError("nvars mismatch")
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if not d.is_xfree():
        raise ValueError("divisor must be x-free")
    n = p.nvars
    den = {k[n:]: c for k, c in d.terms().items()}
    dlead = max(den, key=_grlex)
    dlc = den[dlead]

    groups: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for k, c in p.terms().items():
        groups.setdefault(k[:n], {})[k[n:]] = c

    out: dict[tuple[int, ...], int] = {}
    for xk, num in groups.items():
        num = dict(num)
        while num:
            lead = max(num, key=_grlex)
            dq, dt = lead[0] - dlead[0], lead[1] - dlead[1]
            if dq < 0 or dt < 0 or num[lead] % dlc:
                raise ExactDivisionError(
                    f"nonzero remainder dividing x-group {xk}")
            qc = num[lead] // dlc
            out[xk + (dq, dt)] = qc
            for dk, dc in den.items():
                kk = (dk[0] + dq, dk[1] + dt)
                nc = num.get(kk, 0) - qc * dc
                if nc:
                    num[kk] = nc
                else:
                    num.pop(kk, None)
    return MPoly(n, out)


def divided_difference(p: MPoly, i: int) -> MPoly:
    """(p - s_i p) / (x_i - x_{i+1}), computed term-wise; always exact."""
    n = p.nvars
    if not 1 <= i < n:
        raise VariableMismatchError(f"divided difference index {i} out of range")
    terms: dict[tuple[int, ...], int] = {}

    def put(key, c):
        nc = terms.get(key, 0) + c
        if nc:
            terms[key] = nc
        else:
            terms.pop(key, None)

    a_i, b_i = i - 1, i
    for key, coeff in p.terms().items():
        a, b = key[a_i], key[b_i]
        if a == b:
            continue
        # x^a y^b -> sign * sum of x^j y^(a+b-1-j) for j between b and a-1
        lo, hi, sign = (b, a - 1, 1) if a > b else (a, b - 1, -1)
        base = list(key)
        for j in range(lo, hi + 1):
            base[a_i], base[b_i] = j, a + b - 1 - j
            put(tuple(base), sign * coeff)
    return MPoly(n, terms)


def swap_vars(p: MPoly, i: int, j: int) -> MPoly:
    """The image of p under exchanging x_i and x_j."""
    n = p.nvars
    if not (1 <= i <= n and 1 <= j <= n):
        raise VariableMismatchError("swap index out of range")
    terms = {}
    for key, c in p.terms().items():
        k = list(key)
        k[i - 1], k[j - 1] = k[j - 1], k[i - 1]
        terms[tuple(k)] = c
    return MPoly(n, terms)


def _var_index(nvars: int, name: str) -> int:
    if name == "q":
        return nvars
    if name == "t":
        return nvars + 1
    if name.startswith("x"):
        i = int(name[1:])
        if 1 <= i <= nvars:
            return i - 1
    raise VariableMismatchError(f"unknown variable {name!r} for nvars={nvars}")


def specialize(p: MPoly, bindings: dict) -> MPoly:
    """Substitute integers or other variables for variables, exactly.

    ``bindings`` maps variable names ("x3", "q", "t") to ints or to other
    variable names.  The substitution is simultaneous, so swaps like
    ``{"q": "t", "t": "q"}`` behave as expected; unbound variables are
    untouched.
    """
    n = p.nvars
    resolved = {}
    for name, val in bindings.items():
        idx = _var_index(n, name)
        if isinstance(val, str):
            resolved[idx] = ("var", _var_index(n, val))
        else:
            resolved[idx] = ("int", int(val))
    terms: dict[tuple[int, ...], int] = {}
    for key, coeff in p.terms().items():
        k = [0] * (n + 2)
        c = coeff
        for idx, e in enumerate(key):
            if not e:
                continue
            kind, val = resolved.get(idx, ("var", idx))
            if kind == "int":
                c *= val ** e
            else:
                k[val] += e
        if c:
            kk = tuple(k)
            nc = terms.get(kk, 0) + c
            if nc:
                terms[kk] = nc
            else:
                del terms[kk]
    return MPoly(n, terms)


def t_pochhammer(k: int, nvars: int = 0) -> MPoly:
    """(1-t)(1-t^2)...(1-t^k); the empty product for k = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return weight_poly(cell_product(tuple((0, j) for j in range(1, k + 1))),
                       nvars)


def _t_factorial(k: int) -> MPoly:
    # [k]_t! = prod_{j<=k} (1 + t + ... + t^{j-1})
    out = MPoly.one(0)
    for j in range(2, k + 1):
        out = out * MPoly(0, {(0, e): 1 for e in range(j)})
    return out


def t_multinomial(n: int, parts, nvars: int = 0) -> MPoly:
    """The t-analogue of the multinomial coefficient (n; parts).

    Computed as a ratio of t-factorials; the division is remainder-checked.
    """
    parts = list(parts)
    if any(m < 0 for m in parts) or sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    return weight_poly(t_multinomial_product(((n, tuple(sorted(parts))),)),
                       nvars)


# -- the weighted-filling kernel ---------------------------------------------

ONE = (((0, 0), 1),)


def _weight(p: MPoly):
    return tuple(sorted(p.terms().items()))


def weight_poly(w, nvars: int = 0) -> MPoly:
    """A weight as an x-free MPoly over nvars variables."""
    return MPoly(nvars, {(0,) * nvars + k: c for k, c in w})


# The caches are keyed by shapes of fillings, not by fillings, so a bound of
# a few thousand entries never evicts within one sum of this package's sizes.
@lru_cache(maxsize=4096)
def t_multinomial_product(signature):
    """The product of t-multinomials over ``((k, sorted parts), ...)``."""
    out = MPoly.one(0)
    for k, parts in signature:
        num = _t_factorial(k)
        for m in parts:
            num = exact_div_xfree(num, _t_factorial(m))
        out = out * num
    return _weight(out)


@lru_cache(maxsize=4096)
def cell_product(factors):
    """The product of 1 - q^a t^b over a sorted tuple of (a, b) pairs."""
    out = MPoly.one(0)
    for a, b in factors:
        out = out * (MPoly.one(0) - MPoly.monomial(0, (), a, b))
    return _weight(out)


def accumulate(terms: dict, content: tuple[int, ...], weight, qexp: int = 0,
               texp: int = 0) -> None:
    """Add x^content * q^qexp * t^texp * weight into a term dict in place,
    deleting coefficients that cancel; ``MPoly(nvars, terms)`` reads it out.

    Touches only the keys of one small weight, where ``MPoly.__add__``
    would copy the whole growing sum.
    """
    for (a, b), c in weight:
        key = content + (a + qexp, b + texp)
        c += terms.get(key, 0)
        if c:
            terms[key] = c
        else:
            del terms[key]
