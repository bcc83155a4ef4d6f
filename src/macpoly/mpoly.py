"""Exact sparse polynomial arithmetic over the integers in x_1..x_n, q, t.

An :class:`MPoly` stores a finite map from exponent keys to nonzero integer
coefficients.  Keys are fixed-width tuples ``(e_x1, ..., e_xn, e_q, e_t)``;
polynomials with different variable counts never mix implicitly (mixing is
an error, not a coercion).  All coefficients are arbitrary-precision ints,
so every identity in this package is checked exactly.  ``MPoly(nvars,
terms)`` checks each key and drops zeros; :func:`read_out` takes the
package's own term dicts, right by construction, without the checks.

:class:`RationalForm` pairs an MPoly numerator with an x-free denominator;
it never reduces to lowest terms, and equality is by cross-multiplication.

The compact formulas sum x^content(f) * q^maj(f) * t^stat(f) * w(q, t)
over fillings f, all through one kernel, :func:`walk_sum`: it reads the
raw tuples of :func:`macpoly.shapes._walk`, takes each mask's weight once
per sum, and adds each term in place into one dict, dropping coefficients
that cancel.  A weight, ``((e_q, e_t), c)`` pairs, is built from the
routes' per-shape tables and two bounded caches of plain integer
arithmetic: :func:`t_multinomial_product` and the products of cell factors
``1 - q^a t^b`` of :func:`cell_product`; no memo but the sum's own is keyed
by the mask.  The symmetric sums (``htilde``, ``J``) take the x-free
weights of each partition content nu through :func:`sum_by_content`, and
:func:`expand_symmetric` returns a :class:`SymmetricMPoly` that keeps those
m_nu coefficients: it is written from them, and expanded to x-monomials
only when something else reads its terms.

:meth:`MPoly.to_json` writes the bytes of ``json.dumps(to_json_dict())``
directly, and :meth:`MPoly.text`/:meth:`MPoly.latex` likewise, through one
emitter that joins each graded-lex degree in one C-level call, running no
Python code per term.  Every polynomial is written as a sum over orbits of
x-monomials, each orbit carrying one x-free coefficient: a symmetric
result's orbits are the rearrangements of each nu (the m_nu basis), and a
plain MPoly's are its x-monomials, each its own orbit.  A degree is laid
out as the members of every orbit, sorted lex once, each joining the parts
of its (orbit, degree) block, made once and shared by all the orbit's
members.  The result is one string, between an optional head and tail, so
a large value is never copied again to wrap or end it.
"""

from __future__ import annotations

from functools import cache, lru_cache
from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from operator import add

from .shapes import is_partition, partitions_of, rearrangements


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
        return MPoly._trusted(nvars, {(0,) * (nvars + 2): c} if c else {})

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
        # A lex sort, then a stable sort by degree: the _grlex order without
        # a Python call or a tuple-of-tuples comparison per key.
        terms = self._terms
        return [(k, terms[k]) for k in sorted(sorted(terms), key=sum)]

    def by_x(self) -> dict[tuple[int, ...], dict[tuple[int, int], int]]:
        """The terms grouped by x-monomial, ``{x: {(e_q, e_t): c}}``, in
        new dicts that the caller may change."""
        n, groups = self.nvars, {}
        for k, c in self._terms.items():
            groups.setdefault(k[:n], {})[k[n:]] = c
        return groups

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

    @staticmethod
    def _trusted(nvars: int, terms: dict) -> "MPoly":
        """The polynomial of a term dict already free of zeros, with keys of
        width nvars + 2 and no negative exponent; skips validation."""
        out = MPoly.__new__(MPoly)
        out.nvars = nvars
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
        return MPoly._trusted(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._trusted(self.nvars, {k: -c for k, c in self._terms.items()})

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
            return MPoly._trusted(self.nvars, {k: c * other for k, c
                                               in self._terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        terms: dict[tuple[int, ...], int] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = tuple(map(add, k1, k2))
                nc = terms.get(k, 0) + c1 * c2
                if nc:
                    terms[k] = nc
                else:
                    del terms[k]
        return MPoly._trusted(self.nvars, terms)

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

    def _orbits(self):
        """``(coeffs, members)``: each orbit's x-free ``{(e_q, e_t): c}``, and
        the function giving the x-monomials that an orbit's coefficient is
        written at.  A plain MPoly's orbits are its x-monomials, each its
        own only member."""
        return self.by_x(), lambda x: (x,)

    def _layout(self):
        """``(xs, items, blocks, rounds)`` for :meth:`_write`.  A block
        ``(o, lo, hi)`` holds the ``(e_q, e_t, c)`` of ``items[lo:hi]``, of
        one degree, at every member of orbit o; a round gives each
        ``xs[j]`` its block at one degree, or -1."""
        # Each orbit's terms fall by degree |o| + e_q + e_t into blocks that
        # its members share; the members of all orbits are sorted lex once,
        # and each degree is one round, so no full key is sorted.
        coeffs, members = self._orbits()
        items, blocks, rounds = [], [], {}  # degree -> {orbit: its block}
        for k, (o, qt) in enumerate(coeffs.items()):
            by_degree: dict[int, list] = {}
            size = sum(o)
            for (e_q, e_t), c in sorted(qt.items()):
                by_degree.setdefault(size + e_q + e_t, []).append(
                    (e_q, e_t, c))
            for degree, block in by_degree.items():
                rounds.setdefault(degree, {})[k] = len(blocks)
                blocks.append((o, len(items), len(items) + len(block)))
                items += block
        orbit_at = {x: k for k, o in enumerate(coeffs) for x in members(o)}
        xs = sorted(orbit_at)
        orbit_of = list(map(orbit_at.__getitem__, xs))
        return (xs, items, blocks, (map(rounds[d].get, orbit_of, repeat(-1))
                                    for d in sorted(rounds)))

    def _write(self, xfrag, make, lead, tail: str):
        """The writers' one emitter, or None for zero: each block is made
        once into parts that each member's ``xfrag`` joins, and each round
        is one C-level join.  ``lead`` rewrites the start."""
        xs, items, blocks, rounds = self._layout()
        if not items:
            return None
        xfs = list(map(xfrag, xs))
        parts = [*make(items, blocks), None]
        out = ["".join(map(str.join, compress(xfs, at), filter(None, at)))
               for at in (list(map(parts.__getitem__, r)) for r in rounds)]
        del xs, xfs, parts  # only the rounds are held while they are joined
        out[0] = lead(out[0])
        out[-1] += tail
        return "".join(out)

    def _render(self, head, tail, var_fmt, pow_fmt, mul_sep: str) -> str:
        n = self.nvars
        names = [var_fmt("x", i) for i in range(1, n + 1)] + ["q", "t"]

        @cache
        def power(name, e):
            return "" if not e else name if e == 1 else pow_fmt(name, e)

        @cache
        def factors(exps, at=0):  # names[at:] ** exps, memoised for (q, t)
            return mul_sep.join(filter(None, map(power, names[at:], exps)))

        @cache
        def term(item):  # a term is head + x-monomial + tail, or bare at x^0
            e_q, e_t, c = item
            qts, mag = factors((e_q, e_t), n), abs(c)
            sign = " - " if c < 0 else " + "
            return (sign if mag == 1 else f"{sign}{mag}{mul_sep}",
                    f"{mul_sep}{qts}" if qts else "",
                    sign + (f"{mag}{mul_sep}{qts}" if qts and mag != 1
                            else qts or str(mag)))

        def make(items, blocks):  # a block: head, glues, tail; bare at x^0
            heads, tails, bares = zip(*map(term, items))
            glues = list(map(add, tails, heads[1:]))
            return [[heads[lo], *glues[lo:hi - 1], tails[hi - 1]] if any(x)
                    else bares[lo:hi] for x, lo, hi in blocks]

        return self._write(factors.__wrapped__, make, lambda first: head + (
            "" if first[1] == "+" else "-") + first[3:], tail) or f"{head}0{tail}"

    def text(self, head="", tail="") -> str:
        """Plain-text rendering, terms in graded-lex order."""
        return self._render(head, tail, lambda b, i: f"{b}{i}",
                            lambda n, e: f"{n}^{e}", "*")

    def latex(self, head="", tail="") -> str:
        return self._render(head, tail, lambda b, i: f"{b}_{{{i}}}",
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

    def to_json(self, head="", tail="") -> str:
        """``json.dumps(to_json_dict())``, byte for byte, between head and tail."""
        head, tail = head + '{"nvars": %d, "terms": [' % self.nvars, "]}" + tail

        def make(items, blocks):  # a term is ", " + x-fragment + its rest
            rest = {i: '%d, "t": %d, "c": "%d"}' % i for i in set(items)}
            rests = list(map(rest.__getitem__, items))
            return [["", *rests[lo:hi]] for _, lo, hi in blocks]

        return self._write(lambda x: ', {"x": %s, "q": ' % (list(x),), make,
                           lambda first: head + first[2:], tail) or head + tail


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

    def text(self, tail="") -> str:
        return self.numerator.text("(", f") / ({self.denominator.text()}){tail}")

    def latex(self, tail="") -> str:
        return self.numerator.latex(
            "\\frac{", f"}}{{{self.denominator.latex()}}}{tail}")

    def to_json_dict(self) -> dict:
        return {"numerator": self.numerator.to_json_dict(),
                "denominator": self.denominator.to_json_dict()}

    def to_json(self, tail="") -> str:
        """``json.dumps(self.to_json_dict())``, byte for byte, then tail."""
        return self.numerator.to_json('{"numerator": ', ', "denominator": %s}%s'
                                      % (self.denominator.to_json(), tail))

    @classmethod
    def from_json_dict(cls, data: dict) -> "RationalForm":
        return cls(MPoly.from_json_dict(data["numerator"]),
                   MPoly.from_json_dict(data["denominator"]))


def exact_div_xfree(p: MPoly, d: MPoly) -> MPoly:
    """Divide p by an x-free nonzero d, exactly.

    Works per x-monomial by long division in ZZ[q, t], taking each leading
    term off a heap of the remainder's keys; a nonzero remainder (or a
    coefficient the leading coefficient does not divide) raises
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

    out: dict[tuple[int, ...], int] = {}
    for xk, num in p.by_x().items():
        # The keys met, grlex-largest on top; a key that cancelled after it
        # was pushed is skipped when it comes up.
        heap = [(-a - b, -a, (a, b)) for a, b in num]
        heapify(heap)
        while heap:
            lead = heappop(heap)[2]
            c = num.get(lead)
            if c is None:
                continue
            dq, dt = lead[0] - dlead[0], lead[1] - dlead[1]
            if dq < 0 or dt < 0 or c % dlc:
                raise ExactDivisionError(
                    f"nonzero remainder dividing x-group {xk}")
            qc = c // dlc
            out[xk + (dq, dt)] = qc
            for (a, b), dc in den.items():
                kk = (a + dq, b + dt)
                nc = num.get(kk, 0) - qc * dc
                if not nc:
                    num.pop(kk, None)
                    continue
                if kk not in num:
                    heappush(heap, (-kk[0] - kk[1], -kk[0], kk))
                num[kk] = nc
    return read_out(n, out)


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
    return read_out(n, terms)


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
    value: dict[int, int] = {}  # index -> the int bound to it
    dest = list(range(n + 2))  # index -> the index its exponent moves to
    for name, val in bindings.items():
        idx = _var_index(n, name)
        if isinstance(val, str):
            dest[idx] = _var_index(n, val)
            value.pop(idx, None)
        else:
            value[idx] = int(val)
    zeros = [idx for idx, v in value.items() if not v]
    # the terms that no 0 binding kills, before any key is built
    alive = {k: c for k, c in p.terms().items()
             if not any(map(k.__getitem__, zeros))}
    if not any(value.values()) and dest == list(range(n + 2)):
        return read_out(n, alive)  # only 0s bound: the other keys stand
    scales = [(idx, v) for idx, v in value.items() if v]
    moves = [(idx, d) for idx, d in enumerate(dest) if idx not in value]
    terms: dict[tuple[int, ...], int] = {}
    for key, c in alive.items():
        k = [0] * (n + 2)
        for idx, v in scales:
            c *= v ** key[idx]
        for idx, d in moves:
            k[d] += key[idx]
        kk = tuple(k)
        c += terms.get(kk, 0)
        if c:
            terms[kk] = c
        else:
            del terms[kk]
    return read_out(n, terms)


def t_pochhammer(k: int, nvars: int = 0) -> MPoly:
    """(1-t)(1-t^2)...(1-t^k); the empty product for k = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return weight_poly(cell_product(tuple((0, j) for j in range(1, k + 1))),
                       nvars)


def t_multinomial(n: int, parts, nvars: int = 0) -> MPoly:
    """The t-analogue of the multinomial coefficient (n; parts).

    Built from Gaussian binomials by the t-Pascal recurrence.
    """
    parts = list(parts)
    if any(m < 0 for m in parts) or sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    return weight_poly(t_multinomial_product(((n, tuple(sorted(parts))),)),
                       nvars)


# -- the weighted-filling kernel ---------------------------------------------

ONE = (((0, 0), 1),)


def weight_poly(w, nvars: int = 0) -> MPoly:
    """A weight, ``((e_q, e_t), c)`` pairs with distinct keys and nonzero
    coefficients, as an x-free MPoly over nvars variables."""
    return read_out(nvars, {(0,) * nvars + k: c for k, c in w})


def _add_shifted(a: list, b: list, s: int) -> list:
    """a + t^s * b on coefficient lists, lowest degree first."""
    out = a + [0] * (len(b) + s - len(a))
    for e, c in enumerate(b, s):
        out[e] += c
    return out


def _t_binomial(k: int, m: int) -> list:
    """The Gaussian binomial [k choose m]_t as a coefficient list, from the
    t-Pascal recurrence [j, i] = [j-1, i-1] + t^i [j-1, i]."""
    rows = [[1]] + [[] for _ in range(m)]  # rows[i] = [j choose i], j = 0
    for j in range(1, k + 1):
        for i in range(min(j, m), 0, -1):
            rows[i] = _add_shifted(rows[i - 1], rows[i], i)
    return rows[m]


# The caches are keyed by shapes of fillings, not by fillings, so a bound of
# a few thousand entries never evicts within one sum of this package's sizes.
@lru_cache(maxsize=4096)
def t_multinomial_product(signature):
    """The product of t-multinomials over ``((k, sorted parts), ...)``."""
    out = [1]
    for k, parts in signature:
        for m in parts:  # [k; parts] = prod of [m_1 + ... + m_i choose m_i]
            binom = _t_binomial(k, m)
            k -= m
            conv = [0] * (len(out) + len(binom) - 1)
            for e, c in enumerate(out):
                for f, d in enumerate(binom, e):
                    conv[f] += c * d
            out = conv
    return tuple(((0, e), c) for e, c in enumerate(out) if c)


@lru_cache(maxsize=4096)
def cell_product(factors):
    """The product of 1 - q^a t^b over a sorted tuple of (a, b) pairs."""
    out = {(0, 0): 1}
    for a, b in factors:
        prod = dict(out)
        for (e_q, e_t), c in out.items():
            key = (e_q + a, e_t + b)
            c = prod.get(key, 0) - c
            if c:
                prod[key] = c
            else:
                del prod[key]
        out = prod
    return tuple(sorted(out.items()))


def walk_sum(walk, weight, nvars: int | None = None, size: int = 0,
             inv_total: int | None = None, terms: dict | None = None) -> dict:
    """Add x^content q^maj t^stat weight(mask) per raw ``(entries, maj,
    coinv, mask)`` tuple of a walk into ``terms`` (new when None) in place,
    touching only the weight's keys and deleting coefficients that cancel,
    and return it: weight once per mask met, the content counting 1..nvars
    among the first ``size`` entries (none for nvars None, a one-content
    walk), and stat coinv, or inv = inv_total - coinv."""
    if terms is None:
        terms = {}
    weights: dict[int, tuple] = {}  # mask -> weight(mask), for this sum
    content = ()
    for entries, m, s, mask in walk:
        w = weights.get(mask)
        if w is None:
            w = weights[mask] = weight(mask)
        if nvars is not None:
            exps = [0] * nvars
            for e in entries[:size]:
                exps[e - 1] += 1
            content = tuple(exps)
        if inv_total is not None:
            s = inv_total - s
        for (a, b), c in w:
            key = content + (a + m, b + s)
            c += terms.get(key, 0)
            if c:
                terms[key] = c
            else:
                del terms[key]
    return terms


def sum_by_content(n: int, size: int, content_sum) -> MPoly:
    """A sum over the fillings of ``size`` cells with entries 1..n.  It is
    symmetric in x, so it is taken over the fillings of each partition
    content nu only, ``content_sum(nu)`` giving their x-free term dict, and
    expanded to the rearrangements of nu last."""
    return expand_symmetric(n, {nu: read_out(0, content_sum(nu))
                                for nu in partitions_of(size) if len(nu) <= n})


def read_out(nvars: int, terms: dict) -> MPoly:
    """The MPoly of a term dict that :func:`walk_sum` or another kernel
    loop built, zero-free and with keys of width nvars + 2 by construction,
    read out without the checks of ``MPoly(nvars, terms)``."""
    return MPoly._trusted(nvars, terms)


class SymmetricMPoly(MPoly):
    """The symmetric polynomial sum of coeffs[nu] * m_nu(x_1..x_nvars), held
    as its m_nu coefficients; made by :func:`expand_symmetric`.

    The writers read the coefficients directly.  Everything else reads
    ``_terms``, which is expanded to x-monomials on first use; results of
    arithmetic are plain :class:`MPoly`.
    """

    __slots__ = ("_coeffs",)  # partition nu -> nonzero {(e_q, e_t): c}

    def __getattr__(self, name):
        # Reached only while the _terms slot is unset.
        if name != "_terms":
            raise AttributeError(name)
        self._terms = self._expand()
        return self._terms

    def _orbits(self):
        # The orbit of nu is its distinct rearrangements padded with zeros.
        pad = (0,) * self.nvars
        return self._coeffs, lambda nu: rearrangements(nu + pad[len(nu):])

    def _expand(self) -> dict:
        """Each coefficient written at every member of its orbit."""
        coeffs, members = self._orbits()
        terms: dict[tuple[int, ...], int] = {}
        for nu, qt in coeffs.items():
            qt = qt.items()
            for xexps in members(nu):
                for k, c in qt:
                    terms[xexps + k] = c
        return terms

    def __reduce__(self):
        return MPoly, (self.nvars, self._terms)


def expand_symmetric(nvars: int, coeffs) -> MPoly:
    """The symmetric polynomial sum of coeffs[nu] * m_nu(x_1..x_nvars).

    ``coeffs`` maps partitions nu with at most nvars parts to x-free
    polynomials.  The result keeps them as they are and writes each at
    every distinct rearrangement of nu padded with zeros to nvars
    exponents only when its terms are read (see :class:`SymmetricMPoly`).
    """
    kept = {}
    for nu, coeff in coeffs.items():
        nu = tuple(nu)
        if len(nu) > nvars or coeff.nvars:
            raise VariableMismatchError(
                f"cannot expand {nu} with a coefficient in {coeff.nvars} "
                f"x-variables over {nvars} variables")
        if not is_partition(nu):
            raise ValueError(f"{nu} is not a partition")
        if coeff:
            kept[nu] = coeff.terms()
    out = SymmetricMPoly.__new__(SymmetricMPoly)
    out.nvars = nvars
    out._coeffs = kept
    return out
