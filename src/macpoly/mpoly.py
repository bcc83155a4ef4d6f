"""Exact sparse polynomial arithmetic over the integers in x_1..x_n, q, t.

An :class:`MPoly` stores a finite map from exponent keys to nonzero integer
coefficients.  Keys are fixed-width tuples ``(e_x1, ..., e_xn, e_q, e_t)``;
polynomials with different variable counts never mix implicitly (mixing is
an error, not a coercion).  All coefficients are arbitrary-precision ints,
so every identity in this package is checked exactly.  ``MPoly(nvars,
terms)`` reads each exponent and coefficient as an int through
``operator.index`` (a float or a Fraction raises TypeError), checks each
key and drops zeros; the one unchecked constructor, :func:`read_out`,
takes the package's own term dicts, right by construction.

:class:`RationalForm` pairs an MPoly numerator with an x-free denominator;
it never reduces to lowest terms, and equality is by cross-multiplication.

The compact formulas sum x^content(f) * q^maj(f) * t^stat(f) * w(q, t) over
fillings f, all through one kernel, :func:`walk_sum`: it tallies the raw
tuples of :func:`macpoly.shapes._walk` by (content, maj, stat, mask) and
adds each key's weight, taken once per mask, times its count into one dict,
dropping coefficients that cancel.  A weight, ``((e_q, e_t), c)`` pairs, is
built from the routes' per-shape tables and two bounded caches of plain
integer arithmetic: :func:`t_multinomial_product` and the products of cell
factors ``1 - q^a t^b`` of :func:`cell_product`; no memo but the sum's own
is keyed by the mask.  The symmetric sums (``htilde``, ``J``) take the
x-free weights of each partition content nu through :func:`sum_by_content`,
and :func:`expand_symmetric` returns a :class:`SymmetricMPoly` that keeps
those m_nu coefficients: it is written from them, and expanded to
x-monomials only when something else reads its terms.

:meth:`MPoly.to_json` writes the bytes of ``json.dumps(to_json_dict())``
directly, and :meth:`MPoly.text`/:meth:`MPoly.latex` likewise, each a
format spec over one emitter, :meth:`MPoly._write`, that joins each
graded-lex degree in one C-level call, running no Python code per term.
Every polynomial is written as a sum over orbits of x-monomials, each
orbit carrying one x-free coefficient: a symmetric result's orbits are the
rearrangements of each nu (the m_nu basis), and a plain MPoly's are its
x-monomials, each its own orbit.  Each (orbit, degree) block is made once,
by :func:`_block_parts`, into texts that the bare x-fragment of each member
of its orbit joins.  The members' fragments and orbits, ``(frags,
orbit_of)``, are one lex-ordered table that :meth:`MPoly._write` reads once
per degree, in C: for a symmetric result :func:`_lex_members` builds it
over the weak compositions of each |nu|, joining shared prefix and suffix
strings in C, without listing any rearrangement.  The result is one string,
between an optional head and tail, so a large value is never copied again.
"""

from __future__ import annotations

from functools import cache, lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain, compress, groupby, islice
from operator import add, index, itemgetter

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
            # operator.index takes ints and what stands for one, no float
            key = tuple(map(index, key))
            if len(key) != width:
                raise VariableMismatchError(
                    f"exponent key {key} has width {len(key)}, expected {width}")
            if min(key) < 0:
                raise ValueError(f"negative exponent in {key}")
            if coeff := index(coeff):
                clean[key] = coeff
        self.nvars = nvars
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return read_out(nvars, {})

    @classmethod
    def const(cls, nvars: int, c: int) -> "MPoly":
        c = index(c)
        return read_out(nvars, {(0,) * (nvars + 2): c} if c else {})

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
        return read_out(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return read_out(self.nvars, {k: -c for k, c in self._terms.items()})

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
            return read_out(self.nvars, {k: c * other for k, c
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
        return read_out(self.nvars, terms)

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
        """``(orbits, members)``: each orbit's key, whose first nvars
        entries are an x-monomial of the orbit, with its x-free terms
        ``((e_q, e_t), c)`` in lex order; and the function that lays out
        the lex table of the orbits' members, ``members(nvars, keys,
        piece, sep)``, returning ``(frags, orbit_of)`` (the contract of
        :func:`_lex_members`), whose fragments are bare.  A plain MPoly's
        orbits are its x-monomials in lex order, each its own only member,
        keyed by its first term's key."""
        n, terms = self.nvars, self._terms
        groups = (list(keys) for _, keys
                  in groupby(sorted(terms), itemgetter(slice(0, n))))
        return ((keys[0], [(k[n:], terms[k]) for k in keys])
                for keys in groups), _own_members

    def _write(self, piece, sep, terms, lead, zero, head, tail: str) -> str:
        """The writers' one emitter, given a format spec: each member's
        x-fragment is the ``sep``-join of its nonempty ``piece(i, e_i)``;
        ``terms`` gives the texts of the block terms (see
        :func:`_block_parts`); ``lead`` rewrites the start of the first
        term, and ``zero`` stands for a polynomial with no terms.  Each
        distinct block is made once into parts that each member's fragment
        joins, and each degree is one C-level read of the members' table
        and one join."""
        # Each orbit's terms fall by degree |o| + e_q + e_t into blocks that
        # all its members share.  Equal blocks are kept once, as a plain
        # MPoly's x-monomials often have equal ones.
        n = self.nvars
        orbits, members = self._orbits()
        keys, kept = [], {}  # each distinct block -> its index
        rounds = {}  # degree -> (orbits, the indices of their blocks)
        for k, (o, qt) in enumerate(orbits):
            keys.append(o)
            x = o[:n]
            size, bare, by_degree = sum(x), not any(x), {}
            for (e_q, e_t), c in qt:
                by_degree.setdefault(size + e_q + e_t, []).append(
                    (e_q, e_t, c))
            for degree, block in by_degree.items():
                ks, at = rounds.setdefault(degree, ([], []))
                ks.append(k)
                at.append(kept.setdefault((tuple(block), bare), len(kept)))
        if not kept:
            return head + zero + tail
        frags, orbit_of = members(n, keys, piece, sep)
        parts = _block_parts(list(kept), terms)
        del kept  # the parts stand for its blocks now
        out = []
        for ks, at in map(rounds.__getitem__, sorted(rounds)):
            row = [None] * len(keys)  # each orbit's parts, None if no block
            for k, i in zip(ks, at):
                row[k] = parts[i]
            got = list(map(row.__getitem__, orbit_of))  # each member's
            out.append("".join(map(str.join, compress(frags, got),
                                   filter(None, got))))
        del keys, frags, orbit_of, parts, rounds, row, got  # only the strings
        out[0] = head + lead(out[0])
        out[-1] += tail
        return "".join(out)

    def _render(self, head, tail, var_fmt, pow_fmt, mul_sep: str) -> str:
        n = self.nvars
        names = [var_fmt("x", i) for i in range(1, n + 1)]

        @cache
        def power(name, e):
            return "" if not e else name if e == 1 else pow_fmt(name, e)

        @cache
        def term(item):  # before and after the x-monomial, and bare at x^0
            e_q, e_t, c = item
            qts = mul_sep.join(filter(None, map(power, "qt", (e_q, e_t))))
            mag = abs(c)
            sign = " - " if c < 0 else " + "
            return (sign if mag == 1 else f"{sign}{mag}{mul_sep}",
                    f"{mul_sep}{qts}" if qts else "",
                    sign + (f"{mag}{mul_sep}{qts}" if qts and mag != 1
                            else qts or str(mag)))

        return self._write(lambda i, e: power(names[i], e), mul_sep,
                           lambda items: zip(*map(term, items)),
                           lambda first: first[3:] if first[1] == "+"
                           else "-" + first[3:], "0", head, tail)

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
        return self._write(
            lambda i, e: "%d" % e, ", ",
            lambda items: ([', {"x": ['] * len(items), list(map(
                '], "q": %d, "t": %d, "c": "%d"}'.__mod__, items)), None),
            lambda first: first[2:], "",
            head + '{"nvars": %d, "terms": [' % self.nvars, "]}" + tail)


def diff_witness(a: MPoly, b: MPoly):
    """The first key in graded-lex order at which a and b differ, with the
    coefficient of each there, ``(key, a_c, b_c)``; None when a == b."""
    a._check(b)
    if a == b:
        return None
    ta, tb = a._terms, b._terms
    key = min((k for k in ta.keys() | tb.keys()
               if ta.get(k, 0) != tb.get(k, 0)), key=_grlex)
    return key, ta.get(key, 0), tb.get(key, 0)


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
    :class:`ExactDivisionError` rather than returning a wrong answer.  Each
    distinct x-free coefficient is divided once (a symmetric p repeats one
    at every rearrangement), and its quotient written at every x-monomial
    carrying it; the error names the first x-group that fails.
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
    quotients: dict = {}  # a group's terms -> its quotient's terms
    for xk, num in p.by_x().items():
        key = frozenset(num.items())
        if key in quotients:
            out.update((xk + k, c) for k, c in quotients[key])
            continue
        quot = quotients[key] = []
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
            quot.append(((dq, dt), qc))
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
    """The image of p under exchanging x_i and x_j, by :func:`specialize`."""
    n = p.nvars
    if not (1 <= i <= n and 1 <= j <= n):
        raise VariableMismatchError("swap index out of range")
    return specialize(p, {f"x{i}": f"x{j}", f"x{j}": f"x{i}"})


def _var_index(nvars: int, name: str) -> int:
    """The key position of the variable named exactly q, t or x1..x<nvars>."""
    if name in ("q", "t"):
        return nvars + (name == "t")
    digits = name[1:]
    if (name[:1] == "x" and digits.isascii() and digits.isdigit()
            and digits[0] != "0" and int(digits) <= nvars):
        return int(digits) - 1
    raise VariableMismatchError(f"unknown variable {name!r} for nvars={nvars}")


def specialize(p: MPoly, bindings: dict) -> MPoly:
    """Substitute integers or other variables for variables, exactly.

    ``bindings`` maps the names "q", "t", "x1".."xn", and no others, to
    ints (through ``operator.index``: a float raises) or to such names.
    The substitution is simultaneous, so swaps like ``{"q": "t", "t":
    "q"}`` behave as expected; unbound variables are untouched.
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
            value[idx] = index(val)
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
    """The t-analogue of the multinomial coefficient (n; parts), by its
    definition (t;t)_n / prod (t;t)_m over the parts m."""
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


# The caches are keyed by shapes of fillings, not by fillings, so a bound of
# a few thousand entries never evicts within one sum of this package's sizes.
@lru_cache(maxsize=4096)
def t_multinomial_product(signature):
    """The product of t-multinomials over ``((k, sorted parts), ...)``.

    Each is (t;t)_k / prod (t;t)_m over its parts m, on one coefficient
    list: for each part but the last (the largest, whose factor is 1) and
    each j = 1..m, times 1 - t^(k-m+j) and exactly divided by 1 - t^j, so
    that every intermediate is a product of Gaussian binomials; a nonzero
    remainder raises ExactDivisionError.
    """
    out = [1]
    for k, parts in signature:
        for m in parts[:-1]:
            for j in range(1, m + 1):
                s = k - m + j
                out += [0] * s
                for e in range(len(out) - 1, s - 1, -1):
                    out[e] -= out[e - s]
                for e in range(j, len(out)):
                    out[e] += out[e - j]
                if any(out[-j:]):
                    raise ExactDivisionError("a t-multinomial left a remainder")
                del out[-j:]
            k -= m
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


def walk_sum(walk, weight, nvars: int = 0, size: int = 0) -> dict:
    """The zero-free term dict of the sum of x^content q^maj t^stat
    weight(mask) over a walk's raw ``(entries, maj, stat, mask)`` tuples:
    content counts 1..nvars in the first ``size`` entries (empty for nvars
    0, a one-content walk), and stat is what the walk carries."""
    # The fillings that agree in content, maj, stat and mask add the same
    # terms, so each such key adds its weight, taken once per mask met, times
    # its count.  (A Counter would count in C, but its first use in a process
    # runs the Mapping check of collections.abc, which costs a forked request
    # more than the loop saves on a small walk.)
    tally: dict[tuple, int] = {}
    if nvars:
        for entries, m, s, mask in walk:
            exps = [m, s, mask] + [0] * nvars
            for e in entries[:size]:
                exps[e + 2] += 1
            key = tuple(exps)
            tally[key] = tally.get(key, 0) + 1
    else:
        for key in map(itemgetter(1, 2, 3), walk):
            tally[key] = tally.get(key, 0) + 1
    terms, weights = {}, {}  # weights: mask -> weight(mask), for this sum
    for stats, count in tally.items():
        m, s, mask, content = stats[0], stats[1], stats[2], stats[3:]
        w = weights.get(mask)
        if w is None:
            w = weights[mask] = weight(mask)
        for (a, b), c in w:
            key = content + (a + m, b + s)
            if c := c * count + terms.get(key, 0):
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
    read out without the checks of ``MPoly(nvars, terms)``: the one
    unchecked constructor of an MPoly."""
    out = MPoly.__new__(MPoly)
    out.nvars = nvars
    out._terms = terms
    return out


def _pieces(piece, n: int, top: int) -> list:
    """``piece(i, e)`` for each position i < n and exponent e <= top."""
    pieces = [None] * n  # one allocation, so a huge n fails at once
    for i in range(n):
        pieces[i] = [piece(i, e) for e in range(top + 1)]
    return pieces


def _block_parts(blocks, terms) -> list:
    """The parts of each ``(items, bare)`` block, the ``(e_q, e_t, c)`` of
    its terms and whether it is at x^0, that a member's x-fragment joins:
    ``terms(items)`` gives every block's terms' texts before the fragment,
    after it, and alone at x^0 (None if never alone), and a block's parts
    are its first before, each after glued to the next before, and its last
    after; or its terms alone at x^0."""
    befores, afters, alones = terms(list(chain.from_iterable(
        items for items, _ in blocks)))
    glues, lo, out = list(map(add, afters, befores[1:])), 0, []
    for items, bare in blocks:
        hi = lo + len(items)
        out.append(alones[lo:hi] if bare and alones else
                   [befores[lo], *glues[lo:hi - 1], afters[hi - 1]])
        lo = hi
    return out


def _own_members(n: int, keys, piece, sep):
    """The lex table of orbits that are each their x-monomial's only member,
    keys[k][:n] in lex order, member k in orbit k: see :func:`_lex_members`."""
    pieces = _pieces(piece, n, max(map(max, islice(zip(*keys), n)), default=0))
    frags = [sep.join(filter(None, map(list.__getitem__, pieces, k)))
             for k in keys]
    return frags, range(len(keys))


def _lex_members(n: int, nus, piece, sep):
    """The lex table of the members of the orbits of the partitions nus,
    each weak composition into n parts that rearranges one of them: a
    member x's fragment is the sep-join of the nonempty strings
    ``piece(i, x_i)``.  Returns ``(frags, orbit_of)``: the members'
    fragments in lex order, and the orbit of each, an index into nus."""
    # The first n // 2 exponents (a prefix) and the last ones (a suffix) are
    # each laid out once, with their fragment and the code of their
    # multiset, sum of (n + 1) ** e, which adds without carrying.  They use
    # only exponents some orbit has, each prefix is joined, in C, to the
    # suffixes completing it to a size in nus, and a member is kept when
    # its code is an orbit's.
    sizes = set(map(sum, nus))
    top = max(sizes, default=0)
    big = max(map(max, filter(None, nus)), default=0)  # no exponent exceeds it
    pieces = _pieces(piece, n, big)
    powers = [(n + 1) ** e for e in range(big + 1)]
    code_of = {sum(map(powers.__getitem__, nu)) + n - len(nu): k
               for k, nu in enumerate(nus)}
    used = [False] * (big + 1)
    for nu in nus:
        for e in nu + (0,) * (len(nu) < n):
            used[e] = True

    def grow(level, positions):  # each (sum, code, fragment, nonempty), lex
        for i in positions:
            level = [(s + e, c + powers[e],
                      f + sep + p if p and full else f + p, full or bool(p))
                     for s, c, f, full in level
                     for e, p in enumerate(pieces[i][:top - s + 1])
                     if used[e]]
        return level

    prefixes = grow([(0, 0, "", False)], range(n // 2))
    suffixes = grow([(0, 0, "", False)], range(n // 2, n))
    picks, frags, member_codes = {}, [], []
    for s, c, f, full in prefixes:
        if (s, full) not in picks:  # its completing suffixes, in lex order
            ends = [end for end in suffixes if s + end[0] in sizes]
            picks[s, full] = ([d for _, d, _, _ in ends],
                              [sep + g if full and more else g
                               for _, _, g, more in ends])
        ends, rests = picks[s, full]
        frags += map(f.__add__, rests)
        member_codes += map(c.__add__, ends)
    orbit_of = list(map(code_of.get, member_codes))
    if None in orbit_of:  # drop the members of orbits not in nus
        keep = list(map(code_of.__contains__, member_codes))
        frags = list(compress(frags, keep))
        orbit_of = list(compress(orbit_of, keep))
    return frags, orbit_of


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
        return ((nu, sorted(qt.items())) for nu, qt in self._coeffs.items()), \
            _lex_members

    def _expand(self) -> dict:
        """Each coefficient written at every member of its orbit, in any
        order: the distinct rearrangements of nu padded with zeros."""
        pad, terms = (0,) * self.nvars, {}
        for nu, qt in self._coeffs.items():
            qt = qt.items()
            for xexps in rearrangements(nu + pad[len(nu):]):
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
