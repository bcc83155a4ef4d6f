"""Quasisymmetric refinements: the G polynomials, monomial-quasisymmetric
expansion, Hecke operators, and Demazure t-atoms.

G over a strong composition gamma sums the integral-form permuted-basement
polynomials over all weak compositions whose positive parts are gamma in
order; every such composition shares the same increasing sort, so the sum
is a polynomial multiple of a single x-free scalar.  :func:`qs_gamma` sums
the joined walks without descents of the placements in one ``walk_sum`` at
weight 1, each walk dropping a filling at its first coinversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .mpoly import (ONE, MPoly, RationalForm, VariableMismatchError,
                    read_out, walk_sum, weight_poly)
from .nonattacking import e_general_q0, e_integral_sum, pr2
from .shapes import _walk, check_composition, identity_perm


class NotQuasisymmetricError(ValueError):
    """Raised by qsym_expand; carries a witness pair of exponent keys."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def _strong(gamma) -> tuple[int, ...]:
    gamma = check_composition(gamma)
    if any(p == 0 for p in gamma):
        raise ValueError(f"{gamma} is not a strong composition")
    return gamma


def placements(gamma, n: int):
    """All weak compositions of length n whose positive parts read gamma."""
    gamma = _strong(gamma)
    k = len(gamma)
    if n < k:
        raise ValueError("not enough variables for the composition")
    for support in combinations(range(n), k):
        alpha = [0] * n
        for j, pos in enumerate(support):
            alpha[pos] = gamma[j]
        yield tuple(alpha)


def g_integral(gamma, n: int) -> MPoly:
    """The polynomial scalar multiple of G: the sum of integral forms over
    all placements of gamma among n variables."""
    return e_integral_sum(placements(gamma, n), n)


def g_poly(gamma, n: int) -> RationalForm:
    """G itself, as integral form over the shared x-free scalar."""
    gamma = _strong(gamma)
    padded = (0,) * (n - len(gamma)) + tuple(sorted(gamma))
    return RationalForm(g_integral(gamma, n), pr2(padded, n))


@dataclass(frozen=True)
class QSymExpansion:
    """Coefficients of a polynomial on the monomial quasisymmetric basis."""

    nvars: int
    coeffs: dict  # strong composition -> x-free MPoly in q, t

    def degree(self):
        degs = {sum(g) for g in self.coeffs}
        return degs.pop() if len(degs) == 1 else None

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree(),
            "coeffs": {",".join(map(str, g)): c.to_json_dict()
                       for g, c in sorted(self.coeffs.items())},
        }


def qsym_expand(p: MPoly) -> QSymExpansion:
    """Expand p over the monomial quasisymmetric basis, or fail with a witness.

    For each term, the positive x-exponents read left to right give a strong
    composition; p is quasisymmetric iff for every composition appearing,
    all placements of it among the variables occur with one and the same
    q,t-coefficient.
    """
    n = p.nvars
    groups: dict[tuple, dict[tuple, dict]] = {}
    for xpart, qt in p.by_x().items():
        comp = tuple(e for e in xpart if e)
        support = tuple(i for i, e in enumerate(xpart) if e)
        groups.setdefault(comp, {})[support] = qt

    coeffs = {}
    for comp, by_support in sorted(groups.items()):
        supports = list(combinations(range(n), len(comp)))
        ref_support = next(s for s in supports if s in by_support)
        ref = by_support[ref_support]

        def full_key(support, qt):
            xpart = [0] * n
            for j, pos in enumerate(support):
                xpart[pos] = comp[j]
            return tuple(xpart) + qt

        for s in supports:
            got = by_support.get(s, {})
            if got != ref:  # the witness: the least (q, t) key they differ at
                qt = min(k for k in ref.keys() | got.keys()
                         if ref.get(k) != got.get(k))
                raise NotQuasisymmetricError(
                    f"coefficient of placement {s} of {comp} differs from "
                    f"placement {ref_support}",
                    (full_key(ref_support, qt), full_key(s, qt)))
        coeffs[comp] = weight_poly(ref.items(), n)
    return QSymExpansion(n, coeffs)


def hecke_T(p: MPoly, i: int) -> MPoly:
    """Hecke operator: t p - (t x_i - x_{i+1}) d_i p, with d_i the divided
    difference; polynomial for every polynomial input.

    Computed in one pass over the terms: a monomial c x_i^a x_{i+1}^b (the
    other variables carried along) gives c t x_i^a x_{i+1}^b and, for each
    term s x_i^j x_{i+1}^(a+b-1-j) of its divided difference (j from b to
    a - 1 with s = c when a > b, from a to b - 1 with s = -c when a < b),
    -s t x_i^(j+1) x_{i+1}^(a+b-1-j) and s x_i^j x_{i+1}^(a+b-j).
    """
    n = p.nvars
    for j in (i, i + 1):
        if not 1 <= j <= n:
            raise VariableMismatchError(f"x_{j} out of range for nvars={n}")
    terms: dict[tuple[int, ...], int] = {}

    def put(key, c):
        c += terms.get(key, 0)
        if c:
            terms[key] = c
        else:
            del terms[key]

    for key, c in p.terms().items():
        head, mid, e_t = key[:i - 1], key[i + 1:n + 1], key[n + 1]
        a, b = key[i - 1], key[i]
        put(head + (a, b) + mid + (e_t + 1,), c)
        lo, hi, s = (b, a, c) if a > b else (a, b, -c)
        for j in range(lo, hi):
            put(head + (j + 1, a + b - 1 - j) + mid + (e_t + 1,), -s)
            put(head + (j, a + b - j) + mid + (e_t,), s)
    return read_out(n, terms)


def demazure_t_atom(alpha, n: int) -> MPoly:
    """The q = 0, identity-basement polynomial for alpha (t-atom)."""
    alpha = check_composition(alpha)
    if len(alpha) > n:
        raise ValueError("composition longer than the variable count")
    alpha = alpha + (0,) * (n - len(alpha))
    return e_general_q0(alpha, identity_perm(n), n)


def qs_gamma(gamma, n: int) -> MPoly:
    """Quasisymmetric Schur polynomial: t-atoms at t=0 over the placements'
    joined walks, where x^f t^coinv (1-t)^ndiff leaves x^f if coinv = 0."""
    gamma = _strong(gamma)
    return read_out(n, walk_sum(chain.from_iterable(
        _walk(alpha, identity_perm(n), n, no_descents=True, coinv_cap=0)
        for alpha in placements(gamma, n)), lambda eq: ONE, n, sum(gamma)))
