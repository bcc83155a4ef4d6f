"""Per-layer timing of a CLI request, recorded from outside the package.

Two instruments replace the library names that ``macpoly.cli`` calls, in a
forked child only:

* :class:`LibTimer` wraps each name with a plain timer and adds up the time
  spent in the outermost library calls.  A request's latency minus that
  time is its CLI overhead.
* :class:`Replay` records spans.  Leaf calls (``htilde_brute``, ``flip``,
  ``exact_div_xfree``, ...) are spanned as they are.  Composite calls
  (``htilde_compact``, ``j_compact``, ``e_integral``, ``g_integral``,
  ``qs_gamma``, ``demazure_t_atom``, ``perm_t``, ``hecke_T``) are recomposed
  from the package's public ingredient functions on the same input, one span
  per phase, and return the composite's exact result.  The benchmark's
  tests compare every recomposition with the composite it stands for, and
  the runner checks the traced request's output bytes, so the spans time
  the same computation the CLI runs.

A span is ``[name, start, end, parent, request]``; a span's self time is
its duration minus that of its children.  Counting packed objects happens
in ``trace.bookkeeping`` spans, which belong to no layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from macpoly import cli, nonattacking, tableaux
from macpoly.mpoly import (MPoly, RationalForm, divided_difference,
                           specialize, t_multinomial, t_pochhammer)
from macpoly.nonattacking import coinv, enumerate_na, maj_na, pr1, pr2
from macpoly.quasisym import placements
from macpoly.shapes import (arm, beta_perm, check_composition,
                            check_partition, identity_perm, inc_sort, leg,
                            multiplicities)
from macpoly.tableaux import components, inv, is_sorted, maj, x_weight

# CLI-module names each instrument replaces, with the layer each belongs to.
LEAF_SPANS = {
    "htilde_brute": "tableaux.htilde_brute",
    "family": "tableaux.family",
    "flip": "tableaux.flip",
    "sort_filling": "tableaux.sort_filling",
    "inv": "tableaux.inv_maj",
    "maj": "tableaux.inv_maj",
    "enumerate_fillings": "tableaux.enumerate_fillings",
    "j_hhl": "nonattacking.j_hhl",
    "qsym_expand": "quasisym.qsym_expand",
    "exact_div_xfree": "mpoly.exact_div_xfree",
    "specialize": "mpoly.specialize",
    "t_pochhammer": "mpoly.mul",
    "_render_poly": "mpoly.render",
}
COMPOSITES = ("htilde_compact", "enumerate_sorted", "perm_t", "j_compact",
              "p_poly", "e_integral", "g_integral", "g_poly", "qs_gamma",
              "demazure_t_atom", "hecke_T")
# schur_oracle is imported inside a check function, so it is looked up on
# the nonattacking module at call time.
MODULE_LEAVES = ((nonattacking, "schur_oracle", "nonattacking.schur_oracle"),)

# Layer metrics reported as summed self time, and the work counts.
SELF_LAYERS = (
    "tableaux.enumerate_sorted", "tableaux.inv_maj", "tableaux.perm_t",
    "tableaux.htilde_compact", "tableaux.htilde_brute", "tableaux.family",
    "tableaux.sort_filling", "tableaux.flip", "nonattacking.enumerate_na",
    "nonattacking.coinv_maj", "nonattacking.j_compact",
    "nonattacking.e_integral", "nonattacking.j_hhl",
    "nonattacking.schur_oracle", "quasisym.g_integral",
    "quasisym.qsym_expand", "quasisym.hecke_T", "quasisym.demazure_t_atom",
    "mpoly.accumulate", "mpoly.t_multinomial", "mpoly.mul",
    "mpoly.exact_div_xfree", "mpoly.divided_difference", "mpoly.specialize",
    "mpoly.render",
)
COUNTS = ("tableaux.enumerate_sorted", "nonattacking.enumerate_na")


def _materialize(value):
    """Drain a generator inside the timed call, so its work is counted."""
    return list(value) if hasattr(value, "__next__") else value


def _terms(value) -> int:
    if isinstance(value, MPoly):
        return len(value)
    if isinstance(value, RationalForm):
        return len(value.numerator) + len(value.denominator)
    return 0


def _is_packed(cols) -> bool:
    vals = {e for col in cols for e in col}
    return vals == set(range(1, len(vals) + 1))


@contextmanager
def _patched(targets):
    """Set ``(obj, attr, value)`` triples, restoring the old values after."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, value in targets:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)


class LibTimer:
    """Adds up the wall time of the outermost library calls the CLI makes."""

    def __init__(self):
        self.total_s = 0.0
        self._depth = 0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            if self._depth:
                return _materialize(fn(*args, **kwargs))
            self._depth = 1
            t0 = time.perf_counter()
            try:
                return _materialize(fn(*args, **kwargs))
            finally:
                self.total_s += time.perf_counter() - t0
                self._depth = 0
        return timed

    def installed(self):
        names = list(LEAF_SPANS) + list(COMPOSITES)
        targets = [(cli, name, self.wrap(getattr(cli, name))) for name in names]
        targets += [(mod, attr, self.wrap(getattr(mod, attr)))
                    for mod, attr, _ in MODULE_LEAVES]
        return _patched(targets)


class _Span:
    __slots__ = ("rec", "spans", "stack")

    def __init__(self, tracer, name):
        self.spans, self.stack = tracer.spans, tracer.stack
        parent = self.stack[-1] if self.stack else -1
        self.rec = [name, 0.0, 0.0, parent, tracer.request]

    def __enter__(self):
        self.stack.append(len(self.spans))
        self.spans.append(self.rec)
        self.rec[1] = time.perf_counter()

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.stack.pop()


class Replay:
    """Span recorder plus the recomposed composite calls."""

    def __init__(self, request: int = 0):
        self.request = request
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = {f"{name}.{k}": 0 for name in COUNTS
                       for k in ("count", "packed")}
        self.counts["mpoly.result.terms"] = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def leaf(self, name: str, fn):
        def traced(*args, **kwargs):
            outer = not self.stack
            with self.span(name):
                value = _materialize(fn(*args, **kwargs))
            if outer:
                self.counts["mpoly.result.terms"] += _terms(value)
            return value
        return traced

    def composite(self, fn):
        def traced(*args, **kwargs):
            outer = not self.stack
            value = fn(*args, **kwargs)
            if outer:
                self.counts["mpoly.result.terms"] += _terms(value)
            return value
        return traced

    def installed(self):
        targets = [(cli, name, self.leaf(span, getattr(cli, name)))
                   for name, span in LEAF_SPANS.items()]
        targets += [(cli, name, self.composite(getattr(self, name)))
                    for name in COMPOSITES]
        targets += [(mod, attr, self.leaf(span, getattr(mod, attr)))
                    for mod, attr, span in MODULE_LEAVES]
        return _patched(targets)

    # -- shared phases -----------------------------------------------------

    def _count(self, layer, objs):
        with self.span("trace.bookkeeping"):
            self.counts[f"{layer}.count"] += len(objs)
            self.counts[f"{layer}.packed"] += sum(_is_packed(f.cols)
                                                  for f in objs)

    def accumulate(self, summands, n):
        with self.span("mpoly.accumulate"):
            total = MPoly.zero(n)
            for s in summands:
                total = total + s
        return total

    def enumerate_sorted(self, shape, n):
        with self.span("tableaux.enumerate_sorted"):
            fs = list(tableaux.enumerate_sorted(shape, n))
        self._count("tableaux.enumerate_sorted", fs)
        return fs

    def enumerate_na(self, shape, basement, n, **kw):
        with self.span("nonattacking.enumerate_na"):
            fs = list(enumerate_na(shape, basement, n, **kw))
        self._count("nonattacking.enumerate_na", fs)
        return fs

    def scale_pochhammer(self, total, parts, n):
        with self.span("mpoly.mul"):
            for m in multiplicities(parts).values():
                total = total * t_pochhammer(m, n)
        return total

    def na_summands(self, fs, n):
        """x^f q^maj t^coinv times the cell factors above row 1, per filling,
        building the constants per filling as the package does."""
        with self.span("nonattacking.coinv_maj"):
            stats = [(maj_na(f), coinv(f)) for f in fs]
        weights = []
        for f, (m, c) in zip(fs, stats):
            one, q, t = MPoly.one(n), MPoly.q(n), MPoly.t(n)
            weights.append((f.x_weight(n) * q ** m * t ** c, one, q, t))
        with self.span("mpoly.mul"):
            out = []
            for f, (w, one, q, t) in zip(fs, weights):
                shape = f.shape
                for i in range(1, len(shape) + 1):
                    for r in range(2, shape[i - 1] + 1):
                        if f.entry(i, r) == f.entry(i, r - 1):
                            w = w * (one - q ** (leg(shape, (i, r)) + 1)
                                     * t ** (arm(shape, (i, r)) + 1))
                        else:
                            w = w * (one - t)
                out.append(w)
        return out

    # -- recomposed composites ---------------------------------------------

    def perm_t(self, f, nvars=0):
        return self.perm_t_batch([f], nvars)[0]

    def perm_t_batch(self, fs, n):
        with self.span("tableaux.perm_t"):
            sigs = []
            for f in fs:
                if not is_sorted(f):
                    raise ValueError("filling is not a sorted tableau")
                sig = []
                for lo, hi in components(f.shape):
                    mult: dict = {}
                    for col in f.cols[lo - 1:hi]:
                        mult[col] = mult.get(col, 0) + 1
                    sig.append((hi - lo + 1, sorted(mult.values())))
                sigs.append(sig)
            with self.span("mpoly.t_multinomial"):
                factors = [[t_multinomial(k, parts, n) for k, parts in sig]
                           for sig in sigs]
            with self.span("mpoly.mul"):
                out = []
                for fac in factors:
                    p = MPoly.one(n)
                    for x in fac:
                        p = p * x
                    out.append(p)
        return out

    def htilde_compact(self, shape, n):
        with self.span("tableaux.htilde_compact"):
            shape = check_partition(shape)
            fs = self.enumerate_sorted(shape, n)
            with self.span("tableaux.inv_maj"):
                stats = [(inv(f), maj(f)) for f in fs]
            perms = self.perm_t_batch(fs, n)
            q, t = MPoly.q(n), MPoly.t(n)
            weights = [x_weight(f, n) * t ** i * q ** m * p
                       for f, (i, m), p in zip(fs, stats, perms)]
            return self.accumulate(weights, n)

    def j_compact(self, mu, n):
        with self.span("nonattacking.j_compact"):
            mu = check_partition(mu)
            if n < len(mu):
                raise ValueError("need at least as many variables as parts")
            shape = (0,) * (n - len(mu)) + tuple(sorted(mu))
            fs = self.enumerate_na(shape, None, n, ordered_only=True)
            total = self.accumulate(self.na_summands(fs, n), n)
            return self.scale_pochhammer(total, mu, n)

    def p_poly(self, mu, n):
        with self.span("nonattacking.p_poly"):
            num = self.j_compact(mu, n)
            with self.span("mpoly.mul"):
                den = pr1(mu, n)
            return RationalForm(num, den)

    def e_integral(self, alpha, n=None):
        with self.span("nonattacking.e_integral"):
            alpha = check_composition(alpha)
            if n is None:
                n = len(alpha)
            if n != len(alpha):
                raise ValueError(
                    "the variable count must equal the number of parts")
            shape, basement = inc_sort(alpha), beta_perm(alpha)
            fs = self.enumerate_na(shape, basement, n)
            for f in fs:
                bottom = all(f.entry(i, 1) == basement[i - 1]
                             for i in range(1, n + 1) if shape[i - 1] >= 1)
                if not (bottom and nonattacking.is_ordered(f)):
                    raise AssertionError("e_integral filling is not ordered")
            total = self.accumulate(self.na_summands(fs, n), n)
            return self.scale_pochhammer(total, alpha, n)

    def demazure_t_atom(self, alpha, n):
        with self.span("quasisym.demazure_t_atom"):
            alpha = check_composition(alpha)
            if len(alpha) > n:
                raise ValueError("composition longer than the variable count")
            alpha = alpha + (0,) * (n - len(alpha))
            fs = self.enumerate_na(alpha, identity_perm(n), n,
                                   no_descents=True)
            with self.span("nonattacking.coinv_maj"):
                coinvs = [coinv(f) for f in fs]
            ndiffs = [sum(1 for (i, r) in f.cells()
                          if f.entry(i, r) != f.entry(i, r - 1)) for f in fs]
            t = MPoly.t(n)
            one_minus_t = MPoly.one(n) - t
            weights = [f.x_weight(n) * t ** c for f, c in zip(fs, coinvs)]
            with self.span("mpoly.mul"):
                summands = [w * one_minus_t ** d
                            for w, d in zip(weights, ndiffs)]
            return self.accumulate(summands, n)

    def qs_gamma(self, gamma, n):
        with self.span("quasisym.qs_gamma"):
            summands = []
            for alpha in placements(gamma, n):
                atom = self.demazure_t_atom(alpha, n)
                with self.span("mpoly.specialize"):
                    summands.append(specialize(atom, {"t": 0}))
            return self.accumulate(summands, n)

    def g_integral(self, gamma, n):
        with self.span("quasisym.g_integral"):
            summands = [self.e_integral(alpha, n)
                        for alpha in placements(gamma, n)]
            return self.accumulate(summands, n)

    def g_poly(self, gamma, n):
        with self.span("quasisym.g_poly"):
            num = self.g_integral(gamma, n)
            padded = (0,) * (n - len(gamma)) + tuple(sorted(gamma))
            with self.span("mpoly.mul"):
                den = pr2(padded, n)
            return RationalForm(num, den)

    def hecke_T(self, p, i):
        with self.span("quasisym.hecke_T"):
            n = p.nvars
            tt = MPoly.t(n)
            factor = tt * MPoly.x(n, i) - MPoly.x(n, i + 1)
            with self.span("mpoly.divided_difference"):
                d = divided_difference(p, i)
            return tt * p - factor * d


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name: duration minus the children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for k, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[k]
    return out
