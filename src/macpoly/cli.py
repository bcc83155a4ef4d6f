"""Command-line front end: compute, enumerate, family, validate.

Exit codes: 0 success, 2 usage error, 3 a mathematical identity failed.
Output is deterministic: identical requests produce identical bytes.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import ExitStack, contextmanager
from functools import lru_cache
from itertools import chain, islice
from math import prod

import click

from . import tableaux
from .mpoly import (ExactDivisionError, MPoly, RationalForm, diff_witness,
                    exact_div_xfree, specialize, t_pochhammer)
from .nonattacking import (check_j_partition, coinv, e_integral, enumerate_na,
                           j_compact, j_hhl, maj_na, p_poly, pr1)
from .quasisym import (NotQuasisymmetricError, demazure_t_atom, g_integral,
                       g_poly, hecke_T, qs_gamma, qsym_expand)
from .shapes import (check_partition, compositions, multiplicities,
                     partitions_of, rearrangements)
from .tableaux import (Filling, enumerate_fillings, enumerate_sorted, family,
                       family_tree, flip, htilde_brute, htilde_compact, inv,
                       is_packed, is_sorted, maj, perm_t, sort_filling)

IDENTITY_EXIT = 3


def _parse_parts(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise click.UsageError(f"cannot parse integer list {text!r}")


def _parse_rows(text: str) -> Filling:
    rows = [_parse_parts(chunk) for chunk in text.split(";")] \
        if text.strip() else []
    with _usage_errors():
        return Filling.from_rows(rows)


@contextmanager
def _usage_errors(nvars=None):
    """The commands' one usage-error boundary: a ValueError as its message,
    and a MemoryError of work that allocates per variable as --nvars being
    too large."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc))
    except MemoryError:
        raise click.UsageError(f"--nvars {nvars} is too large: out of memory")


# The most characters handed to a text stream at once: the stream encodes
# each write into a fresh bytes object, so a large string written whole
# would be encoded into a second full copy.
WRITE_SLICE = 1 << 16


def _slices(lines):
    for line in lines:
        for start in range(0, len(line), WRITE_SLICE):
            yield line[start:start + WRITE_SLICE]


def _emit(lines, output):
    """Write each line as it is produced, in slices of at most WRITE_SLICE
    characters, to the output file or stdout; a failed write is a usage
    error, but a closed pipe is left to click."""
    try:
        if output:
            with open(output, "w") as fh:
                fh.writelines(_slices(lines))
        else:
            out = click.get_text_stream("stdout")
            out.writelines(_slices(lines))
            out.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise click.UsageError(f"cannot write {output or 'stdout'}: "
                               f"{exc.strerror or exc}")


def _check_output(ctx, param, path):
    """Reject an --output path that cannot be written, before any work."""
    if path:
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise click.BadParameter(f"{path!r} is a directory")
        if not os.path.isdir(parent):
            raise click.BadParameter(f"{path!r}: no directory {parent!r}")
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise click.BadParameter(f"{path!r} is not writable")
    return path


OUTPUT = click.option("--output", type=click.Path(), default=None,
                      callback=_check_output)


# The writer of each `compute --format`, a method of MPoly and RationalForm.
_WRITERS = {"json": "to_json", "latex": "latex", "text": "text"}


def _render_poly(value, fmt: str) -> str:
    """The value written in one string, newline included, so that a large
    output is not copied once more to end it."""
    return getattr(value, _WRITERS[fmt])(tail="\n")


@click.group()
def main():
    """Exact Macdonald polynomial computations."""


@main.command("compute")
@click.argument("selector",
                type=click.Choice(["htilde", "J", "P", "E-integral", "G",
                                   "QS", "atom"]))
@click.option("--shape", required=True,
              help="comma-separated parts (partition or composition)")
@click.option("--nvars", type=click.IntRange(min=0), required=True)
@click.option("--method", type=click.Choice(["compact", "brute", "both"]),
              default="compact", show_default=True)
@click.option("--format", "fmt", type=click.Choice(list(_WRITERS)),
              default="json", show_default=True)
@click.option("--cap", type=int, default=8, show_default=True,
              help="size cap for brute-force routes")
@OUTPUT
def cmd_compute(selector, shape, nvars, method, fmt, cap, output):
    """Compute one polynomial; --method both cross-checks two routes."""
    parts = _parse_parts(shape)
    if method != "compact" and selector not in ("htilde", "J", "P"):
        raise click.UsageError(f"{selector} has a single route; "
                               f"--method {method} applies to htilde, J, P")
    if method != "compact" and sum(parts) > cap:
        raise click.UsageError(
            f"|shape| = {sum(parts)} exceeds the brute-force cap {cap}; "
            "raise --cap to force")

    def routes():
        """The compact and the brute route, unevaluated.  A shape that is
        not a partition, or for J and P has more parts than variables, is
        rejected here, before either route runs."""
        if selector == "htilde":
            lam = check_partition(parts)
            return (lambda: htilde_compact(lam, nvars),
                    lambda: htilde_brute(lam, nvars))
        if selector == "J":
            lam = check_j_partition(parts, nvars)
            return lambda: j_compact(lam, nvars), lambda: j_hhl(lam, nvars)
        if selector == "P":
            lam = check_j_partition(parts, nvars)
            return (lambda: p_poly(lam, nvars),
                    lambda: RationalForm(j_hhl(lam, nvars), pr1(lam, nvars)))
        if selector == "E-integral":
            return lambda: e_integral(parts, nvars), None
        if selector == "G":
            return lambda: g_poly(parts, nvars), None
        if selector == "QS":
            return lambda: qs_gamma(parts, nvars), None
        return lambda: demazure_t_atom(parts, nvars), None

    with _usage_errors(nvars):
        compact_route, brute_route = routes()
        value = compact_route() if method != "brute" else brute_route()
        if method == "both":
            a, b = value, brute_route()
            if selector == "P":  # two forms: the cross-multiplied numerators
                a, b = a.numerator * b.denominator, b.numerator * a.denominator
            ok, detail = _agree(a, b)
            if not ok:
                click.echo(f"identity failure: compact and brute routes "
                           f"disagree for {selector} {shape} ({detail})",
                           err=True)
                sys.exit(IDENTITY_EXIT)
        _emit([_render_poly(value, fmt)], output)


@main.command("enumerate")
@click.argument("kind", type=click.Choice(["fillings", "sorted", "nonattacking"]))
@click.option("--shape", required=True)
@click.option("--nvars", type=click.IntRange(min=0), required=True)
@click.option("--basement", default=None,
              help="basement permutation for nonattacking diagrams")
@click.option("--ordered", is_flag=True,
              help="only ordered nonattacking fillings")
@click.option("--packed", is_flag=True,
              help="only fillings whose entry set is an initial segment")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
@OUTPUT
def cmd_enumerate(kind, shape, nvars, basement, ordered, packed, fmt, output):
    """Stream objects with their statistics, one record per line."""
    for name, given in (("--basement", basement is not None),
                        ("--ordered", ordered)):
        if given and kind != "nonattacking":
            raise click.UsageError(f"{name} applies to nonattacking only")
    parts = _parse_parts(shape)
    base = None if basement is None else tuple(_parse_parts(basement))

    def records():
        if kind == "fillings":
            for f in enumerate_fillings(parts, nvars):
                if not packed or is_packed(f):
                    yield {"filling": f.to_json_dict(), "inv": inv(f),
                           "maj": maj(f)}
        elif kind == "sorted":
            for f in enumerate_sorted(parts, nvars):
                if not packed or is_packed(f):
                    yield {"filling": f.to_json_dict(), "inv": inv(f),
                           "maj": maj(f),
                           "perm_t": perm_t(f, nvars).to_json_dict()}
        else:
            for f in enumerate_na(parts, base, nvars, ordered_only=ordered):
                if not packed or is_packed(f):
                    yield {"filling": f.to_json_dict(), "coinv": coinv(f),
                           "maj": maj_na(f)}

    # The enumerators check their input before their first object, so
    # taking the first record turns a bad input into a usage error before
    # anything is written.
    stream = records()
    with _usage_errors(nvars):
        first = list(islice(stream, 1))

    def line(rec):
        if fmt == "json":
            return json.dumps(rec) + "\n"
        return f"{rec['filling']['rows']} {_stats_line(rec)}\n"

    _emit(map(line, chain(first, stream)), output)


def _stats_line(rec):
    return " ".join(f"{k}={v}" for k, v in rec.items()
                    if k not in ("filling", "perm_t"))


@main.command("family")
@click.option("--shape", default=None, help="partition; families of all roots")
@click.option("--nvars", type=click.IntRange(min=0), default=None)
@click.option("--root", default=None,
              help="a sorted tableau, rows top-first, e.g. '2;1,3'")
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]),
              default="json", show_default=True)
@OUTPUT
def cmd_family(shape, nvars, root, fmt, output):
    """Families of sorted tableaux, optionally as an operator tree."""
    if root is None and (shape is None or nvars is None):
        raise click.UsageError("give either --root or both --shape and --nvars")
    if root is not None and (shape is not None or nvars is not None):
        raise click.UsageError("--root takes neither --shape nor --nvars")
    if root is not None:
        f = _parse_rows(root)
        if not is_sorted(f):
            raise click.UsageError("--root is not a sorted tableau")
        roots = [f]
    else:
        with _usage_errors(nvars):
            roots = list(enumerate_sorted(_parse_parts(shape), nvars))

    if fmt == "json":
        records = []
        for f in roots:
            members = family(f)
            records.append({
                "root": f.to_json_dict(),
                "size": len(members),
                "members": [{"filling": g.to_json_dict(), "inv": inv(g),
                             "maj": maj(g)} for g in members],
            })
        _emit([json.dumps(r) + "\n" for r in records], output)
        return

    lines = ["digraph families {"]
    for f in roots:
        edges = family_tree(f)
        nodes = {f} | {c for _, c, _, _ in edges} | {p for p, _, _, _ in edges}
        rows = {g: g.rows() for g in nodes}
        label = {g: ";".join(",".join(map(str, row)) for row in rows[g])
                 for g in nodes}
        for g in sorted(nodes, key=rows.__getitem__):
            lines.append(f'  "{label[g]}";')
        for parent, child, i, r in sorted(edges, key=lambda e: (rows[e[0]],
                                                                rows[e[1]])):
            lines.append(f'  "{label[parent]}" -> "{label[child]}" '
                         f'[label="T_{i}^({r})"];')
    lines.append("}")
    _emit(["\n".join(lines) + "\n"], output)


# -- validation suites -------------------------------------------------------
# Each item function returns (label, ok, detail) and must stay importable at
# module level so the process pool can pick it up.

def _agree(a, b):
    """(a == b, and the FAIL detail: the first monomial where they differ,
    with the coefficient of each, or "")."""
    witness = diff_witness(a, b)
    if witness is None:
        return True, ""
    key, ca, cb = witness
    n = len(key) - 2
    return False, (f"first difference at x^{key[:n]} q^{key[n]} t^{key[n + 1]}"
                   f": {ca} vs {cb}")


def _check_compact_vs_brute(args):
    lam, n = args
    return (f"htilde compact=brute {lam} n={n}",
            *_agree(htilde_compact(lam, n), htilde_brute(lam, n)))


def _poch_scalar(parts, n):
    """The product of (t;t)_m over the multiplicities m of the parts."""
    return prod((t_pochhammer(m, n) for m in multiplicities(parts).values()),
                start=MPoly.one(n))


def _check_j(args):
    mu, n = args
    jc = j_compact(mu, n)
    ok, detail = _agree(jc, j_hhl(mu, n))
    if not ok:
        return (f"J compact=brute {mu} n={n}", False, detail)
    try:
        exact_div_xfree(jc, _poch_scalar(mu, n))
    except ExactDivisionError as exc:
        return (f"J divisibility {mu} n={n}", False, str(exc))
    return (f"J compact=brute+divisible {mu} n={n}", True, "")


def _check_family(args):
    """Compares each family's (maj, inv) tally, and its size, with the terms
    of the x-free perm_t(s) shifted by (maj(s), inv(s))."""
    lam, n = args
    seen = set()
    for s in enumerate_sorted(lam, n):
        fam = family(s)
        counts: dict[tuple[int, int], int] = {}  # (maj, inv) -> members
        for g in fam:
            if g.cols in seen:
                return (f"family partition {lam} n={n}", False,
                        f"duplicate member {g.rows()}")
            seen.add(g.cols)
            key = (maj(g), inv(g))
            counts[key] = counts.get(key, 0) + 1
        weight = perm_t(s).terms()
        m, i = maj(s), inv(s)
        if counts != {(a + m, b + i): c for (a, b), c in weight.items()}:
            return (f"family weights {lam} n={n}", False,
                    f"root {s.rows()}")
        at_t1: dict[int, int] = {}  # q exponent -> coefficient at t = 1
        for (a, _), c in weight.items():
            at_t1[a] = at_t1.get(a, 0) + c
        if {a: c for a, c in at_t1.items() if c} != {0: len(fam)}:
            return (f"family size {lam} n={n}", False, f"root {s.rows()}")
    total = n ** sum(lam)
    ok = len(seen) == total
    return (f"family partition {lam} n={n}", ok,
            "" if ok else f"covered {len(seen)} of {total}")


def _check_operators(args):
    """The flip lemmas (an involution, maj kept, inv one step) at each two
    unequal same-height neighbours of every filling; a shape without equal
    neighbours has no flip and passes without enumerating."""
    lam, n = args
    neighbours = [i for i in range(1, len(lam)) if lam[i - 1] == lam[i]]
    if not neighbours:
        return (f"operator lemmas {lam} n={n}", True, "")
    for f in enumerate_fillings(lam, n):
        pairs = [i for i in neighbours if f.cols[i - 1] != f.cols[i]]
        if not pairs:
            continue
        inv_f, maj_f = inv(f), maj(f)
        for i in pairs:
            g, r = flip(f, i)
            back, _ = flip(g, i)
            if back != f:
                return (f"involution {lam} n={n}", False, f"{f.rows()} col {i}")
            if maj(g) != maj_f:
                return (f"maj preserved {lam} n={n}", False,
                        f"{f.rows()} col {i}")
            pivot_ccw = (f.entry(i, 1) > f.entry(i + 1, 1)) if r == 1 else \
                tableaux.ccw((((i + 1, r), f.entry(i + 1, r)),
                              ((i, r), f.entry(i, r)),
                              ((i, r - 1), f.entry(i, r - 1))))
            expected = inv_f - 1 if pivot_ccw else inv_f + 1
            if inv(g) != expected:
                return (f"inv step {lam} n={n}", False, f"{f.rows()} col {i}")
    return (f"operator lemmas {lam} n={n}", True, "")


def _check_reverse(args):
    lam, n = args
    for s in enumerate_sorted(lam, n):
        for g in family(s):
            if sort_filling(g) != s:
                return (f"reverse {lam} n={n}", False, f"{g.rows()}")
    return (f"reverse {lam} n={n}", True, "")


def _check_hecke(args):
    alpha, n = args
    i = next((i for i in range(1, n) if alpha[i - 1] > alpha[i]), None)
    if i is None:
        return (f"hecke {alpha}", True, "no descent; skipped")
    swapped = list(alpha)
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    ok, detail = _agree(hecke_T(_suite_e_integral(alpha, n), i),
                        _suite_e_integral(tuple(swapped), n))
    return (f"hecke T_{i} {alpha}", ok, detail)


@lru_cache(maxsize=1024)
def _suite_e_integral(alpha, n):
    """e_integral, memoised for one suite run, as a composition's swap is
    itself an item of the hecke suite; cmd_validate empties the memo
    before every suite and after the run."""
    return e_integral(alpha, n)


def _check_tatom(args):
    alpha, n = args
    lhs = _poch_scalar(alpha, n) * demazure_t_atom(alpha, n)
    rhs = specialize(e_integral(alpha, n), {"q": 0})
    return (f"tatom {alpha}", *_agree(lhs, rhs))


def _check_quasisym(args):
    gamma, n = args
    try:
        qsym_expand(g_integral(gamma, n))
    except NotQuasisymmetricError as exc:
        return (f"quasisymmetry {gamma} n={n}", False, str(exc))
    return (f"quasisymmetry {gamma} n={n}", True, "")


def _check_refinement(args):
    lam, n = args
    total = sum((g_integral(g, n) for g in rearrangements(lam)), MPoly.zero(n))
    return (f"refinement {lam} n={n}", *_agree(total, j_compact(lam, n)))


def _check_schur(args):
    from .nonattacking import schur_oracle
    lam, n = args
    schur = schur_oracle(lam, n)
    ok, detail = _agree(specialize(j_compact(lam, n), {"q": 0, "t": 0}), schur)
    if not ok:
        return (f"schur J(0,0) {lam}", False, detail)
    total = sum((qs_gamma(g, n) for g in rearrangements(lam)), MPoly.zero(n))
    return (f"schur QS sum {lam}", *_agree(total, schur))


def _check_pds(args):
    n = args[0]
    words = {tableaux.pds(p) for p in rearrangements(range(1, n + 1))}
    for w in words:
        for h in range(len(w)):
            if w[h:] not in words:
                return (f"pds closure n={n}", False, f"{w} truncation {w[h:]}")
    if n >= 5:
        if tableaux.pds((2, 5, 1, 4, 3)) != (3, 1, 4, 3, 2):
            return ("pds worked example", False, "")
    return (f"pds closure n={n}", True, "")


def _partitions(mx, nvars=None):
    """(lam, n) for every partition lam of 1..mx, at each n in nvars, or at
    n = |lam| without nvars."""
    return [(lam, n) for m in range(1, mx + 1) for lam in partitions_of(m)
            for n in (nvars or (m,))]


SUITES = {
    "compact-vs-brute": (_check_compact_vs_brute, _partitions),
    "j-identities": (_check_j, _partitions),
    "family-partition": (_check_family, lambda mx: _partitions(mx, (2, 3))),
    "operator-lemmas": (_check_operators, lambda mx: _partitions(mx, (2, 3))),
    "reverse": (_check_reverse, lambda mx: _partitions(mx, (3,))),
    "hecke": (_check_hecke, lambda mx: [(a, 3) for m in range(mx + 1)
                                        for a in compositions(m, 3)]),
    "tatom": (_check_tatom, lambda mx: [(a, 3) for m in range(mx + 1)
                                        for a in compositions(m, 3)]),
    "quasisym": (_check_quasisym,
                 lambda mx: [(g, n) for n in (3, 4) for m in range(1, mx + 1)
                             for g in compositions(m) if len(g) <= n]),
    "refinement": (_check_refinement, _partitions),
    "schur": (_check_schur, _partitions),
    "pds": (_check_pds, lambda mx: [(n,) for n in range(2, max(mx, 4) + 1)]),
}


@main.command("validate")
@click.option("--suite", required=True)
@click.option("--max", "max_size", type=click.IntRange(min=0), default=4,
              show_default=True, metavar="INTEGER")
@click.option("--jobs", type=int, default=1, envvar="MACPOLY_JOBS",
              show_envvar=True,
              help="worker processes, clamped to 1..the CPU count")
@OUTPUT
def cmd_validate(suite, max_size, jobs, output):
    """Run an identity suite; exits 3 when a property fails."""
    names = sorted(SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in SUITES:
            raise click.UsageError(
                f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))} or all")

    jobs = max(1, min(jobs, os.cpu_count() or 1))
    lines = []
    failed = False
    with ExitStack() as stack:
        run = map
        if jobs > 1:  # one pool, shared by every suite of the run
            # Imported here: it pulls in multiprocessing, which costs every
            # other command its import time.
            from concurrent.futures import ProcessPoolExecutor
            run = stack.enter_context(ProcessPoolExecutor(max_workers=jobs)).map
        for name in names:
            check, items = SUITES[name]
            _suite_e_integral.cache_clear()
            for label, ok, detail in run(check, items(max_size)):
                lines.append(f"{'PASS' if ok else 'FAIL'} {label}"
                             + (f" ({detail})" if detail else "") + "\n")
                failed = failed or not ok
    _suite_e_integral.cache_clear()
    _emit(lines, output)
    if failed:
        sys.exit(IDENTITY_EXIT)


if __name__ == "__main__":
    main()
