"""Command-line front end: compute, enumerate, family, validate.

Exit codes: 0 success, 2 usage error, 3 a mathematical identity failed.
Output is deterministic: identical requests produce identical bytes.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import chain, islice, permutations, product

import click

from . import tableaux
from .mpoly import MPoly, RationalForm, exact_div_xfree, specialize, t_pochhammer
from .nonattacking import (coinv, e_integral, enumerate_na, j_compact, j_hhl,
                           maj_na, p_poly, pr1)
from .quasisym import (demazure_t_atom, g_integral, g_poly, hecke_T, qs_gamma,
                       qsym_expand)
from .shapes import check_partition, multiplicities, partitions_of
from .tableaux import (Filling, enumerate_fillings, enumerate_sorted, family,
                       family_tree, flip, htilde_brute, htilde_compact, inv,
                       is_sorted, maj, perm_t, sort_filling)

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
    try:
        return Filling.from_rows(rows)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _emit(lines, output):
    """Write each line as it is produced, to the output file or stdout."""
    if output:
        with open(output, "w") as fh:
            fh.writelines(lines)
    else:
        out = click.get_text_stream("stdout")
        out.writelines(lines)
        out.flush()


def _render_poly(value, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(value.to_json_dict()) + "\n"
    if fmt == "latex":
        return value.latex() + "\n"
    return value.text() + "\n"


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
@click.option("--format", "fmt", type=click.Choice(["json", "latex", "text"]),
              default="json", show_default=True)
@click.option("--cap", type=int, default=8, show_default=True,
              help="size cap for brute-force routes")
@click.option("--output", type=click.Path(), default=None)
def cmd_compute(selector, shape, nvars, method, fmt, cap, output):
    """Compute one polynomial; --method both cross-checks two routes."""
    parts = _parse_parts(shape)
    two_route = selector in ("htilde", "J", "P")
    if method == "both" and not two_route:
        raise click.UsageError(f"{selector} has a single route; "
                               "--method both applies to htilde, J, P")
    if method in ("brute", "both") and two_route and sum(parts) > cap:
        raise click.UsageError(
            f"|shape| = {sum(parts)} exceeds the brute-force cap {cap}; "
            "raise --cap to force")

    def routes():
        if selector == "htilde":
            lam = check_partition(parts)
            return htilde_compact(lam, nvars), lambda: htilde_brute(lam, nvars)
        if selector == "J":
            lam = check_partition(parts)
            return j_compact(lam, nvars), lambda: j_hhl(lam, nvars)
        if selector == "P":
            lam = check_partition(parts)
            return p_poly(lam, nvars), \
                lambda: RationalForm(j_hhl(lam, nvars), pr1(lam, nvars))
        if selector == "E-integral":
            return e_integral(parts, nvars), None
        if selector == "G":
            return g_poly(parts, nvars), None
        if selector == "QS":
            return qs_gamma(parts, nvars), None
        return demazure_t_atom(parts, nvars), None

    try:
        primary, brute_route = routes()
    except ValueError as exc:
        raise click.UsageError(str(exc))

    value = primary
    if method != "compact" and brute_route is not None:
        brute_value = brute_route()
        if method == "brute":
            value = brute_value
        elif not (primary == brute_value):
            click.echo(f"identity failure: compact and brute routes disagree "
                       f"for {selector} {shape}", err=True)
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
@click.option("--output", type=click.Path(), default=None)
def cmd_enumerate(kind, shape, nvars, basement, ordered, packed, fmt, output):
    """Stream objects with their statistics, one record per line."""
    from .tableaux import is_packed
    parts = _parse_parts(shape)
    base = tuple(_parse_parts(basement)) if basement else None

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
                yield {"filling": f.to_json_dict(), "coinv": coinv(f),
                       "maj": maj_na(f)}

    # The enumerators check their input before their first object, so
    # taking the first record turns a bad input into a usage error before
    # anything is written.
    stream = records()
    try:
        first = list(islice(stream, 1))
    except ValueError as exc:
        raise click.UsageError(str(exc))

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
@click.option("--output", type=click.Path(), default=None)
def cmd_family(shape, nvars, root, fmt, output):
    """Families of sorted tableaux, optionally as an operator tree."""
    if root is None and (shape is None or nvars is None):
        raise click.UsageError("give either --root or both --shape and --nvars")
    if root is not None:
        f = _parse_rows(root)
        if not is_sorted(f):
            raise click.UsageError("--root is not a sorted tableau")
        roots = [f]
    else:
        try:
            roots = list(enumerate_sorted(_parse_parts(shape), nvars))
        except ValueError as exc:
            raise click.UsageError(str(exc))

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
        label = {g: ";".join(",".join(map(str, row)) for row in g.rows())
                 for g in nodes}
        for g in sorted(nodes, key=lambda g: g.rows()):
            lines.append(f'  "{label[g]}";')
        for parent, child, i, r in sorted(edges, key=lambda e: (e[0].rows(),
                                                                e[1].rows())):
            lines.append(f'  "{label[parent]}" -> "{label[child]}" '
                         f'[label="T_{i}^({r})"];')
    lines.append("}")
    _emit(["\n".join(lines) + "\n"], output)


# -- validation suites -------------------------------------------------------
# Each item function returns (label, ok, detail) and must stay importable at
# module level so the process pool can pick it up.

def _check_compact_vs_brute(args):
    lam, n = args
    ok = htilde_compact(lam, n) == htilde_brute(lam, n)
    return (f"htilde compact=brute {lam} n={n}", ok, "")


def _check_j(args):
    mu, n = args
    jc, jh = j_compact(mu, n), j_hhl(mu, n)
    if jc != jh:
        return (f"J compact=brute {mu} n={n}", False, "routes disagree")
    scal = MPoly.one(n)
    for m in multiplicities(mu).values():
        scal = scal * t_pochhammer(m, n)
    try:
        exact_div_xfree(jc, scal)
    except Exception as exc:
        return (f"J divisibility {mu} n={n}", False, str(exc))
    return (f"J compact=brute+divisible {mu} n={n}", True, "")


def _check_family(args):
    lam, n = args
    q, t = MPoly.q(n), MPoly.t(n)
    seen = set()
    for s in enumerate_sorted(lam, n):
        fam = family(s)
        lhs = MPoly.zero(n)
        for g in fam:
            if g in seen:
                return (f"family partition {lam} n={n}", False,
                        f"duplicate member {g.rows()}")
            seen.add(g)
            lhs = lhs + q ** maj(g) * t ** inv(g)
        rhs = q ** maj(s) * t ** inv(s) * perm_t(s, n)
        if lhs != rhs:
            return (f"family weights {lam} n={n}", False,
                    f"root {s.rows()}")
        size = specialize(perm_t(s, n), {"t": 1})
        if MPoly.const(n, len(fam)) != size:
            return (f"family size {lam} n={n}", False, f"root {s.rows()}")
    total = n ** sum(lam)
    ok = len(seen) == total
    return (f"family partition {lam} n={n}", ok,
            "" if ok else f"covered {len(seen)} of {total}")


def _check_operators(args):
    lam, n = args
    for f in enumerate_fillings(lam, n):
        shape = f.shape
        for i in range(1, len(shape)):
            if shape[i - 1] != shape[i] or f.cols[i - 1] == f.cols[i]:
                continue
            g, r = flip(f, i)
            back, _ = flip(g, i)
            if back != f:
                return (f"involution {lam} n={n}", False, f"{f.rows()} col {i}")
            if maj(g) != maj(f):
                return (f"maj preserved {lam} n={n}", False,
                        f"{f.rows()} col {i}")
            pivot_ccw = (f.entry(i, 1) > f.entry(i + 1, 1)) if r == 1 else \
                tableaux.ccw((((i + 1, r), f.entry(i + 1, r)),
                              ((i, r), f.entry(i, r)),
                              ((i, r - 1), f.entry(i, r - 1))))
            expected = inv(f) - 1 if pivot_ccw else inv(f) + 1
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
    ok = hecke_T(e_integral(alpha, n), i) == e_integral(tuple(swapped), n)
    return (f"hecke T_{i} {alpha}", ok, "")


def _check_tatom(args):
    alpha, n = args
    scal = MPoly.one(n)
    for m in multiplicities(alpha).values():
        scal = scal * t_pochhammer(m, n)
    lhs = scal * demazure_t_atom(alpha, n)
    rhs = specialize(e_integral(alpha, n), {"q": 0})
    return (f"tatom {alpha}", lhs == rhs, "")


def _check_quasisym(args):
    gamma, n = args
    try:
        qsym_expand(g_integral(gamma, n))
    except Exception as exc:
        return (f"quasisymmetry {gamma} n={n}", False, str(exc))
    return (f"quasisymmetry {gamma} n={n}", True, "")


def _check_refinement(args):
    lam, n = args
    total = MPoly.zero(n)
    for gamma in sorted(set(permutations(lam))):
        total = total + g_integral(gamma, n)
    ok = total == j_compact(lam, n)
    return (f"refinement {lam} n={n}", ok, "")


def _check_schur(args):
    from .nonattacking import schur_oracle
    lam, n = args
    j00 = specialize(j_compact(lam, n), {"q": 0, "t": 0})
    if j00 != schur_oracle(lam, n):
        return (f"schur J(0,0) {lam}", False, "")
    total = MPoly.zero(n)
    for gamma in sorted(set(permutations(lam))):
        total = total + qs_gamma(gamma, n)
    ok = total == schur_oracle(lam, n)
    return (f"schur QS sum {lam}", ok, "")


def _check_pds(args):
    n = args[0]
    import itertools as it
    words = {tableaux.pds(p) for p in it.permutations(range(1, n + 1))}
    for w in words:
        for h in range(len(w)):
            if w[h:] not in words:
                return (f"pds closure n={n}", False, f"{w} truncation {w[h:]}")
    if n >= 5:
        if tableaux.pds((2, 5, 1, 4, 3)) != (3, 1, 4, 3, 2):
            return ("pds worked example", False, "")
    return (f"pds closure n={n}", True, "")


def _weak_comps(n, max_deg):
    for deg in range(max_deg + 1):
        for alpha in product(range(deg + 1), repeat=n):
            if sum(alpha) == deg:
                yield alpha


SUITES = {
    "compact-vs-brute": (_check_compact_vs_brute,
                         lambda mx: [(lam, m) for m in range(1, mx + 1)
                                     for lam in partitions_of(m)]),
    "j-identities": (_check_j, lambda mx: [(lam, m) for m in range(1, mx + 1)
                                           for lam in partitions_of(m)]),
    "family-partition": (_check_family,
                         lambda mx: [(lam, n) for m in range(1, mx + 1)
                                     for lam in partitions_of(m)
                                     for n in (2, 3)]),
    "operator-lemmas": (_check_operators,
                        lambda mx: [(lam, n) for m in range(1, mx + 1)
                                    for lam in partitions_of(m)
                                    for n in (2, 3)]),
    "reverse": (_check_reverse, lambda mx: [(lam, 3) for m in range(1, mx + 1)
                                            for lam in partitions_of(m)]),
    "hecke": (_check_hecke, lambda mx: [(a, 3) for a in _weak_comps(3, mx)]),
    "tatom": (_check_tatom, lambda mx: [(a, 3) for a in _weak_comps(3, mx)]),
    "quasisym": (_check_quasisym,
                 lambda mx: [(g, n) for n in (3, 4)
                             for g in _strong_comps_upto(mx) if len(g) <= n]),
    "refinement": (_check_refinement,
                   lambda mx: [(lam, m) for m in range(1, mx + 1)
                               for lam in partitions_of(m)]),
    "schur": (_check_schur, lambda mx: [(lam, m) for m in range(1, mx + 1)
                                        for lam in partitions_of(m)]),
    "pds": (_check_pds, lambda mx: [(n,) for n in range(2, max(mx, 4) + 1)]),
}


def _strong_comps_upto(max_deg):
    out = []
    for deg in range(1, max_deg + 1):
        def gen(rest):
            if rest == 0:
                yield ()
                return
            for first in range(1, rest + 1):
                for tail in gen(rest - first):
                    yield (first,) + tail
        out.extend(gen(deg))
    return out


@main.command("validate")
@click.option("--suite", required=True)
@click.option("--max", "max_size", type=click.IntRange(min=0), default=4,
              show_default=True, metavar="INTEGER")
@click.option("--jobs", type=int, default=1, envvar="MACPOLY_JOBS",
              show_envvar=True,
              help="worker processes, clamped to 1..the CPU count")
@click.option("--output", type=click.Path(), default=None)
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
    for name in names:
        check, items = SUITES[name]
        work = items(max_size)
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(check, work))
        else:
            results = [check(w) for w in work]
        for label, ok, detail in results:
            lines.append(f"{'PASS' if ok else 'FAIL'} {label}"
                         + (f" ({detail})" if detail else ""))
            failed = failed or not ok
    text = "\n".join(lines) + "\n"
    _emit([text], output)
    if failed:
        sys.exit(IDENTITY_EXIT)


if __name__ == "__main__":
    main()
