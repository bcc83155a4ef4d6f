"""Planted faults: each validate suite over the family walk, and the
integral-form suites, must fail when one of the library calls it relies on
is broken.

Every fault is planted by replacing one name on ``macpoly.cli``, the names
the suites call, so the checks themselves run unchanged; the exceptions are
the flip inside the family walk, ``tableaux._flip_cols``, the basement of
the integral forms, ``nonattacking.beta_perm``, and the column tables of
the brute-force oracles and, behind their memos, of the tableau statistics
and the flip, ``tableaux.inverted`` and ``nonattacking._side_by_side``,
which no suite calls by name.  A fault planted under a memo is planted
between two calls of ``clear_tableaux_memos``.  An error that is not the
identity's own, a bug, must not read as a failed identity.
"""

from math import inf
from operator import ne

from click.testing import CliRunner

import macpoly.cli as cli
from macpoly import nonattacking, tableaux
from macpoly.mpoly import ExactDivisionError, MPoly
from macpoly.quasisym import NotQuasisymmetricError
from macpoly.shapes import identity_perm
from macpoly.tableaux import Filling

from memos import clear_tableaux_memos


def validate(suite, mx):
    res = CliRunner().invoke(cli.main, ["validate", "--suite", suite,
                                        "--max", str(mx)])
    return res.exit_code, res.output.splitlines()


def failures(lines):
    return [line for line in lines if line.startswith("FAIL")]


def test_the_unplanted_suites_pass():
    for suite in ("family-partition", "reverse", "operator-lemmas"):
        code, lines = validate(suite, 3)
        assert code == 0 and lines and not failures(lines), suite


def test_a_family_missing_a_member_fails_its_weights(monkeypatch):
    # Every weight is a positive monomial, so a dropped member shows in the
    # weight sum of its root, which is checked before the coverage count.
    dropped = Filling(((2,), (1,)))  # in the family of the sorted ((1,), (2,))

    def short(s):
        return [g for g in tableaux.family(s) if g != dropped]

    monkeypatch.setattr(cli, "family", short)
    code, lines = validate("family-partition", 2)
    assert code == cli.IDENTITY_EXIT
    assert failures(lines) == [
        "FAIL family weights (1, 1) n=2 (root ((1, 2),))",
        "FAIL family weights (1, 1) n=3 (root ((1, 2),))"]


def test_a_root_left_out_fails_the_coverage(monkeypatch):
    # A root left out takes its whole family along: every family passes its
    # own checks, and only the count of covered fillings falls short.
    def all_but_the_last(shape, n):
        return list(tableaux.enumerate_sorted(shape, n))[:-1]

    monkeypatch.setattr(cli, "enumerate_sorted", all_but_the_last)
    code, lines = validate("family-partition", 2)
    assert code == cli.IDENTITY_EXIT
    assert "FAIL family partition (1, 1) n=2 (covered 3 of 4)" in lines
    assert "FAIL family partition (2,) n=3 (covered 8 of 9)" in lines


def test_a_repeated_member_is_a_duplicate(monkeypatch):
    def doubled(s):
        members = tableaux.family(s)
        return members + members[-1:]

    monkeypatch.setattr(cli, "family", doubled)
    code, lines = validate("family-partition", 2)
    assert code == cli.IDENTITY_EXIT
    assert "FAIL family partition (1,) n=2 (duplicate member ((1,),))" in lines
    assert all("duplicate member" in line for line in failures(lines))


def test_inv_off_by_one_on_one_filling_fails_the_family_weights(monkeypatch):
    off = Filling(((2,), (1,)))  # in the family of the sorted ((1,), (2,))

    def skewed(f):
        return tableaux.inv(f) + (f == off)

    monkeypatch.setattr(cli, "inv", skewed)
    code, lines = validate("family-partition", 2)
    assert code == cli.IDENTITY_EXIT
    assert failures(lines) == [
        "FAIL family weights (1, 1) n=2 (root ((1, 2),))",
        "FAIL family weights (1, 1) n=3 (root ((1, 2),))"]


def test_sort_filling_that_sorts_nothing_fails_reverse(monkeypatch):
    monkeypatch.setattr(cli, "sort_filling", lambda f: f)
    code, lines = validate("reverse", 2)
    assert code == cli.IDENTITY_EXIT
    assert "FAIL reverse (1, 1) n=3 (((2, 1),))" in lines


def test_flip_that_moves_nothing_fails_operator_lemmas(monkeypatch):
    def still(f, i):
        return f, tableaux.flip(f, i)[1]

    monkeypatch.setattr(cli, "flip", still)
    code, lines = validate("operator-lemmas", 2)
    assert code == cli.IDENTITY_EXIT
    assert "FAIL inv step (1, 1) n=2 (((1, 2),) col 1)" in lines


def test_flip_that_does_not_climb_fails_operator_lemmas(monkeypatch):
    # Swapping the pivot row alone is still an involution, but above a
    # repeat it turns the repeat into a descent.
    def pivot_only(f, i):
        a, b = list(f.cols[i - 1]), list(f.cols[i])
        k = next(k for k, (x, y) in enumerate(zip(a, b)) if x != y)
        a[k], b[k] = b[k], a[k]
        return Filling(f.cols[:i - 1] + (tuple(a), tuple(b))
                       + f.cols[i + 1:]), k + 1

    monkeypatch.setattr(cli, "flip", pivot_only)
    code, lines = validate("operator-lemmas", 4)
    assert code == cli.IDENTITY_EXIT
    assert "FAIL maj preserved (2, 2) n=2 (((1, 2), (1, 2)) col 1)" in lines


def test_flip_that_is_not_an_involution_fails_operator_lemmas(monkeypatch):
    # Putting the larger column first leaves a pair already in that order
    # as it is, so flipping the output does not give the input back.
    def larger_first(f, i):
        pair = tuple(sorted(f.cols[i - 1:i + 1], reverse=True))
        return Filling(f.cols[:i - 1] + pair + f.cols[i + 1:]), 1

    monkeypatch.setattr(cli, "flip", larger_first)
    code, lines = validate("operator-lemmas", 2)
    assert code == cli.IDENTITY_EXIT
    assert "FAIL involution (1, 1) n=2 (((1, 2),) col 1)" in lines


def test_perm_t_times_t_fails_the_family_weights(monkeypatch):
    monkeypatch.setattr(cli, "perm_t",
                        lambda f, n=0: tableaux.perm_t(f, n) * MPoly.t(n))
    code, lines = validate("family-partition", 2)
    assert code == cli.IDENTITY_EXIT
    assert failures(lines) == [
        f"FAIL family weights {lam} n={n} (root {root})"
        for lam, root in [((1,), ((1,),)), ((1, 1), ((1, 1),)),
                          ((2,), ((1,), (1,)))] for n in (2, 3)]


def test_perm_t_not_free_of_q_fails_the_family_size(monkeypatch):
    # perm_t with each t^e made q^e t^e, and maj raised by inv(g) - inv(s)
    # on each member g of the family of s: every (maj, inv) tally still
    # matches, and only perm_t at t = 1 differs from the family's size.
    def q_for_t(f, n=0):
        return MPoly(n, {k[:n] + (k[n + 1], k[n + 1]): c
                         for k, c in tableaux.perm_t(f, n).terms().items()})

    def raised(g):
        return (tableaux.maj(g) + tableaux.inv(g)
                - tableaux.inv(tableaux.sort_filling(g)))

    monkeypatch.setattr(cli, "perm_t", q_for_t)
    monkeypatch.setattr(cli, "maj", raised)
    code, lines = validate("family-partition", 2)
    assert code == cli.IDENTITY_EXIT
    assert failures(lines) == [
        "FAIL family size (1, 1) n=2 (root ((1, 2),))",
        "FAIL family size (1, 1) n=3 (root ((1, 2),))"]


def test_a_flip_that_does_not_climb_fails_the_family_weights(monkeypatch):
    # The family walk calls tableaux._flip_cols, not a name on cli.  The
    # tableaux memos are cleared around the patch, so a memo filled
    # earlier cannot hide the fault, and the mutant's entries do not
    # outlive this test.
    def pivot_only(cols, i):
        a, b = list(cols[i - 1]), list(cols[i])
        k = next(k for k, (x, y) in enumerate(zip(a, b)) if x != y)
        a[k], b[k] = b[k], a[k]
        return cols[:i - 1] + (tuple(a), tuple(b)) + cols[i + 1:], k + 1

    clear_tableaux_memos()
    monkeypatch.setattr(tableaux, "_flip_cols", pivot_only)
    try:
        code, lines = validate("family-partition", 4)
    finally:
        monkeypatch.undo()
        clear_tableaux_memos()
    assert code == cli.IDENTITY_EXIT
    assert failures(lines) == [
        f"FAIL family weights (2, 2) n={n} (root ((1, 2), (1, 2)))"
        for n in (2, 3)]


def test_the_cyclic_order_with_the_low_entries_first_fails_the_families(
        monkeypatch):
    # inv, the column order and the flip judge their triples through
    # tableaux.inverted behind memos keyed by columns.  The memos are
    # cleared before the patch, or answers tabled by an earlier test would
    # hide the fault, and after the undo, or the mutant's answers would
    # outlive this test.  The mutant reads the cyclic order upward from z
    # with the entries at most z first; row 1 is unchanged, so the first
    # shape to see it is (2, 2).
    suites = ("operator-lemmas", "family-partition")
    clear_tableaux_memos()
    monkeypatch.setattr(tableaux, "inverted",
                        lambda a, b, z=inf: (a > z, a) > (b > z, b))
    try:
        planted = [validate(suite, 4) for suite in suites]
    finally:
        monkeypatch.undo()
        clear_tableaux_memos()
    assert [(code, failures(lines)) for code, lines in planted] == [
        (cli.IDENTITY_EXIT, [f"FAIL inv step (2, 2) n={n} "
                             "(((1, 2), (1, 1)) col 1)" for n in (2, 3)]),
        (cli.IDENTITY_EXIT, [f"FAIL family weights (2, 2) n={n} "
                             "(root ((1, 2), (1, 2)))" for n in (2, 3)])]
    for suite in suites:
        code, lines = validate(suite, 4)
        assert code == 0 and lines and not failures(lines), suite


def test_an_identity_basement_fails_the_hecke_and_tatom_suites(monkeypatch):
    # Every basement of a diagram shares one walk plan and one weight table,
    # so the basement's entries are all that tells the integral forms of
    # one sorted shape apart; with the identity in place of the maximal
    # sorting permutation, both suites must see it.
    monkeypatch.setattr(nonattacking, "beta_perm",
                        lambda alpha: identity_perm(len(alpha)))
    for suite in ("hecke", "tatom"):
        code, lines = validate(suite, 3)
        assert code == cli.IDENTITY_EXIT, suite
        assert failures(lines), suite
    monkeypatch.undo()
    for suite in ("hecke", "tatom"):
        code, lines = validate(suite, 3)
        assert code == 0 and not failures(lines), suite


def test_the_hecke_suite_computes_each_integral_form_once_per_run(
        monkeypatch):
    # A composition's swap is itself an item of the suite; the memo holds
    # for one run only, so a second run computes every form again.
    calls = []

    def counted(alpha, n=None):
        calls.append(alpha)
        return nonattacking.e_integral(alpha, n)

    monkeypatch.setattr(cli, "e_integral", counted)
    for run in (1, 2):
        code, lines = validate("hecke", 5)
        assert code == 0 and not failures(lines)
        assert len(calls) == 54 * run and len(set(calls)) == 54


def test_inverted_flipped_over_the_basement_fails_compact_vs_brute(
        monkeypatch):
    # The sorted walk inlines its own inversion test, so only htilde_brute,
    # which tables the inv of two columns through tableaux.inverted, sees
    # the fault; every shape with a row-1 pair fails.
    real = tableaux.inverted
    monkeypatch.setattr(tableaux, "inverted",
                        lambda a, b, z=inf: real(a, b, z) != (z == inf))
    code, lines = validate("compact-vs-brute", 3)
    assert code == cli.IDENTITY_EXIT
    assert failures(lines) == [
        f"FAIL htilde compact=brute {lam} n={n} (first difference at "
        f"x^{x} q^0 t^0: 1 vs 0)"
        for lam, n, x in [((1, 1), 2, (0, 2)), ((1, 1, 1), 3, (0, 0, 3)),
                          ((2, 1), 3, (0, 0, 3))]]


def test_columns_side_by_side_one_row_apart_fail_j_identities(monkeypatch):
    # With the attack of a cell on the cell one row up in a column to its
    # right dropped, j_hhl keeps fillings that j_compact's walk does not.
    # The first partition with a right column two cells tall is (2, 2), so
    # the suite needs --max 4 to see it.
    monkeypatch.setattr(nonattacking, "_side_by_side",
                        lambda left, right: all(map(ne, left, right)))
    code, lines = validate("j-identities", 4)
    assert code == cli.IDENTITY_EXIT
    assert failures(lines) == [
        "FAIL J compact=brute (2, 2) n=4 "
        "(first difference at x^(0, 0, 2, 2) q^1 t^1: -1 vs 0)"]


def _plus(real, extra):
    """real with the monomial extra(n) added to each of its results."""
    return lambda value, n: real(value, n) + extra(n)


def test_a_j_with_a_stray_q_fails_refinement_with_a_witness(monkeypatch):
    # J_lam at x^0 q^1 t^0 is 0, and the sum of the G_gamma stays so; no
    # key of lower degree differs, so each line names that monomial.
    monkeypatch.setattr(cli, "j_compact", _plus(cli.j_compact, MPoly.q))
    code, lines = validate("refinement", 2)
    assert code == cli.IDENTITY_EXIT
    assert failures(lines) == [
        f"FAIL refinement {lam} n={n} (first difference at x^{(0,) * n} "
        "q^1 t^0: 0 vs 1)" for lam, n in [((1,), 1), ((1, 1), 2), ((2,), 2)]]


def test_a_stray_constant_or_t_fails_each_schur_check_with_a_witness(
        monkeypatch):
    # A constant survives q = t = 0 and fails J(0,0); a t in each QS_gamma
    # leaves J(0,0) alone and fails the QS sum.
    lams = [(1,), (1, 1), (2,)]
    for name, extra, check, key in [
            ("j_compact", MPoly.one, "J(0,0)", "q^0 t^0"),
            ("qs_gamma", MPoly.t, "QS sum", "q^0 t^1")]:
        with monkeypatch.context() as m:
            m.setattr(cli, name, _plus(getattr(cli, name), extra))
            code, lines = validate("schur", 2)
        assert code == cli.IDENTITY_EXIT
        assert failures(lines) == [
            f"FAIL schur {check} {lam} (first difference at "
            f"x^{(0,) * sum(lam)} {key}: 1 vs 0)" for lam in lams]


def test_a_stray_q_fails_tatom_and_hecke_with_a_witness(monkeypatch):
    # Each suite's left side gains q (times a scalar with constant term 1
    # for tatom) where its right side has no x-free q term.
    witness = "(first difference at x^(0, 0, 0) q^1 t^0: 1 vs 0)"
    monkeypatch.setattr(cli, "demazure_t_atom",
                        _plus(cli.demazure_t_atom, MPoly.q))
    code, lines = validate("tatom", 1)
    assert code == cli.IDENTITY_EXIT
    assert failures(lines) == [f"FAIL tatom {alpha} {witness}" for alpha in
                               [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]]
    real = cli.hecke_T
    monkeypatch.setattr(cli, "hecke_T",
                        lambda p, i: real(p, i) + MPoly.q(p.nvars))
    code, lines = validate("hecke", 1)
    assert code == cli.IDENTITY_EXIT
    assert failures(lines) == [
        f"FAIL hecke T_{i} {alpha} {witness}"
        for i, alpha in [(2, (0, 1, 0)), (1, (1, 0, 0))]]


def _raising(exc):
    def planted(*args):
        raise exc
    return planted


def test_a_remainder_fails_j_identities_and_a_bug_does_not(monkeypatch):
    # Only the exception of an inexact division is an identity failure; any
    # other error in the check is a bug and must not print as FAIL.
    monkeypatch.setattr(cli, "exact_div_xfree",
                        _raising(ExactDivisionError("planted remainder")))
    code, lines = validate("j-identities", 1)
    assert code == cli.IDENTITY_EXIT
    assert failures(lines) == [
        "FAIL J divisibility (1,) n=1 (planted remainder)"]
    monkeypatch.setattr(cli, "exact_div_xfree", _raising(TypeError("bug")))
    res = CliRunner().invoke(cli.main, ["validate", "--suite", "j-identities",
                                        "--max", "1"])
    assert isinstance(res.exception, TypeError)
    assert res.exit_code not in (0, cli.IDENTITY_EXIT)
    assert not failures(res.output.splitlines())


def test_a_witness_fails_quasisym_and_a_bug_does_not(monkeypatch):
    monkeypatch.setattr(cli, "qsym_expand", _raising(
        NotQuasisymmetricError("planted witness", (None, None))))
    code, lines = validate("quasisym", 1)
    assert code == cli.IDENTITY_EXIT
    assert failures(lines) == [f"FAIL quasisymmetry (1,) n={n} "
                               "(planted witness)" for n in (3, 4)]
    monkeypatch.setattr(cli, "qsym_expand", _raising(TypeError("bug")))
    res = CliRunner().invoke(cli.main, ["validate", "--suite", "quasisym",
                                        "--max", "1"])
    assert isinstance(res.exception, TypeError)
    assert res.exit_code not in (0, cli.IDENTITY_EXIT)
    assert not failures(res.output.splitlines())
