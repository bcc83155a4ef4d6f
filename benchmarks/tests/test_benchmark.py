"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from child import run_in_child  # noqa: E402
from reference import reference_body  # noqa: E402
from pools import POOLS, SETUP_REQUEST, cost_class, draw, pool_requests  # noqa: E402

from macpoly import (demazure_t_atom, e_integral, g_integral,  # noqa: E402
                     g_poly, hecke_T, htilde_compact, j_compact, p_poly,
                     perm_t, qs_gamma)
from macpoly import cli  # noqa: E402
from macpoly.tableaux import enumerate_sorted  # noqa: E402

run.load_package()
from tracing import Replay, self_times  # noqa: E402

EXPECTED = run.load_expected()


def _mix(workload, seed):
    return Counter(cost_class(workload, r) for r in draw(workload, seed))


@pytest.mark.parametrize("workload", sorted(POOLS))
def test_same_seed_same_list_and_every_seed_same_class_mix(workload):
    assert draw(workload, 7) == draw(workload, 7)
    assert draw(workload, 7) != draw(workload, 8)
    assert _mix(workload, 7) == _mix(workload, 8) == _mix(workload, 123)


def test_median_latencies_keep_list_order_and_multiplicity():
    a, b = ("a",), ("b",)
    sweeps = [{"records": [{"argv": ["a"], "latency_s": 3.0},
                           {"argv": ["b"], "latency_s": 1.0},
                           {"argv": ["a"], "latency_s": 2.0}]},
              {"records": [{"argv": ["b"], "latency_s": 0.5},
                           {"argv": ["a"], "latency_s": 4.0}]}]
    assert run.median_latencies([b, a, b], sweeps) == [0.75, 3.0, 0.75]


def test_reference_computation_is_right_in_a_child():
    res = run_in_child(reference_body, 30)
    assert res.exit_code == 0 and not res.timed_out


def test_every_pooled_request_has_a_reference_output():
    for workload in POOLS:
        for argv in pool_requests(workload):
            assert EXPECTED[" ".join(argv)]["exit"] == 0, argv
    assert " ".join(SETUP_REQUEST) in EXPECTED


def test_forked_request_matches_reference():
    argv = ("compute", "htilde", "--shape", "2,2", "--nvars", "4")
    probes = []
    rec = run.timed_request(EXPECTED, probes)(argv, 0)
    assert rec["error"] == ""
    assert rec["maxrss_kb"] > 0 and rec["latency_s"] > 0 and rec["ref_s"] > 0
    assert [p["error"] for p in probes] == [""]  # set-up probed first


def test_planted_wrong_byte_is_a_failure(monkeypatch):
    argv = ("compute", "J", "--shape", "4,2", "--nvars", "3")
    real = cli._render_poly
    monkeypatch.setattr(cli, "_render_poly",
                        lambda value, fmt: real(value, fmt).replace("1", "2", 1))
    rec = run.timed_request(EXPECTED, [])(argv, 0)
    assert "differ from the reference" in rec["error"]


def test_crash_and_timeout_are_failures():
    res = run_in_child(lambda: 1 / 0, 10)
    assert res.exit_code != 0
    res = run_in_child(lambda: (__import__("time").sleep(5), (0, b""))[1], 0.2)
    assert res.timed_out
    assert run.check(("x",), res.stdout, res.exit_code, res.timed_out,
                     EXPECTED).startswith("timed out")


@pytest.mark.parametrize("lam,n", [((2, 1), 3), ((2, 2), 3), ((3, 1, 1), 3),
                                   ((2, 2, 1), 4)])
def test_replayed_accumulate_equals_htilde_compact(lam, n):
    assert Replay().htilde_compact(lam, n) == htilde_compact(lam, n)


@pytest.mark.parametrize("mu,n", [((2, 1), 3), ((2, 2), 4), ((3, 1, 1), 4),
                                  ((1, 1, 1), 3), ((3,), 4)])
def test_replayed_j_summands_equal_j_compact(mu, n):
    assert Replay().j_compact(mu, n) == j_compact(mu, n)
    assert Replay().p_poly(mu, n) == p_poly(mu, n)


@pytest.mark.parametrize("alpha", [(2, 0, 1), (0, 1, 2), (1, 2, 0, 1),
                                   (2, 0, 1, 1, 1)])
def test_replayed_integral_forms_and_atoms(alpha):
    n = len(alpha)
    assert Replay().e_integral(alpha, n) == e_integral(alpha, n)
    assert Replay().demazure_t_atom(alpha, n + 1) == demazure_t_atom(alpha, n + 1)
    p = e_integral(alpha, n)
    assert Replay().hecke_T(p, 1) == hecke_T(p, 1)


@pytest.mark.parametrize("gamma,n", [((2, 1), 3), ((1, 2), 4), ((2, 2), 4)])
def test_replayed_quasisymmetric_routes(gamma, n):
    assert Replay().g_integral(gamma, n) == g_integral(gamma, n)
    assert Replay().g_poly(gamma, n) == g_poly(gamma, n)
    assert Replay().qs_gamma(gamma, n) == qs_gamma(gamma, n)


def test_replayed_perm_t():
    fs = list(enumerate_sorted((2, 2, 1), 3))
    assert Replay().perm_t_batch(fs, 3) == [perm_t(f, 3) for f in fs]


def test_work_counts_repeat_and_spans_nest():
    counts, names = [], set()
    for _ in range(2):
        rep = Replay()
        with rep.installed():
            rep_value = cli.htilde_compact((2, 2), 3)
        counts.append(rep.counts)
        names |= {s[0] for s in rep.spans}
    assert rep_value == htilde_compact((2, 2), 3)
    assert counts[0] == counts[1]
    assert counts[0]["tableaux.enumerate_sorted.count"] == len(
        list(enumerate_sorted((2, 2), 3)))
    assert counts[0]["mpoly.result.terms"] == len(rep_value)
    assert {"tableaux.htilde_compact", "tableaux.enumerate_sorted",
            "tableaux.inv_maj", "tableaux.perm_t", "mpoly.t_multinomial",
            "mpoly.accumulate"} <= names
    assert cli.htilde_compact is htilde_compact  # restored


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 6.0, 0, 0]]
    assert self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


@pytest.mark.parametrize("argv", [
    ("compute", "htilde", "--shape", "2,2", "--nvars", "4"),
    ("compute", "P", "--shape", "4,2", "--nvars", "3"),
    ("compute", "G", "--shape", "1,3", "--nvars", "5"),
    ("compute", "QS", "--shape", "1,3", "--nvars", "6"),
    ("validate", "--suite", "family-partition", "--max", "3"),
    ("validate", "--suite", "schur", "--max", "3"),
])
def test_traced_request_reproduces_cli_bytes(argv):
    spans = []
    rec = run.traced_request(EXPECTED, spans)(argv, 0)
    assert rec["error"] == ""
    assert spans and rec["lib_s"] > 0
    assert rec["latency_s"] > rec["lib_s"]


def test_bare_benchmark_directory_exits_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "validate-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_summary_line_keys_and_provenance(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    light = [r for r in pool_requests("htilde-sorted")
             if cost_class("htilde-sorted", r) == "light"][:12]
    monkeypatch.setattr(run, "draw", lambda w, s: light)
    run.main(["--workload", "htilde-sorted", "--seed", "1", "--seconds",
              "0", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for name, m in last["metrics"].items():
        assert m["value"] > 0, name
    record = json.loads((tmp_path / "htilde-sorted-seed1-trace0.json").read_text())
    for key in ("python", "nproc", "commit", "seed", "requests_per_run"):
        assert key in record["provenance"]
