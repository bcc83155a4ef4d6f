import json

import pytest
from click.testing import CliRunner

from macpoly.cli import main


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_compute_j_simple():
    res = run("compute", "J", "--shape", "1,1,1", "--nvars", "3",
              "--method", "both", "--format", "text")
    assert res.exit_code == 0
    assert res.output.startswith("x1*x2*x3")


def test_compute_htilde_both_routes_agree():
    res = run("compute", "htilde", "--shape", "2,1,1", "--nvars", "3",
              "--method", "both")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["nvars"] == 3


def test_compute_e_integral():
    res = run("compute", "E-integral", "--shape", "1,0", "--nvars", "2",
              "--format", "text")
    assert res.exit_code == 0
    assert res.output == "x1 - x1*t\n"
    # the variable count must equal the number of parts
    assert run("compute", "E-integral", "--shape", "1,0",
               "--nvars", "3").exit_code == 2


def test_compute_p_rational_form():
    res = run("compute", "P", "--shape", "1", "--nvars", "2")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert set(data) == {"numerator", "denominator"}
    den = data["denominator"]["terms"]
    assert [rec["c"] for rec in den] == ["1", "-1"]


def test_output_determinism():
    a = run("compute", "G", "--shape", "2,1", "--nvars", "3")
    b = run("compute", "G", "--shape", "2,1", "--nvars", "3")
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_usage_errors_exit_2():
    assert run("compute", "htilde", "--shape", "1,2", "--nvars", "2").exit_code == 2
    assert run("compute", "QS", "--shape", "1", "--nvars", "2",
               "--method", "both").exit_code == 2
    assert run("validate", "--suite", "unknown").exit_code == 2
    assert run("compute", "htilde", "--shape", "3,3,3", "--nvars", "3",
               "--method", "brute").exit_code == 2


@pytest.mark.parametrize("argv", [
    ("compute", "htilde", "--shape", "2,1", "--nvars", "-1"),
    ("compute", "J", "--shape", "1", "--nvars", "-3"),
    ("enumerate", "sorted", "--shape", "2,1", "--nvars", "-1"),
    ("enumerate", "nonattacking", "--shape", "1,1", "--nvars", "-1"),
])
def test_negative_nvars_is_a_usage_error(argv):
    res = run(*argv)
    assert res.exit_code == 2
    assert "Invalid value for '--nvars'" in res.output


def test_non_integer_macpoly_jobs_is_a_usage_error():
    res = CliRunner().invoke(main, ["validate", "--suite", "pds", "--max", "2"],
                             env={"MACPOLY_JOBS": "x"})
    assert res.exit_code == 2
    assert "MACPOLY_JOBS" in res.output and "'x'" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_cap_override():
    res = run("compute", "htilde", "--shape", "3,3,3", "--nvars", "2",
              "--method", "both", "--cap", "9")
    assert res.exit_code == 0


def test_enumerate_sorted_counts():
    res = run("enumerate", "sorted", "--shape", "2,1,1", "--nvars", "3")
    assert res.exit_code == 0
    assert len(res.output.splitlines()) == 54
    res = run("enumerate", "sorted", "--shape", "2,1,1", "--nvars", "3",
              "--packed")
    assert len(res.output.splitlines()) == 32


def test_enumerate_fillings_and_nonattacking():
    res = run("enumerate", "fillings", "--shape", "1", "--nvars", "2")
    assert len(res.output.splitlines()) == 2
    res = run("enumerate", "nonattacking", "--shape", "1,1", "--nvars", "2",
              "--ordered")
    assert len(res.output.splitlines()) == 1
    rec = json.loads(res.output)
    assert rec["filling"]["rows"] == [[2, 1]]


def test_family_json_and_dot():
    res = run("family", "--root", "2,1,1;1,1,3")
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert rec["size"] == 6
    res = run("family", "--root", "2,1,1;1,1,3", "--format", "dot")
    assert res.exit_code == 0
    assert res.output.count("->") == 5
    assert "T_1^(2)" in res.output


def test_family_rejects_unsorted_root():
    assert run("family", "--root", "2,1").exit_code == 2


def test_validate_suite_passes():
    res = run("validate", "--suite", "pds", "--max", "4")
    assert res.exit_code == 0
    assert all(line.startswith("PASS") for line in res.output.splitlines())


def test_validate_jobs_deterministic():
    a = run("validate", "--suite", "compact-vs-brute", "--max", "3")
    b = run("validate", "--suite", "compact-vs-brute", "--max", "3",
            "--jobs", "2")
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_output_file(tmp_path):
    target = tmp_path / "out.json"
    res = run("compute", "atom", "--shape", "1,0", "--nvars", "2",
              "--output", str(target))
    assert res.exit_code == 0
    data = json.loads(target.read_text())
    assert data["terms"][0]["x"] == [1, 0]
