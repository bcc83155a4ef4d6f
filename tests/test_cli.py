import errno
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import macpoly
from macpoly import cli
from macpoly.cli import main
from macpoly.mpoly import MPoly
from macpoly.nonattacking import e_integral, j_compact, p_poly
from macpoly.quasisym import demazure_t_atom, g_poly, qs_gamma
from macpoly.tableaux import htilde_compact


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


@pytest.mark.parametrize("selector, shape, nvars", [
    ("E-integral", "1,0", "2"), ("G", "2,1", "3"), ("QS", "2,1", "3"),
    ("atom", "1,0", "2")])
def test_brute_on_a_single_route_selector_is_a_usage_error(selector, shape,
                                                           nvars):
    argv = ("compute", selector, "--shape", shape, "--nvars", nvars)
    assert run(*argv).exit_code == 0
    res = run(*argv, "--method", "brute")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"{selector} has a single route; --method brute" in res.output


@pytest.mark.parametrize("selector, witness", [
    ("htilde", "x^(0, 0) q^7 t^0: 0 vs 1"),
    ("J", "x^(0, 0) q^0 t^7: 0 vs -2"),
    # P's forms compare as cross-multiplied numerators, J * pr1 at each
    # side; pr1 starts at 1, so the stray t^7 shows as it is.
    ("P", "x^(0, 0) q^0 t^7: 0 vs -2")], ids=["htilde", "J", "P"])
def test_routes_that_disagree_name_the_first_differing_monomial(
        monkeypatch, selector, witness):
    real_htilde, real_j = cli.htilde_brute, cli.j_hhl
    monkeypatch.setattr(cli, "htilde_brute",
                        lambda lam, n: real_htilde(lam, n) + MPoly.q(n) ** 7)
    monkeypatch.setattr(cli, "j_hhl",
                        lambda lam, n: real_j(lam, n) - 2 * MPoly.t(n) ** 7)
    res = run("compute", selector, "--shape", "2,1", "--nvars", "2",
              "--method", "both")
    assert res.exit_code == cli.IDENTITY_EXIT
    assert res.stdout == ""
    assert res.stderr == (f"identity failure: compact and brute routes "
                          f"disagree for {selector} 2,1 (first difference at "
                          f"{witness})\n")


@pytest.mark.parametrize("selector, shape, nvars", [
    ("htilde", "2,1", "3"), ("htilde", "2,2", "2"), ("J", "2,1", "3"),
    ("J", "1,1", "2"), ("P", "2,1", "3"), ("P", "1", "2")])
def test_brute_method_evaluates_no_compact_route(monkeypatch, selector, shape,
                                                 nvars):
    import macpoly.cli as cli
    argv = ("compute", selector, "--shape", shape, "--nvars", nvars,
            "--method", "brute")
    before = run(*argv)

    def refuse(*args, **kwargs):
        raise AssertionError("the compact route was evaluated")

    for name in ("htilde_compact", "j_compact", "p_poly"):
        monkeypatch.setattr(cli, name, refuse)
    after = run(*argv)
    assert before.exit_code == after.exit_code == 0
    assert after.stdout_bytes == before.stdout_bytes
    monkeypatch.undo()
    compact = run(*argv[:-2])
    assert compact.exit_code == 0
    assert compact.stdout_bytes == after.stdout_bytes


@pytest.mark.parametrize("selector", ["J", "P"])
@pytest.mark.parametrize("method", ["compact", "brute", "both"])
def test_more_parts_than_variables_is_a_usage_error_on_every_route(selector,
                                                                   method):
    res = run("compute", selector, "--shape", "2,1", "--nvars", "1",
              "--method", method)
    assert res.exit_code == 2 and res.stdout == ""
    assert "need at least as many variables as parts" in res.output


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


def test_negative_validate_max_is_a_usage_error():
    res = run("validate", "--suite", "pds", "--max", "-3")
    assert res.exit_code == 2
    assert "Invalid value for '--max'" in res.output
    assert run("validate", "--suite", "pds", "--max", "0").exit_code == 0


def _is_small(text):
    """False for an option value that parses to integers too large for a
    quick request; malformed values are always welcome."""
    try:
        parts = [int(p) for chunk in text.split(";") for p in chunk.split(",")
                 if text.strip()]
    except ValueError:
        return True
    return len(parts) <= 4 and sum(abs(p) for p in parts) <= 4


# Option values: small integer lists, some well-formed and some not, short
# strings over digits and separators, and a few fixed oddities.
_LISTS = st.lists(st.integers(-1, 4), max_size=4).map(
    lambda parts: ",".join(map(str, parts)))
_VALUES = st.one_of(
    _LISTS, st.lists(_LISTS, min_size=1, max_size=3).map(";".join),
    st.integers(-2, 4).map(str),
    st.text(alphabet="0123459,;- x+_.", max_size=8),
    st.sampled_from(["", " ", ",", ";", "1,,2", "2;;1", "1;", "\u0661",
                     "9" * 30, "1e3", "0x2", "nan"]))


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from([
           ("compute", "htilde"), ("compute", "J"), ("compute", "P"),
           ("compute", "E-integral"), ("compute", "G"), ("compute", "QS"),
           ("compute", "atom"), ("enumerate", "fillings"),
           ("enumerate", "sorted"), ("enumerate", "nonattacking"),
           ("family",)]),
       shape=_VALUES, nvars=_VALUES, root=_VALUES, basement=_VALUES,
       with_root=st.booleans(), with_basement=st.booleans())
def test_malformed_option_values_never_raise(command, shape, nvars, root,
                                             basement, with_root,
                                             with_basement):
    assume(all(map(_is_small, (shape, nvars, root, basement))))
    argv = list(command)
    if command == ("family",) and with_root:
        argv += ["--root", root]
    else:
        argv += ["--shape", shape, "--nvars", nvars]
    if command == ("enumerate", "nonattacking") and with_basement:
        argv += ["--basement", basement]
    res = run(*argv)
    assert res.exit_code in (0, 2, 3), (argv, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), argv
    assert "Traceback" not in res.output


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


def test_enumerate_packed_filters_nonattacking_records():
    args = ("enumerate", "nonattacking", "--shape", "1,1", "--nvars", "3")
    rows = [json.loads(line)["filling"]["rows"]
            for line in run(*args).output.splitlines()]
    packed = [json.loads(line)["filling"]["rows"]
              for line in run(*args, "--packed").output.splitlines()]
    assert [[1, 3]] in rows
    assert packed == [[[1, 2]], [[2, 1]]]


# The text records of `enumerate`: rows top first, then the statistics; a
# sorted record leaves its perm_t polynomial out.
ENUMERATED_TEXT = {
    "sorted": ["[[1], [1, 1]] inv=0 maj=0", "[[1], [1, 2]] inv=0 maj=0",
               "[[2], [1, 1]] inv=0 maj=1", "[[2], [1, 2]] inv=0 maj=1",
               "[[1], [2, 1]] inv=1 maj=0", "[[1], [2, 2]] inv=0 maj=0",
               "[[2], [2, 1]] inv=1 maj=0", "[[2], [2, 2]] inv=0 maj=0"],
    "nonattacking": ["[[1, None], [1, 2]] coinv=1 maj=0",
                     "[[2, None], [1, 2]] coinv=1 maj=1",
                     "[[1, None], [2, 1]] coinv=0 maj=0",
                     "[[2, None], [2, 1]] coinv=0 maj=0"],
}


@pytest.mark.parametrize("kind", sorted(ENUMERATED_TEXT))
def test_enumerate_text_records(kind):
    res = run("enumerate", kind, "--shape", "2,1", "--nvars", "2",
              "--format", "text")
    assert res.exit_code == 0
    assert res.stdout.splitlines() == ENUMERATED_TEXT[kind]


@pytest.mark.parametrize("kind", ["fillings", "sorted"])
@pytest.mark.parametrize("option", [("--basement", "1,2"), ("--ordered",)])
def test_nonattacking_options_on_other_kinds_are_usage_errors(tmp_path, kind,
                                                              option):
    args = ("enumerate", kind, "--shape", "1,1", "--nvars", "2", *option)
    res = run(*args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"{option[0]} applies to nonattacking only" in res.output
    target = tmp_path / "out.jsonl"
    assert run(*args, "--output", str(target)).exit_code == 2
    assert not target.exists()


@pytest.mark.parametrize("basement", ["", " "])
def test_an_empty_basement_is_given_and_a_usage_error(basement):
    res = run("enumerate", "nonattacking", "--shape", "1,2", "--nvars", "2",
              "--basement", basement)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "basement length does not match the shape" in res.output


@pytest.mark.parametrize("given", [(), ("--shape", "2,1"), ("--nvars", "3")])
def test_family_without_a_root_or_both_shape_and_nvars_is_a_usage_error(given):
    res = run("family", *given)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "give either --root or both --shape and --nvars" in res.output


@pytest.mark.parametrize("extra", [
    ("--shape", "2,1"), ("--nvars", "3"), ("--shape", "2,1", "--nvars", "3")])
def test_family_root_with_shape_or_nvars_is_a_usage_error(extra):
    res = run("family", "--root", "2,1,1;1,1,3", *extra)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "--root takes neither --shape nor --nvars" in res.output


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


def test_family_rejects_rows_that_are_not_a_partition():
    res = run("family", "--root", "1,2;3")
    assert res.exit_code == 2
    assert "partition" in res.output
    assert res.stdout == ""
    assert json.loads(run("family", "--root", "").output)["size"] == 1


def test_family_rejects_a_shape_that_is_not_a_partition():
    res = run("family", "--shape", "0", "--nvars", "0")
    assert res.exit_code == 2
    assert "not a partition" in res.output


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    created: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, env, workers", [
    ("1000", None, [3]), (None, "1000", [3]), ("2", None, [2]),
    ("0", None, []), ("-5", None, []), ("1", None, [])])
def test_validate_jobs_are_clamped_to_the_cpu_count(monkeypatch, jobs, env,
                                                    workers):
    import macpoly.cli as cli
    # cmd_validate imports the pool class from concurrent.futures on use.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(_RecordingPool, "created", [])
    args = ["validate", "--suite", "pds", "--max", "2"]
    if jobs is not None:
        args += ["--jobs", jobs]
    res = CliRunner().invoke(main, args, env={"MACPOLY_JOBS": env})
    assert res.exit_code == 0
    assert _RecordingPool.created == workers


def test_enumerate_streams_records_as_they_are_produced(monkeypatch):
    import macpoly.cli as cli
    from macpoly.tableaux import Filling

    def two_then_fail(shape, n):
        yield Filling(((1,),))
        yield Filling(((2,),))
        raise RuntimeError("stopped mid-stream")

    monkeypatch.setattr(cli, "enumerate_fillings", two_then_fail)
    res = run("enumerate", "fillings", "--shape", "1", "--nvars", "2")
    assert isinstance(res.exception, RuntimeError)
    assert [json.loads(line)["filling"]["rows"]
            for line in res.stdout.splitlines()] == [[[1]], [[2]]]


@pytest.mark.parametrize("args", [
    ("nonattacking", "--shape", "2,1", "--nvars", "3", "--basement", "1,2"),
    ("nonattacking", "--shape", "2,1", "--nvars", "3", "--ordered"),
    ("sorted", "--shape", "1,2", "--nvars", "2"),
    ("fillings", "--shape", "1,2", "--nvars", "2", "--packed"),
])
def test_enumerate_usage_error_writes_nothing(tmp_path, args):
    res = run("enumerate", *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    target = tmp_path / "out.jsonl"
    assert run("enumerate", *args, "--output", str(target)).exit_code == 2
    assert not target.exists()


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


_OUTPUT_COMMANDS = {
    "compute": ("compute", "htilde", "--shape", "2,1", "--nvars", "2"),
    "enumerate": ("enumerate", "sorted", "--shape", "2,1", "--nvars", "2"),
    "family": ("family", "--shape", "2,1", "--nvars", "2"),
    "validate": ("validate", "--suite", "pds", "--max", "3"),
}


@pytest.mark.parametrize("command", sorted(_OUTPUT_COMMANDS))
def test_unwritable_output_is_a_usage_error_before_any_work(
        monkeypatch, tmp_path, command):
    import macpoly.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("computed before checking --output")

    for name in ("htilde_compact", "enumerate_sorted", "_check_pds"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setitem(cli.SUITES, "pds", (no_work, cli.SUITES["pds"][1]))
    argv = _OUTPUT_COMMANDS[command]
    for path, reason in [(tmp_path / "missing" / "out", "no directory"),
                         (tmp_path, "is a directory"),
                         (f"{tmp_path / 'missing'}/", "no directory")]:
        res = run(*argv, "--output", str(path))
        assert res.exit_code == 2, (path, res.output)
        assert str(path) in res.output and reason in res.output
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    res = run(*argv, "--output", str(tmp_path / "out"))
    assert res.exit_code == 2 and "is not writable" in res.output


_NO_DEVICE_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                     reason="no /dev/full on this system")


@_NO_DEVICE_FULL
@pytest.mark.parametrize("command", sorted(_OUTPUT_COMMANDS))
def test_an_output_that_fails_to_write_is_a_usage_error(command):
    res = run(*_OUTPUT_COMMANDS[command], "--output", "/dev/full")
    assert res.exit_code == 2, res.output
    assert "cannot write /dev/full" in res.output
    assert os.strerror(errno.ENOSPC) in res.output
    assert "Traceback" not in res.output


class _FailingStdout(io.StringIO):
    """A stdout whose writes raise ``error``."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


def test_a_stdout_that_fails_to_write_is_a_usage_error(monkeypatch):
    failing = _FailingStdout(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
    monkeypatch.setattr(cli.click, "get_text_stream", lambda name: failing)
    res = run(*_OUTPUT_COMMANDS["compute"])
    assert res.exit_code == 2, res.output
    assert "cannot write stdout" in res.output
    assert os.strerror(errno.ENOSPC) in res.output


def test_a_closed_pipe_is_left_to_click(monkeypatch):
    failing = _FailingStdout(BrokenPipeError(errno.EPIPE, "Broken pipe"))
    monkeypatch.setattr(cli.click, "get_text_stream", lambda name: failing)
    res = run(*_OUTPUT_COMMANDS["compute"])
    assert res.exit_code == 1 and "cannot write" not in res.output


class _Recording(io.StringIO):
    """A stream that keeps each write it is handed."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("size", [cli.WRITE_SLICE, 3 * cli.WRITE_SLICE + 7])
def test_emit_writes_slices_that_join_to_its_input(monkeypatch, tmp_path,
                                                   size):
    """`_emit` hands the --output file and stdout at most WRITE_SLICE
    characters per write, and the writes join to its input."""
    text = "".join(chr(32 + i % 95) for i in range(size - 1)) + "\n"
    path = tmp_path / "out"
    cli._emit([text], str(path))
    assert path.read_bytes() == text.encode()
    files = []

    def recording_open(file, mode):
        files.append(_Recording())
        return files[-1]

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    cli._emit([text], str(path))
    stdout = _Recording()
    monkeypatch.setattr(cli.click, "get_text_stream", lambda name: stdout)
    cli._emit([text], None)
    for stream in (*files, stdout):
        assert max(map(len, stream.writes)) <= cli.WRITE_SLICE
        assert len(stream.writes) == -(-size // cli.WRITE_SLICE)
        assert "".join(stream.writes).encode() == text.encode()
    assert len(files) == 1


@_NO_DEVICE_FULL
def test_a_full_stdout_exits_2_with_one_message_at_exit_too():
    # A real process, so that the flush of stdout at interpreter exit runs.
    env = dict(os.environ,
               PYTHONPATH=str(Path(macpoly.__file__).resolve().parents[1]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "macpoly.cli",
             *_OUTPUT_COMMANDS["compute"]],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True,
            timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Error: cannot write stdout" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


# Every kind of value `compute` prints, with the library call that makes it;
# htilde of () is a symmetric x^0 term, and P's denominator plain x^0 terms.
_RENDERED = [
    ("htilde", "2,1", 3, lambda: htilde_compact((2, 1), 3)),
    ("htilde", "", 0, lambda: htilde_compact((), 0)),
    ("J", "2,1", 3, lambda: j_compact((2, 1), 3)),
    ("P", "2,1", 3, lambda: p_poly((2, 1), 3)),
    ("G", "1,2", 3, lambda: g_poly((1, 2), 3)),
    ("QS", "1,2", 3, lambda: qs_gamma((1, 2), 3)),
    ("E-integral", "1,0,2", 3, lambda: e_integral((1, 0, 2), 3)),
    ("atom", "0,1,2", 3, lambda: demazure_t_atom((0, 1, 2), 3)),
]


@pytest.mark.parametrize("fmt", ["json", "text", "latex"])
@pytest.mark.parametrize("selector, shape, n, value", _RENDERED,
                         ids=[f"{s}-{sh}-{n}" for s, sh, n, _ in _RENDERED])
def test_render_poly_returns_the_whole_stdout_as_one_str(selector, shape, n,
                                                          value, fmt):
    """`_render_poly` hands back one `str`, the exact stdout of `compute`:
    a writer that returned chunks instead would fail here."""
    written = cli._render_poly(value(), fmt)
    assert type(written) is str
    res = run("compute", selector, "--shape", shape, "--nvars", str(n),
              "--format", fmt)
    assert res.exit_code == 0, res.output
    assert res.output == written


# The sha256 of `validate --suite all --max 5`'s stdout: every identity
# suite's PASS lines, which no change to a route may alter.
_ALL_SUITES_MAX_5 = ("b15aec8c922706d342fc0cc30fed6eefa87a9befb8de33be"
                     "026cf6125951ff10")


def test_validate_all_suites_keeps_its_bytes():
    res = run("validate", "--suite", "all", "--max", "5")
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == _ALL_SUITES_MAX_5


def _limit_address_space():
    """Cap the child's own address space at about 1.5 GB."""
    resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20))


@pytest.mark.parametrize("request_args", [
    ("compute", "htilde", "--shape", "3"),
    ("compute", "J", "--shape", "2,1"),
    ("compute", "G", "--shape", "1"),
    ("compute", "atom", "--shape", "1"),
    ("enumerate", "sorted", "--shape", "2"),
    ("family", "--shape", "2"),
], ids=lambda args: "-".join(args[:-2]))
def test_a_huge_nvars_is_a_usage_error(request_args):
    """Work that allocates per variable runs out of memory under the limit;
    the request ends as a usage error naming --nvars, not a traceback."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(macpoly.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "macpoly.cli", *request_args,
         "--nvars", "99999999999"],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert "Error: --nvars 99999999999 is too large" in proc.stderr
    assert "Traceback" not in proc.stderr
