"""macpoly benchmark runner.

Usage, from the repository root::

    python3 benchmarks/run.py --workload htilde-sorted --seed 1 --seconds 40 --trace 0

The runner imports ``macpoly.cli`` from ``src/`` once, draws the workload's
request list from ``--seed`` (see ``pools.py``) and sends the requests one
at a time (a closed loop with one client), each in a child forked fresh
from the runner.  It repeats the list ("a sweep") until ``--seconds``
have passed and at least two sweeps are complete; statistics use complete
sweeps only.  Every output is checked byte for byte against
``expected.json``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time of a
fresh interpreter answering a one-cell request, probed every few seconds),
the p50 and p90 of the request list, each request at its median latency
over the sweeps, ``wall`` (the same latencies added up), ``peak_rss_mb``
(largest child ``ru_maxrss``) and ``failed_frac``.  After every request
the runner also times the fixed computation of ``reference.py`` in a
fresh fork, and reports the p50, p90 and wall in units of its median time
in the run (``ref``): the host's speed drifts by tens of percent over
minutes, which stretches both and cancels.  The same figures in seconds
are printed and recorded too.  ``--trace 1`` runs
each request twice more instead, once under a library-call timer and once
under the span recorder of ``tracing.py``, and prints the per-layer
metrics.  The last line of stdout is a JSON summary; a full record, with
provenance, goes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from child import invoke_cli, run_in_child  # noqa: E402
from pools import POOLS, SETUP_REQUEST, cost_class, draw  # noqa: E402
from record_expected import digest, request_key  # noqa: E402
from reference import reference_body  # noqa: E402

REQUEST_TIMEOUT_S = 30.0
SETUP_TIMEOUT_S = 10.0
# No request starts later than this after the runner starts, so a run ends
# within 180 s even when one sweep takes longer than --seconds: a traced
# request runs two children of up to REQUEST_TIMEOUT_S each.
START_CUTOFF_S = 110.0
# A setup probe runs before the first request and then every this many
# seconds, between requests, so set-up time is sampled across the run.
PROBE_INTERVAL_S = 2.5
# Latency percentiles use at least this many copies of the request list.
MIN_SWEEPS = 2


def load_package():
    """Import macpoly.cli from this checkout's src/, or exit non-zero."""
    if not (SRC / "macpoly" / "cli.py").is_file():
        sys.exit(f"no macpoly sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import macpoly.cli
    if Path(macpoly.__file__).resolve().parent != (SRC / "macpoly").resolve():
        sys.exit(f"imported macpoly from {macpoly.__file__}, not from {SRC}")


def load_expected() -> dict:
    path = HERE / "expected.json"
    if not path.is_file():
        sys.exit(f"missing reference outputs {path}")
    with open(path) as fh:
        return json.load(fh)


def check(argv, stdout: bytes, code: int, timed_out: bool, expected) -> str:
    """Why the request failed, or '' when its output matches the reference."""
    if timed_out:
        return f"timed out after {REQUEST_TIMEOUT_S:g} s"
    ref = expected.get(request_key(argv))
    if ref is None:
        return "no reference output"
    if code != ref["exit"]:
        return f"exit {code}, expected {ref['exit']}"
    if digest(stdout) != ref["sha256"]:
        return f"{len(stdout)} output bytes differ from the reference"
    return ""


def setup_probe(expected) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "macpoly.cli",
                               *SETUP_REQUEST], env=env, capture_output=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        error = check(SETUP_REQUEST, proc.stdout, proc.returncode, False,
                      expected)
    except subprocess.TimeoutExpired:
        error = f"timed out after {SETUP_TIMEOUT_S:g} s"
    return {"argv": list(SETUP_REQUEST), "setup_s": time.perf_counter() - t0,
            "error": error}


def run_sweeps(requests, seconds: float, do_request, cutoff: float):
    """Issue the request list until ``seconds`` pass and MIN_SWEEPS sweeps
    are complete, or until the clock reaches ``cutoff``.  Returns the
    complete sweeps and the cut-off partial one."""
    start = time.perf_counter()
    sweeps = []
    rid = 0
    while True:
        t0 = time.perf_counter()
        records = []
        for argv in requests:
            now = time.perf_counter()
            enough = len(sweeps) >= MIN_SWEEPS and now - start >= seconds
            if enough or now >= cutoff:
                return sweeps, records
            records.append(do_request(argv, rid))
            rid += 1
        sweeps.append({"elapsed_s": time.perf_counter() - t0,
                       "records": records})
        if (len(sweeps) >= MIN_SWEEPS
                and time.perf_counter() - start >= seconds):
            return sweeps, []


def timed_request(expected, probes: list):
    next_probe = [0.0]

    def do(argv, rid):
        if time.perf_counter() >= next_probe[0]:
            probes.append(setup_probe(expected))
            next_probe[0] = time.perf_counter() + PROBE_INTERVAL_S
        res = run_in_child(lambda: (invoke_cli(argv), b""), REQUEST_TIMEOUT_S)
        ref = run_in_child(reference_body, REQUEST_TIMEOUT_S)
        error = check(argv, res.stdout, res.exit_code, res.timed_out,
                      expected)
        if not error and (ref.exit_code or ref.timed_out):
            error = "the reference computation failed"
        return {"id": rid, "argv": list(argv), "latency_s": res.elapsed_s,
                "ref_s": ref.elapsed_s, "maxrss_kb": res.maxrss_kb,
                "exit": res.exit_code, "error": error}
    return do


def _instrumented(instrument, argv, payload):
    """Child body: run the request under ``instrument``, report timings."""
    def body():
        with instrument.installed():
            t0 = time.perf_counter()
            code = invoke_cli(argv)
            cmd_s = time.perf_counter() - t0
        return code, json.dumps({"cmd_s": cmd_s, **payload()}).encode()
    return body


def traced_request(expected, spans_out: list):
    from tracing import LibTimer, Replay, self_times

    def do(argv, rid):
        timer, replay = LibTimer(), Replay(rid)
        bodies = [
            _instrumented(timer, argv, lambda: {"lib_s": timer.total_s}),
            _instrumented(replay, argv, lambda: {"spans": replay.spans,
                                                 "counts": replay.counts})]
        # alternate which child runs first, so neither gains from the order
        order = (0, 1) if rid % 2 == 0 else (1, 0)
        results = {k: run_in_child(bodies[k], REQUEST_TIMEOUT_S) for k in order}
        light, traced = results[0], results[1]
        rec = {"id": rid, "argv": list(argv), "latency_s": light.elapsed_s,
               "error": (check(argv, light.stdout, light.exit_code,
                               light.timed_out, expected)
                         or check(argv, traced.stdout, traced.exit_code,
                                  traced.timed_out, expected))}
        if rec["error"]:
            return rec
        side_light, side_traced = json.loads(light.side), json.loads(traced.side)
        offset = len(spans_out)
        for name, start, end, parent, req in side_traced["spans"]:
            spans_out.append([name, start, end,
                              parent + offset if parent >= 0 else -1, req])
        rec.update(lib_s=side_light["lib_s"], cmd_s=side_light["cmd_s"],
                   traced_cmd_s=side_traced["cmd_s"],
                   counts=side_traced["counts"],
                   self_s=self_times(side_traced["spans"]))
        return rec
    return do


def median_latencies(requests, sweeps) -> list[float]:
    """Each listed request's median latency over the complete sweeps, in
    list order (a request listed twice appears twice)."""
    seen: dict[tuple, list[float]] = {}
    for s in sweeps:
        for r in s["records"]:
            seen.setdefault(tuple(r["argv"]), []).append(r["latency_s"])
    return [statistics.median(seen[tuple(argv)]) for argv in requests]


def timed_metrics(requests, sweeps, probes):
    """End-to-end metrics, and the same latency figures in seconds."""
    lat = median_latencies(requests, sweeps)
    records = [r for s in sweeps for r in s["records"]]
    ref_s = statistics.median(r["ref_s"] for r in records)
    seconds = {"latency_p50_s": statistics.median(lat),
               "latency_p90_s": statistics.quantiles(lat, n=10)[-1],
               "wall_s": sum(lat), "ref_s": ref_s}
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "latency_p50_ref": (seconds["latency_p50_s"] / ref_s, "ref"),
        "latency_p90_ref": (seconds["latency_p90_s"] / ref_s, "ref"),
        "wall_ref": (seconds["wall_s"] / ref_s, "ref"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in records) / 1024, "MB"),
    }
    return metrics, seconds


def sweep_layers(sweep) -> dict:
    """Per-layer figures of one complete traced sweep."""
    from tracing import COUNTS, SELF_LAYERS

    recs = sweep["records"]
    out = {f"{layer}.self_s": (sum(r["self_s"].get(layer, 0.0) for r in recs),
                               "s")
           for layer in SELF_LAYERS}
    totals: dict[str, int] = {}
    for r in recs:
        for k, v in r["counts"].items():
            totals[k] = totals.get(k, 0) + v
    for layer in COUNTS:
        n = totals[f"{layer}.count"]
        out[f"{layer}.count"] = (n, "count")
        out[f"{layer}.packed_frac"] = (
            totals[f"{layer}.packed"] / n if n else 0.0, "ratio")
    out["mpoly.result.terms"] = (totals["mpoly.result.terms"], "count")
    out["cli.overhead_s"] = (sum(r["latency_s"] - r["lib_s"] for r in recs),
                             "s")
    out["trace.overhead_frac"] = (
        sum(r["traced_cmd_s"] for r in recs) / sum(r["cmd_s"] for r in recs)
        - 1, "ratio")
    return out


def traced_metrics(sweeps):
    """Median over complete sweeps; work counts must repeat exactly."""
    per_sweep = [sweep_layers(s) for s in sweeps]
    metrics, repeatable = {}, True
    for name, (_, unit) in per_sweep[0].items():
        values = [m[name][0] for m in per_sweep]
        if unit == "count" or name.endswith("packed_frac"):
            repeatable = repeatable and len(set(values)) == 1
        metrics[name] = (statistics.median(values), unit)
    return metrics, repeatable


def provenance(args, requests, sweeps) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": src_hash.hexdigest(),
            "requests_per_sweep": len(requests),
            "complete_sweeps": len(sweeps),
            "requests_per_run": sum(len(s["records"]) for s in sweeps)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(POOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cutoff = time.perf_counter() + START_CUTOFF_S

    load_package()
    expected = load_expected()
    os.environ.pop("MACPOLY_JOBS", None)  # requests run serially
    requests = draw(args.workload, args.seed)

    probes, spans = [], []
    if args.trace:
        do = traced_request(expected, spans)
    else:
        do = timed_request(expected, probes)
    sweeps, partial = run_sweeps(requests, args.seconds, do, cutoff)

    attempted = probes + [r for s in sweeps for r in s["records"]] + partial
    failures = [r for r in attempted if r["error"]]
    for r in failures:
        print(f"FAILED: macpoly {' '.join(r['argv'])}: {r['error']}",
              file=sys.stderr)
    correct = not failures and bool(sweeps)
    metrics, seconds = {}, {}
    if correct and args.trace:
        metrics, repeatable = traced_metrics(sweeps)
        if not repeatable:
            print("FAILED: work counts differ between sweeps of one list",
                  file=sys.stderr)
            correct = False
    elif correct:
        metrics, seconds = timed_metrics(requests, sweeps, probes)
    failed_frac = len(failures) / len(attempted)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for s in sweeps:
        for r in s["records"]:
            r["class"] = cost_class(args.workload, r["argv"])
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"provenance": provenance(args, requests, sweeps),
                   "correct": correct, "attempted": len(attempted),
                   "failed": len(failures), "failed_frac": failed_frac,
                   "seconds": seconds,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()},
                   "setup_probes": probes, "sweeps": sweeps,
                   "partial_sweep": partial}, fh, indent=1)
    if args.trace:
        with open(RESULTS / f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": spans}, fh)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    if not args.trace:
        for name, value in seconds.items():
            print(f"{name:40s} {value:14.6g} s")
        print(f"{'failed_frac':40s} {failed_frac:14.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": len(attempted),
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
