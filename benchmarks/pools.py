"""Request pools of the three workloads and the seeded draw from them.

A pool is a list of cost classes.  Each class names how many of its
requests one sweep draws, or None when it is always drawn whole; only the
sampled classes change between seeds, and they hold requests of similar
cost.  The seed therefore changes which requests run and in what order,
never the number drawn from each class.
"""

from __future__ import annotations

import random


def _compute(selector, shape, n):
    return ("compute", selector, "--shape", shape, "--nvars", str(n))


def _htilde(shape, n):
    return _compute("htilde", shape, n)


def _validate(suite, k):
    return ("validate", "--suite", suite, "--max", str(k))


SUITES = ("compact-vs-brute", "family-partition", "hecke", "j-identities",
          "operator-lemmas", "pds", "quasisym", "refinement", "reverse",
          "schur", "tatom")

# The four suites that take 1.2-2.4 s each at max 5; they would fill most
# of a sweep, so they run at max 4 and below only.
_SLOW_AT_MAX5 = ("compact-vs-brute", "j-identities", "refinement", "schur")

# (class name, number drawn per sweep or None for all, requests).  Cost
# bands are fork-per-request latencies at the seed commit on a 2-CPU host:
# giant above 1.2 s, medium 0.35-0.85 s, light 0.02-0.25 s, tiny below
# 0.02 s.  Only the tiny and max1-2 classes are sampled, so the seed
# changes which requests run and their order but hardly moves the p50, the
# p90 or the wall time.  The p50 and p90 are taken over the list, each
# request at its median latency (see run.py), so each list puts them among
# requests of like cost.  The lists are short (a sweep of 4-8 s), so that
# a run repeats each several times.
POOLS = {
    "htilde-sorted": [
        ("giant", None, [_htilde("2,2,2", 6)]),
        # two like requests (0.55-0.65 s), twice each: the p90 falls inside
        ("medium", None, [_htilde(s, n) for s, n in [
            ("2,2,1", 6), ("1,1,1,1,1,1", 7)]] * 2),
        # the p50 falls in the middle of five like requests (40-50 ms)
        ("light", None, [_htilde(s, n) for s, n in [
            ("2,2", 4), ("2,2,1", 3), ("1,1,1,1", 5), ("2,1,1", 4),
            ("3,1", 4), ("2,2,2", 3), ("1,1,1,1", 6),
            ("2,2", 5), ("4", 5), ("3,3", 3), ("2,1,1", 5), ("1,1,1,1,1", 5),
            ("2,2,1", 4), ("3,1", 6)]]),
    ],
    "integral-nonattacking": [
        # two like requests (0.43-0.46 s), twice each: the p90 falls inside
        ("medium", None, [_compute("J", s, n) for s, n in [
            ("3,3", 5), ("5", 5)]] * 2),
        ("light", None, [
            *(_compute("J", s, n) for s, n in [
                ("2,2,1,1", 5), ("4,2", 3), ("2,2", 6), ("3,1", 5),
                ("4", 5), ("2,2,1", 6), ("3,1,1", 6)]),
            *(_compute("P", s, n) for s, n in [("3,1", 4), ("4,2", 3)]),
            *(_compute("G", g, n) for g, n in [("1,2,2", 5), ("1,3", 5)]),
            *(_compute("QS", g, n) for g, n in [
                ("1,3", 6), ("3,3", 5), ("3,3", 6)]),
        ]),
        ("tiny", 4, [
            *(_compute("E-integral", a, len(a.split(","))) for a in [
                "2,0,1,1", "0,2,2,0", "1,0,3,0", "0,3,1,1", "1,2,1,1",
                "3,2,1,0", "2,0,1,1,1", "0,1,2,0,2", "1,1,1,0,1,2"]),
            *(_compute("atom", a, 6) for a in [
                "2,0,1,1", "0,2,2,0", "3,2,1,0", "0,1,2,3", "1,1,2,2"]),
        ]),
    ],
    # Every suite runs at max 3 and 4, and all but _SLOW_AT_MAX5 at max 5.
    # max4 is listed twice, so the p50 falls on requests of 30-50 ms and
    # the p90 between the heavier max 4 requests (0.1-0.13 s) and hecke at
    # max 5 (0.16 s), each timed once or twice a sweep.
    "validate-sweep": [
        ("max5", None, [_validate(s, 5) for s in SUITES
                        if s not in _SLOW_AT_MAX5]),
        ("max4", None, [_validate(s, 4) for s in SUITES] * 2),
        ("max3", None, [_validate(s, 3) for s in SUITES]),
        ("max1-2", 6, [_validate(s, k) for k in (1, 2) for s in SUITES]),
    ],
}

# Fresh-interpreter request timed by the setup_s probe.
SETUP_REQUEST = _htilde("1", 1)


def pool_requests(workload: str) -> list[tuple[str, ...]]:
    return [req for _, _, reqs in POOLS[workload] for req in reqs]


def draw(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The seeded request list of one sweep: a per-class sample, shuffled."""
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for _, k, reqs in POOLS[workload]:
        out.extend(reqs if k is None else rng.sample(reqs, k))
    rng.shuffle(out)
    return out


def cost_class(workload: str, request) -> str:
    for name, _, reqs in POOLS[workload]:
        if tuple(request) in reqs:
            return name
    raise KeyError(request)
