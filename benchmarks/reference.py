"""A fixed reference computation the runner times next to the requests.

The host the benchmark was written on is shared: its speed drifts by
10-50 % over seconds to minutes, and a whole run can fall in a slow
stretch, so no statistic of raw request times is steady from run to run.
The runner therefore times this computation, in a fresh fork like a
request, after every request, and reports latencies as multiples of its
median time in the same run (unit ``ref``).  A slowdown of the host
stretches both and cancels; a change to macpoly moves only the requests.

The computation multiplies small polynomials held as dicts of exponent
tuples, the same kind of work as macpoly's ``MPoly``, but imports nothing
from macpoly.  Never change it: that would rescale every ``ref`` figure.
"""

from __future__ import annotations

_BASE = {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1, (0, 0, 1, 0): 2,
         (0, 0, 0, 1): 1, (0, 0, 0, 0): 3}
POWER = 9
# number of terms of _BASE ** POWER: every monomial of degree <= 9 in 4
# variables has a non-zero coefficient
TERMS = 715


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def reference_body():
    """Child body for ``child.run_in_child``: exit 0 when the product has
    the known number of terms."""
    p = dict(_BASE)
    for _ in range(POWER - 1):
        p = _mul(p, _BASE)
    return (0 if len(p) == TERMS else 1), b""
