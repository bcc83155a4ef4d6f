"""Record the reference output of every pooled request through the real CLI.

Usage, from the repository root::

    python3 benchmarks/record_expected.py

Each request runs as ``python3 -m macpoly.cli <argv>`` against ``src/``;
its stdout digest, byte count and exit code go to
``benchmarks/expected.json``, which the runner checks every output against.
Run it only at a commit whose outputs are known to be right: the CLI's
bytes never change, so the file changes only when a pool does.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pools import POOLS, SETUP_REQUEST, pool_requests  # noqa: E402


def request_key(argv) -> str:
    return " ".join(argv)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main():
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    env.pop("MACPOLY_JOBS", None)
    requests = [SETUP_REQUEST] + [r for w in POOLS for r in pool_requests(w)]
    out = {}
    for argv in requests:
        proc = subprocess.run([sys.executable, "-m", "macpoly.cli", *argv],
                              env=env, capture_output=True, check=False)
        out[request_key(argv)] = {"sha256": digest(proc.stdout),
                                  "bytes": len(proc.stdout),
                                  "exit": proc.returncode}
        print(f"{proc.returncode} {len(proc.stdout):>9} {request_key(argv)}",
              flush=True)
    with open(HERE / "expected.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
