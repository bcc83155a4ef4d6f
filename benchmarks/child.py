"""Run one CLI request in a child forked from the runner.

The runner imports ``macpoly.cli`` once; every request then runs in a fresh
fork, so no cache the package may keep survives from one request to the
next, and a crash or an out-of-memory kill fails only that request.  The
child's stdout goes to a pipe; an optional second pipe carries a side
channel (timings, spans) back to the runner.
"""

from __future__ import annotations

import os
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass

# exit status of a child whose command raised instead of exiting
CRASH_EXIT = 70


@dataclass
class ChildResult:
    stdout: bytes
    side: bytes
    exit_code: int        # -signal when killed by a signal
    maxrss_kb: int
    elapsed_s: float      # fork to reap
    timed_out: bool


def invoke_cli(argv) -> int:
    """Run the click command in this process; return its exit code."""
    from macpoly.cli import main
    try:
        main.main(args=list(argv), prog_name="macpoly", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    return 0


def run_in_child(body, timeout_s: float) -> ChildResult:
    """Fork, run ``body()`` in the child and collect what it wrote.

    ``body`` returns ``(exit_code, side_bytes)``.  The child's stdout is
    captured whole, its stderr discarded.  A child still running after
    ``timeout_s`` is killed and reported as timed out.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    out_r, out_w = os.pipe()
    side_r, side_w = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns
        code = CRASH_EXIT
        try:
            os.close(out_r)
            os.close(side_r)
            os.dup2(out_w, 1)
            # a stream of our own on fd 1, whatever sys.stdout was replaced by
            sys.stdout = open(1, "w", closefd=False)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 2)
            code, side = body()
            sys.stdout.flush()
            with os.fdopen(side_w, "wb") as fh:
                fh.write(side)
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(out_w)
    os.close(side_w)
    bufs = {out_r: [], side_r: []}
    open_fds = [out_r, side_r]
    deadline = t0 + timeout_s
    timed_out = False
    while open_fds:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            timed_out = True
            os.kill(pid, signal.SIGKILL)
            break
        ready, _, _ = select.select(open_fds, [], [], remaining)
        for fd in ready:
            data = os.read(fd, 1 << 16)
            if data:
                bufs[fd].append(data)
            else:
                open_fds.remove(fd)
    for fd in (out_r, side_r):
        os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    return ChildResult(b"".join(bufs[out_r]), b"".join(bufs[side_r]), code,
                       usage.ru_maxrss, elapsed, timed_out)
