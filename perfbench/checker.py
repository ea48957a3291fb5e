"""Output checks in a process of their own, so they never count in the worker.

The worker starts one checker per timed pass (``Checker``) and hands it
each op's output after the clock stops.  The checks' reference
computations (oracle density matrices, fresh grids, parsed CSVs) then
allocate here and not in the worker, whose peak resident memory is the
program's own.

Protocol: one JSON line per op on standard input, ``{"op": ..., "rc":
..., "path": ...}``, answered by one JSON line ``[status, reason]`` on
standard output.  The checker exits at end of input.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


class Checker:
    """Client side: a running checker process, used as a context manager."""

    def __init__(self, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def check(self, op, rc, path: str):
        request = {"op": op.describe(), "rc": rc, "path": path}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"checker exited with {self.proc.poll()}")
        status, reason = json.loads(line)
        return status, reason

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve(seed: int) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import checks
    import workloads

    # Verdicts go to the real standard output; anything the program
    # prints goes to standard error instead.
    channel, sys.stdout = sys.stdout, sys.stderr
    for line in sys.stdin:
        request = json.loads(line)
        op = workloads.Op(**request["op"])
        try:
            verdict = checks.check(op, request["rc"], request["path"], seed)
        except Exception:
            verdict = ("wrong", traceback.format_exc(limit=-3))
        channel.write(json.dumps(list(verdict)) + "\n")
        channel.flush()
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    sys.exit(serve(parser.parse_args().seed))
