"""A fixed reference kernel that measures how fast the host runs right now.

    python3 perfbench/hostspeed.py    # one line in, one JSON line of part seconds out

run.py starts this file as a child process on its own pinned CPU and asks it
for a timing after every op, so the kernel's memory never counts in the run's
peak RSS.

On a shared host the same op can take up to twice as long a minute later,
because the CPU itself slows down: no steal time is accounted, and
`process_time` tracks wall time. run.py times this kernel next to every op
and every setup probe, and reports each time scaled to a host on which the
kernel's parts take their NOMINAL_S:

    normalised seconds = wall seconds * sum(NOMINAL_S[part]) / sum(part seconds)

summed over the parts chosen for the workload (run.REFERENCE_PARTS).

The kernel is the benchmark's own code and calls nothing in zentropy, so a
change to the program moves the op time and not the reference. Its three
parts do the three kinds of work the workloads spend their time on, written
independently of the program:

- `push_forward`: many small numpy calls on 400-cell vectors (`np.add.at`
  push-forward steps), like exact propagation on a 20x20 grid;
- `walks`: row gathers from a cumulative 400x400 table compared against
  uniforms, 10,000 rows (32 MB) at a time like the numpy walk kernel, so
  memory bandwidth counts as it does there;
- `event_loop`: an interpreted per-event loop over numpy scalars with
  `math.log2`, like the numpy stream kernel.

Each kind of work slows by its own factor when the host does: the
memory-bound `walks` slows less than the interpreted parts. A pure-Python,
BLAS or cache-resident kernel tracked none of the workloads.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from time import perf_counter

import numpy as np

# About the median time of each part on a 2-vCPU Xeon guest (2.1 GHz
# nominal, Python 3.11, numpy 2.4 with OpenBLAS). Any constants would do:
# they only set the scale, so that normalised seconds read close to wall
# seconds there.
NOMINAL_S = {"push_forward": 0.1, "walks": 0.08, "event_loop": 0.08}
PARTS = tuple(NOMINAL_S)

CELLS = 400
PUSH_STEPS = 3_000
WALKS, WALK_STEPS = 10_000, 8
EVENTS, WINDOW, BINS = 8_000, 64, 4


class ReferenceKernel:
    """Fixed inputs for the reference kernel; `seconds()` times one run of it."""

    def __init__(self, seed: int = 20250810):
        rng = np.random.default_rng(seed)
        self.targets = rng.integers(0, CELLS, size=(4, CELLS))
        self.policy = rng.random((CELLS, 4))
        self.policy /= self.policy.sum(axis=1, keepdims=True)
        cum = np.cumsum(rng.random((CELLS, CELLS)), axis=1)
        self.cum = cum / cum[:, -1:]
        self.uniforms = rng.random((WALKS, WALK_STEPS))
        self.events = rng.random(EVENTS) * BINS

    def push_forward(self) -> float:
        d = np.full(CELLS, 1.0 / CELLS)
        for _ in range(PUSH_STEPS):
            out = np.zeros_like(d)
            for a in range(4):
                w = d * self.policy[:, a]
                np.add.at(out, self.targets[a], w * 0.8)
                out += w * 0.2
            d = out / out.sum()
        return float(d[0])

    def walks(self) -> int:
        u = self.uniforms
        s = np.searchsorted(self.cum[0], u[:, 0], side="right")
        np.minimum(s, CELLS - 1, out=s)
        for c in range(1, WALK_STEPS):
            s = (self.cum[s] <= u[:, c, None]).sum(axis=1)
            np.minimum(s, CELLS - 1, out=s)
        return int(s.sum())

    def event_loop(self) -> float:
        counts = np.zeros(BINS, dtype=np.int64)
        window = np.zeros(WINDOW, dtype=np.int64)
        pos = filled = 0
        h = 0.0
        for i in range(self.events.shape[0]):
            b = int(math.floor(self.events[i]))
            if filled == WINDOW:
                counts[window[pos]] -= 1
            else:
                filled += 1
            counts[b] += 1
            window[pos] = b
            pos = (pos + 1) % WINDOW
            for j in range(BINS):
                p = (counts[j] + 1.0) / (filled + BINS)
                h -= p * math.log2(p)
        return h

    def seconds(self) -> dict:
        """Wall seconds of one run of each part."""
        times = {}
        for part in PARTS:
            t0 = perf_counter()
            getattr(self, part)()
            times[part] = perf_counter() - t0
        return times


def normalised(seconds: float, before: dict, after: dict, parts: tuple = PARTS) -> float:
    """`seconds` as they would read on a host where `parts` take their NOMINAL_S.

    `before` and `after` are the part times measured just before and just
    after the `seconds` were.
    """
    reference = sum(before[p] + after[p] for p in parts) / 2
    return seconds * sum(NOMINAL_S[p] for p in parts) / reference


class ReferenceProcess:
    """This file run as a child process; `seconds()` times the kernel there.

    The child inherits the caller's CPU affinity and environment. It sleeps
    on its pipe while the caller works, and is waited for on close().
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True, bufsize=1)
        try:
            self.seconds()  # warm-up
        except BaseException:
            self.close()
            raise

    def seconds(self) -> dict:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited with code {self._proc.poll()}")
        return json.loads(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve() -> None:
    """Answer each line on stdin with the kernel's part seconds on stdout."""
    kernel = ReferenceKernel()
    for _ in sys.stdin:
        print(json.dumps(kernel.seconds()), flush=True)


if __name__ == "__main__":
    serve()
