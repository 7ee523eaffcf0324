"""Seeded inputs for the four benchmark workloads.

Every input is a pure function of (workload seed, op index): the same pair
always gives the same config and stream bytes, and no two ops of a run share
an input, so nothing the program might cache across invocations helps it
more than it would help a user who starts one CLI process per run.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ACTIONS = ("up", "down", "left", "right")

GRID_SIZE = 20          # grid-exact / grid-mc: 20x20 grids
GRID_WALLS = 40         # 10% of the cells
GRID_SLIP = 0.2
GRID_K = 15
EXACT_CELLS = 32        # grid-exact scores this many cells per op
MC_CELLS = 1            # grid-mc scores this many cells per op
MC_SAMPLES = 10_000
MC_BOOTSTRAP = 200

STREAM_EVENTS = 20_000
STREAM_REGIME = 500     # events per regime; 39 shifts in 20k events
STREAM_DETECTOR = {"window": 64, "bins": 4, "range": [0.0, 4.0],
                   "kappa": 3.0, "warmup": 64, "smoothing": 1.0}

TRAIN_SIZE = 5
TRAIN_WALLS = 3
TRAIN_EPISODES = 1000
TRAIN_SHAPING = {"beta": 0.5, "horizon_k": 15, "recompute_every": 100,
                 "z_policy": "current-greedy", "episodes": TRAIN_EPISODES,
                 "max_steps": 200, "epsilon": 0.05, "alpha": 0.2, "gamma": 0.95}


@dataclass
class OpInput:
    """One generated CLI invocation: subcommand, config, optional stream."""

    subcommand: str
    config: dict
    items: int                      # Z estimates, events or episodes per op
    stream: np.ndarray | None = None
    shifts: list = field(default_factory=list)

    def write(self, workdir: Path) -> list:
        """Write the input files and return the CLI arguments that read them."""
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps(self.config, sort_keys=True, indent=1) + "\n",
                       encoding="utf-8")
        argv = [self.subcommand, "--config", str(cfg)]
        if self.stream is not None:
            path = workdir / "stream.txt"
            path.write_text(stream_text(self.stream), encoding="utf-8")
            argv += ["--input", str(path)]
        return argv


def op_rng(seed: int, op: int) -> np.random.Generator:
    """Independent generator per (workload seed, op index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(op,)))


def stream_text(values: np.ndarray) -> str:
    # repr round-trips a float64 exactly, so the program reads the same values
    return "".join(f"{float(v)!r}\n" for v in values)


# -- grids --------------------------------------------------------------------

def reachable(width: int, height: int, walls: set, source: tuple) -> set:
    """Cells reachable from `source` by breadth-first search over free cells."""
    seen = {source}
    queue = deque([source])
    while queue:
        x, y = queue.popleft()
        for dx, dy in ((0, -1), (0, 1), (-1, 0), (1, 0)):
            nxt = (x + dx, y + dy)
            if (0 <= nxt[0] < width and 0 <= nxt[1] < height
                    and nxt not in walls and nxt not in seen):
                seen.add(nxt)
                queue.append(nxt)
    return seen


def grid_layout(rng: np.random.Generator, size: int, n_walls: int) -> dict:
    """A size x size grid block whose free cells all reach the goal.

    Wall sets that cut any free cell off are redrawn, so the goal is reachable
    from the start and from every scored cell.
    """
    cells = [(x, y) for y in range(size) for x in range(size)]
    while True:
        pick = rng.choice(len(cells), size=n_walls + 2, replace=False)
        walls = {cells[i] for i in pick[:n_walls]}
        goal, start = cells[pick[n_walls]], cells[pick[n_walls + 1]]
        if len(reachable(size, size, walls, goal)) == size * size - n_walls:
            return {"width": size, "height": size, "goal": list(goal),
                    "start": list(start), "slip": GRID_SLIP,
                    "walls": sorted([list(w) for w in walls])}


def free_cells(grid: dict) -> list:
    walls = {tuple(w) for w in grid["walls"]}
    return [(x, y) for y in range(grid["height"]) for x in range(grid["width"])
            if (x, y) not in walls]


def _grid_input(rng: np.random.Generator, n_cells: int, estimator: dict) -> OpInput:
    grid = grid_layout(rng, GRID_SIZE, GRID_WALLS)
    candidates = [c for c in free_cells(grid) if c != tuple(grid["goal"])]
    pick = sorted(rng.choice(len(candidates), size=n_cells, replace=False))
    grid.update(follow_policy={"kind": "uniform"}, actions=list(ACTIONS),
                horizon_k=GRID_K, cells=[list(candidates[i]) for i in pick])
    config = {"seed": int(rng.integers(2**31)), "neutral_tol": 0.01,
              "estimator": estimator, "grid": grid}
    return OpInput("gridworld", config, items=n_cells * len(ACTIONS))


def grid_exact_input(seed: int, op: int) -> OpInput:
    return _grid_input(op_rng(seed, op), EXACT_CELLS, {"backend": "exact"})


def grid_mc_input(seed: int, op: int) -> OpInput:
    rng = op_rng(seed, op)
    return _grid_input(rng, MC_CELLS, {
        "backend": "mc", "n_samples": MC_SAMPLES,
        "bootstrap_resamples": MC_BOOTSTRAP, "seed": int(rng.integers(2**31))})


# -- stream -------------------------------------------------------------------

def alternating_stream(rng: np.random.Generator, n: int, regime: int):
    """Uniform values on [0, 2) and [2, 4), switching every `regime` events.

    Returns the values and the indices of the first event of each new regime.
    """
    values = rng.random(n) * 2.0
    high = (np.arange(n) // regime) % 2 == 1
    values[high] += 2.0
    shifts = list(range(regime, n, regime))
    return values, shifts


def stream_input(seed: int, op: int) -> OpInput:
    rng = op_rng(seed, op)
    values, shifts = alternating_stream(rng, STREAM_EVENTS, STREAM_REGIME)
    config = {"seed": int(rng.integers(2**31)), "anomaly": dict(STREAM_DETECTOR)}
    return OpInput("anomaly", config, items=STREAM_EVENTS, stream=values, shifts=shifts)


# -- shaped training ----------------------------------------------------------

def train_input(seed: int, op: int) -> OpInput:
    rng = op_rng(seed, op)
    grid = grid_layout(rng, TRAIN_SIZE, TRAIN_WALLS)
    config = {"seed": int(rng.integers(2**31)),
              "shaping": dict(TRAIN_SHAPING, grid=grid)}
    return OpInput("train", config, items=TRAIN_EPISODES)


GENERATORS = {
    "grid-exact": grid_exact_input,
    "grid-mc": grid_mc_input,
    "stream": stream_input,
    "train-shaped": train_input,
}
