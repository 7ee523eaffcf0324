"""Output checks for one CLI op, run outside the timed region.

Each check returns a list of problems; an empty list means the op's output
is correct. The grid checks compare against a dense matrix-power oracle
written here from the grid rules in the README (a move succeeds with
probability 1 - slip and otherwise the agent stays; moves into walls or off
the grid stay; the goal is absorbing), independent of the program's own
push-forward code.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import ACTIONS, OpInput

DELTAS = {"up": (0, -1), "down": (0, 1), "left": (-1, 0), "right": (1, 0)}

TOL = 1e-9                  # absolute agreement asked of exact values
MC_SIGMAS = 6.0             # grid-mc: allowed deviation in reported std errors
SHIFT_LAG = 10              # stream: a shift must be flagged this many events in
OFF_SHIFT_MAX_RATE = 0.02   # stream: flag rate outside [shift, shift + window)
REPLAY_PREFIX = 2000        # stream: replay == ingest is checked on this prefix
CORRIDOR_Z = 0.982089269    # configs/corridor.json golden value, in bits


def rounding_slack(values) -> float:
    """Largest error the CLI's 9-significant-digit output adds to a sum of values."""
    return sum(0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 8)
               for v in values if v != 0.0)


def read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def read_csv(path: Path) -> list:
    with open(path, "r", encoding="utf-8") as f:
        f.readline()  # config-hash comment
        return list(csv.DictReader(f))


# -- dense oracle -------------------------------------------------------------

def action_matrices(grid: dict) -> dict:
    """Per-action (S, S) one-step transition matrices over all cells."""
    w, h, slip = grid["width"], grid["height"], grid["slip"]
    walls = {tuple(c) for c in grid["walls"]}
    goal = tuple(grid["goal"])
    n = w * h
    mats = {}
    for action, (dx, dy) in DELTAS.items():
        m = np.zeros((n, n))
        for y in range(h):
            for x in range(w):
                i = y * w + x
                if (x, y) in walls or (x, y) == goal:
                    m[i, i] = 1.0
                    continue
                tx, ty = x + dx, y + dy
                if not (0 <= tx < w and 0 <= ty < h) or (tx, ty) in walls:
                    tx, ty = x, y
                m[i, ty * w + tx] += 1.0 - slip
                m[i, i] += slip
        mats[action] = m
    return mats


def entropy_bits(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def oracle_laws(grid: dict, cells: list, k: int) -> dict:
    """{(cell, action): law of the cell k steps ahead} under a uniform follow
    policy after the first action."""
    mats = action_matrices(grid)
    follow = sum(mats.values()) / len(mats)
    tail = np.linalg.matrix_power(follow, k - 1)
    w = grid["width"]
    return {(c, a): mats[a][c[1] * w + c[0]] @ tail for c in cells for a in ACTIONS}


def vs_rest(entropies: dict) -> dict:
    """Z of each action against the uniform average of the other actions."""
    total = sum(entropies.values())
    m = len(entropies)
    return {a: h - (total - h) / (m - 1) for a, h in entropies.items()}


def oracle_z(laws: dict, cells: list) -> dict:
    """{(cell, action): exact vs-rest Z in bits} from oracle_laws."""
    out = {}
    for c in cells:
        for a, z in vs_rest({a: entropy_bits(laws[(c, a)]) for a in ACTIONS}).items():
            out[(c, a)] = z
    return out


# -- grid checks --------------------------------------------------------------

def _z_rows(out_dir: Path, problems: list) -> dict:
    """{(cell, action): (z_bits, std_error)} from z_table.csv."""
    table = {}
    for r in read_csv(out_dir / "z_table.csv"):
        z, se = float(r["z_bits"]), float(r["std_error"])
        if not (math.isfinite(z) and math.isfinite(se)):
            problems.append(f"non-finite z_bits/std_error in row {r}")
        table[((int(r["cell_x"]), int(r["cell_y"])), r["action"])] = (z, se)
    return table


def _expected_keys(inp: OpInput) -> set:
    return {(tuple(c), a) for c in inp.config["grid"]["cells"] for a in ACTIONS}


def check_grid_exact(inp: OpInput, out_dir: Path) -> list:
    problems = []
    table = _z_rows(out_dir, problems)
    if set(table) != _expected_keys(inp):
        return problems + ["z_table.csv does not hold one row per (cell, action)"]
    if problems:
        return problems
    grid = inp.config["grid"]
    cells = [tuple(c) for c in grid["cells"]]
    for c in cells:
        zs = [table[(c, a)][0] for a in ACTIONS]
        if abs(sum(zs)) > TOL + rounding_slack(zs):
            problems.append(f"vs-rest Z of cell {c} sums to {sum(zs)!r}, not 0")
    for key, z in oracle_z(oracle_laws(grid, cells, grid["horizon_k"]), cells).items():
        got = table[key][0]
        if abs(got - z) > TOL + rounding_slack([got]):
            problems.append(f"Z{key} = {got!r}, oracle {z!r}")
    return problems


def mc_tolerance(law_by_action: dict, se: float, n: int) -> float:
    """Deviation a correct MC vs-rest Z may show from the exact value.

    The plug-in entropy of n draws from a law with K outcomes is biased low by
    between 0 and log2(1 + (K - 1) / n) bits (Paninski 2003), so the bias of
    a difference of branch entropies is bounded by the largest branch bound.
    On top of that sits MC_SIGMAS of the reported bootstrap standard error.
    """
    bias = max(math.log2(1.0 + (np.count_nonzero(p) - 1) / n)
               for p in law_by_action.values())
    return bias + MC_SIGMAS * se + TOL


def check_grid_mc(inp: OpInput, out_dir: Path) -> list:
    problems = []
    table = _z_rows(out_dir, problems)
    if set(table) != _expected_keys(inp):
        return problems + ["z_table.csv does not hold one row per (cell, action)"]
    if problems:
        return problems
    grid = inp.config["grid"]
    cells = [tuple(c) for c in grid["cells"]]
    n = inp.config["estimator"]["n_samples"]
    laws = oracle_laws(grid, cells, grid["horizon_k"])
    exact = oracle_z(laws, cells)
    for c in cells:
        by_action = {a: laws[(c, a)] for a in ACTIONS}
        for a in ACTIONS:
            z, se = table[(c, a)]
            if not se > 0.0:
                problems.append(f"MC Z{(c, a)} reports std_error {se!r}")
            elif abs(z - exact[(c, a)]) > mc_tolerance(by_action, se, n):
                problems.append(f"MC Z{(c, a)} = {z!r} +- {se!r}, exact {exact[(c, a)]!r}")
    return problems


# -- stream check -------------------------------------------------------------

def check_stream(inp: OpInput, out_dir: Path) -> list:
    problems = []
    flagged = []
    # row by row, so the check adds little to the run's peak memory
    with open(out_dir / "scores.csv", "r", encoding="utf-8") as f:
        f.readline()  # config-hash comment
        for r in csv.DictReader(f):
            flagged.append(r["flagged"] == "true")
            if not problems and not all(math.isfinite(float(r[k]))
                                        for k in ("z_bits", "rolling_mean", "rolling_std")):
                problems.append(f"non-finite score in row {r['index']}")
    if len(flagged) != len(inp.stream):
        return [f"scores.csv has {len(flagged)} rows for {len(inp.stream)} events"]
    flagged = np.array(flagged)
    window = inp.config["anomaly"]["window"]
    near_shift = np.zeros(len(flagged), dtype=bool)
    near_shift[:inp.config["anomaly"]["warmup"]] = True
    for s in inp.shifts:
        if not flagged[s:s + SHIFT_LAG].any():
            problems.append(f"shift at event {s} not flagged within {SHIFT_LAG} events")
        near_shift[s:s + window] = True
    off = flagged[~near_shift]
    if off.size and off.mean() > OFF_SHIFT_MAX_RATE:
        problems.append(f"flag rate away from shifts is {off.mean():.4f}")
    return problems + check_replay_equals_ingest(inp)


def _score_bits(scores) -> bytes:
    """The bytes of every per-event field, so equality is bitwise."""
    fields = [(s.index, s.flagged, s.z.value, s.rolling_mean, s.rolling_std) for s in scores]
    return np.array(fields, dtype=np.float64).tobytes()


def check_replay_equals_ingest(inp: OpInput) -> list:
    """Offline replay and the online ingest fold agree bitwise on a prefix."""
    from zentropy import anomaly_detect

    block = inp.config["anomaly"]
    cfg = anomaly_detect.DetectorConfig(
        window=block["window"], bins=block["bins"], lo=block["range"][0],
        hi=block["range"][1], kappa=block["kappa"], warmup=block["warmup"],
        smoothing=block["smoothing"])
    prefix = inp.stream[:REPLAY_PREFIX]
    detector = anomaly_detect.StreamDetector(cfg)
    offline = _score_bits(anomaly_detect.replay(prefix, cfg))
    online = _score_bits([detector.ingest(x) for x in prefix])
    if offline != online:
        return [f"replay != ingest on the first {len(prefix)} events"]
    return []


# -- shaped training check ----------------------------------------------------

def _all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True


def check_train(inp: OpInput, out_dir: Path) -> list:
    result = read_json(out_dir / "train_result.json")
    if not _all_finite(result):
        return ["non-finite value in train_result.json"]
    problems = []
    shaping = inp.config["shaping"]
    n_refresh = -(-shaping["episodes"] // shaping["recompute_every"])
    if len(result["z_snapshots"]) != n_refresh:
        problems.append(f"{len(result['z_snapshots'])} Z snapshots, expected {n_refresh}")
    for snap in result["z_snapshots"]:
        by_cell: dict = {}
        for key, v in snap["table"].items():
            by_cell.setdefault(key.split(":")[0], []).append(v)
        for cell, zs in by_cell.items():
            if len(zs) != len(ACTIONS) or abs(sum(zs)) > TOL + rounding_slack(zs):
                problems.append(f"episode {snap['episode']} cell {cell}: Z {zs} do not sum to 0")
    return problems


CHECKS = {
    "grid-exact": check_grid_exact,
    "grid-mc": check_grid_mc,
    "stream": check_stream,
    "train-shaped": check_train,
}


def check_corridor(out_dir: Path) -> list:
    """Golden values of configs/corridor.json: right -0.982..., left +0.982..."""
    got = {r["event"]: float(r["z_bits"]) for r in read_csv(out_dir / "attribution.csv")}
    want = {"right@3,0": -CORRIDOR_Z, "left@3,0": CORRIDOR_Z}
    if set(got) != set(want) or any(abs(got[e] - v) > TOL for e, v in want.items()):
        return [f"corridor golden values differ: {got}"]
    return []
