"""Experiment driver: config-in, CSV/JSON-out, deterministic byte-for-byte.

    zentropy <gridworld|train|bayes|anomaly|report> --config <path>
             [--input <path>] [--out <dir>] [--seed <u64>]

One JSON config file drives a run; the subcommand selects its block (grid /
shaping / bayes / anomaly). Every output embeds a hash of the effective
config so report can refuse mixed directories, floats are fixed at 9
significant digits, and no timestamps are written: identical config + seed
gives identical bytes.

Exit codes: 0 success, 1 runtime invariant violation, 2 config/input error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import anomaly_detect, bayes_infer, mdp_sim, rl_agent
from .entropic_potential import EstimatorConfig, Horizon, ZEstimate, classify_event
from .errors import CellIsWallError, ConfigError, MissingRunError, ZentropyError

META_NAME = "run_meta.json"

ATTRIBUTION_HEADER = ["event", "description", "horizon_t0", "horizon_t",
                      "z_bits", "std_error", "method", "classification"]


# -- deterministic formatting -------------------------------------------------

def fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "0" if x == 0.0 else f"{x:.9g}"
    return str(x)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_csv(path: Path, header: list, rows: list, config_hash: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(f"# config_hash={config_hash}\n")
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) for v in row])


def write_json(path: Path, obj: dict, config_hash: str) -> None:
    obj = dict(obj)
    obj["config_hash"] = config_hash
    try:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(_round_floats(obj), f, sort_keys=True, indent=2, allow_nan=False)
            f.write("\n")
    except ValueError as e:  # a non-finite float; no partial file is left behind
        path.unlink()
        raise ZentropyError(f"non-finite number in {path.name}: {e}") from e


def config_hash_of(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# -- config parsing -----------------------------------------------------------

class _NonFinite(str):
    """A NaN/Infinity/-Infinity token, or a literal such as 1e999 that
    overflows a float, held until its key is known."""


def _finite_float(token: str):
    x = float(token)
    return x if math.isfinite(x) else _NonFinite(token)


def _non_finite_in(value):
    if isinstance(value, list):
        return next((t for t in map(_non_finite_in, value) if t is not None), None)
    return value if isinstance(value, _NonFinite) else None


def _finite_object(pairs: list) -> dict:
    for key, value in pairs:
        token = _non_finite_in(value)
        if token is not None:
            raise ConfigError(f"{key} must be finite, got {token!r}")
    return dict(pairs)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f, parse_constant=_NonFinite, parse_float=_finite_float,
                             object_pairs_hook=_finite_object)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}") from e


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing {key!r} in {where} block")
    return block[key]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int(block: dict, key: str, where: str, default=None) -> int:
    """An integer field, written as a JSON integer (5.0 or true is refused)."""
    value = _require(block, key, where) if default is None else block.get(key, default)
    if not _is_int(value):
        raise ConfigError(f"{key} in {where} block must be an integer, got {value!r}")
    return value


def _cell(value, what: str) -> tuple:
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))):
        raise ConfigError(f"{what} must be a pair of integers, got {value!r}")
    return tuple(value)


def _parse_grid(block: dict) -> mdp_sim.GridWorld:
    width, height = _int(block, "width", "grid"), _int(block, "height", "grid")
    goal = _cell(_require(block, "goal", "grid"), "grid goal")
    start = _cell(_require(block, "start", "grid"), "grid start")
    walls = frozenset(_cell(w, "grid wall") for w in block.get("walls", []))
    try:
        return mdp_sim.GridWorld(width=width, height=height, goal=goal, start=start,
                                 slip=float(block.get("slip", 0.0)), walls=walls)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad grid block: {e}") from e


def _parse_policy(g: mdp_sim.GridWorld, spec) -> np.ndarray:
    spec = spec or {"kind": "uniform"}
    if not isinstance(spec, dict):
        raise ConfigError(f"follow_policy must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "uniform":
        return mdp_sim.uniform_policy(g)
    if kind == "fixed":
        action = _require(spec, "action", "follow_policy")
        if action not in mdp_sim.ACTIONS:
            raise ConfigError(f"unknown action {action!r} in follow_policy")
        return mdp_sim.always_policy(g, action)
    raise ConfigError(f"follow_policy kind must be 'uniform' or 'fixed', got {kind!r}")


def _parse_estimator(config: dict, seed: int) -> EstimatorConfig:
    block = dict(config.get("estimator", {}))
    block.setdefault("seed", seed)
    try:
        return EstimatorConfig.from_dict(block)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad estimator block: {e}") from e


def _parse_cells(g: mdp_sim.GridWorld, spec) -> list:
    if spec == "all":
        return g.free_cells()
    try:
        return [mdp_sim._checked_cell(g, _cell(c, "grid cells entry")) for c in spec]
    except (CellIsWallError, ValueError) as e:
        raise ConfigError(f"bad grid cells entry: {e}") from e


def _parse_actions(spec) -> tuple:
    """Unknown names are left to mdp_sim, which rejects them."""
    if not isinstance(spec, list) or len(set(spec)) != len(spec) or len(spec) < 2:
        raise ConfigError(f"grid actions must be a list of at least two distinct actions, "
                          f"got {spec!r}")
    return tuple(spec)


def _attribution_row(event: str, description: str, z, tol: float) -> list:
    label = classify_event(z, tol).label
    return [event, description, z.horizon.t0, z.horizon.t,
            z.value, z.std_error, z.method, label]


def _write_attribution(out: Path, rows: list, chash: str) -> None:
    """attribution.csv, most beneficial (lowest Z) first, ties by event."""
    rows = sorted(rows, key=lambda r: (r[4], r[0]))
    write_csv(out / "attribution.csv", ATTRIBUTION_HEADER, rows, chash)


# -- subcommands --------------------------------------------------------------

def cmd_gridworld(config: dict, out: Path, chash: str, tol: float) -> None:
    block = config.get("grid")
    if block is None:
        raise ConfigError("gridworld needs a 'grid' block")
    g = _parse_grid(block)
    follow = _parse_policy(g, block.get("follow_policy"))
    actions = _parse_actions(block.get("actions", list(mdp_sim.ACTIONS)))
    k = _int(block, "horizon_k", "grid", 2)
    cells = _parse_cells(g, block.get("cells", "all"))
    est = _parse_estimator(config, config["seed"])

    if est.backend == "exact":
        tables = mdp_sim.exact_z_table(g, cells, follow, k, actions)
    else:
        tables = [mdp_sim.action_z_scores(g, cell, follow, k, est, actions)
                  for cell in cells]
    z_rows, attribution = [], []
    for cell, ranked in zip(cells, tables):
        for action, z in ranked:
            z_rows.append([cell[0], cell[1], action, z.value, z.std_error, z.method])
            attribution.append(_attribution_row(
                f"{action}@{cell[0]},{cell[1]}",
                f"action {action} at cell ({cell[0]}, {cell[1]})", z, tol))
    write_csv(out / "z_table.csv",
              ["cell_x", "cell_y", "action", "z_bits", "std_error", "method"],
              z_rows, chash)
    _write_attribution(out, attribution, chash)
    _write_meta(out, "gridworld", config, chash,
                ["z_table.csv", "attribution.csv"])


def cmd_train(config: dict, out: Path, chash: str, tol: float) -> None:
    block = config.get("shaping")
    if block is None:
        raise ConfigError("train needs a 'shaping' block")
    g = _parse_grid(_require(block, "grid", "shaping"))
    try:
        shaping = rl_agent.ShapingConfig(
            beta=float(block.get("beta", 0.0)),
            horizon_k=_int(block, "horizon_k", "shaping", 8),
            recompute_every=_int(block, "recompute_every", "shaping", 100),
            z_policy=block.get("z_policy", "current-greedy"),
        )
    except ValueError as e:
        raise ConfigError(f"bad shaping block: {e}") from e
    result = rl_agent.train(
        g, shaping,
        episodes=_int(block, "episodes", "shaping"),
        max_steps=_int(block, "max_steps", "shaping", 200),
        epsilon=float(block.get("epsilon", 0.1)),
        alpha=float(block.get("alpha", 0.2)),
        gamma=float(block.get("gamma", 0.95)),
        seed=config["seed"],
    )
    rows = [[ep, r, s, m] for ep, (r, s, m) in enumerate(
        zip(result.episode_returns, result.steps_to_goal, result.mean_intrinsic))]
    write_csv(out / "train_result.csv",
              ["episode", "return", "steps", "mean_intrinsic"], rows, chash)

    def key(cell, action=None):
        base = f"{cell[0]},{cell[1]}"
        return base if action is None else f"{base}:{action}"

    record = {
        "episode_returns": result.episode_returns,
        "steps_to_goal": result.steps_to_goal,
        "mean_intrinsic": result.mean_intrinsic,
        "reached": result.reached,
        "final_policy": {key(c): a for c, a in sorted(result.final_policy.items())},
        "final_q": {key(c, a): v for (c, a), v in sorted(result.final_q.items())},
        "z_snapshots": [{"episode": ep, "table": {key(c, a): v for (c, a), v in sorted(t.items())}}
                        for ep, t in result.z_snapshots],
        "seed": config["seed"],
    }
    write_json(out / "train_result.json", record, chash)

    attribution = []
    if result.z_snapshots:
        ep, table = result.z_snapshots[-1]
        for (cell, action), v in sorted(table.items()):
            z = ZEstimate(value=v, std_error=0.0, method="exact", n_samples=0,
                          horizon=Horizon(0, shaping.horizon_k),
                          event=f"{action}@{key(cell)}", baseline="vs-rest")
            attribution.append(_attribution_row(
                z.event, f"action {action} at cell ({cell[0]}, {cell[1]})", z, tol))
    _write_attribution(out, attribution, chash)
    _write_meta(out, "train", config, chash,
                ["train_result.csv", "train_result.json", "attribution.csv"])


def cmd_bayes(config: dict, out: Path, chash: str, tol: float) -> None:
    block = config.get("bayes")
    if block is None:
        raise ConfigError("bayes needs a 'bayes' block")
    n_points = int(block.get("grid_points", 101))
    prior_spec = block.get("prior", "uniform")
    try:
        if "grid" in block:
            grid = [float(t) for t in block["grid"]]
            weights = np.full(len(grid), 1.0 / len(grid)) \
                if prior_spec == "uniform" else prior_spec
            posterior = bayes_infer.GridPosterior.with_weights(grid, weights)
        elif prior_spec == "uniform":
            posterior = bayes_infer.GridPosterior.uniform(n_points)
        else:
            grid = np.linspace(0.0, 1.0, len(prior_spec))
            posterior = bayes_infer.GridPosterior.with_weights(grid, prior_spec)
    except (ZentropyError, ValueError, TypeError) as e:
        raise ConfigError(f"bad prior: {e}") from e
    queries = []
    for qspec in block.get("queries", []):
        queries.append(bayes_infer.QueryCandidate(
            id=str(_require(qspec, "id", "query")),
            model=bayes_infer.BernoulliFlip(noise=float(qspec.get("noise", 1.0)))))

    q_rows = []
    if queries:
        ranked = bayes_infer.rank_queries(posterior, queries)
        for rank, (q, z) in enumerate(ranked, start=1):
            mi = bayes_infer.mutual_information(posterior, q)
            q_rows.append([q.id, z.value, float(mi), rank])
    write_csv(out / "queries.csv",
              ["query", "expected_z_bits", "mutual_information_bits", "rank"],
              q_rows, chash)

    data_model = bayes_infer.BernoulliFlip(
        noise=float(block.get("data_model", {}).get("noise", 1.0)))
    attribution = []
    current = posterior
    for i, outcome in enumerate(block.get("data", [])):
        z = bayes_infer.realized_event_potential(
            current, data_model, outcome, event_id=f"data[{i}]:{outcome}", t0=i)
        attribution.append(_attribution_row(
            z.event, f"observed {outcome} (update {i})", z, tol))
        current = bayes_infer.posterior_update(current, data_model, outcome)
    _write_attribution(out, attribution, chash)
    _write_meta(out, "bayes", config, chash, ["queries.csv", "attribution.csv"])


def _read_stream(path: str | None) -> list:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read input stream: {e}") from e
    values = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = float(line)
        except ValueError as e:
            raise ConfigError(f"input line {ln} is not a number: {line!r}") from e
        if not math.isfinite(value):
            raise ConfigError(f"input line {ln} is not a finite number: {line!r}")
        values.append(value)
    return values


def cmd_anomaly(config: dict, out: Path, chash: str, tol: float,
                input_path: str | None) -> None:
    block = config.get("anomaly")
    if block is None:
        raise ConfigError("anomaly needs an 'anomaly' block")
    try:
        lo, hi = block.get("range", [0.0, 1.0])
        cfg = anomaly_detect.DetectorConfig(
            window=int(block.get("window", 64)),
            bins=int(block.get("bins", 4)),
            lo=float(lo), hi=float(hi),
            kappa=float(block.get("kappa", 3.0)),
            warmup=int(block.get("warmup", block.get("window", 64))),
            smoothing=float(block.get("smoothing", 1.0)),
        )
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad anomaly block: {e}") from e
    values = _read_stream(input_path)
    scores = anomaly_detect.replay(values, cfg)

    rows = []
    attribution = []
    first_flag = None
    for v, s in zip(values, scores):
        rows.append([s.index, v, s.bin, s.z.value,
                     s.rolling_mean, s.rolling_std, s.flagged])
        if s.flagged:
            if first_flag is None:
                first_flag = s.index
            attribution.append(_attribution_row(
                s.z.event, f"flagged value {fmt(v)}", s.z, tol))
    write_csv(out / "scores.csv",
              ["index", "value", "bin", "z_bits", "rolling_mean", "rolling_std", "flagged"],
              rows, chash)
    _write_attribution(out, attribution, chash)
    write_json(out / "summary.json", {
        "n_events": len(values),
        "flag_count": sum(1 for s in scores if s.flagged),
        "first_flag_index": first_flag,
    }, chash)
    _write_meta(out, "anomaly", config, chash,
                ["scores.csv", "attribution.csv", "summary.json"])


def cmd_report(run_dir: Path) -> None:
    meta_path = run_dir / META_NAME
    if not meta_path.is_file():
        raise MissingRunError(f"no {META_NAME} in {run_dir}")
    try:
        with open(meta_path, "r", encoding="utf-8") as f:
            meta = json.load(f)
        chash = meta["config_hash"]
        subcommand, seed = meta["subcommand"], meta["seed"]
    except (json.JSONDecodeError, KeyError, UnicodeDecodeError) as e:
        raise MissingRunError(f"unusable {META_NAME} in {run_dir}: {e}") from e
    for name in meta.get("outputs", []):
        p = run_dir / name
        if not p.is_file():
            raise MissingRunError(f"run output {name} missing from {run_dir}")
        if name.endswith(".csv"):
            with open(p, "r", encoding="utf-8") as f:
                head = f.readline().strip()
            if head != f"# config_hash={chash}":
                raise MissingRunError(f"mixed config hashes in {run_dir} ({name})")
        elif name.endswith(".json"):
            with open(p, "r", encoding="utf-8") as f:
                if json.load(f).get("config_hash") != chash:
                    raise MissingRunError(f"mixed config hashes in {run_dir} ({name})")
    attr_path = run_dir / "attribution.csv"
    if not attr_path.is_file():
        raise MissingRunError(f"no attribution.csv in {run_dir}")
    with open(attr_path, "r", encoding="utf-8") as f:
        f.readline()  # hash comment
        rows = list(csv.DictReader(f))
    print(f"run: {subcommand}  config_hash: {chash}  seed: {seed}")
    print(f"events scored: {len(rows)}")
    for r in rows:
        print(f"  event {r['event']} changed uncertainty by {r['z_bits']} bits "
              f"at horizon {r['horizon_t0']}->{r['horizon_t']} - {r['classification']}")


def _write_meta(out: Path, subcommand: str, config: dict, chash: str,
                outputs: list) -> None:
    write_json(out / META_NAME, {
        "subcommand": subcommand,
        "seed": config["seed"],
        "outputs": outputs,
        "config": config,
    }, chash)


# -- entry point --------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zentropy",
                                description="entropic-potential workbench")
    p.add_argument("subcommand",
                   choices=["gridworld", "train", "bayes", "anomaly", "report"])
    p.add_argument("--config", help="path to the JSON run config")
    p.add_argument("--input", help="input stream file (anomaly) or run dir (report)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.subcommand == "report":
            run_dir = args.input or os.environ.get("ZENTROPY_OUT") or args.out
            if run_dir is None:
                raise ConfigError("report needs --input (or --out) pointing at a run dir")
            cmd_report(Path(run_dir))
            return 0
        if args.config is None:
            raise ConfigError(f"{args.subcommand} needs --config")
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = int(args.seed)
        if "seed" not in config:
            raise ConfigError("config must carry a seed (or pass --seed)")
        if not _is_int(config["seed"]):
            raise ConfigError(f"seed must be an integer: {config['seed']!r}")
        try:
            tol = float(config.get("neutral_tol", 0.01))
        except (ValueError, TypeError) as e:
            raise ConfigError(f"neutral_tol must be a number: {e}") from e
        if tol < 0:
            raise ConfigError(f"neutral_tol must be >= 0, got {tol!r}")
        out = os.environ.get("ZENTROPY_OUT") or args.out or config.get("out") \
            or f"runs/{args.subcommand}"
        out_path = Path(out)
        out_path.mkdir(parents=True, exist_ok=True)
        chash = config_hash_of(config)
        if args.subcommand == "gridworld":
            cmd_gridworld(config, out_path, chash, tol)
        elif args.subcommand == "train":
            cmd_train(config, out_path, chash, tol)
        elif args.subcommand == "bayes":
            cmd_bayes(config, out_path, chash, tol)
        elif args.subcommand == "anomaly":
            cmd_anomaly(config, out_path, chash, tol, args.input)
        return 0
    except ConfigError as e:
        print(f"zentropy: config error: {e}", file=sys.stderr)
        return 2
    except ZentropyError as e:
        print(f"zentropy: {e}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as e:
        # malformed config values that slipped past explicit checks
        print(f"zentropy: config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
