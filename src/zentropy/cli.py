"""Experiment driver: config-in, CSV/JSON-out, deterministic byte-for-byte.

    zentropy <gridworld|train|bayes|anomaly|report> --config <path>
             [--input <path>] [--out <dir>] [--seed <u64>]

One JSON config file drives a run; the subcommand selects its block (grid /
shaping / bayes / anomaly). Every output embeds a hash of the effective
config so report can refuse mixed directories, floats are fixed at 9
significant digits, and no timestamps are written: identical config + seed
gives identical bytes.

Exit codes: 0 success, 1 runtime invariant violation, 2 config/input error.
Each subcommand parses its whole block and computes before it writes, and
the writers create the output directory, so a config error writes nothing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import anomaly_detect, bayes_infer, mdp_sim, rl_agent
from .entropic_potential import EstimatorConfig, event_labels, rank_order
from .errors import (CellIsWallError, ConfigError, InvalidDistributionError, MissingRunError,
                     ZentropyError)

META_NAME = "run_meta.json"

ATTRIBUTION_HEADER = ["event", "description", "horizon_t0", "horizon_t",
                      "z_bits", "std_error", "method", "classification"]

# rows formatted and written at a time; bounds the text a CSV holds in memory
CSV_BLOCK_ROWS = 1024


# -- deterministic formatting -------------------------------------------------

def fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "0" if x == 0.0 else f"{x:.9g}"
    return str(x)


_json_str = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    """x rounded to 9 significant digits, as JSON; a ValueError if the
    rounded value is not finite (1.797693135e308 rounds to inf)."""
    r = float(f"{x:.9g}")
    if not math.isfinite(r):
        raise ValueError(f"Out of range float values are not JSON compliant: {r!r}")
    return float.__repr__(r)


def _json_key(key) -> str:
    """A dict key as json.dumps writes it: a str as it is, a float, bool,
    None or int as its JSON text, quoted."""
    if not isinstance(key, str):
        if isinstance(key, float):
            if not math.isfinite(key):
                raise ValueError(f"Out of range float values are not JSON compliant: {key!r}")
            key = float.__repr__(key)
        elif isinstance(key, bool) or key is None:
            key = "null" if key is None else "true" if key else "false"
        elif isinstance(key, int):
            key = int.__repr__(key)
        else:
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
    return _json_str(key)


def _json_text(obj, pad: str = "") -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    writes it at indentation `pad`, each float (float subclasses too, but
    not a key) first rounded to 9 significant digits. One pass: the same
    text, or the same exception type, that dumping a rounded copy of obj
    gives, raised at the first bad value in the order json writes them.
    Each container's items are joined once; a float item, the bulk of a
    record, is formatted without a recursive call."""
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_float(v) if type(v) is float else _json_text(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_json_key(k) + ": "
                 + (_json_float(v) if type(v) is float else _json_text(v, inner))
                 for k, v in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _csv_quotes(char: str) -> bool:
    """Whether csv.writer quotes a field holding `char`."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([char, ""])
    return buf.getvalue().startswith('"')


# the characters that make csv.writer quote a field; it decides for a lone "\r"
# (Python 3.11's writes it bare)
_CSV_QUOTED = re.compile("[%s]" % "".join(filter(_csv_quotes, ',"\r\n')))


def _quoted(field: str) -> str:
    """A text field as csv.writer writes it in a row of several fields."""
    if _CSV_QUOTED.search(field) is None:
        return field
    return '"' + field.replace('"', '""') + '"'


def _lines(columns: list) -> str:
    """Equal-length column blocks as CSV text, one line per row, from one
    %-format call that takes the values row by row: %.9g for a float64 array
    (+ 0.0 turns -0.0 into 0.0, which fmt writes as "0"), %d for an integer
    array and %s for the text of any other column, a bool array's true/false
    or each value's quoted fmt. Field text is only ever an argument of %,
    never part of the format string."""
    m = len(columns)
    specs, values = [], [None] * (m * len(columns[0]))
    for j, column in enumerate(columns):
        dtype = column.dtype if isinstance(column, np.ndarray) else None
        if dtype == np.float64:
            spec, fields = "%.9g", (column + 0.0).tolist()
        elif dtype == np.bool_:
            spec, fields = "%s", [("false", "true")[b] for b in column.tolist()]
        elif dtype is not None and dtype.kind in "iu":
            spec, fields = "%d", column.tolist()
        else:
            # one search of the column's fields, joined by a character that
            # is never quoted, decides whether any of them need quoting
            spec, fields = "%s", list(map(fmt, column))
            if _CSV_QUOTED.search("\x00".join(fields)) is not None:
                fields = list(map(_quoted, fields))
            if m == 1:  # csv writes a lone empty field as "", not as a blank line
                fields = [field or '""' for field in fields]
        specs.append(spec)
        values[j::m] = fields
    return ((",".join(specs) + "\n") * len(columns[0])) % tuple(values)


def write_csv(path: Path, header: list, columns: list, config_hash: str) -> None:
    """A config-hash comment, the header and one row per index of `columns`,
    one sequence per header field, CSV_BLOCK_ROWS rows at a time."""
    n = len(columns[0]) if columns else 0
    if not header or len(columns) != len(header) or any(len(c) != n for c in columns):
        raise ZentropyError(f"{path.name}: {len(header)} header fields but columns "
                            f"{sorted({len(c) for c in columns})} long")
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(f"# config_hash={config_hash}\n")
        f.write(_lines([[name] for name in header]))
        for lo in range(0, n, CSV_BLOCK_ROWS):
            f.write(_lines([c[lo:lo + CSV_BLOCK_ROWS] for c in columns]))


def write_json(path: Path, obj: dict, config_hash: str) -> None:
    """obj and its config hash as indented JSON, with sorted keys. The text is
    formed before the file is opened and written in one call, so an encode
    error leaves no file behind."""
    obj = dict(obj)
    obj["config_hash"] = config_hash
    try:
        text = _json_text(obj)
    except ValueError as e:  # a non-finite float
        raise ZentropyError(f"non-finite number in {path.name}: {e}") from e
    path.write_text(text + "\n", encoding="utf-8")


def config_hash_of(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# -- config parsing -----------------------------------------------------------

class _NonFinite(str):
    """A NaN/Infinity/-Infinity token, or a literal such as 1e999 that
    overflows a float, held until its key is known."""


def _finite_number(token: str):
    """A JSON integer or float token's value, or a _NonFinite if it overflows a float."""
    x = int(token) if token.lstrip("-").isdigit() else float(token)
    return x if abs(x) <= sys.float_info.max else _NonFinite(token)


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
            return json.load(f, parse_constant=_NonFinite, parse_float=_finite_number,
                             parse_int=_finite_number, object_pairs_hook=_finite_object)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}") from e


_REQUIRED = object()
_KIND_NAMES = {int: "integer", float: "number", dict: "object", list: "array", str: "string"}


def _checked(value, path: str, kind):
    """value if it is of JSON `kind`: int an integer (not 5.0), float any number, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{path} must be a JSON {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _get(block: dict, key: str, where: str, kind, default=_REQUIRED):
    """block[key] checked by _checked; `default` if absent, a ConfigError if there is none."""
    path = f"{where}.{key}" if where else key
    if key not in block:
        if default is _REQUIRED:
            raise ConfigError(f"missing {path!r}")
        return default
    return _checked(block[key], path, kind)


def _pair(value, path: str, kind) -> tuple:
    if len(_checked(value, path, list)) != 2:
        raise ConfigError(f"{path} must hold two values, got {value!r}")
    return tuple(_checked(v, f"{path}[{i}]", kind) for i, v in enumerate(value))


def _parse_grid(block: dict, where: str) -> mdp_sim.GridWorld:
    walls = _get(block, "walls", where, list, [])
    return mdp_sim.GridWorld(
        width=_get(block, "width", where, int), height=_get(block, "height", where, int),
        goal=_pair(_get(block, "goal", where, list), f"{where}.goal", int),
        start=_pair(_get(block, "start", where, list), f"{where}.start", int),
        slip=_get(block, "slip", where, float, 0.0),
        walls=frozenset(_pair(w, f"{where}.walls[{i}]", int) for i, w in enumerate(walls)))


def _parse_policy(g: mdp_sim.GridWorld, block: dict):
    spec = _get(block, "follow_policy", "grid", dict, {})
    kind = _get(spec, "kind", "grid.follow_policy", str, "uniform")
    if kind == "uniform":
        return mdp_sim.uniform_policy(g)
    if kind == "fixed":
        action = _get(spec, "action", "grid.follow_policy", str)
        if action not in mdp_sim.ACTIONS:
            raise ConfigError(f"unknown action {action!r} in grid.follow_policy")
        return mdp_sim.always_policy(g, action)
    raise ConfigError(f"grid.follow_policy.kind must be 'uniform' or 'fixed', got {kind!r}")


def _parse_actions(block: dict) -> tuple:
    spec = [_checked(a, f"grid.actions[{i}]", str)
            for i, a in enumerate(_get(block, "actions", "grid", list, list(mdp_sim.ACTIONS)))]
    if not len(set(spec)) == len(spec) >= 2:
        raise ConfigError(f"grid.actions must name two or more distinct actions, got {spec!r}")
    return mdp_sim._admissible_actions(spec)


def _parse_cells(g: mdp_sim.GridWorld, block: dict) -> list:
    if block.get("cells", "all") == "all":
        return g.free_cells()
    try:
        return [mdp_sim._checked_cell(g, _pair(c, f"grid.cells[{i}]", int))
                for i, c in enumerate(_get(block, "cells", "grid", list))]
    except CellIsWallError as e:
        raise ConfigError(f"bad grid.cells entry: {e}") from e


def _write_attribution(out: Path, chash: str, events: list, descriptions: list, t0, t,
                       z, se, method: str, tol: float) -> None:
    """attribution.csv from one entry per event, most beneficial (lowest Z)
    first, ties by event. t0, t and se are arrays or one value for all."""
    order = rank_order(z, events)
    z, se, t0, t = (np.broadcast_to(v, order.shape)[order] for v in (z, se, t0, t))
    rows = order.tolist()
    write_csv(out / "attribution.csv", ATTRIBUTION_HEADER,
              [[events[i] for i in rows], [descriptions[i] for i in rows], t0, t,
               z, se, [method] * len(rows), event_labels(z, se, tol)],
              chash)


# -- subcommands --------------------------------------------------------------

def cmd_gridworld(config: dict, out: Path, chash: str, tol: float) -> None:
    block = _get(config, "grid", "", dict)
    g = _parse_grid(block, "grid")
    follow = _parse_policy(g, block)
    actions = _parse_actions(block)
    k = _get(block, "horizon_k", "grid", int, 2)
    if k < 1:
        raise ConfigError(f"grid.horizon_k must be >= 1, got {k}")
    cells = _parse_cells(g, block)
    est_block = _get(config, "estimator", "", dict, {})
    est = EstimatorConfig(
        backend=_get(est_block, "backend", "estimator", str, "exact"),
        n_samples=_get(est_block, "n_samples", "estimator", int, 10_000),
        seed=_get(est_block, "seed", "estimator", int, config["seed"]))

    z, se = mdp_sim.z_table(g, cells, follow, k, est, actions)
    # each cell's actions most beneficial first, flattened cell by cell
    order = rank_order(z, actions)
    z, se = (np.take_along_axis(a, order, axis=1).ravel() for a in (z, se))
    x, y = np.repeat(np.array(cells, dtype=np.int64).reshape(-1, 2), len(actions), axis=0).T
    names = [actions[j] for j in order.ravel().tolist()]
    method = "exact" if est.backend == "exact" else "monte-carlo"
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "z_table.csv", ["cell_x", "cell_y", "action", "z_bits", "std_error", "method"],
              [x, y, names, z, se, [method] * len(z)], chash)
    keys = list(zip(names, x.tolist(), y.tolist()))
    _write_attribution(out, chash, [f"{a}@{cx},{cy}" for a, cx, cy in keys],
                       [f"action {a} at cell ({cx}, {cy})" for a, cx, cy in keys],
                       0, k, z, se, method, tol)
    _write_meta(out, "gridworld", config, chash,
                ["z_table.csv", "attribution.csv"])


def cmd_train(config: dict, out: Path, chash: str, tol: float) -> None:
    block = _get(config, "shaping", "", dict)
    g = _parse_grid(_get(block, "grid", "shaping", dict), "shaping.grid")
    shaping = rl_agent.ShapingConfig(
        beta=_get(block, "beta", "shaping", float, 0.0),
        horizon_k=_get(block, "horizon_k", "shaping", int, 8),
        recompute_every=_get(block, "recompute_every", "shaping", int, 100),
        z_policy=_get(block, "z_policy", "shaping", str, "current-greedy"),
    )
    result = rl_agent.train(
        g, shaping,
        episodes=_get(block, "episodes", "shaping", int),
        max_steps=_get(block, "max_steps", "shaping", int, 200),
        epsilon=_get(block, "epsilon", "shaping", float, 0.1),
        alpha=_get(block, "alpha", "shaping", float, 0.2),
        gamma=_get(block, "gamma", "shaping", float, 0.95),
        seed=config["seed"],
    )
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "train_result.csv", ["episode", "return", "steps", "mean_intrinsic"],
              [np.arange(len(result.episode_returns)), np.array(result.episode_returns),
               np.array(result.steps_to_goal), np.array(result.mean_intrinsic)], chash)

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

    table = sorted(result.z_snapshots[-1][1].items()) if result.z_snapshots else []
    _write_attribution(out, chash, [f"{a}@{key(c)}" for (c, a), _ in table],
                       [f"action {a} at cell ({c[0]}, {c[1]})" for (c, a), _ in table],
                       0, shaping.horizon_k, [v for _, v in table], 0.0, "exact", tol)
    _write_meta(out, "train", config, chash,
                ["train_result.csv", "train_result.json", "attribution.csv"])


def cmd_bayes(config: dict, out: Path, chash: str, tol: float) -> None:
    block = _get(config, "bayes", "", dict)
    prior = block.get("prior", "uniform")
    weights = None if prior == "uniform" else [
        _checked(w, f"bayes.prior[{i}]", float)
        for i, w in enumerate(_get(block, "prior", "bayes", list))]
    grid = _get(block, "grid", "bayes", list, None)
    n_points = _get(block, "grid_points", "bayes", int, None)
    if grid is not None and n_points is not None:
        raise ConfigError("bayes.grid_points may not be given beside bayes.grid")
    if weights is not None and n_points not in (None, len(weights)):
        raise ConfigError(f"bayes.grid_points is {n_points}, but bayes.prior "
                          f"holds {len(weights)} weights")
    if grid is None:
        if n_points is None:
            n_points = 101 if weights is None else len(weights)
        grid = bayes_infer.even_grid(n_points)
    else:
        grid = [_checked(t, f"bayes.grid[{i}]", float) for i, t in enumerate(grid)]
    try:
        posterior = bayes_infer.GridPosterior(grid, weights)
    except InvalidDistributionError as e:
        raise ConfigError(f"bad bayes prior: {e}") from e
    queries, ids = [], set()
    for i, qspec in enumerate(_get(block, "queries", "bayes", list, [])):
        where = f"bayes.queries[{i}]"
        qid = _get(_checked(qspec, where, dict), "id", where, str)
        if qid in ids:
            raise ConfigError(f"{where}.id {qid!r} repeats an earlier query id")
        ids.add(qid)
        queries.append(bayes_infer.QueryCandidate(
            id=qid,
            model=bayes_infer.BernoulliFlip(noise=_get(qspec, "noise", where, float, 1.0))))
    data_model = bayes_infer.BernoulliFlip(noise=_get(
        _get(block, "data_model", "bayes", dict, {}), "noise", "bayes.data_model", float, 1.0))
    data = _get(block, "data", "bayes", list, [])
    if any(outcome not in data_model.outcomes for outcome in data):
        raise ConfigError(f"bayes.data may hold only {data_model.outcomes}, got {data!r}")

    ranked = bayes_infer.rank_queries(posterior, queries) if queries else []
    mi = [float(bayes_infer.mutual_information(posterior, q)) for q, _ in ranked]
    potentials = bayes_infer.realized_potentials(posterior, data_model, data)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "queries.csv", ["query", "expected_z_bits", "mutual_information_bits", "rank"],
              [[q.id for q, _ in ranked], np.array([z.value for _, z in ranked]), np.array(mi),
               np.arange(1, len(ranked) + 1)], chash)
    index = np.arange(len(data))
    _write_attribution(out, chash, [f"data[{i}]:{o}" for i, o in enumerate(data)],
                       [f"observed {o} (update {i})" for i, o in enumerate(data)],
                       index, index + 1, potentials, 0.0, "exact", tol)
    _write_meta(out, "bayes", config, chash, ["queries.csv", "attribution.csv"])


def _read_stream(path: str | None) -> np.ndarray:
    """The non-blank lines of the input stream as one float64 array."""
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read input stream: {e}") from e
    try:
        values = np.array(list(map(float, filter(None, map(str.strip, text.splitlines())))))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    raise _bad_line(text)


def _bad_line(text: str) -> ConfigError:
    """The error naming the first non-blank line that is not a finite number."""
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        try:
            if line and not math.isfinite(float(line)):
                return ConfigError(f"input line {ln} is not a finite number: {line!r}")
        except ValueError:
            return ConfigError(f"input line {ln} is not a number: {line!r}")
    raise AssertionError("a stream that failed to parse has no bad line")


def cmd_anomaly(config: dict, out: Path, chash: str, tol: float,
                input_path: str | None) -> None:
    block = _get(config, "anomaly", "", dict)
    lo, hi = _pair(_get(block, "range", "anomaly", list, [0.0, 1.0]), "anomaly.range", float)
    window = _get(block, "window", "anomaly", int, 64)
    cfg = anomaly_detect.DetectorConfig(
        window=window,
        bins=_get(block, "bins", "anomaly", int, 4),
        lo=lo, hi=hi,
        kappa=_get(block, "kappa", "anomaly", float, 3.0),
        warmup=_get(block, "warmup", "anomaly", int, window),
        smoothing=_get(block, "smoothing", "anomaly", float, 1.0),
    )
    values = _read_stream(input_path)
    # bin, z, rolling_mean, rolling_std, flagged: one array per column
    cols = anomaly_detect.StreamDetector(cfg).score_columns(values)
    flagged = np.flatnonzero(cols[4])
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "scores.csv",
              ["index", "value", "bin", "z_bits", "rolling_mean", "rolling_std", "flagged"],
              [np.arange(len(values)), values, *cols], chash)
    _write_attribution(out, chash, [f"x[{i}]" for i in flagged.tolist()],
                       [f"flagged value {fmt(v)}" for v in values[flagged].tolist()],
                       flagged, flagged + 1, cols[1][flagged], 0.0, "exact", tol)
    write_json(out / "summary.json", {
        "n_events": len(values),
        "flag_count": len(flagged),
        "first_flag_index": int(flagged[0]) if len(flagged) else None,
    }, chash)
    _write_meta(out, "anomaly", config, chash,
                ["scores.csv", "attribution.csv", "summary.json"])


def _read_run_file(path: Path, parse):
    """parse(text) of a run file; MissingRunError if that fails."""
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (ValueError, csv.Error) as e:  # ValueError: also text that is not UTF-8
        raise MissingRunError(f"unusable {path.name} in {path.parent}: {e}") from e


def _attribution_rows(text: str) -> list:
    """The rows of an attribution.csv that has every column report prints."""
    reader = csv.DictReader(io.StringIO(text.partition("\n")[2]))  # after the hash comment
    missing = {"event", "z_bits", "horizon_t0", "horizon_t", "classification"}.difference(
        reader.fieldnames or ())
    if missing:
        raise ValueError(f"no {', '.join(sorted(missing))} column")
    return list(reader)


def cmd_report(run_dir: Path) -> None:
    meta_path = run_dir / META_NAME
    if not meta_path.is_file():
        raise MissingRunError(f"no {META_NAME} in {run_dir}")
    meta = _read_run_file(meta_path, json.loads)
    try:
        chash = meta["config_hash"]
        subcommand, seed = meta["subcommand"], meta["seed"]
        outputs = [str(name) for name in meta.get("outputs", [])]
    except (KeyError, TypeError) as e:  # TypeError: meta or outputs is not a container
        raise MissingRunError(f"unusable {META_NAME} in {run_dir}: {e}") from e
    for name in outputs:
        p = run_dir / name
        if not p.is_file():
            raise MissingRunError(f"run output {name} missing from {run_dir}")
        if name.endswith(".csv"):
            head = _read_run_file(p, lambda text: text.partition("\n")[0].strip())
            if head != f"# config_hash={chash}":
                raise MissingRunError(f"mixed config hashes in {run_dir} ({name})")
        elif name.endswith(".json"):
            record = _read_run_file(p, json.loads)
            if not isinstance(record, dict) or record.get("config_hash") != chash:
                raise MissingRunError(f"mixed config hashes in {run_dir} ({name})")
    attr_path = run_dir / "attribution.csv"
    if not attr_path.is_file():
        raise MissingRunError(f"no attribution.csv in {run_dir}")
    rows = _read_run_file(attr_path, _attribution_rows)
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
        config = _checked(_load_config(args.config), "config", dict)
        if args.seed is not None:
            config["seed"] = args.seed
        if _get(config, "seed", "", int) < 0:
            raise ConfigError(f"seed must be >= 0, got {config['seed']}")
        tol = _get(config, "neutral_tol", "", float, 0.01)
        if tol < 0:
            raise ConfigError(f"neutral_tol must be >= 0, got {tol!r}")
        config_out = _get(config, "out", "", str, "")
        out_path = Path(os.environ.get("ZENTROPY_OUT") or args.out or config_out
                        or f"runs/{args.subcommand}")
        # a subcommand makes it before its first write; a file on its path fails now
        if any(p.exists() and not p.is_dir() for p in (out_path, *out_path.parents)):
            raise ConfigError(f"output path {out_path} is a file or lies under one")
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
    except (ConfigError, ValueError) as e:
        # ValueError: a range check of a library class on a parsed config value
        print(f"zentropy: config error: {e}", file=sys.stderr)
        return 2
    except ZentropyError as e:
        print(f"zentropy: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
