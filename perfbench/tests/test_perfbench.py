"""Tests of the benchmark itself: inputs, output checks and metric names.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from zentropy import cli

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def run_cli(inp, workdir: Path) -> Path:
    out = workdir / "out"
    assert cli.main(inp.write(workdir) + ["--out", str(out)]) == 0
    return out


def edit_csv(path: Path, edit) -> None:
    """Apply edit(rows) to a CLI CSV, keeping its config-hash comment line."""
    with open(path, encoding="utf-8") as f:
        comment = f.readline()
        rows = list(csv.reader(f))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(comment)
        csv.writer(f, lineterminator="\n").writerows(rows)


def flip_largest_z(rows) -> None:
    """Sign-flip the z_bits of the z_table.csv row with the largest |Z|."""
    i = max(range(1, len(rows)), key=lambda j: abs(float(rows[j][3])))
    rows[i][3] = cli.fmt(-float(rows[i][3]))


def small_grid(backend_block: dict, n_cells: int, k: int):
    """A generated 20x20 grid input cut down to a few cells for speed."""
    inp = workloads.grid_exact_input(7, 0)
    grid = inp.config["grid"]
    grid["cells"] = grid["cells"][:n_cells]
    grid["horizon_k"] = k
    inp.config["estimator"] = backend_block
    inp.items = n_cells * len(workloads.ACTIONS)
    return inp


# -- generators -----------------------------------------------------------------

@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_generators_are_deterministic(workload, tmp_path):
    def written(seed, op, name):
        d = tmp_path / name
        d.mkdir()
        workloads.GENERATORS[workload](seed, op).write(d)
        return {p.name: p.read_bytes() for p in d.iterdir()}

    first = written(5, 0, "a")
    assert written(5, 0, "b") == first
    assert written(5, 1, "c") != first
    assert written(6, 0, "d") != first


@pytest.mark.parametrize("seed", range(10))
def test_grid_layouts_reach_the_goal_from_every_free_cell(seed):
    rng = workloads.op_rng(seed, 0)
    for size, n_walls in ((workloads.GRID_SIZE, workloads.GRID_WALLS),
                          (workloads.TRAIN_SIZE, workloads.TRAIN_WALLS)):
        g = workloads.grid_layout(rng, size, n_walls)
        walls = {tuple(w) for w in g["walls"]}
        assert len(walls) == n_walls
        assert tuple(g["goal"]) not in walls and tuple(g["start"]) not in walls
        assert g["goal"] != g["start"]
        free = set(workloads.free_cells(g))
        assert workloads.reachable(size, size, walls, tuple(g["goal"])) == free


def test_stream_records_its_shifts():
    inp = workloads.stream_input(3, 0)
    assert len(inp.shifts) == 39
    low = inp.stream < 2.0
    for s in inp.shifts:
        assert low[s - 1] != low[s]
        assert np.all(low[s:s + workloads.STREAM_REGIME] == low[s])


# -- output checks --------------------------------------------------------------

def test_grid_exact_check_rejects_nan_and_sign_flip(tmp_path):
    inp = small_grid({"backend": "exact"}, n_cells=3, k=workloads.GRID_K)
    out = run_cli(inp, tmp_path)
    assert checks.check_grid_exact(inp, out) == []
    table = out / "z_table.csv"
    good = table.read_bytes()

    edit_csv(table, lambda rows: rows[1].__setitem__(3, "nan"))
    assert checks.check_grid_exact(inp, out)

    table.write_bytes(good)
    edit_csv(table, flip_largest_z)
    assert checks.check_grid_exact(inp, out)


def test_grid_mc_check_rejects_nan_and_sign_flip(tmp_path):
    inp = small_grid({"backend": "mc", "n_samples": 10_000, "seed": 3,
                      "bootstrap_resamples": 200}, n_cells=1, k=5)
    out = run_cli(inp, tmp_path)
    assert checks.check_grid_mc(inp, out) == []
    table = out / "z_table.csv"
    good = table.read_bytes()

    edit_csv(table, lambda rows: rows[1].__setitem__(3, "nan"))
    assert checks.check_grid_mc(inp, out)

    table.write_bytes(good)
    edit_csv(table, flip_largest_z)
    assert checks.check_grid_mc(inp, out)


@pytest.fixture
def short_stream():
    values, shifts = workloads.alternating_stream(workloads.op_rng(4, 0), 3000,
                                                  workloads.STREAM_REGIME)
    config = {"seed": 1, "anomaly": dict(workloads.STREAM_DETECTOR)}
    return workloads.OpInput("anomaly", config, items=3000, stream=values, shifts=shifts)


def test_stream_check_rejects_missed_shift_and_nan(short_stream, tmp_path):
    out = run_cli(short_stream, tmp_path)
    assert checks.check_stream(short_stream, out) == []
    scores = out / "scores.csv"
    good = scores.read_bytes()

    shift = short_stream.shifts[2]
    def unflag(rows):
        for r in rows[1 + shift:1 + shift + checks.SHIFT_LAG]:
            r[6] = "false"
    edit_csv(scores, unflag)
    problems = checks.check_stream(short_stream, out)
    assert problems == [f"shift at event {shift} not flagged within {checks.SHIFT_LAG} events"]

    scores.write_bytes(good)
    edit_csv(scores, lambda rows: rows[500].__setitem__(3, "nan"))
    assert checks.check_stream(short_stream, out)


def test_train_check_rejects_sign_flip_and_nan(tmp_path):
    inp = workloads.train_input(2, 0)
    inp.config["shaping"]["episodes"] = 200
    out = run_cli(inp, tmp_path)
    assert checks.check_train(inp, out) == []
    path = out / "train_result.json"
    good = json.loads(path.read_text())

    def corrupt(value_fn):
        record = json.loads(json.dumps(good))
        table = record["z_snapshots"][-1]["table"]
        key = max(table, key=lambda k: abs(table[k]))
        table[key] = value_fn(table[key])
        path.write_text(json.dumps(record))
        return checks.check_train(inp, out)

    assert corrupt(lambda v: -v)
    assert corrupt(lambda v: math.nan)


def test_corridor_preflight(tmp_path):
    out = tmp_path / "out"
    argv = ["gridworld", "--config", str(run.ROOT / "configs" / "corridor.json"),
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert checks.check_corridor(out) == []
    edit_csv(out / "attribution.csv", lambda rows: rows[1].__setitem__(4, "0.982089269"))
    assert checks.check_corridor(out)


# -- metric names ----------------------------------------------------------------

def test_emitted_metrics_match_benchmark_json(short_stream, tmp_path):
    spec = json.loads(BENCHMARK_JSON.read_text())
    with run.hostspeed.ReferenceProcess() as kernel:
        r = run.Run("stream", tmp_path, kernel)
        r.preflight()
        r.op(short_stream, traced=False)
        r.op(short_stream, traced=True)
    assert r.failed == 0

    e2e = run.end_to_end(r, setup_s=0.25)
    layer = run.per_layer(r)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v["unit"] for k, v in layer.items()}
    assert layer["kernels.stream_s"]["value"] > 0
    assert layer["trace.accounted_ratio"]["value"] == pytest.approx(1.0)


# -- host-speed normalisation ---------------------------------------------------

def test_reference_process_times_the_kernel_and_is_waited_for():
    with run.hostspeed.ReferenceProcess() as kernel:
        times = [kernel.seconds() for _ in range(2)]
    assert all(t[part] > 0 for t in times for part in run.hostspeed.PARTS)
    assert kernel._proc.poll() is not None


def test_normalised_scales_by_the_chosen_parts():
    nominal = run.hostspeed.NOMINAL_S
    slow = {p: 2 * s for p, s in nominal.items()}
    slow_walks = {**nominal, "walks": 4 * nominal["walks"]}
    assert run.hostspeed.normalised(2.0, nominal, nominal) == pytest.approx(2.0)
    assert run.hostspeed.normalised(2.0, slow, slow) == pytest.approx(1.0)
    assert run.hostspeed.normalised(2.0, nominal, slow) == pytest.approx(2.0 / 1.5)
    assert run.hostspeed.normalised(2.0, slow_walks, slow_walks,
                                    run.INTERPRETED) == pytest.approx(2.0)
    assert set(run.REFERENCE_PARTS) == set(run.workloads.GENERATORS)
