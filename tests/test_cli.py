import copy
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zentropy import anomaly_detect, bayes_infer, cli, rl_agent
from zentropy.entropic_potential import Horizon, ZEstimate
from zentropy.errors import ZentropyError

from oracles import (attribution_row, make_regime_shift_stream, ranked_rows,
                     write_attribution_rows, write_csv_rows, write_json_two_step)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(args, **kw):
    return cli.main([str(a) for a in args], **kw)


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def read_csv_rows(path: Path) -> list:
    import csv

    with open(path, encoding="utf-8") as f:
        f.readline()  # hash comment
        return list(csv.DictReader(f))


def write_config(tmp_path, obj, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return p


def test_fmt_is_nine_significant_digits():
    assert cli.fmt(-0.9820892686420791) == "-0.982089269"
    assert cli.fmt(0.0) == "0"
    assert cli.fmt(True) == "true"
    assert cli.fmt(12) == "12"


BLOCK = cli.CSV_BLOCK_ROWS
# (values, array dtype); a text column is always a list of str
CSV_KINDS = {
    "float": (st.floats(allow_subnormal=True) | st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
        -1.7976931348623157e308, math.nan, math.inf, -math.inf]), np.float64),
    "int": (st.integers(-2**63, 2**63 - 1)
            | st.sampled_from([10**9, -10**9, 999_999_999, 12_345_678_901]), np.int64),
    "bool": (st.booleans(), np.bool_),
    "text": (st.text(st.sampled_from('ab 1.,"%\r\n\té')), None),
}


def _scores_like_table():
    """The columns of a scores.csv one row longer than a writer block, with
    -0.0, nan and inf among the floats, under a header holding % signs."""
    index = np.arange(BLOCK + 1)
    floats = np.resize([-0.0, 0.25, math.nan, math.inf, -1.5e-7, -math.inf, 3.0], BLOCK + 1)
    columns = [index, floats, index % 4, floats[::-1].copy(), floats * 0.5, -floats,
               index % 3 == 0]
    header = ["index", "value%", "%d", "z_%s", "rolling_mean%%", "%(x)s", "flagged"]
    return header, columns, list(zip(*(c.tolist() for c in columns)))


@st.composite
def csv_tables(draw):
    """(header, columns, rows): columns for write_csv, the same values as
    Python rows for the row writer. Long columns repeat a few drawn values."""
    n_rows = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1]) | st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(CSV_KINDS)), min_size=1, max_size=5))
    header = draw(st.lists(CSV_KINDS["text"][0], min_size=len(kinds), max_size=len(kinds)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns, values = [], []
    for kind in kinds:
        elements, dtype = CSV_KINDS[kind]
        pool = draw(st.lists(elements, min_size=1, max_size=6))
        column = [pool[i] for i in rng.integers(0, len(pool), n_rows)]
        values.append(column)
        as_array = dtype is not None and draw(st.booleans())
        columns.append(np.array(column, dtype=dtype) if as_array else column)
    return header, columns, list(zip(*values))


class TestCsvWriter:
    @given(csv_tables())
    @example(table=(["z"], [np.array([-0.0, 0.0, -1.5])], [(-0.0,), (0.0,), (-1.5,)]))
    @example(table=([""], [["", "a\r", 'b"', "c,d\n"]], [("",), ("a\r",), ('b"',), ("c,d\n",)]))
    @example(table=_scores_like_table())
    @example(table=(["t", "n"], [["a", "b,c", "d"], np.array([1, 2, 3])],
                    [("a", 1), ("b,c", 2), ("d", 3)]))  # only a middle field is quoted
    @example(table=(["t"], [["x\x00", "\x00,y", "\x00"]], [("x\x00",), ("\x00,y",), ("\x00",)]))
    @example(table=(["t", "u"], [["\x00", "a\x00"], [",\x00", "\x00"]],
                    [("\x00", ",\x00"), ("a\x00", "\x00")]))
    @settings(max_examples=200, deadline=None)
    def test_columns_write_what_the_row_writer_writes(self, tmp_path_factory, table):
        header, columns, rows = table
        d = tmp_path_factory.mktemp("csv")
        cli.write_csv(d / "columns.csv", header, columns, "abc")
        write_csv_rows(d / "rows.csv", header, rows, "abc")
        assert (d / "columns.csv").read_bytes() == (d / "rows.csv").read_bytes()

    def test_columns_of_unequal_length_are_an_invariant_error(self, tmp_path):
        with pytest.raises(ZentropyError):
            cli.write_csv(tmp_path / "x.csv", ["a", "b"], [[1, 2], [3]], "abc")
        with pytest.raises(ZentropyError):
            cli.write_csv(tmp_path / "x.csv", ["a", "b"], [[1, 2]], "abc")
        assert not (tmp_path / "x.csv").exists()


def _boundary_z(tol: float, se: float) -> list:
    """Z values on and beside the label boundaries |Z| == tol + 2 * se and |Z| == tol."""
    edges = [tol + 2.0 * se, tol]
    near = [x for e in edges for x in (e, math.nextafter(e, 0.0), math.nextafter(e, math.inf))]
    return [0.0, -0.0, *near, *(-x for x in near)]


@st.composite
def attribution_tables(draw):
    """(method, tol, rows of (event, description, t0, t, z, se)) as a
    subcommand hands them to cli._write_attribution. Events repeat and z
    ties exactly; se 0.0 throughout for the exact method."""
    method = draw(st.sampled_from(["exact", "monte-carlo"]))
    tol = draw(st.sampled_from([0.0, 0.01, 0.25, 5e-324]))
    ses = [0.0] if method == "exact" else [0.0, 0.005, 0.125, 1e-300]
    n = draw(st.integers(0, 12))
    rows = []
    for _ in range(n):
        se = draw(st.sampled_from(ses))
        z = draw(st.sampled_from(_boundary_z(tol, se))
                 | st.floats(-4.0, 4.0, allow_subnormal=True))
        t0 = draw(st.integers(0, 12))
        rows.append((draw(st.sampled_from(["a", "a\x00", "b", "x[1]", "x[10]", "right@1,0"])),
                     draw(st.text(st.sampled_from('ab ,"\n'), max_size=5)),
                     t0, t0 + draw(st.integers(1, 3)), z, se))
    return method, tol, rows


# keys json writes: str, and int, float, bool or None, which sort among
# themselves (None only alone); a dict mixing kinds that do not sort, or a
# tuple key, is a TypeError on both sides
JSON_TEXT = st.text(st.sampled_from('ab"\\/\x00\x01\x1f\u00e9\u2028\U0001f600 '), max_size=4)
JSON_FLOATS = st.floats(allow_subnormal=True) | st.sampled_from([
    -0.0, 5e-324, -5e-324, 1.797693135e308, 1.7976931348623157e308, 1e8, 1e-5, 123456789.5,
    math.nan, math.inf, -math.inf])
JSON_SCALARS = (st.none() | st.booleans() | JSON_TEXT | JSON_FLOATS
                | JSON_FLOATS.map(np.float64) | st.integers()
                | st.sampled_from([10**30, -2**70, 2**64]))
JSON_KEYS = (JSON_TEXT | st.integers(-3, 3) | JSON_FLOATS | st.booleans() | st.none()
             | st.just((1,)))


def json_records(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(JSON_TEXT, children, max_size=4)
            | st.dictionaries(st.integers(-3, 3) | JSON_FLOATS | st.booleans(), children,
                              max_size=3)
            | st.dictionaries(JSON_KEYS, children, max_size=2))


class TestJsonWriter:
    @given(st.recursive(JSON_SCALARS, json_records, max_leaves=12))
    @example(value={"a": [1.0, {"b": ()}], "c": {}, "d": [], "e": [[]]})
    @example(value=[1.797693135e308])  # rounds to inf
    @example(value={math.nan: 1})
    @example(value={"x": object()})
    def test_writes_what_the_two_step_encoder_writes(self, tmp_path_factory, value):
        d = tmp_path_factory.mktemp("json")
        results = []
        for name, write in (("one.json", cli.write_json), ("two.json", write_json_two_step)):
            try:
                write(d / name, {"value": value, "n": 1}, "abc")
                results.append((d / name).read_bytes())
            except (TypeError, ValueError, ZentropyError) as e:
                results.append(type(e))
        assert results[0] == results[1]


class TestAttributionWriter:
    @given(attribution_tables(), st.booleans())
    @example(table=("exact", 0.0, []), as_arrays=True)
    @example(table=("monte-carlo", 0.01, [("b", "", 0, 1, 0.0, 0.125), ("a", "", 0, 1, -0.0, 0.0),
                                          ("a", "x", 2, 3, 0.0, 0.005)]), as_arrays=False)
    @settings(max_examples=300, deadline=None)
    def test_columns_write_what_the_rows_wrote(self, tmp_path_factory, table, as_arrays):
        method, tol, rows = table
        events, descriptions, t0, t, z, se = (list(c) for c in zip(*rows)) if rows else [[]] * 6
        if as_arrays:
            t0, t, z, se = (np.array(c) for c in (t0, t, z, se))
        d = tmp_path_factory.mktemp("attribution")
        for sub in ("columns", "rows"):
            (d / sub).mkdir()
        cli._write_attribution(d / "columns", "abc", events, descriptions, t0, t, z, se,
                               method, tol)
        n_samples = 0 if method == "exact" else 100
        write_attribution_rows(d / "rows", [
            attribution_row(e, text, ZEstimate(v, s, method, n_samples, Horizon(a, b), e,
                                               "null-event"), tol)
            for e, text, a, b, v, s in rows], "abc")
        assert ((d / "columns" / "attribution.csv").read_bytes()
                == (d / "rows" / "attribution.csv").read_bytes())

    def test_scalar_columns_stand_for_every_row(self, tmp_path):
        cli._write_attribution(tmp_path, "abc", ["b", "a"], ["", ""], 0, 5, [0.5, -0.5], 0.0,
                               "exact", 0.01)
        assert read(tmp_path / "attribution.csv").splitlines()[2:] == [
            "a,,0,5,-0.5,0,exact,beneficial", "b,,0,5,0.5,0,exact,harmful"]


class TestGridworld:
    def test_corridor_preset_golden_values(self, tmp_path):
        out = tmp_path / "run"
        assert run(["gridworld", "--config", CONFIGS / "corridor.json",
                    "--out", out]) == 0
        table = read(out / "z_table.csv")
        assert "-0.982089269" in table
        assert "0.982089269" in table
        rows = read_csv_rows(out / "attribution.csv")
        assert len(rows) == 2
        assert rows[0]["event"] == "right@3,0"
        assert rows[0]["classification"] == "beneficial"
        assert rows[1]["event"] == "left@3,0"
        assert rows[1]["classification"] == "harmful"

    def test_slip_free_grid_all_zero(self, tmp_path):
        cfg = {
            "seed": 1,
            "grid": {"width": 4, "height": 1, "walls": [], "goal": [3, 0],
                     "start": [0, 0], "slip": 0.0,
                     "follow_policy": {"kind": "fixed", "action": "right"},
                     "horizon_k": 2, "cells": "all"},
        }
        out = tmp_path / "run"
        assert run(["gridworld", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == 0
        for line in read(out / "z_table.csv").splitlines()[2:]:
            assert line.split(",")[3] == "0"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run(["gridworld", "--config", bad, "--out", tmp_path / "o"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run(["gridworld", "--config", tmp_path / "nope.json",
                    "--out", tmp_path / "o"]) == 2

    def test_missing_block_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1})
        assert run(["gridworld", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_degenerate_estimator_exits_2(self, tmp_path, capsys):
        cfg = json.loads(read(CONFIGS / "corridor.json"))
        for key, value in (("n_samples", -5), ("n_samples", 0), ("backend", "bootstrap")):
            cfg["estimator"] = {"backend": "mc", key: value}
            assert run(["gridworld", "--config", write_config(tmp_path, cfg),
                        "--out", tmp_path / "o"]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and key in err

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["gridworld", "--config", CONFIGS / "corridor.json",
                        "--out", out]) == 0
        for name in ("z_table.csv", "attribution.csv", "run_meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    WALLED = {"seed": 5, "neutral_tol": 0.01, "estimator": {"backend": "exact"},
              "grid": {"width": 6, "height": 5, "goal": [5, 4], "start": [0, 0],
                       "walls": [[2, 1], [2, 2], [2, 3], [4, 0], [4, 4]], "slip": 0.15,
                       "follow_policy": {"kind": "uniform"}, "horizon_k": 6,
                       "cells": "all"}}
    WALLED_MC = dict(WALLED, estimator={"backend": "mc", "n_samples": 2000},
                     grid=dict(WALLED["grid"], cells=[[0, 0], [3, 2], [1, 4]]))
    # 40 walls on diagonals of a 20x20 grid: the vertical and horizontal
    # moves of the exact stepper meet walls, borders and the goal
    WALLED20 = {"seed": 3, "neutral_tol": 0.01, "estimator": {"backend": "exact"},
                "grid": {"width": 20, "height": 20, "goal": [17, 16], "start": [2, 1],
                         "walls": [[x, y] for y in range(20) for x in range(20)
                                   if (7 * x + 3 * y) % 10 == 0],
                         "slip": 0.2, "follow_policy": {"kind": "fixed", "action": "right"},
                         "horizon_k": 15, "cells": "all"}}
    # the grid-exact benchmark's shape: four equal policy columns per step
    WALLED20_UNIFORM = dict(WALLED20, grid=dict(WALLED20["grid"],
                                                follow_policy={"kind": "uniform"}))
    # the grid-mc benchmark's shape: one cell, 10k walks of 15 steps, so the
    # walks span several walk chunks and the cells one cell chunk
    WALLED20_MC = dict(WALLED20_UNIFORM, estimator={"backend": "mc", "n_samples": 10_000},
                       grid=dict(WALLED20_UNIFORM["grid"], cells=[[5, 7]]))
    # slip-free with a fixed follow policy: every branch is a point mass, so
    # every Z is 0 and each order in both files comes from the tie-break on id
    TIES = {"seed": 2, "neutral_tol": 0.01, "estimator": {"backend": "exact"},
            "grid": {"width": 12, "height": 5, "goal": [11, 4], "start": [0, 0],
                     "walls": [*WALLED["grid"]["walls"], [7, 2], [9, 1]], "slip": 0.0,
                     "follow_policy": {"kind": "fixed", "action": "down"},
                     "actions": ["right", "up", "left"], "horizon_k": 4, "cells": "all"}}
    # 100 walks per branch: the labels include uncertain and neutral ones
    SMALL_MC = dict(WALLED, estimator={"backend": "mc", "n_samples": 100})

    @pytest.mark.parametrize("config, golden", [
        ("corridor.json", {
            "z_table.csv": "42bd030349ba5684ce67452375ae78bacb8604f8576442f3d2babfa2361601d8",
            "attribution.csv": "3e4ab27ff92638ff73a1327f1077bbf973634483b3e7dd52944dbaada571092e",
            "run_meta.json": "d54732494e09527a21c620ba3d60ea58d52028af9bed8a7279b76815f08ef712",
        }),
        (WALLED, {
            "z_table.csv": "85f831a14ab73ac48c85b3bca2c378da7dffb9015429667b6454e8f2c010a1fb",
            "attribution.csv": "cf1c0bdd14ee67ca921a68e6f5bc7edd67d0747b7da19d7075bce45e00bc658d",
            "run_meta.json": "531850eadfe3b12c73b851132e85443acd2fff05de92eff65e9f5c21a3c08821",
        }),
        (WALLED_MC, {
            # re-pinned when the MC estimator took its last step exactly, and
            # again when every branch read one block of uniforms and the SE
            # became the paired one
            "z_table.csv": "e962f0045edb37da5dc25c1f19fcf4667745ca4bd8754f00d7f89354eaf10a25",
            "attribution.csv": "4ae8e8a646b41c32c3bd8a6067eb946a8b3cd1eeda7592ea91d69277294b0d6b",
            "run_meta.json": "d165c31b5fe92e13d61ff0563b18afacfd2600164f2b81f50e03df6f0106984c",
        }),
        (WALLED20, {
            "z_table.csv": "0b45c3328b2e1fa793cc1217dbfeefab43f94bd91c6dbd49ac942557da139e60",
            "attribution.csv": "44cce5afda80956f7f38959e16203d1cd1cfc26559c38957e6f923da21bb8b9a",
            "run_meta.json": "538b827a7419ddc5e78081a3fea15868c948cb49c046a16ee5803159f12cd084",
        }),
        (WALLED20_UNIFORM, {
            "z_table.csv": "f9bc25bd1c504b956dd0b77becb4311a72f3820a663f6c0396acbbb87ab41d4e",
            "attribution.csv": "7e17ec955640b4e12ed4dd79f016044ba10e279b935d78647ea1c5d3bcfcb0b7",
            "run_meta.json": "f85cff87d7ea6f27f2a0f43a5bcfdcb7fddd029afcfe48af02f5357a5e4ace87",
        }),
        (TIES, {
            "z_table.csv": "a715c07660814cc4bb430f581138d85dbf16825ee6fb22fa2eacfd774e5a7e5c",
            "attribution.csv": "ea2c696aadc4cf809293964839c47020c03d04465b837c8fc45440c9befa4e56",
            "run_meta.json": "5571c0c2ab2839dd37da1dec47299de4f7d9088642136d74e1258b07e52ddbbd",
        }),
        (SMALL_MC, {
            # re-pinned when every branch read one block of uniforms
            "z_table.csv": "d31f9fa348bf1b9b61118696541dc02f8e0813ba5695a51188ac525b599f74a0",
            "attribution.csv": "1c936fb21fc82ce53af4532d63464f0cb50c12dc8ba8ed29457a5f45c31c898e",
            "run_meta.json": "ff269445cc4d375b3eef560764b96b60cc702fc745f80cb0fb2ec90b5b8f2da3",
        }),
        (WALLED20_MC, {
            "z_table.csv": "906ef0aec4b9fb8868a3a8e3ff8c20803a99b22ce2b13f0874cd91c96b739c0c",
            "attribution.csv": "9fc8399e0eca340da8261309b3a6f8afa15add9479c161780fe05971d19154d8",
            "run_meta.json": "c9063e4de50d93c6465dea7a733542ad9e9951be44d7723d9050a3c53102acd7",
        }),
    ], ids=["corridor", "walled-exact", "walled-mc", "walled20-exact", "walled20-uniform",
            "tie-break", "small-mc", "walled20-mc-one-cell"])
    def test_outputs_match_golden_hashes(self, tmp_path, config, golden):
        # sha256 of the outputs as written when policies were dicts of
        # Distributions; the (n_cells, 4) array policies must keep every byte
        path = CONFIGS / config if isinstance(config, str) else write_config(tmp_path, config)
        out = tmp_path / "run"
        assert run(["gridworld", "--config", path, "--out", out]) == 0
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_tie_break_golden_has_only_zero_z(self, tmp_path):
        out = tmp_path / "run"
        assert run(["gridworld", "--config", write_config(tmp_path, self.TIES),
                    "--out", out]) == 0
        rows = read_csv_rows(out / "attribution.csv")
        assert len(rows) == 3 * (12 * 5 - 7) and {r["z_bits"] for r in rows} == {"0"}
        assert [r["event"] for r in rows] == sorted(r["event"] for r in rows)

    def test_small_mc_golden_labels_uncertain_and_neutral_events(self, tmp_path):
        out = tmp_path / "run"
        assert run(["gridworld", "--config", write_config(tmp_path, self.SMALL_MC),
                    "--out", out]) == 0
        labels = {r["classification"] for r in read_csv_rows(out / "attribution.csv")}
        assert {"uncertain", "neutral"} <= labels

    @pytest.mark.parametrize("follow, k, golden", [
        ("uniform", 2, {
            "z_table.csv": "46fb17dea6e5c5c47ed4cd112c41311ec07e9202cb569505237618efcfa3e3c4",
            "attribution.csv": "b1f9c195708d43e93f1d28dfa116d01b8e152436b72eb7254c6e25c7c142730d",
        }),
        ("fixed", 2, {
            "z_table.csv": "240f79c7a5c6b1469b11580b5aec66d3c07fafceb620bc628bc3067266b99af7",
            "attribution.csv": "2f83479117d516295f32981958f5ea01f977d821c51818a0510a12e9871f1236",
        }),
        ("greedy", 15, {
            "z_table.csv": "89b4599d14b221ee9e20a11a03f03bc6be875098167b0f04817b86e2939280c7",
            "attribution.csv": "b145439bdf6cfa86bfdc5439f7115ba1d0889667c5218a66ae85b2e15a18cab9",
        }),
        ("greedy", 2, {
            "z_table.csv": "6ef82ca4b8adc799d8e1fcaff3a7ce55a841d3468f62238bfb77c5e4c4dac7cf",
            "attribution.csv": "179d54d89b761ab8f8a9c44ff801f1ddb87f23743ca4a793100ae262ef349d36",
        }),
    ])
    def test_walled20_exact_tables_match_golden_hashes(self, tmp_path, monkeypatch,
                                                       follow, k, golden):
        # WALLED20 (goal beside a wall) under each kind of policy column the
        # exact stepper meets, at k = 15 (the walled20 goldens above pin the
        # uniform and fixed tables there) and at k = 2 (one push-forward
        # step): four equal columns (uniform), one constant one-hot action
        # (fixed right), and a one-hot action varying by cell, as the
        # current-greedy Z refresh gives, which no config names, so it
        # stands in for the parsed policy
        cfg = copy.deepcopy(self.WALLED20)
        cfg["grid"]["horizon_k"] = k
        if follow == "uniform":
            cfg["grid"]["follow_policy"] = {"kind": "uniform"}
        elif follow == "greedy":
            monkeypatch.setattr(cli, "_parse_policy",
                                lambda g, block: np.eye(4)[np.arange(g.n_cells) * 3 // 2 % 4])
        out = tmp_path / "run"
        assert run(["gridworld", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("value", [200, 50, 0, 1, 10_001, "x", None, 2.5])
    def test_retired_bootstrap_key_is_ignored(self, tmp_path, value):
        # configs written for the multinomial bootstrap still run: the key is
        # not read, like any other key the CLI does not know. The rows match
        # the run without it; the config-hash line covers the whole config.
        outs = []
        for name, estimator in (("with", dict(self.WALLED_MC["estimator"],
                                              bootstrap_resamples=value)),
                                ("without", self.WALLED_MC["estimator"])):
            cfg = dict(self.WALLED_MC, estimator=estimator)
            out = tmp_path / name
            assert run(["gridworld", "--config", write_config(tmp_path, cfg, f"{name}.json"),
                        "--out", out]) == 0
            outs.append(out)
        for name in ("z_table.csv", "attribution.csv"):
            got, want = ((o / name).read_text(encoding="utf-8").split("\n", 1) for o in outs)
            assert got[0].startswith("# config_hash=") and got[0] != want[0]
            assert got[1] == want[1]


def config_text(preset, path, token):
    """A preset's JSON with the value at `path` replaced by a raw token."""
    cfg = json.loads(read(CONFIGS / preset))
    block = cfg
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = "@TOKEN@"
    return json.dumps(cfg).replace('"@TOKEN@"', token)


class TestConfigValidation:
    @pytest.mark.parametrize("preset, path, token, named", [
        ("anomaly.json", ("anomaly", "kappa"), "NaN", "NaN"),
        ("anomaly.json", ("anomaly", "smoothing"), "Infinity", "Infinity"),
        ("anomaly.json", ("anomaly", "range"), "[0, Infinity]", "Infinity"),
        ("corridor.json", ("neutral_tol",), "NaN", "NaN"),
        ("corridor.json", ("grid", "slip"), "-Infinity", "-Infinity"),
        ("corridor.json", ("grid", "slip"), "1e999", "1e999"),
        pytest.param("anomaly.json", ("anomaly", "kappa"), "1" + "0" * 400, "1" + "0" * 400,
                     id="integer-too-large-for-a-float"),
    ])
    def test_non_finite_number_exits_2_naming_the_token(self, tmp_path, capsys,
                                                        preset, path, token, named):
        # json reads these as nan/inf, which used to run to exit 0 and put
        # NaN into run_meta.json (and, for smoothing, into scores.csv)
        cfg = tmp_path / "config.json"
        cfg.write_text(config_text(preset, path, token), encoding="utf-8")
        stream = tmp_path / "stream.txt"
        stream.write_text("1.0\n2.0\n", encoding="utf-8")
        sub = "anomaly" if preset == "anomaly.json" else "gridworld"
        out = tmp_path / "o"
        assert run([sub, "--config", cfg, "--input", stream, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and repr(named) in err
        assert not out.exists()

    def test_write_json_refuses_non_finite_numbers(self, tmp_path):
        path = tmp_path / "x.json"
        for bad in (math.nan, math.inf):
            with pytest.raises(ZentropyError, match="non-finite.*x.json"):
                cli.write_json(path, {"v": [1.0, bad]}, "abc")
            assert not path.exists()

    def test_write_json_leaves_no_partial_file_on_any_encode_error(self, tmp_path):
        # the keys before the bad value would have been written by a
        # streaming encoder; the text is formed before the file is opened
        path = tmp_path / "out" / "x.json"
        for bad, error in ((object(), TypeError), (math.nan, ZentropyError)):
            with pytest.raises(error):
                cli.write_json(path, {"a": 1.0, "b": [2.0, bad], "c": "z"}, "abc")
            assert not path.parent.exists()

    def test_non_finite_result_exits_1(self, tmp_path, monkeypatch, capsys):
        def nan_train(*args, **kwargs):
            return rl_agent.TrainResult([], [], [], [], {}, {((0, 0), "up"): math.nan}, [])
        monkeypatch.setattr(rl_agent, "train", nan_train)
        out = tmp_path / "o"
        assert run(["train", "--config", CONFIGS / "train_corridor.json", "--out", out]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "train_result.json").exists()

    @pytest.mark.parametrize("edit, named", [
        ({"width": 5.7}, "width"),
        ({"horizon_k": 2.0}, "horizon_k"),
        ({"goal": [4.0, 0]}, "goal"),
        ({"walls": [[2, 0]], "cells": [[2, 0]]}, "wall"),
        ({"cells": [[3, 0], [5, 0]]}, "(5, 0)"),
        ({"cells": [[3, True]]}, "cells"),
        ({"actions": ["left", "left"]}, "actions"),
        ({"actions": ["right"]}, "actions"),
        ({"actions": ["left", "jump"]}, "jump"),
        ({"follow_policy": "uniform"}, "follow_policy"),
    ])
    def test_malformed_grid_exits_2(self, tmp_path, capsys, edit, named):
        cfg = json.loads(read(CONFIGS / "corridor.json"))
        cfg["grid"].update(edit)
        assert run(["gridworld", "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err

    @pytest.mark.parametrize("key, value", [
        ("episodes", 5.5), ("max_steps", 20.0), ("recompute_every", 1.5),
        ("horizon_k", True)])
    def test_non_integer_shaping_field_exits_2(self, tmp_path, capsys, key, value):
        cfg = json.loads(read(CONFIGS / "train_corridor.json"))
        cfg["shaping"][key] = value
        assert run(["train", "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    @pytest.mark.parametrize("tol", ["abc", -0.5])
    def test_neutral_tol_must_be_a_non_negative_number(self, tmp_path, capsys, tol):
        cfg = json.loads(read(CONFIGS / "bayes11.json"))
        cfg["neutral_tol"] = tol
        out = tmp_path / "o"
        assert run(["bayes", "--config", write_config(tmp_path, cfg), "--out", out]) == 2
        assert "neutral_tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [1.9, "7", True])
    def test_seed_must_be_an_integer(self, tmp_path, capsys, seed):
        cfg = json.loads(read(CONFIGS / "corridor.json"))
        cfg["seed"] = seed
        assert run(["gridworld", "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o"]) == 2
        assert "seed" in capsys.readouterr().err


SUBCOMMAND = {"corridor.json": "gridworld", "bayes11.json": "bayes",
              "anomaly.json": "anomaly", "train_corridor.json": "train"}


def edited(preset, *edits):
    """A preset's config with each (path, value) edit applied."""
    cfg = json.loads(read(CONFIGS / preset))
    for path, value in edits:
        block = cfg
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = copy.deepcopy(value)  # callers may mutate cfg
    return cfg


def run_config(tmp_path, preset, cfg, monkeypatch):
    """Run the preset's subcommand on cfg from inside tmp_path, on a short
    stream for anomaly; returns (exit code, output directory)."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ZENTROPY_OUT", raising=False)
    stream = tmp_path / "stream.txt"
    stream.write_text("\n".join(str((i // 40) % 2 * 2 + (i % 7) / 7) for i in range(200)),
                      encoding="utf-8")
    out = tmp_path / "o"
    argv = [SUBCOMMAND[preset], "--config", write_config(tmp_path, cfg), "--out", out]
    if preset == "anomaly.json":
        argv += ["--input", stream]
    return run(argv), out


class TestConfigParsing:
    @pytest.mark.parametrize("preset, edits, named", [
        ("anomaly.json", [(("anomaly",), 5)], "anomaly"),
        ("bayes11.json", [(("bayes",), [1])], "bayes"),
        ("bayes11.json", [(("bayes", "data_model"), 5)], "data_model"),
        ("corridor.json", [(("estimator",), 5)], "estimator"),
        ("anomaly.json", [(("anomaly", "bins"), 4.7)], "bins"),
        ("anomaly.json", [(("anomaly", "window"), 64.9)], "window"),
        ("anomaly.json", [(("anomaly", "warmup"), 64.0)], "warmup"),
        ("bayes11.json", [(("bayes", "grid_points"), 11.5)], "grid_points"),
        ("corridor.json", [(("estimator", "n_samples"), 150.7)], "n_samples"),
        ("corridor.json", [(("estimator", "seed"), 7.0)], "seed"),
        ("anomaly.json", [(("anomaly", "kappa"), "3")], "kappa"),
        ("anomaly.json", [(("anomaly", "smoothing"), True)], "smoothing"),
        ("anomaly.json", [(("anomaly", "range"), [0, "4"])], "range"),
        ("corridor.json", [(("grid", "slip"), "0.2")], "slip"),
        ("corridor.json", [(("neutral_tol",), True)], "neutral_tol"),
        ("train_corridor.json", [(("shaping", "beta"), True)], "beta"),
        ("bayes11.json", [(("bayes", "queries", 1, "noise"), "0.5")], "noise"),
        ("bayes11.json", [(("bayes", "data"), "heads")], "data"),
        ("bayes11.json", [(("bayes", "queries"), [5])], "queries"),
        ("corridor.json", [(("seed",), -3)], "seed"),
        ("corridor.json", [(("out",), 5)], "out"),
        ("anomaly.json", [(("anomaly", "bins"), 257)], "bins"),
        ("anomaly.json", [(("anomaly", "window"), 1025), (("anomaly", "warmup"), 1025)],
         "window"),
        ("bayes11.json", [(("bayes", "grid_points"), 10_001)], "grid_points"),
        ("corridor.json", [(("estimator", "n_samples"), 1_000_001)], "n_samples"),
        ("corridor.json", [(("estimator", "n_samples"), 99)], "n_samples"),
        # over the MC cap on n_samples * horizon_k, before any walk is drawn
        ("corridor.json", [(("estimator",), {"backend": "mc", "n_samples": 1_000_000}),
                           (("grid", "horizon_k"), 16)], "horizon_k"),
        ("corridor.json", [(("estimator",), {"backend": "mc", "n_samples": 750_001}),
                           (("grid", "horizon_k"), 20)], "n_samples"),
        ("train_corridor.json", [(("shaping", "episodes"), 10**12)], "episodes"),
        ("train_corridor.json", [(("shaping", "max_steps"), rl_agent.MAX_STEPS + 1)],
         "max_steps"),
        # these two used to write part of a run, or an empty directory, first
        ("bayes11.json", [(("bayes", "data"), ["heads", "sideways"])], "data"),
        ("anomaly.json", [(("anomaly", "kappa"), -1.0)], "kappa"),
        # an empty bin's smoothed probability underflows to 0.0: refused
        # before the stream is read, even one too short to fill the window
        ("anomaly.json", [(("anomaly", "smoothing"), 5e-324)], "smoothing"),
        ("anomaly.json", [(("anomaly", "window"), 1024), (("anomaly", "warmup"), 1024),
                          (("anomaly", "smoothing"), 1e-321)], "smoothing"),
        ("bayes11.json", [(("bayes", "queries", 2, "id"), "flip")], "'flip'"),
        # a bin width that overflows to inf, or underflows to 0.0 over 4 bins
        ("anomaly.json", [(("anomaly", "range"), [-1e308, 1e308])], "range"),
        ("anomaly.json", [(("anomaly", "range"), [0.0, 5e-324])], "range"),
        # grid_points beside an explicit grid, where it was never read
        ("bayes11.json", [(("bayes", "grid"), [0.2, 0.8])], "grid_points"),
        ("bayes11.json", [(("bayes", "grid_points"), "x"), (("bayes", "grid"), [0.2, 0.8])],
         "grid_points"),
        ("bayes11.json", [(("bayes", "grid_points"), 2), (("bayes", "grid"), [0.2, 0.8]),
                          (("bayes", "prior"), [0.5, 0.5])], "grid_points"),
        # grid_points beside a list prior of another length, where the prior's length won
        ("bayes11.json", [(("bayes", "grid_points"), 5), (("bayes", "prior"), [0.5, 0.5])],
         "grid_points"),
        ("bayes11.json", [(("bayes", "prior"), [0.2, 0.3, 0.5])], "grid_points"),
    ])
    def test_bad_config_exits_2_naming_the_key_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, preset, edits, named):
        code, out = run_config(tmp_path, preset, edited(preset, *edits), monkeypatch)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err
        assert not out.exists() and not (tmp_path / "runs").exists()

    def test_tiny_smoothing_that_stays_positive_runs(self, tmp_path, monkeypatch):
        # 1e-320 / 64 is subnormal, not 0.0: the 200-event stream fills the
        # window and every score is a finite number
        code, out = run_config(tmp_path, "anomaly.json", edited(
            "anomaly.json", (("anomaly", "smoothing"), 1e-320)), monkeypatch)
        assert code == 0
        text = (out / "scores.csv").read_text(encoding="utf-8").lower()
        assert len(text.splitlines()) == 202 and "nan" not in text and "inf" not in text

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["gridworld", "--config", CONFIGS / "corridor.json", "--seed", -1,
                    "--out", out]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_grid_with_weighted_prior_matches_golden_hashes(self, tmp_path):
        # sha256 of the outputs as written when the prior was built by a
        # three-way branch; one GridPosterior constructor call keeps them
        cfg = {"seed": 4, "bayes": {
            "grid": [0.1, 0.3, 0.6, 0.9], "prior": [0.1, 0.2, 0.3, 0.4],
            "queries": [{"id": "flip"}, {"id": "half", "noise": 0.5}],
            "data_model": {"noise": 0.8}, "data": ["tails", "heads", "heads"]}}
        out = tmp_path / "run"
        assert run(["bayes", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
        golden = {
            "queries.csv": "ccad117d619511646c340bdf260d68123d22c10e747a1d0da9ca01e3a9ae7b01",
            "attribution.csv": "f91a48294d476dc7f287d14e32a231fdf1200ba502692f6c127abd8372511d07",
            "run_meta.json": "eef6433c2d93f5973ca9b19e8effeba9c2c1729e6f471c602759927270dbf50b",
        }
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_grid_points_equal_to_the_prior_length_runs(self, tmp_path):
        cfg = {"seed": 1, "bayes": {"grid_points": 3, "prior": [0.2, 0.3, 0.5]}}
        out = tmp_path / "run"
        assert run(["bayes", "--config", write_config(tmp_path, cfg), "--out", out]) == 0

    @pytest.mark.parametrize("block", [
        {"prior": [0.5, 0.5], "grid": [0.1, 0.5, 0.9]},  # wrong length
        {"prior": [0.6, -0.1, 0.5]},  # a negative weight
        {"prior": [0.2, 0.3, 0.5 + 2e-9]},  # a sum off by more than 1e-9
        {"prior": [0.2, 0.3, 0.5 - 2e-9], "grid": [0.1, 0.5, 0.9]},
    ])
    def test_bad_prior_weights_exit_2_and_write_nothing(self, tmp_path, capsys, block):
        cfg = {"seed": 1, "bayes": dict(block, queries=[{"id": "flip"}], data=["heads"])}
        out = tmp_path / "run"
        assert run(["bayes", "--config", write_config(tmp_path, cfg), "--out", out]) == 2
        assert "bad bayes prior" in capsys.readouterr().err
        assert not out.exists()


MUTANTS = [None, True, "x", [], {}, -1, 0, 0.5, 2.5]
PROPERTY_BASES = [
    ("anomaly.json", []),
    ("bayes11.json", []),
    ("corridor.json", []),
    # the MC back-end, with a key it no longer reads: any value of it runs
    ("corridor.json", [(("estimator",), {"backend": "mc", "n_samples": 100,
                                          "bootstrap_resamples": 200})]),
    ("train_corridor.json", [(("shaping", "episodes"), 20)]),
]


def node_paths(value, path=()):
    """Paths of every node below the root of a JSON value."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


@given(st.data())
@settings(max_examples=300)
def test_mutated_preset_runs_cleanly_or_exits_2_writing_nothing(tmp_path_factory, data):
    preset, edits = data.draw(st.sampled_from(PROPERTY_BASES), label="base")
    cfg = edited(preset, *edits)
    path = data.draw(st.sampled_from(list(node_paths(cfg))), label="path")
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans(), label="drop"):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(MUTANTS), label="value")
    tmp_path = tmp_path_factory.mktemp("mutant")
    with pytest.MonkeyPatch.context() as mp:
        err = io.StringIO()
        mp.setattr("sys.stderr", err)
        code, out = run_config(tmp_path, preset, cfg, mp)
    if path == ("estimator", "bootstrap_resamples"):
        assert code == 0, err.getvalue()
    if code == 0:
        for f in out.iterdir():
            assert not re.search(r"(?i)\b(nan|inf|infinity)\b", read(f)), f.name
    else:
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith("zentropy: config error: ")
        assert not out.exists()


class TestTrain:
    def test_episodes_zero_empty_tables(self, tmp_path):
        cfg = {
            "seed": 2,
            "shaping": {"grid": {"width": 3, "height": 1, "walls": [],
                                 "goal": [2, 0], "start": [0, 0], "slip": 0.0},
                        "episodes": 0},
        }
        out = tmp_path / "run"
        assert run(["train", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == 0
        lines = read(out / "train_result.csv").splitlines()
        assert len(lines) == 2  # hash + header only

    def test_beta_zero_determinism(self, tmp_path):
        cfg = {
            "seed": 99,
            "shaping": {"grid": {"width": 4, "height": 4, "walls": [],
                                 "goal": [3, 3], "start": [0, 0], "slip": 0.2},
                        "beta": 0.0, "episodes": 150, "max_steps": 80,
                        "epsilon": 0.1, "alpha": 0.2, "gamma": 0.95},
        }
        path = write_config(tmp_path, cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["train", "--config", path, "--out", out]) == 0
        assert (a / "train_result.csv").read_bytes() == (b / "train_result.csv").read_bytes()
        assert (a / "train_result.json").read_bytes() == (b / "train_result.json").read_bytes()

    def test_corridor_preset_learns_right(self, tmp_path):
        out = tmp_path / "run"
        assert run(["train", "--config", CONFIGS / "train_corridor.json",
                    "--out", out]) == 0
        record = json.loads(read(out / "train_result.json"))
        for x in range(4):
            assert record["final_policy"][f"{x},0"] == "right"

    def test_bad_shaping_exits_2(self, tmp_path):
        cfg = {
            "seed": 2,
            "shaping": {"grid": {"width": 3, "height": 1, "walls": [],
                                 "goal": [2, 0], "start": [0, 0]},
                        "episodes": 5, "beta": -1.0},
        }
        assert run(["train", "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("preset, golden", [
        ("train_5x5.json", {
            "train_result.csv": "d43bfbc178414807486adbb9ec6d28ac2a986365c5359c00303dcf7e2f844bee",
            "train_result.json": "34933cee8456ab3882977c4b8894fa3c8aa4caffb819043ec769cb1c22fdd94b",
            "attribution.csv": "52cc3088c1f85341c31b42c636342c1d627a44484eeb0e981a7410759450c412",
        }),
        ("train_corridor.json", {
            "train_result.csv": "ff0618e429dadf1d74cc1b5eb3dc6e87cf97289d6ffa4f8addf39465cea4ab6c",
            "train_result.json": "0addf10757b08eee847f72b8d1f15228a75bb38a47f5a761f72880a00615eff9",
            "attribution.csv": "851d712dc01d97ae5c48e97b981d55109b76303ecbfab9d308d7765ce0921937",
        }),
    ])
    def test_preset_outputs_match_golden_hashes(self, tmp_path, preset, golden):
        # sha256 of the preset's outputs as written by the learner with a
        # numpy Q table; the list-of-floats table must reproduce every byte
        out = tmp_path / "run"
        assert run(["train", "--config", CONFIGS / preset, "--out", out]) == 0
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_current_greedy_outputs_match_golden_hashes(self, tmp_path):
        # both presets follow a fixed-uniform policy; this pins the shaping
        # whose Z tables follow the learner's own greedy policy, refreshed
        # 10 times, as written by the learner that scanned every Q row
        cfg = {"seed": 31337,
               "shaping": {"grid": {"width": 5, "height": 5,
                                    "walls": [[1, 1], [3, 1], [1, 3], [2, 3]],
                                    "goal": [4, 4], "start": [0, 0], "slip": 0.2},
                           "beta": 0.5, "horizon_k": 15, "recompute_every": 50,
                           "z_policy": "current-greedy", "episodes": 500,
                           "max_steps": 200, "epsilon": 0.1, "alpha": 0.2,
                           "gamma": 0.95}}
        out = tmp_path / "run"
        assert run(["train", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
        golden = {
            "train_result.csv": "361866169083f060ac186799f1406f36abcb3b5d482915aa6307fc4b95d8421c",
            "train_result.json": "f29f5cb483ba23074f7f0a9be2783e36a592b8934c23163500eb629d1155e082",
        }
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_beta_exits_2(self, tmp_path, capsys, beta):
        # json writes and reads these as NaN/Infinity; shaping must refuse
        # them rather than switch itself off (NaN) or write NaN rewards (inf)
        cfg = {
            "seed": 2,
            "shaping": {"grid": {"width": 3, "height": 1, "walls": [],
                                 "goal": [2, 0], "start": [0, 0], "slip": 0.2},
                        "episodes": 5, "beta": beta},
        }
        out = tmp_path / "o"
        assert run(["train", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == 2
        assert "beta must be finite" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


def scaled_bayes_config(points, n_data, n_queries):
    """A bayes config: a uniform prior on `points` grid points, n_queries
    queries whose noise runs evenly from 0 to 1, and n_data data (heads,
    tails, heads, heads, tails, ...) seen through noise 0.6."""
    return {"seed": 9, "bayes": {
        "grid_points": points,
        "queries": [{"id": f"q{j}", "noise": j / max(n_queries - 1, 1)}
                    for j in range(n_queries)],
        "data_model": {"noise": 0.6},
        "data": ["tails" if i % 3 == 1 else "heads" for i in range(n_data)]}}


class TestBayes:
    def test_scaled_run_matches_golden_hashes(self, tmp_path):
        # sha256 of the outputs as written when each datum's posterior was
        # formed twice and mutual_information was a Python double loop
        out = tmp_path / "run"
        cfg = write_config(tmp_path, scaled_bayes_config(1000, 200, 5))
        assert run(["bayes", "--config", cfg, "--out", out]) == 0
        golden = {
            "queries.csv": "422d0cf402bad4f57d9123df69f96ffa6c22bd68872c2840fce7b1541506645b",
            "attribution.csv": "11000e415b9335fe1899073dad3ea6504a08a5239b0679b78522e675e5c58a68",
            "run_meta.json": "cc8615fe16bbd733823d952a14d2adc56e880d9c33ac0c448ec68913b5dcda7a",
        }
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_10k_point_run_matches_golden_hashes(self, tmp_path):
        # sha256 of the outputs as written when the belief was a Distribution
        # labelled with a tuple of grid floats, rebuilt on every update
        out = tmp_path / "run"
        cfg = write_config(tmp_path, scaled_bayes_config(10_000, 500, 10))
        assert run(["bayes", "--config", cfg, "--out", out]) == 0
        golden = {
            "queries.csv": "15efbb223b0ea54681055496be7c54a0f6afba884a1c83ba67aa700907eb7260",
            "attribution.csv": "55ac041246fcf7d44cf88c1c4f092613af6a20422c75af7d30c0556315c770ae",
            "run_meta.json": "a72711a6e914790c005074e28ac534580dd4cfc43ababbd7151f4844cccf1ba5",
        }
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_101_point_20k_datum_run_matches_golden_hashes(self, tmp_path):
        # sha256 of the outputs as written when each datum's posterior was a
        # checked GridPosterior; this shape chains the most updates
        out = tmp_path / "run"
        cfg = write_config(tmp_path, scaled_bayes_config(101, 20_000, 3))
        assert run(["bayes", "--config", cfg, "--out", out]) == 0
        golden = {
            "queries.csv": "928958169d40c38370e15a69a1e36e74f9b7312de4c2e0e5be1eb575b862afaf",
            "attribution.csv": "8d1f3ea6fac23117c9eba919981347235f68a0e26edce7b81002451696d47b8d",
            "run_meta.json": "3f7b1cc77d64c71b3204a76d40ee48e0db1f4073afdf518e6b7485490ee3ce71",
        }
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_run_updates_the_posterior_once_per_datum(self, tmp_path, monkeypatch):
        # d data and q queries: one update per datum, and one per outcome of
        # each query for its expected potential
        d, q = 7, 3
        calls = []
        update = bayes_infer._updated_probs

        def counted(*args):
            calls.append(args[3])
            return update(*args)

        monkeypatch.setattr(bayes_infer, "_updated_probs", counted)
        config = scaled_bayes_config(11, d, q)
        cfg = write_config(tmp_path, config)
        assert run(["bayes", "--config", cfg, "--out", tmp_path / "run"]) == 0
        # the queries are ranked before the data are scored
        assert calls == ["heads", "tails"] * q + config["bayes"]["data"]

    def test_impossible_datum_exits_1_and_writes_nothing(self, tmp_path, capsys):
        # every belief sits on theta = 1, where an ideal coin never shows tails;
        # the potentials are computed before queries.csv is written
        cfg = {"seed": 1, "bayes": {"grid": [0.5, 1.0], "prior": [0.0, 1.0],
                                    "queries": [{"id": "flip"}], "data": ["heads", "tails"]}}
        out = tmp_path / "run"
        assert run(["bayes", "--config", write_config(tmp_path, cfg), "--out", out]) == 1
        assert "impossible" in capsys.readouterr().err
        assert not out.exists()

    def test_golden_query_ranking(self, tmp_path):
        out = tmp_path / "run"
        assert run(["bayes", "--config", CONFIGS / "bayes11.json",
                    "--out", out]) == 0
        lines = read(out / "queries.csv").splitlines()
        assert lines[1] == "query,expected_z_bits,mutual_information_bits,rank"
        flip = lines[2].split(",")
        assert flip[0] == "flip"
        assert flip[1] == "-0.355788149"
        assert flip[2] == "0.355788149"
        null = lines[-1].split(",")
        assert null[0] == "null" and abs(float(null[1])) <= 1e-9
        rows = read_csv_rows(out / "attribution.csv")
        assert rows[0]["event"] == "data[0]:heads"
        assert rows[0]["z_bits"] == "-0.355788149"
        assert rows[0]["classification"] == "beneficial"

    def test_surprising_datum_is_harmful(self, tmp_path):
        # belief concentrated near theta=1, then tails arrives
        cfg = {"seed": 4,
               "bayes": {"grid": [0.1, 0.9], "prior": [0.05, 0.95],
                         "queries": [{"id": "flip"}], "data": ["tails"]}}
        out = tmp_path / "run"
        assert run(["bayes", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == 0
        rows = read_csv_rows(out / "attribution.csv")
        assert rows[0]["classification"] == "harmful"
        assert float(rows[0]["z_bits"]) > 0


class TestAnomaly:
    def test_regime_shift_fixture(self, tmp_path):
        # seed 60 gives a pre-shift stretch with no false flags, so the first
        # flag of the whole run is the detection itself
        stream = tmp_path / "stream.txt"
        stream.write_text("\n".join(str(v) for v in make_regime_shift_stream(60)),
                          encoding="utf-8")
        out = tmp_path / "run"
        assert run(["anomaly", "--config", CONFIGS / "anomaly.json",
                    "--input", stream, "--out", out]) == 0
        summary = json.loads(read(out / "summary.json"))
        assert 500 <= summary["first_flag_index"] <= 510
        assert summary["flag_count"] >= 1

    def test_empty_input(self, tmp_path):
        stream = tmp_path / "empty.txt"
        stream.write_text("", encoding="utf-8")
        out = tmp_path / "run"
        assert run(["anomaly", "--config", CONFIGS / "anomaly.json",
                    "--input", stream, "--out", out]) == 0
        assert len(read(out / "scores.csv").splitlines()) == 2
        assert json.loads(read(out / "summary.json"))["first_flag_index"] is None

    def test_constant_input_no_flags(self, tmp_path):
        stream = tmp_path / "const.txt"
        stream.write_text("\n".join(["1.0"] * 300), encoding="utf-8")
        out = tmp_path / "run"
        assert run(["anomaly", "--config", CONFIGS / "anomaly.json",
                    "--input", stream, "--out", out]) == 0
        assert json.loads(read(out / "summary.json"))["flag_count"] == 0

    def test_non_numeric_input_exits_2(self, tmp_path):
        stream = tmp_path / "bad.txt"
        stream.write_text("1.0\nbanana\n", encoding="utf-8")
        assert run(["anomaly", "--config", CONFIGS / "anomaly.json",
                    "--input", stream, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_input_exits_2_naming_the_line(self, tmp_path, capsys, bad):
        stream = tmp_path / "bad.txt"
        stream.write_text(f"1.0\n2.0\n{bad}\n", encoding="utf-8")
        assert run(["anomaly", "--config", CONFIGS / "anomaly.json",
                    "--input", stream, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "line 3" in err

    @pytest.mark.parametrize("bad, why", [("banana", "not a number"), ("nan", "not a finite"),
                                          ("-Infinity", "not a finite"), ("1e999", "not a finite")])
    def test_bad_line_number_counts_blank_lines(self, tmp_path, capsys, bad, why):
        stream = tmp_path / "bad.txt"
        stream.write_text(f"\n  \n\t\n1.0\n\n{bad}\n2.0\n", encoding="utf-8")
        assert run(["anomaly", "--config", CONFIGS / "anomaly.json",
                    "--input", stream, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert f"input line 6 is {why}" in err and repr(bad) in err
        assert not (tmp_path / "o").exists()

    def test_lines_parse_as_python_float_does(self, tmp_path):
        lines = ["1_000", " +.5\t", "1E3", "-0.0", "\u0661\u0662", "7"]
        stream = tmp_path / "stream.txt"
        stream.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
        values = cli._read_stream(str(stream))
        assert values.dtype == np.float64
        assert values.tolist() == [float(line) for line in lines]
        out = tmp_path / "run"
        assert run(["anomaly", "--config", CONFIGS / "anomaly.json",
                    "--input", stream, "--out", out]) == 0
        assert [r["value"] for r in read_csv_rows(out / "scores.csv")] == [
            "1000", "0.5", "1000", "0", "12", "7"]

    def test_stdin_input(self, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1.0\n2.0\n3.0\n"))
        out = tmp_path / "run"
        assert run(["anomaly", "--config", CONFIGS / "anomaly.json",
                    "--out", out]) == 0
        assert len(read(out / "scores.csv").splitlines()) == 5

    @pytest.mark.parametrize("seed, kind", [(31, "shifts"), (32, "uniform"),
                                            (33, "one-bin"), (34, "empty")])
    def test_columns_write_what_event_scores_wrote(self, tmp_path, seed, kind):
        # the run's files as the row writer writes them from replay's
        # EventScores, before cmd_anomaly wrote the kernel's columns directly
        rng = np.random.default_rng(seed)
        values = {
            "shifts": lambda: np.concatenate((rng.random(400) * 2.0, rng.random(300) * 2.0 + 2.0,
                                              rng.normal(2.0, 3.0, 150))),
            "uniform": lambda: rng.random(900) * 4.0,
            "one-bin": lambda: rng.random(500) * 0.9,
            "empty": lambda: np.empty(0),
        }[kind]().tolist()
        stream = tmp_path / "stream.txt"
        stream.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
        out = tmp_path / "run"
        assert run(["anomaly", "--config", CONFIGS / "anomaly.json",
                    "--input", stream, "--out", out]) == 0

        config = json.loads(read(CONFIGS / "anomaly.json"))
        chash, block = cli.config_hash_of(config), config["anomaly"]
        scores = anomaly_detect.replay(values, anomaly_detect.DetectorConfig(
            window=block["window"], bins=block["bins"], lo=block["range"][0],
            hi=block["range"][1], kappa=block["kappa"], warmup=block["warmup"],
            smoothing=block["smoothing"]))
        rows, attribution = [], []
        for v, sc in zip(values, scores):
            rows.append([sc.index, v, sc.bin, sc.z.value, sc.rolling_mean, sc.rolling_std,
                         sc.flagged])
            if sc.flagged:
                attribution.append(attribution_row(
                    sc.z.event, f"flagged value {cli.fmt(v)}", sc.z, 0.01))
        flagged = [sc.index for sc in scores if sc.flagged]
        assert (len(flagged) > 0) == (kind in ("shifts", "uniform"))
        ref = tmp_path / "ref"
        write_csv_rows(ref / "scores.csv", ["index", "value", "bin", "z_bits", "rolling_mean",
                                            "rolling_std", "flagged"], rows, chash)
        write_csv_rows(ref / "attribution.csv", cli.ATTRIBUTION_HEADER,
                       ranked_rows(attribution), chash)
        cli.write_json(ref / "summary.json", {
            "n_events": len(values), "flag_count": len(flagged),
            "first_flag_index": flagged[0] if flagged else None}, chash)
        for name in ("scores.csv", "attribution.csv", "summary.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_preset_outputs_match_golden_hashes(self, tmp_path):
        # sha256 of the preset's outputs as written by the per-event loop
        # kernel; the vectorised kernel must reproduce every byte
        rng = np.random.default_rng(2024)
        values = np.concatenate((rng.random(700) * 2.0, rng.random(300) * 2.0 + 2.0,
                                 rng.normal(2.0, 3.0, 200))).tolist()
        stream = tmp_path / "stream.txt"
        stream.write_text("\n".join(repr(v) for v in values), encoding="utf-8")
        out = tmp_path / "run"
        assert run(["anomaly", "--config", CONFIGS / "anomaly.json",
                    "--input", stream, "--out", out]) == 0
        golden = {
            "scores.csv": "c33c53c7d649ae2c337bd559aeca3831453b459c3b06df176e2f89bfff390142",
            "attribution.csv": "9dadd60f6fe2e38d0e2f9c4817ef2f313eaf208fb133f4c0e2a49f82d3ddf2e5",
            "summary.json": "aece87f2ae9a129ead8987a3b113b3d185930926940ab41d7d947519922f65dd",
        }
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_long_stream_outputs_match_golden_hashes(self, tmp_path):
        # 20k events on [0, 2) and [2, 4), switching every 500, through the
        # preset detector: ten scoring chunks and about 20 CSV writer blocks
        rng = np.random.default_rng(2025)
        values = rng.random(20_000) * 2.0 + (np.arange(20_000) // 500) % 2 * 2.0
        stream = tmp_path / "stream.txt"
        stream.write_text("".join(f"{v!r}\n" for v in values.tolist()), encoding="utf-8")
        out = tmp_path / "run"
        assert run(["anomaly", "--config", CONFIGS / "anomaly.json",
                    "--input", stream, "--out", out]) == 0
        golden = {
            "scores.csv": "217b9863dd4a3dbb243648806c3d69d6502e6fff74cabab6408fe228637c6526",
            "attribution.csv": "e474d7117c9937bd903e6c4ddc9827d22ad02468d9e4e8461e49ff98027ccf26",
            "summary.json": "358d6b99a572c60eef3d441b1048dc5bad234dd6df706c71eb01dba15b25014b",
        }
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


class TestReport:
    def test_corridor_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        run(["gridworld", "--config", CONFIGS / "corridor.json", "--out", out])
        assert run(["report", "--input", out]) == 0
        text = capsys.readouterr().out
        lines = [l for l in text.splitlines() if "changed uncertainty" in l]
        assert len(lines) == 2
        assert "right@3,0" in lines[0] and "beneficial" in lines[0]
        assert "left@3,0" in lines[1] and "harmful" in lines[1]

    def test_bayes_report_sorted_ascending(self, tmp_path, capsys):
        cfg = {"seed": 4,
               "bayes": {"grid_points": 11, "prior": "uniform",
                         "queries": [{"id": "flip"}],
                         "data": ["heads", "heads", "tails"]}}
        out = tmp_path / "run"
        run(["bayes", "--config", write_config(tmp_path, cfg), "--out", out])
        assert run(["report", "--input", out]) == 0
        text = capsys.readouterr().out
        zs = [float(l.split("by ")[1].split(" bits")[0])
              for l in text.splitlines() if "changed uncertainty" in l]
        assert zs == sorted(zs)

    def test_empty_dir_exits_1(self, tmp_path, capsys):
        assert run(["report", "--input", tmp_path]) == 1
        assert "run_meta" in capsys.readouterr().err

    def test_mixed_hash_exits_1(self, tmp_path):
        out = tmp_path / "run"
        run(["gridworld", "--config", CONFIGS / "corridor.json", "--out", out])
        other = tmp_path / "other"
        run(["gridworld", "--config", CONFIGS / "corridor.json", "--seed", 12345,
             "--out", other])
        (out / "attribution.csv").write_bytes((other / "attribution.csv").read_bytes())
        assert run(["report", "--input", out]) == 1

    @pytest.mark.parametrize("files", [
        {"run_meta.json": "[1, 2]"},
        {"run_meta.json": '{"config_hash": "h", "subcommand": "gridworld", "seed": 7, '
                          '"outputs": 5}'},
        {"run_meta.json": "{not json"},
        {"run_meta.json": '{"config_hash": "h", "subcommand": "gridworld", "seed": 7, '
                          '"outputs": ["extra.json"]}', "extra.json": "[1]"},
        # {hash} stands for the run's own config hash, so only the named fault remains
        {"attribution.csv": "# config_hash={hash}\nevents,z_bits,horizon_t0,horizon_t,"
                            "classification\nright@3,0,-1,0,2,beneficial\n"},
        {"z_table.csv": b"# config_hash={hash}\ncell_x,cell_y\n3,\xff\n"},
    ], ids=["meta-list", "outputs-int", "meta-not-json", "output-json-list",
            "attribution-lacks-event", "csv-not-utf8"])
    def test_malformed_run_directory_exits_1(self, tmp_path, capsys, files):
        out = tmp_path / "run"
        run(["gridworld", "--config", CONFIGS / "corridor.json", "--out", out])
        chash = json.loads(read(out / "run_meta.json"))["config_hash"]
        for name, content in files.items():
            if isinstance(content, str):
                content = content.encode("utf-8")
            (out / name).write_bytes(content.replace(b"{hash}", chash.encode("ascii")))
        assert run(["report", "--input", out]) == 1
        assert "config error" not in capsys.readouterr().err

    def test_report_needs_directory(self):
        assert run(["report"]) == 2


class TestSeedAndEnv:
    def test_seed_flag_overrides_config(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["gridworld", "--config", CONFIGS / "corridor.json", "--out", out1])
        run(["gridworld", "--config", CONFIGS / "corridor.json", "--seed", 7,
             "--out", out2])
        # same effective seed -> same hash and bytes
        assert (out1 / "z_table.csv").read_bytes() == (out2 / "z_table.csv").read_bytes()

    def test_env_out_overrides_flag(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("ZENTROPY_OUT", str(env_dir))
        run(["gridworld", "--config", CONFIGS / "corridor.json",
             "--out", tmp_path / "ignored"])
        assert (env_dir / "z_table.csv").is_file()
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize("sub", [None, "sub"], ids=["file", "under-a-file"])
    def test_output_path_through_a_file_exits_2_writing_nothing(self, tmp_path, capsys,
                                                               sub):
        blocker = tmp_path / "afile"
        blocker.write_text("keep me\n", encoding="utf-8")
        out = blocker if sub is None else blocker / sub
        assert run(["gridworld", "--config", CONFIGS / "corridor.json", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(out) in err
        assert read(blocker) == "keep me\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    def test_config_without_seed_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": {}})
        assert run(["gridworld", "--config", cfg, "--out", tmp_path / "o"]) == 2
