import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from zentropy import cli, rl_agent
from zentropy.errors import ZentropyError

from oracles import make_regime_shift_stream

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
        for key, value in (("n_samples", -5), ("bootstrap_resamples", 0),
                           ("bootstrap_resamples", 1)):
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
    WALLED_MC = dict(WALLED, estimator={"backend": "mc", "n_samples": 2000,
                                        "bootstrap_resamples": 50},
                     grid=dict(WALLED["grid"], cells=[[0, 0], [3, 2], [1, 4]]))

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
            "z_table.csv": "8f101e5d180af18b245cfb119410873230df94b32ca03fcc4fb710b6b9d15b8c",
            "attribution.csv": "5ba3cfde118dddeede11dac9e349f220de538d08724875e353dc80863706ba08",
            "run_meta.json": "c5440b3a7451ba0e21bb1bf09df2e276dae9a3a917800d5de53ceb317991e256",
        }),
    ], ids=["corridor", "walled-exact", "walled-mc"])
    def test_outputs_match_golden_hashes(self, tmp_path, config, golden):
        # sha256 of the outputs as written when policies were dicts of
        # Distributions; the (n_cells, 4) array policies must keep every byte
        path = CONFIGS / config if isinstance(config, str) else write_config(tmp_path, config)
        out = tmp_path / "run"
        assert run(["gridworld", "--config", path, "--out", out]) == 0
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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
            with pytest.raises(ZentropyError, match="non-finite"):
                cli.write_json(path, {"v": [1.0, bad]}, "abc")
            assert not path.exists()

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


class TestBayes:
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

    def test_stdin_input(self, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1.0\n2.0\n3.0\n"))
        out = tmp_path / "run"
        assert run(["anomaly", "--config", CONFIGS / "anomaly.json",
                    "--out", out]) == 0
        assert len(read(out / "scores.csv").splitlines()) == 5


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

    def test_config_without_seed_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": {}})
        assert run(["gridworld", "--config", cfg, "--out", tmp_path / "o"]) == 2
