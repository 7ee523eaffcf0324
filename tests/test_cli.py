import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from zentropy import cli

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
