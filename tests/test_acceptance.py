"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every criterion is seeded and deterministic; stated runtime
budgets are asserted alongside the numeric tolerances.
"""

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import zentropy as z
from zentropy import cli

from oracles import (
    bfs_shortest_path,
    entropy_bits,
    make_regime_shift_stream,
    vanilla_q_learning,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(num, desc, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status} [{elapsed:6.2f}s/{budget:g}s] {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_deterministic_models_have_zero_potential():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 65))
        model = z.random_chain_model(n, 3, rng, deterministic=True)
        events = model.event_space()
        h = z.Horizon(0, int(rng.integers(1, 5)))
        zp = z.z_pre_post(model, events[0], h)
        zc = z.z_counterfactual(model, events[0], z.Baseline.uniform(events[1:]), h)
        ok &= abs(zp.value) <= 1e-12 and abs(zc.value) <= 1e-12
    report(1, "deterministic models: z == 0 within 1e-12 (50 models)",
           ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_null_baseline_reduction():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 65))
        model = z.random_chain_model(n, 2, rng)
        ev = model.event_space()[0]
        h = z.Horizon(0, int(rng.integers(1, 4)))
        a = z.z_pre_post(model, ev, h)
        b = z.z_counterfactual(model, ev, z.Baseline.null(), h)
        ok &= abs(a.value - b.value) <= 1e-12
    report(2, "null-baseline counterfactual == pre/post within 1e-12 (50 models)",
           ok, time.perf_counter() - t0, 1.0)


def test_criterion_03_monte_carlo_matches_exact():
    chain = z.two_state_flip_chain(0.1, (0.5, 0.5))
    ev_chain = z.Event("clamp0")
    h_chain = z.Horizon(0, 1)
    exact_chain = z.z_pre_post(chain, ev_chain, h_chain).value

    g = z.corridor_world(5, 0.2)
    model = z.GridWorldModel(g, (3, 0), z.always_policy(g, "right"),
                             actions=("left", "right"))
    ev_corr = z.Event("right")
    bl = z.Baseline.uniform([z.Event("left")])
    h_corr = z.Horizon(0, 2)
    exact_corr = z.z_counterfactual(model, ev_corr, bl, h_corr).value

    t0 = time.perf_counter()
    hits = 0
    for seed in range(50):
        est = z.EstimatorConfig(backend="mc", n_samples=10_000, seed=seed)
        zc = z.z_pre_post(chain, ev_chain, h_chain, est)
        hits += abs(zc.value - exact_chain) <= 3.0 * zc.std_error
        zr = z.z_counterfactual(model, ev_corr, bl, h_corr, est)
        hits += abs(zr.value - exact_corr) <= 3.0 * zr.std_error
    est = z.EstimatorConfig(backend="mc", n_samples=100_000, seed=1234)
    big_chain = z.z_pre_post(chain, ev_chain, h_chain, est)
    big_corr = z.z_counterfactual(model, ev_corr, bl, h_corr, est)
    ok = (hits >= 99
          and abs(big_chain.value - exact_chain) <= 0.02
          and abs(big_corr.value - exact_corr) <= 0.02)
    report(3, f"MC vs exact: {hits}/100 trials within 3 SE, 100k runs within 0.02 bits",
           ok, time.perf_counter() - t0, 30.0)


def test_criterion_04_corridor_golden_values():
    t0 = time.perf_counter()
    g = z.corridor_world(5, 0.2)
    est, actions = z.EstimatorConfig(), ("left", "right")
    zs, se = z.z_table(g, [(3, 0)], z.always_policy(g, "right"), 2, est, actions)
    scores = dict(z.ranked_row(zs[0], se[0], 2, est, actions))
    ok = (abs(scores["right"].value - (-0.982)) <= 0.001
          and abs(scores["left"].value - 0.982) <= 0.001)
    report(4, f"corridor goldens: Z(right)={scores['right'].value:.4f}, "
              f"Z(left)={scores['left'].value:.4f} within +-0.001",
           ok, time.perf_counter() - t0, 1.0)


def test_criterion_05_bayes_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 60))
        w = rng.random(n) + 1e-6
        p = z.GridPosterior(np.linspace(0.0, 1.0, n), w / w.sum())
        q = z.QueryCandidate("q", z.BernoulliFlip(noise=float(rng.random())))
        expected = z.expected_event_potential(p, q).value
        mi = float(z.mutual_information(p, q))
        ok &= abs(expected + mi) <= 1e-9
    golden = z.expected_event_potential(
        z.GridPosterior.uniform(11), z.QueryCandidate("flip", z.BernoulliFlip()))
    ok &= abs(golden.value - (-0.3557)) <= 0.0001
    report(5, "expected potential == -mutual information (200 priors), golden -0.3557",
           ok, time.perf_counter() - t0, 5.0)


def test_criterion_06_positive_realized_potential_exists():
    t0 = time.perf_counter()
    p = z.GridPosterior([0.1, 0.9], [0.05, 0.95])
    zr = z.realized_event_potential(p, z.BernoulliFlip(), "tails")
    report(6, f"surprising datum with realized Z = {zr.value:+.4f} > 0",
           zr.value > 0.0, time.perf_counter() - t0, 1.0)


def test_criterion_07_rl_ablation_identity():
    t0 = time.perf_counter()
    g = z.GridWorld(5, 5, goal=(4, 4), start=(0, 0), slip=0.2)
    kw = dict(episodes=500, max_steps=200, epsilon=0.05, alpha=0.2,
              gamma=0.95, seed=424242)
    res = z.train(g, z.ShapingConfig(beta=0.0), **kw)
    ref_ret, ref_steps, ref_q = vanilla_q_learning(
        5, 5, set(), (0, 0), (4, 4), 0.2, **kw)
    rows = [[ep, r, s, m] for ep, (r, s, m) in enumerate(
        zip(res.episode_returns, res.steps_to_goal, res.mean_intrinsic))]
    ref_rows = [[ep, r, s, 0.0] for ep, (r, s) in enumerate(zip(ref_ret, ref_steps))]
    csv_ours = "\n".join(",".join(cli.fmt(v) for v in row) for row in rows)
    csv_ref = "\n".join(",".join(cli.fmt(v) for v in row) for row in ref_rows)
    ok = (res.episode_returns == ref_ret and res.steps_to_goal == ref_steps
          and csv_ours == csv_ref
          and all(res.final_q[(c, a)] == ref_q[c[1] * 5 + c[0], z.ACTIONS.index(a)]
                  for c, a in res.final_q))
    report(7, "beta=0 training byte-identical to vanilla reference learner",
           ok, time.perf_counter() - t0, 10.0)


def test_criterion_08_rl_learning_check():
    t0 = time.perf_counter()
    g = z.GridWorld(5, 5, goal=(4, 4), start=(0, 0), slip=0.2)
    shortest = bfs_shortest_path(5, 5, set(), (0, 0), (4, 4))
    bound = shortest + 4
    kw = dict(episodes=2000, max_steps=200, epsilon=0.05, alpha=0.2,
              gamma=0.95, seed=424242)
    medians = {}
    for beta in (0.0, 0.5):
        cfg = z.ShapingConfig(beta=beta, horizon_k=15, recompute_every=100,
                              z_policy="fixed-uniform")
        res = z.train(g, cfg, **kw)
        medians[beta] = statistics.median(res.steps_to_goal[-100:])
    ok = all(m <= bound for m in medians.values())
    report(8, f"5x5 learning: medians {medians} <= BFS+4 = {bound} (beta 0 and 0.5)",
           ok, time.perf_counter() - t0, 60.0)


def test_criterion_09_anomaly_detection():
    t0 = time.perf_counter()
    cfg = z.DetectorConfig(window=64, bins=4, lo=0.0, hi=4.0, kappa=3.0,
                           warmup=64, smoothing=1.0)
    detected = 0
    for seed in range(20):
        scores = z.replay(make_regime_shift_stream(seed), cfg)
        detected += any(s.flagged and 500 <= s.index < 510 for s in scores)

    rng = np.random.default_rng(321)
    stationary = (rng.random(10_000) * 4.0).tolist()
    flat_scores = z.replay(stationary, cfg)
    rate = sum(s.flagged for s in flat_scores) / len(flat_scores)

    det = z.StreamDetector(cfg)
    folded = [det.ingest(x) for x in stationary[:2000]]
    online_offline = folded == z.replay(stationary[:2000], cfg)

    ok = detected == 20 and rate <= 0.02 and online_offline
    report(9, f"anomaly: {detected}/20 shifts within 10 events, "
              f"stationary rate {rate:.3%} <= 2%, replay == ingest",
           ok, time.perf_counter() - t0, 30.0)


def test_criterion_10_entropy_core_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    ok = True

    for _ in range(200):
        n = int(rng.integers(1, 33))
        w = rng.random(n) + 1e-9
        d = z.Distribution(range(n), w / w.sum())
        h = z.shannon_entropy(d).value
        ok &= -1e-12 <= h <= math.log2(n) + 1e-12
        perm = rng.permutation(n)
        shuffled = z.Distribution([int(i) for i in perm], d.probs[perm])
        ok &= abs(z.shannon_entropy(shuffled).value - h) <= 1e-12
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            ok &= abs(z.renyi_entropy(d, alpha).value - h) <= 1e-3

    ok &= z.shannon_entropy(z.Distribution.uniform(range(4))).value == pytest.approx(2.0)
    ok &= z.shannon_entropy(z.Distribution.point("x")).value == 0.0

    for _ in range(50):
        n1, n2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        w1 = rng.random(n1) + 1e-9
        w2 = rng.random(n2) + 1e-9
        d1 = z.Distribution(range(n1), w1 / w1.sum())
        d2 = z.Distribution(range(n2), w2 / w2.sum())
        joint = z.joint_product(d1, d2)
        ok &= abs(z.shannon_entropy(joint).value - z.shannon_entropy(d1).value
                  - z.shannon_entropy(d2).value) <= 1e-12

    for support in (2, 5, 16):
        w = rng.random(support) + 0.05
        p = w / w.sum()
        counts = rng.multinomial(100_000, p)
        sc = z.SampleCounts({i: int(c) for i, c in enumerate(counts)})
        ok &= abs(z.plugin_entropy(sc).value - entropy_bits(p)) <= 0.01
        mm = z.miller_madow_entropy(sc).value
        k = int((counts > 0).sum())
        ok &= abs(mm - z.plugin_entropy(sc).value
                  - (k - 1) / (2 * 100_000 * math.log(2))) <= 1e-12

    report(10, "entropy core: bounds, permutation, additivity, Renyi limit, "
               "plug-in convergence at N=100k",
           ok, time.perf_counter() - t0, 30.0)


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    stream = tmp_path / "stream.txt"
    stream.write_text("\n".join(str(v) for v in make_regime_shift_stream(60)),
                      encoding="utf-8")
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "seed": 11,
        "shaping": {"grid": {"width": 5, "height": 1, "walls": [],
                             "goal": [4, 0], "start": [0, 0], "slip": 0.2},
                    "beta": 0.5, "horizon_k": 10, "recompute_every": 100,
                    "z_policy": "fixed-uniform", "episodes": 300,
                    "max_steps": 100, "epsilon": 0.1, "alpha": 0.2,
                    "gamma": 0.95}}), encoding="utf-8")

    jobs = [
        ("gridworld", ["--config", str(CONFIGS / "corridor.json")]),
        ("train", ["--config", str(train_cfg)]),
        ("bayes", ["--config", str(CONFIGS / "bayes11.json")]),
        ("anomaly", ["--config", str(CONFIGS / "anomaly.json"),
                     "--input", str(stream)]),
    ]
    ok = True
    for name, args in jobs:
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        for out in (a, b):
            code = cli.main([name, *args, "--out", str(out)])
            ok &= code == 0
        for f in sorted(p.name for p in a.iterdir()):
            ok &= (a / f).read_bytes() == (b / f).read_bytes()
    report(11, "CLI determinism: every subcommand twice, byte-identical outputs",
           ok, time.perf_counter() - t0, 90.0)
