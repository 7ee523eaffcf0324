import math

import numpy as np
import pytest

from zentropy.entropic_potential import EstimatorConfig
from zentropy.mdp_sim import (
    ACTIONS,
    GridWorld,
    action_z_scores,
    always_policy,
    corridor_world,
    uniform_policy,
)
from zentropy.rl_agent import (
    ShapingConfig,
    evaluate_policy,
    greedy_policy_from_q,
    shaped_reward,
    train,
)

from oracles import value_iteration_actions, vanilla_q_learning


class TestShapedReward:
    def test_negative_z_is_bonus(self):
        assert shaped_reward(0.0, -0.982, 1.0) == pytest.approx(0.982)

    def test_beta_zero_is_identity(self):
        for z in (-3.0, 0.0, 2.5):
            assert shaped_reward(0.7, z, 0.0) == 0.7

    def test_zero_z_leaves_reward(self):
        assert shaped_reward(1.0, 0.0, 5.0) == 1.0

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            shaped_reward(0.0, 0.0, -0.1)


class TestShapingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShapingConfig(beta=-0.1)
        with pytest.raises(ValueError):
            ShapingConfig(horizon_k=0)
        with pytest.raises(ValueError):
            ShapingConfig(recompute_every=0)
        with pytest.raises(ValueError):
            ShapingConfig(z_policy="whatever")


class TestTrain:
    def test_validates_hyperparameters(self):
        g = corridor_world(3, 0.0)
        cfg = ShapingConfig()
        with pytest.raises(ValueError):
            train(g, cfg, episodes=-1, max_steps=10, epsilon=0.1, alpha=0.5,
                  gamma=0.9, seed=0)
        with pytest.raises(ValueError):
            train(g, cfg, episodes=1, max_steps=10, epsilon=1.5, alpha=0.5,
                  gamma=0.9, seed=0)
        with pytest.raises(ValueError):
            train(g, cfg, episodes=1, max_steps=10, epsilon=0.1, alpha=0.0,
                  gamma=0.9, seed=0)
        with pytest.raises(ValueError):
            train(g, cfg, episodes=1, max_steps=10, epsilon=0.1, alpha=0.5,
                  gamma=1.5, seed=0)

    def test_zero_episodes_gives_empty_record(self):
        g = corridor_world(3, 0.0)
        res = train(g, ShapingConfig(), episodes=0, max_steps=10, epsilon=0.1,
                    alpha=0.5, gamma=0.9, seed=0)
        assert res.episode_returns == [] and res.steps_to_goal == []

    def test_beta_zero_matches_vanilla_reference_exactly(self):
        g = GridWorld(5, 5, goal=(4, 4), start=(0, 0), slip=0.2)
        kw = dict(episodes=300, max_steps=100, epsilon=0.1, alpha=0.2,
                  gamma=0.95, seed=20240817)
        res = train(g, ShapingConfig(beta=0.0), **kw)
        ref_ret, ref_steps, ref_q = vanilla_q_learning(
            5, 5, set(), (0, 0), (4, 4), 0.2, **kw)
        assert res.episode_returns == ref_ret
        assert res.steps_to_goal == ref_steps
        for c, a in res.final_q:
            i = c[1] * 5 + c[0]
            assert res.final_q[(c, a)] == ref_q[i, ACTIONS.index(a)]
        assert res.z_snapshots == []
        assert all(m == 0.0 for m in res.mean_intrinsic)

    def test_reproducible_from_seed(self):
        g = corridor_world(5, 0.2)
        cfg = ShapingConfig(beta=0.5, horizon_k=10, recompute_every=100,
                            z_policy="fixed-uniform")
        kw = dict(episodes=200, max_steps=60, epsilon=0.1, alpha=0.2,
                  gamma=0.95, seed=17)
        a = train(g, cfg, **kw)
        b = train(g, cfg, **kw)
        assert a.episode_returns == b.episode_returns
        assert a.steps_to_goal == b.steps_to_goal
        assert a.final_q == b.final_q
        assert a.z_snapshots == b.z_snapshots

    def test_slip_free_corridor_learns_optimal_action(self):
        # with slip=0 and a greedy (deterministic) z-policy the model is
        # deterministic, so every cached Z is zero and shaping is inert
        g = corridor_world(5, 0.0)
        cfg = ShapingConfig(beta=0.5, horizon_k=6, recompute_every=50,
                            z_policy="current-greedy")
        res = train(g, cfg, episodes=500, max_steps=50, epsilon=0.1, alpha=0.3,
                    gamma=0.9, seed=5)
        assert all(abs(v) <= 1e-12 for _, t in res.z_snapshots for v in t.values())
        oracle = value_iteration_actions(5, 1, set(), (0, 0), (4, 0), 0.0)
        for cell, best in oracle.items():
            assert res.final_policy[cell] == best == "right"

    def test_goal_directed_shaping_does_not_flip_corridor(self):
        g = corridor_world(5, 0.2)
        # premise: under the always-right follow-on, right is uncertainty-
        # reducing and left uncertainty-increasing at every non-goal cell
        pol = always_policy(g, "right")
        est = EstimatorConfig()
        for x in range(4):
            s = dict(action_z_scores(g, (x, 0), pol, 10, est,
                                     actions=("left", "right")))
            assert s["right"].value < 0 < s["left"].value
        cfg = ShapingConfig(beta=0.5, horizon_k=10, recompute_every=100,
                            z_policy="fixed-uniform")
        res = train(g, cfg, episodes=1500, max_steps=100, epsilon=0.1,
                    alpha=0.2, gamma=0.95, seed=11)
        for x in range(4):
            assert res.final_policy[(x, 0)] == "right"

    def test_intrinsic_term_is_bounded(self):
        g = corridor_world(5, 0.2)
        beta = 0.7
        cfg = ShapingConfig(beta=beta, horizon_k=6, recompute_every=100,
                            z_policy="fixed-uniform")
        res = train(g, cfg, episodes=100, max_steps=60, epsilon=0.2, alpha=0.2,
                    gamma=0.95, seed=2)
        bound = beta * math.log2(g.n_cells) + 1e-12
        assert all(abs(v) <= bound for _, t in res.z_snapshots
                   for v in (beta * x for x in t.values()))
        assert all(abs(m) <= bound for m in res.mean_intrinsic)


class TestEvaluatePolicy:
    def test_optimal_slip_free_corridor(self):
        g = corridor_world(5, 0.0)
        mean_ret, mean_steps = evaluate_policy(g, always_policy(g, "right"),
                                               n_episodes=20, max_steps=50, seed=0)
        assert mean_ret == 1.0
        assert mean_steps == 4.0

    def test_uniform_is_no_faster_than_optimal(self):
        g = corridor_world(5, 0.1)
        _, opt_steps = evaluate_policy(g, always_policy(g, "right"), 50, 200, seed=1)
        _, uni_steps = evaluate_policy(g, uniform_policy(g), 50, 200, seed=1)
        assert uni_steps >= opt_steps

    def test_seeded_statistics_are_stable(self):
        g = corridor_world(5, 0.3)
        pol = uniform_policy(g)
        assert evaluate_policy(g, pol, 30, 100, seed=9) == \
            evaluate_policy(g, pol, 30, 100, seed=9)

    def test_zero_episodes(self):
        g = corridor_world(3, 0.0)
        assert evaluate_policy(g, uniform_policy(g), 0, 10, seed=0) == (0.0, 0.0)


def test_greedy_policy_from_q_breaks_ties_by_action_order():
    g = corridor_world(3, 0.0)
    q = np.zeros((g.n_cells, 4))
    pol = greedy_policy_from_q(g, q)
    assert pol[(0, 0)].prob_of("up") == 1.0  # first action in canonical order
    q[g.index_of((0, 0)), ACTIONS.index("right")] = 1.0
    pol = greedy_policy_from_q(g, q)
    assert pol[(0, 0)].prob_of("right") == 1.0
