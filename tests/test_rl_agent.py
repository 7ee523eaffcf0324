import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zentropy import rl_agent
from zentropy.entropic_potential import EstimatorConfig
from zentropy.entropy_core import normalized_probs
from zentropy.mdp_sim import (
    ACTIONS,
    GridWorld,
    _checked_policy,
    always_policy,
    corridor_world,
    uniform_policy,
    z_table,
)
from zentropy.rl_agent import (
    MAX_EPISODES,
    MAX_STEPS,
    Z_POLICIES,
    ShapingConfig,
    _raw_threshold,
    evaluate_policy,
    greedy_policy_from_q,
    shaped_reward,
    train,
)

from oracles import (
    evaluate_policy_loop,
    shaped_q_learning,
    train_scanning_rows,
    value_iteration_actions,
    vanilla_q_learning,
)


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

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="finite"):
            shaped_reward(1.0, 0.0, beta)


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

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="finite"):
            ShapingConfig(beta=beta)


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

    @pytest.mark.parametrize("episodes, max_steps, named", [
        (MAX_EPISODES + 1, 10, "episodes"),
        (10**12, 10, "episodes"),
        (1, 0, "max_steps"),
        (1, MAX_STEPS + 1, "max_steps"),
    ])
    def test_caps_run_length(self, episodes, max_steps, named):
        with pytest.raises(ValueError, match=named):
            train(corridor_world(3, 0.0), ShapingConfig(), episodes=episodes,
                  max_steps=max_steps, epsilon=0.1, alpha=0.5, gamma=0.9, seed=0)

    def test_caps_are_inclusive(self):
        # start on the goal: every episode ends before its first step
        g = GridWorld(1, 1, goal=(0, 0), start=(0, 0))
        res = train(g, ShapingConfig(), episodes=MAX_EPISODES, max_steps=MAX_STEPS,
                    epsilon=0.1, alpha=0.5, gamma=0.9, seed=0)
        assert len(res.steps_to_goal) == MAX_EPISODES and not any(res.steps_to_goal)

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
        z, _ = z_table(g, [(x, 0) for x in range(4)], always_policy(g, "right"), 10,
                       EstimatorConfig(), ("left", "right"))
        assert (z[:, 1] < 0).all() and (z[:, 0] > 0).all()  # columns: left, right
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


@st.composite
def shaped_runs(draw):
    """A small world with walls and slip, shaping with beta > 0 and training
    settings; a flat initial Q table (0.0 or 1.0) makes argmax ties common.
    The last item is the size of train's raw-word blocks: at 1, 2 or 3 words
    a refill is 3 * max_steps words, so it comes at many episode starts and
    a buffered action half crosses refills, episodes and Z refreshes."""
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 3))
    cells = [(x, y) for y in range(height) for x in range(width)]
    goal = draw(st.sampled_from(cells))
    start = draw(st.sampled_from(cells))
    walls = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1)) - {goal, start}
    g = GridWorld(width, height, goal=goal, start=start, walls=walls,
                  slip=draw(st.sampled_from([0.0, 0.1, 0.25, 0.5])))
    shaping = ShapingConfig(beta=draw(st.floats(1e-3, 4.0)),
                            horizon_k=draw(st.integers(1, 4)),
                            recompute_every=draw(st.integers(1, 4)),
                            z_policy=draw(st.sampled_from(Z_POLICIES)))
    kw = dict(episodes=draw(st.integers(1, 12)), max_steps=draw(st.integers(1, 30)),
              epsilon=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
              alpha=draw(st.sampled_from([0.2, 0.5, 1.0])),
              gamma=draw(st.sampled_from([0.0, 0.9, 1.0])),
              seed=draw(st.integers(0, 2**32 - 1)),
              q_init=draw(st.sampled_from([0.0, 1.0])))
    return g, shaping, kw, draw(st.sampled_from([1, 2, 3, rl_agent._RAW_BLOCK]))


def assert_matches_array_reference(g, shaping, kw):
    """train's results equal those of the scalar-draw array learner."""

    def z_of(q):
        if shaping.z_policy == "current-greedy":
            follow = np.array([np.eye(4)[int(np.argmax(row))] for row in q])
        else:
            follow = uniform_policy(g)
        cells = g.free_cells()
        z, _ = z_table(g, cells, follow, shaping.horizon_k)
        return {(c, a): v for c, row in zip(cells, z.tolist()) for a, v in zip(ACTIONS, row)}

    # fixed-uniform tables do not depend on Q: train builds one, up front
    every = shaping.recompute_every if shaping.z_policy == "current-greedy" else None
    ref_ret, ref_steps, ref_intr, ref_q, ref_snaps = shaped_q_learning(
        g.width, g.height, g.walls, g.start, g.goal, g.slip, beta=shaping.beta,
        z_table=z_of, recompute_every=every, **kw)
    res = train(g, shaping, **kw)
    assert res.episode_returns == ref_ret
    assert res.steps_to_goal == ref_steps
    assert res.mean_intrinsic == ref_intr
    assert res.final_q == {(c, a): ref_q[g.index_of(c), i]
                           for c in g.free_cells() for i, a in enumerate(ACTIONS)}
    assert res.z_snapshots == ref_snaps


@given(shaped_runs())
def test_shaped_training_matches_array_reference(run):
    g, shaping, kw, block = run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rl_agent, "_RAW_BLOCK", block)
        assert_matches_array_reference(g, shaping, kw)


@pytest.mark.parametrize("epsilon", [0.05, 0.5, 1.0])
def test_long_shaped_run_matches_array_reference(epsilon):
    # thousands of steps cross many default-size blocks of raw words
    g = GridWorld(5, 4, goal=(4, 3), start=(0, 0), walls=frozenset({(2, 1), (1, 3)}),
                  slip=0.2)
    shaping = ShapingConfig(beta=0.5, horizon_k=4, recompute_every=40,
                            z_policy="current-greedy")
    assert_matches_array_reference(g, shaping, dict(
        episodes=300, max_steps=60, epsilon=epsilon, alpha=0.2, gamma=0.95, seed=8,
        q_init=1.0))


@st.composite
def tie_heavy_runs(draw):
    """Training runs weighted toward tied and zero Q values: flat initial
    rows, gamma 0 (a target of r alone), alpha 1 (an entry replaced by its
    target), beta 0 (no shaping) or slip 0 (where a greedy follow policy
    gives zero Z), and epsilon 0 or 1.
    The last item is the size of train's raw-word blocks, as in
    shaped_runs."""
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 3))
    cells = [(x, y) for y in range(height) for x in range(width)]
    goal = draw(st.sampled_from(cells))
    start = draw(st.sampled_from(cells))
    walls = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1)) - {goal, start}
    g = GridWorld(width, height, goal=goal, start=start, walls=walls,
                  slip=draw(st.sampled_from([0.0, 0.0, 0.25])))
    shaping = ShapingConfig(beta=draw(st.sampled_from([0.0, 0.0, 0.5, 2.0])),
                            horizon_k=draw(st.integers(1, 3)),
                            recompute_every=draw(st.integers(1, 4)),
                            z_policy=draw(st.sampled_from(Z_POLICIES)))
    kw = dict(episodes=draw(st.integers(1, 12)), max_steps=draw(st.integers(1, 30)),
              epsilon=draw(st.sampled_from([0.0, 0.0, 0.1, 1.0, 1.0])),
              alpha=draw(st.sampled_from([1.0, 1.0, 0.5])),
              gamma=draw(st.sampled_from([0.0, 0.0, 0.9, 1.0])),
              seed=draw(st.integers(0, 2**32 - 1)),
              q_init=draw(st.sampled_from([0.0, 1.0])))
    return g, shaping, kw, draw(st.sampled_from([1, 2, 3, rl_agent._RAW_BLOCK]))


def hex_floats(values):
    return [v.hex() for v in values]


@given(tie_heavy_runs())
def test_train_matches_the_row_scanning_loop(run):
    # the cached row maxima must reproduce every bit of the loop that
    # scanned each row with max(), zeros' signs included
    g, shaping, kw, block = run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rl_agent, "_RAW_BLOCK", block)
        res = train(g, shaping, **kw)
    ref = train_scanning_rows(g, shaping, **kw)
    assert res.steps_to_goal == ref.steps_to_goal
    assert res.reached == ref.reached
    assert res.final_policy == ref.final_policy
    for field in ("episode_returns", "mean_intrinsic"):
        assert getattr(res, field) == getattr(ref, field), field
        assert hex_floats(getattr(res, field)) == hex_floats(getattr(ref, field)), field
    assert list(res.final_q) == list(ref.final_q)
    assert hex_floats(res.final_q.values()) == hex_floats(ref.final_q.values())
    assert [(ep, list(t), hex_floats(t.values())) for ep, t in res.z_snapshots] == \
        [(ep, list(t), hex_floats(t.values())) for ep, t in ref.z_snapshots]


@pytest.mark.parametrize("seed, q_init, script", [
    # (explore action, value written, first maximum of the row after it)
    (6613, 1.0, [(2, 3.0, 2),    # a rise above the maximum
                 (2, 0.5, 0),    # a fall of the greedy entry: rescan
                 (3, 2.0, 3),    # a rise at the last action
                 (1, 2.0, 1),    # a tie below the greedy action
                 (2, 2.0, 1),    # a tie above the greedy action
                 (1, 2.0, 1),    # the greedy entry rewritten with its value
                 (1, -1.0, 2)]),  # a fall past the entries it tied
    (83, -0.0, [(2, 0.0, 0),     # 0.0 ties the row's -0.0 above the greedy action
                (0, 0.0, 0),     # the greedy -0.0 becomes 0.0, an equal value
                (0, -1.0, 1)]),  # a fall: the first of -0.0, 0.0, -0.0 wins
])
def test_row_cache_on_hand_made_rows(seed, q_init, script):
    """Each episode takes one exploring step from a cell whose four moves
    are all blocked, with alpha 1 and gamma 0, so the step writes its
    action's shaping term, -beta * Z = value, into the row. A stand-in for
    the Z refresh, run before every episode, supplies the value and reads
    the greedy action of every row, which must be the row's first
    maximum."""
    rng = np.random.default_rng(seed)
    actions = []
    for _ in range(len(script) + 1):  # explore, action and slip draws
        rng.random()
        actions.append(int(rng.integers(0, 4)))
        rng.random()
    assert actions[:-1] == [action for action, _, _ in script]  # premise
    g = GridWorld(2, 2, goal=(1, 1), start=(0, 0), walls={(1, 0), (0, 1)})
    s = g.index_of(g.start)
    values = [value for _, value, _ in script] + [0.0]
    greedy = []

    def refresh(grid, qarg, shaping):
        greedy.append(qarg[s])
        bonus = [[0.0] * 4 for _ in range(grid.n_cells)]
        bonus[s] = [values[len(greedy) - 1]] * 4
        return {}, bonus

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rl_agent, "_z_table", refresh)
        res = train(g, ShapingConfig(beta=1.0, recompute_every=1), episodes=len(script) + 1,
                    max_steps=1, epsilon=1.0, alpha=1.0, gamma=0.0, seed=seed, q_init=q_init)
    assert greedy == [0] + [first for _, _, first in script]
    row = [q_init] * 4
    for action, value in zip(actions, values):
        row[action] = value
    assert hex_floats(res.final_q[(g.start, a)] for a in ACTIONS) == hex_floats(row)
    assert res.final_policy[g.start] == ACTIONS[int(np.argmax(row))]


def test_raw_refills_scale_with_words_not_episodes(monkeypatch):
    # thousands of episodes of a few steps each, at the largest max_steps:
    # a refill per episode would fetch 3 * MAX_STEPS words each time
    calls = []
    make_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self._raw = make_rng(seed).bit_generator.random_raw
            self.bit_generator = self

        def random_raw(self, size):
            calls.append(size)
            return self._raw(size)

    g = corridor_world(3, 0.0)
    kw = dict(episodes=5000, max_steps=MAX_STEPS, epsilon=0.0, alpha=0.5, gamma=0.9,
              seed=4)
    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    res = train(g, ShapingConfig(), **kw)
    monkeypatch.undo()
    consumed = 2 * sum(res.steps_to_goal)  # epsilon 0: two words per step
    block = 3 * MAX_STEPS
    assert len(calls) <= consumed // block + 2 < kw["episodes"]
    assert set(calls) == {block}
    ref = train_scanning_rows(g, ShapingConfig(), **kw)
    assert res.steps_to_goal == ref.steps_to_goal and res.final_q == ref.final_q


@given(st.integers(0, 2**64 - 1), st.lists(st.booleans(), max_size=300))
def test_raw_words_decode_to_generator_draws(seed, draws_action):
    """The mapping train relies on, against scalar Generator calls in any
    interleaving: random() is (w >> 11) * 2**-53 of one raw PCG64 word w,
    compared with p through _raw_threshold(p); integers(0, 4) is bits 30-31
    of a fresh word (its low 32-bit half), whose high half (bits 62-63) the
    next integers draw takes, across any random() calls in between."""
    rng = np.random.default_rng(seed)
    words = iter(np.random.default_rng(seed).bit_generator.random_raw(
        len(draws_action)).tolist())
    held = -1
    for action in draws_action:
        if action:
            a = int(rng.integers(0, 4))
            if held < 0:
                w = next(words)
                assert a == (w >> 30) & 3
                held = w >> 62
            else:
                assert a == held
                held = -1
        else:
            w = next(words)
            u = rng.random()
            assert u == (w >> 11) * 2**-53
            for p in (u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)):
                assert (w < _raw_threshold(float(p))) == (u < p)


def test_raw_threshold_ends():
    assert _raw_threshold(0.0) == 0  # random() < 0 never holds
    assert _raw_threshold(1.0) == 2**64  # random() < 1 always holds
    assert _raw_threshold(0.5) == 2**63
    assert _raw_threshold(2**-53) == 2**11  # only k = 0 is below


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

    @pytest.mark.parametrize("n_episodes, max_steps", [(-3, 10), (5, 0), (5, -1)])
    def test_bad_counts_rejected(self, n_episodes, max_steps):
        g = corridor_world(3, 0.0)
        with pytest.raises(ValueError):
            evaluate_policy(g, uniform_policy(g), n_episodes, max_steps, seed=0)

    def test_zero_probability_action_never_drawn(self, monkeypatch):
        # this row checks to one whose running sum stops at 1 - 2**-53, so a
        # raw cumsum let u = 1 - 2**-53 draw "right", of probability 0
        g = GridWorld(2, 1, goal=(1, 0), start=(0, 0), slip=0.0)
        pol = np.array([[0.46335848984461653, 0.3373961461805628, 0.1992453639748208, 0.0]] * 2)
        row = _checked_policy(g, pol)[0].tolist()
        assert row == [0.4633584898446164, 0.33739614618056274, 0.19924536397482073, 0.0]
        assert np.cumsum(row)[2] == 1.0 - 2.0**-53

        class Top:
            """An episode generator whose every draw is 1 - 2**-53."""
            def __init__(self, *args, **kwargs):
                pass

            def random(self):
                return 1.0 - 2.0**-53

        monkeypatch.setattr(np.random, "default_rng", Top)
        # "left" from the west end is blocked: the goal, east, is never reached
        assert evaluate_policy(g, pol, 3, 1, seed=0) == (0.0, 1.0)
        pairs = {c: list(zip(ACTIONS, row)) for c in ((0, 0), (1, 0))}
        assert evaluate_policy_loop(g, pairs, 3, 1, 0) == (0.0, 1.0)

    @given(st.data())
    def test_equals_the_running_sum_loop(self, data):
        width, height = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        cells = [(x, y) for y in range(height) for x in range(width)]
        goal, start = data.draw(st.sampled_from(cells)), data.draw(st.sampled_from(cells))
        walls = data.draw(st.sets(st.sampled_from(cells))) - {goal, start}
        g = GridWorld(width, height, goal=goal, start=start, walls=walls,
                      slip=data.draw(st.sampled_from([0.0, 0.1, 0.5])))
        # zeros, ties, and rows whose float sum misses 1 (renormalised once)
        weights = st.sampled_from([0.0, 0.0, 0.1, 1.0 / 3.0, 0.5, 0.7, 1.0])
        raw = np.array([data.draw(st.lists(weights, min_size=4, max_size=4)
                                  .filter(lambda r: sum(r) > 0)) for _ in cells])
        pol = raw / raw.sum(axis=1, keepdims=True)
        rows = normalized_probs(pol)
        pairs = {c: list(zip(ACTIONS, rows[g.index_of(c)].tolist())) for c in cells}
        args = (data.draw(st.integers(0, 12)), data.draw(st.integers(1, 30)),
                data.draw(st.integers(0, 2**32 - 1)))
        assert evaluate_policy(g, pol, *args) == evaluate_policy_loop(g, pairs, *args)


def test_greedy_policy_from_q_breaks_ties_by_action_order():
    q = np.zeros((3, 4))
    q[1, ACTIONS.index("right")] = 1.0
    q[2, [ACTIONS.index("left"), ACTIONS.index("right")]] = 2.0
    # one point mass per row, on the first maximum in ACTIONS order
    assert np.array_equal(greedy_policy_from_q(q), [[1.0, 0.0, 0.0, 0.0],   # all tied: up
                                                    [0.0, 0.0, 0.0, 1.0],   # right
                                                    [0.0, 0.0, 1.0, 0.0]])  # left ties right
