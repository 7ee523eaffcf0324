import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zentropy import entropic_potential, mdp_sim, rl_agent
from zentropy._kernels import WALK_CHUNK_BYTES, cumulative
from zentropy.entropic_potential import (
    MAX_SAMPLES,
    MAX_UNIFORMS,
    Baseline,
    EstimatorConfig,
    Event,
    Horizon,
    ZEstimate,
    classify_event,
    mc_entropy_of_branch,
    rank_events,
    z_counterfactual,
)
from zentropy.entropy_core import Distribution, _entropy_of_probs, normalized_probs
from zentropy.errors import CellIsWallError, EmptyBaselineError, InvalidDistributionError
from zentropy.mdp_sim import (
    ACTIONS,
    GridWorld,
    GridWorldModel,
    always_policy,
    corridor_world,
    future_state_distribution,
    push_forward,
    ranked_row,
    render_ascii,
    transition_kernel,
    uniform_policy,
    z_table,
)

from oracles import corridor_future, entropy_bits

EXACT = EstimatorConfig(backend="exact")


def ranked_at(g, cell, follow, k, estimator, actions=ACTIONS):
    """The ranked_row of cell's row of z_table."""
    z, se = z_table(g, [cell], follow, k, estimator, actions)
    return ranked_row(z[0], se[0], k, estimator, actions)


class TestGridWorld:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridWorld(0, 3, goal=(0, 0), start=(0, 0))
        with pytest.raises(ValueError):
            GridWorld(65, 64, goal=(0, 0), start=(1, 0))  # > 4096 cells
        with pytest.raises(ValueError):
            GridWorld(3, 3, goal=(5, 5), start=(0, 0))
        with pytest.raises(ValueError):
            GridWorld(3, 3, goal=(1, 1), start=(0, 0), walls={(1, 1)})
        with pytest.raises(ValueError):
            GridWorld(3, 3, goal=(1, 1), start=(0, 0), slip=1.0)

    def test_move_target_blocks_on_walls_and_borders(self):
        g = GridWorld(3, 3, goal=(2, 2), start=(0, 0), walls={(1, 0)})
        assert g.move_target((0, 0), "right") == (0, 0)   # wall at (1,0)
        assert g.move_target((0, 0), "up") == (0, 0)      # border
        assert g.move_target((0, 0), "down") == (0, 1)

    def test_render_ascii(self):
        g = GridWorld(3, 2, goal=(2, 1), start=(0, 0), walls={(1, 0)})
        assert render_ascii(g) == "S#.\n..G"


class TestTransitionKernel:
    def test_slip_zero_point_mass(self):
        g = GridWorld(3, 3, goal=(2, 2), start=(0, 0), slip=0.0)
        d = transition_kernel(g, (1, 1), "right")
        assert d.as_dict()[(2, 1)] == pytest.approx(1.0)

    def test_goal_absorbing(self):
        g = corridor_world(5, 0.2)
        for a in ACTIONS:
            d = transition_kernel(g, (4, 0), a)
            assert d.prob_of((4, 0)) == 1.0

    def test_corridor_probabilities(self):
        g = corridor_world(5, 0.2)
        d = transition_kernel(g, (3, 0), "right").as_dict()
        assert d[(4, 0)] == pytest.approx(0.8)
        assert d[(3, 0)] == pytest.approx(0.2)

    def test_wall_cell_rejected(self):
        g = GridWorld(3, 3, goal=(2, 2), start=(0, 0), walls={(1, 1)})
        with pytest.raises(CellIsWallError):
            transition_kernel(g, (1, 1), "up")

    def test_unknown_action_rejected(self):
        g = corridor_world(3, 0.0)
        with pytest.raises(ValueError):
            transition_kernel(g, (0, 0), "jump")


class TestPushForward:
    def test_deterministic_point_mass(self):
        g = corridor_world(4, 0.0)
        d = Distribution.point((1, 0), g.free_cells())
        out = push_forward(g, d, always_policy(g, "right"))
        assert out.prob_of((2, 0)) == pytest.approx(1.0)

    def test_goal_mass_unchanged(self):
        g = corridor_world(4, 0.3)
        d = Distribution.point((3, 0), g.free_cells())
        out = push_forward(g, d, uniform_policy(g))
        assert out.prob_of((3, 0)) == 1.0

    def test_all_absorbing_world_unchanged(self):
        g = GridWorld(1, 1, goal=(0, 0), start=(0, 0), slip=0.0)
        d = Distribution.uniform(g.free_cells())
        out = push_forward(g, d, uniform_policy(g))
        assert out.as_dict() == d.as_dict()

    def test_corridor_single_step(self):
        g = corridor_world(5, 0.2)
        d = Distribution.point((3, 0), g.free_cells())
        out = push_forward(g, d, "right").as_dict()
        assert out[(4, 0)] == pytest.approx(0.8)
        assert out[(3, 0)] == pytest.approx(0.2)

    def test_mass_conservation(self):
        rng = np.random.default_rng(5)
        g = GridWorld(6, 5, goal=(5, 4), start=(0, 0), slip=0.37,
                      walls={(2, 2), (3, 1)})
        w = rng.random(len(g.free_cells()))
        d = Distribution(g.free_cells(), w / w.sum())
        pol = uniform_policy(g)
        for _ in range(4):
            d = push_forward(g, d, pol)
            assert abs(d.probs.sum() - 1.0) <= 1e-12

    def test_policy_must_cover_cells(self):
        g = corridor_world(3, 0.0)
        d = Distribution.point((0, 0), g.free_cells())
        for partial in (uniform_policy(g)[:2], uniform_policy(g)[:, :3],
                        {(0, 0): Distribution.point("right", ACTIONS)}):
            with pytest.raises(InvalidDistributionError, match="shape"):
                push_forward(g, d, partial)

    @pytest.mark.parametrize("row, message", [
        ([np.nan, 0.0, 0.0, 1.0], "finite"),
        ([np.inf, 0.0, 0.0, 0.0], "finite"),
        ([-0.25, 0.25, 0.5, 0.5], ">= 0"),
        ([0.25, 0.25, 0.25, 0.2], "sum to"),
    ])
    def test_policy_rows_must_be_distributions(self, row, message):
        g = GridWorld(3, 2, goal=(2, 1), start=(0, 0), walls={(1, 1)})
        start = Distribution.point((0, 0), g.free_cells())
        pol = uniform_policy(g)
        pol[g.index_of((2, 0))] = row
        for use in (lambda: push_forward(g, start, pol),
                    lambda: future_state_distribution(g, start, "up", pol, 2),
                    lambda: GridWorldModel(g, (0, 0), pol),
                    lambda: z_table(g, [(0, 0)], pol, 2)):
            with pytest.raises(InvalidDistributionError, match=message):
                use()

    def test_policy_wall_rows_are_ignored(self):
        g = GridWorld(3, 2, goal=(2, 1), start=(0, 0), slip=0.2, walls={(1, 1)})
        pol = uniform_policy(g)
        pol[g.index_of((1, 1))] = (np.nan, -1.0, 7.0, 0.0)
        for got, want in zip(z_table(g, g.free_cells(), pol, 3),
                             z_table(g, g.free_cells(), uniform_policy(g), 3)):
            assert np.array_equal(got, want)

    def test_unknown_action_rejected(self):
        g = GridWorld(3, 3, goal=(2, 2), start=(0, 0), walls={(1, 1)})
        start = Distribution.point((0, 0), g.free_cells())
        with pytest.raises(ValueError, match="unknown action 'jump'"):
            push_forward(g, start, "jump")


class TestFutureStateDistribution:
    def test_corridor_right_branch_golden(self):
        g = corridor_world(5, 0.2)
        start = Distribution.point((3, 0), g.free_cells())
        d = future_state_distribution(g, start, "right", always_policy(g, "right"), 2)
        want = corridor_future(3, "right", 2)
        for cell, p in d.as_dict().items():
            assert p == pytest.approx(want.get(cell[0], 0.0), abs=1e-12)
        assert d.prob_of((4, 0)) == pytest.approx(0.96)
        assert d.prob_of((3, 0)) == pytest.approx(0.04)

    def test_corridor_left_branch_golden(self):
        g = corridor_world(5, 0.2)
        start = Distribution.point((3, 0), g.free_cells())
        d = future_state_distribution(g, start, "left", always_policy(g, "right"), 2)
        assert d.prob_of((3, 0)) == pytest.approx(0.68)
        assert d.prob_of((2, 0)) == pytest.approx(0.16)
        assert d.prob_of((4, 0)) == pytest.approx(0.16)

    def test_slip_free_is_point_mass(self):
        g = corridor_world(5, 0.0)
        start = Distribution.point((0, 0), g.free_cells())
        d = future_state_distribution(g, start, "right", always_policy(g, "right"), 3)
        assert d.support_size == 1
        assert d.prob_of((3, 0)) == 1.0

    def test_horizon_must_be_positive(self):
        g = corridor_world(3, 0.0)
        start = Distribution.point((0, 0), g.free_cells())
        with pytest.raises(ValueError):
            future_state_distribution(g, start, None, uniform_policy(g), 0)

    def test_unknown_first_action_rejected(self):
        g = GridWorld(3, 3, goal=(2, 2), start=(0, 0), walls={(1, 1)})
        start = Distribution.point((0, 0), g.free_cells())
        with pytest.raises(ValueError, match="unknown action 'jump'"):
            future_state_distribution(g, start, "jump", uniform_policy(g), 2)

    def test_absorption_monotone_in_horizon(self):
        g = corridor_world(6, 0.25)
        start = Distribution.point((1, 0), g.free_cells())
        pol = always_policy(g, "right")
        last = 0.0
        for k in range(1, 12):
            p_goal = future_state_distribution(g, start, None, pol, k).prob_of((5, 0))
            assert p_goal >= last - 1e-12
            last = p_goal


class TestSampleTrajectory:
    def test_slip_free_terminal(self):
        g = corridor_world(5, 0.0)
        model = GridWorldModel(g, (0, 0), always_policy(g, "right"))
        idx = model.sample_future_outcomes(Event("right"), Horizon(0, 4), 100,
                                           np.random.default_rng(0))
        assert idx.dtype == np.int64
        assert np.all(idx == g.free_cells().index((4, 0)))

    def test_seed_reproducibility(self):
        g = corridor_world(5, 0.3)
        model = GridWorldModel(g, (0, 0), always_policy(g, "right"))
        a, b = (model.sample_future_outcomes(Event("right"), Horizon(0, 3), 200,
                                             np.random.default_rng(99))
                for _ in range(2))
        assert np.array_equal(a, b)

    def test_empirical_matches_exact(self):
        g = corridor_world(5, 0.2)
        model = GridWorldModel(g, (3, 0), always_policy(g, "right"))
        rng = np.random.default_rng(2024)
        idx = model.sample_future_outcomes(Event("right"), Horizon(0, 2),
                                           100_000, rng)
        freq = np.bincount(idx, minlength=len(g.free_cells())) / 100_000
        assert abs(freq[g.free_cells().index((4, 0))] - 0.96) <= 0.005
        # total variation against the exact push-forward, in the same order
        exact = model.exact_future_distribution(Event("right"), Horizon(0, 2))
        assert 0.5 * np.abs(freq - exact.probs).sum() <= 0.01

    def test_walls_are_never_sampled(self):
        g = GridWorld(4, 3, goal=(3, 2), start=(0, 0), slip=0.3,
                      walls={(1, 0), (1, 1), (3, 0)})
        model = GridWorldModel(g, (0, 0), uniform_policy(g))
        idx = model.sample_future_outcomes(None, Horizon(0, 6), 2000,
                                           np.random.default_rng(5))
        assert idx.min() >= 0 and idx.max() < len(g.free_cells())
        exact = model.exact_future_distribution(None, Horizon(0, 6))
        assert np.all(exact.probs[np.unique(idx)] > 0.0)


class TestActionZScores:
    def test_corridor_goldens(self):
        g = corridor_world(5, 0.2)
        scores = dict(ranked_at(g, (3, 0), always_policy(g, "right"), 2,
                                EXACT, actions=("left", "right")))
        # oracle: exact two-step enumeration of both branches
        right = entropy_bits(corridor_future(3, "right", 2).values())
        left = entropy_bits(corridor_future(3, "left", 2).values())
        assert scores["right"].value == pytest.approx(right - left, abs=1e-12)
        assert scores["left"].value == pytest.approx(left - right, abs=1e-12)

    def test_two_action_antisymmetry_everywhere(self):
        g = corridor_world(5, 0.2)
        pol = always_policy(g, "right")
        for x in range(4):
            scores = dict(ranked_at(g, (x, 0), pol, 4, EXACT,
                                    actions=("left", "right")))
            assert scores["right"].value == pytest.approx(
                -scores["left"].value, abs=1e-12)

    def test_slip_free_all_zero(self):
        g = corridor_world(4, 0.0)
        scores = ranked_at(g, (1, 0), always_policy(g, "right"), 2, EXACT)
        assert [a for a, _ in scores] == ["down", "left", "right", "up"]
        assert all(z.value == 0.0 for _, z in scores)

    def test_goal_cell_all_zero(self):
        g = corridor_world(5, 0.2)
        scores = ranked_at(g, (4, 0), always_policy(g, "right"), 3, EXACT)
        assert all(z.value == 0.0 for _, z in scores)

    def test_wall_cell_rejected(self):
        g = GridWorld(3, 3, goal=(2, 2), start=(0, 0), walls={(1, 1)})
        with pytest.raises(CellIsWallError):
            ranked_at(g, (1, 1), uniform_policy(g), 2, EXACT)


@st.composite
def small_worlds(draw):
    """A small grid with walls, a follow-on policy, an action set and k."""
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 3))
    cells = [(x, y) for y in range(height) for x in range(width)]
    goal = draw(st.sampled_from(cells))
    walls = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))
    walls.discard(goal)
    g = GridWorld(width, height, goal=goal, start=goal,
                  slip=draw(st.sampled_from([0.0, 0.1, 0.25, 0.5])), walls=walls)
    follow = draw(st.sampled_from(("uniform",) + ACTIONS))
    policy = uniform_policy(g) if follow == "uniform" else always_policy(g, follow)
    actions = draw(st.sets(st.sampled_from(ACTIONS), min_size=2))
    return g, policy, tuple(sorted(actions)), draw(st.integers(1, 6))


def near_normalised_world(seed):
    """A walled 6x5 grid, all actions, k = 6 and a random follow policy
    whose rows sum to 1 within 3e-10: inside NORMALIZATION_TOL, so the
    policy check divides each row by its sum, which a second check would
    change again."""
    g = GridWorld(6, 5, goal=(5, 4), start=(0, 0), slip=0.2,
                  walls={(0, 2), (2, 2), (4, 1), (4, 3)})
    rng = np.random.default_rng(seed)
    policy = rng.random((g.n_cells, 4)) + 0.05
    policy /= policy.sum(axis=1, keepdims=True)
    policy *= 1.0 + rng.uniform(-3e-10, 3e-10, (g.n_cells, 1))
    return g, policy, ACTIONS, 6


def z_by_counterfactual(g, cell, policy, k, actions) -> dict:
    """Reference: every action's Z through z_counterfactual on a one-cell model."""
    model = GridWorldModel(g, cell, policy, actions=actions)
    events = model.event_space()
    return {ev.id: z_counterfactual(model, ev,
                                    Baseline.uniform(e for e in events if e != ev),
                                    Horizon(0, k), EXACT)
            for ev in events}


def loop_step(g, d, pol):
    """One push-forward step of a single flat distribution, as a 1-D loop
    with targets from move_target: the reference the batched step matches
    bitwise."""
    targets = [[i if g.cell_of(i) in g.walls else g.index_of(g.move_target(g.cell_of(i), a))
                for i in range(g.n_cells)] for a in ACTIONS]
    out = np.zeros_like(d)
    gi = g.index_of(g.goal)
    out[gi] = d[gi]
    active = d.copy()
    active[gi] = 0.0
    for a in range(4):
        w = active * pol[:, a]
        np.add.at(out, targets[a], w * (1.0 - g.slip))
        out += w * g.slip
    return out


def _weights(draw, equal=None, zero_pair=False):
    """A drawn probability row; equal=a makes columns a and a + 1 equal,
    and zero_pair also makes both zero, with -0.0 in column a + 1."""
    w = np.array(draw(st.lists(st.integers(0, 9), min_size=4, max_size=4)), float)
    if equal is not None:
        w[equal + 1] = w[equal] = 0.0 if zero_pair else w[equal]
        w[draw(st.sampled_from([b for b in range(4) if b not in (equal, equal + 1)]))] += 1.0
        if zero_pair:
            w[equal + 1] = -0.0
    else:
        w[draw(st.integers(0, 3))] += 1.0
    return w / w.sum()


@st.composite
def mixed_worlds(draw):
    """A grid (also 1xN or Nx1) with walls, a follow-on policy, a non-point
    start law over the free cells, an action set and k. The policy mixes
    non-dyadic, greedy one-hot, uniform and signed-zero rows, or is one
    whole-grid kind with repeated columns: uniform, one fixed action, two
    equal neighbouring columns, or two neighbouring columns equal but for
    the sign of their zeros (the goal row among them, and -0.0 start mass
    on the goal cell)."""
    shape = draw(st.sampled_from(("grid", "row", "column")))
    if shape == "grid":
        width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    else:
        n = draw(st.integers(1, 7))
        width, height = (n, 1) if shape == "row" else (1, n)
    cells = [(x, y) for y in range(height) for x in range(width)]
    goal = draw(st.sampled_from(cells))
    walls = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))
    walls.discard(goal)
    g = GridWorld(width, height, goal=goal, start=goal,
                  slip=draw(st.sampled_from([0.0, 0.1, 0.25, 0.37])), walls=walls)
    policy = np.zeros((g.n_cells, 4))
    whole = draw(st.sampled_from(("rows", "uniform", "fixed", "equal", "signed-zero")))
    if whole == "uniform":
        policy[:] = 0.25
    elif whole == "fixed":
        policy[:, draw(st.integers(0, 3))] = 1.0
    elif whole in ("equal", "signed-zero"):
        a = draw(st.integers(0, 2))
        for i, row in enumerate(policy):
            zero_pair = whole == "signed-zero" and (i == g.index_of(goal) or draw(st.booleans()))
            row[:] = _weights(draw, a, zero_pair)
    else:
        for row in policy:
            kind = draw(st.sampled_from(("weights", "greedy", "uniform", "signed-zero")))
            if kind == "weights":
                row[:] = _weights(draw)
            elif kind == "greedy":
                row[draw(st.integers(0, 3))] = 1.0
            elif kind == "uniform":
                row[:] = 0.25
            else:
                row[:] = -0.0
                row[sorted(draw(st.sets(st.integers(0, 3), min_size=1)))] = 1.0
                row /= row.sum()
    free = g.free_cells()
    w = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 0.3, 1.0, 7.0]),
                               min_size=len(free), max_size=len(free))))
    w[draw(st.integers(0, len(free) - 1))] = 1.0
    if whole == "signed-zero" and len(free) > 1:
        at = free.index(goal)
        w[at] = -0.0
        w[(at + 1) % len(free)] += 1.0
    start = Distribution(free, w / w.sum())
    actions = draw(st.sets(st.sampled_from(ACTIONS), min_size=2))
    return g, policy, start, tuple(sorted(actions)), draw(st.integers(1, 6))


def loop_future(g, d, first, pol, k):
    """k loop_step steps of the flat law d: the action first (if any), then pol."""
    if first is not None:
        d = loop_step(g, d, np.tile(np.eye(4)[ACTIONS.index(first)], (g.n_cells, 1)))
        k -= 1
    for _ in range(k):
        d = loop_step(g, d, pol)
    return d


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestZTable:
    @given(mixed_worlds())
    def test_laws_and_tables_equal_the_loop_bitwise(self, world):
        g, policy, start, actions, k = world
        pol = mdp_sim._checked_policy(g, policy)
        free = g.free_cells()
        at = [g.index_of(c) for c in free]
        d = np.zeros(g.n_cells)
        d[at] = start.probs
        for first in (None, *actions):
            want = Distribution(free, loop_future(g, d, first, pol, k)[at])
            got = future_state_distribution(g, start, first, policy, k)
            assert same_bits(got.probs, want.probs)
            # one step: push_forward under the policy, or under the action everywhere
            want = Distribution(free, loop_future(g, d, first, pol, 1)[at])
            got = push_forward(g, start, policy if first is None else first)
            assert same_bits(got.probs, want.probs)
        # Z of each (cell, action) branch from loop laws, summed as _z_values does
        columns = [a for a in ACTIONS if a in actions]
        want = []
        for cell in free:
            point = np.zeros(g.n_cells)
            point[g.index_of(cell)] = 1.0
            h = [_entropy_of_probs(normalized_probs(loop_future(g, point, a, pol, k)[at]))
                 for a in columns]
            for i, h_i in enumerate(h):
                base = 0.0
                for j, h_j in enumerate(h):
                    if j != i:
                        base += 1.0 / (len(h) - 1) * h_j
                want.append(h_i - base)
        for rows in (1, 3, len(free) * len(actions)):
            with mock.patch.object(mdp_sim, "TABLE_CHUNK_BYTES", rows * 8 * g.n_cells):
                z, _ = z_table(g, free, policy, k, EXACT, actions)
            assert same_bits(z.ravel(), want)

    @given(small_worlds())
    def test_branches_match_the_per_branch_loop(self, world):
        g, policy, actions, k = world
        free = g.free_cells()
        for cell in free:
            for first in actions:
                d = np.zeros(g.n_cells)
                d[g.index_of(cell)] = 1.0
                d = loop_future(g, d, first, policy, k)
                want = Distribution(free, [d[g.index_of(c)] for c in free])
                got = future_state_distribution(g, Distribution.point(cell, free),
                                                first, policy, k)
                assert np.array_equal(got.probs, want.probs)

    @given(small_worlds())
    @example(near_normalised_world(27))
    def test_equals_counterfactual_per_cell(self, world):
        g, policy, actions, k = world
        cells = g.free_cells()
        z, se = z_table(g, cells, policy, k, EXACT, actions)
        assert z.shape == se.shape == (len(cells), len(actions))
        assert not se.any()
        for cell, z_row, se_row in zip(cells, z, se):
            want = z_by_counterfactual(g, cell, policy, k, actions)
            assert z_row.tolist() == [want[a].value for a in ACTIONS if a in actions]
            ranked = ranked_row(z_row, se_row, k, EXACT, actions)
            assert [v.value for _, v in ranked] == sorted(z_row.tolist())
            assert dict(ranked) == want

    @pytest.mark.parametrize("size,walls,policy,n,k,actions,chunk_cells", [
        ((4, 3), {(1, 1)}, "uniform", 300, 4, ACTIONS, None),
        ((5, 4), {(1, 1), (2, 1), (3, 2)}, "uniform", 100, 4, ACTIONS, 2),
        ((5, 4), {(1, 1), (2, 1), (3, 2)}, "greedy", 1000, 4, ("right", "down", "left"), 3),
        ((6, 5), {(0, 2), (2, 2), (4, 1), (4, 3)}, "greedy", 1000, 4, ("right", "up"), None),
        ((6, 5), {(0, 2), (2, 2), (4, 1), (4, 3)}, "uniform", 100, 4, ("left", "up"), 1),
        # nothing walked, and one walked step, before the exact last step
        ((5, 4), {(1, 1), (2, 1), (3, 2)}, "uniform", 200, 1, ACTIONS, 2),
        ((6, 5), {(0, 2), (2, 2), (4, 1), (4, 3)}, "greedy", 300, 2, ("down", "left"), 3),
    ])
    def test_mc_rows_equal_rank_events_per_cell(self, monkeypatch, size, walls, policy,
                                                n, k, actions, chunk_cells):
        # the batched MC table gives each cell what rank_events gives on that
        # cell's own model, whose branch j is keyed by its position j among
        # the admissible actions; chunk_cells cells per walk chunk
        width, height = size
        g = GridWorld(width, height, goal=(width - 1, height - 1), start=(0, 0), slip=0.2,
                      walls=walls)
        rng = np.random.default_rng(n + k)
        if policy == "uniform":
            follow = uniform_policy(g)
        else:  # one-hot on each row's first max, as greedy_policy_from_q gives
            follow = np.eye(4)[np.argmax(rng.random((g.n_cells, 4)), axis=1)]
        cells = [g.free_cells()[i] for i in rng.permutation(len(g.free_cells()))]
        assert g.goal in cells
        if chunk_cells is not None:
            monkeypatch.setattr(mdp_sim, "TABLE_CHUNK_BYTES", chunk_cells * 8 * n)
        est = EstimatorConfig(backend="mc", n_samples=n, seed=9)
        with mock.patch.object(mdp_sim, "_uniform_block", wraps=mdp_sim._uniform_block) as block:
            z, se = z_table(g, cells, follow, k, est, actions)
        # one chunk draws its uniforms as it walks; several re-read one block
        assert block.call_count == (chunk_cells is not None and chunk_cells < len(cells))
        order = [a for a in ACTIONS if a in actions]
        for cell, z_row, se_row in zip(cells, z, se):
            model = GridWorldModel(g, cell, follow, actions=actions)
            want = {ev.id: w for ev, w in rank_events(model, model.event_space(), "vs-rest",
                                                      Horizon(0, k), est)}
            assert z_row.tolist() == [want[a].value for a in order]
            assert se_row.tolist() == [want[a].std_error for a in order]
            assert dict(ranked_row(z_row, se_row, k, est, actions)) == want
        if k == 1:  # one exact step from a known cell: the exact table
            assert not se.any()
            exact, _ = z_table(g, cells, follow, k, EXACT, actions)
            assert np.abs(z - exact).max() <= 1e-12

    def test_branch_at_one_step_is_exact(self):
        g = GridWorld(4, 3, goal=(3, 2), start=(0, 0), slip=0.3, walls={(1, 1)})
        model = GridWorldModel(g, (1, 0), uniform_policy(g))
        for event in (None, *model.event_space()):
            h, se = mc_entropy_of_branch(model, event, Horizon(0, 1), 100, 0)
            exact = entropy_bits(model.exact_future_distribution(event, Horizon(0, 1)).probs)
            assert abs(h.value - exact) <= 1e-12
            assert se == 0.0

    def test_mc_table_calibration_against_exact(self):
        # every free cell of two seeded walled 12x12 grids, n=1000, k=15:
        # how often the MC Z misses the exact Z by more than 2 SE, and how
        # many MC sign labels contradict the exact label. The bounds were
        # pinned at what the exact-last-step estimator gave with a stream
        # per branch (the multinomial bootstrap before it gave 81 misses and
        # 3 contradicting labels here); with one block of uniforms for all
        # branches and the paired SE it gives 36 misses, 1 contradicting
        # label, and 772 decisive (sign) labels, pinned, where a stream per
        # branch gave 624.
        misses = contradicting = decisive = 0
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            walls = {(x, y) for y in range(12) for x in range(12) if rng.random() < 0.12}
            g = GridWorld(12, 12, goal=(10, 9), start=(1, 1), slip=0.2,
                          walls=walls - {(10, 9), (1, 1)})
            cells, follow = g.free_cells(), uniform_policy(g)
            exact, _ = z_table(g, cells, follow, 15, EXACT)
            est = EstimatorConfig(backend="mc", n_samples=1000, seed=seed)
            z, se = z_table(g, cells, follow, 15, est)
            assert z.shape == (len(cells), 4) and (se >= 0.0).all()
            misses += int(np.count_nonzero(np.abs(z - exact) > 2.0 * se))
            for z_mc, z_se, z_exact in zip(z.ravel().tolist(), se.ravel().tolist(),
                                           exact.ravel().tolist()):
                label = classify_event(ZEstimate(z_mc, z_se, "monte-carlo", 1000,
                                                 Horizon(0, 15), "e", "rest")).label
                truth = classify_event(ZEstimate(z_exact, 0.0, "exact", 0,
                                                 Horizon(0, 15), "e", "rest")).label
                decisive += label in ("beneficial", "harmful")
                contradicting += label in ("beneficial", "harmful") and label != truth
        assert misses <= 53  # of 1008 Z values
        assert contradicting <= 2
        assert decisive == 772

    def test_mc_miss_share_on_a_seeded_sweep(self):
        # the calibration test's construction on four more grids, five
        # estimator seeds each: 10300 Z, of which 407 (3.95%) miss the exact
        # Z by more than 2 SE (a stream per branch with the independence SE:
        # 488, 4.74%). Within one call the errors of nearby cells are
        # correlated, so a single grid's share ranges from about 3% to 6%.
        misses = total = 0
        for grid_seed in (3, 4, 5, 6):
            rng = np.random.default_rng(grid_seed)
            walls = {(x, y) for y in range(12) for x in range(12) if rng.random() < 0.12}
            g = GridWorld(12, 12, goal=(10, 9), start=(1, 1), slip=0.2,
                          walls=walls - {(10, 9), (1, 1)})
            cells, follow = g.free_cells(), uniform_policy(g)
            exact, _ = z_table(g, cells, follow, 15, EXACT)
            for seed in range(5):
                est = EstimatorConfig(backend="mc", n_samples=1000, seed=seed)
                z, se = z_table(g, cells, follow, 15, est)
                misses += int(np.count_nonzero(np.abs(z - exact) > 2.0 * se))
                total += z.size
        assert (misses, total) == (407, 10300)

    def test_paired_se_matches_the_spread_across_seeds(self, monkeypatch):
        # 200 estimator seeds, two cells per chunk: the sd of each MC Z over
        # the seeds against its mean reported SE. Pinned at the measured
        # band (ratios 0.899 to 1.122, pooled 1.012); an SE read from the
        # wrong chunk or cell lands far outside it. At the goal every branch
        # is the same, so Z and SE are 0.0 for every seed.
        g = GridWorld(5, 4, goal=(4, 3), start=(0, 0), slip=0.2,
                      walls={(1, 1), (2, 1), (3, 2)})
        cells, n = g.free_cells(), 200
        monkeypatch.setattr(mdp_sim, "TABLE_CHUNK_BYTES", 2 * 8 * len(ACTIONS) * n)
        runs = [z_table(g, cells, uniform_policy(g), 6,
                        EstimatorConfig(backend="mc", n_samples=n, seed=seed))
                for seed in range(200)]
        z, se = (np.array(x) for x in zip(*runs))
        goal = cells.index(g.goal)
        assert not z[:, goal].any() and not se[:, goal].any()
        sd = np.delete(z, goal, axis=1).std(axis=0, ddof=1)
        mean_se = np.delete(se, goal, axis=1).mean(axis=0)
        ratio = sd / mean_se
        assert 0.89 <= ratio.min() and ratio.max() <= 1.13
        assert 1.0 <= np.sqrt((sd ** 2).mean() / (mean_se ** 2).mean()) <= 1.02

    @pytest.mark.parametrize("k", [2, 5])
    def test_blocked_actions_walk_the_same_states(self, k):
        # up and left are both blocked at (0, 0): both first steps stay put,
        # and every later step reads the same uniforms, so the two branches
        # are equal bitwise and the Z of one against the other is 0.0 with
        # SE 0.0 exactly
        g = GridWorld(4, 3, goal=(3, 2), start=(0, 0), slip=0.2, walls={(1, 1)})
        est = EstimatorConfig(backend="mc", n_samples=500, seed=4)
        model = GridWorldModel(g, (0, 0), uniform_policy(g))
        branches = model.event_space()
        h, surprisal = entropic_potential._mc_branches(model, branches, Horizon(0, k), est)
        up, left = ACTIONS.index("up"), ACTIONS.index("left")
        assert h[up].tobytes() == h[left].tobytes() and h[up] > 0.0
        assert surprisal[up].tobytes() == surprisal[left].tobytes()
        z, se = z_table(g, [(0, 0), (2, 0)], uniform_policy(g), k, est, ("up", "left"))
        assert z[0].tolist() == se[0].tolist() == [0.0, 0.0]
        assert (se[1] > 0.0).all()

    def test_branch_zero_keeps_its_stream(self):
        # the block every branch reads is the one branch 0 drew alone, from
        # the child stream keyed (0,)
        g = GridWorld(5, 4, goal=(4, 3), start=(0, 0), slip=0.2, walls={(1, 1), (2, 1)})
        est = EstimatorConfig(backend="mc", n_samples=300, seed=11)
        model = GridWorldModel(g, (3, 0), uniform_policy(g))
        h, _ = entropic_potential._mc_branches(model, model.event_space(), Horizon(0, 6), est)
        alone, _ = mc_entropy_of_branch(model, Event(ACTIONS[0]), Horizon(0, 6), 300, 11)
        walk = model.walk(Event(ACTIONS[0]), Horizon(0, 6))
        u = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(0,))).random((300, 6))
        want, _ = entropic_potential._branch_surprisals(walk.states(u)[None], walk.last)
        assert h[0] == alone.value == want[0]

    def test_chunked_equals_unchunked(self, monkeypatch):
        g = GridWorld(5, 4, goal=(4, 3), start=(0, 0), slip=0.2,
                      walls={(1, 1), (2, 1), (3, 2)})
        policy = uniform_policy(g)
        cells = g.free_cells()
        whole = z_table(g, cells, policy, 7)
        for rows in (1, 3, 7):
            monkeypatch.setattr(mdp_sim, "TABLE_CHUNK_BYTES", rows * 8 * g.n_cells)
            for got, want in zip(z_table(g, cells, policy, 7), whole):
                assert np.array_equal(got, want)

    def test_mc_uniform_cap_checked_before_any_table_or_block(self, monkeypatch):
        # MAX_SAMPLES walks of 16 steps would draw 128 MB of uniforms at once
        g = corridor_world(5, 0.2)
        model = GridWorldModel(g, (3, 0), uniform_policy(g))
        steps = MAX_UNIFORMS // MAX_SAMPLES + 1

        def no_table(*args, **kwargs):
            raise AssertionError("a table or block was built before the cap check")

        for module, name in ((mdp_sim, "_step_tables"), (mdp_sim, "_first_rows"),
                             (mdp_sim, "_uniform_draw"), (mdp_sim, "_uniform_block"),
                             (mdp_sim, "walk_outcomes"), (entropic_potential, "walk_outcomes"),
                             (entropic_potential, "_uniform_block")):
            monkeypatch.setattr(module, name, no_table)
        est = EstimatorConfig(backend="mc", n_samples=MAX_SAMPLES)
        with pytest.raises(ValueError, match=r"n_samples \* horizon_k"):
            z_table(g, [(3, 0)], uniform_policy(g), steps, est)
        with pytest.raises(ValueError, match=r"n_samples \* horizon_k"):  # several cell chunks
            z_table(g, g.free_cells(), uniform_policy(g), steps, est)
        with pytest.raises(ValueError, match=r"n_samples \* horizon_k"):
            mc_entropy_of_branch(model, None, Horizon(0, steps), MAX_SAMPLES, 0)

    def test_one_chunk_mc_table_holds_no_uniform_block(self):
        # the grid-mc benchmark's shape: one cell, so each uniform is read
        # once, drawn a walk chunk at a time; the table holds less than the
        # (n, k) block plus one walk chunk
        g = GridWorld(20, 20, goal=(17, 16), start=(2, 1), slip=0.2,
                      walls={(x, y) for y in range(20) for x in range(20)
                             if (7 * x + 3 * y) % 10 == 0})
        n, k = 10_000, 15
        est = EstimatorConfig(backend="mc", n_samples=n, seed=5)
        g.successors, g.successor_outcomes  # built once per grid, not part of the table
        tracemalloc.start()
        try:
            z_table(g, [(5, 7)], uniform_policy(g), k, est)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * k + WALK_CHUNK_BYTES

    def test_sampled_outcome_block_is_capped_before_it_is_drawn(self):
        # (10**6, 2001) uniforms would be 16 GB; the stand-in Generator
        # reports the shape it was asked for instead of drawing it
        g = corridor_world(5, 0.2)
        model = GridWorldModel(g, (0, 0), uniform_policy(g))
        rng = mock.create_autospec(np.random.Generator, instance=True)
        rng.random.side_effect = lambda shape: pytest.fail(f"drew {shape}")
        with pytest.raises(ValueError, match=r"n \* \(horizon steps \+ 1\)"):
            model.sample_future_outcomes(None, Horizon(0, 2000), 10**6, rng)
        n = MAX_UNIFORMS // 16  # n * 16 is the cap exactly
        for size, over in ((n, False), (n + 1, True)):
            rng.random.side_effect = AssertionError
            with pytest.raises(ValueError if over else AssertionError):
                model.sample_future_outcomes(None, Horizon(0, 15), size, rng)
        rng.random.assert_called_once_with((n, 16))

    def test_uniform_cap_admits_max_samples_at_k15_and_spares_exact(self):
        assert MAX_UNIFORMS >= 15 * MAX_SAMPLES
        g = corridor_world(5, 0.2)
        est = EstimatorConfig(backend="exact", n_samples=MAX_SAMPLES)
        z, se = z_table(g, [(3, 0)], uniform_policy(g), 2 * MAX_UNIFORMS // MAX_SAMPLES, est)
        assert np.isfinite(z).all() and not se.any()

    def test_rejects_bad_cells_and_actions(self):
        g = GridWorld(3, 3, goal=(2, 2), start=(0, 0), walls={(1, 1)})
        pol = uniform_policy(g)
        with pytest.raises(CellIsWallError):
            z_table(g, [(0, 0), (1, 1)], pol, 2)
        with pytest.raises(ValueError):
            z_table(g, [(3, 0)], pol, 2)
        with pytest.raises(ValueError):
            z_table(g, [(0, 0)], pol, 2, actions=("left", "jump"))
        with pytest.raises(ValueError):
            z_table(g, [(0, 0)], pol, 0)
        with pytest.raises(EmptyBaselineError):
            z_table(g, [(0, 0)], pol, 2, actions=("left",))
        with pytest.raises(ValueError):
            z_table(g, [(0, 0)], pol, 2, actions=())

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    @pytest.mark.parametrize("cells", ["all", "none"])
    def test_one_action_fails_before_any_branch(self, monkeypatch, backend, cells):
        g = GridWorld(20, 20, goal=(19, 19), start=(0, 0), slip=0.1)

        def no_branch(*args, **kwargs):
            raise AssertionError("a branch was evaluated before the action check")

        monkeypatch.setattr(mdp_sim, "_propagate", no_branch)
        monkeypatch.setattr(mdp_sim, "walk_outcomes", no_branch)
        est = EstimatorConfig(backend=backend, n_samples=100)
        with pytest.raises(EmptyBaselineError):
            z_table(g, g.free_cells() if cells == "all" else [], uniform_policy(g), 15, est,
                    actions=("up",))


def table_law(g, succ, cum, s):
    """Row s of a sampling table as a dense one-step law over flat cells."""
    law = np.zeros(g.n_cells)
    np.add.at(law, succ[s], np.diff(cum[s], prepend=0.0))
    return law


class TestPropagate:
    def test_only_byte_equal_columns_repeat(self):
        repeated = mdp_sim._repeated_columns
        assert repeated(np.full((3, 4), 0.25)) == [False, True, True, True]
        assert repeated(mdp_sim._action_matrix("up")) == [False, False, True, True]
        assert repeated(np.array([[0.3, 0.3, 0.4, 0.0],
                                  [0.5, 0.5, 0.0, 0.0]])) == [False, True, False, False]
        # columns 2 and 3 are == but differ in the sign of a zero
        assert repeated(np.array([[0.5, 0.5, 0.0, -0.0],
                                  [0.0, 0.5, 0.25, 0.25]])) == [False, False, False, False]

    @pytest.mark.parametrize("policy", ["uniform", "fixed", "greedy", "pairs"])
    def test_step_holds_no_more_blocks(self, policy):
        # beside d: out, the buffer of w and then w * slip, w * (1 - slip)
        # and the stay rows, at most four (n_cells, m) blocks, whatever the
        # runs of equal columns
        g = GridWorld(20, 20, goal=(17, 16), start=(2, 1), slip=0.2,
                      walls={(x, y) for y in range(20) for x in range(20)
                             if (7 * x + 3 * y) % 10 == 0})
        pol = {"uniform": uniform_policy(g),
               "fixed": mdp_sim._action_matrix("right"),
               "greedy": np.eye(4)[np.arange(g.n_cells) % 4],
               "pairs": np.tile([0.1, 0.1, 0.4, 0.4], (g.n_cells, 1))}[policy]
        d = np.zeros((g.n_cells, 64))
        d[g.free_index[:64], np.arange(64)] = 1.0
        g.successors  # built once per grid, not part of the step
        tracemalloc.start()
        try:
            mdp_sim._propagate(g, d, pol, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * d.nbytes


class TestSamplingTable:
    @given(small_worlds())
    def test_rows_are_the_one_step_law(self, world):
        g, _, _, _ = world
        free = g.free_cells()
        laws = {a: lambda c, a=a: transition_kernel(g, c, a) for a in ACTIONS}
        laws["uniform"] = lambda c: push_forward(g, Distribution.point(c, free),
                                                 uniform_policy(g))
        pols = {a: mdp_sim._action_matrix(a) for a in ACTIONS}
        pols["uniform"] = uniform_policy(g)
        position = {g.index_of(c): i for i, c in enumerate(free)}
        for name, law in laws.items():
            (succ, cum), (outcomes, probs) = mdp_sim._step_tables(g, pols[name])
            assert succ.shape == cum.shape == outcomes.shape == probs.shape == (g.n_cells, 5)
            assert np.all(cum[:, -1] == 1.0)
            assert np.array_equal(cum, cumulative(probs))
            for i in position:  # the last table reaches the same cells, as positions
                assert outcomes[i].tolist() == [position[t] for t in succ[i]]
            for i in range(g.n_cells):
                c = g.cell_of(i)
                got = table_law(g, succ, cum, i)
                if c in g.walls:  # never entered; a wall row stays put
                    assert got[i] == 1.0
                    continue
                want = law(c)
                assert got[[g.index_of(f) for f in free]] == pytest.approx(
                    want.probs, abs=1e-12)
                assert got.sum() == pytest.approx(1.0, abs=1e-12)


class TestSuccessorTable:
    @given(small_worlds())
    def test_entries_are_move_targets(self, world):
        g = world[0]
        assert g.successors.shape == (g.n_cells, 5)
        for i in range(g.n_cells):
            c = g.cell_of(i)
            wall = c in g.walls
            assert g.wall_mask[i] == wall
            want = [i] * 4 if wall else [g.index_of(g.move_target(c, a)) for a in ACTIONS]
            assert g.successors[i].tolist() == want + [i]
        assert g.free_index.tolist() == [i for i in range(g.n_cells)
                                         if g.cell_of(i) not in g.walls]

    def test_tables_are_read_only(self):
        g = GridWorld(3, 3, goal=(2, 2), start=(0, 0), walls={(1, 1)})
        for table in (g.successors, g.wall_mask, g.free_index, g.successor_outcomes):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_built_once_per_grid(self):
        # a model, an exact table, an MC table and shaped training on one
        # grid build each of the grid's tables once between them
        g = GridWorld(4, 3, goal=(3, 2), start=(0, 0), slip=0.2, walls={(1, 1)})
        props = {name: vars(GridWorld)[name]
                 for name in ("wall_mask", "free_index", "successors", "successor_outcomes")}
        with contextlib.ExitStack() as stack:
            builds = {name: stack.enter_context(mock.patch.object(prop, "func", wraps=prop.func))
                      for name, prop in props.items()}
            GridWorldModel(g, (0, 0), uniform_policy(g))
            z_table(g, g.free_cells(), uniform_policy(g), 3)
            z_table(g, g.free_cells(), uniform_policy(g), 3,
                    EstimatorConfig(backend="mc", n_samples=100))
            rl_agent.train(g, rl_agent.ShapingConfig(beta=0.5, horizon_k=3), episodes=2,
                           max_steps=20, epsilon=0.1, alpha=0.2, gamma=0.9, seed=0)
        assert {name: b.call_count for name, b in builds.items()} == dict.fromkeys(props, 1)

    def test_exact_table_builds_no_sampling_tables(self):
        # the exact back-end reads each action's step probabilities alone
        g = GridWorld(4, 3, goal=(3, 2), start=(0, 0), slip=0.2, walls={(1, 1)})
        with mock.patch.object(mdp_sim, "cumulative", wraps=cumulative) as cum, \
                mock.patch.object(mdp_sim, "_step_tables") as tables:
            z_table(g, g.free_cells(), uniform_policy(g), 3)
        assert cum.call_count == tables.call_count == 0
        assert "successor_outcomes" not in vars(g)

    @given(small_worlds())
    def test_successor_outcomes_are_free_cell_positions(self, world):
        g = world[0]
        free = g.free_cells()
        for i in g.free_index.tolist():
            assert g.successor_outcomes[i].tolist() == [
                free.index(g.cell_of(j)) for j in g.successors[i].tolist()]


class TestGridWorldModel:
    def test_event_space_respects_restriction(self):
        g = corridor_world(5, 0.2)
        m = GridWorldModel(g, (3, 0), always_policy(g, "right"),
                           actions=("right", "left"))
        assert [e.id for e in m.event_space()] == ["left", "right"]

    def test_rejects_unknown_actions(self):
        g = corridor_world(5, 0.2)
        with pytest.raises(ValueError):
            GridWorldModel(g, (3, 0), always_policy(g, "right"), actions=("jump",))

    @pytest.mark.parametrize("start, error, message", [
        ((1, 1), CellIsWallError, "is a wall"),
        ((5, 5), ValueError, "out of bounds"),
        ((-1, 0), ValueError, "out of bounds"),
    ])
    def test_rejects_bad_start_cells(self, start, error, message):
        g = GridWorld(3, 3, goal=(2, 2), start=(0, 0), walls={(1, 1)})
        with pytest.raises(error, match=message):
            GridWorldModel(g, start, uniform_policy(g))

    @pytest.mark.parametrize("label, error, message", [
        ((5, 0), ValueError, r"cell \(5, 0\) out of bounds"),
        ((0, -1), ValueError, r"cell \(0, -1\) out of bounds"),
        (7, InvalidDistributionError, r"label 7 is not an \(x, y\) cell"),
        ((1, 0, 0), InvalidDistributionError, r"is not an \(x, y\) cell"),
    ])
    @pytest.mark.parametrize("mass", [1.0, 0.0])
    def test_rejects_off_grid_start_labels(self, label, error, message, mass):
        # on a 5x2 grid (5, 0) and (0, -1) have flat indices 5 and -5, which
        # numpy would both take as cell (0, 1); a label off the grid is
        # refused even with no mass on it
        g = GridWorld(5, 2, goal=(4, 1), start=(0, 0))
        start = Distribution([(0, 0), label], [1.0 - mass, mass])
        for use in (lambda: GridWorldModel(g, start, uniform_policy(g)),
                    lambda: future_state_distribution(g, start, None, uniform_policy(g), 2),
                    lambda: push_forward(g, start, "up")):
            with pytest.raises(error, match=message):
                use()

    def test_sampling_tables_built_once(self):
        # the follow tables and one first step's tables per admissible action
        # are built with the model; walking or sampling branches builds none
        g = GridWorld(4, 3, goal=(3, 2), start=(0, 0), slip=0.2, walls={(1, 1)})
        with mock.patch.object(mdp_sim, "_step_tables",
                               wraps=mdp_sim._step_tables) as build:
            m = GridWorldModel(g, (0, 0), uniform_policy(g), actions=("up", "left"))
            assert build.call_count == 3
            rng = np.random.default_rng(0)
            for event in (None, *m.event_space(), *m.event_space()):
                m.sample_future_outcomes(event, Horizon(0, 3), 100, rng)
                mc_entropy_of_branch(m, event, Horizon(0, 3), 100, 0)
            assert build.call_count == 3

    def test_distribution_start(self):
        g = corridor_world(4, 0.0)
        start = Distribution.uniform(g.free_cells()[:2])
        m = GridWorldModel(g, start, always_policy(g, "right"))
        d = m.exact_future_distribution(None, Horizon(0, 1))
        assert d.prob_of((1, 0)) == pytest.approx(0.5)
        assert d.prob_of((2, 0)) == pytest.approx(0.5)
