import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zentropy import entropic_potential
from zentropy.entropic_potential import (
    MAX_SAMPLES,
    MAX_UNIFORMS,
    Baseline,
    EstimatorConfig,
    Event,
    Horizon,
    SystemModel,
    ZEstimate,
    classify_event,
    event_labels,
    _branch_surprisals,
    _ranked,
    _uniform_block,
    _walk_se,
    mc_entropy_of_branch,
    rank_events,
    rank_order,
    z_counterfactual,
    z_pre_post,
)
from zentropy._kernels import WALK_CHUNK_BYTES
from zentropy.entropy_core import Distribution, shannon_entropy
from zentropy.errors import (
    EmptyBaselineError,
    EventInBaselineError,
    EventNotAdmissibleError,
    InvalidDistributionError,
    SamplingUnsupportedError,
    UnsupportedBackendError,
)
from zentropy.markov import MarkovChainModel, random_chain_model, two_state_flip_chain
from zentropy.mdp_sim import ACTIONS, always_policy, corridor_world, ranked_row, z_table

from oracles import chain_future, entropy_bits, label_of, last_step_estimate

EXACT = EstimatorConfig(backend="exact")
MC = EstimatorConfig(backend="mc", n_samples=500, seed=5)

# frozen oracle values (see oracles.chain_future / corridor enumeration)
H_FLIP = entropy_bits([0.9, 0.1])              # 0.4689955935892812
CORRIDOR_Z_RIGHT = -0.9820892686420791


class CountingChain(MarkovChainModel):
    """A chain that counts its branch evaluations on either back-end: an
    exact law, or a walk for the Monte Carlo estimator."""

    calls = 0

    def exact_future_distribution(self, event, horizon):
        self.calls += 1
        return super().exact_future_distribution(event, horizon)

    def walk(self, event, horizon):
        self.calls += 1
        return super().walk(event, horizon)


def counting_chain() -> CountingChain:
    """A random 6-state chain with events e0..e4."""
    base = random_chain_model(6, 5, np.random.default_rng(31))
    return CountingChain(base.transition, base.event_kernels, base.start.probs)


class TestDomainTypes:
    def test_horizon_requires_future(self):
        with pytest.raises(ValueError):
            Horizon(3, 3)
        with pytest.raises(ValueError):
            Horizon(3, 2)
        assert Horizon(2, 5).steps == 3

    def test_baseline_validation(self):
        a, b = Event("a"), Event("b")
        assert Baseline.null().kind == "null-event"
        with pytest.raises(EmptyBaselineError):
            Baseline.uniform([])
        with pytest.raises(EmptyBaselineError):
            Baseline("null-event", alternatives=(a,))
        with pytest.raises(EmptyBaselineError):
            Baseline.uniform([a, a])
        with pytest.raises(Exception):
            Baseline.weighted([a, b], [0.7, 0.7])
        w = Baseline.weighted([a, b], [0.25, 0.75])
        assert w.normalized_weights() == (0.25, 0.75)
        assert Baseline.uniform([a, b]).normalized_weights() == (0.5, 0.5)

    def test_weighted_baseline_weights_are_normalized(self):
        # inside NORMALIZATION_TOL, but off by 4e-10: accepted and renormalised
        raw = [0.25, 0.75 + 4e-10]
        w = Baseline.weighted([Event("a"), Event("b")], raw)
        assert w.normalized_weights() == tuple(Distribution(["a", "b"], raw).probs.tolist())
        assert sum(w.normalized_weights()) == pytest.approx(1.0, abs=1e-15)

    def test_zestimate_exact_carries_no_error(self):
        with pytest.raises(ValueError):
            ZEstimate(0.1, 0.2, "exact", 0, Horizon(0, 1), "e", "null-event")
        with pytest.raises(ValueError):
            ZEstimate(0.1, 0.0, "exact", 10, Horizon(0, 1), "e", "null-event")


class TestEstimatorConfig:
    @pytest.mark.parametrize("kw", [{"n_samples": -5}, {"n_samples": 99},
                                    {"n_samples": 0},
                                    {"backend": "bootstrap"},
                                    {"n_samples": MAX_SAMPLES + 1},
                                    {"n_samples": 10 * MAX_SAMPLES}])
    def test_degenerate_settings_rejected(self, kw):
        with pytest.raises(ValueError):
            EstimatorConfig(**{"backend": "mc", **kw})

    def test_largest_valid_settings_accepted(self):
        EstimatorConfig(backend="mc", n_samples=MAX_SAMPLES)

    def test_smallest_valid_settings_accepted(self):
        est = EstimatorConfig(backend="mc", n_samples=100)
        z = z_pre_post(two_state_flip_chain(), Event("clamp0"), Horizon(0, 1), est)
        assert math.isfinite(z.std_error)


class TestClassify:
    def test_sign_convention(self):
        def z(v):
            return ZEstimate(v, 0.0, "exact", 0, Horizon(0, 1), "e", "null-event")
        assert classify_event(z(-0.531), 0.01).label == "beneficial"
        assert classify_event(z(0.0), 0.01).label == "neutral"
        assert classify_event(z(0.531), 0.01).label == "harmful"
        assert classify_event(z(0.005), 0.01).label == "neutral"
        with pytest.raises(ValueError):
            classify_event(z(0.0), -1.0)

    def test_sign_needs_two_standard_errors_beyond_tol(self):
        def z(v, se):
            return ZEstimate(v, se, "monte-carlo", 1000, Horizon(0, 1), "e", "null-event")
        assert classify_event(z(-0.02, 0.05), 0.01).label == "uncertain"
        assert classify_event(z(0.02, 0.05), 0.01).label == "uncertain"
        assert classify_event(z(-0.005, 0.05), 0.01).label == "neutral"
        assert classify_event(z(-0.2, 0.05), 0.01).label == "beneficial"
        assert classify_event(z(0.2, 0.05), 0.01).label == "harmful"
        assert classify_event(z(0.1, 0.05), 0.01).label == "uncertain"


    @staticmethod
    def boundaries(tol, se):
        """Z on, just inside and just outside |Z| == tol + 2 * se and |Z| == tol."""
        near = [x for e in (tol + 2.0 * se, tol)
                for x in (e, math.nextafter(e, 0.0), math.nextafter(e, math.inf))]
        return [0.0, -0.0, *near, *(-x for x in near)]

    @given(st.sampled_from([0.0, 0.01, 0.3, 5e-324, 1.0]),
           st.lists(st.sampled_from([0.0, 0.004, 0.05, 1e-300, 2.5]), min_size=1, max_size=6),
           st.data())
    @settings(max_examples=200)
    def test_labels_agree_with_classify_event_element_by_element(self, tol, ses, data):
        pairs = [(data.draw(st.sampled_from(self.boundaries(tol, se))
                            | st.floats(-5.0, 5.0, allow_subnormal=True)), se) for se in ses]
        z, se = (np.array(c) for c in zip(*pairs))
        labels = event_labels(z, se, tol)
        assert labels.shape == z.shape
        for label, (v, s) in zip(labels.tolist(), pairs):
            est = ZEstimate(v, s, "monte-carlo", 1000, Horizon(0, 1), "e", "null-event")
            assert label == classify_event(est, tol).label == label_of(v, s, tol)

    def test_every_label_and_a_negative_tolerance(self):
        labels = event_labels(np.array([-0.2, 0.2, 0.005, 0.02]),
                              np.array([0.05, 0.05, 0.0, 0.05]), 0.01)
        assert labels.tolist() == ["beneficial", "harmful", "neutral", "uncertain"]
        assert event_labels(np.empty(0), np.empty(0), 0.0).shape == (0,)
        with pytest.raises(ValueError):
            event_labels(np.zeros(2), np.zeros(2), -1e-300)


class TestRankOrder:
    IDS = ["a", "a\x00", "b", "", "\x00", "right@10,0", "right@9,0"]

    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.5, -1.5, 5e-324, -5e-324])
                              | st.floats(allow_nan=False), st.sampled_from(IDS)), max_size=10))
    @example(pairs=[(0.0, "a"), (-0.0, "a\x00"), (0.0, "a\x00"), (-0.0, "a")])
    @example(pairs=[(1.0, "a\x00"), (1.0, "a")])
    @example(pairs=[])
    def test_equals_python_sort_on_z_then_id(self, pairs):
        z = [v for v, _ in pairs]
        ids = [i for _, i in pairs]
        got = rank_order(np.array(z), ids)
        assert got.tolist() == sorted(range(len(pairs)), key=lambda i: (z[i], ids[i]))

    @given(st.integers(0, 4), st.lists(st.sampled_from(IDS), min_size=1, max_size=5, unique=True),
           st.data())
    def test_ranks_each_row_of_a_table(self, rows, ids, data):
        z = np.array([[data.draw(st.sampled_from([0.0, -0.0, 0.25, -1.0])) for _ in ids]
                      for _ in range(rows)]).reshape(rows, len(ids))
        got = rank_order(z, ids)
        assert got.shape == z.shape
        for z_row, order in zip(z.tolist(), got.tolist()):
            assert order == rank_order(np.array(z_row), ids).tolist()


class TestChainGoldens:
    def test_clamp_is_beneficial(self):
        model = two_state_flip_chain(0.1, (0.5, 0.5))
        z = z_pre_post(model, Event("clamp0"), Horizon(0, 1), EXACT)
        # oracle: exact one-step push-forward of both branches
        ev = chain_future({0: 0.5, 1: 0.5}, [{0: 0.9, 1: 0.1}, {0: 0.1, 1: 0.9}], 1,
                          event_rows=[{0: 1.0}, {0: 1.0}])
        null = chain_future({0: 0.5, 1: 0.5}, [{0: 0.9, 1: 0.1}, {0: 0.1, 1: 0.9}], 1)
        assert z.value == pytest.approx(
            entropy_bits(ev.values()) - entropy_bits(null.values()), abs=1e-12)
        assert z.value == pytest.approx(H_FLIP - 1.0, abs=1e-12)
        assert z.method == "exact" and z.std_error == 0.0 and z.n_samples == 0

    def test_randomize_is_harmful(self):
        model = two_state_flip_chain(0.1, (1.0, 0.0))
        z = z_pre_post(model, Event("randomize"), Horizon(0, 1), EXACT)
        assert z.value == pytest.approx(1.0 - H_FLIP, abs=1e-12)

    def test_deterministic_model_gives_zero(self):
        p = [[0.0, 1.0], [1.0, 0.0]]
        model = MarkovChainModel(p, {"swap": p}, (1.0, 0.0))
        z = z_pre_post(model, Event("swap"), Horizon(0, 3), EXACT)
        assert z.value == 0.0


class TestInvariants:
    def test_deterministic_models_zero_both_forms(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(2, 65))
            model = random_chain_model(n, 3, rng, deterministic=True)
            events = model.event_space()
            h = Horizon(0, int(rng.integers(1, 5)))
            z1 = z_pre_post(model, events[0], h, EXACT)
            z2 = z_counterfactual(model, events[0], Baseline.uniform(events[1:]), h, EXACT)
            assert abs(z1.value) <= 1e-12
            assert abs(z2.value) <= 1e-12

    def test_null_baseline_reduces_to_pre_post(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            n = int(rng.integers(2, 65))
            model = random_chain_model(n, 2, rng)
            h = Horizon(0, int(rng.integers(1, 4)))
            ev = model.event_space()[0]
            a = z_pre_post(model, ev, h, EXACT)
            b = z_counterfactual(model, ev, Baseline.null(), h, EXACT)
            assert abs(a.value - b.value) <= 1e-12

    def test_pairwise_antisymmetry(self):
        rng = np.random.default_rng(17)
        model = random_chain_model(12, 2, rng)
        a, b = model.event_space()
        h = Horizon(0, 2)
        zab = z_counterfactual(model, a, Baseline.uniform([b]), h, EXACT)
        zba = z_counterfactual(model, b, Baseline.uniform([a]), h, EXACT)
        assert zab.value == pytest.approx(-zba.value, abs=1e-12)

    def test_bound_by_log_support(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(2, 33))
            model = random_chain_model(n, 2, rng)
            ev = model.event_space()[0]
            z = z_pre_post(model, ev, Horizon(0, 2), EXACT)
            assert abs(z.value) <= math.log2(n) + 1e-12


class TestMonteCarlo:
    def test_deterministic_branch_zero(self):
        p = [[0.0, 1.0], [1.0, 0.0]]
        model = MarkovChainModel(p, {"swap": p}, (1.0, 0.0))
        h, se = mc_entropy_of_branch(model, Event("swap"), Horizon(0, 2), 500, 0)
        assert h.value == 0.0 and se == 0.0

    def test_deterministic_state_before_the_last_step_is_exact(self):
        # clamp0 puts every walk in state 0; the last step is then exact
        model = two_state_flip_chain(0.1, (0.5, 0.5))
        h, se = mc_entropy_of_branch(model, Event("clamp0"), Horizon(0, 1), 1000, 3)
        exact = shannon_entropy(model.exact_future_distribution(Event("clamp0"), Horizon(0, 1)))
        assert abs(h.value - exact.value) <= 1e-12
        assert abs(h.value - H_FLIP) <= 1e-12
        assert se == 0.0

    def test_point_mass_last_step_is_the_plug_in_entropy(self):
        class Sampler(SystemModel):
            def event_space(self):
                return [Event("e")]

            def sample_future_outcomes(self, event, horizon, n, rng):
                return rng.integers(0, 7, n) ** 2  # gaps: outcomes 0, 1, 4, ..., 36

        n = 500
        outcomes = Sampler().sample_future_outcomes(None, None, n,
                                                    entropic_potential._uniform_stream(4))
        h, se = mc_entropy_of_branch(Sampler(), Event("e"), Horizon(0, 1), n, 4)
        counts = np.bincount(outcomes)
        p = counts[counts > 0] / n
        plug_in = entropy_bits(p.tolist())
        assert abs(h.value - plug_in) <= 1e-12
        # the delta-method SE of the plug-in entropy: the spread of -log2 p(X)
        want = math.sqrt(sum(x * (-math.log2(x) - plug_in) ** 2 for x in p) / n)
        assert se == pytest.approx(want, rel=1e-9)

    @given(st.data())
    def test_estimator_matches_the_dict_oracle_row_by_row(self, data):
        # random last-step tables with repeated and zero-probability columns;
        # each row of a batch gives the oracle's value, and bitwise what it
        # gives alone
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        c = data.draw(st.integers(1, 4), label="rows")
        n = data.draw(st.integers(1, 60), label="n")
        size = data.draw(st.integers(1, 6), label="states")
        width = data.draw(st.integers(1, 4), label="width")
        n_out = data.draw(st.integers(1, 5), label="outcomes")
        outcomes = rng.integers(0, n_out, (size, width))
        probs = rng.random((size, width)) * (rng.random((size, width)) < 0.7)
        probs[:, 0] += 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        spread = data.draw(st.integers(1, size), label="spread")
        states = rng.integers(0, spread, (c, n))
        h, g = _branch_surprisals(states, (outcomes, probs))
        se = _walk_se(g)
        assert h.shape == se.shape == (c,) and g.shape == (c, n)
        for i in range(c):
            want_h, want_se, want_g = last_step_estimate(states[i].tolist(), outcomes.tolist(),
                                                         probs.tolist())
            assert abs(h[i] - want_h) <= 1e-12
            assert abs(se[i] - want_se) <= 1e-12
            assert np.abs(g[i] - want_g).max() <= 1e-12
            alone = _branch_surprisals(states[i:i + 1], (outcomes, probs))
            assert alone[0].tobytes() == h[i:i + 1].tobytes()
            assert alone[1].tobytes() == g[i:i + 1].tobytes()
            assert _walk_se(g[i]) == se[i]
            if spread == 1:
                assert se[i] == 0.0

    def test_chain_branch_close_to_exact_at_100k(self):
        model = two_state_flip_chain(0.1, (0.5, 0.5))
        h, se = mc_entropy_of_branch(model, Event("clamp0"), Horizon(0, 1), 100_000, 7)
        assert abs(h.value - H_FLIP) <= 0.01

    def test_entropy_bound_small_n(self):
        uniform = np.full((16, 16), 1.0 / 16)
        model = MarkovChainModel(uniform, {"e": uniform}, np.full(16, 1.0 / 16))
        h, _ = mc_entropy_of_branch(model, Event("e"), Horizon(0, 1), 100, 3)
        assert h.value <= 4.0

    def test_requires_min_samples(self):
        model = two_state_flip_chain()
        with pytest.raises(ValueError):
            mc_entropy_of_branch(model, None, Horizon(0, 1), 99, 0)

    @pytest.mark.parametrize("outcomes", [
        lambda n: [("calm",)] * n,                # labels, not indices
        lambda n: ["calm"] * n,
        lambda n: np.zeros(n - 1, dtype=np.int64),  # too few
        lambda n: np.full(n, -1),                 # negative index
        lambda n: np.zeros(n),                    # floats
    ])
    def test_plug_in_sampler_must_return_outcome_indices(self, outcomes):
        class LabelSampler(SystemModel):
            def event_space(self):
                return [Event("e")]

            def sample_future_outcomes(self, event, horizon, n, rng):
                return outcomes(n)

        with pytest.raises(InvalidDistributionError, match="non-negative integer outcome"):
            mc_entropy_of_branch(LabelSampler(), Event("e"), Horizon(0, 1), 100, 0)

    def test_plug_in_sampler_may_return_an_int_list(self):
        class ListSampler(SystemModel):
            def event_space(self):
                return [Event("e")]

            def sample_future_outcomes(self, event, horizon, n, rng):
                return [i % 4 for i in range(n)]

        h, _ = mc_entropy_of_branch(ListSampler(), Event("e"), Horizon(0, 1), 100, 0)
        assert h.value == 2.0

    def test_mc_z_within_three_se(self):
        model = two_state_flip_chain(0.1, (0.5, 0.5))
        exact = z_pre_post(model, Event("clamp0"), Horizon(0, 1), EXACT).value
        hits = 0
        for seed in range(20):
            est = EstimatorConfig(backend="mc", n_samples=10_000, seed=seed)
            z = z_pre_post(model, Event("clamp0"), Horizon(0, 1), est)
            assert z.method == "monte-carlo" and z.n_samples == 10_000
            if abs(z.value - exact) <= 3.0 * z.std_error:
                hits += 1
        assert hits >= 19

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_identity_event_walks_the_null_branch(self, k):
        # the null branch has no event step, so it skips the block's event
        # column and its steps read the columns the event branch's later
        # steps read: an event whose kernel is the identity walks the null
        # branch's walks, and its pre/post Z is 0.0 with SE 0.0 exactly
        rng = np.random.default_rng(k)
        base = random_chain_model(6, 1, rng)
        model = MarkovChainModel(base.transition, {"stay": np.eye(6),
                                                   "mix": base.event_kernels["e0"]},
                                 base.start.probs)
        est = EstimatorConfig(backend="mc", n_samples=400, seed=k)
        z = z_pre_post(model, Event("stay"), Horizon(0, k), est)
        assert (z.value, z.std_error) == (0.0, 0.0)
        ranked = dict(rank_events(model, model.event_space(), Baseline.null(), Horizon(0, k),
                                  est))
        assert ranked[Event("stay")] == z
        assert ranked[Event("mix")].std_error > 0.0

    def test_uniform_block_is_one_row_major_draw(self):
        # drawn in several row chunks, stored column-major, and equal to one
        # (n, width) draw from the child stream (0,)
        n, width = 3 * WALK_CHUNK_BYTES // (8 * 15) + 5, 15
        u = _uniform_block(7, n, width)
        want = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(0,))).random((n, width))
        assert u.flags.f_contiguous and u.shape == (n, width)
        assert np.array_equal(u, want)

    def test_uniform_cap_counts_the_event_step_before_any_draw(self, monkeypatch):
        # a Markov event branch walks k + 1 columns: MAX_SAMPLES walks at
        # k = 15 would draw 16M uniforms against the 15M cap
        model = two_state_flip_chain()
        k = MAX_UNIFORMS // MAX_SAMPLES
        assert model.walk(Event("clamp0"), Horizon(0, k)).steps == k + 1

        def no_block(*args):
            pytest.fail(f"drew a block {args}")

        monkeypatch.setattr(entropic_potential, "_uniform_block", no_block)
        est = EstimatorConfig(backend="mc", n_samples=MAX_SAMPLES)
        want = rf"got {MAX_SAMPLES} walks of width {k + 1} at horizon_k {k}"
        with pytest.raises(ValueError, match=want):
            z_pre_post(model, Event("clamp0"), Horizon(0, k), est)
        with pytest.raises(ValueError, match=want):
            rank_events(model, model.event_space(), Baseline.null(), Horizon(0, k), est)

        with pytest.raises(ValueError, match=want):
            mc_entropy_of_branch(model, Event("clamp0"), Horizon(0, k), MAX_SAMPLES, 0)
        # the null branch reads k columns, the cap exactly, so it gets to draw
        with pytest.raises(pytest.fail.Exception, match="drew a block"):
            mc_entropy_of_branch(model, None, Horizon(0, k), MAX_SAMPLES, 0)

    def test_mc_is_reproducible_from_seed(self):
        model = two_state_flip_chain(0.1, (0.5, 0.5))
        est = EstimatorConfig(backend="mc", n_samples=1_000, seed=123)
        z1 = z_pre_post(model, Event("clamp0"), Horizon(0, 1), est)
        z2 = z_pre_post(model, Event("clamp0"), Horizon(0, 1), est)
        assert z1 == z2


class TestRankEvents:
    def test_corridor_ordering(self):
        g = corridor_world(5, 0.2)
        z, se = z_table(g, [(3, 0)], always_policy(g, "right"), 2, EXACT, ("left", "right"))
        scores = ranked_row(z[0], se[0], 2, EXACT, ("left", "right"))
        assert [a for a, _ in scores] == ["right", "left"]
        assert scores[0][1].value == pytest.approx(CORRIDOR_Z_RIGHT, abs=1e-9)
        assert scores[1][1].value == pytest.approx(-CORRIDOR_Z_RIGHT, abs=1e-9)

    def test_single_event_null_baseline_matches_pre_post(self):
        model = two_state_flip_chain(0.1, (0.5, 0.5))
        ev = Event("clamp0")
        ranked = rank_events(model, [ev], Baseline.null(), Horizon(0, 1), EXACT)
        assert len(ranked) == 1
        direct = z_pre_post(model, ev, Horizon(0, 1), EXACT)
        assert ranked[0][1].value == direct.value

    def test_deterministic_ties_break_lexicographically(self):
        p = [[0.0, 1.0], [1.0, 0.0]]
        model = MarkovChainModel(p, {"zeta": p, "alpha": p, "mid": p}, (1.0, 0.0))
        ranked = rank_events(model, model.event_space(), "vs-rest", Horizon(0, 1), EXACT)
        assert [e.id for e, _ in ranked] == ["alpha", "mid", "zeta"]
        assert all(z.value == 0.0 for _, z in ranked)

    def test_vs_rest_needs_two_events(self):
        model = two_state_flip_chain()
        with pytest.raises(EmptyBaselineError):
            rank_events(model, [Event("clamp0")], "vs-rest", Horizon(0, 1), EXACT)

    def test_empty_event_list_rejected(self):
        model = two_state_flip_chain()
        with pytest.raises(ValueError):
            rank_events(model, [], "vs-rest", Horizon(0, 1), EXACT)

    def test_ordering_invariant_under_relabeling(self):
        rng = np.random.default_rng(23)
        model = random_chain_model(8, 3, rng)
        ranked = rank_events(model, model.event_space(), "vs-rest", Horizon(0, 2), EXACT)
        values = [z.value for _, z in ranked]
        assert values == sorted(values)
        # renaming the events must not change the value ordering
        renamed = MarkovChainModel(
            model.transition,
            {f"renamed-{k}": v for k, v in model.event_kernels.items()},
            model.start.probs)
        ranked2 = rank_events(renamed, renamed.event_space(), "vs-rest",
                              Horizon(0, 2), EXACT)
        assert [e.id.removeprefix("renamed-") for e, _ in ranked2] == \
            [e.id for e, _ in ranked]
        for (_, z2), v in zip(ranked2, values):
            assert z2.value == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("est", [EXACT, MC], ids=["exact", "mc"])
    @pytest.mark.parametrize("kind", ["vs-rest", "null", "uniform", "weighted"])
    def test_ranking_evaluates_each_distinct_branch_once(self, kind, est):
        model = counting_chain()
        events, rest = model.event_space(), model.event_space()[3:]
        if kind != "vs-rest":
            events = events[:3]
        baseline = {"vs-rest": "vs-rest", "null": Baseline.null(),
                    "uniform": Baseline.uniform(rest),
                    "weighted": Baseline.weighted(rest, [0.3, 0.7])}[kind]
        # the events, then the alternatives not among them, then the null event
        distinct = len(events) + {"vs-rest": 0, "null": 1}.get(kind, len(rest))
        ranked = rank_events(model, events, baseline, Horizon(0, 3), est)
        assert model.calls == distinct
        if kind == "vs-rest":
            # shared branches: the vs-rest values of one ranking cancel out
            assert sum(z.value for _, z in ranked) == pytest.approx(0.0, abs=1e-12)
        assert ranked == rank_events(model, events, baseline, Horizon(0, 3), est)

    @pytest.mark.parametrize("baseline", [
        Baseline.null(),
        Baseline.uniform([Event("e3"), Event("e4")]),
        Baseline.weighted([Event("e3"), Event("e4")], [0.3, 0.7]),
    ], ids=["null", "uniform", "weighted"])
    def test_fixed_baseline_matches_counterfactual_per_event(self, baseline):
        model = counting_chain()
        events = model.event_space()[:3]
        ranked = dict(rank_events(model, events, baseline, Horizon(0, 2), EXACT))
        for ev in events:
            assert ranked[ev] == z_counterfactual(model, ev, baseline, Horizon(0, 2), EXACT)

    @pytest.mark.parametrize("baseline", ["vs-rest", Baseline.null(),
                                          Baseline.uniform([Event("e3")])],
                             ids=["vs-rest", "null", "uniform"])
    def test_duplicate_event_ids_rejected_before_any_branch(self, baseline):
        model = counting_chain()
        a, b = model.event_space()[:2]
        with pytest.raises(ValueError, match="duplicate event id 'e0'"):
            rank_events(model, [a, b, a], baseline, Horizon(0, 1), EXACT)
        assert model.calls == 0

    def test_vs_rest_matches_counterfactual_per_event(self):
        model = random_chain_model(7, 4, np.random.default_rng(37))
        events = model.event_space()
        ranked = dict(rank_events(model, events, "vs-rest", Horizon(0, 2), EXACT))
        for ev in events:
            z = z_counterfactual(model, ev, Baseline.uniform(e for e in events if e != ev),
                                 Horizon(0, 2), EXACT)
            assert ranked[ev] == z

    @pytest.mark.parametrize("ids", [["b", "a"], ["up", "down", "left", "right"],
                                     ["a,b", "", "{c}", "a", "a\x00"]])
    def test_vs_rest_labels_are_the_uniform_baseline_summaries(self, ids):
        events = [Event(i) for i in ids]
        ranked = dict(_ranked(events, [(0.5, 0.0)] * len(events), "vs-rest",
                              Horizon(0, 1), EXACT))
        for ev in events:
            other = Baseline.uniform(e for e in events if e.id != ev.id)
            assert ranked[ev].baseline == other.summary()

    def test_vs_rest_labels_refuse_one_event(self):
        with pytest.raises(EmptyBaselineError):
            ranked_row(np.zeros(1), np.zeros(1), 2, EXACT, ("up",))

    @pytest.mark.parametrize("ids", [["up", "down", "up"], ["up", "down", "down", "left"],
                                     ["right", "left", "right", "left"]])
    def test_vs_rest_labels_name_duplicate_actions_once(self, ids):
        # ranked_row takes each named action once, in ACTIONS order, so its
        # labels are the other distinct actions'; rank_events refuses
        # duplicate ids (test_duplicate_event_ids_rejected_before_any_branch)
        distinct = [a for a in ACTIONS if a in ids]
        z = np.arange(len(distinct), dtype=np.float64)
        ranked = ranked_row(z, np.zeros(len(distinct)), 2, EXACT, ids)
        assert [a for a, _ in ranked] == distinct
        for a, est in ranked:
            other = Baseline.uniform(Event(b) for b in distinct if b != a)
            assert est.baseline == other.summary()

    def test_weighted_baseline_averages_branch_entropies(self):
        rng = np.random.default_rng(29)
        model = random_chain_model(10, 3, rng)
        a, b, c = model.event_space()
        h = Horizon(0, 2)
        z = z_counterfactual(model, a, Baseline.weighted([b, c], [0.25, 0.75]),
                             h, EXACT)
        ent = lambda ev: float(shannon_entropy(
            model.exact_future_distribution(ev, h)))
        want = ent(a) - (0.25 * ent(b) + 0.75 * ent(c))
        assert z.value == pytest.approx(want, abs=1e-12)
        assert z.baseline.startswith("weighted{")


class TestErrors:
    def test_event_not_admissible(self):
        model = two_state_flip_chain()
        with pytest.raises(EventNotAdmissibleError):
            z_pre_post(model, Event("phantom"), Horizon(0, 1), EXACT)

    def test_event_in_baseline(self):
        model = two_state_flip_chain()
        ev = Event("clamp0")
        with pytest.raises(EventInBaselineError):
            z_counterfactual(model, ev, Baseline.uniform([ev]), Horizon(0, 1), EXACT)

    def test_unsupported_backends(self):
        class EventsOnly(SystemModel):
            def event_space(self):
                return [Event("e")]

        model = EventsOnly()
        with pytest.raises(UnsupportedBackendError):
            z_pre_post(model, Event("e"), Horizon(0, 1), EXACT)
        with pytest.raises(SamplingUnsupportedError):
            mc_entropy_of_branch(model, Event("e"), Horizon(0, 1), 100, 0)
