import math

import numpy as np
import pytest

from zentropy.entropic_potential import (
    MAX_BOOTSTRAP,
    MAX_SAMPLES,
    Baseline,
    EstimatorConfig,
    Event,
    Horizon,
    SystemModel,
    ZEstimate,
    classify_event,
    mc_entropy_of_branch,
    rank_events,
    z_counterfactual,
    z_pre_post,
)
from zentropy.entropy_core import shannon_entropy
from zentropy.errors import (
    EmptyBaselineError,
    EventInBaselineError,
    EventNotAdmissibleError,
    InvalidDistributionError,
    SamplingUnsupportedError,
    UnsupportedBackendError,
)
from zentropy.markov import MarkovChainModel, random_chain_model, two_state_flip_chain
from zentropy.mdp_sim import action_z_scores, always_policy, corridor_world

from oracles import chain_future, entropy_bits

EXACT = EstimatorConfig(backend="exact")

# frozen oracle values (see oracles.chain_future / corridor enumeration)
H_FLIP = entropy_bits([0.9, 0.1])              # 0.4689955935892812
CORRIDOR_Z_RIGHT = -0.9820892686420791


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

    def test_zestimate_exact_carries_no_error(self):
        with pytest.raises(ValueError):
            ZEstimate(0.1, 0.2, "exact", 0, Horizon(0, 1), "e", "null-event")
        with pytest.raises(ValueError):
            ZEstimate(0.1, 0.0, "exact", 10, Horizon(0, 1), "e", "null-event")


class TestEstimatorConfig:
    @pytest.mark.parametrize("kw", [{"n_samples": -5}, {"n_samples": 99},
                                    {"bootstrap_resamples": 0},
                                    {"bootstrap_resamples": 1},
                                    {"n_samples": MAX_SAMPLES + 1},
                                    {"bootstrap_resamples": MAX_BOOTSTRAP + 1}])
    def test_degenerate_settings_rejected(self, kw):
        with pytest.raises(ValueError):
            EstimatorConfig(backend="mc", **kw)

    def test_largest_valid_settings_accepted(self):
        EstimatorConfig(backend="mc", n_samples=MAX_SAMPLES, bootstrap_resamples=MAX_BOOTSTRAP)

    def test_smallest_valid_settings_accepted(self):
        est = EstimatorConfig(backend="mc", n_samples=100, bootstrap_resamples=2)
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

    def test_mc_is_reproducible_from_seed(self):
        model = two_state_flip_chain(0.1, (0.5, 0.5))
        est = EstimatorConfig(backend="mc", n_samples=1_000, seed=123)
        z1 = z_pre_post(model, Event("clamp0"), Horizon(0, 1), est)
        z2 = z_pre_post(model, Event("clamp0"), Horizon(0, 1), est)
        assert z1 == z2


class TestRankEvents:
    def test_corridor_ordering(self):
        g = corridor_world(5, 0.2)
        scores = action_z_scores(g, (3, 0), always_policy(g, "right"), 2, EXACT,
                                 actions=("left", "right"))
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

    @pytest.mark.parametrize("est", [EXACT, EstimatorConfig(backend="mc", n_samples=500,
                                                            seed=5)])
    def test_vs_rest_evaluates_each_branch_once(self, est):
        class CountingChain(MarkovChainModel):
            calls = 0

            def exact_future_distribution(self, event, horizon):
                self.calls += 1
                return super().exact_future_distribution(event, horizon)

            def sample_future_outcomes(self, event, horizon, n, rng):
                self.calls += 1
                return super().sample_future_outcomes(event, horizon, n, rng)

        base = random_chain_model(6, 5, np.random.default_rng(31))
        model = CountingChain(base.transition, base.event_kernels, base.start.probs)
        events = model.event_space()
        ranked = rank_events(model, events, "vs-rest", Horizon(0, 3), est)
        assert model.calls == len(events)
        # shared branches: the vs-rest values of one ranking cancel out
        assert sum(z.value for _, z in ranked) == pytest.approx(0.0, abs=1e-12)
        assert ranked == rank_events(model, events, "vs-rest", Horizon(0, 3), est)

    def test_vs_rest_matches_counterfactual_per_event(self):
        model = random_chain_model(7, 4, np.random.default_rng(37))
        events = model.event_space()
        ranked = dict(rank_events(model, events, "vs-rest", Horizon(0, 2), EXACT))
        for ev in events:
            z = z_counterfactual(model, ev, Baseline.uniform(e for e in events if e != ev),
                                 Horizon(0, 2), EXACT)
            assert ranked[ev] == z

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
