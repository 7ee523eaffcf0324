import numpy as np
import pytest

from zentropy.entropic_potential import Event, Horizon
from zentropy.errors import InvalidDistributionError
from zentropy.markov import MarkovChainModel, random_chain_model, two_state_flip_chain

from oracles import chain_future


def rows_to_dicts(m):
    return [{j: p for j, p in enumerate(row) if p > 0} for row in m]


class TestValidation:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(InvalidDistributionError):
            MarkovChainModel([[0.5, 0.4], [0.5, 0.5]], {}, (1.0, 0.0))
        with pytest.raises(InvalidDistributionError):
            MarkovChainModel([[1.2, -0.2], [0.5, 0.5]], {}, (1.0, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(InvalidDistributionError):
            MarkovChainModel([[bad, 0.5], [0.5, 0.5]], {}, (1.0, 0.0))
        with pytest.raises(InvalidDistributionError):
            MarkovChainModel(np.eye(2), {"e": [[0.5, 0.5], [bad, bad]]}, (1.0, 0.0))

    def test_kernel_size_must_match(self):
        with pytest.raises(InvalidDistributionError):
            MarkovChainModel(np.eye(2), {"e": np.eye(3)}, (1.0, 0.0))

    def test_event_space_sorted_by_id(self):
        m = MarkovChainModel(np.eye(2), {"b": np.eye(2), "a": np.eye(2)}, (1.0, 0.0))
        assert [e.id for e in m.event_space()] == ["a", "b"]


class TestExactPushForward:
    def test_matches_dict_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            n = int(rng.integers(2, 12))
            model = random_chain_model(n, 1, rng)
            ev = model.event_space()[0]
            steps = int(rng.integers(1, 4))
            got = model.exact_future_distribution(ev, Horizon(0, steps)).as_dict()
            want = chain_future(
                dict(enumerate(model.start.probs)),
                rows_to_dicts(model.transition),
                steps,
                event_rows=rows_to_dicts(model.event_kernels[ev.id]))
            for j in range(n):
                assert got.get(j, 0.0) == pytest.approx(want.get(j, 0.0), abs=1e-12)

    def test_null_event_runs_base_dynamics(self):
        model = two_state_flip_chain(0.1, (1.0, 0.0))
        d = model.exact_future_distribution(None, Horizon(0, 1))
        assert d.as_dict()[0] == pytest.approx(0.9)


class TestSampling:
    def test_empirical_matches_exact_tv(self):
        model = two_state_flip_chain(0.1, (0.5, 0.5))
        rng = np.random.default_rng(41)
        outcomes = model.sample_future_outcomes(Event("clamp0"), Horizon(0, 1),
                                                100_000, rng)
        emp0 = np.count_nonzero(outcomes == 0) / 100_000
        exact = model.exact_future_distribution(Event("clamp0"), Horizon(0, 1))
        tv = abs(emp0 - exact.prob_of(0))
        assert tv <= 0.01

    def test_flip_free_chain_never_moves(self):
        model = two_state_flip_chain(0.0, (1.0, 0.0))
        out = model.sample_future_outcomes(None, Horizon(0, 3), 100,
                                           np.random.default_rng(0))
        assert out.dtype == np.int64
        assert np.all(out == 0)  # slip-free symmetric chain with flip=0 never moves

    def test_deterministic_generator_yields_point_masses(self):
        rng = np.random.default_rng(43)
        model = random_chain_model(10, 2, rng, deterministic=True)
        assert np.all(np.isin(model.transition, (0.0, 1.0)))
        assert model.start.support_size == 1
        d = model.exact_future_distribution(model.event_space()[0], Horizon(0, 3))
        assert d.support_size == 1

    def test_custom_labels_round_trip(self):
        model = MarkovChainModel([[0.9, 0.1], [0.1, 0.9]],
                                 {"clamp": [[1, 0], [1, 0]]},
                                 (0.5, 0.5), labels=("calm", "storm"))
        d = model.exact_future_distribution(Event("clamp"), Horizon(0, 1))
        assert d.outcomes == ("calm", "storm")
        idx = model.sample_future_outcomes(Event("clamp"), Horizon(0, 1), 200,
                                           np.random.default_rng(1))
        got = {model.labels[i] for i in idx}
        assert got == {"calm", "storm"}  # 0.9 / 0.1 after the clamp
