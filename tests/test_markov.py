import numpy as np
import pytest

from zentropy import _kernels, entropic_potential, markov
from zentropy._kernels import cumulative
from zentropy.entropic_potential import (Baseline, EstimatorConfig, Event, Horizon, Walk,
                                         rank_events)
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


class PairWalks(MarkovChainModel):
    """Walks that take the chain's tables as (succ, cum) pairs, so each Walk
    builds the search tables it reads."""

    def walk(self, event, horizon):
        base = (self._succ, cumulative(self.transition))
        first = base if event is None else (self._succ, cumulative(self.event_kernels[event.id]))
        return Walk(self._cum_start, first, 0 if event is None else 1, base,
                    horizon.steps - 1, (self._succ, self.transition))


class TestSearchTables:
    def test_built_once_per_model(self, monkeypatch):
        # the base table and one table per event kernel, built on the first
        # walk and passed built to every Walk: a 4-event vs-rest ranking
        # builds 5 tables (8 if each Walk built its own), later rankings
        # build none, and every ranking keeps its bits
        base = random_chain_model(7, 4, np.random.default_rng(5))
        model = MarkovChainModel(base.transition, base.event_kernels, base.start.probs)
        pairs = PairWalks(base.transition, base.event_kernels, base.start.probs)
        est = EstimatorConfig(backend="mc", n_samples=10_000, seed=3)
        built = []

        def spy(succ, cum, real=_kernels._search_table):
            built.append(len(cum))
            return real(succ, cum)

        def bits(ranked):
            return [(ev.id, np.float64(z.value).tobytes(), np.float64(z.std_error).tobytes())
                    for ev, z in ranked]

        want = [bits(rank_events(pairs, pairs.event_space(), baseline, Horizon(0, 5), est))
                for baseline in ("vs-rest", Baseline.null())]
        for module in (_kernels, entropic_potential, markov):
            monkeypatch.setattr(module, "_search_table", spy)
        for _ in range(2):
            got = [bits(rank_events(model, model.event_space(), baseline, Horizon(0, 5), est))
                   for baseline in ("vs-rest", Baseline.null())]
            assert got == want
        assert built == [7] * 5
