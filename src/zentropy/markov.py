"""Finite Markov chains as SystemModels, with exact push-forward enumeration.

Events are instantaneous kernels applied to the state at t0 (clamp,
randomize, permute, ...); afterwards the chain runs its base dynamics for
horizon.steps steps. The exact path is plain matrix-vector propagation and
doubles as the brute-force oracle for the Monte Carlo path.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._kernels import _search_table, cumulative
from .entropic_potential import Event, Horizon, SystemModel, Walk
from .entropy_core import Distribution, normalized_probs
from .errors import InvalidDistributionError


def _validate_stochastic(m: np.ndarray, what: str) -> np.ndarray:
    """m as a square float64 matrix whose rows are probability vectors."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDistributionError(f"{what} must be a square matrix")
    try:
        return normalized_probs(m)
    except InvalidDistributionError as e:
        raise InvalidDistributionError(f"{what} rows: {e}") from e


class MarkovChainModel(SystemModel):
    """States 0..S-1 (or custom labels), base dynamics P, event kernels E_a."""

    def __init__(self, transition, event_kernels: dict, start, labels=None):
        self.transition = _validate_stochastic(transition, "transition matrix")
        s = self.transition.shape[0]
        self.event_kernels = {
            key: _validate_stochastic(k, f"event kernel {key!r}")
            for key, k in event_kernels.items()
        }
        for key, k in self.event_kernels.items():
            if k.shape[0] != s:
                raise InvalidDistributionError(f"event kernel {key!r} has wrong size")
        self.labels = tuple(labels) if labels is not None else tuple(range(s))
        self.start = Distribution(self.labels, start)
        # sampling tables over the dense rows: every state is a successor
        self._succ = np.broadcast_to(np.arange(s), (s, s))
        self._cum_start = cumulative(self.start.probs)
        self._base_table = (self._succ, cumulative(self.transition))

    @cached_property
    def _tables(self) -> dict:
        """The search tables of the base dynamics, keyed None, and of each
        event kernel, keyed by event id, built on the first walk, once each,
        as the SearchTables every Walk of the model takes."""
        tables = {key: (self._succ, cumulative(k)) for key, k in self.event_kernels.items()}
        tables[None] = self._base_table
        return {key: _search_table(*table) for key, table in tables.items()}

    def event_space(self) -> list[Event]:
        return [Event(key) for key in sorted(self.event_kernels)]

    def exact_future_distribution(self, event, horizon: Horizon) -> Distribution:
        d = self.start.probs.copy()
        if event is not None:
            d = d @ self.event_kernels[event.id]
        for _ in range(horizon.steps):
            d = d @ self.transition
        return Distribution(self.labels, d)

    def walk(self, event, horizon: Horizon) -> Walk:
        """The event kernel (if any), then horizon.steps steps of the base
        dynamics, the last of them taken from the transition matrix; states
        are their own outcome indices (labels are self.labels[i])."""
        first = self._tables[None if event is None else event.id]
        n_first = 0 if event is None else 1
        return Walk(self._cum_start, first, n_first, self._tables[None], horizon.steps - 1,
                    (self._succ, self.transition))


def two_state_flip_chain(flip: float = 0.1, start=(0.5, 0.5)) -> MarkovChainModel:
    """The hand-checkable two-state symmetric chain.

    Events: clamp0 forces state 0, randomize replaces the state with a fair
    coin. From a uniform start, clamp0 at horizon 1 yields Z = h(flip) - 1.
    """
    p = [[1.0 - flip, flip], [flip, 1.0 - flip]]
    kernels = {
        "clamp0": [[1.0, 0.0], [1.0, 0.0]],
        "randomize": [[0.5, 0.5], [0.5, 0.5]],
    }
    return MarkovChainModel(p, kernels, start)


def random_chain_model(n_states: int, n_events: int, rng: np.random.Generator,
                       deterministic: bool = False) -> MarkovChainModel:
    """Random test model; deterministic=True makes every transition a point mass."""
    if deterministic:
        def kernel():
            m = np.zeros((n_states, n_states))
            m[np.arange(n_states), rng.integers(0, n_states, n_states)] = 1.0
            return m
        start = np.zeros(n_states)
        start[rng.integers(0, n_states)] = 1.0
    else:
        def kernel():
            m = rng.random((n_states, n_states)) + 1e-3
            return m / m.sum(axis=1, keepdims=True)
        start = rng.random(n_states) + 1e-3
        start /= start.sum()
    transition = kernel()
    kernels = {f"e{i}": kernel() for i in range(n_events)}
    return MarkovChainModel(transition, kernels, start)
