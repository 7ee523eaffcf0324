"""The entropic potential Z of a discrete event, in both formulations.

Z measures how much an event occurring now changes the expected Shannon
entropy of the system state at a future horizon:

  pre/post form        Z = H(X_T | event applied at t0) - H(X_T | nothing at t0)
  counterfactual form  Z = H(X_T | A) - E_baseline[H(X_T | alternative)]

Negative Z means the event concentrates the future (beneficial), positive Z
means it spreads it (harmful). Values are always in bits. Models plug in via
the SystemModel contract; exact evaluation asks for the full predictive
distribution, Monte Carlo draws outcomes and applies the plug-in estimator
with a bootstrap standard error.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .entropy_core import Distribution, EntropyBits, _entropy_of_probs, shannon_entropy
from .errors import (
    EmptyBaselineError,
    EventInBaselineError,
    EventNotAdmissibleError,
    InvalidDistributionError,
    SamplingUnsupportedError,
    UnsupportedBackendError,
)

DEFAULT_NEUTRAL_TOL = 0.01  # bits

# size caps: an MC branch holds n_samples * (1 + k) uniforms in memory
MAX_SAMPLES = 10**6
MAX_BOOTSTRAP = 10**4

BENEFICIAL = "beneficial"
HARMFUL = "harmful"
NEUTRAL = "neutral"
UNCERTAIN = "uncertain"


@dataclass(frozen=True)
class Event:
    """A discrete occurrence (action, observation, intervention) at t0."""

    id: str
    description: str = ""


@dataclass(frozen=True)
class Horizon:
    """Evaluation window: the event is considered at t0, entropy is read at t."""

    t0: int
    t: int

    def __post_init__(self) -> None:
        if self.t <= self.t0:
            raise ValueError(f"horizon needs t > t0, got t0={self.t0}, t={self.t}")

    @property
    def steps(self) -> int:
        return self.t - self.t0


@dataclass(frozen=True)
class Baseline:
    """What "the event did not occur" means: nothing at all, or alternatives."""

    kind: str  # "null-event" | "uniform-alternatives" | "weighted-alternatives"
    alternatives: tuple = ()
    weights: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if self.kind == "null-event":
            if self.alternatives:
                raise EmptyBaselineError("null-event baseline takes no alternatives")
        elif self.kind == "uniform-alternatives":
            if not self.alternatives:
                raise EmptyBaselineError("uniform baseline needs >= 1 alternative")
        elif self.kind == "weighted-alternatives":
            if not self.alternatives:
                raise EmptyBaselineError("weighted baseline needs >= 1 alternative")
            # weights must form a valid distribution over the alternatives
            Distribution([e.id for e in self.alternatives], self.weights)
        else:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        ids = [e.id for e in self.alternatives]
        if len(set(ids)) != len(ids):
            raise EmptyBaselineError("duplicate alternative event ids")

    @classmethod
    def null(cls) -> "Baseline":
        return cls("null-event")

    @classmethod
    def uniform(cls, alternatives: Iterable[Event]) -> "Baseline":
        return cls("uniform-alternatives", tuple(alternatives))

    @classmethod
    def weighted(cls, alternatives: Iterable[Event], weights: Iterable[float]) -> "Baseline":
        return cls("weighted-alternatives", tuple(alternatives), tuple(weights))

    def normalized_weights(self) -> tuple:
        if self.kind == "uniform-alternatives":
            m = len(self.alternatives)
            return tuple(1.0 / m for _ in range(m))
        return self.weights

    def summary(self) -> str:
        if self.kind == "null-event":
            return "null-event"
        ids = ",".join(e.id for e in self.alternatives)
        if self.kind == "uniform-alternatives":
            return f"uniform{{{ids}}}"
        ws = ",".join(f"{w:g}" for w in self.weights)
        return f"weighted{{{ids}|{ws}}}"


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimation back-end selection, serialized as-is in CLI configs."""

    backend: str = "exact"  # "exact" | "mc"
    n_samples: int = 10_000
    seed: int = 0
    bootstrap_resamples: int = 200

    def __post_init__(self) -> None:
        if self.backend not in ("exact", "mc"):
            raise ValueError(f"backend must be 'exact' or 'mc', got {self.backend!r}")
        if not 100 <= self.n_samples <= MAX_SAMPLES:
            raise ValueError(f"n_samples must be in 100..{MAX_SAMPLES}, got {self.n_samples}")
        if not 2 <= self.bootstrap_resamples <= MAX_BOOTSTRAP:
            raise ValueError(f"bootstrap_resamples must be in 2..{MAX_BOOTSTRAP}, "
                             f"got {self.bootstrap_resamples}")


@dataclass(frozen=True)
class ZEstimate:
    """An entropic-potential value in bits plus estimator metadata."""

    value: float
    std_error: float
    method: str  # "exact" | "monte-carlo"
    n_samples: int
    horizon: Horizon
    event: str
    baseline: str

    def __post_init__(self) -> None:
        if self.method == "exact" and (self.std_error != 0.0 or self.n_samples != 0):
            raise ValueError("exact estimates carry no sampling error")


@dataclass(frozen=True)
class EventClass:
    label: str  # "beneficial" | "harmful" | "neutral" | "uncertain"


class SystemModel(ABC):
    """Contract for anything that can produce the law of X_T given an event.

    Implementors override exact_future_distribution and/or
    sample_future_outcomes; the base class reports the missing back-end as
    unsupported. `event` is an Event or None (None = nothing happens at t0,
    the model just runs its default dynamics).
    """

    @abstractmethod
    def event_space(self) -> list[Event]:
        """Admissible events at t0."""

    def exact_future_distribution(self, event: Event | None, horizon: Horizon) -> Distribution:
        raise UnsupportedBackendError(f"{type(self).__name__} cannot enumerate exactly")

    def sample_future_outcomes(self, event: Event | None, horizon: Horizon,
                               n: int, rng: np.random.Generator) -> np.ndarray:
        """n sampled outcomes of X_T as non-negative integer indices into
        the outcome order of exact_future_distribution."""
        raise SamplingUnsupportedError(f"{type(self).__name__} cannot sample outcomes")


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _branch_seed(base_seed: int, key: tuple) -> np.random.SeedSequence:
    # Index-keyed child streams: independent and order-insensitive, so
    # parallel evaluation across events stays reproducible.
    return np.random.SeedSequence(entropy=base_seed, spawn_key=key)


def mc_entropy_of_branch(model: SystemModel, event: Event | None, horizon: Horizon,
                         n: int, seed, bootstrap_resamples: int = 200) -> tuple[EntropyBits, float]:
    """Plug-in entropy of n sampled outcomes of X_T plus a bootstrap SE.

    The sampled outcome indices are counted with np.bincount, zero counts
    dropped. The standard error is the sample std of the plug-in entropy
    over multinomial resamples of the observed count vector.
    """
    if n < 100:
        raise ValueError(f"Monte Carlo branch needs n >= 100, got {n}")
    if bootstrap_resamples < 2:
        raise ValueError(f"bootstrap SE needs >= 2 resamples, got {bootstrap_resamples}")
    rng = _as_rng(seed)
    outcomes = np.asarray(model.sample_future_outcomes(event, horizon, n, rng))
    if outcomes.shape != (n,) or outcomes.dtype.kind not in "iu" or outcomes.min() < 0:
        raise InvalidDistributionError(
            f"sample_future_outcomes must return {n} non-negative integer outcome "
            f"indices; got shape {outcomes.shape}, dtype {outcomes.dtype}")
    counts = np.bincount(outcomes.astype(np.int64, copy=False)).astype(np.float64)
    counts = counts[counts > 0.0]
    h = _entropy_of_probs(counts / n)
    bs = rng.multinomial(n, counts / n, size=bootstrap_resamples).astype(np.float64)
    hs = _plugin_bits_rows(bs, n)
    se = float(hs.std(ddof=1))
    return EntropyBits(h), se


def _plugin_bits_rows(counts: np.ndarray, total: int) -> np.ndarray:
    p = counts / total
    logs = np.zeros_like(p)
    np.log2(p, out=logs, where=p > 0.0)
    return -(p * logs).sum(axis=1)


def _check_admissible(model: SystemModel, event: Event) -> None:
    ids = {e.id for e in model.event_space()}
    if event.id not in ids:
        raise EventNotAdmissibleError(f"event {event.id!r} not in model event space")


def _branch_entropy(model, event, horizon, estimator, key):
    """(entropy, se) of one conditional branch under the configured back-end."""
    if estimator.backend == "exact":
        d = model.exact_future_distribution(event, horizon)
        return float(shannon_entropy(d)), 0.0
    h, se = mc_entropy_of_branch(
        model, event, horizon, estimator.n_samples,
        _branch_seed(estimator.seed, key), estimator.bootstrap_resamples,
    )
    return float(h), se


def _z_vs_null(model, event, horizon, estimator, seed_prefix=()):
    h_event, se_event = _branch_entropy(model, event, horizon, estimator, seed_prefix + (0,))
    h_null, se_null = _branch_entropy(model, None, horizon, estimator, seed_prefix + (1,))
    value = h_event - h_null
    se = math.hypot(se_event, se_null)
    return value, se


def _z_vs_alternatives(branch, alternatives) -> tuple[float, float]:
    """(Z, se) of one branch's (entropy, se) against the baseline average of
    the alternatives' branches, given as (weight, entropy, se) in baseline
    order."""
    h_event, se_event = branch
    h_base = 0.0
    var_base = 0.0
    for w, h_i, se_i in alternatives:
        h_base += w * h_i
        var_base += (w * se_i) ** 2
    return h_event - h_base, math.sqrt(se_event ** 2 + var_base)


def _estimate(value: float, se: float, horizon: Horizon, event: Event,
              baseline: str, estimator: EstimatorConfig) -> ZEstimate:
    exact = estimator.backend == "exact"
    return ZEstimate(
        value=value,
        std_error=0.0 if exact else se,
        method="exact" if exact else "monte-carlo",
        n_samples=0 if exact else estimator.n_samples,
        horizon=horizon,
        event=event.id,
        baseline=baseline,
    )


def z_pre_post(model: SystemModel, event: Event, horizon: Horizon,
               estimator: EstimatorConfig = EstimatorConfig(),
               _seed_prefix: tuple = ()) -> ZEstimate:
    """Pre/post form: entropy at T after applying the event at t0, minus
    entropy at T when nothing is applied and the model runs its default
    dynamics."""
    _check_admissible(model, event)
    value, se = _z_vs_null(model, event, horizon, estimator, _seed_prefix)
    return _estimate(value, se, horizon, event, "null-event", estimator)


def z_counterfactual(model: SystemModel, event: Event, baseline: Baseline,
                     horizon: Horizon, estimator: EstimatorConfig = EstimatorConfig(),
                     _seed_prefix: tuple = ()) -> ZEstimate:
    """Counterfactual form: H(X_T | A) minus the baseline-weighted average of
    the per-alternative conditional entropies. A null-event baseline reduces
    to the pre/post form."""
    _check_admissible(model, event)
    if baseline.kind == "null-event":
        value, se = _z_vs_null(model, event, horizon, estimator, _seed_prefix)
    else:
        alt_ids = {a.id for a in baseline.alternatives}
        if event.id in alt_ids:
            raise EventInBaselineError(f"event {event.id!r} is among its own alternatives")
        for alt in baseline.alternatives:
            _check_admissible(model, alt)
        branch = _branch_entropy(model, event, horizon, estimator, _seed_prefix + (0,))
        alternatives = [
            (w, *_branch_entropy(model, alt, horizon, estimator, _seed_prefix + (i + 1,)))
            for i, (alt, w) in enumerate(zip(baseline.alternatives,
                                             baseline.normalized_weights()))
        ]
        value, se = _z_vs_alternatives(branch, alternatives)
    return _estimate(value, se, horizon, event, baseline.summary(), estimator)


def classify_event(z: ZEstimate, tol: float = DEFAULT_NEUTRAL_TOL) -> EventClass:
    """Sign convention: entropy reduction is beneficial, increase is harmful.

    A sign label needs |Z| > tol + 2 * std_error. Otherwise the event is
    neutral when |Z| <= tol and uncertain when the standard error cannot
    tell it from neutral. Exact estimates have std_error 0.
    """
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    if abs(z.value) > tol + 2.0 * z.std_error:
        return EventClass(BENEFICIAL if z.value < 0 else HARMFUL)
    if abs(z.value) <= tol:
        return EventClass(NEUTRAL)
    return EventClass(UNCERTAIN)


def _ranked(scored: list) -> list[tuple[Event, ZEstimate]]:
    """Most-beneficial (lowest Z) first, ties broken on event id."""
    return sorted(scored, key=lambda t: (t[1].value, t[0].id))


def _check_vs_rest(events: Sequence[Event]) -> None:
    if not events:
        raise ValueError("rank_events needs at least one event")
    if len({e.id for e in events}) < 2:
        raise EmptyBaselineError("vs-rest baseline needs >= 2 events")


def rank_vs_rest(events: Sequence[Event], branches: Sequence[tuple],
                 horizon: Horizon, estimator: EstimatorConfig,
                 ) -> list[tuple[Event, ZEstimate]]:
    """Score each event against a uniform baseline over the others and sort
    most-beneficial (lowest Z) first, ties broken on event id.

    `branches[i]` is the (entropy, se) of event i's branch, evaluated once
    and shared by every Z that needs it.
    """
    _check_vs_rest(events)
    scored = []
    for i, ev in enumerate(events):
        others = [j for j, e in enumerate(events) if e.id != ev.id]
        baseline = Baseline.uniform(events[j] for j in others)
        value, se = _z_vs_alternatives(branches[i], [
            (w, *branches[j]) for w, j in zip(baseline.normalized_weights(), others)])
        scored.append((ev, _estimate(value, se, horizon, ev, baseline.summary(), estimator)))
    return _ranked(scored)


def rank_events(model: SystemModel, events: Sequence[Event], baseline,
                horizon: Horizon, estimator: EstimatorConfig = EstimatorConfig(),
                ) -> list[tuple[Event, ZEstimate]]:
    """Score candidate events and sort most-beneficial (lowest Z) first.

    `baseline` is either the string "vs-rest" (each event against a uniform
    baseline over the other candidates) or a fixed Baseline applied to every
    event. Ties break lexicographically on event id. With "vs-rest" each
    event's branch is evaluated once and shared by every Z that needs it.
    Each event gets its own derived seed stream, keyed by its index, so Monte
    Carlo rankings are reproducible even if events are evaluated in parallel.
    """
    events = list(events)
    if baseline == "vs-rest":
        _check_vs_rest(events)
        for ev in events:
            _check_admissible(model, ev)
        branches = [_branch_entropy(model, ev, horizon, estimator, (i,))
                    for i, ev in enumerate(events)]
        return rank_vs_rest(events, branches, horizon, estimator)
    if not events:
        raise ValueError("rank_events needs at least one event")
    return _ranked([(ev, z_counterfactual(model, ev, baseline, horizon, estimator,
                                          _seed_prefix=(i,)))
                    for i, ev in enumerate(events)])
