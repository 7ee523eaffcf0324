"""The entropic potential Z of a discrete event, in both formulations.

Z measures how much an event occurring now changes the expected Shannon
entropy of the system state at a future horizon:

  pre/post form        Z = H(X_T | event applied at t0) - H(X_T | nothing at t0)
  counterfactual form  Z = H(X_T | A) - E_baseline[H(X_T | alternative)]

Negative Z means the event concentrates the future (beneficial), positive Z
means it spreads it (harmful). Values are always in bits. Models plug in via
the SystemModel contract; exact evaluation asks for the full predictive
distribution. Monte Carlo evaluation walks a model's described walk up to
the step before T and takes the last step exactly (a Rao-Blackwell step):
the entropy of the mixed last-step law, with a delta-method standard error.
A model that can only sample gives its outcomes, and the same estimator
with a point-mass last step is the plug-in entropy of their counts.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from ._kernels import cumulative, walk_outcomes
from .entropy_core import Distribution, EntropyBits, shannon_entropy
from .errors import (
    EmptyBaselineError,
    EventInBaselineError,
    EventNotAdmissibleError,
    InvalidDistributionError,
    SamplingUnsupportedError,
    UnsupportedBackendError,
)

DEFAULT_NEUTRAL_TOL = 0.01  # bits

# size caps: an MC branch of k steps holds n_samples * k uniforms in memory
MAX_SAMPLES = 10**6
MAX_UNIFORMS = 15 * MAX_SAMPLES  # 120 MB of float64: MAX_SAMPLES walks of 15 steps

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
            # weights must form a valid distribution over the alternatives;
            # keep its probabilities, renormalised if the sum was off within tolerance
            d = Distribution([e.id for e in self.alternatives], self.weights)
            object.__setattr__(self, "weights", tuple(d.probs.tolist()))
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

    def __post_init__(self) -> None:
        if self.backend not in ("exact", "mc"):
            raise ValueError(f"backend must be 'exact' or 'mc', got {self.backend!r}")
        if not 100 <= self.n_samples <= MAX_SAMPLES:
            raise ValueError(f"n_samples must be in 100..{MAX_SAMPLES}, got {self.n_samples}")


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


@dataclass(frozen=True)
class Walk:
    """A model's branch as a categorical walk of k steps to X_T.

    A start state is drawn from cum_start, the (S,) cumulative start law;
    then come n_first steps of the first table and n_rest steps of the rest
    table, (succ, cum) sampling tables as _kernels.walk_outcomes takes them,
    so k = n_first + n_rest + 1; then the last step. Its table last is an
    (outcomes, probs) pair of shape (S, K): row s lists the outcome indices
    (in the outcome order of exact_future_distribution) that the last step
    reaches from state s, and their probabilities.
    """

    cum_start: np.ndarray
    first: tuple
    n_first: int
    rest: tuple
    n_rest: int
    last: tuple

    @property
    def steps(self) -> int:
        return self.n_first + self.n_rest + 1

    def states(self, u: np.ndarray, starts=None) -> np.ndarray:
        """States before the last step, from the (n, k) uniforms u: column 0
        draws the start and each later column one step (see walk_outcomes,
        which also says what starts does)."""
        return walk_outcomes(self.cum_start, self.first, self.n_first, self.rest,
                             self.n_rest, u, starts)


class SystemModel(ABC):
    """Contract for anything that can produce the law of X_T given an event.

    Implementors override exact_future_distribution and either walk or
    sample_future_outcomes; the base class reports a missing back-end as
    unsupported. `event` is an Event or None (None = nothing happens at t0,
    the model just runs its default dynamics).
    """

    @abstractmethod
    def event_space(self) -> list[Event]:
        """Admissible events at t0."""

    def exact_future_distribution(self, event: Event | None, horizon: Horizon) -> Distribution:
        raise UnsupportedBackendError(f"{type(self).__name__} cannot enumerate exactly")

    def walk(self, event: Event | None, horizon: Horizon) -> Walk | None:
        """The branch as a Walk, or None if the model can only sample."""
        return None

    def sample_future_outcomes(self, event: Event | None, horizon: Horizon,
                               n: int, rng: np.random.Generator) -> np.ndarray:
        """n sampled outcomes of X_T as non-negative integer indices into
        the outcome order of exact_future_distribution.

        From the model's walk: one (n, k + 1) block of uniforms, column 0 the
        start draw and column i the i-th step, the last one included.
        """
        walk = self.walk(event, horizon)
        if walk is None:
            raise SamplingUnsupportedError(f"{type(self).__name__} cannot sample outcomes")
        u = rng.random((n, walk.steps + 1))
        s = walk.states(u[:, :-1])
        outcomes, probs = walk.last
        # the count of row entries <= u, as walk_outcomes finds the column
        j = np.count_nonzero(cumulative(probs)[s] <= u[:, -1:], axis=1)
        return outcomes[s, j]


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _branch_seed(base_seed: int, key: tuple) -> np.random.SeedSequence:
    # Index-keyed child streams: independent and order-insensitive, so
    # parallel evaluation across events stays reproducible.
    return np.random.SeedSequence(entropy=base_seed, spawn_key=key)


def _check_uniforms(n: int, k: int) -> None:
    """Rejects an MC branch of n walks of k steps over the MAX_UNIFORMS cap."""
    if n * k > MAX_UNIFORMS:
        raise ValueError(f"n_samples * horizon_k must be <= {MAX_UNIFORMS}, "
                         f"got {n} * {k}")


def mc_entropy_of_branch(model: SystemModel, event: Event | None, horizon: Horizon,
                         n: int, seed) -> tuple[EntropyBits, float]:
    """Monte Carlo entropy of X_T in bits and its standard error, from n
    draws (see _branch_bits_and_se).

    A model with a walk walks its first k - 1 steps from one (n, k) block of
    uniforms and takes the last step exactly. A model that can only sample
    gives n outcomes, whose last step is then a point mass: the estimate is
    the plug-in entropy of their counts.
    """
    if n < 100:
        raise ValueError(f"Monte Carlo branch needs n >= 100, got {n}")
    _check_uniforms(n, horizon.steps)
    rng = _as_rng(seed)
    walk = model.walk(event, horizon)
    if walk is not None:
        states, last = walk.states(rng.random((n, walk.steps))), walk.last
    else:
        states = np.asarray(model.sample_future_outcomes(event, horizon, n, rng))
        if states.shape != (n,) or states.dtype.kind not in "iu" or states.min() < 0:
            raise InvalidDistributionError(
                f"sample_future_outcomes must return {n} non-negative integer outcome "
                f"indices; got shape {states.shape}, dtype {states.dtype}")
        states = states.astype(np.int64, copy=False)
        size = int(states.max()) + 1
        last = (np.arange(size)[:, None], np.ones((size, 1)))
    h, se = _branch_bits_and_se(states[None], last)
    return EntropyBits(float(h[0])), float(se[0])


def _branch_bits_and_se(states: np.ndarray, last: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Entropy (bits) of X_T and its delta-method standard error for each
    row of states, a (c, n) integer array of the states before the last
    step, whose (outcomes, probs) table is last (see Walk).

    With w_s = q_s / n, q the counts of a row's states, the row's law of X_T
    is p = sum_s w_s probs[s] over the outcomes, and its entropy H(p) is the
    estimate. g_s = -sum_j probs[s, j] log2 p[outcomes[s, j]] is the
    expected surprisal after state s, so H(p) = sum_s w_s g_s, and the
    standard error is sqrt(sum_s w_s (g_s - G)^2 / n), centred on
    G = sum_s w_s g_s, which is H(p) up to rounding. When every walk ends
    in one state, g_s == G and the error is exactly 0.0.

    Every per-row total is a bincount over the row's terms in order, so a
    row gives the same bits whatever other rows are in the batch.
    """
    outcomes, probs = last
    c, n = states.shape
    n_states, width = probs.shape
    n_out = int(outcomes.max()) + 1
    counts = np.bincount((states + n_states * np.arange(c)[:, None]).ravel(),
                         minlength=c * n_states)
    occupied = np.flatnonzero(counts)  # (row, state) pairs, row-major
    row, s = np.divmod(occupied, n_states)
    w = counts[occupied] / n
    mass = w[:, None] * probs[s]
    dest = outcomes[s] + (n_out * row)[:, None]
    p = np.bincount(dest.ravel(), weights=mass.ravel(), minlength=c * n_out)
    logs = np.zeros_like(p)
    np.log2(p, out=logs, where=p > 0.0)
    nz = np.flatnonzero(p)
    h = np.bincount(nz // n_out, weights=-(p[nz] * logs[nz]), minlength=c)
    g = np.bincount(np.repeat(np.arange(len(s)), width),
                    weights=-(probs[s] * logs[dest]).ravel(), minlength=len(s))
    mean = np.bincount(row, weights=w * g, minlength=c)
    var = np.bincount(row, weights=w * (g - mean[row]) ** 2, minlength=c)
    return h, np.sqrt(var / n)


def _check_admissible(model: SystemModel, events: Sequence[Event], baseline) -> None:
    """Every event and fixed-baseline alternative is in the model's event
    space, and no event is among its own alternatives."""
    ids = {e.id for e in model.event_space()}
    alternatives = () if baseline == "vs-rest" else baseline.alternatives
    for ev in (*events, *alternatives):
        if ev.id not in ids:
            raise EventNotAdmissibleError(f"event {ev.id!r} not in model event space")
    alt_ids = {a.id for a in alternatives}
    for ev in events:
        if ev.id in alt_ids:
            raise EventInBaselineError(f"event {ev.id!r} is among its own alternatives")


def _branch_entropy(model, horizon, estimator, event, j):
    """(entropy, se) of one conditional branch under the configured back-end;
    an MC branch draws from the child stream keyed (j,)."""
    if estimator.backend == "exact":
        d = model.exact_future_distribution(event, horizon)
        return float(shannon_entropy(d)), 0.0
    h, se = mc_entropy_of_branch(model, event, horizon, estimator.n_samples,
                                 _branch_seed(estimator.seed, (j,)))
    return float(h), se


def _z_values(events: Sequence[Event], baseline, entropy) -> list[tuple[float, float]]:
    """(Z, se) of each event against `baseline`: "vs-rest" (uniform over the
    other events) or one Baseline for all, a null baseline being the single
    alternative None with weight 1.0.

    Each distinct branch is evaluated once, after the events are checked, as
    entropy(branch, j) with j its position in the events followed by the
    baseline's alternatives (never among the events, see _check_admissible)
    or None. Z is the event's entropy minus its alternatives' weighted
    entropies summed in baseline order; se is the root of the event's se
    squared plus each (weight * se) squared.
    """
    if not events:
        raise ValueError("ranking needs at least one event")
    seen = set()
    for e in events:
        if e.id in seen:
            raise ValueError(f"duplicate event id {e.id!r}")
        seen.add(e.id)
    n = len(events)
    if baseline == "vs-rest":
        if n < 2:
            raise EmptyBaselineError("vs-rest baseline needs >= 2 events")
        alternatives = []
        plans = [[(1.0 / (n - 1), j) for j in range(n) if j != i] for i in range(n)]
    else:
        alternatives = list(baseline.alternatives) or [None]
        weights = baseline.normalized_weights() or (1.0,)
        plans = [list(zip(weights, range(n, n + len(alternatives))))] * n
    values = [entropy(branch, j) for j, branch in enumerate([*events, *alternatives])]
    out = []
    for (h_event, se_event), plan in zip(values, plans):
        h_base = 0.0
        var_base = 0.0
        for w, j in plan:
            h_j, se_j = values[j]
            h_base += w * h_j
            var_base += (w * se_j) ** 2
        out.append((h_event - h_base, math.sqrt(se_event ** 2 + var_base)))
    return out


def _ranked(events: Sequence[Event], zs, baseline, horizon: Horizon,
            estimator: EstimatorConfig) -> list[tuple[Event, ZEstimate]]:
    """(event, ZEstimate) of each event's (Z, se) in zs, most beneficial
    (lowest Z) first, ties broken on event id."""
    exact = estimator.backend == "exact"
    if baseline == "vs-rest":
        labels = [Baseline.uniform(e for e in events if e.id != ev.id).summary()
                  for ev in events]
    else:
        labels = [baseline.summary()] * len(events)
    scored = [(ev, ZEstimate(value=value,
                             std_error=0.0 if exact else se,
                             method="exact" if exact else "monte-carlo",
                             n_samples=0 if exact else estimator.n_samples,
                             horizon=horizon,
                             event=ev.id,
                             baseline=label))
              for ev, (value, se), label in zip(events, zs, labels)]
    return sorted(scored, key=lambda t: (t[1].value, t[0].id))


def z_pre_post(model: SystemModel, event: Event, horizon: Horizon,
               estimator: EstimatorConfig = EstimatorConfig()) -> ZEstimate:
    """Pre/post form: entropy at T after applying the event at t0, minus
    entropy at T when nothing is applied and the model runs its default
    dynamics."""
    return z_counterfactual(model, event, Baseline.null(), horizon, estimator)


def z_counterfactual(model: SystemModel, event: Event, baseline: Baseline,
                     horizon: Horizon, estimator: EstimatorConfig = EstimatorConfig(),
                     ) -> ZEstimate:
    """Counterfactual form: H(X_T | A) minus the baseline-weighted average of
    the per-alternative conditional entropies. A null-event baseline reduces
    to the pre/post form."""
    _check_admissible(model, [event], baseline)
    zs = _z_values([event], baseline, partial(_branch_entropy, model, horizon, estimator))
    return _ranked([event], zs, baseline, horizon, estimator)[0][1]


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


def rank_events(model: SystemModel, events: Sequence[Event], baseline,
                horizon: Horizon, estimator: EstimatorConfig = EstimatorConfig(),
                ) -> list[tuple[Event, ZEstimate]]:
    """Score candidate events and sort most-beneficial (lowest Z) first.

    `baseline` is either the string "vs-rest" (each event against a uniform
    baseline over the other candidates) or a fixed Baseline applied to every
    event. Ties break lexicographically on event id, and duplicate ids are
    rejected. Each distinct branch (the events, the baseline alternatives,
    the null event) is evaluated once and shared by every Z that needs it;
    on the Monte Carlo back-end it is seeded by its position in that list,
    so rankings are reproducible whatever order branches are evaluated in.
    """
    events = list(events)
    _check_admissible(model, events, baseline)
    zs = _z_values(events, baseline, partial(_branch_entropy, model, horizon, estimator))
    return _ranked(events, zs, baseline, horizon, estimator)
