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

All Monte Carlo branches of one call walk from the same uniforms (common
random numbers), and Z's standard error is the paired delta-method one,
taken walk by walk over the difference of the branches' surprisals.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._kernels import (WALK_CHUNK_BYTES, Draw, SearchTable, _search_table, cumulative,
                       draw_rows, walk_outcomes)
from .entropy_core import Distribution, EntropyBits, _entropy_of_probs
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
    table, so k = n_first + n_rest + 1; then the last step. Its table last
    is an (outcomes, probs) pair of shape (S, K): row s lists the outcome
    indices (in the outcome order of exact_future_distribution) that the
    last step reaches from state s, and their probabilities.

    first and rest are (succ, cum) sampling tables or their SearchTables.
    When made, the Walk builds each pair a step reads (_search_table) and
    keeps a SearchTable as it is, so walk_outcomes gets search tables only.
    """

    cum_start: np.ndarray
    first: tuple
    n_first: int
    rest: tuple
    n_rest: int
    last: tuple

    def __post_init__(self) -> None:
        for name, used in (("first", self.n_first), ("rest", self.n_rest)):
            table = getattr(self, name)
            if used and not isinstance(table, SearchTable):
                object.__setattr__(self, name, _search_table(*table))

    @property
    def steps(self) -> int:
        return self.n_first + self.n_rest + 1

    def states(self, u: np.ndarray) -> np.ndarray:
        """States before the last step, from the (n, k) uniforms u: column 0
        draws the start and each later column one step (see walk_outcomes)."""
        return walk_outcomes(self.cum_start, self.first, self.n_first, self.rest,
                             self.n_rest, u)


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

    def exact_future_probs(self, event: Event | None, horizon: Horizon) -> np.ndarray:
        """exact_future_distribution's .probs, as the exact back-end reads them."""
        return self.exact_future_distribution(event, horizon).probs

    def walk(self, event: Event | None, horizon: Horizon) -> Walk | None:
        """The branch as a Walk, or None if the model can only sample."""
        return None

    def sample_future_outcomes(self, event: Event | None, horizon: Horizon,
                               n: int, rng: np.random.Generator) -> np.ndarray:
        """n sampled outcomes of X_T as non-negative integer indices into
        the outcome order of exact_future_distribution.

        From the model's walk: one (n, k + 1) block of uniforms, column 0 the
        start draw and column i the i-th step, the last one included. A
        block over MAX_UNIFORMS is refused before it is drawn.
        """
        walk = self.walk(event, horizon)
        if walk is None:
            raise SamplingUnsupportedError(f"{type(self).__name__} cannot sample outcomes")
        if n * (walk.steps + 1) > MAX_UNIFORMS:
            raise ValueError(f"n * (horizon steps + 1) must be <= {MAX_UNIFORMS}, "
                             f"got {n} * {walk.steps + 1}")
        u = rng.random((n, walk.steps + 1))
        s = walk.states(u[:, :-1])
        outcomes, probs = walk.last
        # the count of row entries <= u: the column each walk_outcomes step
        # picks, there by a bucketed search
        j = np.count_nonzero(cumulative(probs)[s] <= u[:, -1:], axis=1)
        return outcomes[s, j]


def _branch_seed(base_seed: int, key: tuple) -> np.random.SeedSequence:
    # The child stream keyed `key`: independent of every other key, and the
    # same whatever else was drawn from base_seed.
    return np.random.SeedSequence(entropy=base_seed, spawn_key=key)


def _check_uniforms(n: int, k: int, width: int) -> None:
    """Rejects n Monte Carlo walks at horizon k over the MAX_UNIFORMS cap.
    Each walk reads `width` uniforms: k, or k + 1 if a Markov event
    branch is among them, one for its event step."""
    if n * width > MAX_UNIFORMS:
        raise ValueError(f"n_samples * horizon_k (+ 1 for a Markov event step) must be "
                         f"<= {MAX_UNIFORMS} uniforms, got {n} walks of width {width} "
                         f"at horizon_k {k}")


def _uniform_stream(seed: int) -> np.random.Generator:
    """The generator on the child stream keyed (0,), from which every Monte
    Carlo branch of one call reads its uniforms."""
    return np.random.default_rng(_branch_seed(seed, (0,)))


def _uniform_draw(seed: int, n: int) -> Draw:
    """The uniforms of _uniform_block as a Draw, for a walk that reads each
    of them once: walk_outcomes draws them a chunk at a time as it reads
    them, so no (n, width) block is held."""
    return Draw(_uniform_stream(seed), n)


def _uniform_block(seed: int, n: int, width: int) -> np.ndarray:
    """The (n, width) uniforms that every Monte Carlo branch of one call
    reads, for walks that read them more than once: the values of one
    ``random((n, width))`` draw from _uniform_stream, stored column-major
    so that walk_outcomes reads each column contiguously, in place. They
    are drawn through one reused buffer (draw_rows) of at most
    WALK_CHUNK_BYTES // 16 bytes, so the fill holds little beside the
    block."""
    u = np.empty((n, width), order="F")
    rows = max(1, WALK_CHUNK_BYTES // (16 * 8 * width))
    for a, part in draw_rows(_uniform_stream(seed), n, width, rows):
        u[a:a + len(part)] = part
    return u


def _aligned_columns(u: np.ndarray, walk: Walk) -> np.ndarray:
    """The columns of the block u that walk reads: column 0 draws the start,
    and its steps read the block's last columns. A walk with fewer steps
    than the block is wide (a Markov null branch has no event step) skips
    the columns in between, so its later steps use the uniforms that every
    other branch uses at the same time step."""
    width = u.shape[1]
    if walk.steps == width:
        return u
    return u[:, np.r_[0, width - walk.steps + 1:width]]


def _sampled_states(model: SystemModel, event: Event | None, horizon: Horizon, n: int,
                    rng) -> tuple:
    """(states, last) of a model that can only sample: its n outcomes, and a
    point-mass last step over them."""
    states = np.asarray(model.sample_future_outcomes(event, horizon, n, rng))
    if states.shape != (n,) or states.dtype.kind not in "iu" or states.min() < 0:
        raise InvalidDistributionError(
            f"sample_future_outcomes must return {n} non-negative integer outcome "
            f"indices; got shape {states.shape}, dtype {states.dtype}")
    states = states.astype(np.int64, copy=False)
    size = int(states.max()) + 1
    return states, (np.arange(size)[:, None], np.ones((size, 1)))


def mc_entropy_of_branch(model: SystemModel, event: Event | None, horizon: Horizon,
                         n: int, seed: int) -> tuple[EntropyBits, float]:
    """Monte Carlo entropy of X_T in bits and its standard error, from n
    walks: the one-branch case of _mc_branches, on stream (0,) of seed."""
    h, g = _mc_branches(model, [event], horizon, EstimatorConfig("mc", n, seed))
    return EntropyBits(float(h[0])), float(_walk_se(g)[0])


def _mc_branches(model: SystemModel, branches: Sequence, horizon: Horizon,
                 estimator: EstimatorConfig) -> tuple[np.ndarray, np.ndarray]:
    """(h, g) of each branch (an Event or None), shapes (b,) and (b, n):
    its Monte Carlo entropy and the expected surprisal after each of its
    walks (see _branch_surprisals).

    Common random numbers: every branch with a walk reads its columns of
    one _uniform_block (see _aligned_columns), so walk i of every branch
    draws from the same uniforms, and a branch that can only sample gets
    a generator on that block's stream (0,), restarted for each branch.
    """
    n = estimator.n_samples
    walks = [model.walk(branch, horizon) for branch in branches]
    width = max((walk.steps for walk in walks if walk is not None), default=0)
    _check_uniforms(n, horizon.steps, max(width, horizon.steps))
    u = _uniform_block(estimator.seed, n, width) if width else None
    h, g = np.empty(len(walks)), np.empty((len(walks), n))
    for b, (branch, walk) in enumerate(zip(branches, walks)):
        if walk is None:
            rng = _uniform_stream(estimator.seed)
            states, last = _sampled_states(model, branch, horizon, n, rng)
        else:
            states, last = walk.states(_aligned_columns(u, walk)), walk.last
        h[b:b + 1], g[b:b + 1] = _branch_surprisals(states[None], last)
    return h, g


def _branch_surprisals(states: np.ndarray, last: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Entropy (bits) of X_T for each row of states, a (c, n) integer array
    of the states before the last step, whose (outcomes, probs) table is
    last (see Walk), and the expected surprisal after each walk's state,
    a (c, n) array.

    With w_s = q_s / n, q the counts of a row's states, the row's law of X_T
    is p = sum_s w_s probs[s] over the outcomes, and its entropy H(p) is the
    estimate. g_s = -sum_j probs[s, j] log2 p[outcomes[s, j]] is the
    expected surprisal after state s, so H(p) = sum_s w_s g_s, and the
    delta-method standard error of H(p) is the spread of g over the walks
    (_walk_se). Walks that end in one state get the same g bitwise.

    Every per-row total is a bincount over the row's terms in order, so a
    row gives the same bits whatever other rows are in the batch.
    """
    outcomes, probs = last
    c, n = states.shape
    n_states, width = probs.shape
    n_out = int(outcomes.max()) + 1
    keys = states + n_states * np.arange(c)[:, None]
    counts = np.bincount(keys.ravel(), minlength=c * n_states)
    occupied = np.flatnonzero(counts)  # (row, state) pairs, row-major
    row, s = np.divmod(occupied, n_states)
    mass = (counts[occupied] / n)[:, None] * probs[s]
    dest = outcomes[s] + (n_out * row)[:, None]
    p = np.bincount(dest.ravel(), weights=mass.ravel(), minlength=c * n_out)
    logs = np.zeros_like(p)
    np.log2(p, out=logs, where=p > 0.0)
    nz = np.flatnonzero(p)
    h = np.bincount(nz // n_out, weights=-(p[nz] * logs[nz]), minlength=c)
    g = np.zeros(c * n_states)
    g[occupied] = np.bincount(np.repeat(np.arange(len(s)), width),
                              weights=-(probs[s] * logs[dest]).ravel(), minlength=len(s))
    return h, g[keys]


def _walk_se(psi: np.ndarray) -> np.ndarray:
    """sqrt(sum_i (psi_i - mean)^2) / n along the last axis, of length n.
    The values are first shifted by the first one, so a row whose values
    are all equal gives exactly 0.0. Each row is reduced on its own, so it
    gives the same bits whatever other rows are in the batch."""
    x = psi - psi[..., :1]
    x -= x.mean(axis=-1, keepdims=True)
    x *= x
    return np.sqrt(x.sum(axis=-1)) / psi.shape[-1]


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


def _plans(events: Sequence[Event], baseline) -> tuple[list, list]:
    """The distinct branches that the Z of each event against `baseline`
    needs, and each event's plan over them, after the events are checked.

    baseline is "vs-rest" (uniform over the other events) or one Baseline
    for all, a null baseline being the single alternative None with weight
    1.0. The branches are the events followed by the baseline's
    alternatives (never among the events, see _check_admissible), so each
    is evaluated once; event i's branch is branch i, and its plan lists the
    (weight, branch) pairs of its alternatives in baseline order.
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
        return list(events), [[(1.0 / (n - 1), j) for j in range(n) if j != i]
                              for i in range(n)]
    alternatives = list(baseline.alternatives) or [None]
    weights = baseline.normalized_weights() or (1.0,)
    return [*events, *alternatives], [list(zip(weights, range(n, n + len(alternatives))))] * n


def _z_from_branches(h: np.ndarray, g: np.ndarray | None, plans: list) -> tuple:
    """(z, se) arrays of shape (..., events) from the branch entropies h,
    shape (..., branches), and the plans of _plans.

    Z is the event's entropy minus its alternatives' weighted entropies,
    summed from 0.0 in plan order. g is None for exact branches, whose Z
    has se 0.0. For Monte Carlo branches it holds the (..., branches, n)
    expected surprisals after each walk (see _branch_surprisals), walk i of
    every branch having drawn from the same uniforms. Z's standard error is
    then the paired delta-method one, _walk_se of
    psi_i = g_event(walk i) - sum_j w_j g_j(walk i): the errors that the
    branches share cancel in Z, and so they do in se.
    """
    shape = h.shape[:-1] + (len(plans),)
    z, se = np.empty(shape), np.zeros(shape)
    for i, plan in enumerate(plans):
        base = np.zeros(h.shape[:-1])
        for w, j in plan:
            base += w * h[..., j]
        z[..., i] = h[..., i] - base
        if g is not None:
            psi = g[..., i, :].copy()
            for w, j in plan:
                psi -= w * g[..., j, :]
            se[..., i] = _walk_se(psi)
    return z, se


def _z_estimates(model: SystemModel, events: Sequence[Event], baseline, horizon: Horizon,
                 estimator: EstimatorConfig) -> list[tuple[float, float]]:
    """(Z, se) of each event against `baseline` (see _plans), every branch
    evaluated once under the configured back-end."""
    branches, plans = _plans(events, baseline)
    if estimator.backend == "exact":
        h = np.array([_entropy_of_probs(model.exact_future_probs(b, horizon)) for b in branches])
        g = None
    else:
        h, g = _mc_branches(model, branches, horizon, estimator)
    z, se = _z_from_branches(h, g, plans)
    return list(zip(z.tolist(), se.tolist()))


def _ranked(events: Sequence[Event], zs, baseline, horizon: Horizon,
            estimator: EstimatorConfig) -> list[tuple[Event, ZEstimate]]:
    """(event, ZEstimate) of each event's (Z, se) in zs, most beneficial
    (lowest Z) first, ties broken on event id."""
    exact = estimator.backend == "exact"
    if baseline == "vs-rest":
        # each event's Baseline.uniform(<the others>).summary(), checked by _plans
        ids = [ev.id for ev in events]
        labels = [f"uniform{{{','.join(ids[:i] + ids[i + 1:])}}}" for i in range(len(ids))]
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
    order = rank_order([z.value for _, z in scored], [ev.id for ev in events])
    return [scored[i] for i in order.tolist()]


def rank_order(z, ids) -> np.ndarray:
    """The indices that sort the last axis of z lowest first, ties broken on
    ids, one id per position of that axis, in the order Python sorts them."""
    position = {name: i for i, name in enumerate(sorted(set(ids)))}
    tie = np.array([position[name] for name in ids], dtype=np.int64)
    z = np.asarray(z, dtype=np.float64)
    return np.lexsort((np.broadcast_to(tie, z.shape), z), axis=-1)


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
    zs = _z_estimates(model, [event], baseline, horizon, estimator)
    return _ranked([event], zs, baseline, horizon, estimator)[0][1]


def classify_event(z: ZEstimate, tol: float = DEFAULT_NEUTRAL_TOL) -> EventClass:
    """The label event_labels gives z's value and standard error."""
    return EventClass(event_labels(z.value, z.std_error, tol).item())


def event_labels(z, se, tol: float = DEFAULT_NEUTRAL_TOL) -> np.ndarray:
    """The label of each Z with standard error se. Sign convention: entropy
    reduction is beneficial, increase is harmful.

    A sign label needs |Z| > tol + 2 * se. Otherwise the event is neutral
    when |Z| <= tol and uncertain when the standard error cannot tell it
    from neutral. Exact estimates have se 0.
    """
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    size = np.abs(z)
    return np.where(size > tol + 2.0 * np.asarray(se),
                    np.where(np.less(z, 0), BENEFICIAL, HARMFUL),
                    np.where(size <= tol, NEUTRAL, UNCERTAIN))


def rank_events(model: SystemModel, events: Sequence[Event], baseline,
                horizon: Horizon, estimator: EstimatorConfig = EstimatorConfig(),
                ) -> list[tuple[Event, ZEstimate]]:
    """Score candidate events and sort most-beneficial (lowest Z) first.

    `baseline` is either the string "vs-rest" (each event against a uniform
    baseline over the other candidates) or a fixed Baseline applied to every
    event. Ties break lexicographically on event id, and duplicate ids are
    rejected. Each distinct branch (the events, the baseline alternatives,
    the null event) is evaluated once and shared by every Z that needs it;
    on the Monte Carlo back-end every branch walks from one block of
    uniforms (see _mc_branches).
    """
    events = list(events)
    _check_admissible(model, events, baseline)
    zs = _z_estimates(model, events, baseline, horizon, estimator)
    return _ranked(events, zs, baseline, horizon, estimator)
