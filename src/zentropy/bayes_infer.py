"""Discretized Bayesian inference where data events carry entropic potential.

Beliefs live on a finite grid of parameter values in [0, 1], so posterior
entropy is plain Shannon entropy and everything is enumerable. Observations
are (possibly noisy) Bernoulli flips: P(heads | theta) = 0.5 + noise *
(theta - 0.5), with noise=1 the ideal coin and noise=0 a query whose outcome
is independent of theta (the null query).

Arrived data is scored with the pre/post form (realized potential); candidate
queries with the expected-conditional form, whose value equals minus the
parameter/outcome mutual information — computed here from the joint as an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropic_potential import Horizon, ZEstimate, rank_order
from .entropy_core import EntropyBits, _entropy_of_probs, _renormalized, normalized_probs
from .errors import InvalidDistributionError, ZeroEvidenceError

HEADS = "heads"
TAILS = "tails"

MAX_GRID_POINTS = 10_000  # every update and mutual_information forms arrays over all points


def _check_grid_size(n_points: int) -> None:
    if not 1 <= n_points <= MAX_GRID_POINTS:
        raise ValueError(f"grid_points must be in 1..{MAX_GRID_POINTS}, got {n_points}")


def even_grid(n_points: int) -> np.ndarray:
    """n_points evenly spaced parameter values on [0, 1], size checked first."""
    _check_grid_size(n_points)
    return np.linspace(0.0, 1.0, n_points)


@dataclass(frozen=True, eq=False)
class GridPosterior:
    """Belief `probs` over `grid`, a strictly increasing set of parameter
    values in [0, 1]; both are read-only float64 arrays."""

    grid: np.ndarray
    probs: np.ndarray

    def __init__(self, grid, probs=None) -> None:
        """Check `grid`: 1-D, sized, in [0, 1] (not NaN), strictly increasing.
        `probs` (uniform when None) must match it in length and pass
        normalized_probs."""
        g = np.array(grid, dtype=np.float64)  # a copy: the caller's array stays writable
        if g.ndim != 1:
            raise InvalidDistributionError(f"grid must be 1-D, got shape {g.shape}")
        _check_grid_size(g.size)
        if not ((g >= 0.0) & (g <= 1.0)).all():
            raise InvalidDistributionError("grid values must lie in [0, 1]")
        if (g[1:] <= g[:-1]).any():
            raise InvalidDistributionError("grid must be strictly increasing")
        p = np.asarray(np.full(g.size, 1.0 / g.size) if probs is None else probs,
                       dtype=np.float64)
        if p.shape != g.shape:
            raise InvalidDistributionError(f"{p.shape} probabilities vs {g.size} grid points")
        p = normalized_probs(p)  # a new array: the caller's stays writable
        g.flags.writeable = p.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, n_points: int = 101) -> "GridPosterior":
        return cls(even_grid(n_points))

    def entropy(self) -> EntropyBits:
        return EntropyBits(_entropy_of_probs(self.probs))


@dataclass(frozen=True)
class BernoulliFlip:
    """Observation model for one flip; noise in [0, 1] scales informativeness."""

    noise: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.noise <= 1.0):
            raise ValueError("noise must be in [0, 1]")

    @property
    def outcomes(self) -> tuple:
        return (HEADS, TAILS)

    def likelihood(self, grid, outcome: str) -> np.ndarray:
        """The likelihood of outcome at each grid point: its column of
        likelihood_matrix, computed alone."""
        p_heads = 0.5 + self.noise * (np.asarray(grid, dtype=np.float64) - 0.5)
        return p_heads if outcome == HEADS else 1.0 - p_heads

    def likelihood_matrix(self, grid) -> np.ndarray:
        return np.column_stack([self.likelihood(grid, o) for o in self.outcomes])


@dataclass(frozen=True)
class QueryCandidate:
    id: str
    model: BernoulliFlip


def _updated_probs(grid, probs, model: BernoulliFlip, outcome: str) -> np.ndarray:
    """posterior_update on trusted arrays, before it is renormalised once."""
    if outcome not in model.outcomes:
        raise ValueError(f"unknown outcome {outcome!r}")
    w = probs * model.likelihood(grid, outcome)
    total = float(w.sum())
    if total == 0.0:
        raise ZeroEvidenceError(f"outcome {outcome!r} impossible under the entire grid")
    return w / total


def posterior_update(p: GridPosterior, model: BernoulliFlip, outcome: str) -> GridPosterior:
    """Multiply in the likelihood of `outcome` and renormalize."""
    return GridPosterior(p.grid, _updated_probs(p.grid, p.probs, model, outcome))


def realized_potentials(p: GridPosterior, model: BernoulliFlip, data) -> list[float]:
    """Pre/post potential of each datum in turn, against the posterior of the data
    before it, with posterior_update's bits. Can be positive for surprising data."""
    probs, h = p.probs, [_entropy_of_probs(p.probs)]
    for outcome in data:
        probs = _renormalized(_updated_probs(p.grid, probs, model, outcome))
        h.append(_entropy_of_probs(probs))
    return [b - a for a, b in zip(h, h[1:])]


def realized_event_potential(p: GridPosterior, model: BernoulliFlip,
                             outcome: str, event_id: str | None = None,
                             t0: int = 0) -> ZEstimate:
    """realized_potentials of the one datum `outcome`, as a ZEstimate."""
    [value] = realized_potentials(p, model, [outcome])
    return ZEstimate(value=value, std_error=0.0, method="exact", n_samples=0,
                     horizon=Horizon(t0, t0 + 1),
                     event=event_id or f"observe:{outcome}", baseline="null-event")


def expected_event_potential(p: GridPosterior, q: QueryCandidate) -> ZEstimate:
    """Predictive-weighted posterior entropy minus prior entropy for a
    candidate query. Never positive: in expectation, information cannot hurt."""
    predictive = p.probs @ q.model.likelihood_matrix(p.grid)
    expected_h_post = 0.0
    for m, outcome in zip(predictive.tolist(), q.model.outcomes):
        if m != 0.0:
            post = _renormalized(_updated_probs(p.grid, p.probs, q.model, outcome))
            expected_h_post += m * _entropy_of_probs(post)
    return ZEstimate(value=expected_h_post - float(p.entropy()), std_error=0.0, method="exact",
                     n_samples=0, horizon=Horizon(0, 1), event=q.id,
                     baseline="null-event")


def mutual_information(p: GridPosterior, q: QueryCandidate) -> EntropyBits:
    """I(parameter; outcome) from the joint double sum.

    Independent of the entropy-difference path on purpose: it serves as the
    oracle for expected_event_potential == -I.
    """
    marg_theta = p.probs
    joint = marg_theta[:, None] * q.model.likelihood_matrix(p.grid)
    marg_out = joint.sum(axis=0)
    i, j = np.nonzero(joint > 0.0)  # the positive entries, row-major
    v = joint[i, j]
    terms = v * np.log2(v / (marg_theta[i] * marg_out[j]))
    # added one by one from 0.0 as a double loop would (cumsum; .sum() pairs terms)
    return EntropyBits(float(np.cumsum(np.concatenate(([0.0], terms)))[-1]))


def rank_queries(p: GridPosterior, qs: list[QueryCandidate]
                 ) -> list[tuple[QueryCandidate, ZEstimate]]:
    """Most uncertainty-reducing query first; ties break on id."""
    if not qs:
        raise ValueError("rank_queries needs at least one candidate")
    scored = [(q, expected_event_potential(p, q)) for q in qs]
    order = rank_order([z.value for _, z in scored], [q.id for q in qs])
    return [scored[i] for i in order.tolist()]
