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

from .entropic_potential import Horizon, ZEstimate
from .entropy_core import Distribution, EntropyBits, shannon_entropy
from .errors import InvalidDistributionError, ZeroEvidenceError

HEADS = "heads"
TAILS = "tails"

MAX_GRID_POINTS = 10_000  # every update and mutual_information walks each point


def _check_grid_size(n_points: int) -> None:
    if not 1 <= n_points <= MAX_GRID_POINTS:
        raise ValueError(f"grid_points must be in 1..{MAX_GRID_POINTS}, got {n_points}")


def even_grid(n_points: int) -> np.ndarray:
    """n_points evenly spaced parameter values on [0, 1], size checked first."""
    _check_grid_size(n_points)
    return np.linspace(0.0, 1.0, n_points)


@dataclass(frozen=True)
class GridPosterior:
    """Belief over a strictly increasing grid of parameter values in [0, 1]."""

    grid: tuple
    belief: Distribution

    def __post_init__(self) -> None:
        grid = tuple(float(t) for t in self.grid)
        object.__setattr__(self, "grid", grid)
        if any(t < 0.0 or t > 1.0 for t in grid):
            raise InvalidDistributionError("grid values must lie in [0, 1]")
        if any(b >= a for a, b in zip(grid[1:], grid)):
            raise InvalidDistributionError("grid must be strictly increasing")
        if len(self.belief.outcomes) != len(grid):
            raise InvalidDistributionError("belief size does not match grid")

    @classmethod
    def uniform(cls, n_points: int = 101) -> "GridPosterior":
        return cls.with_weights(even_grid(n_points))

    @classmethod
    def with_weights(cls, grid, weights=None) -> "GridPosterior":
        """Belief `weights` over `grid`, uniform when weights is None."""
        _check_grid_size(len(grid))
        grid = tuple(float(t) for t in grid)
        if weights is None:
            weights = np.full(len(grid), 1.0 / len(grid))
        return cls(grid, Distribution(grid, weights))

    def entropy(self) -> EntropyBits:
        return shannon_entropy(self.belief)


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

    def likelihood_matrix(self, grid) -> np.ndarray:
        theta = np.asarray(grid, dtype=np.float64)
        p_heads = 0.5 + self.noise * (theta - 0.5)
        return np.column_stack([p_heads, 1.0 - p_heads])


@dataclass(frozen=True)
class QueryCandidate:
    id: str
    model: BernoulliFlip


def _likelihood_column(p: GridPosterior, model: BernoulliFlip, outcome: str) -> np.ndarray:
    if outcome not in model.outcomes:
        raise ValueError(f"unknown outcome {outcome!r}")
    return model.likelihood_matrix(p.grid)[:, model.outcomes.index(outcome)]


def posterior_update(p: GridPosterior, model: BernoulliFlip, outcome: str) -> GridPosterior:
    """Multiply in the likelihood of `outcome` and renormalize."""
    w = p.belief.probs * _likelihood_column(p, model, outcome)
    total = float(w.sum())
    if total == 0.0:
        raise ZeroEvidenceError(f"outcome {outcome!r} impossible under the entire grid")
    return GridPosterior(p.grid, Distribution(p.grid, w / total))


def realized_event_potential(p: GridPosterior, model: BernoulliFlip,
                             outcome: str, event_id: str | None = None,
                             t0: int = 0) -> ZEstimate:
    """Pre/post potential of a datum that actually arrived:
    posterior entropy minus prior entropy. Can be positive for surprising data."""
    post = posterior_update(p, model, outcome)
    value = float(post.entropy()) - float(p.entropy())
    return ZEstimate(value=value, std_error=0.0, method="exact", n_samples=0,
                     horizon=Horizon(t0, t0 + 1),
                     event=event_id or f"observe:{outcome}", baseline="null-event")


def expected_event_potential(p: GridPosterior, q: QueryCandidate) -> ZEstimate:
    """Predictive-weighted posterior entropy minus prior entropy for a
    candidate query. Never positive: in expectation, information cannot hurt."""
    like = q.model.likelihood_matrix(p.grid)
    predictive = p.belief.probs @ like
    h_prior = float(p.entropy())
    expected_h_post = 0.0
    for j, outcome in enumerate(q.model.outcomes):
        m = float(predictive[j])
        if m == 0.0:
            continue
        post = posterior_update(p, q.model, outcome)
        expected_h_post += m * float(post.entropy())
    return ZEstimate(value=expected_h_post - h_prior, std_error=0.0, method="exact",
                     n_samples=0, horizon=Horizon(0, 1), event=q.id,
                     baseline="null-event")


def mutual_information(p: GridPosterior, q: QueryCandidate) -> EntropyBits:
    """I(parameter; outcome) from the joint double sum.

    Independent of the entropy-difference path on purpose: it serves as the
    oracle for expected_event_potential == -I.
    """
    like = q.model.likelihood_matrix(p.grid)
    joint = p.belief.probs[:, None] * like
    marg_theta = p.belief.probs
    marg_out = joint.sum(axis=0)
    total = 0.0
    n_grid, n_out = joint.shape
    for i in range(n_grid):
        for j in range(n_out):
            v = joint[i, j]
            if v > 0.0:
                total += v * np.log2(v / (marg_theta[i] * marg_out[j]))
    return EntropyBits(float(total))


def rank_queries(p: GridPosterior, qs: list[QueryCandidate]
                 ) -> list[tuple[QueryCandidate, ZEstimate]]:
    """Most uncertainty-reducing query first; ties break on id."""
    if not qs:
        raise ValueError("rank_queries needs at least one candidate")
    scored = [(q, expected_event_potential(p, q)) for q in qs]
    scored.sort(key=lambda t: (t[1].value, t[0].id))
    return scored
