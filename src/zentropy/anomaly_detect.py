"""Streaming anomaly detection by entropic potential of each sensor event.

Each incoming value is scored with the pre/post form at the smallest horizon:
the change in entropy of the smoothed next-symbol predictive when the value
enters the sliding window (a full window evicts its oldest symbol as part of
the same update, so re-observing what is about to leave scores exactly 0).
Positive spikes mean the event made the near future less predictable; an
event is flagged when its score exceeds a rolling mean + kappa * std of the
last W scores, never during warm-up.

The scoring lives in _kernels.stream_scores; ingest feeds it one value at a
time, replay feeds it the whole stream. Each event's outputs come from the
same float operations either way, which is what makes online and offline
output exactly equal. score_columns returns the kernel's columns as they
are; only ingest, ingest_batch and replay build EventScore objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import stream_bins, stream_scores, stream_state
from .entropic_potential import Horizon, ZEstimate
from .entropy_core import Distribution

# size caps: the stream kernel's work per event grows with window * bins
MAX_WINDOW = 1024
MAX_BINS = 256


@dataclass(frozen=True)
class DetectorConfig:
    window: int = 64
    bins: int = 4
    lo: float = 0.0
    hi: float = 4.0
    kappa: float = 3.0
    warmup: int = 64
    smoothing: float = 1.0

    def __post_init__(self) -> None:
        if not 8 <= self.window <= MAX_WINDOW:
            raise ValueError(f"window must be in 8..{MAX_WINDOW}, got {self.window}")
        if not 2 <= self.bins <= MAX_BINS:
            raise ValueError(f"bins must be in 2..{MAX_BINS}, got {self.bins}")
        if not self.hi > self.lo:
            raise ValueError("range must satisfy hi > lo")
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")
        if self.warmup < self.window:
            raise ValueError("warmup must be >= window")
        if self.smoothing <= 0:
            raise ValueError("smoothing pseudo-count must be > 0")

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bins


@dataclass(frozen=True, slots=True)
class EventScore:
    index: int
    bin: int
    z: ZEstimate
    flagged: bool
    rolling_mean: float
    rolling_std: float


def event_estimate(index: int, z: float) -> ZEstimate:
    """Event `index`'s score as an exact ZEstimate over (index, index + 1)."""
    return ZEstimate(value=z, std_error=0.0, method="exact", n_samples=0,
                     horizon=Horizon(index, index + 1), event=f"x[{index}]",
                     baseline="null-event")


class StreamDetector:
    """Online detector over a sliding window of binned symbols.

    Each value is scored by how much it moves the entropy of the window's
    Laplace-smoothed predictive, then flagged by the rolling threshold rule.
    Values outside [lo, hi) clamp to the edge bins.
    """

    def __init__(self, config: DetectorConfig):
        self.config = config
        self._window, self._z_past, self._state = stream_state(config.window)

    @property
    def events_seen(self) -> int:
        return int(self._state[2])

    def bin_of(self, x: float) -> int:
        c = self.config
        return int(stream_bins(x, c.lo, c.bin_width, c.bins))

    def predictive(self) -> Distribution:
        """Smoothed categorical over bins: (count_b + a) / (total + B*a)."""
        a = self.config.smoothing
        weights = np.bincount(self._window[:self._state[0]], minlength=self.config.bins) + a
        return Distribution(tuple(range(self.config.bins)), weights / weights.sum())

    def ingest(self, x: float) -> EventScore:
        return self.ingest_batch([x])[0]

    def event_potential(self, x: float) -> ZEstimate:
        """Score x and advance the window (evicting the oldest symbol when full)."""
        return self.ingest(x).z

    def score_columns(self, values) -> tuple:
        """Score values and advance the window: the kernel's per-event
        (bin, z, rolling_mean, rolling_std, flagged) arrays."""
        c = self.config
        return stream_scores(values, c.lo, c.bin_width, c.bins, c.smoothing, c.kappa,
                             c.warmup, self._window, self._z_past, self._state)

    def ingest_batch(self, values) -> list[EventScore]:
        start = self.events_seen
        columns = [a.tolist() for a in self.score_columns(values)]
        return [EventScore(index=i, bin=b, z=event_estimate(i, z), flagged=flagged,
                           rolling_mean=mean, rolling_std=std)
                for i, (b, z, mean, std, flagged) in enumerate(zip(*columns), start)]


def replay(values, config: DetectorConfig) -> list[EventScore]:
    """Batch-score a whole stream; output is element-wise identical to
    feeding the same values one by one through StreamDetector.ingest."""
    return StreamDetector(config).ingest_batch(values)
