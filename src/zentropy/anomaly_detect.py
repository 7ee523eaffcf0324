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
output exactly equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import stream_bins, stream_scores
from .entropic_potential import Horizon, ZEstimate
from .entropy_core import Distribution

_STATE_FIELDS = 5  # win_len, win_pos, z_len, z_pos, n_seen


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
        if self.window < 8:
            raise ValueError("window must be >= 8")
        if self.bins < 2:
            raise ValueError("need at least 2 bins")
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


class StreamDetector:
    """Online detector over a sliding window of binned symbols.

    Each value is scored by how much it moves the entropy of the window's
    Laplace-smoothed predictive, then flagged by the rolling threshold rule.
    Values outside [lo, hi) clamp to the edge bins.
    """

    def __init__(self, config: DetectorConfig):
        self.config = config
        self._window = np.zeros(config.window, dtype=np.int64)
        self._counts = np.zeros(config.bins, dtype=np.int64)
        self._zring = np.zeros(config.window, dtype=np.float64)
        self._state = np.zeros(_STATE_FIELDS, dtype=np.int64)

    @property
    def events_seen(self) -> int:
        return int(self._state[4])

    def bin_of(self, x: float) -> int:
        c = self.config
        return int(stream_bins(x, c.lo, c.bin_width, c.bins))

    def predictive(self) -> Distribution:
        """Smoothed categorical over bins: (count_b + a) / (total + B*a)."""
        a = self.config.smoothing
        weights = self._counts + a
        return Distribution(tuple(range(self.config.bins)), weights / weights.sum())

    def ingest(self, x: float) -> EventScore:
        return self.ingest_batch([x])[0]

    def event_potential(self, x: float) -> ZEstimate:
        """Score x and advance the window (evicting the oldest symbol when full)."""
        return self.ingest(x).z

    def ingest_batch(self, values) -> list[EventScore]:
        c = self.config
        start = self.events_seen
        outs = stream_scores(np.asarray(values, dtype=np.float64), c.lo, c.bin_width,
                             c.bins, c.smoothing, c.kappa, c.warmup,
                             self._window, self._counts, self._zring, self._state)
        columns = [a.tolist() for a in outs]
        del outs  # the lists now hold every value; free the arrays first
        scores = []
        for idx, (b, z, mean, std, flagged) in enumerate(zip(*columns), start):
            zest = ZEstimate(value=z, std_error=0.0, method="exact", n_samples=0,
                             horizon=Horizon(idx, idx + 1), event=f"x[{idx}]",
                             baseline="null-event")
            scores.append(EventScore(index=idx, bin=b, z=zest, flagged=flagged,
                                     rolling_mean=mean, rolling_std=std))
        return scores


def replay(values, config: DetectorConfig) -> list[EventScore]:
    """Batch-score a whole stream; output is element-wise identical to
    feeding the same values one by one through StreamDetector.ingest."""
    return StreamDetector(config).ingest_batch(values)
