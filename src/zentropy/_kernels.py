"""Hot numeric kernels in plain numpy.

Determinism notes:
  - walk_outcomes consumes pre-drawn uniforms and only compares floats, so
    its outcome arrays depend on nothing but its inputs.
  - stream_scores works on whole arrays but performs, for every event, the
    same float operations in the same order as a per-event loop would
    (math.log2 terms, additions in bin order and in window order), so its
    outputs are bitwise independent of how a stream is split into calls.
"""

from __future__ import annotations

import math

import numpy as np

def active_backend() -> str:
    """Name of the numeric path; plain numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# Categorical walk: start draw, optional first-step table, k repeats of a
# second table. Covers Markov-chain branches (event kernel then base
# dynamics) and grid-world branches (first action then policy mixture).
# A sampling table is a (succ, cum) pair of shape (S, K): row s lists the K
# successor indices of state s and their cumulative probabilities.
# ---------------------------------------------------------------------------

def walk_outcomes(cum_start, first, n_first, rest, n_rest, u) -> np.ndarray:
    """Sample final states of n categorical walks from pre-drawn uniforms.

    cum_start: (S,) cumulative initial distribution. first/rest: (succ, cum)
    sampling tables, applied n_first then n_rest times. u: (n, 1 + n_first +
    n_rest) uniforms in [0, 1). Each step picks the successor in column j,
    the count of row entries <= u (searchsorted side='right').
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    if u.shape[1] != 1 + n_first + n_rest:
        raise ValueError("uniform array width does not match walk length")
    n = u.shape[0]
    steps = [first] * n_first + [rest] * n_rest
    out = np.empty(n, dtype=np.int64)
    # vectorized per step; chunked so the (chunk, K) gather stays small
    chunk = max(1, (1 << 22) // max(first[1].shape[1], rest[1].shape[1]))
    for a in range(0, n, chunk):
        b = min(n, a + chunk)
        s = np.searchsorted(cum_start, u[a:b, 0], side="right")
        for col, (succ, cum) in enumerate(steps, start=1):
            j = (cum[s] <= u[a:b, col, None]).sum(axis=1)
            s = succ[s, j]
        out[a:b] = s
    return out


def cumulative(probs) -> np.ndarray:
    """Cumulative sums along the last axis, with every entry from the last
    nonzero probability onward set to exactly 1.0: a uniform in [0, 1) then
    never counts past that entry, so no zero-probability outcome is drawn."""
    p = np.asarray(probs, dtype=np.float64)
    cum = np.cumsum(p, axis=-1)
    last = p.shape[-1] - 1 - np.argmax(p[..., ::-1] > 0.0, axis=-1)
    cum[np.arange(p.shape[-1]) >= np.asarray(last)[..., None]] = 1.0
    return cum


# ---------------------------------------------------------------------------
# Streaming anomaly scoring. One function is both the online single-event
# step and the offline batch replay: state arrays are carried between calls,
# and each event's outputs come from the same float operations in the same
# order however the stream is split into calls, so folding ingest over a
# stream and replaying it in one call give bitwise equal results.
# ---------------------------------------------------------------------------

# Working set per chunk of events: the (events, window) blocks of past
# scores dominate, so long streams run at a small, flat peak memory.
STREAM_CHUNK_BYTES = 1 << 17


def stream_bins(values, lo, width, n_bins) -> np.ndarray:
    """Bin index floor((x - lo) / width) of each value, clamped to
    [0, n_bins - 1], so out-of-range values land in the edge bins."""
    b = np.floor((values - lo) / width)
    return np.minimum(np.maximum(b, 0), n_bins - 1).astype(np.int64)


def _entropy_bits(counts, length, cap, n_bins, alpha):
    """Entropy of each row's smoothed predictive (count + alpha) /
    (length + n_bins * alpha), for counts and lengths up to cap. Each
    distinct (count, length) term is taken once with math.log2, and a row's
    terms are added in bin order."""
    stride = cap + 1
    keys = counts * stride + length[:, None]
    flat = np.sort(keys, axis=None)
    uniq = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
    extra = n_bins * alpha
    terms = np.empty(uniq.shape[0])
    for i, key in enumerate(uniq.tolist()):
        c, n = divmod(key, stride)
        p = (c + alpha) / (n + extra)
        terms[i] = -(p * math.log2(p))
    # cumsum adds strictly left to right; a sum reduction may pair terms up
    return terms[np.searchsorted(uniq, keys)].cumsum(axis=1)[:, -1]


def _stream_chunk(values, lo, width, n_bins, alpha, kappa, warmup,
                  window, z_past, state):
    cap = window.shape[0]
    win_len, z_len, n_seen = state.tolist()
    n = values.shape[0]
    steps = np.arange(n)
    bins = stream_bins(values, lo, width, n_bins)

    # cum[k] counts each bin among the first k symbols of the carried window
    # (oldest first) followed by the new bins. Event i sits at win_len + i:
    # the window before it ends there, the window after it one later.
    seq = np.concatenate((window[:win_len], bins))
    onehot = np.zeros((seq.shape[0] + 1, n_bins), dtype=np.int64)
    onehot[np.arange(1, seq.shape[0] + 1), seq] = 1
    cum = onehot.cumsum(axis=0)
    ends = np.concatenate((win_len + steps, win_len + 1 + steps))
    lengths = np.minimum(ends, cap)
    c = cum[ends] - cum[ends - lengths]
    h = _entropy_bits(c, lengths, cap, n_bins, alpha)
    z = h[n:] - h[:n]

    # rolling stats over the last <= cap scores, current one included: row i
    # holds that window oldest first, behind zeros while fewer than cap exist
    # (zero squared deviations there too), so each sum adds 0.0 first and
    # then the live scores in the loop's order
    zseq = np.concatenate((np.zeros(cap), z_past[:z_len], z))
    cols = np.arange(cap)
    z_end = z_len + 1 + steps
    block = zseq[z_end[:, None] + cols]
    z_count = np.minimum(z_end, cap)
    mean = block.cumsum(axis=1)[:, -1] / z_count
    block -= mean[:, None]
    block *= block
    block[cols < (cap - z_count)[:, None]] = 0.0
    std = np.sqrt(block.cumsum(axis=1)[:, -1] / z_count)
    flag = (steps >= warmup - n_seen) & (z > mean + kappa * std)

    # carried state: the last <= cap bins and scores, oldest first
    new_len = min(win_len + n, cap)
    window[:new_len] = seq[seq.shape[0] - new_len:]
    new_zlen = min(z_len + n, cap)
    z_past[:new_zlen] = zseq[zseq.shape[0] - new_zlen:]
    state[:] = (new_len, new_zlen, n_seen + n)
    return bins, z, mean, std, flag


def stream_state(cap):
    """stream_scores's (window, z_past, state) before any event, window size cap."""
    return (np.zeros(cap, dtype=np.int64), np.zeros(cap, dtype=np.float64),
            np.zeros(3, dtype=np.int64))


def stream_scores(values, lo, width, n_bins, alpha, kappa, warmup,
                  window, z_past, state):
    """Score a batch of sensor values against carried detector state.

    Each value's score is the change in entropy (bits) of the smoothed
    next-symbol predictive when its bin enters the sliding window (a full
    window evicts its oldest symbol in the same update). Returns per-event
    (bin, z, rolling_mean, rolling_std, flagged) arrays and advances the
    state in place: window and z_past hold the last win_len bins and z_len
    scores, oldest first; state is int64 [win_len, z_len, n_seen].
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("stream values must be a 1-D array")
    if not np.isfinite(values).all():
        raise ValueError("stream values must be finite")
    n = values.shape[0]
    chunk = max(1, STREAM_CHUNK_BYTES // (8 * (window.shape[0] + n_bins)))
    if 0 < n <= chunk:  # one chunk, e.g. an online ingest: no output copies
        return _stream_chunk(values, lo, width, n_bins, alpha, kappa, warmup,
                             window, z_past, state)
    outs = (np.empty(n, dtype=np.int64), np.empty(n), np.empty(n), np.empty(n),
            np.empty(n, dtype=np.bool_))
    for a in range(0, n, chunk):
        got = _stream_chunk(values[a:a + chunk], lo, width, n_bins, alpha, kappa,
                            warmup, window, z_past, state)
        for out, part in zip(outs, got):
            out[a:a + chunk] = part
    return outs
