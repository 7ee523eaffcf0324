"""Hot numeric kernels in plain numpy.

Determinism notes:
  - walk_outcomes consumes pre-drawn uniforms and only compares floats, so
    its outcome arrays depend on nothing but its inputs. Its fixed-length
    binary search returns the same successor column as counting a row's
    entries <= u, for any u in [0, 1), and a batch of start states walks
    each start exactly as a walk from that start alone would.
  - stream_scores works on whole arrays but performs, for every event, the
    same float operations in the same order as a per-event loop would
    (math.log2 terms, additions in bin order and in window order), whether
    a chunk sums its rolling windows as one gathered block or slice by
    slice, so its outputs are bitwise independent of how a stream is split
    into calls or chunks. A chunk of n events takes the entropy of each of
    the n + 1 windows it passes through once, from integer bin counts that
    are exact however they are formed; an event's score is the difference
    of its two windows' entropies, as the loop's is.
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
# successor indices of state s and their cumulative probabilities, as
# cumulative() builds them.
# ---------------------------------------------------------------------------

# Byte budget of one chunk of walks: the chunk's uniforms, transposed, plus
# the state, position, probe and hit arrays of every walk in it.
WALK_CHUNK_BYTES = 1 << 20


def _search_halves(k: int) -> tuple:
    """Probe steps of a fixed-length binary search for a count in [0, k - 1]:
    while more than one candidate is left, probe the half'th of them and
    keep len - half. Five candidates (a grid row) take 3 probes."""
    halves = []
    while k > 1:
        halves.append(k // 2)
        k -= k // 2
    return tuple(halves)


def walk_outcomes(cum_start, first, n_first, rest, n_rest, u, starts=None) -> np.ndarray:
    """Sample final states of n categorical walks from pre-drawn uniforms.

    cum_start: (S,) cumulative initial distribution. first/rest: (succ, cum)
    sampling tables, applied n_first then n_rest times. u: (n, 1 + n_first +
    n_rest) uniforms in [0, 1). Column 0 draws the start, and each step
    picks the successor in column j, the count of row entries <= u
    (searchsorted side='right').

    starts, if given, is a (c,) array of start states: the start draw is
    skipped (cum_start and column 0 go unused) and each start walks every
    row of u, so the result is (c, n) instead of (n,).

    The row entries <= u always form a prefix, since cumulative() rows are
    nondecreasing up to their last nonzero probability and exactly 1.0 > u
    from there on. So j is found by a branchless binary search over the
    row's first K - 1 entries of the flattened table, each round one take,
    one compare and one add over all walks, and the successor is one flat
    take at s * K + j. Each step reads a contiguous column of uniforms: a
    column-major u is read in place, a row-major one through transposed
    chunks.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != 1 + n_first + n_rest:
        raise ValueError("uniform array width does not match walk length")
    n = u.shape[0]
    tables = [(np.ascontiguousarray(succ, dtype=np.int64).reshape(-1),
               np.ascontiguousarray(cum, dtype=np.float64).reshape(-1),
               cum.shape[1], _search_halves(cum.shape[1])) for succ, cum in (first, rest)]
    steps = [tables[0]] * n_first + [tables[1]] * n_rest
    if starts is not None:
        starts = np.asarray(starts, dtype=np.int64)[:, None]
    walks = 1 if starts is None else len(starts)
    out = np.empty((n,) if starts is None else (walks, n), dtype=np.int64)
    # bytes per row of u: its uniforms (transposed), then per walk an int64
    # state and position, a float64 probe and a bool hit
    chunk = max(1, WALK_CHUNK_BYTES // (8 * u.shape[1] + 25 * walks))
    for a in range(0, n, chunk):
        ut = u[a:a + chunk].T
        if ut.strides[1] != ut.itemsize:
            ut = np.ascontiguousarray(ut)
        if starts is None:
            s = np.searchsorted(cum_start, ut[0], side="right")
        else:
            s = np.repeat(starts, ut.shape[1], axis=1)
        pos = np.empty_like(s)
        probe = np.empty(s.shape)
        hit = np.empty(s.shape, dtype=np.bool_)
        for x, (succ, cum, k, halves) in zip(ut[1:], steps):
            np.multiply(s, k, out=pos)
            for half in halves:
                # cum[half - 1:] at pos is the row's (j + half - 1)th entry
                np.take(cum[half - 1:], pos, out=probe, mode="clip")
                np.less_equal(probe, x, out=hit)
                np.add(pos, hit if half == 1 else hit * half, out=pos)
            np.take(succ, pos, out=s, mode="clip")
        out[..., a:a + chunk] = s
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

# Bytes charged per chunk of events, so a long stream's peak memory does not
# grow with its length. A chunk is charged 8 bytes per event for each bin (its
# bin counts) and for each past score it holds: a row of `window` in the
# block form, 8 running columns in the slice form (see _stream_bounds).
# This bounds only the charged arrays, not the working set. By tracemalloc
# (numpy 2.4), a chunk holds at its peak 8 * (3 * bins + 3) bytes per event,
# and at least 160: the (events + 1, bins) counts, the per-bin terms and
# their running sums in _entropy_bits, or at few bins the rolling-stat
# columns; a block-form chunk also holds its (events, window) block. The
# charge is not raised to that: at bins 4 it would cut slice-form chunks
# from 2730 to about 1640 events, each chunk adding its 5 * window rolling
# calls, while the peak is already bounded and small. A 20k-event call
# peaks at 1.15 MB at (window 64, bins 4) and 1.27 MB at (1024, 256),
# its five output columns (0.66 MB) included.
STREAM_CHUNK_BYTES = 1 << 18

# Chunks of at least this many events sum their rolling windows as slices,
# shorter ones (an online ingest among them) as one gathered block. Both do
# O(events * window) float work; the slice form adds about 5 * window numpy
# calls, which pays off from about 200 events on at every window from 16 to
# 1024 (2-core x86-64, numpy 2.4).
STREAM_SLICES_FROM = 256


def stream_bins(values, lo, width, n_bins) -> np.ndarray:
    """Bin index floor((x - lo) / width) of each value, clamped to
    [0, n_bins - 1], so out-of-range values land in the edge bins."""
    b = np.floor((values - lo) / width)
    return np.minimum(np.maximum(b, 0), n_bins - 1).astype(np.int64)


def _entropy_bits(counts, first, cap, n_bins, alpha):
    """Entropy of each row's smoothed predictive (count + alpha) /
    (length + n_bins * alpha), row t of counts covering a window of
    min(first + t, cap) symbols. Each distinct (count, length) term is
    taken once with math.log2: a presence mask over the (count, length -
    first) key space lists the keys in order, with no sort. Each key's
    term is then found by binary search over those keys, and a row's
    terms are added in bin order."""
    rows = counts.shape[0]
    span = min(first + rows - 1, cap) - first + 1  # distinct lengths
    keys = counts
    if span > 1:
        keys = counts * span
        keys += np.minimum(np.arange(rows), span - 1)[:, None]
    seen = np.zeros((first + span) * span, dtype=np.bool_)
    seen[keys] = True
    uniq = np.flatnonzero(seen)
    extra = n_bins * alpha
    terms = np.empty(uniq.shape[0])
    for i, key in enumerate(uniq.tolist()):
        c, off = divmod(key, span)
        p = (c + alpha) / (first + off + extra)
        terms[i] = -(p * math.log2(p))
    per_bin = terms[np.searchsorted(uniq, keys)]
    # cumsum adds strictly left to right; a sum reduction may pair terms up
    return per_bin.cumsum(axis=1)[:, -1]


def _rolling_block(zseq, first, n, cap):
    """Rolling mean and std of n events from one gathered (n, cap) block:
    row i holds zseq[first + i:first + i + cap], summed along the row by
    cumsum. A few numpy calls and O(cap) bytes per event, for short chunks."""
    cols = np.arange(cap)
    z_end = np.arange(first, first + n)
    block = zseq[z_end[:, None] + cols]
    z_count = np.minimum(z_end, cap)
    mean = block.cumsum(axis=1)[:, -1] / z_count
    block -= mean[:, None]
    block *= block
    block[cols < (cap - z_count)[:, None]] = 0.0
    return mean, np.sqrt(block.cumsum(axis=1)[:, -1] / z_count)


def _rolling_slices(zseq, first, n, cap):
    """_rolling_block's sums column by column. Column j of its block is the
    contiguous slice zseq[first + j:first + j + n], so adding the cap slices
    to a running total in order adds each row's entries as cumsum does.
    About 5 * cap numpy calls over a few columns of n floats, for long
    chunks."""
    z_count = np.minimum(np.arange(first, first + n), cap)
    total = zseq[first:first + n].copy()
    for j in range(first + 1, first + cap):
        total += zseq[j:j + n]
    mean = total / z_count
    # 0.0 + the first square is that square, as a square is never -0.0
    sq = np.zeros(n)
    d = np.empty(n)
    for j in range(cap):
        np.subtract(zseq[first + j:first + j + n], mean, out=d)
        d *= d
        d[:max(cap - first - j, 0)] = 0.0  # the rows whose column j is padding
        sq += d
    return mean, np.sqrt(sq / z_count)


def _stream_chunk(values, lo, width, n_bins, alpha, kappa, warmup,
                  window, z_past, state):
    cap = window.shape[0]
    n_seen = int(state[0])
    live = min(n_seen, cap)  # bins in the window, and scores in z_past
    n = values.shape[0]
    steps = np.arange(n)
    bins = stream_bins(values, lo, width, n_bins)

    # Event i moves the window from W_i to W_{i + 1}, so the entropies of
    # W_0..W_n give every score. Row t of counts holds W_t's bin counts:
    # the carried window's, plus one for each of the first t new bins,
    # minus one for each symbol of seq (carried window, oldest first, then
    # the new bins) that has left. The first n_out symbols leave, one per
    # row from 1 + n - n_out on.
    seq = np.concatenate((window[:live], bins))
    n_out = max(live + n - cap, 0)
    counts = np.zeros((n + 1, n_bins), dtype=np.int64)
    counts[0] = np.bincount(window[:live], minlength=n_bins)
    counts[steps + 1, bins] = 1
    counts[np.arange(1 + n - n_out, n + 1), seq[:n_out]] -= 1
    counts.cumsum(axis=0, out=counts)
    h = _entropy_bits(counts, live, cap, n_bins, alpha)
    z = h[1:] - h[:-1]

    # rolling stats over the last <= cap scores, current one included: event
    # i's window is zseq[live + 1 + i:live + 1 + i + cap], oldest first, behind
    # zeros while fewer than cap scores exist (zero squared deviations there
    # too), so each sum adds 0.0 first and then the live scores in the loop's
    # order
    zseq = np.concatenate((np.zeros(cap), z_past[:live], z))
    rolling = _rolling_slices if n >= STREAM_SLICES_FROM else _rolling_block
    mean, std = rolling(zseq, live + 1, n, cap)
    flag = (steps >= warmup - n_seen) & (z > mean + kappa * std)

    # carried state: the last <= cap bins and scores, oldest first
    new_live = min(live + n, cap)
    window[:new_live] = seq[seq.shape[0] - new_live:]
    z_past[:new_live] = zseq[zseq.shape[0] - new_live:]
    state[0] = n_seen + n
    return bins, z, mean, std, flag


def _stream_bounds(n, cap, n_bins):
    """Chunk boundaries [0, ..., n] of a batch of n events. The batch is
    split into as few slice-form chunks as fit STREAM_CHUNK_BYTES, with
    lengths differing by at most one. If those are too short for the slice
    form, it is cut into block-form chunks instead, each as long as fits."""
    if n >= STREAM_SLICES_FROM:
        k = -(-n // max(1, STREAM_CHUNK_BYTES // (8 * (n_bins + 8))))
        if n // k >= STREAM_SLICES_FROM:
            return [i * n // k for i in range(k + 1)]
    return [*range(0, n, max(1, STREAM_CHUNK_BYTES // (8 * (n_bins + cap)))), n]


def stream_state(cap):
    """stream_scores's (window, z_past, state) before any event, window size cap."""
    return (np.zeros(cap, dtype=np.int64), np.zeros(cap, dtype=np.float64),
            np.zeros(1, dtype=np.int64))


def stream_scores(values, lo, width, n_bins, alpha, kappa, warmup,
                  window, z_past, state):
    """Score a batch of sensor values against carried detector state.

    Each value's score is the change in entropy (bits) of the smoothed
    next-symbol predictive when its bin enters the sliding window (a full
    window evicts its oldest symbol in the same update). Returns per-event
    (bin, z, rolling_mean, rolling_std, flagged) arrays and advances the
    state in place: state is int64 [n_seen]; window and z_past hold the
    last min(n_seen, cap) bins and scores, oldest first.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("stream values must be a 1-D array")
    if not np.isfinite(values).all():
        raise ValueError("stream values must be finite")
    n = values.shape[0]
    bounds = _stream_bounds(n, window.shape[0], n_bins)
    if len(bounds) == 2:  # one chunk, e.g. an online ingest: no output copies
        return _stream_chunk(values, lo, width, n_bins, alpha, kappa, warmup,
                             window, z_past, state)
    outs = (np.empty(n, dtype=np.int64), np.empty(n), np.empty(n), np.empty(n),
            np.empty(n, dtype=np.bool_))
    for a, b in zip(bounds, bounds[1:]):
        got = _stream_chunk(values[a:b], lo, width, n_bins, alpha, kappa,
                            warmup, window, z_past, state)
        for out, part in zip(outs, got):
            out[a:b] = part
    return outs
