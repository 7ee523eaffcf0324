"""Hot numeric kernels in plain numpy.

Determinism notes:
  - walk_outcomes consumes pre-drawn uniforms, or a Draw whose rows it
    draws a chunk at a time as it reads them (the rows of one
    rng.random((n, width)) call, in order, with no (n, width) block held),
    and only compares floats, so its outcome arrays depend on nothing but
    its inputs, and not on how the rows are chunked. Its bucketed
    search (one exact bucket index floor(u * G), then a fixed-length binary
    search over the bucket's thresholds) returns the same successor as
    counting a row's entries <= u, for any u in [0, 1), whatever G and
    whether the table is bucketed or searched by rows, and a batch of
    start states walks each start exactly as a walk from that start alone
    would.
  - stream_scores works on whole arrays but performs, for every event, the
    same float operations in the same order as a per-event loop would
    (math.log2 terms, additions in bin order and in window order), whether
    a batch sums its rolling windows in blocks or slice by slice, so its
    outputs are bitwise independent of how a stream is split into calls or
    chunks. A chunk of n events takes the entropy of each of
    the n + 1 windows it passes through once, from integer bin counts that
    are exact however they are formed; an event's score is the difference
    of its two windows' entropies, as the loop's is.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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

# Byte budget of one chunk of walks, charged per row of uniforms: its int64
# bucket offset, its float64 uniform of the current step as copied out of a
# strided column and, if the uniforms come from a Draw, the row as drawn; and
# per walk, its two int64 state arrays, its float64 probe and its bool hit.
# All of these are allocated once per walk_outcomes call and reused by every
# chunk.
WALK_CHUNK_BYTES = 1 << 20

# Slot budget of a bucketed search table: a table whose guide could exceed
# this many (threshold, successor) slots is searched by its rows instead
# (see _search_table). A 64x64 grid's uniform follow table at slip 0.2
# fits (G = 4: at most 49k slots).
# A fine guide does not pay for its build: a dense 20-state Markov table at
# G = 2048 (82k slots) walked 10k walks of 11 steps in 7.7 ms, 3.2 ms of it
# the build, against 2.8 ms by rows (2-core x86-64, numpy 2.4).
WALK_GUIDE_SLOTS = 1 << 16


class SearchTable(NamedTuple):
    """A (succ, cum) table as walk_outcomes searches it (see _search_table)."""

    thr: np.ndarray
    nxt: np.ndarray
    g: int
    p: int
    built: bool


class Draw:
    """The uniforms of one ``rng.random((n, width))`` draw, width that of
    the walk that reads them, which walk_outcomes draws a row chunk at a
    time as it reads them (draw_rows). len() is its row count, as an
    array's is."""

    def __init__(self, rng: np.random.Generator, n: int):
        self.rng, self.n = rng, n

    def __len__(self) -> int:
        return self.n


def draw_rows(rng, n: int, width: int, rows: int):
    """The rows of ``rng.random((n, width))`` in order, as (a, part) pairs:
    part holds rows a to a + len(part), at most `rows` of them, drawn into
    one C-order buffer that every part reuses. Drawn part after part from
    one stream they are that draw's values, as each float64 takes one
    64-bit word of the stream."""
    buf = np.empty(min(rows, n) * width)
    for a in range(0, n, rows):
        part = buf[:min(rows, n - a) * width].reshape(-1, width)
        rng.random(out=part)
        yield a, part


def _search_halves(k: int) -> tuple:
    """Probe steps of a fixed-length binary search for a count in [0, k - 1]:
    while more than one candidate is left, probe the half'th of them and
    keep len - half. Five candidates (a grid row) take 3 probes, two take 1
    and one takes none."""
    halves = []
    while k > 1:
        halves.append(k // 2)
        k -= k // 2
    return tuple(halves)


def _min_gap(cum) -> float:
    """The smallest gap between two distinct entries of a table row that
    lie strictly between 0 and 1 (inf if no row has two): the only entries a
    uniform in [0, 1) must be compared with. cum is one row or a table's
    rows flattened; no pair across two rows counts, as each row ends at
    1.0."""
    lo, hi = cum[:-1], cum[1:]
    gap = hi - lo
    return float(gap.min(initial=np.inf, where=(lo > 0.0) & (hi < 1.0) & (gap > 0.0)))


def _bucket_count(d: float, cap: int) -> int:
    """The largest power of two G with G * d <= 1, or 0 if it exceeds cap.
    With d a table's smallest gap (_min_gap), a bucket of width 1 / G holds
    at most 2 of a row's distinct entries strictly inside it."""
    g = 1
    while g * 2 * d <= 1.0 and g <= cap:
        g *= 2
    return 0 if g > cap else g


def _search_table(succ, cum) -> SearchTable:
    """(thr, nxt, g, p, built) of an (S, K) (succ, cum) table: a bucketed
    search table, and whether it was built (False for a row table, below).

    [0, 1) is split into g buckets of width 1 / g, g a power of two, so a
    uniform's bucket floor(u * g) is exact. Row r = s * g + b of the flat
    (S * g, p) arrays covers u in bucket b from state s. Its thr slots hold
    the distinct entries of row s strictly inside the bucket, in order,
    padded with 2.0 > u (the last slot is never probed); its nxt slot h
    holds the successor once h of them are <= u, the one that counting all
    of row s's entries <= u picks. So a search over p - 1 thresholds
    replaces one over K - 1 entries.

    g comes from the table's smallest gap (_bucket_count), so p <= 3 and the
    guide has at most S * g * min(K, 3) slots. If that bound exceeds
    WALK_GUIDE_SLOTS, the table is its own search table: thr and nxt are
    cum and succ, flattened, with g = 1 and p = K. The first row's gap
    bounds the table's from above, so a dense table is turned down from
    its first row, with nothing built.

    The build is O(S * (K + g)): the entries <= b / g of each row are
    counted by a bincount and cumsum of ceil(cum * g), exact for a power of
    two, and the successor past a threshold is at the start of the row's
    next run of larger entries.
    """
    succ = np.ascontiguousarray(succ, dtype=np.int64)
    cum = np.ascontiguousarray(cum, dtype=np.float64)
    rows, k = cum.shape
    cap = WALK_GUIDE_SLOTS // (rows * min(k, 3))
    g = _bucket_count(_min_gap(cum[0]), cap)
    cum, succ = cum.ravel(), succ.ravel()
    if g:
        g = _bucket_count(_min_gap(cum), cap)
    if not g:
        return SearchTable(cum, succ, 1, k, False)
    # keys ceil(c * g) + s * (g + 1), an entry past 1.0 (a sum's rounding
    # before the pinned entries) keyed as 1.0, which is never <= u: row s
    # has K entries, so the running count of keys <= s * (g + 1) + b is
    # s * K plus row s's entries <= b / g, the flat index of its first
    # entry > b / g (never its last entry, 1.0)
    keys = np.ceil(np.minimum(cum, 1.0) * g).astype(np.int64)
    keys += np.repeat(np.arange(rows) * (g + 1), k)
    j = np.bincount(keys, minlength=rows * (g + 1)).cumsum()
    j = j.reshape(rows, g + 1)[:, :g].ravel()
    # the flat index at which each run of equal entries starts; past a
    # threshold, the next one is in its row, at latest the row's last 1.0
    runs = np.flatnonzero(cum[1:] != cum[:-1]) + 1
    edge = np.tile(np.arange(1.0, g + 1.0), rows)  # b + 1, for each (s, b)
    thr, nxt = [], [succ[j]]
    t = cum[j]
    inside = t * g < edge
    while inside.any():
        thr.append(np.where(inside, t, 2.0))
        j = np.where(inside, runs.take(np.searchsorted(runs, j, side="right"), mode="clip"), j)
        nxt.append(succ[j])
        t = cum[j]
        inside = t * g < edge
    thr.append(np.full(rows * g, 2.0))
    return SearchTable(np.stack(thr, axis=-1).ravel(), np.stack(nxt, axis=-1).ravel(), g,
                       len(nxt), True)


def walk_outcomes(cum_start, first, n_first, rest, n_rest, u, starts=None) -> np.ndarray:
    """Sample final states of n categorical walks from uniforms in [0, 1).

    cum_start: (S,) cumulative initial distribution. first/rest: the
    SearchTables (_search_table) of two sampling tables, applied n_first
    then n_rest times; a table applied 0 times is not read. u: (n, 1 +
    n_first + n_rest) uniforms in [0, 1), or a Draw of n rows that the walk
    draws a chunk at a time as it reads them. Column 0 draws the start, and
    each step picks the successor in column j, the count of row entries
    <= u (searchsorted side='right').

    starts, if given, is a (c,) array of start states: the start draw is
    skipped (cum_start and column 0 go unused) and each start walks every
    row of u, so the result is (c, n) instead of (n,).

    A step adds the bucket offset floor(u * g) * p to the walk's row start,
    runs a branchless binary search over that row's p - 1 thresholds, each
    round one take, one compare and one add over all walks, and takes the
    successor at the position found. The state is carried as the next
    table's row start s * g * p: a bucketed table's successors are stored
    scaled, and a row table's raw successors are scaled by the next step.
    A grid's follow table has g = 4 and p = 2, so a step is one add, take,
    compare, add and take. The walks go through chunks of rows of u. A step
    whose column of the chunk is strided (a row-major or drawn u holds it
    `width` floats apart) first copies it into one contiguous buffer, so its
    multiply and compares read the uniforms at stride 1; a column-major u's
    columns are read where they lie. The working arrays (see
    WALK_CHUNK_BYTES) are allocated once per call.
    """
    width = 1 + n_first + n_rest
    drawn = isinstance(u, Draw)
    if not drawn:
        u = np.asarray(u, dtype=np.float64)
        if u.ndim != 2 or u.shape[1] != width:
            raise ValueError("uniform array width does not match walk length")
    n = len(u)
    if starts is not None:
        starts = np.asarray(starts, dtype=np.int64)[:, None]
    tables = first, rest
    order = [0] * n_first + [1] * n_rest
    # A walk's state is the row start s * g * p of its next step's table, or
    # raw (stride 1) after a row table's step and at the end. Per step:
    # (thr, successors, factor the incoming state still needs, halves, g, p).
    strides = [tables[t].g * tables[t].p for t in order] + [1]
    steps, scaled, carried = [], {}, 1
    for t, stride, after in zip(order, strides, strides[1:]):
        thr, nxt, g, p, built = tables[t]
        mul = stride // carried
        if built:
            if (t, after) not in scaled:
                scaled[t, after] = nxt * after if after > 1 else nxt
            nxt, carried = scaled[t, after], after
        else:
            carried = 1
        steps.append((thr, nxt, mul, _search_halves(p), g, p))
    walks = 1 if starts is None else len(starts)
    out = np.empty((walks, n), dtype=np.int64)
    chunk = max(1, min(n, WALK_CHUNK_BYTES // (16 + 8 * width * drawn + 25 * walks)))
    state, spare = np.empty((2, walks * chunk), dtype=np.int64)
    probe = np.empty(walks * chunk)
    hit = np.empty(walks * chunk, dtype=np.bool_)
    offset = np.empty(chunk, dtype=np.int64)
    column = np.empty(chunk)
    if drawn:
        parts = draw_rows(u.rng, n, width, chunk)
    else:
        parts = ((a, u[a:a + chunk]) for a in range(0, n, chunk))
    for a, part in parts:
        size = part.shape[0]
        ut = part.T
        cur, other, found, le = (buf[:walks * size].reshape(walks, size)
                                 for buf in (state, spare, probe, hit))
        cur[...] = np.searchsorted(cum_start, ut[0], side="right") if starts is None else starts
        off, copy = offset[:size], column[:size]
        for x, (thr, nxt, mul, halves, g, p) in zip(ut[1:], steps):
            if not x.flags.contiguous:
                np.copyto(copy, x)
                x = copy
            if mul > 1:
                np.multiply(cur, mul, out=cur)
            if g > 1:  # bucket offset floor(u * g) * p; the cast truncates u * g >= 0
                np.multiply(x, g, out=off, casting="unsafe")
                off *= p
                np.add(cur, off, out=cur)
            for half in halves:
                # thr[half - 1:] at cur is the row's (h + half - 1)th threshold
                thr[half - 1:].take(cur, out=found, mode="clip")
                np.less_equal(found, x, out=le)
                np.add(cur, le if half == 1 else le * half, out=cur)
            nxt.take(cur, out=other, mode="clip")
            cur, other = other, cur
        out[:, a:a + size] = cur
    return out[0] if starts is None else out


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

# Bytes charged per scoring chunk, so a long stream's peak memory does not
# grow with its length. A chunk is charged what it holds at its peak by
# tracemalloc (numpy 2.4), 8 * (3 * bins + 3) bytes per event: its
# (events + 1, bins) counts and _entropy_bits's per-bin terms and their
# running sums, and over a filling window its presence mask (stream_scores).
# A short batch's rolling stats fill (events, window) blocks of at most this
# many bytes, 8 * window per event.
STREAM_CHUNK_BYTES = 1 << 18

# Batches of at least this many events sum their rolling windows as slices,
# shorter ones (an online ingest among them) as blocks. Both do
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
    del seen  # freed before the per-bin terms, as stream_scores charges it
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
    """Rolling mean and std of n events from an (n, cap) block whose row i
    is zseq[first + i:first + i + cap], summed along the row by cumsum. The
    block is a strided view of zseq, so the deviations and their running
    sums fill one (n, cap) buffer: a few numpy calls and 8 * cap bytes per
    event, for short batches."""
    step = zseq.itemsize  # zseq is contiguous: row i starts one float after row i - 1
    block = np.ndarray((n, cap), zseq.dtype, zseq, first * step, (step, step))
    z_count = np.minimum(np.arange(first, first + n), cap)
    acc = block.cumsum(axis=1)
    mean = acc[:, -1] / z_count
    np.subtract(block, mean[:, None], out=acc)
    acc *= acc
    if first < cap:  # the padding of rows whose window is not yet full
        acc[np.arange(cap) < (cap - z_count)[:, None]] = 0.0
    acc.cumsum(axis=1, out=acc)
    return mean, np.sqrt(acc[:, -1] / z_count)


def _rolling_slices(zseq, first, n, cap):
    """_rolling_block's sums column by column. Column j of its block is the
    contiguous slice zseq[first + j:first + j + n], so adding the cap slices
    to a running total in order adds each row's entries as cumsum does.
    About 5 * cap numpy calls over a few columns of n floats, for long
    batches; the mean and std are formed in the two running sums."""
    z_count = np.arange(first, first + n)
    np.minimum(z_count, cap, out=z_count)
    total = zseq[first:first + n].copy()
    for j in range(first + 1, first + cap):
        total += zseq[j:j + n]
    total /= z_count  # the mean
    # 0.0 + the first square is that square, as a square is never -0.0
    sq = np.zeros(n)
    d = np.empty(n)
    for j in range(cap):
        np.subtract(zseq[first + j:first + j + n], total, out=d)
        d *= d
        d[:max(cap - first - j, 0)] = 0.0  # the rows whose column j is padding
        sq += d
    sq /= z_count
    return total, np.sqrt(sq, out=sq)


def _stream_chunk(bins, n_bins, alpha, window, n_seen, z):
    """Write the scores of a chunk of binned events into z, and advance the
    carried window (the last min(n_seen, cap) bins, oldest first) past
    them.

    Event i moves the window from W_i to W_{i + 1}, so the entropies of
    W_0..W_n give every score. Row t of counts holds W_t's bin counts: the
    carried window's, plus one for each of the first t new bins, minus one
    for each symbol of seq (carried window, oldest first, then the new
    bins) that has left. The first n_out symbols leave, one per row from
    1 + n - n_out on."""
    cap = window.shape[0]
    live = min(n_seen, cap)
    n = bins.shape[0]
    seq = np.concatenate((window[:live], bins))
    n_out = max(live + n - cap, 0)
    counts = np.zeros((n + 1, n_bins), dtype=np.int64)
    counts[0] = np.bincount(window[:live], minlength=n_bins)
    counts[np.arange(1, n + 1), bins] = 1
    counts[np.arange(1 + n - n_out, n + 1), seq[:n_out]] -= 1
    counts.cumsum(axis=0, out=counts)
    h = _entropy_bits(counts, live, cap, n_bins, alpha)
    np.subtract(h[1:], h[:-1], out=z)
    new_live = min(live + n, cap)
    window[:new_live] = seq[seq.shape[0] - new_live:]


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

    The batch is scored in chunks within STREAM_CHUNK_BYTES (_stream_chunk),
    a chunk over a filling window within it with its presence mask too;
    then the rolling stats of all its events are taken at once, as slices
    from STREAM_SLICES_FROM events on and otherwise as blocks within
    STREAM_CHUNK_BYTES.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("stream values must be a 1-D array")
    if not np.isfinite(values).all():
        raise ValueError("stream values must be finite")
    cap = window.shape[0]
    n_seen = int(state[0])
    live = min(n_seen, cap)  # bins in the window, and scores in z_past
    n = values.shape[0]
    bins = stream_bins(values, lo, width, n_bins)

    # zseq is cap zeros, the past scores, then the batch's: event i's
    # rolling window, the last <= cap scores with its own, is
    # zseq[live + 1 + i:live + 1 + i + cap], oldest first, behind zeros while
    # fewer than cap scores exist (zero squared deviations there too), so
    # each sum adds 0.0 first and then the live scores in the loop's order
    zseq = np.zeros(cap + live + n)
    zseq[cap:cap + live] = z_past[:live]
    z = zseq[cap + live:]
    size = max(1, STREAM_CHUNK_BYTES // (8 * (3 * n_bins + 3)))
    a = 0
    while a < n:
        b, first = min(a + size, n), min(n_seen + a, cap)
        # halved until _entropy_bits's presence mask, (first + span) * span bools,
        # fits the budget beside the counts and keys it is held with (16 * bins a row)
        while b - a > 1 and ((span := min(b - a, cap - first) + 1) * (first + span)
                             + 16 * n_bins * (b - a + 1) > STREAM_CHUNK_BYTES):
            b = a + (b - a) // 2
        _stream_chunk(bins[a:b], n_bins, alpha, window, n_seen + a, z[a:b])
        a = b

    if n >= STREAM_SLICES_FROM:
        mean, std = _rolling_slices(zseq, live + 1, n, cap)
    else:
        rows = max(1, STREAM_CHUNK_BYTES // (8 * cap))
        if n <= rows:  # e.g. an online ingest: one block, no output copies
            mean, std = _rolling_block(zseq, live + 1, n, cap)
        else:
            mean, std = np.empty(n), np.empty(n)
            for a in range(0, n, rows):
                b = min(a + rows, n)
                mean[a:b], std[a:b] = _rolling_block(zseq, live + 1 + a, b - a, cap)
    flag = z > mean + kappa * std
    if n_seen < warmup:
        flag &= np.arange(n) >= warmup - n_seen

    # carried scores: the last <= cap, oldest first
    new_live = min(live + n, cap)
    z_past[:new_live] = zseq[zseq.shape[0] - new_live:]
    state[0] = n_seen + n
    return bins, z, mean, std, flag
