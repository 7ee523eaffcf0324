"""The numpy kernels against their per-element loop references.

The walk kernel only compares pre-drawn floats, and the stream kernel does
each event's float operations in the loop's order, so both must agree with
their references in tests/oracles.py bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zentropy import _kernels
from zentropy._kernels import cumulative, stream_scores, stream_state, walk_outcomes
from zentropy.markov import MarkovChainModel, random_chain_model
from zentropy.mdp_sim import (
    ACTIONS,
    GridWorld,
    _action_matrix,
    _first_rows,
    _step_tables,
    uniform_policy,
)
from zentropy.rl_agent import greedy_policy_from_q

from oracles import stream_scores_loop, walk_outcomes_loop


def dense_table(rng, size):
    """A K = size table over random dense rows: every state is a successor."""
    m = rng.random((size, size)) + 1e-3
    m /= m.sum(axis=1, keepdims=True)
    return np.broadcast_to(np.arange(size), (size, size)), cumulative(m)


def grid_tables(size):
    """K = 5 tables of a size x size grid with walls (a first action, then
    the uniform policy) and a start spread over its free cells."""
    g = GridWorld(size, size, goal=(0, size - 1), start=(0, 0), slip=0.2,
                  walls={(1, 0), (size // 2, size // 2)})
    first = _step_tables(g, _action_matrix("right"))[0]
    rest = _step_tables(g, uniform_policy(g))[0]
    start = np.zeros(g.n_cells)
    start[[g.index_of(c) for c in g.free_cells()]] = 1.0 / len(g.free_cells())
    return cumulative(start), first, rest


@pytest.mark.parametrize("size,n,k", [(2, 500, 1), (17, 400, 3), (64, 300, 5)])
def test_walk_paths_agree_bitwise(size, n, k):
    """On a dense K = S table and on a K = 5 grid table of size x size cells."""
    rng = np.random.default_rng(99)
    dense = (cumulative(np.full(size, 1.0 / size)), dense_table(rng, size),
             dense_table(rng, size))
    for cum_start, first, rest in (dense, grid_tables(size)):
        u = rng.random((n, 1 + 1 + k))
        out_loop = np.empty(n, dtype=np.int64)
        walk_outcomes_loop(cum_start, first, 1, rest, k, u, out_loop)
        assert np.array_equal(walk_outcomes(cum_start, first, 1, rest, k, u), out_loop)


def random_table(rng, n_states, k, zeros):
    """A (succ, cum) table from cumulative(): n_states rows of k random
    successors, each row with the columns in `zeros` (clipped to the row)
    at probability 0, kept non-empty, and some rows given a tiny last mass."""
    succ = rng.integers(0, n_states, (n_states, k))
    p = rng.random((n_states, k)) + 1e-3
    p[:, [c for c in zeros if c < k]] = 0.0
    empty = ~(p > 0.0).any(axis=1)
    p[empty, rng.integers(0, k, int(empty.sum()))] = 1.0
    tiny = rng.random(n_states) < 0.3
    last = k - 1 - np.argmax(p[:, ::-1] > 0.0, axis=1)
    p[tiny, last[tiny]] = 1e-13
    return succ, cumulative(p / p.sum(axis=1, keepdims=True))


@given(
    seed=st.integers(0, 2**32 - 1),
    n_states=st.integers(1, 70),
    kind=st.sampled_from(["point", "grid", "dense"]),
    zeros=st.sets(st.sampled_from([0, 1, 2, 3, 4, 9, 34, 68, 69]), max_size=3),
    n_first=st.integers(0, 2),
    n_rest=st.integers(0, 5),
    n=st.integers(0, 200),
    leading_zeros=st.integers(0, 5),
    chunk_bytes=st.sampled_from([1, 300, 2000, 1 << 20]),
    guide_slots=st.sampled_from([0, _kernels.WALK_GUIDE_SLOTS, 1 << 20]),
)
def test_walk_kernel_matches_loop_bitwise(seed, n_states, kind, zeros, n_first,
                                          n_rest, n, leading_zeros, chunk_bytes,
                                          guide_slots):
    """The bucketed search equals counting a row's entries <= u, on K = 1,
    K = 5 and dense K = S tables, searched by rows (a slot budget of 0) or
    by buckets, with ties at table entries, just below them, at 0.0 and at
    bucket edges b / G, walks from a drawn start law and from a batch of
    start states, with tables given as (succ, cum) or as prebuilt search
    tables, with uniforms given as an array or drawn as they are read, and
    n split into several chunks."""
    rng = np.random.default_rng(seed)
    k = {"point": 1, "grid": 5, "dense": n_states}[kind]
    first = random_table(rng, n_states, k, zeros)
    rest = random_table(rng, n_states, k, zeros)
    start = rng.random(n_states)
    start[:min(leading_zeros, n_states - 1)] = 0.0
    cum_start = cumulative(start / start.sum())
    u = rng.random((n, 1 + n_first + n_rest))
    tie = rng.random(u.shape) < 0.4
    u[tie] = rng.choice(tie_values(cum_start, first[1], rest[1]), int(tie.sum()))
    starts = rng.integers(0, n_states, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "WALK_CHUNK_BYTES", chunk_bytes)
        mp.setattr(_kernels, "WALK_GUIDE_SLOTS", guide_slots)
        got = walk_outcomes(cum_start, first, n_first, rest, n_rest, u)
        batch = walk_outcomes(None, first, n_first, rest, n_rest, u, starts)
        built = walk_outcomes(None, _kernels._search_table(*first), n_first,
                              _kernels._search_table(*rest), n_rest, u, starts)
        drawn = walk_outcomes(cum_start, first, n_first, rest, n_rest,
                              _kernels.Draw(np.random.default_rng(seed), n))
    want = np.empty(n, dtype=np.int64)
    walk_outcomes_loop(cum_start, first, n_first, rest, n_rest,
                       np.random.default_rng(seed).random(u.shape), want)
    assert np.array_equal(drawn, want)
    walk_outcomes_loop(cum_start, first, n_first, rest, n_rest, u, want)
    assert np.array_equal(got, want)
    assert batch.shape == (3, n) and np.array_equal(built, batch)
    for s, row in zip(starts, batch):
        walk_outcomes_loop(cumulative(np.eye(n_states)[s]), first, n_first, rest,
                           n_rest, u, want)
        assert np.array_equal(row, want)


def tie_values(*cums, max_g=2**11):
    """Uniforms at which a search decides: every distinct entry below 1.0 of
    the cumulative arrays cums, the float just below each, and the bucket
    edges b / G of every G up to max_g (0.0 among them)."""
    entries = np.unique(np.concatenate([np.ravel(c) for c in cums]))
    entries = entries[entries < 1.0]
    edges = np.concatenate([np.arange(g) / g for g in 2 ** np.arange(max_g.bit_length())])
    return np.concatenate((entries, np.nextafter(entries, 0.0), edges,
                           np.nextafter(edges[edges > 0.0], 0.0)))


@pytest.mark.parametrize("slip", [0.0, 0.2, 0.5])
def test_grid_tables_take_one_threshold_per_bucket(slip):
    """Every follow table and the one-hot first-step rows of a grid (every
    (cell, action) row, as z_table builds them) are bucketed with at most
    one threshold per bucket (p <= 2), so a step takes at most one
    compare: G = 1 for one-hot rows, and G = 4 for the uniform policy at
    slip 0.2. At slip 0 and at the uniform policy's slip 0.5 every entry
    is a bucket edge, and a step takes no compare. Walks on them equal the
    loop, with every uniform a tie."""
    g = GridWorld(6, 5, goal=(5, 4), start=(0, 0), slip=slip, walls={(2, 2), (3, 1)})
    succ, probs = _first_rows(g, np.arange(g.n_cells), ACTIONS)
    first = succ, cumulative(probs)
    found = {"first": _kernels._search_table(*first)}
    # follow policies: uniform, fixed, and one-hot greedy varying by cell
    pols = {"uniform": uniform_policy(g),
            "fixed": np.tile(_action_matrix("right"), (g.n_cells, 1)),
            "greedy": greedy_policy_from_q(np.random.default_rng(1).random((g.n_cells, 4)))}
    for name, pol in pols.items():
        rest = _step_tables(g, pol)[0]
        found[name] = _kernels._search_table(*rest)
        u = tie_values(first[1], rest[1], max_g=16)
        u = np.stack([np.random.default_rng(c).permutation(u) for c in range(4)], axis=1)
        starts = np.arange(len(first[1]))  # every (cell, action) row
        want = np.empty(len(u), dtype=np.int64)
        for s, row in zip(starts, walk_outcomes(None, first, 1, rest, 2, u, starts)):
            walk_outcomes_loop(cumulative(np.eye(len(starts))[s]), first, 1, rest, 2, u, want)
            assert np.array_equal(row, want)
    want_g = {name: 1 for name in found} | {"uniform": {0.0: 4, 0.2: 4, 0.5: 8}[slip]}
    want_p = {name: 1 if slip == 0.0 else 2 for name in found}
    want_p["uniform"] = 2 if slip == 0.2 else 1
    for name, (thr, nxt, g_, p, built) in found.items():
        assert (g_, p, built) == (want_g[name], want_p[name], True), name


def test_dense_markov_table_is_searched_by_rows_without_a_build(monkeypatch):
    """A dense 200-state table's gaps are far too fine for any bucket
    budget: it is searched by its own rows, decided from its first row,
    with no copy of cum."""
    succ, cum = random_chain_model(200, 4, np.random.default_rng(0))._base_table
    seen = []
    gap = _kernels._min_gap
    monkeypatch.setattr(_kernels, "_min_gap", lambda cum: seen.append(cum.shape) or gap(cum))
    thr, nxt, g, p, built = _kernels._search_table(succ, cum)
    assert (g, p, built) == (1, 200, False)
    assert np.shares_memory(thr, cum) and np.array_equal(nxt, succ.ravel())
    assert seen == [(200,)]  # the first row alone


def test_walk_entry_past_one_stays_in_its_row():
    """A last row whose running sum passes 1.0 by an ulp before its pinned
    1.0 entry: that entry is bucketed as 1.0, never <= u and keyed within
    its row, and walks from every state equal the loop."""
    cum = np.array([[0.25, 0.75, 1.0], [0.5, 1.0, 1.0], [0.375, 1.0 + 2.0**-52, 1.0]])
    table = (np.broadcast_to(np.arange(3), (3, 3)), cum)
    assert _kernels._search_table(*table)[2:] == (2, 2, True)
    u = tie_values(cum, max_g=4)
    u = np.stack([np.random.default_rng(c).permutation(u) for c in range(3)], axis=1)
    want = np.empty(len(u), dtype=np.int64)
    for s, row in enumerate(walk_outcomes(None, table, 1, table, 1, u, np.arange(3))):
        walk_outcomes_loop(np.eye(3)[s].cumsum(), table, 1, table, 1, u, want)
        assert np.array_equal(row, want)


def test_walk_uniform_width_must_match():
    table = (np.broadcast_to(np.arange(3), (3, 3)), cumulative(np.eye(3)))
    with pytest.raises(ValueError):
        walk_outcomes(cumulative(np.ones(3) / 3), table, 1, table, 2, np.zeros((5, 2)))


def test_cumulative_rows_pin_last_column():
    m = np.full((4, 4), 0.25)
    cum = cumulative(m)
    assert np.all(cum[:, -1] == 1.0)
    assert np.all(np.diff(cum, axis=1) >= 0)


def test_cumulative_pins_from_the_last_nonzero_probability():
    cum = cumulative([[0.0, 0.5, 0.0, 0.5, 0.0], [0.25, 0.25, 0.25, 0.25, 0.0]])
    assert cum.tolist() == [[0.0, 0.5, 0.5, 1.0, 1.0], [0.25, 0.5, 0.75, 1.0, 1.0]]
    assert cumulative([0.0, 1.0, 0.0]).tolist() == [0.0, 1.0, 1.0]


def test_zero_probability_outcome_never_sampled():
    # the cumsum of this validated row ends one ulp below 1.0 at its last
    # nonzero entry, so pinning only the last column let u = 1 - 2**-53
    # draw state 3, which has probability 0
    row = [0.364335, 0.5794683, 0.0561967, 0.0]
    model = MarkovChainModel([row] * 4, {}, row)
    assert model.start.probs.cumsum()[2] < 1.0
    assert model.transition[0].cumsum()[2] < 1.0
    table = (np.broadcast_to(np.arange(4), (4, 4)), cumulative(model.transition))
    u = np.full((1, 2), np.nextafter(1.0, 0.0))
    # start vector
    assert walk_outcomes(cumulative(model.start.probs), table, 0, table, 0, u[:, :1])[0] == 2
    # transition row, from a start pinned to state 0
    assert walk_outcomes(cumulative([1.0, 0.0, 0.0, 0.0]), table, 0, table, 1, u)[0] == 2


def test_leading_zero_probability_outcome_never_sampled():
    # u = 0.0 ties with the cumulative 0.0 of a leading zero-probability
    # entry; counting entries <= u moves past it
    succ = np.broadcast_to(np.arange(3), (3, 3))
    table = (succ, cumulative([[0.0, 0.0, 1.0]] * 3))
    u = np.zeros((1, 2))
    assert walk_outcomes(cumulative([0.0, 0.5, 0.5]), table, 0, table, 0, u[:, :1])[0] == 1
    assert walk_outcomes(cumulative([0.0, 0.5, 0.5]), table, 0, table, 1, u)[0] == 2


def fresh_state(window):
    """(window, z_past, state) of an empty stream, as StreamDetector holds it."""
    return stream_state(window)


def reference_stream(values, window=8, bins=4, alpha=1.0, kappa=3.0, warmup=8,
                     lo=0.0, width=1.0):
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    outs = (np.empty(n, dtype=np.int64), np.empty(n), np.empty(n), np.empty(n),
            np.empty(n, dtype=np.bool_))
    stream_scores_loop(values, lo, width, bins, alpha, kappa, warmup,
                       *fresh_state(window), *outs)
    return outs


def kernel_stream(values, cuts=(), window=8, bins=4, alpha=1.0, kappa=3.0,
                  warmup=8, lo=0.0, width=1.0):
    """stream_scores over the pieces of `values` split at `cuts`, with the
    state carried from one call to the next."""
    values = np.asarray(values, dtype=np.float64)
    state = fresh_state(window)
    pieces = np.split(values, sorted(cuts))
    parts = [stream_scores(p, lo, width, bins, alpha, kappa, warmup, *state)
             for p in pieces]
    return tuple(np.concatenate(col) for col in zip(*parts))


def assert_bitwise(got, want):
    for name, g, w in zip(("bin", "z", "mean", "std", "flag"), got, want):
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name


def test_stream_python_path_is_deterministic():
    rng = np.random.default_rng(3)
    values = rng.random(300) * 4.0
    assert_bitwise(kernel_stream(values), kernel_stream(values))


# one piece per example: window - 1, window, window + 1 and >> window events,
# then the last block-form length, the first slice-form one and one past it,
# and a piece long enough for several slice-form chunks
@example(window=8, bins=4, alpha=1.0, kappa=3.0, extra_warmup=0, seed=1, n=7, cuts=[])
@example(window=8, bins=4, alpha=1.0, kappa=3.0, extra_warmup=0, seed=2, n=8, cuts=[])
@example(window=8, bins=4, alpha=1.0, kappa=3.0, extra_warmup=0, seed=3, n=9, cuts=[])
@example(window=24, bins=3, alpha=0.5, kappa=1.0, extra_warmup=2, seed=4, n=2000, cuts=[])
@example(window=24, bins=5, alpha=1.0, kappa=2.0, extra_warmup=0, seed=5,
         n=_kernels.STREAM_SLICES_FROM - 1, cuts=[])
@example(window=24, bins=5, alpha=1.0, kappa=2.0, extra_warmup=0, seed=6,
         n=_kernels.STREAM_SLICES_FROM, cuts=[])
@example(window=24, bins=5, alpha=1.0, kappa=2.0, extra_warmup=0, seed=7,
         n=_kernels.STREAM_SLICES_FROM + 1, cuts=[])
@example(window=16, bins=9, alpha=1.0, kappa=3.0, extra_warmup=5, seed=8, n=6000, cuts=[])
@given(
    window=st.integers(8, 24),
    bins=st.integers(2, 9),
    alpha=st.floats(0.05, 4.0),
    kappa=st.floats(0.05, 4.0),
    extra_warmup=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 400),
    cuts=st.lists(st.integers(0, 400), max_size=6),
)
def test_stream_kernel_matches_loop_bitwise(window, bins, alpha, kappa,
                                            extra_warmup, seed, n, cuts):
    # values spill past [lo, hi) on both sides, so the edge bins clamp
    rng = np.random.default_rng(seed)
    values = rng.random(n) * 6.0 - 1.0
    edge = rng.random(n) < 0.3
    values[edge] = rng.choice([0.0, 1.0, 4.0, -50.0, 1e6], int(edge.sum()))
    kw = dict(window=window, bins=bins, alpha=alpha, kappa=kappa,
              warmup=window + extra_warmup, width=4.0 / bins)
    want = reference_stream(values, **kw)
    got = kernel_stream(values, [c for c in cuts if c <= n], **kw)
    assert_bitwise(got, want)


def test_stream_chunks_equal_one_pass(monkeypatch):
    rng = np.random.default_rng(21)
    values = rng.random(3000) * 4.0
    values[1500:] = rng.integers(2, 4, 1500) + 0.5   # a regime shift
    kw = dict(window=64, bins=4, warmup=64)
    monkeypatch.setattr(_kernels, "STREAM_CHUNK_BYTES", 1 << 40)
    whole = kernel_stream(values, **kw)
    # slice-form chunks are charged 8 * (bins + 8) bytes per event: at most
    # 416 events, so 8 slice-form chunks of 375
    monkeypatch.setattr(_kernels, "STREAM_CHUNK_BYTES", 40_000)
    assert _kernels._stream_bounds(3000, 64, 4) == list(range(0, 3001, 375))
    chunked = kernel_stream(values, **kw)
    assert_bitwise(chunked, whole)
    # 208-event slice-form chunks would be too short, so 36-event block-form
    # chunks, at 8 * (bins + window) bytes per event
    monkeypatch.setattr(_kernels, "STREAM_CHUNK_BYTES", 20_000)
    assert _kernels._stream_bounds(3000, 64, 4) == [*range(0, 3000, 36), 3000]
    assert_bitwise(kernel_stream(values, **kw), whole)
    assert_bitwise(whole, reference_stream(values, **kw))
    assert whole[4].any()


def wide_values(seed, n, regime):
    """Values over [0, 4), some spilling past both edges, in alternating
    regimes of `regime` events: noise, then a constant that fills one bin,
    so the noise after it raises flags."""
    rng = np.random.default_rng(seed)
    values = rng.random(n) * 4.0
    edge = rng.random(n) < 0.05
    values[edge] = rng.choice([-3.0, 9.0], int(edge.sum()))
    values[(np.arange(n) // regime) % 2 == 1] = 0.5
    return values


# wide detectors: block-form chunks of 25 events at (1024, 256) and of 102
# at (64, 256); at (1024, 4), warm-up fills most of the first of two
# 1500-event slice-form chunks, or all of a 299-event one after the first cut
@pytest.mark.parametrize("window, bins, n", [(1024, 256, 2600), (64, 256, 900),
                                             (1024, 4, 3000)])
def test_stream_kernel_matches_loop_at_wide_detectors(window, bins, n):
    values = wide_values(window + bins, n, window + 200)
    kw = dict(window=window, bins=bins, warmup=window, width=4.0 / bins)
    want = reference_stream(values, **kw)
    assert want[4].any()
    assert_bitwise(kernel_stream(values, **kw), want)
    assert_bitwise(kernel_stream(values, [1, 300, window - 1, window + 1], **kw), want)


@given(
    window=st.integers(8, 80),
    bins=st.integers(2, 48),
    budget=st.integers(64, 1 << 16),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 700),
    cuts=st.lists(st.integers(0, 700), max_size=4),
)
def test_stream_kernel_matches_loop_under_any_chunk_budget(window, bins, budget, seed,
                                                           n, cuts):
    # budgets from one-event block-form chunks to slice-form chunks of
    # hundreds of events, with split points on top
    values = wide_values(seed, n, window + 20)
    kw = dict(window=window, bins=bins, warmup=window, width=4.0 / bins)
    want = reference_stream(values, **kw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "STREAM_CHUNK_BYTES", budget)
        got = kernel_stream(values, [c for c in cuts if c <= n], **kw)
    assert_bitwise(got, want)


def test_a_chunk_of_n_events_takes_the_entropy_of_n_plus_one_windows(monkeypatch):
    shapes = []

    def spy(counts, *args, real=_kernels._entropy_bits):
        shapes.append(counts.shape)
        return real(counts, *args)

    monkeypatch.setattr(_kernels, "_entropy_bits", spy)
    state = fresh_state(64)
    values = wide_values(23, 1200, 100)
    for piece in np.split(values, [1, 40, 340]):   # one chunk each
        stream_scores(piece, 0.0, 1.0, 4, 1.0, 3.0, 64, *state)
    assert shapes == [(2, 4), (40, 4), (301, 4), (861, 4)]


@given(cap=st.integers(1, 70), live=st.integers(0, 70), n=st.integers(1, 600),
       scale=st.sampled_from([1e-3, 1.0, 3e5]), seed=st.integers(0, 2**32 - 1))
def test_rolling_slices_equal_the_block_bitwise(cap, live, n, scale, seed):
    # scores that are not exact differences of entropies, so the order of
    # every addition shows in the bits (stream scores often sum exactly)
    rng = np.random.default_rng(seed)
    live = min(live, cap)
    z = rng.standard_normal(live + n) * scale
    z[rng.random(live + n) < 0.1] = 0.0
    z[rng.random(live + n) < 0.05] = -0.0
    zseq = np.concatenate((np.zeros(cap), z))
    block = _kernels._rolling_block(zseq, live + 1, n, cap)
    slices = _kernels._rolling_slices(zseq, live + 1, n, cap)
    for got, want in zip(slices, block):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_stream_sums_short_chunks_as_a_block_and_long_ones_as_slices(monkeypatch):
    # an online ingest gathers one small block and makes no per-slice calls
    calls = []
    for name in ("_rolling_block", "_rolling_slices"):
        def spy(zseq, first, n, cap, name=name, real=getattr(_kernels, name)):
            calls.append((name, n))
            return real(zseq, first, n, cap)
        monkeypatch.setattr(_kernels, name, spy)
    state = fresh_state(64)
    first = _kernels.STREAM_SLICES_FROM
    for n in (1, first - 1, first, 2000):
        stream_scores(np.ones(n), 0.0, 1.0, 4, 1.0, 3.0, 64, *state)
    assert calls == [("_rolling_block", 1), ("_rolling_block", first - 1),
                     ("_rolling_slices", first), ("_rolling_slices", 2000)]


def test_stream_reads_ring_state_left_by_the_loop():
    # loop and kernel take turns on one state; each piece but the first
    # starts from full windows that the other one left
    rng = np.random.default_rng(22)
    values = rng.random(200) * 4.0
    state = fresh_state(8)
    got = []
    for piece, use_loop in zip(np.split(values, [13, 50, 91, 140]), [1, 0, 1, 0, 1]):
        if use_loop:
            outs = (np.empty(len(piece), dtype=np.int64), np.empty(len(piece)),
                    np.empty(len(piece)), np.empty(len(piece)),
                    np.empty(len(piece), dtype=np.bool_))
            stream_scores_loop(piece, 0.0, 1.0, 4, 1.0, 3.0, 8, *state, *outs)
        else:
            outs = stream_scores(piece, 0.0, 1.0, 4, 1.0, 3.0, 8, *state)
        got.append(outs)
        assert state[2].tolist() == [sum(len(o[0]) for o in got)]
    assert_bitwise(tuple(np.concatenate(col) for col in zip(*got)),
                   reference_stream(values))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stream_rejects_non_finite_values(bad):
    state = fresh_state(8)
    with pytest.raises(ValueError):
        stream_scores(np.array([1.0, bad]), 0.0, 1.0, 4, 1.0, 3.0, 8, *state)
    assert state[2][0] == 0
