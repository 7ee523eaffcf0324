"""The numpy kernels against their per-element loop references.

The walk kernel only compares pre-drawn floats, and the stream kernel does
each event's float operations in the loop's order, so both must agree with
their references in tests/oracles.py bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zentropy import _kernels
from zentropy._kernels import cumulative, stream_scores, stream_state, walk_outcomes
from zentropy.markov import MarkovChainModel
from zentropy.mdp_sim import (
    GridWorld,
    _action_matrix,
    _sampling_table,
    uniform_policy,
)

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
    first = _sampling_table(g, _action_matrix("right"))
    rest = _sampling_table(g, uniform_policy(g))
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
    # 8 * (window + bins) bytes per event: 36-event chunks
    monkeypatch.setattr(_kernels, "STREAM_CHUNK_BYTES", 20_000)
    chunked = kernel_stream(values, **kw)
    assert_bitwise(chunked, whole)
    assert_bitwise(whole, reference_stream(values, **kw))
    assert whole[4].any()


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
        assert state[2].tolist() == [8, 8, sum(len(o[0]) for o in got)]
    assert_bitwise(tuple(np.concatenate(col) for col in zip(*got)),
                   reference_stream(values))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stream_rejects_non_finite_values(bad):
    state = fresh_state(8)
    with pytest.raises(ValueError):
        stream_scores(np.array([1.0, bad]), 0.0, 1.0, 4, 1.0, 3.0, 8, *state)
    assert state[2][2] == 0
