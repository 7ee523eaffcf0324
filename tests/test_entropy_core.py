import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zentropy.entropy_core import (
    Distribution,
    SampleCounts,
    _entropy_of_probs,
    _row_entropies,
    normalized_probs,
    joint_product,
    miller_madow_entropy,
    plugin_entropy,
    renyi_entropy,
    shannon_entropy,
)
from zentropy.errors import (
    EmptyCountsError,
    InvalidAlphaError,
    InvalidDistributionError,
)

from oracles import entropy_bits


def dist(*probs):
    return Distribution(tuple(range(len(probs))), probs)


@st.composite
def distributions(draw, max_support=32):
    n = draw(st.integers(min_value=1, max_value=max_support))
    weights = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                            min_size=n, max_size=n))
    total = sum(weights)
    return dist(*[w / total for w in weights])


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(InvalidDistributionError):
            dist(1.2, -0.2)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidDistributionError):
            dist(0.5, 0.4)

    def test_renormalizes_within_tolerance(self):
        d = dist(0.5, 0.5 + 5e-10)
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvalidDistributionError):
            Distribution(("a", "a"), [0.5, 0.5])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidDistributionError):
            Distribution(("a", "b", "c"), [0.5, 0.5])

    def test_probs_are_immutable(self):
        d = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_point_and_uniform(self):
        assert Distribution.point("x", ("x", "y")).prob_of("x") == 1.0
        assert Distribution.uniform(("a", "b", "c", "d")).prob_of("b") == 0.25


class TestShannon:
    def test_uniform_four(self):
        assert shannon_entropy(Distribution.uniform(range(4))).value == pytest.approx(2.0)

    def test_point_mass(self):
        assert shannon_entropy(dist(1.0)).value == 0.0

    def test_binary_golden(self):
        # h(0.1), frozen from direct evaluation of -sum p log2 p
        assert shannon_entropy(dist(0.9, 0.1)).value == pytest.approx(
            0.4689955935892812, abs=1e-12)

    @given(distributions())
    def test_bounds(self, d):
        h = shannon_entropy(d).value
        assert -1e-12 <= h <= math.log2(len(d.outcomes)) + 1e-12

    @given(distributions(max_support=12), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, d, rnd):
        order = list(range(len(d.outcomes)))
        rnd.shuffle(order)
        shuffled = Distribution([d.outcomes[i] for i in order], d.probs[order])
        assert shannon_entropy(shuffled).value == pytest.approx(
            shannon_entropy(d).value, abs=1e-12)

    @given(distributions(max_support=8), distributions(max_support=8))
    def test_additivity_over_products(self, d1, d2):
        joint = joint_product(d1, d2)
        assert shannon_entropy(joint).value == pytest.approx(
            shannon_entropy(d1).value + shannon_entropy(d2).value, abs=1e-12)


class TestRenyi:
    def test_uniform_any_alpha(self):
        d = Distribution.uniform(range(8))
        assert renyi_entropy(d, 2.0).value == pytest.approx(3.0)

    def test_point_mass(self):
        assert renyi_entropy(dist(1.0), 0.5).value == pytest.approx(0.0)

    def test_golden_alpha_two(self):
        # (1/(1-2)) * log2(0.75^2 + 0.25^2), frozen from direct evaluation
        assert renyi_entropy(dist(0.75, 0.25), 2.0).value == pytest.approx(
            0.6780719051126377, abs=1e-12)

    def test_invalid_alpha(self):
        d = dist(0.5, 0.5)
        for alpha in (0.0, -1.0, 1.0):
            with pytest.raises(InvalidAlphaError):
                renyi_entropy(d, alpha)

    @given(distributions())
    def test_limit_to_shannon(self, d):
        h = shannon_entropy(d).value
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            assert abs(renyi_entropy(d, alpha).value - h) <= 1e-3


class TestCountEstimators:
    def test_plugin_empirical_uniform(self):
        assert plugin_entropy(SampleCounts({"a": 5, "b": 5})).value == pytest.approx(1.0)

    def test_plugin_single_symbol(self):
        assert plugin_entropy(SampleCounts({"a": 10})).value == 0.0

    def test_plugin_golden(self):
        # h(0.25), frozen from direct evaluation
        assert plugin_entropy(SampleCounts({"a": 3, "b": 1})).value == pytest.approx(
            0.8112781244591328, abs=1e-12)

    def test_from_samples_counts_each_label(self):
        sc = SampleCounts.from_samples(["b", "a", "b", 3, "b", 3])
        assert sc.counts == {"b": 3, "a": 1, 3: 2} and sc.total == 6
        assert plugin_entropy(sc).value == plugin_entropy(SampleCounts({"a": 1, "b": 3, 3: 2})).value

    def test_empty_counts_error(self):
        with pytest.raises(EmptyCountsError):
            plugin_entropy(SampleCounts({}))
        with pytest.raises(EmptyCountsError):
            miller_madow_entropy(SampleCounts({"a": 0}))

    def test_rejects_negative_counts(self):
        with pytest.raises(EmptyCountsError):
            SampleCounts({"a": -1})

    def test_miller_madow_no_correction_single_symbol(self):
        assert miller_madow_entropy(SampleCounts({"a": 10})).value == 0.0

    def test_miller_madow_goldens(self):
        # plugin + (K-1)/(2 N ln 2), both frozen from direct evaluation
        assert miller_madow_entropy(SampleCounts({"a": 5, "b": 5})).value == pytest.approx(
            1.0721347520444482, abs=1e-12)
        assert miller_madow_entropy(SampleCounts({"a": 1, "b": 1, "c": 2})).value == pytest.approx(
            1.860673760222241, abs=1e-12)

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=10))
    def test_miller_madow_exceeds_plugin_by_exact_correction(self, counts):
        labels = {f"s{i}": c for i, c in enumerate(counts)}
        if sum(counts) == 0:
            return
        sc = SampleCounts(labels)
        k = sum(1 for c in counts if c > 0)
        gap = miller_madow_entropy(sc).value - plugin_entropy(sc).value
        assert gap == pytest.approx((k - 1) / (2 * sc.total * math.log(2)), abs=1e-12)
        assert gap >= 0.0

    def test_plugin_converges_at_100k(self):
        rng = np.random.default_rng(20240817)
        for support in (2, 5, 16):
            w = rng.random(support) + 0.05
            p = w / w.sum()
            counts = rng.multinomial(100_000, p)
            sc = SampleCounts({i: int(c) for i, c in enumerate(counts)})
            truth = entropy_bits(p)
            assert abs(plugin_entropy(sc).value - truth) <= 0.01


class TestJointProduct:
    def test_uniform_times_uniform(self):
        j = joint_product(Distribution.uniform(("a", "b")), Distribution.uniform((0, 1)))
        assert sorted(j.probs.tolist()) == pytest.approx([0.25] * 4)

    def test_point_times_d_relabels(self):
        d = dist(0.9, 0.1)
        j = joint_product(Distribution.point("only"), d)
        assert j.probs.tolist() == pytest.approx([0.9, 0.1])
        assert j.outcomes == (("only", 0), ("only", 1))

    def test_arithmetic(self):
        j = joint_product(dist(0.9, 0.1), dist(0.5, 0.5))
        assert j.probs.tolist() == pytest.approx([0.45, 0.45, 0.05, 0.05])


def per_row_entropies(p) -> np.ndarray:
    return np.array([_entropy_of_probs(normalized_probs(row)) for row in p])


def per_row_error(p) -> str:
    with pytest.raises(InvalidDistributionError) as e:
        per_row_entropies(p)
    return str(e.value)


class TestRowEntropies:
    @pytest.mark.parametrize("width", range(1, 31))
    def test_bitwise_equal_to_the_per_row_form(self, width):
        rng = np.random.default_rng(width)
        w = rng.random((60, width)) ** 3
        w[rng.random(w.shape) < 0.3] = 0.0
        w[:, 0] += 1e-3
        p = w / w.sum(axis=1, keepdims=True)
        p[1] *= 1.0 + 1e-12                        # off 1, inside the tolerance
        p[2] = np.eye(width)[width // 2]           # a point mass
        p[3] = np.where(p[3] == 0.0, -0.0, p[3])   # signed zeros
        p[4] = 1.0 / width                         # uniform, rarely summing to 1
        got = _row_entropies(p)
        assert got.tobytes() == per_row_entropies(p).tobytes()
        assert got.tobytes() == _row_entropies(np.asfortranarray(p)).tobytes()

    @example(rows=1, width=7, seed=0)
    @example(rows=10_000, width=5, seed=1)
    @example(rows=400, width=3000, seed=2)
    @given(rows=st.integers(1, 64), width=st.integers(1, 2000),
           seed=st.integers(0, 2**32 - 1))
    def test_block_row_sums_equal_each_rows_own_sum(self, rows, width, seed):
        # _row_entropies takes the row totals as one sum(axis=1); the per-row
        # form sums each row alone. Magnitudes spread over 20 decades, so the
        # order of every addition shows in the bits.
        rng = np.random.default_rng(seed)
        p = rng.random((rows, width)) * 10.0 ** rng.integers(-10, 10, (rows, width))
        want = np.array([row.sum() for row in p])
        assert p.sum(axis=1).tobytes() == want.tobytes()

    def test_no_rows(self):
        assert _row_entropies(np.zeros((0, 3))).shape == (0,)

    @pytest.mark.parametrize("bad", [
        {2: (0, -0.25)},
        {1: (3, np.nan)},
        {4: (0, np.inf)},
        {2: (1, 0.3)},                 # row 2 sums to 1.3
        {1: (1, 0.3), 3: (0, -1.0)},   # the off-sum row comes first
        {3: (1, 0.3), 1: (0, -1.0)},   # the negative row comes first
        {0: (2, 1e-6), 2: (2, np.nan)},
    ])
    def test_invalid_rows_raise_the_per_row_error(self, bad):
        p = np.full((5, 4), 0.25)
        for row, (col, value) in bad.items():
            p[row, col] += value
        want = per_row_error(p)
        with pytest.raises(InvalidDistributionError) as e:
            _row_entropies(p)
        assert str(e.value) == want
