import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zentropy.bayes_infer import (
    HEADS,
    TAILS,
    BernoulliFlip,
    GridPosterior,
    QueryCandidate,
    expected_event_potential,
    mutual_information,
    posterior_update,
    rank_queries,
    realized_event_potential,
    realized_potentials,
)
from zentropy.errors import InvalidDistributionError, ZeroEvidenceError

from oracles import (
    entropy_bits,
    expected_potential_per_outcome,
    mutual_information_loop,
    realized_potentials_per_datum,
)

# 11-point uniform grid goldens, frozen from exact enumeration:
# H(prior) = log2 11; H(post|heads) = log2 55 - (sum_{i=1..10} i log2 i)/55
GOLDEN_REALIZED = -0.3557881486978185


def eleven_point():
    return GridPosterior.uniform(11)


class TestGridPosterior:
    def test_grid_must_increase(self):
        with pytest.raises(InvalidDistributionError):
            GridPosterior([0.5, 0.5, 0.9], [1 / 3] * 3)

    def test_grid_must_stay_in_unit_interval(self):
        with pytest.raises(InvalidDistributionError):
            GridPosterior([0.0, 1.5], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_value_is_refused(self, bad):
        with pytest.raises(InvalidDistributionError, match=r"grid values must lie in \[0, 1\]"):
            GridPosterior([0.1, bad, 0.9], [1 / 3] * 3)
        with pytest.raises(InvalidDistributionError, match=r"grid values must lie in \[0, 1\]"):
            GridPosterior((0.1, bad, 0.9))  # uniform prior

    def test_two_dimensional_grid_is_refused(self):
        with pytest.raises(InvalidDistributionError, match="1-D"):
            GridPosterior([[0.1, 0.2], [0.3, 0.4]])

    @pytest.mark.parametrize("weights, match", [
        ([0.5, 0.5], r"\(2,\) probabilities vs 3 grid points"),
        ([0.2, 0.3, 0.5, 0.0], r"\(4,\) probabilities vs 3 grid points"),
        ([0.6, -0.1, 0.5], "finite and >= 0"),
        ([0.2, 0.3, 0.5 + 2e-9], "sum to"),
        ([0.2, 0.3, 0.5 - 2e-9], "sum to"),
    ])
    def test_bad_prior_weights_are_refused(self, weights, match):
        with pytest.raises(InvalidDistributionError, match=match):
            GridPosterior([0.1, 0.5, 0.9], weights)

    def test_grid_and_probs_are_read_only_float64_arrays(self):
        source = np.array([0, 0.25, 1])
        p = GridPosterior(source, [0.2, 0.3, 0.5])
        for a in (p.grid, p.probs):
            assert type(a) is np.ndarray and a.dtype == np.float64 and a.shape == (3,)
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.5
        assert p.grid.tolist() == [0.0, 0.25, 1.0] and p.probs.tolist() == [0.2, 0.3, 0.5]
        assert source.flags.writeable  # the caller's array is copied, not frozen
        post = posterior_update(p, BernoulliFlip(), HEADS)
        assert not post.grid.flags.writeable and not post.probs.flags.writeable

    def test_uniform_default_grid(self):
        p = GridPosterior.uniform(101)
        assert len(p.grid) == 101
        assert p.entropy().value == pytest.approx(math.log2(101))


class TestPosteriorUpdate:
    def test_uniform_prior_heads(self):
        p = eleven_point()
        post = posterior_update(p, BernoulliFlip(), HEADS)
        # oracle: belief_i = theta_i / sum(theta) = (i/10) / 5.5
        for i, theta in enumerate(p.grid):
            assert post.probs[i] == pytest.approx(theta / 5.5, abs=1e-12)

    def test_point_mass_prior_unchanged(self):
        p = GridPosterior([0.2, 0.7], [0.0, 1.0])
        post = posterior_update(p, BernoulliFlip(), TAILS)
        assert post.probs.tolist() == [0.0, 1.0]

    def test_zero_evidence(self):
        p = GridPosterior([0.0, 1.0], [1.0, 0.0])  # all mass on theta=0
        with pytest.raises(ZeroEvidenceError):
            posterior_update(p, BernoulliFlip(), HEADS)

    def test_likelihood_column_equals_the_matrix_column_bitwise(self):
        # the update reads one outcome's column alone; on random grids and
        # noises (0 and 1 among them) it has the bits of likelihood_matrix's
        # column, and of the column_stack of p_heads and 1 - p_heads; the
        # update gives the posterior of the weights times that column over
        # their sum, bitwise
        rng = np.random.default_rng(21)
        for noise in (0.0, 1.0, *rng.random(18).tolist()):
            grid = np.unique(rng.random(int(rng.integers(1, 300))))
            model = BernoulliFlip(noise=noise)
            p_heads = 0.5 + noise * (grid - 0.5)
            matrix = model.likelihood_matrix(grid)
            assert matrix.tobytes() == np.column_stack([p_heads, 1.0 - p_heads]).tobytes()
            w = rng.random(len(grid)) + 1e-3
            p = GridPosterior(grid, w / w.sum())
            for j, outcome in enumerate(model.outcomes):
                column = model.likelihood(grid, outcome)
                assert column.tobytes() == matrix[:, j].tobytes()
                want = p.probs * matrix[:, j]
                got = posterior_update(p, model, outcome).probs
                want = GridPosterior(grid, want / float(want.sum())).probs
                assert got.tobytes() == want.tobytes()

    def test_martingale_recovers_prior(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            w = rng.random(n) + 1e-3
            p = GridPosterior(np.linspace(0, 1, n), w / w.sum())
            model = BernoulliFlip(noise=float(rng.random()))
            like = model.likelihood_matrix(p.grid)
            predictive = p.probs @ like
            mix = np.zeros(n)
            for j, o in enumerate(model.outcomes):
                if predictive[j] > 0:
                    mix += predictive[j] * posterior_update(p, model, o).probs
            np.testing.assert_allclose(mix, p.probs, atol=1e-12)


class TestRealizedPotential:
    def test_golden_11_point(self):
        z = realized_event_potential(eleven_point(), BernoulliFlip(), HEADS)
        assert z.value == pytest.approx(GOLDEN_REALIZED, abs=1e-12)
        assert z.method == "exact"

    def test_point_mass_prior_zero(self):
        p = GridPosterior([0.2, 0.7], [0.0, 1.0])
        assert realized_event_potential(p, BernoulliFlip(), HEADS).value == \
            pytest.approx(0.0, abs=1e-12)

    def test_heads_tails_symmetry(self):
        p = eleven_point()  # grid symmetric under theta <-> 1-theta
        zh = realized_event_potential(p, BernoulliFlip(), HEADS)
        zt = realized_event_potential(p, BernoulliFlip(), TAILS)
        assert zh.value == pytest.approx(zt.value, abs=1e-12)

    def test_positive_realized_potential_exists(self):
        # prior concentrated near theta=1; observing tails spreads the belief
        p = GridPosterior([0.1, 0.9], [0.05, 0.95])
        z = realized_event_potential(p, BernoulliFlip(), TAILS)
        assert z.value > 0.0


class TestRealizedPotentials:
    def test_each_datum_scored_against_the_posterior_before_it(self):
        p = GridPosterior([0.1, 0.3, 0.6, 0.9], [0.1, 0.2, 0.3, 0.4])
        model = BernoulliFlip(noise=0.8)
        data = [TAILS, HEADS, HEADS, TAILS]
        expected, current = [], p
        for outcome in data:
            expected.append(realized_event_potential(current, model, outcome).value)
            current = posterior_update(current, model, outcome)
        assert realized_potentials(p, model, data) == expected

    def test_no_data_no_potentials(self):
        assert realized_potentials(eleven_point(), BernoulliFlip(), []) == []

    def test_impossible_datum_raises(self):
        p = GridPosterior([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ZeroEvidenceError):
            realized_potentials(p, BernoulliFlip(), [TAILS, HEADS])


class TestExpectedPotential:
    def test_golden_11_point(self):
        z = expected_event_potential(eleven_point(), QueryCandidate("flip", BernoulliFlip()))
        assert z.value == pytest.approx(GOLDEN_REALIZED, abs=1e-12)

    def test_point_mass_prior_zero(self):
        p = GridPosterior([0.2, 0.7], [0.0, 1.0])
        z = expected_event_potential(p, QueryCandidate("flip", BernoulliFlip()))
        assert z.value == pytest.approx(0.0, abs=1e-12)

    def test_null_query_exactly_zero(self):
        z = expected_event_potential(eleven_point(), QueryCandidate("null", BernoulliFlip(0.0)))
        assert z.value == 0.0

    def test_never_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            w = rng.random(n) + 1e-6
            p = GridPosterior(np.linspace(0, 1, n), w / w.sum())
            q = QueryCandidate("q", BernoulliFlip(noise=float(rng.random())))
            assert expected_event_potential(p, q).value <= 1e-12


class TestMutualInformation:
    def test_independent_outcome_zero(self):
        mi = mutual_information(eleven_point(), QueryCandidate("null", BernoulliFlip(0.0)))
        assert float(mi) == pytest.approx(0.0, abs=1e-12)

    def test_golden_11_point(self):
        mi = mutual_information(eleven_point(), QueryCandidate("flip", BernoulliFlip()))
        assert float(mi) == pytest.approx(-GOLDEN_REALIZED, abs=1e-9)

    def test_full_revelation(self):
        p = GridPosterior([0.0, 1.0], [0.4, 0.6])
        mi = mutual_information(p, QueryCandidate("flip", BernoulliFlip()))
        assert float(mi) == pytest.approx(entropy_bits([0.4, 0.6]), abs=1e-12)

    def test_identity_with_expected_potential(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            w = rng.random(n) + 1e-6
            p = GridPosterior(np.linspace(0, 1, n), w / w.sum())
            q = QueryCandidate("q", BernoulliFlip(noise=float(rng.random())))
            assert expected_event_potential(p, q).value == pytest.approx(
                -float(mutual_information(p, q)), abs=1e-9)


@st.composite
def grid_posteriors_and_queries(draw):
    """A strictly increasing grid in [0, 1] (endpoints likely), a prior with
    zero entries likely, and a query of noise 0, 1 or in between."""
    points = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                           min_size=1, max_size=40))
    grid = sorted(set(points))
    w = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(1e-6, 1.0),
                               min_size=len(grid), max_size=len(grid))))
    if not w.any():
        w[draw(st.integers(0, len(w) - 1))] = 1.0
    noise = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return (GridPosterior(grid, w / w.sum()),
            QueryCandidate("q", BernoulliFlip(noise)))


@given(grid_posteriors_and_queries())
@settings(max_examples=300)
@example((GridPosterior([0.0, 0.5, 1.0], [0.0, 0.3, 0.7]),
          QueryCandidate("flip", BernoulliFlip(1.0))))
@example((GridPosterior([0.2, 0.8], [0.0, 1.0]),
          QueryCandidate("null", BernoulliFlip(0.0))))
def test_mutual_information_matches_the_double_loop_bit_for_bit(case):
    p, q = case
    assert float(mutual_information(p, q)).hex() == mutual_information_loop(p, q).hex()


@given(grid_posteriors_and_queries(), st.lists(st.sampled_from([HEADS, TAILS]), max_size=40))
@settings(max_examples=300)
@example((GridPosterior.uniform(7), QueryCandidate("q", BernoulliFlip(0.6))),
         [HEADS, TAILS, HEADS])
@example((GridPosterior([0.0, 0.5, 1.0], [0.0, 0.3, 0.7]),
          QueryCandidate("flip", BernoulliFlip(1.0))), [HEADS, TAILS, HEADS])
@example((GridPosterior([0.0, 1.0], [0.4, 0.6]), QueryCandidate("flip", BernoulliFlip(1.0))),
         [TAILS, HEADS])
def test_array_updates_equal_one_posterior_per_datum(case, data):
    # the array loops give the bits of a checked GridPosterior per datum and
    # per outcome, also where an update's quotient does not sum to exactly
    # 1.0 and is divided once more, and where a datum is impossible
    p, q = case
    try:
        want = realized_potentials_per_datum(p, q.model, data)
    except ZeroEvidenceError:
        with pytest.raises(ZeroEvidenceError):
            realized_potentials(p, q.model, data)
    else:
        assert [v.hex() for v in realized_potentials(p, q.model, data)] == \
            [v.hex() for v in want]
    assert expected_event_potential(p, q).value.hex() == \
        expected_potential_per_outcome(p, q).hex()


def test_an_update_can_need_a_second_division():
    # the first example above: heads through noise 0.6 on a uniform 7-point
    # prior leaves a quotient that sums to 1 - 2**-53, so the posterior is
    # divided by that sum once more, and differs from the quotient
    p, model = GridPosterior.uniform(7), BernoulliFlip(0.6)
    w = p.probs * model.likelihood(p.grid, HEADS)
    quotient = w / float(w.sum())
    assert quotient.sum() != 1.0
    post = posterior_update(p, model, HEADS).probs
    assert post.tobytes() != quotient.tobytes()
    assert post.tobytes() == (quotient / quotient.sum()).tobytes()


class TestRankQueries:
    def test_informative_before_null(self):
        p = eleven_point()
        qs = [QueryCandidate("null", BernoulliFlip(0.0)),
              QueryCandidate("flip", BernoulliFlip(1.0))]
        ranked = rank_queries(p, qs)
        assert [q.id for q, _ in ranked] == ["flip", "null"]

    def test_noise_orders_informativeness(self):
        p = eleven_point()
        qs = [QueryCandidate(f"n{i}", BernoulliFlip(noise)) for i, noise in
              enumerate((0.25, 1.0, 0.5))]
        ranked = rank_queries(p, qs)
        assert [q.id for q, _ in ranked] == ["n1", "n2", "n0"]

    def test_duplicates_tie_break_on_id(self):
        p = eleven_point()
        qs = [QueryCandidate("b", BernoulliFlip()), QueryCandidate("a", BernoulliFlip())]
        ranked = rank_queries(p, qs)
        assert [q.id for q, _ in ranked] == ["a", "b"]

    def test_single_candidate(self):
        p = eleven_point()
        ranked = rank_queries(p, [QueryCandidate("only", BernoulliFlip())])
        assert len(ranked) == 1 and ranked[0][0].id == "only"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_queries(eleven_point(), [])


def test_bernoulli_noise_validation():
    with pytest.raises(ValueError):
        BernoulliFlip(noise=1.5)
    with pytest.raises(ValueError):
        BernoulliFlip(noise=-0.1)
