import math

import numpy as np
import pytest

from zentropy.anomaly_detect import DetectorConfig, StreamDetector, replay

from oracles import entropy_bits, make_regime_shift_stream, stream_replay_reference

CFG = DetectorConfig(window=16, bins=4, lo=0.0, hi=4.0, kappa=3.0, warmup=16,
                     smoothing=1.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(window=4)
        with pytest.raises(ValueError):
            DetectorConfig(warmup=10, window=16)
        with pytest.raises(ValueError):
            DetectorConfig(kappa=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(smoothing=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(lo=1.0, hi=1.0)
        with pytest.raises(ValueError):
            DetectorConfig(bins=1)

    @pytest.mark.parametrize("window, smoothing", [(64, 5e-324), (1024, 1e-321)])
    def test_smoothing_that_underflows_is_rejected(self, window, smoothing):
        with pytest.raises(ValueError, match="smoothing"):
            DetectorConfig(window=window, warmup=window, smoothing=smoothing)

    @pytest.mark.parametrize("field, value", [
        ("lo", -math.inf), ("lo", math.nan), ("hi", math.inf), ("hi", math.nan),
        ("kappa", math.inf), ("kappa", math.nan), ("smoothing", math.inf),
        ("smoothing", math.nan)])
    def test_non_finite_number_is_rejected_naming_the_field(self, field, value):
        # NaN slips past every range check (each comparison is false), and
        # inf passes them but bins every event alike or scores NaN
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DetectorConfig(**{field: value})

    @pytest.mark.parametrize("lo, hi, bins", [
        (-1e308, 1e308, 4),                    # hi - lo overflows: width inf, all in bin 0
        (-1.7976931348623157e308, 1.7976931348623157e308, 256),
        (0.0, 5e-324, 4),                      # width underflows to 0.0: bins of NaN
        (0.0, 5e-324, 2)])
    def test_bin_width_that_is_not_positive_and_finite_is_rejected(self, lo, hi, bins):
        with pytest.raises(ValueError, match=r"range \[.*bin width"):
            DetectorConfig(lo=lo, hi=hi, bins=bins)

    @pytest.mark.parametrize("lo, hi, bins", [(-1e307, 1e307, 4), (0.0, 1e-323, 2)])
    def test_extreme_range_with_a_usable_bin_width_bins_by_value(self, lo, hi, bins):
        cfg = DetectorConfig(lo=lo, hi=hi, bins=bins)
        assert 0.0 < cfg.bin_width < math.inf
        det = StreamDetector(cfg)
        assert [det.bin_of(x) for x in (lo, hi, 0.9 * hi)] == [0, bins - 1, bins - 1]

    @pytest.mark.parametrize("window", [8, 64, 1024])
    def test_smallest_accepted_smoothing_scores_a_full_window(self, window):
        # walk up the subnormals to the first smoothing the config accepts:
        # a constant stream then leaves three bins empty in a full window,
        # each at the smallest probability, and every output is finite
        smoothing = 5e-324
        while True:
            try:
                cfg = DetectorConfig(window=window, warmup=window, smoothing=smoothing)
                break
            except ValueError:
                smoothing = np.nextafter(smoothing, 1.0)
        cols = StreamDetector(cfg).score_columns(np.full(window + 50, 0.5))
        for col in cols[1:4]:
            assert np.isfinite(col).all()

    def test_bin_clamping(self):
        det = StreamDetector(CFG)
        assert det.bin_of(-100.0) == 0
        assert det.bin_of(0.5) == 0
        assert det.bin_of(3.99) == 3
        assert det.bin_of(100.0) == 3


class TestPredictive:
    def test_empty_window_is_uniform(self):
        m = StreamDetector(CFG)
        assert m.predictive().probs.tolist() == [0.25] * 4

    def test_loaded_window_counts(self):
        m = StreamDetector(CFG)
        for _ in range(16):
            m.event_potential(0.5)  # all in bin 0
        probs = m.predictive().as_dict()
        assert probs[0] == pytest.approx(17 / 20)
        for b in (1, 2, 3):
            assert probs[b] == pytest.approx(1 / 20)

    def test_balanced_window_near_uniform(self):
        m = StreamDetector(CFG)
        for i in range(16):
            m.event_potential(i % 4 + 0.5)
        assert np.allclose(m.predictive().probs, 0.25)


class TestEventPotential:
    def test_spike_after_constant_stream(self):
        m = StreamDetector(CFG)
        for _ in range(16):
            m.event_potential(0.5)
        z = m.event_potential(3.5)  # lands in bin 3, evicting a bin-0 symbol
        # oracle: smoothed counts go (17,1,1,1)/20 -> (16,1,1,2)/20
        want = entropy_bits([16 / 20, 1 / 20, 1 / 20, 2 / 20]) - \
            entropy_bits([17 / 20, 1 / 20, 1 / 20, 1 / 20])
        assert z.value == pytest.approx(want, abs=1e-12)
        assert z.value > 0.0

    def test_full_buffer_identity_is_exact_zero(self):
        m = StreamDetector(CFG)
        for _ in range(16):
            m.event_potential(1.5)
        z = m.event_potential(1.5)  # inserts the same bin it evicts
        assert z.value == 0.0

    def test_score_bound(self):
        rng = np.random.default_rng(8)
        m = StreamDetector(CFG)
        for x in rng.random(200) * 4.0:
            z = m.event_potential(float(x))
            assert abs(z.value) <= math.log2(4) + 1e-12

    def test_event_potential_is_the_ingested_score(self):
        rng = np.random.default_rng(9)
        values = (rng.random(80) * 4.0).tolist()
        m = StreamDetector(CFG)
        det = StreamDetector(CFG)
        for x in values:
            assert m.event_potential(x) == det.ingest(x).z
        assert m.events_seen == det.events_seen == 80


class TestIngestAndReplay:
    def test_no_flags_during_warmup(self):
        rng = np.random.default_rng(10)
        det = StreamDetector(CFG)
        for i, x in enumerate(rng.random(CFG.warmup) * 4.0):
            assert det.ingest(float(x)).flagged is False

    def test_flag_rule_matches_reported_stats(self):
        rng = np.random.default_rng(11)
        scores = replay((rng.random(300) * 4.0).tolist(), CFG)
        for s in scores:
            expect = s.index >= CFG.warmup and \
                s.z.value > s.rolling_mean + CFG.kappa * s.rolling_std
            assert s.flagged == expect

    def test_replay_equals_ingest_fold_exactly(self):
        rng = np.random.default_rng(12)
        values = (rng.random(257) * 4.0).tolist()
        folded = []
        det = StreamDetector(CFG)
        for x in values:
            folded.append(det.ingest(x))
        assert replay(values, CFG) == folded

    def test_replay_matches_reference_implementation(self):
        rng = np.random.default_rng(13)
        values = (rng.random(200) * 4.0).tolist()
        got = replay(values, CFG)
        ref = stream_replay_reference(values, CFG.window, CFG.bins, CFG.lo,
                                      CFG.hi, CFG.kappa, CFG.warmup,
                                      CFG.smoothing)
        for s, (b, zz, mean, std, flag) in zip(got, ref):
            assert s.bin == b
            assert s.z.value == pytest.approx(zz, abs=1e-12)
            assert s.rolling_mean == pytest.approx(mean, abs=1e-12)
            assert s.rolling_std == pytest.approx(std, abs=1e-12)
            assert s.flagged == flag

    def test_empty_stream(self):
        assert replay([], CFG) == []

    def test_single_event_unflagged(self):
        scores = replay([1.0], CFG)
        assert len(scores) == 1 and scores[0].flagged is False

    def test_constant_stream_never_flags(self):
        scores = replay([2.2] * 500, CFG)
        assert not any(s.flagged for s in scores)
        # once the buffer is full every score is exactly zero
        assert all(s.z.value == 0.0 for s in scores if s.index >= CFG.window)

    def test_regime_shift_flagged_quickly(self):
        cfg = DetectorConfig(window=64, bins=4, lo=0.0, hi=4.0, kappa=3.0,
                             warmup=64, smoothing=1.0)
        values = make_regime_shift_stream(seed=0)
        scores = replay(values, cfg)
        hits = [s.index for s in scores if s.flagged and 500 <= s.index < 510]
        assert hits, "shift not flagged within 10 events"

    def test_event_indices_progress(self):
        det = StreamDetector(CFG)
        a = det.ingest(0.5)
        b = det.ingest(1.5)
        assert (a.index, b.index) == (0, 1)
        assert a.z.horizon.t0 == 0 and a.z.horizon.t == 1
        assert det.events_seen == 2
