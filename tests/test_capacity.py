"""Capacity forecasting, quantile calibration, and decision-level scoring."""

import math

import numpy as np
import pytest

from abrlab.auditor import AuditConfig, make_auditor, make_oracle_auditor
from abrlab.capacity import (
    PREDICTOR_CANDIDATES,
    CalibrationResult,
    LowerBoundPredictor,
    PointPredictor,
    PredictorConfig,
    _forecast_windows,
    calibrate_lower_bound,
    calibration_ratios,
    candidate_auditors,
    coverage_miss_rate,
    decision_scores,
    high_risk_overrate,
    lower_quantile,
    replay,
    violation_rate,
)
from abrlab.sim import QoEWeights, VideoSpec
from abrlab.traces import SynthConfig, ThroughputTrace, synthesize_trace

W = QoEWeights()


class TestPointPredict:
    def test_constant_history(self):
        assert PointPredictor(PredictorConfig(horizon_s=15)).predict(np.full(30, 50e6)) == 50e6

    def test_mean_of_last_horizon_seconds(self):
        hist = np.array([20e6, 40e6, 20e6, 40e6])
        assert PointPredictor(PredictorConfig(horizon_s=2)).predict(hist) == pytest.approx(30e6)

    def test_short_history_uses_what_exists(self):
        assert PointPredictor(PredictorConfig(horizon_s=15)).predict(np.array([10e6])) == 10e6

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            PointPredictor(PredictorConfig(horizon_s=15)).predict(np.zeros(0))

    def test_predictor_averages_configured_horizon(self):
        cfg = PredictorConfig(horizon_s=3)
        hist = np.arange(1.0, 11.0)  # 1..10
        # the whole history goes in; the last 3 samples are averaged
        assert PointPredictor(cfg).predict(hist) == pytest.approx(9.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PredictorConfig(horizon_s=0)
        with pytest.raises(ValueError):
            PredictorConfig(delta=0.0)
        with pytest.raises(ValueError):
            PredictorConfig(delta=1.0)


def realized_target(trace: ThroughputTrace, t: float, horizon_s: int) -> float:
    """Brute-force reference: mean throughput over [t, t + horizon), which must fit the trace."""
    i0 = int(round(t - float(trace.times_s[0])))
    if i0 < 0 or i0 + horizon_s > trace.times_s.size:
        raise ValueError(f"window [{t}, {t + horizon_s}) outside trace {trace.trace_id!r}")
    return float(trace.throughput_bps[i0 : i0 + horizon_s].mean())


class TestRealizedTarget:
    TRACE = ThroughputTrace("r", [0.0, 1.0, 2.0, 3.0], [10e6, 20e6, 30e6, 40e6])

    def test_window_mean(self):
        assert realized_target(self.TRACE, 1.0, 2) == pytest.approx(25e6)
        assert realized_target(self.TRACE, 0.0, 4) == pytest.approx(25e6)
        assert realized_target(self.TRACE, 3.0, 1) == pytest.approx(40e6)

    def test_window_must_fit(self):
        with pytest.raises(ValueError, match="outside"):
            realized_target(self.TRACE, 2.0, 3)
        with pytest.raises(ValueError, match="outside"):
            realized_target(self.TRACE, -1.0, 2)

    def test_nonzero_origin(self):
        tr = ThroughputTrace("o", [100.0, 101.0, 102.0], [1e6, 2e6, 3e6])
        assert realized_target(tr, 101.0, 2) == pytest.approx(2.5e6)


class TestLowerQuantile:
    def test_quarter_of_four(self):
        assert lower_quantile([0.5, 1.0, 1.5, 2.0], 0.25) == 0.5

    def test_half_of_four(self):
        assert lower_quantile([0.5, 1.0, 1.5, 2.0], 0.50) == 1.0

    def test_small_delta_still_uses_first_order_statistic(self):
        assert lower_quantile([0.5, 1.0, 1.5, 2.0], 0.10) == 0.5

    def test_all_equal(self):
        assert lower_quantile([1.0] * 9, 0.1) == 1.0

    def test_matches_sorted_indexing(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.uniform(0, 2, int(rng.integers(1, 50)))
            delta = float(rng.uniform(0.01, 0.99))
            rank = max(int(math.ceil(delta * v.size)), 1)
            assert lower_quantile(v, delta) == float(np.sort(v)[rank - 1])

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            lower_quantile([], 0.1)
        with pytest.raises(ValueError):
            lower_quantile([1.0], 0.0)


def _step_trace(tid="step", reps=1):
    vals = np.tile(np.array([4e6, 4e6, 4e6, 2e6, 2e6, 2e6]), reps)
    return ThroughputTrace(tid, np.arange(vals.size, dtype=float), vals)


class TestCalibration:
    def test_ratio_windows_constant_trace(self):
        cfg = PredictorConfig(horizon_s=5)
        tr = ThroughputTrace("c", np.arange(60.0), np.full(60, 30e6))
        ratios = calibration_ratios(PointPredictor(cfg), [tr])
        assert ratios.size == 55  # one per start second that fits the horizon
        assert np.allclose(ratios, 1.0)

    def test_ratio_windows_hand_computed(self):
        cfg = PredictorConfig(horizon_s=2)
        ratios = calibration_ratios(PointPredictor(cfg), [_step_trace()])
        # throughput 4,4,4,2,2,2: forecasts are trailing 2-means, targets
        # leading 2-means; the first four windows are 4/4, 3/4, 2/4, 2/3
        assert ratios[:4] == pytest.approx([1.0, 0.75, 0.5, 2.0 / 3.0])

    def test_scale_is_the_delta_quantile_of_ratios(self):
        cfg = PredictorConfig(horizon_s=2, delta=0.25)
        traces = [_step_trace(f"s{i}", reps=10) for i in range(2)]
        result = calibrate_lower_bound(PointPredictor(cfg), traces)
        ratios = calibration_ratios(PointPredictor(cfg), traces)
        assert result.scale == lower_quantile(ratios, 0.25)
        assert result.n_windows == ratios.size
        assert result.delta == 0.25
        assert result.horizon_s == 2

    def test_constant_traces_calibrate_to_unit_scale(self):
        cfg = PredictorConfig(horizon_s=5, delta=0.1)
        tr = ThroughputTrace("c", np.arange(80.0), np.full(80, 30e6))
        assert calibrate_lower_bound(PointPredictor(cfg), [tr]).scale == 1.0

    def test_too_few_windows_rejected(self):
        cfg = PredictorConfig(horizon_s=5)
        tr = ThroughputTrace("tiny", np.arange(20.0), np.full(20, 30e6))
        with pytest.raises(ValueError, match="at least 50"):
            calibrate_lower_bound(PointPredictor(cfg), [tr])

    def test_explicit_delta_overrides_config(self):
        cfg = PredictorConfig(horizon_s=2, delta=0.25)
        traces = [_step_trace(reps=10)]
        res = calibrate_lower_bound(PointPredictor(PredictorConfig(horizon_s=2, delta=0.5)), traces)
        assert res.delta == 0.5
        assert res.scale >= calibrate_lower_bound(PointPredictor(cfg), traces).scale


def _forecast_windows_loop(point, traces):
    """The window-by-window reference: one forecast and one realized mean per start second."""
    horizon = point.cfg.horizon_s
    predicted, realized = [], []
    for trace in traces:
        t0 = float(trace.times_s[0])
        for i in range(1, trace.throughput_bps.size - horizon + 1):
            predicted.append(point.predict(trace.throughput_bps[:i]))
            realized.append(realized_target(trace, t0 + i, horizon))
    return np.asarray(predicted, dtype=np.float64), np.asarray(realized, dtype=np.float64)


class TestForecastWindows:
    HORIZON = 15

    def _traces(self, length):
        full = synthesize_trace(SynthConfig(duration_s=600, seed=(31, length)), trace_id=f"w{length}")
        return [ThroughputTrace(f"w{length}", full.times_s[:length] + 100.0, full.throughput_bps[:length])]

    @pytest.mark.parametrize("length", [HORIZON, HORIZON + 1, HORIZON + 2, 600])
    def test_matrix_windows_equal_the_loop_bit_for_bit(self, length):
        point = PointPredictor(PredictorConfig(horizon_s=self.HORIZON))
        traces = self._traces(length)
        predicted, realized = _forecast_windows(point, traces)
        ref_predicted, ref_realized = _forecast_windows_loop(point, traces)
        assert predicted.size == length - self.HORIZON
        assert np.array_equal(predicted, ref_predicted)
        assert np.array_equal(realized, ref_realized)

    def test_several_traces_and_a_too_short_one_concatenate_in_order(self):
        point = PointPredictor(PredictorConfig(horizon_s=self.HORIZON))
        traces = self._traces(600) + self._traces(self.HORIZON - 3) + self._traces(40)
        for got, ref in zip(_forecast_windows(point, traces), _forecast_windows_loop(point, traces)):
            assert np.array_equal(got, ref)

    def test_calibrated_scale_is_bit_identical_to_the_loop(self):
        point = PointPredictor(PredictorConfig(horizon_s=self.HORIZON))
        traces = [synthesize_trace(SynthConfig(duration_s=600, seed=(32, i))) for i in range(4)]
        predicted, realized = _forecast_windows_loop(point, traces)
        assert calibrate_lower_bound(point, traces).scale == lower_quantile(realized / predicted, 0.10)


class TestLowerBoundPredictor:
    def test_prediction_is_scaled_point(self):
        point = PointPredictor(PredictorConfig(horizon_s=5))
        lb = LowerBoundPredictor(point, scale=0.4)
        hist = np.full(20, 50e6)
        assert lb.predict(hist) == pytest.approx(0.4 * point.predict(hist))

    def test_non_positive_scale_rejected(self):
        point = PointPredictor(PredictorConfig())
        with pytest.raises(ValueError):
            LowerBoundPredictor(point, 0.0)

    def test_calibration_set_coverage_bounded_by_delta(self):
        # strict misses on the fitting windows cannot exceed the fitted quantile rank
        cfg = PredictorConfig(horizon_s=10, delta=0.10)
        traces = [synthesize_trace(SynthConfig(duration_s=200, seed=60 + i), f"cal-{i}")
                  for i in range(3)]
        point = PointPredictor(cfg)
        result = calibrate_lower_bound(point, traces)
        lb = LowerBoundPredictor(point, result.scale)
        miss, n = coverage_miss_rate(lb, traces)
        assert n == result.n_windows
        assert miss <= cfg.delta

    def test_fresh_trace_coverage_near_delta(self):
        cfg = PredictorConfig(horizon_s=10, delta=0.10)
        fit = [synthesize_trace(SynthConfig(duration_s=300, seed=70 + i), f"fit-{i}")
               for i in range(6)]
        held = [synthesize_trace(SynthConfig(duration_s=300, seed=90 + i), f"held-{i}")
                for i in range(6)]
        point = PointPredictor(cfg)
        lb = LowerBoundPredictor(point, calibrate_lower_bound(point, fit).scale)
        miss, n = coverage_miss_rate(lb, held)
        assert n >= 50
        assert miss <= 0.25  # same generator family, so near the nominal 0.10

    def test_no_windows_rejected(self):
        point = PointPredictor(PredictorConfig(horizon_s=50))
        lb = LowerBoundPredictor(point, 1.0)
        tr = ThroughputTrace("short", np.arange(10.0), np.full(10, 1e6))
        with pytest.raises(ValueError, match="no evaluation windows"):
            coverage_miss_rate(lb, [tr])


class TestViolationRate:
    def test_empty_is_zero(self):
        assert violation_rate([]) == 0.0

    def test_fraction(self):
        assert violation_rate([True, False, False, True]) == 0.5


class TestHighRiskOverrate:
    def test_hard_slice_selection(self):
        realized = [10e6, 20e6, 30e6, 40e6]
        predicted = [15e6, 15e6, 25e6, 35e6]
        # ceil(0.3 * 4) = 2 lowest-capacity samples: realized 10 and 20
        assert high_risk_overrate(predicted, realized, fraction=0.3) == pytest.approx(0.5)

    def test_full_fraction_counts_everything(self):
        assert high_risk_overrate([2.0, 1.0], [1.0, 2.0], fraction=1.0) == pytest.approx(0.5)

    def test_mismatched_or_empty_rejected(self):
        with pytest.raises(ValueError):
            high_risk_overrate([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            high_risk_overrate([], [])


class _HugePredictor:
    def predict(self, history_bps):
        return 1e12


def _screened_by(predictor):
    return lambda trace, audit: make_auditor(predictor, audit)


class TestDecisionEvaluation:
    def test_oracle_admits_no_violations(self):
        traces = [synthesize_trace(SynthConfig(duration_s=400, seed=50 + i), f"t{i}")
                  for i in range(4)]
        spec = VideoSpec(num_chunks=20)
        rng = np.random.default_rng(0)
        report, _, logs = replay("oracle", lambda s: int(rng.integers(0, 6)), traces, spec, W,
                                 make_oracle_auditor, AuditConfig())
        assert decision_scores(logs, 0.0)[3] > 0
        assert report.method == "oracle"
        assert report.v_dec == 0.0

    def test_wild_overprediction_scores_worst_everywhere(self):
        # 5 Mbit/s link, always-top policy: a huge forecast admits everything,
        # every admitted download overruns the buffer, and the hard slice is
        # overpredicted wall to wall
        tr = ThroughputTrace("slow", np.arange(1000.0), np.full(1000, 5e6))
        spec = VideoSpec(num_chunks=8, size_jitter=(1.0, 1.0))
        report, _, logs = replay("huge", lambda s: 5, [tr], spec, W, _screened_by(_HugePredictor()),
                                 AuditConfig())
        assert report.v_dec == 1.0
        assert report.overrate_hr == 1.0
        assert decision_scores(logs, 0.0)[2] == 7  # the first chunk has no forecast yet

    def test_honest_predictor_on_adequate_link_is_clean(self):
        tr = ThroughputTrace("ok", np.arange(600.0), np.full(600, 30e6))
        spec = VideoSpec(num_chunks=12, size_jitter=(1.0, 1.0))
        point = PointPredictor(PredictorConfig(horizon_s=5))
        report, _, logs = replay("point", lambda s: 5, [tr], spec, W, _screened_by(point),
                                 AuditConfig(guard_s=0.0, capacity_margin=0.9))
        assert report.v_dec == 0.0
        assert sum(log.audit_interventions for log in logs) > 0

    def test_no_traces_rejected(self):
        with pytest.raises(ValueError, match="no traces"):
            replay("oracle", lambda s: 0, [], VideoSpec(), W, make_oracle_auditor, AuditConfig())

    def test_one_auditor_per_session_from_the_factory(self):
        traces = [ThroughputTrace(f"flat{i}", np.arange(300.0), np.full(300, 30e6)) for i in range(3)]
        audit = AuditConfig(guard_s=1.0, capacity_margin=0.8)
        calls = []

        def auditor_for(trace, cfg):
            calls.append((trace.trace_id, cfg))
            return make_auditor(PointPredictor(), cfg)

        _, _, logs = replay("point", lambda s: 5, traces, VideoSpec(num_chunks=6), W, auditor_for, audit)
        assert calls == [(tr.trace_id, audit) for tr in traces]
        assert [log.trace_id for log in logs] == ["flat0", "flat1", "flat2"]

    def test_guard_of_the_audit_config_sets_the_violation_budget(self):
        # a huge forecast admits every top-rung request; whether the admitted
        # downloads violate depends only on the guard the budget subtracts
        tr = ThroughputTrace("fast", np.arange(600.0), np.full(600, 200e6))
        spec = VideoSpec(num_chunks=8, size_jitter=(1.0, 1.0))
        loose, tight = (replay("huge", lambda s: 5, [tr], spec, W, _screened_by(_HugePredictor()),
                               AuditConfig(guard_s=guard)) for guard in (0.0, 3.9))
        assert decision_scores(loose[2], 0.0)[3] == decision_scores(tight[2], 3.9)[3] > 0
        assert loose[0].v_dec == 0.0
        assert tight[0].v_dec > 0.0

    def test_candidate_table_covers_every_candidate(self):
        table = candidate_auditors(PredictorConfig(), 0.5)
        assert tuple(table) == PREDICTOR_CANDIDATES
