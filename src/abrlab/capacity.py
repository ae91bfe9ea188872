"""Safe-capacity forecasting (point predictor, calibrated lower bound), the
candidate auditors built from it, and the one scored replay of a policy's sessions.

The lower bound is a multiplicative correction: collect realized/predicted
ratios on calibration traces, take a low order-statistic quantile, and scale
the point forecast by it. Under exchangeability the bound is then exceeded by
reality all but about a `delta` fraction of the time, which is exactly the
miss rate the tests check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .auditor import AuditConfig, decision_violation, make_auditor, make_oracle_auditor
from .metrics import RiskReport, build_report
# run_session is not called here but stays bound: the benchmark tests check this binding.
from .sim import QoEWeights, SessionLog, VideoSpec, run_session, run_sessions, session_summary  # noqa: F401
from .traces import ThroughputTrace

# The predictors `calibrate` can score; "oracle" is the hindsight auditor.
PREDICTOR_CANDIDATES = ("point", "lower-bound", "oracle")


@dataclass(frozen=True)
class PredictorConfig:
    horizon_s: int = 15  # both the forecast window and the target window
    delta: float = 0.10
    candidates: tuple[str, ...] = ("point", "lower-bound")

    def __post_init__(self):
        if self.horizon_s < 1:
            raise ValueError("horizon_s must be at least 1")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        unknown = set(self.candidates) - set(PREDICTOR_CANDIDATES)
        if unknown:
            raise ValueError(f"unknown predictor candidates {sorted(unknown)}; "
                             f"choose from {PREDICTOR_CANDIDATES}")


def candidate_auditors(cfg: PredictorConfig, scale: float) -> dict[str, Callable]:
    """Auditor factory `(trace, audit) -> auditor` per name in
    PREDICTOR_CANDIDATES; the lower bound scales the point forecast by the
    calibrated `scale`, and the oracle screens with hindsight."""
    lower = LowerBoundPredictor(PointPredictor(cfg), scale)
    return {"point": lambda trace, audit: make_auditor(lower.point, audit),
            "lower-bound": lambda trace, audit: make_auditor(lower, audit),
            "oracle": make_oracle_auditor}


def lower_quantile(values: Sequence[float], delta: float) -> float:
    """Ascending order statistic at rank ceil(delta * n), 1-indexed."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise ValueError("quantile of an empty sample")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    rank = max(int(math.ceil(delta * v.size)), 1)
    return float(v[rank - 1])


class PointPredictor:
    """Trailing-mean capacity forecast."""

    def __init__(self, cfg: PredictorConfig = PredictorConfig()):
        self.cfg = cfg

    def predict(self, history_bps: np.ndarray) -> float:
        """Mean of the last min(horizon_s, available) 1 Hz samples, oldest first."""
        h = np.asarray(history_bps, dtype=np.float64)
        if h.size == 0:
            raise ValueError("cannot forecast from an empty history")
        window = h[-min(self.cfg.horizon_s, h.size):]
        return float(np.add.reduce(window) / window.size)  # ndarray.mean's own steps, without its wrapper


class LowerBoundPredictor:
    """Point forecast scaled by a calibrated low quantile of realized/point."""

    def __init__(self, point: PointPredictor, scale: float):
        if scale <= 0.0:
            raise ValueError("calibrated scale must be positive")
        self.point = point
        self.scale = float(scale)

    def predict(self, history_bps: np.ndarray) -> float:
        return self.scale * self.point.predict(history_bps)


@dataclass(frozen=True)
class CalibrationResult:
    scale: float
    delta: float
    horizon_s: int
    n_windows: int


def _forecast_windows(point: PointPredictor, traces: Sequence[ThroughputTrace]) -> tuple[np.ndarray, np.ndarray]:
    """(point forecast, realized mean) for every valid 1 s window of every trace."""
    horizon = point.cfg.horizon_s
    predicted, realized = [np.zeros(0)], [np.zeros(0)]
    for trace in traces:
        bps = trace.throughput_bps
        n = bps.size - horizon  # windows start 1 .. n seconds into the trace
        if n < 1:
            continue
        # Row j is the mean of bps[j : j + horizon]: the forecast at j + horizon
        # once a full horizon of history exists, and the realized mean at j.
        means = np.ascontiguousarray(sliding_window_view(bps, horizon)).mean(axis=1)
        partial = [point.predict(bps[:i]) for i in range(1, min(horizon, n + 1))]
        predicted += [np.asarray(partial, dtype=np.float64), means[: max(n - horizon + 1, 0)]]
        realized.append(means[1:])
    return np.concatenate(predicted), np.concatenate(realized)


def calibration_ratios(point: PointPredictor, traces: Sequence[ThroughputTrace]) -> np.ndarray:
    """realized/predicted for every valid 1 s window of every trace."""
    predicted, realized = _forecast_windows(point, traces)
    return realized / predicted


MIN_CALIBRATION_WINDOWS = 50


def calibrate_lower_bound(point: PointPredictor, traces: Sequence[ThroughputTrace]) -> CalibrationResult:
    """Fit the multiplicative lower-bound scale, at `point.cfg.delta`, on calibration traces."""
    ratios = calibration_ratios(point, traces)
    if ratios.size < MIN_CALIBRATION_WINDOWS:
        raise ValueError(f"need at least {MIN_CALIBRATION_WINDOWS} calibration windows, got {ratios.size}")
    return CalibrationResult(
        scale=lower_quantile(ratios, point.cfg.delta),
        delta=point.cfg.delta,
        horizon_s=point.cfg.horizon_s,
        n_windows=int(ratios.size),
    )


def coverage_miss_rate(lb: LowerBoundPredictor, traces: Sequence[ThroughputTrace]) -> tuple[float, int]:
    """(fraction of fresh windows where reality undercuts the bound, n windows)."""
    predicted, realized = _forecast_windows(lb.point, traces)
    if predicted.size == 0:
        raise ValueError("no evaluation windows")
    return float(np.mean(realized < lb.scale * predicted)), int(predicted.size)


def violation_rate(violations: Sequence[bool]) -> float:
    """Share of admitted decisions that still overran the budget."""
    v = np.asarray(violations, dtype=bool)
    return float(v.mean()) if v.size else 0.0


def high_risk_overrate(predicted_bps: Sequence[float], realized_bps: Sequence[float],
                       fraction: float = 0.3) -> float:
    """Overprediction rate on the ceil(fraction * n) lowest-capacity samples."""
    p = np.asarray(predicted_bps, dtype=np.float64)
    c = np.asarray(realized_bps, dtype=np.float64)
    if p.size != c.size or p.size == 0:
        raise ValueError("predicted/realized samples must be non-empty and aligned")
    k = int(math.ceil(fraction * c.size))
    hard = np.argsort(c, kind="stable")[:k]
    return float(np.mean(p[hard] > c[hard]))


def decision_scores(logs: Sequence[SessionLog], guard_s: float) -> tuple[float, float, int, int]:
    """(v_dec, overrate_hr, n_decisions, n_admitted): the auditor of audited
    sessions scored at decision level.

    v_dec counts violations of the budget `buffer - guard_s` only over
    admitted (executed, non-fallback) decisions; the overprediction rate is
    computed on the lowest-30% realized capacity slice of all forecasted
    decisions. Chunks decided before any history existed carry no forecast
    and are excluded from both.
    """
    predicted: list[float] = []
    realized: list[float] = []
    admitted_violations: list[bool] = []
    for log in logs:
        for o in log.outcomes:
            if math.isnan(o.predicted_capacity_bps):
                continue
            predicted.append(o.predicted_capacity_bps)
            realized.append(o.effective_throughput_bps)
            if not o.fallback:
                admitted_violations.append(decision_violation(o.size_bytes, o.effective_throughput_bps,
                                                              o.buffer_before_s, guard_s))
    overrate = high_risk_overrate(predicted, realized) if predicted else 0.0
    return violation_rate(admitted_violations), overrate, len(predicted), len(admitted_violations)


def replay(name: str, policy: Callable, traces: Sequence[ThroughputTrace], spec: VideoSpec, w: QoEWeights,
           auditor_for: Callable | None = None, audit: AuditConfig = AuditConfig(), history_len: int = 8,
           tail_fraction: float = 0.05, severe_threshold_s: float = 10.0,
           ) -> tuple[RiskReport, list[dict], list[SessionLog]]:
    """(risk report named `name`, session rows, logs) of `policy` on `traces`.

    With `auditor_for`, a factory of `candidate_auditors`, each session is
    audited by `auditor_for(trace, audit)` and the report carries
    `decision_scores` at `audit.guard_s`; without it, those two columns are None.
    """
    if not traces:
        raise ValueError("no traces to evaluate")
    auditors = [auditor_for(trace, audit) for trace in traces] if auditor_for else None
    logs = run_sessions(traces, spec, w, policy, auditors, history_len=history_len)
    v_dec, overrate = decision_scores(logs, audit.guard_s)[:2] if auditor_for else (None, None)
    rows = [session_summary(log) for log in logs]
    return build_report(name, rows, v_dec=v_dec, overrate_hr=overrate, tail_fraction=tail_fraction,
                        severe_threshold_s=severe_threshold_s), rows, logs
