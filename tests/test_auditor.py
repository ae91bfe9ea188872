"""Runtime feasibility screening and downward projection."""

import math

import numpy as np
import pytest

from abrlab.auditor import (
    AuditConfig,
    AuditDecision,
    audit_action,
    decision_violation,
    feasible_set,
    make_auditor,
    make_oracle_auditor,
)
from abrlab.policies import bulk_download_times, trace_cumulative_bytes
from abrlab.sim import PlayerState, QoEWeights, VideoSpec, chunk_sizes, download_chunk, run_session
from abrlab.traces import SynthConfig, ThroughputTrace, synthesize_trace

W = QoEWeights()
FLAT_SPEC = VideoSpec(size_jitter=(1.0, 1.0))
FLAT_SIZES = chunk_sizes(FLAT_SPEC, 0)  # [1.5, 4, 7.5, 15, 30, 60] MB


def _state(spec=FLAT_SPEC, buffer_s=10.0, prev=0, chunk_index=0, wall=0.0):
    return PlayerState(
        chunk_index=chunk_index,
        buffer_s=buffer_s,
        prev_rung=prev,
        throughput_history=np.zeros(8),
        remaining_chunks=spec.num_chunks - chunk_index,
        next_chunk_sizes=chunk_sizes(spec, chunk_index),
        ladder_kbps=spec.ladder.rungs_kbps,
        chunk_duration_s=spec.chunk_duration_s,
        buffer_max_s=spec.buffer_max_s,
        wall_time_s=wall,
    )


class TestAuditConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AuditConfig(guard_s=-1.0)
        with pytest.raises(ValueError):
            AuditConfig(capacity_margin=0.0)
        with pytest.raises(ValueError):
            AuditConfig(capacity_margin=1.1)
        assert AuditConfig(capacity_margin=1.0).capacity_margin == 1.0


class TestFeasibleSet:
    def test_worked_example_boundary_inclusive(self):
        # 30 Mbit/s forecast, margin 1, buffer 10, guard 2: times are
        # [0.4, 1.07, 2, 4, 8, 16] s against a budget of 8; the 8 s rung stays
        s = _state(buffer_s=10.0)
        cfg = AuditConfig(guard_s=2.0, capacity_margin=1.0)
        feas = feasible_set(s, FLAT_SIZES, 30e6, cfg)
        assert feas.tolist() == [0, 1, 2, 3, 4]

    def test_margin_shrinks_the_set(self):
        s = _state(buffer_s=10.0)
        cfg = AuditConfig(guard_s=2.0, capacity_margin=0.5)
        feas = feasible_set(s, FLAT_SIZES, 30e6, cfg)
        assert feas.tolist() == [0, 1, 2, 3]

    def test_buffer_at_or_below_guard_is_empty(self):
        cfg = AuditConfig(guard_s=2.0, capacity_margin=1.0)
        assert feasible_set(_state(buffer_s=2.0), FLAT_SIZES, 30e6, cfg).size == 0
        assert feasible_set(_state(buffer_s=1.0), FLAT_SIZES, 30e6, cfg).size == 0

    def test_generous_capacity_admits_everything(self):
        feas = feasible_set(_state(buffer_s=10.0), FLAT_SIZES, 1e12, AuditConfig())
        assert feas.tolist() == [0, 1, 2, 3, 4, 5]

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ValueError):
            feasible_set(_state(), FLAT_SIZES, 0.0)

    def test_set_is_always_a_prefix(self):
        # sizes grow with the rung, so feasibility can only be cut from above
        rng = np.random.default_rng(0)
        for _ in range(30):
            s = _state(buffer_s=float(rng.uniform(0.5, 60.0)))
            cfg = AuditConfig(guard_s=float(rng.uniform(0.0, 3.0)),
                              capacity_margin=float(rng.uniform(0.3, 1.0)))
            feas = feasible_set(s, FLAT_SIZES, float(rng.uniform(1e6, 2e8)), cfg)
            assert feas.tolist() == list(range(feas.size))


class TestAuditAction:
    def test_projection_cases(self):
        feas = np.arange(5)  # {0..4}
        assert audit_action(5, feas) == (4, True)
        assert audit_action(2, feas) == (2, False)
        assert audit_action(4, feas) == (4, False)

    def test_empty_set_falls_back_to_lowest(self):
        empty = np.zeros(0, dtype=int)
        assert audit_action(3, empty) == (0, True)
        assert audit_action(0, empty) == (0, False)

    def test_nothing_at_or_below_falls_back(self):
        assert audit_action(1, np.array([3, 4])) == (0, True)

    def test_never_moves_up_and_reaudit_is_stable(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            feas = np.flatnonzero(rng.random(6) < 0.5)
            raw = int(rng.integers(0, 6))
            safe, intervened = audit_action(raw, feas)
            assert safe <= raw
            assert intervened == (safe != raw)
            again, moved = audit_action(safe, feas)
            assert again == safe
            assert not moved or safe == 0 and 0 not in feas


def _reference_feasible_set(state, sizes_bytes, predicted_bps, cfg):
    """The numpy-mask feasibility rule the float loop replaced."""
    budget = state.buffer_s - cfg.guard_s
    if budget <= 0.0:
        return np.zeros(0, dtype=int)
    times = 8.0 * np.asarray(sizes_bytes, dtype=np.float64) / (cfg.capacity_margin * predicted_bps)
    return np.nonzero(times <= budget)[0]


def _reference_audit_action(raw_rung, feasible):
    feasible = np.asarray(feasible, dtype=int)
    at_or_below = feasible[feasible <= raw_rung]
    safe = int(at_or_below.max()) if at_or_below.size else 0
    return safe, safe != raw_rung


class TestAgainstNumpyReference:
    SPEC = VideoSpec()

    def _cases(self):
        """(state, sizes, predicted, cfg): random budgets, plus budgets set
        exactly to one rung's download time (an inclusive tie), to zero and
        below zero."""
        rng = np.random.default_rng(29)
        for i in range(400):
            sizes = self.SPEC.sizes[i % self.SPEC.num_chunks]
            predicted = float(rng.uniform(1e6, 3e8))
            cfg = AuditConfig(guard_s=0.0 if i % 4 == 1 else float(rng.choice([0.0, rng.uniform(0.0, 4.0)])),
                              capacity_margin=float(rng.choice([1.0, rng.uniform(0.3, 1.0)])))
            buffer_s = float(rng.uniform(0.0, 60.0))
            if i % 4 == 1:
                rung = int(rng.integers(sizes.size))
                buffer_s = float(8.0 * sizes[rung] / (cfg.capacity_margin * predicted))
            elif i % 4 == 2:
                buffer_s = cfg.guard_s - float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
            yield _state(buffer_s=buffer_s), sizes, predicted, cfg

    def test_feasible_sets_and_projections_equal_the_reference(self):
        ties = empty = 0
        for state, sizes, predicted, cfg in self._cases():
            got = feasible_set(state, sizes, predicted, cfg)
            ref = _reference_feasible_set(state, sizes, predicted, cfg)
            assert got.tolist() == ref.tolist() and got.dtype == ref.dtype
            times = 8.0 * sizes / (cfg.capacity_margin * predicted)
            ties += bool(np.any(times == state.buffer_s - cfg.guard_s))
            empty += state.buffer_s - cfg.guard_s <= 0.0
            for raw in range(sizes.size + 2):  # two requests above the top rung
                assert audit_action(raw, got) == _reference_audit_action(raw, ref)
        assert ties >= 100 and empty >= 100

    def test_projection_of_any_set_equals_the_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            feasible = np.flatnonzero(rng.random(6) < 0.5)
            for raw in range(8):
                assert audit_action(raw, feasible) == _reference_audit_action(raw, feasible)
                assert audit_action(raw, feasible.tolist()) == _reference_audit_action(raw, feasible)


class TestDecisionViolation:
    def test_worked_examples(self):
        # 15e6 bytes at 20 Mbit/s takes 6 s against a 5 s budget
        assert decision_violation(15e6, 20e6, 7.0, 2.0) is True
        assert decision_violation(15e6, 40e6, 7.0, 2.0) is False
        assert decision_violation(15e6, 20e6, 2.0, 2.0) is True  # empty budget

    def test_boundary_is_not_a_violation(self):
        assert decision_violation(15e6, 20e6, 8.0, 2.0) is False  # 6 s == budget

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ValueError):
            decision_violation(1e6, 0.0, 5.0)


class _ConstPredictor:
    def __init__(self, bps):
        self.bps = bps
        self.seen_lengths = []

    def predict(self, history_bps):
        self.seen_lengths.append(len(history_bps))
        return self.bps


class TestMakeAuditor:
    def test_no_history_passes_through(self):
        aud = make_auditor(_ConstPredictor(30e6))
        assert aud(_state(buffer_s=10.0), np.zeros(0), 5) is None

    def test_buffer_below_guard_falls_back_without_a_forecast(self):
        aud = make_auditor(_ConstPredictor(30e6), AuditConfig(guard_s=2.0))
        d = aud(_state(buffer_s=1.5), np.zeros(0), 3)
        assert (d.safe_rung, d.intervened, d.fallback) == (0, True, True)
        assert math.isnan(d.predicted_capacity_bps)

    def test_projection_with_recorded_capacities(self):
        aud = make_auditor(_ConstPredictor(30e6), AuditConfig(guard_s=2.0, capacity_margin=1.0))
        d = aud(_state(buffer_s=10.0), np.full(20, 25e6), 5)
        assert d.raw_rung == 5
        assert d.safe_rung == 4
        assert d.intervened and not d.fallback
        assert d.predicted_capacity_bps == 30e6
        assert d.effective_capacity_bps == 30e6
        assert d.feasible_rungs.tolist() == [0, 1, 2, 3, 4]

    def test_margin_recorded_in_effective_capacity(self):
        aud = make_auditor(_ConstPredictor(40e6), AuditConfig(capacity_margin=0.9))
        d = aud(_state(buffer_s=10.0), np.full(5, 1e6), 0)
        assert d.effective_capacity_bps == pytest.approx(36e6)

    def test_predictor_sees_the_whole_history(self):
        pred = _ConstPredictor(30e6)
        aud = make_auditor(pred, AuditConfig())
        aud(_state(buffer_s=10.0), np.arange(1.0, 11.0), 2)
        assert pred.seen_lengths == [10]

    def test_session_integration_counts_interventions(self):
        tr = ThroughputTrace("flat", np.arange(600.0), np.full(600, 30e6))
        aud = make_auditor(_ConstPredictor(30e6),
                           AuditConfig(guard_s=2.0, capacity_margin=1.0))
        log = run_session(tr, VideoSpec(num_chunks=12, size_jitter=(1.0, 1.0)), W,
                          lambda s: 5, auditor=aud)
        assert log.audit_interventions > 0
        for o in log.outcomes:
            assert o.rung <= o.raw_rung


class TestOracleAuditor:
    def test_feasibility_from_true_download_times(self):
        tr = ThroughputTrace("flat", np.arange(600.0), np.full(600, 30e6))
        aud = make_oracle_auditor(tr, AuditConfig(guard_s=2.0, capacity_margin=1.0))
        d = aud(_state(buffer_s=10.0), np.zeros(0), 5)
        assert d.feasible_rungs.tolist() == [0, 1, 2, 3, 4]  # 8 s fits the 8 s budget
        assert d.safe_rung == 4
        assert d.predicted_capacity_bps == pytest.approx(30e6)
        assert d.effective_capacity_bps == pytest.approx(30e6)

    def test_empty_budget_falls_back(self):
        tr = ThroughputTrace("flat", np.arange(600.0), np.full(600, 30e6))
        aud = make_oracle_auditor(tr, AuditConfig(guard_s=4.0))
        d = aud(_state(buffer_s=4.0), np.zeros(0), 2)
        assert (d.safe_rung, d.fallback) == (0, True)

    def test_boundary_rung_is_judged_by_the_executed_download(self):
        # At 1.1 s on a flat 30 Mbit/s link the planner's integrator times rung 1
        # a few ulps shorter than the download the session executes. With the
        # buffer at the planner's time, that rung would overrun it when scored.
        tr = ThroughputTrace("flat", np.arange(600.0), np.full(600, 30e6))
        size = float(FLAT_SIZES[1])
        planned = float(bulk_download_times(trace_cumulative_bytes(tr), tr.throughput_bps, 0.0,
                                            np.array([1.1]), np.array([size]))[0])
        executed, realized = download_chunk(tr, 1.1, size)
        assert planned < executed and decision_violation(size, realized, planned)
        aud = make_oracle_auditor(tr, AuditConfig(capacity_margin=1.0))
        d = aud(_state(buffer_s=planned, wall=1.1), np.zeros(0), 5)
        assert d.feasible_rungs.tolist() == [0]
        assert d.safe_rung == 0

    def test_download_past_the_trace_end_is_infeasible(self):
        # 1.5 s of a 10 s, 30 Mbit/s trace are left: 5.6 MB, rungs 0 and 1.
        # Extrapolating at the final rate admitted every rung.
        tr = ThroughputTrace("short", np.arange(10.0), np.full(10, 30e6))
        aud = make_oracle_auditor(tr, AuditConfig(capacity_margin=1.0))
        d = aud(_state(buffer_s=30.0, wall=8.5), np.zeros(0), 5)
        assert d.feasible_rungs.tolist() == [0, 1]
        assert (d.safe_rung, d.fallback) == (1, False)
        assert d.predicted_capacity_bps == pytest.approx(30e6)
        # 0.1 s left: not even the lowest rung arrives, so nothing is admitted
        d = aud(_state(buffer_s=30.0, wall=9.9), np.zeros(0), 5)
        assert (d.feasible_rungs.size, d.safe_rung, d.fallback) == (0, 0, True)
        assert math.isnan(d.predicted_capacity_bps)

    def test_admitted_decisions_never_violate(self):
        spec = VideoSpec(num_chunks=20)
        rng = np.random.default_rng(2)
        for seed in range(4):
            tr = synthesize_trace(SynthConfig(duration_s=400, seed=600 + seed))
            aud = make_oracle_auditor(tr, AuditConfig(guard_s=0.5))
            log = run_session(tr, spec, W, lambda s: int(rng.integers(0, 6)), auditor=aud)
            for o in log.outcomes:
                if not o.fallback:
                    assert not decision_violation(
                        o.size_bytes, o.effective_throughput_bps, o.buffer_before_s, 0.5)


class TestAuditDecisionDefaults:
    def test_capacity_fields_default_to_nan(self):
        d = AuditDecision(raw_rung=3, safe_rung=0, intervened=True, fallback=True)
        assert math.isnan(d.predicted_capacity_bps)
        assert math.isnan(d.effective_capacity_bps)
        assert d.feasible_rungs.size == 0
