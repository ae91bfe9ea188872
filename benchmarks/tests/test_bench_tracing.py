"""Span arithmetic and the installation of the tracing wrappers."""

import numpy as np
import pytest

import abrlab.auditor
import abrlab.capacity
import abrlab.cli
import abrlab.imitation
import abrlab.policies
import abrlab.sim
from abrlab.capacity import PointPredictor
from abrlab.sim import QoEWeights, VideoSpec
from abrlab.traces import SynthConfig, synthesize_trace

import tracing


def test_self_time_of_nested_spans():
    rec = tracing.SpanRecorder()
    root = rec.add("a.root", 0.0, 10.0)
    left = rec.add("a.child", 1.0, 4.0, parent=root)
    rec.add("a.leaf", 2.0, 2.5, parent=left)
    rec.add("a.leaf", 3.0, 3.25, parent=left)
    rec.add("a.child", 5.0, 9.0, parent=root)
    rec.add("a.root", 20.0, 21.0)
    s = tracing.summarize(rec)
    assert s["a.root"]["calls"] == 2
    assert s["a.root"]["total_s"] == pytest.approx(11.0)
    assert s["a.root"]["self_s"] == pytest.approx(3.0 + 1.0)
    assert s["a.child"]["self_s"] == pytest.approx(2.25 + 4.0)
    assert s["a.leaf"]["total_s"] == s["a.leaf"]["self_s"] == pytest.approx(0.75)
    np.testing.assert_allclose(s["a.leaf"]["durations"], [0.5, 0.25])
    # Self times partition the root spans exactly.
    assert s["<roots>"]["self_sum_s"] == pytest.approx(s["<roots>"]["total_s"]) == pytest.approx(11.0)


def test_open_and_close_record_parents():
    rec = tracing.SpanRecorder()
    outer = rec.open(rec.name_id("x.outer"))
    inner = rec.open(rec.name_id("x.inner"))
    rec.close(inner)
    rec.close(outer)
    a = rec.arrays()
    assert list(a["parent"]) == [-1, outer]
    assert np.all(a["end"] >= a["start"])


def test_install_rebinds_every_namespace_and_uninstall_restores():
    original = abrlab.policies.beam_expert_decide
    step = abrlab.sim.SessionEnv.step
    rec = tracing.SpanRecorder()
    inst = tracing.install(rec)
    try:
        assert abrlab.imitation.beam_expert_decide is abrlab.policies.beam_expert_decide
        assert abrlab.imitation.beam_expert_decide is not original
        assert abrlab.sim.SessionEnv.step is not step
        assert abrlab.cli.run_session is abrlab.capacity.run_session
        tracing.check_installed(inst)
    finally:
        inst.uninstall()
    assert abrlab.policies.beam_expert_decide is original
    assert abrlab.imitation.beam_expert_decide is original
    assert abrlab.sim.SessionEnv.step is step


def test_check_installed_reports_an_escaped_binding():
    rec = tracing.SpanRecorder()
    inst = tracing.install(rec)
    try:
        wrapped = abrlab.cli.run_session
        abrlab.cli.run_session = inst.originals[id(wrapped.__bench_original__)]
        with pytest.raises(RuntimeError, match="abrlab.cli.run_session"):
            tracing.check_installed(inst)
        abrlab.cli.run_session = wrapped
    finally:
        inst.uninstall()


def test_traced_session_records_spans_and_counters():

    trace = synthesize_trace(SynthConfig(duration_s=300, seed=(1, 1)), trace_id="t")
    rec = tracing.SpanRecorder()
    inst = tracing.install(rec)
    try:
        auditor = abrlab.auditor.make_auditor(PointPredictor())
        log = abrlab.sim.run_session(trace, VideoSpec(num_chunks=6), QoEWeights(),
                                     abrlab.policies.make_rate_rule_policy(), auditor=auditor)
    finally:
        inst.uninstall()
    s = tracing.summarize(rec)
    assert s["sim.run_session"]["calls"] == 1
    assert s["sim.SessionEnv.step"]["calls"] == len(log.outcomes) == 6
    assert s["auditor.decide"]["calls"] == 6
    assert rec.counters["auditor.decide.interventions"] == log.audit_interventions
    assert rec.counters["sim.run_session.truncated"] == 0
    assert s["<roots>"]["self_sum_s"] == pytest.approx(s["<roots>"]["total_s"])
