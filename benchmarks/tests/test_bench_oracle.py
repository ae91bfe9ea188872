"""The oracle against beam_expert_decide on hand-built states."""

import numpy as np
import pytest

from abrlab.policies import beam_expert_decide, bulk_download_times, trace_cumulative_bytes
from abrlab.sim import BitrateLadder, PlayerState, QoEWeights, VideoSpec, chunk_sizes
from abrlab.traces import SynthConfig, ThroughputTrace, synthesize_trace

import oracle


def make_state(spec, chunk_index, buffer_s, prev_rung, wall_time_s):
    return PlayerState(
        chunk_index=chunk_index, buffer_s=buffer_s, prev_rung=prev_rung,
        throughput_history=np.zeros(8), remaining_chunks=spec.num_chunks - chunk_index,
        next_chunk_sizes=chunk_sizes(spec, chunk_index), ladder_kbps=spec.ladder.rungs_kbps,
        chunk_duration_s=spec.chunk_duration_s, buffer_max_s=spec.buffer_max_s,
        wall_time_s=wall_time_s,
    )


def assert_agrees(state, trace, spec, w, horizon):
    label = beam_expert_decide(state, trace, spec, w, horizon)
    assert oracle.label_agrees(label, state, trace, spec, w, horizon)
    assert label == oracle.oracle_decide(state, trace, spec, w, horizon)[0]
    return label


@pytest.mark.parametrize("chunk_index,buffer_s,prev_rung,wall", [
    (0, 4.0, 0, 0.0), (10, 12.5, 3, 57.3), (20, 0.5, 5, 130.9), (30, 60.0, 2, 300.0),
])
def test_full_horizon_states_on_a_synthetic_trace(chunk_index, buffer_s, prev_rung, wall):
    spec, w = VideoSpec(), QoEWeights()
    trace = synthesize_trace(SynthConfig(duration_s=600, seed=(3, 1)), trace_id="t")
    assert_agrees(make_state(spec, chunk_index, buffer_s, prev_rung, wall), trace, spec, w, 5)


def test_exact_tie_goes_to_the_lowest_first_rung():
    # Rung 1 stalls 0.5 s at penalty 2 and gains exactly the 1 quality unit it loses.
    spec = VideoSpec(num_chunks=4, ladder=BitrateLadder((1000, 2000)), size_jitter=(1.0, 1.0))
    w = QoEWeights(rebuffer_penalty=2.0, smoothness_penalty=0.0)
    trace = ThroughputTrace("flat", np.arange(60.0), np.full(60, 8e6))
    state = make_state(spec, 3, 0.5, 0, 0.0)
    scores = oracle.best_by_first_rung(oracle.plan_scores(state, trace, spec, w, 5))
    assert scores[0] == scores[1]
    assert assert_agrees(state, trace, spec, w, 5) == 0


def test_end_of_session_clips_the_horizon():
    spec, w = VideoSpec(), QoEWeights()
    trace = synthesize_trace(SynthConfig(duration_s=600, seed=(3, 2)), trace_id="t")
    state = make_state(spec, spec.num_chunks - 2, 9.0, 4, 180.0)
    assert len(next(iter(oracle.plan_scores(state, trace, spec, w, 5)))) == 2
    assert_agrees(state, trace, spec, w, 5)


def test_plans_past_the_trace_end_continue_at_the_final_rate():
    spec, w = VideoSpec(), QoEWeights()
    rates = np.array([20e6, 5e6, 80e6, 1e6, 40e6, 30e6, 10e6, 60e6])
    trace = ThroughputTrace("short", np.arange(rates.size, dtype=float), rates)
    state = make_state(spec, 5, 6.0, 2, 3.4)
    assert_agrees(state, trace, spec, w, 5)
    cum = trace_cumulative_bytes(trace)
    for start in (0.0, 3.4, 7.9, 8.0, 12.5):
        for size in (1e5, 3e6, 9e7):
            ref = bulk_download_times(cum, rates, 0.0, np.array([start]), np.array([size]))[0]
            assert oracle.download_time(trace, start, size) == pytest.approx(ref, rel=1e-12)


def test_a_wrong_label_is_rejected():
    spec, w = VideoSpec(), QoEWeights()
    trace = synthesize_trace(SynthConfig(duration_s=600, seed=(3, 3)), trace_id="t")
    state = make_state(spec, 5, 20.0, 2, 30.0)
    best = oracle.best_by_first_rung(oracle.plan_scores(state, trace, spec, w, 5))
    label = beam_expert_decide(state, trace, spec, w, 5)
    worse = min(best, key=best.get)
    assert best[worse] < best[label]
    assert not oracle.label_agrees(worse, state, trace, spec, w, 5)
