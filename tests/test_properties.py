"""Property tests: download integrators, the expert's pruned plan search,
auditor margin monotonicity, trace splits.

Traces are 600 s of 1 Hz samples built from a few regimes of 1-200 Mbit/s,
and downloads are chunk-sized (100 kB to 30 MB), the ranges the simulator
and the planners work in.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abrlab.auditor import AuditConfig, feasible_set
from abrlab.policies import beam_expert_labels, bulk_download_times, trace_cumulative_bytes
from abrlab.sim import PlayerState, QoEWeights, VideoSpec, download_chunk
from abrlab.traces import ThroughputTrace, split_traces

TRACE_S = 600
REL = 1e-9
# Fixed examples, drawn the same way on every run, so tier-1 cannot flake.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

rates_bps = st.lists(st.floats(1e6, 2e8), min_size=1, max_size=40)
dwells_s = st.lists(st.integers(1, 15), min_size=1, max_size=40)
chunk_bytes = st.floats(1e5, 3e7)
origin_s = st.sampled_from([0.0, 100.0, 3600.0])


def _trace(rates, dwells, t0) -> ThroughputTrace:
    """Regimes of constant rate, repeated cyclically to fill TRACE_S seconds."""
    n = min(len(rates), len(dwells))
    bps = np.resize(np.repeat(rates[:n], dwells[:n]), TRACE_S)
    return ThroughputTrace("prop", t0 + np.arange(TRACE_S, dtype=np.float64), bps)


def _bulk(trace: ThroughputTrace, start: float, size: float) -> float:
    cum = trace_cumulative_bytes(trace)
    d = bulk_download_times(cum, trace.throughput_bps, float(trace.times_s[0]),
                            np.array([start]), np.array([size]))
    return float(d[0])


class TestDownloadIntegrators:
    @PROPERTY
    @given(rates_bps, dwells_s, origin_s, st.floats(0.0, 1.2 * TRACE_S), chunk_bytes, chunk_bytes)
    def test_bulk_download_times_is_additive(self, rates, dwells, t0, offset, s1, s2):
        # Downloading s1 + s2 takes as long as s1 followed at once by s2.
        # Past the end of the trace the last rate holds, so starts there count too.
        trace = _trace(rates, dwells, t0)
        u = t0 + offset
        first = _bulk(trace, u, s1)
        whole = _bulk(trace, u, s1 + s2)
        assert abs(whole - (first + _bulk(trace, u + first, s2))) <= REL * whole

    @PROPERTY
    @given(rates_bps, dwells_s, origin_s, st.floats(0.0, TRACE_S / 2), chunk_bytes)
    def test_bulk_download_times_matches_download_chunk(self, rates, dwells, t0, offset, size):
        # From the first half of the trace, at least 300 s at >= 1 Mbit/s
        # (37.5 MB) remain, so every chunk-sized download ends inside it.
        trace = _trace(rates, dwells, t0)
        u = t0 + offset
        reference, _ = download_chunk(trace, u, size)
        assert abs(_bulk(trace, u, size) - reference) <= REL * reference


SPEC = VideoSpec(num_chunks=10)


def _exhaustive_expert(state: PlayerState, trace: ThroughputTrace, w: QoEWeights, horizon: int) -> int:
    """The expert without pruning: time and score all ladder^horizon plans,
    level by level, and take the first maximal leaf in plan order."""
    horizon = min(horizon, state.remaining_chunks)
    rates = np.asarray(SPEC.ladder.rungs_kbps, dtype=np.float64)
    n = rates.size
    cum, bps, t0 = trace_cumulative_bytes(trace), trace.throughput_bps, float(trace.times_s[0])
    b, q = np.array([state.buffer_s]), np.zeros(1)
    prev, u = np.array([state.prev_rung]), np.array([state.wall_time_s])
    for h in range(horizon):
        b, q, prev, u = (np.repeat(x, n) for x in (b, q, prev, u))
        rung = np.tile(np.arange(n), q.size // n)
        d = bulk_download_times(cum, bps, t0, u, SPEC.sizes[state.chunk_index + h, rung])
        rebuf = np.maximum(d - b, 0.0)
        q += rates[rung] / 1000.0 - w.rebuffer_penalty * rebuf \
            - w.smoothness_penalty * np.abs(rates[rung] - rates[prev]) / 1000.0
        b = np.minimum(SPEC.buffer_max_s, np.maximum(b - d, 0.0) + SPEC.chunk_duration_s)
        u, prev = u + d, rung
    return int(np.argmax(q)) // n ** (horizon - 1)


def _planner_state(trace: ThroughputTrace, chunk: int, buffer_s: float, prev: int, offset: float) -> PlayerState:
    return PlayerState(
        chunk_index=chunk, buffer_s=buffer_s, prev_rung=prev, throughput_history=np.zeros(8),
        remaining_chunks=SPEC.num_chunks - chunk, next_chunk_sizes=SPEC.sizes[chunk].copy(),
        ladder_kbps=SPEC.ladder.rungs_kbps, chunk_duration_s=SPEC.chunk_duration_s,
        buffer_max_s=SPEC.buffer_max_s, wall_time_s=float(trace.times_s[0]) + offset,
    )


# (chunk index, buffer, previous rung, start offset into the trace): any
# chunk, so some horizons are clipped, and starts past the trace's end.
planner_states = st.lists(
    st.tuples(st.integers(0, SPEC.num_chunks - 1), st.floats(0.0, SPEC.buffer_max_s),
              st.integers(0, SPEC.ladder.num_rungs - 1), st.floats(0.0, 1.2 * TRACE_S)),
    min_size=1, max_size=6)
weights = st.sampled_from([QoEWeights(), QoEWeights(4.0, 0.0), QoEWeights(0.0, 1.0), QoEWeights(160.0, 2.5)])


class TestExpertSearch:
    @PROPERTY
    @given(rates_bps, dwells_s, origin_s, planner_states, weights, st.integers(1, 5))
    def test_pruned_search_equals_full_enumeration(self, rates, dwells, t0, drawn, w, horizon):
        trace = _trace(rates, dwells, t0)
        states = [_planner_state(trace, *s) for s in drawn]
        assert beam_expert_labels(states, trace, SPEC, w, horizon) == [
            _exhaustive_expert(s, trace, w, horizon) for s in states]

    @PROPERTY
    @given(rates_bps, dwells_s, origin_s, planner_states)
    def test_exact_ties_between_first_rungs_go_to_the_lowest(self, rates, dwells, t0, drawn):
        # Stalls are free and a switch costs 1 per Mbit/s, so on the last
        # chunk every rung at or above the previous one scores the previous
        # rung's rate exactly: a tie, which goes to the previous rung.
        w = QoEWeights(rebuffer_penalty=0.0, smoothness_penalty=1.0)
        trace = _trace(rates, dwells, t0)
        last = SPEC.num_chunks - 1
        states = [_planner_state(trace, last, buffer_s, prev, offset) for _, buffer_s, prev, offset in drawn]
        labels = beam_expert_labels(states, trace, SPEC, w, 5)
        assert labels == [s.prev_rung for s in states]
        assert labels == [_exhaustive_expert(s, trace, w, 5) for s in states]


def _state(buffer_s: float, sizes: np.ndarray) -> PlayerState:
    return PlayerState(
        chunk_index=0, buffer_s=buffer_s, prev_rung=0, throughput_history=np.zeros(8),
        remaining_chunks=1, next_chunk_sizes=sizes, ladder_kbps=tuple(range(1, sizes.size + 1)),
        chunk_duration_s=4.0, buffer_max_s=60.0, wall_time_s=0.0,
    )


class TestFeasibleSet:
    @PROPERTY
    @given(st.lists(chunk_bytes, min_size=1, max_size=8), st.floats(0.0, 60.0),
           st.floats(0.0, 5.0), st.floats(1e6, 2e8),
           st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_feasible_set_shrinks_with_the_margin(self, sizes, buffer_s, guard_s, predicted, m1, m2):
        low, high = sorted((m1, m2))
        state = _state(buffer_s, np.sort(np.asarray(sizes)))
        narrow = feasible_set(state, state.next_chunk_sizes, predicted,
                              AuditConfig(guard_s=guard_s, capacity_margin=low))
        wide = feasible_set(state, state.next_chunk_sizes, predicted,
                            AuditConfig(guard_s=guard_s, capacity_margin=high))
        assert set(narrow.tolist()) <= set(wide.tolist())


class TestSplitTraces:
    @PROPERTY
    @given(st.lists(st.text(min_size=1, max_size=8), min_size=3, max_size=60, unique=True),
           st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
           st.integers(0, 2**32 - 1))
    def test_split_is_a_partition(self, ids, weights, seed):
        total = sum(weights)
        parts = split_traces(ids, tuple(w / total for w in weights), seed)
        joined = [tid for part in parts for tid in part]
        assert len(joined) == len(ids)
        assert sorted(joined) == sorted(ids)
