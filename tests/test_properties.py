"""Property tests: download integrators, auditor margin monotonicity, trace splits.

Traces are 600 s of 1 Hz samples built from a few regimes of 1-200 Mbit/s,
and downloads are chunk-sized (100 kB to 30 MB), the ranges the simulator
and the planners work in.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abrlab.auditor import AuditConfig, feasible_set
from abrlab.policies import bulk_download_times, trace_cumulative_bytes
from abrlab.sim import PlayerState, download_chunk
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
