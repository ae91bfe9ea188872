"""Chunk simulator: sizes, downloads, buffer dynamics, session replay."""

import dataclasses
import math

import numpy as np
import pytest

from abrlab.auditor import AuditConfig, AuditDecision, make_auditor, make_oracle_auditor
from abrlab.capacity import LowerBoundPredictor, PointPredictor, PredictorConfig
from abrlab.net import NetConfig, feature_dim, featurize, init_policy_net, make_greedy_policy
from abrlab.policies import (beam_expert_labels, make_bola_policy, make_rate_rule_policy, make_robust_mpc_policy,
                             robust_mpc_labels)
from abrlab.sim import (
    BitrateLadder,
    QoEWeights,
    SessionEnv,
    TraceExhaustedError,
    VideoSpec,
    advance_buffer,
    chunk_qoe,
    chunk_size,
    chunk_sizes,
    download_chunk,
    nominal_top_rung_bytes,
    rebuffer_time,
    run_session,
    run_sessions,
    session_summary,
)
from abrlab.traces import SynthConfig, ThroughputTrace, synthesize_trace


def _const_trace(bps, n=600, tid="const"):
    return ThroughputTrace(tid, np.arange(n, dtype=float), np.full(n, float(bps)))


def _jitter(spec):
    """Per-chunk size multipliers, drawn here independently of VideoSpec."""
    lo, hi = spec.size_jitter
    return np.random.default_rng(spec.jitter_seed).uniform(lo, hi, spec.num_chunks)


def _spec(**kw):
    kw.setdefault("size_jitter", (1.0, 1.0))
    return VideoSpec(**kw)


class TestLadder:
    def test_default_has_six_rungs(self):
        assert BitrateLadder().num_rungs == 6

    def test_invalid_ladders_rejected(self):
        with pytest.raises(ValueError):
            BitrateLadder((3000,))
        with pytest.raises(ValueError):
            BitrateLadder((3000, 3000))
        with pytest.raises(ValueError):
            BitrateLadder((8000, 3000))


class TestChunkSize:
    def test_nominal_sizes_without_jitter(self):
        spec = _spec()
        # bytes = kbps * 1000 * duration / 8
        assert chunk_size(spec, 0, 0) == 1.5e6
        assert chunk_size(spec, 0, 3) == 15e6
        assert chunk_size(spec, 0, 5) == 60e6

    def test_jitter_multiplies_every_rung_of_a_chunk_equally(self):
        spec = VideoSpec(size_jitter=(0.9, 1.1))
        for t in (0, 7, 47):
            sizes = chunk_sizes(spec, t)
            ratio = sizes / sizes[0]
            rates = np.asarray(spec.ladder.rungs_kbps, dtype=float)
            assert np.allclose(ratio, rates / rates[0])
            m = _jitter(spec)[t]
            assert 0.9 <= m <= 1.1
            assert np.isclose(sizes[0], 1.5e6 * m)

    def test_fixed_jitter_bound(self):
        spec = VideoSpec(size_jitter=(1.1, 1.1))
        assert np.isclose(chunk_size(spec, 0, 0), 1.65e6)

    def test_jitter_deterministic_per_seed(self):
        a = VideoSpec(jitter_seed=11)
        b = VideoSpec(jitter_seed=11)
        c = VideoSpec(jitter_seed=12)
        assert chunk_size(a, 3, 2) == chunk_size(b, 3, 2)
        assert chunk_size(a, 3, 2) != chunk_size(c, 3, 2)

    def test_size_table_matches_lookup_and_is_read_only(self):
        for spec in (VideoSpec(), VideoSpec(num_chunks=5, jitter_seed=3, chunk_duration_s=2.5),
                     VideoSpec(ladder=BitrateLadder((1000, 2500, 7000)), size_jitter=(0.8, 1.3))):
            assert spec.sizes.shape == (spec.num_chunks, spec.ladder.num_rungs)
            jitter = _jitter(spec)
            for t in range(spec.num_chunks):
                for a in range(spec.ladder.num_rungs):
                    nominal = spec.ladder.rungs_kbps[a] * 1000.0 * spec.chunk_duration_s / 8.0
                    assert spec.sizes[t, a] == chunk_size(spec, t, a) == nominal * jitter[t]
                assert np.array_equal(chunk_sizes(spec, t), spec.sizes[t])
            with pytest.raises(ValueError):
                spec.sizes[0, 0] = 1.0
        with pytest.raises(ValueError):
            chunk_sizes(VideoSpec(num_chunks=5), 5)

    def test_top_rung_reference_bytes(self):
        assert nominal_top_rung_bytes(VideoSpec()) == 60e6

    def test_out_of_range_rejected(self):
        spec = _spec()
        with pytest.raises(ValueError):
            chunk_size(spec, -1, 0)
        with pytest.raises(ValueError):
            chunk_size(spec, 48, 0)
        with pytest.raises(ValueError):
            chunk_size(spec, 0, 6)


class TestVideoSpecValidation:
    def test_default_initial_buffer_is_one_chunk(self):
        assert VideoSpec().initial_buffer_s == 4.0
        assert VideoSpec(chunk_duration_s=2.0).initial_buffer_s == 2.0

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            VideoSpec(num_chunks=0)
        with pytest.raises(ValueError):
            VideoSpec(chunk_duration_s=0.0)
        with pytest.raises(ValueError):
            VideoSpec(size_jitter=(0.0, 1.0))
        with pytest.raises(ValueError):
            VideoSpec(size_jitter=(1.2, 0.9))
        with pytest.raises(ValueError):
            VideoSpec(initial_prev_rung=6)
        with pytest.raises(ValueError):
            VideoSpec(initial_buffer_s=61.0)


class TestDownloadChunk:
    def test_constant_rate_exact_time(self):
        # 120 Mbit/s moves 15e6 bytes per second
        d, c = download_chunk(_const_trace(120e6), 0.0, 30e6)
        assert d == pytest.approx(2.0)
        assert c == pytest.approx(120e6)

    def test_rate_change_mid_download(self):
        tr = ThroughputTrace("step", np.arange(10.0), np.r_[10e6, np.full(9, 30e6)])
        # 1.25e6 bytes arrive in second one, the rest at 3.75e6 bytes/s
        d, c = download_chunk(tr, 0.0, 2.5e6)
        assert d == pytest.approx(4.0 / 3.0)
        assert c == pytest.approx(15e6)

    def test_fractional_start_time(self):
        d, _ = download_chunk(_const_trace(80e6), 0.5, 20e6)
        assert d == pytest.approx(2.0)

    def test_prorated_final_second(self):
        d, _ = download_chunk(_const_trace(8e6), 0.0, 1.5e6)
        assert d == pytest.approx(1.5)

    def test_effective_throughput_identity(self):
        tr = synthesize_trace(SynthConfig(duration_s=120, seed=8))
        rng = np.random.default_rng(0)
        for _ in range(20):
            size = float(rng.uniform(1e5, 5e6))
            start = float(rng.uniform(0.0, 30.0))
            d, c = download_chunk(tr, start, size)
            assert c == pytest.approx(8.0 * size / d)

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError):
            download_chunk(_const_trace(10e6), 0.0, 0.0)

    def test_exhaustion_raises(self):
        with pytest.raises(TraceExhaustedError):
            download_chunk(_const_trace(8e6, n=2), 0.0, 3e6)

    def test_start_beyond_trace_raises(self):
        with pytest.raises(TraceExhaustedError):
            download_chunk(_const_trace(8e6, n=5), 5.0, 1e3)


class TestScalarHelpers:
    def test_rebuffer_time(self):
        assert rebuffer_time(2.0, 10.0) == 0.0
        assert rebuffer_time(5.0, 3.0) == 2.0
        assert rebuffer_time(4.0, 4.0) == 0.0

    def test_advance_buffer(self):
        assert advance_buffer(3.0, 5.0, 4.0, 60.0) == 4.0
        assert advance_buffer(59.0, 1.0, 4.0, 60.0) == 60.0
        assert advance_buffer(10.0, 2.0, 4.0, 60.0) == 12.0

    def test_chunk_qoe(self):
        w = QoEWeights(rebuffer_penalty=40.0, smoothness_penalty=1.0)
        assert chunk_qoe(60000, 30000, 0.5, w) == pytest.approx(10.0)
        assert chunk_qoe(3000, 3000, 0.0, w) == pytest.approx(3.0)
        assert chunk_qoe(120000, 120000, 1.0, w) == pytest.approx(80.0)


def _oracle_download_time(trace, start, size):
    """Independent route: cumulative per-second capacity plus interpolation."""
    t0 = float(trace.times_s[0])
    rates = trace.throughput_bps / 8.0
    k0 = int(math.floor(start - t0 + 1e-12))
    bounds = [start]
    got = [0.0]
    acc = rates[k0] * (t0 + k0 + 1.0 - start)
    bounds.append(t0 + k0 + 1.0)
    got.append(acc)
    for k in range(k0 + 1, rates.size):
        acc += rates[k]
        bounds.append(t0 + k + 1.0)
        got.append(acc)
    if size > got[-1] + 1e-9:
        raise TraceExhaustedError("oracle: trace ends first")
    i = next(j for j in range(1, len(got)) if got[j] >= size - 1e-12)
    rate_i = (got[i] - got[i - 1]) / (bounds[i] - bounds[i - 1])
    end = bounds[i] - (got[i] - size) / rate_i
    return end - start


def _oracle_session(trace, spec, w, rungs):
    """Replays the per-chunk recurrences directly from their definitions."""
    now = float(trace.times_s[0])
    buf = float(spec.initial_buffer_s)
    prev = spec.initial_prev_rung
    total_q = total_r = 0.0
    times = []
    for t, a in enumerate(rungs):
        d = _oracle_download_time(trace, now, chunk_size(spec, t, a))
        stall = max(d - buf, 0.0)
        rate, prev_rate = spec.ladder.rungs_kbps[a], spec.ladder.rungs_kbps[prev]
        total_q += rate / 1000.0 - w.rebuffer_penalty * stall - w.smoothness_penalty * abs(rate - prev_rate) / 1000.0
        total_r += stall
        buf = min(spec.buffer_max_s, max(buf - d, 0.0) + spec.chunk_duration_s)
        now += d
        prev = a
        times.append(d)
    return total_q, total_r, times


def _scripted(rungs):
    return lambda state: rungs[state.chunk_index]


class TestRunSession:
    def test_fast_link_closed_form(self):
        # 100 Mbit/s never stalls; constant lowest rung scores 3 per chunk
        spec = _spec()
        log = run_session(_const_trace(100e6), spec, QoEWeights(), lambda s: 0)
        assert log.session_rebuffer_s == 0.0
        assert log.session_qoe == pytest.approx(48 * 3.0)
        assert len(log.outcomes) == 48
        assert not log.truncated

    def test_initial_rung_pays_one_switch(self):
        spec = _spec(initial_prev_rung=2)
        log = run_session(_const_trace(100e6), spec, QoEWeights(), lambda s: 0)
        # first chunk: 3 - |3000 - 15000|/1000 = -9, then 47 chunks at 3
        assert log.session_qoe == pytest.approx(-9.0 + 47 * 3.0)

    def test_zero_weights_reduce_to_bitrate_sum(self):
        spec = _spec(num_chunks=6)
        w = QoEWeights(rebuffer_penalty=0.0, smoothness_penalty=0.0)
        log = run_session(_const_trace(20e6), spec, w, _scripted([0, 5, 0, 5, 0, 5]))
        expect = sum(spec.ladder.rungs_kbps[a] / 1000.0 for a in (0, 5, 0, 5, 0, 5))
        assert log.session_qoe == pytest.approx(expect)
        assert log.session_rebuffer_s > 0.0

    def test_steady_stall_closed_form(self):
        # 1 Mbit/s: each 1.5e6-byte chunk takes 12 s against a 4 s buffer
        spec = _spec(num_chunks=4)
        log = run_session(_const_trace(1e6, n=60), spec, QoEWeights(), lambda s: 0)
        assert log.session_rebuffer_s == pytest.approx(4 * 8.0)
        assert log.session_qoe == pytest.approx(4 * 3.0 - 40.0 * 32.0)

    def test_matches_independent_replay(self):
        w = QoEWeights()
        rng = np.random.default_rng(7)
        for trial in range(8):
            trace = synthesize_trace(SynthConfig(duration_s=400, seed=100 + trial))
            spec = VideoSpec(num_chunks=10, jitter_seed=trial)
            rungs = [int(r) for r in rng.integers(0, 6, 10)]
            log = run_session(trace, spec, w, _scripted(rungs))
            assert not log.truncated
            q, r, times = _oracle_session(trace, spec, w, rungs)
            assert log.session_qoe == pytest.approx(q, abs=1e-9)
            assert log.session_rebuffer_s == pytest.approx(r, abs=1e-9)
            assert [o.download_time_s for o in log.outcomes] == pytest.approx(times, abs=1e-9)

    def test_replay_is_deterministic(self):
        trace = synthesize_trace(SynthConfig(duration_s=300, seed=3))
        spec = VideoSpec(num_chunks=12)
        a = run_session(trace, spec, QoEWeights(), lambda s: min(s.prev_rung + 1, 5))
        b = run_session(trace, spec, QoEWeights(), lambda s: min(s.prev_rung + 1, 5))
        assert [o.qoe for o in a.outcomes] == [o.qoe for o in b.outcomes]

    def test_short_trace_truncates(self):
        spec = _spec()
        log = run_session(_const_trace(3e6, n=10), spec, QoEWeights(), lambda s: 5)
        assert log.truncated
        assert len(log.outcomes) < spec.num_chunks

    def test_outcome_invariants(self):
        trace = synthesize_trace(SynthConfig(duration_s=500, seed=21))
        spec = VideoSpec(num_chunks=20)
        w = QoEWeights()
        rng = np.random.default_rng(1)
        log = run_session(trace, spec, w, lambda s: int(rng.integers(0, 6)))
        for i, o in enumerate(log.outcomes):
            assert o.chunk_index == i
            assert 0.0 <= o.buffer_after_s <= spec.buffer_max_s
            assert o.rebuffer_s == pytest.approx(max(o.download_time_s - o.buffer_before_s, 0.0))
            assert o.buffer_after_s == pytest.approx(
                advance_buffer(o.buffer_before_s, o.download_time_s, spec.chunk_duration_s, spec.buffer_max_s)
            )
            assert o.effective_throughput_bps == pytest.approx(8.0 * o.size_bytes / o.download_time_s)
            rates = spec.ladder.rungs_kbps
            prev = spec.initial_prev_rung if i == 0 else log.outcomes[i - 1].rung
            assert o.qoe == pytest.approx(chunk_qoe(rates[o.rung], rates[prev], o.rebuffer_s, w))
            assert not o.audited and not o.fallback
            assert math.isnan(o.predicted_capacity_bps)

    def test_lowest_rung_never_stalls_more_than_highest(self):
        for seed in range(6):
            trace = synthesize_trace(SynthConfig(duration_s=500, seed=40 + seed))
            spec = VideoSpec(num_chunks=16)
            lo = run_session(trace, spec, QoEWeights(), lambda s: 0)
            hi = run_session(trace, spec, QoEWeights(), lambda s: 5)
            if lo.truncated or hi.truncated:
                continue
            assert lo.session_rebuffer_s <= hi.session_rebuffer_s + 1e-9


def _replay_one(trace, spec, w, policy, auditor=None):
    """One session, one state at a time: the reference for lockstep replay."""
    env = SessionEnv(trace, spec, w)
    state = env.reset()
    while not env.done:
        raw = int(policy(state))
        decision = auditor(state, env.measured_history_bps(), raw) if auditor is not None else None
        state, _, _ = env.step(raw, decision)
    return env.log


def _random_greedy_policy(spec, seed=4):
    net = init_policy_net(NetConfig(feature_dim(8, spec.ladder.num_rungs), spec.ladder.num_rungs), seed)
    net.params[:] = np.random.default_rng(seed).normal(0.0, 0.5, net.size)
    return make_greedy_policy(net, spec)


_POINT = PointPredictor(PredictorConfig())
_AUDITORS = {
    "unaudited": None,
    "point": lambda trace: make_auditor(_POINT, AuditConfig()),
    "lower-bound": lambda trace: make_auditor(LowerBoundPredictor(_POINT, 0.5), AuditConfig()),
    "oracle": make_oracle_auditor,
}


class TestRunSessions:
    SPEC = VideoSpec(num_chunks=20)
    # The short trace ends after a few rounds while the others play on.
    TRACES = [synthesize_trace(SynthConfig(duration_s=300, seed=(77, i)), trace_id=f"lock-{i}")
              for i in range(3)]
    TRACES.insert(1, _const_trace(20e6, n=12, tid="short"))

    @pytest.fixture(scope="class", params=["rate-rule", "bola", "robust-mpc", "greedy-net"])
    def policy(self, request):
        return {"rate-rule": make_rate_rule_policy, "bola": make_bola_policy,
                "robust-mpc": lambda: make_robust_mpc_policy(self.SPEC, QoEWeights()),
                "greedy-net": lambda: _random_greedy_policy(self.SPEC)}[request.param]()

    @pytest.mark.parametrize("audit", list(_AUDITORS))
    def test_lockstep_logs_equal_one_session_at_a_time(self, policy, audit):
        w, make = QoEWeights(), _AUDITORS[audit]
        auditors = None if make is None else [make(tr) for tr in self.TRACES]
        logs = run_sessions(self.TRACES, self.SPEC, w, policy, auditors)
        assert [log.trace_id for log in logs] == [tr.trace_id for tr in self.TRACES]
        assert [log.truncated for log in logs] == [False, True, False, False]
        assert len(logs[1].outcomes) < self.SPEC.num_chunks
        for trace, log in zip(self.TRACES, logs):
            auditor = None if make is None else make(trace)
            one = run_session(trace, self.SPEC, w, policy, auditor)
            ref = _replay_one(trace, self.SPEC, w, policy, auditor)
            # assert_equal compares field by field and takes NaN as equal to NaN
            np.testing.assert_equal(dataclasses.asdict(log), dataclasses.asdict(one))
            np.testing.assert_equal(dataclasses.asdict(log), dataclasses.asdict(ref))
        screened = [not math.isnan(o.predicted_capacity_bps) for log in logs for o in log.outcomes]
        assert any(screened) == (audit != "unaudited")

    def test_greedy_net_visits_several_rungs(self):
        logs = run_sessions(self.TRACES, self.SPEC, QoEWeights(), _random_greedy_policy(self.SPEC))
        assert len({o.rung for log in logs for o in log.outcomes}) >= 3

    def test_no_traces_no_logs(self):
        assert run_sessions([], self.SPEC, QoEWeights(), lambda s: 0) == []

    def test_batch_is_called_once_per_round_with_the_live_states(self):
        calls = []

        def policy(state):
            raise AssertionError("the batch form should be used")

        def batch(states):
            calls.append([s.chunk_index for s in states])
            return [0] * len(states)

        policy.batch = batch
        spec = _spec(num_chunks=6)
        traces = [_const_trace(20e6), _const_trace(20e6, n=2, tid="short"), _const_trace(20e6)]
        logs = run_sessions(traces, spec, QoEWeights(), policy)
        assert [log.truncated for log in logs] == [False, True, False]
        # 1.5e6-byte chunks at 2.5e6 bytes/s: the 2-s trace holds 3 of them,
        # and the fourth request truncates it
        assert calls == [[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3], [4, 4], [5, 5]]


class TestOutOfLadderRequests:
    """A request off the ladder fails audited or not; an auditor does not
    hide it by executing a rung of its own."""

    TRACES = [synthesize_trace(SynthConfig(duration_s=300, seed=(78, i)), trace_id=f"off-{i}") for i in range(2)]

    @pytest.mark.parametrize("audit", list(_AUDITORS))
    @pytest.mark.parametrize("rung", [9, -1])
    def test_a_request_off_the_ladder_fails(self, audit, rung):
        spec, w, make = VideoSpec(num_chunks=6), QoEWeights(), _AUDITORS[audit]

        def policy(state):  # the point auditor has a forecast from chunk 1 on
            return 0 if state.chunk_index < 2 else rung

        match = f"policy requested rung {rung} outside the ladder"
        with pytest.raises(ValueError, match=match):
            run_session(self.TRACES[0], spec, w, policy, None if make is None else make(self.TRACES[0]))
        with pytest.raises(ValueError, match=match):
            run_sessions(self.TRACES, spec, w, policy, None if make is None else [make(tr) for tr in self.TRACES])

    def test_an_executed_rung_off_the_ladder_fails(self):
        env = SessionEnv(_const_trace(50e6), _spec(), QoEWeights())
        with pytest.raises(ValueError, match="auditor chose rung 6 outside the ladder"):
            env.step(2, AuditDecision(safe_rung=6, intervened=True, fallback=False))
        assert env.log.outcomes == []


class TestSessionEnv:
    def test_initial_state(self):
        env = SessionEnv(_const_trace(50e6), _spec(), QoEWeights(), history_len=5)
        s = env.reset()
        assert s.chunk_index == 0
        assert s.buffer_s == 4.0
        assert s.prev_rung == 0
        assert np.array_equal(s.throughput_history, np.zeros(5))
        assert s.remaining_chunks == 48
        assert s.next_chunk_sizes[0] == 1.5e6
        assert s.wall_time_s == 0.0

    def test_log_is_the_session_record(self):
        env = SessionEnv(_const_trace(50e6), _spec(num_chunks=2), QoEWeights())
        log = env.log
        _, first, _ = env.step(0)
        _, second, done = env.step(1)
        assert done and log.outcomes == [first, second] and not log.truncated
        env.reset()  # a new session gets a new record; the finished one is kept as it was
        assert env.log is not log and env.log.outcomes == [] and len(log.outcomes) == 2

    def test_measured_history_grows_with_wall_clock(self):
        env = SessionEnv(_const_trace(8e6), _spec(), QoEWeights())
        assert env.measured_history_bps().size == 0
        env.step(0)  # 1.5e6 bytes at 1e6 bytes/s: 1.5 s
        assert env.measured_history_bps().size == 1

    def test_step_guards(self):
        env = SessionEnv(_const_trace(50e6), _spec(num_chunks=1), QoEWeights())
        with pytest.raises(ValueError):
            env.step(6)
        env.step(0)
        assert env.done
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_history_len_guard(self):
        with pytest.raises(ValueError):
            SessionEnv(_const_trace(50e6), _spec(), QoEWeights(), history_len=0)

    def test_returned_histories_never_change(self):
        # Every state the env returned keeps the history it had when
        # returned, and each step shifts in one sample.
        env = SessionEnv(synthesize_trace(SynthConfig(duration_s=600, seed=83)), _spec(), QoEWeights(),
                         history_len=4)
        rng = np.random.default_rng(89)
        states, snapshots = [env.reset()], []
        snapshots.append(states[0].throughput_history.copy())
        done = False
        while not done:
            state, outcome, done = env.step(int(rng.integers(6)))
            if state is not None:
                assert np.array_equal(state.throughput_history[:-1], snapshots[-1][1:])
                assert state.throughput_history[-1] == outcome.effective_throughput_bps
                states.append(state)
                snapshots.append(state.throughput_history.copy())
            for s, snap in zip(states, snapshots):
                assert np.array_equal(s.throughput_history, snap)
        assert len(states) == 48

    def test_state_is_the_last_returned_and_read_only(self):
        env = SessionEnv(_const_trace(50e6), _spec(num_chunks=2), QoEWeights(), history_len=3)
        first = env.reset()
        assert env.state is first
        with pytest.raises(ValueError):
            first.throughput_history[-1] = 1.0  # a policy writing into its input fails
        second, _, done = env.step(0)
        assert env.state is second and not done
        assert np.array_equal(first.throughput_history, np.zeros(3))
        assert not second.throughput_history.flags.writeable
        last, _, done = env.step(0)
        assert last is None and done
        assert env.state is second  # the clock is not read after the session ends


class TestRecords:
    """States, outcomes and audit decisions are immutable records, and a lone
    state is not mistaken for a batch of states."""

    @pytest.fixture
    def records(self):
        trace, spec = _const_trace(50e6), _spec(num_chunks=4)
        env = SessionEnv(trace, spec, QoEWeights())
        first = env.reset()
        decision = AuditDecision(1, True, False, 40e6)
        state, outcome, _ = env.step(3, decision)
        return trace, spec, first, state, outcome, decision

    def test_fields_cannot_be_assigned(self, records):
        _, _, _, state, outcome, decision = records
        assert outcome.audited and outcome.rung == 1
        for record, name in ((state, "buffer_s"), (state, "throughput_history"), (outcome, "rung"),
                             (outcome, "qoe"), (decision, "safe_rung"), (decision, "predicted_capacity_bps")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                setattr(record, "extra", 0)  # nor can fields be added

    def test_history_stays_read_only(self, records):
        _, _, first, state, _, _ = records
        for s in (first, state):
            assert not s.throughput_history.flags.writeable
            with pytest.raises(ValueError):
                s.throughput_history[-1] = 1.0

    def test_chunk_sizes_are_read_only_views_of_the_spec(self, records):
        _, spec, first, state, _, _ = records
        for s in (first, state):
            assert not s.next_chunk_sizes.flags.writeable
            assert np.shares_memory(s.next_chunk_sizes, spec.sizes)
            assert np.array_equal(s.next_chunk_sizes, spec.sizes[s.chunk_index])

    def test_a_policy_writing_the_chunk_sizes_fails_instead_of_fooling_the_auditor(self):
        # Shrinking the sizes the auditor reads would let every top-rung
        # request pass the feasibility check.
        def shrink_then_request_the_top(state):
            state.next_chunk_sizes[:] = 1.0
            return 5

        trace, spec = synthesize_trace(SynthConfig(duration_s=600, seed=97)), VideoSpec()
        with pytest.raises(ValueError, match="read-only"):
            run_session(trace, spec, QoEWeights(), shrink_then_request_the_top, make_auditor(PointPredictor()))
        assert spec.sizes.min() > 1.0

    def test_a_lone_state_is_not_a_batch(self, records):
        trace, spec, first, state, _, _ = records
        for s in (first, state):
            with pytest.raises(TypeError, match="sequence of states"):
                featurize(s, spec)
            with pytest.raises(TypeError, match="sequence of states"):
                robust_mpc_labels(s, spec, QoEWeights())
            with pytest.raises(TypeError, match="sequence of states"):
                beam_expert_labels(s, trace, spec, QoEWeights())
        # a batch of one is fine
        assert featurize([state], spec).shape[0] == 1
        assert len(robust_mpc_labels([state], spec, QoEWeights())) == 1
        assert len(beam_expert_labels([state], trace, spec, QoEWeights())) == 1


class TestSerialization:
    def test_session_row(self):
        # session_summary is the row of reports/sessions_<method>.csv: its keys
        # are the header, its values the cells (Python floats, truncated as 0/1)
        trace = synthesize_trace(SynthConfig(duration_s=300, seed=13))
        log = run_session(trace, VideoSpec(num_chunks=8), QoEWeights(), lambda s: 2)
        row = session_summary(log)
        assert list(row) == ["trace_id", "session_qoe", "rebuffer_s", "audit_interventions",
                             "chunks", "truncated"]
        assert row == {"trace_id": log.trace_id, "session_qoe": log.session_qoe,
                       "rebuffer_s": log.session_rebuffer_s, "audit_interventions": 0,
                       "chunks": 8, "truncated": 0}
        assert type(row["session_qoe"]) is float and type(row["rebuffer_s"]) is float
        short = run_session(_const_trace(1e6, n=10), VideoSpec(num_chunks=8), QoEWeights(), lambda s: 5)
        assert short.truncated
        assert session_summary(short)["truncated"] == 1
        assert session_summary(short)["chunks"] == len(short.outcomes) < 8
