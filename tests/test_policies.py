"""Rule and planning policies against brute-force plan enumeration."""

import itertools
import math

import numpy as np
import pytest

from abrlab.policies import (
    BolaConfig,
    MpcConfig,
    _harmonic_mean,
    beam_expert_decide,
    bola_decide,
    bulk_download_times,
    make_bola_policy,
    make_rate_rule_policy,
    make_robust_mpc_policy,
    rate_rule_decide,
    robust_mpc_labels,
    throughput_estimates,
    trace_cumulative_bytes,
)
from abrlab.sim import (BitrateLadder, PlayerState, QoEWeights, SessionEnv, VideoSpec, chunk_size, chunk_sizes,
                        run_session)
from abrlab.traces import SynthConfig, ThroughputTrace, synthesize_trace

W = QoEWeights()


def _state(spec, buffer_s=4.0, prev=0, hist=(), chunk_index=0, wall=0.0, hist_len=8):
    h = np.zeros(hist_len)
    if hist:
        h[-len(hist):] = hist
    return PlayerState(
        chunk_index=chunk_index,
        buffer_s=buffer_s,
        prev_rung=prev,
        throughput_history=h,
        remaining_chunks=spec.num_chunks - chunk_index,
        next_chunk_sizes=chunk_sizes(spec, chunk_index),
        ladder_kbps=spec.ladder.rungs_kbps,
        chunk_duration_s=spec.chunk_duration_s,
        buffer_max_s=spec.buffer_max_s,
        wall_time_s=wall,
    )


def _flat_spec(**kw):
    kw.setdefault("size_jitter", (1.0, 1.0))
    return VideoSpec(**kw)


class TestRateRule:
    def test_picks_highest_rung_below_mean(self):
        spec = _flat_spec()
        assert rate_rule_decide(_state(spec, hist=(35e6,))) == 3

    def test_no_history_goes_lowest(self):
        assert rate_rule_decide(_state(_flat_spec())) == 0

    def test_fast_link_tops_out(self):
        assert rate_rule_decide(_state(_flat_spec(), hist=(200e6,))) == 5

    def test_exact_rate_is_inclusive(self):
        assert rate_rule_decide(_state(_flat_spec(), hist=(30e6,))) == 3

    def test_below_bottom_clamps_to_zero(self):
        assert rate_rule_decide(_state(_flat_spec(), hist=(1e6,))) == 0

    def test_zero_padding_ignored(self):
        spec = _flat_spec()
        # mean of the two real samples is 35 Mbit/s; padding zeros must not drag it
        assert rate_rule_decide(_state(spec, hist=(30e6, 40e6))) == 3


class TestBola:
    def test_empty_buffer_requests_bottom(self):
        assert bola_decide(_state(_flat_spec(), buffer_s=0.0)) == 0

    def test_full_buffer_requests_top(self):
        spec = _flat_spec()
        assert bola_decide(_state(spec, buffer_s=spec.buffer_max_s)) == 5

    def test_default_v_zero_crossing(self):
        # top-rung score is exactly zero at the buffer cap with the default V
        spec = _flat_spec()
        s = _state(spec, buffer_s=spec.buffer_max_s)
        sizes = s.next_chunk_sizes
        util = np.log(sizes / sizes[0])
        v = spec.buffer_max_s / (util[-1] + 1.0)
        scores = (v * (util + 1.0) - s.buffer_s) / sizes
        assert scores[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.all(scores[:-1] < 0.0)

    def test_tie_breaks_to_lower_rung(self):
        # two-rung ladder with V=10: scores tie exactly at b = V * (1 - ln 2)
        spec = _flat_spec(ladder=BitrateLadder((3000, 6000)))
        b = 10.0 * (1.0 - math.log(2.0))
        s = _state(spec, buffer_s=b)
        sizes = s.next_chunk_sizes
        obj = (10.0 * (np.log(sizes / sizes[0]) + 1.0) - b) / sizes
        assert obj[0] == pytest.approx(obj[1], abs=1e-12)
        assert bola_decide(s, BolaConfig(control_v=10.0)) == 0

    def test_rung_monotone_in_buffer(self):
        spec = _flat_spec()
        chosen = [bola_decide(_state(spec, buffer_s=b)) for b in np.linspace(0.0, 60.0, 121)]
        assert all(a <= b for a, b in zip(chosen, chosen[1:]))
        assert chosen[0] == 0 and chosen[-1] == 5

    def test_matches_direct_argmax(self):
        spec = VideoSpec()  # jittered sizes
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = _state(spec, buffer_s=float(rng.uniform(0, 60)), chunk_index=int(rng.integers(0, 48)))
            cfg = BolaConfig(gamma_p=float(rng.uniform(0.5, 3.0)), control_v=float(rng.uniform(2.0, 20.0)))
            sizes = s.next_chunk_sizes
            util = np.log(sizes / sizes[0])
            obj = (cfg.control_v * (util + cfg.gamma_p) - s.buffer_s) / sizes
            assert bola_decide(s, cfg) == int(np.argmax(obj))


class TestThroughputEstimate:
    def test_harmonic_mean(self):
        assert _harmonic_mean(np.array([10.0, 40.0])) == pytest.approx(16.0)
        assert _harmonic_mean(np.array([5.0])) == pytest.approx(5.0)

    def test_plain_estimate(self):
        s = _state(_flat_spec(), hist=(10e6, 40e6))
        assert throughput_estimates([s], MpcConfig(robust=False))[0] == pytest.approx(16e6)

    def test_no_history_returns_zero(self):
        assert throughput_estimates([_state(_flat_spec())], MpcConfig())[0] == 0.0

    def test_overprediction_inflates_discount(self):
        # forecast 20 then realize 10: worst relative miss is 1.0, so halve
        s = _state(_flat_spec(), hist=(20e6, 10e6))
        est = throughput_estimates([s], MpcConfig(robust=True, history_len=5))[0]
        assert est == pytest.approx(_harmonic_mean(np.array([20e6, 10e6])) / 2.0)

    def test_underprediction_costs_nothing(self):
        s = _state(_flat_spec(), hist=(10e6, 20e6))
        est = throughput_estimates([s], MpcConfig(robust=True, history_len=5))[0]
        assert est == pytest.approx(_harmonic_mean(np.array([10e6, 20e6])))

    def test_robust_never_exceeds_plain(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            hist = tuple(rng.uniform(1e6, 1e8, int(rng.integers(1, 8))))
            s = _state(_flat_spec(), hist=hist)
            robust = throughput_estimates([s], MpcConfig(robust=True))[0]
            plain = throughput_estimates([s], MpcConfig(robust=False))[0]
            assert robust <= plain + 1e-9


def _oracle_mpc_first_rung(state, spec, w, est, horizon):
    """Scalar plan enumeration; returns (best_first_rung, per_first_rung_best)."""
    rates = spec.ladder.rungs_kbps
    best_q, best_plan = -math.inf, None
    per_first = {}
    for plan in itertools.product(range(spec.ladder.num_rungs), repeat=horizon):
        b, q, prev = state.buffer_s, 0.0, state.prev_rung
        for h, a in enumerate(plan):
            d = 8.0 * chunk_size(spec, state.chunk_index + h, a) / est
            stall = max(d - b, 0.0)
            q += rates[a] / 1000.0 - w.rebuffer_penalty * stall \
                - w.smoothness_penalty * abs(rates[a] - rates[prev]) / 1000.0
            b = min(state.buffer_max_s, max(b - d, 0.0) + spec.chunk_duration_s)
            prev = a
        per_first[plan[0]] = max(per_first.get(plan[0], -math.inf), q)
        if q > best_q + 1e-12:
            best_q, best_plan = q, plan
    return best_plan[0], per_first


class TestRobustMpc:
    def test_fast_link_full_buffer_goes_top(self):
        s = _state(_flat_spec(), buffer_s=60.0, prev=5, hist=(200e6,))
        assert robust_mpc_labels([s], _flat_spec(), W)[0] == 5

    def test_slow_link_small_buffer_goes_bottom(self):
        s = _state(_flat_spec(), buffer_s=2.0, prev=0, hist=(2e6,))
        assert robust_mpc_labels([s], _flat_spec(), W)[0] == 0

    def test_no_history_goes_bottom(self):
        assert robust_mpc_labels([_state(_flat_spec())], _flat_spec(), W)[0] == 0

    def test_horizon_one_is_single_step_argmax(self):
        spec = _flat_spec()
        cfg = MpcConfig(horizon=1, robust=False)
        rng = np.random.default_rng(11)
        for _ in range(20):
            est = float(rng.uniform(2e6, 2e8))
            s = _state(spec, buffer_s=float(rng.uniform(0, 60)), prev=int(rng.integers(0, 6)), hist=(est,))
            rates = spec.ladder.rungs_kbps
            scores = []
            for a in range(6):
                d = 8.0 * chunk_size(spec, 0, a) / est
                stall = max(d - s.buffer_s, 0.0)
                scores.append(rates[a] / 1000.0 - 40.0 * stall - abs(rates[a] - rates[s.prev_rung]) / 1000.0)
            assert robust_mpc_labels([s], spec, W, cfg)[0] == int(np.argmax(scores))

    def test_matches_plan_enumeration(self):
        spec = VideoSpec()
        cfg = MpcConfig(horizon=3, robust=False)
        rng = np.random.default_rng(17)
        for _ in range(100):
            est = float(rng.uniform(2e6, 2.5e8))
            s = _state(
                spec,
                buffer_s=float(rng.uniform(0, 60)),
                prev=int(rng.integers(0, 6)),
                hist=(est,),
                chunk_index=int(rng.integers(0, 45)),
            )
            got = robust_mpc_labels([s], spec, W, cfg)[0]
            best, per_first = _oracle_mpc_first_rung(s, spec, W, est, 3)
            assert per_first[got] == pytest.approx(per_first[best], abs=1e-9)
            runner_up = max((v for k, v in per_first.items() if k != best), default=-math.inf)
            if per_first[best] > runner_up + 1e-6:
                assert got == best

    def test_exact_tie_between_first_rungs_goes_to_the_lowest(self):
        # On the last chunk with no stall possible, rung a >= prev scores
        # rate(a) - (rate(a) - rate(prev)) = rate(prev) exactly at a switch
        # penalty of 1 per Mbit/s: rungs 2..5 tie, and the label is 2.
        trace = ThroughputTrace("fast", np.arange(600.0), np.full(600, 200e6))
        spec = _flat_spec()
        s = _state(spec, buffer_s=60.0, prev=2, chunk_index=spec.num_chunks - 1, wall=10.0)
        _, per_first = _oracle_expert_first_rung(s, trace, spec, W, 1)
        assert per_first[2] == per_first[3] == per_first[4] == per_first[5] > per_first[1]
        assert beam_expert_decide(s, trace, spec, W) == 2

    def test_horizon_clips_to_remaining(self):
        spec = _flat_spec()
        s = _state(spec, chunk_index=46, hist=(50e6,))
        assert s.remaining_chunks == 2
        a = robust_mpc_labels([s], spec, W, MpcConfig(horizon=5, robust=False))[0]
        b = robust_mpc_labels([s], spec, W, MpcConfig(horizon=2, robust=False))[0]
        assert a == b


def _reference_harmonic_mean(values):
    return values.size / float(np.sum(1.0 / values))


def _reference_robust_discount(hist, history_len):
    # The discount as first written: a fresh harmonic mean per position.
    errors = []
    for j in range(1, hist.size):
        pred = _reference_harmonic_mean(hist[max(0, j - history_len) : j])
        errors.append(max(0.0, (pred - hist[j]) / hist[j]))
    tail = errors[-history_len:]
    return 1.0 + (max(tail) if tail else 0.0)


def _reference_throughput_estimate(state, cfg):
    hist = state.throughput_history[state.throughput_history > 0.0]
    if hist.size == 0:
        return 0.0
    est = _reference_harmonic_mean(hist[-cfg.history_len :])
    if cfg.robust:
        est /= _reference_robust_discount(hist, cfg.history_len)
    return est


def _reference_robust_mpc_decide(state, spec, w, cfg):
    """Robust MPC as first written: every level repeats the plans' buffer,
    QoE and last rung, tiles the rung index and gathers per leaf."""
    horizon = min(cfg.horizon, state.remaining_chunks)
    est = _reference_throughput_estimate(state, cfg)
    if est <= 0.0:
        return 0
    d_mat = 8.0 * spec.sizes[state.chunk_index : state.chunk_index + horizon] / est
    rates = np.asarray(state.ladder_kbps, dtype=np.float64)
    num_rungs = rates.size
    b = np.array([state.buffer_s])
    q = np.zeros(1)
    prev = np.array([state.prev_rung], dtype=int)
    for h in range(horizon):
        n = b.size
        b, q, prev = np.repeat(b, num_rungs), np.repeat(q, num_rungs), np.repeat(prev, num_rungs)
        rung = np.tile(np.arange(num_rungs), n)
        d, rate = d_mat[h, rung], rates[rung]
        rebuf = np.maximum(d - b, 0.0)
        q = q + (rate / 1000.0 - w.rebuffer_penalty * rebuf
                 - w.smoothness_penalty * np.abs(rate - rates[prev]) / 1000.0)
        b = np.minimum(state.buffer_max_s, np.maximum(b - d, 0.0) + state.chunk_duration_s)
        prev = rung
    return int(np.argmax(q)) // (num_rungs ** (horizon - 1))


def _random_session_states(traces, spec, w, seed):
    """Every state of one session per trace under uniformly random rungs."""
    rng = np.random.default_rng(seed)
    states = []
    for trace in traces:
        env = SessionEnv(trace, spec, w)
        state, done = env.reset(), False
        while not done:
            states.append(state)
            state, _, done = env.step(int(rng.integers(spec.ladder.num_rungs)))
    return states


class TestRobustMpcAgainstReference:
    """The broadcast plan tree and the sliced discount against the repeat/tile
    tree and the per-position harmonic means they replace: equal labels and
    bit-equal estimates, exact ties included."""

    SPEC = VideoSpec()
    FLAT_SPEC = _flat_spec()
    W_FLAT = QoEWeights(smoothness_penalty=0.0)

    @pytest.fixture(scope="class")
    def visited(self):
        # Links from a few Mbit/s (stalls, low rungs) to a few hundred; the
        # flat-link sessions score without a switch penalty, so plans that
        # swap two stall-free chunks tie exactly.
        traces = [synthesize_trace(SynthConfig(duration_s=600, regime_mean_log_mbps=math.log(m), seed=(61, i)))
                  for i, m in enumerate((4.0, 10.0, 25.0, 45.0, 80.0, 150.0) * 3)]
        flat = [ThroughputTrace(f"flat-{i}", np.arange(600.0), np.full(600, m * 1e6))
                for i, m in enumerate((9.6, 20.0, 48.0, 100.0, 240.0, 400.0))]
        return ([(s, self.SPEC, W) for s in _random_session_states(traces, self.SPEC, W, 67)]
                + [(s, self.FLAT_SPEC, self.W_FLAT)
                   for s in _random_session_states(flat, self.FLAT_SPEC, self.W_FLAT, 71)])

    def test_labels_equal_reference(self, visited):
        assert len(visited) >= 1000
        clipped = 0
        for i, (s, spec, w) in enumerate(visited):
            horizon = 1 + i % 5
            clipped += s.remaining_chunks < horizon
            for robust in (True, False):
                cfg = MpcConfig(horizon=horizon, robust=robust)
                assert robust_mpc_labels([s], spec, w, cfg)[0] == _reference_robust_mpc_decide(s, spec, w, cfg), (i, cfg)
        assert clipped > 0

    @pytest.mark.parametrize("history_len", [1, 2, 3, 5, 8, 10])
    def test_estimates_bit_equal_reference(self, visited, history_len):
        for s, _, _ in visited:
            for robust in (True, False):
                cfg = MpcConfig(history_len=history_len, robust=robust)
                assert throughput_estimates([s], cfg)[0] == _reference_throughput_estimate(s, cfg)

    @pytest.mark.parametrize("history_len", range(1, 9))
    def test_row_wise_estimates_equal_the_per_state_reference(self, visited, history_len):
        # One batch of every visited state (all chunk indices, 0 to 8
        # measured samples), plus histories of other lengths and one with a
        # gap, which the row-wise pass must group by sample count.
        spec = self.FLAT_SPEC
        states = [s for s, _, _ in visited] + [
            _state(spec, hist=(3e6, 9e6, 4e6), hist_len=3), _state(spec, hist=(6e6,), hist_len=1),
            _state(spec, hist=tuple(np.arange(1, 13) * 1e6), hist_len=12), _state(spec, hist=(5e6, 0.0, 7e6, 2e6))]
        for robust in (True, False):
            cfg = MpcConfig(history_len=history_len, robust=robust)
            got = throughput_estimates(states, cfg)
            assert got.tolist() == [_reference_throughput_estimate(s, cfg) for s in states]
            assert throughput_estimates([], cfg).tolist() == []

    def test_exact_tie_goes_to_the_lowest_first_rung(self):
        # Two chunks left, a full buffer, no switch penalty, and a link on
        # which the top chunk takes 50 s: two top chunks stall, but the top
        # and rung 3 (12.5 s) do not stall in either order, so (3, 5) and
        # (5, 3) score exactly alike and beat every other plan.
        spec, w = self.FLAT_SPEC, self.W_FLAT
        s = _state(spec, buffer_s=60.0, prev=0, hist=(9.6e6,) * 8, chunk_index=spec.num_chunks - 2)
        for robust in (True, False):
            cfg = MpcConfig(robust=robust)
            est = throughput_estimates([s], cfg)[0]
            _, per_first = _oracle_mpc_first_rung(s, spec, w, est, 2)
            assert per_first[3] == per_first[5] == max(per_first.values())
            assert robust_mpc_labels([s], spec, w, cfg)[0] == _reference_robust_mpc_decide(s, spec, w, cfg) == 3


class TestRobustMpcBatch:
    """One batched search against the full enumeration it replaces, state by
    state, on one batch that mixes every case the search treats apart."""

    SPEC = _flat_spec()

    @pytest.fixture(scope="class")
    def mixed(self):
        traces = [synthesize_trace(SynthConfig(duration_s=600, regime_mean_log_mbps=math.log(m), seed=(83, i)))
                  for i, m in enumerate((6.0, 30.0, 120.0))]
        visited = _random_session_states(traces, self.SPEC, W, 89)
        n = self.SPEC.num_chunks
        # session starts (no history), the middle, and the last five chunks,
        # whose horizons are clipped to 5, 4, 3, 2 and 1 inside one batch
        states = [s for s in visited if s.chunk_index in (0, 1, 2, 20, 31) or s.chunk_index >= n - 5]
        # the exact tie of the expert's test: on the last chunk with no stall
        # possible, rungs 2..5 score alike, with and without a forecast
        states += [_state(self.SPEC, buffer_s=60.0, prev=2, chunk_index=n - 1, wall=10.0, hist=hist)
                   for hist in ((), (200e6,))]
        assert {min(5, s.remaining_chunks) for s in states} == {1, 2, 3, 4, 5}
        assert sum(not s.throughput_history.any() for s in states) >= 4
        return states

    @pytest.mark.parametrize("cfg", [MpcConfig(), MpcConfig(robust=False), MpcConfig(history_len=3)],
                             ids=["robust", "plain", "history3"])
    def test_batch_equals_reference_state_by_state(self, mixed, cfg):
        got = robust_mpc_labels(mixed, self.SPEC, W, cfg)
        assert got.tolist() == [_reference_robust_mpc_decide(s, self.SPEC, W, cfg) for s in mixed]
        assert got[-2:].tolist() == [0, 2]  # no forecast: the bottom; the tie: the lowest tied rung
        assert len(set(got.tolist())) >= 3

    def test_policy_carries_its_batch_form(self, mixed):
        policy = make_robust_mpc_policy(self.SPEC, W)
        assert callable(policy.batch)  # or run_sessions would decide one state at a time
        assert list(policy.batch(mixed)) == [policy(s) for s in mixed]
        assert robust_mpc_labels([], self.SPEC, W).tolist() == []


def _oracle_stepped_download(trace, start, size):
    # per-second stepping; past the trace end the final rate holds
    t0 = float(trace.times_s[0])
    n = trace.times_s.size
    u, remaining = float(start), float(size)
    while True:
        k = int(math.floor(u - t0 + 1e-12))
        if k >= n:
            return (u - start) + remaining / (trace.throughput_bps[-1] / 8.0)
        rate = trace.throughput_bps[k] / 8.0
        cap = rate * (t0 + k + 1.0 - u)
        if remaining <= cap + 1e-12:
            return (u - start) + remaining / rate
        remaining -= cap
        u = t0 + k + 1.0


class TestBulkDownloadTimes:
    def test_matches_scalar_stepping(self):
        trace = synthesize_trace(SynthConfig(duration_s=60, seed=19))
        cum = trace_cumulative_bytes(trace)
        rng = np.random.default_rng(23)
        starts = rng.uniform(0.0, 90.0, 40)  # some beyond the 60 s end
        sizes = rng.uniform(1e4, 5e7, 40)
        got = bulk_download_times(cum, trace.throughput_bps, 0.0, starts, sizes)
        for s, z, d in zip(starts, sizes, got):
            assert d == pytest.approx(_oracle_stepped_download(trace, s, z), rel=1e-9)

    def test_cumulative_curve(self):
        tr = ThroughputTrace("c", [0.0, 1.0, 2.0], [8e6, 16e6, 8e6])
        assert np.array_equal(trace_cumulative_bytes(tr), [0.0, 1e6, 3e6, 4e6])


def _reference_bulk_download_times(cum_bytes, bps, t0, starts, sizes):
    """The integrator before it took blocks: one start per size, and the
    segments past the end of the trace as separate branches."""
    n = bps.size
    rel = starts - t0
    k = np.floor(rel + 1e-12).astype(int)
    kc = np.minimum(np.maximum(k, 0), n - 1)
    start_bytes = np.where(k < n, cum_bytes[kc] + (rel - kc) * bps[kc] / 8.0,
                           cum_bytes[n] + (rel - n) * bps[-1] / 8.0)
    target = start_bytes + sizes
    j = np.clip(np.searchsorted(cum_bytes, target, side="right") - 1, 0, n - 1)
    end_inside = t0 + j + (target - cum_bytes[j]) / (bps[j] / 8.0)
    end = np.where(target > cum_bytes[n], t0 + n + (target - cum_bytes[n]) / (bps[-1] / 8.0), end_inside)
    return end - starts


class TestBulkDownloadTimesIsBitIdentical:
    """Every download time equals, bit for bit, the reference's, whether the
    starts come one per size or as (n, 1) plans against (n, R) sizes."""

    T0, N = 10.0, 40

    def _case(self, seed):
        rng = np.random.default_rng(seed)
        # Rates that are not round numbers, so a segment's bytes over its rate
        # is often not exactly one second: a download that ends on a knot then
        # ends at a different time in each of the two segments the knot joins.
        bps = rng.uniform(2e5, 2e7, self.N)
        cum = np.concatenate([[0.0], np.cumsum(bps / 8.0)])
        starts = self.T0 + np.concatenate([
            rng.uniform(-3.0, self.N + 5.0, 600),          # before, inside and past the trace
            rng.uniform(self.N, self.N + 5.0, 1000),       # past the end, where the last rate holds
            np.arange(-2.0, self.N + 3.0, 0.5),            # on and between the seconds
            [self.N, self.N, self.N + 1e-13, self.N - 1e-13],  # at the end
        ])
        return rng, bps, cum, starts

    def _sizes(self, rng, bps, cum, starts, shape):
        """Random sizes, but half of the downloads that start inside the trace
        end on a later knot (often the last), where rounding lets them end
        exactly on it. Returns the sizes and the byte counts those end at."""
        rel = np.broadcast_to(starts - self.T0, shape)
        kc = np.floor(rel + 1e-12).astype(int).clip(0, self.N - 1)
        start_bytes = cum[kc] + (rel - kc) * bps[kc] / 8.0
        knot = np.maximum(rng.integers(0, self.N + 1, shape), kc + 1)
        knot[rng.random(shape) < 0.3] = self.N
        on_knot = (rel >= 0.0) & (rel < self.N) & (rng.random(shape) < 0.5)
        sizes = np.where(on_knot, cum[knot] - start_bytes, rng.uniform(1e4, 4e7, shape))
        return sizes, (start_bytes + sizes)[on_knot]

    def _assert_covers_the_knots(self, cum, target):
        assert np.isin(target, cum[1:self.N]).sum() >= 20
        assert np.count_nonzero(target == cum[self.N]) >= 5

    def test_one_start_per_size(self):
        rng, bps, cum, starts = self._case(1)
        sizes, target = self._sizes(rng, bps, cum, starts, starts.shape)
        self._assert_covers_the_knots(cum, target)
        got = bulk_download_times(cum, bps, self.T0, starts, sizes)
        assert got.tobytes() == _reference_bulk_download_times(cum, bps, self.T0, starts, sizes).tobytes()

    def test_plan_blocks(self):
        rng, bps, cum, starts = self._case(2)
        starts = starts[:, None]
        sizes, target = self._sizes(rng, bps, cum, starts, (starts.size, 6))
        self._assert_covers_the_knots(cum, target)
        got = bulk_download_times(cum, bps, self.T0, starts, sizes)
        want = _reference_bulk_download_times(cum, bps, self.T0, np.broadcast_to(starts, sizes.shape).ravel(),
                                              sizes.ravel())
        assert got.shape == sizes.shape
        assert got.tobytes() == want.reshape(sizes.shape).tobytes()


def _oracle_expert_first_rung(state, trace, spec, w, horizon):
    rates = spec.ladder.rungs_kbps
    best_q, best_plan = -math.inf, None
    per_first = {}
    for plan in itertools.product(range(spec.ladder.num_rungs), repeat=horizon):
        u, b, q, prev = state.wall_time_s, state.buffer_s, 0.0, state.prev_rung
        for h, a in enumerate(plan):
            d = _oracle_stepped_download(trace, u, chunk_size(spec, state.chunk_index + h, a))
            stall = max(d - b, 0.0)
            q += rates[a] / 1000.0 - w.rebuffer_penalty * stall \
                - w.smoothness_penalty * abs(rates[a] - rates[prev]) / 1000.0
            b = min(state.buffer_max_s, max(b - d, 0.0) + spec.chunk_duration_s)
            u += d
            prev = a
        per_first[plan[0]] = max(per_first.get(plan[0], -math.inf), q)
        if q > best_q + 1e-12:
            best_q, best_plan = q, plan
    return best_plan[0], per_first


class TestClairvoyantExpert:
    def test_fast_future_goes_top(self):
        trace = ThroughputTrace("fast", np.arange(600.0), np.full(600, 200e6))
        spec = _flat_spec()
        s = _state(spec, buffer_s=60.0, prev=5)
        assert beam_expert_decide(s, trace, spec, W) == 5

    def test_slow_future_goes_bottom(self):
        trace = ThroughputTrace("slow", np.arange(600.0), np.full(600, 2e6))
        spec = _flat_spec()
        s = _state(spec, buffer_s=4.0, prev=0)
        assert beam_expert_decide(s, trace, spec, W) == 0

    def test_pure_function(self):
        trace = synthesize_trace(SynthConfig(duration_s=300, seed=29))
        spec = VideoSpec()
        s = _state(spec, buffer_s=10.0, hist=(20e6,), wall=25.0, chunk_index=4)
        assert beam_expert_decide(s, trace, spec, W) == beam_expert_decide(s, trace, spec, W)

    def test_matches_plan_enumeration(self):
        spec = VideoSpec()
        rng = np.random.default_rng(31)
        for trial in range(25):
            trace = synthesize_trace(SynthConfig(duration_s=300, seed=400 + trial))
            s = _state(
                spec,
                buffer_s=float(rng.uniform(0, 60)),
                prev=int(rng.integers(0, 6)),
                wall=float(rng.uniform(0.0, 100.0)),
                chunk_index=int(rng.integers(0, 45)),
            )
            got = beam_expert_decide(s, trace, spec, W, horizon=3)
            best, per_first = _oracle_expert_first_rung(s, trace, spec, W, 3)
            assert per_first[got] == pytest.approx(per_first[best], abs=1e-6)
            runner_up = max((v for k, v in per_first.items() if k != best), default=-math.inf)
            if per_first[best] > runner_up + 1e-6:
                assert got == best

    def test_full_horizon_beats_every_constant_plan(self):
        # with horizon == num_chunks the expert plays the globally best plan
        spec = VideoSpec(num_chunks=4)
        for seed in (51, 52, 53):
            trace = synthesize_trace(SynthConfig(duration_s=600, seed=seed))
            expert = lambda s: beam_expert_decide(s, trace, spec, W, horizon=4)
            q_expert = run_session(trace, spec, W, expert).session_qoe
            for a in range(6):
                q_const = run_session(trace, spec, W, lambda s, a=a: a).session_qoe
                assert q_expert >= q_const - 1e-9

    def test_horizon_clips_to_remaining(self):
        trace = synthesize_trace(SynthConfig(duration_s=300, seed=37))
        spec = _flat_spec()
        s = _state(spec, chunk_index=47, hist=(20e6,), wall=10.0)
        assert s.remaining_chunks == 1
        a = beam_expert_decide(s, trace, spec, W, horizon=5)
        b = beam_expert_decide(s, trace, spec, W, horizon=1)
        assert a == b


class TestFactories:
    def test_factories_bind_their_arguments(self):
        spec = _flat_spec()
        trace = ThroughputTrace("f", np.arange(600.0), np.full(600, 200e6))
        s_fast = _state(spec, buffer_s=60.0, prev=5, hist=(200e6,))
        assert make_rate_rule_policy()(s_fast) == 5
        assert make_bola_policy()(_state(spec, buffer_s=0.0)) == 0
        assert make_robust_mpc_policy(spec, W)(s_fast) == 5
        assert beam_expert_decide(s_fast, trace, spec, W) == 5
