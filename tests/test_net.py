"""Feature extraction, MLP forward/backward, Adam, checkpoints.

The analytic gradients are checked against central finite differences over
every parameter, both for raw head gradients and for composed losses.
"""

import math

import numpy as np
import pytest

from abrlab.net import (
    Adam,
    FeatureConfig,
    NetConfig,
    PolicyNet,
    backward,
    feature_dim,
    featurize,
    forward,
    init_policy_net,
    load_checkpoint,
    make_greedy_policy,
    sample_action,
    save_checkpoint,
    softmax,
)
from abrlab.sim import PlayerState, QoEWeights, SessionEnv, VideoSpec, chunk_sizes, nominal_top_rung_bytes
from abrlab.traces import SynthConfig, ThroughputTrace, synthesize_trace


def _state(spec, buffer_s=4.0, prev=0, hist=(), chunk_index=0):
    h = np.zeros(8)
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
        wall_time_s=0.0,
    )


class TestFeaturize:
    def test_layout_and_scaling(self):
        spec = VideoSpec(size_jitter=(1.0, 1.0))
        fc = FeatureConfig(throughput_scale_bps=200e6)
        [x] = featurize([_state(spec, buffer_s=60.0, prev=5, hist=(100e6,))], spec, fc)
        assert x.shape == (feature_dim(8, 6),) == (17,)
        assert x[0] == 1.0                      # buffer fill
        assert x[1] == 1.0                      # prev rate over top rate
        assert np.array_equal(x[2:9], np.zeros(7))
        assert x[9] == pytest.approx(0.5)       # newest throughput over scale
        assert x[10] == 1.0                     # all chunks remaining
        assert np.allclose(x[11:], np.array([3, 8, 15, 30, 60, 120]) / 120.0)

    def test_half_buffer(self):
        spec = VideoSpec(size_jitter=(1.0, 1.0))
        [x] = featurize([_state(spec, buffer_s=30.0)], spec)
        assert x[0] == pytest.approx(0.5)
        assert x[1] == pytest.approx(3000.0 / 120000.0)

    def test_empty_history_is_zero_padded(self):
        spec = VideoSpec(size_jitter=(1.0, 1.0))
        [x] = featurize([_state(spec)], spec)
        assert np.array_equal(x[2:10], np.zeros(8))

    def test_long_history_keeps_newest(self):
        # The session keeps its newest history_len throughputs; featurize lays
        # out exactly that history, so the feature size follows history_len.
        spec = VideoSpec(num_chunks=4, size_jitter=(1.0, 1.0))
        trace = ThroughputTrace("ramp", np.arange(60.0), np.linspace(4e6, 40e6, 60))
        env = SessionEnv(trace, spec, QoEWeights(), history_len=2)
        state = env.reset()
        for _ in range(3):
            state, _, _ = env.step(0)
        newest = [o.effective_throughput_bps for o in env.log.outcomes[-2:]]
        assert env.log.outcomes[0].effective_throughput_bps not in newest
        [x] = featurize([state], spec, FeatureConfig(throughput_scale_bps=1.0))
        assert x.shape == (feature_dim(2, 6),)
        assert np.array_equal(x[2:4], newest)

    def test_values_roughly_unit_scaled(self):
        spec = VideoSpec()
        x = featurize([_state(spec, buffer_s=20.0, prev=3, hist=(50e6, 80e6), chunk_index=10)], spec)
        assert np.all(np.abs(x) <= 1.5)


    def test_batch_equals_stacked_one_state_rows(self):
        # states from several sessions, each starting with a zero-padded
        # history, checked against the layout written out element by element
        spec, fc = VideoSpec(num_chunks=12), FeatureConfig(throughput_scale_bps=150e6)
        states = []
        for seed in (1, 2, 3):
            env = SessionEnv(synthesize_trace(SynthConfig(duration_s=300, seed=seed), f"f{seed}"),
                             spec, QoEWeights(), history_len=8)
            state = env.reset()
            while state is not None:
                states.append(state)
                state, _, _ = env.step((state.chunk_index * seed) % 6)
        assert not np.any(states[0].throughput_history)
        assert np.any(states[3].throughput_history == 0.0) and np.any(states[3].throughput_history)

        def reference(s):
            top = s.ladder_kbps[-1]
            return np.array([s.buffer_s / spec.buffer_max_s, s.ladder_kbps[s.prev_rung] / top,
                             *(s.throughput_history / fc.throughput_scale_bps),
                             s.remaining_chunks / spec.num_chunks,
                             *(s.next_chunk_sizes / nominal_top_rung_bytes(spec))])

        batch = featurize(states, spec, fc)
        assert batch.shape == (len(states), feature_dim(8, 6))
        assert np.array_equal(batch, np.vstack([featurize([s], spec, fc) for s in states]))
        assert np.array_equal(batch, np.stack([reference(s) for s in states]))
        assert np.array_equal(featurize(states[5:6], spec, fc), batch[5:6])


class TestForward:
    def test_zero_net_is_uniform_with_zero_value(self):
        cfg = NetConfig(input_dim=17, num_actions=6)
        net = PolicyNet(cfg)
        probs, values = forward(net, np.ones((1, 17)))
        assert np.allclose(probs, np.full((1, 6), 1.0 / 6.0))
        assert values.tolist() == [0.0]

    def test_softmax_one_hot_logit(self):
        p = softmax(np.array([1.0, 0, 0, 0, 0, 0]))
        assert p[0] == pytest.approx(math.e / (math.e + 5.0))
        assert p[0] == pytest.approx(0.3522, abs=1e-4)
        assert np.allclose(p[1:], 1.0 / (math.e + 5.0))
        assert p[1] == pytest.approx(0.1296, abs=1e-4)

    def test_softmax_shift_invariant_and_normalized(self):
        rng = np.random.default_rng(0)
        z = rng.normal(0, 5, (4, 6))
        p = softmax(z)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.allclose(softmax(z + 123.0), p)

    def test_batch_matches_single(self):
        cfg = NetConfig(input_dim=5, num_actions=3, hidden=(4, 4))
        net = init_policy_net(cfg, seed=1)
        xs = np.random.default_rng(2).normal(0, 1, (6, 5))
        pb, vb = forward(net, xs)
        for i in range(6):
            p1, v1 = forward(net, xs[i : i + 1])
            assert np.allclose(pb[i], p1[0])
            assert vb[i] == pytest.approx(v1[0])

    def test_one_feature_vector_is_rejected(self):
        net = PolicyNet(NetConfig(input_dim=17, num_actions=6))
        with pytest.raises(ValueError, match=r"\(n, d\) feature matrix, got shape \(17,\)"):
            forward(net, np.ones(17))

    def test_init_action_head_near_uniform(self):
        cfg = NetConfig(input_dim=17, num_actions=6)
        net = init_policy_net(cfg, seed=3)
        probs, _ = forward(net, np.random.default_rng(4).normal(0, 1, (1, 17)))
        assert probs.max() - probs.min() < 0.05

    def test_init_deterministic_per_seed(self):
        cfg = NetConfig(input_dim=9, num_actions=4)
        assert np.array_equal(init_policy_net(cfg, 7).params, init_policy_net(cfg, 7).params)
        assert not np.array_equal(init_policy_net(cfg, 7).params, init_policy_net(cfg, 8).params)


class TestParamViews:
    def test_views_alias_flat_vector(self):
        net = PolicyNet(NetConfig(input_dim=3, num_actions=2, hidden=(2, 2)))
        net["w1"][0, 0] = 5.0
        assert net.params[0] == 5.0

    def test_copy_detaches(self):
        net = init_policy_net(NetConfig(input_dim=3, num_actions=2, hidden=(2, 2)), 0)
        dup = net.copy()
        dup.params[:] = 0.0
        assert not np.array_equal(net.params, dup.params)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            PolicyNet(NetConfig(input_dim=3, num_actions=2, hidden=(2, 2)), np.zeros(4))


class TestSampling:
    def test_sampling_deterministic_per_seed(self):
        probs = np.array([[0.2, 0.5, 0.3]])
        a = [sample_action(probs, np.random.default_rng(9)).tolist() for _ in range(5)]
        b = [sample_action(probs, np.random.default_rng(9)).tolist() for _ in range(5)]
        assert a == b

    def test_degenerate_distributions(self):
        rng = np.random.default_rng(0)
        assert all(sample_action(np.array([[1.0, 0.0]]), rng).tolist() == [0] for _ in range(20))
        assert all(sample_action(np.array([[0.0, 1.0]]), rng).tolist() == [1] for _ in range(20))

    def test_empirical_frequencies(self):
        probs = np.array([[0.5, 0.3, 0.2]])
        rng = np.random.default_rng(123)
        draws = np.concatenate([sample_action(probs, rng) for _ in range(60000)])
        freq = np.bincount(draws, minlength=3) / draws.size
        assert np.allclose(freq, probs[0], atol=0.01)

    def test_policy_wrappers(self):
        spec = VideoSpec(size_jitter=(1.0, 1.0))
        cfg = NetConfig(input_dim=17, num_actions=6)
        net = init_policy_net(cfg, 5)
        s = _state(spec, buffer_s=30.0, hist=(40e6,))
        probs, _ = forward(net, featurize([s], spec))
        assert make_greedy_policy(net, spec)(s) == int(np.argmax(probs[0]))
        r1 = sample_action(probs, np.random.default_rng(1))
        r2 = sample_action(probs, np.random.default_rng(1))
        assert r1.tolist() == r2.tolist()

    def test_greedy_batch_breaks_ties_toward_the_lower_rung(self):
        spec = VideoSpec(size_jitter=(1.0, 1.0))
        net = PolicyNet(NetConfig(input_dim=17, num_actions=6))  # all zeros: uniform probabilities
        net["bp"][:] = [0.0, 1.0, 1.0, 0.0, 1.0, 0.0]
        states = [_state(spec, buffer_s=b, hist=(40e6,)) for b in (5.0, 30.0)]
        policy = make_greedy_policy(net, spec)
        assert list(policy.batch(states)) == [policy(s) for s in states] == [1, 1]


class _FixedUniforms:
    """Stands in for a Generator: hands out the given uniforms in order."""

    def __init__(self, us):
        self.us = list(us)

    def random(self, size=None):
        if size is None:
            return self.us.pop(0)
        out, self.us = np.array(self.us[:size]), self.us[size:]
        return out


def _searchsorted_draw(probs, rng):
    """The one-row inverse-CDF draw in its searchsorted form."""
    u = rng.random()
    return int(min(np.searchsorted(np.cumsum(probs), u, side="right"), probs.size - 1))


class TestBatchedSampling:
    def test_rows_equal_one_row_draws_from_the_same_generator_state(self):
        gen = np.random.default_rng(8)
        probs = gen.dirichlet(np.ones(6), size=200)
        probs[::3, 0] = 0.0
        probs[1::4, 5] = 0.0
        rows, ones, ref = (np.random.default_rng(21) for _ in range(3))
        picks = sample_action(probs, rows)
        assert picks.shape == (200,)
        assert picks.tolist() == [int(sample_action(p[None], ones)[0]) for p in probs]
        assert picks.tolist() == [_searchsorted_draw(p, ref) for p in probs]
        assert rows.random() == ones.random() == ref.random()

    @pytest.mark.parametrize("probs, us, want", [
        # zero-probability rungs are never drawn, not even at u = 0
        ([0.0, 0.5, 0.0, 0.5], [0.0, 0.4999, 0.5, 0.9999], [1, 1, 3, 3]),
        # a row summing to 1 - 1e-12 clamps a draw above its sum to the top rung
        ([0.2 * (1 - 1e-12), 0.3 * (1 - 1e-12), 0.5 * (1 - 1e-12)], [1 - 1e-13, 0.1], [2, 0]),
        # a draw exactly on a cumulative boundary goes to the next rung
        ([0.25, 0.25, 0.5], [0.25, 0.5, 0.0], [1, 2, 0]),
    ], ids=["zero-rungs", "short-sum", "boundary"])
    def test_edge_rows(self, probs, us, want):
        probs = np.array(probs)
        matrix = np.tile(probs, (len(us), 1))
        assert sample_action(matrix, _FixedUniforms(us)).tolist() == want
        one_row = _FixedUniforms(us)
        assert [int(sample_action(probs[None], one_row)[0]) for _ in us] == want
        searchsorted = _FixedUniforms(us)
        assert [_searchsorted_draw(probs, searchsorted) for _ in us] == want


def _fd_gradient(loss_fn, params, eps=1e-6):
    grad = np.zeros_like(params)
    for i in range(params.size):
        p = params.copy()
        p[i] += eps
        up = loss_fn(p)
        p[i] -= 2 * eps
        down = loss_fn(p)
        grad[i] = (up - down) / (2 * eps)
    return grad


class TestBackward:
    CFG = NetConfig(input_dim=7, num_actions=3, hidden=(5, 4))

    def test_zero_head_gradients_give_zero(self):
        net = init_policy_net(self.CFG, 0)
        x = np.random.default_rng(1).normal(0, 1, (4, 7))
        g = backward(net, forward(net, x, with_cache=True)[2], np.zeros((4, 3)), np.zeros(4))
        assert np.array_equal(g, np.zeros(net.size))

    def test_linear_in_head_gradients(self):
        net = init_policy_net(self.CFG, 0)
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (4, 7))
        dl = rng.normal(0, 1, (4, 3))
        dv = rng.normal(0, 1, 4)
        cache = forward(net, x, with_cache=True)[2]
        g1 = backward(net, cache, dl, dv)
        g2 = backward(net, cache, 2.0 * dl, 2.0 * dv)
        assert np.allclose(g2, 2.0 * g1)

    def test_head_gradient_matches_finite_differences(self):
        net = init_policy_net(self.CFG, 11)
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, (5, 7))
        dl = rng.normal(0, 1, (5, 3))
        dv = rng.normal(0, 1, 5)
        analytic = backward(net, forward(net, x, with_cache=True)[2], dl, dv)

        def loss(params):
            trial = PolicyNet(self.CFG, params)
            xb = np.atleast_2d(x)
            h1 = np.tanh(xb @ trial["w1"] + trial["b1"])
            h2 = np.tanh(h1 @ trial["w2"] + trial["b2"])
            logits = h2 @ trial["wp"] + trial["bp"]
            values = h2 @ trial["wv"] + trial["bv"][0]
            return float(np.sum(dl * logits) + np.sum(dv * values))

        fd = _fd_gradient(loss, net.params.copy())
        assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-7)

    def test_cross_entropy_gradient_matches_finite_differences(self):
        net = init_policy_net(self.CFG, 21)
        rng = np.random.default_rng(22)
        x = rng.normal(0, 1, (6, 7))
        y = rng.integers(0, 3, 6)

        probs, _, cache = forward(net, x, with_cache=True)
        dl = probs.copy()
        dl[np.arange(6), y] -= 1.0
        analytic = backward(net, cache, dl / 6.0, np.zeros(6))

        def loss(params):
            p, _ = forward(PolicyNet(self.CFG, params), x)
            return float(-np.mean(np.log(p[np.arange(6), y])))

        fd = _fd_gradient(loss, net.params.copy())
        assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-7)

    def test_value_mse_gradient_matches_finite_differences(self):
        net = init_policy_net(self.CFG, 31)
        rng = np.random.default_rng(32)
        x = rng.normal(0, 1, (6, 7))
        target = rng.normal(0, 1, 6)

        _, values, cache = forward(net, x, with_cache=True)
        dv = 2.0 * (values - target) / 6.0
        analytic = backward(net, cache, np.zeros((6, 3)), dv)

        def loss(params):
            _, v = forward(PolicyNet(self.CFG, params), x)
            return float(np.mean((v - target) ** 2))

        fd = _fd_gradient(loss, net.params.copy())
        assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-7)


class TestAdam:
    def test_zero_gradient_is_a_no_op(self):
        params = np.array([1.0, -2.0, 3.0])
        opt = Adam(3, lr=0.1)
        opt.step(params, np.zeros(3))
        assert np.array_equal(params, [1.0, -2.0, 3.0])

    def test_clip_rescales_to_max_norm(self):
        opt = Adam(2, max_grad_norm=0.5)
        clipped = opt.clip(np.array([3.0, -4.0]))
        assert np.linalg.norm(clipped) == pytest.approx(0.5)
        assert np.allclose(clipped, [0.3, -0.4])

    def test_small_gradient_not_clipped(self):
        opt = Adam(2, max_grad_norm=0.5)
        g = np.array([0.1, 0.2])
        assert np.array_equal(opt.clip(g), g)

    def test_clip_disabled_when_none(self):
        opt = Adam(2, max_grad_norm=None)
        g = np.array([30.0, -40.0])
        assert np.array_equal(opt.clip(g), g)

    def test_first_step_moves_by_lr_per_coordinate(self):
        # bias correction makes step one approximately lr * sign(grad),
        # and norm clipping cannot change that because signs survive scaling
        for max_norm in (None, 0.5):
            params = np.zeros(2)
            opt = Adam(2, lr=1e-3, max_grad_norm=max_norm)
            opt.step(params, np.array([3.0, -4.0]))
            assert params == pytest.approx([-1e-3, 1e-3], rel=1e-5)

    def test_minimizes_a_quadratic(self):
        params = np.full(4, 1.0)
        opt = Adam(4, lr=0.05, max_grad_norm=None)
        for _ in range(500):
            opt.step(params, 2.0 * params)
        assert np.all(np.abs(params) < 1e-3)


class TestCheckpoints:
    def _net(self):
        return init_policy_net(NetConfig(input_dim=9, num_actions=4, hidden=(6, 5)), 13)

    def test_round_trip(self, tmp_path):
        net = self._net()
        p = tmp_path / "net.ckpt"
        save_checkpoint(p, net, {"kind": "bc", "seed": 13})
        back, meta = load_checkpoint(p)
        assert back.cfg == net.cfg
        assert np.array_equal(back.params, net.params)
        assert meta == {"kind": "bc", "seed": 13}

    def test_bytes_deterministic(self, tmp_path):
        net = self._net()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, net, {"k": 1})
        save_checkpoint(b, net, {"k": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_garbage_header_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"\x00\x01binary junk\n" + np.zeros(4).tobytes())
        with pytest.raises(ValueError, match="not a policy checkpoint"):
            load_checkpoint(p)

    def test_unknown_format_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b'{"format": "other", "version": 1}\n')
        with pytest.raises(ValueError, match="unknown checkpoint format"):
            load_checkpoint(p)

    def test_unsupported_version_rejected(self, tmp_path):
        net = self._net()
        p = tmp_path / "v.ckpt"
        save_checkpoint(p, net)
        raw = p.read_bytes()
        head, _, body = raw.partition(b"\n")
        p.write_bytes(head.replace(b'"version": 1', b'"version": 99') + b"\n" + body)
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_checkpoint(p)

    def test_truncated_payload_rejected(self, tmp_path):
        net = self._net()
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, net)
        raw = p.read_bytes()
        p.write_bytes(raw[:-16])
        with pytest.raises(ValueError):
            load_checkpoint(p)

    def test_non_finite_parameter_refused(self, tmp_path):
        net = self._net()
        net.params[3] = np.nan
        p = tmp_path / "nan.ckpt"
        with pytest.raises(ValueError, match=r"nan\.ckpt.* 1 non-finite"):
            save_checkpoint(p, net)
        assert not p.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_refused_on_load(self, tmp_path, bad):
        # save_checkpoint never writes one; a patched or corrupted file can hold it.
        p = tmp_path / "patched.ckpt"
        save_checkpoint(p, self._net())
        head, _, body = p.read_bytes().partition(b"\n")
        params = np.frombuffer(body, dtype="<f8").copy()
        params[[2, 7]] = bad
        p.write_bytes(head + b"\n" + params.tobytes())
        with pytest.raises(ValueError, match=r"patched\.ckpt.* 2 non-finite"):
            load_checkpoint(p)
