"""Tail-risk reward shaping, advantage estimation, and the clipped update."""

import math

import numpy as np
import pytest

from abrlab.imitation import BcConfig
from abrlab.net import Adam, FeatureConfig, NetConfig, backward, forward, init_policy_net, sample_action
from abrlab.risk_ppo import (
    CvarConfig,
    EpisodeInfo,
    PpoConfig,
    RolloutBatch,
    RolloutCollector,
    _RunningReturnStd,
    clipped_surrogate,
    empirical_cvar,
    finetune,
    gae_advantages,
    ppo_update,
    shape_terminal_rewards,
)
from abrlab.sim import QoEWeights, VideoSpec
from abrlab.traces import SynthConfig, synthesize_trace


class TestEmpiricalCvar:
    def test_ten_sample_example(self):
        xi, cvar = empirical_cvar([0.0] * 8 + [10.0, 20.0], alpha=0.90)
        assert xi == 10.0
        assert cvar == pytest.approx(20.0)

    def test_four_sample_example(self):
        xi, cvar = empirical_cvar([1.0, 2.0, 3.0, 4.0], alpha=0.75)
        assert xi == 3.0
        assert cvar == pytest.approx(4.0)

    def test_median_alpha(self):
        xi, cvar = empirical_cvar([1.0, 2.0, 3.0, 4.0], alpha=0.50)
        assert xi == 2.0
        assert cvar == pytest.approx(3.5)  # mean of the worst half

    def test_all_zero(self):
        assert empirical_cvar([0.0] * 5, 0.9) == (0.0, 0.0)

    def test_single_sample(self):
        assert empirical_cvar([7.0], 0.9) == (7.0, 7.0)

    def test_order_invariant(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(0, 50, 40)
        assert empirical_cvar(v, 0.9) == empirical_cvar(rng.permutation(v), 0.9)

    def test_matches_worst_k_mean_when_tail_is_integral(self):
        rng = np.random.default_rng(1)
        for alpha, n in ((0.5, 8), (0.75, 16), (0.9, 40), (0.95, 60)):
            v = rng.uniform(0, 100, n)
            k = round((1 - alpha) * n)
            _, cvar = empirical_cvar(v, alpha)
            assert cvar == pytest.approx(float(np.mean(np.sort(v)[-k:])))

    def test_dominates_threshold_and_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.uniform(-5, 50, int(rng.integers(3, 60)))
            xi, cvar = empirical_cvar(v, 0.9)
            assert cvar >= xi - 1e-12
            assert cvar >= float(np.mean(v)) - 1e-12

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            empirical_cvar([], 0.9)
        with pytest.raises(ValueError, match="alpha"):
            empirical_cvar([1.0], 1.0)
        with pytest.raises(ValueError, match="alpha"):
            empirical_cvar([1.0], 0.0)


def _plain_batch(rewards, values, dones, episodes=(), bootstrap=0.0):
    n = len(rewards)
    return RolloutBatch(
        features=np.zeros((n, 2)),
        actions=np.zeros(n, dtype=int),
        logprobs=np.zeros(n),
        rewards=np.asarray(rewards, dtype=float),
        values=np.asarray(values, dtype=float),
        dones=np.asarray(dones, dtype=bool),
        env_slices=[(0, n)],
        bootstrap_values=np.array([bootstrap]),
        episodes=list(episodes),
    )


class TestTerminalShaping:
    def test_zero_weight_is_identity(self):
        batch = _plain_batch([1.0, 2.0], [0.0, 0.0], [False, True],
                             [EpisodeInfo(1, 50.0, 3.0, 2, False)])
        shaped = shape_terminal_rewards(batch, CvarConfig(penalty_weight=0.0), [])
        assert shaped is batch

    def test_single_episode_hinge(self):
        # weight 2, alpha 0.9: scale 20; threshold 0 from an all-zero window
        batch = _plain_batch([1.0, 1.0, 1.0], [0.0] * 3, [False, False, True],
                             [EpisodeInfo(2, 100.0, 3.0, 3, False)])
        cfg = CvarConfig(alpha=0.9, penalty_weight=2.0, budget_s=0.0)
        shaped = shape_terminal_rewards(batch, cfg, [0.0] * 10)
        assert shaped.rewards[:2].tolist() == [1.0, 1.0]
        assert shaped.rewards[2] == pytest.approx(1.0 - 20.0 * 100.0)
        assert batch.rewards.tolist() == [1.0, 1.0, 1.0]  # original untouched

    def test_only_terminal_steps_change(self):
        rewards = [5.0, 4.0, 3.0, 2.0, 1.0]
        dones = [False, True, False, False, True]
        eps = [EpisodeInfo(1, 30.0, 9.0, 2, False), EpisodeInfo(4, 40.0, 6.0, 3, False)]
        batch = _plain_batch(rewards, [0.0] * 5, dones, eps)
        shaped = shape_terminal_rewards(batch, CvarConfig(alpha=0.9, penalty_weight=1.0), [0.0])
        changed = [i for i in range(5) if shaped.rewards[i] != batch.rewards[i]]
        assert changed == [1, 4]

    def test_budget_offsets_the_hinge(self):
        batch = _plain_batch([0.0], [0.0], [True], [EpisodeInfo(0, 10.0, 0.0, 1, False)])
        cfg = CvarConfig(alpha=0.9, penalty_weight=1.0, budget_s=25.0)
        shaped = shape_terminal_rewards(batch, cfg, [0.0])
        assert shaped.rewards[0] == 0.0  # 10 - 25 - 0 is not positive

    def test_total_penalty_equals_weight_times_n_times_tail_gap(self):
        # window == episode rebuffers: the summed hinge telescopes to
        # weight * n_episodes * (cvar - threshold)
        rebufs = [0.0] * 8 + [10.0, 20.0]
        n = len(rebufs)
        episodes = [EpisodeInfo(i, r, 0.0, 1, False) for i, r in enumerate(rebufs)]
        batch = _plain_batch([0.0] * n, [0.0] * n, [True] * n, episodes)
        cfg = CvarConfig(alpha=0.9, penalty_weight=1.0)
        shaped = shape_terminal_rewards(batch, cfg, rebufs)
        xi, cvar = empirical_cvar(rebufs, 0.9)
        total = float(batch.rewards.sum() - shaped.rewards.sum())
        assert total == pytest.approx(1.0 * n * (cvar - xi))
        assert total == pytest.approx(100.0)

    def test_empty_window_with_pending_episodes_rejected(self):
        batch = _plain_batch([0.0], [0.0], [True], [EpisodeInfo(0, 5.0, 0.0, 1, False)])
        with pytest.raises(ValueError, match="window"):
            shape_terminal_rewards(batch, CvarConfig(penalty_weight=1.0), [])

    def test_no_episodes_is_identity(self):
        batch = _plain_batch([1.0], [0.0], [False])
        assert shape_terminal_rewards(batch, CvarConfig(penalty_weight=5.0), []) is batch


class TestGae:
    def test_zero_gamma_zero_lambda_is_td_residual(self):
        batch = _plain_batch([1.0, 2.0, 3.0], [0.5, 1.0, 1.5], [False, False, True])
        out = gae_advantages(batch, gamma=0.0, lam=0.0, normalize=False)
        assert np.allclose(out.advantages, [0.5, 1.0, 1.5])
        assert np.allclose(out.returns, [1.0, 2.0, 3.0])

    def test_three_step_hand_unroll(self):
        batch = _plain_batch([1.0, 2.0, 3.0], [0.5, 1.0, 1.5], [False, False, True])
        out = gae_advantages(batch, gamma=0.9, lam=0.8, normalize=False)
        # backwards pass by hand:
        #   t=2 terminal: delta = 3 - 1.5 = 1.5
        #   t=1: delta = 2 + .9*1.5 - 1 = 2.35; adv = 2.35 + .72*1.5 = 3.43
        #   t=0: delta = 1 + .9*1.0 - .5 = 1.4; adv = 1.4 + .72*3.43 = 3.8696
        assert np.allclose(out.advantages, [3.8696, 3.43, 1.5])
        assert np.allclose(out.returns, [4.3696, 4.43, 3.0])

    def test_bootstrap_feeds_the_unfinished_tail(self):
        batch = _plain_batch([1.0], [0.5], [False], bootstrap=2.0)
        out = gae_advantages(batch, gamma=0.9, lam=0.95, normalize=False)
        assert np.allclose(out.advantages, [1.0 + 0.9 * 2.0 - 0.5])

    def test_perfect_value_function_gives_zero_advantage(self):
        gamma = 0.9
        rewards = [1.0, 1.0, 1.0, 1.0]
        values = [sum(gamma ** k for k in range(4 - t)) for t in range(4)]
        batch = _plain_batch(rewards, values, [False, False, False, True])
        out = gae_advantages(batch, gamma=gamma, lam=0.95, normalize=False)
        assert np.allclose(out.advantages, 0.0, atol=1e-12)
        out_norm = gae_advantages(_plain_batch(rewards, values, [False, False, False, True]),
                                  gamma=gamma, lam=0.95, normalize=True)
        assert np.allclose(out_norm.advantages, 0.0, atol=1e-4)

    def test_env_slices_are_independent(self):
        rng = np.random.default_rng(3)
        r = rng.normal(0, 1, 8)
        v = rng.normal(0, 1, 8)
        d = np.array([False, True, False, False, False, False, True, False])
        joint = RolloutBatch(
            features=np.zeros((8, 2)), actions=np.zeros(8, dtype=int), logprobs=np.zeros(8),
            rewards=r.copy(), values=v.copy(), dones=d.copy(),
            env_slices=[(0, 4), (4, 8)], bootstrap_values=np.array([1.5, -0.5]),
        )
        joint = gae_advantages(joint, 0.99, 0.95, normalize=False)
        for e, (lo, hi) in enumerate([(0, 4), (4, 8)]):
            solo = _plain_batch(r[lo:hi], v[lo:hi], d[lo:hi], bootstrap=[1.5, -0.5][e])
            solo = gae_advantages(solo, 0.99, 0.95, normalize=False)
            assert np.allclose(joint.advantages[lo:hi], solo.advantages)

    def test_normalization_standardizes(self):
        rng = np.random.default_rng(4)
        batch = _plain_batch(rng.normal(0, 3, 64), rng.normal(0, 1, 64),
                             rng.random(64) < 0.1)
        out = gae_advantages(batch, 0.99, 0.95, normalize=True)
        assert out.advantages.mean() == pytest.approx(0.0, abs=1e-9)
        assert out.advantages.std() == pytest.approx(1.0, rel=1e-4)


class TestClippedSurrogate:
    def test_unit_ratio_passes_advantage_through(self):
        adv = np.array([1.0, -2.0, 0.5])
        surrogate, slope = clipped_surrogate(np.ones(3), adv, 0.2)
        assert np.allclose(surrogate, adv)
        assert np.array_equal(slope, adv)

    def test_positive_advantage_clips_above(self):
        surrogate, slope = clipped_surrogate(np.array([1.5]), np.array([2.0]), 0.2)
        assert surrogate[0] == pytest.approx(1.2 * 2.0)
        assert slope[0] == 0.0  # the clipped branch is flat in r

    def test_negative_advantage_clips_below(self):
        surrogate, slope = clipped_surrogate(np.array([0.5]), np.array([-1.0]), 0.2)
        assert surrogate[0] == pytest.approx(-0.8)
        assert slope[0] == 0.0

    def test_pessimistic_branch_for_negative_advantage_large_ratio(self):
        surrogate, slope = clipped_surrogate(np.array([1.5]), np.array([-1.0]), 0.2)
        assert surrogate[0] == pytest.approx(-1.5)  # unclipped is worse, min keeps it
        assert slope[0] == -1.5  # d(r*A)/d(log r) = r*A

    def test_never_exceeds_unclipped_for_positive_adv(self):
        rng = np.random.default_rng(5)
        ratio = rng.uniform(0.1, 3.0, 100)
        adv = np.abs(rng.normal(0, 1, 100))
        surrogate, slope = clipped_surrogate(ratio, adv, 0.2)
        assert np.all(surrogate <= ratio * adv + 1e-12)
        # the slope is r*A exactly where the min keeps the unclipped branch
        assert np.array_equal(slope != 0.0, ratio * adv <= np.clip(ratio, 0.8, 1.2) * adv)
        assert np.array_equal(slope[slope != 0.0], (ratio * adv)[slope != 0.0])


class TestPpoUpdate:
    CFG = NetConfig(input_dim=6, num_actions=4, hidden=(8, 8))

    def _consistent_batch(self, net, n=32, seed=6):
        rng = np.random.default_rng(seed)
        feats = rng.normal(0, 1, (n, 6))
        probs, values = forward(net, feats)
        actions = np.array([int(np.argmax(p)) for p in probs])
        logprobs = np.log(probs[np.arange(n), actions])
        return RolloutBatch(
            features=feats, actions=actions, logprobs=logprobs,
            rewards=np.zeros(n), values=values, dones=np.zeros(n, dtype=bool),
            env_slices=[(0, n)], bootstrap_values=np.zeros(1),
        )

    def test_requires_advantages(self):
        net = init_policy_net(self.CFG, 0)
        batch = self._consistent_batch(net)
        with pytest.raises(ValueError, match="gae_advantages"):
            ppo_update(net, batch, PpoConfig(epochs=1, minibatch_size=16), Adam(net.size),
                       np.random.default_rng(0))

    def test_zero_advantage_perfect_value_is_a_no_op(self):
        net = init_policy_net(self.CFG, 1)
        batch = self._consistent_batch(net)
        batch.advantages = np.zeros(batch.size)
        batch.returns = batch.values.copy()  # value head already exact
        before = net.params.copy()
        stats = ppo_update(net, batch, PpoConfig(epochs=3, minibatch_size=8),
                           Adam(net.size, lr=1e-2), np.random.default_rng(1))
        assert np.array_equal(net.params, before)
        assert stats["value_loss"] == 0.0
        assert stats["clip_fraction"] == 0.0
        assert stats["approx_kl"] == pytest.approx(0.0, abs=1e-12)

    def test_positive_advantage_raises_action_probability(self):
        net = init_policy_net(self.CFG, 2)
        batch = self._consistent_batch(net, n=64, seed=7)
        batch.advantages = np.ones(batch.size)
        batch.returns = batch.values.copy()
        p_before, _ = forward(net, batch.features)
        before = p_before[np.arange(batch.size), batch.actions].mean()
        ppo_update(net, batch, PpoConfig(epochs=5, minibatch_size=16, learning_rate=1e-3),
                   Adam(net.size, lr=1e-3), np.random.default_rng(2))
        p_after, _ = forward(net, batch.features)
        after = p_after[np.arange(batch.size), batch.actions].mean()
        assert after > before

    def test_value_regression_moves_toward_targets(self):
        net = init_policy_net(self.CFG, 3)
        batch = self._consistent_batch(net, n=64, seed=8)
        batch.advantages = np.zeros(batch.size)
        batch.returns = batch.values + 1.0
        mse_before = float(np.mean((batch.values - batch.returns) ** 2))
        ppo_update(net, batch, PpoConfig(epochs=10, minibatch_size=16),
                   Adam(net.size, lr=1e-2), np.random.default_rng(3))
        _, v_after = forward(net, batch.features)
        assert float(np.mean((v_after - batch.returns) ** 2)) < mse_before


    def test_non_finite_advantage_raises_before_the_step(self):
        net = init_policy_net(self.CFG, 4)
        batch = self._consistent_batch(net)
        batch.advantages = np.ones(batch.size)
        batch.advantages[5] = np.inf
        batch.returns = batch.values.copy()
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="PPO update 3, minibatch"):
            ppo_update(net, batch, PpoConfig(epochs=2, minibatch_size=8), Adam(net.size),
                       np.random.default_rng(4), update=3)
        assert np.all(np.isfinite(net.params))

    def test_vanishing_action_probability_is_floored(self):
        net = init_policy_net(self.CFG, 5)
        net["bp"][:] = [0.0, 800.0, 0.0, 0.0]  # action 0 has probability exp(-800) == 0.0
        batch = self._consistent_batch(net, n=16)
        batch.actions[:] = 0
        batch.logprobs[:] = np.log(1e-12)
        batch.advantages = np.ones(batch.size)
        batch.returns = batch.values.copy()
        stats = ppo_update(net, batch, PpoConfig(epochs=1, minibatch_size=8), Adam(net.size),
                           np.random.default_rng(5))
        assert all(math.isfinite(v) for v in stats.values())
        assert np.all(np.isfinite(net.params))


class TestRunningReturnStd:
    def test_output_is_clipped(self):
        scaler = _RunningReturnStd(gamma=0.99, n_envs=1, clip=10.0)
        outs = [scaler.normalize(1e6, 0, False) for _ in range(5)]
        assert all(abs(o) <= 10.0 for o in outs)

    def test_done_resets_the_discounted_accumulator(self):
        scaler = _RunningReturnStd(gamma=0.5, n_envs=1, clip=100.0)
        scaler.normalize(8.0, 0, done=True)
        assert scaler.ret[0] == 0.0
        scaler.normalize(8.0, 0, done=False)
        assert scaler.ret[0] == 8.0
        scaler.normalize(8.0, 0, done=False)
        assert scaler.ret[0] == 12.0  # 0.5 * 8 + 8

    def test_envs_tracked_separately(self):
        scaler = _RunningReturnStd(gamma=1.0, n_envs=2, clip=100.0)
        scaler.normalize(3.0, 0, False)
        scaler.normalize(5.0, 1, False)
        assert scaler.ret.tolist() == [3.0, 5.0]


def _train_traces():
    return [synthesize_trace(SynthConfig(duration_s=300, seed=900 + i), f"ppo-{i}")
            for i in range(3)]


def _small_ppo(total_steps=128):
    return PpoConfig(total_steps=total_steps, n_steps=16, n_envs=2, minibatch_size=16,
                     epochs=2, learning_rate=3e-4)


class TestFinetune:
    def test_deterministic_per_seed(self):
        spec = VideoSpec(num_chunks=10)
        fc = FeatureConfig()
        base = init_policy_net(NetConfig(17, 6, hidden=(16, 16)), 0)
        a, curve_a = finetune(base.copy(), _train_traces(), spec, QoEWeights(),
                              _small_ppo(), CvarConfig(window=64), fc, seed=5)
        b, curve_b = finetune(base.copy(), _train_traces(), spec, QoEWeights(),
                              _small_ppo(), CvarConfig(window=64), fc, seed=5)
        assert np.array_equal(a.params, b.params)
        assert curve_a == curve_b
        c, _ = finetune(base.copy(), _train_traces(), spec, QoEWeights(),
                        _small_ppo(), CvarConfig(window=64), fc, seed=6)
        assert not np.array_equal(a.params, c.params)

    def test_zero_weight_equals_never_triggered_hinge(self):
        spec = VideoSpec(num_chunks=10)
        fc = FeatureConfig()
        base = init_policy_net(NetConfig(17, 6, hidden=(16, 16)), 1)
        off, _ = finetune(base.copy(), _train_traces(), spec, QoEWeights(),
                          _small_ppo(), CvarConfig(penalty_weight=0.0), fc, seed=7)
        dormant, _ = finetune(base.copy(), _train_traces(), spec, QoEWeights(),
                              _small_ppo(), CvarConfig(penalty_weight=20.0, budget_s=1e9), fc, seed=7)
        assert np.array_equal(off.params, dormant.params)

    def test_curve_accounting(self):
        spec = VideoSpec(num_chunks=10)
        base = init_policy_net(NetConfig(17, 6, hidden=(16, 16)), 2)
        _, curve = finetune(base, _train_traces(), spec, QoEWeights(),
                            _small_ppo(total_steps=128), CvarConfig(window=64), seed=8)
        assert len(curve) == 4  # 32 transitions per update
        assert [row["update"] for row in curve] == [1, 2, 3, 4]
        assert [row["steps"] for row in curve] == [32, 64, 96, 128]
        for row in curve:
            for key in ("episodes", "mean_episode_qoe", "mean_episode_rebuffer_s",
                        "xi", "window_cvar", "shaped_episodes", "mean_raw_reward",
                        "ppo_policy_loss", "ppo_value_loss", "ppo_clip_fraction", "ppo_approx_kl"):
                assert key in row

    def test_no_traces_rejected(self):
        net = init_policy_net(NetConfig(17, 6), 0)
        with pytest.raises(ValueError, match="no training traces"):
            finetune(net, [], VideoSpec(), QoEWeights())

    def test_training_mutates_the_given_net(self):
        spec = VideoSpec(num_chunks=10)
        base = init_policy_net(NetConfig(17, 6, hidden=(16, 16)), 3)
        before = base.params.copy()
        tuned, _ = finetune(base, _train_traces(), spec, QoEWeights(),
                            _small_ppo(total_steps=64), CvarConfig(), seed=9)
        assert tuned is base
        assert not np.array_equal(before, tuned.params)


def _episode(index, log):
    return EpisodeInfo(index, log.session_rebuffer_s, log.session_qoe,
                       len(log.outcomes) + int(log.truncated), log.truncated)


def _reference_collect(net, traces, spec, w, ppo, fc, rng, history_len, streams):
    """The lockstep rollout loop, written out round by round.

    `streams` holds each env stream's (env, state) across calls, None until
    the stream first steps and after each episode ends. A round refills the
    empty streams in stream order, featurizes and forwards all streams at
    once, draws one uniform per stream and steps each. The batch is then laid
    out env-major: each stream's n_steps steps in a row.
    """
    from abrlab.imitation import PROB_FLOOR
    from abrlab.net import featurize
    from abrlab.sim import SessionEnv

    rows = [[] for _ in range(ppo.n_envs)]
    for _ in range(ppo.n_steps):
        for e in range(ppo.n_envs):
            if streams[e] is None:
                env = SessionEnv(traces[int(rng.integers(len(traces)))], spec, w, history_len=history_len)
                streams[e] = (env, env.reset())
        x = np.vstack([featurize([state], spec, fc) for _, state in streams])
        probs, values = forward(net, x)
        us = rng.random(ppo.n_envs)
        for e, (env, _) in enumerate(streams):
            a = int(min(np.searchsorted(np.cumsum(probs[e]), us[e], side="right"), probs.shape[1] - 1))
            next_state, outcome, done = env.step(a)
            rows[e].append((x[e], a, float(np.log(max(probs[e][a], PROB_FLOOR))),
                            0.0 if outcome is None else outcome.qoe, float(values[e]), done,
                            env.finish() if done else None))
            streams[e] = None if done else (env, next_state)
    steps = [row for stream in rows for row in stream]
    bootstraps = np.zeros(ppo.n_envs)
    for e in range(ppo.n_envs):
        if streams[e] is not None:
            bootstraps[e] = forward(net, featurize([streams[e][1]], spec, fc))[1][0]
    feats, actions, logprobs, rewards, values, dones, logs = zip(*steps)
    return RolloutBatch(np.array(feats), np.array(actions), np.array(logprobs), np.array(rewards),
                        np.array(values), np.array(dones),
                        [(lo, lo + ppo.n_steps) for lo in range(0, len(steps), ppo.n_steps)], bootstraps,
                        [_episode(i, log) for i, log in enumerate(logs) if log is not None])


def _env_major_reference_collect(net, traces, spec, w, ppo, fc, rng, history_len, streams):
    """Each stream stepped alone for its n_steps, one stream after another.
    With one stream this is the lockstep loop too."""
    from abrlab.imitation import PROB_FLOOR
    from abrlab.net import featurize
    from abrlab.sim import SessionEnv

    feats, actions, logprobs, rewards, values, dones = [], [], [], [], [], []
    slices, bootstraps, episodes = [], np.zeros(ppo.n_envs), []
    for e in range(ppo.n_envs):
        lo = len(actions)
        for _ in range(ppo.n_steps):
            if streams[e] is None:
                env = SessionEnv(traces[int(rng.integers(len(traces)))], spec, w, history_len=history_len)
                streams[e] = (env, env.reset())
            env, state = streams[e]
            [x] = featurize([state], spec, fc)
            probs, value = forward(net, x[None])
            [a] = sample_action(probs, rng).tolist()
            next_state, outcome, done = env.step(a)
            feats.append(x)
            actions.append(a)
            logprobs.append(float(np.log(max(probs[0, a], PROB_FLOOR))))
            values.append(float(value[0]))
            rewards.append(0.0 if outcome is None else outcome.qoe)
            dones.append(done)
            if done:
                episodes.append(_episode(len(actions) - 1, env.finish()))
                streams[e] = None
            else:
                streams[e] = (env, next_state)
        if streams[e] is not None:
            bootstraps[e] = forward(net, featurize([streams[e][1]], spec, fc))[1][0]
        slices.append((lo, len(actions)))
    return RolloutBatch(np.array(feats), np.array(actions), np.array(logprobs), np.array(rewards),
                        np.array(values), np.array(dones), slices, bootstraps, episodes)


class TestRolloutCollector:
    @staticmethod
    def _check_against(reference, n_envs):
        # 10-chunk sessions and 7 steps per stream: episodes straddle batch
        # boundaries. The 24-s trace runs out mid-session, so some episodes end
        # truncated. Between batches the generator is drawn from and the net
        # moves, as an update would do; both sides see the same.
        spec = VideoSpec(num_chunks=10)
        traces = _train_traces() + [synthesize_trace(SynthConfig(duration_s=24, seed=950), "short")]
        ppo = PpoConfig(n_steps=7, n_envs=n_envs)
        fc = FeatureConfig()
        net = init_policy_net(NetConfig(17, 6, hidden=(16, 16)), 4)
        ref_net = net.copy()
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        collector = RolloutCollector(net, traces, spec, QoEWeights(), ppo, fc, rng)
        streams = [None] * ppo.n_envs
        truncated = straddling = 0
        for k in range(30 // n_envs):
            got = collector.collect()
            want = reference(ref_net, traces, spec, QoEWeights(), ppo, fc, ref_rng, 8, streams)
            for name in ("features", "actions", "logprobs", "rewards", "values", "dones",
                         "bootstrap_values"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (k, name)
            assert got.env_slices == want.env_slices == [(7 * e, 7 * e + 7) for e in range(n_envs)]
            assert got.episodes == want.episodes
            truncated += sum(ep.truncated for ep in got.episodes)
            straddling += sum(ep.length > ep.terminal_index % 7 + 1 for ep in got.episodes)
            nudge = rng.normal(0.0, 0.3, net.size)
            ref_rng.normal(0.0, 0.3, net.size)
            net.params += nudge
            ref_net.params += nudge
        assert truncated > 0
        assert straddling > 0
        assert rng.random() == ref_rng.random()

    def test_matches_the_lockstep_reference_loop_across_batches(self):
        self._check_against(_reference_collect, n_envs=3)

    def test_matches_the_per_stream_reference_loop_across_batches(self):
        # with one stream the lockstep and the env-major orders coincide
        self._check_against(_env_major_reference_collect, n_envs=1)


# The minibatch step as it was written before it was trimmed to fewer numpy
# calls: allocating forward, backward and Adam, and a gather per minibatch.
# The trimmed step must do the same floating-point operations in the same
# order, so params, moments, stats and checkpoints stay bit-identical.

def _reference_forward(net, x, with_cache=False):
    x = np.asarray(x, dtype=np.float64)
    h1 = np.tanh(x @ net["w1"] + net["b1"])
    h2 = np.tanh(h1 @ net["w2"] + net["b2"])
    logits = h2 @ net["wp"] + net["bp"]
    values = h2 @ net["wv"] + net["bv"][0]
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    probs = e / np.sum(e, axis=-1, keepdims=True)
    if with_cache:
        return probs, values, (x, h1, h2, logits)
    return probs, values


def _reference_backward(net, cache, dlogits, dvalue):
    from abrlab.net import PolicyNet

    x, h1, h2, _ = cache
    grad = np.zeros_like(net.params)
    g = PolicyNet(net.cfg, grad)
    g["wp"][:] = h2.T @ dlogits
    g["bp"][:] = dlogits.sum(axis=0)
    g["wv"][:] = h2.T @ dvalue
    g["bv"][:] = dvalue.sum()
    dh2 = dlogits @ net["wp"].T + dvalue[:, None] * net["wv"][None, :]
    dz2 = dh2 * (1.0 - h2 * h2)
    g["w2"][:] = h1.T @ dz2
    g["b2"][:] = dz2.sum(axis=0)
    dz1 = (dz2 @ net["w2"].T) * (1.0 - h1 * h1)
    g["w1"][:] = x.T @ dz1
    g["b1"][:] = dz1.sum(axis=0)
    return grad


class _ReferenceAdam:
    def __init__(self, size, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, max_grad_norm=0.5):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.max_grad_norm = max_grad_norm
        self.m, self.v, self.t = np.zeros(size), np.zeros(size), 0
        self.clipped = 0  # steps whose gradient the norm cap scaled

    def step(self, params, grad):
        g = grad
        if self.max_grad_norm is not None:
            norm = float(np.linalg.norm(grad))
            if norm > self.max_grad_norm and norm > 0.0:
                g = grad * (self.max_grad_norm / norm)
                self.clipped += 1
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _reference_ppo_update(net, batch, cfg, opt, rng, update=1):
    from abrlab.imitation import PROB_FLOOR

    n = batch.size
    stats = {"policy_loss": 0.0, "value_loss": 0.0, "clip_fraction": 0.0, "approx_kl": 0.0}
    n_minibatches = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, cfg.minibatch_size):
            idx = perm[lo : lo + cfg.minibatch_size]
            m = idx.size
            feats, acts = batch.features[idx], batch.actions[idx]
            adv, rets, old_logp = batch.advantages[idx], batch.returns[idx], batch.logprobs[idx]
            probs, values, cache = _reference_forward(net, feats, with_cache=True)
            new_logp = np.log(np.maximum(probs[np.arange(m), acts], PROB_FLOOR))
            ratio = np.exp(new_logp - old_logp)
            clipped = np.clip(ratio, 1.0 - cfg.clip_range, 1.0 + cfg.clip_range)
            unclipped_active = (ratio * adv) <= (clipped * adv)
            coeff = np.where(unclipped_active, ratio * adv, 0.0) / m
            dlogits = -coeff[:, None] * (np.eye(probs.shape[1])[acts] - probs)
            dvalue = cfg.value_coef * 2.0 * (values - rets) / m
            grads = _reference_backward(net, cache, dlogits, dvalue)
            opt.step(net.params, grads)
            stats["policy_loss"] += float(-np.mean(np.minimum(ratio * adv, clipped * adv)))
            stats["value_loss"] += float(np.mean((values - rets) ** 2))
            stats["clip_fraction"] += float(np.mean(np.abs(ratio - 1.0) > cfg.clip_range))
            stats["approx_kl"] += float(np.mean(old_logp - new_logp))
            n_minibatches += 1
    for k in stats:
        stats[k] /= max(n_minibatches, 1)
    return stats


def _reference_gae(batch, gamma, lam, normalize=True):
    adv = np.zeros_like(batch.rewards)
    for e, (lo, hi) in enumerate(batch.env_slices):
        last_adv = 0.0
        next_value = float(batch.bootstrap_values[e])
        for t in range(hi - 1, lo - 1, -1):
            nonterminal = 0.0 if batch.dones[t] else 1.0
            delta = batch.rewards[t] + gamma * next_value * nonterminal - batch.values[t]
            last_adv = delta + gamma * lam * nonterminal * last_adv
            adv[t] = last_adv
            next_value = float(batch.values[t])
    returns = adv + batch.values
    if normalize:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    batch.advantages = adv
    batch.returns = returns
    return batch


def _recording(factory, made):
    def make(*args, **kwargs):
        made.append(factory(*args, **kwargs))
        return made[-1]
    return make


class TestTrimmedStepIsBitIdentical:
    @pytest.mark.parametrize("max_grad_norm", [1e-3, 1e6], ids=["norm-cap-active", "norm-cap-inactive"])
    def test_ppo_update_matches_the_allocating_reference(self, max_grad_norm):
        # 50 rows in minibatches of 12: every epoch ends on a ragged minibatch of 2
        net = init_policy_net(NetConfig(17, 6, hidden=(16, 16)), 7)
        rng = np.random.default_rng(12)
        n = 50
        feats = rng.normal(0, 1, (n, 17))
        probs, values = forward(net, feats)
        actions = sample_action(probs, rng)
        batch = RolloutBatch(
            features=feats, actions=actions,
            logprobs=np.log(probs[np.arange(n), actions]) + rng.normal(0, 0.3, n),
            rewards=rng.normal(0, 1, n), values=values, dones=rng.random(n) < 0.1,
            env_slices=[(0, 25), (25, 50)], bootstrap_values=np.array([0.3, -0.2]))
        batch = gae_advantages(batch, 0.99, 0.95)
        cfg = PpoConfig(epochs=2, minibatch_size=12, learning_rate=1e-2, max_grad_norm=max_grad_norm)
        ref_net = net.copy()
        opt = Adam(net.size, lr=cfg.learning_rate, max_grad_norm=max_grad_norm)
        ref_opt = _ReferenceAdam(net.size, lr=cfg.learning_rate, max_grad_norm=max_grad_norm)
        rng, ref_rng = np.random.default_rng(13), np.random.default_rng(13)
        clip_fractions = []
        for update in (1, 2, 3):
            stats = ppo_update(net, batch, cfg, opt, rng, update)
            assert stats == _reference_ppo_update(ref_net, batch, cfg, ref_opt, ref_rng, update)
            clip_fractions.append(stats["clip_fraction"])
        assert np.array_equal(net.params, ref_net.params)
        assert np.array_equal(opt.m, ref_opt.m)
        assert np.array_equal(opt.v, ref_opt.v)
        assert opt.t == ref_opt.t == 3 * 2 * 5
        assert (ref_opt.clipped == ref_opt.t) if max_grad_norm < 1.0 else (ref_opt.clipped == 0)
        assert 0.0 < max(clip_fractions)  # both branches of the surrogate were taken

    def test_pretrain_matches_the_allocating_reference(self, monkeypatch):
        from abrlab import imitation
        from abrlab import net as net_module

        spec = VideoSpec(num_chunks=10)
        cfg = BcConfig(dagger_iterations=2, rollout_steps=40, epochs=2, batch_size=16, expert_horizon=2)

        def run(forward_fn, backward_fn, adam):
            made = []
            with monkeypatch.context() as patch:
                patch.setattr(net_module, "forward", forward_fn)
                patch.setattr(imitation, "forward", forward_fn)
                patch.setattr(imitation, "backward", backward_fn)
                patch.setattr(imitation, "Adam", _recording(adam, made))
                tuned, report = imitation.pretrain(_train_traces(), spec, QoEWeights(), cfg, seed=3)
            [opt] = made
            assert opt.max_grad_norm is None
            return tuned, report, opt

        got, got_report, opt = run(forward, backward, Adam)
        want, want_report, ref_opt = run(_reference_forward, _reference_backward, _ReferenceAdam)
        assert np.array_equal(got.params, want.params)
        assert np.array_equal(opt.m, ref_opt.m)
        assert np.array_equal(opt.v, ref_opt.v)
        assert got_report == want_report
        assert len(got_report) == 2

    def test_finetune_matches_the_allocating_reference(self, monkeypatch):
        from abrlab import net as net_module
        from abrlab import risk_ppo

        spec = VideoSpec(num_chunks=10)
        base = init_policy_net(NetConfig(17, 6, hidden=(16, 16)), 5)
        tuned, curve = finetune(base.copy(), _train_traces(), spec, QoEWeights(), _small_ppo(),
                                CvarConfig(window=64), seed=4)
        monkeypatch.setattr(net_module, "forward", _reference_forward)
        monkeypatch.setattr(risk_ppo, "forward", _reference_forward)
        monkeypatch.setattr(risk_ppo, "ppo_update", _reference_ppo_update)
        monkeypatch.setattr(risk_ppo, "gae_advantages", _reference_gae)
        monkeypatch.setattr(risk_ppo, "Adam", _ReferenceAdam)
        want, want_curve = finetune(base.copy(), _train_traces(), spec, QoEWeights(), _small_ppo(),
                                    CvarConfig(window=64), seed=4)
        assert np.array_equal(tuned.params, want.params)
        assert curve == want_curve
