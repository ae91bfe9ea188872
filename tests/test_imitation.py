"""Dataset-aggregating behavior cloning."""

import json
import math

import numpy as np
import pytest

from abrlab.imitation import (
    BcConfig,
    ImitationDataset,
    _collect_labeled_states,
    dagger_round,
    expert_agreement,
    imitation_loss,
    pretrain,
)
from abrlab.net import (
    Adam,
    FeatureConfig,
    NetConfig,
    PolicyNet,
    feature_dim,
    featurize,
    forward,
    init_policy_net,
    make_greedy_policy,
    sample_action,
)
from abrlab.sim import QoEWeights, SessionEnv, VideoSpec, run_session
from abrlab.traces import SynthConfig, synthesize_trace

W = QoEWeights()


def _tiny_net(num_actions=6, input_dim=17):
    return PolicyNet(NetConfig(input_dim=input_dim, num_actions=num_actions, hidden=(8, 8)))


class TestImitationLoss:
    def test_uniform_policy_scores_log_num_actions(self):
        net = _tiny_net(num_actions=6)
        x = np.random.default_rng(0).normal(0, 1, (10, 17))
        y = np.random.default_rng(1).integers(0, 6, 10)
        loss, _ = imitation_loss(net, x, y)
        assert loss == pytest.approx(math.log(6.0))

    def test_two_action_uniform_scores_log_two(self):
        net = _tiny_net(num_actions=2)
        x = np.zeros((4, 17))
        loss, _ = imitation_loss(net, x, np.array([0, 1, 0, 1]))
        assert loss == pytest.approx(math.log(2.0))

    def test_confident_correct_policy_scores_near_zero(self):
        net = _tiny_net()
        net["bp"][2] = 30.0
        loss, grads = imitation_loss(net, np.zeros((3, 17)), np.array([2, 2, 2]))
        assert loss < 1e-8
        assert np.max(np.abs(grads)) < 1e-8

    def test_probability_floor_clamps_and_kills_gradient(self):
        net = _tiny_net()
        net["bp"][0] = 60.0  # label-1 probability underflows the floor
        counter = {}
        loss, grads = imitation_loss(net, np.zeros((1, 17)), np.array([1]), counter)
        assert counter["clamped"] == 1
        assert loss == pytest.approx(-math.log(1e-12))
        assert np.array_equal(grads, np.zeros(net.size))

    def test_gradient_points_downhill(self):
        net = init_policy_net(NetConfig(17, 6, hidden=(8, 8)), 5)
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, (32, 17))
        y = rng.integers(0, 6, 32)
        loss0, grads = imitation_loss(net, x, y)
        net.params -= 0.05 * grads / (np.linalg.norm(grads) + 1e-12)
        loss1, _ = imitation_loss(net, x, y)
        assert loss1 < loss0


class TestExpertAgreement:
    def test_agreement_counts_greedy_matches(self):
        net = _tiny_net()
        net["bp"][3] = 5.0  # greedy pick is always rung 3
        y = np.array([3, 3, 0, 3])
        assert expert_agreement(forward(net, np.zeros((4, 17)))[0], y) == pytest.approx(0.75)

    def test_uniform_net_ties_to_rung_zero(self):
        net = _tiny_net()
        y = np.array([0, 0, 1, 2])
        assert expert_agreement(forward(net, np.zeros((4, 17)))[0], y) == pytest.approx(0.5)


class TestImitationDataset:
    def test_append_grows_size(self):
        ds = ImitationDataset()
        assert ds.size == 0
        ds.append(np.zeros((5, 3)), np.zeros(5, dtype=int))
        ds.append(np.ones((7, 3)), np.ones(7, dtype=int))
        assert ds.size == 12
        feats, labels = ds.arrays()
        assert feats.shape == (12, 3)
        assert labels.tolist() == [0] * 5 + [1] * 7

    def test_empty_arrays_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ImitationDataset().arrays()


def _traces(n=2, duration=240, base_seed=700):
    return [synthesize_trace(SynthConfig(duration_s=duration, seed=base_seed + i), f"bc-{i}")
            for i in range(n)]


class TestDaggerRound:
    def test_dataset_grows_by_exactly_rollout_steps(self):
        spec = VideoSpec(num_chunks=12)
        cfg = BcConfig(dagger_iterations=3, rollout_steps=40, epochs=1, batch_size=32,
                       expert_horizon=2)
        fc = FeatureConfig()
        net = init_policy_net(NetConfig(feature_dim(8, 6), 6, hidden=(8, 8)), 0)
        rng = np.random.default_rng(0)
        opt = Adam(net.size, lr=1e-3, max_grad_norm=None)
        ds = ImitationDataset()
        sizes = []
        for _ in range(3):
            stats = dagger_round(net, ds, _traces(), spec, W, cfg, fc, rng, opt,
                                 expert_fn=lambda states, t: [0] * len(states))
            sizes.append(stats["dataset_size"])
        assert sizes == [40, 80, 120]

    def test_stats_shape(self):
        spec = VideoSpec(num_chunks=10)
        cfg = BcConfig(rollout_steps=30, epochs=4, batch_size=16, expert_horizon=2)
        fc = FeatureConfig()
        net = init_policy_net(NetConfig(feature_dim(8, 6), 6, hidden=(8, 8)), 1)
        ds = ImitationDataset()
        stats = dagger_round(net, ds, _traces(), spec, W, cfg, fc,
                             np.random.default_rng(1), Adam(net.size, max_grad_norm=None),
                             expert_fn=lambda states, t: [1] * len(states))
        assert set(stats) == {"dataset_size", "loss", "epoch_losses", "agreement", "clamped_logs"}
        assert len(stats["epoch_losses"]) == 4
        assert stats["loss"] == stats["epoch_losses"][-1]
        assert 0.0 <= stats["agreement"] <= 1.0
        assert json.dumps(stats)  # plain python scalars only


    def test_labeler_sees_each_episode_once_in_visit_order(self):
        # 40 states of 12-chunk episodes: three whole episodes, then the
        # quota cuts the fourth after 4 states, which are labeled then.
        spec = VideoSpec(num_chunks=12)
        cfg = BcConfig(rollout_steps=40, epochs=1, batch_size=16, expert_horizon=2)
        traces = _traces()
        net = init_policy_net(NetConfig(feature_dim(8, 6), 6, hidden=(8, 8)), 2)
        calls = []

        def recording_labeler(states, trace):
            calls.append((list(states), trace))
            return [s.chunk_index % 6 for s in states]

        ds = ImitationDataset()
        dagger_round(net, ds, traces, spec, W, cfg, FeatureConfig(), np.random.default_rng(2),
                     Adam(net.size, max_grad_norm=None), expert_fn=recording_labeler)
        assert [len(states) for states, _ in calls] == [12, 12, 12, 4]
        for states, trace in calls:
            assert any(trace is t for t in traces)
            assert [s.chunk_index for s in states] == list(range(len(states)))
            clocks = [s.wall_time_s for s in states]
            assert clocks == sorted(clocks) and len(set(clocks)) == len(clocks)
        _, labels = ds.arrays()
        assert labels.tolist() == [s.chunk_index % 6 for states, _ in calls for s in states]


    def test_collection_matches_the_episode_by_episode_reference_loop(self):
        # 30 states of 12-chunk episodes cut the third episode after 6 states;
        # three rounds in a row share the generator, as pretrain's rounds do.
        spec = VideoSpec(num_chunks=12)
        cfg = BcConfig(rollout_steps=30)
        fc = FeatureConfig()
        traces = _traces(3)
        net = init_policy_net(NetConfig(feature_dim(8, 6), 6, hidden=(8, 8)), 3)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        calls, ref_calls = [], []

        def labeler(seen):
            def label(states, trace):
                seen.append(([(s.chunk_index, s.wall_time_s, s.buffer_s) for s in states], trace.trace_id))
                return [(s.prev_rung + s.chunk_index) % 6 for s in states]
            return label

        for _ in range(3):
            feats, labels = _collect_labeled_states(net, traces, spec, W, cfg, fc, rng, 8, labeler(calls))
            # the reference: draw a trace, then featurize, forward, sample and
            # step until the episode ends or the quota is met; label the episode
            ref_feats, ref_labels, visited = [], [], []
            while len(ref_feats) < cfg.rollout_steps:
                trace = traces[int(ref_rng.integers(len(traces)))]
                env = SessionEnv(trace, spec, W, history_len=8)
                state, visited = env.reset(), []
                while not env.done and len(ref_feats) < cfg.rollout_steps:
                    ref_feats.append(featurize([state], spec, fc)[0])
                    visited.append(state)
                    probs, _ = forward(net, ref_feats[-1][None])
                    state, _, _ = env.step(sample_action(probs, ref_rng)[0])
                ref_labels += list(labeler(ref_calls)(visited, trace))
            assert np.array_equal(feats, np.array(ref_feats))
            assert labels.tolist() == ref_labels
            net.params += rng.normal(0.0, 0.3, net.size)
            ref_rng.normal(0.0, 0.3, net.size)
        assert calls == ref_calls
        assert [len(states) for states, _ in calls[:3]] == [12, 12, 6]
        assert rng.random() == ref_rng.random()


class TestPretrain:
    def test_deterministic_per_seed(self):
        spec = VideoSpec(num_chunks=10)
        cfg = BcConfig(dagger_iterations=2, rollout_steps=40, epochs=2, batch_size=32,
                       expert_horizon=2)
        a_net, a_rep = pretrain(_traces(), spec, W, cfg, seed=3)
        b_net, b_rep = pretrain(_traces(), spec, W, cfg, seed=3)
        assert np.array_equal(a_net.params, b_net.params)
        assert a_rep == b_rep
        c_net, _ = pretrain(_traces(), spec, W, cfg, seed=4)
        assert not np.array_equal(a_net.params, c_net.params)

    def test_zero_rounds_returns_fresh_net(self):
        spec = VideoSpec(num_chunks=10)
        cfg = BcConfig(dagger_iterations=0)
        fc = FeatureConfig()
        net, report = pretrain(_traces(), spec, W, cfg, fc, seed=9)
        assert report == []
        fresh = init_policy_net(NetConfig(feature_dim(8, 6), 6), 9)
        assert np.array_equal(net.params, fresh.params)

    def test_no_traces_rejected(self):
        with pytest.raises(ValueError, match="no training traces"):
            pretrain([], VideoSpec(), W, BcConfig())

    def test_degenerate_teacher_is_cloned(self):
        # a teacher that always says rung 0 must be matched almost exactly
        spec = VideoSpec(num_chunks=12)
        cfg = BcConfig(dagger_iterations=4, rollout_steps=50, epochs=30, batch_size=16,
                       learning_rate=1e-2, expert_horizon=1)
        net, report = pretrain(_traces(), spec, W, cfg, seed=0,
                               expert_fn=lambda states, t: [0] * len(states))
        assert report[-1]["loss"] < 0.05
        assert report[-1]["agreement"] >= 0.99

    def test_losses_fall_and_agreement_rises_with_the_planner(self):
        spec = VideoSpec(num_chunks=12)
        cfg = BcConfig(dagger_iterations=4, rollout_steps=80, epochs=15, batch_size=32,
                       learning_rate=8e-3, expert_horizon=3)
        net, report = pretrain(_traces(), spec, W, cfg, seed=1)
        assert [r["round"] for r in report] == [1, 2, 3, 4]
        # within every round the full-dataset loss must not increase across
        # epochs by more than stochastic-minibatch slack
        for r in report:
            for a, b in zip(r["epoch_losses"], r["epoch_losses"][1:]):
                assert b <= a * 1.05
        assert report[-1]["loss"] <= 0.5 * report[0]["epoch_losses"][0]
        assert report[-1]["agreement"] >= report[0]["agreement"]

    def test_cloning_a_trivially_fast_link_reaches_the_top_rung(self):
        # constant 200 Mbit/s: the planner always asks for the top rung, and
        # the clone should reproduce that from seen states
        from abrlab.traces import ThroughputTrace

        trace = ThroughputTrace("fast", np.arange(600.0), np.full(600, 200e6))
        spec = VideoSpec(num_chunks=12)
        cfg = BcConfig(dagger_iterations=3, rollout_steps=60, epochs=20, batch_size=16,
                       learning_rate=1e-2, expert_horizon=3)
        net, report = pretrain([trace], spec, W, cfg, seed=2)
        assert report[-1]["agreement"] > 0.9
        log = run_session(trace, spec, W, make_greedy_policy(net, spec))
        top_share = np.mean([o.rung == 5 for o in log.outcomes])
        assert top_share > 0.8
