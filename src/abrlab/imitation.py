"""Behavior cloning with dataset aggregation against a clairvoyant planner.

Each round rolls the current policy (sampling its own actions, so the state
distribution is the learner's, not the expert's), labels every visited state
with the future-seeing planner, appends to a never-discarded dataset, and
fits by cross-entropy for a few epochs. Later rounds therefore cover the
mistakes earlier policies made. The rollout (`net.sampled_steps`) never reads
a label, so an episode's states are labeled together, in one batched plan
search, when the episode ends (or when the round's quota cuts it short).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .net import (Adam, FeatureConfig, NetConfig, PolicyNet, backward, feature_dim, forward,
                  init_policy_net, sampled_steps)
# beam_expert_decide, the one-state form of the labeler, stays importable here.
from .policies import beam_expert_decide, beam_expert_labels  # noqa: F401
from .sim import PlayerState, QoEWeights, VideoSpec
from .traces import ThroughputTrace

PROB_FLOOR = 1e-12

# Labeler: (states of one episode in visit order, their trace) -> one rung
# index per state. Injectable so degenerate teachers can stand in for the
# planner.
ExpertFn = Callable[[list[PlayerState], ThroughputTrace], Sequence[int]]


@dataclass(frozen=True)
class BcConfig:
    dagger_iterations: int = 15
    rollout_steps: int = 2000
    epochs: int = 5
    batch_size: int = 128
    learning_rate: float = 1e-3
    expert_horizon: int = 5

    def __post_init__(self):
        # 0 states: a NaN loss; 0 epochs: the initial net is saved as the
        # clone; 0 rows: no step; horizon 0: every label rung 0
        for name in ("rollout_steps", "epochs", "batch_size", "expert_horizon"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        # a negative rate climbs the cross-entropy
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")


@dataclass
class ImitationDataset:
    """Append-only (features, expert rung) pairs aggregated across rounds."""

    feature_blocks: list[np.ndarray] = field(default_factory=list)
    label_blocks: list[np.ndarray] = field(default_factory=list)

    def append(self, features: np.ndarray, labels: np.ndarray) -> None:
        self.feature_blocks.append(np.asarray(features, dtype=np.float64))
        self.label_blocks.append(np.asarray(labels, dtype=int))

    @property
    def size(self) -> int:
        return int(sum(b.shape[0] for b in self.feature_blocks))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.feature_blocks:
            raise ValueError("empty imitation dataset")
        return np.vstack(self.feature_blocks), np.concatenate(self.label_blocks)


def _cross_entropy(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """(mean cross-entropy against `labels`, mask of the rows clamped at PROB_FLOOR)."""
    picked = probs[np.arange(labels.size), labels]
    clamped = picked < PROB_FLOOR
    return float(-np.mean(np.log(np.maximum(picked, PROB_FLOOR)))), clamped


def imitation_loss(net: PolicyNet, features: np.ndarray, labels: np.ndarray,
                   clamp_counter: dict | None = None) -> tuple[float, np.ndarray]:
    """Mean cross-entropy against expert rungs, with its parameter gradient.

    Probabilities below 1e-12 are clamped inside the log (and counted when a
    counter dict is passed); clamped rows contribute no gradient, consistent
    with the clamped loss.
    """
    labels = np.asarray(labels, dtype=int)
    probs, _, cache = forward(net, features, with_cache=True)
    n = labels.size
    loss, clamped = _cross_entropy(probs, labels)
    if clamp_counter is not None and np.any(clamped):
        clamp_counter["clamped"] = clamp_counter.get("clamped", 0) + int(clamped.sum())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits[clamped] = 0.0
    dlogits /= n
    grads = backward(net, cache, dlogits, np.zeros(n))
    return loss, grads


def expert_agreement(net: PolicyNet, features: np.ndarray, labels: np.ndarray) -> float:
    probs, _ = forward(net, features)
    picks = np.argmax(probs, axis=1)
    return float(np.mean(picks == np.asarray(labels)))


def _default_expert(spec: VideoSpec, w: QoEWeights, horizon: int) -> ExpertFn:
    def expert(states, trace):
        return beam_expert_labels(states, trace, spec, w, horizon)
    return expert


def _collect_labeled_states(
    net: PolicyNet, traces: list[ThroughputTrace], spec: VideoSpec, w: QoEWeights,
    cfg: BcConfig, fc: FeatureConfig, rng: np.random.Generator, history_len: int,
    expert_fn: ExpertFn,
) -> tuple[np.ndarray, np.ndarray]:
    # Exactly cfg.rollout_steps learner-visited states, expert-labeled one
    # episode at a time; the last episode is abandoned mid-flight once the
    # quota is reached, and its states so far are labeled then.
    feats, visited = [], []
    labels = np.empty(cfg.rollout_steps, dtype=int)
    for n, (step,) in enumerate(islice(sampled_steps(net, traces, spec, w, fc, rng, history_len),
                                       cfg.rollout_steps), 1):
        feats.append(step.features)
        visited.append(step.state)
        if step.log is not None or n == cfg.rollout_steps:
            labels[n - len(visited) : n] = expert_fn(visited, step.trace)
            visited = []
    return np.array(feats), labels


def dagger_round(
    net: PolicyNet, dataset: ImitationDataset, traces: list[ThroughputTrace],
    spec: VideoSpec, w: QoEWeights, cfg: BcConfig, fc: FeatureConfig,
    rng: np.random.Generator, opt: Adam, history_len: int = 8,
    expert_fn: ExpertFn | None = None,
) -> dict:
    """One aggregation round: collect, label, append, fit. Returns round stats."""
    if expert_fn is None:
        expert_fn = _default_expert(spec, w, cfg.expert_horizon)
    feats, labels = _collect_labeled_states(net, traces, spec, w, cfg, fc, rng, history_len, expert_fn)
    dataset.append(feats, labels)
    all_feats, all_labels = dataset.arrays()
    n = all_labels.size
    clamp_counter: dict = {}
    epoch_losses = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            _, grads = imitation_loss(net, all_feats[idx], all_labels[idx], clamp_counter)
            opt.step(net.params, grads)
        # the loss over the whole dataset is a forward pass only; no gradient is needed
        epoch_losses.append(_cross_entropy(forward(net, all_feats)[0], all_labels)[0])
    return {
        "dataset_size": n,
        "loss": epoch_losses[-1],
        "epoch_losses": epoch_losses,
        "agreement": expert_agreement(net, all_feats, all_labels),
        "clamped_logs": clamp_counter.get("clamped", 0),
    }


def pretrain(
    traces: list[ThroughputTrace], spec: VideoSpec, w: QoEWeights,
    cfg: BcConfig = BcConfig(), fc: FeatureConfig = FeatureConfig(),
    seed: int = 0, history_len: int = 8, expert_fn: ExpertFn | None = None,
) -> tuple[PolicyNet, list[dict]]:
    """Full aggregation schedule. Deterministic per seed; zero rounds returns
    the freshly initialized net untouched with an empty report."""
    if not traces:
        raise ValueError("no training traces")
    net = init_policy_net(NetConfig(feature_dim(history_len, spec.ladder.num_rungs), spec.ladder.num_rungs), seed)
    rng = np.random.default_rng([seed, 101])
    opt = Adam(net.size, lr=cfg.learning_rate, max_grad_norm=None)
    dataset = ImitationDataset()
    report: list[dict] = []
    for rnd in range(cfg.dagger_iterations):
        stats = dagger_round(net, dataset, traces, spec, w, cfg, fc, rng, opt, history_len, expert_fn)
        stats["round"] = rnd + 1
        report.append(stats)
    return net, report
