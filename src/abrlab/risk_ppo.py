"""Clipped policy-gradient fine-tuning with a tail-risk penalty.

Rewards are the per-chunk QoE. At each episode's terminal step a hinge
penalty proportional to how far the episode's total rebuffering exceeds the
rolling tail quantile is subtracted, which pushes optimization pressure onto
the worst episodes instead of the average one. Rollouts are `net.sampled_steps`
streams stepped in lockstep (DAgger takes the same rollout with one stream);
the rest (advantages, the clipped surrogate, reward normalization) is the
standard recipe, hand-rolled on numpy.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .imitation import PROB_FLOOR
from .net import Adam, FeatureConfig, PolicyNet, backward, featurize, forward, sampled_steps
from .sim import QoEWeights, VideoSpec
from .traces import ThroughputTrace


@dataclass(frozen=True)
class PpoConfig:
    total_steps: int = 50_000
    n_steps: int = 512          # per environment stream, per update
    n_envs: int = 4
    minibatch_size: int = 64
    epochs: int = 10
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_range: float = 0.2
    value_coef: float = 0.5
    learning_rate: float = 3e-4
    max_grad_norm: float = 0.5
    reward_clip: float = 10.0

    def __post_init__(self):
        # 0 steps or streams: an update collects nothing and finetune never
        # ends; 0 rows per minibatch: the update fails inside its loop; 0
        # epochs or total steps: no update runs and the clone is saved as the
        # tuned policy
        for name in ("total_steps", "n_steps", "n_envs", "minibatch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        # Float settings that would load and break training silently: a norm
        # cap below 0 flips every gradient, so each step climbs the loss; a
        # reward clip of 0 makes every normalised reward one constant. inf
        # turns the cap or the clip off.
        for name in ("gamma", "gae_lambda"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if not (0.0 < self.clip_range < 1.0):
            raise ValueError(f"clip_range must lie in (0, 1), got {self.clip_range}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (math.isfinite(self.value_coef) and self.value_coef >= 0.0):
            raise ValueError(f"value_coef must be finite and non-negative, got {self.value_coef}")
        for name in ("max_grad_norm", "reward_clip"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class CvarConfig:
    alpha: float = 0.90
    penalty_weight: float = 20.0  # 0 disables shaping entirely
    budget_s: float = 0.0
    window: int = 512             # episodes of rebuffer history for the quantile

    def __post_init__(self):
        # checked at load, not by the first update's quantile or hinge
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window}")
        if not (math.isfinite(self.penalty_weight) and self.penalty_weight >= 0.0):
            raise ValueError(f"penalty_weight must be finite and non-negative, got {self.penalty_weight}")
        if not math.isfinite(self.budget_s):
            raise ValueError(f"budget_s must be finite, got {self.budget_s}")


def empirical_cvar(values, alpha: float) -> tuple[float, float]:
    """(tail threshold, expected shortfall) of a sample.

    The threshold is the ascending order statistic at rank ceil(alpha * n);
    the second value adds the mean excess above it, rescaled by 1 - alpha.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise ValueError("empirical_cvar of an empty sample")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    xi = float(v[max(int(math.ceil(alpha * v.size)), 1) - 1])
    cvar = xi + float(np.sum(np.maximum(v - xi, 0.0))) / ((1.0 - alpha) * v.size)
    return xi, cvar


@dataclass(frozen=True)
class EpisodeInfo:
    terminal_index: int   # position of the episode's last step in the batch
    rebuffer_s: float
    qoe: float
    length: int
    truncated: bool


@dataclass
class RolloutBatch:
    features: np.ndarray
    actions: np.ndarray
    logprobs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    dones: np.ndarray
    env_slices: list[tuple[int, int]]
    bootstrap_values: np.ndarray          # one per env stream; 0 when it ended on done
    episodes: list[EpisodeInfo] = field(default_factory=list)
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.rewards.size)


def shape_terminal_rewards(batch: RolloutBatch, cfg: CvarConfig, rolling_rebuffers) -> RolloutBatch:
    """Subtract the tail-excess hinge from each completed episode's last reward.

    The quantile threshold comes from the rolling window of recent episode
    rebuffer totals (the caller keeps it capped at cfg.window). A zero
    penalty weight returns the batch unchanged, bit for bit.
    """
    if cfg.penalty_weight == 0.0 or not batch.episodes:
        return batch
    window = np.asarray(rolling_rebuffers, dtype=np.float64)
    if window.size == 0:
        raise ValueError("rolling rebuffer window is empty; warm it up with the current batch")
    xi, _ = empirical_cvar(window, cfg.alpha)
    rewards = batch.rewards.copy()
    scale = cfg.penalty_weight / (1.0 - cfg.alpha)
    for ep in batch.episodes:
        excess = ep.rebuffer_s - cfg.budget_s - xi
        if excess > 0.0:
            rewards[ep.terminal_index] -= scale * excess
    return replace(batch, rewards=rewards)


def gae_advantages(batch: RolloutBatch, gamma: float, lam: float, normalize: bool = True) -> RolloutBatch:
    """Generalized advantage estimates plus value targets (advantage + value).

    Runs backwards within each env stream, bootstrapping unfinished tails
    from the stored next-state value. Advantages are normalized to zero mean
    and unit variance across the whole update unless disabled.
    """
    rewards, values, dones = batch.rewards.tolist(), batch.values.tolist(), batch.dones.tolist()
    adv = [0.0] * len(rewards)
    for e, (lo, hi) in enumerate(batch.env_slices):
        last_adv = 0.0
        next_value = float(batch.bootstrap_values[e])
        for t in range(hi - 1, lo - 1, -1):
            nonterminal = 0.0 if dones[t] else 1.0
            delta = rewards[t] + gamma * next_value * nonterminal - values[t]
            last_adv = delta + gamma * lam * nonterminal * last_adv
            adv[t] = last_adv
            next_value = values[t]
    adv = np.array(adv)
    returns = adv + batch.values
    if normalize:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    batch.advantages = adv
    batch.returns = returns
    return batch


def clipped_surrogate(ratio: np.ndarray, advantages: np.ndarray,
                      clip_range: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample pessimistic surrogate min(r*A, clip(r)*A), and its
    derivative in log r: r*A where the unclipped branch is active
    (r*A <= clip(r)*A), else 0, the subgradient of the min."""
    unclipped = ratio * advantages
    clipped = ratio.clip(1.0 - clip_range, 1.0 + clip_range) * advantages
    return np.minimum(unclipped, clipped), np.where(unclipped <= clipped, unclipped, 0.0)


def ppo_update(net: PolicyNet, batch: RolloutBatch, cfg: PpoConfig, opt: Adam,
               rng: np.random.Generator, update: int = 1) -> dict:
    """Several epochs of shuffled minibatch ascent on the clipped objective.

    Maximizes surrogate - value_coef * value MSE (no entropy term). Gradients
    flow only through samples where the unclipped branch is active, matching
    the subgradient of the min. Each epoch takes the batch through its
    permutation once; a minibatch is a run of rows of that copy. A non-finite
    loss or gradient raises a RuntimeError naming `update` and the minibatch,
    before the step.
    """
    if batch.advantages is None or batch.returns is None:
        raise ValueError("run gae_advantages before ppo_update")
    n, size = batch.size, cfg.minibatch_size
    rows = np.arange(min(size, n))
    sources = (batch.features, batch.actions, batch.advantages, batch.returns, batch.logprobs)
    columns = [np.empty_like(a) for a in sources]  # one permuted copy, refilled each epoch
    policy_sum = value_sum = clip_sum = kl_sum = 0.0
    n_minibatches = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for a, column in zip(sources, columns):
            # perm holds each row once, so "clip" clips nothing; unlike the
            # default mode it writes into `column` without a temporary copy
            np.take(a, perm, axis=0, out=column, mode="clip")
        for lo in range(0, n, size):
            feats, acts, adv, rets, old_logp = (a[lo : lo + size] for a in columns)
            m = acts.size
            picked = rows[:m]

            probs, values, cache = forward(net, feats, with_cache=True)
            new_logp = np.log(np.maximum(probs[picked, acts], PROB_FLOOR))
            ratio = np.exp(new_logp - old_logp)
            surrogate, coeff = clipped_surrogate(ratio, adv, cfg.clip_range)
            coeff /= m
            # -coeff * (onehot - probs), formed as (probs - onehot) * coeff
            dlogits = probs.copy()
            dlogits[picked, acts] -= 1.0
            dlogits *= coeff[:, None]
            error = values - rets
            dvalue = cfg.value_coef * 2.0 * error / m
            grads = backward(net, cache, dlogits, dvalue)
            policy_loss = -float(np.add.reduce(surrogate) / m)
            value_loss = float(np.add.reduce(error * error) / m)
            if not (math.isfinite(policy_loss + value_loss) and np.isfinite(grads).all()):
                raise RuntimeError(f"PPO update {update}, minibatch {n_minibatches + 1}: "
                                   "non-finite loss or gradient")
            opt.step(net.params, grads)

            policy_sum += policy_loss
            value_sum += value_loss
            clip_sum += int(np.count_nonzero(np.abs(ratio - 1.0) > cfg.clip_range)) / m
            kl_sum += float(np.add.reduce(old_logp - new_logp) / m)
            n_minibatches += 1
    count = max(n_minibatches, 1)
    return {"policy_loss": policy_sum / count, "value_loss": value_sum / count,
            "clip_fraction": clip_sum / count, "approx_kl": kl_sum / count}


class _RunningReturnStd:
    """Running variance of the discounted return, SB3-style reward scaler."""

    def __init__(self, gamma: float, n_envs: int, clip: float):
        self.gamma = gamma
        self.clip = clip
        self.ret = np.zeros(n_envs)
        self.mean = 0.0
        self.var = 1.0
        self.count = 1e-4

    def normalize(self, reward: float, env: int, done: bool) -> float:
        ret = self.gamma * float(self.ret[env]) + reward
        delta = ret - self.mean
        tot = self.count + 1.0
        self.mean += delta / tot
        self.var = (self.var * self.count + delta * delta * self.count / tot) / tot
        self.count = tot
        self.ret[env] = 0.0 if done else ret
        return min(max(reward / math.sqrt(self.var + 1e-8), -self.clip), self.clip)


class RolloutCollector:
    """Drives one `sampled_steps` rollout of `n_envs` lockstep streams: an
    episode cut by the end of one batch carries on in the next. The batch is
    laid out env-major, each stream's `n_steps` steps in a row."""

    def __init__(self, net: PolicyNet, traces: list[ThroughputTrace], spec: VideoSpec,
                 w: QoEWeights, ppo: PpoConfig, fc: FeatureConfig,
                 rng: np.random.Generator, history_len: int = 8):
        self.net, self.spec, self.fc = net, spec, fc
        self.n_steps, self.n_envs = ppo.n_steps, ppo.n_envs
        self._rounds = sampled_steps(net, traces, spec, w, fc, rng, history_len, ppo.n_envs)

    def collect(self) -> RolloutBatch:
        n_steps = self.n_steps
        steps = [step for stream in zip(*islice(self._rounds, n_steps)) for step in stream]
        bootstraps = np.zeros(self.n_envs)
        for e, last in enumerate(steps[n_steps - 1 :: n_steps]):
            if last.log is None:  # the stream's episode goes on: value its next state
                bootstraps[e] = forward(self.net, featurize([last.next_state], self.spec, self.fc))[1][0]
        return RolloutBatch(
            features=np.array([s.features for s in steps]),
            actions=np.array([s.action for s in steps], dtype=int),
            logprobs=np.log(np.maximum([s.probs[s.action] for s in steps], PROB_FLOOR)),
            rewards=np.array([0.0 if s.outcome is None else s.outcome.qoe for s in steps]),
            values=np.array([s.value for s in steps]),
            dones=np.array([s.log is not None for s in steps]),
            env_slices=[(lo, lo + n_steps) for lo in range(0, len(steps), n_steps)],
            bootstrap_values=bootstraps,
            episodes=[EpisodeInfo(i, s.log.session_rebuffer_s, s.log.session_qoe,
                                  len(s.log.outcomes) + int(s.log.truncated),  # + a truncating step
                                  s.log.truncated) for i, s in enumerate(steps) if s.log is not None],
        )


def finetune(
    net: PolicyNet, traces: list[ThroughputTrace], spec: VideoSpec, w: QoEWeights,
    ppo: PpoConfig = PpoConfig(), cvar: CvarConfig = CvarConfig(),
    fc: FeatureConfig = FeatureConfig(), seed: int = 0, history_len: int = 8,
) -> tuple[PolicyNet, list[dict]]:
    """Risk-shaped fine-tuning loop; returns the tuned net and per-update rows.

    Per update: collect n_steps * n_envs transitions, fold finished episodes'
    rebuffer totals into the rolling window (on the first batch the window IS
    the batch), shape terminal rewards, normalize by the running return std,
    estimate advantages, and run the clipped update. Deterministic per seed.
    """
    if not traces:
        raise ValueError("no training traces")
    rng = np.random.default_rng([seed, 202])
    opt = Adam(net.size, lr=ppo.learning_rate, max_grad_norm=ppo.max_grad_norm)
    collector = RolloutCollector(net, traces, spec, w, ppo, fc, rng, history_len)
    scaler = _RunningReturnStd(ppo.gamma, ppo.n_envs, ppo.reward_clip)
    rolling: deque = deque(maxlen=cvar.window)
    curve: list[dict] = []
    steps_done = 0
    update = 0
    while steps_done < ppo.total_steps:
        batch = collector.collect()
        steps_done += batch.size
        update += 1
        for ep in batch.episodes:
            rolling.append(ep.rebuffer_s)
        shaped = shape_terminal_rewards(batch, cvar, list(rolling))
        raw_rewards = batch.rewards
        norm = np.empty_like(shaped.rewards)
        rewards, dones = shaped.rewards.tolist(), shaped.dones.tolist()
        for e, (lo, hi) in enumerate(shaped.env_slices):
            for t in range(lo, hi):
                norm[t] = scaler.normalize(rewards[t], e, dones[t])
        shaped = replace(shaped, rewards=norm)
        shaped = gae_advantages(shaped, ppo.gamma, ppo.gae_lambda)
        stats = ppo_update(net, shaped, ppo, opt, rng, update)
        ep_rebufs = [ep.rebuffer_s for ep in batch.episodes]
        xi, batch_cvar = empirical_cvar(list(rolling), cvar.alpha) if rolling else (0.0, 0.0)
        curve.append({
            "update": update,
            "steps": steps_done,
            "episodes": len(batch.episodes),
            "mean_episode_qoe": float(np.mean([ep.qoe for ep in batch.episodes])) if batch.episodes else 0.0,
            "mean_episode_rebuffer_s": float(np.mean(ep_rebufs)) if ep_rebufs else 0.0,
            "xi": xi,
            "window_cvar": batch_cvar,
            "shaped_episodes": int(sum(ep.rebuffer_s - cvar.budget_s - xi > 0 for ep in batch.episodes))
            if cvar.penalty_weight else 0,
            "mean_raw_reward": float(raw_rewards.mean()),
            **{f"ppo_{k}": v for k, v in stats.items()},
        })
    return net, curve
