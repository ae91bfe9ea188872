"""Numpy policy/value network with hand-written gradients.

Architecture: two tanh hidden layers shared by a softmax action head and a
scalar value head. Parameters live in one flat float64 vector; layers are
views into it, which keeps the optimizer and checkpoint format trivial.
No autodiff anywhere; `backward` is the analytic chain rule and is verified
against central finite differences in the tests. `sampled_steps` is the one
on-policy rollout: PPO steps its streams through it in lockstep, and DAgger
takes it with one stream.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .sim import (ChunkOutcome, PlayerState, QoEWeights, SessionEnv, SessionLog, VideoSpec,
                  nominal_top_rung_bytes)
from .traces import ThroughputTrace

CHECKPOINT_FORMAT = "abrlab-policy"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class FeatureConfig:
    """Feature scaling; the history length is that of the state's own history."""

    throughput_scale_bps: float = 200e6  # generous link-rate reference

    def __post_init__(self):
        # featurize divides throughput by it: 0 fills the columns with inf or nan, inf with 0
        if not (math.isfinite(self.throughput_scale_bps) and self.throughput_scale_bps > 0.0):
            raise ValueError(f"throughput_scale_bps must be finite and positive, got {self.throughput_scale_bps}")


def feature_dim(history_len: int, num_rungs: int) -> int:
    return history_len + num_rungs + 3


def featurize(states: Sequence[PlayerState], spec: VideoSpec, fc: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """(n, d) observation matrix, one row per state, scaled to roughly [0, 1].

    Layout: [buffer fill, previous rung rate / top rate,
             the state's whole throughput history (oldest first) / scale,
             remaining-chunk fraction, per-rung next chunk sizes / top size].
    Each row is filled with the raw values, then divided by `_feature_scale`.
    """
    if isinstance(states, PlayerState):
        raise TypeError("featurize takes a sequence of states; wrap a lone state in a list")
    k, ladder = len(states[0].throughput_history), states[0].ladder_kbps
    out = np.empty((len(states), feature_dim(k, len(ladder))))
    for row, s in zip(out, states):
        row[0] = s.buffer_s
        row[1] = ladder[s.prev_rung]
        row[2 : 2 + k] = s.throughput_history
        row[2 + k] = s.remaining_chunks
        row[3 + k :] = s.next_chunk_sizes
    out /= _feature_scale(spec, fc, k, ladder)
    return out


@functools.lru_cache(maxsize=None)
def _feature_scale(spec: VideoSpec, fc: FeatureConfig, k: int, ladder: tuple[int, ...]) -> np.ndarray:
    """The divisor of each feature column: buffer cap, top rate, throughput
    scale, chunk count, top nominal chunk size."""
    scale = np.array([spec.buffer_max_s, ladder[-1], *(fc.throughput_scale_bps,) * k, spec.num_chunks,
                      *(nominal_top_rung_bytes(spec),) * len(ladder)], dtype=np.float64)
    scale.setflags(write=False)
    return scale


@dataclass(frozen=True)
class NetConfig:
    input_dim: int
    num_actions: int
    hidden: tuple[int, int] = (64, 64)


@functools.lru_cache(maxsize=None)
def _layout(cfg: NetConfig) -> tuple[tuple[str, tuple[int, ...], slice], ...]:
    """(name, shape, slice of the flat vector) of each layer, worked out once
    per config; `backward` lays its gradient out in this order."""
    d, (h1, h2), a = cfg.input_dim, cfg.hidden, cfg.num_actions
    layout, offset = [], 0
    for name, shape in [
        ("w1", (d, h1)), ("b1", (h1,)),
        ("w2", (h1, h2)), ("b2", (h2,)),
        ("wp", (h2, a)), ("bp", (a,)),
        ("wv", (h2,)), ("bv", (1,)),
    ]:
        n = math.prod(shape)
        layout.append((name, shape, slice(offset, offset + n)))
        offset += n
    return tuple(layout)


class PolicyNet:
    """Flat-parameter MLP; `self.params` is the single source of truth."""

    def __init__(self, cfg: NetConfig, params: np.ndarray | None = None):
        self.cfg = cfg
        self.layout = _layout(cfg)
        self.size = self.layout[-1][2].stop
        if params is None:
            params = np.zeros(self.size)
        params = np.ascontiguousarray(params, dtype=np.float64)
        if params.shape != (self.size,):
            raise ValueError(f"expected {self.size} parameters, got {params.shape}")
        self.params = params
        self._views = {name: params[flat].reshape(shape) for name, shape, flat in self.layout}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def copy(self) -> "PolicyNet":
        return PolicyNet(self.cfg, self.params.copy())


def init_policy_net(cfg: NetConfig, seed: int) -> PolicyNet:
    """Seeded init: 1/sqrt(fan-in) hidden layers, a near-uniform action head."""
    rng = np.random.default_rng(seed)
    net = PolicyNet(cfg)
    d, (h1, h2) = cfg.input_dim, cfg.hidden
    net["w1"][:] = rng.normal(0.0, 1.0 / np.sqrt(d), net["w1"].shape)
    net["w2"][:] = rng.normal(0.0, 1.0 / np.sqrt(h1), net["w2"].shape)
    net["wp"][:] = rng.normal(0.0, 0.01 / np.sqrt(h2), net["wp"].shape)
    net["wv"][:] = rng.normal(0.0, 1.0 / np.sqrt(h2), net["wv"].shape)
    return net


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def forward(net: PolicyNet, x: np.ndarray, with_cache: bool = False):
    """(action probabilities (n, A), values (n,)) of an (n, d) feature matrix;
    with `with_cache`, also the activations that `backward` reads."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"forward takes an (n, d) feature matrix, got shape {x.shape}")
    layer = net._views
    # each bias and tanh acts in place on its fresh matmul output
    h1 = x @ layer["w1"]
    h1 += layer["b1"]
    np.tanh(h1, out=h1)
    h2 = h1 @ layer["w2"]
    h2 += layer["b2"]
    np.tanh(h2, out=h2)
    logits = h2 @ layer["wp"]
    logits += layer["bp"]
    values = h2 @ layer["wv"]
    values += layer["bv"][0]
    probs = softmax(logits)
    if with_cache:
        return probs, values, (x, h1, h2, logits)
    return probs, values


def backward(net: PolicyNet, cache, dlogits: np.ndarray, dvalue: np.ndarray) -> np.ndarray:
    """Flat parameter gradient of sum_i (dlogits_i . logits_i + dvalue_i * value_i).

    `cache` is what `forward(..., with_cache=True)` returned for the batch.
    Callers express any scalar loss through its per-sample gradients at the
    two heads, (n, A) and (n,); the returned vector is the sum over the batch
    (divide upstream by n for a mean), one concatenation of the layer
    gradients in `_layout` order.
    """
    x, h1, h2, _ = cache
    layer = net._views
    dz2 = dlogits @ layer["wp"].T  # dh2, then dz2 in place
    dz2 += dvalue[:, None] * layer["wv"]
    dz2 *= 1.0 - h2 * h2
    dz1 = dz2 @ layer["w2"].T
    dz1 *= 1.0 - h1 * h1
    grad = {"w1": x.T @ dz1, "b1": dz1.sum(axis=0), "w2": h1.T @ dz2, "b2": dz2.sum(axis=0),
            "wp": h2.T @ dlogits, "bp": dlogits.sum(axis=0), "wv": h2.T @ dvalue,
            "bv": dvalue.sum(keepdims=True)}
    return np.concatenate([grad[name].ravel() for name, _, _ in net.layout])


def sample_action(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draw of one action per row of an (n, A) matrix, from a
    single `rng.random(n)`; deterministic given the generator state. A row's
    action is the count of its cumulative probabilities at or below u,
    clamped to A - 1 (a row may sum to just below u). The sums never
    decrease, so counting among the first A - 1 of them is that clamp."""
    u = rng.random(len(probs))
    return (probs.cumsum(axis=1)[:, :-1] <= u[:, None]).sum(axis=1)


class SampledStep(NamedTuple):
    """One step of a session under a sampling policy."""

    trace: ThroughputTrace
    state: PlayerState
    features: np.ndarray          # state's row of featurize
    probs: np.ndarray             # the policy's action probabilities at state
    value: float
    action: int
    next_state: PlayerState | None
    outcome: ChunkOutcome | None  # None: the trace ran out mid-download
    log: SessionLog | None        # the session's log at its last step, else None


def sampled_steps(net: PolicyNet, traces: Sequence[ThroughputTrace], spec: VideoSpec, w: QoEWeights,
                  fc: FeatureConfig, rng: np.random.Generator, history_len: int,
                  n_streams: int = 1) -> Iterator[list[SampledStep]]:
    """Endless on-policy rounds over `n_streams` sessions stepped in lockstep.

    A round refills, in stream order, each stream whose session ended with a
    trace drawn from `rng`; featurizes every stream's state into one matrix
    for one `forward`; draws one uniform per stream (`sample_action`); steps
    each session; and yields the streams' steps as a list. Lazy: `rng` is
    drawn from only as rounds are pulled, and each round reads `net` as it is
    then. One stream is the session-by-session rollout, draw for draw.
    """
    envs: list[SessionEnv | None] = [None] * n_streams
    while True:
        for i, env in enumerate(envs):
            if env is None:
                envs[i] = SessionEnv(traces[int(rng.integers(len(traces)))], spec, w, history_len=history_len)
        states = [env.state for env in envs]
        x = featurize(states, spec, fc)
        probs, values = forward(net, x)
        actions = sample_action(probs, rng).tolist()
        steps = []
        for i, (env, state, action) in enumerate(zip(envs, states, actions)):
            next_state, outcome, done = env.step(action)
            steps.append(SampledStep(env.trace, state, x[i], probs[i], float(values[i]), action,
                                     next_state, outcome, env.finish() if done else None))
            if done:
                envs[i] = None
        yield steps


class Adam:
    """Adam with bias correction and optional global-gradient-norm clipping.

    `step` updates the moments and the parameters in place, through two
    work vectors allocated once."""

    def __init__(self, size: int, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, max_grad_norm: float | None = 0.5):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.max_grad_norm = max_grad_norm
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._step = np.empty(size)
        self._denom = np.empty(size)

    def clip(self, grad: np.ndarray) -> np.ndarray:
        if self.max_grad_norm is None:
            return grad
        norm = math.sqrt(grad.dot(grad))  # np.linalg.norm of a vector, without its wrapper
        if norm > self.max_grad_norm and norm > 0.0:
            return grad * (self.max_grad_norm / norm)
        return grad

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; and
        params -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps),
        each product and quotient formed as written."""
        g = self.clip(grad)
        self.t += 1
        m, v, s, d = self.m, self.v, self._step, self._denom
        m *= self.beta1
        np.multiply(1.0 - self.beta1, g, out=s)
        m += s
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=s)
        s *= g
        v += s
        np.divide(v, 1.0 - self.beta2 ** self.t, out=d)
        np.sqrt(d, out=d)
        d += self.eps
        np.divide(m, 1.0 - self.beta1 ** self.t, out=s)
        s *= self.lr
        s /= d
        params -= s


def save_checkpoint(path: str | Path, net: PolicyNet, metadata: dict | None = None) -> None:
    """One JSON manifest line, then the raw little-endian float64 parameters.

    Deliberately not an archive format: identical inputs produce identical
    bytes, so checkpoint hashes are reproducible. A NaN or inf parameter is
    refused before anything is written, and `load_checkpoint` refuses it too.
    """
    bad = int(np.count_nonzero(~np.isfinite(net.params)))
    if bad:
        raise ValueError(f"{path}: refusing to save a checkpoint with {bad} non-finite parameters")
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dtype": "<f8",
        "net": {"input_dim": net.cfg.input_dim, "num_actions": net.cfg.num_actions,
                "hidden": list(net.cfg.hidden)},
        "layout": [[name, list(shape)] for name, shape, _ in net.layout],
        "meta": metadata or {},
    }
    header = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(header + b"\n")
        fh.write(net.params.astype("<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[PolicyNet, dict]:
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        manifest = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a policy checkpoint (bad manifest line)") from exc
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: unknown checkpoint format {manifest.get('format')!r}")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {manifest.get('version')!r}")
    cfg = NetConfig(
        input_dim=int(manifest["net"]["input_dim"]),
        num_actions=int(manifest["net"]["num_actions"]),
        hidden=tuple(int(h) for h in manifest["net"]["hidden"]),
    )
    params = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    bad = int(np.count_nonzero(~np.isfinite(params)))
    if bad:
        raise ValueError(f"{path}: refusing to load a checkpoint with {bad} non-finite parameters")
    net = PolicyNet(cfg, params)
    return net, manifest.get("meta", {})


def make_greedy_policy(net: PolicyNet, spec: VideoSpec, fc: FeatureConfig = FeatureConfig()):
    """Most probable rung per state; `decide.batch` decides many states in one forward."""
    def batch(states: Sequence[PlayerState]) -> np.ndarray:
        probs, _ = forward(net, featurize(states, spec, fc))
        return np.argmax(probs, axis=1)  # ties go to the lower rung

    def decide(state: PlayerState) -> int:
        return int(batch([state])[0])

    decide.batch = batch
    return decide
