"""Rule-based and planning decision functions.

Every policy here is a pure function of its arguments: same state (plus
trace/spec for the planners), same rung. The two planners share one exact
enumerator of all ladder^horizon plans (7776 at the default 6-rung ladder,
horizon 5), vectorized level by level, and differ only in how they time a
download.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sim import PlayerState, QoEWeights, VideoSpec
from .traces import ThroughputTrace


def rate_rule_decide(state: PlayerState) -> int:
    """Highest rung whose bitrate does not exceed the mean measured throughput."""
    hist = state.throughput_history[state.throughput_history > 0.0]
    if hist.size == 0:
        return 0
    rates = np.asarray(state.ladder_kbps, dtype=np.float64) * 1000.0
    idx = int(np.searchsorted(rates, float(hist.mean()), side="right")) - 1
    return max(idx, 0)


@dataclass(frozen=True)
class BolaConfig:
    gamma_p: float = 1.0
    control_v: float | None = None  # None -> buffer_max / (ln(top/bottom) + gamma_p)


def bola_decide(state: PlayerState, cfg: BolaConfig = BolaConfig()) -> int:
    """Buffer-occupancy control: argmax of (V*(utility + gamma_p) - buffer) / size.

    Utility is the log size ratio against the lowest rung (size-proportional
    bitrates make this the log bitrate ratio; per-chunk jitter cancels). The
    default V puts the top rung's zero crossing exactly at the buffer cap, so
    an empty buffer requests the bottom and a full buffer the top. Ties go to
    the lower rung.
    """
    sizes = state.next_chunk_sizes
    util = np.log(sizes / sizes[0])
    v = cfg.control_v
    if v is None:
        v = state.buffer_max_s / (util[-1] + cfg.gamma_p)
    objective = (v * (util + cfg.gamma_p) - state.buffer_s) / sizes
    return int(np.argmax(objective))


@dataclass(frozen=True)
class MpcConfig:
    horizon: int = 5
    history_len: int = 5
    robust: bool = True


def _harmonic_mean(values: np.ndarray) -> float:
    return values.size / float(np.sum(1.0 / values))


def _robust_discount(hist: np.ndarray, history_len: int) -> float:
    # Reconstruct the trailing one-step-ahead prediction errors: the forecast
    # at position j is the harmonic mean of up to history_len samples before
    # it; only overestimates (realized under the prediction) count.
    errors = []
    for j in range(1, hist.size):
        pred = _harmonic_mean(hist[max(0, j - history_len) : j])
        errors.append(max(0.0, (pred - hist[j]) / hist[j]))
    tail = errors[-history_len:]
    return 1.0 + (max(tail) if tail else 0.0)


def throughput_estimate(state: PlayerState, cfg: MpcConfig) -> float:
    """Harmonic-mean throughput forecast, discounted by the worst recent
    relative underprediction when cfg.robust. Returns 0 with no history."""
    hist = state.throughput_history[state.throughput_history > 0.0]
    if hist.size == 0:
        return 0.0
    est = _harmonic_mean(hist[-cfg.history_len :])
    if cfg.robust:
        est /= _robust_discount(hist, cfg.history_len)
    return est


def _best_first_rung(download_time, state: PlayerState, w: QoEWeights, horizon: int) -> int:
    """First rung of the best-QoE ladder^horizon plan from `state`. Called once
    per level h, in order, `download_time(h, rung)` gives the seconds of step h
    for the partial plans whose last rungs are `rung`."""
    rates = np.asarray(state.ladder_kbps, dtype=np.float64)
    num_rungs = rates.size
    b = np.array([state.buffer_s])
    q = np.zeros(1)
    prev = np.array([state.prev_rung], dtype=int)
    for h in range(horizon):
        n = b.size
        b, q, prev = np.repeat(b, num_rungs), np.repeat(q, num_rungs), np.repeat(prev, num_rungs)
        rung = np.tile(np.arange(num_rungs), n)
        d = download_time(h, rung)
        rebuf = np.maximum(d - b, 0.0)
        q += rates[rung] / 1000.0 - w.rebuffer_penalty * rebuf \
            - w.smoothness_penalty * np.abs(rates[rung] - rates[prev]) / 1000.0
        b = np.minimum(state.buffer_max_s, np.maximum(b - d, 0.0) + state.chunk_duration_s)
        prev = rung
    # Leaves are in lexicographic plan order (first chunk varies slowest), so
    # argmax's first-hit tie rule lands on the lowest first rung.
    return int(np.argmax(q)) // (num_rungs ** (horizon - 1))


def robust_mpc_decide(state: PlayerState, spec: VideoSpec, w: QoEWeights, cfg: MpcConfig = MpcConfig()) -> int:
    """Model-predictive rung choice under a constant robust throughput forecast.

    Simulates every plan over the (remaining-clipped) horizon with download
    times 8*size/estimate, scores each by summed per-chunk QoE, and returns
    the first rung of the best plan; ties break toward the lower first rung.
    """
    horizon = min(cfg.horizon, state.remaining_chunks)
    est = throughput_estimate(state, cfg)
    if est <= 0.0:
        return 0
    d_mat = 8.0 * spec.sizes[state.chunk_index : state.chunk_index + horizon] / est
    return _best_first_rung(lambda h, rung: d_mat[h, rung], state, w, horizon)


def bulk_download_times(
    cum_bytes: np.ndarray, bps: np.ndarray, t0: float, starts: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Vectorized exact download times against a trace's cumulative byte curve.

    The curve is piecewise linear (one segment per 1 s sample), so each
    download is a searchsorted plus interpolation. Planning past the end of
    the trace continues at the final sample's rate.
    """
    n = bps.size
    rel = starts - t0
    k = np.floor(rel + 1e-12).astype(int)
    inside = k < n
    kc = np.minimum(np.maximum(k, 0), n - 1)
    start_bytes = np.where(
        inside,
        cum_bytes[kc] + (rel - kc) * bps[kc] / 8.0,
        cum_bytes[n] + (rel - n) * bps[-1] / 8.0,
    )
    target = start_bytes + sizes
    j = np.searchsorted(cum_bytes, target, side="right") - 1
    j = np.clip(j, 0, n - 1)
    end_inside = t0 + j + (target - cum_bytes[j]) / (bps[j] / 8.0)
    end = np.where(target > cum_bytes[n], t0 + n + (target - cum_bytes[n]) / (bps[-1] / 8.0), end_inside)
    return end - starts


def trace_cumulative_bytes(trace: ThroughputTrace) -> np.ndarray:
    """cum[i] = bytes the link delivers over the first i samples."""
    return np.concatenate([[0.0], np.cumsum(trace.throughput_bps / 8.0)])


def beam_expert_decide(
    state: PlayerState, trace: ThroughputTrace, spec: VideoSpec, w: QoEWeights, horizon: int = 5
) -> int:
    """Clairvoyant planner: exhaustive search against the true future trace.

    Offline labeling only; it reads throughput the player has not seen yet.
    All ladder^H plans are rolled forward from the current wall-clock time
    with exact per-plan download integration; ties break toward the lower
    first rung. The horizon is clipped to the remaining chunks.
    """
    horizon = min(horizon, state.remaining_chunks)
    sizes = spec.sizes[state.chunk_index : state.chunk_index + horizon]
    cum = trace_cumulative_bytes(trace)
    bps = trace.throughput_bps
    t0 = float(trace.times_s[0])
    u = np.array([state.wall_time_s])  # wall clock at the start of each partial plan's step

    def download_time(h, rung):
        nonlocal u
        u = np.repeat(u, spec.ladder.num_rungs)
        d = bulk_download_times(cum, bps, t0, u, sizes[h, rung])
        u = u + d
        return d

    return _best_first_rung(download_time, state, w, horizon)


def make_rate_rule_policy():
    return rate_rule_decide


def make_bola_policy(cfg: BolaConfig = BolaConfig()):
    return lambda state: bola_decide(state, cfg)


def make_robust_mpc_policy(spec: VideoSpec, w: QoEWeights, cfg: MpcConfig = MpcConfig()):
    return lambda state: robust_mpc_decide(state, spec, w, cfg)


def make_expert_policy(trace: ThroughputTrace, spec: VideoSpec, w: QoEWeights, horizon: int = 5):
    return lambda state: beam_expert_decide(state, trace, spec, w, horizon)
