"""Rule-based and planning decision functions.

Every policy here is a pure function of its arguments: same state (plus
trace/spec for the planners), same rung. The two planners score plans with
one per-chunk QoE and buffer recurrence on arrays (`_plan_step`). Robust MPC
times every ladder^horizon plan (7776 at the default 6-rung ladder, horizon
5) with a constant forecast, one broadcast array per level whose axis h is
the rung of chunk h. The clairvoyant expert times downloads against
the true trace and does not time every plan: it labels a batch of states in
one exact branch-and-bound search, level by level, which returns the labels
that full enumeration would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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

    def __post_init__(self):
        # horizon 0 plans nothing; a 0-sample window has no harmonic mean
        for name in ("horizon", "history_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


def _harmonic_mean(values: np.ndarray) -> float:
    return values.size / float(np.sum(1.0 / values))


def _robust_discount(hist: np.ndarray, history_len: int) -> float:
    # Reconstruct the trailing one-step-ahead prediction errors: the forecast
    # at position j is the harmonic mean of up to history_len samples before
    # it; only overestimates (realized under the prediction) count, and only
    # the last history_len positions do. The reciprocals are taken once; each
    # forecast sums a slice of them, as `_harmonic_mean` would.
    inv = 1.0 / hist
    worst = 0.0
    for j in range(max(1, hist.size - history_len), hist.size):
        lo = max(0, j - history_len)
        pred = (j - lo) / float(np.sum(inv[lo:j]))
        worst = max(worst, (pred - hist[j]) / hist[j])
    return 1.0 + worst


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


def _plan_step(q, b, prev, rung, d, rates, w: QoEWeights, chunk_duration_s: float, buffer_max_s: float):
    """One chunk of every partial plan, on arrays: the plans' QoE and buffer
    after downloading `rung` (after `prev`) in `d` seconds. `rates` is in
    kbps; the other arrays broadcast against each other. Both planners score
    plans with it, so they score them alike."""
    rate = rates[rung]
    rebuf = np.maximum(d - b, 0.0)
    q = q + (rate / 1000.0 - w.rebuffer_penalty * rebuf
             - w.smoothness_penalty * np.abs(rate - rates[prev]) / 1000.0)
    b = np.minimum(buffer_max_s, np.maximum(b - d, 0.0) + chunk_duration_s)
    return q, b


def robust_mpc_decide(state: PlayerState, spec: VideoSpec, w: QoEWeights, cfg: MpcConfig = MpcConfig()) -> int:
    """Model-predictive rung choice under a constant robust throughput forecast.

    Simulates every plan over the (remaining-clipped) horizon with download
    times 8*size/estimate, scores each by summed per-chunk QoE, and returns
    the first rung of the best plan; ties break toward the lower first rung.
    The plans are one array per level, built by broadcasting: axis h of `q`
    and `b` is the rung of chunk h, so no plan's rungs are stored or gathered.
    """
    horizon = min(cfg.horizon, state.remaining_chunks)
    est = throughput_estimate(state, cfg)
    if est <= 0.0:
        return 0
    d_mat = 8.0 * spec.sizes[state.chunk_index : state.chunk_index + horizon] / est
    rates = np.asarray(state.ladder_kbps, dtype=np.float64)
    rung = np.arange(rates.size)
    q, b, prev = np.zeros(()), np.asarray(state.buffer_s, dtype=np.float64), state.prev_rung
    for h in range(horizon):  # every ladder^horizon plan, level by level
        q, b = _plan_step(q[..., None], b[..., None], prev, rung, d_mat[h], rates, w,
                          state.chunk_duration_s, state.buffer_max_s)
        prev = rung[:, None]  # chunk h's rung, on the second-to-last axis of the next level
    # Flattened in C order the first chunk varies slowest, so argmax's
    # first-hit tie rule lands on the lowest first rung.
    return int(np.argmax(q)) // (rates.size ** (horizon - 1))


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


class _Plans(NamedTuple):
    """Partial plans of the expert's search, one entry per node."""

    buffer: np.ndarray
    qoe: np.ndarray
    prev: np.ndarray   # last rung
    clock: np.ndarray  # wall clock at which the next download starts
    first: np.ndarray  # first rung
    sid: np.ndarray    # index of the state the plan starts from

    def take(self, idx) -> _Plans:
        return _Plans(*(x[idx] for x in self))


def _stall_free_qoe(rates: np.ndarray, w: QoEWeights) -> np.ndarray:
    """qoe[p, a]: the QoE of a chunk of rung a after rung p that does not
    stall. A stall only subtracts (the penalties are non-negative), so no
    chunk scores above it."""
    n = rates.size
    prev, rung = np.divmod(np.arange(n * n), n)
    zero = np.zeros(n * n)
    qoe, _ = _plan_step(zero, zero, prev, rung, zero, rates, w, 0.0, 0.0)
    return qoe.reshape(n, n)


def beam_expert_labels(
    states: list[PlayerState], trace: ThroughputTrace, spec: VideoSpec, w: QoEWeights, horizon: int = 5
) -> list[int]:
    """Clairvoyant labels of states on one trace, from one batched plan search.

    Offline labeling only; it reads throughput the player has not seen yet.
    Each label is the first rung of the state's best-QoE plan, rolled forward
    from its wall clock with exact download integration against the true
    trace; the horizon is clipped to the remaining chunks and ties break
    toward the lower first rung. The ladder, chunk duration and buffer cap
    are the spec's.

    The search is an exact branch-and-bound (Land and Doig, 1960). A beam
    search gives each state an incumbent, the score of one real plan. A
    partial plan is dropped only when even a stall-free continuation
    (`_stall_free_qoe`) falls short of it, so the plans dropped hold no
    best plan, and the labels equal those of scoring all ladder^horizon
    plans. The beam and the search are one level-by-level descent; they
    differ only in which children a level keeps.
    """
    rates = np.asarray(spec.ladder.rungs_kbps, dtype=np.float64)
    num_rungs = rates.size
    cum = trace_cumulative_bytes(trace)
    bps, t0 = trace.throughput_bps, float(trace.times_s[0])
    horizons = np.array([min(horizon, s.remaining_chunks) for s in states], dtype=int)
    chunk = np.array([s.chunk_index for s in states], dtype=int)
    roots = _Plans(np.array([s.buffer_s for s in states], dtype=np.float64), np.zeros(len(states)),
                   np.array([s.prev_rung for s in states], dtype=int),
                   np.array([s.wall_time_s for s in states], dtype=np.float64),
                   np.zeros(len(states), dtype=int), np.arange(len(states)))
    # bound[k, p]: the most QoE that k more chunks can add after rung p.
    stall_free = _stall_free_qoe(rates, w)
    bound = np.zeros((int(horizons.max(initial=0)) + 1, num_rungs))
    for k in range(1, bound.shape[0]):
        bound[k] = np.max(stall_free + bound[k - 1], axis=1)
    # A plan is pruned when q + bound[k] < incumbent - slack. Each of its
    # leaves scores at most q plus the k stall-free chunk QoEs of its rungs,
    # summed first chunk first; bound[k] sums them last chunk first. In
    # floating point the two orders differ by at most about
    # 2(k+1) * 2^-53 * (|q| + k * max|stall_free|), and a plan near the
    # incumbent has |q| <= |incumbent| + 2k * max|stall_free| + 1. The slack
    # 1e-9 * (|incumbent| + 1 + (k+1) * max|stall_free|) exceeds that gap
    # more than 10^5-fold, so a pruned plan cannot even tie the best one.
    scale = 1.0 + bound.shape[0] * np.abs(stall_free).max()

    def expand(plans: _Plans, depth: int) -> _Plans:
        """Every child of `plans`: parents in order, each parent's rungs ascending."""
        parent = np.repeat(np.arange(plans.sid.size), num_rungs)
        rung = np.tile(np.arange(num_rungs), plans.sid.size)
        p = plans.take(parent)
        d = bulk_download_times(cum, bps, t0, p.clock, spec.sizes[chunk[p.sid] + depth, rung])
        q, b = _plan_step(p.qoe, p.buffer, p.prev, rung, d, rates, w, spec.chunk_duration_s, spec.buffer_max_s)
        return _Plans(b, q, rung, p.clock + d, rung if depth == 0 else p.first, p.sid)

    def descend(plans: _Plans, h: int, beam: bool) -> _Plans:
        """Expand `plans`, one per state, level by level to depth h. A child's
        score is its QoE plus the bound of its remaining chunks; each level
        keeps each state's `num_rungs` best-scored children (beam), or every
        child whose score reaches its state's floor."""
        n = plans.sid.size
        for depth in range(h):
            kids = expand(plans, depth)
            score = kids.qoe + bound[h - depth - 1][kids.prev]
            if beam:
                top = np.argsort(-score.reshape(n, -1), axis=1)[:, :num_rungs]
                plans = kids.take((np.arange(n)[:, None] * (score.size // n) + top).ravel())
            else:
                plans = kids.take(score >= floor[kids.sid])
        return plans

    labels = np.zeros(len(states), dtype=int)
    floor = np.full(len(states), -np.inf)
    for h in sorted(set(horizons.tolist()) - {0}):
        group = roots.take(np.flatnonzero(horizons == h))
        # Incumbents: a beam search as wide as the ladder, ranked by the bound.
        # Its leaves are scored like the search's, so each is a real plan's.
        incumbent = descend(group, h, beam=True).qoe.reshape(group.sid.size, -1).max(axis=1)
        floor[group.sid] = incumbent - 1e-9 * (np.abs(incumbent) + scale)
        # The floors are fixed before the search, so whether a node survives
        # does not depend on when it is expanded: a whole level at a time.
        leaves = descend(group, h, beam=False)
        # Each state's best leaf, the lowest first rung on a tie.
        order = np.lexsort((leaves.first, -leaves.qoe, leaves.sid))
        head = order[np.diff(leaves.sid[order], prepend=-1) != 0]
        labels[leaves.sid[head]] = leaves.first[head]
    return labels.tolist()


def beam_expert_decide(
    state: PlayerState, trace: ThroughputTrace, spec: VideoSpec, w: QoEWeights, horizon: int = 5
) -> int:
    """Clairvoyant label of one state: `beam_expert_labels` of a batch of one.

    The first rung of the best-QoE plan against the true future trace, found
    by exact branch-and-bound, not by timing every ladder^horizon plan.
    """
    return beam_expert_labels([state], trace, spec, w, horizon)[0]


def make_rate_rule_policy():
    return rate_rule_decide


def make_bola_policy(cfg: BolaConfig = BolaConfig()):
    return lambda state: bola_decide(state, cfg)


def make_robust_mpc_policy(spec: VideoSpec, w: QoEWeights, cfg: MpcConfig = MpcConfig()):
    return lambda state: robust_mpc_decide(state, spec, w, cfg)


def make_expert_policy(trace: ThroughputTrace, spec: VideoSpec, w: QoEWeights, horizon: int = 5):
    return lambda state: beam_expert_decide(state, trace, spec, w, horizon)
