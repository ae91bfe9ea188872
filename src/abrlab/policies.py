"""Rule-based and planning decision functions.

Every policy here is a pure function of its arguments: same state (plus
trace/spec for the planners), same rung. The two planners share one plan
search (`_plan_labels`): an exact branch-and-bound over a batch of states,
level by level, that returns the labels scoring every ladder^horizon plan
would, and scores plans with one per-chunk QoE and buffer recurrence on
arrays (`_plan_step`). They differ only in how long a download takes:
robust MPC divides each chunk's bits by a constant robust forecast, and the
clairvoyant expert integrates downloads against the true trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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


def _harmonic_mean(values: np.ndarray) -> np.ndarray:
    """Harmonic mean over the last axis: one per row of a matrix."""
    return values.shape[-1] / np.sum(1.0 / values, axis=-1)


def _estimate_rows(hist: np.ndarray, cfg: MpcConfig) -> np.ndarray:
    """The forecast of each row of `hist`, (k, m) positive samples,
    oldest first. The robust discount reconstructs the trailing one-step-ahead
    prediction errors: the forecast at position j is the harmonic mean of up
    to history_len samples before it; only overestimates (realized under the
    prediction) count, and only the last history_len positions do. Each sum
    runs over a fresh contiguous row block, so a row sums exactly as the same
    samples would alone."""
    est = _harmonic_mean(hist[:, -cfg.history_len :])
    if not cfg.robust:
        return est
    worst = np.zeros(hist.shape[0])
    for j in range(max(1, hist.shape[1] - cfg.history_len), hist.shape[1]):
        pred = _harmonic_mean(hist[:, max(0, j - cfg.history_len) : j])
        worst = np.maximum(worst, (pred - hist[:, j]) / hist[:, j])
    return est / (1.0 + worst)


def throughput_estimates(states: Sequence[PlayerState], cfg: MpcConfig) -> np.ndarray:
    """Harmonic-mean throughput forecast of each state, discounted by the worst
    recent relative underprediction when cfg.robust; 0 with no history. The
    states with the same number of measured samples share one row-wise pass."""
    hists = [s.throughput_history[s.throughput_history > 0.0] for s in states]
    counts = np.array([h.size for h in hists], dtype=int)
    est = np.zeros(len(hists))
    for m in set(counts.tolist()) - {0}:
        rows = np.flatnonzero(counts == m)
        est[rows] = _estimate_rows(np.stack([hists[i] for i in rows]), cfg)
    return est


def _plan_step(q, b, prev, rung, d, rates, w: QoEWeights, chunk_duration_s: float, buffer_max_s: float):
    """One chunk of every partial plan, on arrays: the plans' QoE and buffer
    after downloading `rung` (after `prev`) in `d` seconds. `rates` is in
    kbps; the other arrays broadcast against each other. The plan search and
    its stall-free bound both score chunks with it, so they score them alike."""
    rate = rates[rung]
    rebuf = np.maximum(d - b, 0.0)
    q = q + (rate / 1000.0 - w.rebuffer_penalty * rebuf
             - w.smoothness_penalty * np.abs(rate - rates[prev]) / 1000.0)
    b = np.minimum(buffer_max_s, np.maximum(b - d, 0.0) + chunk_duration_s)
    return q, b


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
    """Partial plans of the plan search, one entry per node."""

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


def _plan_labels(states: Sequence[PlayerState], spec: VideoSpec, w: QoEWeights, horizon: int,
                 download_times: Callable[[_Plans, np.ndarray], np.ndarray]) -> np.ndarray:
    """The first rung of each state's best-QoE plan, from one batched search.

    Each plan is rolled forward from its state; `download_times(plans,
    sizes)` gives the seconds that plan i's next chunk of `sizes[i]` bytes
    takes, the only part in which the two planners differ. The horizon is
    clipped to the remaining chunks and ties break toward the lower first
    rung. The ladder, chunk duration and buffer cap are the spec's.

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
        d = download_times(p, spec.sizes[chunk[p.sid] + depth, rung])
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
    return labels


def robust_mpc_labels(states: Sequence[PlayerState], spec: VideoSpec, w: QoEWeights,
                      cfg: MpcConfig = MpcConfig()) -> np.ndarray:
    """Model-predictive rung choices under a constant robust throughput forecast.

    Each state's plans download in 8*size/estimate seconds, its own
    `throughput_estimates` entry; the label is the first rung of the best plan,
    found by the expert's search (`_plan_labels`). A state with no forecast
    (no measured history) gets the lowest rung.
    """
    if isinstance(states, PlayerState):
        raise TypeError("robust_mpc_labels takes a sequence of states; wrap a lone state in a list")
    est = throughput_estimates(states, cfg)
    known = np.flatnonzero(est > 0.0)
    est = est[known]
    labels = np.zeros(len(states), dtype=int)
    labels[known] = _plan_labels([states[i] for i in known], spec, w, cfg.horizon,
                                 lambda plans, sizes: 8.0 * sizes / est[plans.sid])
    return labels


def beam_expert_labels(
    states: list[PlayerState], trace: ThroughputTrace, spec: VideoSpec, w: QoEWeights, horizon: int = 5
) -> list[int]:
    """Clairvoyant labels of states on one trace, from one batched plan search.

    Offline labeling only; it reads throughput the player has not seen yet.
    Each label is the first rung of the state's best-QoE plan (`_plan_labels`),
    rolled forward from its wall clock with exact download integration
    against the true trace.
    """
    if isinstance(states, PlayerState):
        raise TypeError("beam_expert_labels takes a sequence of states; wrap a lone state in a list")
    cum = trace_cumulative_bytes(trace)
    bps, t0 = trace.throughput_bps, float(trace.times_s[0])
    return _plan_labels(states, spec, w, horizon,
                        lambda plans, sizes: bulk_download_times(cum, bps, t0, plans.clock, sizes)).tolist()


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
    """Robust MPC per state; `decide.batch` decides many states in one search."""
    def decide(state: PlayerState) -> int:
        return int(robust_mpc_labels([state], spec, w, cfg)[0])

    decide.batch = lambda states: robust_mpc_labels(states, spec, w, cfg)
    return decide
