"""Chunk-level streaming simulator replayed against throughput traces.

The model: a session downloads T chunks back to back. Downloading rung `a` of
chunk `t` moves `8 * S_t(a)` bits through the trace starting at the current
wall-clock time (1 s granularity, final second pro-rated). Playback stalls
when the download outlasts the buffer; afterwards the buffer gains one chunk
duration and is capped. Per-chunk quality is bitrate minus stall and switch
penalties. Wall-clock time advances only by download time; decisions are
instantaneous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .traces import ThroughputTrace

DEFAULT_LADDER_KBPS = (3000, 8000, 15000, 30000, 60000, 120000)


class TraceExhaustedError(RuntimeError):
    """The trace ended before the requested bytes finished downloading."""


@dataclass(frozen=True)
class BitrateLadder:
    rungs_kbps: tuple[int, ...] = DEFAULT_LADDER_KBPS

    def __post_init__(self):
        r = tuple(int(x) for x in self.rungs_kbps)
        object.__setattr__(self, "rungs_kbps", r)
        if len(r) < 2:
            raise ValueError("a bitrate ladder needs at least 2 rungs")
        if any(b <= 0 for b in r) or any(b >= c for b, c in zip(r, r[1:])):
            raise ValueError("ladder rungs must be positive and strictly ascending")

    @property
    def num_rungs(self) -> int:
        return len(self.rungs_kbps)


@dataclass(frozen=True)
class QoEWeights:
    rebuffer_penalty: float = 40.0   # quality units per stalled second
    smoothness_penalty: float = 1.0  # quality units per Mbit/s of switch

    def __post_init__(self):
        # A negative penalty would reward stalls or switches, and the expert's
        # pruning bound (zero stall is the best case) would no longer hold.
        for name in ("rebuffer_penalty", "smoothness_penalty"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class VideoSpec:
    """`sizes[t, a]`: read-only bytes of rung a of chunk t (nominal size x jitter)."""

    num_chunks: int = 48
    chunk_duration_s: float = 4.0
    ladder: BitrateLadder = field(default_factory=BitrateLadder)
    size_jitter: tuple[float, float] = (0.9, 1.1)
    jitter_seed: int = 2024
    buffer_max_s: float = 60.0
    initial_prev_rung: int = 0
    initial_buffer_s: float | None = None  # None -> one chunk duration of pre-roll

    def __post_init__(self):
        if self.num_chunks < 1:
            raise ValueError("num_chunks must be at least 1")
        if self.chunk_duration_s <= 0 or self.buffer_max_s <= 0:
            raise ValueError("chunk_duration_s and buffer_max_s must be positive")
        lo, hi = self.size_jitter
        if not (0.0 < lo <= hi):
            raise ValueError("size_jitter bounds must satisfy 0 < low <= high")
        if not (0 <= self.initial_prev_rung < self.ladder.num_rungs):
            raise ValueError("initial_prev_rung outside the ladder")
        if self.initial_buffer_s is None:
            object.__setattr__(self, "initial_buffer_s", self.chunk_duration_s)
        if self.initial_buffer_s < 0 or self.initial_buffer_s > self.buffer_max_s:
            raise ValueError("initial_buffer_s must lie in [0, buffer_max_s]")
        jit = np.random.default_rng(self.jitter_seed).uniform(lo, hi, self.num_chunks)
        nominal = np.asarray(self.ladder.rungs_kbps, dtype=np.float64) * 1000.0 * self.chunk_duration_s / 8.0
        sizes = nominal[None, :] * jit[:, None]
        sizes.setflags(write=False)
        object.__setattr__(self, "sizes", sizes)


def chunk_size(spec: VideoSpec, chunk_index: int, rung: int) -> float:
    """Bytes of rung `rung` at chunk `chunk_index`, including per-chunk jitter."""
    sizes = chunk_sizes(spec, chunk_index)
    if not (0 <= rung < spec.ladder.num_rungs):
        raise ValueError(f"rung {rung} outside the ladder")
    return float(sizes[rung])


def chunk_sizes(spec: VideoSpec, chunk_index: int) -> np.ndarray:
    """Bytes for every rung of one chunk (a writable copy)."""
    if not (0 <= chunk_index < spec.num_chunks):
        raise ValueError(f"chunk_index {chunk_index} outside [0, {spec.num_chunks})")
    return spec.sizes[chunk_index].copy()


def nominal_top_rung_bytes(spec: VideoSpec) -> float:
    """Jitter-free size of the largest rung; the feature-scaling reference."""
    return spec.ladder.rungs_kbps[-1] * 1000.0 * spec.chunk_duration_s / 8.0


def download_chunk(trace: ThroughputTrace, start_time_s: float, size_bytes: float) -> tuple[float, float]:
    """Step the trace second by second until `size_bytes` arrive.

    Returns (download_time_s, effective_throughput_bps); the final second is
    pro-rated. Raises TraceExhaustedError if the trace ends first.
    """
    if size_bytes <= 0:
        raise ValueError("size_bytes must be positive")
    samples = trace.samples  # Python floats: the same IEEE steps as numpy scalars, less overhead
    t0 = float(trace.times_s[0])
    n = len(samples)
    if start_time_s < t0 - 1e-9 or start_time_s >= t0 + n - 1e-12:
        raise TraceExhaustedError(f"start time {start_time_s:.3f}s outside trace {trace.trace_id!r}")
    u = float(start_time_s)
    remaining = float(size_bytes)
    while True:
        k = math.floor(u - t0 + 1e-12)  # an int already
        if k >= n:
            raise TraceExhaustedError(f"trace {trace.trace_id!r} exhausted mid-download")
        rate_bytes = samples[k] / 8.0
        boundary = t0 + k + 1.0
        capacity = rate_bytes * (boundary - u)
        if remaining <= capacity:
            u += remaining / rate_bytes
            break
        remaining -= capacity
        u = boundary
    d = u - float(start_time_s)
    return d, 8.0 * float(size_bytes) / d


def rebuffer_time(download_time_s: float, buffer_s: float) -> float:
    return max(download_time_s - buffer_s, 0.0)


def advance_buffer(buffer_s: float, download_time_s: float, chunk_duration_s: float, buffer_max_s: float) -> float:
    return min(buffer_max_s, max(buffer_s - download_time_s, 0.0) + chunk_duration_s)


def chunk_qoe(rate_kbps: float, prev_rate_kbps: float, rebuffer_s: float, w: QoEWeights) -> float:
    return (
        rate_kbps / 1000.0
        - w.rebuffer_penalty * rebuffer_s
        - w.smoothness_penalty * abs(rate_kbps - prev_rate_kbps) / 1000.0
    )


class PlayerState(NamedTuple):
    """Everything a decision function may look at before requesting a chunk.

    `throughput_history` holds the most recent per-chunk effective
    throughputs (bps), oldest first, zero-padded at the front to a fixed
    length. `ladder_kbps`, `chunk_duration_s` and `wall_time_s` are player
    context: the ladder the rungs index into, content seconds per chunk, and
    where the session clock currently sits on the trace.

    States, outcomes and audit decisions are immutable records (named
    tuples: a frozen dataclass pays a guarded set per field, and a replay
    builds two records per chunk). Being tuples, they are also sequences of
    their own fields, so the functions that take a batch of states refuse a
    lone one instead of reading its fields as states.
    """

    chunk_index: int
    buffer_s: float
    prev_rung: int
    throughput_history: np.ndarray
    remaining_chunks: int
    next_chunk_sizes: np.ndarray
    ladder_kbps: tuple[int, ...]
    chunk_duration_s: float
    buffer_max_s: float
    wall_time_s: float


class ChunkOutcome(NamedTuple):
    chunk_index: int
    rung: int
    raw_rung: int
    audited: bool
    fallback: bool
    size_bytes: float
    download_time_s: float
    rebuffer_s: float
    effective_throughput_bps: float
    qoe: float
    buffer_before_s: float
    buffer_after_s: float
    predicted_capacity_bps: float = float("nan")
    effective_capacity_bps: float = float("nan")


@dataclass
class SessionLog:
    trace_id: str
    outcomes: list[ChunkOutcome]
    truncated: bool = False

    @property
    def session_qoe(self) -> float:
        return float(sum(o.qoe for o in self.outcomes))

    @property
    def session_rebuffer_s(self) -> float:
        return float(sum(o.rebuffer_s for o in self.outcomes))

    @property
    def audit_interventions(self) -> int:
        return sum(1 for o in self.outcomes if o.audited)


def session_summary(log: SessionLog) -> dict:
    """The per-session record: its keys, in order, are the header of
    `reports/sessions_<method>.csv` and its values one row (`truncated` as 0/1)."""
    return {
        "trace_id": log.trace_id,
        "session_qoe": log.session_qoe,
        "rebuffer_s": log.session_rebuffer_s,
        "audit_interventions": log.audit_interventions,
        "chunks": len(log.outcomes),
        "truncated": int(log.truncated),
    }


# Policies and auditors must be pure functions of their inputs: run_sessions
# interleaves sessions, so state carried between calls would leak across them.
# A policy may also carry `batch(states) -> rungs`, which run_sessions calls
# once per round with every live session's state instead of once per state.
PolicyFn = Callable[[PlayerState], int]
# An auditor maps (state, measured past trace samples, requested rung) to a
# decision whose safe_rung, intervened, fallback and two capacity fields
# `SessionEnv.step` reads, or to None for "not audited".
AuditorFn = Callable[[PlayerState, np.ndarray, int], object]


class SessionEnv:
    """Step-level session driver; run_session and the trainers share it.

    `state` is the PlayerState last returned, the session's only record of
    where it stands. Each state owns a read-only history, and its chunk
    sizes are a read-only view of `spec.sizes`, so a state handed out never
    changes, and a policy that writes into its input fails loudly.
    """

    def __init__(self, trace: ThroughputTrace, spec: VideoSpec, w: QoEWeights, history_len: int = 8):
        if history_len < 1:
            raise ValueError("history_len must be at least 1")
        self.trace = trace
        self.spec = spec
        self.w = w
        self.history_len = history_len
        self.reset()

    def reset(self) -> PlayerState:
        spec, history = self.spec, np.zeros(self.history_len)
        history.setflags(write=False)
        self.outcomes: list[ChunkOutcome] = []
        self.truncated = False
        self.state = PlayerState(
            chunk_index=0, buffer_s=float(spec.initial_buffer_s), prev_rung=int(spec.initial_prev_rung),
            throughput_history=history, remaining_chunks=spec.num_chunks,
            next_chunk_sizes=spec.sizes[0], ladder_kbps=spec.ladder.rungs_kbps,
            chunk_duration_s=spec.chunk_duration_s, buffer_max_s=spec.buffer_max_s,
            wall_time_s=float(self.trace.times_s[0]))
        return self.state

    def measured_history_bps(self) -> np.ndarray:
        """Trace samples whose full second has elapsed before the wall clock."""
        elapsed = int(math.floor(self.state.wall_time_s - float(self.trace.times_s[0]) + 1e-12))
        return self.trace.throughput_bps[: max(elapsed, 0)]

    @property
    def done(self) -> bool:
        return self.truncated or len(self.outcomes) == self.spec.num_chunks

    def step(self, rung: int, decision: object | None = None):
        """Download one chunk: the requested `rung`, or the auditor's
        `decision.safe_rung` when a decision is given; both must lie on the
        ladder. Returns (next_state_or_None, outcome_or_None, done)."""
        if self.done:
            raise RuntimeError("step() on a finished session")
        s, spec = self.state, self.spec
        raw = int(rung)
        rung = raw if decision is None else int(decision.safe_rung)
        if not 0 <= raw < len(s.ladder_kbps):
            raise ValueError(f"policy requested rung {raw} outside the ladder")
        if not 0 <= rung < len(s.ladder_kbps):
            raise ValueError(f"auditor chose rung {rung} outside the ladder")
        size = float(s.next_chunk_sizes[rung])
        try:
            d, c = download_chunk(self.trace, s.wall_time_s, size)
        except TraceExhaustedError:
            self.truncated = True
            return None, None, True
        rebuf = rebuffer_time(d, s.buffer_s)
        q = chunk_qoe(s.ladder_kbps[rung], s.ladder_kbps[s.prev_rung], rebuf, self.w)
        buf_after = advance_buffer(s.buffer_s, d, s.chunk_duration_s, s.buffer_max_s)
        # Records built positionally, in field order: cheaper than by keyword.
        if decision is None:
            outcome = ChunkOutcome(s.chunk_index, rung, raw, False, False, size, d, rebuf, c, q,
                                   s.buffer_s, buf_after)
        else:
            outcome = ChunkOutcome(s.chunk_index, rung, raw, bool(decision.intervened), bool(decision.fallback),
                                   size, d, rebuf, c, q, s.buffer_s, buf_after,
                                   float(decision.predicted_capacity_bps), float(decision.effective_capacity_bps))
        self.outcomes.append(outcome)
        t = s.chunk_index + 1
        if t == spec.num_chunks:
            return None, outcome, True
        history = s.throughput_history.copy()
        history[:-1] = history[1:]
        history[-1] = c
        history.setflags(write=False)
        self.state = PlayerState(t, buf_after, rung, history, s.remaining_chunks - 1, spec.sizes[t],
                                 s.ladder_kbps, s.chunk_duration_s, s.buffer_max_s, s.wall_time_s + d)
        return self.state, outcome, False

    def finish(self) -> SessionLog:
        return SessionLog(self.trace.trace_id, list(self.outcomes), self.truncated)


def run_sessions(traces: Sequence[ThroughputTrace], spec: VideoSpec, w: QoEWeights, policy: PolicyFn,
                 auditors: Sequence[AuditorFn] | None = None, history_len: int = 8) -> list[SessionLog]:
    """Replay one session of `spec` per trace under `policy`, all in lockstep.

    Each round decides the next chunk of every live session, in one call to
    `policy.batch` when the policy has it. With auditors (one per trace),
    each requested rung passes through its session's auditor and the
    (possibly projected) safe rung is executed; the log records both. A
    trace that ends early truncates its session, which leaves the live set.
    Logs come back in trace order.
    """
    envs = [SessionEnv(trace, spec, w, history_len=history_len) for trace in traces]
    decide = getattr(policy, "batch", None) or (lambda batch: [policy(s) for s in batch])
    live = list(range(len(envs)))
    while live:
        still = []
        for i, raw in zip(live, decide([envs[i].state for i in live])):
            raw, env = int(raw), envs[i]
            if not env.step(raw, auditors[i](env.state, env.measured_history_bps(), raw) if auditors else None)[2]:
                still.append(i)
        live = still
    return [env.finish() for env in envs]


def run_session(trace: ThroughputTrace, spec: VideoSpec, w: QoEWeights, policy: PolicyFn,
                auditor: AuditorFn | None = None, history_len: int = 8) -> SessionLog:
    """Replay one full session of `spec` against `trace`: a batch of one."""
    return run_sessions([trace], spec, w, policy, None if auditor is None else [auditor], history_len)[0]
