"""Runtime action auditor: feasibility screening of requested rungs.

Before a chunk request executes, the auditor checks whether its predicted
download time fits inside the buffer minus a guard. Requests outside the
feasible set are projected down to the largest feasible rung at or below the
request; an empty feasible set falls back to the lowest rung. The auditor
only ever moves requests down, so it can cap tail risk but never adds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sim import PlayerState, TraceExhaustedError, download_chunk
from .traces import ThroughputTrace

_EMPTY = np.zeros(0, dtype=int)


@dataclass(frozen=True)
class AuditConfig:
    guard_s: float = 0.0
    capacity_margin: float = 0.90  # multiplies predicted capacity before the check

    def __post_init__(self):
        if self.guard_s < 0:
            raise ValueError("guard_s must be non-negative")
        if not (0.0 < self.capacity_margin <= 1.0):
            raise ValueError(f"capacity_margin must lie in (0, 1], got {self.capacity_margin}")


class AuditDecision(NamedTuple):
    """One audited request: what `SessionEnv.step` copies into the chunk's `sim.ChunkOutcome`."""

    safe_rung: int
    intervened: bool
    fallback: bool
    predicted_capacity_bps: float = float("nan")


def feasible_set(state: PlayerState, sizes_bytes: np.ndarray, predicted_bps: float,
                 cfg: AuditConfig = AuditConfig()) -> np.ndarray:
    """Rungs whose predicted download time fits the buffer budget.

    A rung `a` is feasible when 8*size[a] / (margin * predicted) <=
    buffer - guard (boundary inclusive). Empty whenever buffer <= guard.
    """
    if predicted_bps <= 0.0:
        raise ValueError("predicted capacity must be positive")
    budget = state.buffer_s - cfg.guard_s
    if budget <= 0.0:
        return _EMPTY
    # Python floats, one rung at a time: the same IEEE steps as the array
    # expression 8 * sizes / capacity, without a numpy call per step.
    capacity = cfg.capacity_margin * predicted_bps
    sizes = np.asarray(sizes_bytes, dtype=np.float64).tolist()
    return np.array([a for a, size in enumerate(sizes) if 8.0 * size / capacity <= budget], dtype=int)


def audit_action(raw_rung: int, feasible: np.ndarray) -> tuple[int, bool]:
    """Project a request onto the feasible set, downward only.

    Returns (safe_rung, intervened): the largest feasible rung at or below
    the request, the lowest rung when nothing qualifies, and an intervention
    flag that is set exactly when the executed rung differs from the request.
    """
    safe = max([a for a in np.asarray(feasible, dtype=int).tolist() if a <= raw_rung], default=0)
    return safe, safe != raw_rung


def decision_violation(size_bytes: float, realized_bps: float, buffer_s: float, guard_s: float = 0.0) -> bool:
    """Did this chunk, at its realized throughput, overrun the buffer budget?"""
    if realized_bps <= 0.0:
        raise ValueError("realized capacity must be positive")
    return 8.0 * size_bytes / realized_bps > buffer_s - guard_s


def make_auditor(predictor, cfg: AuditConfig = AuditConfig()):
    """Wrap a scalar capacity predictor as a run_session auditor.

    The predictor must expose `predict(history_bps) -> bps`; it receives the
    session's whole measured history and picks its own window from it.
    With no measured history yet (session start) no forecast exists, so the
    request passes through unaudited; the empty-set fallback still applies
    whenever the buffer is at or below the guard, which needs no forecast.
    """

    def auditor(state: PlayerState, history_bps: np.ndarray, raw_rung: int):
        if state.buffer_s - cfg.guard_s <= 0.0:
            return AuditDecision(*audit_action(raw_rung, _EMPTY), fallback=True)
        if history_bps.size == 0:
            return None
        predicted = float(predictor.predict(history_bps))
        feasible = feasible_set(state, state.next_chunk_sizes, predicted, cfg)
        return AuditDecision(*audit_action(raw_rung, feasible), feasible.size == 0, predicted)

    return auditor


def make_oracle_auditor(trace: ThroughputTrace, cfg: AuditConfig = AuditConfig(capacity_margin=1.0)):
    """Diagnostic auditor that screens with each rung's true realized capacity.

    Each rung is downloaded ahead by the session's own `download_chunk` and
    judged by the `decision_violation` that later scores it, so an admitted
    action never violates, to the last bit; a download that would outrun the
    trace is infeasible. The logged prediction is the executed rung's
    realized capacity. The margin is not applied: the oracle has nothing to
    hedge.
    """

    def realized_bps(start_s: float, size: float) -> float:  # NaN if the download outruns the trace
        try:
            return download_chunk(trace, start_s, size)[1]
        except TraceExhaustedError:
            return math.nan

    def auditor(state: PlayerState, history_bps: np.ndarray, raw_rung: int):
        sizes = [float(size) for size in state.next_chunk_sizes]
        realized = [realized_bps(state.wall_time_s, size) for size in sizes]
        feasible = np.array([a for a, (size, c) in enumerate(zip(sizes, realized))
                             if not (math.isnan(c) or decision_violation(size, c, state.buffer_s, cfg.guard_s))],
                            dtype=int)
        safe, intervened = audit_action(raw_rung, feasible)
        return AuditDecision(safe, intervened, feasible.size == 0, realized[safe])

    return auditor
