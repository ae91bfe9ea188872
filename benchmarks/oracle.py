"""Independent reference for the clairvoyant planner's labels.

It shares no code with `policies.beam_expert_decide` beyond the simulator's
per-second integrator: plans come from `itertools.product`, and each chunk
download is integrated by `sim.download_chunk`. Where a download would run
past the end of the trace, the remainder continues at the final sample's
rate, the rule `policies.bulk_download_times` documents for planning.
"""

from __future__ import annotations

import itertools

from abrlab.sim import TraceExhaustedError, chunk_qoe, chunk_size, download_chunk

REL_TOL = 1e-9


def download_time(trace, start_s: float, size_bytes: float) -> float:
    """Seconds to move `size_bytes` from `start_s`, extrapolating past the trace end."""
    t0 = float(trace.times_s[0])
    end = t0 + trace.times_s.size
    if start_s < end - 1e-12:
        try:
            return download_chunk(trace, start_s, size_bytes)[0]
        except TraceExhaustedError:
            pass
    # Bytes the trace still delivers from start_s to its end, then the final rate.
    delivered, u = 0.0, float(start_s)
    for k in range(max(int(u - t0 + 1e-12), 0), trace.times_s.size):
        boundary = t0 + k + 1.0
        delivered += trace.throughput_bps[k] / 8.0 * (boundary - max(u, t0 + k))
        u = boundary
    last_rate = trace.throughput_bps[-1] / 8.0
    return max(end, float(start_s)) - start_s + (size_bytes - delivered) / last_rate


def plan_scores(state, trace, spec, w, horizon: int) -> dict[tuple[int, ...], float]:
    """QoE of every plan over the remaining-clipped horizon, keyed by the plan."""
    horizon = min(horizon, state.remaining_chunks)
    rates = spec.ladder.rungs_kbps
    # Partial plans share prefixes; memoize (wall time, buffer, score) per prefix.
    prefix = {(): (float(state.wall_time_s), float(state.buffer_s), 0.0)}
    scores = {}
    for plan in itertools.product(range(spec.ladder.num_rungs), repeat=horizon):
        for h in range(1, horizon + 1):
            key = plan[:h]
            if key in prefix:
                continue
            u, b, q = prefix[plan[:h - 1]]
            rung = plan[h - 1]
            prev = plan[h - 2] if h > 1 else state.prev_rung
            d = download_time(trace, u, chunk_size(spec, state.chunk_index + h - 1, rung))
            rebuf = max(d - b, 0.0)
            q += chunk_qoe(rates[rung], rates[prev], rebuf, w)
            b = min(state.buffer_max_s, max(b - d, 0.0) + state.chunk_duration_s)
            prefix[key] = (u + d, b, q)
        scores[plan] = prefix[plan][2]
    return scores


def best_by_first_rung(scores: dict[tuple[int, ...], float]) -> dict[int, float]:
    best: dict[int, float] = {}
    for plan, q in scores.items():
        if plan[0] not in best or q > best[plan[0]]:
            best[plan[0]] = q
    return best


def oracle_decide(state, trace, spec, w, horizon: int) -> tuple[int, float]:
    """(label, best score); among exactly equal best scores the lowest first rung wins."""
    best = best_by_first_rung(plan_scores(state, trace, spec, w, horizon))
    top = max(best.values())
    return min(a for a, q in best.items() if q == top), top


def label_agrees(label: int, state, trace, spec, w, horizon: int) -> bool:
    """Does `label` start a plan whose score equals the best within REL_TOL?"""
    best = best_by_first_rung(plan_scores(state, trace, spec, w, horizon))
    top = max(best.values())
    return abs(best[int(label)] - top) <= REL_TOL * max(abs(top), 1.0)
