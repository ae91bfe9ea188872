"""Throughput trace store: ingestion, synthesis, splits, subset selection.

A trace is a 1 Hz series of link throughput samples (bits per second) plus
optional handover event times. Everything here is deterministic: ingestion is
a pure function of the file, synthesis is seeded, and splits shuffle with a
seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

MIN_SYNTH_THROUGHPUT_BPS = 0.1e6  # synthesis floor, 0.1 Mbit/s

HANDOVER_SIDECAR_SUFFIX = ".handovers"


class TraceParseError(ValueError):
    """Malformed trace file content; message carries the offending line."""


class TraceValidationError(ValueError):
    """Well-formed file or arguments describing an invalid trace."""


@dataclass(frozen=True)
class ThroughputTrace:
    trace_id: str
    times_s: np.ndarray
    throughput_bps: np.ndarray
    handover_times_s: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        # Read-only copies: a caller's later write cannot reach the trace or
        # leave `samples` disagreeing with `throughput_bps`.
        for name in ("times_s", "throughput_bps", "handover_times_s"):
            array = np.array(getattr(self, name), dtype=np.float64)
            if not np.isfinite(array).all():  # NaN passes every comparison below
                raise TraceValidationError(f"trace {self.trace_id!r}: non-finite value in {name}")
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        t, v = self.times_s, self.throughput_bps
        if t.size == 0:
            raise TraceValidationError(f"trace {self.trace_id!r}: empty")
        if t.size != v.size:
            raise TraceValidationError(f"trace {self.trace_id!r}: {t.size} timestamps vs {v.size} samples")
        if t.size > 1 and not np.allclose(np.diff(t), 1.0, rtol=0.0, atol=1e-9):
            raise TraceValidationError(f"trace {self.trace_id!r}: samples must be spaced 1.0 s apart")
        if np.any(v <= 0.0):
            raise TraceValidationError(f"trace {self.trace_id!r}: non-positive throughput sample")
        h = self.handover_times_s
        if h.size and (h.min() < t[0] or h.max() > t[-1]):
            raise TraceValidationError(f"trace {self.trace_id!r}: handover time outside the sampled span")

    @property
    def duration_s(self) -> float:
        """Seconds of link time covered; the last sample holds for one second."""
        return float(self.times_s[-1] - self.times_s[0] + 1.0)

    @cached_property
    def samples(self) -> list[float]:
        """`throughput_bps` as Python floats, for per-second walks such as `sim.download_chunk`."""
        return self.throughput_bps.tolist()


def _resample_hold(times: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Previous-value hold onto a 1 s grid anchored at the first timestamp.
    grid = times[0] + np.arange(int(math.floor(times[-1] - times[0])) + 1, dtype=np.float64)
    idx = np.searchsorted(times, grid + 1e-9, side="right") - 1
    return grid, values[idx]


def ingest_trace(path: str | Path) -> ThroughputTrace:
    """Load one `time_s,throughput_bps` CSV (header optional) as a trace.

    Rows with non-1 s spacing are resampled to 1 s by previous-value hold. A
    sidecar file `<stem>.handovers` (one event time per line), if present,
    supplies handover times.
    """
    path = Path(path)
    times: list[float] = []
    values: list[float] = []
    # read_text turns CR and CRLF into LF, so splitting on LF numbers lines as
    # iterating the file would (splitlines would also split on form feeds).
    # float() strips the whitespace around a field; utf-8-sig drops a byte-order mark.
    for lineno, line in enumerate(path.read_text(encoding="utf-8-sig").split("\n"), start=1):
        parts = line.split(",")
        if len(parts) != 2:
            if not line.strip():
                continue
            raise TraceParseError(f"{path.name}: line {lineno}: expected 2 fields, got {len(parts)}")
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise TraceParseError(f"{path.name}: line {lineno}: non-numeric field in {line.strip()!r}") from None
        times.append(t)
        values.append(v)
    if not times:
        raise TraceValidationError(f"{path.name}: empty trace")
    t_arr = np.asarray(times, dtype=np.float64)
    v_arr = np.asarray(values, dtype=np.float64)
    # float() parses nan and inf; refuse them before resampling can drop one.
    if not (np.isfinite(t_arr).all() and np.isfinite(v_arr).all()):
        raise TraceValidationError(f"{path.name}: non-finite time or throughput sample")
    if np.any(np.diff(t_arr) <= 0):
        raise TraceValidationError(f"{path.name}: timestamps must be strictly increasing")
    if np.any(v_arr <= 0):
        raise TraceValidationError(f"{path.name}: non-positive throughput sample")
    if t_arr.size > 1 and not np.allclose(np.diff(t_arr), 1.0, rtol=0.0, atol=1e-9):
        t_arr, v_arr = _resample_hold(t_arr, v_arr)

    handovers = np.zeros(0)
    sidecar = path.with_suffix(HANDOVER_SIDECAR_SUFFIX)
    if sidecar.exists():
        events: list[float] = []
        with open(sidecar, "r", encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    events.append(float(line))
                except ValueError:
                    raise TraceParseError(f"{sidecar.name}: line {lineno}: non-numeric event time {line!r}") from None
        handovers = np.asarray(events, dtype=np.float64)
    return ThroughputTrace(path.stem, t_arr, v_arr, handovers)


def write_trace(trace: ThroughputTrace, directory: str | Path) -> Path:
    """Serialize a trace (and its handover sidecar) into `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    out = directory / f"{trace.trace_id}.csv"
    lines = ["time_s,throughput_bps"]
    for t, v in zip(trace.times_s, trace.throughput_bps):
        lines.append(f"{format(float(t), '.17g')},{float(v)!r}")  # round-trips; integers stay bare
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if trace.handover_times_s.size:
        sidecar = directory / f"{trace.trace_id}{HANDOVER_SIDECAR_SUFFIX}"
        sidecar.write_text("\n".join(f"{float(h)!r}" for h in trace.handover_times_s) + "\n", encoding="utf-8")
    return out


@dataclass(frozen=True)
class SynthConfig:
    """Regime-switching link model: log-normal regime means redrawn every
    `regime_dwell_s`, a multiplicative throughput dip right after each regime
    boundary (the handover), and AR(1) noise inside each regime."""

    duration_s: int = 600
    regime_mean_log_mbps: float = math.log(45.0)
    regime_sigma_log: float = 0.6
    regime_dwell_s: float = 15.0
    handover_dip_fraction: float = 0.25
    handover_dip_duration_s: float = 4.0
    ar1_rho: float = 0.8
    ar1_sigma_mbps: float = 4.0
    seed: int | tuple[int, ...] = 0


def synthesize_trace(cfg: SynthConfig, trace_id: str | None = None) -> ThroughputTrace:
    """Generate one synthetic trace, bit-deterministic per cfg.seed.

    A handover event is recorded at the start of every regime (t = 0, dwell,
    2*dwell, ... < duration) and throughput is multiplied by
    `handover_dip_fraction` for `handover_dip_duration_s` after each event.
    Samples are clamped to at least 0.1 Mbit/s.
    """
    n = int(round(cfg.duration_s))
    if n < 1:
        raise TraceValidationError("duration_s must be at least 1 second")
    if cfg.regime_dwell_s <= 0:
        raise TraceValidationError("regime_dwell_s must be positive")
    if not (0.0 < cfg.handover_dip_fraction <= 1.0):
        raise TraceValidationError("handover_dip_fraction must lie in (0, 1]")

    rng = np.random.default_rng(cfg.seed)
    n_regimes = int(math.ceil(n / cfg.regime_dwell_s))
    means_mbps = np.exp(rng.normal(cfg.regime_mean_log_mbps, cfg.regime_sigma_log, n_regimes))
    innovations = rng.normal(0.0, 1.0, n)

    t = np.arange(n, dtype=np.float64)
    regime_of = np.minimum((t // cfg.regime_dwell_s).astype(int), n_regimes - 1)
    base = means_mbps[regime_of]

    handovers = np.arange(n_regimes, dtype=np.float64) * cfg.regime_dwell_s
    handovers = handovers[handovers < n]
    dip = np.ones(n)
    for h in handovers:
        dip[(t >= h) & (t < h + cfg.handover_dip_duration_s)] = cfg.handover_dip_fraction

    noise = np.zeros(n)
    state = 0.0
    for i in range(n):
        if i > 0 and regime_of[i] != regime_of[i - 1]:
            state = 0.0  # noise restarts with the regime
        state = cfg.ar1_rho * state + cfg.ar1_sigma_mbps * innovations[i]
        noise[i] = state

    mbps = np.maximum(base * dip + noise, MIN_SYNTH_THROUGHPUT_BPS / 1e6)
    if trace_id is None:
        trace_id = f"synth-{cfg.seed}"
    return ThroughputTrace(trace_id, t, mbps * 1e6, handovers)


def split_traces(
    ids: Sequence[str], fractions: tuple[float, float, float], seed: int
) -> tuple[list[str], list[str], list[str]]:
    """Shuffle ids deterministically and partition into (train, calibration, test).

    Calibration and test counts are rounded; train absorbs the remainder, so
    the three parts always partition the input exactly.
    """
    ids = list(ids)
    if len(ids) < 3:
        raise TraceValidationError(f"need at least 3 trace ids to split, got {len(ids)}")
    if len(set(ids)) != len(ids):
        raise TraceValidationError("duplicate trace ids in split input")
    f_train, f_cal, f_test = fractions
    if min(f_train, f_cal, f_test) <= 0.0:
        raise TraceValidationError("every split fraction must be positive")
    if abs(f_train + f_cal + f_test - 1.0) > 1e-9:
        raise TraceValidationError("split fractions must sum to 1")
    order = [ids[i] for i in np.random.default_rng(seed).permutation(len(ids))]
    n = len(ids)
    n_cal = int(round(f_cal * n))
    n_test = int(round(f_test * n))
    n_train = n - n_cal - n_test
    return order[:n_train], order[n_train : n_train + n_cal], order[n_train + n_cal :]


def _window_stats(trace: ThroughputTrace, window_s: float) -> tuple[int, float]:
    t0, h = trace.times_s[0], trace.handover_times_s
    count = int(np.sum((h >= t0) & (h < t0 + window_s)))
    in_win = trace.times_s < t0 + window_s
    v = trace.throughput_bps[in_win]
    drop = float(np.max(v[:-1] - v[1:])) if v.size >= 2 else 0.0
    return count, max(drop, 0.0)


def handover_heavy_subset(
    traces: Iterable[ThroughputTrace],
    window_s: float,
    top_fraction: float,
) -> list[str]:
    """Ids of the most handover-dense traces.

    Counts handover events in the first `window_s` seconds of each trace
    (from its first sample), keeps the top `top_fraction` (ceil), and breaks
    count ties toward the trace with the largest single-second throughput
    drop inside the window.
    """
    if window_s <= 0:
        raise TraceValidationError("window_s must be positive")
    if not (0.0 < top_fraction <= 1.0):
        raise TraceValidationError("top_fraction must lie in (0, 1]")
    ranked = sorted(((*_window_stats(tr, window_s), tr.trace_id) for tr in traces),
                    key=lambda s: (-s[0], -s[1], s[2]))
    return [tid for _, _, tid in ranked[:math.ceil(top_fraction * len(ranked))]]
