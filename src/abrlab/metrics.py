"""Session- and fleet-level risk metrics, and the comparison report format.

Averages tell you the typical session; the tail statistics here (worst-K
mean, severe-session ratio) are what a risk-sensitive operator actually
watches. Report rows keep one fixed column order so runs diff cleanly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .sim import SessionLog


def tail_mean(values: Sequence[float], fraction: float) -> float:
    """Mean of the ceil(fraction * n) largest values."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("tail_mean of an empty sample")
    if not (0.0 < fraction <= 1.0):
        raise ValueError("tail fraction must lie in (0, 1]")
    k = int(math.ceil(fraction * v.size))
    return float(np.sort(v)[-k:].mean())


def exceed_ratio(values: Sequence[float], threshold: float) -> float:
    """Fraction strictly above the threshold (a value exactly at it does not count)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("exceed_ratio of an empty sample")
    return float(np.mean(v > threshold))


def mean_metrics(logs: Sequence[SessionLog]) -> tuple[float, float]:
    """(mean session QoE, mean session rebuffer seconds) across the fleet."""
    if not logs:
        raise ValueError("no sessions to aggregate")
    qoe = np.array([log.session_qoe for log in logs])
    rebuf = np.array([log.session_rebuffer_s for log in logs])
    return float(qoe.mean()), float(rebuf.mean())


def worst_tail_rebuf(logs: Sequence[SessionLog], fraction: float = 0.05) -> float:
    """Mean rebuffer over the worst ceil(fraction * n) sessions."""
    if not logs:
        raise ValueError("no sessions to aggregate")
    return tail_mean([log.session_rebuffer_s for log in logs], fraction)


def severe_ratio(logs: Sequence[SessionLog], threshold_s: float = 10.0) -> float:
    """Fraction of sessions with total rebuffering strictly above threshold_s."""
    if not logs:
        raise ValueError("no sessions to aggregate")
    return exceed_ratio([log.session_rebuffer_s for log in logs], threshold_s)


def audit_rate(logs: Sequence[SessionLog]) -> float:
    """Fraction of chunk decisions the auditor changed."""
    chunks = sum(len(log.outcomes) for log in logs)
    if chunks == 0:
        raise ValueError("no chunk outcomes to aggregate")
    return sum(log.audit_interventions for log in logs) / chunks


@dataclass(frozen=True)
class RiskReport:
    method: str
    n_sessions: int
    qoe_mean: float
    rebuf_mean_s: float
    rebuf_worst5_s: float
    severe_ratio: float
    severe_threshold_s: float
    tail_k: int
    audit_rate: float
    v_dec: float | None = None
    overrate_hr: float | None = None


def build_report(method: str, logs: Sequence[SessionLog],
                 v_dec: float | None = None, overrate_hr: float | None = None,
                 tail_fraction: float = 0.05, severe_threshold_s: float = 10.0) -> RiskReport:
    qoe_mean, rebuf_mean = mean_metrics(logs)
    return RiskReport(
        method=method,
        n_sessions=len(logs),
        qoe_mean=qoe_mean,
        rebuf_mean_s=rebuf_mean,
        rebuf_worst5_s=worst_tail_rebuf(logs, tail_fraction),
        severe_ratio=severe_ratio(logs, severe_threshold_s),
        severe_threshold_s=severe_threshold_s,
        tail_k=int(math.ceil(tail_fraction * len(logs))),
        audit_rate=audit_rate(logs),
        v_dec=v_dec,
        overrate_hr=overrate_hr,
    )


# The risk-table header is `RiskReport`: a new column is a new field.
REPORT_COLUMNS = tuple(f.name for f in fields(RiskReport))
_PARSERS = {"str": str, "int": int, "float": float}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_report_csv(reports: Iterable[RiskReport], path: str | Path) -> None:
    lines = [",".join(REPORT_COLUMNS)]
    for r in reports:
        lines.append(",".join(_cell(getattr(r, c)) for c in REPORT_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report_json(reports: Iterable[RiskReport], path: str | Path) -> None:
    rows = [{c: getattr(r, c) for c in REPORT_COLUMNS} for r in reports]
    Path(path).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _parse_cell(cell: str, annotation: str):
    if annotation.endswith(" | None"):
        return _PARSERS[annotation.removesuffix(" | None")](cell) if cell else None
    return _PARSERS[annotation](cell)


def read_report_csv(path: str | Path) -> list[RiskReport]:
    """Parse a `write_report_csv` table, each cell by its `RiskReport` field's
    annotation (empty is None only in `float | None` fields). Raises
    ValueError on a foreign header, a row of the wrong length or a bad cell."""
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text or text[0] != ",".join(REPORT_COLUMNS):
        raise ValueError(f"{path}: not a risk report (unexpected header)")
    types = [f.type for f in fields(RiskReport)]
    out = []
    for lineno, line in enumerate(text[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(types):
            raise ValueError(f"{path}:{lineno}: {len(cells)} cells, the header has {len(types)}")
        out.append(RiskReport(*(_parse_cell(c, t) for c, t in zip(cells, types))))
    return out
