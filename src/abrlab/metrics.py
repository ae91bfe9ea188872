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
from typing import Iterable, Mapping, Sequence

import numpy as np


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


def build_report(method: str, rows: Sequence[Mapping],
                 v_dec: float | None = None, overrate_hr: float | None = None,
                 tail_fraction: float = 0.05, severe_threshold_s: float = 10.0) -> RiskReport:
    """The risk row of `method` over session rows: `sim.session_summary` dicts,
    or `sessions_<method>.csv` rows read back with numeric cells. The tail is
    the worst ceil(tail_fraction * n) sessions; severe is strictly above."""
    if not rows:
        raise ValueError("no sessions to aggregate")
    chunks = sum(row["chunks"] for row in rows)
    if chunks == 0:
        raise ValueError("no chunk outcomes to aggregate")
    rebuf = np.array([row["rebuffer_s"] for row in rows])
    return RiskReport(
        method=method,
        n_sessions=len(rows),
        qoe_mean=float(np.mean([row["session_qoe"] for row in rows])),
        rebuf_mean_s=float(rebuf.mean()),
        rebuf_worst5_s=tail_mean(rebuf, tail_fraction),
        severe_ratio=exceed_ratio(rebuf, severe_threshold_s),
        severe_threshold_s=severe_threshold_s,
        tail_k=int(math.ceil(tail_fraction * len(rows))),
        audit_rate=sum(row["audit_interventions"] for row in rows) / chunks,
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
