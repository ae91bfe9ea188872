"""Fleet risk statistics and the comparison report round-trip."""

import json
import math

import numpy as np
import pytest

from abrlab.metrics import (
    REPORT_COLUMNS,
    RiskReport,
    audit_rate,
    build_report,
    exceed_ratio,
    mean_metrics,
    read_report_csv,
    severe_ratio,
    tail_mean,
    worst_tail_rebuf,
    write_report_csv,
    write_report_json,
)
from abrlab.sim import ChunkOutcome, SessionLog


def _outcome(i, qoe=3.0, rebuffer=0.0, audited=False):
    return ChunkOutcome(
        chunk_index=i, rung=0, raw_rung=0, audited=audited, fallback=False,
        size_bytes=1.5e6, download_time_s=1.0, rebuffer_s=rebuffer,
        effective_throughput_bps=12e6, qoe=qoe,
        buffer_before_s=4.0, buffer_after_s=4.0,
    )


def _log(tid, rebuffer_total=0.0, qoe_total=None, chunks=4, audited=0):
    per_rebuf = rebuffer_total / chunks
    per_qoe = (qoe_total if qoe_total is not None else 3.0 * chunks) / chunks
    outcomes = [_outcome(i, qoe=per_qoe, rebuffer=per_rebuf, audited=i < audited)
                for i in range(chunks)]
    return SessionLog(trace_id=tid, outcomes=outcomes)


class TestTailMean:
    def test_worst_two_of_forty(self):
        values = list(range(40))  # 0..39
        # ceil(0.05 * 40) = 2 worst sessions: 38 and 39
        assert tail_mean(values, 0.05) == pytest.approx(38.5)

    def test_ceil_keeps_at_least_one(self):
        assert tail_mean([1.0, 5.0, 3.0], 0.05) == 5.0

    def test_full_fraction_is_plain_mean(self):
        v = [1.0, 2.0, 6.0]
        assert tail_mean(v, 1.0) == pytest.approx(3.0)

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.normal(0, 10, int(rng.integers(1, 60)))
            frac = float(rng.uniform(0.01, 1.0))
            k = int(math.ceil(frac * v.size))
            expect = float(np.mean(sorted(v)[-k:]))
            assert tail_mean(v, frac) == pytest.approx(expect)

    def test_tail_dominates_mean(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            v = rng.uniform(0, 50, 20)
            assert tail_mean(v, 0.1) >= float(v.mean()) - 1e-12

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            tail_mean([], 0.05)
        with pytest.raises(ValueError):
            tail_mean([1.0], 0.0)
        with pytest.raises(ValueError):
            tail_mean([1.0], 1.5)


class TestExceedRatio:
    def test_strictly_above(self):
        assert exceed_ratio([0.0, 5.0, 11.0, 20.0], 10.0) == pytest.approx(0.5)

    def test_boundary_value_does_not_count(self):
        assert exceed_ratio([10.0, 10.0, 10.1], 10.0) == pytest.approx(1.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exceed_ratio([], 1.0)


class TestFleetAggregates:
    def test_mean_metrics(self):
        logs = [_log("a", rebuffer_total=4.0, qoe_total=10.0),
                _log("b", rebuffer_total=0.0, qoe_total=20.0)]
        qoe, rebuf = mean_metrics(logs)
        assert qoe == pytest.approx(15.0)
        assert rebuf == pytest.approx(2.0)

    def test_worst_tail_rebuf_picks_heaviest_sessions(self):
        logs = [_log(f"t{i}", rebuffer_total=float(i)) for i in range(40)]
        assert worst_tail_rebuf(logs, 0.05) == pytest.approx(38.5)

    def test_severe_ratio_strict(self):
        logs = [_log("a", 0.0), _log("b", 5.0), _log("c", 11.0), _log("d", 20.0)]
        assert severe_ratio(logs, 10.0) == pytest.approx(0.5)
        assert severe_ratio(logs, 20.0) == pytest.approx(0.0)

    def test_audit_rate_counts_changed_chunks(self):
        logs = [_log("a", chunks=4, audited=1), _log("b", chunks=4, audited=3)]
        assert audit_rate(logs) == pytest.approx(0.5)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            mean_metrics([])
        with pytest.raises(ValueError):
            worst_tail_rebuf([])
        with pytest.raises(ValueError):
            severe_ratio([])
        with pytest.raises(ValueError):
            audit_rate([])


class TestBuildReport:
    def _logs(self):
        return [_log(f"t{i}", rebuffer_total=float(3 * i), audited=i % 2) for i in range(20)]

    def test_fields(self):
        logs = self._logs()
        r = build_report("demo", logs, v_dec=0.01, overrate_hr=0.2)
        assert r.method == "demo"
        assert r.n_sessions == 20
        assert r.tail_k == 1  # ceil(0.05 * 20)
        assert r.severe_threshold_s == 10.0
        assert r.qoe_mean == pytest.approx(mean_metrics(logs)[0])
        assert r.rebuf_worst5_s == pytest.approx(57.0)  # worst single session
        assert r.severe_ratio == pytest.approx(exceed_ratio([3.0 * i for i in range(20)], 10.0))
        assert r.v_dec == 0.01
        assert r.overrate_hr == 0.2

    def test_custom_tail_and_threshold(self):
        r = build_report("demo", self._logs(), tail_fraction=0.25, severe_threshold_s=30.0)
        assert r.tail_k == 5
        assert r.rebuf_worst5_s == pytest.approx(np.mean([45.0, 48.0, 51.0, 54.0, 57.0]))
        assert r.severe_threshold_s == 30.0
        assert r.severe_ratio == pytest.approx(9 / 20)  # sessions with 33..57 s

    def test_decision_fields_default_to_none(self):
        r = build_report("demo", self._logs())
        assert r.v_dec is None and r.overrate_hr is None


class TestReportSerialization:
    def _reports(self):
        logs_a = [_log(f"a{i}", rebuffer_total=float(i)) for i in range(10)]
        logs_b = [_log(f"b{i}", rebuffer_total=float(2 * i)) for i in range(10)]
        return [build_report("alpha", logs_a, v_dec=0.0, overrate_hr=0.5),
                build_report("beta", logs_b)]

    def test_csv_round_trip(self, tmp_path):
        reports = self._reports()
        p = tmp_path / "methods.csv"
        write_report_csv(reports, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        back = read_report_csv(p)
        assert len(back) == 2
        for orig, rt in zip(reports, back):
            assert rt.method == orig.method
            assert rt.n_sessions == orig.n_sessions
            assert rt.tail_k == orig.tail_k
            assert rt.qoe_mean == pytest.approx(orig.qoe_mean, abs=1e-6)
            assert rt.rebuf_worst5_s == pytest.approx(orig.rebuf_worst5_s, abs=1e-6)
        assert back[0].v_dec == pytest.approx(0.0)
        assert back[1].v_dec is None  # empty cell round-trips as absent

    def test_json_mirror(self, tmp_path):
        reports = self._reports()
        p = tmp_path / "methods.json"
        write_report_json(reports, p)
        rows = json.loads(p.read_text())
        assert [row["method"] for row in rows] == ["alpha", "beta"]
        assert set(rows[0]) == set(REPORT_COLUMNS)
        assert rows[1]["v_dec"] is None

    def test_header_mismatch_rejected(self, tmp_path):
        p = tmp_path / "junk.csv"
        p.write_text("method,foo\nx,1\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_report_csv(p)

    def test_malformed_rows_rejected(self, tmp_path):
        p = tmp_path / "methods.csv"
        write_report_csv(self._reports(), p)
        header, first = p.read_text().splitlines()[:2]
        cells = first.split(",")
        # an empty cell means None only in the `float | None` columns
        i = REPORT_COLUMNS.index("qoe_mean")
        empty_qoe = cells[:i] + [""] + cells[i + 1:]
        for bad in (empty_qoe, cells[:-1]):
            p.write_text(header + "\n" + ",".join(bad) + "\n")
            with pytest.raises(ValueError):
                read_report_csv(p)

    def test_v_dec_zero_survives_round_trip(self, tmp_path):
        # 0.0 is a meaningful value and must not collapse into "missing"
        logs = [_log("a", 0.0)]
        p = tmp_path / "zero.csv"
        write_report_csv([build_report("m", logs, v_dec=0.0, overrate_hr=0.0)], p)
        back = read_report_csv(p)[0]
        assert back.v_dec == 0.0
        assert back.overrate_hr == 0.0
