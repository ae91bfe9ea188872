"""Trace ingestion, synthesis, splitting, and subset selection."""

import math

import numpy as np
import pytest

from abrlab.traces import (
    MIN_SYNTH_THROUGHPUT_BPS,
    SynthConfig,
    ThroughputTrace,
    TraceParseError,
    TraceValidationError,
    handover_heavy_subset,
    ingest_trace,
    split_traces,
    synthesize_trace,
    write_trace,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestIngest:
    def test_plain_two_row_file(self, tmp_path):
        p = _write(tmp_path, "a.csv", "0,50000000\n1,60000000\n")
        tr = ingest_trace(p)
        assert tr.trace_id == "a"
        assert np.array_equal(tr.times_s, [0.0, 1.0])
        assert np.array_equal(tr.throughput_bps, [50e6, 60e6])
        assert tr.handover_times_s.size == 0

    def test_header_row_is_skipped(self, tmp_path):
        p = _write(tmp_path, "h.csv", "time_s,throughput_bps\n0,5e6\n1,6e6\n")
        tr = ingest_trace(p)
        assert tr.times_s.size == 2
        assert tr.throughput_bps[1] == 6e6

    def test_blank_lines_ignored(self, tmp_path):
        p = _write(tmp_path, "b.csv", "\n0,5e6\n\n1,6e6\n\n")
        assert ingest_trace(p).times_s.size == 2

    def test_gappy_rows_resampled_by_previous_value_hold(self, tmp_path):
        p = _write(tmp_path, "g.csv", "0,10e6\n2,20e6\n5,30e6\n")
        tr = ingest_trace(p)
        # independent oracle: hold each value until the next sample time
        raw_t, raw_v = [0.0, 2.0, 5.0], [10e6, 20e6, 30e6]
        expect = []
        for t in range(6):
            held = raw_v[0]
            for rt, rv in zip(raw_t, raw_v):
                if rt <= t:
                    held = rv
            expect.append(held)
        assert np.array_equal(tr.times_s, np.arange(6.0))
        assert np.array_equal(tr.throughput_bps, expect)

    def test_resample_preserves_endpoints_on_integer_span(self, tmp_path):
        p = _write(tmp_path, "e.csv", "0,7e6\n3,9e6\n")
        tr = ingest_trace(p)
        assert tr.throughput_bps[0] == 7e6
        assert tr.throughput_bps[-1] == 9e6
        assert tr.throughput_bps.max() <= 9e6

    def test_non_numeric_row_names_line_number(self, tmp_path):
        p = _write(tmp_path, "bad.csv", "0,5e6\nx,y\n")
        with pytest.raises(TraceParseError, match="line 2"):
            ingest_trace(p)

    def test_wrong_field_count_names_line_number(self, tmp_path):
        p = _write(tmp_path, "bad.csv", "0,5e6\n1,6e6,7e6\n")
        with pytest.raises(TraceParseError, match="line 2"):
            ingest_trace(p)

    def test_empty_file_rejected(self, tmp_path):
        p = _write(tmp_path, "empty.csv", "")
        with pytest.raises(TraceValidationError, match="empty"):
            ingest_trace(p)

    def test_header_only_file_rejected(self, tmp_path):
        p = _write(tmp_path, "ho.csv", "time_s,throughput_bps\n")
        with pytest.raises(TraceValidationError, match="empty"):
            ingest_trace(p)

    def test_non_positive_sample_rejected(self, tmp_path):
        p = _write(tmp_path, "z.csv", "0,5e6\n1,0\n")
        with pytest.raises(TraceValidationError, match="non-positive"):
            ingest_trace(p)

    def test_non_increasing_timestamps_rejected(self, tmp_path):
        p = _write(tmp_path, "t.csv", "0,5e6\n0,6e6\n")
        with pytest.raises(TraceValidationError, match="strictly increasing"):
            ingest_trace(p)

    def test_handover_sidecar_is_read(self, tmp_path):
        _write(tmp_path, "s.csv", "0,5e6\n1,6e6\n2,7e6\n")
        _write(tmp_path, "s.handovers", "0.5\n1.5\n")
        tr = ingest_trace(tmp_path / "s.csv")
        assert np.array_equal(tr.handover_times_s, [0.5, 1.5])

    def test_bad_sidecar_line_reported(self, tmp_path):
        _write(tmp_path, "s.csv", "0,5e6\n1,6e6\n")
        _write(tmp_path, "s.handovers", "0.5\noops\n")
        with pytest.raises(TraceParseError, match="line 2"):
            ingest_trace(tmp_path / "s.csv")

    @pytest.mark.parametrize("text", [
        "0,5e6\n1,nan\n2,7e6\n3,8e6\n4,9e6\n",      # a NaN sample passes `<= 0`
        "0,5e6\n1,6e6\n2,7e6\n3,inf\n4,9e6\n",      # an inf sample
        "0,5e6\n2,nan\n2.5,6e6\n4,7e6\n",            # a NaN row that resampling would drop
        "0,5e6\nnan,6e6\n2,7e6\n",                    # a NaN time passes `diff <= 0`
        "0,5e6\n1,6e6\ninf,7e6\n",
    ])
    def test_non_finite_rows_rejected(self, tmp_path, text):
        p = _write(tmp_path, "nf.csv", text)
        with pytest.raises(TraceValidationError, match="non-finite"):
            ingest_trace(p)

    def test_non_finite_handover_rejected(self, tmp_path):
        _write(tmp_path, "s.csv", "0,5e6\n1,6e6\n")
        _write(tmp_path, "s.handovers", "0.5\nnan\n")
        with pytest.raises(TraceValidationError, match="non-finite"):
            ingest_trace(tmp_path / "s.csv")

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        _write(tmp_path, "bom.csv", "\ufeff0,5e6\n1,6e6\n2,7e6\n")
        _write(tmp_path, "bom.handovers", "\ufeff0.5\n")
        tr = ingest_trace(tmp_path / "bom.csv")
        assert tr.times_s.tolist() == [0.0, 1.0, 2.0]
        assert tr.throughput_bps.tolist() == [5e6, 6e6, 7e6]
        assert tr.handover_times_s.tolist() == [0.5]

    def test_byte_order_mark_before_a_header(self, tmp_path):
        p = _write(tmp_path, "bomh.csv", "\ufefftime_s,throughput_bps\n0,5e6\n1,6e6\n")
        assert ingest_trace(p).throughput_bps.tolist() == [5e6, 6e6]


def _reference_rows(path):
    """The line-by-line parser `ingest_trace` replaced: (times, values) of a
    CSV, or the (class, message) of the error it raises."""
    times, values = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                return TraceParseError, f"{path.name}: line {lineno}: expected 2 fields, got {len(parts)}"
            try:
                t, v = float(parts[0]), float(parts[1])
            except ValueError:
                if lineno == 1 and not times:
                    continue
                return TraceParseError, f"{path.name}: line {lineno}: non-numeric field in {line!r}"
            times.append(t)
            values.append(v)
    return times, values


class TestIngestAgainstReference:
    @pytest.mark.parametrize("text", [
        b"0,5e6\r\n1,6e6\r\n",                            # CRLF
        b"time_s,throughput_bps\r\n0,5e6\r\n1,6e6",       # CRLF header, no final newline
        b"0,5e6\r1,6e6\r",                                # CR only
        b" 0 , 5e6 \n\t1,\t6e6\t\n 2 ,7e6\n",             # spaces and tabs around fields
        b"\n\n  \n0,5e6\n\t\n\x0c\nx,y\n",                # blank lines before a bad row
        b"0,5e6\r\n\r\n \r\n1,6e6,7e6\r\n",               # blank CRLF lines before a 3-field row
        b"0,5e6\n 1 ,6e6 ,\n",                            # trailing comma: 3 fields
        b"\nfoo,bar\n0,5e6\n",                            # a header after line 1 is a bad row
        b"0,5e6\n\n1\n",                                  # 1 field
        b"0,5e6\n1, \n",                                  # empty field
    ])
    def test_same_rows_or_same_error(self, tmp_path, text):
        p = tmp_path / "r.csv"
        p.write_bytes(text)
        expected = _reference_rows(p)
        if expected[0] is TraceParseError:
            with pytest.raises(TraceParseError) as err:
                ingest_trace(p)
            assert str(err.value) == expected[1]
        else:
            tr = ingest_trace(p)
            assert tr.times_s.tolist() == expected[0] and tr.throughput_bps.tolist() == expected[1]


class TestTraceValidation:
    def test_uneven_spacing_rejected_at_construction(self):
        with pytest.raises(TraceValidationError, match="1.0 s"):
            ThroughputTrace("x", [0.0, 1.0, 3.0], [1e6, 1e6, 1e6])

    @pytest.mark.parametrize("times, bps, handovers", [
        ([0.0, math.nan, 2.0], [1e6, 1e6, 1e6], []),
        ([0.0, 1.0, 2.0], [1e6, math.nan, 1e6], []),
        ([0.0, 1.0, 2.0], [1e6, 1e6, math.inf], []),
        ([0.0, 1.0, 2.0], [1e6, 1e6, 1e6], [math.nan]),
    ])
    def test_non_finite_values_rejected_at_construction(self, times, bps, handovers):
        with pytest.raises(TraceValidationError, match="non-finite"):
            ThroughputTrace("x", times, bps, handovers)

    def test_handover_outside_span_rejected(self):
        with pytest.raises(TraceValidationError, match="outside"):
            ThroughputTrace("x", [0.0, 1.0], [1e6, 1e6], [5.0])

    def test_duration_counts_the_last_held_second(self):
        tr = ThroughputTrace("x", [0.0, 1.0, 2.0], [1e6, 1e6, 1e6])
        assert tr.duration_s == 3.0

    def test_arrays_are_read_only(self):
        tr = ThroughputTrace("x", [0.0, 1.0, 2.0], [1e6, 2e6, 3e6], [0.5])
        for array in (tr.times_s, tr.throughput_bps, tr.handover_times_s):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 9.0
        assert tr.samples == [1e6, 2e6, 3e6]

    def test_later_writes_to_the_source_arrays_do_not_reach_the_trace(self):
        times, bps, handovers = np.arange(3.0), np.array([1e6, 2e6, 3e6]), np.array([0.5])
        tr = ThroughputTrace("x", times, bps, handovers)
        times[:] = 7.0
        bps[:] = -1.0
        handovers[:] = 9.0
        assert tr.times_s.tolist() == [0.0, 1.0, 2.0]
        assert tr.throughput_bps.tolist() == tr.samples == [1e6, 2e6, 3e6]
        assert tr.handover_times_s.tolist() == [0.5]


class TestRoundTrip:
    def test_write_then_ingest_is_identity(self, tmp_path):
        tr = synthesize_trace(SynthConfig(duration_s=60, seed=5), "rt")
        write_trace(tr, tmp_path)
        back = ingest_trace(tmp_path / "rt.csv")
        assert np.array_equal(back.times_s, tr.times_s)
        assert np.array_equal(back.throughput_bps, tr.throughput_bps)
        assert np.array_equal(back.handover_times_s, tr.handover_times_s)

    def test_rewrite_is_byte_identical(self, tmp_path):
        tr = synthesize_trace(SynthConfig(duration_s=60, seed=5), "rt")
        p = write_trace(tr, tmp_path)
        first = p.read_bytes()
        back = ingest_trace(p)
        write_trace(back, tmp_path)
        assert p.read_bytes() == first

    def test_fractional_epoch_times_round_trip(self, tmp_path):
        # An ingested trace may keep fractional epoch-second times; a write
        # that rounded them would shift every sample off its handovers.
        t0 = 1700000000.25
        tr = ThroughputTrace("epoch", t0 + np.arange(600.0), np.full(600, 20e6), [t0 + 598.9])
        write_trace(tr, tmp_path)
        back = ingest_trace(tmp_path / "epoch.csv")
        assert np.array_equal(back.times_s, tr.times_s)
        assert np.array_equal(back.handover_times_s, tr.handover_times_s)

    def test_integer_times_are_written_bare(self, tmp_path):
        p = write_trace(synthesize_trace(SynthConfig(duration_s=5, seed=5), "rt"), tmp_path)
        assert [line.split(",")[0] for line in p.read_text().splitlines()] == \
            ["time_s", "0", "1", "2", "3", "4"]


class TestSynthesis:
    def test_same_seed_is_bit_identical(self):
        a = synthesize_trace(SynthConfig(duration_s=120, seed=3))
        b = synthesize_trace(SynthConfig(duration_s=120, seed=3))
        assert np.array_equal(a.throughput_bps, b.throughput_bps)
        assert np.array_equal(a.handover_times_s, b.handover_times_s)

    def test_different_seeds_differ(self):
        a = synthesize_trace(SynthConfig(duration_s=120, seed=3))
        b = synthesize_trace(SynthConfig(duration_s=120, seed=4))
        assert not np.array_equal(a.throughput_bps, b.throughput_bps)

    def test_handover_every_dwell(self):
        tr = synthesize_trace(SynthConfig(duration_s=300, regime_dwell_s=15.0, seed=1))
        assert tr.handover_times_s.size == 20
        assert np.array_equal(tr.handover_times_s, 15.0 * np.arange(20))

    def test_no_noise_no_dip_gives_piecewise_constant_regimes(self):
        cfg = SynthConfig(
            duration_s=90,
            regime_dwell_s=30.0,
            handover_dip_fraction=1.0,
            ar1_sigma_mbps=0.0,
            seed=9,
        )
        tr = synthesize_trace(cfg)
        v = tr.throughput_bps
        for start in (0, 30, 60):
            seg = v[start : start + 30]
            assert np.all(seg == seg[0])
        assert len({v[0], v[30], v[60]}) == 3

    def test_dip_scales_the_first_seconds_of_each_regime(self):
        base = SynthConfig(
            duration_s=30,
            regime_dwell_s=30.0,
            handover_dip_fraction=1.0,
            handover_dip_duration_s=4.0,
            ar1_sigma_mbps=0.0,
            seed=2,
        )
        undipped = synthesize_trace(base).throughput_bps
        dipped = synthesize_trace(
            SynthConfig(
                duration_s=30,
                regime_dwell_s=30.0,
                handover_dip_fraction=0.25,
                handover_dip_duration_s=4.0,
                ar1_sigma_mbps=0.0,
                seed=2,
            )
        ).throughput_bps
        assert np.allclose(dipped[:4], 0.25 * undipped[:4])
        assert np.array_equal(dipped[4:], undipped[4:])

    def test_floor_clamps_tiny_regimes(self):
        cfg = SynthConfig(
            duration_s=20,
            regime_mean_log_mbps=math.log(0.001),
            regime_sigma_log=0.0,
            ar1_sigma_mbps=0.0,
            handover_dip_fraction=0.5,
            seed=0,
        )
        tr = synthesize_trace(cfg)
        assert np.all(tr.throughput_bps == MIN_SYNTH_THROUGHPUT_BPS)

    def test_floor_holds_across_seeds(self):
        for seed in range(10):
            tr = synthesize_trace(SynthConfig(duration_s=200, seed=seed))
            assert tr.throughput_bps.min() >= MIN_SYNTH_THROUGHPUT_BPS

    def test_bad_parameters_rejected(self):
        with pytest.raises(TraceValidationError):
            synthesize_trace(SynthConfig(duration_s=0))
        with pytest.raises(TraceValidationError):
            synthesize_trace(SynthConfig(regime_dwell_s=0.0))
        with pytest.raises(TraceValidationError):
            synthesize_trace(SynthConfig(handover_dip_fraction=0.0))
        with pytest.raises(TraceValidationError):
            SynthConfig(regime_dwell_s=float("nan"))  # refused when built, before any trace


class TestSplit:
    def test_ten_ids_sixty_twenty_twenty(self):
        ids = [f"t{i}" for i in range(10)]
        train, cal, test = split_traces(ids, (0.6, 0.2, 0.2), seed=0)
        assert (len(train), len(cal), len(test)) == (6, 2, 2)

    def test_seventy_nine_ids_default_fractions(self):
        ids = [f"t{i}" for i in range(79)]
        train, cal, test = split_traces(ids, (0.7, 0.15, 0.15), seed=0)
        # round(0.15 * 79) = 12 for both held-out parts, train takes the rest
        assert (len(train), len(cal), len(test)) == (55, 12, 12)

    def test_partition_property(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(3, 60))
            ids = [f"id{trial}-{i}" for i in range(n)]
            parts = split_traces(ids, (0.7, 0.15, 0.15), seed=trial)
            merged = [tid for part in parts for tid in part]
            assert sorted(merged) == sorted(ids)
            assert len(set(merged)) == len(ids)

    def test_same_seed_same_split(self):
        ids = [f"t{i}" for i in range(20)]
        assert split_traces(ids, (0.7, 0.15, 0.15), 5) == split_traces(ids, (0.7, 0.15, 0.15), 5)

    def test_different_seed_reorders(self):
        ids = [f"t{i}" for i in range(20)]
        a = split_traces(ids, (0.7, 0.15, 0.15), 0)
        b = split_traces(ids, (0.7, 0.15, 0.15), 1)
        assert a != b

    def test_bad_inputs_rejected(self):
        with pytest.raises(TraceValidationError, match="sum to 1"):
            split_traces(["a", "b", "c"], (0.5, 0.5, 0.5), 0)
        with pytest.raises(TraceValidationError, match="positive"):
            split_traces(["a", "b", "c"], (1.0, 0.0, 0.0), 0)
        with pytest.raises(TraceValidationError, match="at least 3"):
            split_traces(["a", "b"], (0.7, 0.15, 0.15), 0)
        with pytest.raises(TraceValidationError, match="duplicate"):
            split_traces(["a", "a", "b"], (0.7, 0.15, 0.15), 0)


def _flat_trace(tid, handovers, values=None, n=400):
    v = np.full(n, 20e6) if values is None else np.asarray(values, dtype=float)
    return ThroughputTrace(tid, np.arange(len(v), dtype=float), v, handovers)


class TestHandoverHeavySubset:
    def test_top_fraction_by_count(self):
        traces = [_flat_trace(f"t{i}", 7.0 * np.arange(i)) for i in range(10)]
        picked = handover_heavy_subset(traces, window_s=300.0, top_fraction=0.3)
        assert sorted(picked) == ["t7", "t8", "t9"]

    def test_subset_mean_count_exceeds_remainder(self):
        traces = [_flat_trace(f"t{i}", 7.0 * np.arange(i)) for i in range(10)]
        picked = set(handover_heavy_subset(traces, 300.0, 0.3))
        counts = {tr.trace_id: tr.handover_times_s.size for tr in traces}
        heavy = np.mean([counts[t] for t in picked])
        rest = np.mean([c for t, c in counts.items() if t not in picked])
        assert heavy > rest

    def test_count_tie_broken_by_largest_one_second_drop(self):
        n = 60
        steep = np.full(n, 50e6)
        steep[10:] = 10e6  # 40 Mbit/s drop
        gentle = np.full(n, 50e6)
        gentle[10:] = 45e6  # 5 Mbit/s drop
        traces = [
            _flat_trace("gentle", np.array([3.0, 20.0]), gentle),
            _flat_trace("steep", np.array([3.0, 20.0]), steep),
        ]
        assert handover_heavy_subset(traces, 60.0, 0.5) == ["steep"]

    def test_full_tie_broken_by_id(self):
        traces = [_flat_trace("b", np.array([3.0])), _flat_trace("a", np.array([3.0]))]
        assert handover_heavy_subset(traces, 60.0, 0.5) == ["a"]

    def test_event_at_window_edge_excluded(self):
        tr = _flat_trace("edge", np.array([5.0, 300.0]))
        only = _flat_trace("small", np.array([5.0, 6.0]))
        picked = handover_heavy_subset([tr, only], window_s=300.0, top_fraction=0.5)
        assert picked == ["small"]  # 2 events inside the window beats 1

    def test_window_starts_at_each_traces_first_sample(self):
        def late(tid, handovers):  # sampled from t = 1000 on
            return ThroughputTrace(tid, 1000.0 + np.arange(400.0), np.full(400, 20e6), 1000.0 + handovers)

        traces = [late("a-one", np.array([5.0])), late("b-twenty", 7.0 * np.arange(20))]
        assert handover_heavy_subset(traces, window_s=300.0, top_fraction=0.5) == ["b-twenty"]

    def test_ceil_keeps_at_least_one(self):
        traces = [_flat_trace(f"t{i}", np.zeros(0)) for i in range(7)]
        assert len(handover_heavy_subset(traces, 300.0, 0.3)) == math.ceil(0.3 * 7)

    def test_bad_parameters_rejected(self):
        tr = _flat_trace("t", np.zeros(0))
        with pytest.raises(TraceValidationError):
            handover_heavy_subset([tr], 0.0, 0.3)
        with pytest.raises(TraceValidationError):
            handover_heavy_subset([tr], 300.0, 0.0)
        with pytest.raises(TraceValidationError):  # no window, so the first ids by tie-break
            handover_heavy_subset([tr], float("nan"), 0.3)
