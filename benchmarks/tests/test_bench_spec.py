"""Metric names and BENCHMARK.json agree with the benchmark code."""

import json
import re

import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_valid_unique_and_within_limits():
    e2e = [n for n, *_ in workloads.END_TO_END]
    layer = [n for n, _ in workloads.per_layer_metrics()]
    names = e2e + layer
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    assert all(0 < bound <= 0.25 for *_, bound in workloads.END_TO_END)


def test_benchmark_json_matches_the_code():
    assert SPEC == workloads.benchmark_spec(SPEC["run_seconds"])
    assert 1 <= SPEC["run_seconds"] <= 60
