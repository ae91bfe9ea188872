"""The BENCH file driver's parsing and summary, on canned benchmark output."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _canned(wall, digest="17d0219f"):
    """What `benchmarks/run.py --workload all` prints, for two workloads."""
    lines, metrics = [], {}
    for workload, files in (("clone", ["bc_seed7.ckpt"]), ("finetune", ["ppo_lambda20_seed7.ckpt"])):
        record = {"workload": workload, "seed": 7, "rep_wall_s": [wall[workload]], "attempted": 4, "failed": 0}
        lines.append(f"run record: {json.dumps(record)}")
        lines += [f"digest {f} sha256={digest if workload == 'finetune' else '91736a6f'}" for f in files]
        lines.append("error_ratio = 0 (0 of 4 operations failed)")
        for key, unit, value in (("wall_s", "s", wall[workload]), ("peak_rss_mb", "MB", 47.0)):
            lines.append(f"{workload} {key} = {value:.6g} {unit}")
            metrics[f"{workload}.{key}"] = {"value": value, "unit": unit}
    lines.append(json.dumps({"correct": True, "attempted": 8, "failed": 0, "metrics": metrics}))
    return "\n".join(lines) + "\n"


def test_parse_splits_metrics_digests_and_records_by_workload():
    run = bench_record.parse_run(_canned({"clone": 0.5, "finetune": 0.6}))
    assert run["metrics"]["finetune"]["wall_s"] == {"value": 0.6, "unit": "s"}
    assert set(run["metrics"]) == {"clone", "finetune"}
    assert run["digests"] == {"clone": {"bc_seed7.ckpt": "91736a6f"},
                              "finetune": {"ppo_lambda20_seed7.ckpt": "17d0219f"}}
    assert [r["workload"] for r in run["records"]] == ["clone", "finetune"]
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 8, 0)


def test_summary_takes_median_and_quartiles_over_runs():
    walls = [0.50, 0.70, 0.60, 0.90, 0.55]
    doc = bench_record.bench_document("25", 7, 35, [_canned({"clone": 1.0, "finetune": w}) for w in walls])
    wall = doc["workloads"]["finetune"]["metrics"]["wall_s"]
    assert (wall["q1"], wall["median"], wall["q3"]) == pytest.approx((0.55, 0.60, 0.70))
    assert wall["values"] == walls and wall["unit"] == "s"
    assert doc["workloads"]["finetune"]["digests"] == {"ppo_lambda20_seed7.ckpt": "17d0219f"}
    assert doc["repeats"] == 5 and doc["correct"] is True
    assert doc["command"][-4:] == ["--seed", "7", "--seconds", "35"]
    assert len(doc["runs"]) == 5 and doc["runs"][0]["records"][1]["rep_wall_s"] == [0.50]


def test_digests_that_differ_between_runs_are_all_kept():
    outs = [_canned({"clone": 1.0, "finetune": 0.6}, digest=d) for d in ("bbb", "aaa", "bbb")]
    doc = bench_record.bench_document("x", 7, 35, outs)
    assert doc["workloads"]["finetune"]["digests"] == {"ppo_lambda20_seed7.ckpt": ["aaa", "bbb"]}


def test_output_without_its_json_result_is_refused():
    out = _canned({"clone": 1.0, "finetune": 0.6}).rsplit("\n", 2)[0]
    with pytest.raises(ValueError, match="JSON result"):
        bench_record.parse_run(out)
    with pytest.raises(ValueError, match="nothing"):
        bench_record.parse_run("")


def test_main_writes_the_file_from_the_runner(tmp_path, capsys):
    calls = []

    def runner(root, seed, seconds):
        calls.append((seed, seconds))
        return _canned({"clone": 1.0, "finetune": 0.5 + len(calls) / 10})

    assert bench_record.main(["--label", "t", "--seed", "11", "--seconds", "3", "--repeats", "3",
                              "--out", str(tmp_path)], runner=runner) == 0
    assert calls == [(11, 3)] * 3
    doc = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert doc["workloads"]["finetune"]["metrics"]["wall_s"]["median"] == pytest.approx(0.7)
    assert doc["label"] == "t" and doc["repeats"] == 3
