"""End-to-end pipeline runs through the command-line entry point at a compact scale."""

import csv
import dataclasses
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml

import abrlab.capacity
from abrlab.auditor import make_auditor
from abrlab.capacity import PREDICTOR_CANDIDATES, LowerBoundPredictor, PointPredictor, decision_scores
from abrlab.cli import main
from abrlab.config import calibration_fingerprint, load_config, traces_fingerprint
from abrlab.metrics import build_report, read_report_csv, write_report_csv
from abrlab.net import load_checkpoint, make_greedy_policy, save_checkpoint
from abrlab.sim import SessionLog, run_sessions, session_summary
from abrlab.traces import ingest_trace, synthesize_trace, write_trace
from abrlab.traces import SynthConfig

TINY = {
    "seed": 5,
    "traces": {"count": 10, "duration_s": 240},
    "video": {"num_chunks": 10},
    "bc": {"dagger_iterations": 2, "rollout_steps": 120, "epochs": 2,
           "batch_size": 32, "learning_rate": 5e-3, "expert_horizon": 3},
    "ppo": {"total_steps": 256, "n_steps": 32, "n_envs": 2, "minibatch_size": 32, "epochs": 2},
    "cvar": {"window": 64},
    "predictor": {"horizon_s": 10},
    "mpc": {"horizon": 3},
}


def _write_cfg(path: Path, **extra) -> Path:
    data = {**TINY, **extra}
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full CLI run: gen-traces -> pretrain -> finetune -> calibrate -> evaluate."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = _write_cfg(root / "exp.yaml")
    run = root / "run"
    for argv in (
        ["gen-traces", "--config", str(cfg), "--out", str(run)],
        ["pretrain", "--config", str(cfg), "--out", str(run)],
        ["finetune", "--config", str(cfg), "--out", str(run)],
        ["calibrate", "--config", str(cfg), "--out", str(run)],
        ["evaluate", "--config", str(cfg), "--out", str(run), "--margin-grid"],
    ):
        assert main(argv) == 0, f"stage {argv[0]} failed"
    return run


class TestPipelineArtifacts:
    def test_run_directory_layout(self, pipeline):
        assert (pipeline / "config.yaml").exists()
        assert (pipeline / "split.json").exists()
        assert (pipeline / "calibration.json").exists()
        assert len(list((pipeline / "traces").glob("*.csv"))) == 10
        ckpt = pipeline / "checkpoints"
        assert (ckpt / "bc_seed5.ckpt").exists()
        assert (ckpt / "bc_seed5_history.json").exists()
        assert (ckpt / "ppo_lambda20_seed5.ckpt").exists()
        assert (ckpt / "ppo_lambda20_seed5_curve.json").exists()
        reports = pipeline / "reports"
        assert (reports / "predictors.csv").exists()
        assert (reports / "methods.csv").exists()
        assert (reports / "methods.json").exists()
        assert (reports / "margin_grid.csv").exists()

    def test_split_partitions_trace_ids(self, pipeline):
        split = json.loads((pipeline / "split.json").read_text())
        ids = split["train"] + split["calibration"] + split["test"]
        assert sorted(ids) == [f"synth-{i:04d}" for i in range(10)]
        assert len(split["train"]) == 6
        assert len(split["calibration"]) == 2
        assert len(split["test"]) == 2
        assert split["seed"] == 5
        cfg = load_config(pipeline / "config.yaml")
        assert split["config_fingerprint"] == traces_fingerprint(cfg)

    def test_config_snapshot_reflects_overrides(self, pipeline):
        cfg = load_config(pipeline / "config.yaml")
        assert cfg.seed == 5
        assert cfg.output_dir == str(pipeline)
        assert cfg.traces.count == 10

    def test_bc_history_has_one_row_per_round(self, pipeline):
        history = json.loads((pipeline / "checkpoints" / "bc_seed5_history.json").read_text())
        assert [row["round"] for row in history] == [1, 2]
        assert all(row["dataset_size"] > 0 for row in history)

    def test_ppo_curve_accounts_for_every_step(self, pipeline):
        curve = json.loads((pipeline / "checkpoints" / "ppo_lambda20_seed5_curve.json").read_text())
        assert [row["update"] for row in curve] == [1, 2, 3, 4]
        assert [row["steps"] for row in curve] == [64, 128, 192, 256]
        _, meta = load_checkpoint(pipeline / "checkpoints" / "ppo_lambda20_seed5.ckpt")
        assert meta["steps_trained"] == 256
        assert meta["kind"] == "ppo"
        assert meta["lambda"] == 20.0

    def test_calibration_record(self, pipeline):
        payload = json.loads((pipeline / "calibration.json").read_text())
        assert payload["scale"] > 0.0
        assert payload["n_windows"] >= 50
        assert payload["frozen_policy"] == "ppo_lambda20_seed5"
        cfg = load_config(pipeline / "config.yaml")
        assert payload["fingerprint"] == calibration_fingerprint(cfg)
        ranked = read_report_csv(pipeline / "reports" / "predictors.csv")
        assert sorted(r.method for r in ranked) == ["lower-bound", "point"]

    def test_methods_table_covers_every_method(self, pipeline):
        reports = read_report_csv(pipeline / "reports" / "methods.csv")
        assert [r.method for r in reports] == list(
            ("rate-rule", "bola", "robust-mpc", "bc-only", "bc+rl", "bc+audit", "full"))
        for r in reports:
            assert r.n_sessions == 2
            if r.method in ("bc+audit", "full"):
                assert r.v_dec is not None
                assert r.overrate_hr is not None
            else:
                assert r.v_dec is None
                assert r.overrate_hr is None
                assert r.audit_rate == 0.0

    def test_methods_json_mirrors_csv(self, pipeline):
        rows = json.loads((pipeline / "reports" / "methods.json").read_text())
        csv_rows = read_report_csv(pipeline / "reports" / "methods.csv")
        assert [row["method"] for row in rows] == [r.method for r in csv_rows]

    def test_session_rows_per_method(self, pipeline):
        split = json.loads((pipeline / "split.json").read_text())
        header = ",".join(session_summary(SessionLog("t", [])))
        for name in ("rate-rule", "bola", "robust-mpc", "bc-only", "bc_rl", "bc_audit", "full"):
            path = pipeline / "reports" / f"sessions_{name}.csv"
            text = path.read_text()
            lines = text.strip().splitlines()
            assert lines[0] == header
            assert lines[0].startswith("trace_id,session_qoe,rebuffer_s,audit_interventions")
            assert "np.float64" not in text
            assert len(lines) == 1 + 2
            listed = sorted(line.split(",")[0] for line in lines[1:])
            assert listed == sorted(split["test"])

    def test_method_table_rebuilds_from_session_rows(self, pipeline, tmp_path):
        # A risk row is a function of session rows: build_report over each
        # sessions_<method>.csv read back, with the decision scores of its
        # row, writes the method table byte for byte.
        cfg = load_config(pipeline / "config.yaml")
        numeric = {"session_qoe": float, "rebuffer_s": float, "audit_interventions": int,
                   "chunks": int, "truncated": int}
        rebuilt = []
        for r in read_report_csv(pipeline / "reports" / "methods.csv"):
            with open(pipeline / "reports" / f"sessions_{r.method.replace('+', '_')}.csv", newline="") as fh:
                rows = [{k: numeric.get(k, str)(v) for k, v in row.items()} for row in csv.DictReader(fh)]
            rebuilt.append(build_report(r.method, rows, v_dec=r.v_dec, overrate_hr=r.overrate_hr,
                                        tail_fraction=cfg.eval.tail_fraction,
                                        severe_threshold_s=cfg.eval.severe_threshold_s))
        write_report_csv(rebuilt, tmp_path / "methods.csv")
        assert (tmp_path / "methods.csv").read_text() == (pipeline / "reports" / "methods.csv").read_text()

    def test_margin_grid_rows(self, pipeline):
        grid = read_report_csv(pipeline / "reports" / "margin_grid.csv")
        names = [r.method for r in grid]
        assert names == [
            "bc+audit@no-audit", "bc+audit@margin=0.9", "bc+audit@margin=0.95", "bc+audit@margin=1",
            "full@no-audit", "full@margin=0.9", "full@margin=0.95", "full@margin=1",
        ]
        for r in grid:
            assert r.n_sessions == 2
            if r.method.endswith("@no-audit"):
                assert r.v_dec is None
                assert r.audit_rate == 0.0
            else:
                assert r.v_dec is not None

    def test_margin_grid_reuses_method_table_runs_that_equal_replayed_ones(self, pipeline, tmp_path,
                                                                          monkeypatch):
        # With the full method table, bc-only and bc+rl are the no-audit rows
        # and each audited method's own row is its grid row at the configured
        # margin 0.9. Without bc-only and bc+rl, at another configured margin,
        # all eight grid rows are replayed instead; the bytes must not differ.
        replays = []

        def counted(replay):
            def run_sessions(*args, **kwargs):
                replays.append(1)
                return replay(*args, **kwargs)
            return run_sessions

        monkeypatch.setattr(abrlab.capacity, "run_sessions", counted(abrlab.capacity.run_sessions))
        # At this scale fine-tuning barely moves the cloned net; a random fine-tuned
        # net makes the bc and ppo rows differ, so a swapped twin would show.
        ppo = next((pipeline / "checkpoints").glob("ppo_*.ckpt"))
        net, meta = load_checkpoint(ppo)
        net.params[:] = np.random.default_rng(0).normal(0.0, 0.5, net.size)
        grids = []
        for argv, n_replays in ((["--margin-grid"], 7 + 8 - 4),
                                (["--methods", "bc+audit,full", "--margin", "0.85", "--margin-grid"], 2 + 8)):
            run = tmp_path / str(n_replays)
            shutil.copytree(pipeline, run)
            save_checkpoint(run / "checkpoints" / ppo.name, net, meta)
            replays.clear()
            assert main(["evaluate", "--config", str(pipeline.parent / "exp.yaml"), "--out", str(run),
                         *argv]) == 0
            assert len(replays) == n_replays
            grids.append((run / "reports" / "margin_grid.csv").read_bytes())
        assert grids[0] == grids[1]
        rows = {r.method: dataclasses.replace(r, method="") for r in
                read_report_csv(tmp_path / str(7 + 8 - 4) / "reports" / "margin_grid.csv")}
        assert rows["bc+audit@no-audit"] != rows["full@no-audit"]

    # The full grid and the grid at an unlisted margin are counted in the test above.
    @pytest.mark.parametrize("candidates, argv, n_replays", [
        (list(PREDICTOR_CANDIDATES), ["calibrate"], 3),
        # full's margin 0.9 run is its method row; its no-audit, 0.95 and 1 runs are new
        (None, ["evaluate", "--methods", "full", "--margin-grid"], 1 + 3),
        (None, ["evaluate", "--handover-heavy", "--margin-grid"], 7 + 8 - 4),
    ])
    def test_each_distinct_run_is_replayed_once(self, pipeline, tmp_path, monkeypatch,
                                                candidates, argv, n_replays):
        replays = []

        def counted(replay):
            def run_sessions(*args, **kwargs):
                replays.append(1)
                return replay(*args, **kwargs)
            return run_sessions

        monkeypatch.setattr(abrlab.capacity, "run_sessions", counted(abrlab.capacity.run_sessions))
        run = tmp_path / "run"
        shutil.copytree(pipeline, run)
        predictor = {**TINY["predictor"], "candidates": candidates or ["point", "lower-bound"]}
        cfg = _write_cfg(tmp_path / "exp.yaml", predictor=predictor)
        assert main([argv[0], "--config", str(cfg), "--out", str(run), *argv[1:]]) == 0
        assert len(replays) == n_replays

    def test_calibrate_scores_the_lower_bound_in_calibration_json(self, pipeline, tmp_path):
        # The predictors.csv row must equal a direct replay of the frozen policy
        # on the calibration traces, audited by the bound read back from disk.
        cfg = load_config(pipeline / "config.yaml")
        spec = cfg.video.video_spec()
        payload = json.loads((pipeline / "calibration.json").read_text())
        net, _ = load_checkpoint(pipeline / "checkpoints" / f"{payload['frozen_policy']}.ckpt")
        lower = LowerBoundPredictor(PointPredictor(cfg.predictor), payload["scale"])
        traces = [ingest_trace(pipeline / "traces" / f"{tid}.csv")
                  for tid in json.loads((pipeline / "split.json").read_text())["calibration"]]
        logs = run_sessions(traces, spec, cfg.qoe, make_greedy_policy(net, spec, cfg.features),
                            [make_auditor(lower, cfg.audit) for _ in traces], history_len=cfg.history_len)
        v_dec, overrate = decision_scores(logs, cfg.audit.guard_s)[:2]
        report = build_report("lower-bound", [session_summary(log) for log in logs], v_dec=v_dec,
                              overrate_hr=overrate, tail_fraction=cfg.eval.tail_fraction,
                              severe_threshold_s=cfg.eval.severe_threshold_s)
        write_report_csv([report], tmp_path / "direct.csv")
        row = (tmp_path / "direct.csv").read_text().splitlines()[1]
        assert row in (pipeline / "reports" / "predictors.csv").read_text().splitlines()

    def test_each_method_replays_its_own_checkpoint(self, pipeline, tmp_path):
        # At this scale fine-tuning barely moves the cloned net, so the ppo
        # checkpoint is overwritten with a random net: bc-only and bc+audit must
        # replay the cloned net, bc+rl and full the fine-tuned one, each equal
        # to a direct replay of that net.
        run = tmp_path / "run"
        shutil.copytree(pipeline, run)
        ppo = next((run / "checkpoints").glob("ppo_*.ckpt"))
        tuned, meta = load_checkpoint(ppo)
        tuned.params[:] = np.random.default_rng(1).normal(0.0, 0.5, tuned.size)
        save_checkpoint(ppo, tuned, meta)
        assert main(["evaluate", "--config", str(pipeline.parent / "exp.yaml"), "--out", str(run),
                     "--methods", "bc-only,bc+rl,bc+audit,full"]) == 0
        cloned, _ = load_checkpoint(run / "checkpoints" / "bc_seed5.ckpt")
        cfg = load_config(run / "config.yaml")
        spec = cfg.video.video_spec()
        traces = [ingest_trace(run / "traces" / f"{tid}.csv")
                  for tid in json.loads((run / "split.json").read_text())["test"]]
        lower = LowerBoundPredictor(PointPredictor(cfg.predictor),
                                    json.loads((run / "calibration.json").read_text())["scale"])

        def replay(net, audited):
            auditors = [make_auditor(lower, cfg.audit) for _ in traces] if audited else None
            logs = run_sessions(traces, spec, cfg.qoe, make_greedy_policy(net, spec, cfg.features), auditors,
                                history_len=cfg.history_len)
            return [[str(v) for v in session_summary(log).values()] for log in logs]

        rows = {}
        for name, net, audited in (("bc-only", cloned, False), ("bc_rl", tuned, False),
                                   ("bc_audit", cloned, True), ("full", tuned, True)):
            with open(run / "reports" / f"sessions_{name}.csv", newline="", encoding="utf-8") as fh:
                rows[name] = list(csv.reader(fh))[1:]
            assert rows[name] == replay(net, audited), name
        assert rows["bc-only"] != rows["bc_rl"]
        assert rows["bc_audit"] != rows["full"]

    def test_report_command_prints_both_tables(self, pipeline, capsys):
        assert main(["report", "--out", str(pipeline)]) == 0
        out = capsys.readouterr().out
        assert "rate-rule" in out
        assert "full" in out
        assert "bc+audit@margin=0.95" in out
        assert "method" in out and "rebuf_worst5_s" in out

    def test_evaluate_leaves_no_report_of_an_earlier_run(self, pipeline, tmp_path, capsys):
        # The fixture's run evaluated every method with the margin grid; a later
        # one-method run must not leave the grid or other methods' sessions behind.
        run = tmp_path / "run"
        shutil.copytree(pipeline, run)
        assert main(["evaluate", "--config", str(pipeline.parent / "exp.yaml"), "--out", str(run),
                     "--methods", "bc-only", "--handover-heavy"]) == 0
        reports = run / "reports"
        assert not (reports / "margin_grid.csv").exists()
        assert [p.name for p in reports.glob("sessions_*.csv")] == ["sessions_bc-only.csv"]
        assert (reports / "predictors.csv").exists()
        capsys.readouterr()
        assert main(["report", "--out", str(run)]) == 0
        out = capsys.readouterr().out
        assert "bc-only" in out and "@margin" not in out

    def test_evaluate_supports_method_subset(self, pipeline, tmp_path, capsys):
        # classic controllers need no checkpoints, so a fresh dir works too
        cfg = _write_cfg(tmp_path / "exp.yaml", traces={"count": 4, "duration_s": 120})
        run = tmp_path / "run"
        assert main(["gen-traces", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--out", str(run),
                     "--methods", "rate-rule,bola"]) == 0
        reports = read_report_csv(run / "reports" / "methods.csv")
        assert [r.method for r in reports] == ["rate-rule", "bola"]

    def test_handover_heavy_subset_flag(self, pipeline, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "exp.yaml", traces={"count": 4, "duration_s": 120})
        run = tmp_path / "run"
        assert main(["gen-traces", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--out", str(run),
                     "--methods", "rate-rule", "--handover-heavy"]) == 0
        assert "handover-heavy subset" in capsys.readouterr().out


class TestDeterminism:
    def test_gen_traces_is_byte_deterministic(self, tmp_path):
        cfg = _write_cfg(tmp_path / "exp.yaml", traces={"count": 4, "duration_s": 120})
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-traces", "--config", str(cfg), "--out", str(run_a)]) == 0
        assert main(["gen-traces", "--config", str(cfg), "--out", str(run_b)]) == 0
        assert _tree_digest(run_a / "traces") == _tree_digest(run_b / "traces")
        assert (run_a / "split.json").read_bytes() == (run_b / "split.json").read_bytes()

    def test_seed_override_changes_traces_and_split(self, tmp_path):
        cfg = _write_cfg(tmp_path / "exp.yaml", traces={"count": 4, "duration_s": 120})
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-traces", "--config", str(cfg), "--out", str(run_a)]) == 0
        assert main(["gen-traces", "--config", str(cfg), "--out", str(run_b), "--seed", "9"]) == 0
        assert _tree_digest(run_a / "traces") != _tree_digest(run_b / "traces")
        assert load_config(run_b / "config.yaml").seed == 9
        assert json.loads((run_b / "split.json").read_text())["seed"] == 9


class TestErrorPaths:
    def test_nonpositive_trace_count(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "exp.yaml", traces={"count": 0, "duration_s": 120})
        assert main(["gen-traces", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "gen-traces" in err
        assert "count" in err

    @pytest.mark.parametrize("section, values", [
        ("cvar", {"window": 0}), ("cvar", {"alpha": 1.0}), ("ppo", {"epochs": 0}),
        ("bc", {"dagger_iterations": 0}),
    ], ids=["cvar.window", "cvar.alpha", "ppo.epochs", "bc.dagger_iterations"])
    def test_bad_training_config_stops_the_first_stage(self, tmp_path, capsys, section, values):
        cfg = _write_cfg(tmp_path / "exp.yaml", traces={"count": 4, "duration_s": 120}, **{section: values})
        assert main(["gen-traces", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert next(iter(values)) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_stage_order_is_enforced(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "exp.yaml", traces={"count": 4, "duration_s": 120})
        run = tmp_path / "run"

        assert main(["pretrain", "--config", str(cfg), "--out", str(run)]) == 2
        assert "gen-traces" in capsys.readouterr().err

        assert main(["gen-traces", "--config", str(cfg), "--out", str(run)]) == 0
        capsys.readouterr()

        assert main(["finetune", "--config", str(cfg), "--out", str(run)]) == 2
        assert "pretrain" in capsys.readouterr().err

        assert main(["evaluate", "--config", str(cfg), "--out", str(run),
                     "--methods", "bc-only"]) == 2
        assert "pretrain" in capsys.readouterr().err

        assert main(["report", "--out", str(run)]) == 2
        assert "evaluate" in capsys.readouterr().err

    def test_unknown_method_is_rejected(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "exp.yaml", traces={"count": 4, "duration_s": 120})
        run = tmp_path / "run"
        assert main(["gen-traces", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--out", str(run),
                     "--methods", "rate-rule,teleport"]) == 2
        assert "teleport" in capsys.readouterr().err

    def test_margin_grid_needs_an_audited_method(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "exp.yaml", traces={"count": 4, "duration_s": 120})
        run = tmp_path / "run"
        assert main(["gen-traces", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--out", str(run),
                     "--methods", "rate-rule", "--margin-grid"]) == 2
        assert "audited" in capsys.readouterr().err
        assert not (run / "reports").exists()  # refused before the first replay

    def test_wrong_typed_config_value_is_an_error_line(self, tmp_path, capsys):
        # a fractional stream count loaded, then finetune died in a TypeError traceback
        cfg = _write_cfg(tmp_path / "exp.yaml", ppo={**TINY["ppo"], "n_envs": 2.5})
        assert main(["finetune", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "error: config key ppo.n_envs: expected int, got 2.5" in capsys.readouterr().err

    def test_checkpoint_with_a_nan_parameter_is_an_error_line(self, pipeline, tmp_path, capsys):
        # it loaded, and the greedy net's NaN scores made bc-only a plausible-looking row
        run = tmp_path / "run"
        shutil.copytree(pipeline, run)
        bc = next((run / "checkpoints").glob("bc_*.ckpt"))
        head, _, body = bc.read_bytes().partition(b"\n")
        params = np.frombuffer(body, dtype="<f8").copy()
        params[0] = np.nan
        bc.write_bytes(head + b"\n" + params.tobytes())
        assert main(["evaluate", "--config", str(pipeline.parent / "exp.yaml"), "--out", str(run),
                     "--methods", "bc-only"]) == 2
        assert f"error: {bc}: refusing to load a checkpoint with 1 non-finite parameters" in capsys.readouterr().err

    def test_mpc_window_longer_than_history_is_rejected(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "exp.yaml", history_len=4, mpc={"horizon": 3, "history_len": 5})
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "run"),
                     "--methods", "robust-mpc"]) == 2
        err = capsys.readouterr().err
        assert "mpc.history_len (5)" in err and "history_len (4)" in err

    def test_ingest_then_split(self, tmp_path, capsys):
        ext = tmp_path / "external"
        ext.mkdir()
        files = []
        for i in range(3):
            tr = synthesize_trace(SynthConfig(duration_s=90, seed=(40, i)), trace_id=f"ext-{i}")
            write_trace(tr, ext)
            files.append(str(ext / f"ext-{i}.csv"))
        run = tmp_path / "run"
        cfg = _write_cfg(tmp_path / "exp.yaml", traces={"count": 3, "duration_s": 90})
        assert main(["ingest", "--config", str(cfg), "--out", str(run), *files]) == 0
        assert "run `abrlab split`" in capsys.readouterr().out
        assert main(["split", "--config", str(cfg), "--out", str(run)]) == 0
        split = json.loads((run / "split.json").read_text())
        assert sorted(split["train"] + split["calibration"] + split["test"]) == \
            ["ext-0", "ext-1", "ext-2"]

    def test_ingest_refuses_two_files_of_one_trace_id(self, tmp_path, capsys):
        files = []
        for i, day in enumerate(("d1", "d2")):
            tr = synthesize_trace(SynthConfig(duration_s=300, seed=(41, i)), trace_id="day")
            files.append(str(write_trace(tr, tmp_path / day)))
        run = tmp_path / "run"
        cfg = _write_cfg(tmp_path / "exp.yaml")
        assert main(["ingest", "--config", str(cfg), "--out", str(run), *files]) == 2
        err = capsys.readouterr().err
        assert files[0] in err and files[1] in err
        assert not (run / "traces").exists()  # refused before anything was written


class TestCalibrateSettings:
    def test_predictor_table_uses_configured_tail_settings(self, tmp_path):
        cfg = _write_cfg(tmp_path / "exp.yaml",
                         traces={"count": 8, "duration_s": 240, "split_train": 0.25,
                                 "split_calibration": 0.5, "split_test": 0.25},
                         eval={"tail_fraction": 0.5, "severe_threshold_s": 2.5})
        run = tmp_path / "run"
        for stage in ("gen-traces", "pretrain", "calibrate"):
            assert main([stage, "--config", str(cfg), "--out", str(run)]) == 0
        rows = read_report_csv(run / "reports" / "predictors.csv")
        assert rows
        for row in rows:
            assert row.n_sessions >= 3  # enough that 0.5 and 0.05 give different k
            assert row.tail_k == math.ceil(0.5 * row.n_sessions)
            assert row.severe_threshold_s == 2.5


class TestPredictorCandidates:
    def test_calibrate_scores_every_candidate_by_its_name(self, pipeline, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(pipeline, run)
        cfg = _write_cfg(tmp_path / "exp.yaml",
                         predictor={**TINY["predictor"], "candidates": list(PREDICTOR_CANDIDATES)})
        assert main(["calibrate", "--config", str(cfg), "--out", str(run)]) == 0
        rows = read_report_csv(run / "reports" / "predictors.csv")
        assert [r.method for r in rows] == list(PREDICTOR_CANDIDATES)
        oracle = rows[PREDICTOR_CANDIDATES.index("oracle")]
        assert oracle.v_dec == 0.0
        assert "oracle" in capsys.readouterr().out


STALENESS = {
    "traces": {"count": 6, "duration_s": 180},
    "bc": {"dagger_iterations": 1, "rollout_steps": 60, "epochs": 1,
           "batch_size": 32, "expert_horizon": 3},
    "ppo": {"total_steps": 128, "n_steps": 32, "n_envs": 2, "minibatch_size": 32, "epochs": 1},
}


class TestStaleness:
    @pytest.fixture()
    def trained(self, tmp_path):
        cfg = _write_cfg(tmp_path / "exp.yaml", **STALENESS)
        run = tmp_path / "run"
        assert main(["gen-traces", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["pretrain", "--config", str(cfg), "--out", str(run)]) == 0
        return tmp_path, cfg, run

    def test_stale_checkpoint_is_refused_then_allowed(self, trained, capsys):
        tmp_path, cfg, run = trained
        drifted = _write_cfg(tmp_path / "drifted.yaml",
                             traces={"count": 6, "duration_s": 180},
                             bc={"dagger_iterations": 1, "rollout_steps": 60, "epochs": 3,
                                 "batch_size": 32, "expert_horizon": 3})
        assert main(["evaluate", "--config", str(drifted), "--out", str(run),
                     "--methods", "bc-only"]) == 2
        err = capsys.readouterr().err
        assert "stale" in err and "--allow-stale" in err

        assert main(["evaluate", "--config", str(drifted), "--out", str(run),
                     "--methods", "bc-only", "--allow-stale"]) == 0
        assert "warning" in capsys.readouterr().err

    def test_lambda_override_names_its_own_checkpoint(self, trained):
        tmp_path, cfg, run = trained
        assert main(["finetune", "--config", str(cfg), "--out", str(run), "--lambda", "0"]) == 0
        assert (run / "checkpoints" / "ppo_lambda0_seed5.ckpt").exists()
        assert not (run / "checkpoints" / "ppo_lambda20_seed5.ckpt").exists()

    def test_drifted_predictor_makes_calibration_stale(self, trained, capsys):
        tmp_path, cfg, run = trained
        for stage in ("finetune", "calibrate"):
            assert main([stage, "--config", str(cfg), "--out", str(run)]) == 0
        capsys.readouterr()
        drifted = _write_cfg(tmp_path / "drifted.yaml", **STALENESS,
                             predictor={"horizon_s": 10, "delta": 0.2})
        assert main(["evaluate", "--config", str(drifted), "--out", str(run),
                     "--methods", "full"]) == 2
        err = capsys.readouterr().err
        assert "calibration.json is stale" in err and "config fingerprint" in err

        assert main(["evaluate", "--config", str(drifted), "--out", str(run),
                     "--methods", "full", "--allow-stale"]) == 0
        assert "warning: calibration.json is stale" in capsys.readouterr().err

    def test_under_trained_ppo_checkpoint_is_stale(self, trained, capsys):
        # ppo.total_steps is part of ppo_fingerprint, like every other ppo key
        tmp_path, cfg, run = trained
        assert main(["finetune", "--config", str(cfg), "--out", str(run)]) == 0
        capsys.readouterr()
        bigger = _write_cfg(tmp_path / "bigger.yaml",
                            **{**STALENESS, "ppo": {**STALENESS["ppo"], "total_steps": 256}})
        for stage, *argv in (["calibrate"], ["evaluate", "--methods", "bc+rl"]):
            assert main([stage, "--config", str(bigger), "--out", str(run), *argv]) == 2
            err = capsys.readouterr().err
            assert "ppo_lambda20_seed5.ckpt is stale (config fingerprint" in err
            assert "trace set" not in err and "--allow-stale" in err
        assert not (run / "calibration.json").exists()

        assert main(["evaluate", "--config", str(bigger), "--out", str(run),
                     "--methods", "bc+rl", "--allow-stale"]) == 0
        assert "warning: ppo_lambda20_seed5.ckpt is stale (config fingerprint" in capsys.readouterr().err

    def test_drifted_bc_makes_calibrate_refuse_its_frozen_policy(self, trained, capsys):
        tmp_path, cfg, run = trained
        drifted = _write_cfg(tmp_path / "drifted.yaml",
                             **{**STALENESS, "bc": {**STALENESS["bc"], "epochs": 3}})
        assert main(["calibrate", "--config", str(drifted), "--out", str(run)]) == 2
        err = capsys.readouterr().err
        assert "bc_seed5.ckpt is stale" in err and "--allow-stale" in err
        assert not (run / "calibration.json").exists()

    def test_new_trace_set_makes_checkpoint_stale(self, trained, capsys):
        tmp_path, cfg, run = trained
        extra = synthesize_trace(SynthConfig(duration_s=180, seed=(41, 0)), trace_id="ext-0")
        write_trace(extra, tmp_path)
        assert main(["ingest", "--config", str(cfg), "--out", str(run),
                     str(tmp_path / "ext-0.csv")]) == 0
        assert main(["split", "--config", str(cfg), "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg), "--out", str(run),
                     "--methods", "bc-only"]) == 2
        err = capsys.readouterr().err
        assert "bc_seed5.ckpt is stale" in err and "trace set" in err
