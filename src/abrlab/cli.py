"""Command-line pipeline: traces -> split -> pretrain -> finetune -> calibrate -> evaluate -> report.

Every stage reads one YAML config plus a run directory and leaves its
artifacts there:

    <out>/config.yaml                     resolved config snapshot
    <out>/traces/<id>.csv                 1 Hz throughput traces (+ .handovers)
    <out>/split.json                      train / calibration / test ids
    <out>/checkpoints/bc_seed<K>.ckpt     cloned policy (+ _history.json)
    <out>/checkpoints/ppo_lambda<L>_seed<K>.ckpt  fine-tuned policy (+ _curve.json)
    <out>/calibration.json                lower-bound scale and frozen policy
    <out>/reports/predictors.csv          candidate predictors scored on calibration traces
    <out>/reports/methods.{csv,json}      per-method risk table
    <out>/reports/sessions_<method>.csv   per-session rows
    <out>/reports/margin_grid.csv         audited methods across eval.margin_grid

Checkpoints and the calibration record carry a fingerprint of the config
slice that produced them; evaluation refuses stale artifacts unless
--allow-stale is passed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from .capacity import (LowerBoundPredictor, OraclePredictor, PointPredictor,
                       calibrate_lower_bound, coverage_miss_rate,
                       evaluate_predictor_decisions)
from .config import (ExperimentConfig, bc_fingerprint, calibration_fingerprint,
                     load_config, ppo_fingerprint, save_config, traces_fingerprint, with_overrides)
from .imitation import pretrain
from .metrics import REPORT_COLUMNS, RiskReport, build_report, read_report_csv, write_report_csv, write_report_json
from .net import load_checkpoint, make_greedy_policy, save_checkpoint
from .policies import make_bola_policy, make_rate_rule_policy, make_robust_mpc_policy
from .risk_ppo import finetune
from .sim import run_session, session_summary
from .traces import (ThroughputTrace, handover_heavy_subset, ingest_trace, split_traces,
                     synthesize_trace, write_trace)

AUDITED_METHODS = ("bc+audit", "full")


class StageError(RuntimeError):
    """Pipeline failure with a user-facing message."""


def _fmt_num(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else repr(float(x))


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    return with_overrides(
        cfg,
        seed=getattr(args, "seed", None),
        out=getattr(args, "out", None),
        penalty_weight=getattr(args, "lambda_", None),
        margin=getattr(args, "margin", None),
        guard=getattr(args, "guard", None),
        methods=tuple(getattr(args, "methods").split(",")) if getattr(args, "methods", None) else None,
    )


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _trace_set_digest(ids) -> str:
    return hashlib.sha256(json.dumps(sorted(ids)).encode("utf-8")).hexdigest()[:16]


def _write_split(cfg: ExperimentConfig, out: Path, ids: list[str]) -> dict:
    train, cal, test = split_traces(ids, cfg.traces.split_fractions, cfg.seed)
    payload = {
        "config_fingerprint": traces_fingerprint(cfg),
        "trace_set": _trace_set_digest(ids),
        "seed": cfg.seed,
        "train": train,
        "calibration": cal,
        "test": test,
    }
    (out / "split.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def _read_split(out: Path) -> dict:
    path = out / "split.json"
    if not path.exists():
        raise StageError(f"{path} not found; run `abrlab gen-traces` or `abrlab split` first")
    return json.loads(path.read_text(encoding="utf-8"))


def _load_traces(out: Path, ids) -> list[ThroughputTrace]:
    traces = []
    for tid in ids:
        path = out / "traces" / f"{tid}.csv"
        if not path.exists():
            raise StageError(f"trace {tid!r} listed in split.json but {path} is missing")
        traces.append(ingest_trace(path))
    return traces


def _check_fresh(kind: str, recorded: str, expected: str, trace_set: str, split: dict, allow_stale: bool) -> None:
    problems = []
    if recorded != expected:
        problems.append(f"config fingerprint {recorded} != current {expected}")
    if trace_set != split["trace_set"]:
        problems.append(f"trace set {trace_set} != current {split['trace_set']}")
    if not problems:
        return
    msg = f"{kind} is stale ({'; '.join(problems)}); rebuild it or pass --allow-stale"
    if allow_stale:
        print(f"warning: {msg}", file=sys.stderr)
    else:
        raise StageError(msg)


def _policy_stem(cfg: ExperimentConfig, kind: str) -> str:
    """File stem of the `bc` (cloned) or `ppo` (fine-tuned) checkpoint."""
    if kind == "bc":
        return f"bc_seed{cfg.seed}"
    return f"ppo_lambda{_fmt_num(cfg.cvar.penalty_weight)}_seed{cfg.seed}"


def _load_policy_checkpoint(cfg: ExperimentConfig, out: Path, kind: str, split: dict, allow_stale: bool):
    fingerprint, stage = (bc_fingerprint, "pretrain") if kind == "bc" else (ppo_fingerprint, "finetune")
    name = f"{_policy_stem(cfg, kind)}.ckpt"
    path = out / "checkpoints" / name
    if not path.exists():
        raise StageError(f"{path} not found; run `abrlab {stage}` first")
    net, meta = load_checkpoint(path)
    _check_fresh(name, meta.get("fingerprint", ""), fingerprint(cfg), meta.get("trace_set", ""), split, allow_stale)
    return net, meta


# ---------------------------------------------------------------- stages


def cmd_gen_traces(args) -> int:
    cfg = _resolve_config(args)
    if cfg.traces.count <= 0:
        raise StageError("traces.count must be positive")
    out = _out_dir(cfg)
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    ids = []
    for i in range(cfg.traces.count):
        tr = synthesize_trace(cfg.traces.synth_config(seed=(cfg.seed, 11, i)), trace_id=f"synth-{i:04d}")
        write_trace(tr, trace_dir)
        ids.append(tr.trace_id)
    save_config(cfg, out / "config.yaml")
    payload = _write_split(cfg, out, ids)
    print(f"generated {len(ids)} traces in {trace_dir} "
          f"(split {len(payload['train'])}/{len(payload['calibration'])}/{len(payload['test'])})")
    return 0


def cmd_ingest(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(cfg)
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    total_s = 0.0
    for src in args.files:
        tr = ingest_trace(src)
        write_trace(tr, trace_dir)
        total_s += tr.duration_s
    print(f"ingested {len(args.files)} traces ({total_s:.0f} s total) into {trace_dir}; "
          f"run `abrlab split` to refresh split.json")
    return 0


def cmd_split(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(cfg)
    trace_dir = out / "traces"
    ids = sorted(p.stem for p in trace_dir.glob("*.csv"))
    if not ids:
        raise StageError(f"no traces in {trace_dir}; run `abrlab gen-traces` or `abrlab ingest` first")
    save_config(cfg, out / "config.yaml")
    payload = _write_split(cfg, out, ids)
    print(f"split {len(ids)} traces into "
          f"{len(payload['train'])}/{len(payload['calibration'])}/{len(payload['test'])}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(cfg)
    split = _read_split(out)
    traces = _load_traces(out, split["train"])
    spec, w = cfg.video.video_spec(), cfg.qoe
    net, history = pretrain(traces, spec, w, cfg.bc, cfg.features, seed=cfg.seed,
                            history_len=cfg.history_len)
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    stem = _policy_stem(cfg, "bc")
    save_checkpoint(ckpt_dir / f"{stem}.ckpt", net, {
        "kind": "bc", "seed": cfg.seed, "fingerprint": bc_fingerprint(cfg),
        "trace_set": split["trace_set"],
    })
    (ckpt_dir / f"{stem}_history.json").write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
    last = history[-1] if history else {}
    print(f"pretrained {stem}.ckpt: rounds={len(history)} dataset={last.get('dataset_size', 0)} "
          f"loss={last.get('loss', float('nan')):.4f} agreement={last.get('agreement', float('nan')):.3f}")
    return 0


def cmd_finetune(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(cfg)
    split = _read_split(out)
    stem = _policy_stem(cfg, "ppo")
    ckpt_dir = out / "checkpoints"
    steps_done = 0
    prev_curve: list = []
    if args.resume and (ckpt_dir / f"{stem}.ckpt").exists():
        net, meta = _load_policy_checkpoint(cfg, out, "ppo", split, args.allow_stale)
        steps_done = int(meta.get("steps_trained", 0))
        curve_path = ckpt_dir / f"{stem}_curve.json"
        if curve_path.exists():
            prev_curve = json.loads(curve_path.read_text(encoding="utf-8"))
        if steps_done >= cfg.ppo.total_steps:
            print(f"{stem}.ckpt already trained for {steps_done} steps; nothing to resume")
            return 0
    else:
        net, _ = _load_policy_checkpoint(cfg, out, "bc", split, args.allow_stale)
    traces = _load_traces(out, split["train"])
    spec, w = cfg.video.video_spec(), cfg.qoe
    ppo_cfg = dataclasses.replace(cfg.ppo, total_steps=cfg.ppo.total_steps - steps_done)
    tuned, curve = finetune(net, traces, spec, w, ppo_cfg, cfg.cvar, cfg.features,
                            seed=cfg.seed, history_len=cfg.history_len)
    for row in curve:
        row["steps"] += steps_done
        row["update"] += len(prev_curve)
    curve = prev_curve + curve
    steps_trained = curve[-1]["steps"] if curve else steps_done
    ckpt_dir.mkdir(exist_ok=True)
    save_checkpoint(ckpt_dir / f"{stem}.ckpt", tuned, {
        "kind": "ppo", "seed": cfg.seed, "lambda": cfg.cvar.penalty_weight,
        "steps_trained": steps_trained,
        "fingerprint": ppo_fingerprint(cfg), "trace_set": split["trace_set"],
    })
    (ckpt_dir / f"{stem}_curve.json").write_text(json.dumps(curve, indent=2) + "\n", encoding="utf-8")
    last = curve[-1] if curve else {}
    print(f"finetuned {stem}.ckpt: updates={len(curve)} steps={last.get('steps', 0)} "
          f"mean_qoe={last.get('mean_episode_qoe', float('nan')):.3f} "
          f"mean_rebuf={last.get('mean_episode_rebuffer_s', float('nan')):.3f}s")
    return 0


def _frozen_policy(cfg: ExperimentConfig, out: Path, split: dict, allow_stale: bool):
    """Best available trained policy: fine-tuned if present, else cloned."""
    kind = "ppo" if (out / "checkpoints" / f"{_policy_stem(cfg, 'ppo')}.ckpt").exists() else "bc"
    net, _ = _load_policy_checkpoint(cfg, out, kind, split, allow_stale)
    return make_greedy_policy(net, cfg.video.video_spec(), cfg.features), _policy_stem(cfg, kind)


def cmd_calibrate(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(cfg)
    split = _read_split(out)
    cal_traces = _load_traces(out, split["calibration"])
    point = PointPredictor(cfg.predictor)
    result = calibrate_lower_bound(point, cal_traces)
    registry = {
        "point": lambda: point,
        "lower-bound": lambda: LowerBoundPredictor(point, result.scale),
        "oracle": OraclePredictor,
    }
    unknown = set(cfg.predictor.candidates) - set(registry)
    if unknown:
        raise StageError(f"unknown predictor candidates {sorted(unknown)}; "
                         f"choose from {sorted(registry)}")
    policy, policy_stem = _frozen_policy(cfg, out, split, args.allow_stale)
    spec, w = cfg.video.video_spec(), cfg.qoe
    results = [
        evaluate_predictor_decisions(
            registry[name](), policy, cal_traces, spec, w, guard_s=cfg.audit.guard_s,
            capacity_margin=cfg.audit.capacity_margin, history_len=cfg.history_len,
            tail_fraction=cfg.eval.tail_fraction, severe_threshold_s=cfg.eval.severe_threshold_s)
        for name in cfg.predictor.candidates
    ]
    report_dir = out / "reports"
    report_dir.mkdir(exist_ok=True)
    write_report_csv([r.report for r in results], report_dir / "predictors.csv")
    payload = dataclasses.asdict(result)
    payload.update({
        "fingerprint": calibration_fingerprint(cfg), "trace_set": split["trace_set"],
        "frozen_policy": policy_stem,
    })
    (out / "calibration.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    line = (f"calibrated scale={result.scale:.4f} from {result.n_windows} windows "
            f"(delta={result.delta}); scored {list(cfg.predictor.candidates)} under {policy_stem}")
    if split["test"]:
        lb = LowerBoundPredictor(point, result.scale)
        miss, n = coverage_miss_rate(lb, _load_traces(out, split["test"]))
        line += f"; test miss rate {miss:.3f} over {n} windows"
    print(line)
    print(_format_table([r.report for r in results]))
    return 0


def _load_calibrated_predictor(cfg: ExperimentConfig, out: Path, split: dict,
                               allow_stale: bool) -> LowerBoundPredictor:
    path = out / "calibration.json"
    if not path.exists():
        raise StageError(f"{path} not found; run `abrlab calibrate` first")
    payload = json.loads(path.read_text(encoding="utf-8"))
    _check_fresh("calibration.json", payload.get("fingerprint", ""), calibration_fingerprint(cfg),
                 payload.get("trace_set", ""), split, allow_stale)
    return LowerBoundPredictor(PointPredictor(cfg.predictor), payload["scale"])


def _method_policies(cfg: ExperimentConfig, out: Path, split: dict, allow_stale: bool) -> dict:
    """Map each requested method name to (policy, audited) lazily built."""
    spec, w = cfg.video.video_spec(), cfg.qoe
    table: dict[str, tuple] = {}
    for name in cfg.eval.methods:
        if name == "rate-rule":
            table[name] = (make_rate_rule_policy(), False)
        elif name == "bola":
            table[name] = (make_bola_policy(cfg.bola), False)
        elif name == "robust-mpc":
            table[name] = (make_robust_mpc_policy(spec, w, cfg.mpc), False)
        else:  # a cloned or fine-tuned policy; EvalSection admits only ALL_METHODS
            kind = "bc" if name in ("bc-only", "bc+audit") else "ppo"
            net, _ = _load_policy_checkpoint(cfg, out, kind, split, allow_stale)
            table[name] = (make_greedy_policy(net, spec, cfg.features), name in AUDITED_METHODS)
    return table


def _evaluate_method(name: str, policy, audited: bool, predictor, traces,
                     cfg: ExperimentConfig, margin: float) -> tuple[RiskReport, list]:
    spec, w = cfg.video.video_spec(), cfg.qoe
    ev = cfg.eval
    if audited:
        res = evaluate_predictor_decisions(
            predictor, policy, traces, spec, w, guard_s=cfg.audit.guard_s,
            capacity_margin=margin, history_len=cfg.history_len,
            tail_fraction=ev.tail_fraction, severe_threshold_s=ev.severe_threshold_s)
        return dataclasses.replace(res.report, method=name), res.logs
    logs = [run_session(tr, spec, w, policy, history_len=cfg.history_len) for tr in traces]
    report = build_report(name, logs, tail_fraction=ev.tail_fraction,
                          severe_threshold_s=ev.severe_threshold_s)
    return report, logs


def _write_session_rows(logs, path: Path) -> None:
    rows = [session_summary(log) for log in logs]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(rows[0].keys())
        wr.writerows(row.values() for row in rows)


def _format_table(reports) -> str:
    rows = [list(REPORT_COLUMNS)]
    for r in reports:
        d = dataclasses.asdict(r)
        rows.append(["" if d[c] is None else (f"{d[c]:.4f}" if isinstance(d[c], float) else str(d[c]))
                     for c in REPORT_COLUMNS])
    widths = [max(len(row[i]) for row in rows) for i in range(len(REPORT_COLUMNS))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    if "robust-mpc" in cfg.eval.methods and cfg.mpc.history_len > cfg.history_len:
        raise StageError(f"mpc.history_len ({cfg.mpc.history_len}) may not exceed history_len "
                         f"({cfg.history_len}), the throughput samples a session keeps")
    out = _out_dir(cfg)
    split = _read_split(out)
    test_traces = _load_traces(out, split["test"])
    if not test_traces:
        raise StageError("test split is empty")
    if args.handover_heavy:
        keep = set(handover_heavy_subset(test_traces, cfg.eval.handover_window_s,
                                         cfg.eval.handover_top_fraction))
        test_traces = [tr for tr in test_traces if tr.trace_id in keep]
    table = _method_policies(cfg, out, split, args.allow_stale)
    predictor = None
    if any(audited for _, audited in table.values()):
        predictor = _load_calibrated_predictor(cfg, out, split, args.allow_stale)
    report_dir = out / "reports"
    report_dir.mkdir(exist_ok=True)
    reports = []
    for name, (policy, audited) in table.items():
        report, logs = _evaluate_method(name, policy, audited, predictor, test_traces,
                                        cfg, cfg.audit.capacity_margin)
        reports.append(report)
        _write_session_rows(logs, report_dir / f"sessions_{name.replace('+', '_')}.csv")
    write_report_csv(reports, report_dir / "methods.csv")
    write_report_json(reports, report_dir / "methods.json")
    if args.margin_grid:
        grid_reports = []
        for name, (policy, audited) in table.items():
            if not audited:
                continue
            unaudited, _ = _evaluate_method(f"{name}@no-audit", policy, False, None,
                                            test_traces, cfg, 0.0)
            grid_reports.append(unaudited)
            for margin in cfg.eval.margin_grid:
                report, _ = _evaluate_method(name, policy, True, predictor, test_traces, cfg, margin)
                grid_reports.append(dataclasses.replace(report, method=f"{name}@margin={_fmt_num(margin)}"))
        if not grid_reports:
            raise StageError("--margin-grid needs at least one audited method (bc+audit or full)")
        write_report_csv(grid_reports, report_dir / "margin_grid.csv")
    suffix = " (handover-heavy subset)" if args.handover_heavy else ""
    print(f"evaluated {len(reports)} methods on {len(test_traces)} test traces{suffix}")
    print(_format_table(reports))
    return 0


def cmd_report(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.output_dir)
    path = out / "reports" / "methods.csv"
    if not path.exists():
        raise StageError(f"{path} not found; run `abrlab evaluate` first")
    print(_format_table(read_report_csv(path)))
    grid = out / "reports" / "margin_grid.csv"
    if grid.exists():
        print()
        print(_format_table(read_report_csv(grid)))
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="abrlab",
                                     description="Risk-calibrated adaptive bitrate laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, seed=True, lam=False, audit=False, eval_flags=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="experiment YAML (defaults apply when omitted)")
        p.add_argument("--out", help="run directory (overrides config output_dir)")
        if seed:
            p.add_argument("--seed", type=int, help="override experiment seed")
        if lam:
            p.add_argument("--lambda", dest="lambda_", type=float,
                           help="override tail-risk penalty weight")
        if audit:
            p.add_argument("--margin", type=float, help="override audit capacity margin")
            p.add_argument("--guard", type=float, help="override audit guard seconds")
            p.add_argument("--allow-stale", action="store_true",
                           help="use artifacts whose fingerprint no longer matches the config")
        if eval_flags:
            p.add_argument("--methods", help="comma-separated subset of methods to evaluate")
            p.add_argument("--handover-heavy", action="store_true",
                           help="restrict to the most handover-dense test traces")
            p.add_argument("--margin-grid", action="store_true",
                           help="also sweep audited methods over eval.margin_grid")
        p.set_defaults(fn=fn)
        return p

    add("gen-traces", cmd_gen_traces, "synthesize traces and write the split")
    p_ing = add("ingest", cmd_ingest, "import external throughput CSVs", seed=False)
    p_ing.add_argument("files", nargs="+", help="CSV files with time_s,throughput_bps rows")
    add("split", cmd_split, "re-partition the trace pool into train/calibration/test")
    add("pretrain", cmd_pretrain, "clone the planning expert into a neural policy")
    p_ft = add("finetune", cmd_finetune, "risk-shaped policy-gradient fine-tuning", lam=True)
    p_ft.add_argument("--allow-stale", action="store_true",
                      help="start from a checkpoint whose fingerprint no longer matches")
    p_ft.add_argument("--resume", action="store_true",
                      help="continue a partially fine-tuned checkpoint up to the configured steps")
    add("calibrate", cmd_calibrate, "fit the lower-bound scale and score predictor candidates",
        lam=True, audit=True)
    add("evaluate", cmd_evaluate, "score methods on the test split", lam=True, audit=True,
        eval_flags=True)
    add("report", cmd_report, "print the latest evaluation tables", seed=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (StageError, ValueError, OSError, RuntimeError) as exc:
        print(f"abrlab {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
