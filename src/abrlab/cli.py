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
    <out>/reports/methods.{csv,json}      per-method risk table of the last `evaluate`
    <out>/reports/sessions_<method>.csv   per-session rows of each method it evaluated
    <out>/reports/margin_grid.csv         its audited methods across eval.margin_grid, if asked

Checkpoints and the calibration record carry a fingerprint of the config
slice that produced them and a digest of the trace set they were built on;
`finetune`, `calibrate` and `evaluate` refuse stale artifacts unless
--allow-stale is passed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from functools import cached_property, partial
from pathlib import Path

from .capacity import (LowerBoundPredictor, PointPredictor, calibrate_lower_bound, candidate_auditors,
                       coverage_miss_rate, replay)
from .config import (METHODS, ExperimentConfig, bc_fingerprint, calibration_fingerprint,
                     load_config, ppo_fingerprint, save_config, traces_fingerprint, with_overrides)
from .imitation import pretrain
from .metrics import REPORT_COLUMNS, read_report_csv, write_report_csv, write_report_json
from .net import load_checkpoint, make_greedy_policy, save_checkpoint
from .policies import make_bola_policy, make_rate_rule_policy, make_robust_mpc_policy
from .risk_ppo import finetune
# run_session is not called here but stays bound: the benchmark tests check this binding.
from .sim import run_session  # noqa: F401
from .traces import handover_heavy_subset, ingest_trace, split_traces, synthesize_trace, write_trace

# checkpoint kind -> (config fingerprint, stage that writes it, suffix of its side JSON)
CHECKPOINTS = {"bc": (bc_fingerprint, "pretrain", "history"),
               "ppo": (ppo_fingerprint, "finetune", "curve")}


class StageError(RuntimeError):
    """Pipeline failure with a user-facing message."""


def _fmt_num(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else repr(float(x))


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


class RunContext:
    """What every stage shares: the resolved config, the run-directory paths,
    the split (read once), fingerprinted checkpoints, policies and auditors,
    and one evaluator that replays each distinct run once."""

    def __init__(self, args):
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        opt = vars(args).get  # each stage has only its own options
        self.cfg = with_overrides(cfg, seed=opt("seed"), out=args.out, penalty_weight=opt("lambda_"),
                                  margin=opt("margin"), guard=opt("guard"),
                                  methods=tuple(opt("methods").split(",")) if opt("methods") else None)
        self.args = args
        self.w = self.cfg.qoe
        self.out = Path(self.cfg.output_dir)
        self.trace_dir = self.out / "traces"
        self.ckpt_dir = self.out / "checkpoints"
        self.report_dir = self.out / "reports"
        self._policies: dict = {}  # policy kind -> its policy, built once
        self._runs: dict = {}  # run key -> (risk report, session rows), replayed once

    @cached_property
    def spec(self):
        return self.cfg.video.video_spec()

    def write_split(self, ids: list[str]) -> str:
        """Snapshot the config, write split.json and return its part sizes."""
        save_config(self.cfg, self.out / "config.yaml")
        train, cal, test = split_traces(ids, self.cfg.traces.split_fractions, self.cfg.seed)
        digest = hashlib.sha256(json.dumps(sorted(ids)).encode("utf-8")).hexdigest()[:16]
        _write_json(self.out / "split.json", {
            "config_fingerprint": traces_fingerprint(self.cfg), "trace_set": digest,
            "seed": self.cfg.seed, "train": train, "calibration": cal, "test": test})
        return f"{len(train)}/{len(cal)}/{len(test)}"

    @cached_property
    def split(self) -> dict:
        path = self.out / "split.json"
        if not path.exists():
            raise StageError(f"{path} not found; run `abrlab gen-traces` or `abrlab split` first")
        return json.loads(path.read_text(encoding="utf-8"))

    def traces(self, part: str) -> list:
        """The traces of one part of the split: train, calibration or test."""
        traces = []
        for tid in self.split[part]:
            path = self.trace_dir / f"{tid}.csv"
            if not path.exists():
                raise StageError(f"trace {tid!r} listed in split.json but {path} is missing")
            traces.append(ingest_trace(path))
        return traces

    def stamp(self, fingerprint: str) -> dict:
        """What an artifact built now records: its config fingerprint and trace set."""
        return {"fingerprint": fingerprint, "trace_set": self.split["trace_set"]}

    def check_fresh(self, what: str, record: dict, expected: dict) -> None:
        """Refuse, or under --allow-stale warn about, a record unlike `expected`."""
        problems = [f"{label} {record.get(key, '')} != current {expected[key]}"
                    for key, label in (("fingerprint", "config fingerprint"), ("trace_set", "trace set"))
                    if record.get(key, "") != expected[key]]
        if problems:
            msg = f"{what} is stale ({'; '.join(problems)}); rebuild it or pass --allow-stale"
            if not vars(self.args).get("allow_stale"):
                raise StageError(msg)
            print(f"warning: {msg}", file=sys.stderr)

    def stem(self, kind: str) -> str:
        """File stem of the `bc` (cloned) or `ppo` (fine-tuned) checkpoint."""
        lam = "" if kind == "bc" else f"_lambda{_fmt_num(self.cfg.cvar.penalty_weight)}"
        return f"{kind}{lam}_seed{self.cfg.seed}"

    def ckpt_path(self, kind: str) -> Path:
        return self.ckpt_dir / f"{self.stem(kind)}.ckpt"

    def side_path(self, kind: str) -> Path:
        return self.ckpt_dir / f"{self.stem(kind)}_{CHECKPOINTS[kind][2]}.json"

    def load_policy(self, kind: str):
        fingerprint, stage, _ = CHECKPOINTS[kind]
        expected = self.stamp(fingerprint(self.cfg))  # no split, no checkpoint to trust
        path = self.ckpt_path(kind)
        if not path.exists():
            raise StageError(f"{path} not found; run `abrlab {stage}` first")
        net, meta = load_checkpoint(path)
        self.check_fresh(path.name, meta, expected)
        return net

    def save_policy(self, kind: str, net, side: list, meta: dict | None = None) -> None:
        self.ckpt_dir.mkdir(exist_ok=True)
        save_checkpoint(self.ckpt_path(kind), net, {"kind": kind, "seed": self.cfg.seed, **(meta or {}),
                                                    **self.stamp(CHECKPOINTS[kind][0](self.cfg))})
        _write_json(self.side_path(kind), side)

    def policy(self, kind: str):
        """The policy of a `config.METHODS` kind: a rule, a planner or a checkpoint's greedy net."""
        if kind not in self._policies:
            cfg = self.cfg
            if kind in CHECKPOINTS:
                policy = make_greedy_policy(self.load_policy(kind), self.spec, cfg.features)
            else:
                policy = {"rate-rule": make_rate_rule_policy, "bola": partial(make_bola_policy, cfg.bola),
                          "robust-mpc": partial(make_robust_mpc_policy, self.spec, self.w, cfg.mpc)}[kind]()
            self._policies[kind] = policy
        return self._policies[kind]

    @cached_property
    def auditors(self) -> dict:
        """capacity.candidate_auditors at calibration.json's lower-bound scale."""
        path = self.out / "calibration.json"
        if not path.exists():
            raise StageError(f"{path} not found; run `abrlab calibrate` first")
        payload = json.loads(path.read_text(encoding="utf-8"))
        self.check_fresh(path.name, payload, self.stamp(calibration_fingerprint(self.cfg)))
        return candidate_auditors(self.cfg.predictor, payload["scale"])

    def evaluate(self, label: str, kind: str, traces, auditor: str | None = None,
                 margin: float | None = None):
        """(risk report named `label`, session rows) of `capacity.replay` of
        policy `kind` on `traces`, audited by `auditors[auditor]` at `margin` or
        the configured one when given. A run is replayed once per stage: a
        repeat comes back relabeled."""
        cfg = self.cfg
        audit = cfg.audit if margin is None else dataclasses.replace(cfg.audit, capacity_margin=margin)
        key = (kind, tuple(trace.trace_id for trace in traces), auditor, audit if auditor else None)
        if key not in self._runs:
            self._runs[key] = replay(label, self.policy(kind), traces, self.spec, self.w,
                                     self.auditors[auditor] if auditor else None, audit,
                                     history_len=cfg.history_len, tail_fraction=cfg.eval.tail_fraction,
                                     severe_threshold_s=cfg.eval.severe_threshold_s)[:2]
        report, rows = self._runs[key]
        return dataclasses.replace(report, method=label), rows


# ---------------------------------------------------------------- stages


def cmd_gen_traces(ctx: RunContext) -> int:
    cfg = ctx.cfg
    if cfg.traces.count <= 0:
        raise StageError("traces.count must be positive")
    ctx.trace_dir.mkdir(parents=True, exist_ok=True)
    ids = []
    for i in range(cfg.traces.count):
        tr = synthesize_trace(cfg.traces.synth_config(seed=(cfg.seed, 11, i)), trace_id=f"synth-{i:04d}")
        write_trace(tr, ctx.trace_dir)
        ids.append(tr.trace_id)
    print(f"generated {len(ids)} traces in {ctx.trace_dir} (split {ctx.write_split(ids)})")
    return 0


def cmd_ingest(ctx: RunContext) -> int:
    traces, paths = [], {}  # every file is read and checked before any is written
    for src in ctx.args.files:
        tr = ingest_trace(src)
        if tr.trace_id in paths:
            raise StageError(f"{paths[tr.trace_id]} and {src} would both be trace {tr.trace_id!r}")
        paths[tr.trace_id] = src
        traces.append(tr)
    ctx.trace_dir.mkdir(parents=True, exist_ok=True)
    for tr in traces:
        write_trace(tr, ctx.trace_dir)
    total_s = sum(tr.duration_s for tr in traces)
    print(f"ingested {len(traces)} traces ({total_s:.0f} s total) into {ctx.trace_dir}; "
          f"run `abrlab split` to refresh split.json")
    return 0


def cmd_split(ctx: RunContext) -> int:
    ids = sorted(p.stem for p in ctx.trace_dir.glob("*.csv"))
    if not ids:
        raise StageError(f"no traces in {ctx.trace_dir}; run `abrlab gen-traces` or `abrlab ingest` first")
    print(f"split {len(ids)} traces into {ctx.write_split(ids)}")
    return 0


def cmd_pretrain(ctx: RunContext) -> int:
    cfg = ctx.cfg
    net, history = pretrain(ctx.traces("train"), ctx.spec, ctx.w, cfg.bc, cfg.features,
                            seed=cfg.seed, history_len=cfg.history_len)
    ctx.save_policy("bc", net, history)
    last = history[-1] if history else {}
    print(f"pretrained {ctx.stem('bc')}.ckpt: rounds={len(history)} dataset={last.get('dataset_size', 0)} "
          f"loss={last.get('loss', float('nan')):.4f} agreement={last.get('agreement', float('nan')):.3f}")
    return 0


def cmd_finetune(ctx: RunContext) -> int:
    cfg = ctx.cfg
    tuned, curve = finetune(ctx.load_policy("bc"), ctx.traces("train"), ctx.spec, ctx.w, cfg.ppo, cfg.cvar,
                            cfg.features, seed=cfg.seed, history_len=cfg.history_len)
    last = curve[-1]  # ppo.total_steps >= 1, so there is at least one update
    ctx.save_policy("ppo", tuned, curve, {"lambda": cfg.cvar.penalty_weight, "steps_trained": last["steps"]})
    print(f"finetuned {ctx.stem('ppo')}.ckpt: updates={len(curve)} steps={last['steps']} "
          f"mean_qoe={last['mean_episode_qoe']:.3f} mean_rebuf={last['mean_episode_rebuffer_s']:.3f}s")
    return 0


def cmd_calibrate(ctx: RunContext) -> int:
    cfg = ctx.cfg
    frozen = "ppo" if ctx.ckpt_path("ppo").exists() else "bc"
    ctx.policy(frozen)  # a stale checkpoint is refused before anything is written
    cal_traces = ctx.traces("calibration")
    point = PointPredictor(cfg.predictor)
    result = calibrate_lower_bound(point, cal_traces)
    _write_json(ctx.out / "calibration.json", {**dataclasses.asdict(result),
                                               **ctx.stamp(calibration_fingerprint(cfg)),
                                               "frozen_policy": ctx.stem(frozen)})
    # Each candidate is scored through the auditors `evaluate` builds from that file.
    reports = [ctx.evaluate(name, frozen, cal_traces, name)[0] for name in cfg.predictor.candidates]
    ctx.report_dir.mkdir(exist_ok=True)
    write_report_csv(reports, ctx.report_dir / "predictors.csv")
    line = (f"calibrated scale={result.scale:.4f} from {result.n_windows} windows "
            f"(delta={result.delta}); scored {list(cfg.predictor.candidates)} under {ctx.stem(frozen)}")
    if ctx.split["test"]:
        miss, n = coverage_miss_rate(LowerBoundPredictor(point, result.scale), ctx.traces("test"))
        line += f"; test miss rate {miss:.3f} over {n} windows"
    print(line)
    print(_format_table(reports))
    return 0


def _format_table(reports) -> str:
    rows = [list(REPORT_COLUMNS)]
    for r in reports:
        d = dataclasses.asdict(r)
        rows.append(["" if d[c] is None else (f"{d[c]:.4f}" if isinstance(d[c], float) else str(d[c]))
                     for c in REPORT_COLUMNS])
    widths = [max(len(row[i]) for row in rows) for i in range(len(REPORT_COLUMNS))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def cmd_evaluate(ctx: RunContext) -> int:
    cfg, args = ctx.cfg, ctx.args
    plan = {name: METHODS[name] for name in cfg.eval.methods}  # name -> (policy kind, auditor)
    audited = [name for name, (_, auditor) in plan.items() if auditor]
    if args.margin_grid and not audited:
        raise StageError("--margin-grid needs at least one audited method (bc+audit or full)")
    test_traces = ctx.traces("test")
    if not test_traces:
        raise StageError("test split is empty")
    if args.handover_heavy:
        keep = set(handover_heavy_subset(test_traces, cfg.eval.handover_window_s,
                                         cfg.eval.handover_top_fraction))
        test_traces = [tr for tr in test_traces if tr.trace_id in keep]
    for kind, auditor in plan.values():
        ctx.policy(kind)  # a missing or stale checkpoint or calibration fails before any replay
        if auditor:
            ctx.auditors[auditor]
    runs = {name: ctx.evaluate(name, kind, test_traces, auditor) for name, (kind, auditor) in plan.items()}
    grid = []
    for name in audited if args.margin_grid else ():
        kind, auditor = plan[name]
        grid.append(ctx.evaluate(f"{name}@no-audit", kind, test_traces)[0])
        grid += [ctx.evaluate(f"{name}@margin={_fmt_num(m)}", kind, test_traces, auditor, m)[0]
                 for m in cfg.eval.margin_grid]
    # What an earlier evaluation left and this one does not write would read as current.
    ctx.report_dir.mkdir(exist_ok=True)
    for path in [*ctx.report_dir.glob("sessions_*.csv"), ctx.report_dir / "margin_grid.csv"]:
        path.unlink(missing_ok=True)
    reports = [report for report, _ in runs.values()]
    for name, (_, rows) in runs.items():
        with open(ctx.report_dir / f"sessions_{name.replace('+', '_')}.csv", "w", newline="",
                  encoding="utf-8") as fh:
            csv.writer(fh).writerows([rows[0].keys(), *(row.values() for row in rows)])
    write_report_csv(reports, ctx.report_dir / "methods.csv")
    write_report_json(reports, ctx.report_dir / "methods.json")
    if grid:
        write_report_csv(grid, ctx.report_dir / "margin_grid.csv")
    suffix = " (handover-heavy subset)" if args.handover_heavy else ""
    print(f"evaluated {len(reports)} methods on {len(test_traces)} test traces{suffix}")
    print(_format_table(reports))
    return 0


def cmd_report(ctx: RunContext) -> int:
    path, grid = ctx.report_dir / "methods.csv", ctx.report_dir / "margin_grid.csv"
    if not path.exists():
        raise StageError(f"{path} not found; run `abrlab evaluate` first")
    print("\n\n".join(_format_table(read_report_csv(p)) for p in (path, grid) if p.exists()))
    return 0


# ---------------------------------------------------------------- parser


# Each stage's own options; every stage also takes --config and --out.
FLAGS = {
    "--config": {"help": "experiment YAML (defaults apply when omitted)"},
    "--out": {"help": "run directory (overrides config output_dir)"},
    "--seed": {"type": int, "help": "override experiment seed"},
    "--lambda": {"dest": "lambda_", "type": float, "help": "override tail-risk penalty weight"},
    "--margin": {"type": float, "help": "override audit capacity margin"},
    "--guard": {"type": float, "help": "override audit guard seconds"},
    "--allow-stale": {"action": "store_true",
                      "help": "use artifacts whose fingerprint no longer matches the config"},
    "--methods": {"help": "comma-separated subset of methods to evaluate"},
    "--handover-heavy": {"action": "store_true", "help": "restrict to the most handover-dense test traces"},
    "--margin-grid": {"action": "store_true", "help": "also sweep audited methods over eval.margin_grid"},
}
AUDIT_FLAGS = ("--seed", "--lambda", "--margin", "--guard", "--allow-stale")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="abrlab",
                                     description="Risk-calibrated adaptive bitrate laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *flags):
        p = sub.add_parser(name, help=help_)
        for flag in ("--config", "--out", *flags):
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(fn=fn)
        return p

    add("gen-traces", cmd_gen_traces, "synthesize traces and write the split", "--seed")
    add("ingest", cmd_ingest, "import external throughput CSVs").add_argument(
        "files", nargs="+", help="CSV files with time_s,throughput_bps rows")
    add("split", cmd_split, "re-partition the trace pool into train/calibration/test", "--seed")
    add("pretrain", cmd_pretrain, "clone the planning expert into a neural policy", "--seed")
    add("finetune", cmd_finetune, "risk-shaped policy-gradient fine-tuning",
        "--seed", "--lambda", "--allow-stale")
    add("calibrate", cmd_calibrate, "fit the lower-bound scale and score predictor candidates",
        *AUDIT_FLAGS)
    add("evaluate", cmd_evaluate, "score methods on the test split",
        *AUDIT_FLAGS, "--methods", "--handover-heavy", "--margin-grid")
    add("report", cmd_report, "print the latest evaluation tables")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(RunContext(args))
    except (StageError, ValueError, OSError, RuntimeError) as exc:
        print(f"abrlab {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
