"""The three benchmark workloads and the runner that times and checks them.

Each workload drives the real CLI in process through `abrlab.cli.main`, on a
config derived from `configs/default.yaml` and the seed given on the command
line. Set-up stages run repeatedly, each time into a fresh run directory; then
the timed stages repeat on the last one until the time budget is spent.
Every repetition computes the same thing, so every repetition must leave
byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import abrlab.cli
from abrlab.config import (bc_fingerprint, calibration_fingerprint, config_from_dict, load_config,
                           ppo_fingerprint, save_config, traces_fingerprint, with_overrides)
from abrlab.net import load_checkpoint, make_greedy_policy
from abrlab.policies import beam_expert_decide
from abrlab.sim import SessionEnv
from abrlab.traces import ingest_trace

import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# Set-up repeats at least SETUP_REPEATS times and for SETUP_SECONDS, so that
# a set-up of a fraction of a second is still timed over many samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
MIN_REPS = 3
# Visited states checked against the oracle: chunk indices on each sampled
# trace. The last two are clipped by the end of the session.
ORACLE_TRACES = 2
ORACLE_CHUNKS = (0, 17, 31, 45, 47)

# Small training budgets for set-up stages whose output is only an input. The
# cloned policy must be good enough that no evaluated session outruns its trace.
SMALL_BC = {"dagger_iterations": 2, "rollout_steps": 400, "epochs": 30}
SMALL_PPO = {"total_steps": 2048}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict          # config section -> {key: value}, applied to configs/default.yaml
    setup: tuple             # CLI stages run before timing
    timed: tuple             # CLI stages timed as one repetition


WORKLOADS = {w.name: w for w in (
    Workload(
        "clone",
        "pretrain, 2 DAgger rounds of 1000 states: the clairvoyant planner dominates",
        {"bc": {"dagger_iterations": 2, "rollout_steps": 1000}},
        setup=(("gen-traces",),),
        timed=(("pretrain",),),
    ),
    Workload(
        "finetune",
        "finetune at the default ppo settings, 8192 steps: rollouts and batched updates, no planner",
        {"bc": SMALL_BC, "ppo": {"total_steps": 8192}},
        setup=(("gen-traces",), ("pretrain",)),
        timed=(("finetune",),),
    ),
    Workload(
        "evaluate",
        "calibrate then evaluate --margin-grid on 24 test traces: inference and replay, no training",
        {"traces": {"count": 40, "split_train": 0.2, "split_calibration": 0.2, "split_test": 0.6},
         "bc": SMALL_BC, "ppo": SMALL_PPO},
        setup=(("gen-traces",), ("pretrain",), ("finetune",)),
        timed=(("calibrate",), ("evaluate", "--margin-grid")),
    ),
)}


# ------------------------------------------------------------------ metrics

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("decisions_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

# Spans reported as calls / total_s / self_s, plus p50_us / p99_us where marked.
SPANS = (
    ("policies.beam_expert_decide", True),
    ("policies.bulk_download_times", False),
    ("policies.trace_cumulative_bytes", False),
    ("policies.robust_mpc_decide", True),
    ("policies.throughput_estimate", False),
    ("sim.SessionEnv.step", True),
    ("sim.download_chunk", False),
    ("sim.SessionEnv.__init__", False),
    ("sim.chunk_sizes", False),
    ("sim.run_session", False),
    ("net.forward", True),
    ("net.featurize", False),
    ("net.backward", False),
    ("net.Adam.step", False),
    ("net.greedy_decide", False),
    ("imitation.imitation_loss", False),
    ("imitation.dagger_round", False),
    ("risk_ppo.RolloutCollector.collect", False),
    ("risk_ppo.ppo_update", False),
    ("risk_ppo.gae_advantages", False),
    ("capacity.calibration_ratios", False),
    ("capacity.coverage_miss_rate", False),
    ("capacity.PointPredictor.predict", False),
    ("capacity.evaluate_predictor_decisions", False),
    ("auditor.decide", False),
    ("traces.ingest_trace", False),
    ("metrics.build_report", False),
    ("cli.cmd_pretrain", False),
    ("cli.cmd_finetune", False),
    ("cli.cmd_calibrate", False),
    ("cli.cmd_evaluate", False),
)

COUNTERS = (
    ("net.forward.rows", "count"),
    ("auditor.decide.interventions", "count"),
    ("auditor.decide.fallbacks", "count"),
    ("auditor.intervention_ratio", "ratio"),
    ("sim.run_session.truncated", "count"),
    ("risk_ppo.episodes", "count"),
    ("imitation.states_labeled", "count"),
    ("trace.overhead_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.outside_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.spans", "count"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for span, percentiles in SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.total_s", "s"), (f"{span}.self_s", "s")]
        if percentiles:
            out += [(f"{span}.p50_us", "us"), (f"{span}.p99_us", "us")]
    return out + list(COUNTERS)


def benchmark_spec(run_seconds: int) -> dict:
    """The content of BENCHMARK.json. Per-layer metrics count work or time,
    so less is better for each of them."""
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in per_layer_metrics()],
    }


# ------------------------------------------------------------------ run helpers


class SetupError(RuntimeError):
    """A set-up stage failed, so there is nothing to measure."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = dataclasses.field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def workload_config(wl: Workload, seed: int):
    """configs/default.yaml with the workload's overrides and the given seed."""
    cfg = load_config(ROOT / "configs" / "default.yaml")
    raw = dataclasses.asdict(cfg)
    for section, values in wl.overrides.items():
        raw[section].update(values)
    raw["seed"] = seed
    return config_from_dict(raw)


class Run:
    """One workload in one run directory."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "run"
        self.config_path = workdir / "config.yaml"
        self.log_path = workdir / "stages.log"
        self.cfg = with_overrides(workload_config(wl, seed), out=str(self.out))
        save_config(self.cfg, self.config_path)

    def stage(self, argv) -> int:
        full = [argv[0], "--config", str(self.config_path), "--out", str(self.out),
                "--seed", str(self.seed), *argv[1:]]
        with open(self.log_path, "a", encoding="utf-8") as log, contextlib.redirect_stdout(log):
            return abrlab.cli.main(full)

    def setup(self) -> float:
        shutil.rmtree(self.out, ignore_errors=True)
        start = time.perf_counter()
        for argv in self.wl.setup:
            code = self.stage(argv)
            if code != 0:
                raise SetupError(f"set-up stage {argv[0]} exited with {code}; see {self.log_path}")
        return time.perf_counter() - start

    def timed_rep(self, tally: Tally) -> tuple[float, float]:
        """Run the timed stages once; (wall seconds, process CPU seconds)."""
        codes = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for argv in self.wl.timed:
            codes.append(self.stage(argv))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        for argv, code in zip(self.wl.timed, codes):
            tally.check(code == 0, f"stage {argv[0]} exited with {code}")
        return wall, cpu

    # -------------------------------------------------------------- outputs

    def outputs(self) -> list[Path]:
        ckpt = self.out / "checkpoints"
        # An unmatched glob stays in the list as a path that does not exist.
        return {
            "clone": [ckpt / f"bc_seed{self.seed}.ckpt"],
            "finetune": sorted(ckpt.glob(f"ppo_lambda*_seed{self.seed}.ckpt"))
            or [ckpt / f"ppo_lambda*_seed{self.seed}.ckpt"],
            "evaluate": [self.out / "reports" / "methods.csv",
                         self.out / "reports" / "margin_grid.csv"],
        }[self.wl.name]

    def digests(self) -> dict[str, str]:
        return {p.name: _sha256(p) if p.exists() else "missing" for p in self.outputs()}

    def check_outputs(self, tally: Tally) -> None:
        """Finite checkpoint parameters, finite report cells, no truncated session."""
        for path in self.outputs():
            if not path.exists():
                tally.check(False, f"{path.name} missing")
            elif path.suffix == ".ckpt":
                net, _ = load_checkpoint(path)
                tally.check(bool(np.all(np.isfinite(net.params))), f"{path.name}: non-finite parameter")
            else:
                cells = [v for row in _rows(path) for k, v in row.items() if k != "method" and v]
                tally.check(all(math.isfinite(float(c)) for c in cells), f"{path.name}: non-finite cell")
        if self.wl.name == "evaluate":
            for path in sorted((self.out / "reports").glob("sessions_*.csv")):
                for row in _rows(path):
                    tally.check(row["truncated"] == "0", f"{path.name}: truncated session")

    def decisions(self) -> int:
        """Chunk decisions in one repetition, read back from its outputs."""
        ckpt = self.out / "checkpoints"
        if self.wl.name == "clone":
            history = json.loads((ckpt / f"bc_seed{self.seed}_history.json").read_text())
            return int(history[-1]["dataset_size"])
        if self.wl.name == "finetune":
            ckpt_path = self.outputs()[0]
            curve = json.loads(ckpt_path.with_name(ckpt_path.stem + "_curve.json").read_text())
            return int(curve[-1]["steps"])
        # Sessions of the margin grid are not written out; none is truncated
        # (checked on the method tables), so each has num_chunks decisions.
        reports = self.out / "reports"
        chunks = sum(int(row["chunks"]) for path in reports.glob("sessions_*.csv")
                     for row in _rows(path))
        grid = sum(int(row["n_sessions"]) for row in _rows(reports / "margin_grid.csv"))
        return chunks + grid * self.cfg.video.num_chunks

    def check_expert_labels(self, tally: Tally) -> None:
        """Compare beam_expert_decide with the oracle on states the cloned policy visits."""
        spec, w = self.cfg.video.video_spec(), self.cfg.qoe
        net, _ = load_checkpoint(self.outputs()[0])
        policy = make_greedy_policy(net, spec, self.cfg.features)
        split = json.loads((self.out / "split.json").read_text())
        rng = np.random.default_rng([self.seed, 5])
        picks = rng.choice(len(split["train"]), size=ORACLE_TRACES, replace=False)
        for i in sorted(picks):
            trace = ingest_trace(self.out / "traces" / f"{split['train'][i]}.csv")
            env = SessionEnv(trace, spec, w, history_len=self.cfg.history_len)
            state = env.reset()
            while state is not None:
                if state.chunk_index in ORACLE_CHUNKS:
                    h = self.cfg.bc.expert_horizon
                    label = beam_expert_decide(state, trace, spec, w, h)
                    tally.check(oracle.label_agrees(label, state, trace, spec, w, h),
                                f"expert label {label} rejected by the oracle at "
                                f"{trace.trace_id} chunk {state.chunk_index}")
                state, _, _ = env.step(policy(state))

    def fingerprints(self) -> dict[str, str]:
        return {"traces": traces_fingerprint(self.cfg), "bc": bc_fingerprint(self.cfg),
                "ppo": ppo_fingerprint(self.cfg), "calibration": calibration_fingerprint(self.cfg)}


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def run_record(run: Run, seconds: int, trace: bool) -> dict:
    return {
        "workload": run.wl.name,
        "seed": run.seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                        "MKL_NUM_THREADS")},
        "loadavg": list(os.getloadavg()),
        "config_fingerprints": run.fingerprints(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ entry


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload; returns the result object (correct/attempted/failed/metrics)."""
    wl = WORKLOADS[name]
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(wl, seed, workdir)
    record = run_record(run, seconds, trace)
    tally = Tally()

    setups = [run.setup()]
    while not trace and (len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS):
        setups.append(run.setup())

    walls, cpus, digests = [], [], []
    budget0 = time.perf_counter()
    while True:
        wall, cpu = run.timed_rep(tally)
        walls.append(wall)
        cpus.append(cpu)
        digests.append(run.digests())
        run.check_outputs(tally)
        spent = time.perf_counter() - budget0
        if len(walls) >= MIN_REPS and (trace or spent + statistics.median(walls) > seconds):
            break
    decisions = run.decisions()

    if trace:
        rec = tracing.SpanRecorder()
        inst = tracing.install(rec)
        try:
            traced_wall, _ = run.timed_rep(tally)
        finally:
            inst.uninstall()
        digests.append(run.digests())
        run.check_outputs(tally)
        rec.write(workdir / "spans.npz")
        metrics = layer_metrics(rec, traced_wall, traced_wall - statistics.median(walls), tally)
    else:
        wall = statistics.median(walls)
        values = {"setup_s": statistics.median(setups), "wall_s": wall,
                  "cpu_s": statistics.median(cpus), "decisions_per_s": decisions / wall,
                  "peak_rss_mb": _peak_rss_mb()}
        metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}

    for d in digests[1:]:
        tally.check(d == digests[0], f"outputs differ between repetitions: {d} vs {digests[0]}")
    if wl.name == "clone":
        run.check_expert_labels(tally)

    record.update({"setup_s": setups, "rep_wall_s": walls, "rep_cpu_s": cpus,
                   "decisions_per_rep": decisions, "digests": digests[0],
                   "attempted": tally.attempted, "failed": tally.failed, "failures": tally.notes})
    (workdir / "run_record.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"run record: {json.dumps({k: v for k, v in record.items() if k != 'failures'})}")
    for fname, digest in digests[0].items():
        print(f"digest {fname} sha256={digest}")
    for note in tally.notes[:20]:
        print(f"FAILED: {note}")
    print(f"error_ratio = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for n, m in metrics.items():
        print(f"{wl.name} {n} = {m['value']:.6g} {m['unit']}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def layer_metrics(rec: tracing.SpanRecorder, traced_wall: float, overhead: float,
                  tally: Tally) -> dict[str, dict]:
    summary = tracing.summarize(rec)
    values: dict[str, float] = {}
    for span, percentiles in SPANS:
        s = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": np.zeros(0)})
        values[f"{span}.calls"] = s["calls"]
        values[f"{span}.total_s"] = s["total_s"]
        values[f"{span}.self_s"] = s["self_s"]
        if percentiles:
            d = s["durations"] * 1e6
            values[f"{span}.p50_us"] = float(np.percentile(d, 50)) if d.size else 0.0
            values[f"{span}.p99_us"] = float(np.percentile(d, 99)) if d.size else 0.0
    decides = summary.get("auditor.decide", {"calls": 0})["calls"]
    roots = summary["<roots>"]
    values.update({k: rec.counters[k] for k, _ in COUNTERS if k in rec.counters})
    values.update({
        "auditor.intervention_ratio": rec.counters["auditor.decide.interventions"] / decides
        if decides else 0.0,
        "trace.overhead_s": overhead,
        "trace.wall_s": traced_wall,
        "trace.outside_s": traced_wall - roots["total_s"],
        "trace.self_sum_s": roots["self_sum_s"],
        "trace.spans": len(rec),
    })
    tally.check(abs(roots["self_sum_s"] - roots["total_s"]) <= 1e-6 * max(traced_wall, 1.0),
                "span self times do not add up to the root spans")
    return {n: {"value": values.get(n, 0), "unit": u} for n, u in per_layer_metrics()}
