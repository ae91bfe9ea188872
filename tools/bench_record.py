"""Record one BENCH_<label>.json from repeated runs of the benchmark.

    python3 tools/bench_record.py --label 25 --seed 7 --seconds 35 --repeats 5

Runs `python3 benchmarks/run.py --workload all --seed S --seconds N` R times
in the checkout given by --root (default: this repository) and writes
BENCH_<label>.json (to --out, default the current directory). For each
workload the file holds the median and quartiles of every end-to-end metric
over the R runs, and the output digests the runs printed (a file whose
digest differs between runs lists every value seen). For each run it keeps
the run records, the operation counts and whether the run's checks passed.
The benchmark itself is read, never changed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RECORD_PREFIX = "run record: "
DIGEST_PREFIX = "digest "


def parse_run(stdout: str) -> dict:
    """One `run.py --workload all` output: its closing JSON result, with the
    metrics split by workload, the digests each workload printed and the
    run records in workload order."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("benchmark printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ValueError(f"benchmark output does not end with its JSON result: {lines[-1]!r}") from exc
    metrics: dict[str, dict[str, dict]] = {}
    for name, metric in result["metrics"].items():
        workload, _, key = name.partition(".")
        metrics.setdefault(workload, {})[key] = metric
    records, digests, workload = [], {}, None
    for line in lines[:-1]:
        if line.startswith(RECORD_PREFIX):
            records.append(json.loads(line[len(RECORD_PREFIX):]))
            workload = records[-1]["workload"]
        elif line.startswith(DIGEST_PREFIX):
            fname, _, digest = line[len(DIGEST_PREFIX):].partition(" sha256=")
            if workload is None or not digest:
                raise ValueError(f"digest line out of place: {line!r}")
            digests.setdefault(workload, {})[fname] = digest
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics, "digests": digests, "records": records}


def summarize(runs: list[dict]) -> dict:
    """Per workload: each metric's unit, median, quartiles (numpy's linear
    percentiles) and per-run values, and each digest (a list when runs disagree)."""
    workloads = {}
    for workload in runs[0]["metrics"]:
        summary = {"metrics": {}, "digests": {}}
        for key, first in runs[0]["metrics"][workload].items():
            values = [run["metrics"][workload][key]["value"] for run in runs]
            q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
            summary["metrics"][key] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                                       "values": values}
        for fname in runs[0]["digests"].get(workload, {}):
            seen = sorted({run["digests"].get(workload, {}).get(fname) for run in runs}, key=str)
            summary["digests"][fname] = seen[0] if len(seen) == 1 else seen
        workloads[workload] = summary
    return workloads


def bench_document(label: str, seed: int, seconds: int, stdouts: list[str]) -> dict:
    runs = [parse_run(out) for out in stdouts]
    return {
        "label": label,
        "command": ["python3", "benchmarks/run.py", "--workload", "all", "--seed", str(seed),
                    "--seconds", str(seconds)],
        "repeats": len(runs),
        "correct": all(run["correct"] for run in runs),
        "workloads": summarize(runs),
        "runs": [{k: run[k] for k in ("correct", "attempted", "failed", "records")} for run in runs],
    }


def run_benchmark(root: Path, seed: int, seconds: int) -> str:
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "all", "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=root, stdout=subprocess.PIPE, text=True,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmarks/run.py exited with {proc.returncode}")
    return proc.stdout


def main(argv=None, runner=run_benchmark) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the file: BENCH_<label>.json")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--root", type=Path, default=ROOT, help="the checkout to benchmark")
    p.add_argument("--out", type=Path, default=Path("."), help="directory to write the file to")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    stdouts = []
    for i in range(args.repeats):
        stdouts.append(runner(args.root, args.seed, args.seconds))
        print(f"run {i + 1}/{args.repeats} done", file=sys.stderr, flush=True)
    doc = bench_document(args.label, args.seed, args.seconds, stdouts)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
