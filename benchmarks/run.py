"""abrlab benchmark: time one workload and print its metrics.

    python3 benchmarks/run.py --workload clone --seed 7 --seconds 35 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. `--workload all`
runs every workload, each in its own process, and prefixes each metric with
the workload's name. Scratch files go to .bench_work/ under the root. See
benchmarks/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads; 1 is at most nproc on any machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("clone", "finetune", "evaluate")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        print("run.py: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    package = ROOT / "src" / "abrlab" / "__init__.py"
    config = ROOT / "configs" / "default.yaml"
    for needed in (package, config):
        if not needed.is_file():
            print(f"run.py: {needed.relative_to(ROOT)} not found; run from a checkout of the "
                  f"repository", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    import abrlab
    if Path(abrlab.__file__).resolve() != package.resolve():
        print(f"run.py: imported abrlab from {abrlab.__file__}, not from {package}", file=sys.stderr)
        return 2
    import workloads
    try:
        result = workloads.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
