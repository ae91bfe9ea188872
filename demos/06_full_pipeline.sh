#!/usr/bin/env bash
# Compact end-to-end run of the experiment pipeline through the CLI.
# Usage (from the repo root, after `pip install -e .`):  bash demos/06_full_pipeline.sh
set -euo pipefail

RUN="${1:-runs/demo}"
CFG="$(mktemp --suffix=.yaml)"
trap 'rm -f "$CFG"' EXIT

# a scaled-down config so the whole walk finishes in well under a minute
cat > "$CFG" <<'YAML'
seed: 7
traces: {count: 24, duration_s: 300}
video: {num_chunks: 16}
bc: {dagger_iterations: 3, rollout_steps: 300, epochs: 3, batch_size: 64, expert_horizon: 4}
ppo: {total_steps: 2048, n_steps: 128, n_envs: 2, minibatch_size: 64, epochs: 4}
predictor: {horizon_s: 10}
mpc: {horizon: 4}
YAML

abrlab gen-traces --config "$CFG" --out "$RUN"
abrlab calibrate  --config "$CFG" --out "$RUN"   # the bound needs traces only, no policy
abrlab pretrain   --config "$CFG" --out "$RUN"
abrlab finetune   --config "$CFG" --out "$RUN"
abrlab finetune   --config "$CFG" --out "$RUN" --lambda 0   # ablation: no tail penalty
abrlab evaluate   --config "$CFG" --out "$RUN" --methods bc-only,full --handover-heavy
abrlab evaluate   --config "$CFG" --out "$RUN" --margin-grid   # replaces the reports above
abrlab report     --config "$CFG" --out "$RUN"

echo
echo "artifacts under $RUN:"
find "$RUN" -type f -not -path "*/traces/*" | sort | sed "s|^|  |"
echo "  $RUN/traces/  ($(find "$RUN/traces" -name '*.csv' | wc -l) trace CSVs)"
