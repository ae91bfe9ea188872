"""Calibrate a safe-capacity lower bound and let the auditor veto risky requests.

A point forecast of future throughput is right on average and therefore
overshoots half the time; scaling it by a calibrated quantile of the
realized/predicted ratio turns it into a lower bound that undershoots at a
chosen rate. The runtime auditor projects each requested rung onto what that
lower bound says can actually download before the buffer runs dry.

Run from the repo root:  python demos/05_calibrate_and_audit.py
"""

from abrlab.auditor import AuditConfig, make_auditor
from abrlab.capacity import (LowerBoundPredictor, PointPredictor, PredictorConfig,
                             calibrate_lower_bound, candidate_auditors, coverage_miss_rate,
                             decision_scores, replay)
from abrlab.policies import make_rate_rule_policy
from abrlab.sim import QoEWeights, VideoSpec, run_session
from abrlab.traces import SynthConfig, synthesize_trace


def main():
    cal = [synthesize_trace(SynthConfig(duration_s=600, seed=(51, i)), trace_id=f"cal-{i:02d}")
           for i in range(30)]
    test = [synthesize_trace(SynthConfig(duration_s=600, seed=(52, i)), trace_id=f"test-{i:02d}")
            for i in range(30)]
    spec, w = VideoSpec(), QoEWeights()

    cfg = PredictorConfig(horizon_s=15, delta=0.10)
    point = PointPredictor(cfg)
    result = calibrate_lower_bound(point, cal)
    lower = LowerBoundPredictor(point, result.scale)
    print(f"calibrated scale {result.scale:.4f} from {result.n_windows} windows "
          f"(target miss rate {cfg.delta:.0%})")

    miss, n = coverage_miss_rate(lower, test)
    print(f"held-out miss rate {miss:.3f} over {n} windows\n")

    # decision-level comparison under one frozen policy and auditor; each
    # candidate is an auditor factory, and the oracle screens with hindsight
    policy = make_rate_rule_policy()
    audit = AuditConfig(guard_s=0.0, capacity_margin=0.90)
    for name, auditor_for in candidate_auditors(cfg, result.scale).items():
        report, _, logs = replay(name, policy, test, spec, w, auditor_for, audit)
        print(f"{name:12s} violation rate {report.v_dec:.4f}  "
              f"high-risk overrate {report.overrate_hr:.4f}  "
              f"({decision_scores(logs, audit.guard_s)[3]} admitted decisions)")

    # watch the auditor work on a single risky session
    aud = make_auditor(lower, audit)
    log = run_session(test[0], spec, w, policy, auditor=aud)
    changed = [o for o in log.outcomes if o.audited]
    print(f"\nsession on {log.trace_id}: {log.audit_interventions} interventions, "
          f"{log.session_rebuffer_s:.2f}s rebuffer")
    for o in changed[:5]:
        print(f"  chunk {o.chunk_index:2d}: requested rung {o.raw_rung} -> executed {o.rung} "
              f"(buffer {o.buffer_before_s:.1f}s)")


if __name__ == "__main__":
    main()
