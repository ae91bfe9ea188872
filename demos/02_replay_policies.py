"""Replay one trace under the classic controllers and the clairvoyant planner.

Run from the repo root:  python demos/02_replay_policies.py
"""

from abrlab.policies import (beam_expert_decide, make_bola_policy, make_rate_rule_policy,
                             make_robust_mpc_policy)
from abrlab.sim import QoEWeights, VideoSpec, run_session
from abrlab.traces import SynthConfig, synthesize_trace


def main():
    trace = synthesize_trace(SynthConfig(duration_s=600, seed=(3, 1)), trace_id="replay-demo")
    spec = VideoSpec()
    w = QoEWeights()

    policies = {
        "rate-rule": make_rate_rule_policy(),
        "bola": make_bola_policy(),
        "robust-mpc": make_robust_mpc_policy(spec, w),
        "clairvoyant": lambda state: beam_expert_decide(state, trace, spec, w, horizon=5),
    }

    print(f"trace {trace.trace_id}: mean {trace.throughput_bps.mean() / 1e6:.1f} Mbit/s, "
          f"{spec.num_chunks} chunks of {spec.chunk_duration_s:.0f}s\n")
    print(f"{'policy':12s} {'qoe':>10s} {'rebuffer':>9s} {'switches':>9s} {'mean rung':>9s}")

    logs = {}
    for name, policy in policies.items():
        log = run_session(trace, spec, w, policy)
        logs[name] = log
        rungs = [o.rung for o in log.outcomes]
        switches = sum(a != b for a, b in zip(rungs, rungs[1:]))
        print(f"{name:12s} {log.session_qoe:10.1f} {log.session_rebuffer_s:8.2f}s "
              f"{switches:9d} {sum(rungs) / len(rungs):9.2f}")

    # chunk-level view of the planner's behaviour around the first stall risk
    log = logs["robust-mpc"]
    print("\nrobust-mpc, first 12 chunks (rung / buffer after / stall):")
    for o in log.outcomes[:12]:
        bar = "#" * o.rung
        stall = f"  stalled {o.rebuffer_s:.2f}s" if o.rebuffer_s > 0 else ""
        print(f"  chunk {o.chunk_index:2d}: rung {o.rung} {bar:6s} "
              f"buffer {o.buffer_after_s:5.1f}s{stall}")


if __name__ == "__main__":
    main()
