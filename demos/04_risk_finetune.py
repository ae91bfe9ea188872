"""Fine-tune a cloned policy with a tail-risk penalty on session rebuffering.

The terminal reward of each episode is docked in proportion to how far its
stall total lands beyond the rolling high quantile, so the optimizer spends
its effort on the worst sessions instead of the average one.

Run from the repo root:  python demos/04_risk_finetune.py  (takes ~30s)
"""

from abrlab.imitation import BcConfig, pretrain
from abrlab.metrics import build_report
from abrlab.net import make_greedy_policy
from abrlab.risk_ppo import CvarConfig, PpoConfig, finetune
from abrlab.sim import QoEWeights, VideoSpec, run_session, session_summary
from abrlab.traces import SynthConfig, synthesize_trace


def main():
    train = [synthesize_trace(SynthConfig(duration_s=600, seed=(31, i)), trace_id=f"train-{i:02d}")
             for i in range(30)]
    test = [synthesize_trace(SynthConfig(duration_s=600, seed=(32, i)), trace_id=f"test-{i:02d}")
            for i in range(40)]
    spec, w = VideoSpec(), QoEWeights()

    bc_cfg = BcConfig(dagger_iterations=5, rollout_steps=600, epochs=4,
                      batch_size=128, learning_rate=1e-3, expert_horizon=4)
    net, _ = pretrain(train, spec, w, bc_cfg, seed=0)
    cloned = net.copy()

    ppo = PpoConfig(total_steps=8192, n_steps=256, n_envs=4, minibatch_size=64, epochs=8)
    cvar = CvarConfig(alpha=0.90, penalty_weight=20.0)
    tuned, curve = finetune(net, train, spec, w, ppo, cvar, seed=0)

    print("training curve (per update):")
    print(f"{'update':>6s} {'steps':>6s} {'ep_qoe':>10s} {'ep_rebuf':>9s} {'tail_cvar':>10s} {'shaped':>7s}")
    for row in curve:
        print(f"{row['update']:6d} {row['steps']:6d} {row['mean_episode_qoe']:10.1f} "
              f"{row['mean_episode_rebuffer_s']:9.2f} {row['window_cvar']:10.2f} "
              f"{row['shaped_episodes']:7d}")

    def score(label, policy):
        # The risk row is built from session rows, as `abrlab evaluate` builds it.
        r = build_report(label, [session_summary(run_session(tr, spec, w, policy)) for tr in test])
        print(f"{label:12s} qoe {r.qoe_mean:8.1f}  severe ratio {r.severe_ratio:.3f}  "
              f"worst-{r.tail_k} mean rebuffer {r.rebuf_worst5_s:.1f} s")

    print("\nheld-out comparison:")
    score("cloned", make_greedy_policy(cloned, spec))
    score("fine-tuned", make_greedy_policy(tuned, spec))


if __name__ == "__main__":
    main()
