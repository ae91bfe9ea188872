"""Release gate: ten checks, one printed PASS/FAIL verdict line per criterion.

Run `python -m pytest tests/test_acceptance.py -s` to watch the verdicts as
they complete. The directional checks (7 and 8) train three seeds at the
default budgets through the shared `trained_stack` fixture, and the budget
check (10) runs the full default-scale pipeline, so the module takes a few
minutes of CPU in total.
"""

import time
from pathlib import Path

import numpy as np
import yaml

from abrlab.auditor import (AuditConfig, audit_action, decision_violation, feasible_set,
                            make_auditor, make_oracle_auditor)
from abrlab.capacity import (LowerBoundPredictor, PointPredictor,
                             PredictorConfig, calibrate_lower_bound, coverage_miss_rate,
                             evaluate_predictor_decisions, high_risk_overrate, lower_quantile)
from abrlab.cli import main
from abrlab.metrics import build_report, tail_mean
from abrlab.net import NetConfig, backward, forward, init_policy_net, make_greedy_policy
from abrlab.policies import make_rate_rule_policy
from abrlab.risk_ppo import (CvarConfig, EpisodeInfo, RolloutBatch, clipped_surrogate,
                             empirical_cvar, gae_advantages, shape_terminal_rewards)
from abrlab.sim import (PlayerState, QoEWeights, ThroughputTrace, VideoSpec,
                        chunk_qoe, chunk_sizes, download_chunk, run_session, session_summary)
from abrlab.traces import SynthConfig, synthesize_trace

REPO_ROOT = Path(__file__).resolve().parents[1]


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{label}]: {detail}"


def _ck(bad: list, cond: bool, what: str) -> None:
    if not cond:
        bad.append(what)


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_closed_form_battery():
    """Hand-derived worked examples, exact to 1e-9, in under a second."""
    t0 = time.perf_counter()
    bad: list = []
    tol = 1e-9

    # stepwise download integration
    flat = ThroughputTrace("flat", np.arange(40.0), np.full(40, 120e6))
    d, c = download_chunk(flat, 0.0, 30e6)
    _ck(bad, abs(d - 2.0) < tol and abs(c - 120e6) < 1e-3, "flat-link download")
    step = ThroughputTrace("step", np.arange(10.0), np.r_[10e6, np.full(9, 30e6)])
    d, c = download_chunk(step, 0.0, 2.5e6)
    _ck(bad, abs(d - 4.0 / 3.0) < tol and abs(c - 15e6) < 1e-3, "mid-download rate change")
    d, _ = download_chunk(ThroughputTrace("f80", np.arange(40.0), np.full(40, 80e6)), 0.5, 20e6)
    _ck(bad, abs(d - 2.0) < tol, "fractional start")

    # stall, buffer recurrence, and per-chunk score on one crafted chunk:
    # 15 MB at 40 Mbit/s takes 3 s against a 1 s buffer
    spec1 = VideoSpec(num_chunks=1, size_jitter=(1.0, 1.0), initial_buffer_s=1.0)
    tr40 = ThroughputTrace("c40", np.arange(120.0), np.full(120, 40e6))
    log = run_session(tr40, spec1, QoEWeights(), lambda s: 3)
    o = log.outcomes[0]
    _ck(bad, abs(o.download_time_s - 3.0) < tol, "crafted download time")
    _ck(bad, abs(o.rebuffer_s - 2.0) < tol, "stall = download minus buffer")
    _ck(bad, abs(o.buffer_after_s - 4.0) < tol, "buffer refills to one chunk")
    _ck(bad, abs(o.qoe - (30.0 - 40.0 * 2.0 - 27.0)) < tol, "chunk score with stall+switch")

    # per-chunk score table
    w = QoEWeights()
    _ck(bad, abs(chunk_qoe(60000, 30000, 0.5, w) - 10.0) < tol, "score (60k,30k,0.5s)")
    _ck(bad, abs(chunk_qoe(3000, 3000, 0.0, w) - 3.0) < tol, "score (3k,3k,0)")
    _ck(bad, abs(chunk_qoe(120000, 120000, 1.0, w) - 80.0) < tol, "score (120k,120k,1s)")

    # feasibility with an inclusive boundary, downward-only projection
    fspec = VideoSpec(size_jitter=(1.0, 1.0))
    sizes = chunk_sizes(fspec, 0)
    state = PlayerState(chunk_index=0, buffer_s=8.0, prev_rung=0,
                        throughput_history=np.zeros(8), remaining_chunks=fspec.num_chunks,
                        next_chunk_sizes=sizes, ladder_kbps=fspec.ladder.rungs_kbps,
                        chunk_duration_s=4.0, buffer_max_s=60.0, wall_time_s=0.0)
    feas = feasible_set(state, sizes, 30e6, AuditConfig(guard_s=0.0, capacity_margin=1.0))
    _ck(bad, np.array_equal(feas, np.arange(5)), "feasible set inclusive at the boundary")
    _ck(bad, audit_action(5, feas) == (4, True), "projection to highest feasible rung")
    _ck(bad, audit_action(2, feas) == (2, False), "feasible request passes through")
    _ck(bad, audit_action(3, np.array([], dtype=int)) == (0, True), "fallback to lowest rung")

    # ex-post decision violation, strict beyond the guarded buffer
    _ck(bad, decision_violation(15e6, 20e6, 7.0, 2.0) is True, "violation when 6s > 5s")
    _ck(bad, decision_violation(15e6, 40e6, 7.0, 2.0) is False, "no violation at 3s <= 5s")
    _ck(bad, decision_violation(15e6, 20e6, 6.0, 0.0) is False, "boundary equality is safe")

    # high-risk overprediction slice
    _ck(bad, abs(high_risk_overrate([15e6, 15e6, 25e6, 35e6],
                                    [10e6, 20e6, 30e6, 40e6], fraction=0.3) - 0.5) < tol,
        "overrate on the lowest-capacity slice")

    # tail threshold and expected shortfall
    xi, cv = empirical_cvar([0.0] * 8 + [10.0, 20.0], 0.90)
    _ck(bad, xi == 10.0 and abs(cv - 20.0) < tol, "shortfall, ten samples")
    xi, cv = empirical_cvar([1.0, 2.0, 3.0, 4.0], 0.75)
    _ck(bad, xi == 3.0 and abs(cv - 4.0) < tol, "shortfall, four samples")

    # terminal hinge on the episode's last step only
    batch = RolloutBatch(
        features=np.zeros((3, 2)), actions=np.zeros(3, dtype=int), logprobs=np.zeros(3),
        rewards=np.array([1.0, 1.0, 1.0]), values=np.zeros(3),
        dones=np.array([False, False, True]), env_slices=[(0, 3)],
        bootstrap_values=np.array([0.0]),
        episodes=[EpisodeInfo(2, 100.0, 3.0, 3, False)])
    shaped = shape_terminal_rewards(batch, CvarConfig(alpha=0.9, penalty_weight=2.0), [0.0] * 10)
    _ck(bad, shaped.rewards[:2].tolist() == [1.0, 1.0], "hinge leaves non-terminal steps")
    _ck(bad, abs(shaped.rewards[2] - (1.0 - 20.0 * 100.0)) < 1e-6, "hinge docks the terminal step")

    # advantage recursion, hand-unrolled three steps
    b2 = RolloutBatch(
        features=np.zeros((3, 2)), actions=np.zeros(3, dtype=int), logprobs=np.zeros(3),
        rewards=np.array([1.0, 2.0, 3.0]), values=np.array([0.5, 1.0, 1.5]),
        dones=np.array([False, False, True]), env_slices=[(0, 3)],
        bootstrap_values=np.array([0.0]))
    g = gae_advantages(b2, 0.9, 0.8, normalize=False)
    _ck(bad, np.allclose(g.advantages, [3.8696, 3.43, 1.5], atol=tol), "advantage unroll")
    _ck(bad, np.allclose(g.returns, [4.3696, 4.43, 3.0], atol=tol), "return targets")

    # pessimistic clipped surrogate
    one = np.ones(1)
    _ck(bad, abs(clipped_surrogate(1.5 * one, one, 0.2)[0] - 1.2) < tol, "clip caps the gain")
    _ck(bad, abs(clipped_surrogate(0.5 * one, -one, 0.2)[0] + 0.8) < tol, "clip floors the ratio")
    _ck(bad, abs(clipped_surrogate(1.5 * one, -one, 0.2)[0] + 1.5) < tol, "unclipped when worse")

    # calibration quantile and the worst-tail mean
    _ck(bad, lower_quantile([0.5, 1.0, 1.5, 2.0], 0.25) == 0.5, "quarter quantile")
    _ck(bad, lower_quantile([0.5, 1.0, 1.5, 2.0], 0.50) == 1.0, "half quantile")
    _ck(bad, abs(tail_mean(list(range(40)), 0.05) - 38.5) < tol, "worst-two-of-forty mean")

    elapsed = time.perf_counter() - t0
    _ck(bad, elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s")
    _verdict(1, "closed-form battery", not bad,
             f"{'; '.join(bad) if bad else '29 worked examples exact'}, {elapsed * 1e3:.0f}ms")


# ---------------------------------------------------------------- criterion 2


def test_criterion_02_cvar_equals_worst_k():
    """Expected shortfall == mean of the worst K, bit-exact on integral tails."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    # dyadic tail fractions with power-of-two K keep both float routes exact
    exact_cases = [(0.5, 1), (0.5, 2), (0.5, 4), (0.5, 8), (0.75, 1), (0.75, 2),
                   (0.75, 4), (0.75, 8), (0.875, 1), (0.875, 2), (0.875, 4),
                   (0.9375, 1), (0.9375, 2), (0.9375, 4)]
    mismatches = 0
    for _ in range(1000):
        alpha, k = exact_cases[rng.integers(len(exact_cases))]
        n = int(round(k / (1.0 - alpha)))
        v = rng.integers(-500, 1000, n).astype(float)
        _, cvar = empirical_cvar(v, alpha)
        if cvar != float(np.mean(np.sort(v)[-k:])):
            mismatches += 1
    # and route agreement stays at float noise for arbitrary alphas
    worst_general = 0.0
    for _ in range(1000):
        alpha = float(rng.choice([0.8, 0.9, 0.95, 0.6]))
        k = int(rng.integers(1, 7))
        n = int(round(k / (1.0 - alpha)))
        if abs(n * (1.0 - alpha) - k) > 1e-6:
            continue
        v = rng.uniform(0.0, 100.0, n)
        _, cvar = empirical_cvar(v, alpha)
        worst_general = max(worst_general, abs(cvar - float(np.mean(np.sort(v)[-k:]))))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and worst_general < 1e-9 and elapsed < 5.0
    _verdict(2, "shortfall oracle equivalence", ok,
             f"0 of 1000 exact-case mismatches (got {mismatches}), "
             f"general-case gap {worst_general:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_simulator_invariants():
    """Buffer bounds, stall/buffer recurrences, and score sums over 10k episodes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    pool = []
    for i in range(150):
        cfg = SynthConfig(
            duration_s=int(rng.integers(60, 200)),
            regime_dwell_s=float(rng.choice([5.0, 10.0, 15.0, 30.0])),
            regime_sigma_log=float(rng.uniform(0.3, 0.9)),
            handover_dip_fraction=float(rng.uniform(0.1, 0.6)),
            ar1_sigma_mbps=float(rng.uniform(0.0, 6.0)),
            seed=(303, i))
        pool.append(synthesize_trace(cfg, trace_id=f"prop-{i:03d}"))

    w = QoEWeights()
    violations = 0
    episodes = 10_000
    checks = 0
    for ep in range(episodes):
        tr = pool[int(rng.integers(len(pool)))]
        lo = float(rng.uniform(0.85, 1.0))
        spec = VideoSpec(
            num_chunks=int(rng.integers(3, 13)),
            size_jitter=(lo, lo + float(rng.uniform(0.0, 0.2))),
            jitter_seed=int(rng.integers(0, 10_000)),
            buffer_max_s=float(rng.choice([16.0, 60.0])),
            initial_prev_rung=int(rng.integers(0, 6)),
            initial_buffer_s=None if rng.random() < 0.5 else float(rng.uniform(0.0, 8.0)))
        ep_rng = np.random.default_rng((303, ep))
        log = run_session(tr, spec, w, lambda s: int(ep_rng.integers(0, 6)))

        rates = spec.ladder.rungs_kbps
        prev_rung = spec.initial_prev_rung
        prev_after = None
        q_sum = 0.0
        r_sum = 0.0
        for o in log.outcomes:
            checks += 1
            b, d = o.buffer_before_s, o.download_time_s
            if not (-1e-9 <= b <= spec.buffer_max_s + 1e-9):
                violations += 1
            if not (-1e-9 <= o.buffer_after_s <= spec.buffer_max_s + 1e-9):
                violations += 1
            if abs(o.rebuffer_s - max(d - b, 0.0)) > 1e-9:
                violations += 1
            want_after = min(spec.buffer_max_s, max(b - d, 0.0) + spec.chunk_duration_s)
            if abs(o.buffer_after_s - want_after) > 1e-9:
                violations += 1
            if prev_after is not None and abs(b - prev_after) > 1e-9:
                violations += 1
            want_q = chunk_qoe(rates[o.rung], rates[prev_rung], o.rebuffer_s, w)
            if abs(o.qoe - want_q) > 1e-9:
                violations += 1
            prev_rung = o.rung
            prev_after = o.buffer_after_s
            q_sum += o.qoe
            r_sum += o.rebuffer_s
        if abs(q_sum - log.session_qoe) > 1e-9 or abs(r_sum - log.session_rebuffer_s) > 1e-9:
            violations += 1

    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120.0
    _verdict(3, "simulator invariants", ok,
             f"{violations} violations over {episodes} episodes "
             f"({checks} chunks), {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_oracle_auditor_soundness(trace_pools):
    """With hindsight capacity and unit margin, admitted decisions never violate."""
    t0 = time.perf_counter()
    res = evaluate_predictor_decisions(
        "oracle", make_oracle_auditor, AuditConfig(guard_s=0.0, capacity_margin=0.90),
        make_rate_rule_policy(), trace_pools["test"], VideoSpec(), QoEWeights())
    never_up = all(o.rung <= o.raw_rung for log in res.logs for o in log.outcomes)
    n_chunks = sum(len(log.outcomes) for log in res.logs)
    elapsed = time.perf_counter() - t0
    ok = res.v_dec == 0.0 and never_up and len(res.logs) >= 200
    _verdict(4, "oracle auditor soundness", ok,
             f"violation rate {res.v_dec!r} over {res.n_admitted} admitted decisions, "
             f"never-up on all {n_chunks} chunks of {len(res.logs)} sessions, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_gradients_match_finite_differences():
    """Analytic backprop vs central differences on 100 random nets and batches."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        cfg = NetConfig(
            input_dim=int(rng.integers(5, 13)),
            num_actions=int(rng.integers(3, 7)),
            hidden=(int(rng.integers(4, 10)), int(rng.integers(4, 10))))
        net = init_policy_net(cfg, int(rng.integers(0, 10_000)))
        nb = int(rng.integers(1, 9))
        x = rng.normal(0.0, 1.0, (nb, cfg.input_dim))
        labels = rng.integers(0, cfg.num_actions, nb)
        targets = rng.normal(0.0, 1.0, nb)
        onehot = np.eye(cfg.num_actions)[labels]

        def loss_at(params):
            probs, values = forward(net.__class__(cfg, params), x)
            ce = -np.mean(np.log(probs[np.arange(nb), labels]))
            return ce + 0.5 * float(np.mean((values - targets) ** 2))

        probs, values, cache = forward(net, x, with_cache=True)
        analytic = backward(net, x, (probs - onehot) / nb, (values - targets) / nb, cache)

        eps = 1e-6
        fd = np.zeros_like(net.params)
        for i in range(net.size):
            p = net.params.copy()
            p[i] += eps
            up = loss_at(p)
            p[i] -= 2 * eps
            fd[i] = (up - loss_at(p)) / (2 * eps)
        rel = np.max(np.abs(analytic - fd) / np.maximum(1e-6, np.abs(analytic) + np.abs(fd)))
        worst = max(worst, float(rel))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(5, "gradient check", ok,
             f"max relative error {worst:.2e} over 100 nets, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 6


def test_criterion_06_calibration_coverage(trace_pools):
    """The delta=0.10 lower bound misses 10% +/- 5% on held-out windows."""
    t0 = time.perf_counter()
    point = PointPredictor(PredictorConfig())
    result = calibrate_lower_bound(point, trace_pools["cal"])
    lb = LowerBoundPredictor(point, result.scale)
    miss, n = coverage_miss_rate(lb, trace_pools["test"][:40])
    elapsed = time.perf_counter() - t0
    ok = n >= 1000 and 0.05 <= miss <= 0.15
    _verdict(6, "calibration coverage", ok,
             f"miss rate {miss:.4f} over {n} held-out windows "
             f"(scale {result.scale:.4f}), {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_risk_training_reduces_tails(trace_pools, trained_stack):
    """Across three seeds (majority): fine-tuning cuts severe sessions by >=20%
    relative without losing more than 5% mean score, and the audited fine-tuned
    policy cuts the worst-5% rebuffer by >=30% relative, all vs the clone."""
    t0 = time.perf_counter()
    spec, w = trained_stack["spec"], trained_stack["w"]
    test = trace_pools["test"]
    pass_a, pass_b, lines = [], [], []
    for seed in trained_stack["seeds"]:
        bc_pol = make_greedy_policy(trained_stack["nets"][seed]["bc"], spec)
        rl_pol = make_greedy_policy(trained_stack["nets"][seed]["rl"], spec)
        b = build_report("bc", [session_summary(run_session(tr, spec, w, bc_pol)) for tr in test])
        r = build_report("rl", [session_summary(run_session(tr, spec, w, rl_pol)) for tr in test])
        f = evaluate_predictor_decisions(
            "lower-bound", lambda tr, a: make_auditor(trained_stack["lower"], a),
            AuditConfig(guard_s=0.0, capacity_margin=0.90), rl_pol, test, spec, w).report
        sev_drop = (b.severe_ratio - r.severe_ratio) / max(b.severe_ratio, 1e-12)
        qoe_loss = (b.qoe_mean - r.qoe_mean) / max(abs(b.qoe_mean), 1e-12)
        w5_drop = (b.rebuf_worst5_s - f.rebuf_worst5_s) / max(b.rebuf_worst5_s, 1e-12)
        pass_a.append(sev_drop >= 0.20 and qoe_loss <= 0.05)
        pass_b.append(w5_drop >= 0.30)
        lines.append(f"seed{seed}: sev {b.severe_ratio:.3f}->{r.severe_ratio:.3f} "
                     f"({sev_drop:+.0%}), qoe {qoe_loss:+.1%}, w5 {b.rebuf_worst5_s:.1f}s"
                     f"->{f.rebuf_worst5_s:.1f}s ({w5_drop:+.0%})")
    elapsed = time.perf_counter() - t0
    n_sessions = len(test)
    ok = sum(pass_a) >= 2 and sum(pass_b) >= 2 and n_sessions >= 200
    _verdict(7, "directional risk reduction", ok,
             f"{sum(pass_a)}/3 seeds pass the fine-tune check, {sum(pass_b)}/3 the audited "
             f"check, on {n_sessions} sessions; " + " | ".join(lines) + f"; {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_lower_bound_beats_point_predictor(trace_pools, trained_stack):
    """Under one frozen policy and auditor, the calibrated bound strictly wins."""
    t0 = time.perf_counter()
    spec, w = trained_stack["spec"], trained_stack["w"]
    policy = make_greedy_policy(trained_stack["nets"][0]["rl"], spec)
    cal = trace_pools["cal"]
    audit = AuditConfig(guard_s=0.0, capacity_margin=0.90)
    pt = evaluate_predictor_decisions("point", lambda tr, a: make_auditor(trained_stack["point"], a),
                                      audit, policy, cal, spec, w)
    lb = evaluate_predictor_decisions("lower-bound", lambda tr, a: make_auditor(trained_stack["lower"], a),
                                      audit, policy, cal, spec, w)
    elapsed = time.perf_counter() - t0
    ok = lb.v_dec < pt.v_dec and lb.overrate_hr < pt.overrate_hr
    _verdict(8, "calibrated bound dominates", ok,
             f"violations {pt.v_dec:.4f}->{lb.v_dec:.4f}, "
             f"high-risk overrate {pt.overrate_hr:.4f}->{lb.overrate_hr:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_pipeline_determinism(tmp_path):
    """Identical config and seed produce byte-identical CSV reports."""
    t0 = time.perf_counter()
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "seed": 5,
        "traces": {"count": 10, "duration_s": 240},
        "video": {"num_chunks": 10},
        "bc": {"dagger_iterations": 2, "rollout_steps": 120, "epochs": 2,
               "batch_size": 32, "learning_rate": 5e-3, "expert_horizon": 3},
        "ppo": {"total_steps": 256, "n_steps": 32, "n_envs": 2,
                "minibatch_size": 32, "epochs": 2},
        "cvar": {"window": 64},
        "predictor": {"horizon_s": 10},
        "mpc": {"horizon": 3},
    }), encoding="utf-8")

    def run(out: Path):
        for stage in (["gen-traces"], ["pretrain"], ["finetune"], ["calibrate"],
                      ["evaluate", "--margin-grid"]):
            assert main([stage[0], "--config", str(cfg_path), "--out", str(out), *stage[1:]]) == 0

    run(tmp_path / "a")
    run(tmp_path / "b")
    reports_a = sorted((tmp_path / "a" / "reports").glob("*.csv"))
    reports_b = sorted((tmp_path / "b" / "reports").glob("*.csv"))
    names_match = [p.name for p in reports_a] == [p.name for p in reports_b]
    diffs = [pa.name for pa, pb in zip(reports_a, reports_b)
             if pa.read_bytes() != pb.read_bytes()]
    elapsed = time.perf_counter() - t0
    ok = names_match and not diffs and len(reports_a) >= 10
    _verdict(9, "byte-level determinism", ok,
             f"{len(reports_a)} report CSVs identical across two runs"
             + (f", diffs in {diffs}" if diffs else "") + f", {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 10


def test_criterion_10_default_scale_budget(tmp_path):
    """The full default-scale pipeline finishes inside the 30-minute budget."""
    cfg = str(REPO_ROOT / "configs" / "default.yaml")
    out = str(tmp_path / "run")
    t0 = time.perf_counter()
    stage_times = []
    for stage in ("gen-traces", "pretrain", "finetune", "calibrate", "evaluate"):
        t = time.perf_counter()
        assert main([stage, "--config", cfg, "--out", out]) == 0, f"stage {stage} failed"
        stage_times.append(f"{stage} {time.perf_counter() - t:.0f}s")
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1800.0
    _verdict(10, "default-scale budget", ok,
             f"pipeline took {elapsed:.0f}s of the 1800s budget ({', '.join(stage_times)})")
