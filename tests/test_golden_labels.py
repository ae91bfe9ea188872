"""Golden labels of the two planners on frozen, seeded corpora of states.

The expected strings of the 240-state corpus were produced by the planners
as they stood before their plan enumerators were merged; the expert's labels
on the DAgger-visited corpus are pinned by the sha256 of the string the
exhaustive enumerator produced. Any change to the order of the
floating-point work in a planner can flip an exact tie between plans; these
tests pin every label so such a change cannot pass unnoticed.
"""

import hashlib

import numpy as np
import pytest

from abrlab.net import NetConfig, feature_dim, init_policy_net, make_greedy_policy
from abrlab.policies import MpcConfig, beam_expert_decide, beam_expert_labels, robust_mpc_labels
from abrlab.sim import (PlayerState, QoEWeights, SessionEnv, TraceExhaustedError, VideoSpec,
                        chunk_sizes, download_chunk)
from abrlab.traces import SynthConfig, synthesize_trace

N_STATES = 240
N_TRACES = 6
TRACE_S = 300
HIST_LEN = 8

SPEC = VideoSpec()
W = QoEWeights()

EXPERT_LABELS = (
    "453305335444524334325552513334454454555543445444353545535545"
    "431532005145402553355443333542455505324530352133535325334041"
    "123232005134335224355555445515524443353435524442322354331543"
    "232413542355454234553354454355253514545314021110444243513434"
)
MPC_ROBUST_LABELS = (
    "132403223451103044203350412215334300412053000022512305200325"
    "130403014145300432513441423522354105501351355043325510205350"
    "022135530205320104043243014301524240401230313233155115431500"
    "232511542434533033115513133254023542505403000420341021503433"
)
MPC_PLAIN_LABELS = (
    "435423523454523044505350512215442530442053030322514405400415"
    "332433015345002544545443324552554245523452355254345530405350"
    "122335542335310205054355434505525241404430514435255155433500"
    "243554542454535055315553154255044511525404120430445044503434"
)


def _corpus():
    """(state, trace) pairs: random chunk index, buffer, previous rung, wall
    clock (past the trace end for some plans) and partly filled history."""
    traces = [synthesize_trace(SynthConfig(duration_s=TRACE_S, seed=(900, i)), trace_id=f"golden-{i}")
              for i in range(N_TRACES)]
    rng = np.random.default_rng(20260)
    out = []
    for _ in range(N_STATES):
        trace = traces[int(rng.integers(N_TRACES))]
        t = int(rng.integers(SPEC.num_chunks))
        hist = np.zeros(HIST_LEN)
        filled = int(rng.integers(HIST_LEN + 1))
        if filled:
            hist[-filled:] = np.exp(rng.normal(np.log(45e6), 0.8, filled))
        state = PlayerState(
            chunk_index=t,
            buffer_s=float(rng.uniform(0.0, SPEC.buffer_max_s)),
            prev_rung=int(rng.integers(SPEC.ladder.num_rungs)),
            throughput_history=hist,
            remaining_chunks=SPEC.num_chunks - t,
            next_chunk_sizes=chunk_sizes(SPEC, t),
            ladder_kbps=SPEC.ladder.rungs_kbps,
            chunk_duration_s=SPEC.chunk_duration_s,
            buffer_max_s=SPEC.buffer_max_s,
            wall_time_s=float(trace.times_s[0] + rng.uniform(0.0, TRACE_S)),
        )
        out.append((state, trace))
    return out


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _labels(fn, corpus) -> str:
    return "".join(str(fn(state, trace)) for state, trace in corpus)


def test_corpus_covers_every_first_rung_and_clipped_horizons(corpus):
    assert len(corpus) == N_STATES >= 200
    assert set(EXPERT_LABELS) == {str(a) for a in range(SPEC.ladder.num_rungs)}
    assert any(s.remaining_chunks < 5 for s, _ in corpus)
    assert any(not np.any(s.throughput_history) for s, _ in corpus)


def test_expert_labels(corpus):
    assert _labels(lambda s, tr: beam_expert_decide(s, tr, SPEC, W, 5), corpus) == EXPERT_LABELS


def test_robust_mpc_labels(corpus):
    assert _labels(lambda s, tr: robust_mpc_labels([s], SPEC, W, MpcConfig())[0], corpus) == MPC_ROBUST_LABELS


def test_plain_mpc_labels(corpus):
    got = _labels(lambda s, tr: robust_mpc_labels([s], SPEC, W, MpcConfig(robust=False))[0], corpus)
    assert got == MPC_PLAIN_LABELS


def test_shuffled_batches_per_trace_reproduce_the_golden_labels(corpus):
    # One batch per trace, its states in a seeded random order, so each batch
    # mixes clipped horizons out of order and one search covers them all.
    batches = {}
    for i in np.random.default_rng(2026).permutation(len(corpus)):
        batches.setdefault(id(corpus[i][1]), []).append(int(i))
    assert any(np.any(np.diff([min(5, corpus[i][0].remaining_chunks) for i in batch]) > 0)
               for batch in batches.values())
    expert, mpc = [""] * len(corpus), [""] * len(corpus)
    for batch in batches.values():
        states = [corpus[i][0] for i in batch]
        for i, a, b in zip(batch, beam_expert_labels(states, corpus[batch[0]][1], SPEC, W, 5),
                           robust_mpc_labels(states, SPEC, W, MpcConfig())):
            expert[i], mpc[i] = str(a), str(b)
    assert "".join(expert) == EXPERT_LABELS
    assert "".join(mpc) == MPC_ROBUST_LABELS


def test_greedy_batch_decisions_equal_the_one_state_decisions(corpus):
    net = init_policy_net(NetConfig(feature_dim(HIST_LEN, SPEC.ladder.num_rungs), SPEC.ladder.num_rungs), 0)
    net.params[:] = np.random.default_rng(11).normal(0.0, 0.5, net.size)
    policy = make_greedy_policy(net, SPEC)
    states = [state for state, _ in corpus]
    one_at_a_time = [policy(state) for state in states]
    assert list(policy.batch(states)) == one_at_a_time
    assert len(set(one_at_a_time)) >= 4


# sha256 of the expert's labels on the DAgger corpus, as the exhaustive
# ladder^horizon enumerator produced them.
DAGGER_EXPERT_SHA256 = "d74f835063818f791d3f9db9e48d11cbdc23142e1406ecde08e9fd1b27365bfc"
DAGGER_EPISODES = 10


def _dagger_corpus():
    """Whole episodes of a seeded uniform-random policy, as DAgger visits
    states before its learner is any good: [(trace, [state, ...]), ...].

    Odd episodes run on a slower, shorter link, so they stall (buffer back
    at one chunk) and are cut off when the trace ends, leaving plans that
    run past the last sample; even ones finish, so their last states have
    the horizon clipped by the end of the video."""
    rng = np.random.default_rng(20261)
    episodes = []
    for i in range(DAGGER_EPISODES):
        slow = i % 2 == 1
        synth = SynthConfig(duration_s=int(rng.integers(150, 260) if slow else rng.integers(200, 260)),
                            regime_mean_log_mbps=float(np.log(30.0 if slow else 45.0)), seed=(901, i))
        trace = synthesize_trace(synth, trace_id=f"dagger-{i}")
        env = SessionEnv(trace, SPEC, W)
        state, states = env.reset(), []
        while state is not None:
            states.append(state)
            state, _, _ = env.step(int(rng.integers(SPEC.ladder.num_rungs)))
        episodes.append((trace, states))
    return episodes


@pytest.fixture(scope="module")
def dagger_corpus():
    return _dagger_corpus()


def _runs_past_trace_end(state, trace) -> bool:
    """The all-top-rung plan over the clipped horizon outlasts the trace."""
    h = min(5, state.remaining_chunks)
    try:
        download_chunk(trace, state.wall_time_s, float(SPEC.sizes[state.chunk_index : state.chunk_index + h, -1].sum()))
    except TraceExhaustedError:
        return True
    return False


def test_dagger_corpus_reaches_stalls_clipped_horizons_and_the_trace_end(dagger_corpus):
    pairs = [(s, tr) for tr, states in dagger_corpus for s in states]
    assert len(pairs) >= 350
    assert sum(s.chunk_index > 0 and s.buffer_s == SPEC.chunk_duration_s for s, _ in pairs) >= 30  # after a stall
    assert sum(s.remaining_chunks < 5 for s, _ in pairs) >= 10
    assert sum(_runs_past_trace_end(s, tr) for s, tr in pairs) >= 30


def test_expert_labels_on_dagger_states(dagger_corpus):
    labels = "".join(str(beam_expert_decide(s, tr, SPEC, W, 5)) for tr, states in dagger_corpus for s in states)
    assert set(labels) == {str(a) for a in range(SPEC.ladder.num_rungs)}
    assert hashlib.sha256(labels.encode()).hexdigest() == DAGGER_EXPERT_SHA256


def test_batched_labels_of_whole_episodes_equal_the_one_state_labels(dagger_corpus):
    for trace, states in dagger_corpus:
        assert beam_expert_labels(states, trace, SPEC, W, 5) == [beam_expert_decide(s, trace, SPEC, W, 5)
                                                                 for s in states]
