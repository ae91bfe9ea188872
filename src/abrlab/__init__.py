"""Trace-driven laboratory for risk-calibrated adaptive bitrate control.

Layers, bottom up: throughput traces (`traces`), a chunk-level streaming
simulator (`sim`), classic and clairvoyant control policies (`policies`), a
small numpy policy network (`net`), expert cloning (`imitation`),
tail-risk-shaped policy-gradient fine-tuning (`risk_ppo`), calibrated
safe-capacity forecasting (`capacity`), a runtime action auditor
(`auditor`), fleet risk metrics (`metrics`), and a pipeline CLI (`cli`).
"""

from .auditor import (AuditConfig, AuditDecision, audit_action, decision_violation,
                      feasible_set, make_auditor, make_oracle_auditor)
from .capacity import (PREDICTOR_CANDIDATES, CalibrationResult, DecisionEvalResult,
                       LowerBoundPredictor, PointPredictor, PredictorConfig, calibrate_lower_bound,
                       calibration_ratios, coverage_miss_rate, decision_scores,
                       evaluate_predictor_decisions, high_risk_overrate, lower_quantile,
                       point_predict, realized_target, violation_rate)
from .config import (ExperimentConfig, config_from_dict, config_to_dict, load_config,
                     save_config, with_overrides)
from .imitation import (BcConfig, ImitationDataset, dagger_round, expert_agreement,
                        imitation_loss, pretrain)
from .metrics import (RiskReport, build_report, exceed_ratio, read_report_csv, tail_mean,
                      write_report_csv, write_report_json)
from .net import (Adam, FeatureConfig, NetConfig, PolicyNet, backward, feature_dim,
                  featurize, forward, greedy_action, init_policy_net, load_checkpoint,
                  make_greedy_policy, sample_action, save_checkpoint, softmax)
from .policies import (BolaConfig, MpcConfig, beam_expert_decide, beam_expert_labels, bola_decide,
                       bulk_download_times, make_bola_policy, make_expert_policy,
                       make_rate_rule_policy, make_robust_mpc_policy, rate_rule_decide,
                       robust_mpc_decide, throughput_estimate, trace_cumulative_bytes)
from .risk_ppo import (CvarConfig, EpisodeInfo, PpoConfig, RolloutBatch, RolloutCollector,
                       clipped_surrogate, empirical_cvar, finetune, gae_advantages,
                       ppo_update, shape_terminal_rewards)
from .sim import (DEFAULT_LADDER_KBPS, BitrateLadder, ChunkOutcome, PlayerState, QoEWeights,
                  SessionEnv, SessionLog, TraceExhaustedError, VideoSpec, advance_buffer,
                  chunk_qoe, chunk_size, chunk_sizes, download_chunk, nominal_top_rung_bytes,
                  rebuffer_time, run_session, run_sessions, session_summary)
from .traces import (SynthConfig, ThroughputTrace, TraceParseError, TraceValidationError,
                     handover_heavy_subset, ingest_trace, split_traces, synthesize_trace,
                     write_trace)

__version__ = "0.1.0"
