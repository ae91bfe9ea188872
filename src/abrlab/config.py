"""Experiment configuration: one YAML file drives every pipeline stage.

The config round-trips exactly (parse -> serialize -> parse is identity) and
each stage derives a content fingerprint from the config subset it depends
on. Artifacts record the fingerprint they were built under, so a stale
checkpoint cannot silently flow into evaluation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import yaml

from .auditor import AuditConfig
from .capacity import PredictorConfig
from .imitation import BcConfig
from .metrics import tail_mean
from .net import FeatureConfig
from .policies import BolaConfig, MpcConfig
from .risk_ppo import CvarConfig, PpoConfig
from .sim import BitrateLadder, QoEWeights, VideoSpec
from .traces import SynthConfig, TraceValidationError, handover_heavy_subset, split_traces

# method -> (the policy it replays: a rule, a planner, or the "bc" (cloned) or "ppo"
# (fine-tuned) checkpoint; the predictor candidate that audits it: the calibrated bound, or None)
METHODS = {"rate-rule": ("rate-rule", None), "bola": ("bola", None), "robust-mpc": ("robust-mpc", None),
           "bc-only": ("bc", None), "bc+rl": ("ppo", None),
           "bc+audit": ("bc", "lower-bound"), "full": ("ppo", "lower-bound")}
ALL_METHODS = tuple(METHODS)


@dataclass(frozen=True)
class TraceSection:
    count: int = 100
    duration_s: int = 600
    regime_mean_log_mbps: float = SynthConfig.regime_mean_log_mbps
    regime_sigma_log: float = SynthConfig.regime_sigma_log
    regime_dwell_s: float = SynthConfig.regime_dwell_s
    handover_dip_fraction: float = SynthConfig.handover_dip_fraction
    handover_dip_duration_s: float = SynthConfig.handover_dip_duration_s
    ar1_rho: float = SynthConfig.ar1_rho
    ar1_sigma_mbps: float = SynthConfig.ar1_sigma_mbps
    split_train: float = 0.70
    split_calibration: float = 0.15
    split_test: float = 0.15

    def __post_init__(self):
        if self.count < 3:  # the fewest ids split_traces accepts
            raise ValueError(f"traces.count must be at least 3, got {self.count}")
        self.synth_config(seed=0)  # by the synthesizer's own rules
        split_traces(["a", "b", "c"], self.split_fractions, 0)  # by the split's own rule

    def synth_config(self, seed) -> SynthConfig:
        return SynthConfig(seed=seed, **{f.name: getattr(self, f.name)
                                         for f in fields(SynthConfig) if f.name != "seed"})

    @property
    def split_fractions(self) -> tuple[float, float, float]:
        return (self.split_train, self.split_calibration, self.split_test)


@dataclass(frozen=True)
class VideoSection:
    num_chunks: int = 48
    chunk_duration_s: float = 4.0
    ladder_kbps: tuple[int, ...] = (3000, 8000, 15000, 30000, 60000, 120000)
    size_jitter_low: float = 0.9
    size_jitter_high: float = 1.1
    jitter_seed: int = 2024
    buffer_max_s: float = 60.0
    initial_prev_rung: int = 0
    initial_buffer_s: float | None = None

    def __post_init__(self):
        self.video_spec()  # by the spec's own rules

    def video_spec(self) -> VideoSpec:
        return VideoSpec(
            num_chunks=self.num_chunks,
            chunk_duration_s=self.chunk_duration_s,
            ladder=BitrateLadder(self.ladder_kbps),
            size_jitter=(self.size_jitter_low, self.size_jitter_high),
            jitter_seed=self.jitter_seed,
            buffer_max_s=self.buffer_max_s,
            initial_prev_rung=self.initial_prev_rung,
            initial_buffer_s=self.initial_buffer_s,
        )


@dataclass(frozen=True)
class EvalSection:
    methods: tuple[str, ...] = ALL_METHODS
    handover_window_s: float = 300.0
    handover_top_fraction: float = 0.30
    severe_threshold_s: float = 10.0
    tail_fraction: float = 0.05
    margin_grid: tuple[float, ...] = (0.90, 0.95, 1.00)

    def __post_init__(self):
        unknown = set(self.methods) - set(ALL_METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; choose from {ALL_METHODS}")
        try:  # by the auditor's own rule
            for margin in self.margin_grid:
                AuditConfig(capacity_margin=margin)
        except ValueError as exc:
            raise ValueError(f"eval.margin_grid: {exc}") from None
        try:  # by the tail statistic's own rule
            tail_mean([0.0], self.tail_fraction)
        except ValueError as exc:
            raise ValueError(f"eval.tail_fraction: {exc}") from None
        try:  # by the subset's own rules
            handover_heavy_subset([], self.handover_window_s, self.handover_top_fraction)
        except TraceValidationError as exc:
            raise ValueError(f"eval.handover_window_s or eval.handover_top_fraction: {exc}") from None
        if not 0.0 <= self.severe_threshold_s < float("inf"):  # NaN too: no ratio would exceed it
            raise ValueError(f"severe_threshold_s must be finite and non-negative, got {self.severe_threshold_s}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 7
    output_dir: str = "runs/exp"
    history_len: int = 8
    traces: TraceSection = field(default_factory=TraceSection)
    video: VideoSection = field(default_factory=VideoSection)
    qoe: QoEWeights = field(default_factory=QoEWeights)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    bc: BcConfig = field(default_factory=BcConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    cvar: CvarConfig = field(default_factory=CvarConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    audit: AuditConfig = field(default_factory=AuditConfig)
    mpc: MpcConfig = field(default_factory=MpcConfig)
    bola: BolaConfig = field(default_factory=BolaConfig)
    eval: EvalSection = field(default_factory=EvalSection)

    def __post_init__(self):
        if self.history_len < 1:
            raise ValueError("history_len must be at least 1")
        # The library's pretrain returns a fresh net after 0 rounds; the
        # pipeline would save it as a checkpoint with a NaN loss.
        if self.bc.dagger_iterations < 1:
            raise ValueError(f"bc.dagger_iterations must be at least 1, got {self.bc.dagger_iterations}")
        if "robust-mpc" in self.eval.methods and self.mpc.history_len > self.history_len:
            raise ValueError(f"mpc.history_len ({self.mpc.history_len}) may not exceed history_len "
                             f"({self.history_len}), the throughput samples a session keeps")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    raw = asdict(cfg)
    for section in raw.values():
        if isinstance(section, dict):
            for key, value in section.items():
                if isinstance(value, tuple):
                    section[key] = list(value)
    return raw


def _coerce(value, annotation: str, key: str):
    """`value` as its field's annotation asks, or a ValueError naming `key`:
    an int takes an int or a string of one; a float an int, a float or a
    numeric string (YAML 1.1 reads 2.0e8 as a string); a bool (never a
    number) or a str only itself; `X | None` also None; `tuple[T, ...]` a
    list or tuple of T."""
    if value is None and annotation.endswith(" | None"):
        return None
    annotation = annotation.removesuffix(" | None")
    if annotation.startswith("tuple[") and isinstance(value, (list, tuple)):
        return tuple(_coerce(item, annotation[len("tuple[") : -len(", ...]")], key) for item in value)
    if isinstance(value, {"int": (int, str), "float": (int, float, str)}.get(annotation, ())) \
            and not isinstance(value, bool):
        try:
            return int(value) if annotation == "int" else float(value)
        except ValueError:
            pass
    if annotation in ("bool", "str") and type(value).__name__ == annotation:
        return value
    raise ValueError(f"config key {key}: expected {annotation}, got {value!r}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from parsed YAML. `ExperimentConfig` is the schema: each
    field with a default_factory is a section of that dataclass's fields, the
    others are top-level keys; every value is coerced by its field annotation."""
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"config: unknown top-level keys {sorted(unknown)}")
    kwargs = {}
    for top in (f for f in fields(ExperimentConfig) if f.name in data):
        if top.default_factory is MISSING:
            kwargs[top.name] = _coerce(data[top.name], str(top.type), top.name)
            continue
        section = {} if data[top.name] is None else data[top.name]
        if not isinstance(section, dict):
            raise ValueError(f"config section {top.name!r}: expected a mapping, got {section!r}")
        types = {f.name: str(f.type) for f in fields(top.default_factory)}
        unknown = set(section) - set(types)
        if unknown:
            raise ValueError(f"config section {top.name!r}: unknown keys {sorted(unknown)}")
        kwargs[top.name] = top.default_factory(**{k: _coerce(v, types[k], f"{top.name}.{k}")
                                                  for k, v in section.items()})
    return ExperimentConfig(**kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        # libyaml's parser when PyYAML was built with it: the same safe
        # constructors and resolver as SafeLoader, several times faster.
        data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a mapping")
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(
        yaml.safe_dump(config_to_dict(cfg), sort_keys=True, default_flow_style=False),
        encoding="utf-8",
    )


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def traces_fingerprint(cfg: ExperimentConfig) -> str:
    return _digest({"seed": cfg.seed, "traces": config_to_dict(cfg)["traces"]})


def bc_fingerprint(cfg: ExperimentConfig) -> str:
    raw = config_to_dict(cfg)
    return _digest({
        "upstream": traces_fingerprint(cfg), "seed": cfg.seed, "history_len": cfg.history_len,
        "video": raw["video"], "qoe": raw["qoe"], "features": raw["features"], "bc": raw["bc"],
    })


def ppo_fingerprint(cfg: ExperimentConfig) -> str:
    raw = config_to_dict(cfg)
    return _digest({
        "upstream": bc_fingerprint(cfg), "ppo": raw["ppo"], "cvar": raw["cvar"],
    })


def calibration_fingerprint(cfg: ExperimentConfig) -> str:
    # what calibrate_lower_bound reads: the candidates `evaluate` scores leave the bound unchanged
    return _digest({"upstream": traces_fingerprint(cfg), "horizon_s": cfg.predictor.horizon_s,
                    "delta": cfg.predictor.delta})


def with_overrides(cfg: ExperimentConfig, seed: int | None = None, out: str | None = None,
                   penalty_weight: float | None = None, margin: float | None = None,
                   guard: float | None = None, methods: tuple[str, ...] | None = None) -> ExperimentConfig:
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out is not None:
        cfg = replace(cfg, output_dir=out)
    if penalty_weight is not None:
        cfg = replace(cfg, cvar=replace(cfg.cvar, penalty_weight=penalty_weight))
    if margin is not None:
        cfg = replace(cfg, audit=replace(cfg.audit, capacity_margin=margin))
    if guard is not None:
        cfg = replace(cfg, audit=replace(cfg.audit, guard_s=guard))
    if methods is not None:
        cfg = replace(cfg, eval=replace(cfg.eval, methods=tuple(methods)))
    return cfg
