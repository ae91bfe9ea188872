"""Config serialization, scalar repair, fingerprints, and CLI-style overrides."""

import dataclasses
import json
from pathlib import Path

import pytest
import yaml

from abrlab.cli import main
from abrlab.config import (
    ALL_METHODS,
    ExperimentConfig,
    TraceSection,
    VideoSection,
    bc_fingerprint,
    calibration_fingerprint,
    config_from_dict,
    config_to_dict,
    load_config,
    ppo_fingerprint,
    save_config,
    traces_fingerprint,
    with_overrides,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _tweak(**changes) -> ExperimentConfig:
    """Fresh default config with nested replacements, e.g. _tweak(video={"num_chunks": 12})."""
    cfg = ExperimentConfig()
    for name, value in changes.items():
        if isinstance(value, dict):
            cfg = dataclasses.replace(cfg, **{name: dataclasses.replace(getattr(cfg, name), **value)})
        else:
            cfg = dataclasses.replace(cfg, **{name: value})
    return cfg


class TestRoundTrip:
    def test_default_dict_round_trip(self):
        cfg = ExperimentConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_modified_dict_round_trip(self):
        cfg = _tweak(
            seed=11,
            history_len=5,
            output_dir="runs/elsewhere",
            traces={"count": 12, "duration_s": 240},
            video={"num_chunks": 12, "ladder_kbps": (1000, 2000, 4000)},
            cvar={"penalty_weight": 5.0},
            eval={"methods": ("bola", "full"), "margin_grid": (0.8, 1.0)},
            predictor={"candidates": ("oracle",)},
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_yaml_file_round_trip(self, tmp_path):
        cfg = _tweak(seed=3, video={"initial_buffer_s": 8.0}, mpc={"robust": False})
        path = tmp_path / "exp.yaml"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_dict_is_json_serializable(self):
        raw = config_to_dict(ExperimentConfig())
        assert json.loads(json.dumps(raw)) == raw
        assert isinstance(raw["video"]["ladder_kbps"], list)
        assert isinstance(raw["eval"]["methods"], list)

    def test_saved_yaml_is_a_plain_mapping(self, tmp_path):
        path = tmp_path / "exp.yaml"
        save_config(ExperimentConfig(), path)
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
        assert isinstance(data, dict)
        for section in ("traces", "video", "qoe", "features", "bc", "ppo",
                        "cvar", "predictor", "audit", "mpc", "bola", "eval"):
            assert section in data
        assert {"seed", "output_dir", "history_len"} <= set(data)

    def test_shipped_default_config_matches_code_defaults(self):
        cfg = load_config(REPO_ROOT / "configs" / "default.yaml")
        assert cfg == dataclasses.replace(ExperimentConfig(), output_dir="runs/default")

    def test_demo_pipeline_config_loads(self):
        script = (REPO_ROOT / "demos" / "06_full_pipeline.sh").read_text(encoding="utf-8")
        inline = script.split("<<'YAML'\n", 1)[1].split("\nYAML\n", 1)[0]
        cfg = config_from_dict(yaml.safe_load(inline))
        assert cfg.predictor.horizon_s == 10


class TestScalarRepair:
    def test_unsigned_exponent_string_becomes_float(self):
        # YAML 1.1 parses 2.5e8 (no sign in the exponent) as a string.
        cfg = config_from_dict({"features": {"throughput_scale_bps": "2.5e8"}})
        assert cfg.features.throughput_scale_bps == 2.5e8
        assert isinstance(cfg.features.throughput_scale_bps, float)

    def test_unsigned_exponent_round_trips_through_a_file(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("features:\n  throughput_scale_bps: 1.5e8\n", encoding="utf-8")
        assert load_config(path).features.throughput_scale_bps == 1.5e8

    def test_int_literal_for_float_field(self):
        cfg = config_from_dict({"video": {"chunk_duration_s": 4}})
        assert isinstance(cfg.video.chunk_duration_s, float)
        assert cfg.video.chunk_duration_s == 4.0

    def test_string_for_int_field(self):
        cfg = config_from_dict({"video": {"num_chunks": "12"}})
        assert cfg.video.num_chunks == 12
        assert isinstance(cfg.video.num_chunks, int)

    def test_optional_float_field(self):
        assert config_from_dict({"video": {"initial_buffer_s": None}}).video.initial_buffer_s is None
        got = config_from_dict({"video": {"initial_buffer_s": 16}}).video.initial_buffer_s
        assert got == 16.0 and isinstance(got, float)

    def test_bool_field_not_coerced(self):
        cfg = config_from_dict({"mpc": {"robust": False}})
        assert cfg.mpc.robust is False

    def test_tuple_fields_accept_lists(self):
        cfg = config_from_dict({
            "video": {"ladder_kbps": [1000, 2000, 4000]},
            "eval": {"methods": ["bola", "full"], "margin_grid": [0.8, 1.0]},
            "predictor": {"candidates": ["point"]},
        })
        assert cfg.video.ladder_kbps == (1000, 2000, 4000)
        assert cfg.eval.methods == ("bola", "full")
        assert cfg.eval.margin_grid == (0.8, 1.0)
        assert cfg.predictor.candidates == ("point",)


    def test_top_level_keys_are_coerced(self):
        cfg = config_from_dict({"seed": "7", "history_len": "6"})
        assert (cfg.seed, cfg.history_len) == (7, 6)


def _keys():
    """(dotted key, annotation, default) of every config key, top-level keys included."""
    keys = []
    for top in dataclasses.fields(ExperimentConfig):
        if top.default_factory is dataclasses.MISSING:
            keys.append((top.name, str(top.type), top.default))
        else:
            keys += [(f"{top.name}.{f.name}", str(f.type), getattr(top.default_factory(), f.name))
                     for f in dataclasses.fields(top.default_factory)]
    return keys


# Values of the wrong type for each scalar annotation; a bool is never a number. They
# include the shapes that loaded or crashed before keys were checked: ppo.n_envs 2.5,
# history_len 8.0, mpc.robust 'no', a bare eval.margin_grid or eval.methods, a margin 'a'.
_WRONG = {"int": [2.5, 8.0, True, "2.5", None, [1]], "float": [True, "fast", None, [1.0]],
          "bool": ["no", 1, None], "str": [5, None, ["a"]]}


def _wrong_values(annotation, default):
    if annotation.endswith(" | None"):
        return [v for v in _WRONG[annotation[: -len(" | None")]] if v is not None]
    if annotation.startswith("tuple["):  # a bare item, or a list holding a wrong one
        return [default[0], *([v] for v in _WRONG[annotation[len("tuple[") : -len(", ...]")]])]
    return _WRONG[annotation]


def _load(key, value):
    section, _, name = key.rpartition(".")
    return config_from_dict({section: {name: value}} if section else {name: value})


class TestKeyTypes:
    """Every key's annotation has a rule: a key of a new type fails here first."""

    @pytest.mark.parametrize("key, annotation, default", _keys(), ids=[key for key, _, _ in _keys()])
    def test_valid_value_loads_and_wrong_type_is_rejected(self, key, annotation, default):
        cfg = _load(key, list(default) if isinstance(default, tuple) else default)
        got = cfg
        for part in key.split("."):
            got = getattr(got, part)
        assert got == default and type(got) is type(default)
        for wrong in _wrong_values(annotation, default):
            with pytest.raises(ValueError, match=rf"config key {key}: expected "):
                _load(key, wrong)


class TestValidation:
    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError, match=r"'video'.*nope"):
            config_from_dict({"video": {"nope": 1}})

    def test_mpc_window_longer_than_history_rejected_at_load(self):
        # gen-traces, pretrain and finetune ran; only evaluate refused the config
        with pytest.raises(ValueError, match=r"mpc.history_len \(5\) may not exceed history_len \(4\)"):
            config_from_dict({"history_len": 4, "mpc": {"history_len": 5}})
        with pytest.raises(ValueError, match="mpc.history_len"):
            with_overrides(config_from_dict({"history_len": 4, "mpc": {"history_len": 5},
                                             "eval": {"methods": ["bola"]}}), methods=("robust-mpc",))
        # without robust MPC among the methods its window is never read
        config_from_dict({"history_len": 4, "mpc": {"history_len": 5}, "eval": {"methods": ["bola"]}})

    @pytest.mark.parametrize("section, key, value", [
        # the audited methods are always audited; unaudited variants are separate methods
        ("audit", "enabled", False),
        # the point forecast averages the last horizon_s samples; no second window
        ("predictor", "input_len_s", 75),
        # calibrate scores the candidates and selects none, so there is no QoE band
        ("eval", "qoe_tolerance", 0.03),
    ], ids=["audit.enabled", "predictor.input_len_s", "eval.qoe_tolerance"])
    def test_removed_key_rejected(self, section, key, value):
        # A removed key must fail loudly instead of being silently ignored.
        with pytest.raises(ValueError, match=rf"'{section}'.*{key}"):
            config_from_dict({section: {key: value}})

    def test_bad_audit_margin_rejected_at_load(self):
        with pytest.raises(ValueError, match="capacity_margin"):
            config_from_dict({"audit": {"capacity_margin": 1.5}})
        with pytest.raises(ValueError, match="guard_s"):
            config_from_dict({"audit": {"guard_s": -1.0}})
        # the margin grid is checked by the audit margin's own rule, the method
        # list against ALL_METHODS and the predictor candidates against
        # PREDICTOR_CANDIDATES, before any stage writes a report
        with pytest.raises(ValueError, match="capacity_margin"):
            config_from_dict({"eval": {"margin_grid": [0.9, 1.5]}})
        with pytest.raises(ValueError, match="teleport"):
            config_from_dict({"eval": {"methods": ["teleport"]}})
        with pytest.raises(ValueError, match="teleport"):
            config_from_dict({"predictor": {"candidates": ["teleport"]}})
        # penalties, video settings and the history length fail at load too,
        # not at the first stage that builds a spec or a session
        with pytest.raises(ValueError, match="rebuffer_penalty"):
            config_from_dict({"qoe": {"rebuffer_penalty": -1}})
        with pytest.raises(ValueError, match="smoothness_penalty"):
            config_from_dict({"qoe": {"smoothness_penalty": float("nan")}})
        with pytest.raises(ValueError, match="size_jitter"):
            config_from_dict({"video": {"size_jitter_low": 0.0}})
        with pytest.raises(ValueError, match="history_len"):
            config_from_dict({"history_len": 0})
        # and so do the BC sizes, the split fractions (by split_traces' rule)
        # and the tail fraction (by tail_mean's rule)
        with pytest.raises(ValueError, match="rollout_steps"):
            config_from_dict({"bc": {"rollout_steps": 0}})
        with pytest.raises(ValueError, match="batch_size"):
            config_from_dict({"bc": {"batch_size": 0}})
        with pytest.raises(ValueError, match="split fractions must sum to 1"):
            config_from_dict({"traces": {"split_train": 0.5}})
        with pytest.raises(ValueError, match="tail fraction"):
            config_from_dict({"eval": {"tail_fraction": 0}})

    @pytest.mark.parametrize("section, values", [
        # horizon 0: robust MPC returned the float 0.0 for every state
        ("mpc", {"horizon": 0}),
        # a 0-sample window: a bare ZeroDivisionError when robust, else the
        # whole history averaged
        ("mpc", {"history_len": 0}),
        ("mpc", {"history_len": 0, "robust": False}),
        # horizon 0 labels every state rung 0: a constant teacher
        ("bc", {"expert_horizon": 0}),
        # finetune collected nothing per update and never ended, or failed
        # with a bare ValueError
        ("ppo", {"n_envs": 0}),
        ("ppo", {"n_steps": 0}),
        ("ppo", {"minibatch_size": 0}),
        # 0 epochs or total steps: finetune exited 0 and saved the clone as
        # the tuned policy
        ("ppo", {"epochs": 0}),
        ("ppo", {"total_steps": 0}),
        # an empty rolling window: finetune failed at its first shaped update
        ("cvar", {"window": 0}),
    ], ids=["mpc.horizon", "mpc.history_len", "mpc.history_len-plain", "bc.expert_horizon",
            "ppo.n_envs", "ppo.n_steps", "ppo.minibatch_size", "ppo.epochs", "ppo.total_steps",
            "cvar.window"])
    def test_count_below_one_rejected_at_load(self, section, values):
        key = next(iter(values))
        with pytest.raises(ValueError, match=rf"{key} must be at least 1"):
            config_from_dict({section: values})

    @pytest.mark.parametrize("values, match", [
        # gen-traces and pretrain ran, then finetune failed at its first update
        ({"alpha": 1.0}, r"alpha must lie in \(0, 1\)"),
        ({"alpha": 0.0}, r"alpha must lie in \(0, 1\)"),
        ({"penalty_weight": -1.0}, "penalty_weight must be finite and non-negative"),
        ({"penalty_weight": float("inf")}, "penalty_weight must be finite and non-negative"),
        ({"budget_s": float("nan")}, "budget_s must be finite"),
    ], ids=["alpha-1", "alpha-0", "negative-weight", "inf-weight", "nan-budget"])
    def test_bad_cvar_rejected_at_load(self, values, match):
        with pytest.raises(ValueError, match=match):
            config_from_dict({"cvar": values})

    def test_penalty_override_passes_the_cvar_check(self):
        with pytest.raises(ValueError, match="penalty_weight must be finite and non-negative"):
            with_overrides(ExperimentConfig(), penalty_weight=-2.0)
        assert with_overrides(ExperimentConfig(), penalty_weight=0.0).cvar.penalty_weight == 0.0

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="top-level"):
            config_from_dict({"sead": 7})

    def test_unknown_section_name_rejected(self):
        with pytest.raises(ValueError, match="top-level"):
            config_from_dict({"vides": {"num_chunks": 12}})

    def test_empty_file_yields_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("", encoding="utf-8")
        assert load_config(path) == ExperimentConfig()

    def test_comment_only_file_yields_defaults(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("# nothing but a comment\n", encoding="utf-8")
        assert load_config(path) == ExperimentConfig()

    @pytest.mark.parametrize("text", ["video: 5", "video: [1, 2]", "ppo: abc"])
    def test_non_mapping_section_is_an_error_line(self, tmp_path, capsys, text):
        # video died in a TypeError traceback; ppo's message did not name the section
        path = tmp_path / "exp.yaml"
        path.write_text(text + "\n", encoding="utf-8")
        assert main(["gen-traces", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        section = text.split(":")[0]
        assert f"error: config section '{section}': expected a mapping" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_feature_scale_rejected_at_load(self, scale):
        # a scale of 0 loaded, and pretrain ran its whole DAgger schedule
        # before refusing a checkpoint full of non-finite parameters
        with pytest.raises(ValueError, match="throughput_scale_bps must be finite and positive"):
            config_from_dict({"features": {"throughput_scale_bps": scale}})

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="mapping"):
            load_config(path)


class TestFingerprints:
    FPS = (traces_fingerprint, bc_fingerprint, ppo_fingerprint, calibration_fingerprint)

    def test_shape_and_distinctness(self):
        cfg = ExperimentConfig()
        prints = [fp(cfg) for fp in self.FPS]
        for p in prints:
            assert len(p) == 16
            assert set(p) <= set("0123456789abcdef")
        assert len(set(prints)) == len(prints)
        assert [fp(cfg) for fp in self.FPS] == prints  # deterministic

    def test_traces_fingerprint_sensitivity(self):
        base = traces_fingerprint(ExperimentConfig())
        assert traces_fingerprint(_tweak(seed=8)) != base
        assert traces_fingerprint(_tweak(traces={"count": 99})) != base
        assert traces_fingerprint(_tweak(traces={"regime_dwell_s": 20.0})) != base
        # downstream knobs do not touch the trace stage
        assert traces_fingerprint(_tweak(video={"num_chunks": 12})) == base
        assert traces_fingerprint(_tweak(ppo={"learning_rate": 1e-5})) == base
        assert traces_fingerprint(_tweak(output_dir="runs/other")) == base

    def test_bc_fingerprint_sensitivity(self):
        base = bc_fingerprint(ExperimentConfig())
        changed = [
            _tweak(seed=8),
            _tweak(mpc={"history_len": 4}, history_len=4),
            _tweak(traces={"count": 99}),      # upstream cascades
            _tweak(video={"num_chunks": 12}),
            _tweak(qoe={"rebuffer_penalty": 10.0}),
            _tweak(features={"throughput_scale_bps": 1e8}),
            _tweak(bc={"epochs": 9}),
        ]
        assert all(bc_fingerprint(c) != base for c in changed)
        unchanged = [
            _tweak(ppo={"learning_rate": 1e-5}),
            _tweak(cvar={"penalty_weight": 0.0}),
            _tweak(predictor={"delta": 0.2}),
            _tweak(audit={"capacity_margin": 0.5}),
            _tweak(eval={"methods": ("bola",)}),
        ]
        assert all(bc_fingerprint(c) == base for c in unchanged)

    def test_ppo_fingerprint_sensitivity(self):
        base = ppo_fingerprint(ExperimentConfig())
        assert ppo_fingerprint(_tweak(ppo={"total_steps": 512})) != base  # no ppo key is exempt
        assert ppo_fingerprint(_tweak(ppo={"learning_rate": 1e-5})) != base
        assert ppo_fingerprint(_tweak(ppo={"gamma": 0.5})) != base
        assert ppo_fingerprint(_tweak(cvar={"penalty_weight": 0.0})) != base
        assert ppo_fingerprint(_tweak(qoe={"rebuffer_penalty": 10.0})) != base  # upstream
        assert ppo_fingerprint(_tweak(predictor={"delta": 0.2})) == base

    def test_calibration_fingerprint_sensitivity(self):
        base = calibration_fingerprint(ExperimentConfig())
        assert calibration_fingerprint(_tweak(predictor={"horizon_s": 5})) != base
        assert calibration_fingerprint(_tweak(traces={"count": 99})) != base
        assert calibration_fingerprint(_tweak(seed=8)) != base
        # the calibration stage never sees the policy stack
        assert calibration_fingerprint(_tweak(bc={"epochs": 9})) == base
        assert calibration_fingerprint(_tweak(ppo={"gamma": 0.5})) == base
        assert calibration_fingerprint(_tweak(video={"num_chunks": 12})) == base


class TestWithOverrides:
    def test_no_overrides_is_identity(self):
        cfg = ExperimentConfig()
        assert with_overrides(cfg) == cfg

    def test_individual_knobs(self):
        cfg = ExperimentConfig()
        assert with_overrides(cfg, seed=3) == _tweak(seed=3)
        assert with_overrides(cfg, out="runs/x") == _tweak(output_dir="runs/x")
        assert with_overrides(cfg, penalty_weight=0.0) == _tweak(cvar={"penalty_weight": 0.0})
        assert with_overrides(cfg, margin=0.8) == _tweak(audit={"capacity_margin": 0.8})
        assert with_overrides(cfg, guard=1.5) == _tweak(audit={"guard_s": 1.5})
        assert with_overrides(cfg, methods=("bola", "full")) == _tweak(eval={"methods": ("bola", "full")})

    def test_combined_overrides(self):
        got = with_overrides(ExperimentConfig(), seed=9, out="runs/y", penalty_weight=5.0,
                             margin=1.0, guard=0.5, methods=("full",))
        want = _tweak(seed=9, output_dir="runs/y", cvar={"penalty_weight": 5.0},
                      audit={"capacity_margin": 1.0, "guard_s": 0.5}, eval={"methods": ("full",)})
        assert got == want

    def test_method_order_preserved(self):
        got = with_overrides(ExperimentConfig(), methods=("full", "bola"))
        assert got.eval.methods == ("full", "bola")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match=r"bc\+teleport"):
            with_overrides(ExperimentConfig(), methods=("bola", "bc+teleport"))
        # every published method name is accepted
        assert with_overrides(ExperimentConfig(), methods=ALL_METHODS).eval.methods == ALL_METHODS


class TestSectionHelpers:
    def test_synth_config_wiring(self):
        ts = TraceSection(duration_s=240, regime_dwell_s=10.0, ar1_sigma_mbps=0.5)
        sc = ts.synth_config(seed=(1, 2))
        assert sc.duration_s == 240
        assert sc.regime_dwell_s == 10.0
        assert sc.ar1_sigma_mbps == 0.5
        assert sc.seed == (1, 2)

    def test_split_fractions(self):
        assert TraceSection().split_fractions == (0.70, 0.15, 0.15)

    def test_video_spec_wiring(self):
        vs = VideoSection(num_chunks=12, ladder_kbps=(1000, 2000), initial_prev_rung=1)
        spec = vs.video_spec()
        assert spec.num_chunks == 12
        assert spec.ladder.rungs_kbps == (1000, 2000)
        assert spec.size_jitter == (0.9, 1.1)
        assert spec.initial_prev_rung == 1
