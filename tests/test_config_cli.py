"""Config parsing and end-to-end CLI subcommand tests."""

import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from eegssl import cli
from eegssl.cli import run_cli
from eegssl.config import (_KEY_ALIASES, RunConfig, TrainConfig,
                           config_from_dict)
from eegssl.data import (SegmentBatch, load_segments, save_checkpoint,
                         save_segments)
from eegssl.errors import ValidationError
from eegssl.synth import SynthSpec, synth_labeled_dataset
from eegssl.trainer import GradCheckReport, init_train_state, make_checkpoint


def load_flags(argv):
    """The run config the CLI builds from `argv`."""
    return cli._load(cli._build_parser().parse_args(argv))


def test_defaults_without_file():
    cfg = load_flags(["synth", "--out", "x.lcmr"])
    assert cfg == RunConfig()
    assert cfg.seed == 0
    assert cfg.encoder.d == 64
    assert cfg.schedule.lr_max == 1.5e-4
    assert cfg.schedule.wd_init == 0.05
    assert cfg.train.batch_size == 64
    assert cfg.preproc.target_rate_hz == 256.0


def test_sections_parsed():
    cfg = config_from_dict({
        "seed": 5,
        "encoder": {"d": 32, "layers": 2, "in_channels": 8, "mapped_channels": 8},
        "schedule": {"lr_max": 1e-3, "warmup_epochs": 2},
        "train": {"batch_size": 16, "epochs": 3, "lambda": 2.0},
        "synth": {"channel_count": 8, "duration_s": 8.0,
                  "oscillations": [[10.0, 1.0, [0, 1]]]},
    })
    assert cfg.seed == 5
    assert cfg.encoder.d == 32
    assert cfg.train.lam == 2.0
    spec = cfg.synth.spec(cfg.seed)
    assert spec.oscillations[0].frequency_hz == 10.0
    assert spec.oscillations[0].channels == (0, 1)


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError, match="unknown top-level"):
        config_from_dict({"nope": {}})
    with pytest.raises(ValidationError, match="unknown key"):
        config_from_dict({"train": {"nope": 1}})
    with pytest.raises(ValidationError, match="unknown key"):
        config_from_dict({"schedule": {"total_epochs": 10}})  # sized by the run
    for key in ("seed", "encoder", "schedule"):   # each has its own section
        with pytest.raises(ValidationError, match="unknown key"):
            config_from_dict({"train": {key: 1}})
    # the field behind train.lambda is not a second spelling of it
    with pytest.raises(ValidationError, match="unknown key 'lam'"):
        config_from_dict({"train": {"lam": 2.0, "lambda": 3.0}})


def test_every_section_field_is_a_config_key():
    # every field of every section can be set from the file under its
    # documented key, so no section carries a placeholder that another
    # section fills in
    default = RunConfig()
    raw = {"seed": default.seed}
    for section in fields(default):
        value = getattr(default, section.name)
        if section.name != "seed":
            key_of = {f: k for k, f in _KEY_ALIASES.get(section.name, {}).items()}
            raw[section.name] = {key_of.get(f.name, f.name): getattr(value, f.name)
                                 for f in fields(value)}
    assert config_from_dict(raw) == default


def test_invariants_revalidated_on_load():
    with pytest.raises(ValidationError):
        config_from_dict({"schedule": {"lr_max": 1e-9, "lr_final": 1.0}})
    with pytest.raises(ValidationError):
        config_from_dict({"encoder": {"d": 10, "heads": 4}})


def test_flag_overrides_win(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 1, "schedule": {"mode": "warmup-cosine"},
                                "train": {"epochs": 3, "batch_size": 4,
                                          "p_mask": 0.5, "lambda": 2.0}}))
    cfg = load_flags(["pretrain", "seg.lcms", "--config", str(path), "--out", "o",
                      "--seed", "9", "--epochs", "7", "--batch-size", "2",
                      "--p-mask", "0.25", "--lambda", "3", "--lr-mode", "polynomial"])
    assert cfg.seed == 9
    assert cfg.train.epochs == 7
    assert cfg.train.batch_size == 2
    assert cfg.train.p_mask == 0.25
    assert cfg.train.lam == 3.0
    assert cfg.schedule.mode == "polynomial"


@pytest.mark.parametrize("key, field, value", [
    ("p_mask", "p_mask", 1.5),
    ("p_mask", "p_mask", -0.1),
    ("p_mask", "p_mask", 0.0),
    ("batch_size", "batch_size", 0),
    ("epochs", "epochs", 0),
    ("lambda", "lam", -1.0),
    ("checkpoint_every_epochs", "checkpoint_every_epochs", -1),
])
def test_train_values_validated(key, field, value):
    with pytest.raises(ValidationError):
        TrainConfig(**{field: value})
    with pytest.raises(ValidationError):
        config_from_dict({"train": {key: value}})


def test_train_config_assembly():
    # a run starts from the whole config: the train section sizes the schedule
    cfg = config_from_dict({"seed": 4, "schedule": {"warmup_epochs": 1},
                            "train": {"epochs": 2, "batch_size": 4}})
    state = init_train_state(cfg, steps_per_epoch=3)
    assert state.cfg is cfg
    assert state.steps_per_epoch == 3


def test_long_warmup_parses_and_starts():
    # warmup is checked against train.epochs when the run starts, not when
    # the file is parsed
    cfg = config_from_dict({"schedule": {"warmup_epochs": 250}, "train": {"epochs": 300}})
    state = init_train_state(cfg, steps_per_epoch=2)
    assert (state.cfg.schedule.warmup_epochs, state.cfg.train.epochs) == (250, 300)
    with pytest.raises(ValidationError, match="warmup_epochs must be >= 0"):
        config_from_dict({"schedule": {"warmup_epochs": -1}})


INTEGER_KEY_CASES = pytest.mark.parametrize("bad", [
    {"train": {"batch_size": 2.5}},
    {"train": {"epochs": 2.0}},
    {"encoder": {"d": 16.0}},
    {"seed": True},
], ids=["batch_size-float", "epochs-float", "d-float", "seed-bool"])


@INTEGER_KEY_CASES
def test_integer_keys_reject_floats_and_bools(bad):
    with pytest.raises(ValidationError, match="must be an integer"):
        config_from_dict(bad)


TYPED_KEY_CASES = pytest.mark.parametrize("bad, key", [
    ({"train": {"p_mask": "x"}}, "train.p_mask"),
    ({"train": {"lambda": float("nan")}}, "train.lambda"),
    ({"probe": {"lr": True}}, "probe.lr"),
    ({"preproc": {"apply_bandpass": 3}}, "preproc.apply_bandpass"),
    ({"train": {"log_path": 1}}, "train.log_path"),
    ({"train": {"checkpoint_dir": ["runs"]}}, "train.checkpoint_dir"),
    ({"synth": {"background_exponent": "x"}}, "synth.background_exponent"),
    ({"synth": {"duration_s": float("inf")}}, "synth.duration_s"),
    ({"preproc": {"channel_selection": "ch0"}}, "preproc.channel_selection"),
    ({"preproc": {"channel_selection": ["ch0", 1]}}, "preproc.channel_selection"),
], ids=["float-string", "float-nan", "float-bool", "bool-int", "log_path-int",
        "checkpoint_dir-list", "background_exponent-string", "float-infinity",
        "channel_selection-string", "channel_selection-int-entry"])


@TYPED_KEY_CASES
def test_keys_reject_values_of_another_type(bad, key):
    with pytest.raises(ValidationError, match=f"{key} must be"):
        config_from_dict(bad)


@pytest.mark.parametrize("synth, message", [
    ({"channel_count": 0}, "channel_count must be positive"),
    ({"scale_to_mV": 0.0}, "scale_to_mV must be positive"),
    ({"oscillations": [[200.0, 1.0, None]]}, "Nyquist"),
    ({"oscillations": [[10.0]]}, "not enough values"),
], ids=["channel_count", "scale_to_mV", "oscillation-above-nyquist",
        "oscillation-malformed"])
def test_synth_section_validated_at_parse(synth, message):
    with pytest.raises(ValidationError, match=message):
        config_from_dict({"synth": synth})


@pytest.mark.parametrize("raw, key", [
    ({"probe": {"lr": -5.0}}, "probe lr"),
    ({"probe": {"lr": 0.0}}, "probe lr"),
    ({"encoder": {"d": 16, "mlp_ratio": 0.01}}, "mlp_ratio"),
    ({"encoder": {"mlp_ratio": 1e308}}, "mlp_ratio"),
    ({"schedule": {"decay_exponent": -1.0}}, "decay_exponent"),
], ids=["probe-lr-negative", "probe-lr-zero", "mlp_ratio-zero-width",
        "mlp_ratio-infinite-width", "decay_exponent-negative"])
def test_out_of_range_values_rejected_at_parse(raw, key):
    with pytest.raises(ValidationError, match=key):
        config_from_dict(raw)


def test_readme_defaults_parse_to_run_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = json.loads(re.search(r"Defaults shown:\s*```json\n(.*?)```", readme,
                                 re.S).group(1))
    assert config_from_dict(block) == RunConfig()
    # and it lists every key of every section
    default = RunConfig()
    assert {name: len(section) for name, section in block.items() if name != "seed"} \
        == {f.name: len(fields(getattr(default, f.name)))
            for f in fields(default) if f.name != "seed"}


# --- CLI -----------------------------------------------------------------------------

SMALL_CONFIG = {
    "seed": 3,
    "synth": {"channel_count": 4, "duration_s": 64.0, "sample_rate_hz": 256.0,
              "background_exponent": 1.0,
              "oscillations": [[10.0, 2.0, [0, 1]], [22.0, 1.5, [2, 3]]]},
    "encoder": {"d": 16, "layers": 1, "heads": 4, "mlp_ratio": 2.0, "p_t": 64,
                "in_channels": 4, "mapped_channels": 4, "n_t": 16},
    "schedule": {"lr_max": 1e-3, "warmup_epochs": 1},
    "train": {"batch_size": 8, "epochs": 2},
    "probe": {"epochs": 100, "train_fraction": 0.5},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def write_segments(tmp_path):
    seg = tmp_path / "seg.lcms"
    segments = np.random.default_rng(0).standard_normal((8, 4, 1024))
    save_segments(SegmentBatch(segments.astype(np.float32), 256.0), seg)
    return seg


def test_synth_deterministic_bytes(tmp_path, config_path):
    out_a = tmp_path / "a.lcmr"
    out_b = tmp_path / "b.lcmr"
    assert run_cli(["synth", "--config", config_path, "--out", str(out_a)]) == 0
    assert run_cli(["synth", "--config", config_path, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.lcmr.meta").exists()


def test_full_pipeline(tmp_path, config_path, capsys):
    rec = tmp_path / "rec.lcmr"
    seg = tmp_path / "seg.lcms"
    ckpt = tmp_path / "model.lcmc"
    assert run_cli(["synth", "--config", config_path, "--out", str(rec)]) == 0
    assert run_cli(["preprocess", str(rec), "--config", config_path,
                    "--out", str(seg)]) == 0
    batch = load_segments(seg)
    assert batch.segments.shape == (16, 4, 1024)
    assert run_cli(["pretrain", str(seg), "--config", config_path,
                    "--out", str(ckpt)]) == 0
    assert ckpt.exists()

    # labeled segments for the probe
    spec = SynthSpec(seed=3, channel_count=4, duration_s=4.0, sample_rate_hz=256.0,
                     background_exponent=1.0)
    labeled = synth_labeled_dataset(spec, 2, 40, (8.0, 12.0), 4.0)
    labeled_path = tmp_path / "labeled.lcms"
    save_segments(labeled, labeled_path)
    capsys.readouterr()
    assert run_cli(["probe", str(ckpt), str(labeled_path),
                    "--config", config_path]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    report = json.loads(line)
    assert set(report) == {"balanced_accuracy", "cohens_kappa", "weighted_f1",
                           "auroc"}

    assert run_cli(["inspect", str(rec)]) == 0
    assert run_cli(["inspect", str(ckpt)]) == 0
    assert run_cli(["inspect", str(seg)]) == 0


def test_probe_checkpoint_of_another_encoder_exits_1(tmp_path, config_path, capsys):
    # a d=32 checkpoint probed under the config's d=16 encoder
    wide = config_from_dict(
        dict(SMALL_CONFIG, encoder=dict(SMALL_CONFIG["encoder"], d=32)))
    ckpt = tmp_path / "wide.lcmc"
    save_checkpoint(make_checkpoint(init_train_state(wide, 1), 0), ckpt)
    spec = SynthSpec(seed=3, channel_count=4, duration_s=4.0, sample_rate_hz=256.0)
    labeled = tmp_path / "labeled.lcms"
    save_segments(synth_labeled_dataset(spec, 2, 4, (8.0, 12.0), 4.0), labeled)
    code = run_cli(["probe", str(ckpt), str(labeled), "--config", config_path])
    assert code == 1
    err = capsys.readouterr().err
    assert "'xi/channel_embed' has shape (4, 32), expected (4, 16)" in err


def test_pretrain_missing_config_exits_2(tmp_path, capsys):
    seg = tmp_path / "seg.lcms"
    code = run_cli(["pretrain", str(seg), "--config", str(tmp_path / "none.json"),
                    "--out", str(tmp_path / "o.lcmc")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_pretrain_epochs_not_above_warmup_exits_1(tmp_path, config_path, capsys):
    seg = write_segments(tmp_path)
    # SMALL_CONFIG warms up for 1 epoch, so a 1-epoch run has no decay phase
    code = run_cli(["pretrain", str(seg), "--config", config_path, "--epochs", "1",
                    "--out", str(tmp_path / "o.lcmc")])
    assert code == 1
    err = capsys.readouterr().err
    assert "schedule.warmup_epochs" in err and "train.epochs" in err
    assert "total_epochs" not in err


@INTEGER_KEY_CASES
def test_pretrain_integer_key_of_another_type_exits_1(tmp_path, capsys, bad):
    seg = write_segments(tmp_path)
    raw = dict(SMALL_CONFIG)
    for key, value in bad.items():
        raw[key] = dict(raw[key], **value) if isinstance(value, dict) else value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    code = run_cli(["pretrain", str(seg), "--config", str(path),
                    "--out", str(tmp_path / "o.lcmc")])
    assert code == 1
    assert "must be an integer" in capsys.readouterr().err


@TYPED_KEY_CASES
def test_key_of_another_type_exits_1(tmp_path, capsys, bad, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(bad))  # NaN and Infinity as JSON extensions
    code = run_cli(["synth", "--config", str(path), "--out", str(tmp_path / "x.lcmr")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} must be" in err


@pytest.mark.parametrize("synth, message", [
    ({"oscillations": [[10.0, 1.0, [0.5]]]}, "channel 0.5 must be an integer"),
    ({"oscillations": [[10.0, 1.0, [True]]]}, "channel True must be an integer"),
    ({"oscillations": [[True, 1.0, None]]}, "frequency_hz must be a finite number"),
    ({"oscillations": [["10", 1.0, None]]}, "frequency_hz must be a finite number"),
    ({"oscillations": [[10.0, float("nan"), None]]}, "amplitude must be a finite number"),
    ({"duration_s": 1e300}, "duration_s=1e+300 needs"),
], ids=["channel-float", "channel-bool", "frequency-bool", "frequency-string",
        "amplitude-nan", "duration-beyond-memory"])
def test_synth_rejects_bad_entries_with_exit_1(tmp_path, capsys, synth, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"synth": synth}))  # NaN as a JSON extension
    out = tmp_path / "x.lcmr"
    code = run_cli(["synth", "--config", str(path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("flag, text, key, value, message", [
    ("--lambda", "nan", "lambda", float("nan"), "train.lambda must be a finite number"),
    ("--p-mask", "1.5", "p_mask", 1.5, "p_mask must lie in (0, 1]"),
    ("--batch-size", "0", "batch_size", 0, "batch_size must be >= 1"),
    ("--epochs", "0", "epochs", 0, "epochs must be >= 1"),
], ids=["lambda-nan", "p_mask-above-1", "batch_size-0", "epochs-0"])
def test_bad_flag_value_exits_1_like_its_file_key(tmp_path, capsys, flag, text, key,
                                                  value, message):
    # --seed and --lr-mode are typed and checked by argparse itself
    seg = write_segments(tmp_path)
    log, ckpt_dir, out = tmp_path / "log.jsonl", tmp_path / "ckpts", tmp_path / "o.lcmc"
    train = dict(SMALL_CONFIG["train"], log_path=str(log), checkpoint_dir=str(ckpt_dir))
    path = tmp_path / "run.json"
    errors = []
    for file_train, flags in ((train, [flag, text]), (dict(train, **{key: value}), [])):
        path.write_text(json.dumps(dict(SMALL_CONFIG, train=file_train)))
        code = run_cli(["pretrain", str(seg), "--config", str(path), "--out", str(out),
                        *flags])
        assert code == 1
        assert not (out.exists() or log.exists() or ckpt_dir.exists())
        errors.append(capsys.readouterr().err)
    assert errors == [f"error: {message}\n"] * 2


@pytest.mark.parametrize("flag, text, key, value", [
    ("--seed", "4", "seed", 4),
    ("--epochs", "3", "train.epochs", 3),
    ("--batch-size", "4", "train.batch_size", 4),
    ("--p-mask", "0.25", "train.p_mask", 0.25),
    ("--lambda", "2.5", "train.lambda", 2.5),
    ("--lr-mode", "polynomial", "schedule.mode", "polynomial"),
], ids=["seed", "epochs", "batch_size", "p_mask", "lambda", "lr_mode"])
def test_flag_and_file_key_give_identical_checkpoints(tmp_path, flag, text, key, value):
    seg = write_segments(tmp_path)
    section, _, leaf = key.rpartition(".")
    with_key = dict(SMALL_CONFIG)
    if section:
        with_key[section] = dict(SMALL_CONFIG[section], **{leaf: value})
    else:
        with_key[leaf] = value
    checkpoints = []
    for i, (raw, flags) in enumerate(((SMALL_CONFIG, [flag, text]), (with_key, []))):
        path, out = tmp_path / f"run{i}.json", tmp_path / f"model{i}.lcmc"
        path.write_text(json.dumps(raw))
        assert run_cli(["pretrain", str(seg), "--config", str(path), "--out", str(out),
                        *flags]) == 0
        checkpoints.append(out.read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_preprocess_invalid_synth_section_exits_1(tmp_path, config_path, capsys):
    rec = tmp_path / "rec.lcmr"
    assert run_cli(["synth", "--config", config_path, "--out", str(rec)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SMALL_CONFIG, synth={"channel_count": 0})))
    code = run_cli(["preprocess", str(rec), "--config", str(bad),
                    "--out", str(tmp_path / "seg.lcms")])
    assert code == 1
    assert "channel_count must be positive" in capsys.readouterr().err


def test_validation_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"batch_size": 0}}))
    code = run_cli(["synth", "--config", str(bad), "--out", str(tmp_path / "x.lcmr")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run_cli(["synth", "--config", str(bad), "--out", str(tmp_path / "x.lcmr")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_inspect_unknown_magic_exits_2(tmp_path, capsys):
    path = tmp_path / "x.bin"
    path.write_bytes(b"ZZZZ123456")
    assert run_cli(["inspect", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_gradcheck_passes(capsys):
    assert run_cli(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out and "pass" in out


@pytest.mark.parametrize("text, code", [
    (json.dumps({"train": {"batch_size": 0}}), 1),
    (json.dumps({"train": {"seed": 1}}), 1),
    (json.dumps([1, 2]), 1),
    ("{not json", 2),
], ids=["bad-value", "unknown-key", "array-root", "bad-json"])
def test_gradcheck_config_validated(tmp_path, capsys, text, code):
    path = tmp_path / "run.json"
    path.write_text(text)
    assert run_cli(["gradcheck", "--config", str(path)]) == code
    assert capsys.readouterr().err.startswith("error:")


def test_gradcheck_uses_train_settings(tmp_path, monkeypatch):
    calls = []

    def fake_grad_check(cfg):
        calls.append((cfg.encoder, cfg.seed, cfg.train.p_mask, cfg.train.lam))
        return GradCheckReport(per_tensor={"w": 0.0}, max_rel_error=0.0)

    monkeypatch.setattr(cli, "grad_check", fake_grad_check)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 5, "train": {"p_mask": 0.25, "lambda": 2.5}}))
    assert run_cli(["gradcheck", "--config", str(path)]) == 0
    assert calls == [(cli.GRADCHECK_SMALL, 5, 0.25, 2.5)]


def test_help_lists_documented_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["pretrain", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--seed", "--out", "--epochs", "--batch-size",
                 "--p-mask", "--lambda", "--lr-mode"):
        assert flag in out
