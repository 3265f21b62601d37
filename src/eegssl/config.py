"""Run configuration: one JSON file mirroring the module configs.

Layout (all keys optional, defaults are the module defaults):

    {
      "seed": 0,
      "synth":    {"channel_count": 8, "duration_s": 4.0, "sample_rate_hz": 256.0,
                   "background_exponent": 1.0, "oscillations": [],
                   "scale_to_mV": 1.0},
      "preproc":  {"target_rate_hz": 256.0, "segment_s": 4.0, "lowpass_hz": 38.0,
                   "apply_bandpass": true, "channel_selection": null},
      "encoder":  {"d": 64, "layers": 4, "heads": 4, "mlp_ratio": 4.0, "p_t": 64,
                   "in_channels": 8, "mapped_channels": 32, "n_t": 16,
                   "stem_kernel": 7},
      "schedule": {"lr_max": 1.5e-4, "lr_final": 1e-6, "warmup_epochs": 10,
                   "decay_exponent": 1.0, "mode": "warmup-cosine",
                   "wd_init": 0.05, "wd_final": 0.05,
                   "m_low": 0.996, "m_high": 1.0},
      "train":    {"batch_size": 64, "epochs": 20, "p_mask": 0.5, "lambda": 1.0,
                   "log_path": null, "checkpoint_dir": null,
                   "checkpoint_every_epochs": 0},
      "probe":    {"epochs": 500, "lr": 0.5, "train_fraction": 0.5}
    }

Unknown keys are rejected, and so is a value of another type than its key
declares (`_TYPE_RULES`; JSON NaN and Infinity are not finite). The CLI writes
its flags into the parsed file before `config_from_dict`, so a flag passes the
same checks as the key it sets. The single top-level seed drives every random
stream. Each section is the dataclass that checks its own values;
cross-section rules (schedule.warmup_epochs below train.epochs) are checked
when a run starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union, get_type_hints

from .encoder import EncoderConfig
from .errors import FormatError, ValidationError
from .optim import ScheduleConfig
from .preprocess import PreprocConfig
from .synth import SynthSpec


@dataclass(frozen=True)
class SynthSection:
    channel_count: int = 8
    duration_s: float = 4.0
    sample_rate_hz: float = 256.0
    background_exponent: Optional[float] = 1.0
    oscillations: tuple = ()
    scale_to_mV: float = 1.0

    def __post_init__(self):
        if not (self.scale_to_mV > 0):
            raise ValidationError("scale_to_mV must be positive")
        try:
            self.spec(0)  # the SynthSpec checks
        except (TypeError, ValueError) as exc:  # also a malformed oscillation
            raise ValidationError(f"invalid synth section: {exc}") from exc

    def spec(self, seed: int) -> SynthSpec:
        oscs = tuple(
            (f, a, None if ch is None else tuple(ch))
            for f, a, ch in (tuple(o) for o in self.oscillations))
        return SynthSpec(seed=seed, channel_count=self.channel_count,
                         duration_s=self.duration_s,
                         sample_rate_hz=self.sample_rate_hz,
                         background_exponent=self.background_exponent,
                         oscillations=oscs)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64          # sized for CPU runs; large-batch setups use 1024
    epochs: int = 20
    p_mask: float = 0.5
    lam: float = 1.0
    log_path: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_every_epochs: int = 0  # 0 = final checkpoint only

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if not (0.0 < self.p_mask <= 1.0):  # p_mask = 0 leaves L_R undefined
            raise ValidationError("p_mask must lie in (0, 1]")
        if self.lam < 0:
            raise ValidationError("lambda must be >= 0")
        if self.checkpoint_every_epochs < 0:
            raise ValidationError("checkpoint_every_epochs must be >= 0")


@dataclass(frozen=True)
class ProbeSection:
    epochs: int = 500
    lr: float = 0.5
    train_fraction: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ValidationError("train_fraction must lie in (0, 1)")
        if self.epochs < 1:
            raise ValidationError("probe epochs must be >= 1")
        if not (self.lr > 0):
            raise ValidationError("probe lr must be > 0")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    synth: SynthSection = SynthSection()
    preproc: PreprocConfig = PreprocConfig()
    encoder: EncoderConfig = EncoderConfig()
    schedule: ScheduleConfig = ScheduleConfig()
    train: TrainConfig = TrainConfig()
    probe: ProbeSection = ProbeSection()


# config key -> field name, where the key is a Python keyword; the field name
# itself is not a key
_KEY_ALIASES = {"train": {"lambda": "lam"}}
_SECTIONS = {
    "synth": SynthSection,
    "preproc": PreprocConfig,
    "encoder": EncoderConfig,
    "schedule": ScheduleConfig,
    "train": TrainConfig,
    "probe": ProbeSection,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:  # False for NaN, infinities, bools and strings
    return _is_int(value) or isinstance(value, float) and math.isfinite(value)


# declared field type -> (check of a JSON value, what the value must be)
_TYPE_RULES = {
    int: (_is_int, "an integer"),
    float: (_is_finite, "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    Optional[str]: (lambda v: v is None or isinstance(v, str), "a string or null"),
    Optional[float]: (lambda v: v is None or _is_finite(v), "a finite number or null"),
    Optional[tuple]: (lambda v: v is None or isinstance(v, (list, tuple))
                      and all(isinstance(c, str) for c in v), "a list of strings or null"),
}


def _build_section(name: str, cls, payload: dict):
    if not isinstance(payload, dict):
        raise ValidationError(f"config section {name!r} must be an object")
    hints = get_type_hints(cls)
    aliases = _KEY_ALIASES.get(name, {})
    kwargs = {}
    for key, value in payload.items():
        target = aliases.get(key, key)
        if target not in hints or key in aliases.values():
            raise ValidationError(f"unknown key {key!r} in config section {name!r}")
        rule = _TYPE_RULES.get(hints[target])  # none for oscillations and mode
        if rule is not None and not rule[0](value):
            raise ValidationError(f"{name}.{key} must be {rule[1]}")
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[target] = value
    return cls(**kwargs)


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    known = set(_SECTIONS) | {"seed"}
    for key in raw:
        if key not in known:
            raise ValidationError(f"unknown top-level config key {key!r}")
    sections = {}
    for name, cls in _SECTIONS.items():
        sections[name] = _build_section(name, cls, raw.get(name, {}))
    seed = raw.get("seed", 0)
    if not _is_int(seed):
        raise ValidationError("seed must be an integer")
    return RunConfig(seed=seed, **sections)


def read_config_file(path: Union[str, Path]):
    """The parsed JSON of a config file, not yet validated."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError("json", f"config is not valid JSON: {exc}") from exc
