"""The benchmark's workloads: their inputs, CLI commands and output checks.

Every seed a workload uses (synthesis, model, masks, probe split, labeled
set) is derived from the one workload seed, so the same seed gives the same
inputs. The program sees only the files and configs written here.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

SMALL_ENCODER = {"d": 32, "layers": 2, "heads": 4, "mlp_ratio": 4.0, "p_t": 64,
                 "in_channels": 8, "mapped_channels": 8, "n_t": 16,
                 "stem_kernel": 7}
CORPUS_OSCILLATIONS = [[10.0, 4.0, [0, 1, 2, 3]], [22.0, 3.0, [4, 5, 6, 7]]]
PROBE = {"epochs": 500, "lr": 0.5, "train_fraction": 0.5}
# Tone power of class 1 over class 0 in the labeled probe sets. At the
# acceptance test's ratio of 4 the probe scores below 0.80 at some seeds with
# a random and a trained encoder alike; at 16 it passes at every seed tried.
PROBE_POWER_RATIO = 16.0
SEGMENT_S = 4.0
# Recordings are synthesized at 500 Hz, so every preprocess resamples to
# 256 Hz as it would for a typical clinical recording.
SOURCE_RATE_HZ = 500.0


def derive_seed(seed: int, purpose: str) -> int:
    digest = hashlib.sha256(f"{seed}/{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def cli(*argv, role=None) -> dict:
    """A CLI step. `role` names the end-to-end metric its timing feeds."""
    return {"kind": "cli", "argv": [str(a) for a in argv], "role": role}


@dataclass
class Workload:
    name: str
    configs: dict               # file name -> JSON object
    setup: list                 # steps of one set-up, in one fresh process
    body: list                  # steps of one iteration, one fresh process each
    recording_s: float          # duration of the recording the timed preprocess reads
    train_segments: int         # segments one timed pretrain command trains on
    batch_size: int
    labeled: int                # segments in the labeled probe set
    checks: tuple = ()          # names of the output checks that apply
    expected_segments: int = 0  # for the segment-count check


def _labeled(seed: int, per_class: int) -> dict:
    return {"kind": "labeled", "seed": derive_seed(seed, "labeled"),
            "per_class": per_class, "power_ratio": PROBE_POWER_RATIO,
            "out": "labeled.lcms", "role": None}


def _pretrain_workload(name: str, seed: int, encoder: dict, schedule: dict,
                       segments: int, batch: int, epochs: int, per_class: int,
                       checks: tuple) -> Workload:
    synth_seed, model_seed = derive_seed(seed, "synth"), derive_seed(seed, "model")
    run = {"synth": {"channel_count": 8, "duration_s": segments * SEGMENT_S,
                     "sample_rate_hz": SOURCE_RATE_HZ, "background_exponent": 1.0,
                     "oscillations": CORPUS_OSCILLATIONS},
           "encoder": encoder, "schedule": schedule,
           "train": {"batch_size": batch, "epochs": epochs, "p_mask": 0.5,
                     "lambda": 1.0, "log_path": "train.jsonl"},
           "probe": PROBE}
    return Workload(
        name=name, configs={"run.json": run},
        setup=[cli("synth", "--config", "run.json", "--seed", synth_seed,
                   "--out", "corpus.lcmr"),
               cli("preprocess", "corpus.lcmr", "--config", "run.json",
                   "--out", "corpus.lcms", role="preprocess"),
               _labeled(seed, per_class)],
        body=[cli("pretrain", "corpus.lcms", "--config", "run.json",
                  "--seed", model_seed, "--out", "model.lcmc", role="pretrain"),
              cli("probe", "model.lcmc", "labeled.lcms", "--config", "run.json",
                  "--seed", model_seed, "--out", "probe.json", role="probe")],
        recording_s=segments * SEGMENT_S, train_segments=segments * epochs,
        batch_size=batch, labeled=2 * per_class, checks=checks)


def pretrain_small(seed: int) -> Workload:
    # Acceptance shape (d=32, 2 layers, 128 tokens, b=64, lr_max 2e-3) on a
    # 256-segment corpus for 20 steps: the 160-step acceptance run does not
    # fit a run of the benchmark, and 20 steps already halve the loss.
    return _pretrain_workload(
        "pretrain-small", seed, SMALL_ENCODER,
        {"lr_max": 2e-3, "warmup_epochs": 2}, segments=256, batch=64,
        epochs=5, per_class=200, checks=("loss_halves", "probe_accuracy"))


def pretrain_default(seed: int) -> Workload:
    # Paper-default encoder (512 tokens) at b=8; the shipped b=64 needs more
    # than 8 GB. 32 segments for 2 epochs give 8 steps.
    return _pretrain_workload(
        "pretrain-default", seed, {}, {"lr_max": 1e-3, "warmup_epochs": 0},
        segments=32, batch=8, epochs=2, per_class=32,
        checks=("loss_descends",))


def ingest_probe(seed: int) -> Workload:
    duration = 3600.0
    synth_seed, model_seed = derive_seed(seed, "synth"), derive_seed(seed, "model")
    recording = {"synth": {"channel_count": 8, "duration_s": duration,
                           "sample_rate_hz": SOURCE_RATE_HZ,
                           "background_exponent": 1.0}}
    # The checkpoint comes from one pretrain step at lr 1e-6: numerically the
    # initial paper-default encoder, written by the CLI like every other input.
    run = {"synth": {"channel_count": 8, "duration_s": 8 * SEGMENT_S,
                     "sample_rate_hz": 256.0, "background_exponent": 1.0},
           "schedule": {"lr_max": 1e-6, "lr_final": 1e-6, "warmup_epochs": 0},
           "train": {"batch_size": 8, "epochs": 1, "log_path": "train.jsonl"},
           "probe": PROBE}
    return Workload(
        name="ingest-probe",
        configs={"recording.json": recording, "run.json": run},
        setup=[cli("synth", "--config", "recording.json", "--seed", synth_seed,
                   "--out", "recording.lcmr"),
               cli("synth", "--config", "run.json", "--seed", synth_seed,
                   "--out", "init.lcmr"),
               cli("preprocess", "init.lcmr", "--config", "run.json",
                   "--out", "init.lcms"),
               _labeled(seed, 32),
               cli("pretrain", "init.lcms", "--config", "run.json", "--seed",
                   model_seed, "--out", "model.lcmc", role="pretrain")],
        body=[cli("preprocess", "recording.lcmr", "--config", "run.json",
                  "--out", "recording.lcms", role="preprocess"),
              cli("probe", "model.lcmc", "labeled.lcms", "--config", "run.json",
                  "--seed", model_seed, "--out", "probe.json", role="probe")],
        recording_s=duration, train_segments=8, batch_size=8, labeled=64,
        checks=("segment_count", "probe_accuracy"),
        expected_segments=math.floor(duration / SEGMENT_S))


WORKLOADS = {"pretrain-small": pretrain_small,
             "pretrain-default": pretrain_default,
             "ingest-probe": ingest_probe}
