"""Command-line entry point wiring all modules into reproducible runs.

Subcommands: synth, preprocess, pretrain, probe, gradcheck, inspect.
Exit codes: 0 success, 1 validation error or out of memory, 2 I/O or format
error. Every random stream is seeded from the config; nothing reads system
entropy.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from .config import RunConfig, config_from_dict, read_config_file
from .data import (LCMC_MAGIC, LCMR_MAGIC, LCMS_MAGIC, _opened, _read, _write,
                   load_checkpoint, load_segments, read_recording, save_checkpoint,
                   save_segments, tensor_name, write_recording)
from .encoder import EncoderConfig
from .errors import DivergenceError, FormatError, ValidationError
from .evaluate import (FeatureSet, compute_metrics, extract_features,
                       fit_probe, predict_scores)
from .preprocess import preprocess
from .seeding import TAG_PROBE, make_rng
from .synth import synth_recording
from .trainer import grad_check, run_pretraining

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_SMALL = EncoderConfig(d=16, layers=2, heads=4, mlp_ratio=4.0, p_t=8,
                                in_channels=4, mapped_channels=4, n_t=4,
                                stem_kernel=7)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegssl",
        description="Self-supervised EEG pretraining pipeline (desk scale).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--config", type=str, default=None,
                       help="JSON run configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if out_required is not None:
            p.add_argument("--out", type=str, required=out_required,
                           help="output path")

    p = sub.add_parser("synth", help="generate a synthetic recording (LCMR)")
    common(p, out_required=True)

    p = sub.add_parser("preprocess", help="preprocess a recording into segments")
    p.add_argument("recording", type=str, help="input LCMR recording")
    common(p, out_required=True)

    p = sub.add_parser("pretrain", help="run self-supervised pretraining")
    p.add_argument("segments", type=str, help="input LCMS segment archive")
    common(p, out_required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--p-mask", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="reconstruction loss weight")
    p.add_argument("--lr-mode", choices=["warmup-cosine", "polynomial"],
                   default=None)

    p = sub.add_parser("probe", help="linear probe a checkpoint on labeled segments")
    p.add_argument("checkpoint", type=str)
    p.add_argument("segments", type=str, help="labeled LCMS segment archive")
    common(p, out_required=False)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    common(p, out_required=None)

    p = sub.add_parser("inspect", help="summarize a recording/checkpoint/segment file")
    p.add_argument("path", type=str)
    return parser


# argparse dest of each override flag -> the config key it sets
_FLAG_KEYS = {"seed": "seed", "epochs": "train.epochs",
              "batch_size": "train.batch_size", "p_mask": "train.p_mask",
              "lam": "train.lambda", "lr_mode": "schedule.mode"}


def _raw_config(args):
    """The --config file's JSON (or {}) with every given flag written into it.
    A root or section that is not an object is left for `config_from_dict`
    to reject."""
    raw = {} if args.config is None else read_config_file(args.config)
    for dest, key in _FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value is None or not isinstance(raw, dict):
            continue
        section, _, leaf = key.rpartition(".")
        node = raw.setdefault(section, {}) if section else raw
        if isinstance(node, dict):
            node[leaf] = value
    return raw


def _load(args) -> RunConfig:
    """The run config of file plus flags, checked once."""
    return config_from_dict(_raw_config(args))


def _cmd_synth(args) -> int:
    cfg = _load(args)
    rec = synth_recording(cfg.synth.spec(cfg.seed), scale_to_mV=cfg.synth.scale_to_mV)
    n = write_recording(rec, args.out)
    print(f"wrote {args.out} ({n} bytes, {rec.n_channels} ch x {rec.n_samples} samples)")
    return 0


def _cmd_preprocess(args) -> int:
    cfg = _load(args)
    rec = read_recording(args.recording)
    batch = preprocess(rec, cfg.preproc)
    n = save_segments(batch, args.out)
    print(f"wrote {args.out} ({n} bytes, {len(batch)} segments of "
          f"{batch.segments.shape[1]} x {batch.segments.shape[2]})")
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _load(args)
    data = load_segments(args.segments)
    ckpt, records = run_pretraining(cfg, data)
    save_checkpoint(ckpt, args.out)
    last = records[-1]
    print(f"wrote {args.out} (step {ckpt.step}, final L_total {last.L_total:.6f})")
    return 0


def _cmd_probe(args) -> int:
    cfg = _load(args)
    ckpt = load_checkpoint(args.checkpoint)
    batch = load_segments(args.segments)
    if batch.labels is None:
        raise ValidationError("probe needs a labeled segment archive")
    feats = extract_features(batch, ckpt, cfg.encoder)

    # deterministic stratified split
    rng = make_rng(cfg.seed, TAG_PROBE, 1)
    train_idx, test_idx = [], []
    for cls in np.unique(feats.labels):
        members = np.flatnonzero(feats.labels == cls)
        members = members[rng.permutation(members.size)]
        cut = max(1, int(round(members.size * cfg.probe.train_fraction)))
        if cut == members.size:  # the probe would score a class it never tests
            raise ValidationError(
                f"probe.train_fraction = {cfg.probe.train_fraction:g} trains on every "
                f"segment of class {cls} ({members.size} in all), leaving none held out")
        train_idx.extend(members[:cut])
        test_idx.extend(members[cut:])
    train = FeatureSet(feats.features[train_idx], feats.labels[train_idx])
    probe = fit_probe(train, epochs=cfg.probe.epochs, seed=cfg.seed, lr=cfg.probe.lr)
    scores = predict_scores(probe, feats.features[test_idx])
    report = compute_metrics(scores, feats.labels[test_idx])
    line = report.to_json()
    print(line)
    if args.out:
        _write(args.out, [(line + "\n").encode("utf-8")])
    return 0


def _cmd_gradcheck(args) -> int:
    raw = _raw_config(args)
    cfg = config_from_dict(raw)
    if "encoder" not in raw:
        # the default encoder is too large to finite-difference quickly
        cfg = replace(cfg, encoder=GRADCHECK_SMALL)
    report = grad_check(cfg)
    for name in sorted(report.per_tensor):
        print(f"{report.per_tensor[name]:12.3e}  {name}")
    ok = report.max_rel_error < GRADCHECK_TOLERANCE
    print(f"max relative error {report.max_rel_error:.3e} "
          f"({'pass' if ok else 'FAIL'} at tolerance {GRADCHECK_TOLERANCE:g})")
    return 0 if ok else 1


def _cmd_inspect(args) -> int:
    with _opened(args.path) as f:  # a file cut inside its magic is truncated
        magic = _read(f, 4, "file magic").tobytes()
    if magic == LCMR_MAGIC:
        rec = read_recording(args.path)
        print(f"LCMR recording: {rec.n_channels} channels x {rec.n_samples} samples")
        print(f"  sample rate {rec.sample_rate_hz} Hz, scale_to_mV {rec.scale_to_mV}")
        print(f"  duration {rec.n_samples / rec.sample_rate_hz:.3f} s")
        print(f"  montage {rec.montage.montage_id}: "
              f"{', '.join(rec.montage.channel_names)}")
    elif magic == LCMC_MAGIC:
        ckpt = load_checkpoint(args.path)
        n_params = sum(int(v.size) for v in ckpt.theta.values())
        print(f"LCMC checkpoint: step {ckpt.step}, {4 * len(ckpt.theta)} tensors")
        print(f"  online parameter count: {n_params}")
        for name, t in sorted(ckpt.theta.items()):
            shape = "x".join(map(str, t.shape)) or "scalar"
            print(f"  {tensor_name('theta', name)}: {shape}")
    elif magic == LCMS_MAGIC:
        batch = load_segments(args.path)
        n, m, t = batch.segments.shape
        labeled = "labeled" if batch.labels is not None else "unlabeled"
        print(f"LCMS segments: {n} x ({m} ch x {t} samples), "
              f"{batch.sample_rate_hz} Hz, {labeled}")
    else:
        raise FormatError("magic", f"unrecognized file magic {magic!r}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "pretrain": _cmd_pretrain,
    "probe": _cmd_probe,
    "gradcheck": _cmd_gradcheck,
    "inspect": _cmd_inspect,
}


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 64 MiB and its trim threshold at 256 MiB,
    once per process; elsewhere do nothing.

    glibc's defaults are dynamic: freeing a large mapped block raises both,
    so whether the training step's buffers stay in the heap or are mapped and
    faulted in again at every step would depend on what the process freed
    before. Only the CLI sets this; importing the package changes nothing."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):
        return
    libc = ctypes.CDLL("libc.so.6")
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(-3, 64 << 20)   # M_MMAP_THRESHOLD
    libc.mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def _check_out_dir(out) -> None:
    """Fail before any work, not at the final write, when `--out` names a
    file in a directory that does not exist."""
    parent = os.path.dirname(out or "") or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"--out {out}: {parent!r} is not an existing directory")


def run_cli(argv=None) -> int:
    _fix_malloc_thresholds()
    args = _build_parser().parse_args(argv)
    try:
        _check_out_dir(getattr(args, "out", None))
        return _COMMANDS[args.command](args)
    except (ValidationError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
