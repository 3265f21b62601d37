"""Training procedure: dual forward, losses, AdamW + EMA updates, logging.

Each step runs exactly: (1) target forward on the full input, then online
forward on the masked input, (2) alignment + masked reconstruction losses,
(3) AdamW update of theta at the scheduled lr/wd, (4) EMA update of xi at
the scheduled momentum. Both teachers come from the target side: alignment
regresses onto the target-encoder tokens, and the reconstruction targets are
the target encoder's own patch grid (`encoder.patch_grid`), built once per
step and fed to both. The target side never produces gradients.

Determinism contract: batch order is a pure function of (seed, epoch), the
patch masks of (seed, step), so a run can resume from any checkpoint and
reproduce the uninterrupted log stream.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .data import Checkpoint, SegmentBatch, save_checkpoint
from .encoder import (FIRST_LAYER_NAMES, EncoderConfig, check_layout,
                      forward_tokens, init_param_store, last_layer_names,
                      patch_grid, predict_patches, wrap_constants,
                      wrap_parameters)
from .errors import DivergenceError, ValidationError
from .losses import alignment_loss_t, reconstruction_loss_t
from .optim import adamw_step, ema_update, lr_at, momentum_at, wd_at
from .seeding import TAG_GRADCHECK, TAG_MASK, TAG_SHUFFLE, make_rng


@dataclass(frozen=True)
class TrainLogRecord:
    epoch: int
    step: int
    L_A: float
    L_R: float
    L_total: float
    lr: float
    wd: float
    m: float
    g_first_mean: float
    g_last_mean: float
    g_min: float
    g_max: float

    def __post_init__(self):
        values = [self.L_A, self.L_R, self.L_total, self.lr, self.wd, self.m,
                  self.g_first_mean, self.g_last_mean, self.g_min, self.g_max]
        if not all(math.isfinite(v) for v in values):
            raise ValidationError("log record contains non-finite values")
        if self.g_min > self.g_max:
            raise ValidationError("g_min must be <= g_max")

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class TrainState:
    """A run in progress: its config, its batches per epoch (with
    cfg.train.epochs this sizes the schedules), and the four tensor groups."""
    cfg: RunConfig
    steps_per_epoch: int
    theta: dict
    xi: dict
    m: dict  # AdamW first moments
    v: dict  # AdamW second moments


def init_train_state(cfg: RunConfig, steps_per_epoch: int) -> TrainState:
    warmup, epochs = cfg.schedule.warmup_epochs, cfg.train.epochs
    if warmup >= epochs:
        raise ValidationError(
            f"schedule.warmup_epochs ({warmup}) must be below train.epochs ({epochs})")
    theta = init_param_store(cfg.encoder, cfg.seed)
    # copy-init makes the EMA contraction exact from step 0
    xi = {k: v.copy() for k, v in theta.items()}
    return TrainState(cfg=cfg, steps_per_epoch=steps_per_epoch, theta=theta, xi=xi,
                      m={k: np.zeros_like(v) for k, v in theta.items()},
                      v={k: np.zeros_like(v) for k, v in theta.items()})


def batch_mask(seed: int, step: int, batch: int, grid_shape: tuple,
               p_mask: float) -> np.ndarray:
    """Per-sample Bernoulli patch masks for one step, keyed by (seed, step)."""
    rng = make_rng(seed, TAG_MASK, step)
    return rng.random((batch,) + tuple(grid_shape)) < p_mask


def _training_loss(params_t: Mapping[str, ad.Tensor],
                   xi: Mapping[str, np.ndarray], x: np.ndarray,
                   mask: np.ndarray, cfg: EncoderConfig, lam: float):
    """Traced total loss plus the two component values. The target forward
    records no tape and runs first, so its buffers are freed before the
    online forward builds the tape rather than held on top of it."""
    params_xi = wrap_constants(xi)
    targets = patch_grid(params_xi, x, cfg)  # also the target encoder's input
    h = forward_tokens(params_xi, targets, None, cfg).data
    z = forward_tokens(params_t, patch_grid(params_t, x, cfg), mask, cfg)
    loss_align = alignment_loss_t(h, z)
    x_hat = predict_patches(params_t, z, cfg)
    loss_recon = reconstruction_loss_t(x_hat, targets.data, mask)
    total = ad.add(loss_align, ad.scale(loss_recon, lam))
    return total, float(loss_align.data), float(loss_recon.data)


def _loss_and_grads(theta: Mapping[str, np.ndarray],
                    xi: Mapping[str, np.ndarray], x: np.ndarray,
                    mask: np.ndarray, cfg: EncoderConfig, lam: float) -> tuple:
    """(L_total, L_A, L_R, per-tensor theta gradients) from the reverse-mode tape."""
    params_t = wrap_parameters(theta)
    total_t, loss_align, loss_recon = _training_loss(params_t, xi, x, mask, cfg, lam)
    total_t.backward()
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for name, t in params_t.items()}
    return float(total_t.data), loss_align, loss_recon, grads


def grad_stats(grads: Mapping[str, np.ndarray],
               first_names: Sequence[str] = (),
               last_names: Sequence[str] = ()) -> tuple:
    """Per-tensor L2 norms: (first-group mean, last-group mean, min, max)."""
    if not grads:
        raise ValidationError("grad_stats needs at least one gradient tensor")
    norms = {name: float(np.linalg.norm(np.asarray(g).ravel()))
             for name, g in grads.items()}
    first = [norms[n] for n in first_names if n in norms]
    last = [norms[n] for n in last_names if n in norms]
    g_first = float(np.mean(first)) if first else 0.0
    g_last = float(np.mean(last)) if last else 0.0
    return g_first, g_last, min(norms.values()), max(norms.values())


def train_step(batch: np.ndarray, state: TrainState, t: int) -> TrainLogRecord:
    """One optimization step at global step index t on a (B, M, T) batch."""
    cfg = state.cfg
    enc = cfg.encoder
    x = np.ascontiguousarray(batch, dtype=state.theta["channel_map"].dtype)

    mask = batch_mask(cfg.seed, t, x.shape[0],
                      (enc.mapped_channels, enc.n_t), cfg.train.p_mask)
    total, loss_align, loss_recon, grads = _loss_and_grads(
        state.theta, state.xi, x, mask, enc, cfg.train.lam)
    if not math.isfinite(total):
        raise DivergenceError(f"loss divergence at step {t}")

    g_first, g_last, g_min, g_max = grad_stats(
        grads, FIRST_LAYER_NAMES, last_layer_names(state.theta, enc))
    run = (cfg.schedule, state.steps_per_epoch, cfg.train.epochs)
    lr = lr_at(t, *run)
    wd = wd_at(t, *run)
    m = momentum_at(t, *run)
    adamw_step(state.theta, grads, state.m, state.v, t + 1, lr, wd)
    ema_update(state.theta, state.xi, m)

    return TrainLogRecord(
        epoch=t // state.steps_per_epoch, step=t,
        L_A=loss_align, L_R=loss_recon, L_total=total,
        lr=lr, wd=wd, m=m,
        g_first_mean=g_first, g_last_mean=g_last, g_min=g_min, g_max=g_max)


# --- gradient verification ---------------------------------------------------

FD_STEP = 1e-5
FD_COORDS_PER_TENSOR = 32


@dataclass(frozen=True)
class GradCheckReport:
    per_tensor: dict
    max_rel_error: float


def _fd_compare(theta: dict, xi: Mapping[str, np.ndarray], x: np.ndarray,
                mask: np.ndarray, cfg: RunConfig,
                grads: Mapping[str, np.ndarray]) -> dict:
    """Max relative error per tensor between `grads` and central differences."""
    def loss_value() -> float:
        total, _, _ = _training_loss(wrap_constants(theta), xi, x, mask,
                                     cfg.encoder, cfg.train.lam)
        return float(total.data)

    rng = make_rng(cfg.seed, TAG_GRADCHECK, 1)
    errors = {}
    for name, tensor in theta.items():
        flat = tensor.ravel()
        n_coords = min(FD_COORDS_PER_TENSOR, flat.size)
        idx = rng.choice(flat.size, size=n_coords, replace=False)
        worst = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + FD_STEP
            plus = loss_value()
            flat[i] = orig - FD_STEP
            minus = loss_value()
            flat[i] = orig
            fd = (plus - minus) / (2.0 * FD_STEP)
            a = float(np.asarray(grads[name]).ravel()[i])
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-4)
            worst = max(worst, rel if math.isfinite(rel) else math.inf)  # NaN too
        errors[name] = worst
    return errors


def grad_check(cfg: RunConfig) -> GradCheckReport:
    """Check every analytic theta gradient of the training loss against
    central differences, at cfg's encoder, seed, p_mask and lambda.

    Runs in float64 on one random segment; the finite-difference tolerance is
    unreachable at 32-bit precision.
    """
    enc = cfg.encoder
    theta = init_param_store(enc, cfg.seed, dtype=np.float64)
    xi = init_param_store(enc, cfg.seed + 1, dtype=np.float64)
    rng = make_rng(cfg.seed, TAG_GRADCHECK, 0)
    x = rng.standard_normal((1, enc.in_channels, enc.segment_samples))
    mask = rng.random((1, enc.mapped_channels, enc.n_t)) < cfg.train.p_mask
    # both populations must be non-empty or parts of the loss vanish
    mask[0, 0, 0] = True
    mask[0, -1, -1] = False

    _, _, _, grads = _loss_and_grads(theta, xi, x, mask, enc, cfg.train.lam)
    errors = _fd_compare(theta, xi, x, mask, cfg, grads)
    return GradCheckReport(per_tensor=errors, max_rel_error=max(errors.values()))


# --- full pretraining loop ----------------------------------------------------

_GROUPS = ("theta", "xi", "m", "v")


def make_checkpoint(state: TrainState, step: int) -> Checkpoint:
    return Checkpoint(step, **{
        group: {k: t.astype(np.float32) for k, t in getattr(state, group).items()}
        for group in _GROUPS})


def restore_train_state(state: TrainState, ckpt: Checkpoint) -> int:
    """Load checkpoint tensors into `state`; returns the step to resume at."""
    # the other groups have theta's layout (a Checkpoint invariant)
    check_layout(ckpt.theta, state.theta, "theta")
    # same names as the state, so update() keeps the store order
    for group in _GROUPS:
        getattr(state, group).update(getattr(ckpt, group))
    return ckpt.step


def epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    return make_rng(seed, TAG_SHUFFLE, epoch).permutation(n)


def run_pretraining(cfg: RunConfig, data: SegmentBatch,
                    resume_from: Optional[Checkpoint] = None) -> tuple:
    """Deterministic pretraining over `data`; returns (Checkpoint, records).

    Writes one JSON line per step to train.log_path when set, and checkpoints
    into train.checkpoint_dir at the configured epoch cadence plus at the end.
    """
    train = cfg.train
    n = len(data)
    if n == 0:
        raise ValidationError("pretraining data is empty")
    steps_per_epoch = (n + train.batch_size - 1) // train.batch_size
    state = init_train_state(cfg, steps_per_epoch)
    start = 0
    if resume_from is not None:
        start = restore_train_state(state, resume_from)

    total_steps = train.epochs * steps_per_epoch
    if start > total_steps:
        raise ValidationError(
            f"checkpoint step {start} beyond configured run of {total_steps} steps")
    if train.checkpoint_dir is not None:
        os.makedirs(train.checkpoint_dir, exist_ok=True)
    log_f = open(train.log_path, "w") if train.log_path else None

    records = []
    perm = None
    try:
        for t in range(start, total_steps):
            epoch, offset = divmod(t, steps_per_epoch)
            if perm is None or offset == 0:
                perm = epoch_order(cfg.seed, epoch, n)
            sel = perm[offset * train.batch_size:(offset + 1) * train.batch_size]
            record = train_step(data.segments[sel], state, t)
            records.append(record)
            if log_f is not None:
                log_f.write(record.to_json() + "\n")
            done = t + 1
            if (train.checkpoint_dir is not None and train.checkpoint_every_epochs > 0
                    and done % (train.checkpoint_every_epochs * steps_per_epoch) == 0
                    and done < total_steps):
                save_checkpoint(make_checkpoint(state, done),
                                os.path.join(train.checkpoint_dir,
                                             f"checkpoint_{done:08d}.lcmc"))
    finally:
        if log_f is not None:
            log_f.close()

    final = make_checkpoint(state, total_steps)
    if train.checkpoint_dir is not None:
        save_checkpoint(final, os.path.join(train.checkpoint_dir, "final.lcmc"))
    return final, records
