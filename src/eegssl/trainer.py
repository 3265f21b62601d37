"""Training procedure: dual forward, losses, AdamW + EMA updates, logging.

Each step runs exactly: (1) for each micro-batch of the batch
(`encoder.micro_batches`, about 1024 tokens): target forward on the full
input, then online forward on the masked input, alignment + masked
reconstruction losses as that micro-batch's share of the batch means, and
backward, its gradients adding into the batch gradient; (2) AdamW update of
theta at the scheduled lr/wd; (3) EMA update of xi at the scheduled
momentum. Every loss term is a sum over segments with batch-wide
normalizers (layer norm is per token, attention stays inside a segment), so
the batch gradient is the sum of the micro-batch gradients, and the tape
never holds more than one micro-batch. The logged L_A, L_R and L_total are
the sums of the micro-batch shares. Both teachers come from the target side:
alignment regresses onto the target-encoder tokens, and the reconstruction
targets are the target encoder's own patch grid (`encoder.patch_grid`),
built once per micro-batch and fed to both. The target side never produces
gradients.

The training state is a `data.Checkpoint`. Its `step` is the one counter of
a run: the schedule position, the AdamW update count before the step, and
the key of the step's patch masks. `train_step` advances it, and
`run_pretraining` saves and returns the state itself.

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
from .data import Checkpoint, SegmentBatch, check_layout, save_checkpoint
from .encoder import (FIRST_LAYER_NAMES, EncoderConfig, forward_tokens,
                      init_param_store, last_layer_names, micro_batches,
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


def init_checkpoint(cfg: RunConfig) -> Checkpoint:
    """The step-0 training state of a run of `cfg`."""
    warmup, epochs = cfg.schedule.warmup_epochs, cfg.train.epochs
    if warmup >= epochs:
        raise ValidationError(
            f"schedule.warmup_epochs ({warmup}) must be below train.epochs ({epochs})")
    theta = init_param_store(cfg.encoder, cfg.seed)
    # copy-init makes the EMA contraction exact from step 0
    xi = {k: v.copy() for k, v in theta.items()}
    return Checkpoint(0, theta, xi,
                      m={k: np.zeros_like(v) for k, v in theta.items()},
                      v={k: np.zeros_like(v) for k, v in theta.items()})


def batch_mask(seed: int, step: int, batch: int, grid_shape: tuple,
               p_mask: float) -> np.ndarray:
    """Per-sample Bernoulli patch masks for one step, keyed by (seed, step)."""
    rng = make_rng(seed, TAG_MASK, step)
    return rng.random((batch,) + tuple(grid_shape)) < p_mask


def _training_loss(params_t: Mapping[str, ad.Tensor],
                   xi: Mapping[str, np.ndarray], x: np.ndarray,
                   mask: np.ndarray, cfg: EncoderConfig, lam: float,
                   n_tokens: int, n_masked: int):
    """Traced total loss of the segments `x` plus its two component values,
    each as a share of a batch with `n_tokens` tokens and `n_masked` masked
    patches. The target forward records no tape and runs first, so its
    buffers are freed before the online forward builds the tape rather than
    held on top of it."""
    params_xi = wrap_constants(xi)
    targets = patch_grid(params_xi, x, cfg)  # also the target encoder's input
    h = forward_tokens(params_xi, targets, None, cfg).data
    z = forward_tokens(params_t, patch_grid(params_t, x, cfg), mask, cfg)
    loss_align = alignment_loss_t(h, z, n_tokens)
    x_hat = predict_patches(params_t, z, cfg)
    loss_recon = reconstruction_loss_t(x_hat, targets.data, mask, n_masked)
    total = ad.add(loss_align, ad.scale(loss_recon, lam))
    return total, float(loss_align.data), float(loss_recon.data)


def _micro_batch_losses(params: Mapping[str, ad.Tensor],
                        xi: Mapping[str, np.ndarray], x: np.ndarray,
                        mask: np.ndarray, cfg: EncoderConfig, lam: float):
    """`_training_loss` of each micro-batch of (x, mask), in order; their
    sum is the batch loss."""
    n_tokens, n_masked = x.shape[0] * cfg.n_tokens, int(mask.sum())
    for part in micro_batches(x.shape[0], cfg):
        yield _training_loss(params, xi, x[part], mask[part], cfg, lam,
                             n_tokens, n_masked)


def _loss_and_grads(theta: Mapping[str, np.ndarray],
                    xi: Mapping[str, np.ndarray], x: np.ndarray,
                    mask: np.ndarray, cfg: EncoderConfig, lam: float) -> tuple:
    """(L_total, L_A, L_R, per-tensor theta gradients) from the reverse-mode
    tape, one micro-batch at a time: each backward adds its micro-batch's
    gradients into the parameters' `.grad`."""
    params_t = wrap_parameters(theta)
    total = loss_align = loss_recon = 0.0
    for total_t, part_align, part_recon in _micro_batch_losses(
            params_t, xi, x, mask, cfg, lam):
        total_t.backward()
        total += float(total_t.data)
        loss_align += part_align
        loss_recon += part_recon
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for name, t in params_t.items()}
    return total, loss_align, loss_recon, grads


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


def train_step(batch: np.ndarray, state: Checkpoint, cfg: RunConfig,
               steps_per_epoch: int) -> TrainLogRecord:
    """One optimization step of `state` on a (B, M, T) batch at schedule
    position `state.step`, which it advances. The schedules span
    cfg.train.epochs epochs of `steps_per_epoch` steps."""
    t = state.step
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
    run = (cfg.schedule, steps_per_epoch, cfg.train.epochs)
    lr = lr_at(t, *run)
    wd = wd_at(t, *run)
    m = momentum_at(t, *run)
    adamw_step(state.theta, grads, state.m, state.v, t + 1, lr, wd)
    ema_update(state.theta, state.xi, m)
    state.step = t + 1

    return TrainLogRecord(
        epoch=t // steps_per_epoch, step=t,
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
        return sum(float(total.data) for total, _, _ in _micro_batch_losses(
            wrap_constants(theta), xi, x, mask, cfg.encoder, cfg.train.lam))

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
    mask = batch_mask(cfg.seed, 0, 1, (enc.mapped_channels, enc.n_t), cfg.train.p_mask)
    # both populations must be non-empty or parts of the loss vanish
    mask[0, 0, 0] = True
    mask[0, -1, -1] = False

    _, _, _, grads = _loss_and_grads(theta, xi, x, mask, enc, cfg.train.lam)
    errors = _fd_compare(theta, xi, x, mask, cfg, grads)
    return GradCheckReport(per_tensor=errors, max_rel_error=max(errors.values()))


# --- full pretraining loop ----------------------------------------------------

def epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    return make_rng(seed, TAG_SHUFFLE, epoch).permutation(n)


def run_pretraining(cfg: RunConfig, data: SegmentBatch,
                    resume_from: Optional[Checkpoint] = None) -> tuple:
    """Deterministic pretraining over `data`; returns (Checkpoint, records).

    A run resumed from a checkpoint continues at its step and leaves it
    unchanged. Writes one JSON line per step to train.log_path when set, and
    checkpoints into train.checkpoint_dir at the configured epoch cadence
    plus at the end.
    """
    train = cfg.train
    n = len(data)
    steps_per_epoch = (n + train.batch_size - 1) // train.batch_size
    state = init_checkpoint(cfg)
    if resume_from is not None:
        check_layout(resume_from.theta, state.theta, "theta")
        # shallow copies, since a step rebinds the entries of its dicts; in
        # store order, so the last-layer gradient mean adds as in a fresh run
        groups = (resume_from.theta, resume_from.xi, resume_from.m, resume_from.v)
        state = Checkpoint(resume_from.step,
                           *({k: group[k] for k in state.theta} for group in groups))

    total_steps = train.epochs * steps_per_epoch
    if state.step > total_steps:
        raise ValidationError(
            f"checkpoint step {state.step} beyond configured run of {total_steps} steps")
    if train.checkpoint_dir is not None:
        os.makedirs(train.checkpoint_dir, exist_ok=True)
    log_f = open(train.log_path, "w") if train.log_path else None

    records = []
    perm = None
    try:
        while state.step < total_steps:
            epoch, offset = divmod(state.step, steps_per_epoch)
            if perm is None or offset == 0:
                perm = epoch_order(cfg.seed, epoch, n)
            sel = perm[offset * train.batch_size:(offset + 1) * train.batch_size]
            record = train_step(data.segments[sel], state, cfg, steps_per_epoch)
            records.append(record)
            if log_f is not None:
                log_f.write(record.to_json() + "\n")
            if (train.checkpoint_dir is not None and train.checkpoint_every_epochs > 0
                    and state.step % (train.checkpoint_every_epochs * steps_per_epoch) == 0
                    and state.step < total_steps):
                save_checkpoint(state, os.path.join(train.checkpoint_dir,
                                                    f"checkpoint_{state.step:08d}.lcmc"))
    finally:
        if log_f is not None:
            log_f.close()

    if train.checkpoint_dir is not None:
        save_checkpoint(state, os.path.join(train.checkpoint_dir, "final.lcmc"))
    return state, records
