"""AdamW, learning-rate / weight-decay / momentum schedules, EMA update.

Two learning-rate modes:
  warmup-cosine (default): linear 0 -> lr_max over the warmup steps, then a
  cosine from lr_max down to lr_final. This carries the operative
  hyperparameters (1.5e-4 peak, 10 warmup epochs, 1e-6 floor).
  polynomial: lr_max * (1 - t/T)^p.

Weight decay follows the cosine form
  w_t = w_init + (w_final - w_init) * (1 + cos(t*pi/T)) / 2,
which starts at w_final and ends at w_init; with the default
w_init == w_final == 0.05 it is constant.

EMA momentum ramps m_low -> m_high on a half-cosine.

The schedule config holds only what a file sets. Each schedule function takes
the run's steps_per_epoch and epochs, so T = epochs * steps_per_epoch and the
warmup is warmup_epochs * steps_per_epoch steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DivergenceError, ValidationError

MODE_WARMUP_COSINE = "warmup-cosine"
MODE_POLYNOMIAL = "polynomial"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.95
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ScheduleConfig:
    lr_max: float = 1.5e-4
    lr_final: float = 1e-6
    warmup_epochs: int = 10
    decay_exponent: float = 1.0
    mode: str = MODE_WARMUP_COSINE
    wd_init: float = 0.05
    wd_final: float = 0.05
    m_low: float = 0.996
    m_high: float = 1.0

    def __post_init__(self):
        if not (0 < self.lr_final <= self.lr_max):
            raise ValidationError("need 0 < lr_final <= lr_max")
        if self.warmup_epochs < 0:
            raise ValidationError("warmup_epochs must be >= 0")
        if self.decay_exponent < 0:
            raise ValidationError("decay_exponent must be >= 0")
        if self.mode not in (MODE_WARMUP_COSINE, MODE_POLYNOMIAL):
            raise ValidationError(f"unknown schedule mode {self.mode!r}")
        if not (0.9 <= self.m_low <= self.m_high <= 1.0):
            raise ValidationError("need 0.9 <= m_low <= m_high <= 1")
        if self.wd_init < 0 or self.wd_final < 0:
            raise ValidationError("weight decay must be >= 0")


def _total_steps(t: int, steps_per_epoch: int, epochs: int) -> int:
    """The run's step count T, after checking that step t lies in [0, T]."""
    if steps_per_epoch < 1 or epochs < 1:
        raise ValidationError("a run needs steps_per_epoch >= 1 and epochs >= 1")
    total = epochs * steps_per_epoch
    if t < 0 or t > total:
        raise ValidationError(f"step {t} outside [0, {total}]")
    return total


def lr_at(t: int, cfg: ScheduleConfig, steps_per_epoch: int, epochs: int) -> float:
    """Learning rate at step t of a run of `epochs` x `steps_per_epoch` steps
    (warmup-cosine needs warmup_epochs < epochs, checked when a run starts)."""
    total = _total_steps(t, steps_per_epoch, epochs)
    if cfg.mode == MODE_POLYNOMIAL:
        return cfg.lr_max * (1.0 - t / total) ** cfg.decay_exponent
    warmup = cfg.warmup_epochs * steps_per_epoch
    if t < warmup:
        return cfg.lr_max * t / warmup
    s = (t - warmup) / (total - warmup)
    return cfg.lr_final + 0.5 * (cfg.lr_max - cfg.lr_final) * (1.0 + math.cos(math.pi * s))


def wd_at(t: int, cfg: ScheduleConfig, steps_per_epoch: int, epochs: int) -> float:
    """Cosine weight decay: w_final at t=0 down to w_init at t=T."""
    total = _total_steps(t, steps_per_epoch, epochs)
    return cfg.wd_init + 0.5 * (cfg.wd_final - cfg.wd_init) * (
        1.0 + math.cos(math.pi * t / total))


def momentum_at(t: int, cfg: ScheduleConfig, steps_per_epoch: int,
                epochs: int) -> float:
    """EMA momentum: half-cosine ramp m_low -> m_high, monotone non-decreasing."""
    total = _total_steps(t, steps_per_epoch, epochs)
    return cfg.m_low + 0.5 * (cfg.m_high - cfg.m_low) * (
        1.0 - math.cos(math.pi * t / total))


_NO_DECAY_LEAVES = {"bias", "gain"}


def default_decay_exempt(name: str) -> bool:
    """Layer norms, biases, the channel embedding and the mask token skip decay."""
    leaf = name.rsplit(".", 1)[-1]
    return leaf in _NO_DECAY_LEAVES or name in ("channel_embed", "mask_token")


def _check_like(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape or a.dtype != b.dtype:
        raise ValidationError(f"{what}: {a.shape}/{a.dtype} against {b.shape}/{b.dtype}")


def adamw_step(params: dict, grads: Mapping[str, np.ndarray], m: dict, v: dict,
               step: int, lr: float, wd: float) -> None:
    """AdamW update number `step` (1-based) of `params` and its first and
    second moments `m` and `v`: bias-corrected, decoupled weight decay, in
    place. A gradient must match its parameter's shape and dtype."""
    bc1 = 1.0 - ADAM_BETA1 ** step
    bc2 = 1.0 - ADAM_BETA2 ** step
    for name in params:
        g = np.asarray(grads[name])
        if not np.isfinite(g).all():
            raise DivergenceError(f"gradient overflow at tensor {name}")
        _check_like(g, params[name], f"gradient mismatch for {name!r}")
        m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        update = m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if wd != 0.0 and not default_decay_exempt(name):
            update = update + wd * params[name]
        params[name] = params[name] - lr * update


def ema_update(theta: Mapping[str, np.ndarray], xi: dict, m: float) -> None:
    """xi <- m*xi + (1-m)*theta, elementwise on every tensor, in place.

    Written in delta form so theta == xi is an exact fixed point; m == 1.0
    short-circuits so xi stays bitwise untouched.
    """
    if not (0.0 <= m <= 1.0):
        raise ValidationError("momentum must lie in [0, 1]")
    if m == 1.0:
        return
    for name in xi:
        _check_like(theta[name], xi[name], f"theta/xi mismatch for {name!r}")
        xi[name] = xi[name] + (1.0 - m) * (theta[name] - xi[name])
