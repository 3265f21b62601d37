"""Dual encoders and reconstructor: conv stem + pre-norm transformer layers.

The online encoder runs on the masked token grid, the target encoder on the
full signal with the same architecture. Both share one forward
implementation; the target path is evaluated with constant tensors, which
record no tape, so no gradient can ever reach the target parameters.

`patch_grid` builds the encoder input: a trainable channel map takes the
dataset montage to the mapped channels, and each mapped channel is cut into
consecutive length-p_t patches (any tail shorter than a patch is dropped).
`forward_tokens` encodes that grid. Token layout is channel-major: token
index = channel * n_t + window.

Training and feature extraction run a batch in micro-batches of at most
MICRO_BATCH_TOKENS tokens (`micro_batches`), so the buffers one forward and
backward hold are bounded by that budget, not by the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

import numpy as np
from scipy.special import ndtr, ndtri

from . import autodiff as ad
from .errors import ValidationError
from .seeding import TAG_INIT, make_rng

DEFAULT_PATCH_LEN = 64  # 250 ms at 256 Hz
DEFAULT_MAPPED_CHANNELS = 32
INIT_STD = 0.02
INIT_TRUNC = 2.0  # truncate at +/- 2 sigma
MICRO_BATCH_TOKENS = 1024  # 2 default segments, 8 of the acceptance encoder


@dataclass(frozen=True)
class EncoderConfig:
    d: int = 64
    layers: int = 4
    heads: int = 4
    mlp_ratio: float = 4.0
    p_t: int = DEFAULT_PATCH_LEN
    in_channels: int = 8
    mapped_channels: int = DEFAULT_MAPPED_CHANNELS
    n_t: int = 16
    stem_kernel: int = 7

    def __post_init__(self):
        positive = {
            "d": self.d, "heads": self.heads, "mlp_ratio": self.mlp_ratio,
            "p_t": self.p_t, "in_channels": self.in_channels,
            "mapped_channels": self.mapped_channels, "n_t": self.n_t,
            "stem_kernel": self.stem_kernel,
        }
        for name, value in positive.items():
            if not (value > 0):
                raise ValidationError(f"{name} must be positive")
        if not (np.isfinite(self.mlp_ratio * self.d) and self.hidden >= 1):
            raise ValidationError("mlp_ratio * d must round to a finite width >= 1")
        if self.layers < 0:
            raise ValidationError("layers must be >= 0")
        if self.d % self.heads != 0:
            raise ValidationError("d must be divisible by heads")
        if self.heads % 2 != 0:
            raise ValidationError(
                "heads must be even: half attend along time, half across channels")
        if self.p_t < self.stem_kernel:
            raise ValidationError("patch length must be >= stem kernel width")

    @property
    def hidden(self) -> int:
        return int(round(self.mlp_ratio * self.d))

    @property
    def conv_positions(self) -> int:
        """Valid conv output positions per patch."""
        return self.p_t - self.stem_kernel + 1

    @property
    def head_dim(self) -> int:
        return self.d // self.heads

    @property
    def n_tokens(self) -> int:
        return self.mapped_channels * self.n_t

    @property
    def segment_samples(self) -> int:
        return self.n_t * self.p_t


def micro_batches(n_segments: int, cfg: EncoderConfig) -> Iterator[slice]:
    """Consecutive slices of a batch, each MICRO_BATCH_TOKENS tokens' worth
    of segments (at least one segment; the last slice may be shorter)."""
    size = max(1, MICRO_BATCH_TOKENS // cfg.n_tokens)
    for lo in range(0, n_segments, size):
        yield slice(lo, lo + size)


def _truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    lo, hi = ndtr(-INIT_TRUNC), ndtr(INIT_TRUNC)
    u = rng.random(shape) * (hi - lo) + lo
    return ndtri(u) * std


def init_param_store(cfg: EncoderConfig, seed: int, dtype=np.float32) -> dict:
    """Truncated-normal weights (std 0.02), zero biases, unit LN gains."""
    rng = make_rng(seed, TAG_INIT)
    d, h = cfg.d, cfg.hidden

    def tn(*shape):
        return _truncated_normal(rng, shape, INIT_STD).astype(dtype)

    def zeros(*shape):
        return np.zeros(shape, dtype=dtype)

    def ones(*shape):
        return np.ones(shape, dtype=dtype)

    p = {
        "channel_map": tn(cfg.mapped_channels, cfg.in_channels),
        "channel_embed": tn(cfg.mapped_channels, d),
        "mask_token": tn(d),
        "pos_embed": tn(cfg.n_t, d),
        # drawn (d, k) and (d, L_out), stored transposed as the kernel uses them
        "stem.weight": np.ascontiguousarray(tn(d, cfg.stem_kernel).T),
        "stem.pool": np.ascontiguousarray(tn(d, cfg.conv_positions).T),
        "stem.bias": zeros(d),
    }
    for i in range(cfg.layers):
        pre = f"layers.{i}."
        p[pre + "ln1.gain"] = ones(d)
        p[pre + "ln1.bias"] = zeros(d)
        p[pre + "attn.qkv.weight"] = np.concatenate([tn(d, d) for _ in range(3)], axis=1)
        p[pre + "attn.qkv.bias"] = zeros(3 * d)
        p[pre + "attn.out.weight"] = tn(d, d)
        p[pre + "attn.out.bias"] = zeros(d)
        p[pre + "ln2.gain"] = ones(d)
        p[pre + "ln2.bias"] = zeros(d)
        p[pre + "mlp.fc1.weight"] = tn(d, h)
        p[pre + "mlp.fc1.bias"] = zeros(h)
        p[pre + "mlp.fc2.weight"] = tn(h, d)
        p[pre + "mlp.fc2.bias"] = zeros(d)
    p["final_ln.gain"] = ones(d)
    p["final_ln.bias"] = zeros(d)
    p["recon.weight"] = tn(d, cfg.p_t)
    p["recon.bias"] = zeros(cfg.p_t)
    return p


# Tensors counted as the 'first layer' for gradient statistics.
FIRST_LAYER_NAMES = ("stem.weight", "stem.pool", "stem.bias")


def last_layer_names(params: Mapping[str, np.ndarray], cfg: EncoderConfig) -> tuple:
    """Final transformer block plus the reconstructor head, in store order."""
    prefixes = (f"layers.{cfg.layers - 1}.", "recon.")
    return tuple(name for name in params if name.startswith(prefixes))


def wrap_parameters(store: Mapping[str, np.ndarray]) -> dict:
    """Tensors with gradient tracking, for the online/training path."""
    return {k: ad.parameter(v) for k, v in store.items()}


def wrap_constants(store: Mapping[str, np.ndarray]) -> dict:
    """Plain constant tensors, for target/evaluation forwards."""
    return {k: ad.constant(v) for k, v in store.items()}


def _stem_tokens(patches: ad.Tensor, p: Mapping[str, ad.Tensor],
                 cfg: EncoderConfig) -> ad.Tensor:
    """Valid 1-D conv (d filters, kernel k, stride 1) over each patch, read
    out through a learned pooling:

        token[c] = sum_u pool[u, c] * sum_j w[j, c] * patch[u + j] + bias[c]

    A fixed mean over u would make the token blind to any intra-patch
    oscillation, so the pooling weights are trainable.

    Conv and pooling compose into one effective kernel per filter,
    K[s, c] = sum_{u+j=s} pool[u, c] * w[j, c], so the stem is one matmul
    of the patches with the (p_t, d) kernel K. K is built on the tape: the
    outer product of w and pool, summed along its anti-diagonals by a
    constant 0/1 matrix.
    """
    k, l_out = cfg.stem_kernel, cfg.conv_positions
    outer = ad.mul(ad.reshape(p["stem.weight"], (k, 1, cfg.d)),
                   p["stem.pool"])                                  # (k, L_out, d)
    diagonals = np.stack([np.eye(cfg.p_t, l_out, -j) for j in range(k)], axis=1)
    diagonals = ad.constant(
        diagonals.reshape(cfg.p_t, k * l_out).astype(patches.data.dtype))
    kernel = ad.matmul(diagonals, ad.reshape(outer, (k * l_out, cfg.d)))  # (p_t, d)
    return ad.matmul(patches, kernel, p["stem.bias"])


def _linear(x: ad.Tensor, p: Mapping[str, ad.Tensor], name: str,
            *residual: ad.Tensor) -> ad.Tensor:
    """Linear layer `name`: x @ `<name>.weight` + `<name>.bias`, plus the
    `residual` stream when it is given, all in one matmul node."""
    return ad.matmul(x, p[name + ".weight"], p[name + ".bias"], *residual)


def _attention(x: ad.Tensor, seq: ad.Tensor, p: Mapping[str, ad.Tensor],
               prefix: str, cfg: EncoderConfig) -> ad.Tensor:
    """Residual stream `seq` plus criss-cross attention over `x`: the
    channel-major (B, N, 3d) q|k|v projection is a (B, M', n_t, 3, heads,
    head_dim) grid as it stands, which `ad.attention` takes; half the heads
    attend along time, half across channels."""
    grid = (x.shape[0], cfg.mapped_channels, cfg.n_t, 3, cfg.heads, cfg.head_dim)
    qkv = ad.reshape(_linear(x, p, prefix + "attn.qkv"), grid)
    mixed = ad.reshape(ad.attention(qkv), x.shape)
    return _linear(mixed, p, prefix + "attn.out", seq)


def _mlp(x: ad.Tensor, seq: ad.Tensor, p: Mapping[str, ad.Tensor],
         prefix: str) -> ad.Tensor:
    """Residual stream `seq` plus the MLP of `x`."""
    hidden = ad.gelu(_linear(x, p, prefix + "mlp.fc1"))
    return _linear(hidden, p, prefix + "mlp.fc2", seq)


def patch_grid(p: Mapping[str, ad.Tensor], x: np.ndarray,
               cfg: EncoderConfig) -> ad.Tensor:
    """Channel map and patching: (B, M, T) -> patch grid (B, M', n_t, p_t)."""
    if x.ndim != 3:
        raise ValidationError("expected a (batch, channels, time) array")
    b, m, t = x.shape
    if m != cfg.in_channels:
        raise ValidationError(f"encoder expects {cfg.in_channels} channels, got {m}")
    if t // cfg.p_t != cfg.n_t:
        raise ValidationError(
            f"segment of {t} samples does not give n_t={cfg.n_t} windows of "
            f"length {cfg.p_t}")
    segment = ad.constant(x[:, :, :cfg.segment_samples])
    mapped = ad.matmul(p["channel_map"], segment)              # (B, M', T)
    return ad.reshape(mapped, (b, cfg.mapped_channels, cfg.n_t, cfg.p_t))


def forward_tokens(p: Mapping[str, ad.Tensor], patches: ad.Tensor,
                   mask: Optional[np.ndarray], cfg: EncoderConfig) -> ad.Tensor:
    """Encoder forward: patch grid (B, M', n_t, p_t) -> tokens (B, N, d).

    `mask` is a boolean (B, M', n_t) array or None (target path, no masking).
    """
    b = patches.shape[0]
    if mask is not None and mask.shape != (b, cfg.mapped_channels, cfg.n_t):
        raise ValidationError("mask shape does not match the patch grid")

    mp, n_t, d = cfg.mapped_channels, cfg.n_t, cfg.d
    tokens = _stem_tokens(patches, p, cfg)                     # (B, M', n_t, d)
    if mask is not None:
        tokens = ad.where(mask[..., None], p["mask_token"], tokens)
    tokens = ad.add(tokens, ad.reshape(p["channel_embed"], (mp, 1, d)))
    tokens = ad.add(tokens, p["pos_embed"])                    # (n_t, d) broadcast
    seq = ad.reshape(tokens, (b, mp * n_t, d))

    for i in range(cfg.layers):
        pre = f"layers.{i}."
        normed = ad.layer_norm(seq, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        seq = _attention(normed, seq, p, pre, cfg)
        normed = ad.layer_norm(seq, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        seq = _mlp(normed, seq, p, pre)
    return ad.layer_norm(seq, p["final_ln.gain"], p["final_ln.bias"])


def predict_patches(p: Mapping[str, ad.Tensor], z: ad.Tensor,
                    cfg: EncoderConfig) -> ad.Tensor:
    """Linear head d -> p_t per token, reshaped to the patch grid."""
    b = z.shape[0]
    pred = _linear(z, p, "recon")
    return ad.reshape(pred, (b, cfg.mapped_channels, cfg.n_t, cfg.p_t))
