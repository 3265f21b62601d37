"""Dual encoders and reconstructor: conv stem + pre-norm transformer layers.

The online encoder runs on the masked token grid, the target encoder on the
full signal with the same architecture. Both share one forward
implementation; the target path is evaluated with constant tensors, which
record no tape, so no gradient can ever reach the target parameters.

`patch_grid` builds the encoder input: a trainable channel map takes the
dataset montage to the mapped channels, and each mapped channel is cut into
consecutive length-p_t patches (any tail shorter than a patch is dropped).
`forward_tokens` encodes that grid. One `ad.embed` op makes the tokens: the
conv-and-pool stem (its kernel built inside the op from stem.weight and
stem.pool), the mask token on masked patches, and the channel and position
embeddings. Token layout is channel-major: token index = channel * n_t +
window. Each pre-norm layer runs its attention sublayer (ln1, q|k|v,
criss-cross attention, the output projection and the residual add) as one
`ad.attention` op, whose tape keeps only the per-token std (its backward
rebuilds q|k|v, the softmax probabilities and the head outputs from the
op's input stream), then its MLP sublayer (ln2, fc1, gelu, fc2 and the
residual add) as one `ad.mlp` op, whose tape keeps only the fc1 output and
the per-token std.

`param_shapes` is the parameter table: `init_param_store` fills it, and a
checkpoint's layout is checked against it without drawing weights.

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


def param_shapes(cfg: EncoderConfig) -> dict:
    """Name -> shape of every encoder parameter, in store order: the table
    that `init_param_store` fills and that a checkpoint's layout is checked
    against without drawing any weights."""
    d, h = cfg.d, cfg.hidden
    shapes = {
        "channel_map": (cfg.mapped_channels, cfg.in_channels),
        "channel_embed": (cfg.mapped_channels, d),
        "mask_token": (d,),
        "pos_embed": (cfg.n_t, d),
        "stem.weight": (cfg.stem_kernel, d),
        "stem.pool": (cfg.conv_positions, d),
        "stem.bias": (d,),
    }
    for i in range(cfg.layers):
        pre = f"layers.{i}."
        shapes.update({
            pre + "ln1.gain": (d,), pre + "ln1.bias": (d,),
            pre + "attn.qkv.weight": (d, 3 * d), pre + "attn.qkv.bias": (3 * d,),
            pre + "attn.out.weight": (d, d), pre + "attn.out.bias": (d,),
            pre + "ln2.gain": (d,), pre + "ln2.bias": (d,),
            pre + "mlp.fc1.weight": (d, h), pre + "mlp.fc1.bias": (h,),
            pre + "mlp.fc2.weight": (h, d), pre + "mlp.fc2.bias": (d,),
        })
    shapes.update({"final_ln.gain": (d,), "final_ln.bias": (d,),
                   "recon.weight": (d, cfg.p_t), "recon.bias": (cfg.p_t,)})
    return shapes


def init_param_store(cfg: EncoderConfig, seed: int, dtype=np.float32) -> dict:
    """Truncated-normal weights (std 0.02), zero biases, unit LN gains, drawn
    in `param_shapes` order."""
    rng = make_rng(seed, TAG_INIT)

    def tn(shape):
        return _truncated_normal(rng, shape, INIT_STD).astype(dtype)

    def init(name, shape):
        if name.endswith(".gain"):
            return np.ones(shape, dtype=dtype)
        if name.endswith(".bias"):
            return np.zeros(shape, dtype=dtype)
        if name.startswith("stem."):
            # drawn (d, k) and (d, L_out), stored transposed as the kernel uses them
            return np.ascontiguousarray(tn(shape[::-1]).T)
        if name.endswith("qkv.weight"):
            # q, k and v drawn as three (d, d) blocks, stored side by side
            return tn((3, cfg.d, cfg.d)).transpose(1, 0, 2).reshape(shape)
        return tn(shape)

    return {name: init(name, shape) for name, shape in param_shapes(cfg).items()}


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


# The parameters of `ad.attention` and `ad.mlp` after the residual stream, in
# their order.
_ATTENTION_PARAMS = ("ln1.gain", "ln1.bias", "attn.qkv.weight", "attn.qkv.bias",
                     "attn.out.weight", "attn.out.bias")
_MLP_PARAMS = ("ln2.gain", "ln2.bias", "mlp.fc1.weight", "mlp.fc1.bias",
               "mlp.fc2.weight", "mlp.fc2.bias")


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

    tokens = ad.embed(patches, p["stem.weight"], p["stem.pool"], p["stem.bias"], mask,
                      p["mask_token"], p["channel_embed"], p["pos_embed"])
    seq = ad.reshape(tokens, (b, cfg.n_tokens, cfg.d))         # (B, N, d)
    grid = (cfg.mapped_channels, cfg.n_t, cfg.heads)
    for i in range(cfg.layers):
        pre = f"layers.{i}."
        seq = ad.attention(seq, *(p[pre + name] for name in _ATTENTION_PARAMS), grid)
        seq = ad.mlp(seq, *(p[pre + name] for name in _MLP_PARAMS))
    return ad.layer_norm(seq, p["final_ln.gain"], p["final_ln.bias"])


def predict_patches(p: Mapping[str, ad.Tensor], z: ad.Tensor,
                    cfg: EncoderConfig) -> ad.Tensor:
    """Linear head d -> p_t per token, reshaped to the patch grid."""
    b = z.shape[0]
    pred = ad.matmul(z, p["recon.weight"], p["recon.bias"])
    return ad.reshape(pred, (b, cfg.mapped_channels, cfg.n_t, cfg.p_t))
