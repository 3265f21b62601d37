"""Alignment loss and masked reconstruction loss on the autodiff tape.

Value semantics:
  alignment      L_A = mean over tokens of || LN(h_i) - LN(z_i) ||^2
  reconstruction L_R = mean over masked patches of || x_hat_ij - x_ij ||^2
  total          L   = L_A + lambda * L_R   (formed in the trainer)

LN here is `ad.layer_norm` without gain or bias (eps 1e-5), the same op
the encoder's affine layer norms run; a learnable scale inside the loss
could shrink the objective without improving anything. Each loss is one
`ad.squared_error` op: the alignment one against the standardized target
tokens, the reconstruction one weighted by the 0/1 patch mask. The target
branch h is always treated as a constant: no gradient crosses it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ValidationError


def alignment_loss_t(h: np.ndarray, z: ad.Tensor) -> ad.Tensor:
    """Batched tensor alignment loss; h enters as a constant (stop-gradient).

    Both sides go through the same `ad.layer_norm` in z's dtype, so
    L_A(h, h) is exactly 0.
    """
    if np.shape(h) != z.shape:
        raise ValidationError("h and z must have equal shapes")
    ln_h = ad.layer_norm(ad.constant(np.asarray(h, dtype=z.data.dtype))).data
    n_tokens = int(np.prod(z.shape[:-1]))
    return ad.squared_error(ad.layer_norm(z), ln_h, 1.0, 1.0 / n_tokens)


def reconstruction_loss_t(x_hat: ad.Tensor, target: np.ndarray,
                          mask: np.ndarray) -> ad.Tensor:
    """Batched tensor reconstruction loss over masked patch positions."""
    mask = np.asarray(mask, bool)
    if x_hat.shape != np.shape(target) or mask.shape != x_hat.shape[:-1]:
        raise ValidationError("prediction, target and mask shapes differ")
    n_masked = int(mask.sum())
    if n_masked == 0:
        raise ValidationError("reconstruction loss undefined for |M| = 0")
    dtype = x_hat.data.dtype
    return ad.squared_error(x_hat, np.asarray(target, dtype=dtype),
                            mask[..., None].astype(dtype), 1.0 / n_masked)
