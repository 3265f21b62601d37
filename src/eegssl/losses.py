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

Both losses take the batch-wide normalizer (token count, masked-patch
count) apart from the tensors, so a micro-batch's loss is its share of the
batch mean and the batch loss, like its gradient, is the sum of the shares.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ValidationError


def alignment_loss_t(h: np.ndarray, z: ad.Tensor, n_tokens: int) -> ad.Tensor:
    """Sum over z's tokens of the alignment error, divided by the batch-wide
    token count `n_tokens`; h enters as a constant (stop-gradient).

    Both sides go through the same `ad.layer_norm` in z's dtype, so
    L_A(h, h) is exactly 0.
    """
    if np.shape(h) != z.shape:
        raise ValidationError("h and z must have equal shapes")
    ln_h = ad.layer_norm(ad.constant(np.asarray(h, dtype=z.data.dtype))).data
    return ad.squared_error(ad.layer_norm(z), ln_h, 1.0, 1.0 / n_tokens)


def reconstruction_loss_t(x_hat: ad.Tensor, target: np.ndarray,
                          mask: np.ndarray, n_masked: int) -> ad.Tensor:
    """Sum of the squared error over the masked patch positions, divided by
    the batch-wide masked-patch count `n_masked`; a mask with no masked
    patch gives 0."""
    mask = np.asarray(mask, bool)
    if x_hat.shape != np.shape(target) or mask.shape != x_hat.shape[:-1]:
        raise ValidationError("prediction, target and mask shapes differ")
    if n_masked <= 0:
        raise ValidationError("reconstruction loss undefined for |M| = 0")
    dtype = x_hat.data.dtype
    return ad.squared_error(x_hat, np.asarray(target, dtype=dtype),
                            mask[..., None].astype(dtype), 1.0 / n_masked)
