"""Loss oracle tests on the training path: scalar-loop equivalence and
invariances of the tape losses, and the total the training step forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegssl import autodiff as ad
from eegssl.config import RunConfig, TrainConfig
from eegssl.encoder import EncoderConfig
from eegssl.errors import ValidationError
from eegssl.losses import alignment_loss_t, reconstruction_loss_t
from eegssl.trainer import TrainLogRecord, init_checkpoint, train_step


def align(h, z):
    # the whole input is one batch: its token count is the normalizer
    n_tokens = int(np.prod(np.shape(z)[:-1]))
    return float(alignment_loss_t(h, ad.constant(z), n_tokens).data)


def recon(x_hat, patches, mask):
    n_masked = int(np.sum(mask))
    return float(reconstruction_loss_t(ad.constant(x_hat), patches, mask,
                                       n_masked).data)


def layer_norm(v):
    return ad.layer_norm(ad.constant(v)).data


def step_record(lam):
    """Log record of one training step at weight lam on a fixed tiny batch."""
    enc = EncoderConfig(d=8, layers=1, heads=2, mlp_ratio=2.0, p_t=8,
                        in_channels=2, mapped_channels=2, n_t=2, stem_kernel=7)
    cfg = RunConfig(encoder=enc, train=TrainConfig(batch_size=4, lam=lam))
    state = init_checkpoint(cfg)
    x = np.random.default_rng(10).standard_normal((4, 2, 16)).astype(np.float32)
    return train_step(x, state, cfg, 1)


def loop_alignment(h, z, eps=1e-5):
    """Direct scalar-loop evaluation of the alignment loss."""
    n, d = h.shape

    def ln(v):
        mu = sum(v) / d
        var = sum((x - mu) ** 2 for x in v) / d
        return [(x - mu) / np.sqrt(var + eps) for x in v]

    total = 0.0
    for i in range(n):
        lh, lz = ln(list(h[i])), ln(list(z[i]))
        total += sum((a - b) ** 2 for a, b in zip(lh, lz))
    return total / n


def loop_reconstruction(x_hat, patches, mask):
    total, count = 0.0, 0
    m, n_t, p_t = patches.shape
    for i in range(m):
        for j in range(n_t):
            if mask[i, j]:
                count += 1
                for s in range(p_t):
                    total += (x_hat[i, j, s] - patches[i, j, s]) ** 2
    return total / count


# --- layer norm ---------------------------------------------------------------

def test_constant_vector_maps_to_zero():
    np.testing.assert_allclose(layer_norm(np.full(6, 3.7)), 0.0, atol=1e-9)


def test_output_standardized():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(32)
    out = layer_norm(v)
    assert abs(out.mean()) < 1e-12
    assert out.var() == pytest.approx(1.0, rel=1e-4)


def test_affine_invariance():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(16) * 3.0  # variance well above the 1e-5 epsilon
    np.testing.assert_allclose(layer_norm(2.0 * v + 3.0), layer_norm(v),
                               atol=1e-5)


# --- alignment ------------------------------------------------------------------

def test_identical_inputs_zero():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((5, 8))
    assert align(h, h) == 0.0


def test_per_token_affine_invariance():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, 8))
    h = 2.0 * z + 3.0
    assert align(h, z) < 1e-5


def test_alignment_matches_loop_oracle():
    rng = np.random.default_rng(4)
    h = rng.standard_normal((3, 4))
    z = rng.standard_normal((3, 4))
    assert align(h, z) == pytest.approx(loop_alignment(h, z), rel=1e-9)


def test_alignment_shape_mismatch():
    with pytest.raises(ValidationError):
        align(np.zeros((3, 4)), np.zeros((4, 3)))
    with pytest.raises(ValidationError):          # would broadcast silently
        align(np.zeros((1, 4)), np.zeros((3, 4)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8), st.integers(2, 8))
def test_alignment_nonnegative_and_loop_equal(seed, n, d):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, d))
    z = rng.standard_normal((n, d))
    val = align(h, z)
    assert val >= 0.0
    assert val == pytest.approx(loop_alignment(h, z), rel=1e-6, abs=1e-9)


# --- reconstruction --------------------------------------------------------------

def test_masked_only_support():
    rng = np.random.default_rng(5)
    patches = rng.standard_normal((2, 3, 4))
    x_hat = patches.copy()
    mask = np.zeros((2, 3), bool)
    mask[0, 1] = True
    x_hat[1, 2] += 100.0  # unmasked garbage must not matter
    assert recon(x_hat, patches, mask) == 0.0


def test_single_patch_constant_error():
    patches = np.zeros((1, 1, 4))
    x_hat = np.full((1, 1, 4), 2.0)
    mask = np.ones((1, 1), bool)
    assert recon(x_hat, patches, mask) == pytest.approx(16.0)


def test_reconstruction_matches_loop_oracle():
    rng = np.random.default_rng(6)
    patches = rng.standard_normal((3, 4, 5))
    x_hat = rng.standard_normal((3, 4, 5))
    mask = rng.random((3, 4)) < 0.5
    mask[0, 0] = True
    assert recon(x_hat, patches, mask) == pytest.approx(
        loop_reconstruction(x_hat, patches, mask), rel=1e-9)


def test_empty_mask_raises_declared_error():
    with pytest.raises(ValidationError, match=r"\|M\| = 0"):
        recon(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), np.zeros((2, 2), bool))


def test_reconstruction_shape_checks():
    with pytest.raises(ValidationError):
        recon(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)), np.ones((2, 2), bool))
    with pytest.raises(ValidationError):          # mask off the patch grid
        recon(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), np.ones((2, 3), bool))


# --- total (formed by the training step) -------------------------------------------

def test_total_lambda_zero():
    rec = step_record(0.0)
    assert rec.L_R > 0.0
    assert rec.L_total == rec.L_A


def test_total_arithmetic():
    rec = step_record(1.0)
    assert rec.L_total == pytest.approx(rec.L_A + rec.L_R, rel=1e-6)


def test_total_linear_in_recon():
    base = step_record(1.0)
    scaled = step_record(3.0)
    assert (scaled.L_A, scaled.L_R) == (base.L_A, base.L_R)
    assert scaled.L_total - scaled.L_A == pytest.approx(
        3.0 * (base.L_total - base.L_A), rel=1e-5)


def test_loss_report_invariant():
    # the step log record is the training loss report: non-negative parts,
    # finite values only
    rec = step_record(2.0)
    assert rec.L_A >= 0.0 and rec.L_R >= 0.0
    with pytest.raises(ValidationError):
        TrainLogRecord(**{**vars(rec), "L_A": float("nan")})


# --- tensor-path consistency -------------------------------------------------------

def test_tensor_alignment_matches_public_value():
    # batched (B, N, d) input: the mean runs over all B * N tokens
    rng = np.random.default_rng(7)
    h = rng.standard_normal((2, 4, 6))
    z = rng.standard_normal((2, 4, 6))
    assert align(h, z) == pytest.approx(
        loop_alignment(h.reshape(8, 6), z.reshape(8, 6)), rel=1e-9)
    # training shape and dtype: identical inputs give exactly zero
    h32 = rng.standard_normal((8, 128, 32)).astype(np.float32)
    assert align(h32, h32) == 0.0


def test_tensor_reconstruction_matches_public_value():
    rng = np.random.default_rng(8)
    patches = rng.standard_normal((1, 2, 3, 4))
    x_hat = rng.standard_normal((1, 2, 3, 4))
    mask = np.array([[[True, False, True], [False, True, False]]])
    tensor_val = float(reconstruction_loss_t(ad.constant(x_hat), patches, mask,
                                             int(mask.sum())).data)
    assert tensor_val == pytest.approx(
        loop_reconstruction(x_hat[0], patches[0], mask[0]), rel=1e-9)


def test_alignment_stop_gradient_on_target():
    rng = np.random.default_rng(9)
    h = ad.parameter(rng.standard_normal((3, 4)))
    z = ad.parameter(rng.standard_normal((3, 4)))
    loss = alignment_loss_t(h.data, z, 3)
    loss.backward()
    assert h.grad is None         # target branch receives no gradient
    assert z.grad is not None
