"""Channel mapping, patching and Bernoulli masking as training runs them:
patches of the mapped signal (`mapped_patch_targets`), the input checks of
`forward_tokens`, and the per-step masks of `batch_mask`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegssl.encoder import (EncoderConfig, forward_tokens, init_param_store,
                            wrap_constants)
from eegssl.errors import ValidationError
from eegssl.config import TrainConfig
from eegssl.trainer import batch_mask, mapped_patch_targets


def grid_config(in_channels, mapped_channels, p_t, n_t):
    return EncoderConfig(d=4, layers=0, heads=1, p_t=p_t, stem_kernel=1,
                         in_channels=in_channels,
                         mapped_channels=mapped_channels, n_t=n_t)


def map_patches(x, w, p_t, n_t):
    """Patches of w @ x for one (channels, time) signal: (M', n_t, p_t)."""
    w = np.asarray(w)
    cfg = grid_config(x.shape[0], w.shape[0], p_t, n_t)
    return mapped_patch_targets(w, x[None], cfg)[0]


def forward(cfg, x, mask=None):
    params = wrap_constants(init_param_store(cfg, seed=0))
    return forward_tokens(params, x, mask, cfg)


def test_identity_map():
    x = np.random.default_rng(0).standard_normal((3, 10))
    out = map_patches(x, np.eye(3), p_t=5, n_t=2)
    np.testing.assert_array_equal(out.reshape(3, 10), x)


def test_zero_map():
    x = np.ones((2, 5))
    np.testing.assert_array_equal(map_patches(x, np.zeros((4, 2)), 5, 1), 0.0)


def test_matches_naive_triple_loop():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((3, 2))
    x = rng.standard_normal((2, 5))
    out = map_patches(x, w, p_t=5, n_t=1).reshape(3, 5)
    expected = np.zeros((3, 5))
    for i in range(3):
        for t in range(5):
            for j in range(2):
                expected[i, t] += w[i, j] * x[j, t]
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_shape_mismatch_rejected():
    cfg = grid_config(2, 2, p_t=5, n_t=1)
    with pytest.raises(ValidationError, match="channels"):
        forward(cfg, np.zeros((1, 3, 5)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-3, 3), st.floats(-3, 3))
def test_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((4, 3))
    x = rng.standard_normal((3, 6))
    y = rng.standard_normal((3, 6))
    lhs = map_patches(a * x + b * y, w, 3, 2)
    rhs = a * map_patches(x, w, 3, 2) + b * map_patches(y, w, 3, 2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-6)


def test_patchify_shape():
    patches = map_patches(np.zeros((2, 8)), np.eye(2), p_t=4, n_t=2)
    assert patches.shape == (2, 2, 4)


def test_patchify_roundtrip():
    x = np.arange(24.0).reshape(2, 12)
    patches = map_patches(x, np.eye(2), p_t=4, n_t=3)
    np.testing.assert_array_equal(patches.reshape(2, 12), x)


def test_patchify_floor_discards_tail():
    x = np.arange(20.0).reshape(2, 10)
    patches = map_patches(x, np.eye(2), p_t=4, n_t=2)
    assert patches.shape == (2, 2, 4)
    kept = patches.ravel()
    assert 8.0 not in kept and 9.0 not in kept    # samples 8, 9 of each channel
    assert 18.0 not in kept and 19.0 not in kept
    # the encoder accepts the segment and drops the same tail
    assert forward(grid_config(2, 2, 4, 2), x[None]).shape == (1, 4, 4)


def test_patchify_preserves_samples_exactly():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 17)).astype(np.float32)
    patches = map_patches(x, np.eye(3, dtype=np.float32), p_t=5, n_t=3)
    np.testing.assert_array_equal(patches[:, 0, :], x[:, :5])
    np.testing.assert_array_equal(patches[:, 2, :], x[:, 10:15])


def test_patchify_invalid_length():
    with pytest.raises(ValidationError):
        grid_config(2, 2, p_t=0, n_t=1)
    with pytest.raises(ValidationError):
        forward(grid_config(2, 2, p_t=4, n_t=1), np.zeros((1, 2, 3)))


def test_mask_degenerate_probabilities():
    assert batch_mask(1, 0, 3, (4, 8), 0.0).sum() == 0
    assert batch_mask(1, 0, 3, (4, 8), 1.0).sum() == 3 * 32


def test_mask_fraction_binomial_bound():
    # 10,000 positions at p=0.5: 3 sigma is 0.015
    fraction = batch_mask(7, 0, 1, (100, 100), 0.5).mean()
    assert abs(fraction - 0.5) < 0.015


def test_mask_seed_reproducible_bitwise():
    a = batch_mask(9, 0, 1, (16, 16), 0.3)
    b = batch_mask(9, 0, 1, (16, 16), 0.3)
    np.testing.assert_array_equal(a, b)


def test_mask_distinct_seeds_differ():
    a = batch_mask(1, 0, 1, (8, 8), 0.5)
    b = batch_mask(2, 0, 1, (8, 8), 0.5)
    assert (a != b).any()


def test_mask_probability_validated():
    with pytest.raises(ValidationError):
        TrainConfig(p_mask=1.5)


def test_mask_pattern_shape_validated():
    cfg = grid_config(2, 2, p_t=4, n_t=2)
    with pytest.raises(ValidationError, match="mask shape"):
        forward(cfg, np.zeros((1, 2, 8)), np.zeros((2, 2), bool))  # no batch axis
