"""Encoder contracts: the patch grid, masking, equivariance, parameter
counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eegssl.encoder
from eegssl import autodiff as ad
from eegssl.encoder import (EncoderConfig, forward_tokens,
                            init_param_store, param_shapes, patch_grid,
                            predict_patches, wrap_constants)
from eegssl.errors import ValidationError
from eegssl.trainer import batch_mask

CFG = EncoderConfig(d=16, layers=2, heads=4, mlp_ratio=4.0, p_t=8,
                    in_channels=4, mapped_channels=4, n_t=4, stem_kernel=7)


def encode(segment, store, mask=None, cfg=CFG):
    """One segment through the encoder on constants: (N, d) tokens."""
    params = wrap_constants(store)
    out = forward_tokens(params, patch_grid(params, segment[None], cfg),
                         None if mask is None else mask[None], cfg)
    return out.data[0]


def predict(z, store, cfg=CFG):
    """Patch predictions (M', n_t, p_t) from one (N, d) token sequence."""
    out = predict_patches(wrap_constants(store), ad.constant(z[None]), cfg)
    return out.data[0]


def make_mask(shape, p_mask, seed):
    return batch_mask(seed, 0, 1, shape, p_mask)[0]


def grid_config(in_channels, mapped_channels, p_t, n_t):
    return EncoderConfig(d=4, layers=0, heads=2, p_t=p_t, stem_kernel=1,
                         in_channels=in_channels,
                         mapped_channels=mapped_channels, n_t=n_t)


def map_patches(x, w, p_t, n_t):
    """Patch grid of w @ x for one (channels, time) signal: (M', n_t, p_t)."""
    w = np.asarray(w)
    cfg = grid_config(x.shape[0], w.shape[0], p_t, n_t)
    return patch_grid({"channel_map": ad.constant(w)}, x[None], cfg).data[0]


def forward(cfg, x, mask=None):
    params = wrap_constants(init_param_store(cfg, seed=0))
    return forward_tokens(params, patch_grid(params, x, cfg), mask, cfg)


def make_inputs(cfg=CFG, seed=0):
    rng = np.random.default_rng(seed)
    segment = rng.standard_normal((cfg.in_channels, cfg.segment_samples)).astype(np.float32)
    store = init_param_store(cfg, seed=seed)
    return segment, store


# --- the patch grid: channel map and patching --------------------------------------

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


def test_mask_pattern_shape_validated():
    cfg = grid_config(2, 2, p_t=4, n_t=2)
    with pytest.raises(ValidationError, match="mask shape"):
        forward(cfg, np.zeros((1, 2, 8)), np.zeros((2, 2), bool))  # no batch axis


# --- the encoder forward -----------------------------------------------------------

def test_output_shape_and_determinism():
    segment, store = make_inputs()
    mask = make_mask((CFG.mapped_channels, CFG.n_t), 0.5, seed=3)
    a = encode(segment, store, mask)
    b = encode(segment, store, mask)
    assert a.shape == (CFG.n_tokens, CFG.d)
    assert a.tobytes() == b.tobytes()


def test_masked_content_independence_identity_map():
    segment, store = make_inputs()
    store["channel_map"] = np.eye(4, dtype=np.float32)
    mask = make_mask((4, 4), 0.5, seed=5)
    assert 0 < mask.sum() < mask.size

    perturbed = segment.copy()
    for i in range(4):
        for j in range(4):
            if mask[i, j]:
                perturbed[i, j * CFG.p_t:(j + 1) * CFG.p_t] += 17.0
    a = encode(segment, store, mask)
    b = encode(perturbed, store, mask)
    assert a.tobytes() == b.tobytes()


def test_masked_content_independence_full_columns():
    # with a general channel map, windows masked across every mapped channel
    # are independent of any raw content inside them
    segment, store = make_inputs(seed=2)
    mask = np.zeros((4, 4), bool)
    mask[:, 1] = True
    mask[:, 3] = True
    perturbed = segment.copy()
    rng = np.random.default_rng(9)
    for j in (1, 3):
        perturbed[:, j * CFG.p_t:(j + 1) * CFG.p_t] = rng.standard_normal((4, CFG.p_t))
    a = encode(segment, store, mask)
    b = encode(perturbed, store, mask)
    assert a.tobytes() == b.tobytes()


def test_unmasked_content_does_change_output():
    segment, store = make_inputs()
    perturbed = segment.copy()
    perturbed[0, 0] += 1.0
    mask = np.zeros((4, 4), bool)
    mask[0, 1] = True
    a = encode(segment, store, mask)
    b = encode(perturbed, store, mask)
    assert (a != b).any()


def test_empty_mask_matches_target_with_equal_params():
    segment, store = make_inputs()
    mask = np.zeros((4, 4), bool)
    z = encode(segment, store, mask)
    h = encode(segment, store)
    assert z.tobytes() == h.tobytes()


def test_permutation_equivariance():
    segment, store = make_inputs(seed=4)
    perm = np.array([2, 0, 3, 1])
    mask = make_mask((4, 4), 0.4, seed=6)

    permuted = store.copy()
    permuted["channel_map"] = store["channel_map"][perm]
    permuted["channel_embed"] = store["channel_embed"][perm]
    z = encode(segment, store, mask)
    z_perm = encode(segment, permuted, mask[perm])

    grid = z.reshape(CFG.mapped_channels, CFG.n_t, CFG.d)
    grid_perm = z_perm.reshape(CFG.mapped_channels, CFG.n_t, CFG.d)
    np.testing.assert_allclose(grid_perm, grid[perm], rtol=1e-5, atol=1e-6)


def test_degenerate_forward_zero_gains():
    # all weights and gains zero: output collapses to the final LN bias
    cfg = EncoderConfig(d=8, layers=1, heads=2, mlp_ratio=2.0, p_t=8,
                        in_channels=2, mapped_channels=2, n_t=2, stem_kernel=7)
    store = init_param_store(cfg, seed=0)
    rng = np.random.default_rng(1)
    for name in store:
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "bias":
            store[name] = rng.standard_normal(store[name].shape).astype(np.float32)
        else:
            store[name] = np.zeros_like(store[name])
    segment = np.zeros((2, cfg.segment_samples), np.float32)
    out = encode(segment, store, cfg=cfg)
    expected = np.tile(store["final_ln.bias"], (cfg.n_tokens, 1))
    np.testing.assert_allclose(out, expected, rtol=1e-6, atol=1e-7)


def test_degenerate_forward_unit_gains_hand_rolled():
    # zero weights, unit gains, random biases; all tokens identical, so the
    # whole forward reduces to scalar vector arithmetic
    cfg = EncoderConfig(d=8, layers=1, heads=2, mlp_ratio=2.0, p_t=8,
                        in_channels=2, mapped_channels=2, n_t=2, stem_kernel=7)
    store = init_param_store(cfg, seed=0)
    rng = np.random.default_rng(2)
    for name in store:
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "bias":
            store[name] = rng.standard_normal(store[name].shape).astype(np.float32)
        elif leaf == "gain":
            store[name] = np.ones_like(store[name])
        else:
            store[name] = np.zeros_like(store[name])
    segment = np.zeros((2, cfg.segment_samples), np.float32)
    out = encode(segment, store, cfg=cfg)

    def ln(v, eps=1e-5):
        return (v - v.mean()) / np.sqrt(((v - v.mean()) ** 2).mean() + eps)

    # every token equals stem.bias; attention mixes identical values through
    # zero attn.out.weight (leaving attn.out.bias), and the mlp contributes
    # only mlp.fc2.bias through zero mlp.fc2.weight
    token = store["stem.bias"].astype(np.float64)
    token = token + store["layers.0.attn.out.bias"]
    token = token + store["layers.0.mlp.fc2.bias"]
    expected = ln(token) + store["final_ln.bias"]
    np.testing.assert_allclose(out, np.tile(expected, (cfg.n_tokens, 1)),
                               rtol=1e-5, atol=1e-6)


def test_reconstruct_affine_degenerate():
    _, store = make_inputs()
    for name in ("recon.weight",):
        store[name] = np.zeros_like(store[name])
    bias = np.arange(CFG.p_t, dtype=np.float32)
    store["recon.bias"] = bias
    z = np.zeros((CFG.n_tokens, CFG.d), np.float32)
    pred = predict(z, store)
    assert pred.shape == (CFG.mapped_channels, CFG.n_t, CFG.p_t)
    np.testing.assert_array_equal(pred, np.broadcast_to(bias, pred.shape))


def test_reconstruct_shape_contract():
    segment, store = make_inputs()
    mask = make_mask((4, 4), 0.5, seed=1)
    z = encode(segment, store, mask)
    pred = predict(z, store)
    assert pred.shape == (CFG.mapped_channels, CFG.n_t, CFG.p_t)


def test_stem_matches_conv_then_pool():
    cfg = EncoderConfig(d=6, layers=0, heads=2, p_t=16, in_channels=2,
                        mapped_channels=3, n_t=2, stem_kernel=5)
    rng = np.random.default_rng(7)
    w = rng.standard_normal((cfg.d, cfg.stem_kernel))
    pool = rng.standard_normal((cfg.d, cfg.conv_positions))
    bias = rng.standard_normal(cfg.d)
    patches = rng.standard_normal((2, cfg.mapped_channels, cfg.n_t, cfg.p_t))
    # stored as `ad.embed` uses them: (k, d) and (L_out, d)
    params = {"stem.weight": ad.constant(np.ascontiguousarray(w.T)),
              "stem.pool": ad.constant(np.ascontiguousarray(pool.T)),
              "stem.bias": ad.constant(bias)}
    # no mask, and zero channel and position embeddings: the stem alone
    zeros = [ad.constant(np.zeros(shape)) for shape in
             ((cfg.d,), (cfg.mapped_channels, cfg.d), (cfg.n_t, cfg.d))]
    tokens = ad.embed(ad.constant(patches), params["stem.weight"], params["stem.pool"],
                      params["stem.bias"], None, *zeros).data

    expected = np.empty(patches.shape[:-1] + (cfg.d,))
    for idx in np.ndindex(patches.shape[:-1]):
        patch = patches[idx]
        for c in range(cfg.d):
            conv = [sum(w[c, j] * patch[u + j] for j in range(cfg.stem_kernel))
                    for u in range(cfg.conv_positions)]
            expected[idx + (c,)] = sum(pool[c, u] * conv[u]
                                       for u in range(cfg.conv_positions)) + bias[c]
    assert tokens.dtype == np.float64
    np.testing.assert_allclose(tokens, expected, rtol=1e-12)


def test_block_names_follow_the_linear_rule():
    # twelve tensors per block; each linear layer is <name>.weight/<name>.bias
    store = init_param_store(CFG, seed=0)
    block = [name[len("layers.1."):] for name in store if name.startswith("layers.1.")]
    assert block == ["ln1.gain", "ln1.bias", "attn.qkv.weight", "attn.qkv.bias",
                     "attn.out.weight", "attn.out.bias", "ln2.gain", "ln2.bias",
                     "mlp.fc1.weight", "mlp.fc1.bias", "mlp.fc2.weight", "mlp.fc2.bias"]
    assert store["layers.1.attn.qkv.weight"].shape == (CFG.d, 3 * CFG.d)
    assert store["layers.1.attn.qkv.bias"].shape == (3 * CFG.d,)


def test_block_matches_three_separate_projections_float64(monkeypatch):
    # the fused q|k|v projection against q, k and v projected one by one
    # from the column slices of attn.qkv.weight, each heads-major
    cfg = EncoderConfig(d=8, layers=1, heads=4, mlp_ratio=2.0, p_t=8, in_channels=2,
                        mapped_channels=3, n_t=5, stem_kernel=7)
    store = init_param_store(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(8)
    for name in store:
        if name.endswith(".bias"):
            store[name] = rng.standard_normal(store[name].shape)
    x = rng.standard_normal((2, cfg.in_channels, cfg.segment_samples))
    params = wrap_constants(store)

    def three_projections(seq, ln_gain, ln_bias, w_qkv, b_qkv, w_out, b_out, heads_grid):
        normed = ad.layer_norm(seq, ln_gain, ln_bias)
        w, bias = w_qkv.data, b_qkv.data
        grid = (normed.shape[0], *heads_grid, cfg.head_dim)
        q, k, v = (ad.matmul(normed, ad.constant(w[:, cols]), ad.constant(bias[cols]))
                   .data.reshape(grid)
                   for cols in (np.s_[:cfg.d], np.s_[cfg.d:2 * cfg.d], np.s_[2 * cfg.d:]))
        mixed, _ = ad._criss_cross(np.stack((q, k, v), axis=3))
        return ad.add(seq, ad.matmul(ad.constant(mixed.reshape(normed.shape)),
                                     w_out, b_out))

    fused = forward_tokens(params, patch_grid(params, x, cfg), None, cfg).data
    monkeypatch.setattr(eegssl.encoder.ad, "attention", three_projections)
    composite = forward_tokens(params, patch_grid(params, x, cfg), None, cfg).data
    assert fused.dtype == np.float64
    np.testing.assert_allclose(fused, composite, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("cfg", [CFG, EncoderConfig(d=8, layers=0, heads=2, p_t=8,
                                                    in_channels=3, mapped_channels=5,
                                                    n_t=2, stem_kernel=3)])
def test_store_follows_the_shape_table(cfg):
    # the store holds the table's names in its order, each at its shape
    for dtype in (np.float32, np.float64):
        store = init_param_store(cfg, seed=0, dtype=dtype)
        assert [(k, v.shape) for k, v in store.items()] == list(param_shapes(cfg).items())
        assert all(v.dtype == dtype and v.flags.c_contiguous for v in store.values())


def test_param_count_block_share_grows_4x_with_d():
    def blocks(d):
        sizes = [sum(v.size for _, v in init_param_store(EncoderConfig(
            d=d, layers=layers, heads=4, mlp_ratio=4.0, p_t=64, in_channels=8,
            mapped_channels=8, n_t=16, stem_kernel=7), seed=0).items())
            for layers in (4, 0)]
        return sizes[0] - sizes[1]

    d = 64

    def per_layer(dd):
        hidden = 4 * dd
        return (4 * dd + 4 * (dd * dd + dd)
                + (dd * hidden + hidden) + (hidden * dd + dd))

    share_ratio = blocks(2 * d) / blocks(d)
    assert blocks(d) == 4 * per_layer(d)
    assert share_ratio == pytest.approx(per_layer(2 * d) / per_layer(d))
    assert 3.5 < share_ratio < 4.1


def test_config_invariants():
    with pytest.raises(ValidationError):
        EncoderConfig(d=10, heads=4)
    # criss-cross attention splits the heads into two equal groups
    with pytest.raises(ValidationError, match="heads must be even"):
        EncoderConfig(d=12, heads=3)
    with pytest.raises(ValidationError):
        EncoderConfig(p_t=4, stem_kernel=7)
    with pytest.raises(ValidationError):
        EncoderConfig(layers=-1)
