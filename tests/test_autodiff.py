"""Finite-difference checks for every autodiff primitive."""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from eegssl import autodiff as ad


def numeric_grad(fn, x, h=1e-6):
    g = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = g.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        plus = fn()
        flat_x[i] = orig - h
        minus = fn()
        flat_x[i] = orig
        flat_g[i] = (plus - minus) / (2 * h)
    return g


def check_op(build, *shapes, seed=0):
    """`build(*tensors) -> scalar Tensor`; FD-check grads w.r.t. every input."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [ad.parameter(a) for a in arrays]
    out = build(*tensors)
    out.backward()
    for arr, tensor in zip(arrays, tensors):
        fd = numeric_grad(lambda: float(build(*[ad.constant(a) for a in arrays]).data), arr)
        np.testing.assert_allclose(tensor.grad, fd, rtol=1e-5, atol=1e-7)


def sum_sq(t, target=0.0):
    """Scalarizer: the sum of squared differences from a constant target."""
    return ad.squared_error(t, target, 1.0, 1.0)


def fixed_target(shape):
    return np.cos(np.arange(int(np.prod(shape)))).reshape(shape)


# Leading axes of an op's input: one (a 2-D x) or three (a (B, M', n_t, .)
# patch grid), any of them possibly of size 1.
lead_axes = st.sampled_from([1, 3]).flatmap(
    lambda n: st.lists(st.integers(1, 3), min_size=n, max_size=n).map(tuple))


def broadcast_operands(count):
    """`count` operand shapes that broadcast together: each takes a common
    lead_axes + (2,) shape, drops some of its leading axes and sets some of
    the rest to size 1."""
    def operands(shape):
        one = st.integers(0, len(shape)).flatmap(
            lambda k: st.tuples(*(st.sampled_from([n, 1]) for n in shape[k:])))
        return st.tuples(*[one] * count)
    return lead_axes.flatmap(lambda lead: operands(lead + (2,)))


@settings(max_examples=25, deadline=None)
@given(shapes=broadcast_operands(2))
@example(shapes=((3, 4), (4,)))
@example(shapes=((3, 1), (1, 2)))
def test_add_broadcast(shapes):
    target = fixed_target(np.broadcast_shapes(*shapes))
    check_op(lambda a, b: sum_sq(ad.add(a, b), target), *shapes)


def mul(a, b):
    """The broadcasting product tape op that `ad.embed` absorbed with the
    stem kernel: the oracle for the stem's outer product and the operand of
    the tape-mechanics tests."""
    return ad._make(a.data * b.data, (a, b),
                    lambda g: (ad._unbroadcast(g * b.data, a.data.shape),
                               ad._unbroadcast(g * a.data, b.data.shape)))


@settings(max_examples=25, deadline=None)
@given(shapes=broadcast_operands(2))
@example(shapes=((2, 3), (2, 3)))
@example(shapes=((2, 3), (3,)))
@example(shapes=((2,), (1, 3, 1, 2)))
def test_mul_broadcast(shapes):
    target = fixed_target(np.broadcast_shapes(*shapes))
    check_op(lambda a, b: sum_sq(mul(a, b), target), *shapes)


def test_matmul_2d():
    check_op(lambda a, b: sum_sq(ad.matmul(a, b), fixed_target((3, 2))), (3, 4), (4, 2))


def test_matmul_batched_weight_broadcast():
    check_op(lambda a, b: sum_sq(ad.matmul(a, b)), (5, 3, 4), (4, 2))


def test_matmul_stacked():
    check_op(lambda a, b: sum_sq(ad.matmul(a, b), fixed_target((2, 3, 4, 4))),
             (2, 3, 4, 5), (2, 3, 5, 4))


@settings(max_examples=25, deadline=None)
@given(lead=lead_axes, k=st.integers(1, 4), m=st.integers(1, 4), stacked=st.booleans())
def test_matmul(lead, k, m, stacked):
    # a is lead + (k,), its last lead axis the rows; b is one (k, m) matrix,
    # or one per leading index when stacked
    b_shape = (lead[:-1] if stacked else ()) + (k, m)
    target = fixed_target(lead + (m,))
    check_op(lambda a, b: sum_sq(ad.matmul(a, b), target), lead + (k,), b_shape)


def permuted_shape(shape):
    return st.tuples(st.just(shape), st.permutations(range(len(shape))).map(tuple))


@settings(max_examples=25, deadline=None)
@given(case=st.tuples(lead_axes, st.integers(1, 4)).flatmap(
    lambda c: permuted_shape(c[0] + (c[1],))))
@example(case=((2, 3, 4), (1, 2, 0)))
def test_reshape_transpose_slice(case):
    shape, axes = case
    weights = fixed_target(tuple(shape[i] for i in axes))

    def build(a):
        t = ad.reshape(ad.reshape(a, shape), tuple(shape[i] for i in axes))
        return ad.squared_error(t, 0.0, weights, 1.0)
    check_op(build, (int(np.prod(shape)),))


def test_squared_error():
    rng = np.random.default_rng(7)
    target = rng.standard_normal((2, 3, 4))
    gate = (rng.random((2, 3, 1)) < 0.5).astype(float)   # a size-1 weight axis
    check_op(lambda a: ad.squared_error(a, target, gate, 0.3), (2, 3, 4))
    check_op(lambda a: ad.squared_error(a, target, 1.0, -2.0), (2, 3, 4))
    a = rng.standard_normal((2, 3, 4))
    value = ad.squared_error(ad.constant(a), target, gate, 0.3).data
    np.testing.assert_allclose(value, 0.3 * (gate * (a - target) ** 2).sum(), rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(shapes=broadcast_operands(2), zero=st.booleans())
@example(shapes=((2, 3, 4), (2, 3, 1)), zero=False)     # the mask gate's shape
@example(shapes=((1, 3, 2), (1,)), zero=True)
def test_squared_error_broadcast_weights(shapes, zero):
    # a weight that broadcasts against a, with size-1 axes; an all-zero one
    # is a micro-batch with no masked patch
    shape, weight_shape = np.broadcast_shapes(*shapes), shapes[1]
    target = fixed_target(shape)
    weight = np.zeros(weight_shape) if zero else np.abs(fixed_target(weight_shape))
    check_op(lambda a: ad.squared_error(a, target, weight, 0.3), shape)
    a = np.random.default_rng(1).standard_normal(shape)
    value = ad.squared_error(ad.constant(a), target, weight, 0.3).data
    np.testing.assert_allclose(value, 0.3 * (weight * (a - target) ** 2).sum(), rtol=1e-12)
    if zero:
        assert value == 0.0


@settings(max_examples=25, deadline=None)
@given(lead=lead_axes, d=st.integers(1, 4),
       s=st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
@example(lead=(), d=5, s=2.5)
@example(lead=(2,), d=2, s=-3.0)
def test_sqrt_scale_shift_neg(lead, d, s):
    shape = lead + (d,)
    check_op(lambda a: sum_sq(ad.scale(a, s), fixed_target(shape)), shape)
    check_op(lambda a: ad.scale(sum_sq(a), s), shape)   # a scaled loss


def gelu(a):
    """The tanh-form gelu tape op that `ad.mlp` absorbed, run on the private
    helpers `ad.mlp` shares: the oracle for gelu's arithmetic and the fused
    op's composite."""
    x = a.data
    t = ad._gelu_tanh(x)
    return ad._make(ad._gelu(x, t, out=t), (a,),
                    lambda g: (ad._gelu_grad(x, ad._gelu_tanh(x), g),))


@settings(max_examples=25, deadline=None)
@given(lead=lead_axes, d=st.integers(1, 4))
@example(lead=(4,), d=4)
@example(lead=(1, 2, 1), d=3)
def test_gelu(lead, d):
    check_op(lambda a: sum_sq(gelu(a), fixed_target(lead + (d,))), lead + (d,))


def tanh_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def test_gelu_matches_the_tanh_closed_form():
    x = np.concatenate([np.linspace(-10.0, 10.0, 4001),
                        np.random.default_rng(9).standard_normal(1000) * 3.0])
    np.testing.assert_allclose(gelu(ad.constant(x)).data, tanh_gelu(x), rtol=1e-12)


def test_gelu_stays_near_the_exact_erf_gelu():
    # the tanh form is a different function; bound how far it moves the model
    x = np.linspace(-10.0, 10.0, 20001)
    y = gelu(ad.parameter(x))
    (grad,) = y._backward(np.ones_like(x))
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    assert np.abs(y.data - x * cdf).max() < 5e-4       # measured 4.73e-4 at |x| = 2.70
    assert np.abs(grad - (cdf + x * pdf)).max() < 1e-3  # measured 8.7e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_finite_at_extreme_inputs(dtype):
    # where x * x overflows, gelu is x or -0 with gradient 1 or 0, as the erf
    # form gives; at 0 and a subnormal the gradient is 1/2
    tiny = np.finfo(dtype).smallest_subnormal
    x = np.array([1e20, -1e20, 3e38, -3e38, 0.0, tiny], dtype=dtype)
    y = gelu(ad.parameter(x))
    (grad,) = y._backward(np.ones_like(x))
    assert y.data.dtype == dtype and grad.dtype == dtype
    np.testing.assert_array_equal(y.data[:5], np.maximum(x[:5], 0))
    assert np.signbit(y.data[[1, 3]]).all()
    assert 0.0 <= y.data[5] <= tiny
    np.testing.assert_array_equal(grad, [1.0, 0.0, 1.0, 0.0, 0.5, 0.5])


def attention(qkv):
    """The head-level criss-cross attention tape op that `ad.attention`
    absorbed, run on the private helpers it shares: a (B, C, T, 3, H, hd)
    q|k|v grid to the (B, C, T, H, hd) head outputs. The oracle for the head
    groups' arithmetic and the fused op's composite."""
    out, probs = ad._criss_cross(qkv.data)
    return ad._make(out, (qkv,), lambda g: (ad._criss_cross_grad(qkv.data, probs, g),))


def test_softmax():
    # the softmax runs inside the fused attention op; check it w.r.t. q, k, v
    # on (batch, channels, windows, q|k|v, heads, head_dim) grids with
    # channels != windows, so a mixed-up head group cannot pass
    target = np.random.default_rng(4).standard_normal((2, 3, 5, 4, 4))
    check_op(lambda qkv: sum_sq(attention(qkv), target), (2, 3, 5, 3, 4, 4))
    check_op(lambda qkv: sum_sq(attention(qkv)), (1, 4, 2, 3, 2, 3), seed=1)


def composite_attention(q, k, v):
    """Per-group numpy criss-cross attention on (B, C, T, H, hd) grids: the
    first half of the heads along time, the second half across channels."""
    half = q.shape[3] // 2
    out = np.empty_like(q)
    for heads, axes, inverse in ((np.s_[..., :half, :], (0, 1, 3, 2, 4), (0, 1, 3, 2, 4)),
                                 (np.s_[..., half:, :], (0, 2, 3, 1, 4), (0, 3, 1, 2, 4))):
        qg, kg, vg = (np.ascontiguousarray(x[heads].transpose(axes)) for x in (q, k, v))
        scores = (qg @ kg.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        out[heads] = ((e / e.sum(axis=-1, keepdims=True)) @ vg).transpose(inverse)
    return out


def fused(q, k, v):
    """The (B, C, T, 3, H, hd) q|k|v grid that `attention` takes."""
    return ad.constant(np.stack((q, k, v), axis=3))


def test_attention_forward_matches_composite_float32():
    rng = np.random.default_rng(5)
    q, k, v = (rng.standard_normal((2, 6, 16, 4, 8)).astype(np.float32) * 3.0
               for _ in range(3))
    expected = composite_attention(q, k, v)
    out = attention(fused(q, k, v)).data
    assert out.dtype == np.float32
    assert out.tobytes() == expected.tobytes()


def attention_grad_on_copies(qkv, g):
    """`attention`'s qkv gradient for output gradient `g`, with the softmax
    and its backward run on contiguous copies of each head group's q, k, v
    and g and laid back out by the inverse transposes."""
    half = qkv.shape[4] // 2
    grad = np.empty_like(qkv)
    for heads, axes in zip((np.s_[:half], np.s_[half:]), ((0, 1, 3, 2, 4), (0, 2, 3, 1, 4))):
        q, k, v = (np.ascontiguousarray(qkv[:, :, :, i, heads].transpose(axes))
                   for i in range(3))
        parts = ad._attend_grad(q, k, v, ad._attention_probs(q, k),
                                np.ascontiguousarray(g[:, :, :, heads].transpose(axes)))
        for i, part in enumerate(parts):
            grad[:, :, :, i, heads] = part.transpose(np.argsort(axes))
    return grad


@pytest.mark.parametrize("grid", [(2, 6, 16, 4, 8), (3, 5, 7, 6, 4)])
def test_attention_grads_match_contiguous_copies_float32(grid):
    # the views that the head groups run on give the bytes of copies
    rng = np.random.default_rng(9)
    qkv = (rng.standard_normal(grid[:3] + (3,) + grid[3:]) * 3.0).astype(np.float32)
    g = rng.standard_normal(grid).astype(np.float32)
    (grad,) = attention(ad.parameter(qkv))._backward(g)
    assert grad.dtype == np.float32
    assert grad.tobytes() == attention_grad_on_copies(qkv, g).tobytes()


def test_attention_heads_see_their_row_and_column():
    # perturbing v at token (c0, w0) moves the temporal heads' output only in
    # channel c0 and the spatial heads' output only in window w0
    rng = np.random.default_rng(6)
    q, k, v = (rng.standard_normal((2, 5, 7, 4, 3)) for _ in range(3))
    c0, w0 = 2, 4
    bumped = v.copy()
    bumped[:, c0, w0] += 1.0
    base = attention(fused(q, k, v)).data
    moved = attention(fused(q, k, bumped)).data
    changed = (moved != base).any(axis=(0, 4))           # (channels, windows, heads)
    temporal, spatial = changed[..., :2].any(-1), changed[..., 2:].any(-1)
    expected_row = np.zeros((5, 7), bool)
    expected_row[c0] = True
    expected_col = np.zeros((5, 7), bool)
    expected_col[:, w0] = True
    np.testing.assert_array_equal(temporal, expected_row)
    np.testing.assert_array_equal(spatial, expected_col)


def test_layer_norm():
    weights = np.random.default_rng(2).standard_normal((3, 6))
    check_op(lambda a: sum_sq(ad.layer_norm(a), weights), (3, 6))
    check_op(lambda a: sum_sq(ad.layer_norm(a)), (3, 6))
    # float32 in, float32 out and grad, agreeing with the float64 op
    x64 = np.random.default_rng(3).standard_normal((3, 6)) * 4.0 + 1.0
    grads = {}
    for dtype in (np.float32, np.float64):
        x = ad.parameter(x64.astype(dtype))
        out = ad.layer_norm(x)
        sum_sq(out, weights.astype(dtype)).backward()
        assert out.data.dtype == dtype and x.grad.dtype == dtype
        grads[dtype] = x.grad
    np.testing.assert_allclose(grads[np.float32], grads[np.float64], rtol=1e-4, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(lead=lead_axes, d=st.integers(1, 5))
@example(lead=(3,), d=6)
@example(lead=(1, 2, 1), d=4)
def test_plain_layer_norm(lead, d):
    # the losses' standardization: no gain, no bias
    target = fixed_target(lead + (d,))
    check_op(lambda x: sum_sq(ad.layer_norm(x), target), lead + (d,))


@settings(max_examples=25, deadline=None)
@given(lead=lead_axes, n=st.integers(1, 4), m=st.integers(1, 4))
@example(lead=(3,), n=4, m=2)
@example(lead=(1, 2, 1), n=3, m=4)
def test_linear(lead, n, m):
    target = fixed_target(lead + (m,))
    check_op(lambda x, w, b: sum_sq(ad.matmul(x, w, b), target), lead + (n,), (n, m), (m,))


@settings(max_examples=25, deadline=None)
@given(lead=lead_axes, d=st.integers(2, 5))
@example(lead=(3,), d=6)
@example(lead=(1, 2, 1), d=4)
def test_affine_layer_norm(lead, d):
    target = fixed_target(lead + (d,))
    check_op(lambda x, g, b: sum_sq(ad.layer_norm(x, g, b), target), lead + (d,), (d,), (d,))


@settings(max_examples=25, deadline=None)
@given(lead=lead_axes, d=st.integers(2, 4), hidden=st.integers(1, 5))
@example(lead=(1, 1, 1), d=3, hidden=5)
@example(lead=(2,), d=4, hidden=1)
def test_mlp(lead, d, hidden):
    # float64 gradcheck of all seven inputs, the residual stream included
    if hidden == d:
        hidden += 1
    target = fixed_target(lead + (d,))
    check_op(lambda *args: sum_sq(ad.mlp(*args), target),
             lead + (d,), (d,), (d,), (d, hidden), (hidden,), (hidden, d), (d,))


@settings(max_examples=10, deadline=None)
@given(batch=st.integers(1, 2),
       grid=st.lists(st.sampled_from([1, 3, 5]), min_size=2, max_size=2, unique=True),
       heads=st.sampled_from([2, 4]), head_dim=st.integers(1, 3))
@example(batch=1, grid=[5, 3], heads=2, head_dim=2)
def test_attention_odd_grids(batch, grid, heads, head_dim):
    # odd channel and window counts, channels != windows
    target = fixed_target((batch, *grid, heads, head_dim))
    check_op(lambda qkv: sum_sq(attention(qkv), target),
             (batch, *grid, 3, heads, head_dim))


# Channel and window counts for the fused ops: channels != windows, and each
# axis possibly of size 1.
token_grids = st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=2, unique=True)


@settings(max_examples=10, deadline=None)
@given(batch=st.integers(1, 2), grid=token_grids, heads=st.sampled_from([2, 4]),
       head_dim=st.integers(1, 2))
@example(batch=1, grid=[3, 1], heads=2, head_dim=1)
@example(batch=2, grid=[1, 3], heads=4, head_dim=2)
def test_attention(batch, grid, heads, head_dim):
    # float64 gradcheck of the fused sublayer's seven inputs, the residual
    # stream included. The key bias's exact gradient is 0 (softmax ignores a
    # shift shared by a row's scores), so the loss is scaled down until the
    # central differences' rounding, about 1e-16 |L| / h, stays under atol
    d = heads * head_dim
    shape = (batch, grid[0] * grid[1], d)
    target = fixed_target(shape)
    check_op(lambda *args: ad.squared_error(ad.attention(*args, (*grid, heads)), target,
                                            1.0, 1e-3),
             shape, (d,), (d,), (d, 3 * d), (3 * d,), (d, d), (d,))


def embed_mask(kind, shape, seed=0):
    """A (B, C, T) mask: random, all True, all False (empty), or None."""
    if kind == "random":
        return np.random.default_rng(seed).random(shape) < 0.5
    return {"all": np.ones(shape, bool), "empty": np.zeros(shape, bool), None: None}[kind]


# A patch length p and a stem kernel width k <= p, k = p (one conv position)
# and k = 1 included.
stem_widths = st.integers(1, 4).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p)))


def embed_shapes(batch, channels, windows, p, k, d):
    """The shapes of `ad.embed`'s seven tensors: the patch grid, the stem's
    weight, pool and bias, the mask token and the two embeddings."""
    return [(batch, channels, windows, p), (k, d), (p - k + 1, d), (d,), (d,),
            (channels, d), (windows, d)]


@settings(max_examples=15, deadline=None)
@given(batch=st.integers(1, 2), grid=token_grids, stem=stem_widths,
       d=st.integers(1, 3), kind=st.sampled_from(["random", "all", "empty", None]))
@example(batch=2, grid=[3, 2], stem=(3, 2), d=2, kind="random")
@example(batch=1, grid=[1, 2], stem=(1, 1), d=1, kind=None)
@example(batch=1, grid=[2, 3], stem=(4, 4), d=2, kind="random")
@example(batch=2, grid=[1, 3], stem=(4, 1), d=3, kind="all")
def test_embed(batch, grid, stem, d, kind):
    # float64 gradcheck of every input; with no mask the mask token has no
    # consumer and gets no gradient
    channels, windows = grid
    mask = embed_mask(kind, (batch, channels, windows))
    target = fixed_target((batch, channels, windows, d))
    shapes = embed_shapes(batch, channels, windows, *stem, d)

    def build(patches, weight, pool, bias, token, channel, pos):
        return sum_sq(ad.embed(patches, weight, pool, bias, mask, token, channel, pos),
                      target)

    if mask is not None:
        check_op(build, *shapes)
    else:
        check_op(lambda *args: build(*args[:4], ad.constant(np.ones(d)), *args[4:]),
                 *(shapes[:4] + shapes[5:]))
    token = ad.parameter(np.ones(d))
    build(*(ad.parameter(np.ones(s)) for s in shapes[:4]), token,
          *(ad.parameter(np.ones(s)) for s in shapes[5:])).backward()
    assert (token.grad is None) == (mask is None)


def mlp_chain(seq, ln_gain, ln_bias, w1, b1, w2, b2):
    """The tape ops that `ad.mlp` replaced: the affine layer norm, fc1,
    gelu, fc2 and the residual add (IEEE addition commutes, so the add gives
    the bits of the stream added into fc2's output in place)."""
    hidden = gelu(ad.matmul(ad.layer_norm(seq, ln_gain, ln_bias), w1, b1))
    return ad.add(ad.matmul(hidden, w2, b2), seq)


def attention_chain(seq, ln_gain, ln_bias, w_qkv, b_qkv, w_out, b_out, grid):
    """The tape ops that `ad.attention` replaced: the affine layer norm,
    the q|k|v projection, its reshape to the head grid, the head-level
    attention, the reshape back, the out-projection and the residual add."""
    (b, n, d), (channels, windows, heads) = seq.shape, grid
    qkv = ad.matmul(ad.layer_norm(seq, ln_gain, ln_bias), w_qkv, b_qkv)
    qkv = ad.reshape(qkv, (b, channels, windows, 3, heads, d // heads))
    return ad.add(ad.matmul(ad.reshape(attention(qkv), seq.shape), w_out, b_out), seq)


def where(cond, a, b):
    """The masked-select tape op that `ad.embed` absorbed: elementwise
    select with a constant boolean condition."""
    out = np.where(cond, a.data, b.data)

    def backward(g):
        zero = np.zeros((), dtype=g.dtype)
        ga = ad._unbroadcast(np.where(cond, g, zero), a.data.shape)
        gb = ad._unbroadcast(np.where(cond, zero, g), b.data.shape)
        return ga, gb

    return ad._make(out, (a, b), backward)


def stem_kernel(stem_weight, stem_pool, patches):
    """The tape ops that built the stem's (p, d) kernel before `ad.embed`
    absorbed them: the outer product of the stem's weight and pool, summed
    along its anti-diagonals by a constant 0/1 matrix."""
    (k, d), l_out = stem_weight.shape, stem_pool.shape[0]
    outer = mul(ad.reshape(stem_weight, (k, 1, d)), stem_pool)
    diagonals = ad.constant(ad._anti_diagonals(patches.shape[-1], k, patches.data.dtype))
    return ad.matmul(diagonals, ad.reshape(outer, (k * l_out, d)))


def embed_chain(patches, stem_weight, stem_pool, bias, mask, mask_token, channel_embed,
                pos_embed):
    """The tape ops that `ad.embed` replaced: those of `stem_kernel`, the stem
    matmul with its bias, the masked select of the mask token, and the
    channel and position embedding adds."""
    kernel = stem_kernel(stem_weight, stem_pool, patches)
    tokens = ad.matmul(patches, kernel, bias)
    if mask is not None:
        tokens = where(mask[..., None], mask_token, tokens)
    channels, d = channel_embed.shape
    tokens = ad.add(tokens, ad.reshape(channel_embed, (channels, 1, d)))
    return ad.add(tokens, pos_embed)


def with_mask(op, mask):
    """`ad.embed` or its chain with the mask bound: a function of the seven
    tensors."""
    return lambda *tensors: op(*tensors[:4], mask, *tensors[4:])


@pytest.mark.parametrize("lead", [(6,), (2, 3, 1, 4)])
def test_fused_ops_match_their_composites_bitwise_float32(lead):
    # the forward output and every input gradient of each fused op are the
    # bytes of the op chain it replaced
    rng = np.random.default_rng(8)
    n, m = 5, 7
    f32 = lambda *shape: (rng.standard_normal(shape) * 3.0 + 0.5).astype(np.float32)
    # the fused sublayer and token ops on lead[0] segments of a grid with
    # channels != windows
    b, channels, windows, heads, d, p, k = lead[0], 3, 5, 4, 8, 6, 3
    grid = (channels, windows, heads)
    cases = [
        ("matmul", ad.matmul, lambda x, w, b: ad.add(ad.matmul(x, w), b),
         (f32(*lead, n), f32(n, m), f32(m))),
        ("layer_norm", ad.layer_norm,
         lambda x, g, b: ad.add(mul(ad.layer_norm(x), g), b),
         (f32(*lead, n), f32(n), f32(n))),
        ("mlp", ad.mlp, mlp_chain,
         (f32(*lead, n), f32(n), f32(n), f32(n, m), f32(m), f32(m, n), f32(n))),
        ("attention", lambda *args: ad.attention(*args, grid),
         lambda *args: attention_chain(*args, grid),
         (f32(b, channels * windows, d), f32(d), f32(d), f32(d, 3 * d), f32(3 * d),
          f32(d, d), f32(d))),
    ]
    for kind in ("random", "all", "empty", None):
        mask = embed_mask(kind, (b, channels, windows))
        cases.append((f"embed, {kind} mask", with_mask(ad.embed, mask),
                      with_mask(embed_chain, mask),
                      tuple(f32(*shape) for shape in
                            embed_shapes(b, channels, windows, p, k, d))))
    for name, fused, composite, arrays in cases:
        target = f32(*arrays[0].shape[:-1], arrays[1].shape[-1])
        results = []
        for op in (fused, composite):
            tensors = [ad.parameter(a.copy()) for a in arrays]
            out = op(*tensors)
            ad.squared_error(out, target, 1.0, 0.25).backward()
            assert out.data.dtype == np.float32
            results.append([out.data.tobytes()] + [
                None if t.grad is None else t.grad.tobytes() for t in tensors])
        assert len(results[0]) == len(arrays) + 1
        assert results[0] == results[1], name


def softmax_rows(x, row_max):
    """`_attend`'s in-place shift, exp and normalize of rows `x`."""
    with np.errstate(invalid="ignore", over="ignore"):
        probs = x - row_max
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
    return probs


row_values = st.one_of(st.floats(width=32, allow_nan=False),
                       st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]))


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 40).flatmap(
    lambda n: st.lists(st.lists(row_values, min_size=n, max_size=n),
                       min_size=1, max_size=3)))
@example(rows=[[0.0, -0.0, -1.0]])
@example(rows=[[-0.0, 0.0, -np.inf, 2.0, np.nan]])
def test_row_max_matches_the_reduction(rows):
    # exact to the bit, except that the sign of a zero maximum may differ,
    # which the softmax that subtracts it cannot see
    x = np.array(rows, dtype=np.float32)
    got, want = ad._row_max(x), x.max(axis=-1, keepdims=True)
    assert got.shape == want.shape and got.dtype == np.float32
    differ = got.view(np.uint32) != want.view(np.uint32)
    assert np.all((got[differ] == 0) & (want[differ] == 0))
    assert softmax_rows(x, got).tobytes() == softmax_rows(x, want).tobytes()


def test_where():
    cond = np.array([[True, False, True], [False, True, False]])
    check_op(lambda a, b: sum_sq(where(cond, a, b)), (2, 3), (2, 3))


@settings(max_examples=25, deadline=None)
@given(shapes=broadcast_operands(3), seed=st.integers(0, 3))
@example(shapes=((2, 1), (4,), (2, 4)), seed=0)
@example(shapes=((3, 1), (2,), (1, 1)), seed=1)
def test_where_broadcast_vector(shapes, seed):
    # the condition broadcasts too
    cond = np.random.default_rng(seed).random(shapes[0]) < 0.5
    target = fixed_target(np.broadcast_shapes(*shapes))
    check_op(lambda a, b: sum_sq(where(cond, a, b), target), *shapes[1:])


def test_diamond_graph_accumulates_once():
    # y = x*x used twice downstream; d/dx (2 * x^2) = 4x
    x = ad.parameter(np.array([3.0]))
    sq = mul(x, x)
    out = ad.reshape(ad.add(sq, sq), ())
    out.backward()
    np.testing.assert_allclose(x.grad, [12.0])


def test_shared_node_multiple_consumers():
    x = ad.parameter(np.array([2.0]))
    a = ad.scale(x, 3.0)
    out = ad.reshape(ad.add(mul(a, a), a), ())  # 9x^2 + 3x -> 18x + 3 = 39
    out.backward()
    np.testing.assert_allclose(x.grad, [39.0])


def test_constants_record_no_tape():
    x = ad.constant(np.ones(3))
    for y in (sum_sq(mul(ad.layer_norm(x), x)), ad.layer_norm(x, x, x),
              ad.matmul(ad.reshape(x, (1, 3)), ad.reshape(x, (3, 1)),
                        ad.constant(np.ones(1))),
              ad.mlp(ad.reshape(x, (1, 3)), x, x, ad.constant(np.ones((3, 2))),
                     ad.constant(np.ones(2)), ad.constant(np.ones((2, 3))), x)):
        assert y._parents == () and y._backward is None and not y.requires_grad
    # the fused attention sublayer and token embedding, with and without a mask
    ones = lambda *shape: ad.constant(np.ones(shape))
    attn = ad.attention(ones(1, 6, 4), ones(4), ones(4), ones(4, 12), ones(12),
                        ones(4, 4), ones(4), (3, 2, 2))
    tokens = [ad.embed(ones(1, 3, 2, 5), ones(2, 4), ones(4, 4), ones(4), mask, ones(4),
                       ones(3, 4), ones(2, 4)) for mask in (None, np.ones((1, 3, 2), bool))]
    for y in [attn] + tokens:
        assert y._parents == () and y._backward is None and not y.requires_grad
    # one parameter input is enough to record the node
    z = mul(x, ad.parameter(np.ones(3)))
    assert len(z._parents) == 2 and z._backward is not None


def test_dtype_preserved_float32():
    x = ad.parameter(np.arange(6, dtype=np.float32).reshape(2, 3))
    normed = ad.layer_norm(gelu(ad.scale(x, 0.5)))
    y = sum_sq(mul(normed, gelu(x)))
    assert y.data.dtype == np.float32
    y.backward()
    assert x.grad.dtype == np.float32
    # the fused MLP: float32 output and float32 gradients for all its inputs
    f32 = lambda *shape: ad.parameter(np.linspace(-1.0, 2.0, int(np.prod(shape)),
                                                  dtype=np.float32).reshape(shape))
    inputs = (f32(2, 3), f32(3), f32(3), f32(3, 5), f32(5), f32(5, 3), f32(3))
    out = ad.mlp(*inputs)
    assert out.data.dtype == np.float32
    sum_sq(out).backward()
    assert all(t.grad.dtype == np.float32 for t in inputs)
    # the fused attention sublayer and token embedding likewise
    inputs = (f32(2, 6, 4), f32(4), f32(4), f32(4, 12), f32(12), f32(4, 4), f32(4))
    out = ad.attention(*inputs, (2, 3, 2))
    assert out.data.dtype == np.float32
    sum_sq(out).backward()
    assert all(t.grad.dtype == np.float32 for t in inputs)
    inputs = (f32(2, 3, 2, 5), f32(2, 4), f32(4, 4), f32(4), f32(4), f32(3, 4), f32(2, 4))
    mask = np.arange(12).reshape(2, 3, 2) % 3 == 0
    out = ad.embed(*inputs[:4], mask, *inputs[4:])
    assert out.data.dtype == np.float32
    sum_sq(out).backward()
    assert all(t.grad.dtype == np.float32 for t in inputs)


def test_backward_frees_the_tape():
    x = ad.parameter(np.array([1.0, 2.0]))
    c = ad.constant(np.array([3.0, 4.0]))
    hidden = gelu(mul(x, c))
    out = sum_sq(hidden)
    out.backward()
    for node in (hidden, out):
        assert node.grad is None and node._backward is None and node._parents == ()
    assert c.grad is None          # constants receive no gradient
    assert x.grad is not None
    first = x.grad.copy()
    out.backward()                 # the tape is consumed: nothing more reaches x
    np.testing.assert_array_equal(x.grad, first)


def test_backward_requires_scalar():
    x = ad.parameter(np.ones(3))
    with pytest.raises(ValueError):
        mul(x, x).backward()


def tape_ops():
    """The tape ops: the public autodiff functions that record their node
    through `_make`."""
    return sorted(name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                  and not name.startswith("_") and "_make" in fn.__code__.co_names)


def test_readme_counts_the_tape_ops():
    ops = tape_ops()
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    layout = readme[readme.index("## Layout"):]
    stated = int(re.search(r"autodiff\.py .*?the (\d+) ops", layout, re.S).group(1))
    assert stated == len(ops), ops


def test_every_tape_op_runs_in_the_package():
    # no tape op is kept only for its own tests: each is called as
    # `ad.<op>(` somewhere in the package outside autodiff.py
    package = Path(ad.__file__).resolve().parent
    called = {name for path in package.rglob("*.py") if path.name != "autodiff.py"
              for name in re.findall(r"\bad\.(\w+)\(", path.read_text())}
    assert [op for op in tape_ops() if op not in called] == []
