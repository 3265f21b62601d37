"""Finite-difference checks for every autodiff primitive."""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def test_add_broadcast():
    check_op(lambda a, b: sum_sq(ad.add(a, b)), (3, 4), (4,))


def test_mul_broadcast():
    check_op(lambda a, b: sum_sq(ad.mul(a, b)), (2, 3), (2, 3))
    check_op(lambda a, b: sum_sq(ad.mul(a, b), fixed_target((2, 3))), (2, 3), (3,))


def test_matmul_2d():
    check_op(lambda a, b: sum_sq(ad.matmul(a, b), fixed_target((3, 2))), (3, 4), (4, 2))


def test_matmul_batched_weight_broadcast():
    check_op(lambda a, b: sum_sq(ad.matmul(a, b)), (5, 3, 4), (4, 2))


def test_matmul_stacked():
    check_op(lambda a, b: sum_sq(ad.matmul(a, b), fixed_target((2, 3, 4, 4))),
             (2, 3, 4, 5), (2, 3, 5, 4))


def test_reshape_transpose_slice():
    weights = np.random.default_rng(1).standard_normal((3, 4, 2))

    def build(a):
        t = ad.transpose(ad.reshape(a, (2, 3, 4)), (1, 2, 0))
        return ad.squared_error(t, 0.0, weights, 1.0)
    check_op(build, (24,))


def test_squared_error():
    rng = np.random.default_rng(7)
    target = rng.standard_normal((2, 3, 4))
    gate = (rng.random((2, 3, 1)) < 0.5).astype(float)   # a size-1 weight axis
    check_op(lambda a: ad.squared_error(a, target, gate, 0.3), (2, 3, 4))
    check_op(lambda a: ad.squared_error(a, target, 1.0, -2.0), (2, 3, 4))
    a = rng.standard_normal((2, 3, 4))
    value = ad.squared_error(ad.constant(a), target, gate, 0.3).data
    np.testing.assert_allclose(value, 0.3 * (gate * (a - target) ** 2).sum(), rtol=1e-12)


def test_sqrt_scale_shift_neg():
    check_op(lambda a: sum_sq(ad.scale(a, 2.5), fixed_target((5,))), (5,))
    check_op(lambda a: ad.scale(sum_sq(a), -3.0), (2, 2))


def test_gelu():
    check_op(lambda a: sum_sq(ad.gelu(a)), (4, 4))


def test_softmax():
    # the softmax runs inside the fused attention op; check it w.r.t. q, k, v
    # on (batch, channels, windows, heads, head_dim) grids with channels !=
    # windows, so a mixed-up head group cannot pass
    target = np.random.default_rng(4).standard_normal((2, 3, 5, 4, 4))
    check_op(lambda q, k, v: sum_sq(ad.attention(q, k, v), target),
             (2, 3, 5, 4, 4), (2, 3, 5, 4, 4), (2, 3, 5, 4, 4))
    check_op(lambda q, k, v: sum_sq(ad.attention(q, k, v)),
             (1, 4, 2, 2, 3), (1, 4, 2, 2, 3), (1, 4, 2, 2, 3), seed=1)


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


def test_attention_forward_matches_composite_float32():
    rng = np.random.default_rng(5)
    q, k, v = (rng.standard_normal((2, 6, 16, 4, 8)).astype(np.float32) * 3.0
               for _ in range(3))
    expected = composite_attention(q, k, v)
    out = ad.attention(ad.constant(q), ad.constant(k), ad.constant(v)).data
    assert out.dtype == np.float32
    assert out.tobytes() == expected.tobytes()


def test_attention_heads_see_their_row_and_column():
    # perturbing v at token (c0, w0) moves the temporal heads' output only in
    # channel c0 and the spatial heads' output only in window w0
    rng = np.random.default_rng(6)
    q, k, v = (rng.standard_normal((2, 5, 7, 4, 3)) for _ in range(3))
    c0, w0 = 2, 4
    bumped = v.copy()
    bumped[:, c0, w0] += 1.0
    base = ad.attention(ad.constant(q), ad.constant(k), ad.constant(v)).data
    moved = ad.attention(ad.constant(q), ad.constant(k), ad.constant(bumped)).data
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


# Leading axes of a fused op's x: one (a 2-D x) or three (a (B, M', n_t, .)
# patch grid), any of them possibly of size 1.
lead_axes = st.sampled_from([1, 3]).flatmap(
    lambda n: st.lists(st.integers(1, 3), min_size=n, max_size=n).map(tuple))


@settings(max_examples=25, deadline=None)
@given(lead=lead_axes, n=st.integers(1, 4), m=st.integers(1, 4))
@example(lead=(3,), n=4, m=2)
@example(lead=(1, 2, 1), n=3, m=4)
def test_linear(lead, n, m):
    target = fixed_target(lead + (m,))
    check_op(lambda x, w, b: sum_sq(ad.linear(x, w, b), target), lead + (n,), (n, m), (m,))


@settings(max_examples=25, deadline=None)
@given(lead=lead_axes, d=st.integers(2, 5))
@example(lead=(3,), d=6)
@example(lead=(1, 2, 1), d=4)
def test_affine_layer_norm(lead, d):
    target = fixed_target(lead + (d,))
    check_op(lambda x, g, b: sum_sq(ad.layer_norm(x, g, b), target), lead + (d,), (d,), (d,))


@pytest.mark.parametrize("lead", [(6,), (2, 3, 1, 4)])
def test_fused_ops_match_their_composites_bitwise_float32(lead):
    # the forward output and all three input gradients of each fused op are
    # the bytes of the op chain it replaced
    rng = np.random.default_rng(8)
    n, m = 5, 7
    f32 = lambda *shape: (rng.standard_normal(shape) * 3.0 + 0.5).astype(np.float32)
    cases = [
        (ad.linear, lambda x, w, b: ad.add(ad.matmul(x, w), b),
         (f32(*lead, n), f32(n, m), f32(m))),
        (ad.layer_norm, lambda x, g, b: ad.add(ad.mul(ad.layer_norm(x), g), b),
         (f32(*lead, n), f32(n), f32(n))),
    ]
    for fused, composite, arrays in cases:
        target = f32(*arrays[0].shape[:-1], arrays[1].shape[-1])
        results = []
        for op in (fused, composite):
            tensors = [ad.parameter(a.copy()) for a in arrays]
            out = op(*tensors)
            ad.squared_error(out, target, 1.0, 0.25).backward()
            assert out.data.dtype == np.float32
            results.append([out.data.tobytes()] + [t.grad.tobytes() for t in tensors])
        assert results[0] == results[1], fused.__name__


def test_where():
    cond = np.array([[True, False, True], [False, True, False]])
    check_op(lambda a, b: sum_sq(ad.where(cond, a, b)), (2, 3), (2, 3))


def test_where_broadcast_vector():
    cond = np.array([[True], [False]])
    check_op(lambda a, b: sum_sq(ad.where(cond, a, b)), (4,), (2, 4))


def test_diamond_graph_accumulates_once():
    # y = x*x used twice downstream; d/dx (2 * x^2) = 4x
    x = ad.parameter(np.array([3.0]))
    sq = ad.mul(x, x)
    out = ad.reshape(ad.add(sq, sq), ())
    out.backward()
    np.testing.assert_allclose(x.grad, [12.0])


def test_shared_node_multiple_consumers():
    x = ad.parameter(np.array([2.0]))
    a = ad.scale(x, 3.0)
    out = ad.reshape(ad.add(ad.mul(a, a), a), ())  # 9x^2 + 3x -> 18x + 3 = 39
    out.backward()
    np.testing.assert_allclose(x.grad, [39.0])


def test_constants_record_no_tape():
    x = ad.constant(np.ones(3))
    for y in (sum_sq(ad.mul(ad.layer_norm(x), x)), ad.layer_norm(x, x, x),
              ad.linear(ad.reshape(x, (1, 3)), ad.reshape(x, (3, 1)),
                        ad.constant(np.ones(1)))):
        assert y._parents == () and y._backward is None and not y.requires_grad
    # one parameter input is enough to record the node
    z = ad.mul(x, ad.parameter(np.ones(3)))
    assert len(z._parents) == 2 and z._backward is not None


def test_dtype_preserved_float32():
    x = ad.parameter(np.arange(6, dtype=np.float32).reshape(2, 3))
    normed = ad.layer_norm(ad.gelu(ad.scale(x, 0.5)))
    y = sum_sq(ad.mul(normed, ad.gelu(x)))
    assert y.data.dtype == np.float32
    y.backward()
    assert x.grad.dtype == np.float32


def test_backward_frees_the_tape():
    x = ad.parameter(np.array([1.0, 2.0]))
    c = ad.constant(np.array([3.0, 4.0]))
    hidden = ad.gelu(ad.mul(x, c))
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
        ad.mul(x, x).backward()


def test_readme_counts_the_tape_ops():
    # a tape op is a public function that records its node through `_make`
    ops = sorted(name for name, fn in vars(ad).items()
                 if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                 and not name.startswith("_") and "_make" in fn.__code__.co_names)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    layout = readme[readme.index("## Layout"):]
    stated = int(re.search(r"autodiff\.py .*?the (\d+) ops", layout, re.S).group(1))
    assert stated == len(ops), ops
