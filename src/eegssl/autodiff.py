"""Minimal reverse-mode autodiff over numpy arrays.

Exactly the ops the encoder and losses run, each with its own closed-form
backward: broadcasting `add`, `scale` by a python float, `matmul` (its
optional bias added into the product in place), `reshape`, `layer_norm`
with an optional gain and bias, the losses' weighted `squared_error`
against a constant target, and the encoder's layers as three fused ops: the
token `embed` (the conv-and-pool stem, whose kernel it builds, the masked
select of the mask token, the channel and position embeddings), the
pre-norm criss-cross `attention` sublayer (layer norm, q|k|v projection,
the two head groups, the output projection and the residual add) and the
pre-norm `mlp` sublayer (layer norm, fc1, gelu in its tanh form, fc2 and
the residual add). Gradients are accumulated on a tape built during the
forward pass; `backward()` walks it once in reverse topological order and
frees each node as it goes. An op records a tape node only when one of its
inputs requires grad, so a forward over `constant` tensors records nothing.
The fused ops repeat the arithmetic of the op chains they replace, so they
give the same bits with fewer buffers alive.

A backward keeps only what it reads. Where one cheap pass rebuilds a buffer
from what the tape holds anyway, the backward reruns it rather than holding
the buffer (Chen et al., arXiv 1604.06174), each by the forward's own
sequence, so the rebuilt bits are the forward's. The affine `layer_norm`
and the sublayers' shared pre-norm projection (`_ln_linear`) keep the
per-row std and rebuild the standardized input. `attention` keeps nothing
else: from its input and the std it rebuilds the layer-norm output once,
the q|k|v buffer from that, and each head group's softmax probabilities and
the head outputs from q|k|v (recomputed rather than stored, as in
FlashAttention, Dao et al., arXiv 2205.14135); its head groups run on
strided views of q, k and v, with no copies. Every array a backward keeps is
one of its own closure cells, never inside a list, tuple or nested closure.
`mlp` also keeps the fc1 output h, and rebuilds the gelu output,
one tanh of h serving the gelu output and its derivative. `embed` keeps the
stem kernel and reads the patches, the stem parameters and the mask.

Dtype follows the input arrays (float32 for training, float64 for gradient
checks). Scalar constants enter ops as python floats so they never upcast.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715
LN_EPS = 1e-5  # layer-norm variance floor


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus tape bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Accumulate d(self)/d(leaf) into `.grad` of every reachable parameter.

        Consumes the tape: once a node has passed its gradient on, its
        `grad`, `_backward` and `_parents` are dropped, so each activation is
        freed after its last consumer has run. Only leaves that require grad
        keep a `.grad`; a second call on the same output reaches nothing.
        """
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar output")
        # Iterative DFS post-order; visited marked on push so each node is
        # appended exactly once.
        order: list[Tensor] = []
        visited = {id(self)}
        stack: list[tuple[Tensor, object]] = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            advanced = False
            for p in parents:
                if id(p) not in visited:
                    visited.add(id(p))
                    stack.append((p, iter(p._parents)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                for parent, pgrad in zip(node._parents, node._backward(node.grad)):
                    if pgrad is not None and parent.requires_grad:
                        parent.grad = pgrad if parent.grad is None else parent.grad + pgrad
            if node._parents:
                node.grad, node._backward, node._parents = None, None, ()


def constant(x) -> Tensor:
    return Tensor(np.asarray(x))


def parameter(x) -> Tensor:
    return Tensor(np.asarray(x), requires_grad=True)


def _make(data, parents, backward) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
    return Tensor(data)


# --- primitives ---------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                         _unbroadcast(g, b.data.shape)))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)  # numpy scalars would upcast float32 operands
    return _make(a.data * s, (a,), lambda g: (g * s,))


def _matmul_grads(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> tuple:
    """The gradients of `a @ b` for output gradient `g`, each summed down to
    its operand's shape."""
    return (_unbroadcast(g @ b.swapaxes(-1, -2), a.shape),
            _unbroadcast(a.swapaxes(-1, -2) @ g, b.shape))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Stacked matrix product `a @ b`, both operands with ndim >= 2, plus
    `bias` when it is given. The bias, which must broadcast to the product's
    shape, is added into the product in place, so a linear layer keeps one
    output buffer on the tape."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    out = a.data @ b.data
    if bias is None:
        return _make(out, (a, b), lambda g: _matmul_grads(a.data, b.data, g))
    out += bias.data
    return _make(out, (a, b, bias), lambda g: (_matmul_grads(a.data, b.data, g)
                                               + (_unbroadcast(g, bias.data.shape),)))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return _make(a.data.reshape(shape), (a,),
                 lambda g: (g.reshape(a.data.shape),))


# Tanh-form gelu (Hendrycks & Gimpel, arXiv 1606.08415):
# 0.5 * x * (1 + t), t = tanh(sqrt(2/pi) * (x + 0.044715 * x**3)).

def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """t = tanh(sqrt(2/pi) * (x + 0.044715 x^3)) in place on one new buffer:
    the one sequence that gelu's output and its derivative both read."""
    with np.errstate(over="ignore"):        # only where tanh saturates anyway
        t = x * x
    t *= _GELU_K * _GELU_C
    t += _GELU_K
    t *= x
    return np.tanh(t, out=t)


def _gelu(x: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """gelu(x) = 0.5 * x * (1 + t) for t = `_gelu_tanh(x)`, into `out` (which
    may be t itself) or a new buffer. Gives x or -0 where x * x overflows."""
    out = np.add(t, 1.0, out=out)
    out *= 0.5
    out *= x
    return out


def _gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """`g` times d gelu / dx at x, for t = `_gelu_tanh(x)`. The derivative
    multiplies by the saturated 1 - t**2 before the x**2 factor, so every
    finite x has a finite gradient (1 or 0 where x * x overflows)."""
    d = t * t
    np.subtract(1.0, d, out=d)
    d *= x                                  # (1 - t^2) x, 0 once saturated
    e = d * x
    e *= x
    e *= 1.5 * _GELU_K * _GELU_C
    d *= 0.5 * _GELU_K
    d += e
    np.multiply(t, 0.5, out=e)
    e += 0.5
    d += e                                  # d gelu / dx
    d *= g
    return d


def _row_max(x: np.ndarray) -> np.ndarray:
    """`x.max(axis=-1, keepdims=True)` by elementwise halving: the two halves'
    `np.maximum`, the odd element folded into the first column. Exact, and
    faster than a reduction over short rows. Rows of one element give x
    itself."""
    while x.shape[-1] > 1:
        half = x.shape[-1] // 2
        folded = np.maximum(x[..., :half], x[..., half:2 * half])
        if x.shape[-1] % 2:
            np.maximum(folded[..., :1], x[..., -1:], out=folded[..., :1])
        x = folded
    return x


def _attention_probs(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """softmax(q k^T / sqrt(head_dim)) over (..., L, head_dim) stacks, which
    may be strided views: the scale, max-shift, exp and normalize run in
    place on one (..., L, L) buffer."""
    probs = q @ k.swapaxes(-1, -2)
    probs *= 1.0 / math.sqrt(q.shape[-1])
    probs -= _row_max(probs)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _attend_grad(q: np.ndarray, k: np.ndarray, v: np.ndarray, probs: np.ndarray,
                 g: np.ndarray) -> tuple:
    """(gq, gk, gv) of `probs @ v` with `probs = _attention_probs(q, k)`, for
    output gradient `g`; the scores themselves are never needed."""
    gv = probs.swapaxes(-1, -2) @ g
    gs = g @ v.swapaxes(-1, -2)                       # d/d probs
    gs -= (gs * probs).sum(axis=-1, keepdims=True)    # softmax backward
    gs *= probs
    gs *= 1.0 / math.sqrt(q.shape[-1])                # d/d scores
    gq = gs @ k
    gk = (q.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
    return gq, gk, gv


# Criss-cross head groups on a (B, C, T, H, head_dim) token grid: the axes
# that bring each half of the heads to a (..., L, head_dim) stack. The first
# half attends along time within a channel, (B, C, H/2, T, head_dim); the
# second across channels within a window, (B, T, H/2, C, head_dim).
_HEAD_GROUP_AXES = ((0, 1, 3, 2, 4), (0, 2, 3, 1, 4))


def _head_groups(grid: np.ndarray) -> list:
    """One view maker per head group of a (B, C, T, ..., H, head_dim) grid:
    it takes a (B, C, T, H, head_dim) grid, such as `grid[:, :, :, i]`, to
    the group's (..., L, head_dim) stack."""
    half = grid.shape[-2] // 2
    return [lambda a, heads=heads, axes=axes: a[:, :, :, heads].transpose(axes)
            for heads, axes in zip((slice(None, half), slice(half, None)),
                                   _HEAD_GROUP_AXES)]


def _criss_cross(qkv: np.ndarray) -> tuple:
    """Criss-cross multi-head attention on a (B, C, T, 3, H, head_dim) q|k|v
    grid over C channels by T windows (H even): the (B, C, T, H, head_dim)
    head outputs `probs @ v` and each head group's probabilities. Each group
    runs on transposed views of its q, k and v heads and writes its outputs
    through its view of one buffer; nothing is copied."""
    views = _head_groups(qkv)
    probs = [_attention_probs(view(qkv[:, :, :, 0]), view(qkv[:, :, :, 1]))
             for view in views]
    out = np.empty(qkv.shape[:3] + qkv.shape[4:], dtype=qkv.dtype)
    for view, group_probs in zip(views, probs):
        view(out)[...] = group_probs @ view(qkv[:, :, :, 2])
    return out, probs


def _criss_cross_grad(qkv: np.ndarray, probs: list, g: np.ndarray) -> np.ndarray:
    """The q|k|v grid's gradient of `_criss_cross` for head-output gradient
    `g`, each group's parts written through the same views of one buffer."""
    grad = np.empty(qkv.shape, dtype=g.dtype)
    for view, group_probs in zip(_head_groups(qkv), probs):
        parts = _attend_grad(*(view(qkv[:, :, :, i]) for i in range(3)),
                             group_probs, view(g))
        for i, part in enumerate(parts):
            view(grad[:, :, :, i])[...] = part
    return grad


def _center(x: np.ndarray) -> np.ndarray:
    """x minus its mean over the last axis, on a new buffer."""
    return x - x.sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1])


def _standardize(x: np.ndarray) -> tuple:
    """(x - mean) / sqrt(var + LN_EPS) over the last axis, in place on one
    new buffer, and that std; `_restandardize(x, std)` rebuilds the first."""
    out = _center(x)
    var = (out * out).sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1])
    std = np.sqrt(var + LN_EPS)
    out /= std
    return out, std


def _restandardize(x: np.ndarray, std: np.ndarray) -> np.ndarray:
    """`_center(x) / std`: the standardized x that `_standardize(x)` gave
    with this std, by the same ops, so to the bit."""
    out = _center(x)
    out /= std
    return out


def _scale_shift(normed: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """`normed * gain + bias` into `out` (which may be normed) or a new
    buffer: the affine layer norm's output, or its rebuild."""
    out = np.multiply(normed, gain, out=out)
    out += bias
    return out


def _standardize_grad(normed: np.ndarray, std: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The input gradient of `_standardize` for output gradient `g`."""
    inv_n = 1.0 / g.shape[-1]
    g_mean = g.sum(axis=-1, keepdims=True) * inv_n
    proj = (g * normed).sum(axis=-1, keepdims=True) * inv_n
    return (g - g_mean - normed * proj) / std


def _affine_grads(normed: np.ndarray, std: np.ndarray, gain: np.ndarray,
                  bias: np.ndarray, g: np.ndarray) -> tuple:
    """The input, gain and bias gradients of `normed * gain + bias`, with
    `normed, std = _standardize(x)`, for output gradient `g`."""
    affine = (_unbroadcast(g * normed, gain.shape), _unbroadcast(g, bias.shape))
    return (_standardize_grad(normed, std, g * gain),) + affine


def layer_norm(a: Tensor, gain: Tensor | None = None,
               bias: Tensor | None = None) -> Tensor:
    """Standardize the last axis, (a - mean) / sqrt(var + LN_EPS), then scale
    by `gain` and shift by `bias` when they are given (both or neither).

    The plain form's backward reads its output. The affine form scales and
    shifts in place, so its backward keeps only `std` and rebuilds the
    standardized input from the parent by the forward's own ops."""
    x = a.data
    out, std = _standardize(x)
    if gain is None:
        return _make(out, (a,), lambda g: (_standardize_grad(out, std, g),))
    _scale_shift(out, gain.data, bias.data, out=out)

    def backward(g):
        return _affine_grads(_restandardize(x, std), std, gain.data, bias.data, g)

    return _make(out, (a, gain, bias), backward)


def _ln_linear(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, w: np.ndarray,
               b: np.ndarray) -> tuple:
    """A sublayer's pre-norm projection `layer_norm(x, gain, bias) @ w + b`,
    and the layer norm's per-row std."""
    normed, std = _standardize(x)
    _scale_shift(normed, gain, bias, out=normed)
    h = normed @ w
    h += b
    return h, std


def _relayer_norm(x: np.ndarray, std: np.ndarray, gain: np.ndarray,
                  bias: np.ndarray) -> tuple:
    """The standardized x and the layer-norm output that `_ln_linear(x,
    gain, bias, ...)` made with this std, rebuilt by its own sequence."""
    normed = _restandardize(x, std)
    return normed, _scale_shift(normed, gain, bias)


def _ln_linear_grads(normed: np.ndarray, ln: np.ndarray, std: np.ndarray,
                     gain: np.ndarray, bias: np.ndarray, w: np.ndarray,
                     b: np.ndarray, g_h: np.ndarray) -> tuple:
    """The (x, gain, bias, w, b) gradients of `_ln_linear` for output
    gradient `g_h`, given its rebuilt `normed, ln = _relayer_norm(...)`."""
    g_ln, g_w = _matmul_grads(ln, w, g_h)
    return (_affine_grads(normed, std, gain, bias, g_ln)
            + (g_w, _unbroadcast(g_h, b.shape)))


def attention(seq: Tensor, ln_gain: Tensor, ln_bias: Tensor, w_qkv: Tensor,
              b_qkv: Tensor, w_out: Tensor, b_out: Tensor, grid: tuple) -> Tensor:
    """A pre-norm criss-cross attention sublayer with its residual add. `seq`
    is a (B, N, d) channel-major token stream over `grid` = (channels C,
    windows T, heads H), N = C T and H even. Its pre-norm projection
    (`_ln_linear`) through w_qkv and b_qkv is the (B, C, T, 3, H, d / H)
    q|k|v grid as it stands; half the heads attend along time, half across
    channels (`_criss_cross`); the result is `seq` plus the head outputs @
    w_out + b_out, with the bits of the op chain it replaces.

    The backward keeps only the per-token `std` and reads `seq`: it rebuilds
    the ln1 output once, the q|k|v grid from it, and each head group's
    probabilities and the head outputs from that, all by the forward's own
    sequences. `seq`'s gradient is the residual's plus the layer norm's, as
    the tape would accumulate it.
    """
    x = seq.data
    channels, windows, heads = grid
    b, n, d = x.shape
    if channels * windows != n or d % heads or heads % 2:
        raise ValueError(f"a ({b}, {n}, {d}) stream is not a {grid} head grid")
    heads_shape = (b, channels, windows, heads, d // heads)
    qkv_shape = (b, channels, windows, 3, heads, d // heads)
    qkv, std = _ln_linear(x, ln_gain.data, ln_bias.data, w_qkv.data, b_qkv.data)
    out = _criss_cross(qkv.reshape(qkv_shape))[0].reshape(x.shape) @ w_out.data
    out += b_out.data
    out += x

    def backward(g):
        normed, ln = _relayer_norm(x, std, ln_gain.data, ln_bias.data)
        qkv = ln @ w_qkv.data
        qkv += b_qkv.data
        qkv = qkv.reshape(qkv_shape)
        mixed, probs = _criss_cross(qkv)
        g_mixed, g_w_out = _matmul_grads(mixed.reshape(x.shape), w_out.data, g)
        del mixed
        g_qkv = _criss_cross_grad(qkv, probs, g_mixed.reshape(heads_shape))
        del g_mixed, qkv, probs
        g_x, *grads = _ln_linear_grads(normed, ln, std, ln_gain.data, ln_bias.data,
                                       w_qkv.data, b_qkv.data, g_qkv.reshape(b, n, 3 * d))
        g_x += g
        return (g_x, *grads, g_w_out, _unbroadcast(g, b_out.data.shape))

    return _make(out, (seq, ln_gain, ln_bias, w_qkv, b_qkv, w_out, b_out), backward)


def mlp(seq: Tensor, ln_gain: Tensor, ln_bias: Tensor, w1: Tensor, b1: Tensor,
        w2: Tensor, b2: Tensor) -> Tensor:
    """A pre-norm MLP sublayer with its residual add: `seq` plus
    gelu(layer_norm(seq, ln_gain, ln_bias) @ w1 + b1) @ w2 + b2, with the
    bits of the op chain it replaces; the pre-norm projection is `_ln_linear`.

    The backward keeps the per-token `std` and the fc1 output h, and
    rebuilds the layer-norm output and the gelu output by the forward's own
    sequences, one `_gelu_tanh(h)` serving the gelu output and its
    derivative. `seq`'s gradient is the residual's plus the layer norm's, as
    the tape would accumulate it.
    """
    x = seq.data
    h, std = _ln_linear(x, ln_gain.data, ln_bias.data, w1.data, b1.data)
    t = _gelu_tanh(h)
    out = _gelu(h, t, out=t) @ w2.data
    out += b2.data
    out += x

    def backward(g):
        t = _gelu_tanh(h)
        g_act, g_w2 = _matmul_grads(_gelu(h, t), w2.data, g)
        g_h = _gelu_grad(h, t, g_act)
        del t, g_act
        g_x, *grads = _ln_linear_grads(*_relayer_norm(x, std, ln_gain.data, ln_bias.data),
                                       std, ln_gain.data, ln_bias.data, w1.data, b1.data, g_h)
        g_x += g
        return (g_x, *grads, g_w2, _unbroadcast(g, b2.data.shape))

    return _make(out, (seq, ln_gain, ln_bias, w1, b1, w2, b2), backward)


@functools.lru_cache
def _anti_diagonals(p: int, k: int, dtype: np.dtype) -> np.ndarray:
    """The constant (p, k * L_out) 0/1 matrix, L_out = p - k + 1, whose
    product with the (k * L_out, d) outer product of the stem's weight and
    pool sums its anti-diagonals: column j * L_out + u is 1 at row u + j.
    Built once per shape and dtype, and read-only."""
    l_out = p - k + 1
    diagonals = np.stack([np.eye(p, l_out, -j) for j in range(k)], axis=1)
    diagonals = diagonals.reshape(p, k * l_out).astype(dtype)
    diagonals.flags.writeable = False
    return diagonals


def embed(patches: Tensor, stem_weight: Tensor, stem_pool: Tensor, bias: Tensor,
          mask: np.ndarray | None, mask_token: Tensor, channel_embed: Tensor,
          pos_embed: Tensor) -> Tensor:
    """The token grid of a (B, C, T, p) patch grid: each patch through the
    stem, then `mask_token` (d,) wherever the constant boolean (B, C, T)
    `mask` is set (None masks nothing), plus `channel_embed` (C, d) in each
    channel and `pos_embed` (T, d) in each window.

    The stem is a valid 1-D conv with kernel `stem_weight` w (k, d) over each
    patch, read out through a learned pooling `stem_pool` (L_out, d) over its
    L_out = p - k + 1 positions (a fixed mean would be blind to intra-patch
    oscillations), plus `bias` (d,):

        token[c] = sum_u pool[u, c] * sum_j w[j, c] * patch[u + j] + bias[c]

    Conv and pooling compose into one kernel, K[s, c] = sum_{u+j=s} pool[u, c]
    w[j, c]: the outer product of w and pool summed along its anti-diagonals
    (`_anti_diagonals`). So the stem is one matmul, and the rest runs in place
    on its output. The bits are those of the op chain that built K and used
    it: reshape, product, matmul, stem matmul, masked select and two adds.

    The backward keeps K and reads `patches`, the stem parameters and
    `mask`. With no mask, `mask_token` gets no gradient (it has no consumer).
    """
    k, d = stem_weight.shape
    w = stem_weight.data.reshape(k, 1, d)
    diagonals = _anti_diagonals(patches.shape[-1], k, patches.data.dtype)
    kernel = diagonals @ (w * stem_pool.data).reshape(diagonals.shape[1], d)
    out = patches.data @ kernel
    out += bias.data
    cond = None if mask is None else mask[..., None]
    if cond is not None:
        np.copyto(out, mask_token.data, where=cond)
    channels = channel_embed.shape[0]
    out += channel_embed.data.reshape(channels, 1, d)
    out += pos_embed.data

    def backward(g):
        g_channel = _unbroadcast(g, (channels, 1, d)).reshape(channels, d)
        g_pos = _unbroadcast(g, pos_embed.data.shape)
        g_token = None
        if cond is not None:
            zero = np.zeros((), dtype=g.dtype)
            g_token = _unbroadcast(np.where(cond, g, zero), mask_token.data.shape)
            g = np.where(cond, zero, g)
        g_patches, g_kernel = _matmul_grads(patches.data, kernel, g)
        g_outer = (diagonals.swapaxes(-1, -2) @ g_kernel).reshape(k, -1, d)
        g_w = _unbroadcast(g_outer * stem_pool.data, w.shape).reshape(k, d)
        g_pool = _unbroadcast(g_outer * w, stem_pool.data.shape)
        return (g_patches, g_w, g_pool, _unbroadcast(g, bias.data.shape), g_token,
                g_channel, g_pos)

    return _make(out, (patches, stem_weight, stem_pool, bias, mask_token, channel_embed,
                       pos_embed), backward)


def squared_error(a: Tensor, target, weight, s: float) -> Tensor:
    """`s * sum(weight * (a - target)**2)` as a 0-d tensor; `target` and
    `weight` (broadcast against a) are constants. The backward doubles
    `w * (a - target)` by addition, as the backward of `d * d` would."""
    s = float(s)  # numpy scalars would upcast float32 operands
    diff = a.data - target

    def backward(g):
        grad = g * s * weight * diff
        grad += grad
        return (grad,)

    return _make((diff * diff * weight).sum() * s, (a,), backward)
