"""Minimal reverse-mode autodiff over numpy arrays.

Exactly the ops the encoder and losses run, each with its own closed-form
backward: broadcasting `add`/`mul`, `scale` by a python float, `matmul`
(with terms, such as a bias and a residual stream, added into the product
in place), `reshape`, `gelu` in its tanh form (one `np.tanh` where the
exact form needs erf), fused criss-cross multi-head `attention`, masked
`where`, `layer_norm` with an optional gain and bias, and the losses'
weighted `squared_error` against a constant target. Gradients are
accumulated on a tape built during the forward pass; `backward()` walks it
once in reverse topological order and frees each node as it goes. An op
records a tape node only when one of its inputs requires grad, so a forward
over `constant` tensors records nothing. The fused ops repeat the arithmetic
of the op chains they replace, so they give the same bits with fewer buffers
alive.

A backward keeps only what it reads. Where one cheap elementwise pass
rebuilds a buffer from the op's input, the backward reruns it rather than
holding the buffer (Chen et al., arXiv 1604.06174): `gelu` rebuilds its tanh
and the affine `layer_norm` its standardized input, each by the forward's
own sequence, so the rebuilt bits are the forward's. `attention` copies
nothing: it runs on strided views of its input, whose buffer the tape holds
anyway, and its backward reads q, k and v through those views.

Dtype follows the input arrays (float32 for training, float64 for gradient
checks). Scalar constants enter ops as python floats so they never upcast.
"""

from __future__ import annotations

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


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g * b.data, a.data.shape),
                                         _unbroadcast(g * a.data, b.data.shape)))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)  # numpy scalars would upcast float32 operands
    return _make(a.data * s, (a,), lambda g: (g * s,))


def matmul(a: Tensor, b: Tensor, *terms: Tensor) -> Tensor:
    """Stacked matrix product `a @ b`, both operands with ndim >= 2, plus
    each of `terms` in order. The terms (a bias, a residual stream) are added
    into the product in place, so each must broadcast to the product's
    shape, and a linear layer and the residual add after it keep one output
    buffer on the tape."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    out = a.data @ b.data
    for term in terms:
        out += term.data

    def backward(g):
        return ((_unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape),
                 _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))
                + tuple(_unbroadcast(g, term.data.shape) for term in terms))

    return _make(out, (a, b) + terms, backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return _make(a.data.reshape(shape), (a,),
                 lambda g: (g.reshape(a.data.shape),))


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(sqrt(2/pi) * (x + 0.044715 x^3)) in place on one new buffer: the
    one sequence that gelu's forward and backward both run."""
    with np.errstate(over="ignore"):        # only where tanh saturates anyway
        t = x * x
    t *= _GELU_K * _GELU_C
    t += _GELU_K
    t *= x
    return np.tanh(t, out=t)


def gelu(a: Tensor) -> Tensor:
    """Tanh-form gelu (Hendrycks & Gimpel, arXiv 1606.08415):
    0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x**3))).

    Runs in place on one hidden-width buffer, the output. The backward keeps
    only the input x and rebuilds t = tanh(.) from it by the forward's own
    sequence. Its derivative multiplies by the saturated 1 - t**2 before the
    x**2 factor, so every finite x has a finite gradient (1 or 0 where x * x
    overflows) and the forward gives x or -0 there.
    """
    x = a.data
    out = _gelu_tanh(x)
    out += 1.0
    out *= 0.5
    out *= x

    def backward(g):
        t = _gelu_tanh(x)
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
        return (d,)

    return _make(out, (a,), backward)


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


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """softmax(q k^T / sqrt(head_dim)) v over (..., L, head_dim) stacks, which
    may be strided views. Returns the output and `backward(g) -> (gq, gk, gv)`.

    The scale, max-shift, exp and normalize run in place on one (..., L, L)
    buffer; the backward keeps only those probabilities, not the scores, and
    reads q, k and v through the views it closes over.
    """
    s = 1.0 / math.sqrt(q.shape[-1])
    probs = q @ k.swapaxes(-1, -2)
    probs *= s
    probs -= _row_max(probs)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def backward(g):
        gv = probs.swapaxes(-1, -2) @ g
        gs = g @ v.swapaxes(-1, -2)                       # d/d probs
        gs -= (gs * probs).sum(axis=-1, keepdims=True)    # softmax backward
        gs *= probs
        gs *= s                                           # d/d scores
        gq = gs @ k
        gk = (q.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        return gq, gk, gv

    return probs @ v, backward


# Criss-cross head groups on a (B, C, T, H, head_dim) token grid: the axes
# that bring each half of the heads to a (..., L, head_dim) stack. The first
# half attends along time within a channel, (B, C, H/2, T, head_dim); the
# second across channels within a window, (B, T, H/2, C, head_dim).
_HEAD_GROUP_AXES = ((0, 1, 3, 2, 4), (0, 2, 3, 1, 4))


def attention(qkv: Tensor) -> Tensor:
    """Criss-cross multi-head attention on a (B, C, T, 3, H, head_dim) grid
    of q, k and v over C channels by T windows; H must be even. Returns the
    (B, C, T, H, head_dim) grid of head outputs.

    Each head group runs `_attend` on transposed views of its q, k and v
    heads, and its output and gradient parts are written back through the
    same views of one output and one qkv-shaped gradient buffer.
    """
    half = qkv.shape[4] // 2
    out = np.empty(qkv.shape[:3] + qkv.shape[4:], dtype=qkv.data.dtype)
    groups = []
    for heads, axes in zip((slice(None, half), slice(half, None)), _HEAD_GROUP_AXES):
        q, k, v = (qkv.data[:, :, :, i, heads].transpose(axes) for i in range(3))
        o, backward = _attend(q, k, v)
        out[:, :, :, heads].transpose(axes)[...] = o
        groups.append((heads, axes, backward))

    def backward(g):
        grad = np.empty(qkv.shape, dtype=g.dtype)
        for heads, axes, group_backward in groups:
            for i, part in enumerate(group_backward(g[:, :, :, heads].transpose(axes))):
                grad[:, :, :, i, heads].transpose(axes)[...] = part
        return (grad,)

    return _make(out, (qkv,), backward)


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select with a constant boolean condition."""
    out = np.where(cond, a.data, b.data)

    def backward(g):
        zero = np.zeros((), dtype=g.dtype)
        ga = _unbroadcast(np.where(cond, g, zero), a.data.shape)
        gb = _unbroadcast(np.where(cond, zero, g), b.data.shape)
        return ga, gb

    return _make(out, (a, b), backward)


def layer_norm(a: Tensor, gain: Tensor | None = None,
               bias: Tensor | None = None) -> Tensor:
    """Standardize the last axis, (a - mean) / sqrt(var + LN_EPS), then scale
    by `gain` and shift by `bias` when they are given (both or neither).

    The plain form's backward reads its output. The affine form scales and
    shifts in place, so its backward keeps only `std` and rebuilds the
    standardized input from the parent by the forward's own ops."""
    x = a.data
    inv_n = 1.0 / x.shape[-1]

    def center():
        return x - x.sum(axis=-1, keepdims=True) * inv_n

    out = center()
    var = (out * out).sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt(var + LN_EPS)
    out /= std
    if gain is not None:
        out *= gain.data
        out += bias.data

    def backward(g):
        affine = ()
        if gain is None:
            normed = out
        else:
            normed = center()
            normed /= std
            affine = (_unbroadcast(g * normed, gain.data.shape),
                      _unbroadcast(g, bias.data.shape))
            g = g * gain.data
        g_mean = g.sum(axis=-1, keepdims=True) * inv_n
        proj = (g * normed).sum(axis=-1, keepdims=True) * inv_n
        return ((g - g_mean - normed * proj) / std,) + affine

    return _make(out, (a,) if gain is None else (a, gain, bias), backward)


def squared_error(a: Tensor, target, weight, s: float) -> Tensor:
    """`s * sum(weight * (a - target)**2)` as a 0-d tensor; `target` and
    `weight` (broadcast against a) are constants. The backward doubles
    `w * (a - target)` by addition, as `mul(d, d)` accumulates its inputs."""
    s = float(s)  # numpy scalars would upcast float32 operands
    diff = a.data - target

    def backward(g):
        grad = g * s * weight * diff
        grad += grad
        return (grad,)

    return _make((diff * diff * weight).sum() * s, (a,), backward)
