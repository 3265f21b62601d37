"""Minimal reverse-mode autodiff over numpy arrays.

Exactly the ops the encoder and losses run, each with its own closed-form
backward: broadcasting `add`/`mul`, `scale` by a python float, `matmul`,
`linear` (a matmul with its bias added in place), `reshape`, `transpose`,
`gelu`, fused criss-cross multi-head `attention`, masked `where`,
`layer_norm` with an optional gain and bias, and the losses' weighted
`squared_error` against a constant target. Gradients are accumulated on a
tape built during the forward pass; `backward()` walks it once in reverse
topological order and frees each node as it goes. An op records a tape node
only when one of its inputs requires grad, so a forward over `constant`
tensors records nothing. The fused ops repeat the arithmetic of the op
chains they replace, so they give the same bits with fewer buffers alive.

Dtype follows the input arrays (float32 for training, float64 for gradient
checks). Scalar constants enter ops as python floats so they never upcast.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))
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


def _matmul_grads(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """Gradients of `a @ b` with respect to a and b."""
    return (_unbroadcast(g @ b.swapaxes(-1, -2), a.shape),
            _unbroadcast(a.swapaxes(-1, -2) @ g, b.shape))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Stacked matrix product; both operands must have ndim >= 2."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    return _make(a.data @ b.data, (a, b), lambda g: _matmul_grads(g, a.data, b.data))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` for a (..., n) x, (n, m) weight and (m,) bias. The bias is
    added into the product in place, so the tape holds one output buffer."""
    if x.ndim < 2 or w.ndim != 2:
        raise ValueError("linear expects x with ndim >= 2 and a 2-D weight")
    out = x.data @ w.data
    out += b.data
    return _make(out, (x, w, b), lambda g: _matmul_grads(g, x.data, w.data)
                 + (_unbroadcast(g, b.data.shape),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return _make(a.data.reshape(shape), (a,),
                 lambda g: (g.reshape(a.data.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF gelu: x * Phi(x)."""
    x = a.data
    phi_cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = x * phi_cdf

    def backward(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (phi_cdf + x * pdf),)

    return _make(out, (a,), backward)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """softmax(q k^T / sqrt(head_dim)) v over contiguous (..., L, head_dim)
    stacks. Returns the output and `backward(g, q, k, v) -> (gq, gk, gv)`.

    The scale, max-shift, exp and normalize run in place on one (..., L, L)
    buffer; the backward keeps only those probabilities, not the scores, and
    is handed q, k and v again instead of holding them.
    """
    s = 1.0 / math.sqrt(q.shape[-1])
    probs = q @ k.swapaxes(-1, -2)
    probs *= s
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def backward(g, q, k, v):
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


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Criss-cross multi-head attention over a (B, C, T, H, head_dim) grid of
    C channels by T windows; H must be even.

    Each head group runs `_attend` on contiguous copies of its heads, and
    both results land in one grid-shaped output. The backward keeps the two
    probability buffers and rebuilds the copies from q, k and v.
    """
    half = q.shape[3] // 2
    groups = tuple(zip((np.s_[..., :half, :], np.s_[..., half:, :]), _HEAD_GROUP_AXES))

    def stack(x, heads, axes):
        return np.ascontiguousarray(x[heads].transpose(axes))

    out = np.empty(q.shape, dtype=v.data.dtype)
    backwards = []
    for heads, axes in groups:
        o, backward = _attend(*(stack(t.data, heads, axes) for t in (q, k, v)))
        out[heads] = o.transpose(np.argsort(axes))
        backwards.append(backward)

    def backward(g):
        grads = [np.empty(q.shape, dtype=g.dtype) for _ in range(3)]
        for (heads, axes), group_backward in zip(groups, backwards):
            parts = group_backward(stack(g, heads, axes),
                                   *(stack(t.data, heads, axes) for t in (q, k, v)))
            for grad, part in zip(grads, parts):
                grad[heads] = part.transpose(np.argsort(axes))
        return grads

    return _make(out, (q, k, v), backward)


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
    by `gain` and shift by `bias` when they are given (both or neither)."""
    inv_n = 1.0 / a.data.shape[-1]
    normed = a.data - a.data.sum(axis=-1, keepdims=True) * inv_n
    var = (normed * normed).sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt(var + LN_EPS)
    normed /= std
    out = normed
    if gain is not None:
        out = normed * gain.data
        out += bias.data

    def backward(g):
        affine = ()
        if gain is not None:
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
