"""Dense float64 tensors with reverse-mode automatic differentiation.

Every op builds a node in an implicit computation graph (parents plus a
backward closure). ``backward(loss)`` topologically sorts the graph reachable
from the loss and runs one reverse pass, accumulating gradients by summation.
Gradients are only materialized on tensors with ``grad_enabled=True`` or on
interior nodes that lead to one.

Broadcasting is numpy's trailing-dimension alignment; gradients of broadcast
inputs are reduced back to the input shape by summing the expanded axes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import Callable, Iterable

import numpy as np

from .errors import InternalError

__all__ = [
    "Tensor",
    "ParameterSet",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "relu",
    "gelu",
    "reshape",
    "transpose",
    "reduce_sum",
    "reduce_mean",
    "softmax",
    "layer_norm",
    "embedding",
    "gather_rows",
    "softmax_cross_entropy",
    "linear",
    "embed",
    "masked_cross_entropy",
    "attn_block",
    "ff_block",
    "backward",
    "sgd_step",
    "sgd_loop",
]


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# glibc serves an array of 128 KB or more with fresh pages and hands freed
# heap back to the kernel, so each batch-64 step would fault in megabytes of
# zeroed pages. A 16 MB top pad (M_TOP_PAD, mallopt(3)) keeps that much freed
# heap in the process and serves such arrays from it; forked processes
# inherit it. Only the allocator's bookkeeping changes.
try:
    if os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
        import ctypes   # numpy has loaded it already
        ctypes.CDLL(None).mallopt(-2, 16 << 20)
except (AttributeError, ValueError, OSError):   # no confstr, or no such name
    pass


class Tensor:
    """A dense float64 array plus optional gradient bookkeeping."""

    __slots__ = ("data", "grad", "grad_enabled", "_parents", "_backward")

    def __init__(self, data, grad_enabled=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.grad_enabled = bool(grad_enabled)
        self._parents: tuple[Tensor, ...] = _parents
        self._backward: Callable[[np.ndarray], None] | None = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.shape}, grad_enabled={self.grad_enabled})"


def _needs_grad(*ts: Tensor) -> bool:
    return any(t.grad_enabled for t in ts)


def _accumulate(t: Tensor, g: np.ndarray | None) -> None:
    """Store the first gradient as given and add later ones out of place.

    A stored buffer may be shared (`add` hands one to both parents), so no
    buffer is ever written to after it is stored.
    """
    if t.grad_enabled:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient g down to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _node(data, parents, backward_fn) -> Tensor:
    out = Tensor(data, grad_enabled=_needs_grad(*parents))
    if out.grad_enabled:
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise InternalError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _node(data, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise InternalError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), back)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def back(g):
        _accumulate(a, g * c)

    return _node(a.data * c, (a,), back)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def back(g):
        _accumulate(a, g * mask)

    return _node(np.where(mask, a.data, 0.0), (a,), back)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = a.data
    cdf = _gelu_cdf(x)

    def back(g):
        _accumulate(a, _gelu_backward(g, x, cdf))

    return _node(x * cdf, (a,), back)


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf()(x * _INV_SQRT2))


@functools.cache
def _erf() -> np.ufunc:
    """scipy.special's own erf ufunc, from its compiled extension module.

    `from scipy.special import erf` would run the whole scipy.special package
    (its array-API layer included), which costs as much start-up time as the
    rest of the CLI. Loading the one extension runs neither that package nor
    scipy's own __init__, and calls the same C function.
    """
    name = "scipy.special._special_ufuncs"
    if name in sys.modules:                     # scipy.special is imported already
        return sys.modules[name].erf
    scipy = importlib.util.find_spec("scipy")   # locates scipy, runs none of it
    dirs = [os.path.join(d, "special") for d in scipy.submodule_search_locations] \
        if scipy else []
    spec = importlib.machinery.PathFinder.find_spec(name, dirs)
    if spec is None:
        from importlib.metadata import version   # an ImportError itself without scipy
        raise ImportError(f"GELU's erf needs scipy>=1.17: scipy {version('scipy')} "
                          f"has no {name}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # The extension registers itself in sys.modules as it loads. Take it out,
    # so that a later `import scipy.special` loads it as the package's submodule.
    sys.modules.pop(name, None)
    return module.erf


def _gelu_backward(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return g * (cdf + x * pdf)


# ---------------------------------------------------------------------------
# shape and reduction ops


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def back(g):
        _accumulate(a, g.reshape(a.shape))

    return _node(a.data.reshape(shape), (a,), back)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def back(g):
        _accumulate(a, g.transpose(inv))

    return _node(a.data.transpose(axes), (a,), back)


def reduce_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    def back(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).copy())
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        _accumulate(a, np.broadcast_to(gg, a.shape).copy())

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), back)


def reduce_mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.shape[axis]
    return scale(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batching over leading axes."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise InternalError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise InternalError(f"matmul: inner dims disagree for {a.shape} x {b.shape}")
    data = np.matmul(a.data, b.data)

    def back(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accumulate(a, _unbroadcast(ga, a.shape))
        _accumulate(b, _unbroadcast(gb, b.shape))

    return _node(data, (a, b), back)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max-subtraction."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        _accumulate(a, s * (g - dot))

    return _node(s, (a,), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    if eps <= 0:
        raise ValueError("layer_norm: eps must be > 0")
    if (x.shape[-1] if x.data.ndim else 0) == 0:
        raise InternalError("layer_norm: empty last axis")
    out, cache = _ln_forward(x.data, gain.data, bias.data, eps)

    def back(g):
        _ln_backward(g, x, gain, bias, cache)

    return _node(out, (x, gain, bias), back)


def _ln_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """layer_norm's numpy: (output, the cache its backward reads)."""
    d = x.shape[-1]  # `sum / d` is numpy's `mean`, bit for bit, without its overhead
    xc = x - x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / d + eps)
    xhat = xc * inv
    return xhat * gain + bias, (xc, inv, xhat)


def _ln_backward(g: np.ndarray, x: Tensor, gain: Tensor, bias: Tensor, cache) -> None:
    """Accumulate layer_norm's gradients into x, gain and bias."""
    xc, inv, xhat = cache
    if x.grad_enabled:
        d = xc.shape[-1]
        dxhat = g * gain.data
        dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
        dmu = -(dxhat * inv).sum(axis=-1, keepdims=True) + dvar * (-2.0 / d) * xc.sum(
            axis=-1, keepdims=True
        )
        _accumulate(x, dxhat * inv + dvar * (2.0 / d) * xc + dmu / d)
    red = tuple(range(g.ndim - 1))
    if gain.grad_enabled:
        _accumulate(gain, (g * xhat).sum(axis=red))
    if bias.grad_enabled:
        _accumulate(bias, g.sum(axis=red))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"embedding: id out of range for table of {table.shape[0]} rows")

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        _accumulate(table, gt)

    return _node(table.data[ids], (table,), back)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows of a 2-d tensor; gradient scatters back by summation."""
    idx = np.asarray(idx, dtype=np.int64)

    def back(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        _accumulate(a, ga)

    return _node(a.data[idx], (a,), back)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over rows of -log softmax(logits)[target].

    logits is [N, V]; targets are integer class ids. The gradient is
    (softmax - onehot) / N, computed in closed form.
    """
    targets = np.asarray(targets, dtype=np.int64)
    n, v = logits.shape
    if targets.shape != (n,):
        raise InternalError(f"targets shape {targets.shape} != ({n},)")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise IndexError(f"target id out of range for {v} classes")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    rows = np.arange(n)
    loss = float((lse - z[rows, targets]).mean())

    def back(g):
        p = np.exp(z - lse[:, None])
        p[rows, targets] -= 1.0
        _accumulate(logits, g * p / n)

    return _node(loss, (logits,), back)


# ---------------------------------------------------------------------------
# fused layer ops
#
# Each is one graph node for what the ops above (for a sublayer block: the
# fused ops before it) would build as a chain. Its backward repeats the numpy
# of that chain in the same order, so values and gradients equal the chain's
# bit for bit; only the Python overhead per node is saved.


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) for x [..., n_in], w [n_in, n_out], b [n_out]."""
    if x.data.ndim < 2 or w.data.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise InternalError(f"linear: cannot apply {w.shape} weight to {x.shape} input")
    data = np.matmul(x.data, w.data)
    if b is not None:
        data += b.data

    def back(g):
        _accumulate(x, _linear_backward(g, x.data, w, b, x.grad_enabled))

    return _node(data, (x, w) if b is None else (x, w, b), back)


def _linear_backward(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor | None,
                     need_x: bool) -> np.ndarray | None:
    """Accumulate the gradients of `x @ w (+ b)` into w and b; return the
    input's gradient, or None unless `need_x`."""
    if w.grad_enabled:
        _accumulate(w, _unbroadcast(np.matmul(x.swapaxes(-1, -2), g), w.shape))
    if b is not None and b.grad_enabled:
        _accumulate(b, _unbroadcast(g, b.shape))
    return np.matmul(g, w.data.swapaxes(-1, -2)) if need_x else None


def _attn_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray | None,
                  n_heads: int):
    """Multi-head scaled dot-product attention of q [B, Lq, d] over k and v
    [B, Lk, d]; the additive mask broadcasts against the [B, H, Lq, Lk] scores.
    Returns (output [B, Lq, d], the cache its backward reads)."""
    b, lq, d = q.shape
    lk = k.shape[1]
    dk = d // n_heads
    c = 1.0 / math.sqrt(dk)
    qh = q.reshape(b, lq, n_heads, dk).transpose(0, 2, 1, 3)
    kh = k.reshape(b, lk, n_heads, dk).transpose(0, 2, 1, 3)
    vh = v.reshape(b, lk, n_heads, dk).transpose(0, 2, 1, 3)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * c
    if mask is not None:
        scores += mask
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    out = np.matmul(s, vh).transpose(0, 2, 1, 3).reshape(b, lq, d)
    return out, (qh, kh, vh, s, c)


def _attn_backward(g: np.ndarray, cache, need_q: bool, need_k: bool, need_v: bool):
    """The gradients of `_attn_forward`'s q, k and v; None where not needed."""
    qh, kh, vh, s, c = cache
    b, n_heads, lq, dk = qh.shape
    lk, d = kh.shape[2], n_heads * dk
    gq = gk = gv = None
    gh = g.reshape(b, lq, n_heads, dk).transpose(0, 2, 1, 3)
    if need_v:
        gvh = np.matmul(s.swapaxes(-1, -2), gh)
        gv = gvh.transpose(0, 2, 1, 3).reshape(b, lk, d)
    if need_q or need_k:
        gs = np.matmul(gh, vh.swapaxes(-1, -2))
        dot = (gs * s).sum(axis=-1, keepdims=True)
        gz = s * (gs - dot) * c
        if need_q:
            gq = np.matmul(gz, kh).transpose(0, 2, 1, 3).reshape(b, lq, d)
        if need_k:
            gkt = np.matmul(qh.swapaxes(-1, -2), gz)
            gk = gkt.transpose(0, 3, 1, 2).reshape(b, lk, d)
    return gq, gk, gv


def embed(table: Tensor, ids: np.ndarray, c: float, pe: np.ndarray) -> Tensor:
    """table[ids] * c + pe: token embedding, scale and positions in one node."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"embed: id out of range for table of {table.shape[0]} rows")
    c = float(c)

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), (g * c).reshape(-1, table.shape[1]))
        _accumulate(table, gt)

    return _node(table.data[ids] * c + pe, (table,), back)


def masked_cross_entropy(logits: Tensor, targets: np.ndarray, valid: np.ndarray) -> Tensor:
    """Mean of -log softmax(logits)[target] over the positions where `valid`.

    logits is [B, L, V]; targets and valid are [B, L].
    """
    if (logits.data.ndim != 3 or np.shape(targets) != logits.shape[:2]
            or np.shape(valid) != logits.shape[:2]):
        raise InternalError(f"masked_cross_entropy: logits {logits.shape}, targets "
                            f"{np.shape(targets)}, valid {np.shape(valid)}")
    b, l, v = logits.shape
    idx = np.flatnonzero(np.asarray(valid).reshape(-1))
    t = np.asarray(targets, dtype=np.int64).reshape(-1)[idx]
    if t.size and (t.min() < 0 or t.max() >= v):
        raise IndexError(f"target id out of range for {v} classes")
    n = len(idx)
    rows = logits.data.reshape(b * l, v)[idx]
    z = rows - rows.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    r = np.arange(n)
    loss = float((lse - z[r, t]).mean())

    def back(g):
        p = np.exp(z - lse[:, None])
        p[r, t] -= 1.0
        full = np.zeros((b * l, v))
        np.add.at(full, idx, g * p / n)
        _accumulate(logits, full.reshape(b, l, v))

    return _node(loss, (logits,), back)


def attn_block(x: Tensor, gain: Tensor, bias: Tensor, wq: Tensor, wk: Tensor | None,
               wv: Tensor | None, wo: Tensor, mask: np.ndarray | None, n_heads: int,
               kv: tuple[Tensor, Tensor] | None = None,
               cache: tuple[np.ndarray, np.ndarray, int] | None = None) -> Tensor:
    """x + attention(LN(x) @ wq, K, V) @ wo: one pre-LN attention sublayer.

    Self-attention (kv None) projects K = LN(x) @ wk and V = LN(x) @ wv in the
    node. Cross-attention passes kv = (K, V), the memory's `linear` projections,
    and wk = wv = None. Every layer's K and V add into the memory's gradient;
    as nodes of their own, they add in the op chain's order (layer 0 first).

    With cache = (K buffer, V buffer, start), x holds the positions from start
    on: their K and V rows go into the [B, max_len, d] buffers, and attention
    reads the buffers up to x's last position. A cached block takes no gradient.
    """
    if x.data.ndim != 3 or x.shape[2] % n_heads or (kv is None) == (wk is None):
        raise InternalError(f"attn_block: bad input {x.shape} or K/V for {n_heads} heads")
    nx, ln_cache = _ln_forward(x.data, gain.data, bias.data)
    need_nx = _needs_grad(x, gain, bias)
    ws, kv = ((wq, wk, wv), ()) if kv is None else ((wq,), kv)
    # the chain's q, k and v nodes, and whether each takes a gradient
    qkv = [np.matmul(nx, w.data) for w in ws] + [t.data for t in kv]
    need = [need_nx or w.grad_enabled for w in ws] + [t.grad_enabled for t in kv]
    if cache is not None:
        if any(need) or kv:
            raise InternalError("attn_block: a K/V cache is for self-attention without gradients")
        kbuf, vbuf, start = cache
        end = start + x.shape[1]
        kbuf[:, start:end], vbuf[:, start:end] = qkv[1:]
        qkv[1:] = kbuf[:, :end], vbuf[:, :end]
    a, attn_cache = _attn_forward(*qkv, mask, n_heads)

    def back(g):
        _accumulate(x, g)
        ga = _linear_backward(g, a, wo, None, any(need))
        if ga is None:
            return
        grads = _attn_backward(ga, attn_cache, *need)
        for t, gt in zip(kv, grads[1:]):
            _accumulate(t, gt)
        gnx = None
        for w, gw in zip(ws, grads):
            if gw is not None:
                gi = _linear_backward(gw, nx, w, None, need_nx)
                gnx = gi if gnx is None else gnx + gi
        if need_nx:
            _ln_backward(gnx, x, gain, bias, ln_cache)

    # x before K and V, as the chain's q before its k and v: the reverse pass
    # then reaches the memory's K and V projections in the chain's order
    return _node(x.data + np.matmul(a, wo.data), (x, gain, bias, wo) + ws + kv, back)


def ff_block(x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
             b2: Tensor) -> Tensor:
    """x + gelu(LN(x) @ w1 + b1) @ w2 + b2: one pre-LN feed-forward sublayer."""
    if x.data.ndim < 2 or x.shape[-1] != w1.shape[0]:
        raise InternalError(f"ff_block: cannot apply {w1.shape} weight to {x.shape} input")
    nx, ln_cache = _ln_forward(x.data, gain.data, bias.data)
    a = np.matmul(nx, w1.data)
    a += b1.data
    cdf = _gelu_cdf(a)
    h = a * cdf
    o = np.matmul(h, w2.data)
    o += b2.data
    need_nx = _needs_grad(x, gain, bias)
    need_a = need_nx or w1.grad_enabled or b1.grad_enabled

    def back(g):
        _accumulate(x, g)
        gh = _linear_backward(g, h, w2, b2, need_a)
        if gh is None:
            return
        gnx = _linear_backward(_gelu_backward(gh, a, cdf), nx, w1, b1, need_nx)
        if need_nx:
            _ln_backward(gnx, x, gain, bias, ln_cache)

    return _node(x.data + o, (x, gain, bias, w1, b1, w2, b2), back)


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """One reverse pass from a scalar loss; grads accumulate by summation."""
    if loss.data.ndim != 0:
        raise InternalError(f"backward expects a scalar loss, got shape {loss.shape}")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        # leaves have nothing to run; interior nodes keep their order
        for p in node._parents:
            if p._backward is not None and id(p) not in seen:
                stack.append((p, False))
    _accumulate(loss, np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    # interior nodes are transient; free their buffers, keep leaf grads
    for node in order:
        if node._backward is not None:
            node.grad = None
            node._parents = ()
            node._backward = None


# ---------------------------------------------------------------------------
# parameters


class ParameterSet(dict):
    """One model module's parameters: name -> Tensor, in insertion order."""

    def copy(self) -> "ParameterSet":
        """Deep copy; gradients are not carried over."""
        return ParameterSet({k: Tensor(v.data.copy(), grad_enabled=v.grad_enabled)
                             for k, v in self.items()})

    def frozen_view(self) -> "ParameterSet":
        """Share the same (float64) data arrays with gradients disabled.

        Used to run a forward pass *through* these parameters without them
        taking part in the update.
        """
        return ParameterSet({k: Tensor(v.data) for k, v in self.items()})

    def checksum(self) -> str:
        """sha256 over each entry's name, dtype, shape and bytes, in order;
        equal across processes."""
        h = hashlib.sha256()
        for k, v in self.items():
            h.update(f"{k}\0{v.data.dtype.str}{v.shape}\0".encode())
            h.update(np.ascontiguousarray(v.data).tobytes())
        return h.hexdigest()


def sgd_step(params: ParameterSet, lr: float) -> None:
    """p <- p - lr * grad for every grad-enabled parameter; grads are zeroed.

    Frozen (grad_enabled=False) parameters are skipped. A grad-enabled
    parameter with no populated gradient is a contract violation.
    """
    for name, p in params.items():
        if not p.grad_enabled:
            continue
        if p.grad is None:
            raise InternalError(f"sgd_step: parameter '{name}' has no gradient")
        p.data -= lr * p.grad
        p.grad = None


def sgd_loop(modules: list[ParameterSet], loss_of: Callable[[object], Tensor],
             batches: Iterable, lr: float) -> list[float]:
    """Per batch: one loss, one reverse pass, one `sgd_step` per module.

    Returns the per-step loss curve. A non-finite loss raises InternalError
    before it can reach the parameters.
    """
    curve = []
    for step, batch in enumerate(batches):
        loss = loss_of(batch)
        value = loss.item()
        if not math.isfinite(value):
            raise InternalError(f"non-finite loss {value} at step {step}")
        backward(loss)
        for params in modules:
            sgd_step(params, lr)
        curve.append(value)
    return curve
