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

import hashlib
import math
from collections import OrderedDict
from typing import Callable, Iterable, Iterator

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "ParameterSet",
    "DimensionError",
    "ContractError",
    "tensor",
    "zeros",
    "constant",
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
    "backward",
    "sgd_step",
    "sgd_loop",
]


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class ContractError(RuntimeError):
    """A caller violated an op's contract (non-scalar loss, missing grad...)."""


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.shape}, grad_enabled={self.grad_enabled})"


def tensor(data, grad_enabled=False) -> Tensor:
    return Tensor(data, grad_enabled=grad_enabled)


def constant(data) -> Tensor:
    return Tensor(data)


def zeros(shape, grad_enabled=False) -> Tensor:
    return Tensor(np.zeros(shape), grad_enabled=grad_enabled)


def _needs_grad(*ts: Tensor) -> bool:
    return any(t.grad_enabled for t in ts)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.grad_enabled:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient g down to `shape` after numpy broadcasting."""
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
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")

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
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}")

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
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))

    def back(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        _accumulate(a, g * (cdf + x * pdf))

    return _node(x * cdf, (a,), back)


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
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dims disagree for {a.shape} x {b.shape}")
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
    d = x.shape[-1] if x.data.ndim else 0
    if d == 0:
        raise DimensionError("layer_norm: empty last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def back(g):
        dxhat = g * gain.data
        dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
        dmu = -(dxhat * inv).sum(axis=-1, keepdims=True) + dvar * (-2.0 / d) * xc.sum(
            axis=-1, keepdims=True
        )
        dx = dxhat * inv + dvar * (2.0 / d) * xc + dmu / d
        _accumulate(x, dx)
        red = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=red))
        _accumulate(bias, g.sum(axis=red))

    return _node(xhat * gain.data + bias.data, (x, gain, bias), back)


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
        raise DimensionError(f"targets shape {targets.shape} != ({n},)")
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
# reverse pass


def backward(loss: Tensor) -> None:
    """One reverse pass from a scalar loss; grads accumulate by summation."""
    if loss.data.ndim != 0:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
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
        for p in node._parents:
            if p.grad_enabled and id(p) not in seen:
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


class ParameterSet:
    """Ordered name -> Tensor mapping for one model module."""

    def __init__(self, items: dict[str, Tensor] | None = None):
        self._params: "OrderedDict[str, Tensor]" = OrderedDict()
        if items:
            for k, v in items.items():
                self[k] = v

    def __setitem__(self, name: str, t: Tensor) -> None:
        self._params[name] = t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def items(self):
        return self._params.items()

    def copy(self) -> "ParameterSet":
        """Deep copy; gradients are not carried over."""
        out = ParameterSet()
        for k, v in self._params.items():
            out[k] = Tensor(v.data.copy(), grad_enabled=v.grad_enabled)
        return out

    def frozen_view(self) -> "ParameterSet":
        """Share the same data arrays with gradients disabled.

        Used to run a forward pass *through* these parameters without them
        taking part in the update.
        """
        out = ParameterSet()
        for k, v in self._params.items():
            t = Tensor.__new__(Tensor)
            t.data = v.data
            t.grad = None
            t.grad_enabled = False
            t._parents = ()
            t._backward = None
            out[k] = t
        return out

    def zero_grads(self) -> None:
        for v in self._params.values():
            v.grad = None

    def checksum(self) -> str:
        """sha256 over each entry's name, dtype, shape and bytes, in order;
        equal across processes."""
        h = hashlib.sha256()
        for k, v in self._params.items():
            h.update(f"{k}\0{v.data.dtype.str}{v.shape}\0".encode())
            h.update(np.ascontiguousarray(v.data).tobytes())
        return h.hexdigest()

    def structurally_compatible(self, other: "ParameterSet") -> bool:
        if list(self) != list(other):
            return False
        return all(self[k].shape == other[k].shape for k in self)


def sgd_step(params: ParameterSet, lr: float) -> None:
    """p <- p - lr * grad for every grad-enabled parameter; grads are zeroed.

    Frozen (grad_enabled=False) parameters are skipped. A grad-enabled
    parameter with no populated gradient is a contract violation.
    """
    for name, p in params.items():
        if not p.grad_enabled:
            continue
        if p.grad is None:
            raise ContractError(f"sgd_step: parameter '{name}' has no gradient")
        p.data -= lr * p.grad
        p.grad = None


def sgd_loop(modules: list[ParameterSet], loss_of: Callable[[object], Tensor],
             batches: Iterable, lr: float) -> list[float]:
    """Per batch: one loss, one reverse pass, one `sgd_step` per module.

    Returns the per-step loss curve. A non-finite loss raises ContractError
    before it can reach the parameters.
    """
    curve = []
    for step, batch in enumerate(batches):
        loss = loss_of(batch)
        value = loss.item()
        if not math.isfinite(value):
            raise ContractError(f"non-finite loss {value} at step {step}")
        backward(loss)
        for params in modules:
            sgd_step(params, lr)
        curve.append(value)
    return curve
