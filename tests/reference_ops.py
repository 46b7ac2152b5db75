"""Autodiff ops that only the tests build graphs from.

The model runs the fused sublayer blocks of `epinmt.tensor`; the ops here
are the references those blocks are checked against. Each is one graph node
built on the package's own node, accumulation and numpy helpers, so its
values and gradients are those the blocks compute.
"""

from __future__ import annotations

import numpy as np

from epinmt.errors import InternalError
from epinmt.tensor import Tensor, _accumulate, _attn_backward, _attn_forward, _node


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None,
              n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over projected inputs.

    q is [B, Lq, d], k and v are [B, Lk, d]; the additive mask broadcasts
    against the [B, H, Lq, Lk] scores. Split heads, scale, mask, softmax,
    both batched matmuls and merge heads form one node. Returns [B, Lq, d].
    """
    if (q.data.ndim != 3 or k.data.ndim != 3 or k.shape != v.shape
            or q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2] or q.shape[2] % n_heads):
        raise InternalError(f"attention: shapes {q.shape}, {k.shape}, {v.shape} "
                            f"for {n_heads} heads")
    out, cache = _attn_forward(q.data, k.data, v.data, mask, n_heads)

    def back(g):
        gq, gk, gv = _attn_backward(g, cache, *(t.grad_enabled for t in (q, k, v)))
        for t, gt in ((v, gv), (q, gq), (k, gk)):
            _accumulate(t, gt)

    return _node(out, (q, k, v), back)
