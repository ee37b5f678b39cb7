"""Batched (vmap-style) kernels for stacked multi-client execution.

One federated client on the flat-parameter engine is a single contiguous
vector ``z ∈ R^dim`` (see :class:`repro.core.base.ModelVectorizer`), and a
tiny linear/MLP model's local step is a handful of small GEMMs whose numpy
dispatch overhead dwarfs the arithmetic.  These kernels run *B* such clients
at once: their parameter vectors stacked into a ``(B, dim)`` matrix, their
mini-batches into a ``(B, n, features)`` block, and every forward/backward
step expressed as batched 3-D ``np.matmul`` + broadcast ufunc calls — one
kernel dispatch per cohort instead of one autograd graph per client.

Equivalence contract
--------------------
The kernels mirror the exact operation sequence of the per-client autograd
trace (``nn.functional.linear`` → ``relu`` → fused ``cross_entropy``
backward, accumulated into zero-filled pinned gradient views):

* every lane ``b`` of a stacked 3-D ``np.matmul`` presents the *same* 2-D
  operand shapes and strides to the BLAS slice dispatch as the standalone
  per-client call, so each lane's GEMM is the bit-identical computation;
* broadcast elementwise ufuncs and the per-row (last-axis) softmax
  reductions have no cross-lane interaction;
* the bias-gradient reduction ``g.sum(axis=1)`` of a ``(B, n, out)`` stack
  performs, per lane, the same sequential row-accumulation as the
  per-client ``grad.sum(axis=0)`` of its ``(n, out)`` slice.

``tests/test_batched.py`` regression-tests the resulting histories bitwise
at float64 (documented tolerance at float32) across all three algorithms.

A *layer spec* is a tuple of ops compiled from a supported model (see
:func:`repro.core.batched.compile_model_spec`):

* ``("linear", weight_offset, out_features, in_features, bias_offset)`` —
  offsets into the flat parameter vector;
* ``("relu",)``.

Intermediates are recycled through the thread-local scratch pool shared
with the im2col/GEMM kernels (:data:`repro.nn.functional._pool`) under
width-free keys, so a long run of cohorts allocates its activation/gradient
blocks once, at its widest cohort.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .functional import _pool

__all__ = ["batched_step_gradient", "spec_dim_check"]


def spec_dim_check(spec: Sequence[Tuple], dim: int) -> bool:
    """True when every op's parameter slice lies inside a ``dim`` vector."""
    for op in spec:
        if op[0] == "linear":
            _, woff, out_f, in_f, boff = op
            if woff + out_f * in_f > dim or boff + out_f > dim:
                return False
    return True


def _matmul(a: np.ndarray, b: np.ndarray, key, shape, dtype) -> np.ndarray:
    out = _pool.acquire_lanes(key, shape, dtype)
    np.matmul(a, b, out=out)
    return out


def batched_step_gradient(
    spec: Sequence[Tuple],
    Z: np.ndarray,
    G: np.ndarray,
    xb: np.ndarray,
    yb: np.ndarray,
) -> None:
    """Mean cross-entropy gradient of B stacked clients in one pass.

    Parameters
    ----------
    spec:
        Compiled layer spec (see module docstring).
    Z:
        ``(B, dim)`` stacked flat parameter vectors (read-only here).
    G:
        ``(B, dim)`` stacked gradient output — zero-filled then accumulated,
        mirroring the per-client ``zero_grad()`` + pinned ``grad +=`` path.
    xb:
        ``(B, n, ...)`` stacked input block (one mini-batch per lane).
    yb:
        ``(B, n)`` stacked integer class targets.
    """
    B, dim = Z.shape
    n = xb.shape[1]
    dtype = Z.dtype
    a = xb
    if a.ndim > 3:
        # Mirrors MLP.forward's flatten of trailing dims (a reshape view).
        a = a.reshape(B, n, -1)

    # Forward: cache each linear layer's input activation and each relu mask,
    # exactly what the autograd graph would have retained.
    acts = []
    masks = []
    released = []
    for op in spec:
        if op[0] == "linear":
            _, woff, out_f, in_f, boff = op
            Wv = Z[:, woff : woff + out_f * in_f].reshape(B, out_f, in_f)
            bv = Z[:, boff : boff + out_f].reshape(B, 1, out_f)
            acts.append(a)
            key = ("bmm_fwd", n, out_f, dtype.str)
            h = _matmul(a, Wv.transpose(0, 2, 1), key, (B, n, out_f), dtype)
            # `out + bias` allocates a fresh array per client; reuse a pooled
            # block for the batched equivalent (same elementwise values).
            key2 = ("badd", n, out_f, dtype.str)
            h2 = _pool.acquire_lanes(key2, (B, n, out_f), dtype)
            np.add(h, bv, out=h2)
            _pool.release_lanes(key, h)
            released.append((key2, h2))
            a = h2
        else:  # relu
            mkey = ("bmask",) + a.shape[1:] + (a.dtype.str,)
            mask = _pool.acquire_lanes(mkey, a.shape, np.bool_)
            np.greater(a, 0, out=mask)
            masks.append((mkey, mask))
            rkey = ("brelu",) + a.shape[1:] + (a.dtype.str,)
            r = _pool.acquire_lanes(rkey, a.shape, dtype)
            np.maximum(a, 0, out=r)
            released.append((rkey, r))
            a = r

    # Fused softmax cross-entropy backward (mean reduction), per lane the
    # same `probs.copy(); probs[i, y] -= 1; * (1/n)` as nn.functional.
    logits = a
    z_shift = logits - logits.max(axis=2, keepdims=True)
    np.exp(z_shift, out=z_shift)
    probs = z_shift
    probs /= probs.sum(axis=2, keepdims=True)
    probs[np.arange(B)[:, None], np.arange(n)[None, :], yb] -= 1.0
    g = probs * (1.0 * (1.0 / n))

    # Backward in reverse layer order, accumulating into the zero-filled
    # gradient stack exactly as the pinned per-parameter views would.
    G.fill(0.0)
    li = len(acts)
    mi = len(masks)
    for op in reversed(spec):
        if op[0] == "relu":
            mi -= 1
            g = g * masks[mi][1]
            continue
        li -= 1
        _, woff, out_f, in_f, boff = op
        a_in = acts[li]
        Gb = G[:, boff : boff + out_f]
        Gb += g.sum(axis=1)
        Gw = G[:, woff : woff + out_f * in_f].reshape(B, out_f, in_f)
        key = ("bmm_gw", in_f, out_f, dtype.str)
        GwT = _matmul(a_in.transpose(0, 2, 1), g, key, (B, in_f, out_f), dtype)
        Gw += GwT.transpose(0, 2, 1)
        _pool.release_lanes(key, GwT)
        if li > 0:
            # Upstream gradient for the previous layer's output (the input
            # never requires grad, so layer 0 skips this GEMM).
            Wv = Z[:, woff : woff + out_f * in_f].reshape(B, out_f, in_f)
            g = np.matmul(g, Wv)

    for key, buf in released:
        _pool.release_lanes(key, buf)
    for mkey, mask in masks:
        _pool.release_lanes(mkey, mask)
