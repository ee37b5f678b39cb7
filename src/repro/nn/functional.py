"""Functional neural-network operations built on :class:`repro.nn.tensor.Tensor`.

The convolution uses an im2col/col2im strategy so the hot loop is a single
large matrix multiplication (per the HPC guide: vectorise, avoid per-element
Python loops).  Max pooling folds the strided tap views of the input with no
window copy.  The seed's kernels (``_conv2d_legacy``, ``_max_pool2d_legacy``
over :func:`im2col` / :func:`col2im`) are not on any run path: they are the
bitwise reference the tests compare the fast kernels against, by name.

Scratch-buffer reuse: the im2col column matrix and the zero-padded input are
by far the largest allocations on the training hot path (tens of MB per conv
per batch for the paper's CNN).  Both are drawn from a thread-local
:class:`_BufferPool` keyed on the exact geometry, so batches of identical
shape reuse the same memory instead of reallocating every forward/backward.
A column buffer stays checked out while a recorded backward closure still
needs it and is returned to the pool as soon as the gradient has been
computed (or immediately, when autograd is not recording).
"""

from __future__ import annotations

import threading
import weakref
from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor, is_grad_enabled

__all__ = [
    "linear",
    "relu",
    "conv2d",
    "max_pool2d",
    "flatten",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "dropout",
    "im2col",
    "col2im",
    "kernel_call_counts",
]


# Process-local kernel-invocation counters for the obs layer (worker
# telemetry).  Plain int increments: far below measurement noise next to the
# GEMMs they count, and they never touch numerics.  Under thread-parallel
# clients concurrent increments may race and undercount slightly; worker
# processes (where these counters ship as telemetry) run single-threaded,
# so their counts are exact and deterministic.
_KERNEL_CALLS: dict = {}


def _count_kernel(name: str) -> None:
    _KERNEL_CALLS[name] = _KERNEL_CALLS.get(name, 0) + 1


def kernel_call_counts() -> dict:
    """Copy of this process's kernel-entry invocation counts."""
    return dict(_KERNEL_CALLS)


# --------------------------------------------------------------------- dense
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias``.

    ``x`` has shape ``(N, in_features)``; ``weight`` has shape
    ``(out_features, in_features)``; ``bias`` has shape ``(out_features,)``.
    """
    _count_kernel("linear")
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def relu(x: Tensor) -> Tensor:
    """Elementwise rectified linear unit."""
    return x.relu()


def flatten(x: Tensor, start_dim: int = 1) -> Tensor:
    """Flatten all dimensions from ``start_dim`` onward."""
    shape = x.shape
    lead = shape[:start_dim]
    tail = int(np.prod(shape[start_dim:])) if len(shape) > start_dim else 1
    return x.reshape(lead + (tail,))


# --------------------------------------------------------------- convolution
def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


class _BufferPool(threading.local):
    """Thread-local free-lists of scratch arrays keyed by (tag, geometry, dtype).

    Thread-local so parallel FL clients never hand the same scratch buffer to
    two concurrent convolutions.  Cohort scratch, whose leading axis is the
    cohort width, goes through :meth:`acquire_lanes` / :meth:`release_lanes`:
    its key leaves the width out, so cohorts of every width share one set.
    """

    def __init__(self):
        self.free = {}

    def acquire(self, key, shape, dtype, zero: bool = False) -> np.ndarray:
        stack = self.free.get(key)
        if stack:
            return stack.pop()
        return np.zeros(shape, dtype=dtype) if zero else np.empty(shape, dtype=dtype)

    def release(self, key, buf: np.ndarray) -> None:
        self.free.setdefault(key, []).append(buf)

    def acquire_lanes(self, key, shape, dtype) -> np.ndarray:
        """The first ``shape[0]`` rows of a pooled base under a width-free
        ``key``: a contiguous view, from a base that is replaced by a wider
        one when too narrow (so the pool holds the widest width's set)."""
        stack = self.free.get(key)
        base = stack.pop() if stack else None
        if base is None or len(base) < shape[0]:
            base = np.empty(shape, dtype=dtype)
        return base[: shape[0]]

    def release_lanes(self, key, rows: np.ndarray) -> None:
        """Return a view :meth:`acquire_lanes` handed out (or a reshape of it)."""
        self.free.setdefault(key, []).append(rows.base)


_pool = _BufferPool()


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x: array of shape ``(N, C, H, W)``.
    kernel, stride, padding: spatial parameters.

    Returns
    -------
    cols: array of shape ``(N, C*kh*kw, out_h*out_w)`` (``out`` when given).
    (out_h, out_w): output spatial size.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    windows, pad_key, padded, (out_h, out_w) = _sliding_windows(x, kernel, stride, padding)
    if out is None:
        out = np.empty((n, c * kh * kw, out_h * out_w), dtype=x.dtype)
    np.copyto(out.reshape(n, c, kh, kw, out_h, out_w), windows)
    if pad_key is not None:
        _pool.release(pad_key, padded)
    return out, (out_h, out_w)


def _sliding_windows(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
):
    """Zero-pad ``x`` (pooled buffer) and return a strided sliding-window view.

    Returns ``(windows, pad_key, padded, (out_h, out_w))`` where ``windows``
    has shape ``(N, C, kh, kw, out_h, out_w)``.  When ``pad_key`` is not None
    the caller must release ``padded`` back to the pool after consuming the
    view.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    pad_key = None
    if ph or pw:
        # Pooled padded buffer: created zeroed, only the interior is rewritten,
        # so the zero border survives reuse across batches of identical shape.
        pad_key = ("pad", x.shape, ph, pw, x.dtype)
        padded = _pool.acquire(pad_key, (n, c, h + 2 * ph, w + 2 * pw), x.dtype, zero=True)
        padded[:, :, ph : ph + h, pw : pw + w] = x
        x = padded
    shape = (n, c, kh, kw, out_h, out_w)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2],
        x.strides[3],
        x.strides[2] * sh,
        x.strides[3] * sw,
    )
    windows = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    return windows, pad_key, x, (out_h, out_w)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image."""
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        i_max = i + sh * out_h
        for j in range(kw):
            j_max = j + sw * out_w
            padded[:, :, i:i_max:sh, j:j_max:sw] += cols6[:, :, i, j, :, :]
    if ph or pw:
        return padded[:, :, ph : ph + h, pw : pw + w]
    return padded


def _col2im_kmajor(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """:func:`col2im` for K-major columns of shape ``(C*kh*kw, N, P)``.

    Scatter-adds through strided views of the K-major buffer directly, so no
    layout-conversion copy of the (large) column matrix is needed.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    # Scatter into a C-major image so source and destination slices share the
    # same axis order (no transposed strided writes); one layout copy at the
    # end converts back to (N, C, H, W).
    padded = np.zeros((c, n, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols6 = cols.reshape(c, kh, kw, n, out_h, out_w)
    for i in range(kh):
        i_max = i + sh * out_h
        for j in range(kw):
            j_max = j + sw * out_w
            padded[:, :, i:i_max:sh, j:j_max:sw] += cols6[:, i, j]
    interior = padded[:, :, ph : ph + h, pw : pw + w] if (ph or pw) else padded
    return np.ascontiguousarray(interior.transpose(1, 0, 2, 3))


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride=1,
    padding=0,
) -> Tensor:
    """2-D convolution (cross-correlation, matching ``torch.nn.functional.conv2d``).

    ``x``: ``(N, C_in, H, W)``; ``weight``: ``(C_out, C_in, kh, kw)``;
    ``bias``: ``(C_out,)``.
    """
    _count_kernel("conv2d")
    stride = _pair(stride)
    padding = _pair(padding)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv2d channel mismatch: input has {c_in}, weight expects {c_in_w}")

    recording = is_grad_enabled() and (
        x.requires_grad or weight.requires_grad or (bias is not None and bias.requires_grad)
    )
    # Columns are stored K-major — shape (C_in*kh*kw, N, P) — so both the
    # forward product and the weight gradient collapse into one big GEMM over
    # the combined (N, P) axis instead of N small per-image GEMMs.
    kdim = c_in * kh * kw
    cols_key = ("cols", x.data.shape, (kh, kw), stride, padding, x.data.dtype)
    windows, pad_key, padded, (out_h, out_w) = _sliding_windows(x.data, (kh, kw), stride, padding)
    p_dim = out_h * out_w
    cols = _pool.acquire(cols_key, (kdim, n, p_dim), x.data.dtype)
    np.copyto(
        cols.reshape(c_in, kh, kw, n, out_h, out_w),
        windows.transpose(1, 2, 3, 0, 4, 5),
    )
    if pad_key is not None:
        _pool.release(pad_key, padded)

    w_mat = weight.data.reshape(c_out, -1)  # (C_out, C_in*kh*kw)
    dt = x.data.dtype
    fo_key = ("convout", c_out, n, p_dim, dt)
    out_cnp = _pool.acquire(fo_key, (c_out, n, p_dim), dt)
    np.matmul(w_mat, cols.reshape(kdim, n * p_dim), out=out_cnp.reshape(c_out, n * p_dim))
    if bias is not None:
        out_cnp += bias.data.reshape(c_out, 1, 1)
    # .copy() (never ascontiguousarray) — with a size-1 axis the transpose is
    # already contiguous and ascontiguousarray would return a *view* of the
    # pooled buffer, which the next same-geometry conv would overwrite.
    out = out_cnp.transpose(1, 0, 2).copy().reshape(n, c_out, out_h, out_w)
    _pool.release(fo_key, out_cnp)

    if not recording:
        _pool.release(cols_key, cols)
        return Tensor._make(out, (), lambda g: (), "conv2d")

    x_shape = x.shape
    parents = (x, weight) if bias is None else (x, weight, bias)

    # The column buffer stays checked out until the backward pass has used it.
    # If the recorded graph is dropped without backward() (exception between
    # forward and backward, loss probing, ...), a GC finalizer on the output
    # tensor returns the buffer instead of leaking it; the flag guards
    # against double-release when backward did run.  The pool is thread-local,
    # so a finalizer firing on a different thread than the acquiring one must
    # NOT release there (the buffer would migrate to a foreign free list) —
    # in that rare case the buffer is simply dropped for the GC to reclaim.
    cols_released = [False]
    owner_thread = threading.get_ident()

    def _release_cols():
        if not cols_released[0]:
            cols_released[0] = True
            if threading.get_ident() == owner_thread:
                _pool.release(cols_key, cols)

    def backward(grad: np.ndarray):
        # grad: (N, C_out, out_h, out_w) -> C_out-major (C_out, N*P) once, so
        # both weight and input gradients are single collapsed GEMMs.
        grad_mat = grad.reshape(n, c_out, p_dim)
        gm_key = ("convgm", c_out, n, p_dim, dt)
        gm_t = _pool.acquire(gm_key, (c_out, n, p_dim), dt)
        np.copyto(gm_t, grad_mat.transpose(1, 0, 2))
        gm_2d = gm_t.reshape(c_out, n * p_dim)
        grad_x = None
        grad_w = None
        grad_b = None
        if x.requires_grad:
            # dL/dcols = W^T @ grad, folded back without a layout copy.
            dc_key = ("convdcols", kdim, n, p_dim, dt)
            dcols = _pool.acquire(dc_key, (kdim, n, p_dim), dt)
            np.matmul(w_mat.T, gm_2d, out=dcols.reshape(kdim, n * p_dim))
            grad_x = _col2im_kmajor(dcols, x_shape, (kh, kw), stride, padding)
            _pool.release(dc_key, dcols)
        if weight.requires_grad:
            grad_w = (gm_2d @ cols.reshape(kdim, n * p_dim).T).reshape(weight.shape)
        if bias is not None and bias.requires_grad:
            grad_b = grad_mat.sum(axis=(0, 2))
        _pool.release(gm_key, gm_t)
        # The column buffer is only needed up to here; return it to the pool
        # for the next same-shape batch.  (A second backward pass through this
        # node would observe recycled memory — the framework, like the seed
        # implementation, supports a single backward per graph.)
        _release_cols()
        if bias is None:
            return (grad_x, grad_w)
        return (grad_x, grad_w, grad_b)

    result = Tensor._make(out, parents, backward, "conv2d")
    weakref.finalize(result, _release_cols)
    return result


def _conv2d_legacy(x: Tensor, weight: Tensor, bias, stride, padding) -> Tensor:
    """The seed implementation's conv2d (per-image einsum, fresh buffers);
    ``stride`` / ``padding`` as pairs.  A test reference, bitwise
    :func:`conv2d` at float64 (the einsum differs in the last bits at
    float32)."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    cols, (out_h, out_w) = im2col(x.data, (kh, kw), stride, padding)
    w_mat = weight.data.reshape(c_out, -1)
    out = np.einsum("ok,nkp->nop", w_mat, cols, optimize=True)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1)
    out = out.reshape(n, c_out, out_h, out_w)

    x_shape = x.shape
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray):
        grad_mat = grad.reshape(n, c_out, out_h * out_w)
        grad_x = grad_w = grad_b = None
        if x.requires_grad:
            dcols = np.einsum("ok,nop->nkp", w_mat, grad_mat, optimize=True)
            grad_x = col2im(dcols, x_shape, (kh, kw), stride, padding)
        if weight.requires_grad:
            grad_w = np.einsum("nop,nkp->ok", grad_mat, cols, optimize=True).reshape(weight.shape)
        if bias is not None and bias.requires_grad:
            grad_b = grad_mat.sum(axis=(0, 2))
        if bias is None:
            return (grad_x, grad_w)
        return (grad_x, grad_w, grad_b)

    return Tensor._make(out, parents, backward, "conv2d")


def max_pool2d(x: Tensor, kernel_size=2, stride=None, padding=0) -> Tensor:
    """2-D max pooling over ``(N, C, H, W)`` inputs (zero padding).

    Forward: copy tap ``windows[:, :, 0, 0]`` and ``np.maximum`` the other
    taps into it.  Backward: a window's gradient goes to its first tap, in
    row-major order, equal to the max (the first NaN if the max is NaN) —
    ``argmax``'s rule.  Where taps tile the input (``stride == kernel``, no
    padding) they assign ``where(hit, grad, 0)``, so a -0 gradient stays -0;
    elsewhere they accumulate it into zeros in tap order, like :func:`col2im`.
    Bitwise the im2col reference's, bar the sign of a max over ±0.
    """
    _count_kernel("max_pool2d")
    kernel = _pair(kernel_size)
    stride = _pair(stride if stride is not None else kernel_size)
    padding = _pair(padding)
    h, w = x.shape[2:]
    kh, kw = kernel
    taps = [(i, j) for i in range(kh) for j in range(kw)]
    windows, pad_key, padded, _ = _sliding_windows(x.data, kernel, stride, padding)
    out = windows[:, :, 0, 0].copy()
    for i, j in taps[1:]:
        np.maximum(out, windows[:, :, i, j], out=out)
    if pad_key is not None:
        _pool.release(pad_key, padded)
    aligned = stride == kernel and padding == (0, 0) and h % kh == 0 and w % kw == 0

    def backward(grad: np.ndarray):
        # Re-padding here keeps no pooled buffer alive between the passes.
        windows, pad_key, padded, _ = _sliding_windows(x.data, kernel, stride, padding)
        dx = (np.empty if aligned else np.zeros)(padded.shape, dtype=grad.dtype)
        dx_taps = _sliding_windows(dx, kernel, stride, (0, 0))[0]
        # grad's bits times the 0/1 hit is where(hit, grad, +0), branch-free.
        grad_bits = grad.view(f"u{grad.itemsize}")
        nan = np.isnan(out).any()
        remaining = np.ones(out.shape, dtype=bool)
        for i, j in taps:
            tap = windows[:, :, i, j]
            if (i, j) == taps[-1]:
                hit = remaining
            else:
                hit = tap == out
                if nan:
                    hit |= np.isnan(tap)
                hit &= remaining
                remaining ^= hit
            if aligned:
                np.multiply(grad_bits, hit, out=dx_taps[:, :, i, j].view(grad_bits.dtype))
            else:
                dx_taps[:, :, i, j] += np.multiply(grad_bits, hit).view(grad.dtype)
        if pad_key is not None:
            _pool.release(pad_key, padded)
        return (dx[:, :, padding[0] : padding[0] + h, padding[1] : padding[1] + w],)

    return Tensor._make(out, (x,), backward, "max_pool2d")


def _max_pool2d_legacy(x: Tensor, kernel, stride, padding) -> Tensor:
    """The seed implementation's max_pool2d (im2col columns, argmax, col2im);
    ``kernel`` / ``stride`` / ``padding`` as pairs.  A test reference,
    bitwise :func:`max_pool2d` at every dtype."""
    n, c = x.shape[:2]
    cols, (out_h, out_w) = im2col(x.data, kernel, stride, padding)
    # cols: (N, C*kh*kw, P) -> (N, C, kh*kw, P)
    cols = cols.reshape(n, c, -1, out_h * out_w)
    arg = cols.argmax(axis=2)  # (N, C, P)
    out = cols.max(axis=2).reshape(n, c, out_h, out_w)
    cols_shape = cols.shape

    def backward(grad: np.ndarray):
        dcols = np.zeros(cols_shape, dtype=grad.dtype)
        np.put_along_axis(dcols, arg[:, :, None, :], grad.reshape(n, c, 1, -1), axis=2)
        return (col2im(dcols.reshape(n, -1, out_h * out_w), x.shape, kernel, stride, padding),)

    return Tensor._make(out, (x,), backward, "max_pool2d")


# ------------------------------------------------------------------- softmax
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    m = x.data.max(axis=axis, keepdims=True)
    shifted = x - Tensor(m, dtype=m.dtype)
    lse = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - lse


def nll_loss(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood of integer class ``targets`` under ``log_probs``."""
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    loss = -picked
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    return loss


def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy with integer class targets.

    Implemented with a fused backward (the classic ``softmax - onehot``
    gradient) so it is both fast and numerically stable.
    """
    _count_kernel("cross_entropy")
    targets = np.asarray(targets, dtype=np.int64)
    z = logits.data
    n = z.shape[0]
    z_shift = z - z.max(axis=1, keepdims=True)
    exp = np.exp(z_shift)
    probs = exp / exp.sum(axis=1, keepdims=True)
    log_probs = z_shift - np.log(exp.sum(axis=1, keepdims=True))
    losses = -log_probs[np.arange(n), targets]
    if reduction == "mean":
        value = losses.mean()
        scale = 1.0 / n
    elif reduction == "sum":
        value = losses.sum()
        scale = 1.0
    else:
        raise ValueError(f"unsupported reduction {reduction!r}")

    def backward(grad: np.ndarray):
        g = probs.copy()
        g[np.arange(n), targets] -= 1.0
        return (g * (float(grad) * scale),)

    return Tensor._make(np.asarray(value), (logits,), backward, "cross_entropy")


def mse_loss(pred: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Mean squared error loss."""
    target = target if isinstance(target, Tensor) else Tensor(target, dtype=pred.data.dtype)
    diff = pred - target.detach()
    sq = diff * diff
    if reduction == "mean":
        return sq.mean()
    if reduction == "sum":
        return sq.sum()
    return sq


def dropout(x: Tensor, p: float = 0.5, training: bool = True, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` during training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask, dtype=mask.dtype)
