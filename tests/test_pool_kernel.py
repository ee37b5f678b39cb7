"""The tap-view max-pool kernel against the seed's im2col pool, bit for bit.

``F.max_pool2d`` folds the ``kh*kw`` tap views of the input with
``np.maximum`` and routes the gradient through first-hit masks in row-major
tap order; ``F._max_pool2d_legacy``, called by name, is the seed's im2col
columns + ``argmax`` + ``col2im``.  Every geometry, dtype and input family below must give the same
forward bits and the same input-gradient bits — ties (post-ReLU all-zero
windows, rounded values), infinities and NaNs included.  The one value-only
comparison is a max over zeros of mixed sign, whose sign neither reduction
defines.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F

# name -> (input shape, kernel_size, stride, padding)
GEOMETRIES = {
    "2x2/2 on 28x28": ((2, 3, 28, 28), 2, None, 0),
    "3x3/3 on 12x12": ((2, 3, 12, 12), 3, None, 0),
    "2x2/2 on 27x27": ((2, 3, 27, 27), 2, 2, 0),
    "2x2/1": ((2, 3, 9, 9), 2, 1, 0),
    "3x3/2 pad 1": ((2, 3, 11, 11), 3, 2, 1),
    "(3,2)/(2,1) pad (0,1)": ((2, 3, 10, 9), (3, 2), (2, 1), (0, 1)),
}
DTYPES = (np.float32, np.float64)
KINDS = ("normal", "relu", "rounded", "inf", "nan")


def _inputs(kind, shape, dtype, rng):
    x = rng.standard_normal(shape)
    if kind == "relu":  # all-zero windows: the common tie
        x = np.maximum(x, 0)
    elif kind == "rounded":  # positive ties
        x = np.maximum(np.round(2 * x), 0)
    elif kind == "inf":
        x[rng.random(shape) < 0.2] = np.inf
        x[rng.random(shape) < 0.3] = -np.inf
    elif kind == "nan":  # NaN at every tap position, some windows with several
        x = np.maximum(x, 0)
        x[rng.random(shape) < 0.15] = np.nan
    return x.astype(dtype)


def _pool(x, geometry, grad=None, legacy=False):
    _, kernel, stride, padding = geometry
    t = nn.Tensor(x, requires_grad=True, dtype=x.dtype)
    if legacy:
        stride = kernel if stride is None else stride
        y = F._max_pool2d_legacy(t, F._pair(kernel), F._pair(stride), F._pair(padding))
    else:
        y = F.max_pool2d(t, kernel, stride, padding)
    if grad is not None:
        y.backward(grad)
    return y, t


def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _assert_same_bits(new, ref):
    assert new.dtype == ref.dtype and new.shape == ref.shape
    np.testing.assert_array_equal(_bits(new), _bits(ref))


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_pool_matches_legacy_bitwise(name, kind, dtype):
    geometry = GEOMETRIES[name]
    rng = np.random.default_rng([list(GEOMETRIES).index(name), KINDS.index(kind)])
    x = _inputs(kind, geometry[0], dtype, rng)
    ref_y, _ = _pool(x, geometry, legacy=True)
    grad = rng.standard_normal(ref_y.shape).astype(dtype)
    ref_y, ref_x = _pool(x, geometry, grad, legacy=True)
    new_y, new_x = _pool(x, geometry, grad)
    _assert_same_bits(new_y.data, ref_y.data)
    _assert_same_bits(new_x.grad, ref_x.grad)


def test_nan_routes_to_the_first_nan_of_each_tap_position():
    """One NaN per window, placed at each of the four 2x2 tap positions in
    turn: the gradient lands on it, as argmax's would."""
    x = np.zeros((1, 1, 2, 8))
    for k in range(4):
        x[0, 0, k // 2, 2 * k + k % 2] = np.nan
    grad = np.arange(1.0, 5.0).reshape(1, 1, 1, 4)
    y, t = _pool(x, ((1, 1, 2, 8), 2, None, 0), grad)
    assert np.isnan(y.data).all()
    np.testing.assert_array_equal(np.nonzero(t.grad.ravel())[0], np.nonzero(np.isnan(x).ravel())[0])
    _, ref = _pool(x, ((1, 1, 2, 8), 2, None, 0), grad, legacy=True)
    _assert_same_bits(t.grad, ref.grad)


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_mixed_sign_zero_windows(name):
    """Zeros of both signs: the forward agrees in value only, the gradient
    (first zero tap, whatever its sign) bit for bit."""
    geometry = GEOMETRIES[name]
    rng = np.random.default_rng(3)
    x = np.where(rng.random(geometry[0]) < 0.5, -0.0, 0.0)
    ref_y, _ = _pool(x, geometry, legacy=True)
    grad = rng.standard_normal(ref_y.shape)
    ref_y, ref_x = _pool(x, geometry, grad, legacy=True)
    new_y, new_x = _pool(x, geometry, grad)
    np.testing.assert_array_equal(new_y.data, ref_y.data)
    _assert_same_bits(new_x.grad, ref_x.grad)


def test_write_rule_per_geometry():
    """Tiling pools assign (a -0 gradient stays -0, as the seed's tiling
    fast path kept it); every other geometry accumulates into zeros like
    col2im, where -0 + +0 is +0."""
    x = np.random.default_rng(4).standard_normal((1, 2, 8, 8))
    tiling, t = _pool(x, ((1, 2, 8, 8), 2, None, 0), np.full((1, 2, 4, 4), -0.0))
    assert np.signbit(t.grad).sum() == tiling.size
    overlapping, t = _pool(x, ((1, 2, 8, 8), 2, 1, 0), np.full((1, 2, 7, 7), -0.0))
    assert not np.signbit(t.grad).any()


def test_no_grad_call_records_no_closure():
    x = nn.Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
    with nn.no_grad():
        y = F.max_pool2d(x, 2)
    assert not y.requires_grad and y._backward is None and y._parents == ()


def test_concurrent_threads_pool_bitwise():
    """Two threads pooling padded inputs at once (thread-local pad buffers)
    give the serial results."""
    geometry = GEOMETRIES["3x3/2 pad 1"]
    rng = np.random.default_rng(5)
    xs = [np.maximum(rng.standard_normal(geometry[0]), 0) for _ in range(2)]
    grad = rng.standard_normal((2, 3, 6, 6))
    serial = [_pool(x, geometry, grad) for x in xs]
    results = [[], []]
    barrier = threading.Barrier(2)

    def work(lane):
        barrier.wait(timeout=30)
        for _ in range(20):
            results[lane].append(_pool(xs[lane], geometry, grad))

    threads = [threading.Thread(target=work, args=(lane,)) for lane in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert [len(r) for r in results] == [20, 20]
    for lane in range(2):
        for y, t in results[lane]:
            _assert_same_bits(y.data, serial[lane][0].data)
            _assert_same_bits(t.grad, serial[lane][1].grad)


def test_fig2_shape_allocates_no_window_copy():
    """At Fig. 2 shape the forward allocates only its output and the
    backward little more than the input gradient — no 6-D window copy."""
    rng = np.random.default_rng(6)
    x = nn.Tensor(np.maximum(rng.standard_normal((64, 32, 28, 28)), 0).astype(np.float32),
                  requires_grad=True, dtype=np.float32)
    x.grad = np.zeros_like(x.data)  # accumulate in place: measure the kernel only
    grad = rng.standard_normal((64, 32, 14, 14)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        y = F.max_pool2d(x, 2)
        forward_peak = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        y.backward(grad)
        backward_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert forward_peak < x.data.nbytes / 2
    assert backward_peak < 1.5 * x.data.nbytes
