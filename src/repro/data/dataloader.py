"""Mini-batch data loader mirroring ``torch.utils.data.DataLoader``.

Provides shuffling and mini-batch iteration over any :class:`repro.data.Dataset`.
Batches are dense numpy arrays so the model forward pass is fully vectorised.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .dataset import Dataset, TensorDataset, stack_dataset

__all__ = ["DataLoader", "CohortLoader"]


class DataLoader:
    """Iterate over a dataset in mini-batches of ``(inputs, labels)`` arrays.

    Parameters
    ----------
    dataset:
        Source dataset.
    batch_size:
        Maximum number of samples per batch (the paper uses 64 for FedAvg and
        IIADMM local updates).
    shuffle:
        Reshuffle sample order at the start of every epoch.
    drop_last:
        Drop the final incomplete batch.
    rng:
        Random generator used for shuffling (explicit for reproducibility).
    dtype:
        Optional dtype the materialised inputs are cast to *once* (the
        float32 pipeline passes the run's dtype here so the forward pass
        never converts per batch).  ``None`` keeps the dataset's dtype.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 64,
        shuffle: bool = False,
        drop_last: bool = False,
        rng: Optional[np.random.Generator] = None,
        dtype=None,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = rng if rng is not None else np.random.default_rng()
        # Materialise once; per-epoch iteration then only does fancy indexing.
        self._inputs, self._labels = stack_dataset(dataset)
        if dtype is not None and self._inputs.dtype != np.dtype(dtype):
            self._inputs = self._inputs.astype(dtype)
        # Reusable index buffers: `_order` is refilled from `_arange` and
        # shuffled in place every epoch instead of allocating a fresh
        # permutation array per epoch.
        n = len(dataset)
        self._arange = np.arange(n)
        self._order = np.arange(n)
        # Read-only views served by the whole-dataset fast path: mutating a
        # yielded batch must not corrupt the cached dataset (batches from the
        # gather path are fresh copies, as before).
        self._inputs_ro = self._inputs.view()
        self._inputs_ro.flags.writeable = False
        self._labels_ro = self._labels.view()
        self._labels_ro.flags.writeable = False

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        if self.shuffle:
            order = self._order
            np.copyto(order, self._arange)
            self._rng.shuffle(order)
        else:
            order = self._arange
            # Whole-dataset fast path: a single in-order batch needs no
            # fancy-indexing copy — serve read-only views of the materialised
            # arrays. (Shuffled epochs still gather, so batches stay permuted.)
            if n and self.batch_size >= n and not self.drop_last:
                yield self._inputs_ro, self._labels_ro
                return
        end = (n // self.batch_size) * self.batch_size if self.drop_last else n
        for start in range(0, end, self.batch_size):
            idx = order[start : start + self.batch_size]
            yield self._inputs[idx], self._labels[idx]

    def full_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the entire dataset as one batch (used by ICEADMM, which
        computes the gradient on all local data points)."""
        return self._inputs, self._labels


class CohortLoader:
    """Stacked mini-batch fetch across ``B`` same-shaped :class:`DataLoader`\\ s.

    The batched client-execution engine (:mod:`repro.core.batched`) runs a
    cohort of clients' local updates as single stacked kernel calls; this is
    the matching data movement.  Lane ``b``'s rows come from loader ``b``'s
    materialised arrays (stacked once per cohort into a ``(B, n, ...)``
    block), and each mini-batch step then materialises one ``(B, batch, ...)``
    block in a *single* ``take`` over the flattened row stack — instead of
    ``B`` per-client fancy-indexing gathers — reusing one flat index buffer
    and one block buffer per batch geometry across the whole wave.

    RNG fidelity: :meth:`epoch` drives each underlying loader's *own* index
    buffer and generator exactly as ``DataLoader.__iter__`` would, so a
    client executed through a cohort consumes the same random state as one
    iterated per client — checkpoints and store spills stay bit-identical,
    and every lane of a yielded block holds exactly the rows (in exactly the
    order) the per-client iteration would have produced.

    All loaders must hold equally many samples of equal shape/dtype and share
    one batch size; the cohort builder groups clients so this holds.  Pass a
    buffer pool with ``acquire_lanes(key, shape, dtype)`` / ``release_lanes(key,
    rows)`` (e.g. :data:`repro.nn.functional._pool`) to recycle the stacked
    arrays across cohorts of any width (the keys leave the width out); call
    :meth:`close` when done to return them.
    """

    def __init__(self, loaders: "Sequence[DataLoader]", pool=None):
        loaders = list(loaders)
        if not loaders:
            raise ValueError("CohortLoader needs at least one DataLoader")
        first = loaders[0]
        n = len(first.dataset)
        for ld in loaders:
            if ld._inputs.shape != first._inputs.shape or ld._labels.shape != first._labels.shape:
                raise ValueError("cohort loaders must hold same-shaped datasets")
            if ld._inputs.dtype != first._inputs.dtype or ld._labels.dtype != first._labels.dtype:
                raise ValueError("cohort loaders must share input/label dtypes")
            if ld.batch_size != first.batch_size:
                raise ValueError("cohort loaders must share one batch size")
        self._loaders = loaders
        B = len(loaders)
        self.B = B
        self.batch_size = first.batch_size
        self._n = n
        self._pool = pool
        self._held = []
        x0, y0 = first._inputs, first._labels
        self._inputs = self._acquire(("cohort_x",) + x0.shape + (x0.dtype.str,), (B,) + x0.shape, x0.dtype)
        self._labels = self._acquire(("cohort_y",) + y0.shape + (y0.dtype.str,), (B,) + y0.shape, y0.dtype)
        for b, ld in enumerate(loaders):
            np.copyto(self._inputs[b], ld._inputs)
            np.copyto(self._labels[b], ld._labels)
        self._orders = self._acquire(("cohort_order", n), (B, n), np.intp)
        self._flat = self._acquire(("cohort_flat", self.batch_size), (B, self.batch_size), np.intp)
        self._lane_base = np.arange(B)[:, None] * n
        # Flattened row views served by the one-take gather.
        self._x_rows = self._inputs.reshape((B * n,) + x0.shape[1:])
        self._y_rows = self._labels.reshape(B * n)
        self._xblocks = {}
        self._yblocks = {}

    def _acquire(self, key, shape, dtype) -> np.ndarray:
        if self._pool is None:
            return np.empty(shape, dtype=dtype)
        buf = self._pool.acquire_lanes(key, shape, dtype)
        self._held.append((key, buf))
        return buf

    def __len__(self) -> int:
        """Batches per epoch (mirrors the underlying loaders)."""
        return (self._n + self.batch_size - 1) // self.batch_size

    def epoch(self) -> None:
        """Start a new shuffled pass, via each lane's own RNG and index buffer."""
        for b, ld in enumerate(self._loaders):
            np.copyto(ld._order, ld._arange)
            ld._rng.shuffle(ld._order)
            np.copyto(self._orders[b], ld._order)

    def batches(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``((B, k, ...), (B, k))`` blocks for the current epoch order.

        Yielded blocks are reused buffers — consume each before the next step.
        """
        n, bs, B = self._n, self.batch_size, self.B
        tail = self._inputs.shape[2:]
        for start in range(0, n, bs):
            idx = self._orders[:, start : start + bs]
            k = idx.shape[1]
            flat = self._flat[:, :k]
            np.add(idx, self._lane_base, out=flat)
            rows = flat.reshape(-1)
            xb = self._xblocks.get(k)
            if xb is None:
                xb = self._acquire(
                    ("cohort_xb", k) + tail + (self._inputs.dtype.str,), (B, k) + tail, self._inputs.dtype
                )
                self._xblocks[k] = xb
            yb = self._yblocks.get(k)
            if yb is None:
                yb = self._acquire(("cohort_yb", k, self._labels.dtype.str), (B, k), self._labels.dtype)
                self._yblocks[k] = yb
            np.take(self._x_rows, rows, axis=0, out=xb.reshape((B * k,) + tail))
            np.take(self._y_rows, rows, axis=0, out=yb.reshape(B * k))
            yield xb, yb

    def full_stack(self) -> Tuple[np.ndarray, np.ndarray]:
        """The whole stacked dataset (ICEADMM's full-gradient path)."""
        return self._inputs, self._labels

    def close(self) -> None:
        """Return pooled buffers to the pool (no-op without a pool)."""
        if self._pool is not None:
            for key, buf in self._held:
                self._pool.release_lanes(key, buf)
            self._held = []
