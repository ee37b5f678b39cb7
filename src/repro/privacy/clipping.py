"""Gradient / update clipping used to bound DP sensitivity.

Section III-B of the paper: "Clipping the gradient by a positive constant C
leads to ||g|| ≤ C, which allows us to set Δ = 2C/(ρ+ζ)."
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

__all__ = ["clip_by_norm", "clip_rows", "clip_state_by_global_norm", "global_norm"]


def _within(norm: float, max_norm: float) -> bool:
    """The one clipping predicate: a vector of this ``norm`` is left as it is."""
    return norm <= max_norm or norm == 0.0


def global_norm(state: Mapping[str, np.ndarray]) -> float:
    """L2 norm of a state dict viewed as one concatenated vector."""
    total = 0.0
    for value in state.values():
        v = np.asarray(value, dtype=np.float64)
        total += float(np.dot(v.reshape(-1), v.reshape(-1)))
    return float(np.sqrt(total))


def clip_by_norm(values: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale ``values`` so its L2 norm does not exceed ``max_norm``."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = float(np.linalg.norm(values))
    if _within(norm, max_norm):
        return np.array(values, copy=True)
    return values * (max_norm / norm)


def clip_rows(rows: np.ndarray, max_norm: float) -> None:
    """Clip every row of a ``(B, dim)`` block in place, each exactly as
    :func:`clip_by_norm` clips it alone (a contiguous row's norm reduces like
    the standalone vector's)."""
    for row in rows:
        norm = float(np.linalg.norm(row))
        if not _within(norm, max_norm):
            row *= max_norm / norm


def clip_state_by_global_norm(state: Mapping[str, np.ndarray], max_norm: float) -> Tuple[Dict[str, np.ndarray], float]:
    """Clip a whole state dict by its global L2 norm.

    Returns ``(clipped_state, original_norm)``.  All arrays are scaled by the
    same factor so the clipped concatenated vector has norm ≤ ``max_norm``.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_norm(state)
    if _within(norm, max_norm):
        return {k: np.array(v, copy=True) for k, v in state.items()}, norm
    scale = max_norm / norm
    return {k: np.asarray(v) * scale for k, v in state.items()}, norm
