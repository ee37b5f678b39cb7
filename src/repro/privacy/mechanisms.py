"""Differential-privacy mechanisms (output perturbation).

The APPFL paper (Section III-B) protects local model parameters with the
*output perturbation* method: before a client sends its update to the server,
Laplacian noise with scale ``b = Δ/ε`` is added elementwise, where ``Δ`` is an
upper bound on the sensitivity of the update and ``ε`` is the privacy budget
(smaller ε = stronger privacy).  ``ε = ∞`` disables the mechanism.

A Gaussian mechanism is also provided as an extension point (the paper lists
more advanced DP methods as future work).

Ordering with wire codecs: clipping and perturbation run inside the
algorithm body (``update_rows``: a per-row clip after each gradient, then the
per-lane :func:`release_rows` epilogue, whether the body runs one client or a
stacked cohort) — *before* the payload reaches the codec stack
(``FLConfig.codec``) in the exchange layer.  Quantization, sparsification,
and delta encoding are therefore post-processing of an already-released
value, which cannot weaken the ε-DP guarantee (the post-processing
invariance of differential privacy).  The reverse order — noising quantized
values — would let the discrete grid leak information, so the pipeline never
encodes before perturbing.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Mechanism", "NoPrivacy", "LaplaceMechanism", "GaussianMechanism", "make_mechanism", "release_rows"]


class Mechanism(ABC):
    """A randomised function applied to a model update before transmission."""

    #: privacy budget ε (math.inf means no privacy)
    epsilon: float = math.inf

    @abstractmethod
    def perturb_array(self, values: np.ndarray, sensitivity: float) -> np.ndarray:
        """Return a perturbed copy of ``values`` calibrated to ``sensitivity``."""

    def perturb_state(self, state: Mapping[str, np.ndarray], sensitivity: float) -> Dict[str, np.ndarray]:
        """Apply :meth:`perturb_array` to every array of a state dict."""
        return {name: self.perturb_array(np.asarray(value), sensitivity) for name, value in state.items()}

    @property
    def is_private(self) -> bool:
        """True when the mechanism actually adds noise."""
        return math.isfinite(self.epsilon)


class NoPrivacy(Mechanism):
    """The identity mechanism (ε = ∞), used for non-private baselines."""

    epsilon = math.inf

    def perturb_array(self, values: np.ndarray, sensitivity: float) -> np.ndarray:
        return np.array(values, copy=True)


class LaplaceMechanism(Mechanism):
    """ε-DP output perturbation with Laplace(0, Δ/ε) noise.

    Parameters
    ----------
    epsilon:
        Privacy budget ε̄ from Definition 1 of the paper.  ``math.inf``
        degenerates to the identity.
    rng:
        Random generator (explicit for reproducibility).
    """

    def __init__(self, epsilon: float, rng: Optional[np.random.Generator] = None):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive (use math.inf for non-private)")
        self.epsilon = float(epsilon)
        self.rng = rng if rng is not None else np.random.default_rng()

    def scale(self, sensitivity: float) -> float:
        """Laplace scale parameter b = Δ/ε."""
        if sensitivity < 0:
            raise ValueError("sensitivity must be non-negative")
        if not math.isfinite(self.epsilon):
            return 0.0
        return sensitivity / self.epsilon

    def perturb_array(self, values: np.ndarray, sensitivity: float) -> np.ndarray:
        b = self.scale(sensitivity)
        if b == 0.0:
            return np.array(values, copy=True)
        return values + self.rng.laplace(0.0, b, size=values.shape)


class GaussianMechanism(Mechanism):
    """(ε, δ)-DP output perturbation with Gaussian noise.

    Uses the classic calibration ``σ = Δ · sqrt(2 ln(1.25/δ)) / ε`` (valid for
    ε ≤ 1; used here as an extension point mirroring the paper's future-work
    list of "more advanced DP methods").
    """

    def __init__(self, epsilon: float, delta: float = 1e-5, rng: Optional[np.random.Generator] = None):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.rng = rng if rng is not None else np.random.default_rng()

    def sigma(self, sensitivity: float) -> float:
        """Gaussian noise standard deviation for a given L2 sensitivity."""
        if sensitivity < 0:
            raise ValueError("sensitivity must be non-negative")
        if not math.isfinite(self.epsilon):
            return 0.0
        return sensitivity * math.sqrt(2.0 * math.log(1.25 / self.delta)) / self.epsilon

    def perturb_array(self, values: np.ndarray, sensitivity: float) -> np.ndarray:
        s = self.sigma(sensitivity)
        if s == 0.0:
            return np.array(values, copy=True)
        return values + self.rng.normal(0.0, s, size=values.shape)


def make_mechanism(
    epsilon: float, kind: str = "laplace", rng: Optional[np.random.Generator] = None, **kwargs
) -> Mechanism:
    """Factory: build a mechanism from a privacy budget.

    ``epsilon = math.inf`` (or ``None``) returns :class:`NoPrivacy` regardless
    of ``kind``, matching the paper's ε ∈ {3, 5, 10, ∞} sweeps.
    """
    if epsilon is None or (isinstance(epsilon, float) and math.isinf(epsilon)):
        return NoPrivacy()
    kind = kind.lower()
    if kind == "laplace":
        return LaplaceMechanism(epsilon, rng=rng)
    if kind == "gaussian":
        return GaussianMechanism(epsilon, rng=rng, **kwargs)
    raise ValueError(f"unknown mechanism kind {kind!r}")


def release_rows(lanes: Sequence, *blocks: Tuple[np.ndarray, float]) -> List[np.ndarray]:
    """Fresh copies of ``(X, Δ)`` row blocks, as they go on the wire.

    Under DP each lane (a client) perturbs its own rows with its own
    ``privatize`` — its mechanism and RNG — lane by lane and block by block,
    so every client draws its noise in its per-client order.
    """
    if not lanes[0].config.privacy.enabled:
        return [X.copy() for X, _ in blocks]
    out = [np.empty_like(X) for X, _ in blocks]
    for b, client in enumerate(lanes):
        for sent, (X, delta) in zip(out, blocks):
            sent[b] = client.privatize(X[b], delta)
    return out
