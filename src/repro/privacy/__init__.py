"""Differential-privacy mechanisms, sensitivity rules, clipping, and accounting."""

from .accountant import PrivacyAccountant, dispatch_fingerprint
from .clipping import clip_by_norm, clip_rows, clip_state_by_global_norm, global_norm
from .mechanisms import (
    GaussianMechanism,
    LaplaceMechanism,
    Mechanism,
    NoPrivacy,
    make_mechanism,
    release_rows,
)
from .sensitivity import FedAvgSensitivity, FixedSensitivity, IADMMSensitivity, SensitivityRule

__all__ = [
    "Mechanism",
    "NoPrivacy",
    "LaplaceMechanism",
    "GaussianMechanism",
    "make_mechanism",
    "release_rows",
    "SensitivityRule",
    "IADMMSensitivity",
    "FedAvgSensitivity",
    "FixedSensitivity",
    "clip_by_norm",
    "clip_rows",
    "clip_state_by_global_norm",
    "global_norm",
    "PrivacyAccountant",
    "dispatch_fingerprint",
]
