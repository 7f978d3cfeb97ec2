"""Shared parameter records, frequency grids, spectra and the signal map.

Unit convention: every frequency-like quantity (transition frequencies,
couplings, decay rates, detunings, drive amplitude) is stored as the scalar
x of "x * 2pi MHz".  All formulas in this package are homogeneous in that
unit, so no 2pi factors appear anywhere.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np


def _require_finite(name: str, value: float) -> None:
    """A finite real number (Python or numpy, not bool)."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        finite = math.isfinite(value)
    except TypeError:
        raise TypeError(f"{name} must be a number, got {value!r}") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_nonneg(name: str, value: float) -> None:
    _require_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def _require_int(name: str, value: int, minimum: int) -> None:
    """An integer (Python or numpy, not bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Effective model parameters shared by THOM, MHOM and the master equation.

    ``lam`` is the drive amplitude (called lambda in the formulas).
    """

    omega_fq: float
    omega_nv: float
    g: float
    j: float
    theta: float = 0.0
    gamma_fq: float = 0.0
    gamma_b: float = 0.0
    gamma_d: float = 0.0
    lam: float = 1.0

    def __post_init__(self):
        _require_finite("omega_fq", self.omega_fq)
        _require_finite("omega_nv", self.omega_nv)
        _require_finite("theta", self.theta)
        for name in ("g", "j", "gamma_fq", "gamma_b", "gamma_d", "lam"):
            _require_nonneg(name, getattr(self, name))

    def detuning(self) -> float:
        """omega_fq - omega_nv (derived, never stored)."""
        return self.omega_fq - self.omega_nv

    def with_(self, **kwargs) -> "SystemParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class FrequencyGrid:
    start: float
    stop: float
    n_points: int

    def __post_init__(self):
        _require_finite("start", self.start)
        _require_finite("stop", self.stop)
        _require_finite("stop - start", self.stop - self.start)
        _require_int("n_points", self.n_points, 2)
        if not self.start < self.stop:
            raise ValueError("grid requires start < stop")

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.n_points)

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.n_points - 1)


@dataclass(frozen=True)
class Spectrum:
    """Per-frequency response values plus provenance.

    ``values`` holds the raw qubit excitation (<sigma+ sigma-> or <c^dag c>),
    not a switching probability; apply a SignalMap to convert.
    """

    grid: FrequencyGrid
    values: np.ndarray
    model_tag: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"values length {values.shape} does not match grid n_points "
                f"{self.grid.n_points}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrum values must be finite")

    def frequencies(self) -> np.ndarray:
        return self.grid.points()


@dataclass(frozen=True)
class SignalMap:
    """Affine map from excitation to switching probability: s(v) = offset - scale*v."""

    scale: float
    offset: float

    def __post_init__(self):
        _require_nonneg("scale", self.scale)
        _require_finite("offset", self.offset)

    def __call__(self, values):
        return self.offset - self.scale * np.asarray(values, dtype=float)
