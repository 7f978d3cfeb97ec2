"""Lorentzian peak fitting, peak finding and FWHM-vs-power sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FrequencyGrid, Spectrum
from .errors import NoInteriorPeak
from .numerics import damped_least_squares


@dataclass(frozen=True)
class LorentzianFitResult:
    a: float
    gamma: float          # HWHM
    omega_center: float
    c: float
    residual_norm: float
    converged: bool
    n_iterations: int

    @property
    def fwhm(self) -> float:
        return 2.0 * self.gamma


@dataclass(frozen=True)
class Peak:
    omega: float
    height: float
    classification: str = None  # "LEFT" | "MIDDLE" | "RIGHT" | None


def lorentzian_model(a: float, gamma: float, omega_center: float, c: float,
                     omega) -> np.ndarray:
    """a*gamma^2 / ((omega - omega_center)^2 + gamma^2) + c."""
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    omega = np.asarray(omega, dtype=float)
    return a * gamma ** 2 / ((omega - omega_center) ** 2 + gamma ** 2) + c


def _lorentzian_residual_jacobian(x, omegas, data):
    a, gamma, w0, c = x
    dw = omegas - w0
    denom = dw ** 2 + gamma ** 2
    model = a * gamma ** 2 / denom + c
    jac = np.empty((len(omegas), 4))
    jac[:, 0] = gamma ** 2 / denom
    jac[:, 1] = 2.0 * a * gamma * dw ** 2 / denom ** 2
    jac[:, 2] = 2.0 * a * gamma ** 2 * dw / denom ** 2
    jac[:, 3] = 1.0
    return model - data, jac


def fit_lorentzian(spec: Spectrum, window: tuple) -> LorentzianFitResult:
    """Fit a single Lorentzian to the spectrum restricted to a window.

    Initial guess: center at the argmax, amplitude max-min, offset min,
    HWHM from the half-maximum crossing.
    """
    omegas = spec.frequencies()
    mask = (omegas >= window[0]) & (omegas <= window[1])
    omegas = omegas[mask]
    data = spec.values[mask]
    if len(omegas) < 8:
        raise NoInteriorPeak(f"window contains {len(omegas)} points, need >= 8")
    i = int(np.argmax(data))
    if i == 0 or i == len(data) - 1:
        raise NoInteriorPeak("maximum sits on the window boundary")

    a0 = data[i] - data.min()
    c0 = float(data.min())
    half = c0 + 0.5 * a0
    above = data >= half
    gamma0 = 0.5 * (omegas[above][-1] - omegas[above][0])
    gamma0 = max(gamma0, 0.5 * (omegas[1] - omegas[0]))
    x0 = np.array([a0, gamma0, omegas[i], c0])

    residual = lambda x: _lorentzian_residual_jacobian(x, omegas, data)[0]
    jacobian = lambda x: _lorentzian_residual_jacobian(x, omegas, data)[1]
    x, cost, n_iter, converged = damped_least_squares(residual, x0,
                                                      jacobian=jacobian)
    a, gamma, w0, c = x
    return LorentzianFitResult(
        a=float(a), gamma=float(abs(gamma)), omega_center=float(w0),
        c=float(c), residual_norm=float(np.sqrt(2.0 * cost)),
        converged=converged, n_iterations=n_iter,
    )


def _flank_minima(v: list) -> list:
    """For each i, the minimum of v from the nearest earlier point higher
    than v[i] up to i (that point included, i excluded), or of all of v[:i]
    when no earlier point is higher.  One pass over a stack of [value,
    minimum from that point up to the next entry], each entry higher than
    the ones above it, on an unbeatable bottom entry for the prefix."""
    out = []
    stack = [[float("inf"), float("inf")]]
    for x in v:
        low = float("inf")
        while stack[-1][0] <= x:
            low = min(low, stack.pop()[1])
        stack[-1][1] = min(stack[-1][1], low)
        out.append(stack[-1][1])
        stack.append([x, x])
    return out


def _prominences(values) -> list:
    """(index, prominence) of each strict local maximum (3-point test).

    Prominence is the height above the higher of the two flanking minima,
    each the lowest point between the peak and its nearest strictly higher
    point on that side (that point included), or the array's end."""
    v = [float(x) for x in values]
    left = _flank_minima(v)
    right = _flank_minima(v[::-1])[::-1]
    return [(i, v[i] - max(left[i], right[i])) for i in range(1, len(v) - 1)
            if v[i] > v[i - 1] and v[i] > v[i + 1]]


def find_peaks(spec: Spectrum, min_prominence: float = None) -> list:
    """Local maxima (3-point test) filtered by prominence.

    Prominence is the height above the higher of the two flanking minima
    (the lowest points between the peak and its taller neighbors or the
    window edges).  Default threshold: 2% of the global maximum.  With
    exactly three surviving peaks they are classified LEFT/MIDDLE/RIGHT
    in frequency order.
    """
    v = spec.values
    if min_prominence is None:
        min_prominence = 0.02 * float(v.max())
    omegas = spec.frequencies()
    peaks = [Peak(omega=float(omegas[i]), height=float(v[i]))
             for i, prominence in _prominences(v)
             if prominence >= min_prominence]
    if len(peaks) == 3:
        labels = ("LEFT", "MIDDLE", "RIGHT")
        peaks = [
            Peak(p.omega, p.height, lab) for p, lab in zip(peaks, labels)
        ]
    return peaks


def middle_peak_fwhm(spectrum_fn, omega_nv: float, gamma_guess: float,
                     n_points: int = 241) -> LorentzianFitResult:
    """Fit the middle peak with a self-consistent window.

    Starts from omega_nv +- 3*gamma_guess, fits, re-windows at 3 times the
    fitted HWHM and fits once more.  The second window is never wider than
    the first: a fit wider than its window would reach the side peaks.
    When 3 times the first HWHM reaches the first window's edge, the
    second window would be the first again, and the first fit is returned.
    """
    half = 3.0 * gamma_guess
    for _ in range(2):
        grid = FrequencyGrid(omega_nv - half, omega_nv + half, n_points)
        spec = Spectrum(grid=grid, values=spectrum_fn(grid.points()),
                        model_tag="WINDOW")
        result = fit_lorentzian(spec, (grid.start, grid.stop))
        if 3.0 * result.gamma >= half:
            break
        half = 3.0 * result.gamma
    return result


def fwhm_vs_power(excitation_at, lambdas, omega_nv: float,
                  gamma_guess: float, report: dict = None) -> list:
    """Middle-peak FWHM for each drive amplitude.

    ``excitation_at(lam)`` returns the model's excitation at that drive, a
    callable omegas -> values.  Returns (lambda, fwhm, converged) triples;
    a window without an interior peak gives (lambda, None, False) and the
    sweep goes on.  ``report``, a dict updated in place, receives
    ``failures``: one {lambda, reason} per failed fit, in the order of
    ``lambdas``.
    """
    results, failures = [], []
    for lam in lambdas:
        if lam <= 0:
            raise ValueError("drive amplitudes must be > 0")
        try:
            fit = middle_peak_fwhm(excitation_at(lam), omega_nv, gamma_guess)
            results.append((lam, fit.fwhm, fit.converged))
        except NoInteriorPeak as exc:
            results.append((lam, None, False))
            failures.append({"lambda": lam, "reason": str(exc)})
    if report is not None:
        report.update(failures=failures)
    return results
