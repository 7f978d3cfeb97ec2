"""Three-harmonic-oscillator steady-state response (the weak-drive model).

The qubit, bright and dark modes are damped oscillators; the closed-form
excitation is used both as a cheap simulator and as the fitting function of
the parameter-estimation pipeline.
"""

from __future__ import annotations

import numpy as np

from .core import FrequencyGrid, Spectrum, SystemParams
from .errors import PeaksNotResolved, PoleAtRealAxis
from .numerics import golden_section_max

_POLE_TOL = 1e-300
# frequencies per block of thom_excitation: its complex temporaries stay
# near 0.13 MB each, whatever the number of frequencies
_BLOCK = 8192


def thom_amplitude(params: SystemParams, omega) -> np.ndarray:
    """Complex steady-state amplitude of the qubit mode divided by (lambda/2)."""
    omega = np.asarray(omega, dtype=float)
    wpn = params.omega_nv - omega
    wpc = params.omega_fq - omega
    num = (1j * params.gamma_b - wpn) * (1j * params.gamma_d - wpn) - params.j ** 2
    den = (1j * params.gamma_fq - wpc) * num - params.g ** 2 * (
        1j * params.gamma_d - wpn
    )
    if np.any(np.abs(den) < _POLE_TOL):
        raise PoleAtRealAxis("drive frequency sits on a lossless eigenfrequency")
    return num / den


def thom_excitation(params: SystemParams, omega):
    """Qubit excitation (lambda/2)^2 |N/D|^2 at scalar or array omega.

    Independent of theta; scales exactly as lambda^2.  The frequencies
    are evaluated _BLOCK at a time, and a scalar as a one-element array,
    so every frequency has the bits of its own call.
    """
    omegas = np.asarray(omega, dtype=float)
    flat = omegas.reshape(-1)
    out = np.empty(flat.shape)
    for k in range(0, len(flat), _BLOCK):
        amp = thom_amplitude(params, flat[k:k + _BLOCK])
        out[k:k + _BLOCK] = (params.lam / 2.0) ** 2 * np.abs(amp) ** 2
    return float(out[0]) if omegas.ndim == 0 else out.reshape(omegas.shape)


def thom_spectrum(params: SystemParams, grid: FrequencyGrid) -> Spectrum:
    values = thom_excitation(params, grid.points())
    return Spectrum(grid=grid, values=values, model_tag="THOM")


def thom_peak_positions(params: SystemParams) -> tuple:
    """Locate the three local maxima (left, middle, right).

    Coarse scan with step <= gamma_d/5 followed by golden-section refinement.
    Requires resolved peaks: g at least 3 times every effective peak
    half-width (the side peaks inherit the average of the qubit and bright
    rates, the middle peak the dark rate).
    """
    gmax = max(params.gamma_fq, params.gamma_d,
               0.5 * (params.gamma_fq + params.gamma_b))
    if params.g < 3.0 * gmax:
        raise ValueError(
            f"peak finding requires g >= 3*max(peak half-widths); "
            f"g={params.g}, max half-width={gmax}"
        )
    splitting = np.hypot(params.g, params.j)
    center = 0.5 * (params.omega_fq + params.omega_nv)
    half_span = 1.5 * splitting + 3.0 * gmax
    step = min(params.gamma_d, params.gamma_fq, params.gamma_b) / 5.0
    step = max(step, half_span / 2e5)  # cap the scan size for tiny gammas
    n = int(np.ceil(2 * half_span / step)) + 1
    omegas = np.linspace(center - half_span, center + half_span, n)
    vals = thom_excitation(params, omegas)

    # ">=" on the right accepts the left edge of a two-sample plateau, which
    # occurs when the scan grid straddles a peak symmetrically
    interior = (vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])
    idx = np.flatnonzero(interior) + 1
    if len(idx) < 3:
        raise PeaksNotResolved(f"found {len(idx)} local maxima, need 3")
    # keep the three highest, in frequency order
    idx = np.sort(idx[np.argsort(vals[idx])[-3:]])

    f = lambda x, _lanes: thom_excitation(params, x)
    h = omegas[1] - omegas[0]
    return tuple(golden_section_max(f, omegas[idx] - h, omegas[idx] + h))
