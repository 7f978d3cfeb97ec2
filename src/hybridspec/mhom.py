"""Many-harmonic-oscillator model: sampled inhomogeneous ensemble response.

Each packet is a bright/dark oscillator pair with its own frequencies and
bright-dark coupling; the qubit couples to every bright mode.  The response
is the closed-form frequency-domain solution of the Heisenberg-Langevin
equations, so the model is strictly linear in the drive (no power
broadening, by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import FrequencyGrid, Spectrum
from .errors import DivergentResponse, PeaksNotResolved
from .numerics import golden_section_max

_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

# complex elements in one (frequency x packet) block of the response (1 MB)
_BLOCK = 1 << 16


@dataclass(frozen=True)
class EnsembleSpec:
    """Statistical description of the inhomogeneous NV ensemble.

    FWHM widths are in the package frequency unit.  ``distribution`` selects
    the sampling shape for all continuous components: "gaussian" (default)
    or "lorentzian" (heavy-tailed, appropriate for dilute dipolar baths).
    ``hyperfine`` adds a discrete +-A/0 nitrogen nuclear-spin offset to the
    Zeeman coupling of each packet.
    """

    n_packets: int
    mean_zeeman: float
    fwhm_zeeman: float
    fwhm_strain: float
    fwhm_zfs: float
    collective_g: float
    omega_nv: float
    seed: int
    distribution: str = "gaussian"
    hyperfine: float = 0.0

    def __post_init__(self):
        if self.n_packets < 1:
            raise ValueError("n_packets must be >= 1")
        if self.collective_g <= 0:
            raise ValueError("collective_g must be > 0")
        for name in ("fwhm_zeeman", "fwhm_strain", "fwhm_zfs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.distribution not in ("gaussian", "lorentzian"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.hyperfine < 0:
            raise ValueError("hyperfine must be >= 0")

    def with_(self, **kwargs) -> "EnsembleSpec":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Packets:
    """Sampled ensemble realization, one array entry per packet."""

    zeta: np.ndarray      # qubit coupling, sum(zeta^2) = collective_g^2
    omega_b: np.ndarray   # bright frequency D_k - E1_k
    omega_d: np.ndarray   # dark frequency D_k + E1_k
    j_zeeman: np.ndarray  # Zeeman bright-dark coupling
    j_strain: np.ndarray  # strain bright-dark coupling E2_k

    def __len__(self):
        return len(self.zeta)


@dataclass(frozen=True)
class MhomParams:
    """Qubit-side parameters of the ensemble response."""

    omega_fq: float
    gamma_fq: float
    gamma_b: float
    gamma_d: float
    lam: float = 1.0

    def with_(self, **kwargs) -> "MhomParams":
        return replace(self, **kwargs)


def sample_ensemble(spec: EnsembleSpec) -> Packets:
    """Draw a deterministic packet realization for the given seed."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_packets

    def draw(mean, fwhm):
        if spec.distribution == "gaussian":
            return rng.normal(mean, fwhm * _FWHM_TO_SIGMA, n)
        return mean + 0.5 * fwhm * rng.standard_cauchy(n)

    d_k = draw(spec.omega_nv, spec.fwhm_zfs)
    e1 = draw(0.0, spec.fwhm_strain)
    e2 = draw(0.0, spec.fwhm_strain)
    hf = 0.0
    if spec.hyperfine > 0.0:
        hf = spec.hyperfine * rng.integers(-1, 2, n)
    j_zeeman = hf + draw(spec.mean_zeeman, spec.fwhm_zeeman)
    zeta = np.full(n, spec.collective_g / np.sqrt(n))
    return Packets(zeta=zeta, omega_b=d_k - e1, omega_d=d_k + e1,
                   j_zeeman=j_zeeman, j_strain=e2)


def mhom_amplitude(packets: Packets, params: MhomParams, omega):
    """Complex steady-state qubit amplitude c at scalar or array omega."""
    if len(packets) == 0:
        raise ValueError("packets must be nonempty")
    omegas = np.asarray(omega, dtype=float)
    flat = omegas.reshape(-1)
    j2 = packets.j_zeeman ** 2 + packets.j_strain ** 2
    zeta2 = packets.zeta ** 2
    self_energy = np.empty(flat.shape, dtype=complex)
    rows = max(1, _BLOCK // len(packets))
    for k in range(0, len(flat), rows):
        w = flat[k:k + rows, None]
        num = w - packets.omega_d + 1j * params.gamma_d
        den = (w - packets.omega_b + 1j * params.gamma_b) * num - j2
        if np.any(np.abs(den) < 1e-300):
            raise DivergentResponse("packet denominator vanished")
        self_energy[k:k + rows] = np.sum(zeta2 * num / den, axis=1)
    w = flat - params.omega_fq + 1j * params.gamma_fq - self_energy
    if np.any(np.abs(w) < 1e-300):
        raise DivergentResponse("qubit response denominator vanished")
    c = (params.lam / 2.0) / w
    return complex(c[0]) if omegas.ndim == 0 else c.reshape(omegas.shape)


def mhom_response(packets: Packets, params: MhomParams, omega):
    """Qubit excitation |c|^2 at scalar or array omega."""
    c = np.asarray(mhom_amplitude(packets, params, omega))
    # the scalar path's modulus and square: np.abs on a complex array takes
    # a SIMD path and ** 2 on an array multiplies, each moving the last bit
    out = np.float_power(np.hypot(c.real, c.imag), 2)
    return float(out) if out.ndim == 0 else out


def mhom_spectrum(packets: Packets, params: MhomParams,
                  grid: FrequencyGrid) -> Spectrum:
    return Spectrum(grid=grid, values=mhom_response(packets, params,
                                                    grid.points()),
                    model_tag="MHOM", params_snapshot=params)


def locate_peak(packets: Packets, params: MhomParams, lo: float, hi: float,
                n_scan: int = 401, require_interior: bool = True) -> float:
    """Coarse scan plus golden-section refinement of one local maximum."""
    omegas = np.linspace(lo, hi, n_scan)
    vals = mhom_response(packets, params, omegas)
    i = int(np.argmax(vals))
    if require_interior and (i == 0 or i == len(omegas) - 1):
        raise PeaksNotResolved(f"no interior maximum in [{lo}, {hi}]")
    h = omegas[1] - omegas[0]
    f = lambda w: mhom_response(packets, params, w)
    return golden_section_max(f, omegas[i] - h, omegas[i] + h)


def mhom_middle_peak_shift(spec: EnsembleSpec, params: MhomParams,
                           delta_list, packets: Packets = None) -> list:
    """Middle-peak frequency shift versus qubit detuning.

    For each detuning the qubit is set to omega_nv + delta and the middle
    peak is tracked near omega_nv.  Detunings must stay within
    |delta| <= 0.8*collective_g, inside which the shift is still linear.
    ``packets`` is the realization of ``spec``; it is sampled when omitted.
    """
    guard = 0.8 * spec.collective_g
    for d in delta_list:
        if abs(d) > guard:
            raise PeaksNotResolved(
                f"detuning {d} outside perturbative range (guard {guard})"
            )
    if packets is None:
        packets = sample_ensemble(spec)
    out = []
    for d in delta_list:
        p = params.with_(omega_fq=spec.omega_nv + d)
        lo = spec.omega_nv - 0.3 * abs(d) - 0.5
        hi = spec.omega_nv + 0.3 * abs(d) + 0.5
        w_mid = locate_peak(packets, p, lo, hi)
        out.append((d, w_mid - spec.omega_nv))
    return out
