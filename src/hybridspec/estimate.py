"""Parameter-estimation pipeline: ensemble statistics to effective-model rates.

The chain is: qubit decay from T1, side-peak separation giving
2*sqrt(g^2+j^2), middle-peak detuning slope giving j^2/(g^2+j^2), algebraic
solve for (g, j), then a lineshape fit of the three-oscillator model against
the sampled-ensemble spectrum for (gamma_b, gamma_d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FrequencyGrid, SystemParams, _require_finite
from .errors import (
    HybridSpecError,
    NonPositiveGamma,
    NotConverged,
    PeaksNotResolved,
    PipelineStageError,
)
from .mhom import (
    EnsembleSpec,
    MhomParams,
    SelfEnergy,
    locate_peak,
    mhom_response,
    sample_ensemble,
)
from .numerics import damped_least_squares
from .thom import thom_excitation

DEFAULT_DELTAS = (2.0, 4.0, 6.0, 8.0, 10.0)


@dataclass(frozen=True)
class PipelineResult:
    g: float
    j: float
    gamma_fq: float
    gamma_b: float
    gamma_d: float
    intermediate: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)


def gamma_fq_from_t1(t1_us: float) -> float:
    """Qubit decay rate 1/(2*T1) from an energy-relaxation time in us."""
    _require_finite("t1_us", t1_us)
    if not (t1_us > 0 and np.isfinite(1.0 / (2.0 * t1_us))):
        raise ValueError(f"T1 must be > 0 with a finite 1/(2*T1), got {t1_us}")
    return 1.0 / (2.0 * t1_us)


def slope_deltas(deltas) -> tuple:
    """The detunings of the middle-peak slope fit as floats: finite numbers
    (not bools or strings), at least 3, not all zero."""
    deltas = tuple(deltas)
    for d in deltas:
        _require_finite("delta", d)
    if len(deltas) < 3:
        raise ValueError("need at least 3 detunings for the slope fit")
    if not any(deltas):
        raise ValueError("the detunings must not all be zero")
    return tuple(map(float, deltas))


def estimate_separation(spec: EnsembleSpec, params: MhomParams,
                        sigma: SelfEnergy, report: dict = None) -> float:
    """Side-peak separation of the resonant ensemble spectrum.

    Locates the left and right peaks in windows scaled by the collective
    coupling; the separation estimates twice the total coupling
    sqrt(g^2 + j^2).  ``sigma`` is the self-energy of the realization of
    ``spec`` at params' damping.  Both peaks are located in one locate_peak
    call, which fills ``report``.
    """
    cg = spec.collective_g
    w_left, w_right = locate_peak(sigma, params, [
        (params.omega_fq, spec.omega_nv - 2.0 * cg, spec.omega_nv - 0.4 * cg),
        (params.omega_fq, spec.omega_nv + 0.4 * cg, spec.omega_nv + 2.0 * cg),
    ], report)
    return w_right - w_left


def mhom_middle_peak_shift(spec: EnsembleSpec, params: MhomParams,
                           sigma: SelfEnergy, delta_list,
                           report: dict = None) -> list:
    """Middle-peak frequency shift versus qubit detuning.

    For each detuning the qubit is set to omega_nv + delta and the middle
    peak is tracked near omega_nv.  Detunings must stay within
    |delta| <= 0.8*collective_g, inside which the shift is still linear.
    ``sigma`` as in estimate_separation.  The peaks are located in one
    locate_peak call, which fills ``report``.
    """
    guard = 0.8 * spec.collective_g
    for d in delta_list:
        if abs(d) > guard:
            raise PeaksNotResolved(
                f"detuning {d} outside perturbative range (guard {guard})"
            )
    windows = [(params.with_(omega_fq=spec.omega_nv + d).omega_fq,
                spec.omega_nv - 0.3 * abs(d) - 0.5,
                spec.omega_nv + 0.3 * abs(d) + 0.5) for d in delta_list]
    peaks = locate_peak(sigma, params, windows, report)
    return [(d, w_mid - spec.omega_nv) for d, w_mid in zip(delta_list, peaks)]


def estimate_ratio(spec: EnsembleSpec, params: MhomParams, sigma: SelfEnergy,
                   deltas=DEFAULT_DELTAS, report: dict = None) -> tuple:
    """Middle-peak shift slope through the origin, an estimate of
    j^2/(g^2+j^2).

    Returns (slope, residual_norm) of the one-parameter least squares
    shift = slope * delta; ``sigma`` and ``report`` as in
    mhom_middle_peak_shift.
    """
    deltas = slope_deltas(deltas)
    shifts = mhom_middle_peak_shift(spec, params, sigma, deltas, report)
    d = np.array([p[0] for p in shifts])
    s = np.array([p[1] for p in shifts])
    slope = float(d @ s / (d @ d))
    residual = float(np.linalg.norm(s - slope * d))
    return slope, residual


def solve_g_j(separation: float, ratio: float) -> tuple:
    """Invert separation = 2*sqrt(g^2+j^2), ratio = j^2/(g^2+j^2)."""
    if not separation > 0:
        raise ValueError(f"separation must be > 0, got {separation}")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    s = separation / 2.0
    return s * np.sqrt(1.0 - ratio), s * np.sqrt(ratio)


def fit_gammas(spec: EnsembleSpec, params: MhomParams, sigma: SelfEnergy,
               g: float, j: float, grid: FrequencyGrid,
               report: dict = None) -> tuple:
    """Fit (gamma_b, gamma_d) of the three-oscillator lineshape to the
    sampled-ensemble spectrum.

    The reference is the ensemble response at ``params`` (``sigma`` as in
    estimate_separation); the model has couplings g, j and params' qubit.
    Both spectra are normalized to unit peak before the least-squares
    comparison, so only the lineshape matters.  Initial guess: the strain
    and zero-field FWHM widths, or the packet damping where it is larger.
    Returns (gamma_b, gamma_d, residual_norm), or raises NotConverged;
    ``report``, a dict updated in place, receives the fit's
    ``lm_iterations`` and ``converged`` flag.
    """
    omegas = grid.points()
    ref = mhom_response(sigma, params, omegas)
    peak = ref.max()
    if peak <= 0:
        raise NonPositiveGamma("reference spectrum is identically zero")
    ref = ref / peak

    base = SystemParams(
        omega_fq=params.omega_fq, omega_nv=spec.omega_nv, g=g, j=j,
        gamma_fq=params.gamma_fq, gamma_b=1.0, gamma_d=1.0,
    )

    def residual(x):
        p = base.with_(gamma_b=abs(x[0]), gamma_d=abs(x[1]))
        model = thom_excitation(p, omegas)
        return model / model.max() - ref

    x0 = np.array([max(spec.fwhm_strain, params.gamma_b),
                   max(spec.fwhm_zfs, params.gamma_d)])
    x, cost, n_iter, converged = damped_least_squares(residual, x0)
    if not converged:
        raise NotConverged(f"no convergence in {n_iter} iterations")
    if report is not None:
        report.update(lm_iterations=n_iter, converged=converged)
    gamma_b, gamma_d = abs(float(x[0])), abs(float(x[1]))
    if gamma_b <= 0 or gamma_d <= 0:
        raise NonPositiveGamma(
            f"fit collapsed to gamma_b={gamma_b}, gamma_d={gamma_d}"
        )
    return gamma_b, gamma_d, float(np.sqrt(2.0 * cost))


def run_pipeline(spec: EnsembleSpec, t1_us: float,
                 grid: FrequencyGrid = None,
                 deltas=DEFAULT_DELTAS,
                 gamma_nv: float = None) -> PipelineResult:
    """Full estimation chain; aborts at the first failing stage.

    ``gamma_nv`` overrides the per-packet damping rate (default: the
    zero-field width).  The default fitting grid spans
    omega_nv +- 2.3*collective_g.  The ensemble is sampled once, here; its
    SelfEnergy and one MhomParams (qubit at omega_nv, packets damped by
    gamma_nv) serve every stage.  ``provenance["stages"]`` counts, per
    stage, the MHOM frequencies evaluated and the golden-section
    evaluations (the frequencies of the peak refinements), and for
    fit_gammas the fit's iterations and convergence.
    """
    if gamma_nv is None:
        gamma_nv = spec.fwhm_zfs

    def stage(tag, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (HybridSpecError, ValueError, np.linalg.LinAlgError) as exc:
            raise PipelineStageError(tag, exc) from exc

    if grid is None:
        half = 2.3 * spec.collective_g
        grid = stage("fit_gammas", FrequencyGrid, spec.omega_nv - half,
                     spec.omega_nv + half, 1201)

    stages = {}

    def counted(tag, fn, *args):
        """stage(), recording its report (fit_gammas' fit, the peak
        stages' golden-section evaluations) and the MHOM frequencies it
        evaluated."""
        before = sigma.n_frequencies
        report = {}
        out = stage(tag, fn, *args, report=report)
        golden = report.pop("golden_section_evaluations", 0)
        stages[tag] = dict(report,
                           mhom_frequencies=sigma.n_frequencies - before,
                           golden_section_evaluations=golden)
        return out

    gamma_fq = stage("gamma_fq", gamma_fq_from_t1, t1_us)
    params = MhomParams(
        omega_fq=spec.omega_nv, gamma_fq=gamma_fq,
        gamma_b=gamma_nv, gamma_d=gamma_nv,
    )
    packets = stage("sampling", sample_ensemble, spec)
    sigma = stage("sampling", SelfEnergy, packets, params.gamma_b,
                  params.gamma_d)
    separation = counted("separation", estimate_separation, spec, params,
                         sigma)
    ratio, slope_residual = counted("ratio", estimate_ratio, spec, params,
                                    sigma, deltas)
    g, j = stage("solve_g_j", solve_g_j, separation, ratio)
    gamma_b, gamma_d, gamma_residual = counted(
        "fit_gammas", fit_gammas, spec, params, sigma, g, j, grid)
    return PipelineResult(
        g=g, j=j, gamma_fq=gamma_fq, gamma_b=gamma_b, gamma_d=gamma_d,
        intermediate={
            "separation": separation,
            "ratio": ratio,
            "slope_fit_residual": slope_residual,
            "gamma_fit_residual": gamma_residual,
        },
        provenance={
            "seed": spec.seed,
            "n_packets": spec.n_packets,
            "deltas": list(deltas),
            "grid": {"start": grid.start, "stop": grid.stop,
                     "n_points": grid.n_points},
            "t1_us": t1_us,
            "gamma_nv": gamma_nv,
            "stages": stages,
        },
    )
