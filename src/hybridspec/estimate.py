"""Parameter-estimation pipeline: ensemble statistics to effective-model rates.

The chain is: qubit decay from T1, side-peak separation giving
2*sqrt(g^2+j^2), middle-peak detuning slope giving j^2/(g^2+j^2), algebraic
solve for (g, j), then a lineshape fit of the three-oscillator model against
the sampled-ensemble spectrum for (gamma_b, gamma_d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FrequencyGrid, SystemParams
from .errors import (
    HybridSpecError,
    NonPositiveGamma,
    PipelineStageError,
)
from .mhom import (
    EnsembleSpec,
    MhomParams,
    SelfEnergy,
    locate_peak,
    mhom_middle_peak_shift,
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
    if not t1_us > 0:
        raise ValueError(f"T1 must be > 0, got {t1_us}")
    return 1.0 / (2.0 * t1_us)


def estimate_separation(spec: EnsembleSpec, params: MhomParams,
                        packets=None, report: dict = None) -> float:
    """Side-peak separation of the resonant ensemble spectrum.

    Locates the left and right peaks in windows scaled by the collective
    coupling; the separation estimates twice the total coupling
    sqrt(g^2 + j^2).  ``packets`` is the realization of ``spec``, or a
    SelfEnergy built from it at params' damping.  Both peaks are located
    in one locate_peak call, which fills ``report``.
    """
    if packets is None:
        packets = sample_ensemble(spec)
    cg = spec.collective_g
    w_left, w_right = locate_peak(packets, params, [
        (params.omega_fq, spec.omega_nv - 2.0 * cg, spec.omega_nv - 0.4 * cg),
        (params.omega_fq, spec.omega_nv + 0.4 * cg, spec.omega_nv + 2.0 * cg),
    ], report)
    return w_right - w_left


def estimate_ratio(spec: EnsembleSpec, params: MhomParams,
                   deltas=DEFAULT_DELTAS, packets=None,
                   report: dict = None) -> tuple:
    """Middle-peak shift slope through the origin, an estimate of
    j^2/(g^2+j^2).

    Returns (slope, residual_norm) of the one-parameter least squares
    shift = slope * delta; ``report`` as in mhom_middle_peak_shift.
    """
    deltas = tuple(float(d) for d in deltas)
    if len(deltas) < 3:
        raise ValueError("need at least 3 detunings for the slope fit")
    shifts = mhom_middle_peak_shift(spec, params, deltas, packets=packets,
                                    report=report)
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


def fit_gammas(spec: EnsembleSpec, fixed: dict, grid: FrequencyGrid,
               packets=None, gamma_nv: float = None,
               report: dict = None) -> tuple:
    """Fit (gamma_b, gamma_d) of the three-oscillator lineshape to the
    sampled-ensemble spectrum.

    Both spectra are normalized to unit peak before the least-squares
    comparison, so only the lineshape matters.  ``fixed`` supplies g, j and
    gamma_fq.  Initial guess: the strain and zero-field FWHM widths.
    ``gamma_nv`` is the per-packet damping rate of the reference model;
    it defaults to the zero-field width, which doubles as the intrinsic
    linewidth.  ``packets`` may also be a SelfEnergy built at that
    damping.  Returns (gamma_b, gamma_d, residual_norm); ``report``, a dict
    updated in place, receives the fit's ``lm_iterations`` and
    ``converged`` flag.
    """
    if packets is None:
        packets = sample_ensemble(spec)
    if gamma_nv is None:
        gamma_nv = spec.fwhm_zfs
    mparams = MhomParams(
        omega_fq=spec.omega_nv, gamma_fq=fixed["gamma_fq"],
        gamma_b=gamma_nv, gamma_d=gamma_nv,
    )
    omegas = grid.points()
    ref = mhom_response(packets, mparams, omegas)
    peak = ref.max()
    if peak <= 0:
        raise NonPositiveGamma("reference spectrum is identically zero")
    ref = ref / peak

    base = SystemParams(
        omega_fq=spec.omega_nv, omega_nv=spec.omega_nv,
        g=fixed["g"], j=fixed["j"], gamma_fq=fixed["gamma_fq"],
        gamma_b=1.0, gamma_d=1.0,
    )

    def residual(x):
        p = base.with_(gamma_b=abs(x[0]), gamma_d=abs(x[1]))
        model = thom_excitation(p, omegas)
        return model / model.max() - ref

    x0 = np.array([max(spec.fwhm_strain, gamma_nv),
                   max(spec.fwhm_zfs, gamma_nv)])
    x, cost, n_iter, converged = damped_least_squares(residual, x0)
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
    omega_nv +- 2.3*collective_g.  The ensemble's SelfEnergy is built once
    and serves every stage; ``provenance["stages"]`` counts, per stage, the
    MHOM frequencies evaluated and the golden-section evaluations (the
    frequencies of the peak refinements), and for fit_gammas the fit's
    iterations and convergence.
    """
    if gamma_nv is None:
        gamma_nv = spec.fwhm_zfs
    if grid is None:
        half = 2.3 * spec.collective_g
        grid = FrequencyGrid(spec.omega_nv - half, spec.omega_nv + half, 1201)

    def stage(tag, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (HybridSpecError, ValueError, np.linalg.LinAlgError) as exc:
            raise PipelineStageError(tag, exc) from exc

    stages = {}

    def counted(tag, fn, *args, **kwargs):
        """stage(), recording its report (fit_gammas' fit, the peak
        stages' golden-section evaluations) and the MHOM frequencies it
        evaluated."""
        before = sigma.n_frequencies
        report = {}
        out = stage(tag, fn, *args, report=report, **kwargs)
        golden = report.pop("golden_section_evaluations", 0)
        stages[tag] = dict(report,
                           mhom_frequencies=sigma.n_frequencies - before,
                           golden_section_evaluations=golden)
        return out

    gamma_fq = stage("gamma_fq", gamma_fq_from_t1, t1_us)
    packets = stage("sampling", sample_ensemble, spec)
    sigma = stage("sampling", SelfEnergy, packets, gamma_nv, gamma_nv)
    params = MhomParams(
        omega_fq=spec.omega_nv, gamma_fq=gamma_fq,
        gamma_b=gamma_nv, gamma_d=gamma_nv,
    )
    separation = counted("separation", estimate_separation, spec, params,
                         packets=sigma)
    ratio, slope_residual = counted("ratio", estimate_ratio, spec, params,
                                    deltas=deltas, packets=sigma)
    g, j = stage("solve_g_j", solve_g_j, separation, ratio)
    gamma_b, gamma_d, gamma_residual = counted(
        "fit_gammas", fit_gammas, spec,
        {"g": g, "j": j, "gamma_fq": gamma_fq}, grid, packets=sigma,
        gamma_nv=gamma_nv,
    )
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
            "stages": stages,
        },
    )
