"""Microwave spectroscopy models for a driven qubit coupled to bright/dark
collective spin modes, plus the parameter-estimation pipeline built on them.

Unit convention: every frequency-like scalar is the x of "x * 2pi MHz".
"""

__version__ = "0.1.0"

from .core import (
    FrequencyGrid,
    SignalMap,
    Spectrum,
    SystemParams,
)
from .eigen import (
    EigenResult,
    build_h1,
    eigen_exact_resonant,
    eigen_numeric,
    eigen_perturbative,
    perturbation_guard,
)
from .errors import (
    DivergentResponse,
    HybridSpecError,
    NoInteriorPeak,
    NonPositiveGamma,
    NonUniqueSteadyState,
    NotConverged,
    PeaksNotResolved,
    PerturbationOutOfRange,
    PipelineStageError,
    PoleAtRealAxis,
    SolverFailure,
)
from .estimate import (
    PipelineResult,
    estimate_ratio,
    estimate_separation,
    fit_gammas,
    gamma_fq_from_t1,
    mhom_middle_peak_shift,
    run_pipeline,
    solve_g_j,
)
from .fitting import (
    LorentzianFitResult,
    Peak,
    find_peaks,
    fit_lorentzian,
    fwhm_vs_power,
    lorentzian_model,
    middle_peak_fwhm,
)
from .master_eq import (
    HilbertLayout,
    build_liouvillian,
    build_operators,
    build_rotating_hamiltonian,
    me_spectrum,
    qubit_excitation,
    steady_state,
    truncation_convergence,
)
from .mhom import (
    EnsembleSpec,
    MhomParams,
    Packets,
    SelfEnergy,
    mhom_response,
    sample_ensemble,
)
from .thom import thom_excitation, thom_peak_positions, thom_spectrum
