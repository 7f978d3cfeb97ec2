import tracemalloc

import numpy as np
import pytest

from hybridspec import (EnsembleSpec, MhomParams, SelfEnergy, SystemParams,
                         sample_ensemble)

OMEGA_NV = 2878.0

# Parameters of the reference three-peak spectrum (resonant qubit).
REFERENCE_PARAMS = SystemParams(
    omega_fq=OMEGA_NV, omega_nv=OMEGA_NV, g=12.95, j=3.46,
    gamma_fq=0.300, gamma_b=6.433, gamma_d=0.493, lam=1.0,
)

# Calibrated ensemble reproducing the experimental lineshape: dilute
# dipolar (heavy-tailed) field distribution with the discrete nitrogen
# nuclear-spin offsets resolved explicitly, so the continuous part of the
# field is centered at zero.
REFERENCE_ENSEMBLE = EnsembleSpec(
    n_packets=36000, mean_zeeman=0.0, fwhm_zeeman=3.1, fwhm_strain=4.4,
    fwhm_zfs=0.2, collective_g=13.0, omega_nv=OMEGA_NV, seed=1,
    distribution="lorentzian", hyperfine=2.16,
)

GAMMA_FQ_REFERENCE = 0.33
T1_REFERENCE_US = 1.0 / (2.0 * GAMMA_FQ_REFERENCE)

REFERENCE_MHOM_PARAMS = MhomParams(
    omega_fq=OMEGA_NV, gamma_fq=GAMMA_FQ_REFERENCE, gamma_b=0.2, gamma_d=0.2,
)


@pytest.fixture
def reference_params():
    return REFERENCE_PARAMS


@pytest.fixture
def reference_ensemble():
    return REFERENCE_ENSEMBLE


def homogeneous_ensemble(g=10.0, j=2.0, n_packets=8, seed=7,
                         omega_nv=OMEGA_NV):
    """Zero-width ensemble: every packet identical, exact oscillator limit."""
    return EnsembleSpec(
        n_packets=n_packets, mean_zeeman=j, fwhm_zeeman=0.0,
        fwhm_strain=0.0, fwhm_zfs=0.0, collective_g=g,
        omega_nv=omega_nv, seed=seed,
    )


def sampled_self_energy(spec, params):
    """The SelfEnergy of spec's realization at the packet damping of
    params, as run_pipeline hands it to its stages."""
    return SelfEnergy(sample_ensemble(spec), params.gamma_b, params.gamma_d)


def rel_dev(a, b):
    a, b = np.asarray(a), np.asarray(b)
    scale = np.maximum(np.abs(a), np.abs(b))
    scale[scale == 0] = 1.0
    return np.abs(a - b) / scale


def scalar_golden_section_max(f, a, b):
    """The former golden-section search, one point per call of f: the oracle
    of numerics.golden_section_max's lanes.  Returns (argmax, evaluations)."""
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    evaluations = 2
    while b - a > 1e-9:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
        evaluations += 1
    return 0.5 * (a + b), evaluations


def traced(call):
    """(call(), bytes it left allocated, its peak) by tracemalloc, both
    above the traced memory at its start.  Warm the call up first: a
    first call may also allocate numpy's caches."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        held, peak = tracemalloc.get_traced_memory()
        return out, held - base, peak - base
    finally:
        tracemalloc.stop()
