import numpy as np
import pytest

from hybridspec import (
    EnsembleSpec,
    FrequencyGrid,
    MhomParams,
    Packets,
    PeaksNotResolved,
    SystemParams,
    find_peaks,
    mhom_middle_peak_shift,
    mhom_response,
    mhom_spectrum,
    sample_ensemble,
    thom_excitation,
)
from hybridspec.mhom import _BLOCK

from conftest import (
    OMEGA_NV,
    REFERENCE_ENSEMBLE,
    REFERENCE_MHOM_PARAMS,
    homogeneous_ensemble,
)

FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


def dense_response(packets, params, omegas):
    """|c|^2 from a dense solve of the qubit + 2N oscillator equations
    (omega - H) x = (lam/2) e_0, x = (c, b_1..b_N, d_1..d_N)."""
    n = len(packets)
    b = 1 + np.arange(n)
    d = b + n
    h = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    h[0, 0] = params.omega_fq - 1j * params.gamma_fq
    h[b, b] = packets.omega_b - 1j * params.gamma_b
    h[d, d] = packets.omega_d - 1j * params.gamma_d
    h[0, b] = h[b, 0] = packets.zeta
    h[b, d] = packets.j_zeeman + 1j * packets.j_strain
    h[d, b] = np.conj(h[b, d])
    rhs = np.zeros(2 * n + 1, dtype=complex)
    rhs[0] = params.lam / 2.0
    eye = np.eye(2 * n + 1)
    return np.array([abs(np.linalg.solve(w * eye - h, rhs)[0]) ** 2
                     for w in omegas])


SMALL_ENSEMBLES = {
    "gaussian": REFERENCE_ENSEMBLE.with_(n_packets=12, mean_zeeman=2.0,
                                         distribution="gaussian",
                                         hyperfine=0.0, seed=4),
    "lorentzian-hyperfine": REFERENCE_ENSEMBLE.with_(n_packets=12, seed=4),
}


class TestSampling:
    def test_zero_width_gives_identical_packets(self):
        spec = EnsembleSpec(n_packets=100, mean_zeeman=28.0, fwhm_zeeman=0.0,
                            fwhm_strain=0.0, fwhm_zfs=0.0, collective_g=13.0,
                            omega_nv=OMEGA_NV, seed=3)
        pk = sample_ensemble(spec)
        assert np.all(pk.omega_b == OMEGA_NV)
        assert np.all(pk.omega_d == OMEGA_NV)
        assert np.all(pk.j_zeeman == 28.0)
        assert np.all(pk.j_strain == 0.0)

    def test_moments_of_gaussian_sampling(self):
        spec = EnsembleSpec(n_packets=36000, mean_zeeman=28.0,
                            fwhm_zeeman=3.1, fwhm_strain=4.4, fwhm_zfs=0.2,
                            collective_g=13.0, omega_nv=OMEGA_NV, seed=5)
        pk = sample_ensemble(spec)
        sigma = 3.1 * FWHM_TO_SIGMA
        assert abs(pk.j_zeeman.mean() - 28.0) < 3 * sigma / np.sqrt(36000)
        sample_fwhm = pk.j_zeeman.std() / FWHM_TO_SIGMA
        assert sample_fwhm == pytest.approx(3.1, rel=0.10)

    def test_determinism(self):
        spec = REFERENCE_ENSEMBLE
        a, b = sample_ensemble(spec), sample_ensemble(spec)
        for name in ("zeta", "omega_b", "omega_d", "j_zeeman", "j_strain"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_collective_coupling_constraint(self):
        pk = sample_ensemble(REFERENCE_ENSEMBLE)
        assert np.sum(pk.zeta ** 2) == pytest.approx(13.0 ** 2, rel=1e-12)
        assert np.all(pk.zeta >= 0)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n_packets=0, mean_zeeman=0.0, fwhm_zeeman=1.0,
                         fwhm_strain=1.0, fwhm_zfs=1.0, collective_g=1.0,
                         omega_nv=1.0, seed=0)
        with pytest.raises(ValueError):
            EnsembleSpec(n_packets=1, mean_zeeman=0.0, fwhm_zeeman=-1.0,
                         fwhm_strain=1.0, fwhm_zfs=1.0, collective_g=1.0,
                         omega_nv=1.0, seed=0)
        with pytest.raises(ValueError):
            EnsembleSpec(n_packets=1, mean_zeeman=0.0, fwhm_zeeman=1.0,
                         fwhm_strain=1.0, fwhm_zfs=1.0, collective_g=1.0,
                         omega_nv=1.0, seed=0, distribution="cauchyish")


class TestResponse:
    def test_homogeneous_limit_equals_three_oscillator_form(self):
        ens = homogeneous_ensemble(g=12.95, j=3.46)
        pk = sample_ensemble(ens)
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.300,
                            gamma_b=6.433, gamma_d=0.493)
        sys_params = SystemParams(
            omega_fq=OMEGA_NV, omega_nv=OMEGA_NV, g=12.95, j=3.46,
            gamma_fq=0.300, gamma_b=6.433, gamma_d=0.493,
        )
        omegas = np.linspace(OMEGA_NV - 30, OMEGA_NV + 30, 101)
        assert mhom_response(pk, params, omegas) == pytest.approx(
            thom_excitation(sys_params, omegas), rel=1e-10)

    def test_zero_drive(self):
        pk = sample_ensemble(homogeneous_ensemble())
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.3, gamma_b=0.2,
                            gamma_d=0.2, lam=0.0)
        assert mhom_response(pk, params, OMEGA_NV) == 0.0

    def test_drive_scaling_exact(self):
        pk = sample_ensemble(REFERENCE_ENSEMBLE)
        w = OMEGA_NV + 5.0
        v1 = mhom_response(pk, REFERENCE_MHOM_PARAMS, w)
        v20 = mhom_response(pk, REFERENCE_MHOM_PARAMS.with_(lam=20.0), w)
        assert v20 == pytest.approx(400.0 * v1, rel=1e-12)

    def test_permutation_invariance(self):
        pk = sample_ensemble(REFERENCE_ENSEMBLE.with_(n_packets=500))
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(pk))
        pk2 = Packets(zeta=pk.zeta[perm], omega_b=pk.omega_b[perm],
                      omega_d=pk.omega_d[perm], j_zeeman=pk.j_zeeman[perm],
                      j_strain=pk.j_strain[perm])
        w = OMEGA_NV - 7.0
        assert mhom_response(pk2, REFERENCE_MHOM_PARAMS, w) == pytest.approx(
            mhom_response(pk, REFERENCE_MHOM_PARAMS, w), rel=1e-12
        )

    def test_three_resonances_with_narrow_middle(self):
        pk = sample_ensemble(REFERENCE_ENSEMBLE)
        params = REFERENCE_MHOM_PARAMS.with_(lam=20.0)
        grid = FrequencyGrid(OMEGA_NV - 25, OMEGA_NV + 25, 801)
        spec = mhom_spectrum(pk, params, grid)
        # prominence above the sampled-ensemble roughness on the side peaks
        peaks = find_peaks(spec, min_prominence=0.1 * spec.values.max())
        assert len(peaks) == 3
        assert peaks[1].omega == pytest.approx(OMEGA_NV, abs=0.5)


class TestArrayResponse:
    @pytest.mark.parametrize("name", sorted(SMALL_ENSEMBLES))
    def test_matches_dense_linear_solve(self, name):
        pk = sample_ensemble(SMALL_ENSEMBLES[name])
        params = REFERENCE_MHOM_PARAMS.with_(lam=0.7,
                                             omega_fq=OMEGA_NV + 1.5)
        omegas = np.linspace(OMEGA_NV - 25, OMEGA_NV + 25, 301)
        got = mhom_response(pk, params, omegas)
        ref = dense_response(pk, params, omegas)
        assert np.max(np.abs(got - ref) / ref) < 1e-10

    def test_matches_scalar_calls_across_blocks(self):
        pk = sample_ensemble(REFERENCE_ENSEMBLE.with_(n_packets=200))
        rows = _BLOCK // len(pk)
        omegas = np.linspace(OMEGA_NV - 25, OMEGA_NV + 25, 2 * rows + 7)
        got = mhom_response(pk, REFERENCE_MHOM_PARAMS, omegas)
        ref = np.array([mhom_response(pk, REFERENCE_MHOM_PARAMS, w)
                        for w in omegas])
        assert got.shape == omegas.shape
        assert np.max(np.abs(got - ref) / ref) <= 2.3e-16

    def test_scalar_in_gives_python_scalar_out(self):
        pk = sample_ensemble(SMALL_ENSEMBLES["gaussian"])
        assert type(mhom_response(pk, REFERENCE_MHOM_PARAMS, OMEGA_NV)) \
            is float


class TestSpectrum:
    def test_normalized_lineshape_independent_of_drive(self):
        pk = sample_ensemble(REFERENCE_ENSEMBLE.with_(n_packets=2000))
        grid = FrequencyGrid(OMEGA_NV - 20, OMEGA_NV + 20, 101)
        s1 = mhom_spectrum(pk, REFERENCE_MHOM_PARAMS, grid).values
        s20 = mhom_spectrum(pk, REFERENCE_MHOM_PARAMS.with_(lam=20.0),
                            grid).values
        assert np.allclose(s20 / 400.0, s1, rtol=1e-12)

    def test_side_peak_separation_near_27(self):
        pk = sample_ensemble(REFERENCE_ENSEMBLE)
        grid = FrequencyGrid(OMEGA_NV - 25, OMEGA_NV + 25, 2001)
        spec = mhom_spectrum(pk, REFERENCE_MHOM_PARAMS, grid)
        peaks = find_peaks(spec, min_prominence=0.1 * spec.values.max())
        assert len(peaks) == 3
        assert peaks[2].omega - peaks[0].omega == pytest.approx(27.0, abs=1.0)

    def test_seed_stability_on_peak_window(self):
        # disjoint seeds at N=36000 self-average on the window containing
        # the three-peak structure; single-packet features far outside it
        # do not and are excluded
        gaussian = REFERENCE_ENSEMBLE.with_(mean_zeeman=28.0,
                                        distribution="gaussian",
                                        hyperfine=0.0, seed=11)
        grid = FrequencyGrid(OMEGA_NV - 20, OMEGA_NV + 20, 161)
        s1 = mhom_spectrum(sample_ensemble(gaussian), REFERENCE_MHOM_PARAMS,
                           grid).values
        s2 = mhom_spectrum(sample_ensemble(gaussian.with_(seed=12)),
                           REFERENCE_MHOM_PARAMS, grid).values
        rel = np.abs(s1 - s2) / np.maximum(s1, s2)
        assert rel.max() < 0.02


class TestMiddlePeakShift:
    def test_zero_detuning_zero_shift(self):
        shifts = mhom_middle_peak_shift(REFERENCE_ENSEMBLE, REFERENCE_MHOM_PARAMS,
                                        [0.0])
        assert shifts[0][1] == pytest.approx(0.0, abs=0.01)

    def test_slope_matches_quoted_ratio(self):
        shifts = mhom_middle_peak_shift(REFERENCE_ENSEMBLE, REFERENCE_MHOM_PARAMS,
                                        [2.0, 6.0, 10.0])
        d = np.array([s[0] for s in shifts])
        s = np.array([s[1] for s in shifts])
        slope = d @ s / (d @ d)
        assert slope == pytest.approx(0.067, abs=0.01)

    def test_slope_matches_eigenvalue_prediction(self):
        g, j = 10.0, 2.0
        ens = homogeneous_ensemble(g=g, j=j)
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.01,
                            gamma_b=0.05, gamma_d=0.05)
        shifts = mhom_middle_peak_shift(ens, params, [0.5, 1.0, 1.5])
        d = np.array([s[0] for s in shifts])
        s = np.array([s[1] for s in shifts])
        slope = d @ s / (d @ d)
        assert slope == pytest.approx(j ** 2 / (g ** 2 + j ** 2), abs=0.01)

    def test_guard_on_detuning_range(self):
        with pytest.raises(PeaksNotResolved):
            mhom_middle_peak_shift(REFERENCE_ENSEMBLE, REFERENCE_MHOM_PARAMS, [20.0])
