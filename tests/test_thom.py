import numpy as np
import pytest

from hybridspec import (
    FrequencyGrid,
    PeaksNotResolved,
    PoleAtRealAxis,
    SystemParams,
    fit_lorentzian,
    thom,
    thom_excitation,
    thom_peak_positions,
    thom_spectrum,
)

from conftest import (REFERENCE_PARAMS, OMEGA_NV, scalar_golden_section_max,
                      traced)


def on_resonance_value(p):
    # direct evaluation of the closed form at zero detuning from both modes
    njj = p.gamma_b * p.gamma_d + p.j ** 2
    return (p.lam / 2.0) ** 2 * njj ** 2 / (
        p.gamma_fq * njj + p.g ** 2 * p.gamma_d
    ) ** 2


class TestExcitation:
    def test_three_local_maxima_near_expected_positions(self):
        left, mid, right = thom_peak_positions(REFERENCE_PARAMS)
        assert mid == pytest.approx(OMEGA_NV, abs=0.05)
        assert left == pytest.approx(OMEGA_NV - 13.4, abs=0.3)
        assert right == pytest.approx(OMEGA_NV + 13.4, abs=0.3)

    def test_zero_drive_gives_zero(self):
        p = REFERENCE_PARAMS.with_(lam=0.0)
        w = np.linspace(OMEGA_NV - 30, OMEGA_NV + 30, 101)
        assert np.all(thom_excitation(p, w) == 0.0)

    def test_on_resonance_closed_form(self):
        val = thom_excitation(REFERENCE_PARAMS, OMEGA_NV)
        assert val == pytest.approx(on_resonance_value(REFERENCE_PARAMS), rel=1e-12)

    def test_pole_on_lossless_eigenfrequency(self):
        p = SystemParams(omega_fq=10.0, omega_nv=10.0, g=0.0, j=0.0)
        with pytest.raises(PoleAtRealAxis):
            thom_excitation(p, 10.0)

    def test_theta_invariance(self):
        w = np.linspace(OMEGA_NV - 20, OMEGA_NV + 20, 41)
        base = thom_excitation(REFERENCE_PARAMS, w)
        for theta in (0.5, np.pi / 2, np.pi):
            assert np.array_equal(
                thom_excitation(REFERENCE_PARAMS.with_(theta=theta), w), base
            )

    @pytest.mark.parametrize("theta", [0.0, 0.9])
    def test_scalar_has_the_bits_of_the_array_call(self, theta):
        p = REFERENCE_PARAMS.with_(theta=theta)
        w = np.linspace(OMEGA_NV - 25, OMEGA_NV + 25, 2001)
        scalars = [thom_excitation(p, x) for x in w.tolist()]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(scalars, thom_excitation(p, w))

    @pytest.mark.parametrize("n", [thom._BLOCK - 1, thom._BLOCK,
                                   thom._BLOCK + 1, 2 * thom._BLOCK + 3])
    def test_blocks_keep_the_bits_of_per_point_calls(self, n):
        w = np.linspace(OMEGA_NV - 25, OMEGA_NV + 25, n)
        got = thom_excitation(REFERENCE_PARAMS, w.reshape(1, n))
        assert got.shape == (1, n)
        assert np.array_equal(got[0], [thom_excitation(REFERENCE_PARAMS, x)
                                       for x in w.tolist()])

    def test_peak_memory_stays_near_the_result(self):
        # 11.3 MB above the 1.6 MB result when the grid was one block
        w = np.linspace(OMEGA_NV - 25, OMEGA_NV + 25, 200_001)
        thom_excitation(REFERENCE_PARAMS, w)  # warm up
        out, held, peak = traced(lambda: thom_excitation(REFERENCE_PARAMS, w))
        assert held >= out.nbytes
        assert peak - held <= 2e6

    def test_drive_scaling_exact(self):
        w = np.linspace(OMEGA_NV - 20, OMEGA_NV + 20, 41)
        base = thom_excitation(REFERENCE_PARAMS, w)
        assert np.allclose(
            thom_excitation(REFERENCE_PARAMS.with_(lam=2.0), w), 4.0 * base,
            rtol=1e-14,
        )
        for lam in (0.1, 10.0):
            scaled = thom_excitation(REFERENCE_PARAMS.with_(lam=lam), w) / lam ** 2
            assert np.allclose(scaled, base, rtol=1e-12)


class TestSpectrum:
    def test_symmetric_at_zero_detuning(self):
        grid = FrequencyGrid(OMEGA_NV - 25, OMEGA_NV + 25, 501)
        vals = thom_spectrum(REFERENCE_PARAMS, grid).values
        assert np.allclose(vals, vals[::-1], rtol=1e-10)

    def test_middle_peak_narrower_than_sides(self):
        p = REFERENCE_PARAMS.with_(g=13.0, gamma_b=6.40, gamma_d=0.50,
                             gamma_fq=0.30)
        grid = FrequencyGrid(OMEGA_NV - 30, OMEGA_NV + 30, 1201)
        spec = thom_spectrum(p, grid)
        mid = fit_lorentzian(spec, (OMEGA_NV - 1.5, OMEGA_NV + 1.5))
        side = fit_lorentzian(spec, (OMEGA_NV + 6, OMEGA_NV + 21))
        assert mid.fwhm < side.fwhm

    def test_model_tag(self):
        grid = FrequencyGrid(OMEGA_NV - 1, OMEGA_NV + 1, 11)
        assert thom_spectrum(REFERENCE_PARAMS, grid).model_tag == "THOM"


class TestWeakCouplingLimit:
    def test_bare_qubit_lorentzian(self):
        # g -> 0: single Lorentzian at the qubit frequency with HWHM gamma_fq
        p = SystemParams(omega_fq=OMEGA_NV, omega_nv=OMEGA_NV + 500.0,
                         g=1e-6, j=0.0, gamma_fq=0.3, gamma_b=1.0,
                         gamma_d=1.0)
        grid = FrequencyGrid(OMEGA_NV - 3, OMEGA_NV + 3, 601)
        fit = fit_lorentzian(thom_spectrum(p, grid), (grid.start, grid.stop))
        assert fit.gamma == pytest.approx(0.3, rel=0.01)
        assert fit.omega_center == pytest.approx(OMEGA_NV, abs=1e-3)


class TestDarkDampingLimit:
    def test_middle_peak_suppressed_by_dark_damping(self):
        vals = [
            thom_excitation(REFERENCE_PARAMS.with_(gamma_d=gd), OMEGA_NV)
            for gd in (0.5, 2.0, 8.0, 32.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestPeakPositions:
    def test_reference_separation(self):
        # damping pulls the side maxima slightly inside 2*hypot(g, j) = 26.81
        left, _, right = thom_peak_positions(REFERENCE_PARAMS)
        assert 26.7 <= right - left <= 27.3

    def test_no_middle_peak_without_dark_coupling(self):
        p = REFERENCE_PARAMS.with_(g=13.0, j=0.0)
        with pytest.raises(PeaksNotResolved):
            thom_peak_positions(p)

    def test_separation_close_to_splitting_law(self):
        p = REFERENCE_PARAMS.with_(g=13.0, j=3.5)
        left, _, right = thom_peak_positions(p)
        assert abs((right - left) - 2 * np.hypot(13.0, 3.5)) < 0.5

    def test_precondition_on_resolved_peaks(self):
        with pytest.raises(ValueError):
            thom_peak_positions(REFERENCE_PARAMS.with_(g=1.0))

    def test_refinement_matches_per_peak_scalar_searches(self, monkeypatch):
        """The three peaks are refined in lockstep; each must keep the bits
        of the former per-peak scalar search on its bracket."""
        brackets = []
        lanewise = thom.golden_section_max

        def spy(f, a, b):
            brackets.append((a.copy(), b.copy()))
            return lanewise(f, a, b)

        monkeypatch.setattr(thom, "golden_section_max", spy)
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = REFERENCE_PARAMS.with_(
                omega_fq=OMEGA_NV + rng.uniform(-3.0, 3.0),
                g=rng.uniform(8.0, 20.0), j=rng.uniform(1.0, 5.0),
                gamma_fq=rng.uniform(0.1, 1.0), gamma_b=rng.uniform(0.2, 2.5),
                gamma_d=rng.uniform(0.1, 1.0))
            got = thom_peak_positions(p)
            f = lambda w: thom_excitation(p, w)
            a, b = brackets.pop()
            assert got == tuple(scalar_golden_section_max(f, lo, hi)[0]
                                for lo, hi in zip(a, b))
