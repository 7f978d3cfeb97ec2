from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridspec import (
    FrequencyGrid,
    HilbertLayout,
    NoInteriorPeak,
    Spectrum,
    find_peaks,
    fit_lorentzian,
    fitting,
    fwhm_vs_power,
    lorentzian_model,
    middle_peak_fwhm,
    numerics,
    thom_excitation,
    thom_spectrum,
)
from hybridspec.fitting import _prominences
from hybridspec.master_eq import HermitianGenerator

from conftest import REFERENCE_PARAMS, OMEGA_NV


def make_spectrum(omegas, values):
    grid = FrequencyGrid(float(omegas[0]), float(omegas[-1]), len(omegas))
    return Spectrum(grid=grid, values=np.asarray(values, dtype=float),
                    model_tag="X")


class TestLorentzianModel:
    def test_peak_value_and_offset(self):
        assert lorentzian_model(2.0, 0.5, 3.0, 0.25, 3.0) == 2.25

    def test_half_maximum_at_hwhm(self):
        val = lorentzian_model(2.0, 0.5, 3.0, 0.0, 3.5)
        assert val == pytest.approx(1.0)

    def test_known_off_peak_value(self):
        # a=1, gamma=0.5, offset 0, at distance 1.5: 0.25/(2.25+0.25) = 0.1
        assert lorentzian_model(1.0, 0.5, 0.0, 0.0, 1.5) == pytest.approx(0.1)

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            lorentzian_model(1.0, 0.0, 0.0, 0.0, 1.0)


class TestFitLorentzian:
    def test_exact_recovery(self):
        omegas = np.linspace(-5, 5, 201)
        data = lorentzian_model(3.0, 0.7, 0.3, 0.1, omegas)
        fit = fit_lorentzian(make_spectrum(omegas, data), (-5, 5))
        assert fit.converged
        assert fit.a == pytest.approx(3.0, abs=1e-8)
        assert fit.gamma == pytest.approx(0.7, abs=1e-8)
        assert fit.omega_center == pytest.approx(0.3, abs=1e-8)
        assert fit.c == pytest.approx(0.1, abs=1e-8)
        assert fit.residual_norm < 1e-12
        assert fit.fwhm == pytest.approx(1.4, abs=1e-8)

    def test_noisy_recovery_median_width_error(self):
        omegas = np.linspace(-5, 5, 201)
        clean = lorentzian_model(3.0, 0.7, 0.0, 0.1, omegas)
        errors = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = clean + 0.01 * 3.0 * rng.standard_normal(len(omegas))
            fit = fit_lorentzian(make_spectrum(omegas, noisy), (-5, 5))
            errors.append(abs(fit.gamma - 0.7) / 0.7)
        assert np.median(errors) < 0.01

    def test_vertical_scaling_covariance(self):
        omegas = np.linspace(-4, 4, 161)
        data = lorentzian_model(2.0, 0.5, 0.2, 0.3, omegas)
        f1 = fit_lorentzian(make_spectrum(omegas, data), (-4, 4))
        f2 = fit_lorentzian(make_spectrum(omegas, 10.0 * data), (-4, 4))
        assert f2.a == pytest.approx(10 * f1.a, rel=1e-8)
        assert f2.c == pytest.approx(10 * f1.c, rel=1e-8)
        assert f2.gamma == pytest.approx(f1.gamma, rel=1e-8)
        assert f2.omega_center == pytest.approx(f1.omega_center, abs=1e-8)

    def test_translation_covariance(self):
        omegas = np.linspace(-4, 4, 161)
        data = lorentzian_model(2.0, 0.5, 0.2, 0.3, omegas)
        f1 = fit_lorentzian(make_spectrum(omegas, data), (-4, 4))
        f2 = fit_lorentzian(make_spectrum(omegas + 100.0, data),
                            (96, 104))
        assert f2.omega_center == pytest.approx(f1.omega_center + 100.0,
                                                abs=1e-7)
        assert f2.gamma == pytest.approx(f1.gamma, rel=1e-8)

    def test_unconverged_fit_returns_the_last_iterate(self, monkeypatch):
        monkeypatch.setattr(numerics, "LM_MAX_ITER", 1)
        returned = []

        def spy(*args, **kwargs):
            returned.append(numerics.damped_least_squares(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(fitting, "damped_least_squares", spy)
        omegas = np.linspace(-5, 5, 201)
        data = lorentzian_model(3.0, 0.7, 0.3, 0.1, omegas)
        fit = fit_lorentzian(make_spectrum(omegas, data), (-5, 5))
        (x, cost, n_iter, converged), = returned
        assert (n_iter, converged) == (1, False)
        assert (fit.n_iterations, fit.converged) == (1, False)
        assert (fit.a, fit.gamma, fit.omega_center, fit.c) == (
            x[0], abs(x[1]), x[2], x[3])
        assert fit.residual_norm == np.sqrt(2.0 * cost)
        # one step from the initial guess: not yet the exact fit
        assert fit.residual_norm > 1e-3

    def test_rejects_small_window(self):
        omegas = np.linspace(-5, 5, 201)
        data = lorentzian_model(1.0, 0.5, 0.0, 0.0, omegas)
        with pytest.raises(NoInteriorPeak):
            fit_lorentzian(make_spectrum(omegas, data), (0.0, 0.3))

    def test_rejects_boundary_maximum(self):
        omegas = np.linspace(0.5, 5, 100)
        data = lorentzian_model(1.0, 0.5, 0.0, 0.0, omegas)  # max at edge
        with pytest.raises(NoInteriorPeak):
            fit_lorentzian(make_spectrum(omegas, data), (0.5, 5.0))


class TestDampedLeastSquares:
    def test_one_iteration_returns_the_damped_step(self, monkeypatch):
        # a linear residual A x - b from x = 0: the first iterate is the
        # damped Gauss-Newton step, returned unconverged, not raised
        monkeypatch.setattr(numerics, "LM_MAX_ITER", 1)
        a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
        b = np.array([1.0, -2.0, 0.5])
        x, cost, n_iter, converged = numerics.damped_least_squares(
            lambda x: a @ x - b, np.zeros(2), jacobian=lambda x: a)
        ata = a.T @ a
        mu = 1e-3 * np.max(np.diag(ata))
        step = np.linalg.solve(ata + mu * np.eye(2), a.T @ b)
        assert (n_iter, converged) == (1, False)
        assert np.allclose(x, step, rtol=1e-12, atol=0)
        r = a @ x - b
        assert cost == pytest.approx(0.5 * r @ r, rel=1e-12)


class TestFindPeaks:
    def test_monotone_data_has_no_peaks(self):
        omegas = np.linspace(0, 1, 50)
        assert find_peaks(make_spectrum(omegas, omegas ** 2)) == []

    def test_reference_spectrum_has_three_labeled_peaks(self):
        grid = FrequencyGrid(OMEGA_NV - 25, OMEGA_NV + 25, 2001)
        peaks = find_peaks(thom_spectrum(REFERENCE_PARAMS, grid))
        assert len(peaks) == 3
        assert [p.classification for p in peaks] == ["LEFT", "MIDDLE",
                                                     "RIGHT"]
        assert peaks[1].omega == pytest.approx(OMEGA_NV, abs=0.05)

    def test_no_middle_peak_without_dark_coupling(self):
        grid = FrequencyGrid(OMEGA_NV - 25, OMEGA_NV + 25, 2001)
        p = REFERENCE_PARAMS.with_(g=13.0, j=0.0)
        peaks = find_peaks(thom_spectrum(p, grid))
        assert len(peaks) == 2
        assert all(p.classification is None for p in peaks)

    def test_prominence_filters_shallow_ripple(self):
        omegas = np.linspace(0, 10, 401)
        data = lorentzian_model(1.0, 1.0, 5.0, 0.0, omegas)
        data = data + 0.005 * np.sin(20 * omegas)
        peaks = find_peaks(make_spectrum(omegas, data), min_prominence=0.05)
        assert len(peaks) == 1
        assert peaks[0].omega == pytest.approx(5.0, abs=0.1)


def rescan_prominences(v):
    """find_peaks' former O(n^2) prominence scan, the oracle of the one-pass
    version: (index, prominence) of each strict local maximum."""
    idx = [i for i in range(1, len(v) - 1)
           if v[i] > v[i - 1] and v[i] > v[i + 1]]
    out = []
    for i in idx:
        left_min = v[:i].min()
        right_min = v[i + 1:].min()
        higher_left = [j for j in range(i) if v[j] > v[i]]
        if higher_left:
            left_min = v[higher_left[-1]: i].min()
        higher_right = [j for j in range(i + 1, len(v)) if v[j] > v[i]]
        if higher_right:
            right_min = v[i + 1: higher_right[0] + 1].min()
        out.append((i, v[i] - max(left_min, right_min)))
    return out


class TestOnePassProminence:
    # small integers give plateaus, ties and equal flanking minima
    values = st.one_of(
        st.lists(st.integers(0, 4), min_size=3, max_size=60),
        st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=60))

    @settings(max_examples=300)
    @given(values=values)
    def test_matches_rescan(self, values):
        v = np.array(values, dtype=float)
        assert _prominences(v) == rescan_prominences(v)

    @settings(max_examples=200)
    @given(values=values, pick=st.integers(0, 5))
    def test_same_peaks_and_labels(self, values, pick):
        v = np.array(values, dtype=float)
        spec = make_spectrum(np.arange(len(v)), v)
        proms = sorted({p for _, p in rescan_prominences(v)}, reverse=True)
        # thresholds that keep each number of peaks, three among them
        for threshold in proms[pick:pick + 3] + [None]:
            expected = [(float(i), float(v[i]))
                        for i, p in rescan_prominences(v)
                        if p >= (0.02 * v.max() if threshold is None
                                 else threshold)]
            peaks = find_peaks(spec, min_prominence=threshold)
            assert [(p.omega, p.height) for p in peaks] == expected
            labels = [p.classification for p in peaks]
            assert labels == (["LEFT", "MIDDLE", "RIGHT"]
                              if len(peaks) == 3 else [None] * len(peaks))


class TestMiddlePeakFwhm:
    def test_oscillator_middle_peak(self):
        fn = lambda ws: thom_excitation(REFERENCE_PARAMS, ws)
        fit = middle_peak_fwhm(fn, OMEGA_NV, REFERENCE_PARAMS.gamma_d)
        assert fit.converged
        assert fit.omega_center == pytest.approx(OMEGA_NV, abs=1e-6)
        assert 0.3 < fit.fwhm < 1.5

    def test_lorentzian_input_round_trip(self):
        fn = lambda ws: lorentzian_model(1.0, 0.4, OMEGA_NV, 0.0, ws)
        fit = middle_peak_fwhm(fn, OMEGA_NV, 2.0)
        assert fit.fwhm == pytest.approx(0.8, rel=1e-6)

    @pytest.mark.parametrize("guess,windows", [(2.0, 2), (0.3, 1)])
    def test_a_second_window_equal_to_the_first_is_not_solved(self, guess,
                                                              windows):
        # HWHM 0.4: from a guess of 2.0 the second window narrows to
        # +-1.2; from 0.3 it would be the first window (+-0.9) again
        grids = []

        def fn(ws):
            grids.append(ws)
            return lorentzian_model(1.0, 0.4, OMEGA_NV, 0.0, ws)

        fit = middle_peak_fwhm(fn, OMEGA_NV, guess)
        assert len(grids) == windows
        assert grids[0][-1] - OMEGA_NV == pytest.approx(3.0 * guess)
        if windows == 2:
            assert grids[1][-1] - OMEGA_NV == pytest.approx(1.2, rel=1e-6)
        # the fit on the last grid solved, bit for bit
        last = grids[-1]
        spec = make_spectrum(last, lorentzian_model(1.0, 0.4, OMEGA_NV, 0.0,
                                                    last))
        assert fit == fit_lorentzian(spec, (last[0], last[-1]))


def thom_at(lam):
    return partial(thom_excitation, REFERENCE_PARAMS.with_(lam=lam))


def me_at(layout):
    return lambda lam: HermitianGenerator(REFERENCE_PARAMS.with_(lam=lam),
                                          layout).excitation


class TestFwhmVsPower:
    def test_oscillator_width_independent_of_drive(self):
        rows = fwhm_vs_power(thom_at, [0.5, 2.0, 8.0], OMEGA_NV,
                             REFERENCE_PARAMS.gamma_d)
        widths = [r[1] for r in rows]
        assert all(r[2] for r in rows)
        assert max(widths) - min(widths) < 1e-6 * widths[0]

    def test_master_equation_broadens_with_drive(self):
        rows = fwhm_vs_power(me_at(HilbertLayout(3, 3)), [1.0, 10.0],
                             OMEGA_NV, REFERENCE_PARAMS.gamma_d)
        assert rows[0][1] is not None and rows[1][1] is not None
        assert rows[1][1] > rows[0][1]

    def test_master_equation_weak_drive_matches_oscillator_width(self):
        me_rows = fwhm_vs_power(me_at(HilbertLayout(3, 3)), [0.1], OMEGA_NV,
                                REFERENCE_PARAMS.gamma_d)
        thom_rows = fwhm_vs_power(thom_at, [0.1], OMEGA_NV,
                                  REFERENCE_PARAMS.gamma_d)
        assert me_rows[0][1] == pytest.approx(thom_rows[0][1], rel=0.05)

    def test_rejects_non_positive_drive(self):
        with pytest.raises(ValueError):
            fwhm_vs_power(thom_at, [0.0], OMEGA_NV, REFERENCE_PARAMS.gamma_d)

    def test_reports_the_reason_of_each_failed_fit(self):
        # at lam = 2 and 4 the excitation rises across the whole window,
        # so its maximum sits on the boundary
        def excitation_at(lam):
            return (lambda w: w - OMEGA_NV) if lam in (2.0, 4.0) \
                else thom_at(lam)

        report = {}
        rows = fwhm_vs_power(excitation_at, [4.0, 1.0, 2.0], OMEGA_NV,
                             REFERENCE_PARAMS.gamma_d, report)
        assert [r[1:] for r in rows[::2]] == [(None, False), (None, False)]
        assert rows[1][1] is not None and rows[1][2]
        assert report["failures"] == [
            {"lambda": lam, "reason": "maximum sits on the window boundary"}
            for lam in (4.0, 2.0)]
        with pytest.raises(NoInteriorPeak, match="window boundary"):
            middle_peak_fwhm(excitation_at(2.0), OMEGA_NV,
                             REFERENCE_PARAMS.gamma_d)
