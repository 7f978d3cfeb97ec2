import json
import sys

import numpy as np
import pytest

from hybridspec import (
    FrequencyGrid,
    MhomParams,
    NonPositiveGamma,
    NotConverged,
    PipelineStageError,
    SelfEnergy,
    estimate,
    estimate_ratio,
    estimate_separation,
    fit_gammas,
    gamma_fq_from_t1,
    mhom,
    numerics,
    run_pipeline,
    solve_g_j,
)
from hybridspec.estimate import slope_deltas

from conftest import (
    OMEGA_NV,
    REFERENCE_ENSEMBLE,
    T1_REFERENCE_US,
    homogeneous_ensemble,
    sampled_self_energy,
)


class TestGammaFqFromT1:
    def test_reference_values(self):
        assert gamma_fq_from_t1(1.0) == 0.5
        assert gamma_fq_from_t1(1.0 / 0.66) == pytest.approx(0.33)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            gamma_fq_from_t1(0.0)
        with pytest.raises(ValueError):
            gamma_fq_from_t1(-1.0)

    def test_rejects_rate_that_overflows(self):
        # 1/(2*T1) is inf for a subnormal T1
        with pytest.raises(ValueError):
            gamma_fq_from_t1(1e-320)

    @pytest.mark.parametrize("t1_us", [True, "1", None, [1.0]])
    def test_rejects_what_is_not_a_number(self, t1_us):
        with pytest.raises(TypeError, match="t1_us must be a number"):
            gamma_fq_from_t1(t1_us)


class TestSlopeDeltas:
    def test_floats_of_the_detunings(self):
        deltas = slope_deltas(d for d in [1, 2.5, np.float32(3)])
        assert deltas == (1.0, 2.5, 3.0)
        assert all(type(d) is float for d in deltas)

    @pytest.mark.parametrize("deltas", [[True, 1, 2], ["1", "2", "3"],
                                        [1, 2, None]])
    def test_rejects_what_is_not_a_number(self, deltas):
        with pytest.raises(TypeError, match="delta must be a number"):
            slope_deltas(deltas)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="delta must be finite"):
            slope_deltas([1, 2, np.inf])


class TestSeparation:
    def test_homogeneous_separation(self):
        g, j = 10.0, 2.0
        ens = homogeneous_ensemble(g=g, j=j)
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.05, gamma_b=0.1,
                            gamma_d=0.1)
        sep = estimate_separation(ens, params,
                                  sampled_self_energy(ens, params))
        assert sep == pytest.approx(2 * np.hypot(g, j), abs=0.3)

    def test_scales_with_collective_coupling(self):
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.05, gamma_b=0.1,
                            gamma_d=0.1)
        s1, s2 = (estimate_separation(ens, params,
                                      sampled_self_energy(ens, params))
                  for ens in (homogeneous_ensemble(g=8.0, j=1.0),
                              homogeneous_ensemble(g=16.0, j=2.0)))
        assert s2 == pytest.approx(2 * s1, rel=0.05)


class TestRatio:
    def test_small_dark_coupling_gives_small_slope(self):
        # j much smaller than g: the middle peak barely moves with detuning
        ens = homogeneous_ensemble(g=10.0, j=1.0)
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.01, gamma_b=0.01,
                            gamma_d=0.01)
        slope, _ = estimate_ratio(ens, params,
                                  sampled_self_energy(ens, params),
                                  deltas=(0.5, 1.0, 1.5))
        assert slope == pytest.approx(1.0 / 101.0, abs=0.005)

    def test_known_homogeneous_slope(self):
        g, j = 10.0, 2.0
        ens = homogeneous_ensemble(g=g, j=j)
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.01, gamma_b=0.05,
                            gamma_d=0.05)
        slope, residual = estimate_ratio(ens, params,
                                         sampled_self_energy(ens, params),
                                         deltas=(0.5, 1.0, 1.5))
        assert slope == pytest.approx(j ** 2 / (g ** 2 + j ** 2), abs=0.005)
        assert residual < 0.01

    def test_requires_three_detunings(self):
        ens = homogeneous_ensemble()
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.01, gamma_b=0.05,
                            gamma_d=0.05)
        with pytest.raises(ValueError):
            estimate_ratio(ens, params, sampled_self_energy(ens, params),
                           deltas=(1.0, 2.0))

    def test_rejects_all_zero_detunings(self):
        ens = homogeneous_ensemble()
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.01, gamma_b=0.05,
                            gamma_d=0.05)
        with pytest.raises(ValueError, match="not all be zero"):
            estimate_ratio(ens, params, sampled_self_energy(ens, params),
                           deltas=(0.0, 0.0, 0.0))


class TestSolveGJ:
    def test_reference_point(self):
        g, j = solve_g_j(20.0, 0.5)
        assert g == pytest.approx(np.sqrt(50.0))
        assert j == pytest.approx(np.sqrt(50.0))

    def test_round_trip(self):
        for g, j in ((13.0, 3.5), (8.0, 1.0), (20.0, 6.0)):
            sep = 2 * np.hypot(g, j)
            ratio = j ** 2 / (g ** 2 + j ** 2)
            g2, j2 = solve_g_j(sep, ratio)
            assert g2 == pytest.approx(g, rel=1e-12)
            assert j2 == pytest.approx(j, rel=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            solve_g_j(0.0, 0.5)
        with pytest.raises(ValueError):
            solve_g_j(20.0, 0.0)
        with pytest.raises(ValueError):
            solve_g_j(20.0, 1.0)


class TestFitGammas:
    @staticmethod
    def fit(g, j, gamma_nv):
        """fit_gammas on a homogeneous ensemble whose packets are damped by
        gamma_nv, with the qubit at omega_nv and gamma_fq = 0.05."""
        ens = homogeneous_ensemble(g=g, j=j)
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.05,
                            gamma_b=gamma_nv, gamma_d=gamma_nv)
        grid = FrequencyGrid(OMEGA_NV - 23, OMEGA_NV + 23, 801)
        return fit_gammas(ens, params, sampled_self_energy(ens, params), g,
                          j, grid)

    def test_recovers_injected_rates(self):
        # homogeneous packets with injected per-packet damping make the
        # sampled model coincide with the oscillator form, so the fit must
        # return the injected rates exactly
        gamma_b, gamma_d, residual = self.fit(10.0, 2.0, 0.2)
        assert gamma_b == pytest.approx(0.2, abs=1e-6)
        assert gamma_d == pytest.approx(0.2, abs=1e-6)
        assert residual < 1e-6

    def test_distinct_rates_change_peak_widths(self):
        b1, d1, _ = self.fit(10.0, 2.0, 0.1)
        b2, d2, _ = self.fit(10.0, 2.0, 0.4)
        assert b2 > b1 and d2 > d1

    def test_zero_drive_has_no_reference_peak(self):
        ens = homogeneous_ensemble()
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.05, gamma_b=0.2,
                            gamma_d=0.2, lam=0.0)
        grid = FrequencyGrid(OMEGA_NV - 23, OMEGA_NV + 23, 81)
        with pytest.raises(NonPositiveGamma, match="identically zero"):
            fit_gammas(ens, params, sampled_self_energy(ens, params), 10.0,
                       2.0, grid)


    def test_unconverged_fit_is_reported_before_it_raises(self,
                                                          monkeypatch):
        def unconverged(residual, x0):
            return x0, 0.5 * float(np.sum(residual(x0) ** 2)), 7, False

        monkeypatch.setattr(estimate, "damped_least_squares", unconverged)
        ens = homogeneous_ensemble(g=10.0, j=2.0)
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.05, gamma_b=0.2,
                            gamma_d=0.2)
        report = {}
        with pytest.raises(NotConverged, match="no convergence in 7"):
            fit_gammas(ens, params, sampled_self_energy(ens, params), 10.0,
                       2.0, FrequencyGrid(OMEGA_NV - 23, OMEGA_NV + 23, 81),
                       report)
        assert report == {"lm_iterations": 7, "converged": False}


class TestRunPipeline:
    def test_intermediates_consistent(self):
        g, j = 10.0, 2.0
        ens = homogeneous_ensemble(g=g, j=j)
        res = run_pipeline(ens, t1_us=10.0, deltas=(0.5, 1.0, 1.5),
                           gamma_nv=0.1)
        sep = res.intermediate["separation"]
        assert res.g ** 2 + res.j ** 2 == pytest.approx((sep / 2.0) ** 2,
                                                        rel=1e-12)
        assert res.gamma_fq == pytest.approx(0.05)
        assert res.provenance["seed"] == ens.seed

    def test_recovers_homogeneous_parameters(self):
        g, j = 10.0, 2.0
        ens = homogeneous_ensemble(g=g, j=j)
        res = run_pipeline(ens, t1_us=10.0, deltas=(0.5, 1.0, 1.5),
                           gamma_nv=0.1)
        assert res.g == pytest.approx(g, rel=0.02)
        assert res.j == pytest.approx(j, rel=0.05)
        assert res.gamma_b == pytest.approx(0.1, abs=0.02)
        assert res.gamma_d == pytest.approx(0.1, abs=0.02)

    def test_run_report_counts_evaluations(self):
        res = run_pipeline(homogeneous_ensemble(g=10.0, j=2.0), t1_us=10.0,
                           deltas=(0.5, 1.0, 1.5), gamma_nv=0.1)
        stages = res.provenance["stages"]
        json.dumps(stages)  # estimate.json carries it
        # two 401-point scans for the side peaks, three for the middle one,
        # each refined by golden section; then the 1201-point fit grid
        for tag, scans in (("separation", 2), ("ratio", 3)):
            s = stages[tag]
            assert s["golden_section_evaluations"] > 0
            assert s["mhom_frequencies"] == (401 * scans
                                             + s["golden_section_evaluations"])
        fit = stages["fit_gammas"]
        assert fit["mhom_frequencies"] == 1201
        assert fit["golden_section_evaluations"] == 0
        assert fit["lm_iterations"] >= 1 and fit["converged"] is True

    def test_stage_error_tags_bad_t1(self):
        ens = homogeneous_ensemble()
        with pytest.raises(PipelineStageError) as e:
            run_pipeline(ens, t1_us=-1.0)
        assert e.value.stage == "gamma_fq"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gamma_nv, error, message", [
        (np.nan, ValueError, "gamma_b must be finite"),
        ("x", TypeError, "gamma_b must be a number"),
    ])
    def test_damping_is_checked_before_use(self, gamma_nv, error, message):
        with pytest.raises(error, match=message):
            run_pipeline(homogeneous_ensemble(), t1_us=10.0,
                         gamma_nv=gamma_nv)

    def test_stage_error_tags_unconverged_fit(self, monkeypatch):
        # fit_gammas raises NotConverged itself; a zero-field spread keeps
        # the initial guess off the fitted widths, so one step is not enough
        monkeypatch.setattr(numerics, "LM_MAX_ITER", 1)
        ens = homogeneous_ensemble(g=10.0, j=2.0).with_(fwhm_zfs=0.3)
        with pytest.raises(PipelineStageError) as e:
            run_pipeline(ens, t1_us=10.0, deltas=(0.5, 1.0, 1.5),
                         gamma_nv=0.1)
        assert e.value.stage == "fit_gammas"
        assert isinstance(e.value.cause, NotConverged)
        assert str(e.value.cause) == "no convergence in 1 iterations"
        assert str(e.value) == ("pipeline stage 'fit_gammas' failed: "
                                "no convergence in 1 iterations")

    def test_stage_error_tags_unresolved_detuning(self):
        ens = homogeneous_ensemble(g=10.0, j=2.0)
        with pytest.raises(PipelineStageError) as e:
            run_pipeline(ens, t1_us=10.0, deltas=(20.0, 30.0, 40.0),
                         gamma_nv=0.1)
        assert e.value.stage == "ratio"

    def test_seed_stability_on_sampled_ensemble(self):
        r1 = run_pipeline(REFERENCE_ENSEMBLE, t1_us=1.0 / 0.66)
        r2 = run_pipeline(REFERENCE_ENSEMBLE.with_(seed=2), t1_us=1.0 / 0.66)
        assert abs(r1.g - r2.g) / r1.g < 0.05
        assert abs(r1.j - r2.j) / r1.j < 0.05
        # the broad side-peak width fluctuates more across disjoint draws
        assert abs(r1.gamma_b - r2.gamma_b) / r1.gamma_b < 0.10


def test_pipeline_samples_the_ensemble_once(monkeypatch):
    """run_pipeline samples the ensemble and the stages take that
    realization: one sample_ensemble call per run, wherever the package
    binds the function."""
    sample = mhom.sample_ensemble
    calls = []

    def counted(spec):
        calls.append(spec)
        return sample(spec)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "hybridspec"
                and getattr(module, "sample_ensemble", None) is sample):
            monkeypatch.setattr(module, "sample_ensemble", counted)
    ens = homogeneous_ensemble(g=10.0, j=2.0)
    run_pipeline(ens, t1_us=10.0, deltas=(0.5, 1.0, 1.5), gamma_nv=0.1)
    assert calls == [ens]


def test_peak_stages_refine_in_lockstep(monkeypatch):
    """No scalar SelfEnergy call in run_pipeline, and each peak stage makes
    at most 2 + (the longest lane's golden-section steps) of them: its
    scans, the first two points of every lane, then one call per step."""
    stage, sigma_calls, lane_points = [None], [], []
    call = SelfEnergy.__call__

    def spy_call(self, omega):
        sigma_calls.append((stage[0], np.ndim(omega)))
        return call(self, omega)

    def in_stage(tag, fn):
        def wrapper(*args, **kwargs):
            stage[0] = tag
            try:
                return fn(*args, **kwargs)
            finally:
                stage[0] = None
        return wrapper

    golden = mhom.golden_section_max

    def spy_golden(f, a, b):
        def counted(x, lanes):
            lane_points.append((stage[0], lanes.copy()))
            return f(x, lanes)
        return golden(counted, a, b)

    monkeypatch.setattr(SelfEnergy, "__call__", spy_call)
    monkeypatch.setattr(mhom, "golden_section_max", spy_golden)
    for tag in ("separation", "ratio"):
        name = f"estimate_{tag}"
        monkeypatch.setattr(estimate, name,
                            in_stage(tag, getattr(estimate, name)))
    run_pipeline(REFERENCE_ENSEMBLE, T1_REFERENCE_US)
    assert all(ndim > 0 for _, ndim in sigma_calls)
    for tag in ("separation", "ratio"):
        lanes = np.concatenate([x for t, x in lane_points if t == tag])
        steps = np.bincount(lanes).max() - 2
        assert sum(t == tag for t, _ in sigma_calls) <= 2 + steps
