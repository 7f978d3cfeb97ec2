"""Tests of the benchmark's oracle, checks, tracer and calibration.

The oracle must agree with the program where both are right, every check
must reject an output that is perturbed slightly, and the calibration must
time the host without running the program.
"""

import ast
import json
import os

import numpy as np
import pytest

import hybridspec
import hybridspec.estimate
import hybridspec.fitting
import hybridspec.numerics

import calibrate
import checks
import spans

W = 2878.0
P = hybridspec.SystemParams(omega_fq=W, omega_nv=W, g=12.95, j=3.46,
                            gamma_fq=0.300, gamma_b=6.433, gamma_d=0.493,
                            lam=1.3)
OMEGAS = np.linspace(W - 25, W + 25, 2001)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rows(omegas, values):
    """The rows a CSV written at the CLI's precision reads back as."""
    text = "\n".join(f"{w:.12e},{v:.12e}" for w, v in zip(omegas, values))
    return np.loadtxt(text.splitlines(), delimiter=",", ndmin=2)


@pytest.mark.parametrize("delta", [0.0, 3.0, -7.5])
def test_oracle_agrees_with_thom(delta):
    p = P.with_(omega_fq=W + delta)
    ref = hybridspec.thom_excitation(p, OMEGAS)
    assert np.max(np.abs(checks.three_mode_response(p, OMEGAS) - ref)
                  / ref) < 1e-12


def test_packet_oracle_agrees_with_mhom():
    spec = hybridspec.EnsembleSpec(
        n_packets=12, mean_zeeman=0.0, fwhm_zeeman=3.1, fwhm_strain=4.4,
        fwhm_zfs=0.2, collective_g=13.0, omega_nv=W, seed=5,
        distribution="lorentzian", hyperfine=2.16)
    pk = hybridspec.sample_ensemble(spec)
    mp = hybridspec.MhomParams(omega_fq=W, gamma_fq=0.3, gamma_b=0.2,
                               gamma_d=0.2, lam=0.7)
    ref = np.array([hybridspec.mhom_response(pk, mp, w) for w in OMEGAS])
    h = checks.packet_h(W, pk.zeta, pk.omega_b, pk.omega_d, pk.j_zeeman,
                        pk.j_strain)
    got = checks.response(h, checks.packet_gammas(12, 0.3, 0.2, 0.2),
                          OMEGAS, 0.7)
    assert np.max(np.abs(got - ref) / ref) < 1e-11


def test_power_broadening_check_rejects_reversed_widths():
    lams = (1.0, 5.0, 10.0, 20.0)
    fwhms = [0.94, 1.29, 2.05, 3.11]
    spectra = [np.full(21, 0.1)] * 4
    assert checks.check_power_broadening(lams, fwhms, spectra) == []
    assert checks.check_power_broadening(lams, fwhms[::-1], spectra)
    assert checks.check_power_broadening(lams, [0.94, 1.29, 1.29, 3.11],
                                         spectra)
    bad = [np.full(21, 0.1)] * 3 + [np.full(21, 1.0 + 1e-6)]
    assert checks.check_power_broadening(lams, fwhms, bad)


def test_weak_drive_check_against_oracle():
    p = P.with_(lam=0.1)
    oracle = checks.three_mode_response(p, OMEGAS)
    assert checks.check_weak_drive(p, OMEGAS, 1.04 * oracle) == []
    assert checks.check_weak_drive(p, OMEGAS, 1.06 * oracle)


class _Result:
    def __init__(self, **kw):
        self.intermediate = kw.pop("intermediate", {})
        self.__dict__.update(kw)


def test_reference_check_windows():
    good = _Result(g=13.0, j=3.5, gamma_b=6.4, gamma_d=0.28)
    assert checks.check_reference(good) == []
    for name, value in (("g", 14.01), ("j", 2.99), ("gamma_b", 7.41)):
        bad = _Result(**{**good.__dict__, name: value})
        assert checks.check_reference(bad)


def test_round_trip_check_rejects_small_errors():
    truth = {"g": 10.0, "j": 2.0, "gamma": 0.01}
    p = hybridspec.SystemParams(omega_fq=W, omega_nv=W, g=10.0, j=2.0,
                                gamma_fq=0.002, gamma_b=0.01, gamma_d=0.01)
    oracle = {"separation": checks.oracle_separation(p, 4.0, 20.0),
              "ratio": checks.oracle_ratio(p, (0.05, 0.10, 0.15))}
    # the separation is close to 2*sqrt(g^2+j^2), the slope to j^2/(g^2+j^2)
    assert abs(oracle["separation"] - 2 * np.hypot(10.0, 2.0)) < 0.01
    assert abs(oracle["ratio"] - 4.0 / 104.0) < 1e-3
    good = dict(g=10.0, j=2.0, gamma_b=0.01, gamma_d=0.01,
                intermediate=dict(oracle))
    assert checks.check_round_trip(_Result(**good), truth, oracle) == []
    for name, value in (("g", 10.002), ("gamma_d", 0.010002)):
        assert checks.check_round_trip(_Result(**{**good, name: value}),
                                       truth, oracle)
    moved = dict(oracle, ratio=oracle["ratio"] + 1e-5)
    assert checks.check_round_trip(_Result(**{**good, "intermediate": moved}),
                                   truth, oracle)


def test_spectrum_check_rejects_value_moved_by_1e_6():
    values = checks.three_mode_response(P, OMEGAS)
    rows = _rows(OMEGAS, values)
    assert checks.check_spectrum_rows(rows, OMEGAS, values) == []
    rows[1000, 1] += 1e-6
    assert checks.check_spectrum_rows(rows, OMEGAS, values)
    rows = _rows(OMEGAS, values)
    rows[7, 0] += 1e-6
    assert checks.check_spectrum_rows(rows, OMEGAS, values)


def test_sweep_check_rejects_value_moved_by_1e_6():
    axis = [-2.0, 0.0, 2.0]
    expected = lambda v: checks.three_mode_response(P.with_(omega_fq=W + v),
                                                    OMEGAS)
    rows = np.vstack([np.column_stack([np.full(len(OMEGAS), v),
                                       _rows(OMEGAS, expected(v))])
                      for v in axis])
    assert checks.check_sweep_rows(rows, axis, OMEGAS, expected) == []
    rows[len(OMEGAS) + 3, 2] += 1e-6
    assert checks.check_sweep_rows(rows, axis, OMEGAS, expected)


def test_eigen_check_rejects_value_moved_by_1e_6():
    deltas = np.linspace(-10.0, 10.0, 41)
    rows = []
    for d in deltas:
        r = hybridspec.eigen_numeric(P, float(d))
        rows.append([d, *r.values, *r.qubit_weights])
    rows = np.loadtxt([",".join(f"{x:.12e}" for x in row) for row in rows],
                      delimiter=",")
    assert checks.check_eigen_rows(rows, deltas, W, P.g, P.j) == []
    for col in (2, 5):
        bad = rows.copy()
        bad[20, col] += 1e-6
        assert checks.check_eigen_rows(bad, deltas, W, P.g, P.j)


def test_fit_centre_check():
    fit = {"omega_center": W + 1e-9, "gamma": 0.47, "converged": True}
    assert checks.check_fit_centre(fit, W) == []
    assert checks.check_fit_centre({**fit, "omega_center": W + 1e-5}, W)
    assert checks.check_fit_centre({**fit, "converged": False}, W)


def test_identical_check():
    assert checks.check_identical(b"a,1\n", b"a,1\n", "x") == []
    assert checks.check_identical(b"a,1\n", b"a,2\n", "x")


def test_tracer_wraps_imported_names_and_restores_them():
    originals = (hybridspec.estimate.mhom_response,
                 hybridspec.fitting.damped_least_squares)
    tracer = spans.Tracer()
    with tracer.installed(hybridspec):
        assert hybridspec.estimate.mhom_response is not originals[0]
        assert hybridspec.fitting.damped_least_squares is not originals[1]
        assert (hybridspec.fitting.damped_least_squares
                is hybridspec.numerics.damped_least_squares)
        grid = hybridspec.FrequencyGrid(-5, 5, 201)
        spec = hybridspec.Spectrum(
            grid=grid, model_tag="X",
            values=hybridspec.lorentzian_model(3.0, 0.7, 0.3, 0.1,
                                               grid.points()))
        fit = hybridspec.fitting.fit_lorentzian(spec, (-5, 5))
    assert (hybridspec.estimate.mhom_response,
            hybridspec.fitting.damped_least_squares) == originals
    assert tracer.absent == []
    s = tracer.summary()
    outer = s["fitting.fit_lorentzian"]
    inner = s["numerics.damped_least_squares"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["count"] == inner["count"] == fit.n_iterations
    assert outer["self_s"] == pytest.approx(outer["wall_s"] - inner["wall_s"])


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.setitem(spans.SPANS, "mhom.no_such_function", None)
    monkeypatch.setitem(spans.SPANS, "no_such_module.f", None)
    tracer = spans.Tracer()
    with tracer.installed(hybridspec):
        pass
    assert tracer.absent == ["mhom.no_such_function", "no_such_module.f"]
    summary = tracer.summary()
    assert spans.layer_metric(summary, "mhom.no_such_function.calls") == 0


def test_every_per_layer_metric_resolves_to_traced_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    traced = set(spans.SPANS) | set(spans.COUNTERS)
    for m in spec["per_layer"]:
        name = m["name"]
        if name.startswith(("proc.", "run.", "trace.")):
            continue
        stem, last = name.rsplit(".", 1)
        assert last in spans.FIELDS, name
        labels = spans.ALIASES.get(name) or spans.ALIASES.get(stem, (stem,))
        assert set(labels) <= traced, name


def test_calibration_times_the_host_without_the_program():
    with open(calibrate.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not any(name.split(".")[0] == "hybridspec" for name in imported)
    parts = calibrate.calibrate()
    assert set(parts) == {"elementwise", "solve", "faults", "python"}
    assert all(t > 0 for t in parts.values())
