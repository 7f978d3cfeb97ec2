import json
import os
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridspec import (
    EnsembleSpec,
    FrequencyGrid,
    MhomParams,
    SolverFailure,
    Spectrum,
    SystemParams,
    eigen_numeric,
    fit_lorentzian,
    fwhm_vs_power,
    mhom_response,
    run_pipeline,
    sample_ensemble,
    thom_excitation,
)
from hybridspec.cli import (_CHUNK_ROWS, _SECTIONS, ConfigError, _read_csv,
                            _rows, _write_csv, load_config, main)

from conftest import OMEGA_NV

SYSTEM = {
    "omega_fq": OMEGA_NV, "omega_nv": OMEGA_NV, "g": 12.95, "j": 3.46,
    "gamma_fq": 0.300, "gamma_b": 6.433, "gamma_d": 0.493, "lam": 1.0,
}
GRID = {"start_mhz": OMEGA_NV - 25, "stop_mhz": OMEGA_NV + 25,
        "n_points": 201}
ENSEMBLE = {"n_packets": 200, "mean_zeeman": 0.0, "fwhm_zeeman": 3.1,
            "fwhm_strain": 4.4, "fwhm_zfs": 0.2, "collective_g": 13.0,
            "omega_nv": OMEGA_NV, "seed": 1,
            "distribution": "lorentzian", "hyperfine": 2.16}


def write_config(tmp_path, name="cfg.json", **cfg):
    path = tmp_path / name
    # an infinite value is written as 1e400, which JSON reads as inf
    path.write_text(json.dumps(cfg).replace("Infinity", "1e400"))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    return header, np.atleast_2d(data)


class TestLoadConfig:
    def test_hash_is_recorded(self, tmp_path):
        path = write_config(tmp_path, system=SYSTEM, grid=GRID)
        cfg = load_config(path)
        assert len(cfg["_sha256"]) == 64

    def test_rejects_unknown_top_key(self, tmp_path):
        path = write_config(tmp_path, system=SYSTEM, grid=GRID, typo={})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_rejects_unknown_system_key(self, tmp_path):
        bad = dict(SYSTEM, coupling=1.0)
        path = write_config(tmp_path, system=bad, grid=GRID)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_rejects_bad_model(self, tmp_path):
        path = write_config(tmp_path, system=SYSTEM, grid=GRID,
                            model="magic")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("model", [["thom"], {}, []])
    def test_rejects_model_that_is_not_a_string(self, tmp_path, model):
        path = write_config(tmp_path, system=SYSTEM, grid=GRID, model=model)
        with pytest.raises(ConfigError):
            load_config(path)


class TestSimulate:
    def test_thom_spectrum_csv(self, tmp_path):
        cfg = write_config(tmp_path, system=SYSTEM, grid=GRID, model="thom")
        out = tmp_path / "run"
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        header, data = read_csv(out / "spectrum.csv")
        assert header == ["frequency_mhz", "excitation"]
        assert data.shape == (201, 2)
        assert data[0, 0] == OMEGA_NV - 25
        meta = json.loads((out / "spectrum_meta.json").read_text())
        assert meta["command"] == "simulate"
        assert meta["model"] == "thom"
        assert len(meta["config_sha256"]) == 64

    def test_signal_map_column(self, tmp_path):
        cfg = write_config(tmp_path, system=SYSTEM, grid=GRID, model="thom",
                           signal_map={"scale": 2.0, "offset": 1.0})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, data = read_csv(out / "spectrum.csv")
        assert header == ["frequency_mhz", "excitation", "switching_prob"]
        assert np.allclose(data[:, 2], 1.0 - 2.0 * data[:, 1])

    @pytest.mark.parametrize("model", ["thom", "mhom", "me"])
    def test_byte_determinism(self, tmp_path, model):
        cfg = {
            "thom": dict(system=SYSTEM, grid=GRID),
            "mhom": dict(ensemble=ENSEMBLE, grid=GRID),
            "me": dict(system=SYSTEM, grid=dict(GRID, n_points=21),
                       me_options={"n_max_bright": 2, "n_max_dark": 2}),
        }[model]
        cfg = write_config(tmp_path, model=model, **cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "spectrum.csv").read_bytes() == \
            (out2 / "spectrum.csv").read_bytes()

    def test_dump_packets_writes_the_sampled_ensemble(self, tmp_path):
        cfg = write_config(tmp_path, ensemble=ENSEMBLE, grid=GRID,
                           model="mhom")
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--dump-packets", str(out / "packets.csv")]) == 0
        header, data = read_csv(out / "packets.csv")
        assert header == ["zeta", "omega_b", "omega_d", "j_zeeman",
                          "j_strain"]
        pk = sample_ensemble(EnsembleSpec(**ENSEMBLE))
        assert (out / "packets.csv").read_bytes().splitlines()[1:] == [
            ",".join(f"{x:.12e}" for x in row).encode()
            for row in zip(pk.zeta, pk.omega_b, pk.omega_d, pk.j_zeeman,
                           pk.j_strain)]

    def test_failed_run_dumps_no_packets(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **_with(MHOM, "system", lam=1e308))
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--dump-packets", str(out / "packets.csv")]) == 3
        assert not out.exists()
        assert capsys.readouterr().err.startswith("solver error: ")

    def test_switching_prob_that_overflows_is_a_solver_error(self, tmp_path,
                                                             capsys):
        cfg = write_config(tmp_path, system=SYSTEM, grid=GRID, model="thom",
                           signal_map={"scale": 1e308, "offset": 0.0})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--lambda", "100"]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == \
            "solver error: model values are not finite\n"

    def test_missing_grid_exits_2_without_files(self, tmp_path):
        cfg = write_config(tmp_path, system=SYSTEM, model="thom")
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, system=SYSTEM, grid=GRID, model="thom",
                           bogus=1)
        assert main(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize("flag", ["--n-max-b", "--n-max-d"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_truncation_flag_exits_2(self, tmp_path, flag, value):
        cfg = write_config(tmp_path, system=SYSTEM, grid=GRID, model="me")
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     flag, value]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["2", 2.5, True])
    def test_non_integer_truncation_exits_2(self, tmp_path, value):
        cfg = write_config(tmp_path, system=SYSTEM, grid=GRID, model="me",
                           me_options={"n_max_bright": value})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("model", ["thom", "mhom", "me"])
    @pytest.mark.parametrize("drive", ["nan", "inf", "-1"])
    def test_invalid_drive_exits_2(self, tmp_path, model, drive):
        cfg = write_config(tmp_path, system=SYSTEM, ensemble=ENSEMBLE,
                           grid=GRID, model=model)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     f"--lambda={drive}"]) == 2
        assert not out.exists()

    def test_outputs_follow_the_umask(self, tmp_path):
        cfg = write_config(tmp_path, system=SYSTEM, grid=GRID, model="thom")
        out = tmp_path / "run"
        old = os.umask(0o022)
        try:
            assert main(["simulate", "--config", cfg,
                         "--out", str(out)]) == 0
        finally:
            os.umask(old)
        for name in ("spectrum.csv", "spectrum_meta.json"):
            assert os.stat(out / name).st_mode & 0o777 == 0o644


class TestSweep:
    def test_power_sweep_long_format(self, tmp_path):
        grid = dict(GRID, n_points=41)
        cfg = write_config(tmp_path, system=SYSTEM, grid=grid, model="thom")
        out = tmp_path / "run"
        rc = main(["sweep", "--config", cfg, "--out", str(out),
                   "--axis", "power", "--values", "0.5,1.0,2.0"])
        assert rc == 0
        header, data = read_csv(out / "sweep.csv")
        assert header == ["axis_value", "frequency_mhz", "excitation"]
        assert data.shape == (3 * 41, 3)
        # exact quadratic drive scaling across the sweep axis
        block = data[:41, 2]
        assert np.allclose(data[41:82, 2], 4.0 * block, rtol=1e-10)

    def test_failed_value_leaves_the_other_blocks(self, tmp_path):
        # the middle drive's values are not finite: a solver error that
        # the sweep records and steps over
        grid = dict(GRID, n_points=41)
        cfg = write_config(tmp_path, system=SYSTEM, grid=grid, model="thom")
        out = tmp_path / "run"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--axis", "power", "--values=0.5,1e308,2"]) == 0
        omegas = np.linspace(grid["start_mhz"], grid["stop_mhz"], 41)
        table = np.concatenate([np.column_stack([
            np.full(41, v), omegas,
            thom_excitation(SystemParams(**dict(SYSTEM, lam=v)), omegas)])
            for v in (0.5, 2.0)])
        assert (out / "sweep.csv").read_bytes() == (
            b"axis_value,frequency_mhz,excitation\n" + per_value(table))
        meta = json.loads((out / "sweep_meta.json").read_text())
        assert meta["values"] == [0.5, 1e308, 2.0]
        assert [f["axis_value"] for f in meta["failures"]] == [1e308]
        assert meta["failures"][0]["error"].startswith(
            "model arithmetic overflowed")

    def test_single_value_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, system=SYSTEM, grid=GRID, model="thom")
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "x"),
                   "--axis", "power", "--values", "1.0"])
        assert rc == 2

    @pytest.mark.parametrize("model", ["thom", "mhom"])
    @pytest.mark.parametrize("values", ["1,-2", "1,inf", "1,nan"])
    def test_invalid_drive_exits_2(self, tmp_path, model, values):
        cfg = write_config(tmp_path, system=SYSTEM, ensemble=ENSEMBLE,
                           grid=GRID, model=model)
        out = tmp_path / "run"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--axis", "power", f"--values={values}"]) == 2
        assert not out.exists()

    def test_values_may_start_with_a_minus(self, tmp_path, capsys):
        cfg = write_config(tmp_path, system=SYSTEM, grid=GRID, model="thom")
        outputs = []
        for values in (["--values", "-3,0,4"], ["--values=-3,0,4"]):
            out = tmp_path / values[-1]
            assert main(["sweep", "--config", cfg, "--out", str(out),
                         "--axis", "detuning", *values]) == 0
            meta = json.loads((out / "sweep_meta.json").read_text())
            del meta["timestamp"]
            outputs.append(((out / "sweep.csv").read_bytes(), meta,
                            capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1]["values"] == [-3.0, 0.0, 4.0]

    def test_detuning_sweep_moves_qubit(self, tmp_path):
        grid = dict(GRID, n_points=81)
        cfg = write_config(tmp_path, system=SYSTEM, grid=grid, model="thom")
        out = tmp_path / "run"
        rc = main(["sweep", "--config", cfg, "--out", str(out),
                   "--axis", "detuning", "--values", "0.0,5.0"])
        assert rc == 0
        _, data = read_csv(out / "sweep.csv")
        zero = data[:81, 2]
        shifted = data[81:, 2]
        assert not np.allclose(zero, shifted)


class TestEigen:
    def test_csv_layout(self, tmp_path):
        cfg = write_config(tmp_path, system=SYSTEM)
        out = tmp_path / "run"
        rc = main(["eigen", "--config", cfg, "--out", str(out),
                   "--delta-min", "0", "--delta-max", "10",
                   "--n-deltas", "11"])
        assert rc == 0
        header, data = read_csv(out / "eigen.csv")
        assert header == ["delta_mhz", "e_left", "e_middle", "e_right",
                          "w0_left", "w0_middle", "w0_right"]
        assert data.shape == (11, 7)
        assert np.all(np.diff(data[:, 0]) > 0)
        # weights are a probability decomposition at every detuning
        assert np.allclose(data[:, 4:].sum(axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("theta", [0.0, 0.9])
    def test_rows_match_one_matrix_calls(self, tmp_path, theta):
        # the stacked diagonalization writes the bytes of one eigen_numeric
        # call per detuning
        system = dict(SYSTEM, theta=theta)
        cfg = write_config(tmp_path, system=system)
        out = tmp_path / "run"
        assert main(["eigen", "--config", cfg, "--out", str(out),
                     "--delta-min", "-30", "--delta-max", "30",
                     "--n-deltas", "601"]) == 0
        params = SystemParams(**system)
        lines = []
        for d in np.linspace(-30.0, 30.0, 601):
            r = eigen_numeric(params, float(d))
            lines.append(",".join(f"{x:.12e}" for x in (
                d, *r.values, *r.qubit_weights)))
        rows = (out / "eigen.csv").read_text().splitlines()[1:]
        assert rows == lines

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_non_positive_count_exits_2(self, tmp_path, count):
        cfg = write_config(tmp_path, system=SYSTEM)
        out = tmp_path / "run"
        assert main(["eigen", "--config", cfg, "--out", str(out),
                     "--n-deltas", count]) == 2
        assert not out.exists()


class TestEstimate:
    def test_json_round_trip_small_ensemble(self, tmp_path):
        # the zero-field width doubles as the per-packet damping rate, so
        # it must stay positive for the lineshape fit to be well posed
        ens = {"n_packets": 8, "mean_zeeman": 2.0, "fwhm_zeeman": 0.0,
               "fwhm_strain": 0.0, "fwhm_zfs": 0.1, "collective_g": 10.0,
               "omega_nv": OMEGA_NV, "seed": 7, "hyperfine": 0.0}
        cfg = write_config(
            tmp_path, ensemble=ens,
            estimate={"t1_us": 10.0, "deltas": [0.5, 1.0, 1.5]},
        )
        out = tmp_path / "run"
        rc = main(["estimate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "estimate.json").read_text())
        sep = payload["intermediate"]["separation"]
        assert payload["g"] ** 2 + payload["j"] ** 2 == pytest.approx(
            (sep / 2.0) ** 2, rel=1e-10
        )
        assert payload["gamma_fq"] == pytest.approx(0.05)
        assert payload["provenance"]["seed"] == 7

    @pytest.mark.parametrize("deltas", [[1, 2, 3], [0.5, 1.0, 1.5]])
    def test_provenance_keeps_the_deltas_as_given(self, tmp_path, deltas):
        cfg = write_config(tmp_path, ensemble=ENSEMBLE,
                           estimate={"t1_us": 10, "deltas": deltas})
        out = tmp_path / "run"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        provenance = json.loads((out / "estimate.json").read_text())[
            "provenance"]
        # 1 == 1.0: the types tell an int written as given from a float
        assert [(d, type(d)) for d in provenance["deltas"]] == \
            [(d, type(d)) for d in deltas]

    def test_packet_damping_key_runs_the_zero_width_round_trip(self,
                                                               tmp_path):
        # at zero width the default packet damping, fwhm_zfs, is 0: an
        # undamped packet pole lies on the fit grid and the run exits 3
        ens = dict(SMALL_ENSEMBLE, fwhm_zfs=0.0)
        est = {"t1_us": 10.0, "deltas": [0.5, 1.0, 1.5]}
        cfg = write_config(tmp_path, ensemble=ens, estimate=est)
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 3
        cfg = write_config(tmp_path, ensemble=ens,
                           estimate=dict(est, gamma_nv=0.01))
        out = tmp_path / "run"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        result = run_pipeline(EnsembleSpec(**ens), 10.0,
                              deltas=[0.5, 1.0, 1.5], gamma_nv=0.01)
        for key in ("g", "j", "gamma_fq", "gamma_b", "gamma_d"):
            assert payload[key] == getattr(result, key)
        assert payload["intermediate"] == result.intermediate

    def test_missing_t1_exits_2(self, tmp_path):
        ens = {"n_packets": 8, "mean_zeeman": 2.0, "fwhm_zeeman": 0.0,
               "fwhm_strain": 0.0, "fwhm_zfs": 0.0, "collective_g": 10.0,
               "omega_nv": OMEGA_NV, "seed": 7, "hyperfine": 0.0}
        cfg = write_config(tmp_path, ensemble=ens)
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2


def spectrum_text(omegas):
    """A fit-lorentzian input: a unit Lorentzian at OMEGA_NV + omegas."""
    return ("frequency_mhz,excitation\n" + "".join(
        f"{OMEGA_NV + x:.12e},{1.0 / (1.0 + x ** 2):.12e}\n"
        for x in omegas)).encode()


LORENTZ = spectrum_text(np.linspace(-1.0, 1.0, 41))


class TestFitLorentzian:
    def test_fit_from_simulated_csv(self, tmp_path):
        cfg = write_config(tmp_path, system=SYSTEM, grid={
            "start_mhz": OMEGA_NV - 1.5, "stop_mhz": OMEGA_NV + 1.5,
            "n_points": 241}, model="thom")
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rc = main(["fit-lorentzian", "--input",
                   str(out / "spectrum.csv"),
                   "--window", f"{OMEGA_NV - 1.5},{OMEGA_NV + 1.5}",
                   "--out", str(out)])
        assert rc == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["converged"]
        assert fit["omega_center"] == pytest.approx(OMEGA_NV, abs=1e-3)
        assert 0.3 < fit["fwhm"] < 1.5

    def test_window_may_start_with_a_minus(self, tmp_path, capsys):
        path = tmp_path / "spectrum.csv"
        path.write_text("frequency_mhz,excitation\n" + "".join(
            f"{x:.12e},{1.0 / (1.0 + x ** 2):.12e}\n"
            for x in np.linspace(-10.0, 10.0, 201)))
        outputs = []
        for window in (["--window", "-5,5"], ["--window=-5,5"]):
            out = tmp_path / window[-1]
            assert main(["fit-lorentzian", "--input", str(path),
                         "--out", str(out), *window]) == 0
            outputs.append(((out / "fit.json").read_bytes(),
                            capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["converged"]

    def test_accepts_rounded_uniform_grid(self, tmp_path):
        # 200,001 points: the CSV's rounding is a few 1e-6 of a step
        cfg = write_config(tmp_path, system=SYSTEM, grid=dict(
            GRID, n_points=200001), model="thom")
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        window = (OMEGA_NV - 1.5, OMEGA_NV + 1.5)
        assert main(["fit-lorentzian", "--input", str(out / "spectrum.csv"),
                     "--window", "%r,%r" % window, "--out", str(out)]) == 0
        # the fit of the columns as genfromtxt reads them
        rows = np.genfromtxt(out / "spectrum.csv", delimiter=",", names=True)
        freqs = rows["frequency_mhz"]
        grid = FrequencyGrid(freqs[0], freqs[-1], len(freqs))
        fit = fit_lorentzian(Spectrum(grid=grid, values=rows["excitation"],
                                      model_tag="CSV"), window)
        payload = json.loads((out / "fit.json").read_text())
        assert payload == {k: getattr(fit, k) for k in payload}

    @pytest.mark.parametrize("text, window, message", [
        (LORENTZ, "2876", "--window needs lo,hi"),
        (LORENTZ, "2876,2878,2880", "--window needs lo,hi"),
        (LORENTZ, "nan,2880", "with finite lo < hi"),
        (LORENTZ, "2880,2870", "with finite lo < hi"),
        (LORENTZ, "inf,-inf", "with finite lo < hi"),
        (spectrum_text(np.zeros(1)), "2876,2880", "has 1 rows, need >= 2"),
        (b"frequency_mhz,excitation\n", "2876,2880",
         "has 0 rows, need >= 2"),
        (spectrum_text(np.linspace(-1.0, 1.0, 41) ** 3), "2876,2880",
         "frequencies are not uniform"),
        (LORENTZ + b"2.878e+03\n", "2876,2880", "cannot read"),
        (LORENTZ + b"2.878e+03,1,2\n", "2876,2880", "cannot read"),
        (LORENTZ.replace(b"\n", b",0\n").replace(b"excitation,0",
                                                   b"excitation"),
         "2876,2880", "cannot read"),
        (b"", "2876,2880", "cannot read"),
        (LORENTZ + b"2.878e+03,\xe9\n", "2876,2880", "cannot read"),
        (LORENTZ + b"2.878e+03,abc\n", "2876,2880", "cannot read"),
        (LORENTZ.replace(b",1.000000000000e+00", b",nan"), "2876,2880",
         "invalid spectrum"),
    ], ids=["one-value-window", "three-value-window", "nan-window",
            "reversed-window", "infinite-window", "one-row",
            "header-only", "non-uniform", "ragged-row", "extra-cell",
            "every-row-wider-than-header", "empty-file", "non-utf-8",
            "non-numeric", "nan-cell"])
    def test_invalid_input_exits_2(self, tmp_path, capsys, text, window,
                                   message):
        csv = tmp_path / "s.csv"
        csv.write_bytes(text)
        assert main(["fit-lorentzian", "--input", str(csv),
                     "--window", window]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("shape", ["two-columns", "with-switching-prob",
                                       "swapped", "crlf",
                                       "trailing-blank-line"])
    def test_reads_columns_as_genfromtxt(self, tmp_path, shape):
        cfg = write_config(tmp_path, system=SYSTEM, grid=GRID, model="thom",
                           signal_map={"scale": 2.0, "offset": 1.0})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "spectrum.csv").read_bytes().splitlines()
        cells = [line.split(b",") for line in lines]
        text = {
            "two-columns": [c[:2] for c in cells],
            "with-switching-prob": cells,
            "swapped": [[c[1], c[0], c[2]] for c in cells],
            "crlf": cells,
            "trailing-blank-line": cells + [[b""]],
        }[shape]
        newline = b"\r\n" if shape == "crlf" else b"\n"
        csv = tmp_path / "s.csv"
        csv.write_bytes(b"".join(b",".join(c) + newline for c in text))
        names, rows = _read_csv(str(csv))
        expected = np.genfromtxt(csv, delimiter=",", names=True)
        for name in ("frequency_mhz", "excitation"):
            assert np.array_equal(rows[:, names.index(name)], expected[name])
        # the fit is that of the file as simulate wrote it
        window = f"{OMEGA_NV - 1.5},{OMEGA_NV + 1.5}"
        for path, run in ((csv, "csv"), (out / "spectrum.csv", "simulate")):
            assert main(["fit-lorentzian", "--input", str(path), "--window",
                         window, "--out", str(tmp_path / run)]) == 0
        assert (tmp_path / "csv" / "fit.json").read_bytes() == \
            (tmp_path / "simulate" / "fit.json").read_bytes()

    def test_missing_columns_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n3,4\n")
        rc = main(["fit-lorentzian", "--input", str(bad),
                   "--window", "0,10"])
        assert rc == 2


class TestSweepPower:
    def test_oscillator_fwhm_csv(self, tmp_path):
        grid = {"start_mhz": OMEGA_NV - 3, "stop_mhz": OMEGA_NV + 3,
                "n_points": 161}
        cfg = write_config(tmp_path, system=SYSTEM, grid=grid, model="thom")
        out = tmp_path / "run"
        rc = main(["sweep-power", "--config", cfg, "--out", str(out),
                   "--lambdas", "0.5,1.0,2.0"])
        assert rc == 0
        header, data = read_csv(out / "fwhm.csv")
        assert header == ["lambda", "fwhm", "converged"]
        assert data.shape[0] == 3
        widths = data[:, 1]
        assert np.max(widths) - np.min(widths) < 1e-6 * widths[0]
        with open(out / "fwhm_meta.json") as fh:
            assert json.load(fh)["failures"] == []

    def test_failed_fits_are_explained_in_the_metadata(self, tmp_path):
        # an uncoupled qubit 50 MHz above omega_nv: the excitation rises
        # across the middle-peak window at every drive
        system = dict(SYSTEM, g=0.0, omega_fq=OMEGA_NV + 50.0)
        cfg = write_config(tmp_path, system=system, grid=GRID, model="thom")
        out = tmp_path / "run"
        assert main(["sweep-power", "--config", cfg, "--out", str(out),
                     "--lambdas", "2,0.5"]) == 0
        assert (out / "fwhm.csv").read_bytes() == (
            b"lambda,fwhm,converged\n"
            b"2.000000000000e+00,nan,false\n"
            b"5.000000000000e-01,nan,false\n")
        with open(out / "fwhm_meta.json") as fh:
            assert json.load(fh)["failures"] == [
                {"lambda": lam,
                 "reason": "maximum sits on the window boundary"}
                for lam in (2.0, 0.5)]

    @pytest.mark.parametrize("lambdas", ["0,1", "1,-2", "1,nan"])
    def test_non_positive_drive_exits_2(self, tmp_path, lambdas):
        cfg = write_config(tmp_path, system=SYSTEM, grid=GRID, model="thom")
        out = tmp_path / "run"
        assert main(["sweep-power", "--config", cfg, "--out", str(out),
                     "--lambdas", lambdas]) == 2
        assert not out.exists()

    def test_master_equation_fwhm_csv(self, tmp_path):
        grid = {"start_mhz": OMEGA_NV - 3, "stop_mhz": OMEGA_NV + 3,
                "n_points": 161}
        cfg = write_config(tmp_path, system=SYSTEM, grid=grid, model="me",
                           me_options={"n_max_bright": 2, "n_max_dark": 2})
        out = tmp_path / "run"
        assert main(["sweep-power", "--config", cfg, "--out", str(out),
                     "--lambdas", "1,10"]) == 0
        _, data = read_csv(out / "fwhm.csv")
        assert data[1, 1] > data[0, 1] > 0.0


    def test_mhom_damping_follows_system_rates(self, tmp_path):
        # like simulate: system.gamma_b/gamma_d when given, else fwhm_zfs;
        # the grid step 0.3 is the initial width guess without gamma_d
        grid = {"start_mhz": OMEGA_NV - 3, "stop_mhz": OMEGA_NV + 3,
                "n_points": 21}
        system = dict(SYSTEM, gamma_b=0.3, gamma_d=0.3)
        ensemble = dict(ENSEMBLE, mean_zeeman=3.5, distribution="gaussian",
                        hyperfine=0.0)
        widths = {}
        for tag, sys_cfg in (("rates", system),
                             ("zfs", {k: v for k, v in system.items()
                                      if k not in ("gamma_b", "gamma_d")})):
            cfg = write_config(tmp_path, name=f"{tag}.json", system=sys_cfg,
                               ensemble=ensemble, grid=grid, model="mhom")
            assert main(["sweep-power", "--config", cfg, "--out",
                         str(tmp_path / tag), "--lambdas", "1,4"]) == 0
            widths[tag] = read_csv(tmp_path / tag / "fwhm.csv")[1][:, 1]
        packets = sample_ensemble(EnsembleSpec(**ensemble))
        for tag, rate in (("rates", 0.3), ("zfs", 0.2)):
            params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.3,
                                gamma_b=rate, gamma_d=rate)
            rows = fwhm_vs_power(
                lambda lam: partial(mhom_response, packets,
                                    params.with_(lam=lam)),
                [1.0, 4.0], OMEGA_NV, 0.3)
            expected = [float(f"{r[1]:.12e}") for r in rows]
            assert list(widths[tag]) == expected
        assert widths["rates"][0] > widths["zfs"][0]

    @pytest.mark.parametrize("system", [None, {"gamma_fq": 0.3, "gamma_b": 0.5,
                                               "gamma_d": 0.5}])
    def test_mhom_config_without_system_parameters(self, tmp_path, system):
        # as for simulate and sweep, an MHOM config needs no SystemParams:
        # omega_nv comes from the ensemble and the initial width guess is
        # the packet damping gamma_d (0.5 here, above the grid step 0.3)
        grid = {"start_mhz": OMEGA_NV - 3, "stop_mhz": OMEGA_NV + 3,
                "n_points": 21}
        ensemble = dict(ENSEMBLE, mean_zeeman=3.5, distribution="gaussian",
                        hyperfine=0.0)
        cfg = dict(ensemble=ensemble, grid=grid, model="mhom")
        if system is not None:
            cfg["system"] = system
        out = tmp_path / "run"
        assert main(["sweep-power", "--config",
                     write_config(tmp_path, **cfg), "--out", str(out),
                     "--lambdas", "1,4"]) == 0
        system = system or {"gamma_fq": 0.0, "gamma_b": 0.2, "gamma_d": 0.2}
        params = MhomParams(omega_fq=OMEGA_NV, **system)
        packets = sample_ensemble(EnsembleSpec(**ensemble))
        rows = fwhm_vs_power(
            lambda lam: partial(mhom_response, packets,
                                params.with_(lam=lam)),
            [1.0, 4.0], OMEGA_NV, max(params.gamma_d, 0.3))
        assert list(read_csv(out / "fwhm.csv")[1][:, 1]) == [
            float(f"{r[1]:.12e}") for r in rows]


class TestPlotScript:
    def test_emits_gnuplot_for_each_kind(self, tmp_path):
        cfg = write_config(tmp_path, system=SYSTEM, grid=GRID, model="thom")
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rc = main(["plot-script", "--input", str(out / "spectrum.csv"),
                   "--kind", "spectrum", "--out", str(out)])
        assert rc == 0
        script = (out / "plot_spectrum.gp").read_text()
        assert "plot" in script and "spectrum.csv" in script

    def test_header_mismatch_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        rc = main(["plot-script", "--input", str(bad), "--kind", "spectrum",
                   "--out", str(tmp_path)])
        assert rc == 2


class TestConvergence:
    def test_report_json(self, tmp_path):
        grid = {"start_mhz": OMEGA_NV - 15, "stop_mhz": OMEGA_NV + 15,
                "n_points": 5}
        cfg = write_config(tmp_path, system=SYSTEM, grid=grid, model="me",
                           me_options={"n_max_bright": 2, "n_max_dark": 2})
        out = tmp_path / "run"
        rc = main(["convergence", "--config", cfg, "--out", str(out),
                   "--lambda", "0.1"])
        assert rc == 0
        report = json.loads((out / "convergence.json").read_text())
        assert report["n_b"] == 2 and report["n_d"] == 2
        assert report["max_rel_dev"] >= 0.0
        assert isinstance(report["pass"], bool)

    def test_invalid_drive_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, system=SYSTEM, grid=GRID, model="me",
                           me_options={"n_max_bright": 2, "n_max_dark": 2})
        out = tmp_path / "run"
        assert main(["convergence", "--config", cfg, "--out", str(out),
                     "--lambda", "nan"]) == 2
        assert not out.exists()


def _with(cfg, section, **fields):
    return dict(cfg, **{section: dict(cfg[section], **fields)})


MHOM = dict(model="mhom", system=SYSTEM, ensemble=ENSEMBLE, grid=GRID)
THOM = dict(model="thom", system=SYSTEM, grid=GRID,
            signal_map={"scale": 1.0, "offset": 1.0})
ESTIMATE = dict(ensemble=ENSEMBLE, estimate={"t1_us": 10.0})
SWEEP = ["sweep", "--axis", "detuning"]

# inputs that the CLI rejects: (file, command line); the file is written
# as a JSON config from a dict, byte for byte from bytes, and is passed
# with --input to plot-script and with --config to every other command
INVALID_INPUTS = {
    "mhom-gamma_fq-str": (_with(MHOM, "system", gamma_fq="abc"),
                          ["simulate"]),
    "mhom-omega_fq-str": (_with(MHOM, "system", omega_fq="x"), ["simulate"]),
    "n_packets-float": (_with(MHOM, "ensemble", n_packets=2.5),
                        ["simulate"]),
    "seed-float": (_with(MHOM, "ensemble", seed=1.5), ["simulate"]),
    "seed-flag-negative": (MHOM, ["simulate", "--seed", "-1"]),
    "fwhm_zfs-1e400": (_with(MHOM, "ensemble", fwhm_zfs=float("inf")),
                       ["simulate"]),
    "mean_zeeman-str": (_with(MHOM, "ensemble", mean_zeeman="x"),
                        ["simulate"]),
    "n_points-float": (_with(THOM, "grid", n_points=2.5), ["simulate"]),
    "scale-negative": (_with(THOM, "signal_map", scale=-1), ["simulate"]),
    "no-offset": (dict(THOM, signal_map={"scale": 1.0}), ["simulate"]),
    "scale-str": (_with(THOM, "signal_map", scale="a"), ["simulate"]),
    "deltas-number": (_with(ESTIMATE, "estimate", deltas=5), ["estimate"]),
    "t1_us-str": (_with(ESTIMATE, "estimate", t1_us="x"), ["estimate"]),
    "t1_us-null": (_with(ESTIMATE, "estimate", t1_us=None), ["estimate"]),
    "t1_us-list": (_with(ESTIMATE, "estimate", t1_us=[1]), ["estimate"]),
    "deltas-str-entry": (_with(ESTIMATE, "estimate", deltas=["a", 1, 2]),
                         ["estimate"]),
    "deltas-str": (_with(ESTIMATE, "estimate", deltas="abc"), ["estimate"]),
    "deltas-nan": (_with(ESTIMATE, "estimate", deltas=[1, 2, float("nan")]),
                   ["estimate"]),
    "mhom-sweep-nan": (MHOM, SWEEP + ["--values=1,nan"]),
    "mhom-gamma_b-negative": (_with(MHOM, "system", gamma_b=-1),
                              ["simulate"]),
    "mhom-lam-negative": (_with(MHOM, "system", lam=-2), ["simulate"]),
    "mhom-sweep-inf": (MHOM, SWEEP + ["--values=1,inf"]),
    "t1_us-bool": (_with(ESTIMATE, "estimate", t1_us=True), ["estimate"]),
    "deltas-bool-entry": (_with(ESTIMATE, "estimate", deltas=[True, 1, 2]),
                          ["estimate"]),
    "thom-g-bool": (_with(THOM, "system", g=True), ["simulate"]),
    "config-not-utf8": (b'{"model": "thom\xe9"}', ["simulate"]),
    "csv-header-not-utf8": (b"frequency_mhz\xe9,excitation\n1,2\n",
                            ["plot-script", "--kind", "spectrum"]),
    "eigen-delta-min-nan": (THOM, ["eigen", "--delta-min", "nan"]),
    "eigen-delta-max-inf": (THOM, ["eigen", "--delta-max=-inf"]),
    "mhom-omega_nv-str": (_with(MHOM, "system", omega_nv="x"),
                          SWEEP + ["--values=1,2"]),
    "t1_us-zero": (_with(ESTIMATE, "estimate", t1_us=0), ["estimate"]),
    "t1_us-negative": (_with(ESTIMATE, "estimate", t1_us=-1), ["estimate"]),
    "t1_us-subnormal": (_with(ESTIMATE, "estimate", t1_us=1e-320),
                        ["estimate"]),
    "deltas-two": (_with(ESTIMATE, "estimate", deltas=[1, 2]), ["estimate"]),
    "deltas-empty": (_with(ESTIMATE, "estimate", deltas=[]), ["estimate"]),
    "deltas-zero": (_with(ESTIMATE, "estimate", deltas=[0, 0, 0]),
                    ["estimate"]),
    "gamma_nv-nan": (_with(ESTIMATE, "estimate", gamma_nv=float("nan")),
                     ["estimate"]),
    "gamma_nv-negative": (_with(ESTIMATE, "estimate", gamma_nv=-0.1),
                          ["estimate"]),
    "gamma_nv-bool": (_with(ESTIMATE, "estimate", gamma_nv=True),
                      ["estimate"]),
    "gamma_nv-str": (_with(ESTIMATE, "estimate", gamma_nv="0.1"),
                     ["estimate"]),
}


class TestInvalidInput:
    @pytest.mark.parametrize("name", INVALID_INPUTS)
    def test_exits_2_without_files(self, tmp_path, capsys, name):
        contents, argv = INVALID_INPUTS[name]
        if isinstance(contents, bytes):
            path = tmp_path / "input"
            path.write_bytes(contents)
            path = str(path)
        else:
            path = write_config(tmp_path, **contents)
        flag = "--input" if argv[0] == "plot-script" else "--config"
        out = tmp_path / "run"
        assert main([argv[0], flag, path, "--out", str(out),
                     *argv[1:]]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error: invalid ")


SMALL_GRID = dict(GRID, n_points=21)
SMALL_ENSEMBLE = {"n_packets": 8, "mean_zeeman": 2.0, "fwhm_zeeman": 0.0,
                  "fwhm_strain": 0.0, "fwhm_zfs": 0.1, "collective_g": 10.0,
                  "omega_nv": OMEGA_NV, "seed": 7, "hyperfine": 0.0}
# a working config per command, and the commands that read each section
SWEEP_BASES = {
    "thom": dict(THOM, grid=SMALL_GRID),
    "mhom": dict(MHOM, ensemble=SMALL_ENSEMBLE, grid=SMALL_GRID),
    "me": dict(model="me", system=SYSTEM, grid=dict(GRID, n_points=5),
               me_options={"n_max_bright": 2, "n_max_dark": 2}),
    "estimate": dict(ensemble=SMALL_ENSEMBLE,
                     estimate={"t1_us": 10.0, "deltas": [0.5, 1.0, 1.5]}),
}
READERS = {"system": ("thom", "mhom", "me"), "grid": ("thom", "mhom", "me"),
           "signal_map": ("thom",), "me_options": ("me",),
           "ensemble": ("mhom", "estimate"), "estimate": ("estimate",)}
SWEEP_VALUES = ([1], {}, [], None, True, "x", -1, 0, 1e308)
SWEEP_CASES = [
    (base, section, key, value)
    for section in sorted(_SECTIONS) for key in sorted(_SECTIONS[section])
    for base in READERS[section] for value in SWEEP_VALUES
] + [("thom", None, "model", value) for value in SWEEP_VALUES]


# a finite value too large for the model: its arithmetic overflows
HUGE_VALUES = [
    *(("thom", "system", key) for key in (
        "g", "j", "lam", "gamma_fq", "gamma_b", "gamma_d", "omega_fq",
        "omega_nv")),
    *(("mhom", "system", key) for key in ("lam", "gamma_b", "gamma_d")),
    *(("me", "system", key) for key in ("gamma_fq", "gamma_b", "gamma_d")),
    ("thom", "grid", "stop_mhz"),
    *(("mhom", "ensemble", key) for key in (
        "mean_zeeman", "fwhm_zeeman", "fwhm_strain", "hyperfine",
        "collective_g", "omega_nv")),
    *(("estimate", "ensemble", key) for key in ("collective_g", "omega_nv")),
]


class TestConfigSweep:
    # the solver error is the only output: no RuntimeWarning precedes it
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("base, section, key", HUGE_VALUES)
    def test_huge_value_is_a_solver_error(self, tmp_path, capsys, base,
                                          section, key):
        path = write_config(tmp_path, **_with(SWEEP_BASES[base], section,
                                              **{key: 1e308}))
        out = tmp_path / "run"
        command = "estimate" if base == "estimate" else "simulate"
        assert main([command, "--config", path, "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("solver error: ")

    @pytest.mark.parametrize("base, section, key, value", SWEEP_CASES,
                             ids=lambda x: json.dumps(x).strip('"'))
    def test_exits_0_2_or_3(self, tmp_path, capsys, base, section, key,
                            value):
        cfg = SWEEP_BASES[base]
        if section is None:
            cfg = dict(cfg, **{key: value})
        else:
            cfg = _with(cfg, section, **{key: value})
        path = write_config(tmp_path, **cfg)
        out = tmp_path / "run"
        command = "estimate" if base == "estimate" else "simulate"
        rc = main([command, "--config", path, "--out", str(out)])
        assert rc in (0, 2, 3)
        assert out.exists() == (rc == 0)
        assert "Traceback" not in capsys.readouterr().err


def per_value(table):
    """The CSV rows of a 2-D table, one f"{x:.12e}" per value."""
    return "".join(",".join(f"{x:.12e}" for x in row) + "\n"
                   for row in table).encode()


class TestWriter:
    def test_rows_are_per_value_format(self):
        rng = np.random.default_rng(5)
        special = [-0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e308]
        a = np.concatenate([special, rng.standard_normal(400)
                            * 10.0 ** rng.integers(-300, 300, 400)])
        b = rng.permutation(a)
        c = rng.standard_normal((len(a), 3))
        assert b"".join(_rows(a, b, c)) == per_value(
            np.column_stack([a, b, c]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        assert b"".join(_rows(x)) == per_value(x[:, None])

    def test_rounding_boundaries(self):
        # powers of ten, the values just below them that round up to the
        # next decade, and decimal halves of the 13th digit, each with its
        # neighbours one ulp away
        tens = np.array([float(f"1e{n}") for n in range(-330, 311)])
        rng = np.random.default_rng(11)
        m = rng.integers(10 ** 12, 10 ** 13, 2000)
        k = rng.integers(-110, 110, 2000)
        halves = np.concatenate([
            [float(f"{d}5e{e}") for d, e in zip(m, k)],
            m + 0.5,  # exact binary halves: ties
        ])
        x = np.concatenate([tens, (1 - 5e-14) * tens, halves])
        x = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])
        x = np.concatenate([x, -x])
        assert b"".join(_rows(x)) == per_value(x[:, None])

    @pytest.mark.parametrize("n_columns", range(1, 8))
    def test_column_counts(self, n_columns):
        rng = np.random.default_rng(n_columns)
        table = (rng.standard_normal((50, n_columns))
                 * 10.0 ** rng.integers(-120, 120, (50, n_columns)))
        assert b"".join(_rows(*table.T)) == per_value(table)

    @pytest.mark.parametrize("n_rows", [k * _CHUNK_ROWS + d for k in (1, 8)
                                        for d in (-1, 0, 1)])
    def test_chunk_edges(self, n_rows):
        rng = np.random.default_rng(n_rows)
        table = rng.standard_normal((n_rows, 2)) * 1e3
        assert (b"".join(_rows(table[:, 0], table[:, 1]))
                == per_value(table))

    def test_memory_does_not_grow_with_the_rows(self, tmp_path):
        # the writer holds one chunk of text at a time, not the file
        def peak(n_rows):
            omegas = np.linspace(0.0, 1.0, n_rows)
            values = np.random.default_rng(n_rows).random(n_rows)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                _write_csv(str(tmp_path / "t.csv"), "a,b",
                           _rows(omegas, values))
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(200_001) - peak(20_001) < 1e6

    @pytest.mark.parametrize("existing", [None, b"old,file\n"])
    def test_failed_write_leaves_the_target_as_it_was(self, tmp_path,
                                                      existing):
        target = tmp_path / "out.csv"
        if existing is not None:
            target.write_bytes(existing)

        def chunks():
            yield b"1,2\n"
            raise SolverFailure("stopped partway")

        with pytest.raises(SolverFailure):
            _write_csv(str(target), "a,b", chunks())
        assert not list(tmp_path.glob("*.tmp"))
        if existing is None:
            assert not target.exists()
        else:
            assert target.read_bytes() == existing

    @pytest.mark.parametrize("axis, values", [("power", [0.5, 2.0, 1.0]),
                                              ("detuning", [-3.0, 2.5])])
    def test_mhom_sweep_rows_match_per_value_calls(self, tmp_path, axis,
                                                   values):
        grid = dict(GRID, n_points=41)
        cfg = write_config(tmp_path, **dict(MHOM, grid=grid))
        out = tmp_path / "run"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--axis", axis,
                     "--values=" + ",".join(map(str, values))]) == 0
        packets = sample_ensemble(EnsembleSpec(**ENSEMBLE))
        params = MhomParams(**{k: SYSTEM[k] for k in (
            "omega_fq", "gamma_fq", "gamma_b", "gamma_d", "lam")})
        omegas = np.linspace(grid["start_mhz"], grid["stop_mhz"], 41)
        lines = []
        for v in values:
            p = (params.with_(lam=v) if axis == "power"
                 else params.with_(omega_fq=SYSTEM["omega_nv"] + v))
            lines += [f"{v:.12e},{w:.12e},{e:.12e}" for w, e in zip(
                omegas, mhom_response(packets, p, omegas))]
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert rows == lines
