"""The benchmark's two workloads.

Each workload builds its inputs from the seed in ``__init__`` (that is the
set-up the benchmark times), yields its operations as (name, callable) in a
fixed order from ``operations()``, and afterwards ``check(outputs)`` returns
the names of the failed operations and the problems found in the others;
``details(outputs)`` gives figures worth printing.  Program functions are
looked up through their modules at call time, so the traced run sees every
call.

Nothing here allocates large arrays before the operations run: a freed
large allocation raises glibc's mmap/trim thresholds and would make the
package look faster than a user's fresh process finds it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import traceback

import numpy as np

import checks

OMEGA_NV = 2878.0
REFERENCE_SYSTEM = dict(omega_fq=OMEGA_NV, omega_nv=OMEGA_NV, g=12.95,
                        j=3.46, gamma_fq=0.300, gamma_b=6.433, gamma_d=0.493)


class MePowerBroadening:
    """Criterion 6's power broadening of the ME middle peak, plus the
    criterion 5 weak-drive spectrum."""

    LAMBDAS = (1.0, 5.0, 10.0, 20.0)
    POINTS_PER_LAMBDA = 21
    WEAK_LAMBDA = 0.1
    WEAK_POINTS = 161

    def __init__(self, hs, seed, workdir):
        self.hs = hs
        # the seed shifts both grids by less than a quarter of a step
        centre = OMEGA_NV + np.random.default_rng(seed).uniform(-0.1, 0.1)
        self.params = hs.SystemParams(**REFERENCE_SYSTEM)
        self.grid = hs.FrequencyGrid(centre - 4.5, centre + 4.5,
                                     self.POINTS_PER_LAMBDA)
        self.weak_grid = hs.FrequencyGrid(centre - 20.0, centre + 20.0,
                                          self.WEAK_POINTS)

    def _broadened(self, lam):
        hs = self.hs
        spec = hs.master_eq.me_spectrum(self.params.with_(lam=lam), self.grid,
                                        hs.master_eq.HilbertLayout(4, 4))
        fit = hs.fitting.fit_lorentzian(spec, (self.grid.start,
                                               self.grid.stop))
        return spec.values, fit.fwhm

    def _weak(self):
        hs = self.hs
        return hs.master_eq.me_spectrum(
            self.params.with_(lam=self.WEAK_LAMBDA), self.weak_grid,
            hs.master_eq.HilbertLayout(3, 3)).values

    def operations(self):
        for lam in self.LAMBDAS:
            yield f"lambda={lam:g}", lambda lam=lam: self._broadened(lam)
        yield f"weak lambda={self.WEAK_LAMBDA:g}", self._weak

    def check(self, outputs):
        failed = [k for k, v in outputs.items() if isinstance(v, Exception)]
        if failed:
            return failed, []
        strong = [outputs[f"lambda={lam:g}"] for lam in self.LAMBDAS]
        problems = checks.check_power_broadening(
            self.LAMBDAS, [f for _, f in strong], [v for v, _ in strong])
        problems += checks.check_weak_drive(
            self.params.with_(lam=self.WEAK_LAMBDA), self.weak_grid.points(),
            outputs[f"weak lambda={self.WEAK_LAMBDA:g}"])
        return failed, problems

    def details(self, outputs):
        return {"fwhm": [round(outputs[f"lambda={lam:g}"][1], 4)
                         for lam in self.LAMBDAS
                         if not isinstance(outputs[f"lambda={lam:g}"],
                                           Exception)]}


class EstimateReference:
    """Criterion 8's pipeline on the reference ensemble (ensemble seed =
    benchmark seed), then criterion 9's synthetic round trip."""

    REFERENCE_ENSEMBLE = dict(
        n_packets=36000, mean_zeeman=0.0, fwhm_zeeman=3.1, fwhm_strain=4.4,
        fwhm_zfs=0.2, collective_g=13.0, omega_nv=OMEGA_NV,
        distribution="lorentzian", hyperfine=2.16)
    T1_REFERENCE_US = 1.0 / (2.0 * 0.33)
    TRUTH = {"g": 10.0, "j": 2.0, "gamma": 0.01}
    ROUND_TRIP_T1_US = 250.0
    ROUND_TRIP_DELTAS = (0.05, 0.10, 0.15)

    def __init__(self, hs, seed, workdir):
        self.hs = hs
        self.reference = hs.EnsembleSpec(seed=seed, **self.REFERENCE_ENSEMBLE)
        t = self.TRUTH
        self.synthetic = hs.EnsembleSpec(
            n_packets=8, mean_zeeman=t["j"], fwhm_zeeman=0.0, fwhm_strain=0.0,
            fwhm_zfs=0.0, collective_g=t["g"], omega_nv=OMEGA_NV, seed=seed)
        self.grid = hs.FrequencyGrid(OMEGA_NV - 16.0, OMEGA_NV + 16.0, 16001)

    def operations(self):
        hs = self.hs
        yield "reference", lambda: hs.estimate.run_pipeline(
            self.reference, self.T1_REFERENCE_US)
        yield "round trip", lambda: hs.estimate.run_pipeline(
            self.synthetic, self.ROUND_TRIP_T1_US, grid=self.grid,
            deltas=self.ROUND_TRIP_DELTAS, gamma_nv=self.TRUTH["gamma"])

    def check(self, outputs):
        failed = [k for k, v in outputs.items() if isinstance(v, Exception)]
        problems = []
        if "reference" not in failed:
            problems += checks.check_reference(outputs["reference"])
        if "round trip" not in failed:
            t = self.TRUTH
            p = self.hs.SystemParams(
                omega_fq=OMEGA_NV, omega_nv=OMEGA_NV, g=t["g"], j=t["j"],
                gamma_fq=1.0 / (2.0 * self.ROUND_TRIP_T1_US),
                gamma_b=t["gamma"], gamma_d=t["gamma"])
            cg = self.synthetic.collective_g
            oracle = {
                "separation": checks.oracle_separation(p, 0.4 * cg, 2.0 * cg),
                "ratio": checks.oracle_ratio(p, self.ROUND_TRIP_DELTAS),
            }
            problems += checks.check_round_trip(outputs["round trip"], t,
                                                oracle)
        return failed, problems

    def details(self, outputs):
        r = outputs.get("reference")
        if isinstance(r, Exception) or r is None:
            return {}
        return {k: round(getattr(r, k), 4)
                for k in ("g", "j", "gamma_b", "gamma_d")}


def run_cli(main, argv):
    """Run ``main(argv)`` in process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # an uncaught exception: the interpreter would exit with 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


class CliRoundtrip:
    """In-process ``hybridspec.cli.main`` over a fixed sequence of
    subcommands, with large writes beside reads, and five invalid inputs
    that must exit 2."""

    THOM_POINTS = 200001
    SWEEP_POINTS = 2001
    SWEEP_DETUNINGS = 101
    EIGEN_DELTAS = 20001
    MHOM_POINTS = 20001
    MHOM_PACKETS = 16
    WINDOW = (OMEGA_NV - 3.0, OMEGA_NV + 3.0)
    INVALID = ("sweep-power lambda 0", "fit three-value window",
               "eigen negative count", "fit one-row csv",
               "fit non-uniform csv")

    def __init__(self, hs, seed, workdir):
        self.hs = hs
        self.dir = workdir
        rng = np.random.default_rng(seed)
        self.system = dict(
            omega_fq=OMEGA_NV, omega_nv=OMEGA_NV,
            g=rng.uniform(12.5, 13.5), j=rng.uniform(3.2, 3.7),
            gamma_fq=rng.uniform(0.25, 0.35), gamma_b=rng.uniform(6.0, 6.8),
            gamma_d=rng.uniform(0.45, 0.55), lam=rng.uniform(0.5, 2.0))
        self.mhom_system = dict(omega_fq=OMEGA_NV,
                                gamma_fq=self.system["gamma_fq"],
                                gamma_b=0.2, gamma_d=0.2,
                                lam=self.system["lam"])
        ensemble = dict(EstimateReference.REFERENCE_ENSEMBLE,
                        n_packets=self.MHOM_PACKETS, seed=seed)
        self.detunings = np.linspace(-10.0, 10.0, self.SWEEP_DETUNINGS)
        os.makedirs(workdir, exist_ok=True)

        def config(name, model, system, n_points, **extra):
            cfg = {"model": model, "system": system,
                   "grid": {"start_mhz": OMEGA_NV - 25.0,
                            "stop_mhz": OMEGA_NV + 25.0,
                            "n_points": n_points}, **extra}
            with open(self.path(name), "w") as fh:
                json.dump(cfg, fh)
            return cfg

        self.thom_cfg = config("thom.json", "thom", self.system,
                               self.THOM_POINTS)
        self.sweep_cfg = config("sweep.json", "thom", self.system,
                                self.SWEEP_POINTS)
        self.mhom_cfg = config("mhom.json", "mhom", self.mhom_system,
                               self.MHOM_POINTS, ensemble=ensemble)

        # small fit-lorentzian inputs: one row, and the middle peak on a
        # grid that is denser near the centre
        p = hs.SystemParams(**self.system)
        u = np.linspace(-1.0, 1.0, 401)
        self._write_spectrum("nonuniform.csv",
                             OMEGA_NV + 4.0 * (u + 0.5 * u ** 3) / 1.5, p)
        self._write_spectrum("uniform.csv", OMEGA_NV + 4.0 * u, p)
        self._write_spectrum("one_row.csv", np.array([OMEGA_NV]), p)

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def _write_spectrum(self, name, omegas, p):
        values = checks.three_mode_response(p, omegas)
        with open(self.path(name), "w") as fh:
            fh.write("frequency_mhz,excitation\n")
            for w, v in zip(omegas, values):
                fh.write(f"{w:.12e},{v:.12e}\n")

    def operations(self):
        main = self.hs.cli.main
        path = self.path
        window = f"{self.WINDOW[0]!r},{self.WINDOW[1]!r}"
        values = ",".join(repr(float(v)) for v in self.detunings)
        runs = [
            ("simulate thom", ["simulate", "--config", path("thom.json"),
                               "--out", path("thom")]),
            ("fit thom csv", ["fit-lorentzian", "--input",
                              path("thom", "spectrum.csv"),
                              "--window", window]),
            ("sweep detuning", ["sweep", "--config", path("sweep.json"),
                                "--axis", "detuning", f"--values={values}",
                                "--out", path("sweep")]),
            ("eigen", ["eigen", "--config", path("thom.json"),
                       "--delta-min=-10", "--delta-max=10",
                       "--n-deltas", str(self.EIGEN_DELTAS),
                       "--out", path("eigen")]),
            ("simulate mhom", ["simulate", "--config", path("mhom.json"),
                               "--out", path("mhom1"), "--dump-packets",
                               path("mhom1", "packets.csv")]),
            ("simulate mhom again", ["simulate", "--config",
                                     path("mhom.json"), "--out",
                                     path("mhom2"), "--dump-packets",
                                     path("mhom2", "packets.csv")]),
            ("sweep-power lambda 0", ["sweep-power", "--config",
                                      path("sweep.json"), "--lambdas", "0,1",
                                      "--out", path("bad")]),
            ("fit three-value window", ["fit-lorentzian", "--input",
                                        path("uniform.csv"),
                                        "--window", "1,2,3"]),
            ("eigen negative count", ["eigen", "--config", path("sweep.json"),
                                      "--n-deltas", "-1",
                                      "--out", path("bad")]),
            ("fit one-row csv", ["fit-lorentzian", "--input",
                                 path("one_row.csv"), "--window", window]),
            ("fit non-uniform csv", ["fit-lorentzian", "--input",
                                     path("nonuniform.csv"),
                                     "--window", window]),
        ]
        for name, argv in runs:
            yield name, lambda argv=argv: run_cli(main, argv)

    def check(self, outputs):
        failed = [name for name, out in outputs.items()
                  if isinstance(out, Exception) or checks.check_exit(
                      out[0], 2 if name in self.INVALID else 0)]
        ok = lambda name: name not in failed
        p = self.hs.SystemParams(**self.system)
        grid = lambda cfg: np.linspace(cfg["grid"]["start_mhz"],
                                       cfg["grid"]["stop_mhz"],
                                       cfg["grid"]["n_points"])
        problems = []
        if ok("simulate thom"):
            omegas = grid(self.thom_cfg)
            problems += checks.check_spectrum_rows(
                checks.read_csv(self.path("thom", "spectrum.csv")), omegas,
                checks.three_mode_response(p, omegas))
        if ok("fit thom csv"):
            problems += checks.check_fit_centre(
                json.loads(outputs["fit thom csv"][1]), OMEGA_NV)
        if ok("sweep detuning"):
            omegas = grid(self.sweep_cfg)
            problems += checks.check_sweep_rows(
                checks.read_csv(self.path("sweep", "sweep.csv")),
                self.detunings, omegas,
                lambda v: checks.three_mode_response(
                    p.with_(omega_fq=OMEGA_NV + v), omegas))
            with open(self.path("sweep", "sweep_meta.json")) as fh:
                if json.load(fh)["failures"]:
                    problems.append("sweep reported failed axis values")
        if ok("eigen"):
            problems += checks.check_eigen_rows(
                checks.read_csv(self.path("eigen", "eigen.csv")),
                np.linspace(-10.0, 10.0, self.EIGEN_DELTAS), OMEGA_NV,
                p.g, p.j)
        if ok("simulate mhom"):
            problems += self._check_mhom(grid(self.mhom_cfg))
        if ok("simulate mhom") and ok("simulate mhom again"):
            for name in ("spectrum.csv", "packets.csv"):
                with open(self.path("mhom1", name), "rb") as a, \
                        open(self.path("mhom2", name), "rb") as b:
                    problems += checks.check_identical(
                        a.read(), b.read(), f"simulate --model mhom {name}")
        return failed, problems

    def _check_mhom(self, omegas):
        packets = checks.read_csv(self.path("mhom1", "packets.csv"))
        zeta, omega_b, omega_d, j_zeeman, j_strain = packets.T
        s = self.mhom_system
        h = checks.packet_h(s["omega_fq"], zeta, omega_b, omega_d, j_zeeman,
                            j_strain)
        gammas = checks.packet_gammas(len(zeta), s["gamma_fq"], s["gamma_b"],
                                      s["gamma_d"])
        # the dump rounds packet frequencies to 5e-10 absolute, which moves
        # the response near a packet resonance (HWHM 0.2) by ~1e-8 relative
        return checks.check_spectrum_rows(
            checks.read_csv(self.path("mhom1", "spectrum.csv")), omegas,
            checks.response(h, gammas, omegas, s["lam"]), rel_tol=1e-7)

    def details(self, outputs):
        out = {}
        for name in ("fit thom csv", "fit non-uniform csv"):
            r = outputs.get(name)
            if isinstance(r, tuple) and r[0] == 0:
                out[f"{name} hwhm"] = round(json.loads(r[1])["gamma"], 4)
        out["exit codes"] = {name: r[0] for name, r in outputs.items()
                             if isinstance(r, tuple) and name in self.INVALID}
        return out


class EstimateCli:
    """The estimation pipeline and its round trip, then the CLI sequence,
    in one process.  The pipeline goes first, so that it meets a fresh
    process's allocator as ``hybridspec estimate`` does; the CLI's large
    arrays are allocated and freed only after it."""

    def __init__(self, hs, seed, workdir):
        self.parts = (EstimateReference(hs, seed, workdir),
                      CliRoundtrip(hs, seed, workdir))

    def operations(self):
        for part in self.parts:
            yield from part.operations()

    def _split(self, outputs):
        for part in self.parts:
            names = [name for name, _ in part.operations()]
            yield part, {k: outputs[k] for k in names if k in outputs}

    def check(self, outputs):
        failed, problems = [], []
        for part, own in self._split(outputs):
            f, p = part.check(own)
            failed += f
            problems += p
        return failed, problems

    def details(self, outputs):
        out = {}
        for part, own in self._split(outputs):
            out.update(part.details(own))
        return out


WORKLOADS = {
    "me_power_broadening": MePowerBroadening,
    "estimate_cli": EstimateCli,
}
