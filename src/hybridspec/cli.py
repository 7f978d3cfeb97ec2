"""Command-line front-end: config parsing, model dispatch, CSV/JSON output.

Exit codes: 0 success, 2 configuration error, 3 solver error.  All output
files are written atomically (temp file + rename) and every run emits a
metadata JSON carrying the config hash, seed, package version and a
timestamp; the data files themselves are byte-deterministic for a fixed
config and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__
from .core import (
    FrequencyGrid,
    SignalMap,
    Spectrum,
    SystemParams,
    apply_signal_map,
)
from .errors import HybridSpecError
from .eigen import eigen_numeric
from .estimate import run_pipeline
from .fitting import fit_lorentzian, fwhm_vs_power
from .master_eq import (
    HermitianGenerator,
    HilbertLayout,
    truncation_convergence,
)
from .mhom import (EnsembleSpec, MhomParams, SelfEnergy, mhom_response,
                   sample_ensemble)
from .thom import thom_excitation


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


_TOP_KEYS = {"system", "ensemble", "grid", "model", "me_options",
             "signal_map", "estimate"}
_SYSTEM_KEYS = {"omega_fq", "omega_nv", "g", "j", "theta", "gamma_fq",
                "gamma_b", "gamma_d", "lam"}
_ENSEMBLE_KEYS = {"n_packets", "mean_zeeman", "fwhm_zeeman", "fwhm_strain",
                  "fwhm_zfs", "collective_g", "omega_nv", "seed",
                  "distribution", "hyperfine"}
_GRID_KEYS = {"start_mhz", "stop_mhz", "n_points"}
_ME_KEYS = {"n_max_bright", "n_max_dark"}
_SIGNAL_KEYS = {"scale", "offset"}
_ESTIMATE_KEYS = {"t1_us", "deltas"}
_MODELS = {"thom", "mhom", "me"}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path: str) -> dict:
    """Read and validate the JSON run configuration (strict schema)."""
    try:
        with open(path, "r") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, _TOP_KEYS, "config")
    if "system" in cfg:
        _check_keys(cfg["system"], _SYSTEM_KEYS, "system")
    if "ensemble" in cfg:
        _check_keys(cfg["ensemble"], _ENSEMBLE_KEYS, "ensemble")
    if "grid" in cfg:
        _check_keys(cfg["grid"], _GRID_KEYS, "grid")
    if "me_options" in cfg:
        _check_keys(cfg["me_options"], _ME_KEYS, "me_options")
    if "signal_map" in cfg:
        _check_keys(cfg["signal_map"], _SIGNAL_KEYS, "signal_map")
    if "estimate" in cfg:
        _check_keys(cfg["estimate"], _ESTIMATE_KEYS, "estimate")
    if "model" in cfg and cfg["model"] not in _MODELS:
        raise ConfigError(f"model must be one of {sorted(_MODELS)}")
    cfg["_sha256"] = hashlib.sha256(raw.encode()).hexdigest()
    return cfg


def _build_system(cfg: dict) -> SystemParams:
    if "system" not in cfg:
        raise ConfigError("config requires a 'system' object")
    try:
        return SystemParams(**cfg["system"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid system parameters: {exc}") from exc


def _build_grid(cfg: dict) -> FrequencyGrid:
    if "grid" not in cfg:
        raise ConfigError("config requires a 'grid' object")
    g = cfg["grid"]
    try:
        return FrequencyGrid(g["start_mhz"], g["stop_mhz"], g["n_points"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _build_ensemble(cfg: dict, seed_override=None) -> EnsembleSpec:
    if "ensemble" not in cfg:
        raise ConfigError("config requires an 'ensemble' object")
    fields = dict(cfg["ensemble"])
    if seed_override is not None:
        fields["seed"] = seed_override
    try:
        return EnsembleSpec(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid ensemble spec: {exc}") from exc


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates 0600; give the file the mode open() would
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_metadata(path: str, cfg: dict, command: str, seed=None,
                    extra: dict = None) -> None:
    meta = {
        "command": command,
        "config_sha256": cfg.get("_sha256"),
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        meta.update(extra)
    _atomic_write(path, json.dumps(meta, indent=2) + "\n")


def _write_spectrum_csv(path: str, spec: Spectrum, mapped=None) -> None:
    lines = []
    if mapped is None:
        lines.append("frequency_mhz,excitation")
        for w, v in zip(spec.frequencies(), spec.values):
            lines.append(f"{_fmt(w)},{_fmt(v)}")
    else:
        lines.append("frequency_mhz,excitation,switching_prob")
        for w, v, s in zip(spec.frequencies(), spec.values, mapped.values):
            lines.append(f"{_fmt(w)},{_fmt(v)},{_fmt(s)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _excitation(cfg: dict, model: str, args):
    """Build the chosen model: lam -> (omegas -> excitation), where lam=None
    keeps the config's drive.  MHOM packets are damped by system.gamma_b and
    gamma_d when given, else by ensemble.fwhm_zfs."""
    if model == "mhom":
        ens = _build_ensemble(cfg, seed_override=args.seed)
        sys_cfg = cfg.get("system", {})
        params = MhomParams(
            omega_fq=sys_cfg.get("omega_fq", ens.omega_nv),
            gamma_fq=sys_cfg.get("gamma_fq", 0.0),
            gamma_b=sys_cfg.get("gamma_b", ens.fwhm_zfs),
            gamma_d=sys_cfg.get("gamma_d", ens.fwhm_zfs),
            lam=sys_cfg.get("lam", 1.0),
        )
        packets = sample_ensemble(ens)
        if getattr(args, "dump_packets", None):
            lines = ["zeta,omega_b,omega_d,j_zeeman,j_strain"]
            for k in range(len(packets)):
                lines.append(",".join(_fmt(a[k]) for a in (
                    packets.zeta, packets.omega_b, packets.omega_d,
                    packets.j_zeeman, packets.j_strain)))
            _atomic_write(args.dump_packets, "\n".join(lines) + "\n")
        sigma = SelfEnergy(packets, params.gamma_b, params.gamma_d)
        model_at = lambda p: partial(mhom_response, sigma, p)
    else:
        params = _build_system(cfg)
        if model == "thom":
            model_at = lambda p: partial(thom_excitation, p)
        else:
            layout = _layout_from(cfg, args)
            model_at = lambda p: HermitianGenerator(p, layout).excitation
    return lambda lam: model_at(_with_drive(params, lam))


def _with_drive(params, lam):
    """params at the drive amplitude lam from the command line (None keeps
    the config's); a drive that is not finite and >= 0 is a config error."""
    if lam is None:
        return params
    if not 0.0 <= lam < float("inf"):
        raise ConfigError(f"drive amplitude must be finite and >= 0, "
                          f"got {lam!r}")
    return params.with_(lam=lam)


def _layout_from(cfg: dict, args) -> HilbertLayout:
    opts = cfg.get("me_options", {})
    nb = getattr(args, "n_max_b", None)
    nd = getattr(args, "n_max_d", None)
    nb = opts.get("n_max_bright", 4) if nb is None else nb
    nd = opts.get("n_max_dark", 4) if nd is None else nd
    for n in (nb, nd):
        if isinstance(n, bool) or not isinstance(n, int):
            raise ConfigError(f"Fock truncations must be integers, got {n!r}")
    try:
        return HilbertLayout(nb, nd)
    except ValueError as exc:
        raise ConfigError(f"invalid truncation: {exc}") from exc


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    model = args.model or cfg.get("model")
    if model not in _MODELS:
        raise ConfigError("no model selected (config 'model' or --model)")
    grid = _build_grid(cfg)
    values = _excitation(cfg, model, args)(args.drive)(grid.points())
    spec = Spectrum(grid=grid, values=values, model_tag=model.upper())
    mapped = None
    if "signal_map" in cfg:
        sm = cfg["signal_map"]
        mapped = apply_signal_map(spec, SignalMap(sm["scale"], sm["offset"]))
    out = args.out or "."
    _write_spectrum_csv(os.path.join(out, "spectrum.csv"), spec, mapped)
    _write_metadata(os.path.join(out, "spectrum_meta.json"), cfg,
                    "simulate", seed=args.seed,
                    extra={"model": model, "n_points": grid.n_points})
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    model = args.model or cfg.get("model")
    if model not in _MODELS:
        raise ConfigError("no model selected (config 'model' or --model)")
    values = _parse_floats(args.values)
    if len(values) < 2:
        raise ConfigError("sweep requires at least 2 axis values")
    grid = _build_grid(cfg)
    lines = ["axis_value,frequency_mhz,excitation"]
    failures = []
    for v in values:
        if args.axis == "power":
            sweep_cfg, drive = cfg, v
        else:
            sweep_cfg, drive = dict(cfg), None
            sweep_cfg["system"] = dict(cfg.get("system", {}))
            base = sweep_cfg["system"].get(
                "omega_nv", cfg.get("ensemble", {}).get("omega_nv", 0.0))
            sweep_cfg["system"]["omega_fq"] = base + v
        try:
            excitation = _excitation(sweep_cfg, model, args)(drive)
            spec = Spectrum(grid=grid, values=excitation(grid.points()),
                            model_tag=model.upper())
        except HybridSpecError as exc:
            failures.append({"axis_value": v, "error": str(exc)})
            continue
        for w, e in zip(spec.frequencies(), spec.values):
            lines.append(f"{_fmt(v)},{_fmt(w)},{_fmt(e)}")
    out = args.out or "."
    _atomic_write(os.path.join(out, "sweep.csv"), "\n".join(lines) + "\n")
    _write_metadata(os.path.join(out, "sweep_meta.json"), cfg, "sweep",
                    seed=args.seed,
                    extra={"model": model, "axis": args.axis,
                           "values": values, "failures": failures})
    return 0


def cmd_eigen(args) -> int:
    cfg = load_config(args.config)
    params = _build_system(cfg)
    if args.n_deltas < 1:
        raise ConfigError(f"--n-deltas must be >= 1, got {args.n_deltas}")
    deltas = np.linspace(args.delta_min, args.delta_max, args.n_deltas)
    lines = ["delta_mhz,e_left,e_middle,e_right,"
             "w0_left,w0_middle,w0_right"]
    r = eigen_numeric(params, deltas)
    for d, values, weights in zip(deltas, r.values, r.qubit_weights):
        lines.append(",".join(_fmt(x) for x in (d, *values, *weights)))
    out = args.out or "."
    _atomic_write(os.path.join(out, "eigen.csv"), "\n".join(lines) + "\n")
    _write_metadata(os.path.join(out, "eigen_meta.json"), cfg, "eigen")
    return 0


def cmd_estimate(args) -> int:
    cfg = load_config(args.config)
    ens = _build_ensemble(cfg, seed_override=args.seed)
    est_cfg = cfg.get("estimate", {})
    if "t1_us" not in est_cfg:
        raise ConfigError("estimate requires config key estimate.t1_us")
    kwargs = {}
    if "deltas" in est_cfg:
        kwargs["deltas"] = tuple(est_cfg["deltas"])
    if "grid" in cfg:
        kwargs["grid"] = _build_grid(cfg)
    result = run_pipeline(ens, est_cfg["t1_us"], **kwargs)
    payload = {
        "g": result.g, "j": result.j, "gamma_fq": result.gamma_fq,
        "gamma_b": result.gamma_b, "gamma_d": result.gamma_d,
        "intermediate": result.intermediate,
        "provenance": result.provenance,
        "config_sha256": cfg.get("_sha256"),
        "version": __version__,
    }
    text = json.dumps(payload, indent=2) + "\n"
    out = args.out or "."
    _atomic_write(os.path.join(out, "estimate.json"), text)
    sys.stdout.write(text)
    return 0


def cmd_fit_lorentzian(args) -> int:
    window = _parse_floats(args.window)
    if len(window) != 2:
        raise ConfigError(f"--window needs lo,hi, got {args.window!r}")
    try:
        rows = np.genfromtxt(args.input, delimiter=",", names=True)
    except OSError as exc:
        raise ConfigError(f"cannot read {args.input}: {exc}") from exc
    names = rows.dtype.names or ()
    if "frequency_mhz" not in names or "excitation" not in names:
        raise ConfigError(
            f"{args.input} lacks frequency_mhz/excitation columns"
        )
    freqs = np.atleast_1d(rows["frequency_mhz"])
    vals = np.atleast_1d(rows["excitation"])
    if len(freqs) < 2:
        raise ConfigError(f"{args.input} has {len(freqs)} rows, need >= 2")
    try:
        grid = FrequencyGrid(float(freqs[0]), float(freqs[-1]), len(freqs))
        spec = Spectrum(grid=grid, values=vals, model_tag="CSV")
    except ValueError as exc:
        raise ConfigError(f"invalid spectrum in {args.input}: {exc}") from exc
    # the CSV's 13 significant digits leave a few 1e-6 of a step
    if not np.max(np.abs(freqs - grid.points())) <= 0.01 * grid.step:
        raise ConfigError(f"{args.input} frequencies are not uniform")
    fit = fit_lorentzian(spec, window)
    payload = {
        "a": fit.a, "gamma": fit.gamma, "omega_center": fit.omega_center,
        "c": fit.c, "fwhm": fit.fwhm, "residual_norm": fit.residual_norm,
        "converged": fit.converged, "n_iterations": fit.n_iterations,
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        _atomic_write(os.path.join(args.out, "fit.json"), text)
    sys.stdout.write(text)
    return 0


def cmd_sweep_power(args) -> int:
    cfg = load_config(args.config)
    model = args.model or cfg.get("model")
    if model not in _MODELS:
        raise ConfigError("no model selected (config 'model' or --model)")
    lambdas = _parse_floats(args.lambdas)
    if not lambdas:
        raise ConfigError("sweep-power requires at least one lambda")
    if not all(0.0 < lam < float("inf") for lam in lambdas):
        raise ConfigError(
            f"drive amplitudes must be finite and > 0, got {lambdas}")
    params = _build_system(cfg)
    grid = _build_grid(cfg)
    rows = fwhm_vs_power(_excitation(cfg, model, args), lambdas,
                         params.omega_nv, max(params.gamma_d, grid.step))
    lines = ["lambda,fwhm,converged"]
    for lam, fwhm, converged in rows:
        fw = _fmt(fwhm) if fwhm is not None else "nan"
        lines.append(f"{_fmt(lam)},{fw},{str(bool(converged)).lower()}")
    out = args.out or "."
    _atomic_write(os.path.join(out, "fwhm.csv"), "\n".join(lines) + "\n")
    _write_metadata(os.path.join(out, "fwhm_meta.json"), cfg, "sweep-power",
                    seed=args.seed, extra={"model": model})
    return 0


def cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    params = _with_drive(_build_system(cfg), args.drive)
    grid = _build_grid(cfg)
    layout = _layout_from(cfg, args)
    report = truncation_convergence(params, grid, layout)
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        _atomic_write(os.path.join(args.out, "convergence.json"), text)
    sys.stdout.write(text)
    return 0


_PLOT_TEMPLATES = {
    "spectrum": """\
set datafile separator ","
set xlabel "frequency (x2pi MHz)"
set ylabel "excitation"
set key off
plot "{csv}" using 1:2 skip 1 with lines
pause -1
""",
    "heatmap": """\
set datafile separator ","
set xlabel "axis value"
set ylabel "frequency (x2pi MHz)"
set view map
splot "{csv}" using 1:2:3 skip 1 with points palette pointtype 5
pause -1
""",
    "fwhm": """\
set datafile separator ","
set xlabel "drive amplitude lambda (x2pi MHz)"
set ylabel "middle-peak FWHM (x2pi MHz)"
set key off
plot "{csv}" using 1:2 skip 1 with linespoints
pause -1
""",
}

_EXPECTED_HEADERS = {
    "spectrum": ("frequency_mhz", "excitation"),
    "heatmap": ("axis_value", "frequency_mhz", "excitation"),
    "fwhm": ("lambda", "fwhm"),
}


def cmd_plot_script(args) -> int:
    try:
        with open(args.input, "r") as fh:
            header = fh.readline().strip()
    except OSError as exc:
        raise ConfigError(f"cannot read {args.input}: {exc}") from exc
    cols = header.split(",")
    expected = _EXPECTED_HEADERS[args.kind]
    if tuple(cols[: len(expected)]) != expected:
        raise ConfigError(
            f"CSV header {header!r} does not match kind {args.kind!r}"
        )
    script = _PLOT_TEMPLATES[args.kind].format(
        csv=os.path.relpath(args.input, args.out or ".")
    )
    out = args.out or "."
    _atomic_write(os.path.join(out, f"plot_{args.kind}.gp"), script)
    return 0


def _parse_floats(text) -> list:
    if isinstance(text, (list, tuple)):
        return [float(x) for x in text]
    try:
        return [float(x) for x in str(text).split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridspec",
        description="Spectroscopy simulator for a driven qubit coupled to "
                    "bright/dark collective spin modes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the ensemble seed")

    p = sub.add_parser("simulate", help="one spectrum under one model")
    common(p)
    p.add_argument("--model", choices=sorted(_MODELS), default=None)
    p.add_argument("--lambda", dest="drive", type=float, default=None,
                   help="drive amplitude override")
    p.add_argument("--n-max-b", type=int, default=None)
    p.add_argument("--n-max-d", type=int, default=None)
    p.add_argument("--dump-packets", default=None,
                   help="write the sampled ensemble packets to this CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="spectra along a power or detuning axis")
    common(p)
    p.add_argument("--model", choices=sorted(_MODELS), default=None)
    p.add_argument("--axis", choices=("power", "detuning"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--n-max-b", type=int, default=None)
    p.add_argument("--n-max-d", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eigen", help="single-excitation eigenstructure sweep")
    common(p)
    p.add_argument("--delta-min", type=float, default=0.0)
    p.add_argument("--delta-max", type=float, default=10.0)
    p.add_argument("--n-deltas", type=int, default=21)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("estimate", help="run the parameter-estimation pipeline")
    common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("fit-lorentzian", help="fit one peak in a spectrum CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--window", required=True, help="lo,hi frequency window")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit_lorentzian)

    p = sub.add_parser("sweep-power", help="middle-peak FWHM vs drive")
    common(p)
    p.add_argument("--model", choices=sorted(_MODELS), default=None)
    p.add_argument("--lambdas", required=True, help="comma-separated drives")
    p.add_argument("--n-max-b", type=int, default=None)
    p.add_argument("--n-max-d", type=int, default=None)
    p.set_defaults(func=cmd_sweep_power)

    p = sub.add_parser("plot-script", help="emit a gnuplot script for a CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("spectrum", "heatmap", "fwhm"),
                   required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plot_script)

    p = sub.add_parser("convergence", help="Fock-truncation convergence check")
    common(p)
    p.add_argument("--lambda", dest="drive", type=float, default=None)
    p.add_argument("--n-max-b", type=int, default=None)
    p.add_argument("--n-max-d", type=int, default=None)
    p.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HybridSpecError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
