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
import itertools
import json
import os
import re
import sys
import tempfile
import warnings
from dataclasses import fields
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__
from .core import (
    FrequencyGrid,
    SignalMap,
    Spectrum,
    SystemParams,
    _require_finite,
    _require_nonneg,
)
from .errors import HybridSpecError, SolverFailure
from .eigen import eigen_numeric
from .estimate import gamma_fq_from_t1, run_pipeline, slope_deltas
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


# config section -> the record it builds; its keys are the record's fields,
# with the grid's start and stop as start_mhz and stop_mhz
_RECORDS = {"system": SystemParams, "ensemble": EnsembleSpec,
            "grid": FrequencyGrid, "me_options": HilbertLayout,
            "signal_map": SignalMap}
_SECTIONS = {name: {f.name + "_mhz" if f.name in ("start", "stop") else f.name
                    for f in fields(record)}
             for name, record in _RECORDS.items()}
_SECTIONS["estimate"] = {"t1_us", "deltas", "gamma_nv"}
# the Fock layout of a config without me_options
_LAYOUT = {"n_max_bright": 4, "n_max_dark": 4}
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
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, _SECTIONS.keys() | {"model"}, "config")
    for name, keys in _SECTIONS.items():
        if name in cfg:
            _check_keys(cfg[name], keys, name)
    if "model" in cfg and not (isinstance(cfg["model"], str)
                               and cfg["model"] in _MODELS):
        raise ConfigError(f"model must be one of {sorted(_MODELS)}")
    cfg["_sha256"] = hashlib.sha256(raw.encode()).hexdigest()
    return cfg


def _record(where: str, build, *args, **kw):
    """build(*args, **kw): a record checks its own fields, and a field it
    rejects is a config error in ``where``."""
    try:
        return build(*args, **kw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _build(cfg: dict, name: str, default: dict = None, **overrides):
    """The record of config section ``name``: the keys of ``default``, then
    the section's, then the overrides that are not None.  Without a
    ``default`` the section is required."""
    if default is None and name not in cfg:
        raise ConfigError(f"config requires a '{name}' object")
    kw = {**(default or {}), **cfg.get(name, {})}
    kw.update((k, v) for k, v in overrides.items() if v is not None)
    return _record(name, _RECORDS[name], **{
        key.removesuffix("_mhz"): v for key, v in kw.items()})


def _model(cfg: dict, args) -> str:
    model = args.model or cfg.get("model")
    if model not in _MODELS:
        raise ConfigError("no model selected (config 'model' or --model)")
    return model


def _atomic_write(path: str, data) -> None:
    """Write ``data``, bytes or an iterable of byte chunks, to ``path``
    through a temp file in its directory.  Each chunk is written as it
    arrives, and the file replaces ``path`` only when all are written: on
    an error the temp file is removed and ``path`` is left as it was."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines((data,) if isinstance(data, bytes) else data)
        # mkstemp creates 0600; give the file the mode open() would
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# %.12e as array code.  A value is one record of six little-endian words:
# [pad, sign or pad, d0, '.'], three groups of four digits, ['e', exponent
# sign, two exponent digits], [separator, pad, pad, pad]; the pad bytes are
# zero and are dropped at the end.
# Rows are formatted and written _CHUNK_ROWS at a time, so a chunk's
# temporaries stay near 1 MB.  Formatting a 200,001-row table (medians of
# 9, one BLAS thread, 2-core host) took 48-51 ms for three columns and
# 35-37 ms for two, against 59 and 38 ms at 2^15; every size from 2^10 to
# 2^15 gave the same bytes.
_CHUNK_ROWS = 1 << 12
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
# _GROUPS[i] holds the four digits of i, 0 <= i < 10000 (built in uint8: the
# import costs no memory to speak of)
_GROUPS = np.stack(np.meshgrid(_DIGITS, _DIGITS, _DIGITS, _DIGITS,
                               indexing="ij"), axis=-1).view("<u4").ravel()
# _EXPONENTS[e + 99] holds "e+dd" or "e-dd", -99 <= e <= 99
_k = np.arange(-99, 100)
_EXPONENTS = np.stack([np.full(_k.shape, ord("e")),
                       np.where(_k < 0, ord("-"), ord("+")),
                       _DIGITS[abs(_k) // 10], _DIGITS[abs(_k) % 10]],
                      axis=1).astype(np.uint8).view("<u4").ravel()
del _k
# _SCALE[e + 101] is 10^(12-e) for e in -101..100, correctly rounded from its
# decimal literal
_SCALE = np.array([float(f"1e{12 - e}") for e in range(-101, 101)])


def _format_records(x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The records (uint8, x.shape + (24,)) of the values of the 2-D array
    x, each followed by its column's separator byte.

    A zero, or a finite value with 1e-99 <= |x| < 1e99, is written from
    y = |x|·10^(12-e), e the decade that puts y in [1e12, 1e13), and its
    rounding m = rint(y).  One product with a correctly rounded power of ten
    puts y within 2.3e-3 of its exact value, so m is the correct rounding
    unless y lies within 0.01 of a half.  Those values, and all others
    (nan, inf, subnormals, three-digit exponents), are written by Python's
    %.12e."""
    ax = np.abs(x)
    fast = (ax < 1e99) & ((ax >= 1e-99) | (ax == 0))
    nonzero = fast & (ax != 0)
    a = np.where(nonzero, ax, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    # the decade is corrected once, by y itself
    y = a * _SCALE[e + 101]
    e += (y >= 1e13).astype(np.int64) - (y < 1e12)
    y = a * _SCALE[e + 101]
    fast &= (y >= 1e12) & (y < 1e13) & (np.abs(y - np.floor(y) - 0.5) >= 0.01)
    m = np.rint(y)
    carry = m >= 1e13
    e += carry
    fast &= np.abs(e) <= 99
    digits = np.where(nonzero & fast, np.where(carry, 1e12, m), 0.0)
    # digits = hi·1e8 + lo, both exact and below 2^32
    hi = np.floor(digits / 1e8)
    lo = (digits - hi * 1e8).astype(np.uint32)
    d0, g1 = np.divmod(hi.astype(np.uint32), 10000)
    words = np.empty(x.shape + (6,), dtype="<u4")
    words[..., 0] = ((ord(".") << 24) + ((ord("0") + d0) << 16)
                     + np.signbit(x) * (ord("-") << 8))
    words[..., 1] = _GROUPS[g1]
    words[..., 2] = _GROUPS[lo // 10000]
    words[..., 3] = _GROUPS[lo % 10000]
    words[..., 4] = _EXPONENTS[np.where(nonzero & fast, e, 0) + 99]
    words[..., 5] = seps
    records = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join((b"%.12e%c" % pair).ljust(24, b"\0") for pair in zip(
            x.ravel()[slow].tolist(), seps[slow % x.shape[1]].tolist()))
        records.reshape(-1, 24)[slow] = np.frombuffer(
            text, dtype=np.uint8).reshape(-1, 24)
    return records


def _rows(*columns):
    """CSV rows of the columns (1-D, or 2-D for several), every value as
    %.12e: the bytes of f"{x:.12e}", -0.0, nan and inf included.  Yields
    them in chunks of _CHUNK_ROWS rows, each stacked and formatted on its
    own, so that no more than one chunk of the table is held as text."""
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        table = np.column_stack([c[start:start + _CHUNK_ROWS]
                                 for c in columns])
        seps = np.full(table.shape[1], ord(","), dtype="<u4")
        seps[-1] = ord("\n")
        # the pad bytes, the only zero bytes of a record, are deleted
        yield _format_records(table, seps).tobytes().translate(None, b"\0")


def _write_csv(path: str, header: str, chunks) -> None:
    """Write the header line, then the chunks of CSV rows as they come."""
    _atomic_write(path, itertools.chain((header.encode() + b"\n",), chunks))


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
    _atomic_write(path, (json.dumps(meta, indent=2) + "\n").encode())


def _changed(params, **changes):
    """params with the changes that are not None, checked by the record."""
    return _record("system", params.with_, **{
        k: v for k, v in changes.items() if v is not None})


# Models are built and evaluated, and the pipeline run, without numpy's
# floating-point warnings: their results are judged (by _finite, the ME
# generator's real_liouvillian or a pipeline stage), and a warning would
# only precede the solver error of a parameter too large for the arithmetic.
_judged = np.errstate(all="ignore")


@_judged
def _excitation(cfg: dict, model: str, args):
    """Build the chosen model once.  Returns (excitation_at, params,
    omega_nv, packets): excitation_at(p) -> (omegas -> excitation) at
    parameters p (the config's ``params``, or a change of them made by
    _changed), the model's NV frequency and the MHOM packets (None for THOM
    and ME).  MHOM packets are damped by system.gamma_b and gamma_d when
    given, else by ensemble.fwhm_zfs; its NV frequency is system.omega_nv
    when given, else ensemble.omega_nv."""
    packets = None
    if model == "mhom":
        ens = _build(cfg, "ensemble", seed=args.seed)
        sys_cfg = cfg.get("system", {})
        params = _record(
            "system", MhomParams,
            omega_fq=sys_cfg.get("omega_fq", ens.omega_nv),
            gamma_fq=sys_cfg.get("gamma_fq", 0.0),
            gamma_b=sys_cfg.get("gamma_b", ens.fwhm_zfs),
            gamma_d=sys_cfg.get("gamma_d", ens.fwhm_zfs),
            lam=sys_cfg.get("lam", 1.0),
        )
        omega_nv = sys_cfg.get("omega_nv", ens.omega_nv)
        _record("system", _require_finite, "omega_nv", omega_nv)
        packets = sample_ensemble(ens)
        sigma = SelfEnergy(packets, params.gamma_b, params.gamma_d)
        model_at = lambda p: partial(mhom_response, sigma, p)
    else:
        params = _build(cfg, "system")
        omega_nv = params.omega_nv
        if model == "thom":
            model_at = lambda p: partial(thom_excitation, p)
        else:
            layout = _build(cfg, "me_options", _LAYOUT,
                            n_max_bright=args.n_max_b, n_max_dark=args.n_max_d)
            model_at = _judged(
                lambda p: HermitianGenerator(p, layout).excitation)
    return (lambda p: partial(_finite, model_at(p)), params, omega_nv,
            packets)


@_judged
def _finite(excitation, omegas) -> np.ndarray:
    """excitation(omegas); arithmetic that overflows or values that are not
    finite (a parameter too large for the model) are a solver error."""
    try:
        values = excitation(omegas)
    except OverflowError as exc:
        raise SolverFailure(f"model arithmetic overflowed: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise SolverFailure("model values are not finite")
    return values


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    model = _model(cfg, args)
    grid = _build(cfg, "grid")
    signal_map = (_build(cfg, "signal_map") if "signal_map" in cfg
                  else None)
    excitation_at, params, _, packets = _excitation(cfg, model, args)
    omegas = grid.points()
    values = excitation_at(_changed(params, lam=args.drive))(omegas)
    header = "frequency_mhz,excitation"
    columns = [omegas, values]
    if signal_map is not None:
        header += ",switching_prob"
        columns.append(_finite(signal_map, values))
    if args.dump_packets and packets is not None:
        _write_csv(args.dump_packets, "zeta,omega_b,omega_d,j_zeeman,j_strain",
                   _rows(packets.zeta, packets.omega_b, packets.omega_d,
                         packets.j_zeeman, packets.j_strain))
    out = args.out or "."
    _write_csv(os.path.join(out, "spectrum.csv"), header, _rows(*columns))
    _write_metadata(os.path.join(out, "spectrum_meta.json"), cfg,
                    "simulate", seed=args.seed,
                    extra={"model": model, "n_points": grid.n_points})
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    model = _model(cfg, args)
    values = _parse_floats(args.values)
    if len(values) < 2:
        raise ConfigError("sweep requires at least 2 axis values")
    omegas = _build(cfg, "grid").points()
    excitation_at, params, omega_nv, _ = _excitation(cfg, model, args)
    # every axis value is checked before the file is begun
    changed = [_changed(params, **({"lam": v} if args.axis == "power"
                                   else {"omega_fq": omega_nv + v}))
               for v in values]
    failures = []

    def blocks():
        """Each axis value's rows, as soon as it is evaluated."""
        for v, p in zip(values, changed):
            try:
                excitation = excitation_at(p)(omegas)
            except HybridSpecError as exc:
                failures.append({"axis_value": v, "error": str(exc)})
                continue
            yield from _rows(np.full(len(omegas), v), omegas, excitation)

    out = args.out or "."
    _write_csv(os.path.join(out, "sweep.csv"),
               "axis_value,frequency_mhz,excitation", blocks())
    _write_metadata(os.path.join(out, "sweep_meta.json"), cfg, "sweep",
                    seed=args.seed,
                    extra={"model": model, "axis": args.axis,
                           "values": values, "failures": failures})
    return 0


def cmd_eigen(args) -> int:
    cfg = load_config(args.config)
    params = _build(cfg, "system")
    for flag, name in (("--delta-min", "delta_min"),
                       ("--delta-max", "delta_max")):
        _record(flag, _require_finite, name, getattr(args, name))
    if args.n_deltas < 1:
        raise ConfigError(f"--n-deltas must be >= 1, got {args.n_deltas}")
    deltas = np.linspace(args.delta_min, args.delta_max, args.n_deltas)
    r = eigen_numeric(params, deltas)
    out = args.out or "."
    _write_csv(os.path.join(out, "eigen.csv"),
               "delta_mhz,e_left,e_middle,e_right,w0_left,w0_middle,w0_right",
               _rows(deltas, r.values, r.qubit_weights))
    _write_metadata(os.path.join(out, "eigen_meta.json"), cfg, "eigen")
    return 0


@_judged
def cmd_estimate(args) -> int:
    cfg = load_config(args.config)
    ens = _build(cfg, "ensemble", seed=args.seed)
    est_cfg = cfg.get("estimate", {})
    if "t1_us" not in est_cfg:
        raise ConfigError("estimate requires config key estimate.t1_us")
    _record("estimate.t1_us", gamma_fq_from_t1, est_cfg["t1_us"])
    kwargs = {}
    if "deltas" in est_cfg:
        # checked here, passed as given: provenance records them unchanged
        _record("estimate.deltas", slope_deltas, est_cfg["deltas"])
        kwargs["deltas"] = est_cfg["deltas"]
    if "gamma_nv" in est_cfg:
        # the packet damping of every stage, a rate as MhomParams takes it
        _record("estimate.gamma_nv", _require_nonneg, "gamma_nv",
                est_cfg["gamma_nv"])
        kwargs["gamma_nv"] = est_cfg["gamma_nv"]
    if "grid" in cfg:
        kwargs["grid"] = _build(cfg, "grid")
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
    _atomic_write(os.path.join(out, "estimate.json"), text.encode())
    sys.stdout.write(text)
    return 0


def _read_csv(path: str):
    """(column names, 2-D array of the rows) of a numeric CSV with one
    header line; a file that cannot be read or parsed is a config error."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            if not header:
                raise ValueError("the file is empty")
            with warnings.catch_warnings():
                # a header-only file is an empty table, not a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                        "no data", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return [name.strip() for name in header.split(",")], rows


def cmd_fit_lorentzian(args) -> int:
    window = _parse_floats(args.window)
    if not (len(window) == 2 and np.isfinite(window).all()
            and window[0] < window[1]):
        raise ConfigError(f"--window needs lo,hi with finite lo < hi, got "
                          f"{args.window!r}")
    names, rows = _read_csv(args.input)
    if "frequency_mhz" not in names or "excitation" not in names:
        raise ConfigError(
            f"{args.input} lacks frequency_mhz/excitation columns"
        )
    if len(rows) < 2:
        raise ConfigError(f"{args.input} has {len(rows)} rows, need >= 2")
    if rows.shape[1] != len(names):
        raise ConfigError(f"cannot read {args.input}: rows have "
                          f"{rows.shape[1]} columns, the header {len(names)}")
    freqs = rows[:, names.index("frequency_mhz")]
    vals = rows[:, names.index("excitation")]
    where = f"spectrum in {args.input}"
    grid = _record(where, FrequencyGrid, float(freqs[0]), float(freqs[-1]),
                   len(freqs))
    spec = _record(where, Spectrum, grid=grid, values=vals, model_tag="CSV")
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
        _atomic_write(os.path.join(args.out, "fit.json"), text.encode())
    sys.stdout.write(text)
    return 0


def cmd_sweep_power(args) -> int:
    cfg = load_config(args.config)
    model = _model(cfg, args)
    lambdas = _parse_floats(args.lambdas)
    if not lambdas:
        raise ConfigError("sweep-power requires at least one lambda")
    if not all(0.0 < lam < float("inf") for lam in lambdas):
        raise ConfigError(
            f"drive amplitudes must be finite and > 0, got {lambdas}")
    grid = _build(cfg, "grid")
    excitation_at, params, omega_nv, _ = _excitation(cfg, model, args)
    report = {}
    rows = fwhm_vs_power(
        lambda lam: excitation_at(_changed(params, lam=lam)), lambdas,
        omega_nv, max(params.gamma_d, grid.step), report)
    out = args.out or "."
    # a failed fit has no FWHM: written as nan
    _write_csv(os.path.join(out, "fwhm.csv"), "lambda,fwhm,converged", (
        b"%.12e,%.12e,%s\n" % (lam, np.nan if fwhm is None else fwhm,
                               b"true" if converged else b"false")
        for lam, fwhm, converged in rows))
    _write_metadata(os.path.join(out, "fwhm_meta.json"), cfg, "sweep-power",
                    seed=args.seed,
                    extra={"model": model, "failures": report["failures"]})
    return 0


def cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    params = _build(cfg, "system", lam=args.drive)
    grid = _build(cfg, "grid")
    layout = _build(cfg, "me_options", _LAYOUT, n_max_bright=args.n_max_b,
                    n_max_dark=args.n_max_d)
    report = truncation_convergence(params, grid, layout)
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        _atomic_write(os.path.join(args.out, "convergence.json"),
                      text.encode())
    sys.stdout.write(text)
    return 0


# plot-script kind -> (the CSV's first columns, x label, y label, the
# gnuplot lines that draw it)
_PLOTS = {
    "spectrum": (("frequency_mhz", "excitation"), "frequency (x2pi MHz)",
                 "excitation",
                 'set key off\nplot "{csv}" using 1:2 skip 1 with lines'),
    "heatmap": (("axis_value", "frequency_mhz", "excitation"), "axis value",
                "frequency (x2pi MHz)",
                'set view map\nsplot "{csv}" using 1:2:3 skip 1 with points '
                'palette pointtype 5'),
    "fwhm": (("lambda", "fwhm"), "drive amplitude lambda (x2pi MHz)",
             "middle-peak FWHM (x2pi MHz)",
             'set key off\nplot "{csv}" using 1:2 skip 1 with linespoints'),
}


def cmd_plot_script(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            header = fh.readline().strip()
    except OSError as exc:
        raise ConfigError(f"cannot read {args.input}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"invalid {args.input}: {exc}") from exc
    expected, xlabel, ylabel, draw = _PLOTS[args.kind]
    if tuple(header.split(",")[:len(expected)]) != expected:
        raise ConfigError(
            f"CSV header {header!r} does not match kind {args.kind!r}"
        )
    script = (f'set datafile separator ","\nset xlabel "{xlabel}"\n'
              f'set ylabel "{ylabel}"\n{draw}\npause -1\n').format(
        csv=os.path.relpath(args.input, args.out or "."))
    out = args.out or "."
    _atomic_write(os.path.join(out, f"plot_{args.kind}.gp"), script.encode())
    return 0


def _parse_floats(text: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """Takes a minus sign and a number (-3,0,4, -5,5, -inf,2) for a value,
    as argparse takes -3."""
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d|\.\d|inf|nan)", re.I)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hybridspec",
        description="Spectroscopy simulator for a driven qubit coupled to "
                    "bright/dark collective spin modes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by the commands that read a config, then by those that
    # build the master-equation model, then by those that choose a model
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="JSON config path")
    config.add_argument("--out", default=None, help="output directory")
    config.add_argument("--seed", type=int, default=None,
                        help="override the ensemble seed")
    fock = argparse.ArgumentParser(add_help=False, parents=[config])
    fock.add_argument("--n-max-b", type=int, default=None)
    fock.add_argument("--n-max-d", type=int, default=None)
    model = argparse.ArgumentParser(add_help=False, parents=[fock])
    model.add_argument("--model", choices=sorted(_MODELS), default=None)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    p = command("simulate", cmd_simulate, "one spectrum under one model",
                model)
    p.add_argument("--lambda", dest="drive", type=float, default=None,
                   help="drive amplitude override")
    p.add_argument("--dump-packets", default=None,
                   help="write the sampled ensemble packets to this CSV")

    p = command("sweep", cmd_sweep, "spectra along a power or detuning axis",
                model)
    p.add_argument("--axis", choices=("power", "detuning"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")

    p = command("eigen", cmd_eigen, "single-excitation eigenstructure sweep",
                config)
    p.add_argument("--delta-min", type=float, default=0.0)
    p.add_argument("--delta-max", type=float, default=10.0)
    p.add_argument("--n-deltas", type=int, default=21)

    command("estimate", cmd_estimate, "run the parameter-estimation pipeline",
            config)

    p = command("fit-lorentzian", cmd_fit_lorentzian,
                "fit one peak in a spectrum CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--window", required=True, help="lo,hi frequency window")
    p.add_argument("--out", default=None)

    p = command("sweep-power", cmd_sweep_power, "middle-peak FWHM vs drive",
                model)
    p.add_argument("--lambdas", required=True, help="comma-separated drives")

    p = command("plot-script", cmd_plot_script,
                "emit a gnuplot script for a CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=tuple(_PLOTS),
                   required=True)
    p.add_argument("--out", default=None)

    p = command("convergence", cmd_convergence,
                "Fock-truncation convergence check", fock)
    p.add_argument("--lambda", dest="drive", type=float, default=None)

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
