"""Each parameter record checks its own fields."""

import numpy as np
import pytest

from hybridspec import (EnsembleSpec, FrequencyGrid, HilbertLayout,
                        MhomParams)

RECORDS = {
    "ensemble": (EnsembleSpec, dict(
        n_packets=10, mean_zeeman=0.5, fwhm_zeeman=3.1, fwhm_strain=4.4,
        fwhm_zfs=0.2, collective_g=13.0, omega_nv=2878.0, seed=1,
        hyperfine=2.16)),
    "mhom": (MhomParams, dict(omega_fq=2878.0, gamma_fq=0.3, gamma_b=0.2,
                              gamma_d=0.2, lam=1.0)),
    "grid": (FrequencyGrid, dict(start=0.0, stop=1.0, n_points=5)),
    "layout": (HilbertLayout, dict(n_max_bright=2, n_max_dark=3)),
}
INTEGERS = [("ensemble", "n_packets"), ("ensemble", "seed"),
            ("grid", "n_points"), ("layout", "n_max_bright"),
            ("layout", "n_max_dark")]
REALS = [("ensemble", name) for name in (
    "mean_zeeman", "fwhm_zeeman", "fwhm_strain", "fwhm_zfs", "collective_g",
    "omega_nv", "hyperfine")] + [("mhom", name) for name in (
        "omega_fq", "gamma_fq", "gamma_b", "gamma_d", "lam")] + [
    ("grid", "start"), ("grid", "stop")]
NON_NEGATIVE = [("ensemble", name) for name in (
    "seed", "fwhm_zeeman", "fwhm_strain", "fwhm_zfs", "collective_g",
    "hyperfine")] + [("mhom", name) for name in (
        "gamma_fq", "gamma_b", "gamma_d", "lam")]


def build(record, **fields):
    cls, defaults = RECORDS[record]
    return cls(**dict(defaults, **fields))


@pytest.mark.parametrize("record", RECORDS)
def test_defaults_are_valid(record):
    build(record)


@pytest.mark.parametrize("record, name", INTEGERS)
@pytest.mark.parametrize("value", [True, 3.0, 2.5, "3", None])
def test_integer_fields_reject_other_types(record, name, value):
    with pytest.raises(TypeError, match=name):
        build(record, **{name: value})


@pytest.mark.parametrize("record, name", INTEGERS)
@pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint8])
def test_integer_fields_accept_numpy_integers(record, name, kind):
    assert getattr(build(record, **{name: kind(3)}), name) == 3


@pytest.mark.parametrize("record, name", REALS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_real_fields_reject_non_finite(record, name, value):
    with pytest.raises(ValueError, match=name):
        build(record, **{name: value})


@pytest.mark.parametrize("record, name", REALS)
@pytest.mark.parametrize("value", ["1.0", None, True, np.True_])
def test_real_fields_reject_non_numbers(record, name, value):
    with pytest.raises(TypeError, match=name):
        build(record, **{name: value})


@pytest.mark.parametrize("record, name", NON_NEGATIVE)
def test_rates_drive_widths_and_seed_reject_negatives(record, name):
    with pytest.raises(ValueError, match=name):
        build(record, **{name: -1})


def test_collective_coupling_must_be_positive():
    with pytest.raises(ValueError, match="collective_g"):
        build("ensemble", collective_g=0.0)


def test_with_rechecks_the_fields():
    params = build("mhom")
    assert params.with_(lam=np.float64(2.0)).lam == 2.0
    with pytest.raises(ValueError, match="omega_fq"):
        params.with_(omega_fq=np.nan)
    with pytest.raises(ValueError, match="seed"):
        build("ensemble").with_(seed=-1)
