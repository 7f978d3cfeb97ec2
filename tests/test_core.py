import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hybridspec import (
    FrequencyGrid,
    SignalMap,
    Spectrum,
    SystemParams,
)


class TestSystemParams:
    def test_rejects_negative_rates_and_couplings(self):
        for field in ("g", "j", "gamma_fq", "gamma_b", "gamma_d", "lam"):
            kwargs = dict(omega_fq=1.0, omega_nv=1.0, g=1.0, j=1.0)
            kwargs[field] = -0.1
            with pytest.raises(ValueError):
                SystemParams(**kwargs)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SystemParams(omega_fq=math.nan, omega_nv=1.0, g=1.0, j=1.0)
        with pytest.raises(ValueError):
            SystemParams(omega_fq=1.0, omega_nv=math.inf, g=1.0, j=1.0)

    def test_detuning_is_derived(self):
        p = SystemParams(omega_fq=2888.0, omega_nv=2878.0, g=1.0, j=1.0)
        assert p.detuning() == 10.0

    def test_with_returns_modified_copy(self):
        p = SystemParams(omega_fq=1.0, omega_nv=1.0, g=1.0, j=1.0)
        q = p.with_(g=2.0)
        assert q.g == 2.0 and p.g == 1.0

    def test_unit_scalar_round_trip(self):
        p = SystemParams(omega_fq=2878.0, omega_nv=2878.0, g=12.95, j=3.46)
        assert p.g == 12.95


class TestFrequencyGrid:
    def test_endpoints_and_step(self):
        grid = FrequencyGrid(0.0, 10.0, 11)
        pts = grid.points()
        assert pts[0] == 0.0 and pts[-1] == 10.0
        assert grid.step == 1.0

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            FrequencyGrid(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            FrequencyGrid(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            FrequencyGrid(0.0, 1.0, 1)


class TestSpectrum:
    def test_rejects_length_mismatch(self):
        grid = FrequencyGrid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            Spectrum(grid=grid, values=np.zeros(4), model_tag="X")

    def test_rejects_non_finite_values(self):
        grid = FrequencyGrid(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            Spectrum(grid=grid, values=np.array([0.0, np.nan, 1.0]),
                     model_tag="X")


class TestSignalMap:
    def test_offset_minus_scaled_value(self):
        m = SignalMap(scale=2.0, offset=1.0)
        assert m(0.25) == 0.5

    @given(
        alpha=st.floats(0.0, 1.0),
        v1=st.floats(-10.0, 10.0),
        v2=st.floats(-10.0, 10.0),
        scale=st.floats(0.0, 5.0),
        offset=st.floats(-5.0, 5.0),
    )
    def test_affine_in_the_data(self, alpha, v1, v2, scale, offset):
        m = SignalMap(scale=scale, offset=offset)
        lhs = m(alpha * v1 + (1 - alpha) * v2)
        rhs = alpha * m(v1) + (1 - alpha) * m(v2)
        assert lhs == pytest.approx(rhs, abs=1e-9)
