import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridspec import (
    PerturbationOutOfRange,
    SystemParams,
    build_h1,
    eigen_exact_resonant,
    eigen_numeric,
    eigen_perturbative,
    perturbation_guard,
)
from hybridspec import eigen
from hybridspec.eigen import EigenResult, _fix_phase

from conftest import traced

W = 2878.0


def params(g=13.0, j=3.46, theta=0.0):
    return SystemParams(omega_fq=W, omega_nv=W, g=g, j=j, theta=theta)


def hand_expanded_perturbative(p, delta):
    """Oracle: the first-order eigenstructure written out component by
    component for s = sqrt(g^2+J^2) > 0 (eigen_perturbative derives it from
    the resonant eigenbasis)."""
    g, j, w = p.g, p.j, p.omega_nv
    s2 = g * g + j * j
    s = np.sqrt(s2)
    side_shift = 0.5 * delta * g * g / s2
    values = np.array(
        [w - s + side_shift, w + delta * j * j / s2, w + s + side_shift]
    )
    a = g * g * delta / (4.0 * s2 ** 1.5)
    bshift = j * j * delta / (s2 ** 1.5)
    left = np.array([(g / (np.sqrt(2) * s)) * (1 - a - bshift),
                     -(1 / np.sqrt(2)) * (1 + a),
                     (j / (np.sqrt(2) * s)) * (1 + 3 * a)])
    middle = np.array([-j / s, delta * g * j / (s2 ** 1.5), g / s])
    right = np.array([(g / (np.sqrt(2) * s)) * (1 + a + bshift),
                      (1 / np.sqrt(2)) * (1 - a),
                      (j / (np.sqrt(2) * s)) * (1 - 3 * a)])
    vectors = np.column_stack(
        [v / np.linalg.norm(v) for v in (left, middle, right)]
    ).astype(complex)
    # build_h1 at theta is U h U^+ with h its theta = 0 form and U =
    # diag(1, 1, e^{-i theta}): the dark components carry that phase
    vectors[2] *= np.exp(-1j * p.theta)
    vectors = _fix_phase(vectors)
    return EigenResult(values, vectors, np.abs(vectors[0, :]) ** 2)


class TestBuildH1:
    def test_no_coupling_is_diagonal(self):
        h = build_h1(params(g=0.0, j=0.0), 0.0)
        assert np.allclose(h, W * np.eye(3))

    def test_entries_at_zero_theta(self):
        h = build_h1(params(g=13.0, j=3.46), 0.0)
        assert np.isrealobj(h) or np.allclose(h.imag, 0.0)
        assert h[0, 1] == 13.0
        assert h[1, 2] == pytest.approx(3.46)
        assert h[0, 2] == 0.0

    def test_complex_phase_stays_hermitian(self):
        h = build_h1(params(theta=np.pi / 2), 0.0)
        assert h[1, 2] == pytest.approx(1j * 3.46)
        assert np.allclose(h, h.conj().T, atol=1e-14)

    @given(
        g=st.floats(0.0, 30.0),
        j=st.floats(0.0, 10.0),
        theta=st.floats(-np.pi, np.pi),
        delta=st.floats(-20.0, 20.0),
    )
    @settings(max_examples=50)
    def test_hermitian_and_trace(self, g, j, theta, delta):
        h = build_h1(params(g=g, j=j, theta=theta), delta)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert np.trace(h).real == pytest.approx(3 * W + delta, rel=1e-14)


class TestExactResonant:
    def test_splitting(self):
        r = eigen_exact_resonant(params(g=13.0, j=3.5))
        assert r.values[2] - r.values[0] == pytest.approx(
            2 * np.hypot(13.0, 3.5), rel=1e-12
        )

    def test_middle_qubit_weight(self):
        r = eigen_exact_resonant(params(g=13.0, j=3.5))
        assert r.qubit_weights[1] == pytest.approx(
            3.5 ** 2 / (13.0 ** 2 + 3.5 ** 2), rel=1e-12
        )

    def test_side_qubit_weights(self):
        r = eigen_exact_resonant(params(g=13.0, j=3.5))
        expected = 13.0 ** 2 / (2 * (13.0 ** 2 + 3.5 ** 2))
        assert r.qubit_weights[0] == pytest.approx(expected, rel=1e-12)
        assert r.qubit_weights[2] == pytest.approx(expected, rel=1e-12)

    def test_dark_state_invisible_without_bright_dark_coupling(self):
        r = eigen_exact_resonant(params(g=13.0, j=0.0))
        assert r.qubit_weights[1] == 0.0
        assert abs(r.vectors[2, 1]) == pytest.approx(1.0)

    def test_weights_sum_to_one(self):
        r = eigen_exact_resonant(params())
        assert np.sum(r.qubit_weights) == pytest.approx(1.0, rel=1e-12)

    def test_orthonormal(self):
        r = eigen_exact_resonant(params(theta=0.7))
        gram = r.vectors.conj().T @ r.vectors
        assert np.allclose(gram, np.eye(3), atol=1e-12)


class TestNumeric:
    def test_matches_exact_at_zero_detuning(self):
        p = params()
        num = eigen_numeric(p, 0.0)
        exact = eigen_exact_resonant(p)
        assert np.allclose(num.values, exact.values, rtol=1e-10)
        assert np.allclose(num.vectors, exact.vectors, atol=1e-10)

    def test_decoupled_qubit(self):
        r = eigen_numeric(params(g=0.0, j=3.5), 0.0)
        assert np.allclose(r.values, [W - 3.5, W, W + 3.5])
        assert r.qubit_weights[1] == pytest.approx(1.0)

    def test_middle_shift_linear_in_detuning(self):
        p = params(g=13.0, j=3.5)
        ratio = 3.5 ** 2 / (13.0 ** 2 + 3.5 ** 2)
        deltas = np.array([0.0, 2.0, 6.0, 10.0])
        shifts = np.array([eigen_numeric(p, d).values[1] - W for d in deltas])
        slope = deltas @ shifts / (deltas @ deltas)
        assert slope == pytest.approx(ratio, abs=0.005)

    def test_eigenvalues_independent_of_theta(self):
        vals = [eigen_numeric(params(theta=t), 3.0).values
                for t in (0.0, np.pi / 4, np.pi / 2, np.pi)]
        for v in vals[1:]:
            assert np.allclose(v, vals[0], rtol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.9])
    def test_stack_matches_one_matrix_calls(self, theta):
        p = params(theta=theta)
        deltas = np.linspace(-30.0, 30.0, 2001)
        stack = eigen_numeric(p, deltas)
        assert stack.values.shape == stack.qubit_weights.shape == (2001, 3)
        for k, d in enumerate(deltas):
            one = eigen_numeric(p, float(d))
            assert np.array_equal(stack.values[k], one.values)
            assert np.array_equal(stack.vectors[k], one.vectors)
            assert np.array_equal(stack.qubit_weights[k], one.qubit_weights)

    @pytest.mark.parametrize("n", [eigen._BLOCK - 1, eigen._BLOCK,
                                   eigen._BLOCK + 1, 2 * eigen._BLOCK + 3])
    def test_blocks_keep_the_bits_of_one_matrix_calls(self, n):
        p = params(theta=0.9)
        deltas = np.linspace(-10.0, 10.0, n)
        stack = eigen_numeric(p, deltas)
        assert stack.vectors.shape == (n, 3, 3)
        for k, d in enumerate(deltas.tolist()):
            one = eigen_numeric(p, d)
            assert np.array_equal(stack.values[k], one.values)
            assert np.array_equal(stack.vectors[k], one.vectors)
            assert np.array_equal(stack.qubit_weights[k], one.qubit_weights)

    def test_results_take_the_shape_of_delta(self):
        deltas = np.linspace(-10.0, 10.0, 6)
        flat = eigen_numeric(params(), deltas)
        grid = eigen_numeric(params(), deltas.reshape(2, 3))
        assert grid.values.shape == grid.qubit_weights.shape == (2, 3, 3)
        assert grid.vectors.shape == (2, 3, 3, 3)
        assert np.array_equal(grid.vectors.reshape(6, 3, 3), flat.vectors)
        one = eigen_numeric(params(), 2.0)
        assert one.values.shape == (3,) and one.vectors.shape == (3, 3)

    def test_peak_memory_stays_near_the_result(self):
        # 4.9 MB above the 3.8 MB result when the detunings were one stack
        deltas = np.linspace(-10.0, 10.0, 20_001)
        eigen_numeric(params(), deltas)  # warm up
        r, held, peak = traced(lambda: eigen_numeric(params(), deltas))
        assert held >= (r.values.nbytes + r.vectors.nbytes
                        + r.qubit_weights.nbytes)
        assert peak - held <= 2e6

    def test_phase_convention(self):
        r = eigen_numeric(params(theta=0.9), 4.0)
        for k in range(3):
            i = np.argmax(np.abs(r.vectors[:, k]))
            big = r.vectors[i, k]
            assert big.real > 0 and abs(big.imag) < 1e-12


class TestPerturbative:
    def test_reduces_to_exact_at_zero(self):
        p = params()
        pert = eigen_perturbative(p, 0.0)
        exact = eigen_exact_resonant(p)
        assert np.allclose(pert.values, exact.values, rtol=1e-12)
        assert np.allclose(pert.vectors, exact.vectors, atol=1e-12)

    def test_middle_shift_slope(self):
        # middle shift is delta * j^2/(g^2+j^2); extrapolated to delta=10
        # it reaches about 0.67 for g=13, j=3.5
        p = params(g=13.0, j=3.5)
        shift5 = eigen_perturbative(p, 5.0).values[1] - W
        assert 2 * shift5 == pytest.approx(0.67, abs=0.02)

    def test_guard_rejects_large_detuning(self):
        p = params(g=13.0, j=3.5)
        assert perturbation_guard(p) == pytest.approx(
            0.5 * np.hypot(13.0, 3.5)
        )
        with pytest.raises(PerturbationOutOfRange):
            eigen_perturbative(p, 10.0)

    def test_within_guard_matches_numeric(self):
        # the side levels pick up a second-order error of delta^2/(8*s)
        # scale, so the 0.15 agreement over the full detuning range holds
        # for the middle level (the one the detuning fit uses); all three
        # agree at small detuning
        p = params(g=13.0, j=3.5)
        for d in (2.0, 4.0, 6.0):
            pert = eigen_perturbative(p, d).values
            num = eigen_numeric(p, d).values
            assert abs(pert[1] - num[1]) < 0.15
        d = 2.0
        pert = eigen_perturbative(p, d).values
        num = eigen_numeric(p, d).values
        assert np.max(np.abs(pert - num)) < 0.15

    def test_error_is_second_order_in_detuning(self):
        p = params(g=13.0, j=3.5)
        def err(d):
            return np.max(np.abs(
                eigen_perturbative(p, d).values - eigen_numeric(p, d).values
            ))
        factor = err(4.0) / err(2.0)
        assert 3.0 <= factor <= 5.0

    @pytest.mark.parametrize("theta", [0.0, 0.7, np.pi / 2])
    def test_equals_exact_at_zero_for_any_phase(self, theta):
        p = params(theta=theta)
        pert = eigen_perturbative(p, 0.0)
        exact = eigen_exact_resonant(p)
        assert np.allclose(pert.values, exact.values, rtol=1e-12)
        assert np.allclose(pert.vectors, exact.vectors, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.7, np.pi / 2, -2.0])
    @pytest.mark.parametrize("g, j", [(13.0, 3.5), (5.0, 7.0)])
    def test_residual_is_second_order_in_detuning(self, theta, g, j):
        # first-order values and vectors leave ||H1 v - E v|| = O(delta^2)
        # for every level, whatever the phase of the dark coupling
        p = params(g=g, j=j, theta=theta)

        def residual(d):
            r = eigen_perturbative(p, d)
            h = build_h1(p, d)
            return np.linalg.norm(h @ r.vectors - r.vectors * r.values,
                                  axis=0)

        assert np.all(residual(0.0) < 1e-12)
        factor = residual(1.0) / residual(0.5)
        assert np.all((3.5 <= factor) & (factor <= 4.5))

    @given(
        g=st.floats(0.5, 30.0),
        j=st.floats(0.0, 10.0),
        theta=st.floats(-np.pi, np.pi).filter(lambda t: t != 0.0),
        x=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_hand_expanded_oracle(self, g, j, theta, x):
        p = params(g=g, j=j, theta=theta)
        delta = x * perturbation_guard(p)
        r = eigen_perturbative(p, delta)
        oracle = hand_expanded_perturbative(p, delta)
        assert np.all(np.abs(r.values - oracle.values)
                      <= 1e-15 * np.abs(oracle.values))
        # _fix_phase makes a column's largest component real positive;
        # where two components tie in magnitude (g = J puts the middle
        # vector's qubit and dark parts level) rounding picks either, so
        # such a column is compared after matching its phase
        top = np.sort(np.abs(oracle.vectors), axis=0)
        overlap = np.sum(np.conj(oracle.vectors) * r.vectors, axis=0)
        phase = np.where(top[-1] - top[-2] < 1e-12,
                         np.abs(overlap) / overlap, 1.0)
        assert np.max(np.abs(r.vectors * phase - oracle.vectors)) <= 1e-13
        assert np.max(np.abs(r.qubit_weights - oracle.qubit_weights)) <= 1e-13

    @pytest.mark.parametrize("theta", [0.0, 1.3])
    def test_uncoupled_is_exact_resonant(self, theta):
        # g = J = 0: the guard admits only delta = 0, and the degenerate
        # levels keep the resonant basis
        p = params(g=0.0, j=0.0, theta=theta)
        r = eigen_perturbative(p, 0.0)
        exact = eigen_exact_resonant(p)
        assert np.array_equal(r.values, exact.values)
        assert np.array_equal(r.vectors, exact.vectors)
        assert np.array_equal(r.qubit_weights, exact.qubit_weights)
        with pytest.raises(PerturbationOutOfRange):
            eigen_perturbative(p, 1e-300)

    def test_weights_in_unit_interval(self):
        r = eigen_perturbative(params(), 4.0)
        assert np.all(r.qubit_weights >= 0)
        assert np.all(r.qubit_weights <= 1)
        assert np.sum(r.qubit_weights) == pytest.approx(1.0, abs=0.05)
