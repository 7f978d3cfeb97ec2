import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridspec import (
    FrequencyGrid,
    HilbertLayout,
    NonUniqueSteadyState,
    SolverFailure,
    SystemParams,
    build_h1,
    build_liouvillian,
    build_operators,
    build_rotating_hamiltonian,
    me_excitation,
    me_spectrum,
    qubit_excitation,
    steady_state,
    thom_excitation,
    truncation_convergence,
)
from hybridspec.master_eq import (
    HermitianGenerator,
    _hermitian_basis,
    real_liouvillian,
)

from conftest import OMEGA_NV

LAYOUT = HilbertLayout(3, 3)


def small_params(**over):
    base = dict(omega_fq=OMEGA_NV, omega_nv=OMEGA_NV, g=12.95, j=3.46,
                gamma_fq=0.300, gamma_b=6.433, gamma_d=0.493, lam=0.1)
    base.update(over)
    return SystemParams(**base)


class TestOperators:
    def test_bosonic_commutator_on_truncated_space(self):
        ops = build_operators(LAYOUT)
        n = LAYOUT.n_max_bright
        comm = ops.b @ ops.b.conj().T - ops.b.conj().T @ ops.b
        # [b, b^dag] = 1 except on the top Fock level of the truncation
        diag = np.real(np.diag(comm)).reshape(2, n, LAYOUT.n_max_dark)
        assert np.allclose(diag[:, : n - 1, :], 1.0)
        assert np.allclose(diag[:, n - 1, :], 1.0 - n)

    def test_qubit_algebra(self):
        ops = build_operators(LAYOUT)
        eye = np.eye(LAYOUT.dim)
        assert np.allclose(ops.sigma_plus @ ops.sigma_minus
                           + ops.sigma_minus @ ops.sigma_plus, eye)
        assert np.allclose(ops.sigma_x, ops.sigma_plus + ops.sigma_minus)

    def test_index_layout(self):
        assert LAYOUT.dim == 2 * 3 * 3
        assert LAYOUT.index(0, 0, 0) == 0
        assert LAYOUT.index(0, 0, 1) == 1
        assert LAYOUT.index(0, 1, 0) == 3
        assert LAYOUT.index(1, 0, 0) == 9

    def test_rejects_empty_truncation(self):
        with pytest.raises(ValueError):
            HilbertLayout(0, 3)


class TestHamiltonian:
    def test_hermitian(self):
        for theta in (0.0, 0.9, np.pi / 2):
            h = build_rotating_hamiltonian(small_params(theta=theta),
                                           OMEGA_NV - 4.0, LAYOUT)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_single_excitation_block_matches_three_level_matrix(self):
        # restricting the undriven Hamiltonian to the single-excitation
        # subspace reproduces the 3x3 coupling matrix up to a constant shift
        p = small_params(lam=0.0, omega_fq=OMEGA_NV + 5.0, theta=0.4)
        omega = OMEGA_NV - 7.0
        h = build_rotating_hamiltonian(p, omega, LAYOUT)
        ground = LAYOUT.index(0, 0, 0)
        sub = [LAYOUT.index(1, 0, 0), LAYOUT.index(0, 1, 0),
               LAYOUT.index(0, 0, 1)]
        e0 = h[ground, ground]
        block = h[np.ix_(sub, sub)] - e0 * np.eye(3)
        # the 3x3 form carries absolute frequencies; shift to the same frame
        h1 = build_h1(p, p.detuning()) - omega * np.eye(3)
        assert np.allclose(block, h1, atol=1e-10)

    def test_drive_couples_qubit_only(self):
        p0 = small_params(lam=0.0)
        p1 = small_params(lam=2.0)
        ops = build_operators(LAYOUT)
        diff = (build_rotating_hamiltonian(p1, OMEGA_NV, LAYOUT, ops)
                - build_rotating_hamiltonian(p0, OMEGA_NV, LAYOUT, ops))
        assert np.allclose(diff, 1.0 * ops.sigma_x)


class TestLiouvillian:
    def test_annihilates_trace(self):
        # columns of the generator must preserve Tr(rho): the trace
        # functional composed with L vanishes
        p = small_params(lam=1.0)
        h = build_rotating_hamiltonian(p, OMEGA_NV - 3.0, LAYOUT)
        liou = build_liouvillian(h, p, LAYOUT)
        d = LAYOUT.dim
        trace_vec = np.zeros(d * d, dtype=complex)
        trace_vec[:: d + 1] = 1.0
        assert np.max(np.abs(trace_vec @ liou)) < 1e-10

    def test_purely_imaginary_spectrum_without_damping(self):
        p = small_params(gamma_fq=0.0, gamma_b=0.0, gamma_d=0.0, lam=0.5)
        h = build_rotating_hamiltonian(p, OMEGA_NV - 3.0, LAYOUT)
        liou = build_liouvillian(h, p, LAYOUT)
        w = np.linalg.eigvals(liou)
        assert np.max(np.abs(w.real)) < 1e-9 * np.max(np.abs(w))

    def test_single_qubit_decay_eigenvalue(self):
        # a decoupled undriven qubit relaxes coherences at gamma_fq and
        # population at 2*gamma_fq
        p = SystemParams(omega_fq=OMEGA_NV, omega_nv=OMEGA_NV, g=0.0, j=0.0,
                         gamma_fq=0.25, gamma_b=0.0, gamma_d=0.0, lam=0.0)
        layout = HilbertLayout(1, 1)
        h = build_rotating_hamiltonian(p, OMEGA_NV, layout)
        liou = build_liouvillian(h, p, layout)
        w = np.sort(np.linalg.eigvals(liou).real)
        assert w[0] == pytest.approx(-0.5, abs=1e-12)  # population, 2*gamma
        assert np.allclose(np.sort(w)[1:3], -0.25, atol=1e-12)  # coherences


class TestSteadyState:
    def test_undriven_ground_state(self):
        p = small_params(lam=0.0)
        h = build_rotating_hamiltonian(p, OMEGA_NV - 2.0, LAYOUT)
        rho = steady_state(build_liouvillian(h, p, LAYOUT), check_unique=True)
        expected = np.zeros((LAYOUT.dim, LAYOUT.dim))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) < 1e-10

    def test_validity_metrics(self):
        p = small_params(lam=1.0)
        h = build_rotating_hamiltonian(p, OMEGA_NV - 13.0, LAYOUT)
        rho = steady_state(build_liouvillian(h, p, LAYOUT), check_unique=True)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_qubit_excitation_readout(self):
        layout = HilbertLayout(1, 1)
        ops = None
        ground = np.zeros((2, 2))
        ground[0, 0] = 1.0
        assert qubit_excitation(ground, layout, ops) == 0.0
        mixed = 0.5 * np.eye(2)
        assert qubit_excitation(mixed, layout, ops) == pytest.approx(0.5)


class TestWeakDriveLimit:
    def test_matches_oscillator_model_pointwise(self):
        p = small_params(lam=0.1)
        for w in (OMEGA_NV - 13.4, OMEGA_NV - 5.0, OMEGA_NV,
                  OMEGA_NV + 13.4):
            me = me_excitation(p, w, LAYOUT)
            osc = thom_excitation(p, w)
            assert me == pytest.approx(osc, rel=0.05)

    def test_weak_drive_linearity(self):
        p1 = small_params(lam=0.05)
        p2 = small_params(lam=0.1)
        w = OMEGA_NV - 13.4
        r = me_excitation(p2, w, LAYOUT) / me_excitation(p1, w, LAYOUT)
        assert r == pytest.approx(4.0, rel=0.01)

    def test_frame_shift_invariance(self):
        # shifting all frequencies by a constant leaves the response at the
        # correspondingly shifted drive unchanged
        p = small_params(lam=0.3)
        shift = 50.0
        p2 = small_params(lam=0.3, omega_fq=p.omega_fq + shift,
                          omega_nv=p.omega_nv + shift)
        w = OMEGA_NV - 6.0
        a = me_excitation(p, w, LAYOUT)
        b = me_excitation(p2, w + shift, LAYOUT)
        assert b == pytest.approx(a, rel=1e-8)

    def test_symmetric_spectrum_at_zero_detuning(self):
        p = small_params(lam=0.2)
        grid = FrequencyGrid(OMEGA_NV - 20, OMEGA_NV + 20, 21)
        vals = me_spectrum(p, grid, LAYOUT).values
        assert np.allclose(vals, vals[::-1], rtol=0.01)


class TestTruncation:
    def test_convergence_report_weak_drive(self):
        p = small_params(lam=0.1)
        grid = FrequencyGrid(OMEGA_NV - 15, OMEGA_NV + 15, 7)
        report = truncation_convergence(p, grid, HilbertLayout(3, 3),
                                        rel_tol=1e-3)
        assert report["pass"]
        assert report["max_rel_dev"] < 1e-3

    def test_zero_drive_spectrum_is_zero(self):
        p = small_params(lam=0.0)
        grid = FrequencyGrid(OMEGA_NV - 5, OMEGA_NV + 5, 5)
        vals = me_spectrum(p, grid, HilbertLayout(2, 2)).values
        assert np.max(np.abs(vals)) < 1e-12


def direct_excitation(params, omega, layout):
    """Per-point oracle: column-stacked complex generator, dense solve."""
    ops = build_operators(layout)
    h = build_rotating_hamiltonian(params, omega, layout, ops)
    rho = steady_state(build_liouvillian(h, params, layout, ops),
                       check_unique=False)
    return qubit_excitation(rho, layout, ops)


def basis_change(n):
    """Dense unitary T with vec-index columns and Hermitian-basis rows."""
    u_slot, v_slot, cu, cv = _hermitian_basis(n)
    t = np.zeros((n * n, n * n), dtype=complex)
    cols = np.arange(n * n)
    np.add.at(t, (u_slot, cols), cu)
    np.add.at(t, (v_slot, cols), cv)
    return t


# truncations with n_max_bright != n_max_dark, a tilted coupling phase and
# a detuned qubit, at weak and strong drive
ORACLE_LAYOUTS = [(1, 1), (2, 3), (3, 2), (5, 2)]


def oracle_params(lam):
    return small_params(lam=lam, theta=0.7, omega_fq=OMEGA_NV + 3.0)


class TestHermitianGenerator:
    def test_basis_change_is_unitary(self):
        t = basis_change(6)
        assert np.max(np.abs(t @ t.conj().T - np.eye(36))) < 1e-15

    @pytest.mark.parametrize("nb,nd", [(1, 2), (2, 1)])
    def test_matches_transformed_column_stacked_generator(self, nb, nd):
        layout = HilbertLayout(nb, nd)
        p = oracle_params(lam=2.0)
        gen = HermitianGenerator(p, layout)
        t = basis_change(layout.dim)
        for w in (OMEGA_NV - 17.0, OMEGA_NV + 0.3, OMEGA_NV + 40.0):
            h = build_rotating_hamiltonian(p, w, layout)
            liou = build_liouvillian(h, p, layout)
            expected = t @ liou @ t.conj().T
            assert np.max(np.abs(expected.imag)) < 1e-12
            assert np.max(np.abs(gen.liouvillian(w) - expected.real)) < 1e-12

    @pytest.mark.parametrize("lam", [0.1, 10.0])
    @pytest.mark.parametrize("nb,nd", ORACLE_LAYOUTS)
    def test_spectrum_matches_per_point_solve(self, nb, nd, lam):
        layout = HilbertLayout(nb, nd)
        p = oracle_params(lam)
        grid = FrequencyGrid(OMEGA_NV - 20.0, OMEGA_NV + 20.0, 9)
        fast = me_spectrum(p, grid, layout).values
        slow = np.array([direct_excitation(p, w, layout)
                         for w in grid.points()])
        assert np.max(np.abs(fast - slow) / np.abs(slow)) <= 1e-10
        w = OMEGA_NV - 13.4
        assert me_excitation(p, w, layout) == pytest.approx(
            direct_excitation(p, w, layout), rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(nb=st.integers(1, 3), nd=st.integers(1, 3),
           theta=st.floats(0.0, 2.0 * np.pi),
           detuning=st.floats(-15.0, 15.0), lam=st.floats(0.05, 20.0),
           offset=st.floats(-25.0, 25.0))
    def test_property_matches_per_point_solve(self, nb, nd, theta, detuning,
                                              lam, offset):
        layout = HilbertLayout(nb, nd)
        p = small_params(lam=lam, theta=theta,
                         omega_fq=OMEGA_NV + detuning)
        w = OMEGA_NV + offset
        assert me_excitation(p, w, layout) == pytest.approx(
            direct_excitation(p, w, layout), rel=1e-10)

    def test_check_unique_runs_a_second_solve(self, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counting(a, b):
            calls.append(b.argmax())
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        grid = FrequencyGrid(OMEGA_NV - 5.0, OMEGA_NV + 5.0, 3)
        me_spectrum(small_params(lam=1.0), grid, LAYOUT)
        assert len(calls) == 3
        calls.clear()
        me_spectrum(small_params(lam=1.0), grid, LAYOUT, check_unique=True)
        # each point replaces the rho_00 row, then the last row
        assert calls == [0, LAYOUT.dim ** 2 - 1] * 3

    def test_check_unique_rejects_a_disagreeing_second_solve(self,
                                                             monkeypatch):
        solve = np.linalg.solve

        def disagreeing(a, b):
            x = solve(a, b)
            return x + 1e-3 if b[-1] else x

        monkeypatch.setattr(np.linalg, "solve", disagreeing)
        p = small_params(lam=1.0)
        assert me_excitation(p, OMEGA_NV, LAYOUT) > 0.0
        with pytest.raises(NonUniqueSteadyState):
            me_excitation(p, OMEGA_NV, LAYOUT, check_unique=True)

    def test_rejects_generator_that_breaks_hermiticity(self):
        # an anti-Hermitian "Hamiltonian" turns Hermitian rho anti-Hermitian
        h = 1j * np.diag([0.0, 1.0, 2.0])
        with pytest.raises(SolverFailure):
            real_liouvillian(h, [])
        c = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert np.isrealobj(real_liouvillian(h.imag.astype(complex),
                                             [(0.5, c)]))

    def test_residual_bound_is_enforced(self, monkeypatch):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solve(a, b) + 1e-6 * b[::-1])
        with pytest.raises(SolverFailure, match="residual"):
            me_excitation(small_params(lam=1.0), OMEGA_NV, LAYOUT)
