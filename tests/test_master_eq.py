import tracemalloc

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
    me_spectrum,
    qubit_excitation,
    steady_state,
    thom_excitation,
    truncation_convergence,
)
from hybridspec import master_eq
from hybridspec.master_eq import (
    MIN_MODEL_POINTS,
    HermitianGenerator,
    _hermitian_basis,
    real_liouvillian,
)

from conftest import OMEGA_NV, REFERENCE_PARAMS

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
        ground = np.zeros((2, 2))
        ground[0, 0] = 1.0
        assert qubit_excitation(ground, layout) == 0.0
        mixed = 0.5 * np.eye(2)
        assert qubit_excitation(mixed, layout) == pytest.approx(0.5)
        assert np.array_equal(qubit_excitation(np.array([ground, mixed]),
                                               layout), [0.0, 0.5])


class TestWeakDriveLimit:
    def test_matches_oscillator_model_pointwise(self):
        p = small_params(lam=0.1)
        for w in (OMEGA_NV - 13.4, OMEGA_NV - 5.0, OMEGA_NV,
                  OMEGA_NV + 13.4):
            me = HermitianGenerator(p, LAYOUT).excitation(w)
            osc = thom_excitation(p, w)
            assert me == pytest.approx(osc, rel=0.05)

    def test_weak_drive_linearity(self):
        p1 = small_params(lam=0.05)
        p2 = small_params(lam=0.1)
        w = OMEGA_NV - 13.4
        r = (HermitianGenerator(p2, LAYOUT).excitation(w)
             / HermitianGenerator(p1, LAYOUT).excitation(w))
        assert r == pytest.approx(4.0, rel=0.01)

    def test_frame_shift_invariance(self):
        # shifting all frequencies by a constant leaves the response at the
        # correspondingly shifted drive unchanged
        p = small_params(lam=0.3)
        shift = 50.0
        p2 = small_params(lam=0.3, omega_fq=p.omega_fq + shift,
                          omega_nv=p.omega_nv + shift)
        w = OMEGA_NV - 6.0
        a = HermitianGenerator(p, LAYOUT).excitation(w)
        b = HermitianGenerator(p2, LAYOUT).excitation(w + shift)
        assert b == pytest.approx(a, rel=1e-8)

    def test_symmetric_spectrum_at_zero_detuning(self):
        p = small_params(lam=0.2)
        grid = FrequencyGrid(OMEGA_NV - 20, OMEGA_NV + 20, 21)
        vals = me_spectrum(p, grid, LAYOUT).values
        assert np.allclose(vals, vals[::-1], rtol=0.01)


class TestTwoLevelOracle:
    """With g = J = 0 the qubit is a driven two-level system:
    <sigma+ sigma-> = (lam^2/4)/(Delta^2 + gamma_fq^2 + lam^2/2), Delta =
    omega - omega_fq, at any drive and with any oscillator truncation."""

    @pytest.mark.parametrize("layout", [HilbertLayout(1, 1),
                                        HilbertLayout(3, 4)])
    @pytest.mark.parametrize("lam", [0.1, 10.0, 40.0])
    @pytest.mark.parametrize("gamma_fq", [0.1, 0.33, 1.0])
    def test_power_broadened_line(self, gamma_fq, lam, layout):
        p = small_params(g=0.0, j=0.0, gamma_fq=gamma_fq, lam=lam)
        omegas = np.linspace(OMEGA_NV - 30.0, OMEGA_NV + 30.0, 61)
        got = HermitianGenerator(p, layout).excitation(omegas)
        ref = (lam ** 2 / 4.0) / ((omegas - p.omega_fq) ** 2 + gamma_fq ** 2
                                  + lam ** 2 / 2.0)
        assert np.max(np.abs(got / ref - 1.0)) <= 2e-11


class TestTruncation:
    def test_convergence_report_weak_drive(self):
        p = small_params(lam=0.1)
        grid = FrequencyGrid(OMEGA_NV - 15, OMEGA_NV + 15, 7)
        report = truncation_convergence(p, grid, HilbertLayout(3, 3))
        assert report["pass"]
        assert report["max_rel_dev"] < 1e-3

    def test_zero_drive_spectrum_is_zero(self):
        p = small_params(lam=0.0)
        grid = FrequencyGrid(OMEGA_NV - 5, OMEGA_NV + 5, 5)
        vals = me_spectrum(p, grid, HilbertLayout(2, 2)).values
        assert np.max(np.abs(vals)) < 1e-12


def trace_excitation(rho, ops):
    """Per-state oracle: <sigma+ sigma-> as the trace of the operator
    product."""
    return float(np.trace(ops.sigma_plus @ ops.sigma_minus @ rho).real)


def direct_excitation(params, omega, layout):
    """Per-point oracle: column-stacked complex generator, dense solve."""
    ops = build_operators(layout)
    h = build_rotating_hamiltonian(params, omega, layout, ops)
    rho = steady_state(build_liouvillian(h, params, layout, ops),
                       check_unique=False)
    return trace_excitation(rho, ops)


def excitation_number(layout):
    """The diagonal of N = sigma_z/2 + n_b + n_d."""
    ops = build_operators(layout)
    return np.real(np.diag(0.5 * ops.sigma_z + ops.b.conj().T @ ops.b
                           + ops.d.conj().T @ ops.d))


def basis_change(number):
    """Dense unitary T with vec-index columns and Hermitian-basis rows, for
    the excitation numbers ``number``."""
    n = len(number)
    u_slot, v_slot, cu, cv = _hermitian_basis(number)
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


def dense_generator(gen, omega):
    """L(omega) of a HermitianGenerator as a dense matrix in slot order,
    column by column from its block matvecs."""
    eye = np.eye(gen.a.offsets[-1])
    s = omega - gen.omega_ref
    block = gen.a.matvec(eye) + s * gen.apply_d(eye)
    return block[np.ix_(gen.a.pos, gen.a.pos)]


def coherence_order(layout):
    """m = |N_i - N_j| of every column-stacked slot s = i + j*n."""
    number = excitation_number(layout)
    n = layout.dim
    i, j = np.divmod(np.arange(n * n), n)[::-1]
    return np.rint(np.abs(number[i] - number[j])).astype(int)


class TestHermitianGenerator:
    def test_basis_change_is_unitary(self):
        t = basis_change(excitation_number(HilbertLayout(1, 3)))
        assert np.max(np.abs(t @ t.conj().T - np.eye(36))) < 1e-15

    @pytest.mark.parametrize("nb,nd", [(1, 2), (2, 1)])
    def test_matches_transformed_column_stacked_generator(self, nb, nd):
        layout = HilbertLayout(nb, nd)
        p = oracle_params(lam=2.0)
        gen = HermitianGenerator(p, layout)
        t = basis_change(excitation_number(layout))
        for w in (OMEGA_NV - 17.0, OMEGA_NV + 0.3, OMEGA_NV + 40.0):
            h = build_rotating_hamiltonian(p, w, layout)
            liou = build_liouvillian(h, p, layout)
            expected = t @ liou @ t.conj().T
            assert np.max(np.abs(expected.imag)) < 1e-12
            assert np.max(np.abs(dense_generator(gen, w)
                                 - expected.real)) < 1e-12
            # the certified residual, with its closed-form ||L(omega)||_F
            x = np.linspace(-1.0, 1.0, layout.dim ** 2)  # block order
            residual = gen._residuals(x[:, None], w - gen.omega_ref)[0]
            assert residual == pytest.approx(
                np.linalg.norm(expected.real @ x[gen.a.pos])
                / np.linalg.norm(expected), rel=1e-12)

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
        assert HermitianGenerator(p, layout).excitation(w) == pytest.approx(
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
        assert HermitianGenerator(p, layout).excitation(w) == pytest.approx(
            direct_excitation(p, w, layout), rel=1e-10)

    def test_check_unique_runs_a_second_solve(self, monkeypatch):
        calls = []
        solve = master_eq._BlockFactor.solve

        def counting(factor, rhs, row):
            calls.append(factor.gen.a.perm[row])  # the replaced slot
            return solve(factor, rhs, row)

        monkeypatch.setattr(master_eq._BlockFactor, "solve", counting)
        grid = FrequencyGrid(OMEGA_NV - 5.0, OMEGA_NV + 5.0, 3)
        me_spectrum(small_params(lam=1.0), grid, LAYOUT)
        assert len(calls) == 3
        calls.clear()
        me_spectrum(small_params(lam=1.0), grid, LAYOUT, check_unique=True)
        # each point replaces the rho_00 row, then the last row
        assert calls == [0, LAYOUT.dim ** 2 - 1] * 3

    def test_check_unique_rejects_a_disagreeing_second_solve(self,
                                                             monkeypatch):
        solve = master_eq._BlockFactor.solve

        def disagreeing(factor, rhs, row):
            x = solve(factor, rhs, row)
            return x + 1e-3 if row == factor.gen.rows[1] else x

        monkeypatch.setattr(master_eq._BlockFactor, "solve", disagreeing)
        p = small_params(lam=1.0)
        assert HermitianGenerator(p, LAYOUT).excitation(OMEGA_NV) > 0.0
        with pytest.raises(NonUniqueSteadyState):
            HermitianGenerator(p, LAYOUT).excitation(OMEGA_NV,
                                                     check_unique=True)
        # a reduced model is split down to its first point, which raises
        grid = FrequencyGrid(OMEGA_NV - 2.0, OMEGA_NV + 2.0,
                             MIN_MODEL_POINTS + 1)
        with pytest.raises(NonUniqueSteadyState, match="at omega="):
            me_spectrum(p, grid, LAYOUT, check_unique=True)

    def test_rejects_generator_that_breaks_hermiticity(self):
        # an anti-Hermitian "Hamiltonian" turns Hermitian rho anti-Hermitian
        h = 1j * np.diag([0.0, 1.0, 2.0])
        number = np.zeros(3)
        with pytest.raises(SolverFailure):
            real_liouvillian(h, [], number)
        c = np.diag([1.0, 0.0, 0.0]).astype(complex)
        blocks = real_liouvillian(h.imag.astype(complex), [(0.5, c)], number)
        # each block is held as its ELL (columns, values): real values
        [(cols, vals)] = blocks.diag
        assert np.isrealobj(vals) and np.any(vals)
        assert np.issubdtype(cols.dtype, np.integer)

    def test_generator_without_nonzero_entry_is_a_solver_error(self):
        with pytest.raises(SolverFailure, match="no nonzero entry"):
            real_liouvillian(np.zeros((2, 2)), [], np.zeros(2))

    def test_residual_bound_is_enforced(self, monkeypatch):
        solve = master_eq._BlockFactor.solve
        monkeypatch.setattr(
            master_eq._BlockFactor, "solve",
            lambda factor, rhs, row: solve(factor, rhs, row) + 1e-6 * rhs[::-1])
        with pytest.raises(SolverFailure, match="residual"):
            HermitianGenerator(small_params(lam=1.0), LAYOUT).excitation(
                OMEGA_NV)

    @pytest.mark.parametrize("over, omega", [
        ({"g": 1e200}, OMEGA_NV), ({"gamma_fq": 1e200}, OMEGA_NV),
        ({}, OMEGA_NV + 1e155)], ids=["g", "gamma_fq", "far-drive"])
    def test_overflowed_norm_is_a_solver_error(self, over, omega):
        # ||A + s D||_F^2 overflows when a parameter is 1e200, and on finite
        # terms at a drive detuned by 1e155: divided by it, every residual
        # would read 0 and certify any state.  Numpy's overflow warnings
        # are the caller's to silence, as the CLI does.
        with np.errstate(all="ignore"), pytest.raises(
                SolverFailure, match="generator norm is not finite"):
            HermitianGenerator(small_params(**over),
                               HilbertLayout(2, 2)).excitation([omega])


STRUCTURE_LAYOUTS = [(1, 1), (2, 3), (3, 2), (5, 2), (1, 6), (3, 3)]


class TestCoherenceOrder:
    """The structure the solver rests on, checked on the column-stacked
    generator of ``build_liouvillian``: only the drive changes the
    excitation number N, by one."""

    @pytest.mark.parametrize("theta,detuning", [(0.0, 0.0), (0.7, 3.0)])
    @pytest.mark.parametrize("nb,nd", STRUCTURE_LAYOUTS)
    def test_generator_is_block_tridiagonal(self, nb, nd, theta, detuning):
        layout = HilbertLayout(nb, nd)
        p = small_params(lam=2.0, theta=theta, omega_fq=OMEGA_NV + detuning)
        t = basis_change(excitation_number(layout))
        m = coherence_order(layout)
        gap = np.abs(m[:, None] - m[None, :])

        def real_generator(w):
            h = build_rotating_hamiltonian(p, w, layout)
            return (t @ build_liouvillian(h, p, layout) @ t.conj().T).real

        w = OMEGA_NV - 7.0
        liou = real_generator(w)
        assert np.all(liou[gap > 1] == 0.0)
        # the drive frequency enters block diagonally, not on m = 0
        d = real_generator(w + 1.0) - liou
        scale = np.max(np.abs(liou))
        assert np.max(np.abs(d[gap > 0])) <= 1e-12 * scale
        assert np.max(np.abs(d[np.ix_(m == 0, m == 0)])) <= 1e-12 * scale
        # the trace functional and both replaced rows live on m = 0
        n = layout.dim
        assert np.all(m[:: n + 1] == 0)
        assert m[0] == 0 and m[n * n - 1] == 0

    def test_assembly_rejects_a_coupling_across_two_orders(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="coherence orders"):
            real_liouvillian(h, [], np.array([0.0, 2.0]))

    def test_block_sizes_at_four_by_four(self):
        gen = HermitianGenerator(small_params(lam=1.0), HilbertLayout(4, 4))
        assert list(gen.a.sizes) == [168, 310, 244, 162, 88, 38, 12, 2]

    def test_generator_holds_only_its_nonzeros(self):
        # at 4x8 the dense blocks took 50.5 MB for about 0.27 MB of nonzeros
        HermitianGenerator(REFERENCE_PARAMS, HilbertLayout(1, 2))  # warm up
        tracemalloc.start()
        try:
            gen = HermitianGenerator(REFERENCE_PARAMS.with_(lam=20.0),
                                     HilbertLayout(4, 8))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert gen.a.offsets[-1] == 64 ** 2
        assert retained < 2e6

    @pytest.mark.parametrize("nb,nd", [(2, 2), (3, 3), (4, 4)])
    def test_orders_above_zero_are_real_forms_of_complex_blocks(self, nb,
                                                                 nd):
        # order m >= 1 holds (u, v) pairs, u + iv = sqrt2 rho_ij with
        # N_i > N_j, and the generator is complex-linear on u + iv: each
        # diagonal block of A + s*D is [[P, -Q], [Q, P]] on the pairs
        layout = HilbertLayout(nb, nd)
        gen = HermitianGenerator(small_params(lam=2.0, theta=0.7), layout)
        a, s, n = gen.a, 1.3, layout.dim
        number = excitation_number(layout)
        for m in range(1, len(a.sizes)):
            size, off = a.sizes[m], a.offsets[m]
            i, j = np.divmod(a.perm[off: off + size], n)[::-1]
            assert np.all(i[::2] < j[::2])
            assert np.array_equal(i[::2], j[1::2])
            assert np.array_equal(j[::2], i[1::2])
            # the columns of order m, from the generator the checks use
            e = np.zeros((a.offsets[-1], size))
            e[off + np.arange(size), np.arange(size)] = 1.0
            block = (a.matvec(e) + s * gen.apply_d(e))[off: off + size]
            p, q = block[::2, ::2], block[1::2, ::2]
            scale = np.max(np.abs(block))
            assert np.max(np.abs(block[1::2, 1::2] - p)) <= 1e-13 * scale
            assert np.max(np.abs(block[::2, 1::2] + q)) <= 1e-13 * scale
            assert np.max(np.abs(gen.diag_block(m, s) - (p + 1j * q))
                          ) <= 1e-13 * scale
            # v = 1 alone is rho_ij = i/sqrt2 where N_i > N_j
            rhos = gen._density_matrices(e[:, 1::2])
            hi = np.where(number[i[::2]] > number[j[::2]], i[::2], j[::2])
            lo = i[::2] + j[::2] - hi
            pairs = np.arange(size // 2)
            assert np.allclose(rhos[pairs, hi, lo], 1j * np.sqrt(0.5),
                               rtol=0, atol=1e-15)

    def test_factorization_keeps_half_size_complex_inverses(self):
        # at 4x8 the real inverses and upper @ inverse took 34 MiB
        gen = HermitianGenerator(REFERENCE_PARAMS.with_(lam=20.0),
                                 HilbertLayout(4, 8))
        master_eq._BlockFactor(gen, 0.0)  # warm up
        tracemalloc.start()
        try:
            factor = master_eq._BlockFactor(gen, 0.0)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        for inv, size in zip(factor.inv[1:], gen.a.sizes[1:]):
            assert inv.dtype == complex and inv.shape == (size // 2,) * 2
        assert retained < 10 * 2 ** 20


def per_point_excitation(gen, omegas, check_unique=False):
    """One block elimination per point: each point a one-point model."""
    return np.array([gen.excitation([w], check_unique)[0] for w in omegas])


class TestReducedModel:
    def test_reduced_solutions_do_not_depend_on_the_chunk(self,
                                                          monkeypatch):
        # the (chunk, k, k) stack bounds memory; it must not change a bit
        rng = np.random.default_rng(5)
        k = 40
        hess = np.triu(rng.normal(size=(k + 1, k)), -1)
        sigmas = np.linspace(-0.3, 0.4, 161)
        results = []
        for chunk in (1, 8, len(sigmas)):
            monkeypatch.setattr(master_eq, "_CHUNK", chunk)
            results.append(master_eq._reduced(hess, 2.5, sigmas))
        for y, estimate in results[1:]:
            assert np.array_equal(y, results[0][0])
            assert np.array_equal(estimate, results[0][1])

    def test_run_report_reads_the_returned_states(self):
        layout = HilbertLayout(3, 4)
        grid = FrequencyGrid(OMEGA_NV - 4.5, OMEGA_NV + 4.5, 21)
        p = small_params(lam=10.0)
        report = {}
        rhos = HermitianGenerator(p, layout).states(grid.points(),
                                                    report=report)
        assert me_spectrum(p, grid, layout).metadata == {
            "n_max_bright": 3, "n_max_dark": 4, **report}
        pops = np.diagonal(rhos, axis1=1, axis2=2).real.reshape(-1, 2, 3, 4)
        top = report["top_level_population"]
        assert top["bright"] == pytest.approx(
            pops[:, :, 2, :].sum(axis=(1, 2)).max(), rel=1e-12)
        assert top["dark"] == pytest.approx(
            pops[:, :, :, 3].sum(axis=(1, 2)).max(), rel=1e-12)
        assert report["worst_negativity"] == max(
            0.0, -np.linalg.eigvalsh(rhos).min())
        # a 1x1 layout: every state is at both modes' top level
        one = {}
        HermitianGenerator(p, HilbertLayout(1, 1)).states(grid.points(),
                                                          report=one)
        assert one["top_level_population"] == pytest.approx(
            {"bright": 1.0, "dark": 1.0}, rel=1e-12)

    @pytest.mark.parametrize("omega", [OMEGA_NV + 0.3,
                                       np.float64(OMEGA_NV - 2.0),
                                       np.array(OMEGA_NV + 4.0)])
    def test_scalar_call_returns_a_float(self, omega):
        # a scalar is a one-point solve, as is a one-element array
        gen = HermitianGenerator(small_params(lam=1.0), HilbertLayout(2, 2))
        value = gen.excitation(omega)
        assert type(value) is float
        assert value == gen.excitation([omega])[0]

    def test_one_point_model_is_one_block_elimination(self):
        layout = HilbertLayout(4, 4)
        gen = HermitianGenerator(small_params(lam=10.0), layout)
        row = gen.rows[0]
        for w in (OMEGA_NV - 13.4, OMEGA_NV + 0.7, OMEGA_NV + 25.0):
            e = np.zeros(gen.a.offsets[-1])
            e[row] = 1.0
            x = master_eq._BlockFactor(gen, w - gen.omega_ref).solve(e, row)
            report = {}
            [rho] = gen.states([w], check_unique=True, report=report)
            assert report["points_solved_per_point"] == 1
            assert not report["krylov_dims"]
            assert np.array_equal(rho, gen._density_matrices(x[:, None])[0])
            assert gen.excitation([w])[0] == qubit_excitation(rho, layout)

    def test_matches_per_point_and_dense_solves(self):
        layout = HilbertLayout(4, 4)
        p = small_params(lam=10.0)
        grid = FrequencyGrid(OMEGA_NV - 4.5, OMEGA_NV + 4.5, 21)
        spec = me_spectrum(p, grid, layout, check_unique=True)
        meta = spec.metadata
        assert len(meta["krylov_dims"]) == 2  # one model per trace row
        assert meta["rejected_models"] == 0
        assert meta["points_solved_per_point"] == 0
        assert 0.0 < meta["worst_residual"] <= master_eq.RESIDUAL_TOL
        block = per_point_excitation(HermitianGenerator(p, layout),
                                     grid.points(), check_unique=True)
        assert np.max(np.abs(spec.values - block) / block) <= 1e-10
        for w, v in zip(grid.points()[::10], spec.values[::10]):
            assert v == pytest.approx(direct_excitation(p, w, layout),
                                      rel=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(nb=st.integers(1, 3), nd=st.integers(1, 3),
           theta=st.floats(0.0, 2.0 * np.pi),
           detuning=st.floats(-15.0, 15.0), lam=st.floats(0.05, 20.0),
           centre=st.floats(-20.0, 20.0), half=st.floats(0.5, 20.0))
    def test_property_matches_dense_solve(self, nb, nd, theta, detuning,
                                          lam, centre, half):
        layout = HilbertLayout(nb, nd)
        p = small_params(lam=lam, theta=theta, omega_fq=OMEGA_NV + detuning)
        grid = FrequencyGrid(OMEGA_NV + centre - half,
                             OMEGA_NV + centre + half, MIN_MODEL_POINTS + 1)
        values = me_spectrum(p, grid, layout).values
        dense = np.array([direct_excitation(p, w, layout)
                          for w in grid.points()])
        assert np.max(np.abs(values - dense) / dense) <= 1e-10

    def test_wide_strong_drive_window_splits_and_falls_back(self):
        # one expansion point does not certify +-25 at lambda = 20: the
        # window is split, and the smallest pieces are solved point by point
        layout = HilbertLayout(4, 4)
        p = small_params(lam=20.0)
        grid = FrequencyGrid(OMEGA_NV - 25.0, OMEGA_NV + 25.0, 31)
        spec = me_spectrum(p, grid, layout, check_unique=True)
        meta = spec.metadata
        assert meta["rejected_models"] > 0
        assert meta["krylov_dims"] and meta["points_solved_per_point"] > 0
        # one reason per split interval (two models each with check_unique)
        reasons = meta["rejection_reasons"]
        assert 2 * len(reasons) == meta["rejected_models"]
        assert reasons[0].startswith(
            "omega 2853.0 to 2903.0: reduced-model estimate ")
        assert all(r.startswith("omega ") and r.endswith(" too large")
                   for r in reasons)
        assert meta["worst_residual"] <= master_eq.RESIDUAL_TOL
        block = per_point_excitation(HermitianGenerator(p, layout),
                                     grid.points())
        assert np.max(np.abs(spec.values - block) / block) <= 1e-10
        for w, v in zip(grid.points()[::6], spec.values[::6]):
            assert v == pytest.approx(direct_excitation(p, w, layout),
                                      rel=1e-10)

    def test_undamped_modes_give_the_dense_outcome(self):
        # gamma_b = gamma_d = 0: the qubit still damps every mode, and the
        # dense per-point solve gives a value at every point
        layout = HilbertLayout(3, 3)
        p = small_params(lam=2.0, gamma_b=0.0, gamma_d=0.0)
        grid = FrequencyGrid(OMEGA_NV - 10.0, OMEGA_NV + 10.0, 21)
        dense = np.array([direct_excitation(p, w, layout)
                          for w in grid.points()])
        values = me_spectrum(p, grid, layout).values
        assert np.max(np.abs(values - dense) / dense) <= 1e-10

    def test_no_damping_fails_as_the_dense_solve_does(self):
        # with no damping at all the trace-row system is singular
        layout = HilbertLayout(2, 2)
        p = small_params(lam=2.0, gamma_fq=0.0, gamma_b=0.0, gamma_d=0.0)
        grid = FrequencyGrid(OMEGA_NV - 10.0, OMEGA_NV + 10.0, 21)
        with pytest.raises(SolverFailure):
            direct_excitation(p, grid.start, layout)
        with pytest.raises(SolverFailure, match="at omega="):
            me_spectrum(p, grid, layout)


# criterion 7's cases: (params, drive frequencies, layout)
VALIDITY_CASES = (
    [(small_params(lam=0.1), np.linspace(OMEGA_NV - 20, OMEGA_NV + 20, 9),
      HilbertLayout(3, 3))]
    + [(small_params(lam=lam), [OMEGA_NV - 13.4, OMEGA_NV, OMEGA_NV + 13.4],
        HilbertLayout(4, 4)) for lam in (1.0, 5.0, 10.0, 20.0)])


class TestProductionPathValidity:
    """Criterion 7's four metrics on the states ``HermitianGenerator``
    returns, through the reduced models and through the per-point path."""

    @staticmethod
    def reduced_states(gen, omegas):
        # each point off the centre of a model of its own neighbourhood when
        # the case alone is too small for one
        if len(omegas) >= MIN_MODEL_POINTS:
            groups = [(np.asarray(omegas), np.arange(len(omegas)))]
        else:
            groups = [(np.linspace(w - 2.0, w + 2.5, 10), [4])
                      for w in omegas]
        for grid, keep in groups:
            report = {}
            rhos = gen.states(grid, check_unique=True, report=report)
            assert report["krylov_dims"]
            assert report["points_solved_per_point"] == 0
            yield from (rhos[k] for k in keep)

    @staticmethod
    def per_point_states(gen, omegas):
        for w in omegas:
            report = {}
            [rho] = gen.states([w], check_unique=True, report=report)
            assert report["points_solved_per_point"] == 1
            yield rho

    @pytest.mark.parametrize("path", ["reduced", "per_point"])
    def test_criterion_7_metrics(self, path):
        worst = {"trace": 0.0, "herm": 0.0, "neg": 0.0, "residual": 0.0}
        states = getattr(self, f"{path}_states")
        for p, omegas, layout in VALIDITY_CASES:
            gen = HermitianGenerator(p, layout)
            for w, rho in zip(omegas, states(gen, omegas)):
                h = build_rotating_hamiltonian(p, w, layout)
                liou = build_liouvillian(h, p, layout)
                worst["trace"] = max(worst["trace"],
                                     abs(np.trace(rho).real - 1.0))
                worst["herm"] = max(worst["herm"],
                                    np.max(np.abs(rho - rho.conj().T)))
                worst["neg"] = max(worst["neg"],
                                   -np.linalg.eigvalsh(rho).min())
                res = np.linalg.norm(liou @ rho.reshape(-1, order="F"))
                worst["residual"] = max(worst["residual"],
                                        res / np.linalg.norm(liou))
        assert worst["trace"] < 1e-8
        assert worst["herm"] < 1e-10
        assert worst["neg"] < 1e-8
        assert worst["residual"] < 1e-10


# id -> (layout, lambda, half width of the window about omega_nv)
STACK_CASES = {"4x4-lam1": (HilbertLayout(4, 4), 1.0, 4.5),
               "4x4-lam20": (HilbertLayout(4, 4), 20.0, 4.5),
               "3x3-lam0.1": (HilbertLayout(3, 3), 0.1, 20.0),
               "4x8-lam5": (HilbertLayout(4, 8), 5.0, 1.0),
               "2x3-lam2": (HilbertLayout(2, 3), 2.0, 10.0)}
# what each density-matrix check raises
BROKEN = {"trace": "violates unit-trace bound",
          "hermitian": "not Hermitian within tolerance",
          "negative": "negative eigenvalue"}


class TestStateStack:
    """``states`` returns one stack, validated and read as a stack."""

    @staticmethod
    def stack(layout, lam, half, n=MIN_MODEL_POINTS + 1):
        gen = HermitianGenerator(small_params(lam=lam), layout)
        return gen.states(np.linspace(OMEGA_NV - half, OMEGA_NV + half, n))

    @pytest.mark.parametrize("layout, lam, half", STACK_CASES.values(),
                             ids=STACK_CASES)
    def test_excitation_of_a_stack_is_the_trace_bit_for_bit(self, layout,
                                                            lam, half):
        rhos = self.stack(layout, lam, half)
        ops = build_operators(layout)
        oracle = [trace_excitation(rho, ops) for rho in rhos]
        assert np.array_equal(qubit_excitation(rhos, layout), oracle)
        assert [qubit_excitation(rho, layout) for rho in rhos] == oracle

    @staticmethod
    def broken(rho, check):
        if check == "trace":
            return 1.1 * rho
        if check == "hermitian":
            out = rho.copy()
            out[0, 1] += 1e-6
            return out
        # the smallest eigenvalue moved to -1e-6, the largest by as much
        # the other way
        w, v = np.linalg.eigh(rho)
        w[0], w[-1] = -1e-6, w[-1] + w[0] + 1e-6
        out = (v * w) @ v.conj().T
        return 0.5 * (out + out.conj().T)

    @pytest.mark.parametrize("check", BROKEN)
    def test_a_stack_raises_what_its_broken_matrix_raises(self, check):
        rhos = self.stack(LAYOUT, 1.0, 10.0)
        master_eq._validate_density_matrix(rhos)
        bad = self.broken(rhos[3], check)
        with pytest.raises(SolverFailure, match=BROKEN[check]) as alone:
            master_eq._validate_density_matrix(bad)
        rhos[3] = bad
        with pytest.raises(SolverFailure) as stacked:
            master_eq._validate_density_matrix(rhos)
        assert str(stacked.value) == str(alone.value)
        # a later matrix failing an earlier check does not take its place
        rhos[5] = self.broken(rhos[5], "trace")
        with pytest.raises(SolverFailure) as first:
            master_eq._validate_density_matrix(rhos)
        assert str(first.value) == str(alone.value)

    # one model, and a window split down to one-point models
    @pytest.mark.parametrize("lam, half, n", [(10.0, 4.5, 21),
                                              (20.0, 25.0, 31)])
    def test_states_follow_the_order_of_omegas(self, lam, half, n):
        gen = HermitianGenerator(small_params(lam=lam), HilbertLayout(4, 4))
        omegas = np.linspace(OMEGA_NV - half, OMEGA_NV + half, n)
        perm = np.random.default_rng(3).permutation(n)
        assert np.array_equal(gen.states(omegas[perm]),
                              gen.states(omegas)[perm])
