"""Lindblad model: two-level qubit + two truncated bosonic modes.

The Hamiltonian is assembled in the frame rotating at the drive frequency;
the dissipators use the convention in which a rate Gamma produces amplitude
decay at Gamma and population decay at 2*Gamma, matching the linewidths of
the oscillator models.  Column-stacking convention throughout:
vec(A rho B) = (B^T kron A) vec(rho).

Spectra are solved with ``HermitianGenerator``: the generator written in a
unitary basis of Hermitian matrices, where it is real, assembled once per
(params, layout) from the nonzeros of the Hamiltonian and the collapse
operators.  The drive frequency enters only through the rotating frame, so
L(omega) = A + (omega - omega_nv) * D with D coupling each off-diagonal
pair; one real solve per frequency remains.  ``build_liouvillian`` and
``steady_state`` are the direct complex construction it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FrequencyGrid, Spectrum, SystemParams
from .errors import NonUniqueSteadyState, SolverFailure

# acceptance policy shared by ``steady_state`` and ``HermitianGenerator``:
# ||L x|| / ||L||_F of the steady state, and the largest entrywise
# difference allowed between the solutions with the first and the last row
# replaced by the trace functional
RESIDUAL_TOL = 1e-10
UNIQUENESS_TOL = 1e-7


@dataclass(frozen=True)
class HilbertLayout:
    """Truncated product space: qubit (slowest index) x bright x dark."""

    n_max_bright: int
    n_max_dark: int

    def __post_init__(self):
        if self.n_max_bright < 1 or self.n_max_dark < 1:
            raise ValueError("Fock truncations must be >= 1")

    @property
    def dim(self) -> int:
        return 2 * self.n_max_bright * self.n_max_dark

    def index(self, q: int, nb: int, nd: int) -> int:
        """Flat index of |q, nb, nd> (q=0 ground, q=1 excited)."""
        return (q * self.n_max_bright + nb) * self.n_max_dark + nd


@dataclass(frozen=True)
class ModeOperators:
    sigma_z: np.ndarray
    sigma_plus: np.ndarray
    sigma_minus: np.ndarray
    sigma_x: np.ndarray
    b: np.ndarray
    d: np.ndarray


def _annihilator(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1).astype(complex)


def build_operators(layout: HilbertLayout) -> ModeOperators:
    """Dense mode operators on the full product space."""
    i2 = np.eye(2, dtype=complex)
    ib = np.eye(layout.n_max_bright, dtype=complex)
    idk = np.eye(layout.n_max_dark, dtype=complex)
    sz = np.diag([-1.0, 1.0]).astype(complex)       # ground first
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    kron3 = lambda a, b_, c: np.kron(np.kron(a, b_), c)
    return ModeOperators(
        sigma_z=kron3(sz, ib, idk),
        sigma_plus=kron3(sm.conj().T, ib, idk),
        sigma_minus=kron3(sm, ib, idk),
        sigma_x=kron3(sx, ib, idk),
        b=kron3(i2, _annihilator(layout.n_max_bright), idk),
        d=kron3(i2, ib, _annihilator(layout.n_max_dark)),
    )


def build_rotating_hamiltonian(params: SystemParams, omega: float,
                               layout: HilbertLayout,
                               ops: ModeOperators = None) -> np.ndarray:
    """Rotating-frame Hamiltonian at drive frequency omega."""
    o = ops if ops is not None else build_operators(layout)
    number = o.b.conj().T @ o.b + o.d.conj().T @ o.d
    jphase = params.j * np.exp(1j * params.theta)
    h = (
        0.5 * (params.omega_fq - omega) * o.sigma_z
        + (params.omega_nv - omega) * number
        + params.g * (o.sigma_plus @ o.b + o.sigma_minus @ o.b.conj().T)
        + jphase * (o.b.conj().T @ o.d)
        + np.conj(jphase) * (o.b @ o.d.conj().T)
        + 0.5 * params.lam * o.sigma_x
    )
    return h


def _dissipator(rate: float, c: np.ndarray) -> np.ndarray:
    """Superoperator for -rate*(C'C rho + rho C'C - 2 C rho C')."""
    n = c.shape[0]
    eye = np.eye(n, dtype=complex)
    cdc = c.conj().T @ c
    return rate * (
        2.0 * np.kron(c.conj(), c)
        - np.kron(eye, cdc)
        - np.kron(cdc.T, eye)
    )


def build_liouvillian(h: np.ndarray, params: SystemParams,
                      layout: HilbertLayout,
                      ops: ModeOperators = None) -> np.ndarray:
    """Generator of d(rho)/dt = -i[H, rho] + dissipators, vectorized."""
    o = ops if ops is not None else build_operators(layout)
    n = h.shape[0]
    eye = np.eye(n, dtype=complex)
    liou = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    liou += _dissipator(params.gamma_fq, o.sigma_minus)
    liou += _dissipator(params.gamma_b, o.b)
    liou += _dissipator(params.gamma_d, o.d)
    return liou


def steady_state(liou: np.ndarray, check_unique: bool = True,
                 residual_tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Solve L vec(rho) = 0 with the trace-one constraint.

    One row is replaced by the trace functional; the result is symmetrized
    and validated (trace, Hermiticity, positivity, residual).
    """
    d2 = liou.shape[0]
    d = int(round(np.sqrt(d2)))
    trace_row = np.zeros(d2, dtype=complex)
    trace_row[:: d + 1] = 1.0

    def solve_with_row(row: int) -> np.ndarray:
        a = liou.copy()
        a[row, :] = trace_row
        rhs = np.zeros(d2, dtype=complex)
        rhs[row] = 1.0
        try:
            return np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"steady-state solve failed: {exc}") from exc

    vec = solve_with_row(0)
    rho = vec.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)

    norm_l = np.linalg.norm(liou)
    residual = np.linalg.norm(liou @ rho.reshape(-1, order="F")) / norm_l
    if residual > residual_tol:
        raise SolverFailure(f"steady-state residual {residual:.3e} too large")

    if check_unique:
        vec2 = solve_with_row(d2 - 1)
        rho2 = vec2.reshape((d, d), order="F")
        rho2 = 0.5 * (rho2 + rho2.conj().T)
        if np.max(np.abs(rho2 - rho)) > UNIQUENESS_TOL:
            raise NonUniqueSteadyState("second kernel candidate found")

    _validate_density_matrix(rho)
    return rho


def _validate_density_matrix(rho: np.ndarray) -> None:
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise SolverFailure(f"trace {np.trace(rho)} violates unit-trace bound")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise SolverFailure("steady state not Hermitian within tolerance")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -1e-8:
        raise SolverFailure(f"negative eigenvalue {w.min():.3e} in steady state")


def qubit_excitation(rho: np.ndarray, layout: HilbertLayout,
                     ops: ModeOperators = None) -> float:
    """<sigma+ sigma-> in the given state."""
    o = ops if ops is not None else build_operators(layout)
    val = np.trace(o.sigma_plus @ o.sigma_minus @ rho)
    if abs(val.imag) > 1e-10:
        raise SolverFailure(f"excitation has imaginary part {val.imag:.3e}")
    return float(val.real)


def _coo(m: np.ndarray) -> tuple:
    """Nonzero (rows, cols, values) of a dense matrix."""
    r, c = np.nonzero(m)
    return r, c, m[r, c]


def _sandwich(a: tuple, b: tuple, n: int) -> tuple:
    """Triplets of the column-stacked superoperator rho -> A rho B.

    (A rho B)_ij = A_ik rho_kl B_lj, so each pair of nonzeros A_ik, B_lj
    lands at row i + j*n, column k + l*n.
    """
    ai, ak, av = a
    bl, bj, bv = b
    rows = ai[:, None] + n * bj[None, :]
    cols = ak[:, None] + n * bl[None, :]
    return rows.ravel(), cols.ravel(), (av[:, None] * bv[None, :]).ravel()


def _hermitian_basis(n: int) -> tuple:
    """Where each column-stacked slot of rho goes in the Hermitian basis.

    For i < j the slot of rho_ij holds u = (rho_ij + rho_ji)/sqrt2 and the
    slot of rho_ji holds v = (rho_ij - rho_ji)/(sqrt2 i); diagonal slots
    keep rho_ii.  Returns, per slot s, the u-slot and v-slot of its pair
    and the coefficients of rho_s in u and in v.
    """
    i, j = np.divmod(np.arange(n * n), n)[::-1]  # s = i + j*n
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    u_slot = lo + n * hi
    v_slot = hi + n * lo
    h = np.sqrt(0.5)
    cu = np.where(i == j, 1.0, h).astype(complex)
    cv = np.select([i < j, i > j], [-1j * h, 1j * h], 0.0)
    return u_slot, v_slot, cu, cv


def real_liouvillian(h: np.ndarray, collapse) -> np.ndarray:
    """Generator of -i[H, rho] + sum rate*(2 C rho C' - C'C rho - rho C'C)
    in the Hermitian basis of ``_hermitian_basis``.

    ``collapse`` is a sequence of (rate, C).  The basis is unitary, so norms
    and residuals equal those of the column-stacked generator.  The result
    is real exactly when the map preserves Hermiticity; an imaginary part
    above 1e-12 of the largest entry raises SolverFailure.
    """
    n = h.shape[0]
    eye = (np.arange(n), np.arange(n), np.ones(n, dtype=complex))
    terms = [_sandwich(_coo(-1j * h), eye, n),
             _sandwich(eye, _coo(1j * h), n)]
    for rate, c in collapse:
        cdc = -rate * (c.conj().T @ c)
        terms += [_sandwich(_coo(2.0 * rate * c), _coo(c.conj().T), n),
                  _sandwich(_coo(cdc), eye, n),
                  _sandwich(eye, _coo(cdc), n)]
    rows, cols, vals = (np.concatenate(t) for t in zip(*terms))

    # L_real[p, q] = sum_rs T[p, r] L[r, s] conj(T[q, s]); column s of T
    # has its nonzeros at the u- and v-slot of s's pair (cv = 0 on the
    # diagonal)
    u_slot, v_slot, cu, cv = _hermitian_basis(n)
    to_p = (u_slot[rows], cu[rows]), (v_slot[rows], cv[rows])
    to_q = (u_slot[cols], cu[cols].conj()), (v_slot[cols], cv[cols].conj())
    n2 = n * n
    flat = np.concatenate([p * n2 + q for p, _ in to_p for q, _ in to_q])
    weights = np.concatenate([tp * vals * tq for _, tp in to_p
                              for _, tq in to_q])
    real = np.bincount(flat, weights=weights.real, minlength=n2 * n2)
    imag = np.bincount(flat, weights=weights.imag, minlength=n2 * n2)
    scale = np.max(np.abs(real))
    if np.max(np.abs(imag)) > 1e-12 * scale:
        raise SolverFailure(
            "generator does not preserve Hermiticity: imaginary part "
            f"{np.max(np.abs(imag)):.3e} against scale {scale:.3e}")
    return real.reshape(n2, n2)


class HermitianGenerator:
    """The real generator L(omega) = A + (omega - omega_nv) * D of one
    (params, layout), with the validated steady state at any drive.

    In the rotating frame H(omega) = H(omega_nv) - (omega - omega_nv) * N
    with N = sigma_z/2 + n_b + n_d diagonal, so D only rotates each (u, v)
    pair by delta = N_i - N_j: du/dt = -delta v, dv/dt = +delta u.  D
    vanishes on the diagonal slots, so the trace functional can replace
    the rho_00 row (or the last diagonal row) at every frequency.

    ``ops`` takes the operators of ``layout`` if the caller has them, as
    ``me_excitation`` does; they are built when omitted.
    """

    def __init__(self, params: SystemParams, layout: HilbertLayout,
                 ops: ModeOperators = None):
        o = ops if ops is not None else build_operators(layout)
        self.layout = layout
        self.ops = o
        self.omega_ref = params.omega_nv
        h = build_rotating_hamiltonian(params, self.omega_ref, layout, o)
        self.a = real_liouvillian(h, [(params.gamma_fq, o.sigma_minus),
                                      (params.gamma_b, o.b),
                                      (params.gamma_d, o.d)])
        n = layout.dim
        number = np.real(np.diag(0.5 * o.sigma_z + o.b.conj().T @ o.b
                                 + o.d.conj().T @ o.d))
        i, j = np.triu_indices(n, 1)
        delta = number[i] - number[j]
        keep = delta != 0.0
        self._u = (i + n * j)[keep]
        self._v = (j + n * i)[keep]
        self._delta = delta[keep]
        self._basis = _hermitian_basis(n)
        self._trace_row = np.zeros(n * n)
        self._trace_row[:: n + 1] = 1.0
        # reused by every point: a fresh 8 MB (4x4) copy per point is
        # mapped and faulted in anew
        self._work = np.empty_like(self.a)

    def liouvillian(self, omega: float) -> np.ndarray:
        """Real generator at drive frequency omega, in the work buffer that
        the next call overwrites."""
        out = self._work
        np.copyto(out, self.a)
        shift = (omega - self.omega_ref) * self._delta
        out[self._u, self._v] -= shift
        out[self._v, self._u] += shift
        return out

    def _solve_with_trace_row(self, liou: np.ndarray, row: int) -> np.ndarray:
        saved = liou[row].copy()
        liou[row] = self._trace_row
        rhs = np.zeros(liou.shape[0])
        rhs[row] = 1.0
        try:
            return np.linalg.solve(liou, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"steady-state solve failed: {exc}") from exc
        finally:
            liou[row] = saved

    def _density_matrix(self, x: np.ndarray) -> np.ndarray:
        # vec(rho) = T' x, T being unitary
        u_slot, v_slot, cu, cv = self._basis
        vec = cu.conj() * x[u_slot] + cv.conj() * x[v_slot]
        n = self.layout.dim
        return vec.reshape((n, n), order="F")

    def steady_state(self, omega: float,
                     check_unique: bool = False) -> np.ndarray:
        """Validated steady state at omega, with the checks of the
        module-level ``steady_state``: residual, optional second solve with
        the last row replaced, trace, Hermiticity and positivity."""
        liou = self.liouvillian(omega)
        x = self._solve_with_trace_row(liou, 0)
        residual = np.linalg.norm(liou @ x) / np.linalg.norm(liou)
        if residual > RESIDUAL_TOL:
            raise SolverFailure(
                f"steady-state residual {residual:.3e} too large")
        rho = self._density_matrix(x)
        if check_unique:
            rho2 = self._density_matrix(
                self._solve_with_trace_row(liou, liou.shape[0] - 1))
            if np.max(np.abs(rho2 - rho)) > UNIQUENESS_TOL:
                raise NonUniqueSteadyState("second kernel candidate found")
        _validate_density_matrix(rho)
        return rho

    def excitation(self, omegas, check_unique: bool = False) -> np.ndarray:
        """<sigma+ sigma-> in the steady state at each drive frequency."""
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        values = np.empty(len(omegas))
        for k, w in enumerate(omegas):
            try:
                rho = self.steady_state(w, check_unique)
                values[k] = qubit_excitation(rho, self.layout, self.ops)
            except (SolverFailure, NonUniqueSteadyState) as exc:
                raise type(exc)(f"at omega={w}: {exc}") from exc
        return values


def me_excitation(params: SystemParams, omega: float, layout: HilbertLayout,
                  ops: ModeOperators = None, check_unique: bool = False) -> float:
    gen = HermitianGenerator(params, layout, ops)
    return float(gen.excitation(omega, check_unique=check_unique)[0])


def me_spectrum(params: SystemParams, grid: FrequencyGrid,
                layout: HilbertLayout, check_unique: bool = False) -> Spectrum:
    """Steady-state excitation at every grid frequency."""
    values = HermitianGenerator(params, layout).excitation(
        grid.points(), check_unique=check_unique)
    return Spectrum(grid=grid, values=values, model_tag="ME",
                    params_snapshot=params,
                    metadata={"n_max_bright": layout.n_max_bright,
                              "n_max_dark": layout.n_max_dark})


def truncation_convergence(params: SystemParams, grid: FrequencyGrid,
                           layout: HilbertLayout, rel_tol: float = 1e-3) -> dict:
    """Compare the spectrum against one extra Fock level on each mode."""
    coarse = me_spectrum(params, grid, layout).values
    finer_layout = HilbertLayout(layout.n_max_bright + 1, layout.n_max_dark + 1)
    fine = me_spectrum(params, grid, finer_layout).values
    scale = np.maximum(np.maximum(np.abs(coarse), np.abs(fine)), 1e-300)
    devs = np.abs(fine - coarse) / scale
    max_dev = float(np.max(devs))
    return {
        "n_b": layout.n_max_bright,
        "n_d": layout.n_max_dark,
        "max_rel_dev": max_dev,
        "pass": max_dev < rel_tol,
    }
