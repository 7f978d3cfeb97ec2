"""Lindblad model: two-level qubit + two truncated bosonic modes.

The Hamiltonian is assembled in the frame rotating at the drive frequency;
the dissipators use the convention in which a rate Gamma produces amplitude
decay at Gamma and population decay at 2*Gamma, matching the linewidths of
the oscillator models.  Column-stacking convention throughout:
vec(A rho B) = (B^T kron A) vec(rho).

Spectra are solved with ``HermitianGenerator``: the generator written in a
unitary basis of Hermitian matrices, where it is real, assembled once per
(params, layout) from the nonzeros of the Hamiltonian and the collapse
operators into blocks of coherence order, where it is block tridiagonal.
The drive frequency enters only through the rotating frame, so
L(omega) = A + (omega - omega_nv) * D with D coupling each off-diagonal
pair; a block factorization per frequency interval and a certified Krylov
reduced model give every point of it.  ``build_liouvillian`` and
``steady_state`` are the direct complex construction it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FrequencyGrid, Spectrum, SystemParams, _require_int
from .errors import NonUniqueSteadyState, SolverFailure

# acceptance policy shared by ``steady_state`` and ``HermitianGenerator``:
# ||L x|| / ||L||_F of the steady state, and the largest entrywise
# difference allowed between the solutions with the first and the last row
# replaced by the trace functional
RESIDUAL_TOL = 1e-10
UNIQUENESS_TOL = 1e-7

# reduced models of a spectrum: at most KRYLOV_MAX Arnoldi steps per model,
# stopping once the a-posteriori estimate is below KRYLOV_TOL relative at
# every point (checked every _KRYLOV_CHECK steps); an interval of fewer
# than MIN_MODEL_POINTS points is solved as one-point models
KRYLOV_MAX = 160
KRYLOV_TOL = 1e-14
_KRYLOV_CHECK = 5
_CHUNK = 8
MIN_MODEL_POINTS = 8
# truncation_convergence passes when one more Fock level on each mode moves
# no point of the spectrum by this much, relative
CONVERGENCE_REL_TOL = 1e-3


@dataclass(frozen=True)
class HilbertLayout:
    """Truncated product space: qubit (slowest index) x bright x dark."""

    n_max_bright: int
    n_max_dark: int

    def __post_init__(self):
        _require_int("n_max_bright", self.n_max_bright, 1)
        _require_int("n_max_dark", self.n_max_dark, 1)

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


def steady_state(liou: np.ndarray, check_unique: bool = True) -> np.ndarray:
    """Solve L vec(rho) = 0 with the trace-one constraint.

    One row is replaced by the trace functional; the result is symmetrized
    and validated (residual, uniqueness, trace, Hermiticity, positivity).
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
            vec = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"steady-state solve failed: {exc}") from exc
        rho = vec.reshape((d, d), order="F")
        return 0.5 * (rho + rho.conj().T)

    rho = solve_with_row(0)
    _check_residual(np.linalg.norm(liou @ rho.reshape(-1, order="F"))
                    / np.linalg.norm(liou))
    if check_unique:
        _check_unique(rho, solve_with_row(d2 - 1))
    _validate_density_matrix(rho)
    return rho


def _check_residual(residuals) -> None:
    """Raise unless every residual ||L x|| / ||L||_F is within
    ``RESIDUAL_TOL``."""
    worst = np.max(residuals)
    if not worst <= RESIDUAL_TOL:
        raise SolverFailure(f"steady-state residual {worst:.3e} too large")


def _check_unique(rho: np.ndarray, rho2: np.ndarray) -> None:
    """Raise unless the states with the first and with the last row
    replaced by the trace functional agree within ``UNIQUENESS_TOL``."""
    if not np.max(np.abs(rho2 - rho)) <= UNIQUENESS_TOL:
        raise NonUniqueSteadyState("second kernel candidate found")


def _validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Raise unless rho, one matrix or a stack, has unit trace, is
    Hermitian and has no negative eigenvalue; a stack raises what its first
    failing matrix raises alone.  Returns each matrix's lowest eigenvalue."""
    rhos = rho.reshape((-1,) + rho.shape[-2:])
    trace = np.trace(rhos, axis1=1, axis2=2)
    off = np.abs(trace.real - 1.0) > 1e-8
    skew = np.abs(rhos - rhos.conj().swapaxes(1, 2)).max(axis=(1, 2)) > 1e-10
    low = np.linalg.eigvalsh(rhos).min(axis=-1)
    failed = off | skew | (low < -1e-8)
    if not failed.any():
        return low
    k = np.argmax(failed)
    if off[k]:
        raise SolverFailure(f"trace {trace[k]} violates unit-trace bound")
    if skew[k]:
        raise SolverFailure("steady state not Hermitian within tolerance")
    raise SolverFailure(f"negative eigenvalue {low[k]:.3e} in steady state")


def qubit_excitation(rho: np.ndarray, layout: HilbertLayout):
    """<sigma+ sigma-> in one state (a float) or in each state of a stack
    (an array): the populations from ``layout.index(1, 0, 0)`` on, as the
    qubit is the slowest index."""
    # the whole diagonal, ground half zeroed: summed as np.trace sums it
    diag = np.diagonal(rho, axis1=-2, axis2=-1).copy()
    diag[..., : layout.index(1, 0, 0)] = 0.0
    val = diag.sum(axis=-1)
    imag = np.extract(np.abs(val.imag) > 1e-10, val.imag)
    if imag.size:
        raise SolverFailure(f"excitation has imaginary part {imag[0]:.3e}")
    return val.real if val.ndim else float(val.real)


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


def _hermitian_basis(number: np.ndarray) -> tuple:
    """Where each column-stacked slot of rho goes in the Hermitian basis.

    For i < j the slot of rho_ij holds u = (rho_ij + rho_ji)/sqrt2 and the
    slot of rho_ji holds v = (rho_ij - rho_ji)/(sqrt2 i), negated where
    N_i < N_j: u + iv = sqrt2 rho_ij for the element with N_i > N_j, or
    i < j if N_i = N_j (``number`` is the diagonal of N).  Diagonal slots
    keep rho_ii.  Returns, per slot s, the u-slot and v-slot of its pair
    and the coefficients of rho_s in u and in v.
    """
    n = len(number)
    i, j = np.divmod(np.arange(n * n), n)[::-1]  # s = i + j*n
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    u_slot = lo + n * hi
    v_slot = hi + n * lo
    h = np.sqrt(0.5)
    cu = np.where(i == j, 1.0, h).astype(complex)
    cv = np.select([i < j, i > j], [-1j * h, 1j * h], 0.0)
    return u_slot, v_slot, cu, np.where(number[lo] < number[hi], -cv, cv)


def real_liouvillian(h: np.ndarray, collapse,
                     number: np.ndarray) -> "CoherenceBlocks":
    """Generator of -i[H, rho] + sum rate*(2 C rho C' - C'C rho - rho C'C)
    in the Hermitian basis of ``_hermitian_basis``, as coherence-order
    blocks.

    ``collapse`` is a sequence of (rate, C); ``number`` is the diagonal of
    an excitation number N that only the drive changes, and only by one.
    The basis is unitary, so norms and residuals equal those of the
    column-stacked generator.  The result is real exactly when the map
    preserves Hermiticity; an entry that is not finite, or an imaginary
    part above 1e-12 of the largest entry, raises SolverFailure.
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
    if not np.all(np.isfinite(vals)):
        raise SolverFailure("generator entries are not finite")

    # L_real[p, q] = sum_rs T[p, r] L[r, s] conj(T[q, s]); column s of T
    # has its nonzeros at the u- and v-slot of s's pair (cv = 0 on the
    # diagonal)
    u_slot, v_slot, cu, cv = _hermitian_basis(number)
    to_p = (u_slot[rows], cu[rows]), (v_slot[rows], cv[rows])
    to_q = (u_slot[cols], cu[cols].conj()), (v_slot[cols], cv[cols].conj())
    p = np.concatenate([p for p, _ in to_p for _ in to_q])
    q = np.concatenate([q for _ in to_p for q, _ in to_q])
    weights = np.concatenate([tp * vals * tq for _, tp in to_p
                              for _, tq in to_q])
    return CoherenceBlocks(number, p, q, weights)


def _ell(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
         n_rows: int) -> tuple:
    """A block's triplets in ELL form: (cols, vals), each (k, n_rows), with
    the j-th nonzero of row i at [j, i]; shorter rows are padded with the
    value 0 at column 0."""
    at = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=n_rows)
    rank = np.arange(len(at)) - (np.cumsum(counts) - counts)[rows[at]]
    shape = (counts.max(initial=0), n_rows)
    ell = np.zeros(shape, dtype=np.intp), np.zeros(shape, vals.dtype)
    ell[0][rank, rows[at]], ell[1][rank, rows[at]] = cols[at], vals[at]
    return ell


def _complex(ell: tuple, paired_rows: bool, conj: bool = False) -> tuple:
    """The complex C, in ELL form, with R y = Re(C z) for a real block R in
    ELL form whose columns are (u, v) pairs and z = u + iv: C[:, b] =
    R[:, 2b] - i R[:, 2b + 1] (its conjugate with ``conj``).  With rows in
    pairs too, R is the real form of C and C keeps the u rows only."""
    cols, vals = (part[:, :: 2 if paired_rows else 1] for part in ell)
    keep = vals != 0.0  # not the padding
    c = cols[keep]
    return _ell(np.nonzero(keep)[1], c // 2, vals[keep]
                * np.where(c % 2, 1j if conj else -1j, 1.0), cols.shape[1])


def _ell_dot(ell: tuple, x: np.ndarray) -> np.ndarray:
    """S @ x for a block S in ELL form and x of shape (c,) or (c, p).  A
    vector takes all stored entries at once; a matrix one nonzero per row
    at a time, so that no temporary is larger than the result."""
    cols, vals = ell
    if x.ndim == 1:
        return (vals * x[cols]).sum(axis=0)
    out = np.zeros(cols.shape[1:] + x.shape[1:], np.result_type(vals, x))
    for c, v in zip(cols, vals):
        out += v[:, None] * x[c]
    return out


class CoherenceBlocks:
    """A real generator on the Hermitian-basis slots of an n x n density
    matrix, with the slots grouped by coherence order m = |N_i - N_j|.

    Only the drive changes N, by one, so the generator is block tridiagonal
    in m: ``diag[m]`` is block (m, m), ``upper[m]`` block (m - 1, m) and
    ``lower[m]`` block (m, m - 1), each held as its nonzeros in ELL form
    (``_ell``).  Vectors in this order are slot vectors permuted by
    ``perm``; ``pos`` is its inverse.  No zero of a block is stored, and
    nothing of size n^2 x n^2 is formed.

    Each order holds its slots as (u, v) pairs, u first, and on m >= 1 the
    generator is complex-linear on z = u + iv: ``upper_c[m]`` and
    ``lower_tc[m]`` are the complex U and L^T of blocks (m - 1, m) and
    (m, m - 1) (``_complex``; at m = 1, upper[1] y = Re(U z) and z = L x).
    """

    def __init__(self, number: np.ndarray, p: np.ndarray, q: np.ndarray,
                 weights: np.ndarray):
        n = len(number)
        i, j = np.divmod(np.arange(n * n), n)[::-1]  # slot s = i + j*n
        order = np.rint(np.abs(number[i] - number[j])).astype(int)
        u_slot = np.minimum(i, j) + n * np.maximum(i, j)
        self.perm = np.lexsort((2 * u_slot + (i > j), order))
        self.pos = np.empty_like(self.perm)
        self.pos[self.perm] = np.arange(n * n)
        self.sizes = np.bincount(order)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        if np.any(np.abs(order[p] - order[q]) > 1):
            raise ValueError("generator couples coherence orders more than "
                             "one apart")
        # the entries summed per (row, column) in block order, sorted by row
        keys, at = np.unique(self.pos[p] * n * n + self.pos[q],
                             return_inverse=True)
        sums = np.bincount(at, weights=weights.real, minlength=len(keys))
        imag = np.abs(np.bincount(at, weights=weights.imag)).max(initial=0)
        scale = np.max(np.abs(sums), initial=0.0)
        if imag > 1e-12 * scale:
            raise SolverFailure(
                "generator does not preserve Hermiticity: imaginary part "
                f"{imag:.3e} against scale {scale:.3e}")
        if not scale:
            raise SolverFailure("generator has no nonzero entry")
        self.norm2 = float(np.dot(sums, sums))  # squared Frobenius norm
        rows, cols = np.divmod(keys[sums != 0.0], n * n)
        sums = sums[sums != 0.0]  # entries that cancelled are not stored
        mr, mc = order[self.perm[rows]], order[self.perm[cols]]

        def block(a: int, b: int, flip: bool = False) -> tuple:
            at = (mr == a) & (mc == b)  # block (a, b), or its transpose
            rc = [rows[at] - self.offsets[a], cols[at] - self.offsets[b]]
            return _ell(*rc[::-1 if flip else 1], sums[at],
                        self.sizes[b if flip else a])

        k = len(self.sizes)
        self.diag = [block(m, m) for m in range(k)]
        self.upper = [None] + [block(m - 1, m) for m in range(1, k)]
        self.lower = [None] + [block(m, m - 1) for m in range(1, k)]
        self.upper_c = [None] + [_complex(self.upper[m], m > 1)
                                 for m in range(1, k)]
        self.lower_tc = [None] + [_complex(block(m, m - 1, True), m > 1, True)
                                  for m in range(1, k)]

    def split(self, x: np.ndarray) -> list:
        """Views of the per-order parts of x (slots in block order)."""
        return [x[a:b] for a, b in zip(self.offsets[:-1], self.offsets[1:])]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Generator times x, for x of shape (n^2,) or (n^2, k)."""
        xs = self.split(x)
        out = np.empty_like(x)
        for m, part in enumerate(self.split(out)):
            part[...] = _ell_dot(self.diag[m], xs[m])
            if m > 0:
                part += _ell_dot(self.lower[m], xs[m - 1])
            if m + 1 < len(xs):
                part += _ell_dot(self.upper[m + 1], xs[m + 1])
        return out


def _inverse(block: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(block)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"steady-state solve failed: {exc}") from exc


class _BlockFactor:
    """M(s) = A + s*D with one row of the m = 0 block replaced by the trace
    functional, factored by block elimination from the highest coherence
    order down to m = 0, in complex arithmetic on the orders m >= 1 (see
    ``CoherenceBlocks``), whose Schur complements are half their real size.

    D is block diagonal and zero on m = 0, and the trace row couples to no
    other order, so only the m = 0 Schur complement depends on which row
    holds the trace: both rows share the higher orders' inverses.
    """

    def __init__(self, gen: "HermitianGenerator", s: float):
        a = gen.a
        k = len(a.sizes)
        self.gen = gen
        self.inv = [None] * k
        schur = gen.diag_block(k - 1, s)
        for m in range(k - 1, 0, -1):
            self.inv[m] = _inverse(schur)
            # U inv L = (L^T (U inv)^T)^T; at m = 1 its real part
            t = _ell_dot(a.lower_tc[m],
                         _ell_dot(a.upper_c[m], self.inv[m]).T).T
            schur = gen.diag_block(m - 1, s) - (t if m > 1 else t.real)
        self._schur0 = schur
        self._inv0 = {}

    def _inverse0(self, row: int) -> np.ndarray:
        if row not in self._inv0:
            s0 = self._schur0.copy()
            s0[row] = self.gen.trace0
            self._inv0[row] = _inverse(s0)
        return self._inv0[row]

    def solve(self, rhs: np.ndarray, row: int) -> np.ndarray:
        """M(s)^-1 rhs with the trace functional in ``row`` of m = 0."""
        a = self.gen.a
        x = rhs.copy()
        y = a.split(x)  # views of x: each part is solved in place
        z = [None] + [part.view(complex) for part in y[1:]]  # u + iv
        for m in range(len(y) - 1, 0, -1):
            z[m][:] = self.inv[m] @ z[m]
            y[m - 1] -= _ell_dot(a.upper[m], y[m])
        y[0][row] = rhs[row]
        y[0][:] = self._inverse0(row) @ y[0]
        for m in range(1, len(y)):
            z[m] -= self.inv[m] @ _ell_dot(a.lower[m], y[m - 1]).view(complex)
        return x


def _reduced(hess: np.ndarray, beta: float, sigmas: np.ndarray) -> tuple:
    """Reduced-model solutions (I + sigma H_k) y = beta e_1, one row per
    sigma, and their a-posteriori estimates |sigma h_{k+1,k} y_k| / |y|;
    ``hess`` is the (k + 1) x k Arnoldi matrix."""
    k = hess.shape[1]
    y = np.empty((len(sigmas), k))
    for c in range(0, len(sigmas), _CHUNK):  # bounded (chunk, k, k) stack
        sig = sigmas[c: c + _CHUNK]
        rhs = np.zeros((len(sig), k, 1))
        rhs[:, 0] = beta
        try:
            y[c: c + _CHUNK] = np.linalg.solve(
                np.eye(k) + sig[:, None, None] * hess[None, :k], rhs)[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"reduced model singular: {exc}") from exc
    estimate = (np.abs(sigmas) * hess[k, k - 1] * np.abs(y[:, -1])
                / np.linalg.norm(y, axis=1))
    return y, estimate


class HermitianGenerator:
    """The real generator L(omega) = A + (omega - omega_nv) * D of one
    (params, layout), with the validated steady state at any drive.

    In the rotating frame H(omega) = H(omega_nv) - (omega - omega_nv) * N
    with N = sigma_z/2 + n_b + n_d diagonal, so D only rotates each (u, v)
    pair by delta = |N_i - N_j|: du/dt = -delta v, dv/dt = +delta u, so D
    is i*m on u + iv in order m.  A is held as coherence-order blocks
    (``CoherenceBlocks``); D is block diagonal and vanishes on the diagonal
    slots, so the trace functional can replace the rho_00 row (or the last
    diagonal row) at every frequency.

    A spectrum is solved interval by interval: B = M(omega_c) is factored
    once by block elimination (``_BlockFactor``) and shift-invert Arnoldi
    on B^-1 D gives x(s) ~ V_k (I + s H_k)^-1 |b| e_1 at every point of the
    interval.  Every point is certified against the true generator; an
    interval with a failing point is split in two, and an interval of fewer
    than ``MIN_MODEL_POINTS`` points is solved as one-point models, where
    the shift is zero and b is the exact solve.
    """

    def __init__(self, params: SystemParams, layout: HilbertLayout):
        o = build_operators(layout)
        self.layout = layout
        self.omega_ref = params.omega_nv
        h = build_rotating_hamiltonian(params, self.omega_ref, layout, o)
        n = layout.dim
        number = np.real(np.diag(0.5 * o.sigma_z + o.b.conj().T @ o.b
                                 + o.d.conj().T @ o.d))
        self.a = a = real_liouvillian(h, [(params.gamma_fq, o.sigma_minus),
                                          (params.gamma_b, o.b),
                                          (params.gamma_d, o.d)], number)
        # the (u, v) pairs of the orders m >= 1, and their m
        self._u = np.arange(a.offsets[1], a.offsets[-1], 2)
        self._v = self._u + 1
        self._delta = np.repeat(np.arange(len(a.sizes)), a.sizes)[self._u]
        # ||A + s D||_F^2 = norm2[0] + s norm2[1] + s^2 norm2[2], with
        # <A, D> the sum of m (A_vu - A_uv) over the pairs of order m
        ad = sum(m * np.sum(np.where(r % 2, v, -v)[c == r ^ 1]) for m, (c, v)
                 in enumerate(a.diag) for r in [np.arange(c.shape[1])])
        self._norm2 = (a.norm2, 2.0 * ad,
                       2.0 * np.dot(self._delta, self._delta))
        diag_slots = a.pos[:: n + 1]
        self.trace0 = np.zeros(a.sizes[0])
        self.trace0[diag_slots] = 1.0
        self.rows = (a.pos[0], a.pos[n * n - 1])  # rho_00 and rho_last
        u_slot, v_slot, cu, cv = _hermitian_basis(number)
        self._basis = a.pos[u_slot], a.pos[v_slot], cu.conj(), cv.conj()

    def diag_block(self, m: int, s: float) -> np.ndarray:
        """Diagonal block m of A + s*D, a fresh dense array: real on m = 0,
        and on m >= 1 the complex block of which it is the real form."""
        cols, vals = _complex(self.a.diag[m], True) if m else self.a.diag[0]
        out = np.zeros((cols.shape[1],) * 2, vals.dtype)
        np.add.at(out, (np.arange(len(out)), cols), vals)  # padding adds 0
        if m:
            out[np.diag_indices(len(out))] += 1j * s * m  # D is i*m
        return out

    def apply_d(self, x: np.ndarray) -> np.ndarray:
        """D x, for x of shape (n^2,) or (n^2, k) in block order."""
        delta = self._delta.reshape((-1,) + (1,) * (x.ndim - 1))
        out = np.zeros_like(x)
        out[self._u] = -delta * x[self._v]
        out[self._v] = delta * x[self._u]
        return out

    def _residuals(self, x: np.ndarray, s) -> np.ndarray:
        """||L x|| / ||L||_F of each column of x (block order), column p
        against the generator at shift s[p].  A norm that overflows would
        make every residual read 0, so it is a solver failure."""
        r = self.a.matvec(x) + self.apply_d(x) * s
        a2, ad, d2 = self._norm2
        norm = np.sqrt(a2 + s * (ad + s * d2))
        if not np.all(np.isfinite(norm)):
            raise SolverFailure("generator norm is not finite")
        return np.linalg.norm(r, axis=0) / norm

    def _density_matrices(self, x: np.ndarray) -> np.ndarray:
        # one rho per column x (block order): vec(rho) = T' x, T unitary
        gu, gv, cu, cv = self._basis
        n = self.layout.dim
        vecs = cu * x.T[:, gu] + cv * x.T[:, gv]
        return vecs.reshape(-1, n, n).swapaxes(1, 2)

    def _krylov(self, factor: _BlockFactor, row: int,
                sigmas: np.ndarray) -> tuple:
        """Shift-invert Arnoldi on K = B^-1 D from b = B^-1 e_row, for the
        sorted shifts sigmas from B's expansion point.

        (I + sigma K) x = b holds for x = V_k y up to sigma h_{k+1,k} y_k
        v_{k+1}, with (I + sigma H_k) y = |b| e_1.  Every ``_KRYLOV_CHECK``
        steps that estimate is checked at the two end shifts, and when both
        are below ``KRYLOV_TOL`` |y|, at every shift; the run stops when all
        are, or at ``KRYLOV_MAX`` steps.  Returns the columns x(sigma),
        their estimates, and k; with every shift zero, x is b itself (k = 0).
        """
        b = np.zeros(self.a.offsets[-1])
        b[row] = 1.0
        b = factor.solve(b, row)
        if not sigmas.any():
            x = b[:, None].repeat(len(sigmas), axis=1)
            return x, np.zeros_like(sigmas), 0
        basis = np.empty((KRYLOV_MAX + 1, len(b)))  # one vector per row
        hess = np.zeros((KRYLOV_MAX + 1, KRYLOV_MAX))
        beta = np.linalg.norm(b)
        basis[0] = b / beta
        ends = sigmas[[0, -1]]
        for k in range(1, KRYLOV_MAX + 1):
            w = factor.solve(self.apply_d(basis[k - 1]), row)
            size = np.linalg.norm(w)
            for _ in range(2):  # full reorthogonalization, twice
                c = basis[:k] @ w
                w -= c @ basis[:k]
                hess[:k, k - 1] += c
            hess[k, k - 1] = np.linalg.norm(w)
            # an invariant subspace: the model is exact
            if hess[k, k - 1] <= 1e-12 * size:
                hess[k, k - 1] = 0.0
            elif k < KRYLOV_MAX and (k % _KRYLOV_CHECK or np.any(
                    _reduced(hess[:k + 1, :k], beta, ends)[1] > KRYLOV_TOL)):
                basis[k] = w / hess[k, k - 1]
                continue
            y, estimate = _reduced(hess[:k + 1, :k], beta, sigmas)
            if (np.all(estimate <= KRYLOV_TOL) or k == KRYLOV_MAX
                    or hess[k, k - 1] == 0.0):
                return basis[:k].T @ y.T, estimate, k
            basis[k] = w / hess[k, k - 1]

    def _interval(self, omegas: np.ndarray, check_unique: bool) -> tuple:
        """Stacked steady states at the sorted omegas from reduced models
        expanded at the interval's centre (the exact solve at a single
        point), their worst residual, lowest eigenvalue and Krylov dimensions.
        Raises the first check a point fails: each model's estimate, the
        residual, the density-matrix checks, then with ``check_unique``
        agreement with the last-row model and that model's residual."""
        s = omegas - self.omega_ref
        centre = 0.5 * (s[0] + s[-1])
        factor = _BlockFactor(self, centre)
        models = [self._krylov(factor, row, s - centre)
                  for row in self.rows[: 2 if check_unique else 1]]
        for _, estimate, _ in models:
            if not np.all(estimate <= KRYLOV_TOL):
                raise SolverFailure(f"reduced-model estimate "
                                    f"{np.max(estimate):.3e} too large")
        x = models[0][0]
        residuals = self._residuals(x, s)
        _check_residual(residuals)
        rhos = self._density_matrices(x)
        low = _validate_density_matrix(rhos)
        if check_unique:
            x2 = models[1][0]
            _check_unique(rhos, self._density_matrices(x2))
            _check_residual(self._residuals(x2, s))
        return (rhos, float(residuals.max()), float(low.min()),
                [k for _, _, k in models])

    def states(self, omegas, check_unique: bool = False,
               report: dict = None) -> np.ndarray:
        """The validated steady states at the drive frequencies, as one
        (len(omegas), n, n) stack in the order of omegas.  An interval of
        fewer than ``MIN_MODEL_POINTS`` points becomes one-point models; an
        interval that fails a check is split, and a single point raises.

        ``report``, a dict updated in place, receives ``krylov_dims`` (the
        Krylov dimension of every reduced model whose points were
        returned), ``rejected_models`` (models with a failing point),
        ``rejection_reasons`` (per split interval, its omega range and the
        check it failed), ``points_solved_per_point`` (one-point models),
        ``worst_residual`` (the largest certified residual returned),
        ``worst_negativity`` (minus the lowest eigenvalue returned, if it is
        negative) and ``top_level_population`` (per mode, the largest
        population at its top Fock level).
        """
        if report is None:
            report = {}
        report.update(krylov_dims=[], rejected_models=0,
                      rejection_reasons=[], points_solved_per_point=0,
                      worst_residual=0.0, worst_negativity=0.0)
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        states = np.empty((len(omegas),) + 2 * (self.layout.dim,), complex)
        pending = [np.argsort(omegas, kind="stable")]
        while pending:
            idx = pending.pop()
            if len(idx) != 1 and len(idx) < MIN_MODEL_POINTS:
                pending += list(idx[::-1, None])  # lowest omega first
                continue
            try:
                rhos, residual, low, dims = self._interval(omegas[idx],
                                                           check_unique)
            except (SolverFailure, NonUniqueSteadyState) as exc:
                if len(idx) == 1:
                    raise type(exc)(f"at omega={omegas[idx[0]]}: {exc}") \
                        from exc
                report["rejected_models"] += 2 if check_unique else 1
                report["rejection_reasons"].append(
                    f"omega {omegas[idx[0]]} to {omegas[idx[-1]]}: {exc}")
                half = len(idx) // 2
                pending += [idx[half:], idx[:half]]  # left half first
                continue
            if len(idx) == 1:
                report["points_solved_per_point"] += 1
            else:
                report["krylov_dims"] += dims
            report["worst_residual"] = max(report["worst_residual"], residual)
            report["worst_negativity"] = max(report["worst_negativity"], -low)
            states[idx] = rhos
        pops = np.diagonal(states, axis1=1, axis2=2).real.reshape(
            len(omegas), 2, self.layout.n_max_bright, self.layout.n_max_dark)
        report["top_level_population"] = {  # the largest over the points
            mode: float(np.max(top.sum(axis=(1, 2)), initial=0)) for mode, top
            in (("bright", pops[:, :, -1]), ("dark", pops[..., -1]))}
        return states

    def excitation(self, omegas, check_unique: bool = False,
                   report: dict = None):
        """<sigma+ sigma-> in the steady state at each drive frequency; a
        scalar omega gives a float, from a one-point solve."""
        values = qubit_excitation(self.states(omegas, check_unique, report),
                                  self.layout)
        return float(values[0]) if np.ndim(omegas) == 0 else values


def me_spectrum(params: SystemParams, grid: FrequencyGrid,
                layout: HilbertLayout, check_unique: bool = False) -> Spectrum:
    """Steady-state excitation at every grid frequency; ``metadata`` also
    holds the solver's run report (see ``HermitianGenerator.states``)."""
    report = {}
    values = HermitianGenerator(params, layout).excitation(
        grid.points(), check_unique=check_unique, report=report)
    return Spectrum(grid=grid, values=values, model_tag="ME",
                    metadata={"n_max_bright": layout.n_max_bright,
                              "n_max_dark": layout.n_max_dark, **report})


def truncation_convergence(params: SystemParams, grid: FrequencyGrid,
                           layout: HilbertLayout) -> dict:
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
        "pass": max_dev < CONVERGENCE_REL_TOL,
    }
