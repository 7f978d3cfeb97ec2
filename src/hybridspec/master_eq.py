"""Lindblad model: two-level qubit + two truncated bosonic modes.

The Hamiltonian is assembled in the frame rotating at the drive frequency;
the dissipators use the convention in which a rate Gamma produces amplitude
decay at Gamma and population decay at 2*Gamma, matching the linewidths of
the oscillator models.  Column-stacking convention throughout:
vec(A rho B) = (B^T kron A) vec(rho).

Spectra are solved on the generator written in a unitary basis of
Hermitian matrices, where it is real, in blocks of coherence order (the
sparse top orders merged into one level), where it is block tridiagonal.
The blocks are read once per (params, layout) off the summed
column-stacked entries of the Hamiltonian and the collapse operators:
between orders >= 1 they are those entries, acting on u + iv, and only
the blocks that touch order 0 go through the basis change.  The drive
frequency enters only through the rotating frame, so L(omega) = A +
(omega - omega_nv) * D with D diagonal on u + iv.  The solver has three
layers: the operator A + s*D (``CoherenceBlocks``), a block
factorization per frequency interval with its certified Krylov reduced
model (``_BlockFactor``), and the choice of intervals
(``HermitianGenerator``).  ``build_liouvillian`` and ``steady_state`` are
the direct complex construction it is tested against.
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
# returning once the a-posteriori estimate is below KRYLOV_TOL relative at
# every point (checked every _KRYLOV_CHECK steps), else raising
KRYLOV_MAX = 160
KRYLOV_TOL = 1e-14
_KRYLOV_CHECK = 5
# truncation_convergence passes when one more Fock level on each mode moves
# no point of the spectrum by this much, relative
CONVERGENCE_REL_TOL = 1e-3


@dataclass(frozen=True)
class HilbertLayout:
    """Truncated space of the qubit and the bright and dark modes.
    ``states`` is its basis and the only code that decides the basis
    order: every other reader looks states up in it."""

    n_max_bright: int
    n_max_dark: int

    def __post_init__(self):
        _require_int("n_max_bright", self.n_max_bright, 1)
        _require_int("n_max_dark", self.n_max_dark, 1)

    @property
    def states(self) -> np.ndarray:
        """(q, n_b, n_d) of each basis state, one row per state, in basis
        order (q = 0 ground, q = 1 excited): the product basis, qubit
        slowest and dark mode fastest."""
        return np.indices((2, self.n_max_bright, self.n_max_dark)).reshape(
            3, -1).T

    @property
    def dim(self) -> int:
        return len(self.states)

    def index(self, q: int, nb: int, nd: int) -> int:
        """Row of |q, nb, nd> in ``states``; ValueError for a state the
        layout does not hold."""
        row = np.flatnonzero(np.all(self.states == (q, nb, nd), axis=1))
        if not len(row):
            raise ValueError(f"state ({q}, {nb}, {nd}) is not in {self}")
        return int(row[0])


@dataclass(frozen=True)
class ModeOperators:
    sigma_z: np.ndarray
    sigma_plus: np.ndarray
    sigma_minus: np.ndarray
    sigma_x: np.ndarray
    b: np.ndarray
    d: np.ndarray


def build_operators(layout: HilbertLayout) -> ModeOperators:
    """Dense mode operators on the layout's ``states``.  Each lowering
    operator (sigma_-, b, d) maps a state to the state one lower in its
    part, with weight sqrt(n) of the part's level n."""
    s = layout.states
    sm, b, d = (np.all(s[:, None] + step == s, axis=2)
                * np.sqrt(s[:, part]).astype(complex)
                for part, step in enumerate(np.eye(3, dtype=int)))
    return ModeOperators(sigma_z=np.diag(2.0 * s[:, 0] - 1.0).astype(complex),
                         sigma_plus=sm.T, sigma_minus=sm,
                         sigma_x=sm + sm.T, b=b, d=d)


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
    (an array): the sum of the populations of the states with q = 1."""
    # the whole diagonal, q = 0 zeroed: summed as np.trace sums it
    diag = np.diagonal(rho, axis1=-2, axis2=-1).copy()
    diag[..., layout.states[:, 0] == 0] = 0.0
    val = diag.sum(axis=-1)
    imag = np.extract(np.abs(val.imag) > 1e-10, val.imag)
    if imag.size:
        raise SolverFailure(f"excitation has imaginary part {imag[0]:.3e}")
    return val.real if val.ndim else float(val.real)


def _sandwich(a: np.ndarray, b: np.ndarray) -> tuple:
    """Keys row * n^2 + col and values of rho -> A rho B, column-stacked:
    each pair of nonzeros A_ik, B_lj lands at row i + j*n, column k + l*n."""
    (ai, ak), (bl, bj), n = np.nonzero(a), np.nonzero(b), len(a)
    keys = (ai[:, None] + n * bj) * n * n + ak[:, None] + n * bl
    return keys.ravel(), (a[ai, ak][:, None] * b[bl, bj]).ravel()


def _summed(keys: np.ndarray, vals: np.ndarray) -> tuple:
    """The distinct keys, sorted, and the sum of vals over each: one sort of
    the keys with each entry's index in its low bits, then one
    ``np.add.reduceat`` over the runs of equal keys, each in the order of
    vals.  A run of two sums as a + b; a longer one is summed as
    a + (b + c + ...), but no key of a generator has more than two
    entries (2x2 to 6x10)."""
    bits = len(keys).bit_length()
    if np.max(keys, initial=0) >= 1 << (63 - bits):
        raise SolverFailure(f"generator keys exceed 63 bits with {bits} bits "
                            "of entry index: the layout is too large")
    packed = np.sort(keys << bits | np.arange(len(keys)))
    keys = packed >> bits
    start = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[start], np.add.reduceat(vals[packed & ((1 << bits) - 1)],
                                        start)


def _hermitian_basis(number: np.ndarray) -> tuple:
    """Where each column-stacked slot of rho goes in the Hermitian basis.

    For i < j the slot of rho_ij holds u = (rho_ij + rho_ji)/sqrt2 and the
    slot of rho_ji holds v = (rho_ij - rho_ji)/(sqrt2 i), negated where
    N_i < N_j: u + iv = sqrt2 rho_ij for the element with N_i > N_j, or
    i < j if N_i = N_j (``number`` is the diagonal of N).  Diagonal slots
    keep rho_ii.  Returns, per slot s, the u-slot and v-slot of its pair
    and the coefficients of rho_s in u (real) and in v.
    """
    n = len(number)
    i, j = np.divmod(np.arange(n * n), n)[::-1]  # s = i + j*n
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    u_slot, v_slot = lo + n * hi, hi + n * lo
    h = np.sqrt(0.5)
    cu = np.where(i == j, 1.0, h)
    cv = np.select([i < j, i > j], [-1j * h, 1j * h], 0.0)
    return u_slot, v_slot, cu, np.where(number[lo] < number[hi], -cv, cv)


def real_liouvillian(h: np.ndarray, collapse,
                     number: np.ndarray) -> "CoherenceBlocks":
    """Generator of -i[H, rho] + sum rate*(2 C rho C' - C'C rho - rho C'C)
    in the Hermitian basis of ``_hermitian_basis``, as coherence-order
    blocks.

    ``collapse`` is a sequence of (rate, C); ``number`` is the diagonal of
    an excitation number N.  Each column-stacked entry, summed once per
    (row, col), may change the coherence N_i - N_j of rho_ij by at most
    one, else ValueError: the generator is then block tridiagonal in
    m = |N_i - N_j|, and complex-linear on u + iv of every order m >= 1.
    The basis is unitary, so norms and residuals equal those of the
    column-stacked generator.  The result is real exactly when the map
    preserves Hermiticity, when entry (rho_ji, rho_lk) is the conjugate of
    entry (rho_ij, rho_kl): a mismatch above 1e-12 of the largest entry,
    an entry that is not finite or no nonzero entry raise SolverFailure.
    """
    n, eye = h.shape[0], np.eye(h.shape[0])
    decay = sum(rate * (c.conj().T @ c) for rate, c in collapse)
    terms = [(-1j * h - decay, eye), (eye, 1j * h - decay)]
    terms += [(2.0 * rate * c, c.conj().T) for rate, c in collapse]
    keys, vals = _summed(*map(np.concatenate, zip(
        *(_sandwich(a, b) for a, b in terms))))
    if not np.all(np.isfinite(vals)):
        raise SolverFailure("generator entries are not finite")
    rows, cols = np.divmod(keys, n * n)
    coherence = np.subtract.outer(number, number).ravel(order="F")
    if np.any(np.abs(coherence[rows] - coherence[cols]) > 1):
        raise ValueError("generator couples coherence orders N_i - N_j "
                         "more than one apart")
    flip = np.arange(n * n).reshape(n, n).ravel(order="F")  # rho_ij -> ji
    mirror = flip[rows] * n * n + flip[cols]
    at = np.minimum(np.searchsorted(keys, mirror), len(keys) - 1)
    mirror = np.where(keys[at] == mirror, vals[at], 0.0)
    skew = np.max(np.abs(vals - mirror.conj()), initial=0.0)
    scale = np.max(np.abs(vals), initial=0.0)
    if skew > 1e-12 * scale:
        raise SolverFailure(
            "generator does not preserve Hermiticity: conjugate mismatch "
            f"{skew:.3e} against scale {scale:.3e}")
    if not scale:
        raise SolverFailure("generator has no nonzero entry")
    del keys, mirror, at
    return CoherenceBlocks(number, rows, cols, vals)


def _ell(blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray,
         vals: np.ndarray, dims) -> list:
    """Blocks 0, 1, ... of triplets sorted by block and row in ELL form,
    views of one array each: (cols, vals), each (k, dims[b]), with the j-th
    nonzero of row i at [j, i], short rows padded with 0 at column 0."""
    run = np.flatnonzero(np.diff(blocks * max(dims, default=0) + rows,
                                 prepend=-1))
    rank = np.arange(len(rows)) - np.repeat(run, np.diff(run,
                                                         append=len(rows)))
    width = np.zeros(len(dims), dtype=int)
    np.maximum.at(width, blocks, rank + 1)
    start = np.concatenate([[0], np.cumsum(width * dims)])
    at = start[blocks] + rank * dims[blocks] + rows
    ell = np.zeros(start[-1], dtype=np.intp), np.zeros(start[-1], vals.dtype)
    ell[0][at], ell[1][at] = cols, vals
    return [(ell[0][a:b].reshape(k, d), ell[1][a:b].reshape(k, d))
            for a, b, k, d in zip(start, start[1:], width, dims)]


def _ell_dot(ell: tuple, x: np.ndarray) -> np.ndarray:
    """A block S in ELL form applied along the last axis of x: S x for a
    vector, x S^T for a stack of rows.  A vector takes all stored entries
    at once; a stack one stored entry per row at a time, so that no
    temporary is larger than the result."""
    cols, vals = ell
    if x.ndim == 1:
        return (vals * x[cols]).sum(axis=0)
    out = np.zeros(x.shape[:-1] + cols.shape[1:], np.result_type(vals, x))
    for c, v in zip(cols, vals):
        out += v * x[..., c]
    return out


class CoherenceBlocks:
    """A real generator on the Hermitian-basis slots of an n x n density
    matrix, with the slots grouped by coherence order m = |N_i - N_j| into
    levels: level l holds order l, and the top level every order from its
    own up.  The top orders share a level while it holds no more slots than
    the order below it, so the few slots of the highest orders are solved
    as one block.

    Vectors in this order are slot vectors permuted by ``perm``, sorted by
    order; ``pos`` is its inverse.  Each level holds its slots as (u, v)
    pairs, u first (a diagonal slot of level 0 stands alone), and ``parts``
    reads a vector as its levels: real on level 0, and z = u + iv above it,
    where the generator is complex-linear (``real_liouvillian``).  ``im``
    holds i*m of each pair above level 0, in block order: D on z.
    ``basis`` maps a vector back: slot s of vec(rho) is cu x[gu] + cv x[gv]
    for (gu, gv, cu, cv) = basis, at s.

    Only the drive changes N, by one, so the generator is block tridiagonal
    in l: ``diag[l]`` is block (l, l), ``upper[l]`` block (l - 1, l) and
    ``lower[l]`` block (l, l - 1), with ``lower_t[l]`` its transpose, each
    held as its nonzeros in ELL form (``_ell``).  Block (0, 0) is real;
    every other block is the complex C on the z of its levels >= 1: R y =
    Re(C z) on (0, 1), and on (1, 0) C maps the real x_0 to z.  No zero of
    a block is stored, and nothing of size n^2 x n^2 is formed.

    With z = sqrt2 rho_ij where N_i > N_j, C is the column-stacked L on
    those rows and columns (the rows where N_i < N_j are its conjugates);
    only entries in a row or a column of order 0 are transformed by T.

    The blocks hold A and ``im`` holds D: this is the whole operator
    A + s*D.  ``diag_block`` and ``apply_d`` give it to the factorization,
    ``residuals`` certifies states against it, and ``density_matrices``
    maps them back to rho.  ``trace0`` is the trace functional on level 0,
    and ``rows`` the two level-0 rows it may replace, rho_00's and
    rho_last's: D is zero on level 0, so they hold it at every s.
    """

    def __init__(self, number: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray, vals: np.ndarray):
        n = len(number)
        i, j = np.divmod(np.arange(n * n), n)[::-1]  # slot s = i + j*n
        signed = number[i] - number[j]
        order = np.rint(np.abs(signed)).astype(int)
        u_slot, v_slot, cu, cv = _hermitian_basis(number)
        self.perm = np.lexsort((2 * u_slot + (i > j), order))
        self.pos = np.argsort(self.perm)
        counts = np.bincount(order)
        top = len(counts) - 1  # the lowest order of the top level
        while top > 1 and counts[top - 1:].sum() <= counts[top - 2]:
            top -= 1
        level = np.minimum(order, top)
        self.sizes = np.bincount(level)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.im = 1j * order[self.perm[self.sizes[0]::2]]
        gu, gv = self.pos[u_slot], self.pos[v_slot]
        self.n, self.basis = n, (gu, gv, cu, cv.conj())
        # ||A + s D||_F^2 = norm2[0] + s norm2[1] + s^2 norm2[2]: ||L||_F^2
        # (= ||R||_F^2), 2 <L, D> for D = i(N_i - N_j) on rho_ij, ||D||_F^2
        self.norm2 = (float(np.vdot(vals, vals).real),
                      2.0 * float(signed[rows] @ (vals.imag * (rows == cols))),
                      2.0 * float(np.vdot(self.im, self.im).real))
        self.trace0 = np.bincount(self.pos[:: n + 1],
                                  minlength=self.sizes[0]) * 1.0
        self.rows = (self.pos[0], self.pos[n * n - 1])  # rho_00, rho_last

        # where each slot is read, as row p or column q of the key
        # ((a k + b) dim + p) dim + q of block (a, b) of levels: on order 0
        # at its u and v with T's weights, above it at its pair with weight
        # sqrt2 (z)
        k, dim, zero = len(self.sizes), int(self.sizes.max()), signed == 0
        target = np.stack([np.where(zero, gu, (self.pos - self.offsets[level])
                                    // 2), gv])
        p, q = (level * k * dim + target) * dim, level * dim * dim + target
        weight = np.stack([np.where(zero, cu, np.sqrt(2.0)), cv * zero])
        low = np.minimum(signed[rows], signed[cols])  # not read where < 0
        r, c, w = rows[low == 0], cols[low == 0], vals[low == 0]
        w = (weight[:, None, r] * w * weight[None, :, c].conj()).ravel()
        lanes = np.flatnonzero(w)
        keys, v = _summed(np.concatenate([
            p[0, rows[low > 0]] + q[0, cols[low > 0]],
            (p[:, None, r] + q[None, :, c]).ravel()[lanes]]),
            np.concatenate([vals[low > 0], w[lanes]]))
        del low, r, c, w, lanes
        v = np.where(keys < dim * dim, v.real, v)  # block (0, 0) is real
        keys, v = keys[v != 0], v[v != 0]  # entries that cancelled
        a, b, p, q = np.unravel_index(keys, (k, k, dim, dim))
        # sorted by block and row, block (a, b) numbered 2a + b: (l, l) is
        # 3l, (l - 1, l) 3l - 2, (l, l - 1) 3l - 1 (lower_t: by column)
        dims = np.where(np.arange(k) > 0, self.sizes // 2, self.sizes)
        real = np.searchsorted(keys, dim * dim)  # those of block (0, 0)
        ells = (_ell(a[:real], p[:real], q[:real], v[:real].real, dims[:1])
                + _ell(2 * a[real:] + b[real:] - 1, p[real:], q[real:],
                       v[real:], dims[np.arange(2, 3 * k - 1) // 3]))
        at = np.flatnonzero(a > b)
        at = at[np.argsort(b[at] * dim + q[at], kind="stable")]
        self.diag, self.upper, self.lower = (ells[::3], [None] + ells[1::3],
                                             [None] + ells[2::3])
        self.lower_t = [None] + _ell(b[at], q[at], p[at], v[at], dims[:-1])

    def parts(self, x: np.ndarray) -> list:
        """Views of the levels of x along its last axis (slots in block
        order): real on level 0, and z = u + iv of each pair above it."""
        bounds = self.offsets.tolist()
        return [x[..., a:b].view(complex) if m else x[..., a:b]
                for m, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Generator times x along its last axis: one vector (n^2,) or a
        stack of rows (p, n^2)."""
        xs = self.parts(x)
        out = np.empty_like(x)
        for m, part in enumerate(self.parts(out)):
            part[...] = _ell_dot(self.diag[m], xs[m])
            if m > 0:
                part += _ell_dot(self.lower[m], xs[m - 1])
            if m + 1 < len(xs):
                up = _ell_dot(self.upper[m + 1], xs[m + 1])
                part += up if m else up.real
        return out

    def diag_block(self, level: int, s: float) -> np.ndarray:
        """Diagonal block ``level`` of A + s*D, a fresh dense array: real on
        level 0, and above it complex, acting on z."""
        cols, vals = self.diag[level]
        out = np.zeros((cols.shape[1],) * 2, vals.dtype)
        np.add.at(out, (np.arange(len(out)), cols), vals)  # padding adds 0
        if level:
            lo, hi = (self.offsets[level: level + 2] - self.sizes[0]) // 2
            out[np.diag_indices(len(out))] += s * self.im[lo: hi]  # D is i*m
        return out

    def apply_d(self, x: np.ndarray) -> np.ndarray:
        """D x along the last axis of x (block order): zero on level 0, and
        on each z above it its i*m (``im``)."""
        out = np.zeros_like(x)
        n0 = self.sizes[0]
        np.multiply(x[..., n0:].view(complex), self.im,
                    out=out[..., n0:].view(complex))
        return out

    def residuals(self, x: np.ndarray, s) -> np.ndarray:
        """||L x|| / ||L||_F of each row of x (block order), row p against
        the generator at shift s[p].  A norm that overflows would make every
        residual read 0, so it is a solver failure."""
        r = self.matvec(x) + self.apply_d(x) * np.reshape(s, (-1, 1))
        a2, ad, d2 = self.norm2
        norm = np.sqrt(a2 + s * (ad + s * d2))
        if not np.all(np.isfinite(norm)):
            raise SolverFailure("generator norm is not finite")
        return np.linalg.norm(r, axis=1) / norm

    def density_matrices(self, x: np.ndarray) -> np.ndarray:
        # one rho per row of x (block order): vec(rho) = T' x, T unitary
        gu, gv, cu, cv = self.basis
        vecs = cu * x[:, gu] + cv * x[:, gv]
        return vecs.reshape(-1, self.n, self.n).swapaxes(1, 2)


def _inverse(block: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(block)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"steady-state solve failed: {exc}") from exc


class _BlockFactor:
    """M(s) = A + s*D with one row of the level-0 block replaced by the
    trace functional, factored by block elimination from the top coherence
    level down to level 0, on the complex blocks of ``CoherenceBlocks``: the
    Schur complements of the levels above 0 are half their real size.

    D is block diagonal and zero on level 0, and the trace row couples to
    no other level, so only the level-0 Schur complement depends on which
    row holds the trace: both rows share the higher levels' inverses.
    ``krylov`` runs the reduced model of an interval on the solves of B =
    M(s) and the operator's D.
    """

    def __init__(self, a: CoherenceBlocks, s: float):
        k = len(a.sizes)
        self.a = a
        self.inv = [None] * k
        schur = a.diag_block(k - 1, s)
        for m in range(k - 1, 0, -1):
            self.inv[m] = _inverse(schur)
            # w = U inv, w^T by U along the last axis of inv^T, and w L by
            # L^T along the last axis of w; at m = 1 only its real part
            w = _ell_dot(a.upper[m], self.inv[m].T).T
            cols, vals = a.lower_t[m]
            schur = a.diag_block(m - 1, s) - (
                _ell_dot(a.lower_t[m], w) if m > 1 else
                _ell_dot((cols, vals.real), w.real)
                - _ell_dot((cols, vals.imag), w.imag))
        self._schur0 = schur
        self._inv0 = {}

    def _inverse0(self, row: int) -> np.ndarray:
        if row not in self._inv0:
            s0 = self._schur0.copy()
            s0[row] = self.a.trace0
            self._inv0[row] = _inverse(s0)
        return self._inv0[row]

    def solve(self, rhs: np.ndarray, row: int) -> np.ndarray:
        """M(s)^-1 rhs with the trace functional in ``row`` of level 0."""
        a = self.a
        x = rhs.copy()
        y = a.parts(x)  # views of x: each level is solved in place
        for m in range(len(y) - 1, 0, -1):
            y[m][:] = self.inv[m] @ y[m]
            up = _ell_dot(a.upper[m], y[m])
            y[m - 1] -= up if m > 1 else up.real
        y[0][row] = rhs[row]
        y[0][:] = self._inverse0(row) @ y[0]
        for m in range(1, len(y)):
            y[m] -= self.inv[m] @ _ell_dot(a.lower[m], y[m - 1])
        return x

    def krylov(self, row: int, sigmas: np.ndarray) -> tuple:
        """Shift-invert Arnoldi on K = B^-1 D from b = B^-1 e_row, for the
        sorted shifts sigmas from B's expansion point.

        (I + sigma K) x = b holds for x = V_k y up to sigma h_{k+1,k} y_k
        v_{k+1}, with (I + sigma H_k) y = |b| e_1.  Every ``_KRYLOV_CHECK``
        steps that estimate is checked at the two end shifts (one dense
        solve, ``_reduced_dense``), and when both are below ``KRYLOV_TOL``
        |y|, at every shift (``_reduced``); the run returns the
        x(sigma), one row each, and k once all are, and raises at
        ``KRYLOV_MAX`` steps.  With every shift zero, x is b itself (k = 0).
        """
        b = np.zeros(self.a.offsets[-1])
        b[row] = 1.0
        b = self.solve(b, row)
        if not sigmas.any():
            return b[None].repeat(len(sigmas), axis=0), 0
        basis = np.empty((KRYLOV_MAX + 1, len(b)))  # one vector per row
        hess = np.zeros((KRYLOV_MAX + 1, KRYLOV_MAX))
        beta = np.linalg.norm(b)
        basis[0] = b / beta
        ends = sigmas[[0, -1]]
        for k in range(1, KRYLOV_MAX + 1):
            w = self.solve(self.a.apply_d(basis[k - 1]), row)
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
                    _reduced_dense(hess[:k + 1, :k], beta, ends)[1]
                    > KRYLOV_TOL)):
                basis[k] = w / hess[k, k - 1]
                continue
            y, estimate = _reduced(hess[:k + 1, :k], beta, sigmas)
            if np.all(estimate <= KRYLOV_TOL):  # 0 on an invariant subspace
                # V_k y, then one row per shift: the states keep the
                # rounding of that product
                return np.ascontiguousarray((basis[:k].T @ y.T).T), k
            if k == KRYLOV_MAX or hess[k, k - 1] == 0.0:
                raise SolverFailure(f"reduced-model estimate "
                                    f"{np.max(estimate):.3e} too large")
            basis[k] = w / hess[k, k - 1]


def _reduced(hess: np.ndarray, beta: float, sigmas: np.ndarray) -> tuple:
    """Reduced-model solutions (I + sigma H_k) y = beta e_1, one row per
    sigma, and their a-posteriori estimates |sigma h_{k+1,k} y_k| / |y|;
    ``hess`` is the (k + 1) x k Arnoldi matrix.

    T = I + sigma H_k is upper Hessenberg.  Rotating its columns (i - 1, i)
    by (c_i, s_i), from the bottom row up, zeros each subdiagonal entry:
    T G_{k-1} ... G_1 = R, upper triangular.  Then y = (beta / r_11)
    G_{k-1} ... G_1 e_1, whose entry j = 0, 1, ... is c_{j+1} (-s_1) ...
    (-s_j) with c_k = 1, and |y| = |beta| / |r_11|.  Only the column being
    rotated is held, for all shifts at once: O(k^2) per shift in k numpy
    steps.
    """
    k = hess.shape[1]
    col = sigmas * hess[:k, k - 1, None]  # column k - 1 of T, one per shift
    col[k - 1] += 1.0
    cos, neg_sin = np.ones((2, k, len(sigmas)))
    for i in range(k - 1, 0, -1):
        below = sigmas * hess[i, i - 1]  # T[i, i - 1]: 0 only at sigma = 0,
        r = np.hypot(below, col[i])  # where col[i] = 1, so r > 0
        np.divide(col[i], r, out=cos[i - 1])
        np.divide(below, -r, out=neg_sin[i])
        prev = hess[:i, i - 1, None] * (sigmas * cos[i - 1])  # c T[:i, i-1]
        prev[i - 1] += cos[i - 1]
        col = col[:i]  # row i is now 0
        col *= neg_sin[i]
        col += prev
    if np.any(col[0] == 0.0):
        raise SolverFailure("reduced model singular")
    y = (beta / col[0] * np.cumprod(neg_sin, axis=0) * cos).T
    estimate = (np.abs(sigmas) * hess[k, k - 1] * np.abs(y[:, -1])
                * np.abs(col[0]) / abs(beta))
    return y, estimate


def _reduced_dense(hess: np.ndarray, beta: float, sigmas: np.ndarray) -> tuple:
    """``_reduced`` by one dense (len(sigmas), k, k) solve: cheaper than the
    rotations at a few shifts, as at the two end shifts of
    ``_BlockFactor.krylov``'s early checks."""
    k = hess.shape[1]
    rhs = np.zeros((len(sigmas), k, 1))
    rhs[:, 0] = beta
    try:
        y = np.linalg.solve(np.eye(k) + sigmas[:, None, None] * hess[None, :k],
                            rhs)[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"reduced model singular: {exc}") from exc
    return y, (np.abs(sigmas) * hess[k, k - 1] * np.abs(y[:, -1])
               / np.linalg.norm(y, axis=1))


class HermitianGenerator:
    """The validated steady states of one (params, layout) at any drive,
    from its real generator L(omega) = A + (omega - omega_nv) * D, the
    operator ``a`` (``CoherenceBlocks``).

    In the rotating frame H(omega) = H(omega_nv) - (omega - omega_nv) * N
    with N = sigma_z/2 + n_b + n_d diagonal, so D only rotates each (u, v)
    pair of order m: du/dt = -m v, dv/dt = +m u, so D is i*m on z = u + iv.

    A spectrum is solved interval by interval: B = M(omega_c) is factored
    once by block elimination (``_BlockFactor``) and shift-invert Arnoldi
    on B^-1 D gives x(s) ~ V_k (I + s H_k)^-1 |b| e_1 at every point of the
    interval.  Every point is certified against the true generator, and an
    interval with a failing point is halved.  An interval of one point is a
    model whose only shift is zero: b, the exact solve.
    """

    def __init__(self, params: SystemParams, layout: HilbertLayout):
        o = build_operators(layout)
        self.layout = layout
        self.omega_ref = params.omega_nv
        h = build_rotating_hamiltonian(params, self.omega_ref, layout, o)
        q, nb, nd = layout.states.T
        number = q - 0.5 + nb + nd  # N's diagonal, exactly
        self.a = real_liouvillian(h, [(params.gamma_fq, o.sigma_minus),
                                      (params.gamma_b, o.b),
                                      (params.gamma_d, o.d)], number)

    def _interval(self, omegas: np.ndarray, check_unique: bool,
                  built: list) -> tuple:
        """Stacked steady states at the sorted omegas from reduced models
        expanded at the interval's centre (the exact solve at a single
        point), their worst residual, lowest eigenvalue and Krylov dimensions.
        Raises the first check a point fails: the first-row model's
        estimate, the residual, the density-matrix checks, then with
        ``check_unique`` (and only then built) the last-row model's
        estimate, its agreement with the first state and its residual.
        ``built`` receives the trace row of each model as it is begun."""
        a, s = self.a, omegas - self.omega_ref
        centre = 0.5 * (s[0] + s[-1])
        built.append(a.rows[0])  # its factorization may raise already
        factor = _BlockFactor(a, centre)
        x, k = factor.krylov(a.rows[0], s - centre)
        residuals = a.residuals(x, s)
        _check_residual(residuals)
        rhos = a.density_matrices(x)
        low = _validate_density_matrix(rhos)
        dims = [k]
        if check_unique:
            built.append(a.rows[1])
            x, k = factor.krylov(a.rows[1], s - centre)
            _check_unique(rhos, a.density_matrices(x))
            _check_residual(a.residuals(x, s))
            dims.append(k)
        return rhos, float(residuals.max()), float(low.min()), dims

    def states(self, omegas, check_unique: bool = False,
               report: dict = None) -> np.ndarray:
        """The validated steady states at the drive frequencies, solved
        flattened, as one (omegas.size, n, n) stack in the order of the
        flattened omegas.  Every interval, of any length, is one reduced
        model at its centre; an interval that fails a check is halved, and
        a single point raises.

        ``report``, a dict updated in place, receives ``krylov_dims`` (the
        Krylov dimension of every reduced model whose points were
        returned), ``rejected_models`` (the trace-row models built for
        every split interval: two where the last-row model ran, else one),
        ``rejection_reasons`` (per split interval, its omega range and the
        check it failed), ``points_solved_per_point`` (one-point models:
        points left alone by halving, or a one-point call),
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
        omegas = np.ravel(np.asarray(omegas, dtype=float))
        states = np.empty((len(omegas),) + 2 * (self.layout.dim,), complex)
        pending = [np.argsort(omegas, kind="stable")] if len(omegas) else []
        while pending:
            idx = pending.pop()
            built = []
            try:
                rhos, residual, low, dims = self._interval(
                    omegas[idx], check_unique, built)
            except (SolverFailure, NonUniqueSteadyState) as exc:
                if len(idx) == 1:
                    raise type(exc)(f"at omega={omegas[idx[0]]}: {exc}") \
                        from exc
                report["rejected_models"] += len(built)
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
        pops = np.diagonal(states, axis1=1, axis2=2).real
        report["top_level_population"] = {  # the largest over the points
            mode: float(np.max(pops[:, top == top.max()].sum(axis=1),
                               initial=0))
            for mode, top in zip(("bright", "dark"), self.layout.states.T[1:])}
        return states

    def excitation(self, omegas, check_unique: bool = False,
                   report: dict = None):
        """<sigma+ sigma-> in the steady state at each drive frequency, in
        the shape of omegas (solved flattened); a scalar omega gives a
        float, from a one-point solve."""
        omegas = np.asarray(omegas, dtype=float)
        values = qubit_excitation(self.states(omegas, check_unique, report),
                                  self.layout)
        return float(values[0]) if omegas.ndim == 0 else values.reshape(
            omegas.shape)


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
