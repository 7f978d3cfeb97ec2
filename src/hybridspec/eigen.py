"""Eigenstructure of the single-excitation block (qubit + bright + dark).

Basis order is (|0,up>, |B,down>, |D,down>): qubit excited, bright mode
excited, dark mode excited.  The per-level weight of the first component is
the spectroscopic visibility of that transition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SystemParams
from .errors import PerturbationOutOfRange

# detunings per block of eigen_numeric: its temporaries stay near 0.15 MB
# each, whatever the number of detunings
_BLOCK = 1024


@dataclass(frozen=True)
class EigenResult:
    values: np.ndarray       # ascending, shape (3,)
    vectors: np.ndarray      # columns are unit eigenvectors, shape (3, 3)
    qubit_weights: np.ndarray  # |<0,up | v_k>|^2, shape (3,)
    # (eigen_numeric on n detunings stacks these: (n, 3), (n, 3, 3), (n, 3))


def build_h1(params: SystemParams, delta) -> np.ndarray:
    """3x3 single-excitation Hamiltonian with qubit detuned by delta; an
    array of detunings gives a stack of them."""
    w = params.omega_nv
    jc = params.j * np.exp(1j * params.theta)
    delta = np.asarray(delta, dtype=float)
    h = np.zeros(delta.shape + (3, 3), dtype=complex)
    h[..., 0, 0] = w + delta
    h[..., 1, 1] = h[..., 2, 2] = w
    h[..., 0, 1] = h[..., 1, 0] = params.g
    h[..., 1, 2] = jc
    h[..., 2, 1] = np.conj(jc)
    return h


def _fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive,
    for one matrix or a stack."""
    i = np.argmax(np.abs(vectors), axis=-2)
    big = np.take_along_axis(vectors, i[..., None, :], axis=-2)
    # np.hypot is the modulus of a complex scalar; np.abs on a complex
    # array takes another path and moves the last bit
    return vectors / (big / np.hypot(big.real, big.imag))


def eigen_exact_resonant(params: SystemParams) -> EigenResult:
    """Closed-form eigenstructure at zero detuning."""
    w = params.omega_nv
    g, j, th = params.g, params.j, params.theta
    s2 = g * g + j * j
    s = np.sqrt(s2)
    values = np.array([w - s, w, w + s])

    if s == 0.0:
        vectors = np.eye(3, dtype=complex)
        weights = np.array([1.0, 0.0, 0.0])
        return EigenResult(values, vectors, weights)

    ejm = np.exp(-1j * th)
    left = np.array([g / (np.sqrt(2) * s), -1 / np.sqrt(2), j * ejm / (np.sqrt(2) * s)])
    middle = np.array([-j * np.exp(1j * th) / s, 0.0, g / s])
    right = np.array([g / (np.sqrt(2) * s), 1 / np.sqrt(2), j * ejm / (np.sqrt(2) * s)])
    vectors = _fix_phase(np.column_stack([left, middle, right]).astype(complex))
    weights = np.abs(vectors[0, :]) ** 2
    return EigenResult(values, vectors, weights)


def perturbation_guard(params: SystemParams) -> float:
    """Largest |delta| accepted by the first-order expansion."""
    return 0.5 * np.hypot(params.g, params.j)


def eigen_perturbative(params: SystemParams, delta: float) -> EigenResult:
    """First-order eigenstructure in the detuning.

    Perturbation theory in V = delta |0><0| on the resonant eigenbasis:
    with E_k, v_k and c = the qubit row of eigen_exact_resonant, the values
    are E_k + delta |c_k|^2 and the vectors v_k + delta sum_{m != k}
    conj(c_m) c_k / (E_k - E_m) v_m, normalized.  Valid for
    |delta| <= 0.5*sqrt(g^2+J^2) (only delta = 0 when g = J = 0); larger
    detunings should use eigen_numeric.
    """
    guard = perturbation_guard(params)
    if abs(delta) > guard:
        raise PerturbationOutOfRange(
            f"|delta|={abs(delta)} exceeds guard 0.5*sqrt(g^2+J^2)={guard}"
        )
    exact = eigen_exact_resonant(params)
    if delta == 0:
        return exact
    e, v, c = exact.values, exact.vectors, exact.vectors[0]
    gaps = e[None, :] - e[:, None]  # gaps[m, k] = E_k - E_m
    np.fill_diagonal(gaps, np.inf)
    # column k: v_k plus its first-order admixture of the other levels
    vectors = v @ (np.eye(3) + delta * np.outer(np.conj(c), c) / gaps)
    vectors = _fix_phase(vectors / np.linalg.norm(vectors, axis=0))
    weights = np.abs(vectors[0, :]) ** 2
    return EigenResult(e + delta * exact.qubit_weights, vectors, weights)


def eigen_numeric(params: SystemParams, delta) -> EigenResult:
    """Dense Hermitian diagonalization of build_h1, ascending order.  An
    array of detunings is diagonalized in stacks of _BLOCK matrices, each
    matrix bit-identical to its own call, into results of delta's shape
    plus (3,), (3, 3) and (3,)."""
    delta = np.asarray(delta, dtype=float)
    flat = delta.reshape(-1)
    values = np.empty((len(flat), 3))
    vectors = np.empty((len(flat), 3, 3), dtype=complex)
    weights = np.empty((len(flat), 3))
    for k in range(0, len(flat), _BLOCK):
        block = slice(k, k + _BLOCK)
        values[block], v = np.linalg.eigh(build_h1(params, flat[block]))
        vectors[block] = v = _fix_phase(v)
        weights[block] = np.abs(v[:, 0, :]) ** 2
    shape = delta.shape
    return EigenResult(values.reshape(shape + (3,)),
                       vectors.reshape(shape + (3, 3)),
                       weights.reshape(shape + (3,)))
