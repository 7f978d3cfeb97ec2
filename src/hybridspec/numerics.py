"""Small numerical utilities: lanewise maximization and damped least squares."""

from __future__ import annotations

import numpy as np

_GR = (np.sqrt(5.0) - 1.0) / 2.0
# golden-section search stops once the bracket is this narrow
GOLDEN_TOL = 1e-9
# stopping rules of damped_least_squares
LM_MAX_ITER = 200
LM_STEP_TOL = 1e-13
LM_COST_TOL = 1e-15


def golden_section_max(f, a, b) -> np.ndarray:
    """Locate the maximum of a unimodal function on each bracket [a_k, b_k]
    (a lane), to GOLDEN_TOL.

    All lanes step together.  ``f(x, lanes)`` returns the function values
    at the points x, where x[i] belongs to lane lanes[i]; the first call
    takes both interior points of every lane, each later one a single new
    point of each lane whose bracket is still wider than GOLDEN_TOL.  A
    lane makes the comparisons and updates of a search on its own, so its
    result does not depend on the other lanes.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    c = b - _GR * (b - a)
    d = a + _GR * (b - a)
    lanes = np.arange(a.size)
    fc, fd = np.split(f(np.concatenate([c, d]), np.tile(lanes, 2)), 2)
    active = lanes[b - a > GOLDEN_TOL]
    while active.size:
        left = fc[active] > fd[active]
        lo, hi = active[left], active[~left]
        # left lanes keep [a, d]: b, d, fd = d, c, fc, and c is new
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - _GR * (b[lo] - a[lo])
        # the others keep [c, b]: a, c, fc = c, d, fd, and d is new
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + _GR * (b[hi] - a[hi])
        new = f(np.where(left, c[active], d[active]), active)
        fc[lo], fd[hi] = new[left], new[~left]
        active = active[b[active] - a[active] > GOLDEN_TOL]
    return 0.5 * (a + b)


def _numeric_jacobian(residual, x, r0):
    m, n = len(r0), len(x)
    jac = np.empty((m, n))
    for k in range(n):
        h = 1e-7 * max(abs(x[k]), 1e-3)
        xp = x.copy()
        xp[k] += h
        jac[:, k] = (residual(xp) - r0) / h
    return jac


def damped_least_squares(residual, x0, jacobian=None):
    """Levenberg-Marquardt minimization of 0.5*||residual(x)||^2.

    Multiplicative damping on the normal equations; damping adapted by the
    gain ratio (actual vs predicted cost reduction).  Converges when the
    relative step drops below LM_STEP_TOL or an accepted step reduces the
    cost by less than LM_COST_TOL relative.  Returns (x, cost, n_iter,
    converged); without convergence, x is the last accepted iterate after
    LM_MAX_ITER iterations.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(x), dtype=float)
    cost = 0.5 * float(r @ r)
    jac = jacobian(x) if jacobian else _numeric_jacobian(residual, x, r)
    mu = 1e-3 * max(np.max(np.diag(jac.T @ jac)), 1e-30)
    nu = 2.0
    n_iter = 0
    for n_iter in range(1, LM_MAX_ITER + 1):
        a = jac.T @ jac
        grad = jac.T @ r
        try:
            step = np.linalg.solve(a + mu * np.eye(len(x)), -grad)
        except np.linalg.LinAlgError:
            mu *= nu
            nu *= 2.0
            continue
        if (np.linalg.norm(step)
                <= LM_STEP_TOL * (np.linalg.norm(x) + LM_STEP_TOL)):
            return x, cost, n_iter, True
        x_new = x + step
        r_new = np.asarray(residual(x_new), dtype=float)
        cost_new = 0.5 * float(r_new @ r_new)
        predicted = 0.5 * float(step @ (mu * step - grad))
        gain = (cost - cost_new) / predicted if predicted > 0 else -1.0
        if gain > 0:
            stagnant = cost - cost_new <= LM_COST_TOL * max(cost, 1e-300)
            x, r, cost = x_new, r_new, cost_new
            if stagnant:
                return x, cost, n_iter, True
            jac = jacobian(x) if jacobian else _numeric_jacobian(residual, x, r)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    return x, cost, n_iter, False
