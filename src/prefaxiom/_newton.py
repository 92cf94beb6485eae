"""Float kernels of the reward solver; the package's one numpy module.

`reward` and `WeightMatrix.array` import this module inside the functions
that need floats, so a process that only tallies, ranks by exact scores or
checks ordinal axioms never loads numpy.  Everything here takes and returns
plain floats or read-only arrays built from a weight matrix's exact rows.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError


def weight_array(rows: Sequence[Sequence[object]]) -> np.ndarray:
    """The exact weight rows as a read-only float matrix."""
    a = np.array([[float(x) for x in row] for row in rows], dtype=float)
    a.flags.writeable = False
    return a


def _as_vector(values: Sequence[float], n: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise DimensionMismatchError(f"reward vector must have length {n}")
    return arr


def _sigmoid(d: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * d))


def _nll(w: np.ndarray, r: np.ndarray) -> np.float64:
    d = r[:, None] - r[None, :]
    # -log sigma(d) == softplus(-d), stable in both tails
    sp = np.logaddexp(0.0, -d)
    np.fill_diagonal(sp, 0.0)
    return (w * sp).sum()


def _nll_grad(w: np.ndarray, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Gradient of _nll from t = w + w.T and s = sigma(r_i - r_j), which solver steps share."""
    g = t * s - w
    np.fill_diagonal(g, 0.0)
    return g.sum(axis=1)


def loss(w: np.ndarray, values: Sequence[float]) -> float:
    return float(_nll(w, _as_vector(values, len(w))))


def gradient(w: np.ndarray, values: Sequence[float]) -> tuple[float, ...]:
    arr = _as_vector(values, len(w))
    return tuple(_nll_grad(w, w + w.T, _sigmoid(arr[:, None] - arr[None, :])))


def _newton_direction(curv: np.ndarray, g: np.ndarray, ridge: float) -> tuple[np.ndarray | None, float]:
    """The sum-zero Newton direction from the pair curvatures, and its slope g . direction.

    The slope is NaN when the system is singular.
    """
    n = len(g)
    np.fill_diagonal(curv, 0.0)
    hess = np.diag(curv.sum(axis=1)) - curv + 2.0 * ridge * np.eye(n)
    # rank-one shift along the all-ones null direction keeps the
    # system nonsingular without disturbing sum-zero solutions
    shift = max(float(np.trace(hess)) / n, 1e-12)
    try:
        direction = np.linalg.solve(hess + shift * np.ones((n, n)) / n, -g)
    except np.linalg.LinAlgError:
        return None, np.nan
    direction = direction - direction.mean()
    return direction, float(g @ direction)


def newton(
    w: np.ndarray, ridge: float, max_iters: int, tol: float, recenter: bool
) -> tuple[tuple[float, ...], float, bool, int]:
    """The damped Newton loop of `reward.solve_mle`.

    Stops once the largest absolute gradient entry is at most `tol` or the
    gradient's rounding floor, 16 eps times the largest row sum of w + w.T,
    below which no step on large weights can push it.  Returns the final
    iterate, its largest absolute gradient entry, whether that entry reached
    the stop, and the number of steps taken, a stalled one included.
    `recenter` subtracts the mean once more from an iterate that reached the
    stop.
    """
    n = len(w)
    t = w + w.T
    tol = max(tol, 16.0 * np.finfo(float).eps * float(t.sum(axis=1).max()))

    def objective(r: np.ndarray) -> float:
        return float(_nll(w, r) + ridge * (r * r).sum())

    r = np.zeros(n)
    steps = 0
    while True:
        d = r[:, None] - r[None, :]
        s = _sigmoid(d)
        g = _nll_grad(w, t, s) + 2.0 * ridge * r
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= tol or steps == max_iters:
            break
        steps += 1
        direction, slope = _newton_direction(t * s * (1.0 - s), g, ridge)
        if not slope < 0.0:
            # once sigma(d) rounds to 1, 1 - s is exactly 0 and the saturated
            # pairs lose their curvature; sigma(-d) keeps it up to d ~ 745
            direction, slope = _newton_direction(t * s * _sigmoid(-d), g, ridge)
        # NaN too for a non-finite direction: steepest descent where Newton does not descend
        if not slope < 0.0:
            direction = -(g - g.mean())
            slope = float(g @ direction)
        stalled = slope >= 0.0
        if not stalled:
            base = objective(r)
            # near the optimum the true decrease sinks below the objective's
            # float resolution; without this slack Armijo rejects full Newton
            # steps on roundoff noise and the iterate crawls
            slack = 16.0 * np.finfo(float).eps * (1.0 + abs(base))
            alpha = 1.0
            while objective(r + alpha * direction) > base + 1e-4 * alpha * slope + slack:
                alpha *= 0.5
                if alpha < 1e-14:
                    break
            stalled = alpha < 1e-14
        if stalled:
            break
        r = r + alpha * direction
        r = r - r.mean()

    at_tol = gnorm <= tol
    if at_tol and recenter:
        r = r - r.mean()
    return tuple(float(x) for x in r), gnorm, at_tol, steps


def softmax(values: Sequence[float]) -> tuple[float, ...]:
    values = np.asarray(values, dtype=float)
    shifted = values - values.max()
    e = np.exp(shifted)
    p = e / e.sum()
    return tuple(float(x) for x in p)
