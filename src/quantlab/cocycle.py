"""Group cocycles from polynomial symplectic potentials on the plane.

A potential is a one-form ``A = P(x, y) dx + Q(x, y) dy`` with polynomial
coefficients of degree at most 4.  For each lattice translation ``gamma`` the
difference ``A - gamma^* A`` is closed, hence exact on the plane; the phase
function ``phi_gamma`` is pinned by ``phi_gamma(0, 0) = 0`` via symbolic
integration of that difference along the straight segment from the origin.
The combination

    phi_{g2} + g2^* phi_{g1} - phi_{g1 g2}

is then constant on the plane and defines a real group cocycle.

Phases are solved in batches: ``_phases`` takes arrays of translations and
shifts coefficient arrays by Pascal matrices, so one call covers a whole
lattice ball, and ``solve_phi`` is a batch of one.  ``cocycle_grid`` forms the
combination for every pair of a ball as one array, a block of pairs per
second argument, and ``cocycle_table`` wraps that array as the
``TabulatedCocycle`` the twisted algebra reads.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import Lattice, TabulatedCocycle, ball_coordinates, ball_index, ball_points, gate_fails
from .errors import CocycleConsistencyError, ExactnessError

MAX_DEGREE = 4


def _pascal(d, size: int) -> np.ndarray:
    """Shift matrices ``B(d)[a, i] = C(i, a) d^(i - a)``, stacked over the entries of ``d``.

    ``B(dx) c B(dy)^T`` holds the coefficients of ``p(x + dx, y + dy)`` when
    ``c`` holds those of ``p``.
    """
    i = np.arange(size)
    binom = np.frompyfunc(math.comb, 2, 1)(i, i[:, None]).astype(float)  # C(i, a), 0 for a > i
    return binom * np.asarray(d, dtype=float)[..., None, None] ** np.maximum(i - i[:, None], 0)


def _pad(c: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return np.pad(c, ((0, rows - c.shape[0]), (0, cols - c.shape[1])))


def _diff(size: int) -> np.ndarray:
    """Differentiation matrix: ``_diff(r) @ c`` is d/dx and ``c @ _diff(s).T`` is d/dy."""
    return np.diag(np.arange(1.0, size), 1)


def _degree(c: np.ndarray) -> int:
    """Total degree of the polynomial whose ``c[i, j]`` multiplies x^i y^j; 0 for zero."""
    i, j = np.nonzero(c)
    return int((i + j).max(initial=0))


class OneForm:
    """One-form P dx + Q dy; ``P[i, j]`` and ``Q[i, j]`` multiply x^i y^j, degree <= 4."""

    __slots__ = ("P", "Q")

    def __init__(self, P, Q):
        P, Q = (np.atleast_2d(np.asarray(c, dtype=float)) for c in (P, Q))
        if P.ndim != 2 or Q.ndim != 2:
            raise ValueError("coefficient arrays must be 2-dimensional")
        if max(_degree(P), _degree(Q)) > MAX_DEGREE:
            raise ValueError(f"polynomial degree capped at {MAX_DEGREE}")
        self.P = P
        self.Q = Q


def symmetric_gauge(omega0: float = 2 * math.pi) -> OneForm:
    """A = (omega0/2)(x dy - y dx); curvature omega0 dx^dy."""
    half = omega0 / 2.0
    return OneForm([[0.0, -half]], [[0.0], [half]])


def landau_gauge(omega0: float = 2 * math.pi) -> OneForm:
    """A = omega0 x dy; same curvature as the symmetric gauge."""
    return OneForm([[0.0]], [[0.0], [omega0]])


def _require_zero(residue: np.ndarray, tol: np.ndarray, n, m, message: str) -> None:
    # residue[k] must vanish coefficient-wise within tol[k]; name the first gamma that fails
    bad = ~(np.abs(residue).reshape(len(tol), -1).max(axis=1) <= tol)
    if bad.any():
        k = int(np.argmax(bad))
        raise ExactnessError(message.format(gamma=(int(n[k]), int(m[k]))))


def _phases(A: OneForm, n, m) -> np.ndarray:
    """Coefficients of phi_gamma for the translations gamma = (n[k], m[k]).

    Returns shape (len(n), rows, cols); ``[k, i, j]`` multiplies x^i y^j in
    phi_{(n[k], m[k])}.  Each phase is the straight-segment integral of
    ``A - gamma^* A``, checked to be closed and to satisfy
    ``d(phi) = A - gamma^* A`` coefficient-wise within ``1e-12`` times the
    largest coefficient of the difference (at least 1).  ``ValueError`` if a
    coefficient of ``A - gamma^* A`` overflows a float.
    """
    P, Q = A.P, A.Q
    rows = max(P.shape[0] + 1, Q.shape[0])
    cols = max(P.shape[1], Q.shape[1] + 1)
    frame = np.stack([_pad(P, rows, cols), _pad(Q, rows, cols)])
    # A - gamma^*A as (K, 2, rows, cols): the P and Q coefficients of each difference
    Bn, Bm = _pascal(n, rows)[:, None], _pascal(m, cols)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        diff = frame - Bn @ frame @ np.swapaxes(Bm, -1, -2)
    finite = np.isfinite(diff).reshape(len(diff), -1).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(
            f"potential shifted by gamma=({int(n[k])}, {int(m[k])}) overflows a float"
        )
    dP, dQ = diff[:, 0], diff[:, 1]
    Dx, Dy = _diff(rows), _diff(cols).T
    tol = 1e-12 * np.maximum(np.abs(diff).max(axis=(1, 2, 3)), 1.0)
    _require_zero(
        Dx @ dQ - dP @ Dy,
        tol, n, m, "A - gamma^*A is not closed for gamma={gamma}; cannot integrate",
    )
    # phi(x, y) = int_0^1 [P(tx,ty) x + Q(tx,ty) y] dt: monomial x^a y^b of P
    # contributes x^(a+1) y^b / (a+b+1), likewise x^a y^(b+1) for Q
    degree = np.arange(rows)[:, None] + np.arange(cols)[None, :] + 1
    phi = np.zeros_like(dP)
    phi[:, 1:, :] += dP[:, :-1, :] / degree[:-1, :]
    phi[:, :, 1:] += dQ[:, :, :-1] / degree[:, :-1]
    _require_zero(
        np.stack([Dx @ phi - dP, phi @ Dy - dQ], axis=1),
        tol, n, m, "radial integration failed to invert d for gamma={gamma}",
    )
    return phi


def solve_phi(A: OneForm, gamma: Lattice) -> np.ndarray:
    """Coefficients ``[i, j]`` (of x^i y^j) of phi with d(phi) = A - gamma^* A and phi(0, 0) = 0."""
    return _phases(A, [gamma[0]], [gamma[1]])[0]


def cocycle_grid(A: OneForm, radius: int):
    """Cocycle values on the full ball x ball pair grid, from one batched solve.

    The phases of the ball of radius 2R are solved at once; for every
    pair the combination ``phi_{g2} + g2^* phi_{g1} - phi_{g1 g2}`` is then
    formed coefficient-wise as one array, whose pull-backs take two matrix
    products per g2 (not two per pair).  Returns (points, values, residual)
    with ``values[i, j] = c(points[i], points[j])``, the constant coefficient,
    and ``residual`` the largest non-constant coefficient over all pairs: the
    measured distance of the combinations from constants, for potentials of
    every degree.  ``CocycleConsistencyError`` if ``gate_fails`` (1e-10, scale
    max |c|), ``ValueError`` if a coefficient of a combination overflows.
    """
    if radius < 0:
        raise ValueError(f"ball radius must be non-negative, got {radius}")
    points = ball_points(radius)
    n, m = ball_coordinates(radius)
    phi = _phases(A, *ball_coordinates(2 * radius))
    own = phi[ball_index(n, m, 2 * radius)]
    K, rows, cols = own.shape
    # g2^* phi_{g1} for every pair (g1, g2): B(n2) phi_{g1} B(m2)^T, one row
    # block per g2 from the phases stacked side by side as [a, g1, b]; then
    # + phi_{g2} - phi_{g1 g2}, in place to keep one pair-sized array alive
    combo = np.empty((K, K, rows, cols))
    stacked = own.transpose(1, 0, 2).reshape(rows, K * cols)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        for j, (bn, bm) in enumerate(zip(_pascal(n, rows), _pascal(m, cols))):
            np.matmul((bn @ stacked).reshape(rows, K, cols), bm.T, out=combo[:, j].transpose(1, 0, 2))
        combo += own
        combo -= phi[ball_index(n[:, None] + n, m[:, None] + m, 2 * radius)]
    values = combo[:, :, 0, 0].copy()
    combo[:, :, 0, 0] = 0.0
    residual, scale = (float(max(a.max(), -a.min())) for a in (combo, values))  # NaN, inf kept
    if not np.isfinite([residual, scale]).all():
        raise ValueError("a cocycle combination overflows a float")
    if gate_fails([(residual, scale)], 1e-10):
        raise CocycleConsistencyError(
            f"combination not constant on the grid: residual {residual:.3e}"
        )
    return points, values, residual


def cocycle_table(A: OneForm, radius: int) -> TabulatedCocycle:
    """The derived cocycle on pairs from the ball of radius 2R.

    The domain of radius 2R keeps the additive cocycle identity evaluable for all
    triples with entries in the radius-R ball.  Values and their constancy
    checks come from ``cocycle_grid`` on that domain, after the curvature
    ``dA = dQ/dx - dP/dy`` is checked to be constant coefficient-wise.
    """
    P, Q = A.P, A.Q
    rows, cols = max(P.shape[0], Q.shape[0]), max(P.shape[1], Q.shape[1])
    curvature = _diff(rows) @ _pad(Q, rows, cols) - _pad(P, rows, cols) @ _diff(cols).T
    if _degree(curvature) > 0:
        raise ExactnessError("potential curvature is not constant")
    _, values, _ = cocycle_grid(A, 2 * radius)
    return TabulatedCocycle(values, 2 * radius)
