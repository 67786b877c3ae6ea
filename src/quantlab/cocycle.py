"""Group cocycles from polynomial symplectic potentials on the plane.

A potential is a one-form ``A = P(x, y) dx + Q(x, y) dy`` with polynomial
coefficients of degree at most 4.  For each lattice translation ``gamma`` the
difference ``A - gamma^* A`` is closed, hence exact on the plane; the phase
function ``phi_gamma`` is pinned by ``phi_gamma(0, 0) = 0`` via symbolic
integration of that difference along the straight segment from the origin.
The combination

    phi_{g2} + g2^* phi_{g1} - phi_{g1 g2}

is then constant on the plane and defines a real group cocycle.
"""

from __future__ import annotations

import json
import math
from typing import Sequence, Tuple

import numpy as np

from .algebra import Lattice, TabulatedCocycle, ball_points, compose
from .errors import CocycleConsistencyError, ExactnessError

MAX_DEGREE = 4


class PolyXY:
    """Dense bivariate real polynomial; ``coeffs[i, j]`` multiplies x^i y^j."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_2d(np.asarray(coeffs, dtype=float))
        if arr.ndim != 2:
            raise ValueError("coefficient array must be 2-dimensional")
        self.coeffs = arr

    @classmethod
    def zero(cls) -> "PolyXY":
        return cls([[0.0]])

    def _padded_pair(self, other: "PolyXY"):
        rows = max(self.coeffs.shape[0], other.coeffs.shape[0])
        cols = max(self.coeffs.shape[1], other.coeffs.shape[1])
        a = np.zeros((rows, cols))
        b = np.zeros((rows, cols))
        a[: self.coeffs.shape[0], : self.coeffs.shape[1]] = self.coeffs
        b[: other.coeffs.shape[0], : other.coeffs.shape[1]] = other.coeffs
        return a, b

    def __add__(self, other: "PolyXY") -> "PolyXY":
        a, b = self._padded_pair(other)
        return PolyXY(a + b)

    def __sub__(self, other: "PolyXY") -> "PolyXY":
        a, b = self._padded_pair(other)
        return PolyXY(a - b)

    def scale(self, factor: float) -> "PolyXY":
        return PolyXY(self.coeffs * factor)

    def dx(self) -> "PolyXY":
        c = self.coeffs
        if c.shape[0] == 1:
            return PolyXY.zero()
        return PolyXY(c[1:, :] * np.arange(1, c.shape[0])[:, None])

    def dy(self) -> "PolyXY":
        c = self.coeffs
        if c.shape[1] == 1:
            return PolyXY.zero()
        return PolyXY(c[:, 1:] * np.arange(1, c.shape[1])[None, :])

    def shift(self, dx: float, dy: float) -> "PolyXY":
        """Coefficients of p(x + dx, y + dy), by binomial expansion."""
        c = self.coeffs
        rows, cols = c.shape
        out = np.zeros_like(c)
        for i in range(rows):
            for j in range(cols):
                if c[i, j] == 0.0:
                    continue
                for a in range(i + 1):
                    for b in range(j + 1):
                        out[a, b] += (
                            c[i, j]
                            * math.comb(i, a)
                            * math.comb(j, b)
                            * dx ** (i - a)
                            * dy ** (j - b)
                        )
        return PolyXY(out)

    def __call__(self, x: float, y: float) -> float:
        return float(
            np.polynomial.polynomial.polyval2d(x, y, self.coeffs)
        )

    def degree(self) -> int:
        nz = np.argwhere(self.coeffs != 0.0)
        if nz.size == 0:
            return 0
        return int(max(i + j for i, j in nz))

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def linear_parts(self) -> Tuple[float, float, float, float]:
        """(constant, x-coefficient, y-coefficient, largest higher coeff)."""
        c = self.coeffs
        const = c[0, 0]
        cx = c[1, 0] if c.shape[0] > 1 else 0.0
        cy = c[0, 1] if c.shape[1] > 1 else 0.0
        mask = np.ones_like(c, dtype=bool)
        mask[0, 0] = False
        if c.shape[0] > 1:
            mask[1, 0] = False
        if c.shape[1] > 1:
            mask[0, 1] = False
        higher = float(np.max(np.abs(c[mask]))) if c[mask].size else 0.0
        return float(const), float(cx), float(cy), higher


class OneForm:
    """One-form P dx + Q dy with polynomial coefficients of degree <= 4."""

    __slots__ = ("P", "Q")

    def __init__(self, P: PolyXY, Q: PolyXY):
        if P.degree() > MAX_DEGREE or Q.degree() > MAX_DEGREE:
            raise ValueError(f"polynomial degree capped at {MAX_DEGREE}")
        self.P = P
        self.Q = Q

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.P - other.P, self.Q - other.Q)

    @classmethod
    def from_json(cls, text: str) -> "OneForm":
        """{"P": [[...]], "Q": [[...]]}; row index = power of x, column = power of y."""
        data = json.loads(text)
        return cls(PolyXY(data["P"]), PolyXY(data["Q"]))

    def to_json(self) -> str:
        return json.dumps({"P": self.P.coeffs.tolist(), "Q": self.Q.coeffs.tolist()})


def symmetric_gauge(omega0: float = 2 * math.pi) -> OneForm:
    """A = (omega0/2)(x dy - y dx); curvature omega0 dx^dy."""
    half = omega0 / 2.0
    return OneForm(PolyXY([[0.0, -half]]), PolyXY([[0.0], [half]]))


def landau_gauge(omega0: float = 2 * math.pi) -> OneForm:
    """A = omega0 x dy; same curvature as the symmetric gauge."""
    return OneForm(PolyXY([[0.0]]), PolyXY([[0.0], [omega0]]))


def exterior_derivative(A: OneForm) -> PolyXY:
    """dA as the polynomial dQ/dx - dP/dy; callers require it constant."""
    return A.Q.dx() - A.P.dy()


def pullback(A: OneForm, gamma: Lattice) -> OneForm:
    """Translation pullback: coefficients composed with (x, y) -> (x+n, y+m)."""
    n, m = gamma
    return OneForm(A.P.shift(n, m), A.Q.shift(n, m))


def _integrate_radial(P: PolyXY, Q: PolyXY) -> PolyXY:
    # Straight-segment potential: phi(x, y) = int_0^1 [P(tx,ty) x + Q(tx,ty) y] dt;
    # monomial x^a y^b in P contributes x^(a+1) y^b / (a+b+1), likewise for Q.
    rows = max(P.coeffs.shape[0] + 1, Q.coeffs.shape[0])
    cols = max(P.coeffs.shape[1], Q.coeffs.shape[1] + 1)
    out = np.zeros((rows, cols))
    for (a, b), coeff in np.ndenumerate(P.coeffs):
        if coeff != 0.0:
            out[a + 1, b] += coeff / (a + b + 1)
    for (a, b), coeff in np.ndenumerate(Q.coeffs):
        if coeff != 0.0:
            out[a, b + 1] += coeff / (a + b + 1)
    return PolyXY(out)


def solve_phi(A: OneForm, gamma: Lattice) -> PolyXY:
    """Phase function with d(phi) = A - gamma^* A and phi(0, 0) = 0."""
    diff = A - pullback(A, gamma)
    closedness = diff.Q.dx() - diff.P.dy()
    scale = max(diff.P.max_abs_coeff(), diff.Q.max_abs_coeff(), 1.0)
    if not closedness.is_zero(tol=1e-12 * scale):
        raise ExactnessError(
            f"A - gamma^*A is not closed for gamma={gamma}; cannot integrate"
        )
    phi = _integrate_radial(diff.P, diff.Q)
    # poly identity check of the postcondition, coefficient-wise
    if not (phi.dx() - diff.P).is_zero(tol=1e-12 * scale) or not (
        phi.dy() - diff.Q
    ).is_zero(tol=1e-12 * scale):
        raise ExactnessError(f"radial integration failed to invert d for gamma={gamma}")
    return phi


DEFAULT_SAMPLES: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.0),
    (0.7, -1.3),
    (-2.1, 0.4),
    (1.9, 2.2),
    (-0.6, -0.9),
    (3.3, -2.7),
)


def derive_cocycle(
    A: OneForm,
    g1: Lattice,
    g2: Lattice,
    samples: Sequence[Tuple[float, float]] = DEFAULT_SAMPLES,
) -> float:
    """Value of phi_{g2} + g2^* phi_{g1} - phi_{g1 g2}, checked for constancy."""
    phi1 = solve_phi(A, g1)
    phi2 = solve_phi(A, g2)
    phi12 = solve_phi(A, compose(g1, g2))
    n2, m2 = g2
    values = [
        phi2(x, y) + phi1(x + n2, y + m2) - phi12(x, y) for x, y in samples
    ]
    spread = max(values) - min(values)
    if spread > 1e-10:
        raise CocycleConsistencyError(
            f"combination not constant for {(g1, g2)}: spread {spread:.3e}"
        )
    return values[0]


def cocycle_grid(A: OneForm, radius: int):
    """Cocycle values on the full ball x ball pair grid, vectorized.

    Fast path for potentials whose phase functions are linear (constant
    curvature, polynomial degree <= 1): constancy of the defining
    combination is then the exact cancellation of its linear coefficients,
    checked coefficient-wise.  Returns (points, values, residual) with
    ``values[i, j] = c(points[i], points[j])`` and ``residual`` the largest
    non-constant coefficient over all pairs.
    """
    points = ball_points(radius)
    doubled = {}
    linear = True
    for g in ball_points(2 * radius):
        c0, cx, cy, higher = solve_phi(A, g).linear_parts()
        doubled[g] = (c0, cx, cy)
        if higher > 1e-12:
            linear = False
            break
    if not linear:
        values = np.array(
            [[derive_cocycle(A, g1, g2) for g2 in points] for g1 in points]
        )
        return points, values, 0.0
    npts = len(points)
    arr = np.array([doubled[g] for g in points])  # (c0, cx, cy) per point
    c0, cx, cy = arr[:, 0], arr[:, 1], arr[:, 2]
    n2 = np.array([g[0] for g in points], dtype=float)
    m2 = np.array([g[1] for g in points], dtype=float)
    sums = np.array(
        [[doubled[compose(g1, g2)] for g2 in points] for g1 in points]
    )
    # combination phi2 + g2^* phi1 - phi12: constant part and linear residue
    values = (
        c0[None, :]
        + c0[:, None]
        + cx[:, None] * n2[None, :]
        + cy[:, None] * m2[None, :]
        - sums[:, :, 0]
    )
    residual = max(
        np.abs(cx[None, :] + cx[:, None] - sums[:, :, 1]).max(),
        np.abs(cy[None, :] + cy[:, None] - sums[:, :, 2]).max(),
    )
    if residual > 1e-10:
        raise CocycleConsistencyError(
            f"combination not constant on the grid: residual {residual:.3e}"
        )
    return points, values, float(residual)


def cocycle_table(A: OneForm, radius: int) -> TabulatedCocycle:
    """Tabulate the derived cocycle on pairs from the ball of radius 2R.

    The doubled domain keeps the additive cocycle identity evaluable for all
    triples with entries in the radius-R ball.  Values and their constancy
    checks come from ``cocycle_grid`` on that domain.
    """
    if exterior_derivative(A).degree() > 0:
        raise ExactnessError("potential curvature is not constant")
    points, values, _ = cocycle_grid(A, 2 * radius)
    return TabulatedCocycle(
        {
            (g1, g2): values[i, j]
            for i, g1 in enumerate(points)
            for j, g2 in enumerate(points)
        }
    )
