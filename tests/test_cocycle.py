import math

import numpy as np
import pytest

from quantlab.algebra import KappaCocycle, ball_points, compose
from quantlab.cocycle import (
    OneForm,
    PolyXY,
    _phases,
    cocycle_grid,
    cocycle_table,
    derive_cocycle,
    exterior_derivative,
    landau_gauge,
    pullback,
    solve_phi,
    symmetric_gauge,
)
from quantlab import cocycle
from quantlab.errors import CocycleConsistencyError, ExactnessError

rng = np.random.default_rng(20240811)

TWO_PI = 2.0 * math.pi


def random_gamma(bound=4):
    return (int(rng.integers(-bound, bound + 1)), int(rng.integers(-bound, bound + 1)))


def test_exterior_derivative_symmetric_gauge():
    dA = exterior_derivative(symmetric_gauge())
    assert dA.degree() == 0
    assert dA(0.0, 0.0) == pytest.approx(TWO_PI, abs=1e-14)


def test_exterior_derivative_zero_form():
    zero = OneForm(PolyXY.zero(), PolyXY.zero())
    assert exterior_derivative(zero).is_zero()


def test_exterior_derivative_landau_gauge():
    dA = exterior_derivative(landau_gauge())
    assert dA.degree() == 0
    assert dA(0.3, -0.7) == pytest.approx(TWO_PI, abs=1e-14)


def test_pullback_constant_form_unchanged():
    const = OneForm(PolyXY([[1.5]]), PolyXY([[-0.25]]))
    moved = pullback(const, (3, -2))
    assert np.allclose(moved.P.coeffs, const.P.coeffs)
    assert np.allclose(moved.Q.coeffs, const.Q.coeffs)


def test_pullback_symmetric_gauge_shift():
    # pi(x dy - y dx) pulled back by (1,0) is pi((x+1) dy - y dx)
    moved = pullback(symmetric_gauge(), (1, 0))
    assert moved.Q(0.0, 0.0) == pytest.approx(math.pi)
    assert moved.Q(1.0, 0.0) == pytest.approx(2 * math.pi)
    assert moved.P(0.0, 1.0) == pytest.approx(-math.pi)


def test_pullback_is_an_action():
    A = OneForm(PolyXY(rng.normal(size=(3, 3))), PolyXY(rng.normal(size=(3, 3))))
    g1, g2 = random_gamma(), random_gamma()
    twice = pullback(pullback(A, g1), g2)
    once = pullback(A, compose(g1, g2))
    a, b = twice.P._padded_pair(once.P)
    assert np.allclose(a, b, atol=1e-9)
    a, b = twice.Q._padded_pair(once.Q)
    assert np.allclose(a, b, atol=1e-9)


def test_solve_phi_symmetric_gauge_closed_form():
    # phi = pi (m x - n y): x-coefficient pi m, y-coefficient -pi n, nothing else
    for n, m in [(1, 0), (0, 1), (2, 3), (-4, 1)]:
        c = solve_phi(symmetric_gauge(), (n, m)).coeffs
        assert c[1, 0] == pytest.approx(math.pi * m, abs=1e-12)
        assert c[0, 1] == pytest.approx(-math.pi * n, abs=1e-12)
        c[1, 0] = c[0, 1] = 0.0
        assert np.abs(c).max() <= 1e-14


def test_solve_phi_identity_element():
    assert solve_phi(symmetric_gauge(), (0, 0)).is_zero(tol=1e-15)


def test_solve_phi_landau_gauge():
    # phi = -2 pi n y for gamma = (n, m) = (3, -2)
    c = solve_phi(landau_gauge(), (3, -2)).coeffs
    assert c[0, 1] == pytest.approx(-TWO_PI * 3, abs=1e-12)
    c[0, 1] = 0.0
    assert np.abs(c).max() <= 1e-13


def test_solve_phi_rejects_nonconstant_curvature():
    # dA = x dx^dy is not translation invariant, so A - gamma^*A is not closed
    bad = OneForm(PolyXY.zero(), PolyXY([[0.0], [0.0], [0.5]]))
    with pytest.raises(ExactnessError):
        solve_phi(bad, (1, 0))


def test_phases_name_the_first_failing_translation():
    bad = OneForm(PolyXY.zero(), PolyXY([[0.0], [0.0], [0.5]]))
    # y-translations leave A unchanged; (1, 0) is the first that fails
    with pytest.raises(ExactnessError, match=r"gamma=\(1, 0\)"):
        _phases(bad, [0, 0, 1, 2], [0, 2, 0, 0])


def test_batched_phases_match_single_solves():
    # A = (0.3 - y + 3x^2 y) dx + (x + x^3) dy, curvature 2
    A = OneForm(PolyXY([[0.3, -1.0], [0.0, 0.0], [0.0, 3.0]]), PolyXY([[0.0], [1.0], [0.0], [1.0]]))
    assert exterior_derivative(A).degree() == 0
    gammas = [(0, 0), (1, -2), (-3, 1), (2, 2)]
    batch = _phases(A, [g[0] for g in gammas], [g[1] for g in gammas])
    for phi, gamma in zip(batch, gammas):
        assert np.array_equal(phi, solve_phi(A, gamma).coeffs)


def _plus_exact(A, fx, fy):
    """A + df, with df = fx dx + fy dy given by coefficient arrays."""
    p, dp = A.P._padded_pair(PolyXY(fx))
    q, dq = A.Q._padded_pair(PolyXY(fy))
    return OneForm(PolyXY(p + dp), PolyXY(q + dq))


@pytest.mark.parametrize(
    "f, fx, fy",
    [
        # f = x^3 y: df = 3 x^2 y dx + x^3 dy
        (lambda x, y: x**3 * y, [[0, 0], [0, 0], [0, 3]], [[0], [0], [0], [1]]),
        # f = x^4 y / 2: df = 2 x^3 y dx + x^4 / 2 dy
        (lambda x, y: x**4 * y / 2, [[0, 0], [0, 0], [0, 0], [0, 2]], [[0], [0], [0], [0], [0.5]]),
    ],
)
def test_cocycle_grid_nonlinear_potential(f, fx, fy):
    # phi changes by f - gamma^*f + f(gamma), so c gains f(g1) + f(g2) - f(g1 + g2)
    A = _plus_exact(symmetric_gauge(), fx, fy)
    pts, vals, residual = cocycle_grid(A, 3)
    kc = KappaCocycle()
    expected = np.array(
        [[kc(g1, g2) + f(*g1) + f(*g2) - f(*compose(g1, g2)) for g2 in pts] for g1 in pts]
    )
    assert np.abs(vals - expected).max() <= 1e-10
    assert residual <= 1e-10


def test_cocycle_grid_residual_sees_every_non_constant_coefficient(monkeypatch):
    # an xy term of 1e-9 in phi_(2, 2), the last phase of the radius-2 batch,
    # leaves the pair ((1, 1), (1, 1)) non-constant
    solve = cocycle._phases

    def perturbed(A, n, m):
        phi = solve(A, n, m)
        phi[-1, 1, 1] += 1e-9
        return phi

    monkeypatch.setattr(cocycle, "_phases", perturbed)
    with pytest.raises(CocycleConsistencyError, match="residual 1.000e-09"):
        cocycle_grid(symmetric_gauge(), 1)


def test_cocycle_grid_rejects_negative_radius():
    with pytest.raises(ValueError):
        cocycle_grid(symmetric_gauge(), -1)


def test_derive_cocycle_generators():
    value = derive_cocycle(symmetric_gauge(), (1, 0), (0, 1))
    assert value == pytest.approx(-math.pi, abs=1e-12)


def test_derive_cocycle_identity_argument():
    assert derive_cocycle(symmetric_gauge(), (2, -1), (0, 0)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_derive_cocycle_many_sample_points():
    samples = [(0.0, 0.0), (1.1, 0.3), (-0.4, 2.2), (0.9, -1.7), (2.3, 0.05)]
    value = derive_cocycle(symmetric_gauge(), (2, 1), (-1, 3), samples=samples)
    assert value == pytest.approx(math.pi * (1 * -1 - 2 * 3), abs=1e-10)


def test_landau_gauge_antisymmetrization_matches_symmetric():
    pts, vals, _ = cocycle_grid(landau_gauge(), 3)
    anti = vals - vals.T
    expected = np.array(
        [[TWO_PI * (g1[1] * g2[0] - g1[0] * g2[1]) for g2 in pts] for g1 in pts]
    )
    assert np.abs(anti - expected).max() < 1e-10


def test_cocycle_grid_closed_form():
    kc = KappaCocycle()
    pts, vals, residual = cocycle_grid(symmetric_gauge(), 4)
    expected = np.array([[kc(g1, g2) for g2 in pts] for g1 in pts])
    assert residual <= 1e-10
    assert np.abs(vals - expected).max() < 1e-10


def test_cocycle_table_symmetric_gauge():
    kc = KappaCocycle()
    table = cocycle_table(symmetric_gauge(), 3)
    for g1, g2 in table.pairs():
        assert table(g1, g2) == pytest.approx(kc(g1, g2), abs=1e-10)


def test_cocycle_table_zero_potential():
    zero = OneForm(PolyXY.zero(), PolyXY.zero())
    table = cocycle_table(zero, 2)
    assert all(abs(table(g1, g2)) < 1e-14 for g1, g2 in table.pairs())


def test_cocycle_table_landau_identity_on_ball():
    table = cocycle_table(landau_gauge(), 2)
    pts = ball_points(2)
    worst = 0.0
    for g1 in pts:
        for g2 in pts:
            for g3 in pts:
                worst = max(
                    worst,
                    abs(
                        table(g2, g3)
                        - table(compose(g1, g2), g3)
                        + table(g1, compose(g2, g3))
                        - table(g1, g2)
                    ),
                )
    assert worst <= 1e-10


def test_tabulated_cocycle_rejects_unnormalized():
    from quantlab.algebra import TabulatedCocycle

    with pytest.raises(ValueError):
        TabulatedCocycle({((0, 0), (0, 0)): 1.0})


def test_gauge_covariance_of_antisymmetrization():
    # any two potentials with the same constant curvature agree after
    # antisymmetrization: their cocycles differ by a symmetric coboundary
    skew = OneForm(
        PolyXY([[0.0, -1.5 * math.pi]]), PolyXY([[0.0], [0.5 * math.pi]])
    )
    assert exterior_derivative(skew)(0.0, 0.0) == pytest.approx(TWO_PI)
    pts, vals, _ = cocycle_grid(skew, 3)
    pts2, vals2, _ = cocycle_grid(symmetric_gauge(), 3)
    assert pts == pts2
    assert np.abs((vals - vals.T) - (vals2 - vals2.T)).max() < 1e-10
