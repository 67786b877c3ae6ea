import math

import numpy as np
import pytest

from quantlab.algebra import (
    AlgebraElement,
    KappaCocycle,
    TabulatedCocycle,
    ball_index,
    ball_points,
    compose,
    harper_element,
    norm_estimate,
    regular_representation,
)
from quantlab.cocycle import (
    OneForm,
    _pad,
    _pascal,
    _phases,
    cocycle_grid,
    cocycle_table,
    landau_gauge,
    solve_phi,
    symmetric_gauge,
)
from quantlab import cocycle
from quantlab.errors import CocycleConsistencyError, ExactnessError

from oracles import cocycle_combination_loop, regular_representation_loop

rng = np.random.default_rng(20240811)

TWO_PI = 2.0 * math.pi


def random_gamma(bound=4):
    return (int(rng.integers(-bound, bound + 1)), int(rng.integers(-bound, bound + 1)))


def _pullback(c, gamma):
    """Coefficients of p(x + n, y + m) for the coefficients c of p, by the Pascal matrices."""
    return _pascal(gamma[0], c.shape[0]) @ c @ _pascal(gamma[1], c.shape[1]).T


def test_pullback_constant_form_unchanged():
    assert np.array_equal(_pullback(np.array([[1.5]]), (3, -2)), [[1.5]])


def test_pullback_symmetric_gauge_shift():
    # pi(x dy - y dx) pulled back by (1, 0) is pi((x + 1) dy - y dx)
    A = symmetric_gauge()
    x, y = rng.normal(size=(2, 5))
    polyval2d = np.polynomial.polynomial.polyval2d
    assert np.allclose(polyval2d(x, y, _pullback(A.Q, (1, 0))), math.pi * (x + 1))
    assert np.allclose(polyval2d(x, y, _pullback(A.P, (1, 0))), -math.pi * y)


def test_pullback_is_an_action():
    c = rng.normal(size=(3, 3))
    g1, g2 = random_gamma(), random_gamma()
    assert np.allclose(_pullback(_pullback(c, g1), g2), _pullback(c, compose(g1, g2)), atol=1e-9)


def test_solve_phi_symmetric_gauge_closed_form():
    # phi = pi (m x - n y): x-coefficient pi m, y-coefficient -pi n, nothing else
    for n, m in [(1, 0), (0, 1), (2, 3), (-4, 1)]:
        c = solve_phi(symmetric_gauge(), (n, m))
        assert c[1, 0] == pytest.approx(math.pi * m, abs=1e-12)
        assert c[0, 1] == pytest.approx(-math.pi * n, abs=1e-12)
        c[1, 0] = c[0, 1] = 0.0
        assert np.abs(c).max() <= 1e-14


def test_solve_phi_identity_element():
    assert np.abs(solve_phi(symmetric_gauge(), (0, 0))).max() <= 1e-15


def test_solve_phi_landau_gauge():
    # phi = -2 pi n y for gamma = (n, m) = (3, -2)
    c = solve_phi(landau_gauge(), (3, -2))
    assert c[0, 1] == pytest.approx(-TWO_PI * 3, abs=1e-12)
    c[0, 1] = 0.0
    assert np.abs(c).max() <= 1e-13


def test_solve_phi_rejects_nonconstant_curvature():
    # dA = x dx^dy is not translation invariant, so A - gamma^*A is not closed
    bad = OneForm([[0.0]], [[0.0], [0.0], [0.5]])
    with pytest.raises(ExactnessError):
        solve_phi(bad, (1, 0))


@pytest.mark.parametrize(
    "P, Q",
    [
        ([[0.0]], [[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]]),  # y^5 dy
        ([[0.0, 0.0, 0.0]] * 3 + [[0.0, 0.0, 2.0]], [[0.0]]),  # 2 x^3 y^2 dx
        (np.zeros((1, 1, 1)), [[0.0]]),  # not a coefficient table
    ],
)
def test_one_form_rejects_degree_above_4_and_non_2d_arrays(P, Q):
    with pytest.raises(ValueError):
        OneForm(P, Q)


def test_phases_name_the_first_failing_translation():
    bad = OneForm([[0.0]], [[0.0], [0.0], [0.5]])
    # y-translations leave A unchanged; (1, 0) is the first that fails
    with pytest.raises(ExactnessError, match=r"gamma=\(1, 0\)"):
        _phases(bad, [0, 0, 1, 2], [0, 2, 0, 0])


def test_batched_phases_match_single_solves():
    # A = (0.3 - y + 3x^2 y) dx + (x + x^3) dy, curvature 2 + 3x^2 - 3x^2 = 2
    A = OneForm([[0.3, -1.0], [0.0, 0.0], [0.0, 3.0]], [[0.0], [1.0], [0.0], [1.0]])
    gammas = [(0, 0), (1, -2), (-3, 1), (2, 2)]
    batch = _phases(A, [g[0] for g in gammas], [g[1] for g in gammas])
    for phi, gamma in zip(batch, gammas):
        assert np.array_equal(phi, solve_phi(A, gamma))


def _plus_exact(A, fx, fy):
    """A + df, with df = fx dx + fy dy given by coefficient arrays."""

    def add(a, b):
        b = np.asarray(b, dtype=float)
        rows, cols = max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1])
        return _pad(a, rows, cols) + _pad(b, rows, cols)

    return OneForm(add(A.P, fx), add(A.Q, fy))


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


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "potential",
    [
        symmetric_gauge,
        landau_gauge,
        # f = x^3 y: df = 3 x^2 y dx + x^3 dy
        lambda: _plus_exact(symmetric_gauge(), [[0, 0], [0, 0], [0, 3]], [[0], [0], [0], [1]]),
    ],
    ids=["symmetric", "landau", "symmetric+d(x3y)"],
)
def test_cocycle_grid_matches_the_per_pair_loop(potential, radius):
    A = potential()
    points, values, residual = cocycle_grid(A, radius)
    combo = cocycle_combination_loop(A, radius)
    assert points == ball_points(radius)
    # the same products and sums, but BLAS may order a product's sums per
    # block shape: a few ulps of the largest coefficient
    np.testing.assert_allclose(values, combo[:, :, 0, 0], rtol=1e-14, atol=1e-12)
    combo[:, :, 0, 0] = 0.0
    assert residual == pytest.approx(np.abs(combo).max(), abs=1e-12)


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


@pytest.mark.parametrize(
    "g1, g2, value",
    [
        pytest.param((1, 0), (0, 1), -math.pi, id="generators"),
        pytest.param((2, -1), (0, 0), 0.0, id="identity-argument"),
        pytest.param((2, 1), (-1, 3), math.pi * (1 * -1 - 2 * 3), id="general-pair"),
    ],
)
def test_cocycle_grid_entries(g1, g2, value):
    radius = max(map(abs, g1 + g2))
    _, vals, _ = cocycle_grid(symmetric_gauge(), radius)
    assert vals[ball_index(*g1, radius), ball_index(*g2, radius)] == pytest.approx(value, abs=1e-12)


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


def _ball_arrays(radius):
    """The points of ``ball_points(radius)`` as a column and a row of (n, m) arrays."""
    n, m = np.array(ball_points(radius)).T
    return (n[:, None], m[:, None]), (n, m)


def test_cocycle_table_symmetric_gauge():
    table = cocycle_table(symmetric_gauge(), 3)
    assert table.radius == 6
    pairs = _ball_arrays(6)
    assert np.abs(table(*pairs) - KappaCocycle()(*pairs)).max() <= 1e-10
    assert table((2, -1), (-6, 4)) == pytest.approx(KappaCocycle()((2, -1), (-6, 4)), abs=1e-10)


def test_cocycle_table_zero_potential():
    zero = OneForm([[0.0]], [[0.0]])
    table = cocycle_table(zero, 2)
    assert np.abs(table(*_ball_arrays(4))).max() < 1e-14


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
    with pytest.raises(ValueError):
        TabulatedCocycle(np.ones((1, 1)), 0)


@pytest.mark.parametrize(
    "g1, g2",
    [
        ((5, 0), (0, 0)),
        ((0, 0), (0, -5)),
        ((np.array([0, 1, 5]), np.array([0, 0, 0])), (np.array([1, 2, 3]), 0)),
        ((0, 0), (np.array([[0], [4]]), np.array([0, -5]))),
    ],
)
def test_tabulated_cocycle_rejects_pairs_outside_the_table(g1, g2):
    table = cocycle_table(landau_gauge(), 2)
    with pytest.raises(KeyError, match="radius 4"):
        table(g1, g2)


@pytest.mark.parametrize("radius", [0, 2])
def test_cocycle_table_rejects_nonconstant_curvature(radius):
    # dA = x dx^dy
    bad = OneForm([[0.0]], [[0.0], [0.0], [0.5]])
    with pytest.raises(ExactnessError, match="curvature"):
        cocycle_table(bad, radius)


def test_gauge_covariance_of_antisymmetrization():
    # any two potentials with the same constant curvature agree after
    # antisymmetrization: their cocycles differ by a symmetric coboundary
    # A = -1.5 pi y dx + 0.5 pi x dy: dA = (0.5 pi + 1.5 pi) dx^dy, as for the symmetric gauge
    skew = OneForm([[0.0, -1.5 * math.pi]], [[0.0], [0.5 * math.pi]])
    pts, vals, _ = cocycle_grid(skew, 3)
    pts2, vals2, _ = cocycle_grid(symmetric_gauge(), 3)
    assert pts == pts2
    assert np.abs((vals - vals.T) - (vals2 - vals2.T)).max() < 1e-10


# the twisted algebra over the cocycles derived from the two gauges
@pytest.fixture(scope="module")
def tables():
    return {"symmetric": cocycle_table(symmetric_gauge(), 3), "landau": cocycle_table(landau_gauge(), 3)}


@pytest.mark.parametrize("gauge", ["symmetric", "landau"])
def test_derived_cocycle_regular_representation_matches_the_loop_oracle(tables, gauge):
    terms = {g: complex(*rng.normal(size=2)) for g in ball_points(2) if rng.random() < 0.5}
    a, s = AlgebraElement(terms), 0.37
    matrix = regular_representation(a, tables[gauge], s, 3)
    reference = regular_representation_loop(a, tables[gauge], s, 3)
    assert np.abs(matrix - reference).max() <= 1e-13


def test_landau_and_symmetric_cocycles_differ_by_a_coboundary(tables):
    # c_Landau - c_symmetric = b(g1) + b(g2) - b(g1 + g2) with b(n, m) = pi n m
    (n1, m1), (n2, m2) = pairs = _ball_arrays(6)
    delta_b = math.pi * (n1 * m1 + n2 * m2 - (n1 + n2) * (m1 + m2))
    assert np.abs(tables["landau"](*pairs) - tables["symmetric"](*pairs) - delta_b).max() <= 1e-12


@pytest.mark.parametrize("s", [0.2, 0.3, 0.5, 0.7])
def test_harper_norm_is_the_same_for_derived_and_closed_form_cocycles(tables, s):
    kappa = KappaCocycle()
    expected = norm_estimate(harper_element(kappa, s), kappa, s, 3)
    for table in tables.values():
        assert abs(norm_estimate(harper_element(table, s), table, s, 3) - expected) <= 1e-12
