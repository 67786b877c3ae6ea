import cmath
import math

import numpy as np
import pytest

from quantlab.algebra import AlgebraElement, KappaCocycle, ball_points, involution, multiply
from quantlab.sections import (
    GaussianSection,
    GaussianTerm,
    gram_positivity,
    l2_inner,
    module_inner,
    module_trace,
    project_act,
    vacuum,
)

from oracles import gaussian_quadrature_inner, hermitian_defect, l2_inner_loop

rng = np.random.default_rng(905)
KC = KappaCocycle()


def random_section(s, n_terms=2, spread=1.0):
    terms = [
        GaussianTerm(
            complex(*rng.normal(size=2)),
            tuple(rng.normal(scale=spread, size=2)),
            tuple(rng.normal(scale=2.0, size=2)),
        )
        for _ in range(n_terms)
    ]
    return GaussianSection(s, terms)


def test_project_act_identity():
    psi = vacuum(1.7)
    moved = project_act(psi, (0, 0))
    assert moved.terms == psi.terms


def test_project_act_vacuum_translation():
    s = 1.4
    n, m = 2, -3
    moved = project_act(vacuum(s), (n, m))
    term = moved.terms[0]
    assert term.center == (-n, -m)
    assert term.wave == pytest.approx((s * math.pi * m, -s * math.pi * n))
    # pointwise against the defining formula e^{i s phi(x)} psi(x + gamma)
    xs = rng.normal(size=8)
    ys = rng.normal(size=8)
    direct = np.exp(1j * s * math.pi * (m * xs - n * ys)) * vacuum(s)(xs + n, ys + m)
    assert np.abs(moved(xs, ys) - direct).max() < 1e-12


def test_projective_twist_law():
    s = 0.9
    psi = random_section(s)
    for _ in range(6):
        g1 = tuple(int(v) for v in rng.integers(-3, 4, 2))
        g2 = tuple(int(v) for v in rng.integers(-3, 4, 2))
        lhs = project_act(project_act(psi, g1), g2)
        rhs = project_act(psi, (g1[0] + g2[0], g1[1] + g2[1]))
        twist = cmath.exp(1j * s * KC(g1, g2))
        for t1, t2 in zip(lhs.terms, rhs.terms):
            assert abs(t1.coeff - twist * t2.coeff) < 1e-12
            assert t1.center == pytest.approx(t2.center)
            assert t1.wave == pytest.approx(t2.wave)


def test_l2_inner_vacuum_normalization():
    for s in (0.5, 1.0, 2.0, 3.7):
        assert l2_inner(vacuum(s), vacuum(s)) == pytest.approx(1.0 / s, abs=1e-14)


def test_l2_inner_far_separated_bound():
    s, d = 1.0, 8.0
    near = vacuum(s)
    far = GaussianSection(s, [GaussianTerm(1.0, (d, 0.0), (0.0, 0.0))])
    bound = math.exp(-math.pi * s * d * d / 4.0)
    assert abs(l2_inner(near, far)) <= bound * (1.0 + 1e-12)


def test_l2_inner_against_quadrature():
    s = 1.3
    psi = random_section(s, n_terms=3)
    phi = random_section(s, n_terms=2)
    exact = l2_inner(psi, phi)
    quad = gaussian_quadrature_inner(psi, phi)
    assert abs(exact - quad) < 1e-8


def offset_section(gen, s, n_terms):
    """Random terms with centres up to 1.5 off the origin and wave vectors up to 2."""
    terms = [
        GaussianTerm(
            complex(*gen.normal(size=2)),
            tuple(gen.uniform(-1.5, 1.5, size=2)),
            tuple(gen.uniform(-2.0, 2.0, size=2)),
        )
        for _ in range(n_terms)
    ]
    return GaussianSection(s, terms)


def pairing_scale(psi, phi):
    """(sum |c|)(sum |c'|) / s, a bound on every term-pair contribution."""
    return sum(abs(t.coeff) for t in psi.terms) * sum(abs(t.coeff) for t in phi.terms) / psi.s


@pytest.mark.parametrize("s", [0.5, 1.5, 2.0, 4.0])
def test_l2_inner_matches_the_term_pair_loop(s):
    gen = np.random.default_rng(int(10 * s))
    for n_terms in (1, 3, 6):
        psi, phi = offset_section(gen, s, n_terms), offset_section(gen, s, 6)
        assert abs(l2_inner(psi, phi) - l2_inner_loop(psi, phi)) <= 1e-13 * pairing_scale(psi, phi)


def test_module_inner_matches_the_term_pair_loop():
    s, radius = 1.5, 8
    gen = np.random.default_rng(8)
    psi, phi = offset_section(gen, s, 6), offset_section(gen, s, 6)
    gram = module_inner(psi, phi, radius)
    bound = 1e-13 * pairing_scale(psi, phi)
    for gamma in ball_points(radius):
        expected = l2_inner_loop(project_act(psi, gamma), phi)
        assert abs(gram.coefficient(gamma) - expected) <= bound


def test_l2_inner_requires_shared_width():
    with pytest.raises(ValueError):
        l2_inner(vacuum(1.0), vacuum(2.0))


def test_module_inner_vacuum_gram_element():
    s, radius = 2.0, 6
    gram = module_inner(vacuum(s), vacuum(s), radius)
    assert len(gram) == (2 * radius + 1) ** 2
    for (n, m), coeff in gram.terms.items():
        expected = math.exp(-(math.pi * s / 2.0) * (n * n + m * m)) / s
        assert abs(coeff - expected) < 1e-10


def test_module_inner_self_adjoint():
    s = 1.1
    psi = random_section(s)
    gram = module_inner(psi, psi, 5)
    star = involution(gram, KC, s)
    keys = set(star.terms) | set(gram.terms)
    assert max(abs(star.coefficient(g) - gram.coefficient(g)) for g in keys) < 1e-12


def test_module_inner_hermitian_pairing():
    s = 0.8
    psi, phi = random_section(s), random_section(s)
    assert hermitian_defect(psi, phi, KC, s, 5) < 1e-12


def test_module_inner_right_linearity():
    # <psi | phi . gamma> = <psi | phi> [gamma] on the inner ball
    s, radius = 1.2, 6
    psi, phi = random_section(s, spread=0.5), random_section(s, spread=0.5)
    for gamma in [(1, 0), (0, -1), (2, 1)]:
        lhs = module_inner(psi, project_act(phi, gamma), radius)
        rhs = multiply(
            module_inner(psi, phi, radius), AlgebraElement.basis(gamma), KC, s
        )
        inner_radius = radius - max(abs(gamma[0]), abs(gamma[1]))
        worst = max(
            abs(lhs.coefficient(g) - rhs.coefficient(g))
            for g in ball_points(inner_radius)
        )
        assert worst < 1e-12


def test_module_trace_vacuum():
    assert module_trace(vacuum(2.0), KC, 2.0, 5) == pytest.approx(0.5, abs=1e-13)


def test_module_trace_scaling_and_consistency():
    s = 1.6
    psi = random_section(s)
    base = module_trace(psi, KC, s, 6)
    scaled = module_trace(psi.scale(0.5 - 2.0j), KC, s, 6)
    assert scaled == pytest.approx(abs(0.5 - 2.0j) ** 2 * base, rel=1e-12)
    assert base == pytest.approx(l2_inner(psi, psi).real, abs=1e-12)


def test_gram_positivity_vacuum():
    report = gram_positivity([vacuum(2.0)], KC, 2.0, 6, 6)
    assert report["min_eigenvalue"] >= -1e-9


def test_gram_positivity_far_separated_pair():
    s = 1.5
    a = vacuum(s)
    b = GaussianSection(s, [GaussianTerm(1.0, (0.45, 0.45), (0.0, 0.0))])
    joint = gram_positivity([a, b], KC, s, 5, 4)
    assert joint["min_eigenvalue"] >= -1e-9
    # far-separated copies decouple: spectrum is near the union of singles
    far = GaussianSection(s, [GaussianTerm(1.0, (40.0, 0.0), (0.0, 0.0))])
    split = gram_positivity([a, far], KC, s, 5, 4)
    single = gram_positivity([a], KC, s, 5, 4)
    assert split["max_eigenvalue"] == pytest.approx(single["max_eigenvalue"], rel=1e-6)


def test_gram_positivity_three_random_packets():
    s = 1.3
    secs = [random_section(s, n_terms=2, spread=0.7) for _ in range(3)]
    report = gram_positivity(secs, KC, s, 5, 4)
    assert report["min_eigenvalue"] >= -1e-9


def test_truncation_tail_dominates_radius_increment():
    s = 1.0
    psi = random_section(s, spread=0.4)
    small = module_inner(psi, psi, 4)
    large = module_inner(psi, psi, 6)
    new_coeffs = [
        abs(z) for g, z in large.terms.items() if g not in small.terms
    ]
    scale = sum(abs(t.coeff) for t in psi.terms) ** 2
    tail = math.exp(-(math.pi * s / 2.0) * 4**2)
    assert max(new_coeffs, default=0.0) <= 20.0 * scale * tail


def test_section_serialization_roundtrip():
    psi = random_section(1.9, n_terms=3)
    back = GaussianSection.from_json(psi.to_json())
    assert back.s == psi.s
    for t1, t2 in zip(psi.terms, back.terms):
        assert t1 == t2
