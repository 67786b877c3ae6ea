import cmath
import json
import math

import numpy as np
import pytest

from quantlab import sections
from quantlab.algebra import (
    AlgebraElement,
    KappaCocycle,
    ball_points,
    involution,
    multiply,
    regular_representation,
)
from quantlab.cocycle import cocycle_table, landau_gauge
from quantlab.sections import (
    GaussianSection,
    gram_positivity,
    l2_inner,
    module_inner,
    project_act,
    vacuum,
)

from oracles import gaussian_quadrature_inner, gram_blocks_loop, hermitian_defect, l2_inner_loop

rng = np.random.default_rng(905)
KC = KappaCocycle()


def random_section(s, n_terms=2, spread=1.0):
    draws = [
        (
            complex(*rng.normal(size=2)),
            rng.normal(scale=spread, size=2),
            rng.normal(scale=2.0, size=2),
        )
        for _ in range(n_terms)
    ]
    return GaussianSection(s, *zip(*draws))


def test_project_act_identity():
    psi = offset_section(np.random.default_rng(17), 1.7, 3)  # own stream: later draws unchanged
    moved = project_act(psi, (0, 0))
    for name in ("coeffs", "centers", "waves"):
        assert np.array_equal(getattr(moved, name), getattr(psi, name))


@pytest.mark.parametrize(
    "coeffs, centers, waves",
    [
        ([1.0, 2.0], [[0.0, 0.0]], [[0.0, 0.0]]),  # two coefficients, one center
        ([1.0], [[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]),  # one center, two waves
        ([1.0], [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]]),  # three coordinates
        ([[1.0]], [[0.0, 0.0]], [[0.0, 0.0]]),  # 2-D coefficients
        ([], np.zeros((0, 2)), np.zeros((0, 2))),  # no term
    ],
)
def test_section_rejects_malformed_term_arrays(coeffs, centers, waves):
    with pytest.raises(ValueError):
        GaussianSection(1.0, coeffs, centers, waves)


def test_project_act_vacuum_translation():
    s = 1.4
    n, m = 2, -3
    moved = project_act(vacuum(s), (n, m))
    assert np.array_equal(moved.centers, [[-n, -m]])
    assert moved.waves[0] == pytest.approx((s * math.pi * m, -s * math.pi * n))
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
        assert np.abs(lhs.coeffs - twist * rhs.coeffs).max() < 1e-12
        assert lhs.centers == pytest.approx(rhs.centers)
        assert lhs.waves == pytest.approx(rhs.waves)


def test_l2_inner_vacuum_normalization():
    for s in (0.5, 1.0, 2.0, 3.7):
        assert l2_inner(vacuum(s), vacuum(s)) == pytest.approx(1.0 / s, abs=1e-14)
        # the pairing is sesquilinear: scaling by z scales the norm by |z|^2
        scaled = GaussianSection(s, [0.5 - 2.0j], [[0.0, 0.0]], [[0.0, 0.0]])
        assert l2_inner(scaled, scaled) == pytest.approx(abs(0.5 - 2.0j) ** 2 / s, rel=1e-14)


def test_l2_inner_far_separated_bound():
    s, d = 1.0, 8.0
    near = vacuum(s)
    far = GaussianSection(s, [1.0], [[d, 0.0]], [[0.0, 0.0]])
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
    draws = [
        (
            complex(*gen.normal(size=2)),
            gen.uniform(-1.5, 1.5, size=2),
            gen.uniform(-2.0, 2.0, size=2),
        )
        for _ in range(n_terms)
    ]
    return GaussianSection(s, *zip(*draws))


def pairing_scale(psi, phi):
    """(sum |c|)(sum |c'|) / s, a bound on every term-pair contribution."""
    return np.abs(psi.coeffs).sum() * np.abs(phi.coeffs).sum() / psi.s


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


def test_gram_positivity_vacuum():
    report = gram_positivity([vacuum(2.0)], KC, 2.0, 6, 6)
    assert report["min_eigenvalue"] >= -1e-9


def test_gram_positivity_far_separated_pair():
    s = 1.5
    a = vacuum(s)
    b = GaussianSection(s, [1.0], [[0.45, 0.45]], [[0.0, 0.0]])
    joint = gram_positivity([a, b], KC, s, 5, 4)
    assert joint["min_eigenvalue"] >= -1e-9
    # far-separated copies decouple: spectrum is near the union of singles
    far = GaussianSection(s, [1.0], [[40.0, 0.0]], [[0.0, 0.0]])
    split = gram_positivity([a, far], KC, s, 5, 4)
    single = gram_positivity([a], KC, s, 5, 4)
    assert split["max_eigenvalue"] == pytest.approx(single["max_eigenvalue"], rel=1e-6)


def test_gram_positivity_three_random_packets():
    s = 1.3
    secs = [random_section(s, n_terms=2, spread=0.7) for _ in range(3)]
    report = gram_positivity(secs, KC, s, 5, 4)
    assert report["min_eigenvalue"] >= -1e-9


def test_gram_positivity_matches_eigvalsh_of_the_full_hermitian_matrix():
    # overlapping sections couple the blocks, so a solve that read the zero
    # lower blocks instead of the upper ones would see other eigenvalues
    s, radius = 1.5, 3
    secs = [
        vacuum(s),
        GaussianSection(s, [1.0, 0.5j], [[0.2, -0.1], [-0.3, 0.25]], [[1.0, -0.5], [0.0, 2.0]]),
        GaussianSection(s, [0.7 - 0.2j], [[0.35, 0.3]], [[-1.5, 0.5]]),
    ]
    report = gram_positivity(secs, KC, s, radius, radius)
    upper = {
        (i, j): regular_representation(module_inner(secs[i], secs[j], radius), KC, s, radius)
        for i in range(3)
        for j in range(i, 3)
    }
    full = np.block(
        [[upper[i, j] if j >= i else upper[j, i].conj().T for j in range(3)] for i in range(3)]
    )
    eigvals = np.linalg.eigvalsh(full)
    assert report["dimension"] == full.shape[0] == 3 * 49
    assert report["min_eigenvalue"] == pytest.approx(eigvals[0], rel=1e-9, abs=1e-12)
    assert report["max_eigenvalue"] == pytest.approx(eigvals[-1], rel=1e-12)


def count_calls(monkeypatch, *names):
    """Call counts of the named ``sections`` functions, filled in as they run."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(sections, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(sections, name, counted)
    return calls


@pytest.mark.parametrize("k", [1, 2, 4])
def test_gram_positivity_translates_each_section_once_per_ball_point(k, monkeypatch):
    # one translation batch covers every section at every ball point, and
    # one pairing call per point gives all k x k pairings there
    calls = count_calls(monkeypatch, "_translates", "project_act", "l2_inner")
    s, radius, points = 1.5, 3, 7**2
    secs = [offset_section(np.random.default_rng(40 + i), s, 2) for i in range(k)]
    gram_positivity(secs, KC, s, radius, 2)
    assert calls == {"_translates": 1, "project_act": 0, "l2_inner": points}


def test_translation_batch_is_project_act_at_each_point():
    # alone or pooled with others, each section's translate is project_act's to the bit
    gen = np.random.default_rng(33)
    points = ball_points(3)
    n, m = np.array(points).T
    singles = [[vacuum(1.2)], [offset_section(gen, 0.8, 1)], [offset_section(gen, 1.7, 5)]]
    ragged = [vacuum(1.1), offset_section(gen, 1.1, 5), offset_section(gen, 1.1, 1)]
    for secs in [*singles, ragged]:
        rows = np.cumsum([0] + [len(psi.coeffs) for psi in secs])
        for gamma, moved in zip(points, sections._translates(sections._pool(secs), n, m)):
            for i, psi in enumerate(secs):
                single, own = project_act(psi, gamma), slice(rows[i], rows[i + 1])
                assert moved.coeffs[own, i].tobytes() == single.coeffs.tobytes()
                assert moved.centers[own].tobytes() == single.centers.tobytes()
                assert moved.waves[own].tobytes() == single.waves.tobytes()
                assert not np.delete(moved.coeffs[:, i], own).any()


@pytest.mark.parametrize("s", [0.5, 1.5, 4.0])
def test_pairing_matrix_matches_the_term_pair_loop_on_ragged_sections(s):
    # one pairing call per point pools sections of 1, 3 and 6 terms
    gen = np.random.default_rng(int(100 * s))
    psis = [offset_section(gen, s, n_terms) for n_terms in (1, 3, 6)]
    phis = [offset_section(gen, s, 6), offset_section(gen, s, 2)]
    radius = 3
    pairings = sections._pairings(psis, phis, radius)
    assert pairings.shape == ((2 * radius + 1) ** 2, 3, 2)
    for matrix, gamma in zip(pairings, ball_points(radius)):
        for i, psi in enumerate(psis):
            moved = project_act(psi, gamma)
            for j, phi in enumerate(phis):
                expected = l2_inner_loop(moved, phi)
                assert abs(matrix[i, j] - expected) <= 1e-13 * pairing_scale(psi, phi)


def test_module_gram_runs_make_one_pairing_call_per_ball_point(monkeypatch, tmp_path):
    # the benchmark pins the default run's 2 * 13^2 calls: a change to either count shows here first
    from quantlab.cli import main

    path, output = tmp_path / "sections.jsonl", str(tmp_path / "gram.json")
    with open(path, "w") as fh:
        for psi in seeded_sections(8):
            terms = zip(psi.coeffs, psi.centers.tolist(), psi.waves.tolist())
            records = [
                {"re": c.real, "im": c.imag, "mux": x, "muy": y, "kx": kx, "ky": ky, "s": 1.5}
                for c, (x, y), (kx, ky) in terms
            ]
            fh.write(json.dumps(records) + "\n")
    calls = count_calls(monkeypatch, "l2_inner")
    assert main(["module-gram", "--output", output]) == 0
    assert calls["l2_inner"] == 2 * 13**2  # the vacuum Gram, then the vacuum deviation
    calls["l2_inner"] = 0
    argv = ["--s", "1.5", "--radius", "8", "--rep-radius", "6", "--sections", str(path)]
    assert main(["module-gram", *argv, "--output", output]) == 0
    assert calls["l2_inner"] == (2 * 8 + 1) ** 2  # one 4 x 4 matrix per point of the reach-8 ball


LANDAU = cocycle_table(landau_gauge(), 8)  # every hop between points of a radius-4 ball


def seeded_sections(seed, count=4, terms=6, s=1.5):
    """Sections shaped like the benchmark's: centres within 0.5, waves within 2."""
    gen = np.random.default_rng(seed)
    return [
        GaussianSection(
            s,
            gen.uniform(-1, 1, terms) + 1j * gen.uniform(-1, 1, terms),
            gen.uniform(-0.5, 0.5, (terms, 2)),
            gen.uniform(-2, 2, (terms, 2)),
        )
        for _ in range(count)
    ]


# at kappa = pi and s = 1.5 every twist angle is a multiple of pi / 2, where
# numpy's complex product is exact in either operand order; kappa = 0.37 is not
@pytest.mark.parametrize(
    "cocycle", [KC, KappaCocycle(0.37), LANDAU], ids=["kappa-pi", "kappa-0.37", "landau"]
)
@pytest.mark.parametrize("radius, rep_radius", [(3, 3), (5, 3), (2, 4), (7, 2)])
def test_gram_upper_is_the_per_block_assembly_bit_for_bit(radius, rep_radius, cocycle):
    secs = seeded_sections(radius * 10 + rep_radius, count=3, terms=3)
    big = sections._gram_upper(secs, cocycle, 1.5, radius, rep_radius)
    assert big.flags.f_contiguous
    assert big.tobytes() == gram_blocks_loop(secs, cocycle, 1.5, radius, rep_radius).tobytes()


def test_gram_upper_keeps_the_zero_blocks_of_far_apart_sections_positive_zero():
    # the cross pairings underflow to 0, and 0 times a twist can be -0.0
    psi = seeded_sections(5, count=1)[0]
    secs = [psi, project_act(psi, (-40, 0))]
    big = sections._gram_upper(secs, KC, 1.5, 5, 4)
    assert big.tobytes() == gram_blocks_loop(secs, KC, 1.5, 5, 4).tobytes()
    cross = big[:81, 81:]
    assert not (cross != 0).any() and not (np.signbit(cross.real) | np.signbit(cross.imag)).any()


def full_hermitian(upper):
    return np.triu(upper) + np.triu(upper, 1).conj().T


@pytest.mark.parametrize("case", ["benchmark-shape", "doubled-bottom"])
def test_gram_positivity_extremes_are_the_ends_of_the_spectrum(case):
    secs = seeded_sections(2024)
    if case == "doubled-bottom":
        # a far magnetic translate pairs to exactly 0 with the original and
        # repeats its spectrum, so every eigenvalue is doubled
        secs = [secs[0], project_act(secs[0], (-40, 0))]
    report = gram_positivity(secs, KC, 1.5, 8, 6)
    eigvals = np.linalg.eigvalsh(full_hermitian(sections._gram_upper(secs, KC, 1.5, 8, 6)))
    if case == "doubled-bottom":
        assert eigvals[1] - eigvals[0] <= 1e-12 * eigvals[-1] < eigvals[2] - eigvals[1]
    assert report["dimension"] == len(eigvals)
    assert report["min_eigenvalue"] == pytest.approx(eigvals[0], rel=1e-12)
    assert report["max_eigenvalue"] == pytest.approx(eigvals[-1], rel=1e-12)


def test_gram_positivity_pairs_only_the_ball_the_compression_reads(monkeypatch):
    # rep_radius 2 reads hops up to 4: the radius-7 pairings past that are never used
    s, radius, rep_radius = 1.5, 7, 2
    secs = seeded_sections(77, count=3, terms=3)
    full = gram_blocks_loop(secs, KC, s, radius, rep_radius)
    calls = count_calls(monkeypatch, "l2_inner")
    report = gram_positivity(secs, KC, s, radius, rep_radius)
    assert calls["l2_inner"] == (2 * 4 + 1) ** 2  # one k x k matrix per point
    monkeypatch.setattr(sections, "_gram_upper", lambda *args: full.copy(order="F"))
    assert report == gram_positivity(secs, KC, s, radius, rep_radius)
    assert report["tail_bound"] == math.exp(-(math.pi * s / 2.0) * radius**2)


def test_truncation_tail_dominates_radius_increment():
    s = 1.0
    psi = random_section(s, spread=0.4)
    small = module_inner(psi, psi, 4)
    large = module_inner(psi, psi, 6)
    new_coeffs = [
        abs(z) for g, z in large.terms.items() if g not in small.terms
    ]
    scale = np.abs(psi.coeffs).sum() ** 2
    tail = math.exp(-(math.pi * s / 2.0) * 4**2)
    assert max(new_coeffs, default=0.0) <= 20.0 * scale * tail


def test_section_from_json_records():
    text = (
        '[{"re": 1.5, "im": -0.25, "mux": 0.5, "muy": -1, "kx": 2, "ky": 0.125, "s": 1.9},'
        ' {"re": 0, "im": 3, "mux": -2.5, "muy": 0, "kx": -1, "ky": 4, "s": 1.9}]'
    )
    psi = GaussianSection.from_json(text)
    assert psi.s == 1.9
    assert np.array_equal(psi.coeffs, [1.5 - 0.25j, 3j])
    assert np.array_equal(psi.centers, [[0.5, -1.0], [-2.5, 0.0]])
    assert np.array_equal(psi.waves, [[2.0, 0.125], [-1.0, 4.0]])


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '[{"re": 1, "im": 0, "mux": 0, "muy": 0, "kx": 0, "ky": 0, "s": 1},'
        ' {"re": 1, "im": 0, "mux": 0, "muy": 0, "kx": 0, "ky": 0, "s": 2}]',
    ],
)
def test_section_from_json_rejects_no_terms_and_mixed_widths(text):
    with pytest.raises(ValueError):
        GaussianSection.from_json(text)
