import cmath
import math
import sys
import warnings

import numpy as np
import pytest

from quantlab import algebra, cocycle, sections
from quantlab.algebra import (
    E,
    U,
    V,
    AlgebraElement,
    KappaCocycle,
    ball_index,
    ball_points,
    compose,
    harper_element,
    involution,
    multiply,
    norm_estimate,
    norm_profile,
    regular_representation,
    sigma,
    trace,
)
from quantlab.errors import ConvergenceError

from oracles import (
    coupling_components_loop,
    dense_gram_top,
    hofstadter_bloch_norm,
    regular_representation_loop,
    twisted_convolution,
)

rng = np.random.default_rng(1123)
KC = KappaCocycle()


def random_element(n_terms=5, bound=3):
    terms = {}
    while len(terms) < n_terms:
        g = (int(rng.integers(-bound, bound + 1)), int(rng.integers(-bound, bound + 1)))
        terms[g] = complex(*rng.normal(size=2))
    return AlgebraElement(terms)


def max_coeff_diff(a: AlgebraElement, b: AlgebraElement) -> float:
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.coefficient(g) - b.coefficient(g)) for g in keys), default=0.0)


def test_generator_product_phase():
    s = 0.73
    uv = multiply(AlgebraElement.basis(U), AlgebraElement.basis(V), KC, s)
    assert uv.terms.keys() == {(1, 1)}
    assert uv.coefficient((1, 1)) == pytest.approx(cmath.exp(-1j * math.pi * s), abs=1e-15)


def test_identity_is_neutral():
    a = random_element()
    assert max_coeff_diff(multiply(AlgebraElement.unit(), a, KC, 0.41), a) < 1e-15
    assert max_coeff_diff(multiply(a, AlgebraElement.unit(), KC, 0.41), a) < 1e-15


def test_multiply_against_convolution_oracle():
    s = 0.37
    a, b = random_element(), random_element()
    product = multiply(a, b, KC, s)
    expected = twisted_convolution(a.terms, b.terms, math.pi, s)
    keys = set(product.terms) | set(expected)
    worst = max(abs(product.coefficient(g) - expected.get(g, 0.0)) for g in keys)
    assert worst < 1e-13


def test_commutation_relation():
    for s in (0.1, 0.5, math.sqrt(2) - 1):
        uv = multiply(AlgebraElement.basis(U), AlgebraElement.basis(V), KC, s)
        vu = multiply(AlgebraElement.basis(V), AlgebraElement.basis(U), KC, s)
        ratio = vu.coefficient((1, 1)) / uv.coefficient((1, 1))
        assert abs(ratio - cmath.exp(2j * math.pi * s)) < 1e-14


def test_involution_of_generator():
    star = involution(AlgebraElement.basis(U), KC, 0.9)
    assert star.terms == {(-1, 0): 1.0}


def test_involution_antihomomorphism():
    s = 0.59
    a, b = random_element(), random_element()
    lhs = involution(multiply(a, b, KC, s), KC, s)
    rhs = multiply(involution(b, KC, s), involution(a, KC, s), KC, s)
    assert max_coeff_diff(lhs, rhs) < 1e-13


def test_involution_is_involutive():
    s = 1.37
    a = random_element()
    assert max_coeff_diff(involution(involution(a, KC, s), KC, s), a) < 1e-14


def test_involution_of_generator_product():
    s = 0.27
    uv = multiply(AlgebraElement.basis(U), AlgebraElement.basis(V), KC, s)
    star = involution(uv, KC, s)
    assert set(star.terms) == {(-1, -1)}
    assert star.coefficient((-1, -1)) == pytest.approx(
        cmath.exp(1j * math.pi * s), abs=1e-15
    )


def test_trace_normalization_and_offdiagonal():
    assert trace(AlgebraElement.unit()) == pytest.approx(1.0)
    uv = multiply(AlgebraElement.basis(U), AlgebraElement.basis(V), KC, 0.8)
    assert trace(uv) == 0.0


def test_trace_is_tracial_and_positive():
    s = 0.63
    a, b = random_element(), random_element()
    ab = trace(multiply(a, b, KC, s))
    ba = trace(multiply(b, a, KC, s))
    assert abs(ab - ba) < 1e-12
    norm_sq = trace(multiply(involution(a, KC, s), a, KC, s))
    parseval = sum(abs(z) ** 2 for z in a.terms.values())
    assert norm_sq.imag == pytest.approx(0.0, abs=1e-13)
    assert norm_sq.real == pytest.approx(parseval, abs=1e-12)
    assert norm_sq.real >= 0.0


def test_cocycle_identity_random_triples():
    # the integer factor of the closed form satisfies the identity exactly;
    # in floats each of the four terms carries at most half an ulp of
    # kappa * 5000 ~ 1.6e4, so the additive residual stays below 4e-12
    worst = 0.0
    for _ in range(10_000):
        g1, g2, g3 = (
            tuple(int(v) for v in rng.integers(-50, 51, 2)) for _ in range(3)
        )
        exact = (
            (g2[1] * g3[0] - g2[0] * g3[1])
            - (compose(g1, g2)[1] * g3[0] - compose(g1, g2)[0] * g3[1])
            + (g1[1] * compose(g2, g3)[0] - g1[0] * compose(g2, g3)[1])
            - (g1[1] * g2[0] - g1[0] * g2[1])
        )
        assert exact == 0
        residual = abs(
            KC(g2, g3) - KC(compose(g1, g2), g3) + KC(g1, compose(g2, g3)) - KC(g1, g2)
        )
        worst = max(worst, residual)
    assert worst <= 4e-12


def test_associativity_random():
    s = 0.81
    a, b, c = random_element(), random_element(), random_element()
    left = multiply(multiply(a, b, KC, s), c, KC, s)
    right = multiply(a, multiply(b, c, KC, s), KC, s)
    assert max_coeff_diff(left, right) < 1e-12


def test_regular_representation_identity():
    mat = regular_representation(AlgebraElement.unit(), KC, 0.4, 3)
    assert np.abs(mat - np.eye(49)).max() == 0.0


def test_regular_representation_generator_hand_oracle():
    s, radius = 0.5, 1
    mat = regular_representation(AlgebraElement.basis(U), KC, s, radius)
    points = ball_points(radius)
    expected = np.zeros((9, 9), dtype=complex)
    for col, g in enumerate(points):
        target = compose(U, g)
        if target in points:
            expected[points.index(target), col] = sigma(KC, s, U, g)
    assert np.abs(mat - expected).max() < 1e-15
    # partial permutation with unit-modulus phases
    nonzero = np.abs(mat[np.abs(mat) > 0])
    assert np.allclose(nonzero, 1.0)
    assert (np.abs(mat) > 0).sum(axis=0).max() <= 1


def test_regular_representation_positive_element():
    s = 0.77
    a = random_element()
    gram = multiply(involution(a, KC, s), a, KC, s)
    mat = regular_representation(gram, KC, s, 8)
    assert np.abs(mat - mat.conj().T).max() < 1e-12
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    assert eigs.min() >= -1e-9


def test_regular_representation_multiplicative_on_inner_ball():
    s, radius = 0.37, 8
    a, b = random_element(n_terms=4, bound=2), random_element(n_terms=4, bound=2)
    ra = regular_representation(a, KC, s, radius)
    rb = regular_representation(b, KC, s, radius)
    rab = regular_representation(multiply(a, b, KC, s), KC, s, radius)
    points = ball_points(radius)
    inner_radius = radius - a.support_radius() - b.support_radius()
    cols = [
        i
        for i, g in enumerate(points)
        if max(abs(g[0]), abs(g[1])) <= inner_radius
    ]
    assert np.abs((rab - ra @ rb)[:, cols]).max() < 1e-12


def test_regular_representation_rejects_bad_radius():
    for radius in (0, -2):
        with pytest.raises(ValueError, match=rf"^truncation radius must be positive, got {radius}$"):
            regular_representation(AlgebraElement.unit(), KC, 0.1, radius)
        with pytest.raises(ValueError, match=rf"^truncation radius must be positive, got {radius}$"):
            norm_estimate(AlgebraElement.unit(), KC, 0.1, radius)


def test_regular_representation_warns_on_lossy_truncation():
    wide = AlgebraElement.basis((5, 0))
    with pytest.warns(UserWarning) as caught:
        regular_representation(wide, KC, 0.1, 2)
        norm_estimate(wide, KC, 0.1, 2)
    # both point past quantlab's frames, at this caller
    assert [w.filename for w in caught] == [__file__, __file__]


def test_the_lossy_warning_names_the_caller_of_each_entry_point():
    # norm_profile calls norm_estimate, which calls the assembly: the warning
    # names the line here, not a frame inside the algebra module
    wide = AlgebraElement.basis((5, 0))
    with pytest.warns(UserWarning, match="lossy") as caught:
        regular_representation(wide, KC, 0.1, 2)
        norm_estimate(wide, KC, 0.1, 2)
        norm_profile(wide, [0.1], KC, 2)
    assert [w.filename for w in caught] == [__file__] * 3
    assert len({w.lineno for w in caught}) == 3


def test_a_term_within_twice_the_radius_is_kept_without_warning():
    # at R = 1 the hop (2, 0) still takes (-1, m) to (1, m): a compression, no dropped term
    a = AlgebraElement({E: 1.0, (2, 0): 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mat = regular_representation(a, KC, 0.5, 1)
        norm = norm_estimate(a, KC, 0.5, 1)
    assert np.count_nonzero(mat) == 9 + 3
    assert norm == pytest.approx((1 + math.sqrt(5)) / 2, rel=0, abs=1e-12)


def test_a_term_beyond_twice_the_radius_is_dropped_with_the_warning():
    a = AlgebraElement({E: 1.0, (3, 0): 1.0})
    with pytest.warns(UserWarning, match="lossy") as caught:
        mat = regular_representation(a, KC, 0.5, 1)
        norm = norm_estimate(a, KC, 0.5, 1)
    assert [w.filename for w in caught] == [__file__, __file__]
    assert np.array_equal(mat, np.eye(9)) and norm == 1.0


def test_gram_positivity_with_reach_twice_the_rep_radius_warns_of_nothing():
    # reach = min(3, 2 * 1) = 2: the twist table's indicator hops no farther than 2R
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = sections.gram_positivity([sections.vacuum(2.0)], KC, 2.0, 3, 1)
    assert report["dimension"] == 9 and report["min_eigenvalue"] > 0


@pytest.mark.parametrize("tabulated", [False, True], ids=["kappa", "tabulated"])
def test_regular_representation_is_the_sparse_assembly_bit_for_bit(tabulated):
    gen = np.random.default_rng(2107)  # own stream: later draws of rng unchanged
    table = cocycle.cocycle_table(cocycle.landau_gauge(), 2) if tabulated else KC
    for radius in (1, 3, 4):
        for s in (0.0, 0.45, 1.7):
            shifts = gen.integers(-radius, radius + 1, size=(6, 2)).tolist()
            a = AlgebraElement({tuple(g): complex(*gen.normal(size=2)) for g in shifts})
            dense = regular_representation(a, table, s, radius)
            sparse = algebra._regular_rep_sparse(a, table, s, radius).toarray()
            assert dense.dtype == sparse.dtype and dense.shape == sparse.shape
            assert dense.tobytes() == sparse.tobytes()


@pytest.mark.parametrize("radius", [1, 3, 6])
def test_regular_representation_matches_entrywise_oracle(radius):
    for s in (0.0, 0.31, 0.77, 1.6):
        # supports reach past the ball for radius 1 and 3: lossy compressions
        a = random_element(n_terms=6, bound=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            mat = regular_representation(a, KC, s, radius)
        assert np.abs(mat - regular_representation_loop(a, KC, s, radius)).max() <= 1e-14


def test_element_outside_the_ball_compresses_to_zero():
    gone = AlgebraElement({(4, 0): 1.0, (-2, 5): 2.0 - 1j})
    with pytest.warns(UserWarning):
        mat = regular_representation(gone, KC, 0.3, 1)
    assert not mat.any()
    with pytest.warns(UserWarning):
        assert norm_estimate(gone, KC, 0.3, 1) == 0.0


def test_a_hop_beyond_int64_is_dropped_before_assembly():
    # a hop longer than 2R leaves the ball from every column, so dropping it is
    # exact; the int64 shift array and the coset lattice used to overflow on it
    far = AlgebraElement({E: 1.0, (10**20, 0): 1.0})
    with pytest.warns(UserWarning, match="lossy"):
        assert norm_estimate(far, KC, 0.3, 2) == 1.0
    with pytest.warns(UserWarning, match="lossy"):
        mat = regular_representation(far, KC, 0.3, 2)
    assert np.array_equal(mat, regular_representation(AlgebraElement.unit(), KC, 0.3, 2))


@pytest.mark.parametrize("s", [0.1, 0.3, 0.7, 0.9])
def test_norm_estimate_is_the_dense_compression_norm_harper(s):
    h = harper_element(KC, 0.0)
    dense = np.linalg.norm(regular_representation(h, KC, s, 13), 2)
    assert norm_estimate(h, KC, s, 13) == pytest.approx(dense, rel=1e-10, abs=0.0)


# hop lattices of index 2 or more: [U]+[U]* spans 2Z x 0, this one an index-3 lattice
SUBLATTICE_ELEMENTS = [
    AlgebraElement.basis(U) + involution(AlgebraElement.basis(U), KC, 0.0),
    AlgebraElement({E: 0.7, (1, 1): 1.0 - 0.4j, (-1, 2): 0.3 + 1.1j}),
]


@pytest.mark.parametrize("radius", [4, 8, 12])
def test_norm_estimate_is_the_dense_compression_norm_random(radius):
    for s in (0.23, 0.64):
        for a in (random_element(n_terms=6, bound=3), *SUBLATTICE_ELEMENTS):
            dense = np.linalg.norm(regular_representation(a, KC, s, radius), 2)
            assert norm_estimate(a, KC, s, radius) == pytest.approx(dense, rel=1e-10, abs=0.0)


def _band(mat) -> int:
    gram = (mat.conj().T @ mat).tocoo()
    return int(np.abs(gram.col - gram.row).max())


def _solved_matrices(monkeypatch) -> list:
    """The matrices ``norm_estimate`` hands to ``_gram_top`` from now on."""
    seen, gram_top = [], algebra._gram_top

    def spy(mat, bound):
        seen.append(mat)
        return gram_top(mat, bound)

    monkeypatch.setattr(algebra, "_gram_top", spy)
    return seen


@pytest.mark.parametrize("radius", [4, 13])
def test_norm_estimate_solves_the_harper_gram_on_half_the_band(monkeypatch, radius):
    # checkerboard cosets: 2R+1 in place of the lexicographic 2(2R+1)
    h = harper_element(KC, 0.0)
    seen = _solved_matrices(monkeypatch)
    norm_estimate(h, KC, 0.3, radius)
    assert _band(seen[0]) == 2 * radius + 1
    assert _band(algebra._regular_rep_sparse(h, KC, 0.3, radius)) == 2 * (2 * radius + 1)


def test_norm_estimate_keeps_ball_order_when_the_hops_span_the_lattice(monkeypatch):
    a = AlgebraElement({U: 0.5 - 1.0j, E: 1.0, V: 2.0, (1, 1): -0.3j})  # U first: Euclid ends on p = -1
    assert algebra._coset_order(a, 6).tolist() == list(range(13 * 13))
    seen = _solved_matrices(monkeypatch)
    for s in (0.0, 0.37):
        value = norm_estimate(a, KC, s, 6)
        mat = algebra._regular_rep_sparse(a, KC, s, 6)
        assert seen[-1].toarray().tobytes() == mat.toarray().tobytes()
        assert value == math.sqrt(algebra._gram_top(mat, a.l1_norm() ** 2))


_support_rng = np.random.default_rng(2207)  # own stream: later draws of rng unchanged
COUPLING_SUPPORTS = [
    *([tuple(map(int, g)) for g in _support_rng.integers(-2, 3, size=(4, 2))] for _ in range(8)),
    [U, (-1, 0)],
    [(2, -1)],
    [],
]


@pytest.mark.parametrize("support", COUPLING_SUPPORTS, ids=str)
@pytest.mark.parametrize("radius", [4, 6])
def test_coset_order_lists_each_coupling_component_contiguously(support, radius):
    # radius >= 4, the longest hop difference, so each coset meets the ball in
    # one component and a few isolated points; an isolated point couples to
    # nothing in A* A, so where it sits cannot widen the band
    order = algebra._coset_order(AlgebraElement({g: 1.0 for g in support}), radius)
    components = coupling_components_loop(support, radius)
    isolated = {ball_index(*c[0], radius) for c in components if len(c) == 1}
    position = {int(i): k for k, i in enumerate(i for i in order if i not in isolated)}
    for component in components:
        if len(component) > 1:
            at = [position[ball_index(n, m, radius)] for n, m in component]
            assert at == list(range(at[0], at[0] + len(at)))  # contiguous, lexicographic


def test_overflowing_twist_is_rejected_before_any_factorization(monkeypatch):
    # s * phase overflowed to inf: NaN entries and 60 failed factorizations
    h = harper_element(KC, 0.0)
    monkeypatch.setattr(algebra, "_gram_top", None)
    for compute in (regular_representation, norm_estimate):
        with pytest.raises(ValueError, match="not a finite angle"):
            compute(h, KC, 1e308, 3)
    # a zero cocycle value keeps every angle finite
    assert np.array_equal(regular_representation(AlgebraElement.unit(), KC, 1e308, 2), np.eye(25))


def test_multiply_and_involution_reject_an_overflowing_twist():
    # cmath.exp of the infinite angle raised a bare "math domain error"
    h = harper_element(KC, 0.0)
    with pytest.raises(ValueError, match=r"twist s = 1e\+308 times a cocycle value is not a finite angle"):
        multiply(h, h, KC, 1e308)
    landau = cocycle.cocycle_table(cocycle.landau_gauge(), 2)  # c(g, g^-1) = 2 pi at g = (1, 1)
    with pytest.raises(ValueError, match="not a finite angle"):
        involution(AlgebraElement.basis((1, 1)), landau, 1e308)
    # a zero cocycle value keeps the angle finite
    assert multiply(AlgebraElement.unit(), h, KC, 1e308).terms == h.terms


def test_norm_estimate_raises_when_the_bracket_stays_open(monkeypatch):
    monkeypatch.setattr(algebra, "_NORM_MAX_STEPS", 1)
    with pytest.raises(ConvergenceError):
        norm_estimate(harper_element(KC, 0.0), KC, 0.1, 13)


def test_harper_profile_at_radius_13_takes_at_most_59_factorizations(monkeypatch):
    # 59 before one Rayleigh quotient per factorization (56 after); more means slower convergence
    factored = []
    cholesky_banded = algebra.la.cholesky_banded

    def recorded(*args, **kwargs):
        factored.append(args)
        return cholesky_banded(*args, **kwargs)

    monkeypatch.setattr(algebra.la, "cholesky_banded", recorded)
    norm_profile(harper_element(KC, 0.0), [k / 10 for k in range(11)], KC, 13)
    assert 11 <= len(factored) <= 59


_gram_rng = np.random.default_rng(2411)  # own stream: later draws of rng unchanged
GRAM_ELEMENTS = [
    AlgebraElement({tuple(map(int, g)): complex(*_gram_rng.normal(size=2)) for g in support})
    for support in (_gram_rng.integers(-2, 3, size=(terms, 2)) for terms in (1, 2, 3, 4, 5, 6, 6, 6))
]


@pytest.mark.parametrize("a", GRAM_ELEMENTS)
@pytest.mark.parametrize("s", [0.0, 0.37])
def test_gram_top_is_certified_against_the_dense_top(a, s):
    # the returned lower end is a Rayleigh quotient: at most rounding above the
    # top eigenvalue, and within the bracket's relative width below it
    mat = algebra._regular_rep_sparse(a, KC, s, 5)
    top = dense_gram_top(mat)
    value = algebra._gram_top(mat, a.l1_norm() ** 2)
    eps = np.finfo(float).eps
    assert top * (1 - algebra._NORM_REL_WIDTH) <= value <= top * (1 + 4 * eps)


@pytest.mark.parametrize("k", [600, -600])
@pytest.mark.parametrize("a", [harper_element(KC, 0.0), *GRAM_ELEMENTS[3:6], *SUBLATTICE_ELEMENTS])
def test_norm_estimate_scales_by_powers_of_two_bit_for_bit(a, k):
    # 2**600 * l1 squared overflowed, 2**-600 * l1 squared underflowed
    for s in (0.0, 0.37):
        assert norm_estimate(a.scale(2.0**k), KC, s, 6) == math.ldexp(norm_estimate(a, KC, s, 6), k)


def test_l1_norm_is_a_float_for_the_empty_element():
    # the empty sum was the int 0
    assert type(AlgebraElement({}).l1_norm()) is float
    assert AlgebraElement({}).l1_norm() == 0.0
    assert type(harper_element(KC, 0.3).l1_norm()) is float


def test_norm_of_basis_elements():
    for g in [(0, 0), (1, 0), (2, -3)]:
        for radius in (4, 7):
            assert norm_estimate(AlgebraElement.basis(g), KC, 0.33, radius) == pytest.approx(
                1.0, abs=1e-12
            )


def test_harper_norm_flat_case():
    h = harper_element(KC, 0.0)
    estimate = norm_estimate(h, KC, 0.0, 40)
    oracle = hofstadter_bloch_norm(0, 1)
    assert abs(oracle - 4.0) < 1e-9
    assert abs(estimate - 4.0) < 0.05


def test_harper_norm_half_flux():
    h = harper_element(KC, 0.5)
    estimate = norm_estimate(h, KC, 0.5, 40)
    oracle = hofstadter_bloch_norm(1, 2)
    assert abs(oracle - 2.0 * math.sqrt(2.0)) < 1e-6
    assert abs(estimate - 2.0 * math.sqrt(2.0)) < 0.01


def test_norm_estimate_monotone_and_l1_bounded():
    s = 0.29
    a = random_element()
    values = [norm_estimate(a, KC, s, radius) for radius in (4, 6, 8, 10)]
    assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(values, values[1:]))
    assert values[-1] <= a.l1_norm() + 1e-10


def test_norm_profile_identity_element():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    profile = norm_profile(AlgebraElement.unit(), grid, KC, 6)
    assert all(v == pytest.approx(1.0, abs=1e-12) for _, v in profile)


def test_norm_profile_harper_symmetry_and_values():
    grid = [round(0.1 * k, 1) for k in range(11)]
    h = harper_element(KC, 0.0)
    values = [norm for _, norm in norm_profile(h, grid, KC, 25)]
    assert max(abs(n1 - n0) for n0, n1 in zip(values, values[1:])) <= 0.6
    profile = dict(zip(grid, values))
    for s in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        assert profile[s] == pytest.approx(profile[round(1.0 - s, 1)], abs=1e-2)
    assert profile[0.0] == pytest.approx(4.0, abs=0.05)
    assert profile[0.5] == pytest.approx(2.0 * math.sqrt(2.0), abs=0.05)


def test_serialization_roundtrip_canonical_order():
    a = AlgebraElement({(1, -2): 0.5 + 1j, (-3, 0): 2.0, (1, 2): -1j})
    text = a.to_json()
    assert text.index('"n": -3') < text.index('"n": 1')
    back = AlgebraElement.from_json(text)
    assert max_coeff_diff(a, back) == 0.0


def test_serialization_refuses_a_coefficient_json_cannot_hold():
    # the product of two 1e200 terms overflows to inf, once written as Infinity
    product = multiply(
        AlgebraElement({(1, 0): 1e200}), AlgebraElement({(0, 1): 1e200}), KC, 0.5
    )
    assert not all(cmath.isfinite(z) for z in product.terms.values())
    with pytest.raises(ValueError, match="not JSON compliant"):
        product.to_json()
    finite = AlgebraElement({(1, 1): 1e200 - 1e-300j, (0, -1): 5e-324})
    assert max_coeff_diff(finite, AlgebraElement.from_json(finite.to_json())) == 0.0


def test_zero_coefficients_pruned():
    a = AlgebraElement({(0, 0): 1.0, (1, 1): 0.0})
    assert set(a.terms) == {(0, 0)}
    b = a - AlgebraElement.unit()
    assert len(b) == 0


def test_gate_fails_judges_each_deviation_at_its_own_scale():
    slack = algebra.ROUNDING * sys.float_info.epsilon
    assert algebra.gate_fails([], 1e-10) == 0
    assert algebra.gate_fails([(1e-10, 1.0), (0.0, 1e6)], 1e-10) == 0
    assert algebra.gate_fails([(1e-10, 1.0), (2e-10, 1.0)], 1e-10) == 1
    # past the bound, but rounding at the check's scale: it passes up to slack * scale
    assert algebra.gate_fails([(slack * 1e160, 1e160)], 1e-10) == 0
    assert algebra.gate_fails([(2 * slack * 1e160, 1e160)], 1e-10) == 1
    assert algebra.gate_fails([(math.nan, 1.0)], 1e-10) == 1
    assert algebra.gate_fails([(0.0, 1.0), (math.nan, 1e300)], 1e-10) == 1
