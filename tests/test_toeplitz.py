import cmath
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import quantlab.toeplitz as toeplitz_module
from quantlab import dolbeault
from quantlab.dolbeault import build_dolbeault, kernel_basis
from quantlab.errors import DegenerateToeplitzError
from quantlab.sections import GaussianSection, heisenberg_generator_check, l2_inner, vacuum
from quantlab.toeplitz import (
    NAMED_SYMBOLS,
    TrigPolynomial,
    commutator_defect,
    defect_sweep,
    first_order_defect,
    fit_loglog_slope,
    gradient_pairing,
    holomorphic_basis,
    poisson_bracket,
    product_defect,
    toeplitz,
    trace_limit_defect,
    weyl_relation,
)

from oracles import (
    clock_shift_scalar,
    cyclic_shift,
    fft_partials,
    sample,
    sample_loop,
    toeplitz_defects_separate,
    toeplitz_dense,
)

rng = np.random.default_rng(33)

F = NAMED_SYMBOLS["cos2pix"]
G = NAMED_SYMBOLS["cos2piy"]
SWEEP = [4, 6, 8, 12]


def random_symbol(n_modes=3, bound=2, real=True):
    modes = {}
    for _ in range(n_modes):
        j, k = (int(v) for v in rng.integers(-bound, bound + 1, 2))
        z = complex(*rng.normal(size=2))
        modes[(j, k)] = modes.get((j, k), 0.0) + z
        if real:
            modes[(-j, -k)] = modes.get((-j, -k), 0.0) + z.conjugate()
    return TrigPolynomial(modes)


def seeded_real_pair(seed):
    """Two real five-mode symbols from their own stream, leaving the module rng to the other tests."""
    local = np.random.default_rng(seed)

    def real_symbol():
        modes = {}
        for j, k in local.integers(-2, 3, (5, 2)).tolist():
            z = complex(*local.normal(size=2))
            modes[(j, k)] = modes.get((j, k), 0.0) + z
            modes[(-j, -k)] = modes.get((-j, -k), 0.0) + z.conjugate()
        return TrigPolynomial(modes)

    return real_symbol(), real_symbol()


@pytest.mark.parametrize("grid", [32, 72])
def test_separable_sample_matches_the_mode_loop(grid):
    local = np.random.default_rng(4)  # leaves the module rng to the other tests
    modes = local.integers(-4, 5, (12, 2))
    f = TrigPolynomial({(j, k): complex(*local.normal(size=2)) for j, k in modes} | {(4, -4): 0.5})
    assert np.abs(sample(f, grid) - sample_loop(f, grid)).max() <= 1e-12 * f.l1_norm()
    zero = sample(TrigPolynomial(), grid)
    assert zero.shape == (grid * grid,) and not zero.any()


def test_trig_polynomial_algebra():
    f = random_symbol()
    g = random_symbol()
    grid = 32
    sampled = sample(f * g, grid)
    direct = sample(f, grid) * sample(g, grid)
    assert np.abs(sampled - direct).max() < 1e-12
    assert f.is_real()
    assert abs((f * g).mean() - np.mean(direct)) < 1e-12


def test_poisson_bracket_antisymmetry_and_leibniz():
    f, g, h = random_symbol(), random_symbol(), random_symbol()
    anti = poisson_bracket(f, g) + poisson_bracket(g, f)
    assert all(abs(c) < 1e-12 for c in anti.terms.values())
    lhs = poisson_bracket(f, g * h)
    rhs = poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
    diff = lhs - rhs
    assert all(abs(c) < 1e-10 for c in diff.terms.values())


def test_gradient_pairing_antisymmetrization_identity():
    f, g = random_symbol(), random_symbol()
    lhs = gradient_pairing(f, g) - gradient_pairing(g, f)
    rhs = poisson_bracket(f, g).scale(1j)
    diff = lhs - rhs
    assert all(abs(c) < 1e-10 for c in diff.terms.values())


def test_toeplitz_unital():
    t = toeplitz(NAMED_SYMBOLS["one"], 3, 24)
    assert np.abs(t - np.eye(3)).max() < 1e-10


def test_toeplitz_star_compatible():
    f = random_symbol(real=False)
    t = toeplitz(f, 3, 24)
    tstar = toeplitz(f.conj(), 3, 24)
    assert np.abs(tstar - t.conj().T).max() < 1e-10


def test_toeplitz_hermitian_for_real_symbol():
    t = toeplitz(F, 4, 32)
    assert np.abs(t - t.conj().T).max() < 1e-10


def test_toeplitz_positive_for_positive_symbol():
    f = TrigPolynomial({(0, 0): 2.0}) + F + G  # 2 + cos + cos >= 0
    t = toeplitz(f, 4, 32)
    eigs = np.linalg.eigvalsh(0.5 * (t + t.conj().T))
    assert eigs.min() >= -1e-9


def test_toeplitz_norm_contraction():
    f = random_symbol()
    t = toeplitz(f, 4, 32)
    sup = np.abs(sample(f, 256)).max()
    assert np.linalg.norm(t, 2) <= sup + 1e-9


def test_fourier_generator_is_scaled_shift():
    # T(e^{-2 pi i x}) at flux 4: all singular values equal one positive
    # scalar near the continuum value, and in the eigenbasis of its polar
    # factor the other generator becomes an exact cyclic shift
    n_flux, grid = 4, 32
    tu = toeplitz(NAMED_SYMBOLS["exp-2pix"], n_flux, grid)
    sv = np.linalg.svd(tu, compute_uv=False)
    assert sv.max() - sv.min() < 1e-10
    scalar = sv[0]
    assert scalar == pytest.approx(clock_shift_scalar(n_flux), abs=5e-3)

    eigvals, eigvecs = np.linalg.eig(tu / scalar)
    order = np.argsort(np.angle(eigvals))
    basis = eigvecs[:, order]
    tv = toeplitz(NAMED_SYMBOLS["exp-2piy"], n_flux, grid)
    magnitude = np.abs(basis.conj().T @ tv @ basis)
    shift = cyclic_shift(n_flux)
    mismatch = min(
        np.abs(magnitude - np.abs(np.linalg.matrix_power(shift, p)) * magnitude.max()).max()
        for p in (1, n_flux - 1)
    )
    assert mismatch < 1e-8


def test_product_defect_constant_symbol():
    one = NAMED_SYMBOLS["one"].scale(2.5)
    assert product_defect(one, G, 3, 24) < 1e-10
    assert product_defect(F, one, 3, 24) < 1e-10


def test_product_defect_slope():
    values = [product_defect(F, G, n, max(16, 8 * n)) for n in SWEEP]
    assert fit_loglog_slope(SWEEP, values) <= -0.5


def test_commutator_defect_self_bracket():
    assert commutator_defect(F, F, 4, 32) < 1e-10


def test_commutator_defect_slope_and_sign_control():
    values = [commutator_defect(F, G, n, max(16, 8 * n)) for n in SWEEP]
    assert fit_loglog_slope(SWEEP, values) <= -1.5
    # flipped Poisson sign must decay one order slower: shallow slope
    wrong = []
    for n in SWEEP:
        grid = max(16, 8 * n)
        tf = toeplitz(F, n, grid)
        tg = toeplitz(G, n, grid)
        tpb = toeplitz(poisson_bracket(F, G), n, grid)
        wrong.append(np.linalg.norm(tf @ tg - tg @ tf + (1j / n) * tpb, 2))
    assert fit_loglog_slope(SWEEP, wrong) > -1.2


def test_commutator_scaled_limit():
    n = 32
    grid = 8 * n
    tf = toeplitz(F, n, grid)
    tg = toeplitz(G, n, grid)
    tpb = toeplitz(poisson_bracket(F, G), n, grid)
    raw = np.linalg.norm(tf @ tg - tg @ tf, 2) * n
    assert raw == pytest.approx(np.linalg.norm(tpb, 2), rel=0.1)


def test_first_order_defect_constants():
    one = NAMED_SYMBOLS["one"]
    assert first_order_defect(one, one, 3, 24) < 1e-12


def test_first_order_defect_slope():
    f, g = F, NAMED_SYMBOLS["sin2piy"]
    values = [first_order_defect(f, g, n, max(16, 8 * n)) for n in SWEEP]
    assert fit_loglog_slope(SWEEP, values) <= -1.5


@pytest.mark.parametrize("defect", [product_defect, commutator_defect, first_order_defect])
def test_first_order_corrections_reject_zero_flux(defect):
    one = NAMED_SYMBOLS["one"]
    with pytest.raises(ValueError, match="need N >= 1"):
        defect(one, one, 0, 16)


def test_first_order_antisymmetrization_reproduces_commutator():
    n, grid = 6, 48
    tf = toeplitz(F, n, grid)
    tg = toeplitz(G, n, grid)
    res_fg = tf @ tg - toeplitz(F * G + gradient_pairing(F, G).scale(1.0 / n), n, grid)
    res_gf = tg @ tf - toeplitz(F * G + gradient_pairing(G, F).scale(1.0 / n), n, grid)
    commutator_residual = (
        tf @ tg
        - tg @ tf
        - (1j / n) * toeplitz(poisson_bracket(F, G), n, grid)
    )
    assert np.abs((res_fg - res_gf) - commutator_residual).max() < 1e-10


def test_trace_limit_constant_symbol():
    one = NAMED_SYMBOLS["one"]
    assert trace_limit_defect(one, 4, 32) < 1e-13


def test_trace_limit_fourier_modes_exact():
    # nonconstant modes are traceless by the exact lattice magnetic
    # translation symmetry, so the limit is reached at machine precision
    for n in SWEEP:
        assert trace_limit_defect(F, n, max(16, 8 * n)) < 1e-12


SINGLE_DEFECTS = {
    "product": product_defect,
    "commutator": commutator_defect,
    "first_order": first_order_defect,
    "trace": lambda f, g, n, grid: trace_limit_defect(f, n, grid),
}


def test_trace_limit_rejects_complex_symbol(monkeypatch):
    # every single defect takes defect_sweep's domain, checked before any solve
    def no_solve(*args):
        raise AssertionError("solved before the symbol was checked")

    monkeypatch.setattr(dolbeault, "_kernel_data", no_solve)
    for defect in SINGLE_DEFECTS.values():
        with pytest.raises(ValueError, match="trace limit defect is defined for real symbols"):
            defect(NAMED_SYMBOLS["exp-2pix"], G, 4, 32)


@pytest.mark.parametrize("seed", [8, 9])
def test_single_defects_are_their_defect_sweep_cell(seed):
    f, g = seeded_real_pair(seed)
    cells = [(4, 32), (9, 72)]
    for (n, grid), cell in zip(cells, defect_sweep(f, g, cells), strict=True):
        for key, defect in SINGLE_DEFECTS.items():
            assert defect(f, g, n, grid) == cell[key], (n, grid, key)


def test_trace_of_operator_product_converges():
    # the operator product T(f)^2 carries the genuine 1/N trace correction;
    # its decay witnesses the semiclassical trace limit at a measurable rate
    values = []
    for n in SWEEP:
        t = toeplitz(F, n, max(16, 8 * n))
        values.append(abs(np.trace(t @ t) / n - (F * F).mean()))
    assert fit_loglog_slope(SWEEP, values) <= -0.7
    assert values[-1] < values[0]


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_defect_sweep_matches_the_separate_assemblies(seed):
    f, g = seeded_real_pair(seed)
    cells = [(1, 16), (2, 16), (3, 24), (5, 40), (6, 60)]
    for (n, grid), cell in zip(cells, defect_sweep(f, g, cells), strict=True):
        expected = toeplitz_defects_separate(f, g, n, grid)
        assert cell.keys() == expected.keys()
        for key, value in expected.items():
            assert cell[key] == pytest.approx(value, rel=1e-12, abs=1e-15), (n, grid, key)


def test_defect_sweep_assembles_five_matrices_per_cell_and_three_products_per_call(monkeypatch):
    # the per-defect path assembled ten matrices and formed four products per cell
    calls = Counter()

    def counted(name):
        original = getattr(toeplitz_module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(toeplitz_module, name, wrapper)

    counted("toeplitz")
    counted("convolve")
    cells = [(2, 16), (3, 24), (4, 32)]
    defect_sweep(F, G, cells)
    assert calls == {"toeplitz": 5 * len(cells), "convolve": 3}


@pytest.mark.parametrize(
    "f, cells, message",
    [
        (NAMED_SYMBOLS["exp-2pix"], [(4, 32)], "trace limit defect is defined for real symbols"),
        (F, [(4, 32), (0, 16)], "commutator defect divides by the flux; need N >= 1, got 0"),
    ],
)
def test_defect_sweep_rejects_before_any_kernel_solve(f, cells, message, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved before the symbol and the flux were checked")

    monkeypatch.setattr(dolbeault, "_kernel_data", no_solve)
    with pytest.raises(ValueError) as exc:
        defect_sweep(f, G, cells)
    assert str(exc.value) == message


# one chain per flux unit when N | M, several columns on a chain when N does
# not divide M ((3, 16), (4, 18), (5, 22), (6, 27)), and N = 0's M chains
@pytest.mark.parametrize(
    "n_flux,grid", [(2, 16), (3, 24), (4, 32), (9, 72), (3, 16), (4, 18), (5, 22), (6, 27), (0, 20)]
)
def test_chain_assembly_matches_the_dense_compression(n_flux, grid):
    local = np.random.default_rng(100 * n_flux + grid)  # leaves the module rng to the other tests
    for _ in range(3):
        modes = local.integers(-4, 5, (12, 2)).tolist() + [[0, 0]]  # degree 4, with a mean
        f = TrigPolynomial({(j, k): complex(*local.normal(size=2)) for j, k in modes})
        expected = toeplitz_dense(f, n_flux, grid)
        assert np.abs(toeplitz(f, n_flux, grid) - expected).max() <= 1e-13 * np.abs(expected).max()


def test_chain_assembly_gathered_one_pair_at_a_time_is_unchanged(monkeypatch):
    # the gather budget only splits the pairs into blocks: each pair's sum is the same
    f, g = seeded_real_pair(12)
    for n_flux, grid in ((4, 18), (9, 72)):
        whole = toeplitz(f * g, n_flux, grid)
        monkeypatch.setattr(dolbeault, "_GATHER_SIZE", 1)
        assert np.array_equal(toeplitz(f * g, n_flux, grid), whole)
        monkeypatch.undo()


def test_a_zero_symbol_compresses_to_zero():
    assert np.array_equal(toeplitz(TrigPolynomial(), 3, 24), np.zeros((3, 3)))


def test_a_flux_32_cell_needs_no_site_space_kernel_block():
    # one kernel solve and one defect_sweep cell at (32, 256): the site-space
    # kernel block of M^2 x (2N + 6) complex entries alone took 73 MB; the
    # chain form traces a peak of about 8 MB
    dolbeault._kernel_data.cache_clear()
    tracemalloc.start()
    try:
        defect_sweep(F, G, [(32, 256)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        dolbeault._kernel_data.cache_clear()
    assert peak < 32 * 2**20


def test_holomorphic_basis_is_the_landau_kernel_basis():
    for n_flux, grid in ((1, 16), (3, 24)):
        basis = holomorphic_basis(n_flux, grid)
        assert np.array_equal(basis, kernel_basis(build_dolbeault(n_flux, grid)))


def test_weyl_relation_small_flux():
    assert weyl_relation(2, 16) == pytest.approx(-1.0, abs=1e-10)
    assert weyl_relation(4, 32) == pytest.approx(-1j, abs=1e-10)


def test_weyl_relation_unit_modulus_and_value():
    for n in (3, 5, 8):
        z = weyl_relation(n, max(16, 8 * n))
        assert abs(abs(z) - 1.0) < 1e-10
        assert abs(z - cmath.exp(-2j * math.pi / n)) < 1e-8


def test_weyl_relation_rejects_small_flux():
    with pytest.raises(ValueError):
        weyl_relation(1, 16)


def test_weyl_relation_raises_on_a_singular_generator(monkeypatch):
    monkeypatch.setattr(toeplitz_module, "toeplitz", lambda f, n_flux, grid: np.diag([1.0, 0.0]))
    with pytest.raises(DegenerateToeplitzError, match="singular Toeplitz generator"):
        weyl_relation(2, 16)


def test_weyl_relation_raises_on_a_commutator_that_is_not_scalar(monkeypatch):
    # a clock of phases 1, i, -1 and the cyclic shift: V U V* U* = diag(-1, -i, -i)
    clock, shift = np.diag([1.0, 1j, -1.0]), np.roll(np.eye(3), 1, axis=0)
    generators = iter([clock, shift])
    monkeypatch.setattr(toeplitz_module, "toeplitz", lambda f, n_flux, grid: next(generators))
    with pytest.raises(DegenerateToeplitzError, match="group commutator is not scalar"):
        weyl_relation(3, 24)


def test_bargmann_matrix_element_values():
    def overlap(j, k, s):  # <vacuum | e^{-2 pi i (jx + ky)} vacuum>
        wave = GaussianSection(s, [1.0], [[0.0, 0.0]], [[-2 * math.pi * j, -2 * math.pi * k]])
        return l2_inner(vacuum(s), wave)

    assert overlap(0, 0, 2.0) == pytest.approx(0.5, abs=1e-10)
    assert overlap(1, 0, 1.0) == pytest.approx(math.exp(-math.pi), abs=1e-10)
    value = overlap(2, 3, 1.7)
    closed = math.exp(-math.pi * (4 + 9) / 1.7) / 1.7
    assert abs(value - closed) < 1e-12


def test_heisenberg_generator_check():
    for s in (1.0, 1.5, 2.0):
        report = heisenberg_generator_check(s)
        assert report["commutator_residual"] <= 1e-12
        assert report["zero_mode_residual"] <= 1e-10
        assert report["group_commutator_expected"] == cmath.exp(-2j * math.pi / s)
        assert abs(report["group_commutator_scalar"] - report["group_commutator_expected"]) < 1e-12
    assert report["group_commutator_scalar"] == pytest.approx(-1.0, abs=1e-12)

    # the plane box scales with the Gaussian, so a narrow vacuum is resolved too
    assert heisenberg_generator_check(100.0)["zero_mode_residual"] <= 1e-10


def test_bracket_and_pairing_normalisation_against_fft_derivatives():
    # pins the absolute scale that antisymmetry, Leibniz and the
    # antisymmetrization identity all leave free
    local = np.random.default_rng(7)

    def complex_symbol():
        modes = local.integers(-3, 4, (4, 2))
        return TrigPolynomial({(j, k): complex(*local.normal(size=2)) for j, k in modes})

    grid = 32
    for _ in range(3):
        f, g = complex_symbol(), complex_symbol()
        fx, fy = fft_partials(sample(f, grid).reshape(grid, grid))
        gx, gy = fft_partials(sample(g, grid).reshape(grid, grid))
        bracket = (fy * gx - fx * gy) / (2.0 * math.pi)
        f_z = 0.5 * (fx - 1j * fy)
        g_zbar = 0.5 * (gx + 1j * gy)
        pairing = -(1.0 / math.pi) * f_z * g_zbar
        scale = np.abs(bracket).max() + np.abs(pairing).max()
        assert np.abs(sample(poisson_bracket(f, g), grid) - bracket.ravel()).max() < 1e-12 * scale
        assert np.abs(sample(gradient_pairing(f, g), grid) - pairing.ravel()).max() < 1e-12 * scale
