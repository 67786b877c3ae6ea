import ast
import math
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from quantlab import algebra, dolbeault
from quantlab.dolbeault import (
    CURVATURE_SCALE,
    GAUGES,
    build_dolbeault,
    kernel_basis,
    kernel_dimension,
    spectral_report,
    weitzenbock_residual,
)
from quantlab.errors import ConvergenceError, ResolutionError
from quantlab.toeplitz import TrigPolynomial, toeplitz

from oracles import (
    chain_columns,
    chain_matrix,
    dense_kernel_judgement,
    dplus_matrix,
    fluxless_plane_waves,
    lll_theta_profile,
    plaquette_phases,
    sample,
)


def test_plaquette_fluxes():
    for gauge in GAUGES:
        plaquettes = plaquette_phases(build_dolbeault(3, 20, gauge))
        expected = np.exp(2j * math.pi * 3 / 400)
        assert np.abs(plaquettes - expected).max() < 1e-12
        assert np.angle(plaquettes).sum() == pytest.approx(2 * math.pi * 3, abs=1e-10)


@pytest.mark.parametrize("n_flux,grid", [(1, 16), (3, 20), (4, 18), (6, 27), (8, 36)])
def test_chain_apply_matches_the_oracle_chain_matrix(n_flux, grid):
    # B and B^* of every chain, applied to a random block, against the oracle
    # chain matrix and its conjugate transpose
    g = math.gcd(n_flux, grid)
    diag, b = dolbeault._chain_diagonal(n_flux, grid, np.arange(g)), grid / math.sqrt(2.0)
    chains = chain_matrix(diag, b)
    scale = max(np.linalg.norm(chain_matrix(row[None], b).toarray(), 2) for row in diag)
    rng = np.random.default_rng(grid + 10 * n_flux)
    v = rng.standard_normal((g, diag.shape[1], 5)) + 1j * rng.standard_normal((g, diag.shape[1], 5))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    flat = v.reshape(chains.shape[0], -1)
    forward = dolbeault._chain_apply(diag, b, v)
    adjoint = dolbeault._chain_apply(diag, b, v, adjoint=True)
    assert forward.shape == adjoint.shape == v.shape
    assert np.abs(forward.reshape(flat.shape) - chains @ flat).max() <= 1e-13 * scale
    assert np.abs(adjoint.reshape(flat.shape) - chains.getH() @ flat).max() <= 1e-13 * scale


# N = 0..3 on the grids 8, 12 and 16 that build_dolbeault accepts
_SMALL_GRIDS = [(n, m) for n in range(4) for m in (8, 12, 16) if m >= max(4, 4 * n)]


@pytest.mark.parametrize("n_flux,grid", _SMALL_GRIDS)
@pytest.mark.parametrize("gauge", GAUGES)
def test_apply_dplus_matches_the_oracle_matrix(n_flux, grid, gauge):
    # the library's one D+ put on the grid by the oracle, against the oracle
    # site matrix: at N > 0 the chains of _chain_apply on random chain
    # vectors, times the site phase G in the symmetric gauge; at N = 0 the
    # oracle's k plane waves, which the Fourier symbol scales by the cached
    # sigma in modulus
    dense = dplus_matrix(n_flux, grid, gauge).toarray()
    scale = np.linalg.norm(dense, 2)
    if n_flux == 0:
        svals = dolbeault._kernel_data(0, grid, gauge)[0]
        v = chain_columns(0, grid, *fluxless_plane_waves(grid, svals.size))
        symbol = np.einsum("ic,ic->c", v.conj(), dense @ v)
        assert np.abs(np.abs(symbol) - svals).max() <= 1e-13 * scale
        assert np.abs(dense @ v - v * symbol).max() <= 1e-13 * scale
        assert np.abs(dense.conj().T @ v - v * symbol.conj()).max() <= 1e-13 * scale
        return
    g = math.gcd(n_flux, grid)
    diag, b = dolbeault._chain_diagonal(n_flux, grid, np.arange(g)), grid / math.sqrt(2.0)
    chain, length = np.repeat(np.arange(g), 3), diag.shape[1]
    phase = dolbeault._symmetric_phase(n_flux, grid).reshape(-1, 1) if gauge != "landau" else 1.0

    def on_grid(block):  # (g, L, 3) chain vectors -> (M^2, 3g) site columns
        return phase * chain_columns(n_flux, grid, chain, block.transpose(0, 2, 1).reshape(-1, length))

    rng = np.random.default_rng(grid + 10 * n_flux)
    x = rng.standard_normal((g, length, 3)) + 1j * rng.standard_normal((g, length, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    v = on_grid(x)
    assert np.abs(on_grid(dolbeault._chain_apply(diag, b, x)) - dense @ v).max() <= 1e-13 * scale
    adjoint = on_grid(dolbeault._chain_apply(diag, b, x, adjoint=True))
    assert np.abs(adjoint - dense.conj().T @ v).max() <= 1e-13 * scale


@pytest.mark.parametrize("n_flux,grid", [(1, 16), (3, 20), (4, 18), (8, 36), (6, 27)])
def test_shifted_normal_matrix_matches_the_oracle(monkeypatch, n_flux, grid):
    # the B^* B + 1 factored for the chain solve, formed from its three
    # cyclic diagonals, against the product of the oracle chain matrices; it
    # is the one sparse matrix the solve builds (no chain matrix, no kron)
    built, factored = [], []
    splu = dolbeault.spla.splu

    def csc_matrix(*args, **kwargs):
        built.append(sp.csc_matrix(*args, **kwargs))
        return built[-1]

    def recorded(matrix, *args, **kwargs):
        factored.append(matrix)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(dolbeault, "sp", types.SimpleNamespace(csc_matrix=csc_matrix))
    monkeypatch.setattr(dolbeault.spla, "splu", recorded)
    dolbeault._kernel_data.__wrapped__(n_flux, grid, "landau")  # bypass the cache
    c0 = dolbeault._chain_classes(n_flux, grid)[0]
    diag = dolbeault._chain_diagonal(n_flux, grid, np.arange(c0))
    chains = chain_matrix(diag, grid / math.sqrt(2.0))
    expected = (chains.getH() @ chains + sp.identity(chains.shape[0])).toarray()
    assert len(factored) == len(built) == 1 and factored[0] is built[0]
    assert np.abs(factored[0].toarray() - expected).max() <= 1e-14 * np.abs(expected).max()


# (3, 16), (4, 18), (6, 27) and (9, 72) put several kernel columns on one chain
@pytest.mark.parametrize("n_flux,grid", [(1, 16), (2, 16), (3, 24), (3, 16), (4, 18), (6, 27), (9, 72)])
@pytest.mark.parametrize("gauge", GAUGES)
def test_weitzenbock_residual_matches_a_dense_oracle(n_flux, grid, gauge):
    # the oracle D+ on the site basis, kept sparse: dense, (9, 72) takes 430 MB
    pair = build_dolbeault(n_flux, grid, gauge)
    theta = kernel_basis(pair)
    d = dplus_matrix(n_flux, grid, gauge)
    dh = d.getH()
    defect = d @ (dh @ theta) - dh @ (d @ theta) - CURVATURE_SCALE * n_flux * theta
    expected = np.linalg.norm(defect, 2)
    assert weitzenbock_residual(pair) == pytest.approx(expected, rel=1e-12)


def test_resolution_floor():
    with pytest.raises(ResolutionError):
        build_dolbeault(4, 12)


def test_kernel_dimension_flat_case():
    # spectral fluxless operator: kernel is the constants alone, any grid
    for grid in (8, 12, 16, 64):
        pair = build_dolbeault(0, grid)
        assert kernel_dimension(pair) == 1
        basis = kernel_basis(pair)
        column = basis[:, 0]
        assert np.abs(column - column[0]).max() < 1e-10


# three acceptance points, then the grids of N = 1..12, M = 4N..8N whose
# largest kernel value, 4.9e-6 to 3.8e-4, is far above rounding, yet below the
# next value by a drop ratio of 1.1e-6 at (3, 18) to 8.1e-5 at (2, 12)
@pytest.mark.parametrize(
    "n_flux,grid",
    [
        (1, 16), (3, 24), (5, 32),
        (2, 12), (2, 13), (2, 14), (3, 15), (3, 16), (3, 17), (3, 18), (4, 17), (4, 18),
        (4, 19), (4, 20), (5, 20), (5, 21), (5, 22), (5, 23), (6, 24), (6, 25),
    ],
)
def test_kernel_dimension_counts_flux(n_flux, grid):
    assert kernel_dimension(build_dolbeault(n_flux, grid)) == n_flux


# every grid with N = 1..8, M = 4N..8N on which no singular value drops below
# KERNEL_GAP times the next: build_dolbeault accepts them, the kernel is
# unresolved (drop ratios 1.8e-4 at (3, 14) to 6.7e-2 at (1, 4))
@pytest.mark.parametrize(
    "n_flux,grid",
    [(1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 8), (2, 9), (2, 10), (2, 11), (3, 12), (3, 13), (3, 14), (4, 16)],
)
def test_unresolved_kernel_raises(n_flux, grid):
    with pytest.raises(ResolutionError, match="lowest singular value"):
        kernel_dimension(build_dolbeault(n_flux, grid))


@pytest.fixture
def kernel_gap(monkeypatch):
    """Sets KERNEL_GAP and empties the kernel cache, whose entries are judged with it."""

    def set_gap(gap):
        monkeypatch.setattr(dolbeault, "KERNEL_GAP", gap)
        dolbeault._kernel_data.cache_clear()

    yield set_gap
    monkeypatch.undo()
    dolbeault._kernel_data.cache_clear()


def test_kernel_dimension_tol_stability(kernel_gap):
    # the commensuration splitting of the near-kernel scales like
    # exp(-0.73 / flux_per_plaquette); at (2, 16) it sits at 3.7e-7, a drop
    # ratio of 1.07e-7 to the next value, the largest of these acceptance
    # points; inside the kernel and above it neighbouring values differ by
    # less than a factor 3, so every bound from 1e-6 to 1e-2 counts N
    for gap in (1e-6, 1e-4, 1e-2):
        kernel_gap(gap)
        for n_flux in (1, 2, 3, 4, 5, 6, 7, 9):
            grid = max(16, 8 * n_flux)
            assert kernel_dimension(build_dolbeault(n_flux, grid)) == n_flux


def test_kernel_dimension_indeterminate_guard(kernel_gap):
    # same point, the bound set below its drop ratio 1.07e-7: must fail loudly
    kernel_gap(1e-8)
    with pytest.raises(ResolutionError, match="lowest singular value"):
        kernel_dimension(build_dolbeault(2, 16))


@pytest.mark.parametrize("n_flux", [1, 2, 3, 4])
def test_kernel_dimension_matches_the_dense_judgement(n_flux):
    # the rule on the chain solve's lowest k = max(2N + 6, 8) values and on a
    # dense SVD's agree on every grid, the count or the error type; the
    # grids lie on both sides of the bound
    for grid in range(4 * n_flux, 6 * n_flux + 1):
        pair = build_dolbeault(n_flux, grid)
        dense = dplus_matrix(n_flux, grid).toarray()
        expected = dense_kernel_judgement(dense, dolbeault.KERNEL_GAP, max(2 * n_flux + 6, 8))
        try:
            found = kernel_dimension(pair)
        except ResolutionError as exc:
            found = type(exc)
        assert found == expected, (n_flux, grid)


def test_kernel_solve_runs_no_banded_cholesky(monkeypatch):
    # the kernel rule compares the low values with each other: it needs no
    # certified top singular value
    factored = []
    cholesky_banded = algebra.la.cholesky_banded

    def recorded(*args, **kwargs):
        factored.append(args)
        return cholesky_banded(*args, **kwargs)

    monkeypatch.setattr(algebra.la, "cholesky_banded", recorded)
    for n_flux, grid in ((3, 24), (4, 18), (0, 16)):
        dolbeault._kernel_data.__wrapped__(n_flux, grid, "landau")  # bypass the cache
    assert not factored


def test_spectral_report_gap_and_parametrix():
    for n_flux in (1, 2, 3, 4):
        grid = max(16, 8 * n_flux)
        rep = spectral_report(build_dolbeault(n_flux, grid))
        assert rep.kernel_dim == n_flux
        assert rep.gap_degree1 >= 0.9 * n_flux
        assert rep.gap_degree1 == pytest.approx(
            CURVATURE_SCALE * n_flux, rel=0.05
        )
        assert rep.parametrix_norm == pytest.approx(rep.gap_degree1 ** -0.5)
        assert rep.parametrix_norm <= (0.9 * n_flux) ** -0.5


def test_susy_pairing_of_nonzero_spectra():
    for n_flux, grid in [(1, 16), (2, 16)]:
        dense = dplus_matrix(n_flux, grid).toarray()
        v0 = np.sort(sla.eigvalsh(dense.conj().T @ dense))
        v1 = np.sort(sla.eigvalsh(dense @ dense.conj().T))
        nz0 = v0[v0 > 1e-6]
        nz1 = v1[v1 > 1e-6]
        assert nz0.size == nz1.size
        assert np.abs(nz0 - nz1).max() < 1e-9 * max(1.0, nz0.max())


@pytest.mark.parametrize("n_flux,grid", [(5, 40), (9, 72)])
def test_degree1_spectrum_lists_every_copy_of_the_first_level(n_flux, grid):
    # D+ is square, so both degrees share one spectrum; the first excited
    # level carries 2N copies, of which the k = 2N + 6 listed values hold
    # all that fit above the N-dimensional kernel
    rep = spectral_report(build_dolbeault(n_flux, grid))
    spectrum = dolbeault._kernel_data(n_flux, grid, "landau")[0] ** 2
    first_level = np.abs(spectrum - rep.gap_degree1) < 1e-9 * rep.gap_degree1
    assert np.count_nonzero(first_level) == min(2 * n_flux, spectrum.size - n_flux)
    assert rep.kernel_dim == n_flux


@pytest.mark.parametrize("n_flux,grid", [(2, 16), (3, 16), (3, 20), (4, 18), (8, 36), (6, 27)])
@pytest.mark.parametrize("gauge", GAUGES)
def test_chain_solve_matches_dense_svd(n_flux, grid, gauge):
    # (3, 16) is one chain, (4, 18) has gcd(N, M) = 2 < N chains that are
    # not isospectral, so the merge across chains is exercised; (8, 36) has
    # two classes of two chains, (6, 27) three chains in one class with N not
    # dividing M, so both expand rolled representatives
    # all k cached values against the dense SVD; every cached chain vector,
    # one per kernel column, placed on the grid by the oracle, and for the
    # symmetric-periodic gauge multiplied by its site phase G
    dense = dplus_matrix(n_flux, grid, gauge).toarray()
    svals, chain, vectors = dolbeault._kernel_data(n_flux, grid, gauge)
    vecs = chain_columns(n_flux, grid, chain, vectors)
    if gauge == "symmetric-periodic":
        vecs *= dolbeault._symmetric_phase(n_flux, grid).reshape(-1, 1)
    reference = np.linalg.svd(dense, compute_uv=False)
    assert svals.size == max(2 * n_flux + 6, 8) and chain.size == vectors.shape[0] == n_flux
    assert np.abs(svals - reference[::-1][: svals.size]).max() < 1e-12
    assert np.abs(np.linalg.norm(dense @ vecs, axis=0) - svals[: chain.size]).max() < 1e-12
    assert np.abs(vecs.conj().T @ vecs - np.eye(chain.size)).max() < 1e-12
    assert not any(a.flags.writeable for a in (svals, chain, vectors))  # shared by the cache
    if (n_flux, grid) == (2, 16):
        # the commensuration splitting behind test_kernel_dimension_indeterminate_guard
        assert svals[:2] == pytest.approx([3.74e-7, 3.74e-7], rel=1e-3)


# N = 0's M chains, one chain, two chains of unequal spectra, nine chains in
# one class, and (64, 512), where the k = 134 vectors took 8.8 MB
@pytest.mark.parametrize("n_flux,grid", [(0, 16), (3, 16), (4, 18), (9, 72), (64, 512)])
def test_the_cache_holds_one_chain_vector_per_kernel_column(n_flux, grid):
    # every reader takes only the d kernel columns: the k - d vectors above
    # them are not kept, only their values
    svals, chain, vectors = dolbeault._kernel_data(n_flux, grid, "landau")
    d = kernel_dimension(build_dolbeault(n_flux, grid))
    assert svals.size == max(2 * n_flux + 6, 8)
    assert chain.shape == (d,) and vectors.shape == (d, grid * grid // math.gcd(n_flux, grid))


def test_only_dolbeault_reads_its_kernel_cache_and_chain_helpers():
    # the kernel's chain layout is dolbeault's: no other module of the package
    # names _kernel_data or any other private name of dolbeault, and the
    # public chain accessor is gone
    private = {name for name in vars(dolbeault) if name.startswith("_") and not name.startswith("__")}
    assert {"_kernel_data", "_kernel_size", "_GATHER_SIZE", "_chain_classes"} <= private
    assert not hasattr(dolbeault, "kernel_chains")
    for path in Path(dolbeault.__file__).parent.glob("*.py"):
        if path.name == "dolbeault.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & private, (path.name, names & private)


def test_every_chain_is_its_representative_rolled():
    # all 152 grids N = 1..8, M = 4N..8N: the roll of the representative's
    # diagonal is chain c's diagonal bit for bit, so its matrix is the same
    kinds = {"one class": 0, "partial": 0, "all distinct": 0}
    for n_flux in range(1, 9):
        for grid in range(4 * n_flux, 8 * n_flux + 1):
            g = math.gcd(n_flux, grid)
            c0, rep, shift = dolbeault._chain_classes(n_flux, grid)
            diag = dolbeault._chain_diagonal(n_flux, grid, np.arange(g))
            for c in range(g):
                assert np.array_equal(diag[c], np.roll(diag[rep[c]], shift[c]))
            assert sorted(set(rep)) == list(range(c0))
            kinds["one class" if c0 == 1 else "all distinct" if c0 == g else "partial"] += 1
    assert kinds == {"one class": 136, "partial": 4, "all distinct": 12}


def test_one_chain_solve_serves_a_single_class(monkeypatch):
    # at (9, 72) the nine chains of length 576 are one class: one is solved
    lengths = []
    solve = dolbeault._chain_triplets

    def counted(diag, b, lu, m):
        lengths.append(diag.shape)
        return solve(diag, b, lu, m)

    monkeypatch.setattr(dolbeault, "_chain_triplets", counted)
    dolbeault._kernel_data.__wrapped__(9, 72, "landau")  # bypass the cache
    assert lengths == [(1, 576)]


def test_chain_merge_widens_the_per_chain_share_until_certain(monkeypatch):
    # a first pass whose merged lowest k cannot be certified (a chain's last
    # solved value below them) must be redone with more values per chain
    shares = []
    solve = dolbeault._chain_triplets

    def uncertain_first_pass(diag, b, lu, m):
        values, ritz = solve(diag, b, lu, m)
        if not shares:
            values = values.copy()
            values[0, -1] = 0.0
        shares.append(m)
        return values, ritz

    monkeypatch.setattr(dolbeault, "_chain_triplets", uncertain_first_pass)
    svals = dolbeault._kernel_data.__wrapped__(4, 18, "landau")[0]  # bypass the cache
    reference = np.linalg.svd(dplus_matrix(4, 18).toarray(), compute_uv=False)
    assert len(shares) == 2 and shares[1] > shares[0]
    assert np.abs(svals - reference[::-1][: svals.size]).max() < 1e-12


@pytest.mark.parametrize("n_flux,grid", [(0, 16), (3, 20)])
def test_symmetric_kernel_is_the_cached_landau_solve_times_the_site_phase(monkeypatch, n_flux, grid):
    solves = []
    solve = dolbeault._chain_triplets

    def counted(*args):
        solves.append(args[-1])
        return solve(*args)

    monkeypatch.setattr(dolbeault, "_chain_triplets", counted)
    dolbeault._kernel_data.cache_clear()
    landau = dolbeault._kernel_data(n_flux, grid, "landau")
    assert len(solves) == (1 if n_flux else 0)
    assert dolbeault._kernel_data(n_flux, grid, "symmetric-periodic") is landau
    assert len(solves) == (1 if n_flux else 0)
    # bit-identical to multiplying the Landau basis by G on the (M, M) grid
    expected = kernel_basis(build_dolbeault(n_flux, grid)).reshape(grid, grid, -1)
    expected *= dolbeault._symmetric_phase(n_flux, grid)[..., None]
    basis = kernel_basis(build_dolbeault(n_flux, grid, "symmetric-periodic"))
    assert np.array_equal(basis, expected.reshape(grid * grid, -1))


def test_chain_solve_raises_when_the_iteration_cap_is_hit(monkeypatch):
    monkeypatch.setattr(dolbeault, "_MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError):
        dolbeault._kernel_data.__wrapped__(3, 24, "landau")  # bypass the cache


@pytest.mark.parametrize("n_flux,grid", [(1, 16), (3, 24)])
def test_chain_solve_fits_in_16_rayleigh_ritz_steps(monkeypatch, n_flux, grid):
    # one LU solve per step needed 31 and 32 steps here; three solves need 11 and 12
    monkeypatch.setattr(dolbeault, "_MAX_ITERATIONS", 16)
    dolbeault._kernel_data.__wrapped__(n_flux, grid, "landau")  # bypass the cache


@pytest.mark.parametrize("n_flux,grid", [(1, 16), (8, 36)])
def test_returned_chain_pairs_meet_the_residual_certificate(monkeypatch, n_flux, grid):
    # recomputed with a fresh factorization of the oracle chain matrix:
    # |(B^* B + 1)^-1 v - v / (1 + sigma^2)| for every pair returned, at one
    # chain and at two classes of two chains
    calls = []
    solve = dolbeault._chain_triplets

    def recorded(diag, b, lu, m):
        values, ritz = solve(diag, b, lu, m)
        calls.append((diag, b, values, ritz))
        return values, ritz

    monkeypatch.setattr(dolbeault, "_chain_triplets", recorded)
    dolbeault._kernel_data.__wrapped__(n_flux, grid, "landau")  # bypass the cache
    assert calls
    for diag, b, values, ritz in calls:
        (g, length), m = diag.shape, values.shape[1]
        n = g * length
        assert ritz.shape == (g, length, m)
        chains = chain_matrix(diag, b)
        normal = (chains.getH() @ chains + sp.identity(n)).tocsc()
        x = spla.splu(normal).solve(ritz.reshape(n, m)).reshape(ritz.shape)
        residual = np.linalg.norm(x - ritz / (1.0 + values[:, None, :] ** 2), axis=1)
        assert residual.max() <= dolbeault._RESIDUAL_TOL


@pytest.mark.parametrize("n_flux,grid", [(1, 16), (3, 16), (6, 27)])
def test_weitzenbock_residual_is_gauge_free(n_flux, grid):
    # the symmetric-periodic D+ is G D_Landau G^* for a diagonal unitary G
    landau = weitzenbock_residual(build_dolbeault(n_flux, grid, "landau"))
    assert weitzenbock_residual(build_dolbeault(n_flux, grid, "symmetric-periodic")) == landau


def test_weitzenbock_flat_case_vanishes():
    # at zero flux D+ is a Fourier multiplier, so it commutes with its adjoint
    for grid in (8, 20):
        for gauge in GAUGES:
            assert weitzenbock_residual(build_dolbeault(0, grid, gauge)) == 0.0


def test_weitzenbock_refinement():
    coarse = weitzenbock_residual(build_dolbeault(1, 16))
    fine = weitzenbock_residual(build_dolbeault(1, 32))
    assert fine < coarse


def test_weitzenbock_small_at_acceptance_point():
    residual = weitzenbock_residual(build_dolbeault(2, 32))
    assert residual <= 0.05 * CURVATURE_SCALE * 2


def test_kernel_basis_orthonormal():
    basis = kernel_basis(build_dolbeault(3, 24))
    gram = basis.conj().T @ basis
    assert np.abs(gram - np.eye(3)).max() < 1e-10


def test_kernel_density_matches_theta_oracle():
    # basis-independent density against quasi-periodic Gaussian sums; the
    # forward stencil lives on half-offset effective sites
    errs = []
    for grid in (16, 24):
        basis = kernel_basis(build_dolbeault(1, grid))
        density = (np.abs(basis[:, 0]) ** 2).reshape(grid, grid)
        density /= density.sum()
        oracle = lll_theta_profile(1, grid)
        oracle /= oracle.sum()
        err = min(
            np.abs(density - np.roll(np.roll(oracle, dx, 0), dy, 1)).sum()
            for dx in range(grid)
            for dy in range(grid)
        )
        errs.append(err)
    assert errs[0] < 0.08
    assert errs[1] < errs[0]


def test_gauge_invariance_of_spectra():
    a = build_dolbeault(4, 32, "landau")
    b = build_dolbeault(4, 32, "symmetric-periodic")
    assert kernel_dimension(a) == kernel_dimension(b) == 4
    sa = np.sort(sla.svdvals(dplus_matrix(4, 32, "landau").toarray()))
    sb = np.sort(sla.svdvals(dplus_matrix(4, 32, "symmetric-periodic").toarray()))
    assert np.abs(sa - sb).max() < 1e-9
    # Toeplitz matrices do not see the gauge: the symmetric-periodic kernel
    # basis is the Landau one times a diagonal unitary
    f = TrigPolynomial({(0, 0): 0.3, (1, 0): 0.5 - 0.2j, (-1, 2): 0.25j, (2, -1): -0.4})
    for n_flux, grid in ((3, 24), (4, 32), (5, 40)):
        basis = kernel_basis(build_dolbeault(n_flux, grid, "symmetric-periodic"))
        entries = basis.conj().T @ (sample(f, grid)[:, None] * basis)
        assert np.abs(entries - toeplitz(f, n_flux, grid)).max() < 1e-12
