import math

import numpy as np
import pytest
import scipy.linalg as sla

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
from quantlab.errors import ConvergenceError, IndeterminateKernelError, ResolutionError
from quantlab.toeplitz import TrigPolynomial, toeplitz

from oracles import lll_theta_profile, plaquette_phases


def test_plaquette_fluxes():
    for gauge in GAUGES:
        plaquettes = plaquette_phases(build_dolbeault(3, 20, gauge))
        expected = np.exp(2j * math.pi * 3 / 400)
        assert np.abs(plaquettes - expected).max() < 1e-12
        assert np.angle(plaquettes).sum() == pytest.approx(2 * math.pi * 3, abs=1e-10)


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


@pytest.mark.parametrize("n_flux,grid", [(1, 16), (3, 24), (5, 32)])
def test_kernel_dimension_counts_flux(n_flux, grid):
    assert kernel_dimension(build_dolbeault(n_flux, grid)) == n_flux


def test_kernel_dimension_tol_stability():
    # the commensuration splitting of the near-kernel scales like
    # exp(-0.73 / flux_per_plaquette); at (2, 16) it sits at 3.7e-7, so
    # thresholds below ~2e-6 trip the indeterminacy guard there, while all
    # other acceptance points tolerate the full decade sweep (at 7 and 9 the
    # kernel values sit below 1e-21: tol=1e-8 needs them resolved to
    # eps * sigma_max, not sqrt(eps) * sigma_max)
    for tol in (1e-8, 1e-6, 1e-4):
        for n_flux in (1, 3, 4, 5, 6, 7, 9):
            grid = max(16, 8 * n_flux)
            assert kernel_dimension(build_dolbeault(n_flux, grid), tol) == n_flux
    for tol in (2e-6, 1e-5, 1e-4):
        assert kernel_dimension(build_dolbeault(2, 16), tol) == 2


def test_kernel_dimension_indeterminate_guard():
    # same point, threshold dropped onto the splitting: must fail loudly
    with pytest.raises(IndeterminateKernelError):
        kernel_dimension(build_dolbeault(2, 16), tol=1e-8)


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
        pair = build_dolbeault(n_flux, grid)
        dense = pair.dplus.toarray()
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
    assert rep.spectrum_degree1 == rep.spectrum_degree0
    spectrum = np.array(rep.spectrum_degree1)
    first_level = np.abs(spectrum - rep.gap_degree1) < 1e-9 * rep.gap_degree1
    assert np.count_nonzero(first_level) == min(2 * n_flux, spectrum.size - n_flux)
    assert rep.coker_dim == rep.kernel_dim == n_flux


@pytest.mark.parametrize("n_flux,grid", [(2, 16), (3, 16), (3, 20), (4, 18)])
@pytest.mark.parametrize("gauge", GAUGES)
def test_chain_solve_matches_dense_svd(n_flux, grid, gauge):
    # (3, 16) is one chain, (4, 18) has gcd(N, M) = 2 < N chains that are
    # not isospectral, so the merge across chains is exercised
    dense = build_dolbeault(n_flux, grid, gauge).dplus.toarray()
    sigma_max, svals, vecs = dolbeault._kernel_data(n_flux, grid, gauge)
    reference = np.linalg.svd(dense, compute_uv=False)
    assert sigma_max == pytest.approx(reference[0], rel=1e-9)
    assert abs(sigma_max - reference[0]) <= 1e-12 * reference[0]
    assert np.abs(svals - reference[::-1][: svals.size]).max() < 1e-12
    assert np.abs(np.linalg.norm(dense @ vecs, axis=0) - svals).max() < 1e-12
    assert np.abs(vecs.conj().T @ vecs - np.eye(svals.size)).max() < 1e-12
    assert not vecs.flags.writeable and not svals.flags.writeable  # shared by the cache
    if (n_flux, grid) == (2, 16):
        # the commensuration splitting behind the indeterminacy guard
        assert svals[:2] == pytest.approx([3.74e-7, 3.74e-7], rel=1e-3)


def test_chain_merge_widens_the_per_chain_share_until_certain(monkeypatch):
    # a first pass whose merged lowest k cannot be certified (a chain's last
    # solved value below them) must be redone with more values per chain
    shares = []
    solve = dolbeault._chain_triplets

    def uncertain_first_pass(chains, lu, g, m):
        values, ritz = solve(chains, lu, g, m)
        if not shares:
            values = values.copy()
            values[0, -1] = 0.0
        shares.append(m)
        return values, ritz

    monkeypatch.setattr(dolbeault, "_chain_triplets", uncertain_first_pass)
    _, svals, _ = dolbeault._kernel_data.__wrapped__(4, 18, "landau")  # bypass the cache
    reference = np.linalg.svd(build_dolbeault(4, 18).dplus.toarray(), compute_uv=False)
    assert len(shares) == 2 and shares[1] > shares[0]
    assert np.abs(svals - reference[::-1][: svals.size]).max() < 1e-12


def test_chain_solve_raises_when_the_iteration_cap_is_hit(monkeypatch):
    monkeypatch.setattr(dolbeault, "_MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError):
        dolbeault._kernel_data.__wrapped__(3, 24, "landau")  # bypass the cache


def test_sigma_max_raises_when_its_bracket_stays_open(monkeypatch):
    # sigma_max shares algebra's certified bracket: one factorization cannot close it
    monkeypatch.setattr(algebra, "_NORM_MAX_STEPS", 1)
    with pytest.raises(ConvergenceError):
        dolbeault._kernel_data.__wrapped__(3, 24, "landau")  # bypass the cache


def test_weitzenbock_flat_case_vanishes():
    assert weitzenbock_residual(build_dolbeault(0, 8)) < 1e-12


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
    sa = np.sort(sla.svdvals(a.dplus.toarray()))
    sb = np.sort(sla.svdvals(b.dplus.toarray()))
    assert np.abs(sa - sb).max() < 1e-9
    # Toeplitz matrices do not see the gauge: the symmetric-periodic kernel
    # basis is the Landau one times a diagonal unitary
    f = TrigPolynomial({(0, 0): 0.3, (1, 0): 0.5 - 0.2j, (-1, 2): 0.25j, (2, -1): -0.4})
    for n_flux, grid in ((3, 24), (4, 32), (5, 40)):
        basis = kernel_basis(build_dolbeault(n_flux, grid, "symmetric-periodic"))
        entries = basis.conj().T @ (f.sample(grid)[:, None] * basis)
        assert np.abs(entries - toeplitz(f, n_flux, grid).entries).max() < 1e-12
