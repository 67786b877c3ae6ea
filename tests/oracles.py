"""Independent oracles used to freeze expected values in the tests.

Each oracle is deliberately written against the raw definitions (explicit
loops, Bloch reduction, brute-force quadrature) and never calls the code
path it is used to check.  ``dplus_matrix`` assembles the site-space D+ as
a sparse matrix; the library has no site-space D+ and applies only its
magnetic chains, which ``chain_matrix`` assembles block by block.  The
last two helpers are reference checks rather than oracles: they measure a
property (plaquette holonomy of ``dplus_matrix``, Hermitian symmetry of the
module pairing) that the library's output must have.
"""

import cmath
import csv
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from quantlab.algebra import (
    AlgebraElement,
    ball_points,
    compose,
    involution,
    regular_representation,
    sigma,
)
from quantlab.cocycle import solve_phi
from quantlab.dolbeault import DolbeaultPair, kernel_basis
from quantlab.errors import ResolutionError
from quantlab.sections import _pairings, module_inner
from quantlab.toeplitz import gradient_pairing, poisson_bracket, toeplitz


def natsume_nest_trace(genus: int, s: float) -> float:
    """Natsume-Nest trace value (s - 1)(g - 1) of a genus-g surface, g >= 2."""
    return (s - 1.0) * (genus - 1.0)


def twisted_convolution(a_terms, b_terms, kappa, s):
    """Brute-force twisted product of coefficient dicts {(n, m): coeff}."""
    out = {}
    for (n1, m1), z1 in a_terms.items():
        for (n2, m2), z2 in b_terms.items():
            phase = cmath.exp(1j * s * kappa * (m1 * n2 - n1 * m2))
            key = (n1 + n2, m1 + m2)
            out[key] = out.get(key, 0.0) + z1 * z2 * phase
    return {k: v for k, v in out.items() if v != 0}


def regular_representation_loop(a, cocycle, s: float, radius: int) -> np.ndarray:
    """Ball compression of left multiplication by ``a``, one entry at a time.

    ``[g'] delta_g = sigma_s(g', g) delta_{g'+g}`` for each term ``g'`` and
    ball point ``g``, with one scalar cocycle call per entry; hops that leave
    the ball are dropped.
    """
    points = ball_points(radius)
    index = {g: i for i, g in enumerate(points)}
    mat = np.zeros((len(points), len(points)), dtype=complex)
    for gp, z in a.terms.items():
        for g, col in index.items():
            row = index.get(compose(gp, g))
            if row is not None:
                mat[row, col] += z * sigma(cocycle, s, gp, g)
    return mat


def gram_blocks_loop(sections, cocycle, s: float, radius: int, rep_radius: int) -> np.ndarray:
    """Upper blocks of the Gram matrix [rep(<psi_i|psi_j>)], one block at a time.

    Block (i, j), i <= j, is ``regular_representation`` at ``rep_radius``
    of the element <psi_i|psi_j> over the whole radius; the lower blocks
    stay zero.  A Fortran-order array, like the library's.  The element's
    coefficients are entry (i, j) of the library's k x k pairing matrices
    (``_pairings``), as ``module_inner`` builds its element from the 1 x 1
    case: the two differ in the last bits, and this oracle checks the twist
    assembly, not the pairing.
    """
    k, dim = len(sections), (2 * rep_radius + 1) ** 2
    pairings = _pairings(sections, sections, radius)
    big = np.zeros((k * dim, k * dim), dtype=complex, order="F")
    for i in range(k):
        for j in range(i, k):
            gram = AlgebraElement(dict(zip(ball_points(radius), pairings[:, i, j].tolist())))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # the compression is lossy on purpose
                block = regular_representation(gram, cocycle, s, rep_radius)
            big[i * dim : (i + 1) * dim, j * dim : (j + 1) * dim] = block
    return big


def coupling_components_loop(support, radius: int) -> list:
    """Connected components of the ball under steps by the hop differences.

    A breadth-first search over ``ball_points(radius)``: ``g`` and ``g + d``
    are joined for every difference ``d = h - h'`` of two points of
    ``support`` when both lie in the ball.  Each component is returned as a
    lexicographically sorted list of points, in order of its first point.
    """
    steps = {(h[0] - k[0], h[1] - k[1]) for h in support for k in support} - {(0, 0)}
    unseen = set(ball_points(radius))
    components = []
    for start in ball_points(radius):
        if start not in unseen:
            continue
        unseen.discard(start)
        component = [start]
        for g in component:  # read while it grows: breadth first
            for d in steps:
                nxt = compose(g, d)
                if nxt in unseen:
                    unseen.discard(nxt)
                    component.append(nxt)
        components.append(sorted(component))
    return components


def dense_gram_top(mat) -> Fraction:
    """Top eigenvalue of ``mat* mat`` from below, to about eps**2 relative.

    The exact rational Rayleigh quotient ``|mat v|^2 / |v|^2`` of the top
    eigenvector ``v`` of the dense ``eigh``: never above the top eigenvalue,
    and below it only by the square of ``v``'s error.  The float from
    ``eigvalsh`` itself can sit several eps to either side of it.
    """
    dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat)
    v = np.linalg.eigh(dense.conj().T @ dense)[1][:, -1]
    parts = [(Fraction(z.real), Fraction(z.imag)) for z in v.tolist()]
    entries = sp.coo_matrix(dense)
    image = {}
    for i, j, z in zip(entries.row.tolist(), entries.col.tolist(), entries.data.tolist()):
        re, im = Fraction(z.real), Fraction(z.imag)
        vr, vi = parts[j]
        sr, si = image.get(i, (0, 0))
        image[i] = (sr + re * vr - im * vi, si + re * vi + im * vr)
    return sum(r * r + i * i for r, i in image.values()) / sum(r * r + i * i for r, i in parts)


def hofstadter_bloch_norm(p: int, q: int, grid: int = 240) -> float:
    """Norm of the hopping element at rational twist s = p/q.

    Magnetic Bloch reduction: the q x q fiber Hamiltonian has diagonal
    2 cos(ky + 2 pi (p/q) j) and unit hopping around a q-cycle closed by
    e^{+- i q kx}; the norm is the supremum of |eigenvalues| over the
    magnetic Brillouin zone.
    """
    alpha = p / q
    best = 0.0
    for kx in np.linspace(0.0, 2.0 * math.pi / q, grid, endpoint=False):
        for ky in np.linspace(0.0, 2.0 * math.pi, grid // 2, endpoint=False):
            h = np.zeros((q, q), dtype=complex)
            for j in range(q):
                h[j, j] = 2.0 * math.cos(ky + 2.0 * math.pi * alpha * j)
                h[j, (j + 1) % q] += cmath.exp(1j * kx)
                h[(j + 1) % q, j] += cmath.exp(-1j * kx)
            vals = np.linalg.eigvalsh(h)
            best = max(best, float(np.abs(vals).max()))
    return best


def l2_inner_loop(psi, phi) -> complex:
    """Gaussian pairing int conj(psi) phi as a product of 1-D integrals, term pair by term pair.

    Each factor is sqrt(pi / 2a) exp(-(a/2) dmu^2 - dk^2 / 8a + i dk mid)
    with a = pi s / 2, evaluated with its own exponential.
    """
    a = math.pi * psi.s / 2.0

    def inner_1d(mu1, mu2, k1, k2):
        dk, dmu, mid = k2 - k1, mu1 - mu2, 0.5 * (mu1 + mu2)
        return math.sqrt(math.pi / (2.0 * a)) * cmath.exp(
            -0.5 * a * dmu * dmu - dk * dk / (8.0 * a) + 1j * dk * mid
        )

    total = 0.0 + 0.0j
    for c1, (x1, y1), (kx1, ky1) in zip(psi.coeffs, psi.centers, psi.waves):
        for c2, (x2, y2), (kx2, ky2) in zip(phi.coeffs, phi.centers, phi.waves):
            total += c1.conjugate() * c2 * inner_1d(x1, x2, kx1, kx2) * inner_1d(y1, y2, ky1, ky2)
    return total


def write_rows_csv(path, header, rows) -> None:
    """The CLI's CSV rows rendered by ``csv.writer``, to ``path`` or stdout.

    Floats are written as ``repr(float(v))``.  A string cell holding commas
    (a pre-joined label) is split into its cells first, and ``csv.writer``
    renders each one, quoting any that needs it.  A row given as a string
    (whole pre-formatted lines) is split into lines and cells the same way.
    """
    fh = open(path, "w") if path else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                writer.writerows(line.split(",") for line in row.splitlines())
                continue
            cells = []
            for v in row:
                if isinstance(v, float):
                    cells.append(repr(float(v)))
                elif isinstance(v, str):
                    cells.extend(v.split(","))
                else:
                    cells.append(v)
            writer.writerow(cells)
    finally:
        if path:
            fh.close()


def cocycle_rows_loop(points, values) -> str:
    """``cocycle-check``'s CSV text: the header, then one f-string and one ``repr`` per pair."""
    lines = ["claim,n1,m1,n2,m2,value\n"]
    for (n1, m1), row in zip(points, values):
        for (n2, m2), value in zip(points, row):
            lines.append(f"cocycle-value,{n1},{m1},{n2},{m2},{float(value)!r}\n")
    return "".join(lines)


def cocycle_combination_loop(A, radius: int) -> np.ndarray:
    """``phi_{g2} + g2^* phi_{g1} - phi_{g1 g2}`` for each pair of the ball, one pair at a time.

    Entry ``[i, j]`` holds the coefficients of the combination on the pair
    ``(points[i], points[j])``.  The pull-back is ``B(n2) phi_{g1} B(m2)^T``
    with the shift matrix ``B(d)[a, i] = C(i, a) d^(i - a)`` written out entry
    by entry, and each phase comes from its own ``solve_phi`` call.
    """

    def shift(d, size):
        return np.array(
            [[math.comb(i, a) * float(d) ** (i - a) if i >= a else 0.0 for i in range(size)]
             for a in range(size)]
        )

    points = ball_points(radius)
    phase = {g: solve_phi(A, g) for g in ball_points(2 * radius)}
    out = []
    for g1 in points:
        rows, cols = phase[g1].shape
        out.append(
            [
                phase[g2] + shift(g2[0], rows) @ phase[g1] @ shift(g2[1], cols).T
                - phase[compose(g1, g2)]
                for g2 in points
            ]
        )
    return np.array(out)


def gaussian_quadrature_inner(psi, phi, half_width: float = 9.0, points: int = 1200):
    """Trapezoid quadrature of int conj(psi) phi over a large box."""
    xs = np.linspace(-half_width, half_width, points)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vals = np.conj(psi(X, Y)) * phi(X, Y)
    return complex(np.trapezoid(np.trapezoid(vals, xs, axis=1), xs))


def lll_theta_profile(n_flux: int, grid: int, shift: float = 0.5) -> np.ndarray:
    """Modulus of the lowest-band density on the grid, from theta-like sums.

    Landau-gauge quasi-periodic sections: psi_l = sum_t
    exp(-pi N (x + (l + t N)/N)^2 + 2 pi i (l + t N) y); the density
    sum_l |psi_l|^2 is basis independent.  ``shift`` places the samples on
    half-offset sites, matching the effective location of forward
    differences.
    """
    coords = (np.arange(grid) + shift) / grid
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    density = np.zeros_like(X)
    for l in range(n_flux):
        psi = np.zeros_like(X, dtype=complex)
        for t in range(-6, 7):
            k = l + t * n_flux
            psi += np.exp(
                -math.pi * n_flux * (X + k / n_flux) ** 2 + 2j * math.pi * k * Y
            )
        density += np.abs(psi) ** 2
    return density


def clock_shift_scalar(n_flux: int) -> float:
    """Continuum magnitude of the Fourier-mode Toeplitz generators."""
    return math.exp(-math.pi / (2.0 * n_flux))


def fft_partials(values):
    """Partial derivatives (f_x, f_y) of torus samples, by FFT.

    ``values[j, k]`` is f(j/M, k/M) on the M x M grid; the result is exact
    to roundoff for trigonometric polynomials whose modes stay below M/2.
    """
    grid = values.shape[0]
    freq = 2j * math.pi * np.fft.fftfreq(grid, d=1.0 / grid)
    spectrum = np.fft.fft2(values)
    fx = np.fft.ifft2(freq[:, None] * spectrum)
    fy = np.fft.ifft2(freq[None, :] * spectrum)
    return fx, fy


def sample(f, grid: int) -> np.ndarray:
    """Values of a TrigPolynomial on the M x M grid x = a/M, y = b/M, flattened x-major.

    Separable: Ex @ C @ Ey for the (j, k) coefficient table C and the
    one-axis waves Ex[a, j] = e^{2 pi i j a/M}, Ey[k, b] = e^{2 pi i k b/M}.
    """
    if not f.terms:
        return np.zeros(grid * grid, dtype=complex)
    modes = np.array(list(f.terms))
    low, high = modes.min(axis=0), modes.max(axis=0)
    table = np.zeros(high - low + 1, dtype=complex)
    table[tuple((modes - low).T)] = list(f.terms.values())
    coords = np.arange(grid) / grid
    ex = np.exp(2j * math.pi * np.outer(coords, np.arange(low[0], high[0] + 1)))
    ey = np.exp(2j * math.pi * np.outer(np.arange(low[1], high[1] + 1), coords))
    return (ex @ table @ ey).ravel()


def toeplitz_dense(f, n_flux: int, grid: int) -> np.ndarray:
    """Theta^* diag(f) Theta on the site-space Landau kernel basis: the compression by definition."""
    basis = kernel_basis(DolbeaultPair(n_flux, grid, "landau"))
    return basis.conj().T @ (sample(f, grid)[:, None] * basis)


def chain_columns(n_flux: int, grid: int, chain, vectors) -> np.ndarray:
    """Site-space columns (M^2, n) of chain vectors, one site at a time.

    Position s = t M + j of chain c is the momentum-space site
    (j, p = (c - N t) mod M); the column's value at site (j, k) is
    sum over p of m(j, p) e^{2 pi i p k / M} / sqrt(M), the unitary inverse
    DFT along y written as a matrix product.
    """
    M = grid
    modes = np.zeros((M, M, len(chain)), dtype=complex)
    for column, (c, vector) in enumerate(zip(chain, vectors)):
        for s, value in enumerate(vector):
            t, j = divmod(s, M)
            modes[j, (c - n_flux * t) % M, column] = value
    wave = np.exp(2j * math.pi * np.outer(np.arange(M), np.arange(M)) / M) / math.sqrt(M)
    return np.einsum("pk,jpc->jkc", wave, modes).reshape(M * M, -1)


def fluxless_plane_waves(grid: int, count: int):
    """Chain ids and chain vectors of the ``count`` fluxless plane waves of least |symbol|.

    The fluxless D+ multiplies the wave e^{2 pi i (a j + p k) / M} by
    (i xi_a - xi_p) / sqrt(2), xi = 2 pi times the signed wave number, so the
    waves rank by hypot(a, p) folded to |wave number| <= M / 2.  Chain p holds
    the waves of y-momentum p; the vector of x-wave a is e^{2 pi i a j / M} / sqrt(M).
    """
    ranked = sorted(
        (math.hypot(min(a, grid - a), min(p, grid - p)), p, a) for p in range(grid) for a in range(grid)
    )[:count]
    chain = np.array([p for _, p, _ in ranked])
    vectors = np.array([[cmath.exp(2j * math.pi * a * j / grid) for j in range(grid)] for _, _, a in ranked])
    return chain, vectors / math.sqrt(grid)


def sample_loop(f, grid: int) -> np.ndarray:
    """Values of a TrigPolynomial on the M x M grid, one full-grid exp per mode."""
    coords = np.arange(grid) / grid
    x = coords[:, None]
    y = coords[None, :]
    out = np.zeros((grid, grid), dtype=complex)
    for (j, k), c in f.terms.items():
        out += c * np.exp(2j * math.pi * (j * x + k * y))
    return out.ravel()


def toeplitz_defects_separate(f, g, n_flux: int, grid: int) -> dict:
    """The four sweep defects, each assembling its own Toeplitz matrices.

    Ten assemblies and four symbol products per cell; the first-order term is
    T(fg + G/N) of the combined symbol, not T(fg) + T(G)/N.
    """
    def t(symbol):
        return toeplitz(symbol, n_flux, grid)

    def opnorm(a):
        return float(np.linalg.norm(a, 2))

    def multiplicativity(symbol):
        return opnorm(t(f) @ t(g) - t(symbol))

    tf, tg = t(f), t(g)
    trace_f = t(f)
    return {
        "product": multiplicativity(f * g),
        "commutator": opnorm(tf @ tg - tg @ tf - (1j / n_flux) * t(poisson_bracket(f, g))),
        "first_order": multiplicativity(f * g + gradient_pairing(f, g).scale(1.0 / n_flux)),
        "trace": float(abs(np.trace(trace_f) / trace_f.shape[0] - f.mean())),
    }


def dense_kernel_judgement(dense: np.ndarray, gap: float, count: int):
    """The kernel rule applied to the lowest ``count`` singular values of a dense SVD.

    Returns i + 1 for the largest i with sigma_i < gap * sigma_{i+1}, or
    ``ResolutionError``, the error type the rule raises, when there is none.
    """
    svals = np.sort(np.linalg.svd(dense, compute_uv=False))[:count]
    drops = [i for i in range(count - 1) if svals[i] < gap * svals[i + 1]]
    return drops[-1] + 1 if drops else ResolutionError


def cyclic_shift(n: int) -> np.ndarray:
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        s[(i + 1) % n, i] = 1.0
    return s


def _cyclic_step(n: int) -> sp.csr_matrix:
    """Sparse n x n matrix of v -> v(i + 1 mod n)."""
    return (sp.eye(n, k=1) + sp.eye(n, k=1 - n)).tocsr()


def dplus_matrix(n_flux: int, grid: int, gauge: str = "landau") -> sp.csr_matrix:
    """The lattice D+ on the M x M grid as a sparse M^2-square matrix, site (j, k) at j*M + k.

    At N = 0 the spectral derivative F^* diag(i xi) F along each axis; at
    N > 0 the forward differences M (u S - 1) with the Landau link phases
    ux = e^{i phi M k} on the seam row j = M-1 (1 elsewhere) and
    uy = e^{-i phi j}, phi = 2 pi N / M^2; D+ = (grad_x + i grad_y) / sqrt 2.
    The symmetric-periodic operator is G D_Landau G^* with
    G[j, k] = exp(-i pi N j k / M^2).
    """
    M, eye = grid, sp.identity(grid)
    if n_flux == 0:
        freq = 2.0 * math.pi * np.fft.fftfreq(M, d=1.0 / M)
        d1 = np.fft.ifft(1j * freq[:, None] * np.fft.fft(np.eye(M), axis=0), axis=0)
        grad_x, grad_y = sp.kron(d1, eye), sp.kron(eye, d1)
    else:
        phi, step = 2.0 * math.pi * n_flux / (M * M), _cyclic_step(M)
        j = np.arange(M)[:, None].astype(float)
        k = np.arange(M)[None, :].astype(float)
        ux = np.ones((M, M), dtype=complex)
        ux[M - 1, :] = np.exp(1j * phi * M * k[0])
        uy = np.exp(-1j * phi * j) * np.ones((1, M))
        grad_x = M * (sp.diags(ux.ravel()) @ sp.kron(step, eye) - sp.identity(M * M))
        grad_y = M * (sp.diags(uy.ravel()) @ sp.kron(eye, step) - sp.identity(M * M))
    dplus = (grad_x + 1j * grad_y) / math.sqrt(2.0)
    if gauge == "symmetric-periodic":
        phase = np.exp(-1j * math.pi * n_flux * np.outer(np.arange(M), np.arange(M)) / (M * M))
        site = sp.diags(phase.ravel())
        dplus = site @ dplus @ site.conj()
    return dplus.tocsr()


def chain_matrix(diag: np.ndarray, b: float) -> sp.csr_matrix:
    """Block-diagonal matrix of the chains diag(d_c) + b S (S the cyclic step), d_c a row of ``diag``."""
    chains, length = diag.shape
    return (sp.diags(diag.ravel()) + b * sp.kron(sp.identity(chains), _cyclic_step(length))).tocsr()


def plaquette_phases(pair) -> np.ndarray:
    """Link phases of ``pair``'s ``dplus_matrix`` multiplied around each plaquette (+y,+x,-y,-x).

    D+ = (M / sqrt 2) (ux S_x - 1 + i (uy S_y - 1)), so the entry from site
    (j, k) to (j+1, k) is M ux / sqrt 2 and the one to (j, k+1) is i M uy / sqrt 2.
    """
    M, d = pair.grid, dplus_matrix(pair.n_flux, pair.grid, pair.gauge).toarray()
    ux = np.empty((M, M), dtype=complex)
    uy = np.empty((M, M), dtype=complex)
    for j in range(M):
        for k in range(M):
            site = j * M + k
            ux[j, k] = d[site, ((j + 1) % M) * M + k] * math.sqrt(2.0) / M
            uy[j, k] = d[site, j * M + (k + 1) % M] * math.sqrt(2.0) / (1j * M)
    return uy * np.roll(ux, -1, axis=1) * np.conj(np.roll(uy, -1, axis=0)) * np.conj(ux)


def hermitian_defect(psi, phi, cocycle, s: float, radius: int) -> float:
    """Max coefficient difference between <psi|phi>* and <phi|psi>, from module_inner itself."""
    diff = involution(module_inner(psi, phi, radius), cocycle, s) - module_inner(phi, psi, radius)
    return max((abs(z) for z in diff.terms.values()), default=0.0)
