"""Twisted group algebra of Z^2 with a real 2-cocycle twist.

Conventions used throughout:

* group elements are integer pairs ``gamma = (n, m)`` composed additively,
  with identity ``E = (0, 0)`` and generators ``U = (1, 0)``, ``V = (0, 1)``;
* a real cocycle ``c`` enters through the unit-modulus twist
  ``sigma_s(g1, g2) = exp(i * s * c(g1, g2))``;
* basis products follow ``[g1][g2] = sigma_s(g1, g2) [g1 + g2]`` and extend
  bilinearly to finitely supported coefficient maps;
* cocycles must be normalized, ``c(e, e) = 0``, so that ``[e]`` is the unit;
* a cocycle is ``KappaCocycle`` or the ``TabulatedCocycle`` that
  ``cocycle.cocycle_table`` derives from a potential; both broadcast over arrays.

One orientation, on which every sign-bearing claim is gated (the reversed one
conjugates each scalar, so N = 2 and s = 2/k, k an integer, cannot tell them apart):

* ``KappaCocycle`` c((n, m), (n', m')) = kappa (m n' - n m');
* generators, kappa = pi (criterion 02): VU = e^{2 pi i s} UV;
* Weyl scalar at flux N (``weyl``): V~ U~ V~* U~* = e^{-2 pi i / N};
* projective group commutator (``heisenberg``): e^{-2 pi i / s}.

Truncated regular representations act on the sup-norm ball
``{(n, m): |n| <= R, |m| <= R}`` of the lattice.  ``norm_estimate`` returns
the exact largest singular value of the compression to the ball, to a
certified relative bracket of 1e-12 on its square (banded Cholesky
factorizations of ``t I - A* A``): a finite-rank lower bound for the reduced
norm, nondecreasing in ``R``.  The bracket is ``_gram_top``, the top
eigenvalue of ``A* A`` for any sparse ``A`` whose ``A* A`` is banded.
``A* A`` couples only ball points whose difference lies in the lattice the
hop differences ``supp(a) - supp(a)`` span, so ``norm_estimate`` lists the
ball coset by coset of that lattice (lexicographic within a coset; the ball
order itself when the lattice is Z^2, whose one coset is the ball).  For the
Harper element, whose hops span the checkerboard, that halves the band:
``2R+1`` (27 at R = 13), not the ``2(2R+1)`` (54) of the ball order.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
import warnings
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from ._blas import one_blas_thread
from .errors import ConvergenceError

Lattice = Tuple[int, int]

E: Lattice = (0, 0)
U: Lattice = (1, 0)
V: Lattice = (0, 1)
ROUNDING = 4  # rounding allowance of every claim gate, in units of eps times its scale


def compose(g1: Lattice, g2: Lattice) -> Lattice:
    return (g1[0] + g2[0], g1[1] + g2[1])


def inverse(g: Lattice) -> Lattice:
    return (-g[0], -g[1])


class KappaCocycle:
    """Closed-form cocycle ``c((n,m),(n',m')) = kappa * (m n' - n m')``."""

    def __init__(self, kappa: float = math.pi):
        self.kappa = float(kappa)

    def __call__(self, g1: Lattice, g2: Lattice) -> float:
        return self.kappa * (g1[1] * g2[0] - g1[0] * g2[1])

    def __repr__(self) -> str:
        return f"KappaCocycle(kappa={self.kappa!r})"


class TabulatedCocycle:
    """Cocycle read from ``values[i, j] = c(points[i], points[j])`` over
    ``points = ball_points(radius)``, the array ``cocycle.cocycle_grid`` returns.

    Calls broadcast over integer arrays like ``KappaCocycle``, by ``ball_index``
    arithmetic; a pair outside the ball raises ``KeyError``.  Rejected at
    construction unless normalized (``c(e, e) = 0``), which is what makes
    ``[e]`` the unit of the algebra.
    """

    def __init__(self, values: np.ndarray, radius: int):
        origin = ball_index(0, 0, radius)
        if abs(values[origin, origin]) > 1e-12:
            raise ValueError("cocycle not normalized: c(e, e) != 0")
        self.values = values
        self.radius = radius

    def __call__(self, g1: Lattice, g2: Lattice):
        coords = np.broadcast_arrays(*g1, *g2)
        if np.max(np.abs(coords), initial=0) > self.radius:
            raise KeyError(f"cocycle table of radius {self.radius} has no entry for {(g1, g2)}")
        n1, m1, n2, m2 = coords
        return self.values[ball_index(n1, m1, self.radius), ball_index(n2, m2, self.radius)]


def _finite_angle(s: float, value: float) -> float:
    """Twist angle ``s * value`` of a cocycle value; ValueError if it is not finite."""
    angle = s * float(value)
    if not math.isfinite(angle):
        raise ValueError(f"twist s = {s!r} times a cocycle value is not a finite angle")
    return angle


def sigma(cocycle, s: float, g1: Lattice, g2: Lattice) -> complex:
    """Unit-modulus twist ``exp(i s c(g1, g2))``; ValueError if the angle is not finite,
    OverflowError naming the hops if the cocycle value overflows a float."""
    try:
        value = cocycle(g1, g2)
    except OverflowError:
        raise OverflowError(
            f"twist s = {s!r}: the cocycle value at hops {g1} and {g2} overflows a float"
        ) from None
    return cmath.exp(1j * _finite_angle(s, value))


def gate_fails(checks, bound: float) -> int:
    """Exit code of a claim gate: 1 if a (deviation, scale) check is NaN or past max(bound,
    ROUNDING eps scale), scale bounding the rounding of the computation it judges; else 0."""
    return int(not all(d <= max(bound, ROUNDING * sys.float_info.epsilon * s) for d, s in checks))


class AlgebraElement:
    """Finitely supported complex coefficient map on Z^2.

    Elements of the twisted algebra and Fourier symbols on the torus (the
    subclass ``toeplitz.TrigPolynomial``) share this one representation;
    methods that build new maps return the class of ``self``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Lattice, complex] | None = None):
        clean: Dict[Lattice, complex] = {}
        if terms:
            for g, coeff in terms.items():
                z = complex(coeff)
                if z != 0:
                    key = (int(g[0]), int(g[1]))
                    clean[key] = clean.get(key, 0.0) + z
        self._terms = {g: z for g, z in clean.items() if z != 0}

    @classmethod
    def basis(cls, g: Lattice) -> "AlgebraElement":
        return cls({(int(g[0]), int(g[1])): 1.0})

    @classmethod
    def unit(cls) -> "AlgebraElement":
        return cls.basis(E)

    @property
    def terms(self) -> Dict[Lattice, complex]:
        return dict(self._terms)

    def coefficient(self, g: Lattice) -> complex:
        return self._terms.get((int(g[0]), int(g[1])), 0.0)

    def support_radius(self) -> int:
        if not self._terms:
            return 0
        return max(max(abs(n), abs(m)) for n, m in self._terms)

    def l1_norm(self) -> float:
        return float(sum(abs(z) for z in self._terms.values()))  # 0.0, not 0, when empty

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self._terms)
        for g, z in other._terms.items():
            out[g] = out.get(g, 0.0) + z
        return type(self)(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1.0)

    def scale(self, z: complex) -> "AlgebraElement":
        return type(self)({g: z * c for g, c in self._terms.items()})

    def __repr__(self) -> str:
        body = ", ".join(f"{g}: {z:.6g}" for g, z in sorted(self._terms.items()))
        return f"{type(self).__name__}({{{body}}})"

    def to_json(self) -> str:
        """Canonical serialization: lexicographic (n, m) records.

        Raises ValueError on a coefficient that is not finite, which JSON
        cannot hold and ``from_json`` would reject.
        """
        records = [
            {"n": g[0], "m": g[1], "re": z.real, "im": z.imag}
            for g, z in sorted(self._terms.items())
        ]
        return json.dumps(records, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "AlgebraElement":
        rows = json_records(json.loads(text), {"n": int, "m": int, "re": float, "im": float})
        return cls({(n, m): complex(re, im) for n, m, re, im in rows})


def json_records(records, fields: Mapping[str, type], defaults: Mapping[str, float] | None = None) -> list:
    """Values of ``fields`` from decoded JSON ``records``, one tuple per record.

    ``records`` must be a list of objects; each field must be present (or
    have an entry in ``defaults``) and a finite number, integral where its
    type is ``int``.  Raises ``ValueError`` naming the first record at fault.
    """
    if not isinstance(records, list):
        raise ValueError(f"expected a list of records, got {type(records).__name__}")
    defaults = defaults or {}
    rows = []
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"record {i} is not an object: {record!r}")
        row = []
        for key, kind in fields.items():
            value = record.get(key, defaults.get(key))
            if value is None:
                raise ValueError(f"record {i} has no {key!r}")
            # the magnitude test also fails for NaN, and for integers no float can hold
            finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
            if isinstance(value, bool) or not finite:
                raise ValueError(f"record {i}: {key!r} is not a finite number: {value!r}")
            if kind is int and value != int(value):
                raise ValueError(f"record {i}: {key!r} is not an integer: {value!r}")
            row.append(kind(value))
        rows.append(tuple(row))
    return rows


def convolve(a: AlgebraElement, b: AlgebraElement, weight) -> AlgebraElement:
    """Weighted convolution ``sum weight(g1, g2) a(g1) b(g2) [g1 + g2]``.

    The one product loop on coefficient maps: the twisted product, the
    pointwise product of symbols and the bilinear symbol pairings differ
    only in the pair weight.  Returns the class of ``a``.
    """
    out: Dict[Lattice, complex] = {}
    for g1, z1 in a._terms.items():
        for g2, z2 in b._terms.items():
            g = compose(g1, g2)
            out[g] = out.get(g, 0.0) + z1 * z2 * weight(g1, g2)
    return type(a)(out)


def reflect(a: AlgebraElement, phase) -> AlgebraElement:
    """Antilinear reflection ``sum conj(a(g)) phase(g) [g^{-1}]``."""
    return type(a)(
        {inverse(g): z.conjugate() * phase(g) for g, z in a._terms.items()}
    )


def multiply(a: AlgebraElement, b: AlgebraElement, cocycle, s: float) -> AlgebraElement:
    """Twisted convolution: bilinear extension of the basis product rule."""
    return convolve(a, b, lambda g1, g2: sigma(cocycle, s, g1, g2))


def involution(a: AlgebraElement, cocycle, s: float) -> AlgebraElement:
    """Antilinear star with unitary basis elements, ``[g]* = [g]^{-1}``.

    Since ``[g][g^{-1}] = sigma(g, g^{-1}) [e]`` and ``[e] = 1`` for a
    normalized cocycle, ``[g]* = sigma(g, g^{-1})^{-1} [g^{-1}]``.
    """
    return reflect(a, lambda g: sigma(cocycle, s, g, inverse(g)).conjugate())


def trace(a: AlgebraElement) -> complex:
    """Canonical tracial state tau(a) = a(e); no twist enters, as [e] is the unit."""
    return a.coefficient(E)


def ball_points(radius: int) -> list[Lattice]:
    """Lexicographically ordered sup-norm ball, the truncation basis."""
    return [(n, m) for n in range(-radius, radius + 1) for m in range(-radius, radius + 1)]


def ball_index(n, m, radius: int):
    """Position of ``(n, m)`` in ``ball_points(radius)``; elementwise on arrays."""
    return (n + radius) * (2 * radius + 1) + (m + radius)


def ball_coordinates(radius: int):
    """``ball_points(radius)`` as two integer arrays ``n, m``, in order."""
    n, m = np.divmod(np.arange((2 * radius + 1) ** 2), 2 * radius + 1)
    return n - radius, m - radius


def _hops(a: AlgebraElement, radius: int) -> Dict[Lattice, complex]:
    """Terms of ``a`` that can land in the ball: a longer hop leaves it from every column."""
    return {g: c for g, c in a._terms.items() if max(abs(g[0]), abs(g[1])) <= 2 * radius}


def _regular_rep_sparse(a: AlgebraElement, cocycle, s: float, radius: int) -> sp.csr_matrix:
    """``regular_representation`` as a CSR matrix (no pair repeats): the one assembly.

    Warns "lossy" exactly when ``_hops`` drops a term, a hop longer than 2R.
    """
    if radius <= 0:
        raise ValueError(f"truncation radius must be positive, got {radius}")
    dim = (2 * radius + 1) ** 2
    n, m = ball_coordinates(radius)
    hops = _hops(a, radius)  # so every shift fits an int64
    if len(hops) < len(a._terms):
        frame, level = sys._getframe(1), 2
        while frame.f_code.co_filename == __file__:  # name the first caller outside this module
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"support radius {a.support_radius()} exceeds 2R, R = {radius}; compression is lossy",
            stacklevel=level,
        )
    shifts = np.array(list(hops), dtype=np.int64).reshape(-1, 2)
    coeffs = np.array(list(hops.values()), dtype=complex)
    tn, tm = shifts[:, :1] + n, shifts[:, 1:] + m
    # hops that leave the ball are compressed away
    term, col = np.nonzero((np.abs(tn) <= radius) & (np.abs(tm) <= radius))
    rows = ball_index(tn[term, col], tm[term, col], radius)
    phase = cocycle((shifts[term, 0], shifts[term, 1]), (n[col], m[col]))
    # the largest angle, from a temporary freed before the entries are formed
    _finite_angle(s, np.abs(phase).max(initial=0.0))
    vals = coeffs[term] * np.exp(1j * s * phase)
    return sp.csr_matrix((vals, (rows, col)), shape=(dim, dim))


def _coset_order(a: AlgebraElement, radius: int) -> np.ndarray:
    """Ball indices grouped by coset of the hop lattice of ``a``; the identity if it is Z^2.

    ``A* A`` couples ball points ``p, p'`` only when ``p' - p`` lies in ``L``,
    the lattice spanned by ``H - H`` for the hops ``H = _hops(a, radius)``
    (no other term reaches the ball), so it is block-diagonal over the
    cosets of ``L``; listing each coset contiguously, lexicographic within,
    narrows its band.  With ``L`` in triangular (Hermite) form,
    spanned by ``(p, q)`` and ``(0, r)``, the coset of ``(n, m)`` is labelled
    ``(n mod p, (m - q floor(n / p)) mod r)``; ``p = 0`` or ``r = 0`` (a
    support on a line or a point) leaves that coordinate as is.  For Z^2
    (``|p| = r = 1``) every label is (0, 0), and the stable sort keeps the
    ball order.
    """
    p = q = r = 0
    hops = _hops(a, radius)
    n0, m0 = next(iter(hops), E)
    for n, m in hops:  # Euclid's steps on the rows (p, q) and (n - n0, m - m0)
        x, y = n - n0, m - m0
        while x:
            k = p // x
            p, q, x, y = x, y, p - k * x, q - k * y
        r = math.gcd(r, y)
    n, m = ball_coordinates(radius)
    if p:
        steps = n // p  # whole steps by (p, q)
        n, m = n - p * steps, m - q * steps
    return np.lexsort((m % r if r else m, n))


def regular_representation(
    a: AlgebraElement, cocycle, s: float, radius: int
) -> np.ndarray:
    """Matrix of left multiplication by ``a`` compressed to the ball.

    Entry rule: ``[g'] delta_g = sigma_s(g', g) delta_{g'+g}``, cut where the
    target leaves the ball; a term longer than 2R is dropped, with the
    lossy-truncation warning.  The dense ``_regular_rep_sparse``, the one
    assembly: it calls the cocycle once, on integer arrays over (terms x ball).
    """
    return _regular_rep_sparse(a, cocycle, s, radius).toarray()


_NORM_REL_WIDTH = 1e-12  # relative width of the certified bracket on ||A||^2
_NORM_MAX_STEPS = 60  # factorizations before ConvergenceError
_NORM_SOLVES = 6  # inverse-iteration solves per factorization


def _gram_top(mat: sp.spmatrix, bound: float) -> float:
    """Largest eigenvalue of ``G = mat* mat``, given ``bound >= ||mat||^2``.

    Certified to a relative bracket of ``_NORM_REL_WIDTH``.  ``G`` must be a
    band matrix in the column order of ``mat``: a banded Cholesky
    factorization of ``t I - G`` succeeds exactly when ``t`` lies above the
    top eigenvalue (to rounding).  The upper end of the bracket is the
    smallest shift ``t`` that factored (``2 bound`` before any did); the
    lower end, which is returned, is the largest Rayleigh quotient
    ``|mat x|^2``, one per factorization, of the unit vector ``x`` after
    ``_NORM_SOLVES`` inverse-iteration solves with it.  The first shift is
    ``bound``; each next one is the lower end plus the residual
    ``|G x - |mat x|^2 x|`` when that lies strictly between the highest
    shift that failed and the upper end, and otherwise the geometric mean of
    those two distances above the lower end.  The residual only steers, so
    it is read off the last solve, ``(t I - G) y = x'``, as
    ``|(t - |mat x|^2) y - x'| / |y|``: the loop never multiplies by ``G``.
    Raises ``ConvergenceError`` if the bracket is still open after
    ``_NORM_MAX_STEPS`` factorizations.  The shifts must stay normal floats;
    ``norm_estimate`` scales extreme elements by a power of two to keep them so.

    The loop runs on one BLAS thread (``_blas.one_blas_thread``).  Its bands are
    narrow (width 27 for the Harper element at R = 13 in ``norm_estimate``'s
    coset order, 54 in ball order), and there a second OpenBLAS thread costs
    more than it saves: one R = 13 factorization took 0.99 ms on two threads
    and 0.22 ms on one (2-core machine).  On the coset-ordered Harper band,
    two threads break even on one factorization near R = 60 (width 121,
    28-29 ms) and win by under 10 % at R = 80 (67-69 against 74 ms); whole
    norm estimates stayed faster on one thread up to R = 80 (1.1 against
    1.8-1.9 s).
    """
    if mat.nnz == 0:
        return 0.0
    gram = mat.conj().T @ mat
    entries = gram.tocoo()
    upper = entries.col >= entries.row
    rows, cols = entries.row[upper], entries.col[upper]
    width = int((cols - rows).max())
    band = np.zeros((width + 1, gram.shape[0]), dtype=complex, order="F")
    band[width + rows - cols, cols] = -entries.data[upper]  # upper band storage of -G
    shifted = np.empty_like(band)
    (pbtrs,) = la.get_lapack_funcs(("pbtrs",), (band,))  # cho_solve_banded's checks cost more

    # a fixed generic start: a symmetric one can be orthogonal to the top eigenvector
    x = np.array([1.0, 1j]) @ np.random.default_rng(0).standard_normal((2, gram.shape[0]))
    x /= np.linalg.norm(x)
    lo = np.linalg.norm(mat @ x) ** 2
    residual = np.linalg.norm(gram @ x - lo * x)
    hi, failed = 2.0 * bound, -math.inf  # upper end; highest shift that did not factor
    t = bound * (1.0 + _NORM_REL_WIDTH / 4)
    with one_blas_thread():
        for _ in range(_NORM_MAX_STEPS):
            np.copyto(shifted, band)
            shifted[width] += t
            try:
                factor = la.cholesky_banded(shifted, overwrite_ab=True, check_finite=False)
            except np.linalg.LinAlgError:
                failed = t
            else:
                hi = min(hi, t)
                for _ in range(_NORM_SOLVES):
                    prev = x
                    y = pbtrs(factor, prev)[0]  # its info is nonzero only for bad arguments
                    size = np.linalg.norm(y)
                    x = y / size
                value = np.linalg.norm(mat @ x) ** 2
                if value > lo:
                    lo, residual = value, np.linalg.norm((t - value) * y - prev) / size
            if hi - lo <= _NORM_REL_WIDTH * hi:
                return lo
            t = lo + max(residual, _NORM_REL_WIDTH * hi / 2)
            if not failed < t < hi:
                t = lo + math.sqrt(max(failed - lo, _NORM_REL_WIDTH * hi / 2) * (hi - lo))
        raise ConvergenceError(
            "norm bracket [%.17g, %.17g] still open after %d factorizations"
            % (math.sqrt(lo), math.sqrt(hi), _NORM_MAX_STEPS)
        )


def norm_estimate(a: AlgebraElement, cocycle, s: float, radius: int) -> float:
    """Largest singular value of the truncated regular representation.

    The exact compression norm: ``_gram_top`` with the squared l1 bound, on
    the columns in ``_coset_order``, where ``A* A`` is block-diagonal by
    coset and banded (the ball order when the hops span Z^2).  A finite-rank lower
    bound for the reduced C*-norm: nondecreasing in ``radius`` and bounded
    above by the l1 norm of the coefficients.  Outside ``2**-128 <= l1 <=
    2**128`` the compression is scaled by the power of two nearest ``1 / l1``
    and the norm scaled back; powers of two scale every step exactly, so
    ``norm_estimate(2**j a) == 2**j norm_estimate(a)`` bit for bit while no
    coefficient over- or underflows.  ``ValueError`` if the l1 norm overflows.
    """
    l1 = a.l1_norm()
    if not l1 <= sys.float_info.max:
        raise ValueError("the l1 norm of the element's coefficients overflows a float")
    mat = _regular_rep_sparse(a, cocycle, s, radius)[:, _coset_order(a, radius)]
    k = 0 if not l1 or 2.0**-128 <= l1 <= 2.0**128 else -round(math.log2(l1))
    parts = mat.data.view(float)  # real and imaginary parts, scaled in place
    np.ldexp(parts, k, out=parts)
    return math.ldexp(math.sqrt(_gram_top(mat, math.ldexp(l1, k) ** 2)), -k)


def norm_profile(
    a: AlgebraElement, s_grid: Sequence[float], cocycle, radius: int
) -> list[tuple[float, float]]:
    """Norm estimates of a fixed coefficient pattern over a grid of twists.

    Reports without judging: ``quantlab algebra --mode norm-profile
    --continuity-threshold T`` gates each adjacent jump at T, which witnesses
    (but does not prove) continuity of the field of norms in ``s``.
    """
    return [(float(s), norm_estimate(a, cocycle, s, radius)) for s in s_grid]


def harper_element(cocycle, s: float) -> AlgebraElement:
    """The canonical self-adjoint hopping element ``[u]+[u]*+[v]+[v]*``."""
    out = AlgebraElement.basis(U) + AlgebraElement.basis(V)
    out = out + involution(out, cocycle, s)
    return out
