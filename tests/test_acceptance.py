"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and are not adjustable.
"""

import cmath
import math
import time

import numpy as np
import scipy.linalg as sla

from quantlab.algebra import (
    AlgebraElement,
    KappaCocycle,
    U,
    V,
    compose,
    harper_element,
    involution,
    multiply,
    norm_estimate,
    regular_representation,
    trace,
)
from quantlab.cocycle import cocycle_grid, symmetric_gauge
from quantlab.dolbeault import build_dolbeault, kernel_dimension, spectral_report
from quantlab.sections import module_inner, project_act, vacuum
from quantlab.surface_index import l2_index, natsume_nest_trace
from quantlab.toeplitz import (
    bargmann_matrix_element,
    defect_sweep,
    fit_loglog_slope,
    named_symbol,
    weyl_relation,
)

from oracles import dplus_matrix

KC = KappaCocycle()
SWEEP_FLUX = [4, 6, 8, 11, 16, 22, 32]
_sweep_cache = {}


def _line(num, name, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d} [{name}] {status}: {detail} ({elapsed:.2f}s)")


def _sweep_cells():
    if "cells" not in _sweep_cache:
        f, g = named_symbol("cos2pix"), named_symbol("cos2piy")
        grids = [(n, max(16, 8 * n)) for n in SWEEP_FLUX]
        _sweep_cache["cells"] = [
            {"N": n, **defects} for n, defects in zip(SWEEP_FLUX, defect_sweep(f, g, grids))
        ]
    return _sweep_cache["cells"]


def test_criterion_01_cocycle_closed_form():
    start = time.time()
    points, values, residual = cocycle_grid(symmetric_gauge(), 10)
    worst = 0.0
    for i, g1 in enumerate(points):
        for j, g2 in enumerate(points):
            worst = max(
                worst, abs(values[i, j] - math.pi * (g1[1] * g2[0] - g1[0] * g2[1]))
            )
    elapsed = time.time() - start
    ok = worst <= 1e-10 and residual <= 1e-10 and elapsed < 1.0
    _line(1, "cocycle closed form", ok, f"max dev {worst:.2e}, constancy {residual:.2e}", elapsed)
    assert worst <= 1e-10
    assert residual <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_commutation_relation():
    start = time.time()
    worst = 0.0
    for s in (0.1, 0.5, math.sqrt(2.0) - 1.0):
        uv = multiply(AlgebraElement.basis(U), AlgebraElement.basis(V), KC, s)
        vu = multiply(AlgebraElement.basis(V), AlgebraElement.basis(U), KC, s)
        ratio = vu.coefficient((1, 1)) / uv.coefficient((1, 1))
        worst = max(worst, abs(ratio - cmath.exp(2j * math.pi * s)))
    elapsed = time.time() - start
    ok = worst <= 1e-14 and elapsed < 1.0
    _line(2, "generator commutation", ok, f"max dev {worst:.2e}", elapsed)
    assert worst <= 1e-14
    assert elapsed < 1.0


def test_criterion_03_gram_element():
    start = time.time()
    s, radius = 2.0, 6
    gram = module_inner(vacuum(s), vacuum(s), radius)
    worst = max(
        abs(z - math.exp(-(math.pi * s / 2.0) * (n * n + m * m)) / s)
        for (n, m), z in gram.terms.items()
    )
    rep = regular_representation(gram, KC, s, radius)
    min_eig = float(np.linalg.eigvalsh(0.5 * (rep + rep.conj().T))[0])
    elapsed = time.time() - start
    ok = worst <= 1e-10 and min_eig >= -1e-9 and elapsed < 10.0
    _line(3, "vacuum Gram element", ok, f"coeff dev {worst:.2e}, min eig {min_eig:.2e}", elapsed)
    assert worst <= 1e-10
    assert min_eig >= -1e-9
    assert elapsed < 10.0


def test_criterion_04_harper_norms():
    start = time.time()
    flat = norm_estimate(harper_element(KC, 0.0), KC, 0.0, 40)
    half = norm_estimate(harper_element(KC, 0.5), KC, 0.5, 40)
    elapsed = time.time() - start
    dev_flat = abs(flat - 4.0)
    dev_half = abs(half - 2.0 * math.sqrt(2.0))
    ok = dev_flat <= 0.05 and dev_half <= 0.01 and elapsed < 30.0
    _line(4, "hopping-element norms", ok, f"s=0: {flat:.5f}, s=1/2: {half:.5f}", elapsed)
    assert dev_flat <= 0.05
    assert dev_half <= 0.01
    assert elapsed < 30.0


def test_criterion_05_index():
    start = time.time()
    results = []
    for n in range(1, 7):
        grid = max(16, 8 * n)
        dim = kernel_dimension(build_dolbeault(n, grid))
        formula = l2_index(genus=1, vol=1.0, s=float(n))
        results.append((n, dim, formula))
    elapsed = time.time() - start
    ok = all(dim == n == round(formula) for n, dim, formula in results) and elapsed < 120.0
    _line(5, "kernel index", ok, f"dims {[d for _, d, _ in results]}", elapsed)
    for n, dim, formula in results:
        assert dim == n
        assert dim == round(formula)
    assert elapsed < 120.0


def test_criterion_06_gap_and_parametrix():
    start = time.time()
    details = []
    ok = True
    for n in range(1, 5):
        rep = spectral_report(build_dolbeault(n, max(16, 8 * n)))
        bound = 0.9 * n
        ok = ok and rep.gap_degree1 >= bound
        ok = ok and rep.parametrix_norm <= bound ** -0.5
        details.append(round(rep.gap_degree1, 3))
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    _line(6, "gap and parametrix", ok, f"gaps {details}", elapsed)
    assert ok
    assert elapsed < 60.0


def test_criterion_07_multiplicativity_decay():
    start = time.time()
    cells = _sweep_cells()
    ns = [c["N"] for c in cells]
    slope_product = fit_loglog_slope(ns, [c["product"] for c in cells])
    slope_comm = fit_loglog_slope(ns, [c["commutator"] for c in cells])
    slope_first = fit_loglog_slope(ns, [c["first_order"] for c in cells])
    elapsed = time.time() - start
    ok = (
        slope_product <= -0.5
        and slope_comm <= -1.5
        and slope_first <= -1.5
        and elapsed < 180.0
    )
    _line(
        7,
        "defect decay slopes",
        ok,
        f"product {slope_product:.2f}, commutator {slope_comm:.2f}, first-order {slope_first:.2f}",
        elapsed,
    )
    assert slope_product <= -0.5
    assert slope_comm <= -1.5
    assert slope_first <= -1.5
    assert elapsed < 180.0


def test_criterion_08_trace_limit():
    # the sweep symbols are traceless Fourier modes for every flux by the
    # exact lattice magnetic symmetry, so the defect reaches the limit at
    # machine precision and a decay-rate fit carries no information; the
    # criterion passes either by rate or by outright convergence
    start = time.time()
    cells = _sweep_cells()
    ns = [c["N"] for c in cells]
    defects = [c["trace"] for c in cells]
    slope = fit_loglog_slope(ns, defects)
    converged = max(defects) <= 1e-12
    elapsed = time.time() - start
    ok = converged or slope <= -0.9
    branch = "machine-precision convergence" if converged else f"slope {slope:.2f}"
    _line(8, "trace limit", ok, f"{branch}, max defect {max(defects):.2e}", elapsed)
    assert ok


def test_criterion_09_weyl_relation():
    start = time.time()
    worst = 0.0
    for n in range(2, 13):
        scalar = weyl_relation(n, max(16, 8 * n))
        dev = min(
            abs(scalar - cmath.exp(2j * math.pi / n)),
            abs(scalar - cmath.exp(-2j * math.pi / n)),
        )
        worst = max(worst, dev)
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    _line(9, "noncommutative-torus scalar", ok, f"max dev {worst:.2e}", elapsed)
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_10_bargmann_formula():
    start = time.time()
    worst = 0.0
    for s in (1.0, 1.7, 2.5):
        for j in range(4):
            for k in range(4):
                value = bargmann_matrix_element(j, k, s)
                closed = math.exp(-math.pi * (j * j + k * k) / s) / s
                worst = max(worst, abs(value - closed))
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    _line(10, "vacuum overlap formula", ok, f"max dev {worst:.2e}", elapsed)
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_11_genus_trace():
    start = time.time()
    rng = np.random.default_rng(2718)
    base = natsume_nest_trace(2, 3.0)
    ok = abs(base - 2.0) <= 1e-12 and abs(l2_index(2, 1.0, 3.0) - 2.0) <= 1e-12
    worst = 0.0
    for _ in range(100):
        genus = int(rng.integers(2, 9))
        s = float(rng.uniform(0.0, 10.0))
        worst = max(
            worst, abs(natsume_nest_trace(genus, s) - l2_index(genus, float(genus - 1), s))
        )
    elapsed = time.time() - start
    ok = ok and worst <= 1e-12 and elapsed < 1.0
    _line(11, "genus trace identity", ok, f"max dev {worst:.2e}", elapsed)
    assert ok


def test_criterion_12_property_suites():
    start = time.time()
    rng = np.random.default_rng(5150)
    checks = {}

    # additive cocycle identity, 1e4 random triples, |coords| <= 50; the
    # float residual floor is four correctly-rounded multiples of pi*5e3
    worst = 0.0
    for _ in range(10_000):
        g1, g2, g3 = (tuple(int(v) for v in rng.integers(-50, 51, 2)) for _ in range(3))
        worst = max(
            worst,
            abs(KC(g2, g3) - KC(compose(g1, g2), g3) + KC(g1, compose(g2, g3)) - KC(g1, g2)),
        )
    checks["cocycle identity"] = worst <= 4e-12

    def random_element():
        return AlgebraElement(
            {
                (int(rng.integers(-3, 4)), int(rng.integers(-3, 4))): complex(*rng.normal(size=2))
                for _ in range(5)
            }
        )

    s = 0.61
    a, b, c = random_element(), random_element(), random_element()
    left = multiply(multiply(a, b, KC, s), c, KC, s)
    right = multiply(a, multiply(b, c, KC, s), KC, s)
    keys = set(left.terms) | set(right.terms)
    checks["associativity"] = (
        max(abs(left.coefficient(g) - right.coefficient(g)) for g in keys) <= 1e-12
    )

    ab_star = involution(multiply(a, b, KC, s), KC, s)
    ba_star = multiply(involution(b, KC, s), involution(a, KC, s), KC, s)
    keys = set(ab_star.terms) | set(ba_star.terms)
    checks["involution axiom"] = (
        max(abs(ab_star.coefficient(g) - ba_star.coefficient(g)) for g in keys) <= 1e-12
    )
    tr_ab = trace(multiply(a, b, KC, s))
    tr_ba = trace(multiply(b, a, KC, s))
    gram = trace(multiply(involution(a, KC, s), a, KC, s))
    checks["trace axiom"] = abs(tr_ab - tr_ba) <= 1e-12 and gram.real >= 0

    psi = vacuum(1.3)
    twist_ok = True
    for _ in range(5):
        g1 = tuple(int(v) for v in rng.integers(-3, 4, 2))
        g2 = tuple(int(v) for v in rng.integers(-3, 4, 2))
        lhs = project_act(project_act(psi, g1), g2)
        rhs = project_act(psi, compose(g1, g2))
        twist = cmath.exp(1j * 1.3 * KC(g1, g2))
        twist_ok = twist_ok and np.abs(lhs.coeffs - twist * rhs.coeffs).max() <= 1e-12
    checks["projective twist"] = twist_ok

    dense = dplus_matrix(2, 16).toarray()
    v0 = np.sort(sla.eigvalsh(dense.conj().T @ dense))
    v1 = np.sort(sla.eigvalsh(dense @ dense.conj().T))
    nz0, nz1 = v0[v0 > 1e-6], v1[v1 > 1e-6]
    checks["susy pairing"] = (
        nz0.size == nz1.size and np.abs(nz0 - nz1).max() <= 1e-9 * nz0.max()
    )

    sa = np.sort(sla.svdvals(dplus_matrix(4, 32, "landau").toarray()))
    sb = np.sort(sla.svdvals(dplus_matrix(4, 32, "symmetric-periodic").toarray()))
    checks["gauge invariance"] = float(np.abs(sa - sb).max()) <= 1e-9

    elapsed = time.time() - start
    ok = all(checks.values()) and elapsed < 300.0
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    _line(12, "property suites", ok, detail, elapsed)
    assert all(checks.values()), detail
    assert elapsed < 300.0
