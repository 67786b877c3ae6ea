import numpy as np
import pytest

from quantlab import surface_index
from quantlab.surface_index import l2_index, numeric_index_crosscheck

from oracles import natsume_nest_trace

rng = np.random.default_rng(42)


def test_torus_index_is_flux():
    for n in range(7):
        assert l2_index(genus=1, vol=1.0, s=float(n)) == pytest.approx(float(n))


def test_genus_two_example():
    assert l2_index(genus=2, vol=1.0, s=3.0) == pytest.approx(2.0)


def test_flat_trivial_case():
    assert l2_index(genus=1, vol=1.0, s=0.0) == pytest.approx(0.0)


def test_index_affine_in_s():
    for _ in range(20):
        genus = int(rng.integers(1, 9))
        vol = float(rng.uniform(0.1, 5.0))
        s1, s2 = rng.uniform(0, 10, 2)
        v1 = l2_index(genus, vol, s1)
        v2 = l2_index(genus, vol, s2)
        if abs(s2 - s1) > 1e-9:
            slope = (v2 - v1) / (s2 - s1)
            assert slope == pytest.approx(vol, abs=1e-10)


# at vol = g - 1 the index is the Natsume-Nest trace value (s - 1)(g - 1)
def test_natsume_nest_values():
    for genus, s, value in [(2, 3.0, 2.0), (2, 1.0, 0.0), (5, 2.5, 6.0)]:
        assert natsume_nest_trace(genus, s) == pytest.approx(value)
        assert l2_index(genus, float(genus - 1), s) == pytest.approx(value)


def test_natsume_nest_matches_index_randomly():
    for _ in range(100):
        genus = int(rng.integers(2, 9))
        s = float(rng.uniform(0.0, 10.0))
        value = natsume_nest_trace(genus, s)
        assert abs(value - l2_index(genus, float(genus - 1), s)) <= 1e-12


def test_numeric_crosscheck_small_fluxes():
    for n in (1, 2, 3):
        report = numeric_index_crosscheck(n, max(16, 8 * n))
        assert report["match"]
        assert report["kernel_dim"] == n


def test_numeric_crosscheck_flat_case_flagged():
    report = numeric_index_crosscheck(0, 8)
    assert report["flat_case_flagged"]
    assert not report["match"]
    assert report["kernel_dim"] == 1
    assert report["index_formula"] == pytest.approx(0.0)


def test_numeric_crosscheck_reports_a_miscount_without_raising(monkeypatch):
    # quantlab spectral gates the count; the crosscheck only reports it
    monkeypatch.setattr(surface_index, "kernel_dimension", lambda pair: 3)
    report = numeric_index_crosscheck(2, 16)
    assert report["kernel_dim"] == 3 and report["match"] is False
    assert not report["flat_case_flagged"]


def test_genus_too_large_for_a_float_is_named():
    genus = 10**400
    for vol in (1.0, genus - 1):
        with pytest.raises(OverflowError, match=f"^genus {genus} is too large for a float$"):
            l2_index(genus, vol, 1.0)
