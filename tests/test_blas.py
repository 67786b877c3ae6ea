import sys
import threading

import numpy as np
import pytest

from quantlab import _blas, algebra, dolbeault
from quantlab.algebra import KappaCocycle, harper_element, norm_estimate
from quantlab.errors import ConvergenceError

KC = KappaCocycle()


def blas_thread_counts():
    """Each found OpenBLAS's thread count, read as the value its setter returns."""
    counts = []
    for setter in _blas._openblas_thread_setters():
        count = setter(1)
        setter(count)
        counts.append(count)
    return counts


@pytest.mark.skipif(
    sys.platform != "linux"
    or "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
    reason="the lookup reads the loaded libraries of a Linux process; numpy has no OpenBLAS",
)
def test_openblas_is_found():
    assert _blas._openblas_thread_setters()


def test_one_blas_thread_restores_the_previous_count():
    before = blas_thread_counts()
    with _blas.one_blas_thread():
        assert blas_thread_counts() == [1] * len(before)
    assert blas_thread_counts() == before
    with pytest.raises(RuntimeError), _blas.one_blas_thread():
        raise RuntimeError
    assert blas_thread_counts() == before


def test_one_blas_thread_restores_the_count_after_overlapping_blocks_in_threads():
    # the OpenBLAS count is process-wide: a block that saved another block's 1
    # and restored it last would leave the process on one thread
    before = blas_thread_counts()

    def enter_and_leave():
        for _ in range(300):
            with _blas.one_blas_thread():
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_and_leave) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert blas_thread_counts() == before


def test_one_blas_thread_restores_the_count_when_the_bracket_stays_open(monkeypatch):
    before = blas_thread_counts()
    monkeypatch.setattr(algebra, "_NORM_MAX_STEPS", 1)
    with pytest.raises(ConvergenceError):
        norm_estimate(harper_element(KC, 0.0), KC, 0.1, 13)
    assert blas_thread_counts() == before


def test_both_solver_loops_run_on_one_blas_thread(monkeypatch):
    seen = []

    def recording(function):
        def wrapper(*args, **kwargs):
            seen.append((function.__name__, blas_thread_counts()))
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(algebra.la, "cholesky_banded", recording(algebra.la.cholesky_banded))
    monkeypatch.setattr(dolbeault.np.linalg, "qr", recording(dolbeault.np.linalg.qr))
    norm_estimate(harper_element(KC, 0.0), KC, 0.5, 4)
    dolbeault._kernel_data.__wrapped__(3, 24, "landau")  # bypass the cache
    ones = [1] * len(_blas._openblas_thread_setters())
    assert {name for name, _ in seen} == {"cholesky_banded", "qr"}
    assert all(counts == ones for _, counts in seen)


def test_norm_estimate_without_openblas_is_unchanged(monkeypatch):
    h = harper_element(KC, 0.0)
    values = [norm_estimate(h, KC, s, 8) for s in (0.1, 0.5)]
    monkeypatch.setattr(_blas, "_openblas_thread_setters", lambda: ())
    # a thread count may change the summation order, so rounding may differ
    again = [norm_estimate(h, KC, s, 8) for s in (0.1, 0.5)]
    assert again == pytest.approx(values, rel=1e-13, abs=0.0)
