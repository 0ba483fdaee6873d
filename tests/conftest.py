import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qfa
from support import bundled_openblas

# One BLAS thread for the whole session: numpy's OpenBLAS otherwise starts one
# per CPU, and under load those threads slow the BLAS-heavy tests several
# times over.  numpy is already loaded when pytest reads this file, so
# OPENBLAS_NUM_THREADS would come too late; the count is set in the loaded
# library instead.  Without the bundled library this is a no-op, and the
# report header says so.
BLAS = bundled_openblas()
if BLAS is not None:
    BLAS.scipy_openblas_set_num_threads64_(1)


def pytest_report_header(config):
    if BLAS is None:
        return "BLAS threads: not pinned (numpy bundles no scipy_openblas library)"
    return f"BLAS threads: {BLAS.scipy_openblas_get_num_threads64_()} (bundled scipy_openblas)"


@pytest.fixture
def run_optimized():
    """Run a code string under python -O with this checkout's qfa importable."""
    src = str(Path(qfa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(code: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )

    return run


@pytest.fixture
def traced_peak():
    """Call fn() under tracemalloc and return (its result, the peak bytes
    allocated while it ran, beyond what was live when it started)."""

    def run(fn):
        tracemalloc.start()
        try:
            out = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak

    return run
