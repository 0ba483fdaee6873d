import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qfa


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
