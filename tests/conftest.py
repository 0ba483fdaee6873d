import os
import subprocess
import sys
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
