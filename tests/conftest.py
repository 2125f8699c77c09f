import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def digests_by_blas_threads():
    """Runs a Python script with satconv on its path under one BLAS thread,
    two, and the library's default; returns the stripped standard output of
    each run."""
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(script):
        outputs = []
        for threads in ("1", "2", None):
            env = {key: v for key, v in os.environ.items()
                   if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.strip())
        return outputs

    return run
