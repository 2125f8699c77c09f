"""The heap policy set at import: steps stop faulting their arrays back in."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from satconv import heap

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(heap.glibc_mallopt() is None, reason="needs glibc's mallopt")

# 10 warm-up steps of the canonical keypoint run, then the minor faults of 30 more
KEYPOINT_FAULTS = """
import json, resource
import satconv
from satconv import heap, nets, train

cfg = train.parse_config("scripts/configs/keypoints_32.cfg")
cfg.steps = 41
faults = []
step = nets.Adam.step
def counted(adam, grads):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return step(adam, grads)
nets.Adam.step = counted
train.train_toy_keypoints(cfg)
print(json.dumps({"applied": heap.APPLIED, "per_step": (faults[40] - faults[10]) / 30}))
"""


def _run(code, **env):
    clean = {k: v for k, v in os.environ.items()
             if not (k.startswith("MALLOC_") or k == "GLIBC_TUNABLES")}
    clean.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1", **env)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=clean,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_keypoint_steps_do_not_fault_their_arrays_back_in():
    # glibc's defaults unmap and trim each step's arrays: about 680 faults a step
    out = _run(KEYPOINT_FAULTS)
    assert out["applied"] is True
    assert out["per_step"] < 10


def test_operator_malloc_setting_wins():
    out = _run("import json, satconv; print(json.dumps(satconv.heap.APPLIED))",
               MALLOC_TRIM_THRESHOLD_="131072")
    assert out is False
