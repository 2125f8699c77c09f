"""The benchmark's tracer looks satconv functions up by name; keep them there."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import satconv.layer
from satconv.boxes import init_params


def test_tracer_finds_every_traced_name(monkeypatch):
    # Tracer() reads each traced name through owner.__dict__[attr], so a
    # renamed or moved function fails here rather than in a traced run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    hooked = {(owner, attr) for owner, attr, _orig, _wrapper in tracer._patches}
    for name in ("build_sat", "sat_backward", "compile_plan"):
        assert (satconv.layer, name) in hooked


def test_forward_builds_one_table_block_per_channel(monkeypatch):
    # sat.build_sat_calls_per_step counts calls through satconv.layer.build_sat:
    # one per channel, each covering the whole batch, in forward and again in
    # backward, where each builds the table of the cotangent placed on the
    # input grid.
    calls = []
    build_sat = satconv.layer.build_sat
    monkeypatch.setattr(satconv.layer, "build_sat",
                        lambda plane: calls.append(np.shape(plane)) or build_sat(plane))
    rng = np.random.default_rng(0)
    for stride in (1, 2):
        layer = satconv.layer.BoxConvLayer([init_params(13, rng=rng) for _ in range(3)],
                                           stride=stride)
        for shape in ((3, 40, 50), (2, 3, 40, 50)):
            planes = [shape[:-3] + shape[-2:]] * 3
            calls.clear()
            y, saved = layer.forward(rng.normal(size=shape))
            assert calls == planes
            calls.clear()
            layer.backward(saved, rng.normal(size=y.shape))
            assert calls == planes


def test_traced_keypoint_benchmark_runs_clean():
    # A short traced keypoints_32 run exercises every traced name and the
    # benchmark's own rank-3 checks against the program as it is now.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "keypoints_32", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
