"""The benchmark's tracer looks satconv functions up by name; keep them there."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import satconv.layer
import satconv.nets
import satconv.train
from satconv.boxes import BoxParams, BoxVariant, init_params


def test_tracer_finds_every_traced_name(monkeypatch):
    # Tracer() reads each traced name through owner.__dict__[attr], so a
    # renamed or moved function fails here rather than in a traced run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    hooked = {(owner, attr) for owner, attr, _orig, _wrapper in tracer._patches}
    for name in ("build_sat", "sat_backward", "compile_plan"):
        assert (satconv.layer, name) in hooked
    assert (satconv.nets, "project_params") in hooked
    # dense.conv2d_calls_per_step counts calls through these three names
    for name in ("conv2d", "conv2d_input_grad", "conv2d_kernel_grad"):
        assert (satconv.nets, name) in hooked
    for name in ("synth_keypoint_sample", "gaussian_target", "mse_loss", "evaluate_keypoints"):
        assert (satconv.train, name) in hooked


def test_keypoint_step_calls_the_traced_names(monkeypatch):
    # heatmap.ms_per_step and train.data_ms_per_step time calls through these
    # names of satconv.train, and the benchmark's step clock reads Adam.step:
    # one step draws batch samples, builds batch heatmap targets, and makes
    # one loss call and one Adam step. A blob drawn inside a sample counts as
    # the sample's, not as a target.
    train = satconv.train
    counts = dict.fromkeys(("synth_keypoint_sample", "gaussian_target", "mse_loss", "step"), 0)
    in_sample = [False]

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if in_sample[0]:
                return fn(*args, **kwargs)
            counts[name] += 1
            in_sample[0] = name == "synth_keypoint_sample"
            try:
                return fn(*args, **kwargs)
            finally:
                in_sample[0] = False
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("synth_keypoint_sample", "gaussian_target", "mse_loss"):
        counted(train, name)
    counted(satconv.nets.Adam, "step")
    per_run = []
    for steps in (1, 2):
        cfg = train.TrainConfig(task="keypoints", steps=steps, channels=4, blocks=("box9",),
                                batch=3, eval_every=100, eval_samples=2, final_eval_samples=2)
        counts.update(dict.fromkeys(counts, 0))
        train.train_toy_keypoints(cfg)
        per_run.append(dict(counts))
    one_step = {name: per_run[1][name] - per_run[0][name] for name in counts}
    assert one_step == {"synth_keypoint_sample": 3, "gaussian_target": 3, "mse_loss": 1,
                        "step": 1}
    assert per_run[0]["mse_loss"] == per_run[0]["step"] == 1


@pytest.mark.parametrize("variant", list(BoxVariant))
def test_post_step_projects_and_compiles_once_per_layer(monkeypatch, variant):
    # boxes.project_params_calls_per_step and boxes.compile_plan_calls_per_step
    # count calls through these names: one each per box layer and step, and
    # no BoxParams is built on the way.
    calls = []
    for module, name in ((satconv.nets, "project_params"), (satconv.layer, "compile_plan")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    module = satconv.nets.BoxDepthwise(np.random.default_rng(0), 16, 13, variant)
    post_init = BoxParams.__post_init__
    monkeypatch.setattr(BoxParams, "__post_init__",
                        lambda self: calls.append("BoxParams") or post_init(self))
    calls.clear()
    module.theta += 0.01
    module.post_step()
    assert calls == ["project_params", "compile_plan"]


def test_backward_builds_one_table_per_plane_on_the_table_engine(monkeypatch):
    # sat.build_sat_calls_per_step counts calls through satconv.layer.build_sat.
    # Forward builds no table. Planes up to BANDED_MAX_SIDE a side take the
    # banded route, which builds none in backward either; on the table engine
    # backward builds one per plane, the table of its flipped cotangent.
    calls = []
    build_sat = satconv.layer.build_sat
    monkeypatch.setattr(satconv.layer, "build_sat",
                        lambda plane, **kw: calls.append(np.shape(plane)) or build_sat(plane, **kw))
    rng = np.random.default_rng(0)
    side = satconv.layer.BANDED_MAX_SIDE
    layer = satconv.layer.BoxConvLayer([init_params(13, rng=rng) for _ in range(3)])
    for shape, tables, banded_max in (((3, 40, 50), [], side),
                                      ((2, 3, 40, 50), [], side),
                                      ((3, side, side), [], side),
                                      ((3, 40, 50), [(40, 50)] * 3, 0),
                                      ((2, 3, 40, 50), [(40, 50)] * 6, 0),
                                      ((3, 256, 256), [(256, 256)] * 3, side)):
        monkeypatch.setattr(satconv.layer, "BANDED_MAX_SIDE", banded_max)
        calls.clear()
        y, saved = layer.forward(rng.normal(size=shape))
        assert calls == []
        layer.backward(saved, rng.normal(size=y.shape))
        assert calls == tables, shape


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
