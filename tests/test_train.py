from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from satconv import nets
from satconv.boxes import BoxParams, load_boxes
from satconv.heatmap import gaussian_target, mse_loss
from satconv.train import (
    ConfigError,
    TrainConfig,
    box_layers,
    box_target_kernel,
    build_keypoint_net,
    kernel_rel_error,
    log_target_kernel,
    parse_config,
    synth_keypoint_sample,
    train_kernel_approx,
    train_toy_keypoints,
    write_checkpoint,
    write_log_csv,
)


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_parse_minimal_config(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
# comment
task keypoints
steps 100
seed 3
blocks dense3,box9
"""))
    assert cfg.task == "keypoints" and cfg.steps == 100 and cfg.seed == 3
    assert cfg.blocks == ("dense3", "box9")


def test_parse_rejects_unknown_key(tmp_path):
    for key in ("wat", "__class__"):  # an attribute of every config is no key
        with pytest.raises(ConfigError, match="4: unknown key"):
            parse_config(write_cfg(tmp_path, f"\ntask keypoints\nsteps 10\n{key} 5\n"))


@pytest.mark.parametrize("task", ["keypoints", "kernel_approx"])
def test_every_key_written_with_its_default_parses_back(tmp_path, task):
    # task and out default to "", which a 'key value' line cannot hold
    want = replace(TrainConfig(), task=task, out="runs/x")
    lines = []
    for key, value in vars(want).items():
        if key == "blocks":
            value = ",".join(value)
        elif key == "target_box":
            value = " ".join(str(v) for v in value)
        lines.append(f"{key} {value}")
    assert parse_config(write_cfg(tmp_path, "\n".join(lines))) == want


@pytest.mark.parametrize("key", [f.name for f in fields(TrainConfig) if type(f.default) is int])
def test_int_key_rejects_a_fraction(tmp_path, key):
    with pytest.raises(ConfigError, match=f"2: bad value for '{key}'"):
        parse_config(write_cfg(tmp_path, f"task keypoints\n{key} 1.5\n"))


def test_eval_samples_must_fit_in_the_held_out_set(tmp_path):
    # periodic evaluations score held_out[:eval_samples], which holds only
    # final_eval_samples samples
    with pytest.raises(ConfigError, match="eval_samples .64. must be <= final_eval_samples .8."):
        parse_config(write_cfg(tmp_path, "task keypoints\neval_samples 64\n"
                                         "final_eval_samples 8\n"))
    assert parse_config(write_cfg(tmp_path, "task keypoints\neval_samples 8\n"
                                            "final_eval_samples 8\n")).eval_samples == 8


def test_parse_rejects_bad_value(tmp_path):
    with pytest.raises(ConfigError, match="steps"):
        parse_config(write_cfg(tmp_path, "task keypoints\nsteps ten\n"))


def test_parse_rejects_even_box_kernel(tmp_path):
    with pytest.raises(ConfigError, match="odd"):
        parse_config(write_cfg(tmp_path, "task keypoints\nblocks dense3,box8\n"))
    with pytest.raises(ConfigError, match="odd"):
        parse_config(write_cfg(tmp_path, "task kernel_approx\nk 8\n"))


def test_parse_rejects_repeated_key(tmp_path):
    with pytest.raises(ConfigError, match=r"run.cfg:4: key 'steps' already set on line 2"):
        parse_config(write_cfg(tmp_path, "task keypoints\nsteps 5\nseed 1\nsteps 6\n"))


@pytest.mark.parametrize("token", ["dense2", "box", "box1", "box8", "boxa", "conv3"])
def test_validator_and_builder_reject_the_same_tokens(tmp_path, token):
    cfg = TrainConfig(task="keypoints", blocks=("dense3", token))
    with pytest.raises(ConfigError, match=f"config: blocks: '{token}'"):
        build_keypoint_net(np.random.default_rng(0), cfg)
    with pytest.raises(ConfigError, match="blocks"):
        parse_config(write_cfg(tmp_path, f"task keypoints\nblocks dense3,{token}\n"))


@pytest.mark.parametrize("token, size", [("dense", 3), ("dense1", 1), ("dense5", 5), ("box3", 3)])
def test_validator_and_builder_accept_the_same_tokens(tmp_path, token, size):
    cfg = parse_config(write_cfg(tmp_path, f"task keypoints\nblocks {token}\n"))
    dw = build_keypoint_net(np.random.default_rng(0), cfg).children[1][1].inner.children[0][1]
    assert (dw.ksize if token.startswith("dense") else dw.conv.max_kernel) == size


def test_parse_rejects_bad_task(tmp_path):
    with pytest.raises(ConfigError, match="task"):
        parse_config(write_cfg(tmp_path, "task juggling\n"))


def test_target_kernels():
    t = box_target_kernel(9, -2, 1, -1, 2)
    assert t.sum() == 16.0 and t.shape == (10, 10)
    with pytest.raises(ValueError):
        box_target_kernel(5, -3, 3, 0, 0)
    log = log_target_kernel(9, sigma=1.4)
    assert log.shape == (10, 10)
    assert abs(log).max() > 0


def test_zero_boxes_are_rejected(tmp_path):
    """A kernel task needs a box: the config is rejected, and so is the call."""
    with pytest.raises(ConfigError, match="n_boxes must be >= 1, got 0"):
        parse_config(write_cfg(tmp_path, "task kernel_approx\nn_boxes 0\n"))
    with pytest.raises(ValueError, match="at least one box"):
        train_kernel_approx(box_target_kernel(9, -1, 1, -1, 1), n_boxes=0, steps=10, seed=0)


def test_recovers_exact_box():
    target = box_target_kernel(9, -2, 1, -1, 2)
    res = train_kernel_approx(target, n_boxes=1, steps=1200, seed=0, k=9, lr=0.02)
    assert res.final_error < 1e-3


@pytest.fixture(scope="module")
def log_fit():
    target = log_target_kernel(9, sigma=1.4)
    return train_kernel_approx(target, n_boxes=4, steps=1500, seed=0, k=9, lr=0.02), target


def test_log_fit_error_decreases(log_fit):
    res, _ = log_fit
    errs = [row[2] for row in res.log_rows]
    assert res.final_error < res.initial_error / 3
    assert np.mean(errs[-100:]) < np.mean(errs[:100])


def test_learned_boxes_are_diverse(log_fit):
    """With several boxes fitting one target, the parameter vectors should
    not have collapsed onto each other."""
    res, _ = log_fit
    vecs = [np.array(p.thetas) for p in res.boxes]
    dists = [
        float(np.linalg.norm(a - b))
        for i, a in enumerate(vecs)
        for b in vecs[i + 1 :]
    ]
    assert max(dists) > 1e-3


def test_no_box_size_collapse(log_fit):
    res, _ = log_fit
    r = 4.0
    areas = [
        ((p.theta_xh - p.theta_xl) * r + 1) * ((p.theta_yh - p.theta_yl) * r + 1)
        for p in res.boxes
    ]
    assert max(areas) > 2.0  # not everything shrank to the one-pixel minimum


@pytest.mark.parametrize("steps, calls", [(20, 1 + 3 + 1), (23, 1 + 4 + 1)])
def test_last_step_is_evaluated_once(monkeypatch, steps, calls):
    """When the last step is an evaluation step, its row reads the final
    evaluation's first eval_samples instead of forwarding them again."""
    from satconv import train

    seen = []
    evaluate = train.evaluate_keypoints
    monkeypatch.setattr(train, "evaluate_keypoints",
                        lambda model, samples, batch: seen.append(len(samples))
                        or evaluate(model, samples, batch))
    cfg = TrainConfig(task="keypoints", seed=1, steps=steps, channels=4, blocks=("box5",),
                      batch=2, eval_every=5, eval_samples=3, final_eval_samples=6)
    res = train_toy_keypoints(cfg)
    assert seen == [3] * (calls - 1) + [6]
    assert len(res.log_rows) == steps and res.log_rows[-1][0] == steps


def test_keypoints_zero_steps_is_chance():
    cfg = TrainConfig(task="keypoints", seed=0, steps=0, final_eval_samples=100)
    res = train_toy_keypoints(cfg)
    assert res.final_accuracy <= 0.1


def test_keypoint_training_deterministic():
    cfg = TrainConfig(task="keypoints", seed=5, steps=30, channels=4,
                      blocks=("dense3", "box9"), batch=2, eval_every=10,
                      eval_samples=8, final_eval_samples=16)
    a = train_toy_keypoints(cfg)
    b = train_toy_keypoints(cfg)
    assert a.final_accuracy == b.final_accuracy
    assert a.log_rows == b.log_rows
    pa, pb = a.model.params(), b.model.params()
    assert sorted(pa) == sorted(pb)
    for key in pa:
        assert np.array_equal(pa[key], pb[key]), key


def test_synth_sample_shapes(rng):
    x, (cx, cy) = synth_keypoint_sample(rng, 32)
    assert x.shape == (1, 32, 32)
    assert 0 <= cx <= 31 and 0 <= cy <= 31


def test_network_preserves_spatial_dims(rng):
    cfg = TrainConfig(task="keypoints", channels=8,
                      blocks=("dense3", "box9", "dense3", "box13"))
    net = build_keypoint_net(rng, cfg)
    x = rng.normal(size=(1, 24, 17))
    y, _ = net.forward(x)
    assert y.shape == (1, 24, 17)
    assert [layer.conv.max_kernel for layer in box_layers(net)] == [9, 13]


def test_artifact_writers(tmp_path):
    cfg = TrainConfig(task="keypoints", seed=1, steps=5, channels=4,
                      blocks=("box9",), batch=1, eval_every=5,
                      eval_samples=4, final_eval_samples=8)
    res = train_toy_keypoints(cfg)
    write_log_csv(tmp_path / "log.csv", res.log_rows)
    lines = (tmp_path / "log.csv").read_text().splitlines()
    assert lines[0] == "step,loss,accuracy"
    assert len(lines) == 6
    write_checkpoint(tmp_path / "ckpt", res.model)
    boxes = load_boxes(tmp_path / "ckpt" / "boxes.txt")
    assert len(boxes) == 2  # half the trunk width
    assert any((tmp_path / "ckpt").glob("param__*.fm"))


def test_keypoint_net_param_order_is_pinned(rng):
    """Adam's state and the benchmark's box snapshots read params() in order."""
    cfg = parse_config(Path(__file__).parents[1] / "scripts" / "configs" / "keypoints_32.cfg")
    net = build_keypoint_net(rng, cfg)
    blocks = []
    for i, dw in enumerate(("kernels", "theta", "kernels", "theta")):
        blocks += [f"blk{i}.inner.dw.{dw}", f"blk{i}.inner.pw.matrix", f"blk{i}.inner.pw.bias"]
    assert list(net.params()) == [
        "stem.inner.dw.kernels", "stem.inner.pw.matrix", "stem.inner.pw.bias",
        "stem.proj.pw.matrix", "stem.proj.pw.bias",
        *blocks,
        "head.matrix", "head.bias",
    ]


def test_kernel_task_builds_no_box_records_per_step(monkeypatch):
    """The per-step kernel error reads the layer's arrays: training builds as
    many BoxParams in 20 steps as in 5."""
    calls = []
    post_init = BoxParams.__post_init__
    monkeypatch.setattr(BoxParams, "__post_init__",
                        lambda self: calls.append(1) or post_init(self))
    counts = []
    for steps in (5, 20):
        calls.clear()
        train_kernel_approx(log_target_kernel(9), n_boxes=4, steps=steps, seed=0)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _per_sample_reference(cfg):
    """The keypoint loop in its per-sample form, the reference the batch
    loss is held to: one mse_loss per sample, and every gradient divided by
    the batch size after backward. Returns the final parameters and the
    per-step mean of the per-sample losses."""
    model = build_keypoint_net(np.random.default_rng(cfg.seed), cfg)
    data_rng = np.random.default_rng(cfg.seed + 1)
    adam = nets.Adam(model.params(), lr=cfg.lr)
    drop_at = max(1, int(0.75 * cfg.steps))
    shape = (cfg.image_size, cfg.image_size)
    losses = []
    for step in range(1, cfg.steps + 1):
        samples = [synth_keypoint_sample(data_rng, cfg.image_size, cfg.noise)
                   for _ in range(cfg.batch)]
        pred, ctx = model.forward(np.stack([x for x, _ in samples]))
        gpred = np.empty_like(pred)
        loss_sum = 0.0
        for i, (_, peak) in enumerate(samples):
            loss, gpred[i] = mse_loss(pred[i], gaussian_target(peak, shape, cfg.sigma)[None])
            loss_sum += loss
        _, grads = model.backward(ctx, gpred)
        for key in grads:
            grads[key] = grads[key] / cfg.batch
        if step == drop_at:
            adam.lr *= 0.1
        adam.step(grads)
        model.post_step()
        losses.append(loss_sum / cfg.batch)
    return model.params(), losses


@pytest.mark.parametrize("batch", [4, 3])
def test_batch_loss_matches_per_sample_reference(batch):
    """At batch 4 the loss gradient's 2/(N·H·W) is a power of two, which
    scales exactly through backward: the parameters are byte-equal to the
    per-sample loop's. At batch 3 they agree to rounding."""
    cfg = TrainConfig(task="keypoints", seed=2, steps=20, batch=batch, eval_every=100,
                      eval_samples=4, final_eval_samples=4)
    res = train_toy_keypoints(cfg)
    want, want_losses = _per_sample_reference(cfg)
    got = res.model.params()
    assert list(got) == list(want)
    for key in want:
        if batch == 4:
            assert np.array_equal(got[key], want[key]), key
        else:
            err = np.abs(got[key] - want[key]).max()
            assert err <= 1e-12 * np.abs(want[key]).max(), key
    losses = np.array([loss for _, loss, _ in res.log_rows])
    assert np.abs(losses - want_losses).max() <= 1e-14 * np.abs(want_losses).max()


def _keypoint_run(steps):
    cfg = TrainConfig(task="keypoints", seed=1, steps=steps, image_size=16, channels=4,
                      blocks=("box9",), batch=2, eval_every=100, eval_samples=2,
                      final_eval_samples=2)
    return train_toy_keypoints(cfg), cfg.lr


def _kernel_run(steps):
    lr = 0.02
    return train_kernel_approx(log_target_kernel(9), n_boxes=2, steps=steps, seed=0, lr=lr), lr


@pytest.mark.parametrize("steps", [0, 1, 2, 5, 8])
@pytest.mark.parametrize("run", [_keypoint_run, _kernel_run])
def test_one_lr_drop_and_a_post_step_after_every_step(monkeypatch, run, steps):
    """Both tasks drop the learning rate 10x once, at max(1, int(0.75 * steps)),
    and re-project after every Adam step; steps 0 takes none."""
    events = []
    adam_step, post_step = nets.Adam.step, nets.Module.post_step
    monkeypatch.setattr(nets.Adam, "step",
                        lambda adam, grads: events.append(adam.lr) or adam_step(adam, grads))
    monkeypatch.setattr(nets.Module, "post_step",
                        lambda module: events.append(module) or post_step(module))
    res, lr = run(steps)
    drop_at = max(1, int(0.75 * steps))
    want = []
    for step in range(1, steps + 1):
        want += [lr * 0.1 if step >= drop_at else lr, res.model]
    # the model's own post_step, not those it calls on its children
    assert [e for e in events if not isinstance(e, nets.Module) or e is res.model] == want
