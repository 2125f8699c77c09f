"""A batch axis (N, C, H, W) computes exactly what N unbatched calls compute.

Outputs and input gradients must equal the rank-3 calls bit for bit; a
batched module's parameter gradients must equal the per-sample gradients
summed in sample order, which is how the training loop used to add them.
"""

import numpy as np
import pytest

import satconv.layer
from satconv.boxes import BoxParams, BoxVariant, init_params
from satconv.heatmap import gaussian_target, mse_loss
from satconv.layer import BoxConvLayer
from satconv.nets import (
    BoxDepthwise,
    ChannelChangeBlock,
    DenseDepthwise,
    Pointwise,
    Relu,
    Sequential,
    ShuffleHalfBlock,
)
from satconv.train import TrainConfig, build_keypoint_net, synth_keypoint_sample

N = 3


def _sample_sum(grads):
    total = grads[0].copy()
    for g in grads[1:]:
        total += g
    return total


def _unequal_weights(p, rng):
    """Trained split boxes carry unequal sub-box weights; keep every tap."""
    if p.variant == BoxVariant.SINGLE:
        return p
    w = tuple(rng.uniform(0.5, 1.5, size=len(p.split_weights)))
    return BoxParams(*p.thetas, p.max_kernel, p.variant, p.split_theta, w)


@pytest.mark.parametrize("variant", list(BoxVariant))
@pytest.mark.parametrize("stride", [1, 2])
def test_box_layer_batch_equals_samples(rng, monkeypatch, variant, stride):
    """On both routes; the cotangent is that of a loss read on every
    stride-th row and column, zero between."""
    boxes = [_unequal_weights(init_params(k, variant, rng), rng) for k in (9, 9, 9)]
    layer = BoxConvLayer(boxes)
    x = rng.normal(size=(N, 3, 13, 11))
    g = np.zeros(x.shape)
    g[..., ::stride, ::stride] = rng.normal(size=g[..., ::stride, ::stride].shape)
    for side in (satconv.layer.BANDED_MAX_SIDE, 0):  # banded route, then the table engine
        monkeypatch.setattr(satconv.layer, "BANDED_MAX_SIDE", side)
        y, saved = layer.forward(x)
        grads = layer.backward(saved, g)
        for n in range(N):
            yn, saved_n = layer.forward(x[n])
            gn = layer.backward(saved_n, g[n])
            assert np.array_equal(y[n], yn)
            assert np.array_equal(grads.grad_input[n], gn.grad_input)
            for b, bn in zip(grads.grad_boxes, gn.grad_boxes):
                assert np.array_equal(b.theta[n], bn.theta)
                assert np.array_equal(b.split[n], bn.split)
                assert np.array_equal(b.weight[n], bn.weight)


def test_box_layer_shapes_accept_a_batch_axis(rng):
    layer = BoxConvLayer([init_params(9, rng=rng)] * 2)
    assert layer.multadd_count((5, 2, 9, 8)) == 5 * layer.multadd_count((2, 9, 8))
    y, _ = layer.forward(rng.normal(size=(5, 2, 9, 8)))
    assert y.shape == (5, 2, 9, 8)


def _split_inner(rng):
    box = BoxDepthwise(rng, 2, 9, BoxVariant.SPLIT_4)
    box.weight[:] = rng.uniform(0.5, 1.5, size=box.weight.shape)
    box.post_step()
    return Sequential([("dw", box), ("pw", Pointwise(rng, 2, 2)), ("act", Relu())])


MODULES = {
    "dense3": lambda rng: DenseDepthwise(rng, 4, 3),
    "dense5": lambda rng: DenseDepthwise(rng, 4, 5),
    "dense9": lambda rng: DenseDepthwise(rng, 4, 9),
    "pointwise": lambda rng: Pointwise(rng, 4, 3),
    "box": lambda rng: BoxDepthwise(rng, 4, 9),
    "shuffle": lambda rng: ShuffleHalfBlock(4, _split_inner(rng)),
    "change": lambda rng: ChannelChangeBlock(rng, 4, 6, Sequential(
        [("dw", DenseDepthwise(rng, 4, 3)), ("pw", Pointwise(rng, 4, 3))])),
}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_batch_equals_samples(rng, name):
    module = MODULES[name](rng)
    x = rng.normal(size=(N, 4, 10, 9))
    y, ctx = module.forward(x)
    g = rng.normal(size=y.shape)
    gx, grads = module.backward(ctx, g)
    per_sample = []
    for n in range(N):
        yn, ctx_n = module.forward(x[n])
        gxn, grads_n = module.backward(ctx_n, g[n])
        assert np.array_equal(y[n], yn)
        assert np.array_equal(gx[n], gxn)
        per_sample.append(grads_n)
    assert grads.keys() == per_sample[0].keys()
    for key, value in grads.items():
        assert np.array_equal(value, _sample_sum([gs[key] for gs in per_sample])), key


def test_one_value_gradients_sum_in_sample_order(rng):
    """A one-channel head's bias gradient has one value per sample. From 8
    samples on, NumPy's sum over the sample axis adds such rows pairwise;
    the batch must still equal its samples summed in order."""
    module = Pointwise(rng, 4, 1)
    x = rng.normal(size=(9, 4, 6, 5))
    y, ctx = module.forward(x)
    g = rng.normal(size=y.shape) * 10.0 ** rng.integers(-3, 3, size=(9, 1, 1, 1))
    _, grads = module.backward(ctx, g)
    per_sample = [module.backward(module.forward(x[n])[1], g[n])[1] for n in range(9)]
    for key, value in grads.items():
        assert np.array_equal(value, _sample_sum([gs[key] for gs in per_sample])), key


def test_keypoint_net_batched_step_equals_sample_loop():
    cfg = TrainConfig(task="keypoints", image_size=16, channels=4,
                      blocks=("dense3", "box5", "box7"), batch=3)
    model, _ = build_keypoint_net(np.random.default_rng(3), cfg)
    data = np.random.default_rng(4)
    samples = [synth_keypoint_sample(data, cfg.image_size, cfg.noise) for _ in range(cfg.batch)]
    targets = [gaussian_target(peak, (16, 16), cfg.sigma)[None] for _, peak in samples]

    pred, ctx = model.forward(np.stack([x for x, _ in samples]))
    gpred = np.stack([mse_loss(pred[i], t)[1] for i, t in enumerate(targets)])
    _, grads = model.backward(ctx, gpred)

    per_sample = []
    for (x, _), t in zip(samples, targets):
        pred_n, ctx_n = model.forward(x)
        _, grads_n = model.backward(ctx_n, mse_loss(pred_n, t)[1])
        per_sample.append(grads_n)
    assert grads.keys() == per_sample[0].keys()
    for key, value in grads.items():
        assert np.array_equal(value, _sample_sum([gs[key] for gs in per_sample])), key
