import math

import numpy as np
import pytest

from satconv.boxes import BoxVariant, FeasibilityError
from satconv.fmap import DimensionError, channel_concat, channel_shuffle, channel_split
from satconv.nets import (
    Adam,
    BoxDepthwise,
    Broadcast,
    ChannelChangeBlock,
    DenseDepthwise,
    Module,
    Pointwise,
    Relu,
    Sequential,
    ShuffleHalfBlock,
)
from satconv.layer import BoxConvLayer
from satconv.train import collect_boxes


def scalar_adam_reference(grad_fn, theta, lr, steps):
    """Plain-float transcription of the update rule, kept separate from the
    array implementation on purpose."""
    m = v = 0.0
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        theta -= lr * mhat / (math.sqrt(vhat) + 1e-8)
    return theta


def test_adam_zero_gradient_is_noop():
    p = np.array([1.0, -2.0])
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(3):
        opt.step({"p": np.zeros(2)})
    assert np.array_equal(p, [1.0, -2.0])


def test_adam_first_step_magnitude():
    p = np.array([0.0])
    opt = Adam({"p": p}, lr=1e-3)
    opt.step({"p": np.array([7.3])})
    assert abs(p[0] + 1e-3) < 1e-9  # step of lr against the gradient sign


def test_adam_matches_scalar_recurrence_on_quadratic():
    p = np.array([1.0])
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(100):
        opt.step({"p": 2.0 * p})
    want = scalar_adam_reference(lambda t: 2.0 * t, 1.0, 0.1, 100)
    assert abs(p[0] - want) < 1e-12
    assert abs(p[0]) < 0.1


def test_adam_shape_mismatch():
    p = np.zeros(3)
    opt = Adam({"p": p})
    with pytest.raises(DimensionError):
        opt.step({"p": np.zeros(2)})


@pytest.mark.parametrize("bad_grads", [
    {"a": np.ones(2), "b": np.ones(2)},  # b's gradient has a's shape
    {"a": np.ones(2)},  # b's gradient is missing
], ids=["wrong_shape", "missing_key"])
def test_adam_failed_step_changes_nothing(bad_grads):
    """Every gradient is checked before any value moves, so parameters that
    come before the bad gradient are left as they were, and so are the
    moments and the step count."""
    a, b = np.ones(2), np.ones(3)
    opt = Adam({"a": a, "b": b}, lr=0.1)
    with pytest.raises((DimensionError, KeyError)):
        opt.step(bad_grads)
    assert np.array_equal(a, np.ones(2)) and np.array_equal(b, np.ones(3))
    assert not opt.m.any() and not opt.v.any() and opt.t == 0
    opt.step({"a": np.ones(2), "b": np.ones(3)})  # a good step still runs as a first step
    assert opt.t == 1 and np.allclose(a, 0.9) and np.allclose(b, 0.9)


def test_adam_flat_moments_match_per_array_recurrence(rng):
    """The flat update is bit-equal to the same recurrence run array by array."""
    shapes = {"w": (3, 4), "b": (4,), "s": (1,), "none": (4, 0), "k": (2, 3, 3)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    ref = {k: v.copy() for k, v in params.items()}
    ref_m = {k: np.zeros(s) for k, s in shapes.items()}
    ref_v = {k: np.zeros(s) for k, s in shapes.items()}
    opt = Adam(params, lr=0.01)
    for t in range(1, 8):
        grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-3, 3) for k, s in shapes.items()}
        opt.step(grads)
        b1t, b2t = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for k in shapes:
            g, m, v = grads[k], ref_m[k], ref_v[k]
            m += (1.0 - 0.9) * (g - m)
            v += (1.0 - 0.999) * (g * g - v)
            ref[k] -= 0.01 * (m / b1t) / (np.sqrt(v / b2t) + 1e-8)
        for k in shapes:
            assert params[k].tobytes() == ref[k].tobytes(), k
    assert opt.m.tobytes() == np.concatenate([ref_m[k].ravel() for k in shapes]).tobytes()
    assert opt.v.tobytes() == np.concatenate([ref_v[k].ravel() for k in shapes]).tobytes()


def test_adam_without_parameters_steps_without_error():
    opt = Adam({})
    opt.step({})
    assert opt.params == {} and opt.m.size == 0


def layer_fd_check(rng, module, x, n_probes=4, h=1e-6):
    y, ctx = module.forward(x)
    g = rng.normal(size=y.shape)
    gx, grads = module.backward(ctx, g)

    def loss():
        out, _ = module.forward(x)
        return float(np.sum(out * g))

    for key, arr in module.params().items():
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=min(n_probes, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            module.post_step()  # refresh any cached plans
            hi = loss()
            flat[idx] = keep - h
            module.post_step()
            lo = loss()
            flat[idx] = keep
            module.post_step()
            fd = (hi - lo) / (2 * h)
            assert abs(grads[key].reshape(-1)[idx] - fd) < 1e-4 * max(1.0, abs(fd)), key
    # input direction
    v = rng.normal(size=x.shape)
    hi_out, _ = module.forward(x + h * v)
    lo_out, _ = module.forward(x - h * v)
    fd = float(np.sum((hi_out - lo_out) * g)) / (2 * h)
    assert abs(float(np.sum(gx * v)) - fd) < 1e-4 * max(1.0, abs(fd))


def test_pointwise_backward(rng):
    layer_fd_check(rng, Pointwise(rng, 3, 2), rng.normal(size=(3, 5, 4)))


@pytest.mark.parametrize("in_ch,out_ch", [(1, 4), (4, 4), (8, 1)])
@pytest.mark.parametrize("bias", [True, False])
def test_pointwise_matches_einsum_reference(rng, in_ch, out_ch, bias):
    """Forward, input gradient and parameter gradients against np.einsum, at
    the keypoint net's shapes: within 1e-13 of the sum of the absolute
    terms that each value adds up."""
    layer = Pointwise(rng, in_ch, out_ch, bias=bias)
    layer.bias[:] = rng.normal(size=out_ch) if bias else 0.0
    x = rng.normal(size=(4, in_ch, 32, 32))
    y, ctx = layer.forward(x)
    g = rng.normal(size=y.shape)
    gx, grads = layer.backward(ctx, g)
    m, b = layer.matrix, layer.bias

    def close(got, spec, lhs, rhs, extra=0.0):
        want = np.einsum(spec, lhs, rhs) + extra
        scale = np.einsum(spec, np.abs(lhs), np.abs(rhs)) + np.abs(extra)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * scale), spec

    close(y, "oc,nchw->nohw", m, x, b[:, None, None])
    close(gx, "oc,nohw->nchw", m, g)
    close(grads["matrix"], "nohw,nchw->oc", g, x)
    assert list(grads) == (["matrix", "bias"] if bias else ["matrix"])
    if bias:
        close(grads["bias"], "nohw,nohw->o", g, np.ones_like(g))


def test_dense_depthwise_backward(rng):
    layer_fd_check(rng, DenseDepthwise(rng, 2, 3), rng.normal(size=(2, 6, 6)))


def test_box_depthwise_backward(rng):
    module = BoxDepthwise(rng, 2, 9, BoxVariant.SPLIT_V)
    layer_fd_check(rng, module, rng.normal(size=(2, 8, 8)), n_probes=2)


def test_sequential_and_blocks_backward(rng):
    inner = Sequential([
        ("dw", DenseDepthwise(rng, 2, 3)),
        ("pw", Pointwise(rng, 2, 2)),
        ("act", Relu()),
    ])
    block = ShuffleHalfBlock(4, inner)
    layer_fd_check(rng, block, rng.normal(size=(4, 6, 6)), n_probes=2)


def test_channel_change_block_backward(rng):
    inner = Sequential([
        ("dw", DenseDepthwise(rng, 2, 3)),
        ("pw", Pointwise(rng, 2, 3)),
        ("act", Relu()),
    ])
    block = ChannelChangeBlock(rng, 2, 6, inner)
    x = rng.normal(size=(2, 5, 5))
    y, _ = block.forward(x)
    assert y.shape == (6, 5, 5)
    layer_fd_check(rng, block, x, n_probes=2)


def test_half_block_with_identity_inner_is_permutation(rng):
    """Identity transform on the worked half reduces the block to the
    interleaving permutation (checked on non-negative input so the
    rectifier is transparent)."""
    c = 6
    inner = Sequential([
        ("box", BoxDepthwise(rng, c // 2, 9)),
        ("pw", Pointwise(rng, c // 2, c // 2)),
        ("act", Relu()),
    ])
    inner.children[0][1].theta[:] = 0.0
    inner.children[0][1].post_step()
    inner.children[1][1].matrix[:] = np.eye(c // 2)
    inner.children[1][1].bias[:] = 0.0
    block = ShuffleHalfBlock(c, inner)
    x = np.abs(rng.normal(size=(c, 4, 4)))
    y, _ = block.forward(x)
    assert np.max(np.abs(y - channel_shuffle(x, 2))) < 1e-12


def _block_inner(rng, in_ch, out_ch):
    box = BoxDepthwise(rng, in_ch, 9, BoxVariant.SPLIT_4)
    box.weight[:] = rng.uniform(0.5, 1.5, size=box.weight.shape)
    box.post_step()
    return Sequential([("dw", box), ("pw", Pointwise(rng, in_ch, out_ch)), ("act", Relu())])


@pytest.mark.parametrize("lead", [(), (3,)])
def test_half_block_equals_split_concat_shuffle(rng, lead):
    """The block's interleave is byte-equal to fmap's split, concat and
    shuffle, forward and backward, batched or not, on odd H and W."""
    inner = _block_inner(rng, 3, 3)
    block = ShuffleHalfBlock(6, inner)
    x = rng.normal(size=(*lead, 6, 7, 5))
    out, ictx = block.forward(x)
    keep, work = channel_split(x, 3)
    y, ref_ctx = inner.forward(work)
    assert out.tobytes() == channel_shuffle(channel_concat(keep, y), 2).tobytes()

    g = rng.normal(size=out.shape)
    gx, grads = block.backward(ictx, g)
    g_keep, g_work = channel_split(channel_shuffle(g, 3), 3)
    g_work, ref_grads = inner.backward(ref_ctx, g_work)
    assert gx.tobytes() == channel_concat(g_keep, g_work).tobytes()
    assert list(grads) == [f"inner.{k}" for k in ref_grads]
    for key, value in ref_grads.items():
        assert grads[f"inner.{key}"].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("in_ch", [1, 2])
def test_channel_change_block_equals_concat_shuffle_split(rng, lead, in_ch):
    block = ChannelChangeBlock(rng, in_ch, 6, _block_inner(rng, in_ch, 3))
    x = rng.normal(size=(*lead, in_ch, 7, 5))
    out, ctx = block.forward(x)
    a, actx = block.inner.forward(x)
    b, bctx = block.proj.forward(x)
    assert out.tobytes() == channel_shuffle(channel_concat(a, b), 2).tobytes()

    g = rng.normal(size=out.shape)
    gx, grads = block.backward(ctx, g)
    ga, gb = channel_split(channel_shuffle(g, 3), 3)
    ga, inner_grads = block.inner.backward(actx, ga)
    gb, proj_grads = block.proj.backward(bctx, gb)
    assert gx.tobytes() == (ga + gb).tobytes()
    ref_grads = {**{f"inner.{k}": v for k, v in inner_grads.items()},
                 **{f"proj.{k}": v for k, v in proj_grads.items()}}
    assert list(grads) == list(ref_grads)
    for key, value in ref_grads.items():
        assert grads[key].tobytes() == value.tobytes(), key


def test_blocks_reject_a_wrong_channel_count(rng):
    with pytest.raises(DimensionError, match="expects 6 channels"):
        ShuffleHalfBlock(6, _block_inner(rng, 3, 3)).forward(rng.normal(size=(4, 5, 5)))
    block = ChannelChangeBlock(rng, 2, 6, _block_inner(rng, 2, 2))
    with pytest.raises(DimensionError, match="projection"):
        block.forward(rng.normal(size=(2, 5, 5)))


def test_broadcast(rng):
    b = Broadcast(3)
    x = rng.normal(size=(1, 4, 4))
    y, ctx = b.forward(x)
    assert y.shape == (3, 4, 4)
    g = rng.normal(size=y.shape)
    gx, _ = b.backward(ctx, g)
    assert np.allclose(gx, g.sum(axis=0, keepdims=True))
    with pytest.raises(DimensionError):
        b.forward(rng.normal(size=(2, 4, 4)))


def test_box_depthwise_post_step_projects(rng):
    module = BoxDepthwise(rng, 2, 9)
    module.theta[0] = [1.7, -0.2, 0.9, 0.1]  # out of range and out of order
    module.post_step()
    t = module.theta[0]
    assert -1 <= t[0] <= t[1] <= 1 and -1 <= t[2] <= t[3] <= 1
    # plans were refreshed to the projected boxes
    assert module.conv.boxes[0].thetas == tuple(t)


@pytest.mark.parametrize("variant", [BoxVariant.SINGLE, BoxVariant.SPLIT_4])
def test_box_depthwise_post_step_rejects_nan(rng, variant):
    """A NaN left by an optimizer step fails post_step, naming its channel,
    whichever array it sits in."""
    for name, col in (("theta", 1), ("split", 1), ("weight", 3)):
        module = BoxDepthwise(rng, 4, 9, variant)
        arr = getattr(module, name)
        if col >= arr.shape[1]:
            continue
        arr[2, col] = np.nan
        with pytest.raises(FeasibilityError, match="channel 2") as err:
            module.post_step()
        assert "project" not in str(err.value)


@pytest.mark.parametrize("variant", list(BoxVariant))
def test_box_depthwise_param_order(rng, variant):
    module = BoxDepthwise(rng, 3, 9, variant)
    want = ["theta"] if variant == BoxVariant.SINGLE else ["theta", "split", "weight"]
    assert list(module.params()) == want
    y, ctx = module.forward(rng.normal(size=(2, 3, 8, 8)))
    _, grads = module.backward(ctx, rng.normal(size=y.shape))
    assert list(grads) == want
    assert all(grads[k].shape == v.shape for k, v in module.params().items())


class TwoBoxes(Module):
    """A composite that declares only its children, under names of its own."""

    def __init__(self, rng):
        self.smooth = BoxDepthwise(rng, 2, 9, BoxVariant.SPLIT_4)
        self.wide = Sequential([("dw", BoxDepthwise(rng, 3, 13)), ("act", Relu())])
        self.children = (("smooth", self.smooth), ("wide", self.wide))


def test_composite_declares_children_only(rng):
    net = TwoBoxes(rng)
    wide_box = net.wide.children[0][1]
    params = net.params()
    assert list(params) == ["smooth.theta", "smooth.split", "smooth.weight", "wide.dw.theta"]
    assert params["smooth.split"] is net.smooth.split
    assert params["wide.dw.theta"] is wide_box.theta

    params["smooth.theta"][1] = [0.9, -1.4, 0.3, 0.2]  # out of order and out of range
    params["wide.dw.theta"][2] = [0.5, 0.1, -0.2, -0.6]
    net.post_step()
    assert net.smooth.conv.boxes[1].thetas == (-1.0, 0.9, 0.2, 0.3)
    assert wide_box.conv.boxes[2].thetas == (0.1, 0.5, -0.6, -0.2)
    for box in (net.smooth, wide_box):  # the plans were recompiled from the projected arrays
        x = rng.normal(size=(box.conv.channels, 10, 10))
        fresh, _ = BoxConvLayer(box.conv.boxes).forward(x)
        assert np.array_equal(box.forward(x)[0], fresh)

    found = collect_boxes(net)
    assert found == net.smooth.conv.boxes + wide_box.conv.boxes
    assert len(found) == 5
