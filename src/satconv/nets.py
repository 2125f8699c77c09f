"""Tiny layer system with hand-derived backprop, plus the two shuffle blocks.

No autograd graph: every module implements forward(x) -> (y, ctx) and
backward(ctx, grad_y) -> (grad_x, grads), where grads is keyed like
params(). A composite declares its tree once, as children: (name, module)
pairs. From them Module derives params(), keyed "name.key" in child order,
and post_step(); backward keys child gradients the same way with prefixed().
Feature maps are (C, H, W) or a batch (N, C, H, W); a batched backward
returns each parameter's per-sample gradients summed in sample order, so
the sum equals that of N unbatched passes bit for bit. A ctx serves one
backward pass: Sequential releases each child's ctx as soon as it is used,
so activations are freed while the pass runs.
Parameter arrays are updated in place by the optimizer; modules that cache
derived state refresh it in post_step(): a box layer projects its box
arrays into their feasible set and recompiles its tap plan, one call each
for the whole layer.
"""

from __future__ import annotations

import numpy as np

from .boxes import TRAINED, BoxVariant, init_params, project_params
from .dense import conv2d, conv2d_input_grad, conv2d_kernel_grad
from .fmap import (
    DimensionError,
    PointwiseWeights,
    channel_concat,
    channel_shuffle,
    channel_split,
    pointwise_conv,
)
from .layer import BoxConvLayer


def sum_samples(grad, batched: bool):
    """Per-sample gradients (N, ...) summed left to right, or grad as it is."""
    if not batched:
        return grad
    total = grad[0].copy()
    for g in grad[1:]:
        total += g
    return total


def prefixed(name: str, grads: dict) -> dict:
    """A child's gradients, keyed as its parent's params() keys them."""
    return {f"{name}.{k}": v for k, v in grads.items()}


class Module:
    children = ()  # (name, module) pairs; empty for a leaf

    def params(self) -> dict:
        return {f"{name}.{k}": v for name, child in self.children for k, v in child.params().items()}

    def forward(self, x):
        raise NotImplementedError

    def backward(self, ctx, grad_y):
        raise NotImplementedError

    def post_step(self) -> None:
        for _, child in self.children:
            child.post_step()


class Pointwise(Module):
    def __init__(self, rng, in_ch: int, out_ch: int, bias: bool = True):
        scale = np.sqrt(2.0 / in_ch)
        self.matrix = rng.normal(0.0, scale, size=(out_ch, in_ch))
        self.use_bias = bias
        self.bias = np.zeros(out_ch)

    def params(self):
        p = {"matrix": self.matrix}
        if self.use_bias:
            p["bias"] = self.bias
        return p

    def forward(self, x):
        y = pointwise_conv(x, PointwiseWeights(self.matrix, self.bias))
        return y, x

    def backward(self, ctx, g):
        x = ctx
        batched = x.ndim == 4
        # same sums as einsum("oc,...ohw->...chw", matrix, g); the contiguous
        # transpose lets einsum run them about 2.5x faster
        gx = np.einsum("co,...ohw->...chw", np.ascontiguousarray(self.matrix.T), g)
        grads = {"matrix": sum_samples(np.einsum("...ohw,...chw->...oc", g, x), batched)}
        if self.use_bias:
            grads["bias"] = sum_samples(g.sum(axis=(-2, -1)), batched)
        return gx, grads


class Relu(Module):
    def forward(self, x):
        mask = x > 0
        return x * mask, mask

    def backward(self, ctx, g):
        return g * ctx, {}


class DenseDepthwise(Module):
    """Per-channel dense convolution with a small square kernel (default 3x3)."""

    def __init__(self, rng, channels: int, ksize: int = 3):
        self.ksize = ksize
        self.kernels = rng.normal(0.0, np.sqrt(1.0 / (ksize * ksize)), size=(channels, ksize, ksize))

    def params(self):
        return {"kernels": self.kernels}

    def forward(self, x):
        return conv2d(x, self.kernels), x

    def backward(self, ctx, g):
        x = ctx
        gx = conv2d_input_grad(self.kernels, g)
        gk = conv2d_kernel_grad(x, g, self.kernels.shape[-2:])
        return gx, {"kernels": sum_samples(gk, x.ndim == 4)}


class BoxDepthwise(Module):
    """One learnable box per channel, backed by a BoxConvLayer.

    theta, split and weight are the layer's own arrays; params() holds those
    boxes.TRAINED names for the variant, which the optimizer updates in
    place. post_step projects them and recompiles the layer.
    """

    def __init__(self, rng, channels: int, k: int, variant=BoxVariant.SINGLE):
        self.conv = BoxConvLayer([init_params(k, variant, rng) for _ in range(channels)])
        self.variant = self.conv.variant
        self.theta, self.split, self.weight = self.conv.theta, self.conv.split, self.conv.weight

    def params(self):
        return {name: getattr(self, name) for name in TRAINED[self.variant]}

    def forward(self, x):
        return self.conv.forward(x)

    def backward(self, ctx, g):
        lg = self.conv.backward(ctx, g)
        batched = ctx.x.ndim == 4
        return lg.grad_input, {name: sum_samples(getattr(lg.boxes, name), batched)
                               for name in TRAINED[self.variant]}

    def post_step(self):
        project_params(self.theta, self.split, self.variant)
        self.conv.recompile()


class Broadcast(Module):
    """Replicate a single-channel map to n channels; backward sums them."""

    def __init__(self, n: int):
        self.n = n

    def forward(self, x):
        if x.shape[-3] != 1:
            raise DimensionError(f"broadcast expects 1 channel, got {x.shape[-3]}")
        return np.repeat(x, self.n, axis=-3), None

    def backward(self, ctx, g):
        return g.sum(axis=-3, keepdims=True), {}


class Sequential(Module):
    def __init__(self, children):
        self.children = list(children)

    def forward(self, x):
        ctxs = []
        for _, child in self.children:
            x, ctx = child.forward(x)
            ctxs.append(ctx)
        return x, ctxs

    def backward(self, ctxs, g):
        grads = {}
        for i in reversed(range(len(self.children))):
            name, child = self.children[i]
            g, child_grads = child.backward(ctxs[i], g)
            ctxs[i] = None  # frees this child's activations before the next child runs
            grads.update(prefixed(name, child_grads))
        return g, grads


class ShuffleHalfBlock(Module):
    """Channel-preserving block: transform half the channels, keep the rest,
    then interleave the two halves."""

    def __init__(self, channels: int, inner: Module):
        if channels % 2 != 0:
            raise DimensionError(f"block needs an even channel count, got {channels}")
        self.channels = channels
        self.inner = inner
        self.children = (("inner", inner),)

    def forward(self, x):
        half = self.channels // 2
        keep, work = channel_split(x, half)
        y, ictx = self.inner.forward(work)
        if y.shape != work.shape:
            raise DimensionError("inner transform must preserve its half's shape")
        out = channel_shuffle(channel_concat(keep, y), 2)
        return out, ictx

    def backward(self, ictx, g):
        half = self.channels // 2
        g_keep, g_work = channel_split(channel_shuffle(g, half), half)  # un-interleave
        g_work, inner_grads = self.inner.backward(ictx, g_work)
        return channel_concat(g_keep, g_work), prefixed("inner", inner_grads)


class ChannelChangeBlock(Module):
    """Width-changing block: a transform branch and a plain projection branch,
    concatenated and interleaved."""

    def __init__(self, rng, in_ch: int, out_ch: int, inner: Module):
        if out_ch % 2 != 0:
            raise DimensionError(f"output channels must be even, got {out_ch}")
        self.inner = inner  # in_ch -> out_ch // 2
        self.proj = Sequential(
            [("pw", Pointwise(rng, in_ch, out_ch // 2)), ("act", Relu())]
        )
        self.children = (("inner", inner), ("proj", self.proj))

    def forward(self, x):
        a, actx = self.inner.forward(x)
        b, bctx = self.proj.forward(x)
        return channel_shuffle(channel_concat(a, b), 2), (actx, bctx, a.shape[-3])

    def backward(self, ctx, g):
        actx, bctx, half = ctx
        ga, gb = channel_split(channel_shuffle(g, g.shape[-3] // 2), half)
        ga, inner_grads = self.inner.backward(actx, ga)
        gb, proj_grads = self.proj.backward(bctx, gb)
        return ga + gb, {**prefixed("inner", inner_grads), **prefixed("proj", proj_grads)}


class Adam:
    """Bias-corrected Adam updating parameter arrays in place."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, lr: float = 1e-3):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.params.items()}

    def step(self, grads: dict) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for key, p in self.params.items():
            g = grads[key]
            if g.shape != p.shape:
                raise DimensionError(f"gradient shape {g.shape} != param {p.shape} for {key}")
            m = self.m[key]
            v = self.v[key]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
