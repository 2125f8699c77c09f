"""Depth-wise box convolution: separable forward, analytic backward.

One box per channel, all of one variant and window size. The layer keeps
its boxes as (C, ...) arrays and compiles them in one boxes.compile_plan
call into one plan. Inputs are (C, H, W) or a batch (N, C, H, W); every
sample is computed exactly as it would be on its own.

Two interchangeable modules compute the same filter, chosen by plane
size: planes whose larger side is at most BANDED_MAX_SIDE pixels take
banded matrix products (banded.py), larger ones the table engine
(table.py). Each groups a box's sub-boxes into one term per y interval,
derives what it reads from the plan on first use, and rejects by name the
first channel whose input holds NaN or inf or whose sums overflow
float64. The banded products cost O(h + w) multiply-adds per output
pixel, against the table engine's fixed count, but far fewer NumPy calls.
Measured with one BLAS thread on 4 samples of 4 k=9 channels, forward
plus backward took 0.34 ms on the banded route against 1.2 ms on the
table engine at 32^2, 6.5 against 9.2 ms at 96^2, and 11.4 against
9.9 ms at 112^2; hence BANDED_MAX_SIDE.

The table engine's backward builds each plane's cotangent table through
this module's build_sat, the name perfbench's tracer counts. Either
route's backward gives the input gradient, each site's
coefficient-weighted derivative and each sub-box weight's gradient. The
layer keeps the route choice and the chain rule to the box arrays: a site
moves exactly one normalized parameter, the column of [theta | split]
that boxes.SITE_EDGES names for it, with the window half-width as chain
factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import banded, table
from .boxes import N_SPLITS, SITE_EDGES, BoxParams, CornerSamplePlan, box_arrays, compile_plan
from .fmap import DimensionError, as_feature_map
from .sat import build_sat, sat_backward  # sat_backward: only perfbench's tracer reads it here

# Planes whose larger side is at most this many pixels take the banded
# matrix route, larger ones the table engine; measured, see the module
# docstring.
BANDED_MAX_SIDE = 96


@dataclass
class BoxGrads:
    """Box parameter gradients, named as the layer arrays they belong to.

    Shapes are (..., 4) for theta's edges (xl, xh, yl, yh), (..., n_splits)
    for split and (..., n_weights) for weight, with the input's batch axis
    leading when it has one (and a channel axis before the last when they
    hold a whole layer's boxes). weight is there for every variant, a single
    box's too, whose weight does not train (boxes.TRAINED).
    """

    theta: np.ndarray
    split: np.ndarray
    weight: np.ndarray


@dataclass
class LayerGradients:
    """The input gradient, and every box's parameter gradients stacked on a
    channel axis: boxes.theta is (..., C, 4), and so on."""

    grad_input: np.ndarray
    boxes: BoxGrads

    @property
    def grad_boxes(self) -> list:
        """One BoxGrads per channel, views of the stacked arrays."""
        b = self.boxes
        return [BoxGrads(b.theta[..., c, :], b.split[..., c, :], b.weight[..., c, :])
                for c in range(b.theta.shape[-2])]


@dataclass
class BoxConvSaved:
    """Forward state retained for the backward pass."""

    x: np.ndarray  # the input, (C, H, W) or (N, C, H, W)
    plan: CornerSamplePlan


class BoxConvLayer:
    """Depth-wise layer pairing each input channel with one learnable box.

    The layer owns its boxes as arrays, one row per channel: theta (C, 4),
    split (C, s) and weight (C, w), all of one window size max_kernel and
    one variant. Whoever changes them in place calls recompile() before the
    next forward. The output has the input's shape.
    """

    def __init__(self, boxes):
        boxes = list(boxes)
        if not boxes:
            raise DimensionError("layer needs at least one box")
        for field in ("max_kernel", "variant"):
            values = {getattr(p, field) for p in boxes}
            if len(values) != 1:
                raise DimensionError(f"all boxes in a layer must share {field}, got {values}")
        self.max_kernel, self.variant = boxes[0].max_kernel, boxes[0].variant
        self.theta, self.split, self.weight = box_arrays(boxes, self.variant)
        self.recompile()

    @property
    def channels(self) -> int:
        return self.theta.shape[0]

    @property
    def boxes(self) -> list:
        """A fresh BoxParams per channel, read from the arrays: for box files,
        pictures and the oracle."""
        k, v = self.max_kernel, self.variant
        return [BoxParams(*t, k, v, s, w) for t, s, w in
                zip(self.theta.tolist(), self.split.tolist(), self.weight.tolist())]

    def recompile(self) -> None:
        """Compile the arrays into a new plan."""
        self.plan = compile_plan(self.theta, self.split, self.weight, self.max_kernel, self.variant)

    def multadd_count(self, in_shape) -> int:
        """The paper's lattice-tap count: multiply-adds of the folded taps.

        This is the 16-per-pixel cost model of a single box, excluding the
        prefix sums. The table engine applies the same taps factored, as x
        taps then y taps (table.lowering); the banded route's
        products cost more per pixel, but far fewer NumPy calls.
        """
        *lead, _, h, w = in_shape
        return int(np.prod(lead, dtype=np.int64)) * h * w * int(self.plan.n_taps.sum())

    def forward(self, x):
        x = as_feature_map(x)
        if x.shape[-3] != self.channels:
            raise DimensionError(f"input has {x.shape[-3]} channels, layer has {self.channels}")
        plan = self.plan
        xb = x.reshape((-1,) + x.shape[-3:])  # a rank-3 input is one sample
        small = max(xb.shape[-2:]) <= BANDED_MAX_SIDE
        out = (banded if small else table).forward(xb, plan)
        return out.reshape(x.shape), BoxConvSaved(x=x, plan=plan)

    def backward(self, saved: BoxConvSaved, grad_output) -> LayerGradients:
        x, plan = saved.x, saved.plan
        g = as_feature_map(grad_output)
        if g.shape != x.shape:
            raise DimensionError(f"grad_output shape {g.shape} != forward output {x.shape}")
        xb, gb = x.reshape((-1,) + x.shape[-3:]), g.reshape((-1,) + g.shape[-3:])
        small = max(xb.shape[-2:]) <= BANDED_MAX_SIDE
        grad_input, gx, gy, sw = (banded.backward(xb, gb, plan) if small
                                  else table.backward(xb, gb, plan, build_sat))
        # each site moves the one column of [theta | split] that SITE_EDGES names
        edges = np.empty(gx.shape[:-1] + (4 + N_SPLITS[plan.variant],))
        for columns, sites in zip(SITE_EDGES[plan.variant], (gx, gy)):
            edges[..., columns] = sites
        edges *= (plan.max_kernel - 1) / 2
        theta, split = edges[..., :4], edges[..., 4:]
        lead = x.shape[:-3]  # () for a rank-3 input: its one sample's gradients
        grads = BoxGrads(*(a.reshape(lead + a.shape[1:]) for a in (theta, split, sw)))
        return LayerGradients(grad_input.reshape(x.shape), grads)
