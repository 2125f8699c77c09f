"""Depth-wise box convolution: plan-driven forward, analytic backward.

One box per channel. Forward builds a per-channel summed-area table and
evaluates the channel's compiled tap list at every output pixel; because
integer strides preserve the fractional parts of the sample coordinates,
the interpolation weights inside the taps are constant over the whole
plane. Out-of-range lattice reads are resolved by edge-replicating the
table, which reproduces zero-padding of the source exactly (the table is
constant beyond its borders) and makes every tap a strided slice. A
channel whose table is not finite (NaN or inf in the input, or sums that
overflow float64) is rejected: one bad pixel would spoil every output
whose box reaches below and to the right of it.

Backward produces three gradient families:

* input: tap weights scattered into a table-shaped buffer, replication
  margins folded back onto the border, then one reverse prefix-sum pass
  (the adjoint of table construction) per channel;
* box coordinates: every sample site's value and coordinate derivatives
  are linear in four scalars, the inner products of the output cotangent
  with the table read at each corner of the site's lattice cell. Backward
  takes one inner product per distinct lattice offset of the plan (sites
  sharing a corner share it) and blends them with the site's constant
  interpolation fractions; the site derivative, weighted by its folded
  coefficient, moves exactly one normalized parameter, with the window
  half-width as chain factor. Sites whose reads fall in the replicated
  margin see equal corner products and so contribute zero, matching the
  convention that clamped coordinates have zero gradient;
* sub-box weights: the four-corner difference of the sub-box's site
  values, each value being the bilinear blend of its corner products.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .boxes import BoxParams, BoxVariant, CornerSamplePlan, N_SPLITS, N_WEIGHTS, compile_plan
from .fmap import DimensionError, as_feature_map
from .sat import build_sat, sat_backward


@dataclass
class BoxGrads:
    """Per-box parameter gradients, shapes mirroring BoxParams fields."""

    theta: np.ndarray  # (4,) d/d(theta_xl, theta_xh, theta_yl, theta_yh)
    split_theta: np.ndarray
    split_weights: np.ndarray


@dataclass
class LayerGradients:
    grad_input: np.ndarray
    grad_boxes: list


@dataclass
class BoxConvSaved:
    """Forward state retained for the backward pass."""

    in_shape: tuple
    out_shape: tuple
    stride: int
    sats: list
    plans: list
    dtype: np.dtype


def _pad_amounts(plan: CornerSamplePlan, out_h, out_w, stride, h, w):
    dxs = [t[0] for t in plan.taps] or [0]
    dys = [t[1] for t in plan.taps] or [0]
    left = max(0, -min(dxs))
    right = max(0, max(dxs) + (out_w - 1) * stride - w)
    top = max(0, -min(dys))
    bottom = max(0, max(dys) + (out_h - 1) * stride - h)
    return top, bottom, left, right


def _padded_sat(sat, plan, out_h, out_w, stride):
    h, w = sat.shape[0] - 1, sat.shape[1] - 1
    top, bottom, left, right = _pad_amounts(plan, out_h, out_w, stride, h, w)
    padded = np.pad(sat, ((top, bottom), (left, right)), mode="edge")
    return padded, top, left


def _tap_view(padded, top, left, dy, dx, out_h, out_w, stride):
    y0 = top + dy
    x0 = left + dx
    return padded[y0 : y0 + (out_h - 1) * stride + 1 : stride,
                  x0 : x0 + (out_w - 1) * stride + 1 : stride]


def _forward_plane(sat, plan, out_h, out_w, stride):
    padded, top, left = _padded_sat(sat, plan, out_h, out_w, stride)
    out = np.zeros((out_h, out_w), dtype=np.float64)
    for dx, dy, wt in plan.taps:
        out += wt * _tap_view(padded, top, left, dy, dx, out_h, out_w, stride)
    return out


class BoxConvLayer:
    """Depth-wise layer pairing each input channel with one learnable box."""

    def __init__(self, boxes, stride: int = 1, rounded: bool = False, threads: int = 1):
        boxes = list(boxes)
        if not boxes:
            raise DimensionError("layer needs at least one box")
        ks = {p.max_kernel for p in boxes}
        if len(ks) != 1:
            raise DimensionError(f"all boxes in a layer must share max_kernel, got {sorted(ks)}")
        if int(stride) != stride or stride < 1:
            raise ValueError(f"stride must be a positive integer, got {stride}")
        self.boxes = boxes
        self.stride = int(stride)
        self.rounded = rounded
        self.threads = max(1, int(threads))
        self.plans = None
        self.recompile()

    @property
    def channels(self) -> int:
        return len(self.boxes)

    @property
    def max_kernel(self) -> int:
        return self.boxes[0].max_kernel

    def recompile(self) -> None:
        self.plans = [compile_plan(p, rounded=self.rounded) for p in self.boxes]

    def set_boxes(self, boxes) -> None:
        if len(boxes) != self.channels:
            raise DimensionError("channel count cannot change")
        self.boxes = list(boxes)
        self.recompile()

    def out_shape(self, in_shape):
        c, h, w = in_shape
        return c, -(-h // self.stride), -(-w // self.stride)

    def multadd_count(self, in_shape) -> int:
        """Forward multiply-adds in the tap evaluation, excluding table builds."""
        _, out_h, out_w = self.out_shape(in_shape)
        return out_h * out_w * sum(len(p.taps) for p in self.plans)

    def _map_channels(self, fn, n):
        if self.threads == 1:
            return [fn(c) for c in range(n)]
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            return list(pool.map(fn, range(n)))

    def forward(self, x):
        x = as_feature_map(x)
        if x.shape[0] != self.channels:
            raise DimensionError(f"input has {x.shape[0]} channels, layer has {self.channels}")
        _, h, w = x.shape
        out_c, out_h, out_w = self.out_shape(x.shape)
        plans = list(self.plans)
        sats = self._map_channels(lambda c: build_sat(x[c]), out_c)
        for c, sat in enumerate(sats):
            # A running sum stays non-finite once it is, so the bottom row of a
            # table is finite exactly when the whole table is.
            if not np.isfinite(sat[-1]).all():
                raise ValueError(
                    f"channel {c}: input holds NaN or inf, or its sums overflow float64"
                )
        out = np.empty((out_c, out_h, out_w), dtype=np.float64)

        def run(c):
            out[c] = _forward_plane(sats[c], plans[c], out_h, out_w, self.stride)

        self._map_channels(run, out_c)
        saved = BoxConvSaved(
            in_shape=x.shape,
            out_shape=(out_c, out_h, out_w),
            stride=self.stride,
            sats=sats,
            plans=plans,
            dtype=x.dtype,
        )
        return out.astype(x.dtype, copy=False), saved

    def backward(self, saved: BoxConvSaved, grad_output) -> LayerGradients:
        g = np.asarray(grad_output, dtype=np.float64)
        if g.shape != saved.out_shape:
            raise DimensionError(f"grad_output shape {g.shape} != forward output {saved.out_shape}")
        _, h, w = saved.in_shape
        _, out_h, out_w = saved.out_shape
        stride = saved.stride
        grad_input = np.empty(saved.in_shape, dtype=np.float64)
        grad_boxes = [None] * self.channels

        def run(c):
            plan = saved.plans[c]
            sat = saved.sats[c]
            gc = g[c]
            padded, top, left = _padded_sat(sat, plan, out_h, out_w, stride)

            # input path: scatter tap weights, fold replication margins, adjoint pass
            gpad = np.zeros_like(padded)
            for dx, dy, wt in plan.taps:
                y0, x0 = top + dy, left + dx
                gpad[y0 : y0 + (out_h - 1) * stride + 1 : stride,
                     x0 : x0 + (out_w - 1) * stride + 1 : stride] += wt * gc
            if top:
                gpad[top] += gpad[:top].sum(axis=0)
            bot = top + h
            if gpad.shape[0] - 1 > bot:
                gpad[bot] += gpad[bot + 1 :].sum(axis=0)
            if left:
                gpad[:, left] += gpad[:, :left].sum(axis=1)
            rgt = left + w
            if gpad.shape[1] - 1 > rgt:
                gpad[:, rgt] += gpad[:, rgt + 1 :].sum(axis=1)
            grad_input[c] = sat_backward(gpad[top : top + h + 1, left : left + w + 1])

            p = self.boxes[c]
            if self.rounded:
                # frozen-corner mode: box parameters are not trained
                grad_boxes[c] = BoxGrads(
                    theta=np.zeros(4),
                    split_theta=np.zeros(N_SPLITS[p.variant]),
                    split_weights=np.zeros(N_WEIGHTS[p.variant]),
                )
                return

            # parameter path: one inner product <gc, table view> per lattice
            # offset; the taps hold all four cell corners of every site
            q = {}
            for dx, dy, _wt in plan.taps:
                if (dx, dy) not in q:
                    view = _tap_view(padded, top, left, dy, dx, out_h, out_w, stride)
                    q[dx, dy] = float(np.einsum("ij,ij->", gc, view))

            nx, ny = len(plan.x_sites), len(plan.y_sites)
            values = np.zeros((nx, ny))
            gx_sites = np.zeros(nx)
            gy_sites = np.zeros(ny)
            for ix, (x0, a) in enumerate(plan.x_cells):
                for iy, (y0, b) in enumerate(plan.y_cells):
                    q00, q10 = q[x0, y0], q[x0 + 1, y0]
                    q01, q11 = q[x0, y0 + 1], q[x0 + 1, y0 + 1]
                    values[ix, iy] = ((1 - a) * (1 - b) * q00 + a * (1 - b) * q10
                                      + (1 - a) * b * q01 + a * b * q11)
                    coeff = plan.coeffs[ix][iy]
                    gx_sites[ix] += coeff * ((1 - b) * (q10 - q00) + b * (q11 - q01))
                    gy_sites[iy] += coeff * ((1 - a) * (q01 - q00) + a * (q11 - q10))

            r = (p.max_kernel - 1) / 2
            gw = np.array([
                values[ixh, iyh] - values[ixl, iyh] - values[ixh, iyl] + values[ixl, iyl]
                for ixl, ixh, iyl, iyh, _wgt in plan.sub_boxes
            ])

            theta = np.array([gx_sites[0], gx_sites[nx - 1], gy_sites[0], gy_sites[ny - 1]]) * r
            split = []
            if p.variant in (BoxVariant.SPLIT_V, BoxVariant.SPLIT_4):
                split.append(gx_sites[1] * r)
            if p.variant in (BoxVariant.SPLIT_H, BoxVariant.SPLIT_4):
                split.append(gy_sites[1] * r)
            sw = gw if p.variant != BoxVariant.SINGLE else np.zeros(1)
            grad_boxes[c] = BoxGrads(
                theta=theta, split_theta=np.array(split), split_weights=sw
            )

        self._map_channels(run, self.channels)
        return LayerGradients(
            grad_input=grad_input.astype(saved.dtype, copy=False),
            grad_boxes=grad_boxes,
        )
