"""Kernel-size scaling benchmark.

Times the box layer's forward and backward on one input, and compares its
forward with other routes to the same depth-wise filtering job:

* box_sat      - the layer's forward: on planes up to
                 layer.BANDED_MAX_SIDE px a side banded matrix products
                 (O(h + w) multiply-adds per pixel), on larger ones the
                 table engine, the box taps applied as x taps on row prefix
                 sums, then y taps on running column sums (cost independent
                 of k); multadds counts the 16 lattice taps either way
* box_bwd      - the layer's backward on a fixed random cotangent (input
                 and box gradients), on the same route as box_sat;
                 multadds 0, checksum the sum of the input gradient
* box_sat_build- summed-area table construction alone, which backward
                 runs on the cotangent of planes over
                 layer.BANDED_MAX_SIDE px a side (the banded route builds
                 no table)
* naive_dense  - dense convolution with each box's effective kernel, the
                 honest O(k^2) baseline producing identical output: the
                 oracle's tap loop (oracle.tap_conv) at every k
* dilated      - 4x4 dense kernel spaced to a matching receptive field, by
                 the same tap loop: the 16 taps per pixel that multadds
                 counts, at every k

Wall times are the median of `repeats` runs after two warm-ups; checksums
(sums of the outputs) keep the work observable. Assertions about speed belong
to the callers and are phrased as ratios between k values, never absolute
times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .boxes import init_params
from .layer import BoxConvLayer
from .oracle import effective_kernels, tap_conv
from .sat import build_sat

CSV_HEADER = "method,k,channels,height,width,wall_ms,multadds,checksum"


@dataclass
class BenchResult:
    method: str
    k: int
    channels: int
    height: int
    width: int
    wall_ms: float
    multadds: int
    checksum: float

    def csv_row(self) -> str:
        return (
            f"{self.method},{self.k},{self.channels},{self.height},{self.width},"
            f"{self.wall_ms:.6f},{self.multadds},{self.checksum:.17g}"
        )


def to_csv(results) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in results]) + "\n"


def _median_ms(fn, repeats: int):
    for _ in range(2):
        out = fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times)), out


def dilation_for(k: int) -> int:
    """4x4 kernel dilation whose receptive extent best matches a k window."""
    return max(1, round((k - 1) / 3))


def run_bench(k_list, height: int, width: int, channels: int = 1,
              repeats: int = 5, seed: int = 0):
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(channels, height, width))
    cotangent = rng.normal(size=x.shape)
    out_pixels = height * width
    results = []

    for k in k_list:
        box_rng = np.random.default_rng(seed + k)
        boxes = [init_params(k, rng=box_rng) for _ in range(channels)]
        layer = BoxConvLayer(boxes)
        kernels = effective_kernels(layer.theta, layer.split, layer.weight, k, layer.variant)
        dil = dilation_for(k)
        dil_kernel = box_rng.normal(size=(4, 4))

        ms, out = _median_ms(lambda: layer.forward(x)[0], repeats)
        results.append(BenchResult(
            "box_sat", k, channels, height, width, ms,
            layer.multadd_count(x.shape), float(out.sum()),
        ))

        _, saved = layer.forward(x)
        ms, grads = _median_ms(lambda: layer.backward(saved, cotangent), repeats)
        results.append(BenchResult(
            "box_bwd", k, channels, height, width, ms, 0, float(grads.grad_input.sum()),
        ))

        ms, sats = _median_ms(lambda: [build_sat(x[c]) for c in range(channels)], repeats)
        results.append(BenchResult(
            "box_sat_build", k, channels, height, width, ms,
            0, float(sum(s.sum() for s in sats)),
        ))

        ms, out = _median_ms(lambda: tap_conv(x, kernels), repeats)
        results.append(BenchResult(
            "naive_dense", k, channels, height, width, ms,
            out_pixels * channels * (k + 1) * (k + 1), float(out.sum()),
        ))

        ms, out = _median_ms(lambda: tap_conv(x, dil_kernel, dil), repeats)
        results.append(BenchResult(
            "dilated", k, channels, height, width, ms,
            out_pixels * channels * 16, float(out.sum()),
        ))

    return results
