"""Spans and counts recorded around calls into satconv, from outside it.

Each traced name is patched where its caller looks it up (for example
``satconv.layer.build_sat``, which ``BoxConvLayer.forward`` calls by that
module-level name), so the program itself carries no tracing code. A span
records its inclusive time and its self time (inclusive minus the spans
nested in it); spans are aggregated per name in memory as they close.

A traced run keeps the patches installed (``with tracer:``) and switches
recording on and off per step with ``Tracer.active``, so correctness checks
made between steps leave no trace. Switched off, a wrapper costs one call
and one test.
"""

from __future__ import annotations

import functools
import time

import numpy as np

import satconv.layer
import satconv.nets
import satconv.train

from satconv import heatmap


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns", "px")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.px = 0  # output pixels (times channels) the calls produced

    def as_dict(self):
        return {"calls": self.calls, "total_ns": self.total_ns, "self_ns": self.self_ns,
                "px": self.px}


def _saved_bytes(saved) -> int:
    """Bytes of every array held by a BoxConvSaved, directly or in a list."""
    total = 0
    for value in vars(saved).values():
        items = value if isinstance(value, (list, tuple)) else (value,)
        total += sum(a.nbytes for a in items if isinstance(a, np.ndarray))
    return total


def _plane_px(args, out):
    return int(np.asarray(args[0]).size)


def _out_px(args, out):
    return int(out.size)


def _first_out_px(args, out):
    return int(out[0].size)


def _grad_px(args, out):
    return int(np.asarray(args[2]).size)


def _box_forward_counts(args, out):
    # (layer, x) -> (y, saved): taps evaluated and bytes kept for backward
    layer, x = args[0], args[1]
    return {"boxes.multadds": layer.multadd_count(np.shape(x)),
            "layer.saved_bytes": _saved_bytes(out[1])}


# (owner, attribute, span name, pixels of one call or None, counts of one call or None)
def _targets():
    layer_mod, nets, train = satconv.layer, satconv.nets, satconv.train
    box = layer_mod.BoxConvLayer
    return [
        (layer_mod, "build_sat", "sat.build_sat", _plane_px, None),
        (layer_mod, "sat_backward", "sat.sat_backward", _out_px, None),
        (layer_mod, "compile_plan", "boxes.compile_plan", None, None),
        (nets, "project_params", "boxes.project_params", None, None),
        (box, "forward", "layer.forward", _first_out_px, _box_forward_counts),
        (box, "backward", "layer.backward", _grad_px, None),
        (nets, "conv2d", "dense.conv2d", None, None),
        (nets, "conv2d_input_grad", "dense.conv2d_input_grad", None, None),
        (nets, "conv2d_kernel_grad", "dense.conv2d_kernel_grad", None, None),
        (nets, "pointwise_conv", "fmap.pointwise_conv", None, None),
        (nets, "channel_split", "fmap.channel_split", None, None),
        (nets, "channel_concat", "fmap.channel_concat", None, None),
        (nets, "channel_shuffle", "fmap.channel_shuffle", None, None),
        (train, "gaussian_target", "heatmap.gaussian_target", None, None),
        (train, "mse_loss", "heatmap.mse_loss", None, None),
        (heatmap, "mse_loss", "heatmap.mse_loss", None, None),
        (nets.BoxDepthwise, "forward", "nets.BoxDepthwise.forward", None, None),
        (nets.BoxDepthwise, "backward", "nets.BoxDepthwise.backward", None, None),
        (nets.BoxDepthwise, "post_step", "nets.BoxDepthwise.post_step", None, None),
        (nets.DenseDepthwise, "forward", "nets.DenseDepthwise.forward", _first_out_px, None),
        (nets.DenseDepthwise, "backward", "nets.DenseDepthwise.backward", _first_out_px, None),
        (nets.Pointwise, "forward", "nets.Pointwise.forward", None, None),
        (nets.Pointwise, "backward", "nets.Pointwise.backward", None, None),
        (nets.Adam, "step", "nets.Adam.step", None, None),
        (train, "synth_keypoint_sample", "train.synth_keypoint_sample", None, None),
    ]


class Tracer:
    """Aggregated spans plus the patches that record them."""

    def __init__(self):
        self.active = False
        self.muted = 0  # > 0 inside a span whose nested calls are not recorded
        self.stack = []  # child time of each open span, in ns
        self.stats = {}
        self.counts = {}  # quantities that are counted but not timed
        self._patches = []
        for owner, attr, name, px_fn, counts_fn in _targets():
            self._add(owner, attr, lambda fn: self._span(name, fn, px_fn, counts_fn))
        # Evaluation is no training step: it is recorded as one span whenever the
        # tracer is installed, and the calls inside it stay out of the step figures.
        self._add(satconv.train, "evaluate_keypoints",
                  lambda fn: self._span("train.evaluate_keypoints", fn, None, None,
                                        outside_steps=True))
        # np.pad is counted, not timed, so it does not eat into its callers' self time.
        self._add(np, "pad", lambda fn: self._counter("numpy.pad", fn))

    def _add(self, owner, attr, make_wrapper):
        orig = owner.__dict__[attr]
        self._patches.append((owner, attr, orig, make_wrapper(orig)))

    def stat(self, name) -> SpanStats:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        return st

    def count(self, name, n=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _span(self, name, fn, px_fn, counts_fn, outside_steps=False):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not (tracer.active or outside_steps) or tracer.muted:
                return fn(*args, **kwargs)
            child = [0]
            tracer.stack.append(child)
            if outside_steps:
                tracer.muted += 1
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                if outside_steps:
                    tracer.muted -= 1
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][0] += dt
            st = tracer.stat(name)
            st.calls += 1
            st.total_ns += dt
            st.self_ns += dt - child[0]
            if px_fn is not None:
                st.px += px_fn(args, out)
            if counts_fn is not None:
                for key, n in counts_fn(args, out).items():
                    tracer.count(key, n)
            return out

        return wrapped

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.active and not tracer.muted:
                tracer.count(name)
            return fn(*args, **kwargs)

        return wrapped

    def __enter__(self):
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        self.active = False
        for owner, attr, orig, _wrapper in reversed(self._patches):
            setattr(owner, attr, orig)
