"""End-to-end and per-layer metrics from a finished Run."""

from __future__ import annotations

import json
import os
import resource

import numpy as np

from tracer import SpanStats


def _m(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(run) -> dict:
    step_ms = np.asarray(run.step_s) * 1e3
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "setup_s": _m(np.median(run.setup_s), "s"),
        "steps_per_s": _m(step_ms.size / (step_ms.sum() / 1e3), "1/s"),
        "step_ms_p90": _m(np.percentile(step_ms, 90), "ms"),
        "peak_rss_mb": _m(peak_kb * 1024 / 1e6, "MB"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(run) -> dict:
    """Per-layer figures of the traced operations; 0 where a workload makes no such call."""
    tr = run.tracer
    steps = run.traced_steps

    def st(name) -> SpanStats:
        return tr.stats.get(name, SpanStats())

    def calls(*names):
        return sum(st(n).calls for n in names)

    def total_ms(*names):
        return sum(st(n).total_ns for n in names) / 1e6

    fwd, bwd = st("layer.forward"), st("layer.backward")
    build, adj = st("sat.build_sat"), st("sat.sat_backward")
    post = st("nets.BoxDepthwise.post_step")
    compile_plan = st("boxes.compile_plan")
    dense_fwd, dense_bwd = st("nets.DenseDepthwise.forward"), st("nets.DenseDepthwise.backward")
    if run.dense_fb_ns_per_px is not None:
        dense_fwd_ns, dense_bwd_ns = run.dense_fb_ns_per_px
    else:
        dense_fwd_ns = _ratio(dense_fwd.total_ns, dense_fwd.px)
        dense_bwd_ns = _ratio(dense_bwd.total_ns, dense_bwd.px)
    box_fb_ns = _ratio(fwd.total_ns, fwd.px) + _ratio(bwd.total_ns, bwd.px)
    untraced_sps = _ratio(run.untraced_steps, run.untraced_s)
    traced_sps = _ratio(run.traced_steps, run.traced_s)

    values = {
        "layer.fwd_ns_per_px": (_ratio(fwd.self_ns, fwd.px), "ns/px"),
        "sat.build_sat_ns_per_px": (_ratio(build.total_ns, build.px), "ns/px"),
        "layer.bwd_ns_per_px": (_ratio(bwd.self_ns, bwd.px), "ns/px"),
        "sat.sat_backward_ns_per_px": (_ratio(adj.total_ns, adj.px), "ns/px"),
        "layer.box_over_dense3": (
            _ratio(box_fb_ns, dense_fwd_ns + dense_bwd_ns) if bwd.calls else 0.0, "ratio"),
        "layer.saved_mb_per_call": (
            _ratio(tr.counts.get("layer.saved_bytes", 0), fwd.calls) / 1e6, "MB"),
        "boxes.taps_per_px": (_ratio(tr.counts.get("boxes.multadds", 0), fwd.px), "taps/px"),
        "layer.fwd_calls_per_step": (_ratio(fwd.calls, steps), "calls/step"),
        "sat.build_sat_calls_per_step": (_ratio(build.calls, steps), "calls/step"),
        "sat.sat_backward_calls_per_step": (_ratio(adj.calls, steps), "calls/step"),
        "dense.conv2d_calls_per_step": (_ratio(calls(
            "dense.conv2d", "dense.conv2d_input_grad", "dense.conv2d_kernel_grad"), steps),
            "calls/step"),
        "boxes.compile_plan_calls_per_step": (_ratio(compile_plan.calls, steps), "calls/step"),
        "boxes.project_params_calls_per_step": (
            _ratio(calls("boxes.project_params"), steps), "calls/step"),
        "numpy.pad_calls_per_step": (_ratio(tr.counts.get("numpy.pad", 0), steps), "calls/step"),
        "boxes.compile_plan_us_per_call": (
            _ratio(compile_plan.total_ns, compile_plan.calls) / 1e3, "us/call"),
        "nets.box_post_step_ms_per_step": (_ratio(post.self_ns / 1e6, steps), "ms/step"),
        "nets.dense_dw_fwd_ns_per_px": (dense_fwd_ns, "ns/px"),
        "nets.dense_dw_bwd_ns_per_px": (dense_bwd_ns, "ns/px"),
        "nets.pointwise_ms_per_step": (_ratio(total_ms(
            "nets.Pointwise.forward", "nets.Pointwise.backward"), steps), "ms/step"),
        "nets.adam_ms_per_step": (_ratio(total_ms("nets.Adam.step"), steps), "ms/step"),
        "fmap.glue_ms_per_step": (_ratio(total_ms(
            "fmap.channel_split", "fmap.channel_concat", "fmap.channel_shuffle"), steps),
            "ms/step"),
        "heatmap.ms_per_step": (_ratio(total_ms(
            "heatmap.gaussian_target", "heatmap.mse_loss"), steps),
            "ms/step"),
        "train.data_ms_per_step": (
            _ratio(st("train.synth_keypoint_sample").self_ns / 1e6, steps), "ms/step"),
        "train.eval_ms_per_step": (
            _ratio(total_ms("train.evaluate_keypoints"), run.all_steps), "ms/step"),
        "trace.overhead_pct": (
            100.0 * _ratio(untraced_sps - traced_sps, untraced_sps), "%"),
    }
    return {name: _m(v, unit) for name, (v, unit) in values.items()}


def write_trace(outdir, workload, seed, run) -> None:
    """Aggregated spans and counts of the traced operations, as JSON."""
    os.makedirs(outdir, exist_ok=True)
    tr = run.tracer
    doc = {
        "workload": workload,
        "seed": seed,
        "traced_steps": run.traced_steps,
        "traced_s": run.traced_s,
        "untraced_steps": run.untraced_steps,
        "untraced_s": run.untraced_s,
        "spans": {name: s.as_dict() for name, s in sorted(tr.stats.items())},
        "counts": dict(sorted(tr.counts.items())),
    }
    with open(os.path.join(outdir, f"trace_{workload}_{seed}.json"), "w") as f:
        json.dump(doc, f, indent=1)
