"""The three workloads: what one operation does, how it is timed and checked.

Each workload runs closed-loop in one process: the next operation starts
when the previous one and its checks have finished. Every ``run_*``
function returns a ``Run``: step wall times, set-up times and operation
counts. A traced run keeps the tracer installed throughout and switches it
on for every second step (every second round of both kernel sizes for
inference), so that slow phases of the host fall on traced and untraced
steps alike.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from satconv import heatmap, nets, train
from satconv.boxes import BoxVariant, init_params
from satconv.layer import BoxConvLayer

import checks
from tracer import Tracer

KEYPOINT_STEPS = 100  # optimizer steps in one keypoints_32 training run
MIN_STEPS = 100  # so that ten step times lie beyond the 90th percentile
SETUP_REPEATS = 3  # set-ups per run of the box workloads; setup_s is their median

TRAIN_CHANNELS, TRAIN_SIZE, TRAIN_K = 16, 256, 13
TRAIN_ROUND = 10  # steps per round; the whole-array checks run once a round
INFER_CHANNELS, INFER_SIZE, INFER_KS = 4, 1024, (13, 129)
ORACLE_PIXELS = 16  # sampled output pixels per channel checked against the oracle


@dataclass
class Run:
    step_s: list = field(default_factory=list)  # step wall times (untraced run)
    setup_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    tracer: Tracer = None  # set in a traced run
    traced_steps: int = 0
    traced_s: float = 0.0
    untraced_steps: int = 0
    untraced_s: float = 0.0
    all_steps: int = 0  # every step of a traced run, traced or not
    dense_fb_ns_per_px: tuple = None  # (forward, backward) of DenseDepthwise 3x3, timed directly

    def tracing(self):
        """Context that keeps the tracer installed, switched off, in a traced run."""
        return self.tracer if self.tracer is not None else contextlib.nullcontext()

    def timed(self, traced, fn):
        """Run and time one step, traced if asked; return its result."""
        if traced:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            dt = time.perf_counter() - t0
            if traced:
                self.tracer.active = False
        self.tally(traced, dt)
        if self.tracer is None:
            self.step_s.append(dt)
        return out

    def tally(self, traced, seconds, steps=1):
        self.all_steps += steps
        if traced:
            self.traced_steps += steps
            self.traced_s += seconds
        else:
            self.untraced_steps += steps
            self.untraced_s += seconds


# ---------------------------------------------------------------------------
# keypoints_32: satconv's own training loop on the canonical config


class _StepClock:
    """Reads the clock at each Adam.step call and snapshots the box arrays.

    In a traced run it also switches the tracer on for the interval that
    starts at every odd-numbered call, except the last: what follows the
    last step is the final evaluation, not a step.
    """

    def __init__(self, tracer, steps):
        self.tracer = tracer
        self.steps = steps
        self.times = []
        self.snapshots = []

    def install(self):
        orig = nets.Adam.__dict__["step"]
        clock = self

        def step(adam, grads):
            clock.times.append(time.perf_counter())
            if clock.tracer is not None:
                k = len(clock.times)
                clock.tracer.active = k % 2 == 1 and k < clock.steps
            clock.snapshots.append([v.copy() for name, v in adam.params.items()
                                    if name.endswith((".theta", ".split"))])
            return orig(adam, grads)

        nets.Adam.step = step
        return orig


def _keypoint_layers_ok(result, cfg, rng) -> bool:
    boxes_ok = all(
        checks.box_arrays_feasible(layer.theta, layer.split, layer.variant)
        for layer in result.box_layers
    )
    for layer in result.box_layers:
        conv = layer.conv
        x = rng.standard_normal((conv.channels, cfg.image_size, cfg.image_size))
        g = rng.standard_normal(x.shape)
        y, saved = conv.forward(x)
        gx = conv.backward(saved, g).grad_input
        if not (checks.forward_matches_oracle(conv.boxes, x, y, rng, ORACLE_PIXELS)
                and checks.adjoint_holds(x, y, g, gx)
                and checks.edge_gradient_matches(conv.boxes, x, g, rng)):
            return False
    return boxes_ok


def _snapshots_ok(snapshots, layers) -> bool:
    for arrays in snapshots:
        it = iter(arrays)
        for layer in layers:
            theta = next(it)
            split = next(it) if layer.split.shape[1] else layer.split
            if not checks.box_arrays_feasible(theta, split, layer.variant):
                return False
    return True


def run_keypoints(root, seed, seconds, trace) -> Run:
    cfg = train.parse_config(os.path.join(root, "scripts", "configs", "keypoints_32.cfg"))
    cfg.seed = seed
    cfg.steps = KEYPOINT_STEPS
    run = Run(tracer=Tracer() if trace else None)
    clock = _StepClock(run.tracer, cfg.steps)
    check_rng = np.random.default_rng(seed + 7919)
    op_s = []
    t_start = time.perf_counter()
    with run.tracing():
        orig_step = clock.install()  # outside the tracer's own Adam.step span
        try:
            while run.attempted < 2 or (
                    time.perf_counter() - t_start + float(np.median(op_s)) <= seconds):
                clock.times.clear()
                clock.snapshots.clear()
                t0 = time.perf_counter()
                result = train.train_toy_keypoints(cfg)
                op_s.append(time.perf_counter() - t0)
                steps_s = np.diff(clock.times)
                if trace:
                    run.tally(True, steps_s[0::2].sum(), steps_s[0::2].size)
                    run.tally(False, steps_s[1::2].sum(), steps_s[1::2].size)
                else:
                    run.step_s.extend(steps_s)
                run.setup_s.append(clock.times[0] - t0)
                losses = [row[1] for row in result.log_rows]
                ok = (
                    len(clock.times) == cfg.steps
                    and checks.loss_descends(losses, cfg.steps // 5)
                    and _snapshots_ok(clock.snapshots, result.box_layers)
                    and _keypoint_layers_ok(result, cfg, check_rng)
                )
                run.attempted += 1
                run.failed += not ok
        finally:
            nets.Adam.step = orig_step
    return run


# ---------------------------------------------------------------------------
# boxconv_train_256: two box layers trained directly at 16x256^2


class _TrainState:
    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        shape = (TRAIN_CHANNELS, TRAIN_SIZE, TRAIN_SIZE)
        self.x = rng.standard_normal(shape)
        self.target = rng.standard_normal(shape)
        self.layers = [
            nets.BoxDepthwise(rng, TRAIN_CHANNELS, TRAIN_K, BoxVariant.SINGLE),
            nets.BoxDepthwise(rng, TRAIN_CHANNELS, TRAIN_K, BoxVariant.SPLIT_4),
        ]
        # trained split boxes carry unequal sub-box weights; init_params gives equal ones
        split = self.layers[1]
        split.weight[:] = rng.uniform(0.5, 1.5, size=split.weight.shape)
        split.post_step()
        params = {}
        for i, layer in enumerate(self.layers):
            params.update({f"l{i}.{k}": v for k, v in layer.params().items()})
        self.adam = nets.Adam(params)

    def step(self):
        """Forward, MSE backward, Adam.step and post_step; returns what the checks need."""
        l0, l1 = self.layers
        boxes = [l0.conv.boxes, l1.conv.boxes]
        y0, c0 = l0.forward(self.x)
        y1, c1 = l1.forward(y0)
        loss, g1 = heatmap.mse_loss(y1, self.target)
        g0, grads1 = l1.backward(c1, g1)
        gx, grads0 = l0.backward(c0, g0)
        grads = {f"l0.{k}": v for k, v in grads0.items()}
        grads.update({f"l1.{k}": v for k, v in grads1.items()})
        self.adam.step(grads)
        for layer in self.layers:
            layer.post_step()
        return boxes, (self.x, y0, y1), (g0, g1, gx), loss


def _train_step_ok(state, out, rng, whole_round) -> bool:
    """Every step: finite loss, feasible boxes, sampled forward against the oracle.

    Once a round (``whole_round``): the adjoint identity of both layers and one
    edge gradient per layer, which read every pixel and cost far more.
    """
    boxes, (x, y0, y1), (g0, g1, gx), loss = out
    ok = np.isfinite(loss)
    ok = ok and all(checks.box_arrays_feasible(l.theta, l.split, l.variant) for l in state.layers)
    ok = ok and checks.forward_matches_oracle(boxes[0], x, y0, rng, ORACLE_PIXELS)
    ok = ok and checks.forward_matches_oracle(boxes[1], y0, y1, rng, ORACLE_PIXELS)
    if ok and whole_round:
        ok = checks.adjoint_holds(y0, y1, g1, g0) and checks.adjoint_holds(x, y0, g0, gx)
        ok = ok and checks.edge_gradient_matches(boxes[0], x, g0, rng)
        ok = ok and checks.edge_gradient_matches(boxes[1], y0, g1, rng)
    return bool(ok)


def _dense3_ns_per_px(state, rng):
    """DenseDepthwise 3x3 forward and backward on the step's input, per pixel-channel."""
    dense = nets.DenseDepthwise(rng, TRAIN_CHANNELS, 3)
    g = rng.standard_normal(state.x.shape)
    t0 = time.perf_counter_ns()
    _, ctx = dense.forward(state.x)
    t1 = time.perf_counter_ns()
    dense.backward(ctx, g)
    t2 = time.perf_counter_ns()
    return (t1 - t0) / state.x.size, (t2 - t1) / state.x.size


def run_boxconv_train(root, seed, seconds, trace) -> Run:
    run = Run(tracer=Tracer() if trace else None)
    state = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = _TrainState(seed)
        state.step()
        run.setup_s.append(time.perf_counter() - t0)
    check_rng = np.random.default_rng(seed + 7919)
    dense_times = []
    t_start = time.perf_counter()
    with run.tracing():
        while run.attempted < MIN_STEPS or time.perf_counter() - t_start < seconds:
            for i in range(TRAIN_ROUND):
                traced = trace and i % 2 == 1
                out = run.timed(traced, state.step)
                last = i == TRAIN_ROUND - 1
                if trace and last:
                    dense_times.append(_dense3_ns_per_px(state, check_rng))
                run.attempted += 1
                run.failed += not _train_step_ok(state, out, check_rng, last)
    if dense_times:
        run.dense_fb_ns_per_px = tuple(float(v) for v in np.median(dense_times, axis=0))
    return run


# ---------------------------------------------------------------------------
# boxconv_infer_1024: the read-only forward path on large intensity images


class _InferState:
    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        shape = (INFER_CHANNELS, INFER_SIZE, INFER_SIZE)
        self.images = [rng.integers(0, 256, size=shape).astype(np.float64) for _ in range(2)]
        self.layers = [BoxConvLayer([init_params(k, BoxVariant.SINGLE, rng)
                                     for _ in range(INFER_CHANNELS)]) for k in INFER_KS]

    def round_ops(self, r):
        x = self.images[r % 2]
        return [(layer, x) for layer in self.layers]


def run_boxconv_infer(root, seed, seconds, trace) -> Run:
    run = Run(tracer=Tracer() if trace else None)
    state = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = _InferState(seed)
        for layer, x in state.round_ops(0):
            layer.forward(x)
        run.setup_s.append(time.perf_counter() - t0)
    check_rng = np.random.default_rng(seed + 7919)
    t_start = time.perf_counter()
    r = 0
    with run.tracing():
        while run.attempted < MIN_STEPS or time.perf_counter() - t_start < seconds:
            traced = trace and r % 2 == 1  # per round, so both kernel sizes are traced
            for layer, x in state.round_ops(r):
                # inference drops the state saved for backward
                y = run.timed(traced, lambda: layer.forward(x)[0])
                run.attempted += 1
                run.failed += not checks.forward_matches_oracle(
                    layer.boxes, x, y, check_rng, ORACLE_PIXELS)
                del y
            r += 1
    return run


WORKLOADS = {
    "keypoints_32": run_keypoints,
    "boxconv_train_256": run_boxconv_train,
    "boxconv_infer_1024": run_boxconv_infer,
}
