"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s). The
tolerances and runtime ceilings are part of the contract and are not meant
to be tuned.
"""

import time

import numpy as np
import pytest

from satconv.bench import run_bench
from satconv.boxes import BoxParams, BoxVariant, init_params
from satconv.cli import render_boxes_svg
from satconv.gradcheck import run_adjoint_check, run_gradcheck
from satconv.layer import BoxConvLayer
from satconv.oracle import (DenseKernel, effective_kernel, effective_kernels, naive_conv,
                            region_sum, tap_conv)
from satconv.sat import build_sat
from satconv.train import (
    TrainConfig,
    box_target_kernel,
    log_target_kernel,
    parse_config,
    train_kernel_approx,
    train_toy_keypoints,
    write_log_csv,
)

# pinned after the first converged run of scripts/configs/keypoints_32.cfg
KEYPOINT_REGRESSION_ACCURACY = 0.985


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_c01_sat_region_sums_match_brute_force():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(1000):
        h = int(rng.integers(1, 33))
        w = int(rng.integers(1, 33))
        integer_source = trial % 2 == 0
        plane = (
            rng.integers(-50, 50, size=(h, w)).astype(float)
            if integer_source
            else rng.normal(size=(h, w))
        )
        sat = build_sat(plane)
        x0, x1 = sorted(int(v) for v in rng.integers(-4, w + 4, 2))
        y0, y1 = sorted(int(v) for v in rng.integers(-4, h + 4, 2))
        want = plane[max(y0, 0) : max(y1 + 1, 0), max(x0, 0) : max(x1 + 1, 0)].sum()
        got = region_sum(sat, x0, x1, y0, y1)
        if integer_source:
            assert got == want, (trial, x0, x1, y0, y1)
        else:
            worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 5.0
    report("criterion 1 (SAT correctness)",
           ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_c02_forward_equals_effective_kernel_convolution():
    start = time.monotonic()
    rng = np.random.default_rng(22)
    variants = list(BoxVariant)
    worst = 0.0
    for trial in range(200):
        k = int(rng.choice([5, 9, 13]))
        p = init_params(k, variants[trial % 4], rng)
        h = int(rng.integers(6, 13))
        w = int(rng.integers(6, 13))
        x = rng.normal(size=(1, h, w))
        out, _ = BoxConvLayer([p]).forward(x)
        want = naive_conv(x[0], effective_kernel(p))
        scale = max(float(np.max(np.abs(want))), 1.0)
        worst = max(worst, float(np.max(np.abs(out[0] - want))) / scale)
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 30.0
    report("criterion 2 (forward equivalence, all variants)",
           ok, f"max rel err {worst:.2e} over 200 pairs, {elapsed:.2f}s")


def test_c03_analytic_gradients_match_finite_differences():
    start = time.monotonic()
    rep = run_gradcheck(
        seed=33,
        n_configs=100,
        sizes=((8, 8), (12, 16), (16, 16)),
        ks=(5, 9, 13),
        tolerance=1e-5,
        h=1e-5,
    )
    elapsed = time.monotonic() - start
    worst = max(rep.max_errors.values())
    ok = rep.passed and worst < 1e-5 and elapsed < 60.0
    report("criterion 3 (gradient correctness)",
           ok, f"max rel err {worst:.2e} over {rep.n_configs} configs, {elapsed:.2f}s")


def test_c04_adjoint_identity():
    rep = run_adjoint_check(seed=44, trials=50, h=1e-5, tolerance=1e-5)
    worst = rep.max_errors["input_adjoint"]
    report("criterion 4 (adjoint identity)",
           rep.passed and worst < 1e-5, f"max rel err {worst:.2e} over 50 directions")


def test_c05_cost_claims():
    start = time.monotonic()
    rng = np.random.default_rng(55)
    for k in (5, 9, 13, 21):
        layer = BoxConvLayer([init_params(k, rng=rng)])
        per_pixel = layer.multadd_count((1, 32, 32)) / (32 * 32)
        assert per_pixel == 16, k
    # run_bench's box_sat and naive_dense layers, kernels and input, timed
    # with the two kernel sizes' calls alternating, so a slow spell of the
    # host weighs on both
    x = np.random.default_rng(55).normal(size=(1, 256, 256))
    layers = {k: BoxConvLayer([init_params(k, rng=np.random.default_rng(55 + k))]) for k in (7, 21)}
    calls = {}
    for k, layer in layers.items():
        kernels = effective_kernels(layer.theta, layer.split, layer.weight, k, layer.variant)
        calls["box", k] = lambda layer=layer: layer.forward(x)
        calls["dense", k] = lambda kernels=kernels: tap_conv(x, kernels)
    wall = {key: [] for key in calls}
    for rep in range(2 + 5):  # two warm-up rounds, then 5 timed
        for key, call in calls.items():
            t0 = time.perf_counter()
            call()
            if rep >= 2:
                wall[key].append(time.perf_counter() - t0)
    box_ratio, dense_ratio = (float(np.median(wall[name, 21]) / np.median(wall[name, 7]))
                              for name in ("box", "dense"))
    elapsed = time.monotonic() - start
    ok = box_ratio <= 1.5 and dense_ratio >= 4.0 and elapsed < 120.0
    report("criterion 5 (cost independence of k)",
           ok, f"16 multadds/px at every k; box t21/t7={box_ratio:.2f}, "
               f"dense t21/t7={dense_ratio:.2f}, {elapsed:.1f}s")


def test_c05_backward_cost_independence_of_k():
    """Backward is flat in k too: wide boxes, whose reads reach far into the
    margins of the cotangent's table, at k=13 and k=129 on 16x256^2. The two
    layers' calls alternate, so a slow spell of the host weighs on both."""
    rng = np.random.default_rng(56)
    x = rng.normal(size=(16, 256, 256))
    g = rng.normal(size=x.shape)
    runs = {}
    for k in (13, 129):
        boxes = []
        for _ in range(16):
            lo, hi = -rng.uniform(0.85, 0.95, size=2), rng.uniform(0.85, 0.95, size=2)
            boxes.append(BoxParams(lo[0], hi[0], lo[1], hi[1], k))
        layer = BoxConvLayer(boxes)
        _, saved = layer.forward(x)
        layer.backward(saved, g)
        runs[k] = layer, saved
    wall = {k: [] for k in runs}
    for _ in range(5):
        for k, (layer, saved) in runs.items():
            t0 = time.perf_counter()
            layer.backward(saved, g)
            wall[k].append(time.perf_counter() - t0)
    ratio = float(np.median(wall[129]) / np.median(wall[13]))
    report("criterion 5b (backward cost independence of k)",
           ratio <= 1.5, f"wide boxes, backward t129/t13={ratio:.2f}")


def test_c06_dilated_parity():
    rng = np.random.default_rng(66)
    box_layer = BoxConvLayer([init_params(13, rng=rng)])
    dilated = DenseKernel(np.ones((4, 4)), dilation=4)
    box_per_pixel = box_layer.multadd_count((1, 10, 10)) // 100
    ok = (
        box_per_pixel == dilated.multadds_per_pixel() == 16
        and dilated.receptive_extent() == 13 == box_layer.max_kernel
    )
    report("criterion 6 (dilated 4x4/d4 parity with k=13 box)",
           ok, "16 multadds/px and 13-pixel extent on both routes")


def test_c07_continuity_across_corner_crossing():
    """Sweep the high x edge across an integer lattice crossing.

    Output continuity is asserted on aggregate responses for constant and
    random sources: no step change may exceed 10x what the analytic
    gradient predicts for one step. Exact gradient continuity is asserted
    at an interior pixel of a constant source, where the analytic edge
    gradient is a constant (box height times the window half-width).
    """
    k = 9
    dt = 1e-4
    thetas = 0.5 + dt * np.arange(-25, 26)  # pixel offset sweeps across 2.0
    rng = np.random.default_rng(77)

    def sweep(x, cotangent):
        outs, grads = [], []
        for t in thetas:
            p = BoxParams(-0.4, float(t), -0.35, 0.45, k)
            layer = BoxConvLayer([p])
            out, saved = layer.forward(x)
            g = layer.backward(saved, cotangent).grad_boxes[0]
            outs.append(float(np.sum(out * cotangent)))
            grads.append(float(g.theta[1]))
        return np.array(outs), np.array(grads)

    checks = []
    for label, x in (("constant", np.ones((1, 20, 20))),
                     ("random", np.abs(rng.normal(size=(1, 20, 20))))):
        outs, grads = sweep(x, np.ones((1, 20, 20)))
        step_scale = dt * np.max(np.abs(grads))
        checks.append((f"{label} output", float(np.max(np.abs(np.diff(outs)))), 10 * step_scale))

    pixel = np.zeros((1, 20, 20))
    pixel[0, 10, 10] = 1.0
    outs, grads = sweep(np.ones((1, 20, 20)), pixel)
    step_scale = dt * np.max(np.abs(grads))
    checks.append(("interior output", float(np.max(np.abs(np.diff(outs)))), 10 * step_scale))
    checks.append(("interior gradient", float(np.max(np.abs(np.diff(grads)))), 10 * step_scale))

    ok = all(jump <= bound for _, jump, bound in checks)
    detail = "; ".join(f"{name} jump {jump:.2e} <= {bound:.2e}" for name, jump, bound in checks)
    report("criterion 7 (continuity at corner crossings)", ok, detail)


def test_c08_kernel_approximation_learning():
    start = time.monotonic()
    target = box_target_kernel(9, -2, 1, -1, 2)
    exact = train_kernel_approx(target, n_boxes=1, steps=2000, seed=0, k=9, lr=0.02)
    log_target = log_target_kernel(9, sigma=1.4)
    log_fit = train_kernel_approx(log_target, n_boxes=4, steps=3000, seed=0, k=9, lr=0.02)
    elapsed = time.monotonic() - start
    ratio = log_fit.initial_error / max(log_fit.final_error, 1e-12)
    ok = exact.final_error < 1e-3 and ratio >= 5.0 and elapsed < 300.0
    report("criterion 8 (learning demonstration)",
           ok, f"exact-box error {exact.final_error:.2e}, LoG error "
               f"{log_fit.initial_error:.3f}->{log_fit.final_error:.3f} "
               f"({ratio:.1f}x), {elapsed:.1f}s")


@pytest.fixture(scope="module")
def canonical_keypoint_run():
    cfg = parse_config("scripts/configs/keypoints_32.cfg")
    return cfg, train_toy_keypoints(cfg, check_invariants=True)


def test_c09_toy_end_to_end(canonical_keypoint_run):
    _, res = canonical_keypoint_run
    ok = res.final_accuracy > 0.9 and res.invariant_violations == 0
    report("criterion 9 (toy keypoint training)",
           ok, f"held-out accuracy@2px {res.final_accuracy:.3f} after 2000 steps, "
               f"{res.invariant_violations} projection violations")
    assert abs(res.final_accuracy - KEYPOINT_REGRESSION_ACCURACY) <= 1e-9


def test_c10_determinism(tmp_path):
    from satconv.gradcheck import format_report, merge_reports

    rep_a = merge_reports(run_gradcheck(seed=3, n_configs=8), run_adjoint_check(seed=3, trials=8))
    rep_b = merge_reports(run_gradcheck(seed=3, n_configs=8), run_adjoint_check(seed=3, trials=8))
    gradcheck_same = format_report(rep_a, 3) == format_report(rep_b, 3)

    bench_a = run_bench([7, 13], 48, 48, channels=2, repeats=2, seed=9)
    bench_b = run_bench([7, 13], 48, 48, channels=2, repeats=2, seed=9)
    cols = lambda rows: [(r.method, r.k, r.multadds, f"{r.checksum:.17g}") for r in rows]
    bench_same = cols(bench_a) == cols(bench_b)

    rng = np.random.default_rng(4)
    boxes = [init_params(9, v, rng) for v in BoxVariant]
    svg_same = render_boxes_svg(boxes) == render_boxes_svg(boxes)

    cfg = TrainConfig(task="keypoints", seed=2, steps=40, channels=4,
                      blocks=("box9",), batch=2, eval_every=20,
                      eval_samples=8, final_eval_samples=16)
    run_a = train_toy_keypoints(cfg)
    run_b = train_toy_keypoints(cfg)
    write_log_csv(tmp_path / "a.csv", run_a.log_rows)
    write_log_csv(tmp_path / "b.csv", run_b.log_rows)
    train_same = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    params_same = all(
        np.array_equal(run_a.model.params()[k], run_b.model.params()[k])
        for k in run_a.model.params()
    )

    ok = gradcheck_same and bench_same and svg_same and train_same and params_same
    report("criterion 10 (fixed-seed determinism)",
           ok, f"gradcheck={gradcheck_same} bench={bench_same} svg={svg_same} "
               f"train={train_same and params_same}")
