"""Finite-difference verification of the analytic backward pass.

Every check compares an analytic derivative against a central difference of
the forward pass contracted with a fixed cotangent. A configuration is one
one-channel BoxConvLayer, whose own theta, split and weight entries, those
boxes.TRAINED names, are moved by +-h in place and recompiled, as an
optimizer step and post_step do. The forward output is piecewise
multilinear in each box parameter, with breakpoints where a sample
coordinate crosses the integer lattice, so configurations are nudged to
keep all sample coordinates a safe margin away from integers; inside a cell
the central difference is then exact up to rounding noise. The relative
error's denominator is at least ABS_AGREEMENT_FLOOR / tolerance, so
derivatives that are legitimately zero (pixels outside a box's coverage),
where the difference quotient returns pure rounding noise, pass when they
agree to within ABS_AGREEMENT_FLOOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import N_WEIGHTS, SPLIT_EDGES, TRAINED, BoxParams, BoxVariant, init_params
from .layer import BoxConvLayer

CATEGORIES = (
    "theta_xl",
    "theta_xh",
    "theta_yl",
    "theta_yh",
    "split_x",
    "split_y",
    "weight",
    "input",
    "input_adjoint",
)

ABS_AGREEMENT_FLOOR = 1e-7
INPUT_PIXELS = 2  # input-gradient checks per configuration


def rel_err(a: float, b: float, tolerance: float) -> float:
    """|a - b| over the largest of |a|, |b| and ABS_AGREEMENT_FLOOR / tolerance:
    it reaches tolerance only where |a - b| also reaches ABS_AGREEMENT_FLOOR."""
    return abs(a - b) / max(abs(a), abs(b), ABS_AGREEMENT_FLOOR / tolerance)


@dataclass
class GradCheckReport:
    """Per category: the largest relative error (max_errors, which the pass
    rule reads) and the largest absolute analytic-vs-FD difference
    (max_abs_diffs); n_nonzero counts the checks whose analytic gradient was
    not 0, so a category whose derivatives all vanish shows as checked but
    untested."""

    tolerance: float
    n_configs: int
    max_errors: dict = field(default_factory=dict)
    max_abs_diffs: dict = field(default_factory=dict)
    n_checks: dict = field(default_factory=dict)
    n_nonzero: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, category: str, analytic: float, fd: float, where: str) -> None:
        err = rel_err(analytic, fd, self.tolerance)
        self.max_errors[category] = max(self.max_errors.get(category, 0.0), err)
        self.max_abs_diffs[category] = max(self.max_abs_diffs.get(category, 0.0),
                                           abs(analytic - fd))
        self.n_checks[category] = self.n_checks.get(category, 0) + 1
        self.n_nonzero[category] = self.n_nonzero.get(category, 0) + int(analytic != 0.0)
        if err >= self.tolerance:
            self.failures.append(f"{category} at {where}: rel err {err:.3e}")


def _nudge_theta(t: float, k: int, shift: float = 0.0) -> float:
    """Push a normalized coordinate so its pixel offset sits off the lattice."""
    r = (k - 1) / 2
    off = t * r + shift
    frac = off - math.floor(off)
    if min(frac, 1.0 - frac) < 2e-3:
        t += (5e-3 / r) * (1.0 if frac < 0.5 else -1.0)
    return min(max(t, -1.0), 1.0)


def _draw_config(rng, ks, sizes, strides, variants):
    k = int(rng.choice(ks))
    h, w = sizes[int(rng.integers(len(sizes)))]
    stride = int(rng.choice(strides))
    variant = variants[int(rng.integers(len(variants)))]
    while True:
        p = init_params(k, variant, rng)
        if p.theta_xh - p.theta_xl < 0.05 or p.theta_yh - p.theta_yl < 0.05:
            continue
        t = p.thetas
        if all(min(s - t[lo], t[lo + 1] - s) >= 5e-3
               for s, lo in zip(p.split_theta, SPLIT_EDGES[variant])):
            break
    weights = (1.0,)
    if "weight" in TRAINED[variant]:
        # unequal sub-box weights: with equal ones every split site cancels
        weights = rng.uniform(0.5, 1.5, size=N_WEIGHTS[variant])
    # the high edges' sample coordinates are one pixel past their offsets
    p = BoxParams(*(_nudge_theta(v, k, i % 2) for i, v in enumerate(t)), k, variant,
                  [_nudge_theta(s, k) for s in p.split_theta], weights)
    return p, (h, w), stride


def _categories(name, variant):
    """The report category of each column of the layer array name."""
    split = tuple("split_x" if lo == 0 else "split_y" for lo in SPLIT_EDGES[variant])
    return {"theta": CATEGORIES[:4], "split": split, "weight": ("weight",) * N_WEIGHTS[variant]}[name]


def run_gradcheck(
    seed: int = 0,
    n_configs: int = 100,
    sizes=((8, 8), (12, 16), (16, 11)),
    ks=(5, 9, 13),
    strides=(1, 2),
    tolerance: float = 1e-5,
    h: float = 1e-5,
) -> GradCheckReport:
    """FD-check box parameter and input gradients over random configurations."""
    rng = np.random.default_rng(seed)
    variants = list(BoxVariant)
    report = GradCheckReport(tolerance=tolerance, n_configs=n_configs)

    for ci in range(n_configs):
        p, (hh, ww), stride = _draw_config(rng, ks, sizes, strides, variants)
        x = rng.normal(size=(1, hh, ww))
        layer = BoxConvLayer([p], stride=stride)
        g = rng.normal(size=layer.out_shape(x.shape))
        _, saved = layer.forward(x)
        grads = layer.backward(saved, g)
        where = f"config {ci} ({p.variant.value} k={p.max_kernel} stride={stride})"

        def loss(xin):
            return float(np.sum(layer.forward(xin)[0] * g))

        def loss_at(arr, j, t):
            arr[0, j] = t
            layer.recompile()
            return loss(x)

        for name in TRAINED[p.variant]:
            arr, analytic = getattr(layer, name), getattr(grads.boxes, name)[0]
            for j, cat in enumerate(_categories(name, p.variant)):
                t = arr[0, j]
                fd = (loss_at(arr, j, t + h) - loss_at(arr, j, t - h)) / (2 * h)
                arr[0, j] = t
                report.record(cat, analytic[j], fd, where)
        layer.recompile()

        for _ in range(INPUT_PIXELS):
            iy, ix = int(rng.integers(hh)), int(rng.integers(ww))
            e = np.zeros_like(x)
            e[0, iy, ix] = h
            fd = (loss(x + e) - loss(x - e)) / (2 * h)
            report.record("input", grads.grad_input[0, iy, ix], fd, where)

    return report


def run_adjoint_check(seed: int = 0, trials: int = 50, h: float = 1e-5,
                      tolerance: float = 1e-5) -> GradCheckReport:
    """Directional check: <backward grad_input, v> vs d/de loss(x + e v)."""
    rng = np.random.default_rng(seed)
    variants = list(BoxVariant)
    report = GradCheckReport(tolerance=tolerance, n_configs=trials)
    for ti in range(trials):
        p, (hh, ww), stride = _draw_config(rng, (5, 9, 13), ((8, 8), (12, 10)), (1, 2), variants)
        x = rng.normal(size=(1, hh, ww))
        layer = BoxConvLayer([p], stride=stride)
        g = rng.normal(size=layer.out_shape(x.shape))
        _, saved = layer.forward(x)
        gin = layer.backward(saved, g).grad_input
        v = rng.normal(size=x.shape)
        op, _ = layer.forward(x + h * v)
        om, _ = layer.forward(x - h * v)
        fd = float(np.sum((op - om) * g)) / (2 * h)
        lhs = float(np.sum(gin * v))
        report.record("input_adjoint", lhs, fd, f"trial {ti}")
    return report


def merge_reports(*reports) -> GradCheckReport:
    merged = GradCheckReport(
        tolerance=min(r.tolerance for r in reports),
        n_configs=sum(r.n_configs for r in reports),
    )
    for r in reports:
        for cat, err in r.max_errors.items():
            merged.max_errors[cat] = max(merged.max_errors.get(cat, 0.0), err)
            merged.max_abs_diffs[cat] = max(merged.max_abs_diffs.get(cat, 0.0),
                                            r.max_abs_diffs[cat])
            merged.n_checks[cat] = merged.n_checks.get(cat, 0) + r.n_checks[cat]
            merged.n_nonzero[cat] = merged.n_nonzero.get(cat, 0) + r.n_nonzero[cat]
        merged.failures.extend(r.failures)
    return merged


def format_report(report: GradCheckReport, seed: int) -> str:
    lines = [
        f"gradcheck seed={seed} configs={report.n_configs} tolerance={report.tolerance:g}"
    ]
    for cat in CATEGORIES:
        if cat in report.max_errors:
            lines.append(
                f"  {cat:<14} checks={report.n_checks[cat]:<5d}"
                f" nonzero={report.n_nonzero[cat]:<5d} max_rel_err={report.max_errors[cat]:.3e}"
                f" max_abs_diff={report.max_abs_diffs[cat]:.3e}"
            )
    for fail in report.failures:
        lines.append(f"  FAIL {fail}")
    lines.append("RESULT " + ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"
