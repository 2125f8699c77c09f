"""Toy training tasks: dense-kernel approximation and synthetic keypoints.

Both tasks run one loop, `_fit`: per step, forward, `mse_loss` and backward
over a drawn batch, one Adam step on every parameter, and `post_step`,
which re-projects the box parameters into their feasible set; the learning
rate drops 10x once, at 75% of the steps. Checkpoints are a plain-text box
file plus one binary feature-map file per dense parameter; the log is CSV
with columns step, loss, accuracy (for the kernel task the accuracy column
carries the current relative kernel error).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from .boxes import feasible, save_boxes, window_ok
from .dense import conv2d
from .fmap import save_feature_map
from .heatmap import decode_keypoint, gaussian_target, mse_loss
from .nets import (
    Adam,
    BoxDepthwise,
    Broadcast,
    ChannelChangeBlock,
    DenseDepthwise,
    Pointwise,
    Relu,
    Sequential,
    ShuffleHalfBlock,
)
from .oracle import effective_kernels


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    task: str = ""
    seed: int = 0
    steps: int = 1000
    lr: float = 1e-3
    out: str = ""
    # keypoints
    image_size: int = 32
    channels: int = 8
    blocks: tuple = ("dense3", "box9", "dense3", "box13")
    sigma: float = 2.0
    noise: float = 0.25
    batch: int = 4
    eval_every: int = 100
    eval_samples: int = 64
    final_eval_samples: int = 200
    # kernel approximation
    k: int = 9
    n_boxes: int = 4
    target: str = "log"
    target_box: tuple = (-2, 1, -1, 2)
    log_sigma: float = 1.4


_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}
# Every other key is read as the type of its default.
_PARSERS = {
    "blocks": lambda value: tuple(t.strip() for t in value.split(",") if t.strip()),
    "target_box": lambda value: tuple(int(v) for v in value.split()),
}


def parse_config(path) -> TrainConfig:
    cfg, seen = TrainConfig(), {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'key value', got {raw.strip()!r}")
            key, value = parts
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if seen.setdefault(key, lineno) != lineno:
                raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {seen[key]}")
            parse = _PARSERS.get(key, type(_DEFAULTS[key]))
            try:
                setattr(cfg, key, parse(value))
            except ValueError as e:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {e}") from e
    validate_config(cfg, path)
    return cfg


def _block(token: str, path="config"):
    """The depth-wise module class and kernel size a blocks token names:
    dense<k> for an odd k (dense alone is dense3), box<k> for a window_ok k."""
    kind = token.rstrip("0123456789")
    size = int(token[len(kind):] or (3 if kind == "dense" else 0))
    if kind == "dense" and size % 2 == 1:
        return DenseDepthwise, size
    if kind == "box" and window_ok(size):
        return BoxDepthwise, size
    raise ConfigError(f"{path}: blocks: {token!r} is not dense<k> for an odd k "
                      "or box<k> for an odd k >= 3")


def validate_config(cfg: TrainConfig, path="config") -> None:
    if cfg.task not in ("keypoints", "kernel_approx"):
        raise ConfigError(f"{path}: task must be 'keypoints' or 'kernel_approx', got {cfg.task!r}")
    for key in ("steps", "seed"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"{path}: {key} must be >= 0, got {getattr(cfg, key)}")
    for key, default in _DEFAULTS.items():
        if isinstance(default, float) and not np.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{path}: {key} must be finite, got {getattr(cfg, key)}")
    for key in ("lr", "sigma", "log_sigma"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"{path}: {key} must be > 0, got {getattr(cfg, key)}")
    if cfg.task == "keypoints":
        if cfg.channels < 2 or cfg.channels % 2 != 0:
            raise ConfigError(f"{path}: channels must be even and >= 2, got {cfg.channels}")
        for key in ("batch", "eval_every", "eval_samples", "final_eval_samples"):
            if getattr(cfg, key) < 1:
                raise ConfigError(f"{path}: {key} must be >= 1, got {getattr(cfg, key)}")
        if cfg.eval_samples > cfg.final_eval_samples:
            raise ConfigError(f"{path}: eval_samples ({cfg.eval_samples}) must be <= "
                              f"final_eval_samples ({cfg.final_eval_samples})")
        if cfg.image_size < 2 * BLOB_MARGIN + 1:
            raise ConfigError(f"{path}: image_size must be >= {2 * BLOB_MARGIN + 1} to hold a "
                              f"blob {BLOB_MARGIN} px from each edge, got {cfg.image_size}")
        for token in cfg.blocks:
            _block(token, path)
    else:
        if not window_ok(cfg.k):
            raise ConfigError(f"{path}: k must be odd and >= 3, got {cfg.k}")
        if cfg.target not in ("log", "box"):
            raise ConfigError(f"{path}: target must be 'log' or 'box', got {cfg.target!r}")
        if cfg.n_boxes < 1:
            raise ConfigError(f"{path}: n_boxes must be >= 1, got {cfg.n_boxes}")
        if cfg.image_size < 1:
            raise ConfigError(f"{path}: image_size must be >= 1, got {cfg.image_size}")
        if cfg.target == "box" and len(cfg.target_box) != 4:
            raise ConfigError(f"{path}: target_box must be 4 integers xl xh yl yh, "
                              f"got {len(cfg.target_box)}")
        try:
            target_kernel(cfg)
        except ValueError as e:
            key = "k" if cfg.target == "log" else "target_box"
            raise ConfigError(f"{path}: {key}: {e}") from None


# ---------------------------------------------------------------------------
# target kernels for the approximation task

LOG_TARGET_SIZE = 9  # the Laplacian-of-Gaussian target's square support, in pixels


def box_target_kernel(k: int, xl: int, xh: int, yl: int, yh: int) -> np.ndarray:
    """Integer-cornered all-ones box on the (k+1)-sized comparison grid."""
    r = (k - 1) // 2
    if not (-r <= xl <= xh <= r and -r <= yl <= yh <= r):
        raise ValueError(f"target box ({xl},{xh},{yl},{yh}) exceeds window radius {r}")
    kern = np.zeros((k + 1, k + 1))
    kern[yl + r : yh + r + 1, xl + r : xh + r + 1] = 1.0
    return kern


def target_kernel(cfg: TrainConfig) -> np.ndarray:
    """The kernel_approx task's target: the config's LoG or integer box."""
    if cfg.target == "log":
        return log_target_kernel(cfg.k, sigma=cfg.log_sigma)
    return box_target_kernel(cfg.k, *cfg.target_box)


def log_target_kernel(k: int, sigma: float = 1.4) -> np.ndarray:
    """Laplacian-of-Gaussian on a LOG_TARGET_SIZE square, embedded in the k+1 grid."""
    if LOG_TARGET_SIZE > k:
        raise ValueError(f"target support {LOG_TARGET_SIZE} exceeds window {k}")
    half = (LOG_TARGET_SIZE - 1) // 2
    ax = np.arange(-half, half + 1, dtype=np.float64)
    r2 = ax[None, :] ** 2 + ax[:, None] ** 2
    log = (r2 / (2.0 * sigma ** 2) - 1.0) * np.exp(-r2 / (2.0 * sigma ** 2))
    r = (k - 1) // 2
    kern = np.zeros((k + 1, k + 1))
    kern[r - half : r + half + 1, r - half : r + half + 1] = log
    return kern


def composite_kernel(layer, mix_weights) -> np.ndarray:
    """Dense kernel realized by mixing a box layer's channels with scalar
    weights, summed in channel order."""
    kerns = effective_kernels(layer.theta, layer.split, layer.weight,
                              layer.max_kernel, layer.variant)
    weighted = np.asarray(mix_weights)[:, None, None] * kerns
    return sum(weighted[1:], weighted[0])


def kernel_rel_error(layer, mix_weights, target: np.ndarray) -> float:
    """Relative L2 error of composite_kernel against target."""
    got = composite_kernel(layer, mix_weights)
    return float(np.linalg.norm(got - target) / max(np.linalg.norm(target), 1e-12))


# ---------------------------------------------------------------------------
# the training loop


def _fit(model, steps: int, lr: float, draw):
    """Take steps Adam steps on the (x, target) batches draw() returns and
    yield (step, loss) after each post_step. The loss is the batch's mean
    squared error, so its gradient carries the batch mean's 1/N."""
    adam = Adam(model.params(), lr=lr)
    drop_at = max(1, int(0.75 * steps))
    for step in range(1, steps + 1):
        x, target = draw()
        pred, ctx = model.forward(x)
        loss, gpred = mse_loss(pred, target)
        _, grads = model.backward(ctx, gpred)
        if step == drop_at:
            adam.lr *= 0.1
        adam.step(grads)
        model.post_step()
        yield step, loss


@dataclass
class KernelApproxResult:
    boxes: list
    mix_weights: np.ndarray
    initial_error: float
    final_error: float
    log_rows: list
    model: Sequential


def train_kernel_approx(target: np.ndarray, n_boxes: int, steps: int, seed: int,
                        k: int = 9, lr: float = 0.02, image_size: int = 16) -> KernelApproxResult:
    """Fit a weighted set of boxes to reproduce convolution by a dense target.

    The model replicates the input plane across n_boxes channels, box-filters
    each, and mixes them down with a bias-free 1x1 convolution. Supervision
    is the dense convolution of fresh random planes by the target kernel.
    """
    rng = np.random.default_rng(seed)
    model = Sequential(
        [
            ("spread", Broadcast(n_boxes)),
            ("boxes", BoxDepthwise(rng, n_boxes, k)),
            ("mix", Pointwise(rng, n_boxes, 1, bias=False)),
        ]
    )
    box_layer: BoxDepthwise = model.children[1][1]
    mix: Pointwise = model.children[2][1]
    mix.matrix[:] = rng.uniform(-0.5, 0.5, size=mix.matrix.shape)

    def current_error():
        return kernel_rel_error(box_layer.conv, mix.matrix[0], target)

    data_rng = np.random.default_rng(seed + 1)

    def draw():
        x = data_rng.normal(size=(1, image_size, image_size))
        return x, conv2d(x[0], target)[None]

    initial_error = current_error()
    rows = [(step, loss, current_error()) for step, loss in _fit(model, steps, lr, draw)]
    return KernelApproxResult(
        boxes=box_layer.conv.boxes,
        mix_weights=mix.matrix[0].copy(),
        initial_error=initial_error,
        final_error=current_error(),
        log_rows=rows,
        model=model,
    )


# ---------------------------------------------------------------------------
# synthetic keypoint task


BLOB_MARGIN = 4  # pixels from a blob centre to the nearest image edge, at least


def synth_keypoint_sample(rng, size: int, noise: float = 0.25):
    """One training sample: a bright blob at a random spot over noise."""
    cx = float(rng.uniform(BLOB_MARGIN, size - 1 - BLOB_MARGIN))
    cy = float(rng.uniform(BLOB_MARGIN, size - 1 - BLOB_MARGIN))
    amp = float(rng.uniform(0.8, 1.2))
    blob_sigma = float(rng.uniform(1.5, 2.5))
    img = amp * gaussian_target((cx, cy), (size, size), sigma=blob_sigma)
    img = img + noise * rng.standard_normal((size, size))
    return img[None], (cx, cy)


def build_keypoint_net(rng, cfg: TrainConfig):
    """Stem that widens to the trunk, shuffle blocks, single-channel head."""
    c = cfg.channels
    half = c // 2
    stem_inner = Sequential(
        [
            ("dw", DenseDepthwise(rng, 1, 3)),
            ("pw", Pointwise(rng, 1, half)),
            ("act", Relu()),
        ]
    )
    children = [("stem", ChannelChangeBlock(rng, 1, c, stem_inner))]
    for i, token in enumerate(cfg.blocks):
        module, size = _block(token)
        inner = Sequential(
            [("dw", module(rng, half, size)), ("pw", Pointwise(rng, half, half)), ("act", Relu())]
        )
        children.append((f"blk{i}", ShuffleHalfBlock(c, inner)))
    children.append(("head", Pointwise(rng, c, 1)))
    return Sequential(children)


def box_layers(model) -> list:
    """Every BoxDepthwise in the model's tree, in params() order."""
    found = [model] if isinstance(model, BoxDepthwise) else []
    for _, child in model.children:
        found += box_layers(child)
    return found


def box_invariants_ok(layers) -> bool:
    return all(feasible(m.theta, m.split, m.weight, m.variant).all() for m in layers)


HIT_RADIUS = 2.0  # pixels: the @2px of the held-out accuracy


def evaluate_keypoints(model, samples, batch: int) -> np.ndarray:
    """Per sample, whether it decodes within HIT_RADIUS; forwarded batch at a time."""
    hits = []
    for start in range(0, len(samples), batch):
        chunk = samples[start : start + batch]
        pred, _ = model.forward(np.stack([x for x, _ in chunk]))
        for p, (_, (cx, cy)) in zip(pred, chunk):
            dx, dy = decode_keypoint(p[0])
            hits.append((dx - cx) ** 2 + (dy - cy) ** 2 <= HIT_RADIUS * HIT_RADIUS)
    return np.array(hits)


@dataclass
class KeypointResult:
    model: Sequential
    box_layers: list
    final_accuracy: float
    log_rows: list
    invariant_violations: int


def train_toy_keypoints(cfg: TrainConfig, check_invariants: bool = False) -> KeypointResult:
    rng = np.random.default_rng(cfg.seed)
    model = build_keypoint_net(rng, cfg)
    layers = box_layers(model)
    data_rng = np.random.default_rng(cfg.seed + 1)
    eval_rng = np.random.default_rng(cfg.seed + 2)
    held_out = [synth_keypoint_sample(eval_rng, cfg.image_size, cfg.noise)
                for _ in range(cfg.final_eval_samples)]
    shape = (cfg.image_size, cfg.image_size)

    def draw():
        samples = [synth_keypoint_sample(data_rng, cfg.image_size, cfg.noise)
                   for _ in range(cfg.batch)]
        return (np.stack([x for x, _ in samples]),
                np.stack([gaussian_target(peak, shape, cfg.sigma)[None] for _, peak in samples]))

    # a row's accuracy is that of the first eval_samples; the last step's
    # evaluation is read from the final one, which forwards them too
    n, violations = cfg.eval_samples, 0
    acc = float(evaluate_keypoints(model, held_out[:n], cfg.batch).mean())
    rows = []
    for step, loss in _fit(model, cfg.steps, cfg.lr, draw):
        if check_invariants and not box_invariants_ok(layers):
            violations += 1
        if step % cfg.eval_every == 0 and step < cfg.steps:
            acc = float(evaluate_keypoints(model, held_out[:n], cfg.batch).mean())
        rows.append((step, loss, acc))
    hits = evaluate_keypoints(model, held_out, cfg.batch)
    if rows and cfg.steps % cfg.eval_every == 0:
        rows[-1] = (cfg.steps, rows[-1][1], float(hits[:n].mean()))
    return KeypointResult(model, layers, float(hits.mean()), rows, violations)


# ---------------------------------------------------------------------------
# artifacts


def write_log_csv(path, rows) -> None:
    with open(path, "w") as f:
        f.write("step,loss,accuracy\n")
        for step, loss, acc in rows:
            f.write(f"{step},{loss:.17g},{acc:.17g}\n")


def write_checkpoint(outdir, model) -> None:
    os.makedirs(outdir, exist_ok=True)
    boxes = [box for layer in box_layers(model) for box in layer.conv.boxes]
    if boxes:
        save_boxes(os.path.join(outdir, "boxes.txt"), boxes)
    params = model.params()
    for key in sorted(params):
        arr = params[key]
        if key.endswith(("theta", "split", "weight")):
            continue  # box parameters live in boxes.txt
        shaped = arr.reshape((1,) * (3 - arr.ndim) + arr.shape) if arr.ndim < 3 else arr
        fname = "param__" + key.replace(".", "_") + ".fm"
        save_feature_map(os.path.join(outdir, fname), shaped)


def run_task(cfg: TrainConfig):
    """Dispatch a parsed config; returns (result, summary line)."""
    if cfg.task == "kernel_approx":
        res = train_kernel_approx(target_kernel(cfg), cfg.n_boxes, cfg.steps, cfg.seed,
                                  k=cfg.k, lr=cfg.lr, image_size=cfg.image_size)
        summary = (f"kernel_approx: rel error {res.initial_error:.17g} -> "
                   f"{res.final_error:.17g}")
        return res, summary
    res = train_toy_keypoints(cfg)
    summary = f"keypoints: held-out accuracy@2px {res.final_accuracy:.17g}"
    return res, summary
