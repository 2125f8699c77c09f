"""Command-line entry point: gradcheck, bench, export-boxes, train."""

from __future__ import annotations

import argparse
import math
import os
import sys

from .bench import run_bench, to_csv
from .boxes import SPLIT_EDGES, load_boxes, window_ok
from .gradcheck import format_report, merge_reports, run_adjoint_check, run_gradcheck
from .train import ConfigError, parse_config, run_task, write_checkpoint, write_log_csv


def render_boxes_svg(boxes, columns: int = 8, tile: float = 80.0, gap: float = 12.0) -> str:
    """One tile per box: the k x k window outline, the coverage rectangle,
    and split lines where present. Deterministic output."""
    n = len(boxes)
    cols = min(columns, n)
    rows = -(-n // cols)
    width = cols * (tile + gap) + gap
    height = rows * (tile + gap + 12.0) + gap
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">',
        f'<rect width="{width:.1f}" height="{height:.1f}" fill="white"/>',
    ]
    for i, p in enumerate(boxes):
        k = p.max_kernel
        r = (k - 1) / 2
        ox = gap + (i % cols) * (tile + gap)
        oy = gap + (i // cols) * (tile + gap + 12.0)

        def sx(u):  # centered offset -> tile x; window coverage spans [-r, r+1)
            return ox + (u + r) / k * tile

        def sy(v):
            return oy + (v + r) / k * tile

        xl, xh = p.theta_xl * r, p.theta_xh * r
        yl, yh = p.theta_yl * r, p.theta_yh * r
        parts.append(
            f'<rect x="{ox:.4f}" y="{oy:.4f}" width="{tile:.4f}" height="{tile:.4f}" '
            'fill="none" stroke="#888" stroke-width="1"/>'
        )
        parts.append(
            f'<rect x="{sx(xl):.4f}" y="{sy(yl):.4f}" '
            f'width="{sx(xh + 1) - sx(xl):.4f}" height="{sy(yh + 1) - sy(yl):.4f}" '
            'fill="#4d88ff" fill-opacity="0.45" stroke="#1a4fcc" stroke-width="1"/>'
        )
        for s, lo in zip(p.split_theta, SPLIT_EDGES[p.variant]):
            m = s * r  # a vertical line for an x split, a horizontal one for a y split
            x1, y1, x2, y2 = (m, yl, m, yh + 1) if lo == 0 else (xl, m, xh + 1, m)
            parts.append(
                f'<line x1="{sx(x1):.4f}" y1="{sy(y1):.4f}" x2="{sx(x2):.4f}" '
                f'y2="{sy(y2):.4f}" stroke="#cc3333" stroke-width="1"/>'
            )
        parts.append(
            f'<text x="{ox:.4f}" y="{oy + tile + 10.0:.4f}" font-size="9" '
            f'fill="#444">ch{i} k={k} {p.variant.value}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _checked(parse, ok, expected):
    """An argparse type: parse the text and check it, so that a bad value is
    a usage error (exit code 2) rather than a traceback. parse returns None,
    or raises ValueError, for text it cannot read."""
    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return convert


def _ints(text: str):
    return tuple(int(v) for v in text.split(",") if v.strip()) or None


def _sizes(text: str):
    sizes = tuple(tuple(int(v) for v in t.lower().split("x")) for t in text.split(",") if t.strip())
    return sizes or None


def _is_size(hw) -> bool:
    return len(hw) == 2 and min(hw) >= 1


_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_tolerance = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_kernel_sizes = _checked(_ints, lambda ks: all(map(window_ok, ks)),
                         "comma-separated odd kernel sizes >= 3")
_plane_sizes = _checked(_sizes, lambda ss: all(map(_is_size, ss)), "comma-separated HxW sizes")
_plane_size = _checked(_sizes, lambda ss: len(ss) == 1 and _is_size(ss[0]), "one HxW size")


def cmd_gradcheck(args) -> int:
    report = run_gradcheck(
        seed=args.seed,
        n_configs=args.configs,
        sizes=args.sizes,
        ks=args.k,
        tolerance=args.tolerance,
    )
    adjoint = run_adjoint_check(seed=args.seed, tolerance=args.tolerance)
    merged = merge_reports(report, adjoint)
    sys.stdout.write(format_report(merged, args.seed))
    return 0 if merged.passed else 1


def cmd_bench(args) -> int:
    results = run_bench(
        k_list=args.k,
        height=args.size[0][0],
        width=args.size[0][1],
        channels=args.channels,
        repeats=args.repeats,
        seed=args.seed,
    )
    sys.stdout.write(to_csv(results))
    return 0


def cmd_export_boxes(args) -> int:
    try:
        boxes = load_boxes(args.checkpoint)
    except (OSError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    svg = render_boxes_svg(boxes)
    try:
        with open(args.out, "w") as f:
            f.write(svg)
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    sys.stdout.write(f"wrote {args.out} ({len(boxes)} boxes)\n")
    return 0


def cmd_train(args) -> int:
    try:
        cfg = parse_config(args.config)
    except (OSError, ConfigError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    outdir = cfg.out or os.path.splitext(args.config)[0] + "_run"
    try:  # before the run, which a directory it cannot write would waste
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:
        sys.stderr.write(f"error: {outdir}: {e}\n")
        return 2
    result, summary = run_task(cfg)
    write_log_csv(os.path.join(outdir, "log.csv"), result.log_rows)
    write_checkpoint(outdir, result.model)
    sys.stdout.write(summary + "\n")
    sys.stdout.write(f"artifacts in {outdir}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satconv",
        description="Box convolution on summed-area tables: checks, benchmarks, toy training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--configs", type=_positive_int, default=100)
    g.add_argument("--sizes", type=_plane_sizes, default="8x8,12x16,16x11")
    g.add_argument("--k", type=_kernel_sizes, default="5,9,13")
    g.add_argument("--tolerance", type=_tolerance, default=1e-5)
    g.set_defaults(fn=cmd_gradcheck)

    b = sub.add_parser("bench", help="kernel-size scaling benchmark (CSV on stdout)")
    b.add_argument("--k", type=_kernel_sizes, default="7,13,21")
    b.add_argument("--size", type=_plane_size, default="256x256")
    b.add_argument("--channels", type=_positive_int, default=1)
    b.add_argument("--repeats", type=_positive_int, default=5)
    b.add_argument("--seed", type=_seed, default=0)
    b.set_defaults(fn=cmd_bench)

    e = sub.add_parser("export-boxes", help="render a box checkpoint as SVG")
    e.add_argument("checkpoint")
    e.add_argument("out")
    e.set_defaults(fn=cmd_export_boxes)

    t = sub.add_parser("train", help="run a toy training config")
    t.add_argument("config")
    t.set_defaults(fn=cmd_train)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
