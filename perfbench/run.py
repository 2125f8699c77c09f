"""Benchmark of satconv: keypoint training, box training at 256^2, box inference at 1024^2.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload keypoints_32 --seed 1 --seconds 30 --trace 0

It imports satconv from the checkout's ``src/``, runs one workload
closed-loop for about ``--seconds`` seconds, checks every operation's
outputs, and prints as its last line a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, and the aggregated spans go to ``perfbench/out/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS/OpenMP thread: the layers under test are single-threaded NumPy,
# and a second pool would only add scheduling noise on a 2-core host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = (
    os.path.join(ROOT, "src", "satconv", "__init__.py"),
    os.path.join(ROOT, "scripts", "configs", "keypoints_32.cfg"),
)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("keypoints_32", "boxconv_train_256", "boxconv_infer_1024"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: not a satconv source checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

    import metrics
    from workloads import WORKLOADS

    run = WORKLOADS[args.workload](ROOT, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        values = metrics.per_layer(run)
        metrics.write_trace(os.path.join(HERE, "out"), args.workload, args.seed, run)
    else:
        values = metrics.end_to_end(run)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
