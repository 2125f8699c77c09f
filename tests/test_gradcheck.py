"""The finite-difference harness: its error rule and how it drives the layer."""

import numpy as np
import pytest

from satconv.gradcheck import ABS_AGREEMENT_FLOOR, rel_err, run_gradcheck
from satconv.layer import BoxConvLayer


def _floored_rel_err(a, b):
    """The earlier rule: 0 below the absolute floor, else relative to
    max(|a|, |b|, 1e-8)."""
    if abs(a - b) < ABS_AGREEMENT_FLOOR:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


@pytest.mark.parametrize("tolerance", [1e-5, 1e-6])
def test_rel_err_gives_the_floored_verdicts(tolerance):
    mags = [0.0, 1e-12, 3e-9, 1e-8, 4e-8, 1e-7, 2.5e-7, 1e-6, 3e-3, 0.05, 1.0, 70.0]
    rels = [0.0, 1e-9, 3e-7, 9e-7, 2e-6, 1.1e-5, 5e-5, 1e-3, 0.5]
    shifts = [0.0, 1e-10, 5e-8, 9.9e-8, 1.01e-7, 3e-7, 1e-5]
    n = 0
    for a in mags + [-m for m in mags[1:]]:
        for r in rels:
            for d in shifts + [-d for d in shifts[1:]]:
                b = a * (1 + r) + d
                want = _floored_rel_err(a, b) >= tolerance
                assert (rel_err(a, b, tolerance) >= tolerance) == want, (a, b)
                assert (rel_err(b, a, tolerance) >= tolerance) == want, (b, a)
                n += want
    assert n > 100  # the grid holds failing pairs as well as passing ones


def test_rel_err_reports_agreement_below_the_floor():
    a, b = 0.05, 0.05 * (1 + 1e-6)
    assert _floored_rel_err(a, b) == 0.0
    assert rel_err(a, b, 1e-5) == pytest.approx(1e-6, rel=1e-5)


def test_gradcheck_builds_one_layer_per_config(monkeypatch):
    """Differences move the layer's own arrays and recompile it; every
    category's largest error is measured, not floored to 0."""
    built = []
    init = BoxConvLayer.__init__
    monkeypatch.setattr(BoxConvLayer, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    rep = run_gradcheck(seed=0, n_configs=8)
    assert rep.passed and len(built) == 8
    assert set(rep.max_errors) >= {"theta_xl", "split_x", "split_y", "weight", "input"}
    assert all(0.0 < err < 1e-6 for err in rep.max_errors.values()), rep.max_errors
