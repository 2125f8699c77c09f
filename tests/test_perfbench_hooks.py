"""The benchmark's tracer looks satconv functions up by name; keep them there."""

import importlib
from pathlib import Path

import satconv.layer


def test_tracer_finds_every_traced_name(monkeypatch):
    # Tracer() reads each traced name through owner.__dict__[attr], so a
    # renamed or moved function fails here rather than in a traced run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    hooked = {(owner, attr) for owner, attr, _orig, _wrapper in tracer._patches}
    for name in ("build_sat", "sat_backward", "compile_plan"):
        assert (satconv.layer, name) in hooked
