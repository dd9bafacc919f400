"""The benchmark's tracer wraps nerrank functions by name. A rename or a
refactor that drops one of them would break `perfbench/run.py --trace 1`
without failing any other test, so this checks every name it lists."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.TARGETS
    for _, module_name, attr, _ in tracer.TARGETS:
        holder = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(holder, part), f"{module_name}.{attr}: no {part}"
            holder = getattr(holder, part)
        assert callable(holder), f"{module_name}.{attr} is not callable"
