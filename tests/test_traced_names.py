"""The benchmark's traced run (bench/run.py --trace 1) wraps library
functions by module and attribute name, as listed by bench/layers.py.  A
rename or move in the library breaks that run; this test resolves every
listed name against the real modules, so the break shows in Tier-1."""

import importlib
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1] / "bench"


def traced_targets(monkeypatch) -> list:
    """(span, module, attribute, observer) for every name bench/layers.py
    wraps, as its traced run installs them."""
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    lib = SimpleNamespace(**{m: importlib.import_module(f"cakecut.{m}")
                             for m in layers.MODULES})
    return layers.targets(lib, layers.LayerCounters())


def test_every_traced_name_resolves(monkeypatch):
    targets = traced_targets(monkeypatch)
    assert targets
    missing = []
    for span, module, attr, _observe in targets:
        obj = module
        for part in attr.split("."):  # "Density.prefix_at": a method
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{span}: {module.__name__}.{attr}")
    assert missing == []
