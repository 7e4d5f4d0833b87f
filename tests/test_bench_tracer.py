"""The traced benchmark wraps functions by name: every name it lists must
still resolve in the matching coverdepth module, or a traced run breaks."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_layer_functions_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"coverdepth.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"coverdepth.{layer} lacks {missing}"
