"""The benchmark harness in ``perfbench/`` imports package names directly.

Deleting or renaming one of them breaks every benchmark run, so the
harness's own modules are imported here.
"""

import importlib
from pathlib import Path

from faframe import frames

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_modules_import_and_find_what_they_read(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("tracing")
    importlib.import_module("workloads")
    # The tracer's frame counter reads the elements of every frame it sees.
    assert hasattr(frames.Frame, "elements")
