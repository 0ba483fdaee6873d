"""perfbench/run.py reads its per-layer metrics from the tracer's counters by
the names of library functions.  A name that no longer resolves passes every
other test and only raises KeyError under `--trace 1`, so each one is checked
here against the library."""

import importlib.util
import inspect
import sys
from pathlib import Path

import qfa

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves_to_a_library_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports harness and tracer
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    keys = [key for keys in run.FUNCTIONS.values() for key in keys]
    keys += [f"detectors.{name}" for name in sys.modules["tracer"].SEARCHES]
    assert "core.GroupSpec.add_perm" in keys
    for key in keys:
        layer, *path = key.split(".")
        assert layer in run.LIBRARY_LAYERS, key
        obj = importlib.import_module(f"{qfa.__name__}.{layer}")
        for name in path:
            assert not name.startswith("_") and hasattr(obj, name), key
            obj = getattr(obj, name)
        # the tracer wraps functions and methods only, not properties
        assert inspect.isfunction(obj), key
