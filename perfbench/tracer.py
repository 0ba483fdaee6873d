"""Per-layer tracing of the qfa library from outside the program.

`Tracer.install()` wraps every public function and every public method of a
public class defined in the layer modules, and rebinds each wrapped name in
every loaded `qfa` module that holds it: `dft`, `gauss_sum` and `matrix_rank`
are imported by name into other modules, so patching their home module alone
would miss those calls.  `uninstall()` restores every binding.

Self time comes from a span stack: a call's self time is its duration minus
the time covered by the traced calls it made.  Counters are aggregated per
wrapped function; spans that cross a layer boundary are also kept in memory
(up to a cap) and written out once, after the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# The six library layers, in dependency order, plus the check catalogue.
LIBRARY_LAYERS = ("core", "factors", "constructions", "detectors", "uniformity", "regularize")
LAYERS = LIBRARY_LAYERS + ("suites",)

# The detector entry points whose results count as searches.
SEARCHES = ("find_op", "find_hop2", "find_fop2", "vc_dim", "vc2_dim", "cap2_check")

MAX_SPANS = 200_000


class FnStats:
    __slots__ = ("layer", "calls", "self_s", "total_s", "errors", "depth")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.errors = 0
        self.depth = 0


class Tracer:
    """Wraps the qfa layer modules; collects counts, self and total times."""

    def __init__(self):
        self.stats: dict[str, FnStats] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        # detector outcomes, read from the return values of the searches
        self.searches = 0
        self.nodes = 0
        self.witnesses = 0
        self.bound_only = 0
        self.rounds = 0
        self._stack: list[list] = []
        self._next_span = 0
        self._last_budget = None
        self._last_error = None
        self._undo: list[tuple] = []

    # --- installation ---

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer already installed")
        import qfa  # noqa: F401 - loads every layer module

        det = sys.modules["qfa.detectors"]
        hooks = {
            "detectors.SearchBudget.start": self._on_budget_start,
            "regularize.stable_linear_decomposition": self._on_decomposition,
        }
        for name in SEARCHES:
            hooks[f"detectors.{name}"] = functools.partial(self._on_search, det)

        replaced = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"qfa.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{layer}.{name}"
                    replaced[id(obj)] = self._wrap(key, layer, obj, hooks.get(key))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, hooks)
        # rebind every module-level name that refers to a wrapped function
        qfa_modules = [m for n, m in list(sys.modules.items()) if n == "qfa" or n.startswith("qfa.")]
        for module in qfa_modules:
            for name, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrapper)
        return self

    def _wrap_class(self, layer: str, cls: type, hooks: dict) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                wrapped = type(attr)(self._wrap(key, layer, attr.__func__, hooks.get(key)))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(key, layer, attr, hooks.get(key))
            else:
                continue  # properties and plain class attributes stay as they are
            self._undo.append((cls, name, attr))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap(self, key: str, layer: str, fn, on_return):
        st = self.stats.setdefault(key, FnStats(layer))
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            # frame: [start, child time, layer, span id]
            if parent is None or parent[2] != layer:
                span = tracer._next_span
                tracer._next_span += 1
            else:
                span = parent[3]
            frame = [clock(), 0.0, layer, span]
            stack.append(frame)
            st.calls += 1
            st.depth += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._last_error:  # count each exception where it started
                    tracer._last_error = exc
                    st.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                st.depth -= 1
                dur = end - frame[0]
                st.self_s += dur - frame[1]
                if st.depth == 0:
                    st.total_s += dur  # recursive calls are counted once
                if parent is not None:
                    parent[1] += dur
                if parent is None or parent[3] != span:
                    tracer._record_span(span, None if parent is None else parent[3], key, frame[0], end)
            if on_return is not None:
                on_return(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _record_span(self, span, parent, key, start, end) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span, parent, key, start, end))
        else:
            self.dropped_spans += 1

    # --- result hooks ---

    def _on_budget_start(self, budget) -> None:
        self._last_budget = budget

    def _on_search(self, det, result) -> None:
        self.searches += 1
        if isinstance(result, det.DetectResult):
            status, nodes, found = result.status, result.nodes, result.witness is not None
        else:  # (value, witness, status) from vc_dim, vc2_dim and cap2_check
            status, nodes, found = result[2], self._last_budget.nodes, result[1] is not None
        self.nodes += nodes
        self.witnesses += int(found)
        self.bound_only += int(status == det.BOUND_ONLY)

    def _on_decomposition(self, result) -> None:
        self.rounds += len(result["history"])

    # --- readout ---

    def layer_totals(self, layer: str) -> tuple[int, float, int]:
        """(calls, self seconds, errors) summed over the layer's functions."""
        members = [s for s in self.stats.values() if s.layer == layer]
        return (
            sum(s.calls for s in members),
            sum(s.self_s for s in members),
            sum(s.errors for s in members),
        )

    def search_seconds(self) -> float:
        return sum(self.stats[f"detectors.{name}"].total_s for name in SEARCHES)

    def write_spans(self, path, header: dict) -> None:
        """JSON lines: a header, then one line per kept span (times in s,
        relative to the first span)."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans), dropped=self.dropped_spans)) + "\n")
            for span, parent, key, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span, "parent": parent, "name": key,
                    "start": round(start - t0, 9), "end": round(end - t0, 9),
                }) + "\n")
