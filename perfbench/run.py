"""The qfa benchmark.

    python3 perfbench/run.py --workload {catalogue,search,algebra} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
`src/` directory.  The workload's inputs are drawn from the seed, every item's
output is checked, and the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json; with `--trace 1` they
are its per-layer metrics, from a run that times untraced passes for half the
budget and traced passes for the other half.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

from harness import hd_quantile, item_medians_ms, latency_summary, run_passes
from tracer import LIBRARY_LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120
WORKLOADS = ("catalogue", "search", "algebra")

# per-layer aliases: metric prefix -> traced function keys (summed)
FUNCTIONS = {
    "core.add_perm": ("core.GroupSpec.add_perm",),
    "core.index_of": ("core.GroupSpec.index_of",),
    "core.sum_table": ("core.GroupSpec.sum_table",),
    "core.matrix_rank": ("core.matrix_rank",),
    "factors.matrix_family_rank": ("factors.matrix_family_rank",),
    "constructions.trace_sym_space": ("constructions.trace_sym_space",),
    "detectors.revalidate": ("detectors.Witness.revalidate",),
    "uniformity.u2_norm": ("uniformity.u2_norm",),
    "uniformity.u3_norm": ("uniformity.u3_norm",),
    "uniformity.dev2": ("uniformity.dev2_sum", "uniformity.dev2_measure", "uniformity.dev2_naive"),
    "uniformity.oct": ("uniformity.oct_sum", "uniformity.oct_measure", "uniformity.oct_naive"),
    "uniformity.triad_membership_check": ("uniformity.triad_membership_check",),
    "regularize.stable_linear_decomposition": ("regularize.stable_linear_decomposition",),
    "regularize.find_uniform_dense_coset": ("regularize.find_uniform_dense_coset",),
}


def add_source_path() -> None:
    """Import qfa from this checkout's src/ (and nowhere else)."""
    if not (SOURCE / "qfa" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qfa sources under {SOURCE}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _per_pass(total, passes: int):
    """A counter per pass; whole when every pass did the same work."""
    return total // passes if isinstance(total, int) and total % passes == 0 else total / passes


def end_to_end_metrics(passes, setup_samples) -> dict:
    return {
        "setup_s": hd_quantile(setup_samples, 0.5),
        "wall_s": hd_quantile([p.wall_s for p in passes], 0.5),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer, traced, untraced) -> dict:
    from qfa import suites

    P = len(traced)
    out = {}
    library_self = 0.0
    for layer in LIBRARY_LAYERS:
        calls, self_s, errors = tracer.layer_totals(layer)
        library_self += self_s
        out[f"{layer}.calls"] = _per_pass(calls, P)
        out[f"{layer}.self_s"] = self_s / P
        out[f"{layer}.errors"] = _per_pass(errors, P)
    for alias, keys in FUNCTIONS.items():
        stats = [tracer.stats[k] for k in keys]
        out[f"{alias}.calls"] = _per_pass(sum(s.calls for s in stats), P)
        out[f"{alias}.self_s"] = sum(s.self_s for s in stats) / P
        out[f"{alias}.total_s"] = sum(s.total_s for s in stats) / P
    search_s = tracer.search_seconds()
    out["detectors.searches"] = _per_pass(tracer.searches, P)
    out["detectors.nodes"] = _per_pass(tracer.nodes, P)
    out["detectors.nodes_per_s"] = tracer.nodes / search_s if search_s > 0 else 0.0
    out["detectors.witness_ratio"] = tracer.witnesses / tracer.searches if tracer.searches else 0.0
    out["detectors.bound_only"] = _per_pass(tracer.bound_only, P)
    out["regularize.rounds"] = _per_pass(tracer.rounds, P)
    check_ms = item_medians_ms(untraced)
    for entries in suites.SUITES.values():
        for check_id, _, _ in entries:
            out[f"suites.check.{check_id}.ms"] = check_ms.get(check_id, 0.0)
    traced_wall = hd_quantile([p.wall_s for p in traced], 0.5)
    untraced_wall = hd_quantile([p.wall_s for p in untraced], 0.5)
    out["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    out["trace.library_self_frac"] = library_self / sum(p.wall_s for p in traced)
    return out


def select(values: dict, declared: list) -> dict:
    """The declared metrics, by name and unit, in declaration order."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"declared metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def measure(workload, seconds: float, trace: bool, spec: dict, setup_samples) -> tuple[dict, dict, object]:
    """Run the passes and return (result line, run facts, tracer or None)."""
    tracer = None
    if trace:
        untraced = run_passes(workload, seconds / 2)
        tracer = Tracer().install()
        try:
            traced = run_passes(workload, seconds / 2)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        metrics = select(per_layer_metrics(tracer, traced, untraced), spec["per_layer"])
    else:
        passes = run_passes(workload, seconds)
        metrics = select(end_to_end_metrics(passes, setup_samples), spec["end_to_end"])
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.rows) for p in passes)
    facts = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "items_per_pass": workload.items_per_pass,
        **latency_summary(passes, workload.items_per_pass),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "setup_samples_s": list(setup_samples),
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return result, facts, tracer


def git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "QFA_MAX_GROUP_BITS": os.environ.get("QFA_MAX_GROUP_BITS", "unset (default 24)"),
    }


def probe_setup(args) -> float:
    """Set-up time of a fresh process: imports plus input generation."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def parse_args(argv):
    ap = argparse.ArgumentParser(description="qfa benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        add_source_path()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}; run from the root of a qfa source checkout", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import workloads  # imports numpy and qfa

    workload = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    setup_samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    result, facts, tracer = measure(workload, args.seconds, bool(args.trace), load_spec(), setup_samples)
    prov = provenance(args)
    if tracer is not None:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(path, prov)
        facts["spans_file"] = str(path.relative_to(ROOT))
    for name, why in facts["failures"]:
        print(f"perfbench: FAILED {name}: {why}", file=sys.stderr)
    print(json.dumps({"provenance": prov, "run": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
