"""Self-test of the benchmark harness at tiny sizes (a few seconds):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.add_source_path()

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Item, ItemWorkload  # noqa: E402

SPEC = run.load_spec()


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(name, trace):
    wl = workloads.build(name, seed=1, tiny=True)
    result, facts, _ = run.measure(wl, seconds=0.0, trace=trace, spec=SPEC, setup_samples=[0.5])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == facts["passes"] * wl.items_per_pass
    assert facts["samples"] == result["attempted"] and facts["item_p50_ms"] > 0 and facts["item_tail_ms"] > 0
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_declared_check_metrics_match_the_catalogue():
    from qfa.suites import SUITES

    declared = {m["name"] for m in SPEC["per_layer"] if m["name"].startswith("suites.check.")}
    assert declared == {f"suites.check.{cid}.ms" for entries in SUITES.values() for cid, _, _ in entries}


def test_forced_failures_are_counted():
    wl = workloads.build("algebra", seed=1, tiny=True)

    def boom():
        raise RuntimeError("forced exception")

    items = wl.items + [Item("forced wrong answer", lambda: "forced"), Item("forced exception", boom)]
    result, facts, _ = run.measure(
        ItemWorkload("algebra", items), seconds=0.0, trace=False, spec=SPEC, setup_samples=[0.5]
    )
    assert not result["correct"]
    assert result["failed"] == 2 * facts["passes"]
    assert facts["failed_frac"] == result["failed"] / result["attempted"]
    assert {name for name, _ in facts["failures"]} == {"forced wrong answer", "forced exception"}


def test_tracer_rebinds_names_imported_into_other_modules():
    import qfa.core
    import qfa.uniformity

    spec = qfa.core.GroupSpec(3, 2)
    f = np.arange(spec.order, dtype=float)
    tracer = Tracer().install()
    try:
        qfa.uniformity.u2_norm_fourier(f, spec)  # calls `dft`, imported by name
    finally:
        tracer.uninstall()
    assert tracer.stats["core.dft"].calls == 1
    outer = tracer.stats["uniformity.u2_norm_fourier"]
    assert outer.calls == 1 and 0 <= outer.self_s <= outer.total_s
    assert not hasattr(qfa.uniformity.dft, "__wrapped__")
    assert not hasattr(qfa.core.GroupSpec.add_perm, "__wrapped__")


def test_tail_level_leaves_ten_items_beyond():
    beyond, pct = harness.tail_level(31)
    assert beyond == 10 and pct == pytest.approx(100.0 * 21 / 31)
    rows = [(f"i{k}", k / 1000.0, None) for k in range(31)]
    lat = harness.latency_summary([harness.Pass(1.0, rows), harness.Pass(1.0, rows)], 31)
    assert lat["samples"] == 62
    assert 19.0 < lat["item_tail_ms"] < 21.0  # about 20 of the 62 samples lie beyond it
    assert lat["item_p50_ms"] == pytest.approx(15.0)


def test_hd_quantile_matches_the_sample_quantile_on_a_uniform_grid():
    x = np.arange(1, 1002, dtype=float)[::-1]
    assert harness.hd_quantile(x, 0.5) == pytest.approx(501.0)
    assert harness.hd_quantile(x, 0.9) == pytest.approx(900.9, abs=0.5)
    assert harness.hd_quantile(np.full(7, 3.0), 0.5) == pytest.approx(3.0)


def test_loading_the_harness_leaves_numpy_and_qfa_to_the_timed_set_up():
    probe = "import sys; sys.path.insert(0, 'perfbench'); import run; print('numpy' in sys.modules, 'qfa' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], cwd=HERE.parent, capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["False", "False"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
