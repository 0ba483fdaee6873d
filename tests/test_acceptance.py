"""Acceptance gate: every criterion below runs at its stated tolerance via
the named check in the suite catalogue, printing one pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` for the per-criterion lines, or
`qfa verify --suite all` for the same catalogue from the CLI.
"""

import pytest

from qfa.suites import SUITES, run_suite

CRITERIA = [
    # (criterion, suite, check id)
    ("1a shattered-triple-in-layered-set", "gs", "gs-shattered-triple"),
    ("1b vc-dimension-exactly-3", "gs", "gs-vc-dimension"),
    ("1c nine-vector-staircase-witness", "gs", "gs-3hop2-witness"),
    ("1d no-depth-4-staircase-exhaustive", "gs", "gs-no-4hop2"),
    ("1e zero-coset-density-interval", "gs", "gs-zero-coset-density"),
    ("1f translate-intersection-identities", "gs", "gs-translate-intersections"),
    ("2a quadric-cube-completion", "quadric", "quadric-cap2"),
    ("2b quadric-no-2-functional-order", "quadric", "quadric-no-2fop2"),
    ("2c quadric-grid-dimension", "quadric", "quadric-vc2"),
    ("2d quadric-size", "quadric", "quadric-size"),
    ("3a quadratic-layered-density", "qgs", "qgs-density"),
    ("3b staircase-good-copy", "qgs", "qgs-good-copy"),
    ("3c linear-error-atomicity-fails", "qgs", "qgs-aqale-fails"),
    ("4a gauss-sum-rank-bound", "uniformity", "gauss-bound"),
    ("4b u2-fourth-moment-identity", "uniformity", "u2-fourier-identity"),
    ("4c u3-quadratic-phase", "uniformity", "u3-phase-norm"),
    ("4d beta-graph-quasirandomness", "uniformity", "beta-graph-dev2"),
    ("4e density-transfer-decay", "uniformity", "density-transfer"),
    ("4f contraction-oracle-equality", "uniformity", "contraction-oracles"),
    ("4g triad-sum-membership", "uniformity", "triad-sum-membership"),
    ("5 closure-transforms-revalidate", "closure", "closure-transforms"),
    ("6a rank-repair-invariants", "uniformity", "factor-repair"),
    ("6b pullback-partition-equality", "uniformity", "factor-pullback"),
    ("6c atom-size-envelope", "uniformity", "atom-size-envelope"),
    ("7a stable-input-exact-recovery", "regularize", "stable-coset-input"),
    ("7b uniform-coset-postconditions", "regularize", "uniform-coset-postconditions"),
    ("7c layered-set-error-decay", "regularize", "gs-regularization"),
    ("7d chains-pass-conditions", "regularize", "chain-validity"),
    ("8a sparse-span-bound", "appendix", "sparse-span-bound"),
    ("8b affine-embedding-cases", "appendix", "affine-embeddings"),
    ("8c tree-count-dp-vs-naive", "appendix", "tree-count-oracle"),
]


@pytest.fixture(scope="module")
def suite_results():
    names = sorted({suite for _, suite, _ in CRITERIA})
    return {name: run_suite(name) for name in names}


@pytest.mark.parametrize("criterion,suite,check_id", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(criterion, suite, check_id, suite_results):
    result = suite_results[suite]
    row = next(c for c in result.checks if c["id"] == check_id)
    line = f"{row['status']:4s}  {criterion}"
    if row["measured"] is not None and row["bound"] is not None:
        line += f"  (measured {row['measured']:.6g}, bound {row['bound']:.6g})"
    if row.get("note"):
        line += f"  [{row['note']}]"
    print(line)
    assert row["status"] == "PASS", line


@pytest.mark.slow
def test_every_row_passes_at_seeds_0_to_39():
    # a check that passes at the default seed but not at another would first
    # show in a benchmark run, which draws its own seeds
    failed = [
        (seed, row["id"], row["status"], row["note"])
        for seed in range(40)
        for name in SUITES
        for row in run_suite(name, {"seed": seed}).checks
        if row["status"] != "PASS"
    ]
    assert not failed
