"""The benchmark's workloads.  `build(name, seed)` draws every input from the
seed (this is part of set-up) and returns an object whose `run_pass()` runs
each item once and checks its output.

- catalogue: every check of `qfa verify --suite all`, in process, one thread.
  Mostly large-N translation, FFT and contraction work.
- search: the six detectors on seed-drawn subsets of fixed sizes at p = 3
  (n = 2..4) and p = 5 (n = 2, 3), plus five fixed exhaustive cases.  Many
  tiny-N calls, so per-call overhead of the DFS, mask and translation code
  dominates; no FFT or elimination.
- algebra: exact F_p elimination, factor repair and pullback, and the stable
  linear decomposition engine on planted unions of cosets.  No search, no FFT.

Library functions are looked up on their modules at call time, so a tracer
installed after set-up sees every call.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qfa import constructions as cons
from qfa import core
from qfa import detectors as det
from qfa import factors as fac
from qfa import regularize as reg
from qfa import suites

from harness import time_items


class Item:
    """One unit of work.  `run()` returns None when the output checks out,
    otherwise the reason it does not."""

    __slots__ = ("name", "run")

    def __init__(self, name: str, run):
        self.name = name
        self.run = run


class ItemWorkload:
    def __init__(self, name: str, items: list[Item]):
        self.name = name
        self.items = items
        self.items_per_pass = len(items)

    def run_pass(self) -> list:
        return time_items(self.items)


# --- catalogue ---


class Catalogue:
    """Every suite in `qfa verify --suite all` order; an item is one check
    and its latency is the check's own `runtime_ms`."""

    name = "catalogue"

    def __init__(self, seed: int, suite_names):
        self.params = {"seed": seed}
        self.suite_names = list(suite_names)
        self.items_per_pass = sum(len(suites.SUITES[s]) for s in self.suite_names)

    def run_pass(self) -> list:
        rows = []
        for name in self.suite_names:
            result = suites.run_suite(name, dict(self.params), jobs=1)
            for c in result.checks:
                why = None if c["status"] == "PASS" else f"{c['status']}: {c['note']}"
                rows.append((c["id"], c["runtime_ms"] / 1000.0, why))
        return rows


# --- search ---

SEARCH_CELLS = ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3))
SEARCH_DENSITIES = (1 / 3, 1 / 2, 2 / 3)
SUBSETS_PER_DENSITY = 8


def _detect_failure(res) -> str | None:
    if res.status == det.BOUND_ONLY:
        return "bound-only"
    if res.status == det.FOUND and not res.witness.revalidate():
        return "witness does not revalidate"
    return None


def _dim_failure(k, w, status) -> str | None:
    """Checks a (k, witness, status) result of vc_dim / vc2_dim."""
    if status == det.BOUND_ONLY:
        return "bound-only"
    if k > 0 and (w is None or w.k != k or not w.revalidate()):
        return f"no revalidating witness for k={k}"
    return None


def _subset_items(A: core.GroupSubset, label: str) -> list[Item]:
    """Nine detector calls on one subset.  Later items also check that
    verdicts are monotone in k and agree with the witness transforms
    (HOP2 -> OP, FOP2 -> VC, VC2 -> FOP2) against earlier items' verdicts."""
    seen = {}

    def implies(key, want=True):
        # an absent key means the earlier item failed and was counted already
        return seen.get(key, want) == want

    def op(k):
        res = det.find_op(A, k)
        seen[f"op{k}"] = res.status == det.FOUND
        why = _detect_failure(res)
        if why is None and k == 3 and seen["op3"] and not implies("op2"):
            why = "order property found at k=3 but not at k=2"
        return why

    def hop2(k):
        res = det.find_hop2(A, k)
        seen[f"hop{k}"] = res.status == det.FOUND
        why = _detect_failure(res)
        if why is None and k == 2 and seen["hop2"]:
            if not implies("hop1"):
                why = "HOP2 found at k=2 but not at k=1"
            elif not implies("op2"):
                why = "2-HOP2 witness exists but no 2-OP witness"
        return why

    def fop2(k):
        res = det.find_fop2(A, k)
        seen[f"fop{k}"] = res.status == det.FOUND
        why = _detect_failure(res)
        if why is None and k == 2 and seen["fop2"] and not implies("fop1"):
            why = "FOP2 found at k=2 but not at k=1"
        return why

    def vc():
        k, w, status = det.vc_dim(A, 3)
        why = _dim_failure(k, w, status)
        if why is None and k < 2 and seen.get("fop2"):
            why = "2-FOP2 witness exists but VC dimension < 2"
        return why

    def vc2():
        k, w, status = det.vc2_dim(A, 2)
        why = _dim_failure(k, w, status)
        if why is None and k >= 2 and not implies("fop2"):
            why = "VC2 dimension 2 but no 2-FOP2 witness"
        return why

    def cap2():
        ok, cube, status = det.cap2_check(A)
        if status == det.BOUND_ONLY:
            return "bound-only"
        if ok != (cube is None):
            return "verdict disagrees with the witness"
        if cube is not None and not cube.revalidate():
            return "cube witness does not revalidate"
        return None

    calls = [
        ("find_op k=2", lambda: op(2)),
        ("find_op k=3", lambda: op(3)),
        ("find_hop2 k=1", lambda: hop2(1)),
        ("find_hop2 k=2", lambda: hop2(2)),
        ("find_fop2 k=1", lambda: fop2(1)),
        ("find_fop2 k=2", lambda: fop2(2)),
        ("vc_dim kmax=3", vc),
        ("vc2_dim kmax=2", vc2),
        ("cap2_check", cap2),
    ]
    return [Item(f"{name} {label}", fn) for name, fn in calls]


def _fixed_search_items() -> list[Item]:
    """Exhaustive cases with known verdicts (and node counts where the
    result carries them)."""
    gs33, gs43 = cons.gs(3, 3), cons.gs(4, 3)
    q33, q43 = cons.quadric(3, 3), cons.quadric(4, 3)

    def exhaustive_none(res, nodes):
        if res.status != det.NONE or res.nodes != nodes:
            return f"expected none after {nodes} nodes, got {res.status} after {res.nodes}"
        return None

    def dim_is(result, want):
        k, _, status = result
        if status != det.FOUND or k != want:
            return f"expected {want}, got {k} ({status})"
        return _dim_failure(*result)

    def cap2_holds():
        ok, cube, status = det.cap2_check(q43)
        return None if (ok, cube, status) == (True, None, det.FOUND) else f"got {ok}, {status}"

    return [
        Item("fixed find_hop2(gs(3,3),4)", lambda: exhaustive_none(det.find_hop2(gs33, 4), 13785)),
        Item("fixed find_fop2(quadric(3,3),2)", lambda: exhaustive_none(det.find_fop2(q33, 2), 729)),
        Item("fixed cap2_check(quadric(4,3))", cap2_holds),
        Item("fixed vc_dim(gs(4,3),4)", lambda: dim_is(det.vc_dim(gs43, 4), 3)),
        Item("fixed vc2_dim(quadric(4,3),2)", lambda: dim_is(det.vc2_dim(q43, 2), 1)),
    ]


def search_items(seed: int, cells=SEARCH_CELLS, per_density=SUBSETS_PER_DENSITY, fixed=True) -> list[Item]:
    """Subsets have exactly round(density * |G|) members, so every draw costs
    about the same; the expensive exhaustive searches are the fixed cases."""
    rng = np.random.default_rng(seed)
    items = []
    for p, n in cells:
        spec = core.GroupSpec(p, n)
        for density in SEARCH_DENSITIES:
            size = round(density * spec.order)
            for r in range(per_density):
                ind = np.zeros(spec.order, dtype=bool)
                ind[rng.permutation(spec.order)[:size]] = True
                label = f"p={p} n={n} |A|={size} #{r}"
                items.extend(_subset_items(core.GroupSubset(spec, ind), label))
    if fixed:
        items.extend(_fixed_search_items())
    return items


# --- algebra ---

TRACE_CASES = ((3, 5), (3, 6), (3, 7), (3, 8), (5, 4), (5, 5))
RANK_TASKS = 400
FACTOR_TASKS = 100
DECOMPOSITION_CASES = tuple(itertools.product((8, 9), (1, 2, 3)))
DECOMPOSITIONS_PER_CASE = 4


def _trace_item(rng, p: int, n: int) -> Item:
    # nonzero combinations to re-check independently of the built-in validation
    lams = [lam for lam in rng.integers(0, p, size=(5, n)) if lam.any()]

    def run():
        mats = cons.trace_sym_space(n, p)
        if len(mats) != n or any(not np.array_equal(M, M.T) for M in mats):
            return "not n symmetric matrices"
        for lam in lams:
            combo = np.tensordot(lam, np.stack(mats), axes=1) % p
            if core.matrix_rank(combo, p) != n:
                return f"combination {lam.tolist()} is singular"
        return None

    return Item(f"trace_sym_space n={n} p={p}", run)


def _rank_item(rng, i: int) -> Item:
    """A matrix of planted rank <= r; rank + nullity = n, the nullspace rows
    are independent and annihilated."""
    p = int(rng.choice((3, 5)))
    n = int(rng.integers(3, 9))
    m = int(rng.integers(1, n + 3))
    r = int(rng.integers(1, min(m, n) + 1))
    M = (rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, n))) % p

    def run():
        rank = core.matrix_rank(M, p)
        null = core.nullspace_basis(list(M), p, n)
        if rank > r or rank + len(null) != n:
            return f"rank {rank} + nullity {len(null)} != {n} (planted rank <= {r})"
        if len(null) and ((M @ null.T) % p).any():
            return "nullspace row not annihilated"
        if len(null) and core.matrix_rank(null, p) != len(null):
            return "nullspace basis is dependent"
        return None

    return Item(f"rank+nullspace #{i} p={p} {m}x{n}", run)


def _factor_item(rng, i: int) -> Item:
    """factor_rank, make_high_rank (refines and meets the target) and a
    verified pullback of a random linear factor on the label space."""
    p, n = ((3, 5), (5, 4))[i % 2]
    spec = core.GroupSpec(p, n)
    nl, nq = int(rng.integers(0, 3)), int(rng.integers(1, 3))
    mats = [(lambda m: (m + m.T) % p)(rng.integers(0, p, size=(n, n))) for _ in range(nq)]
    B = fac.QuadraticFactor(spec, [rng.integers(0, p, size=n) for _ in range(nl)], mats)
    label_spec = core.GroupSpec(p, nl + nq)
    R = fac.LinearFactor(label_spec, [rng.integers(0, p, size=nl + nq) for _ in range(int(rng.integers(1, 3)))])

    def run():
        fac.factor_rank(B)
        target = fac.RankFunction("x")
        out = fac.make_high_rank(B, target, 10)
        if not fac.refines(out, B):
            return "repaired factor does not refine the input"
        rank = fac.factor_rank(out)
        if not (rank == math.inf or rank >= target(out.linear.complexity + out.q)):
            return f"repaired rank {rank} below target"
        fac.pullback_factor(B, R, verify=True)  # raises unless the partitions agree
        return None

    return Item(f"factor #{i} p={p} n={n} ({nl},{nq})", run)


def _decomposition_item(rng, n: int, codim: int, i: int) -> Item:
    """A union of cosets of a random codim-`codim` subgroup; the engine must
    recover it exactly (no error cell, codim at most the planted one), and its
    factor chain must pass every condition."""
    p = 3
    spec = core.GroupSpec(p, n)
    while True:
        duals = rng.integers(0, p, size=(codim, n))
        if core.matrix_rank(duals, p) == codim:
            break
    L0 = fac.LinearFactor(spec, list(duals))
    # density well inside (eps, 1 - eps), so that codim 0 is not already atomic
    while True:
        reps = rng.integers(0, p, size=(int(rng.integers(1, p**codim)), n))
        A = cons.union_of_cosets(L0, list(reps))
        if 0.2 <= A.density() <= 0.8:
            break

    def run():
        res = reg.stable_linear_decomposition(A, eps=0.1, max_codim=4)
        errors, got = res["verdict"].error_count, res["H"].codim
        if errors != 0 or got > codim:
            return f"{errors} error cells at codim {got} (planted {codim})"
        chk = reg.factor_chain_check(res["chain"], A)
        if not all(chk.values()):
            return f"chain conditions failed: {chk}"
        return None

    return Item(f"stable_linear_decomposition n={n} codim={codim} #{i}", run)


def algebra_items(seed: int, trace_cases=TRACE_CASES, rank_tasks=RANK_TASKS,
                  factor_tasks=FACTOR_TASKS, decompositions=DECOMPOSITION_CASES,
                  per_case=DECOMPOSITIONS_PER_CASE) -> list[Item]:
    rng = np.random.default_rng(seed)
    items = [_trace_item(rng, p, n) for p, n in trace_cases]
    items += [_rank_item(rng, i) for i in range(rank_tasks)]
    items += [_factor_item(rng, i) for i in range(factor_tasks)]
    items += [_decomposition_item(rng, n, c, i) for n, c in decompositions for i in range(per_case)]
    return items


# --- entry point ---


def build(name: str, seed: int, tiny: bool = False):
    """The named workload at full size, or at a size small enough for the
    harness self-test when `tiny`."""
    if name == "catalogue":
        return Catalogue(seed, ["quadric"] if tiny else sorted(suites.SUITES))
    if name == "search":
        if tiny:
            return ItemWorkload(name, search_items(seed, cells=((3, 2),), per_density=1, fixed=False))
        return ItemWorkload(name, search_items(seed))
    if name == "algebra":
        if tiny:
            return ItemWorkload(name, algebra_items(
                seed, trace_cases=((3, 3),), rank_tasks=4, factor_tasks=2,
                decompositions=((4, 1),), per_case=1))
        return ItemWorkload(name, algebra_items(seed))
    raise ValueError(f"unknown workload {name!r}")
