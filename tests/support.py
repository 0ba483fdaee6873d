"""Oracles, fixtures and checks that only the tests use.

pytest does not collect this module (its name does not start with test_);
the test modules import it by name.
"""

import ctypes
import itertools
import math
from pathlib import Path

import numpy as np

from qfa.core import CapacityError, GroupSpec, GroupSubset, _canonical_lines, dft, matrix_rank
from qfa.detectors import Witness, _bitset, _check_witness, _good_copy_columns, _tree_keys
from qfa.factors import AtomicityVerdict, LinearFactor, QuadraticFactor, _refines, label_index_table
from qfa.uniformity import (
    MeasureReport,
    TriadDescriptor,
    dev2_measure,
    dev23_measure,
    triad_graphs,
    triangle_tensor,
)


def bundled_openblas():
    """The OpenBLAS library that numpy wheels bundle in numpy.libs, through
    ctypes, when it exports scipy_openblas_set_num_threads64_; else None
    (numpy built against another BLAS).  Loading it again returns the
    instance numpy already holds, so a thread count set here is numpy's."""
    for path in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("libscipy_openblas64_-*.so")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


def form_value(M, x, y, p: int) -> int:
    """x^T M y mod p on Python ints, entry by entry: exact at every p."""
    return sum(int(a) * int(m) * int(b) for a, row in zip(x, M) for m, b in zip(row, y)) % p


def gowers_inner(fs, spec: GroupSpec) -> complex:
    """Gowers inner product of eight functions indexed by {0,1}^3 in the
    order (000, 100, 010, 001, 110, 101, 011, 111)."""
    if len(fs) != 8:
        raise ValueError("need eight functions")
    key = {
        (0, 0, 0): 0, (1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3,
        (1, 1, 0): 4, (1, 0, 1): 5, (0, 1, 1): 6, (1, 1, 1): 7,
    }
    f = [np.asarray(t, dtype=complex) for t in fs]
    N = spec.order
    total = 0.0 + 0.0j
    for c in range(N):
        perm = spec.add_perm(c)
        h = [f[key[(e1, e2, 0)]] * np.conj(f[key[(e1, e2, 1)]][perm]) for e1 in (0, 1) for e2 in (0, 1)]
        h00, h01, h10, h11 = dft(np.stack(h), spec)
        total += (h00 * np.conj(h10) * np.conj(h01) * h11).sum()
    return complex(total / N)


def triangle_count(e12, e13, e23) -> int:
    return int((e13.astype(np.int64) @ e23.T.astype(np.int64) * e12).sum())


def hom_count_check(parts, graphs, expected_edge_density, tolerance: float) -> MeasureReport:
    """Compare the measured triangle count across three bipartite graphs
    against the product prediction density^3 * |U||V||W|."""
    e12, e13, e23 = graphs
    sizes = [len(t) for t in parts]
    count = triangle_count(e12, e13, e23)
    prediction = expected_edge_density**3 * sizes[0] * sizes[1] * sizes[2]
    ratio = count / prediction if prediction else 0.0
    return MeasureReport(
        "triangle-count-ratio",
        abs(ratio - 1.0),
        tolerance,
        f"|count/({expected_edge_density}^3 * product) - 1| <= {tolerance}",
        extras={"count": count, "prediction": prediction},
    )


def hypergraph_decomposition_check(
    A: GroupSubset,
    factor,
    eps1: float,
    eps2_fn=None,
    max_triads: int = 64,
    seed: int = 0xF0F2,
    max_part: int = 256,
) -> MeasureReport:
    """Estimate the triple-weighted fraction of triads failing the relative
    quasirandomness test at (eps1, eps2(#edge classes)).

    The vertex classes are the atoms, the edge classes the bilinear-form
    graphs; triads are sampled deterministically when the full label space is
    too large.
    """
    spec = A.spec
    ell, q = factor.ell, factor.q
    n_classes = spec.p**q
    eps2 = eps2_fn(n_classes) if eps2_fn else eps1
    total_flat = spec.p ** (3 * ell + 6 * q)
    rng = np.random.default_rng(seed)
    if total_flat <= max_triads:
        flats = [np.array(_digits_of(i, spec.p, 3 * ell + 6 * q)) for i in range(total_flat)]
    else:
        flats = [rng.integers(0, spec.p, size=3 * ell + 6 * q) for _ in range(max_triads)]
    pass_weight = 0
    total_weight = 0
    for flat in flats:
        d = TriadDescriptor.from_flat(factor, flat)
        res = dev23_measure(A, d, max_part=max_part)
        atoms, graphs = triad_graphs(d)
        tri = triangle_tensor(*graphs)
        weight = int(tri.sum())
        total_weight += weight
        ok = res.eps1 <= eps1 and all(
            dev2_measure(g)[0] <= eps2 for g in graphs
        ) and res.d2_max_dev <= eps2
        if ok:
            pass_weight += weight
    frac_fail = 1.0 - (pass_weight / total_weight if total_weight else 1.0)
    return MeasureReport(
        "decomposition-irregular-fraction",
        frac_fail,
        eps1,
        f"failing-triple fraction <= {eps1}",
        extras={"sampled": len(flats), "total_weight": total_weight},
    )


def _digits_of(i: int, p: int, width: int):
    out = []
    for _ in range(width):
        out.append(i % p)
        i //= p
    return out


def plant_tree_encoding(spec: GroupSpec, d: int, seed: int = 0, max_tries: int = 20000) -> tuple:
    """Build a tree-pattern witness on fresh elements, with A defined as
    exactly the sums the branches require.  Returns (subset, witness).

    Elements are redrawn until the required and forbidden sums are disjoint;
    the group should be large compared to the square of the number of
    branch constraints (about d * 2^d) for this to finish quickly."""
    sigmas, etas = _tree_keys(d)
    for attempt in range(max_tries):
        rng = np.random.default_rng(seed + attempt)
        nodes = {s: rng.integers(0, spec.p, size=spec.n) for s in sigmas}
        leaves = {e: rng.integers(0, spec.p, size=spec.n) for e in etas}
        required, forbidden = set(), set()
        for s, h in nodes.items():
            for e, g in leaves.items():
                if len(s) < len(e) and e[: len(s)] == s:
                    idx = spec.index_of((np.asarray(h) + np.asarray(g)) % spec.p)
                    (required if e[len(s)] == 1 else forbidden).add(idx)
        if required & forbidden:
            continue
        A = GroupSubset.from_indices(spec, required)
        w = Witness("TREE", A, {"leaves": leaves, "nodes": nodes, "d": d})
        _check_witness(w)
        return A, w
    raise RuntimeError(
        f"could not plant a depth-{d} encoding without sum collisions in "
        f"a group of order {spec.order}"
    )


def count_good_copies_H(red, k: int, side=None) -> int:
    """Exact count of good copies of the k-staircase with right side in
    `side` (product formula over realizer columns per left tuple)."""
    side = _bitset(red.H_B if side is None else np.asarray(side, dtype=bool))
    cols = _good_copy_columns(red)
    total = 0
    for left in itertools.product(range(red.label_spec.order), repeat=k):
        prod = 1
        for j in range(k):
            m = side
            for i, a in enumerate(left):
                m &= cols[a][i <= j]
            prod *= m.bit_count()
            if prod == 0:
                break
        total += prod
    return total


def atomicity_check(partition, A: GroupSubset, eps: float) -> AtomicityVerdict:
    """Exact per-cell densities for a factor or a precomputed label table."""
    table = partition if isinstance(partition, np.ndarray) else label_index_table(partition)
    return AtomicityVerdict(A, table, eps)


def refinement_stability_check(coarse, fine, A: GroupSubset, eps: float, mu: float) -> bool:
    """Average-of-averages stability: a near-equipartition refinement of an
    almost eps-atomic partition is almost 2*sqrt(eps)-atomic.  Verifies the
    implication on exact densities; raises if the preconditions fail."""
    t_coarse = coarse if isinstance(coarse, np.ndarray) else label_index_table(coarse)
    t_fine = fine if isinstance(fine, np.ndarray) else label_index_table(fine)
    if not _refines(t_fine, t_coarse):
        raise ValueError("fine partition does not refine the coarse one")
    for table in (t_coarse, t_fine):
        sizes = np.bincount(table)
        sizes = sizes[sizes > 0]
        if sizes.size and (sizes.max() - sizes.min()) > mu * table.size / sizes.size:
            raise ValueError("parts are not near-equal within the mu condition")
    v_coarse = AtomicityVerdict(A, t_coarse, eps)
    target = 2 * math.sqrt(eps)
    v_fine = AtomicityVerdict(A, t_fine, target)
    # delta-almost eps-atomic: the error cells have measure at most delta |G|
    return v_coarse.error_mass > eps * v_coarse.total or v_fine.error_mass <= target * v_fine.total


def brute_quad_atomize(A: GroupSubset, eps: float, max_complexity: int = 5, max_q: int = 2):
    """Exhaustive search for an eps-atomic quadratic factor of minimal total
    complexity (n <= 3, q <= 2); matrices are canonicalized up to scalar and
    quadratic pairs up to their span.  Returns the factor or None."""
    spec = A.spec
    if spec.n > 3:
        raise CapacityError("brute-force atomizer limited to n <= 3")
    p, n = spec.p, spec.n
    sym_dim = n * (n + 1) // 2
    mats = []
    for code in range(p**sym_dim):
        c = code
        M = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i, n):
                M[i, j] = M[j, i] = c % p
                c //= p
        if M.any():
            mats.append(M)
    mat_lines = _canonical_lines(
        (M[np.triu_indices(n)] for M in mats), p
    )

    def mat_from_flat(flat):
        M = np.zeros((n, n), dtype=np.int64)
        iu = np.triu_indices(n)
        M[iu] = flat
        M[(iu[1], iu[0])] = flat
        return M

    line_mats = [mat_from_flat(v) for v in mat_lines]
    dual_lines = _canonical_lines(spec.digits.astype(np.int64), p)

    def linear_parts(ell):
        if ell == 0:
            yield []
            return
        for combo in itertools.combinations(range(len(dual_lines)), ell):
            vecs = [dual_lines[i] for i in combo]
            if matrix_rank(np.stack(vecs), p) == ell:
                yield vecs

    def quad_parts(q):
        if q == 0:
            yield []
            return
        if q == 1:
            for M in line_mats:
                yield [M]
            return
        for i, j in itertools.combinations(range(len(line_mats)), 2):
            span_ok = True
            flat_i, flat_j = mat_lines[i], mat_lines[j]
            # skip pairs whose span was already seen via a smaller pair
            for lam in range(1, p):
                combo = (flat_i * lam + flat_j) % p
                lead = np.nonzero(combo)[0]
                if lead.size:
                    inv = pow(int(combo[lead[0]]), p - 2, p)
                    canon = tuple((combo * inv) % p)
                    if canon < tuple(flat_i):
                        span_ok = False
                        break
            if span_ok:
                yield [line_mats[i], line_mats[j]]

    for total in range(0, max_complexity + 1):
        for q in range(0, min(max_q, total) + 1):
            ell = total - q
            if ell > n:
                continue
            for mats_choice in quad_parts(q):
                for vecs in linear_parts(ell):
                    B = QuadraticFactor(spec, LinearFactor(spec, list(vecs)), mats_choice)
                    verdict = atomicity_check(B, A, eps)
                    if verdict.error_count == 0:
                        return B
    return None


# Factor files that read_factor must reject: (text, line named, message).
MALFORMED_FACTOR_FILES = [
    ("3 2 1 0\n10\n21\n22\nhello world\n", 3, "line after the rows"),
    ("3 2 1 1\n10\n10\n00\n01\n11\n", 6, "line after the rows"),
    ("3 2 1 0\n57\n", 2, "digit out of range for base 3"),
    ("3 2 1 0\n-1 2\n", 2, "expected 2 base-3 digits"),
    ("3 2 1 0\nab\n", 2, "expected 2 base-3 digits"),
    ("3 2 x 0\n10\n", 1, "expected header"),
]
