"""The verification harness: named check suites over the canonical examples,
with JSON/text reporting.

Each suite is a fixed catalogue of checks; a run executes every check (never
aborting early), collects measured values against their bounds, and reports
PASS/FAIL/ERROR per check plus an overall verdict.  Reports carry the run
configuration so a rerun reproduces the statuses.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import constructions as cons
from . import detectors as det
from . import regularize as reg
from . import uniformity as unif
from .core import GroupSpec, GroupSubset, _canonical_lines, dft, gauss_sum, ranks
from .factors import (
    AtomLabel,
    LinearFactor,
    QuadraticFactor,
    RankFunction,
    atom_members,
    atom_sizes,
    cell_counts,
    factor_rank,
    label_index_table,
    make_high_rank,
    pullback_factor,
    refines,
)

DEFAULT_SEED = 0xF0F2


class CheckResult:
    def __init__(self, status, measured=None, bound=None, witness=None, note=""):
        self.status = status
        self.measured = measured
        self.bound = bound
        self.witness = witness
        self.note = note


def _ok(cond, measured=None, bound=None, witness=None, note=""):
    return CheckResult("PASS" if cond else "FAIL", measured, bound, witness, note)


class SuiteResult:
    def __init__(self, suite: str, config: dict):
        self.suite = suite
        self.config = config
        self.checks = []

    def add(self, check_id, anchor, result: CheckResult, runtime_ms: float):
        self.checks.append(
            {
                "id": check_id,
                "anchor": anchor,
                "status": result.status,
                "measured": result.measured,
                "bound": result.bound,
                "witness": result.witness,
                "runtime_ms": round(runtime_ms, 2),
                "note": result.note,
            }
        )

    @property
    def verdict(self) -> str:
        return "PASS" if all(c["status"] == "PASS" for c in self.checks) else "FAIL"

    def to_jsonable(self) -> dict:
        return {
            "suite": self.suite,
            "checks": self.checks,
            "verdict": self.verdict,
            "config": self.config,
        }


def emit_report(result: SuiteResult, fmt: str = "json") -> bytes:
    if fmt == "json":
        return (json.dumps(result.to_jsonable(), indent=2, default=_json_default) + "\n").encode()
    if fmt == "text":
        lines = [f"suite {result.suite}  [{result.verdict}]"]
        header = f"{'check':<28} {'status':<7} {'measured':>12} {'bound':>12} {'ms':>8}"
        lines.append(header)
        lines.append("-" * len(header))
        for c in result.checks:
            meas = "-" if c["measured"] is None else f"{c['measured']:.6g}"
            bound = "-" if c["bound"] is None else f"{c['bound']:.6g}"
            lines.append(
                f"{c['id']:<28} {c['status']:<7} {meas:>12} {bound:>12} {c['runtime_ms']:>8.1f}"
            )
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")


def _json_default(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, frozenset):
        return sorted(v)
    return str(v)


# --- suite: gs ---


def _check_gs_shatter(params):
    A = cons.gs(3, 3)
    sp = A.spec
    Z = [np.array([0, 0, 0]), np.array([0, 1, 2]), np.array([0, 2, 1])]
    translates = ["011", "020", "000", "010", "001", "022", "100", "200"]
    subsets = set()
    for t in translates:
        e = np.array([int(c) for c in t])
        got = frozenset(
            i for i, z in enumerate(Z) if A.contains_index(sp.index_of((z + e) % 3))
        )
        subsets.add(got)
    return _ok(len(subsets) == 8, measured=len(subsets), bound=8)


def _check_gs_vc(params):
    k3, w3, st3 = det.vc_dim(cons.gs(3, 3), 4)
    k4, w4, st4 = det.vc_dim(cons.gs(4, 3), 4)
    ok = k3 == 3 and k4 == 3 and st3 == det.FOUND and st4 == det.FOUND
    return _ok(ok, measured=float(max(k3, k4)), bound=3.0)


def _check_gs_hop2_witness(params):
    A = cons.gs(4, 3)

    def vec(s):
        return np.array([int(c) for c in s])

    w = det.Witness(
        "HOP2",
        A,
        {
            "x": [vec("2220"), vec("2210"), vec("2120")],
            "y": [vec("2220"), vec("2200"), vec("0220")],
            "z": [vec("2221"), vec("2011"), vec("2021")],
        },
        k=3,
    )
    return _ok(w.revalidate(), witness=w.to_jsonable())


def _check_gs_no4hop2(params):
    for n in (2, 3):
        res = det.find_hop2(cons.gs(n, 3), 4, det.SearchBudget(node_limit=200_000_000))
        if res.status != det.NONE:
            return _ok(False, note=f"n={n}: {res.status}")
    return _ok(True)


def _check_gs_zero_coset(params):
    A = cons.gs(6, 3)
    sp = A.spec
    digits = sp.digits.astype(np.int64)
    lines = _canonical_lines(digits, sp.p)
    P = (digits @ np.stack(lines).T) % 3
    lo, hi = 1 / 3, 2 / 3
    if not lo <= A.density() <= hi:  # the complexity-0 factor: L(0) = G
        return _ok(False, measured=A.density(), note="trivial factor")
    Z = (P == 0).astype(np.float64)  # counts are integers <= 729: exact in float64
    ind = A.indicator.astype(np.float64)
    i, j = np.triu_indices(len(lines), 1)  # row-major: the combinations order
    line_d = ind @ Z / Z.sum(axis=0)
    plane_d = ((Z.T * ind) @ Z / (Z.T @ Z))[i, j]
    for d, name in ((line_d, lambda t: f"line {t}"), (plane_d, lambda t: f"plane {i[t]},{j[t]}")):
        bad = np.flatnonzero((d < lo) | (d > hi))
        if bad.size:
            return _ok(False, measured=float(d[bad[0]]), note=name(bad[0]))
    return _ok(True, measured=0.5, bound=hi)


def _check_gs_intersections(params):
    rng = np.random.default_rng(params.get("seed", DEFAULT_SEED))
    n, p = 3, 3
    done = 0
    while done < 500:
        b = rng.integers(0, p, size=n)
        c = rng.integers(0, p, size=n)
        if np.array_equal(b, c):
            continue
        res = cons.verify_gs_intersection(b, c, n, p)
        cases = [v[0] for v in res.values()]
        if not all(v[1] for v in res.values()) or any(cc is None for cc in cases):
            return _ok(False, note=f"b={b.tolist()} c={c.tolist()} {res}")
        done += 1
    return _ok(True, measured=500, bound=500)


# --- suite: quadric ---


def _check_quadric_cap2(params):
    for n in (1, 2, 3):
        Q = cons.quadric(n, 3)
        ok, cube, st = det.cap2_check(Q)
        res = det.find_hop2(Q, 2)
        if not ok or st != det.FOUND or res.status != det.NONE:
            return _ok(False, note=f"n={n}")
    return _ok(True)


def _check_quadric_fop2(params):
    res = det.find_fop2(cons.quadric(2, 3), 2)
    return _ok(res.status == det.NONE, note=res.status)


def _check_quadric_vc2(params):
    for n in (2, 3):
        k, w, st = det.vc2_dim(cons.quadric(n, 3), 2)
        if st != det.FOUND or k > 1:
            return _ok(False, measured=float(k), bound=1.0, note=f"n={n}")
    return _ok(True, measured=1.0, bound=1.0)


def _check_quadric_size(params):
    size = len(cons.quadric(3, 3))
    return _ok(size == 9, measured=float(size), bound=9.0)


# --- suite: qgs ---


def _check_qgs_density(params):
    A, _ = cons.qgs(8, 3)
    d = A.density()
    return _ok(0.4 <= d <= 0.6, measured=float(d), bound=0.6)


def _check_qgs_goodcopy(params):
    A, F = cons.qgs(6, 3)
    rp = unif.ReducedPair(A, QuadraticFactor(F.spec, [], F.matrices[:4]), 0.01)
    res = det.find_good_copy(rp, "H", 3)
    if res.status != det.FOUND:
        return _ok(False, note=res.status)
    return _ok(res.witness.revalidate())


def _check_qgs_aqale(params):
    sp6 = GroupSpec(3, 6)
    A, F = cons.qgs(6, 3)
    m6 = F.matrices
    e = sp6.basis_vector
    battery = [
        ([], m6[:1]),
        ([], m6[:2]),
        ([e(1)], m6[:1]),
        ([e(1)], m6[:2]),
        ([e(1), e(2)], m6[:1]),
        ([e(3), e(4)], [m6[1], m6[2]]),
        ([e(1), e(2)], [m6[4], m6[5]]),
    ]
    for lin, mats in battery:
        B = QuadraticFactor(sp6, lin, mats)
        if factor_rank(B) != 6:
            return _ok(False, note="battery factor not full rank")
        _, bad, _ = reg.aqale_check(B, A, 1 / 6, 10.0)
        if len(bad) != 3**B.ell:
            return _ok(False, measured=float(len(bad)), bound=float(3**B.ell),
                       note=f"factor {B.complexity}")
    return _ok(True)


# --- suite: uniformity ---


def _check_gauss_bound(params):
    rng = np.random.default_rng(params.get("seed", DEFAULT_SEED))
    sp = GroupSpec(3, 6)
    Ms, bs = [], []
    for _ in range(1000):
        M = rng.integers(0, 3, size=(6, 6))
        Ms.append((M + M.T) % 3)
        bs.append(rng.integers(0, 3, size=6))
    Ms = np.stack(Ms)
    slack = np.abs(gauss_sum(Ms, np.stack(bs), sp)) - 3.0 ** (-ranks(Ms, 3) / 2)
    worst = max(0.0, float(slack.max()))
    return _ok(worst <= 1e-9, measured=float(worst), bound=1e-9)


def _check_u2_fourier(params):
    rng = np.random.default_rng(params.get("seed", DEFAULT_SEED))
    worst = 0.0
    # 200 functions across sizes up to n = 8, weighted toward the cheap sizes
    sizes = [2, 3, 4, 5, 6] * 39 + [7, 7, 7, 8, 8]
    for n in sizes[:200]:
        sp = GroupSpec(3, n)
        f = rng.uniform(-1, 1, sp.order)
        lhs = unif.u2_norm(f, sp) ** 4
        rhs = unif.u2_norm_fourier(f, sp) ** 4
        worst = max(worst, abs(lhs - rhs))
    return _ok(worst <= 1e-9, measured=float(worst), bound=1e-9)


def _check_u3_phase(params):
    worst = 0.0
    for n in (1, 2, 3):
        sp = GroupSpec(3, n)
        qv = np.einsum("ij,ij->i", sp.digits.astype(np.int64), sp.digits.astype(np.int64)) % 3
        f = np.exp(2j * np.pi * qv / 3)
        worst = max(worst, abs(unif.u3_norm(f, sp) - 1))
    sp2 = GroupSpec(3, 2)
    rng = np.random.default_rng(params.get("seed", DEFAULT_SEED))
    f = rng.uniform(-1, 1, sp2.order)
    worst = max(worst, abs(unif.u3_norm(f, sp2) - unif.u3_norm_naive(f, sp2)))
    return _ok(worst <= 1e-9, measured=float(worst), bound=1e-9)


def _check_beta_dev2(params):
    sp = GroupSpec(3, 8)
    mats = cons.trace_sym_space(8, 3)
    F = QuadraticFactor(sp, [], [mats[0]])
    a1 = atom_members(F, AtomLabel([], [0])).indices()
    a2 = atom_members(F, AtomLabel([], [1])).indices()
    e = unif.beta_graph(F, a1, a2, [1])
    eps, d2 = unif.dev2_measure(e)
    ok = eps <= 0.05 and abs(d2 - 1 / 3) <= 0.02
    return _ok(ok, measured=float(eps), bound=0.05, note=f"d2={d2:.4f}")


def _binary_transfer_errors(A: GroupSubset, F: QuadraticFactor) -> np.ndarray:
    """density_transfer_check's error for every binary flat (a1, b1, a2, b2,
    b12) of a factor with ell = q = 1, as a (p,) * 5 array, counted on the
    Fourier side.

    The factor's matrix M is symmetric and p is odd, so for x in atom
    t1 = (a1, b1) and y in atom t2 = (a2, b2), x^T M y = b12 exactly when
    Q(x + y) = c with c = b1 + b2 + 2 b12; and x + y lies on the linear
    level a1 + a2.  So the flat's edge count is sum_s W_c(s) (1_t1 * 1_t2)(s)
    with W_c = 1[Q = c], and its count of edges with x + y in A is the same
    sum with W_c A.  By Parseval each is
    N^2 sum_xi hat 1_t1(xi) hat 1_t2(xi) conj(hat W(xi)): one stacked dft of
    the p^2 atom indicators and the 2p weights, one (p^4, N) x (N, 2p)
    product, and rounding.  The counts must come out exact: ArithmeticError
    is raised when a value lies more than 1e-6 from an integer, or when a
    pair's edge counts do not sum to |t1| |t2|."""
    spec, p = F.spec, F.spec.p
    table = label_index_table(F)
    sizes, alpha = cell_counts(table, A.indicator, p * p)
    atoms = table == np.arange(p * p)[:, None]
    level = table // p == np.arange(p)[:, None]
    hat = dft(np.concatenate([atoms, level, level & A.indicator]).astype(np.float64), spec)
    pairs = (hat[: p * p, None] * hat[None, : p * p]).reshape(p**4, spec.order)
    raw = pairs @ hat[p * p :].conj().T * float(spec.order) ** 2
    counts = np.rint(raw.real)
    worst = float(np.abs(raw - counts).max())
    if worst > 1e-6:
        raise ArithmeticError(f"Fourier count is {worst:.3g} from an integer")
    counts = counts.astype(np.int64).reshape(p * p, p * p, 2, p)
    edges, hits = counts[:, :, 0], counts[:, :, 1]
    if not np.array_equal(edges.sum(axis=2), np.outer(sizes, sizes)):
        raise ArithmeticError("Fourier edge counts do not sum to the atom-pair sizes")
    a1, b1, a2, b2, b12 = np.ix_(*[np.arange(p)] * 5)
    t1, t2, c = a1 + p * b1, a2 + p * b2, (b1 + b2 + 2 * b12) % p
    n_edges, n_hits = edges[t1, t2, c], hits[t1, t2, c]
    rel = n_hits / np.maximum(n_edges, 1)  # a flat with no edges has no hits: rel 0
    return np.abs(rel - alpha[(a1 + a2) % p + p * c])


def _check_density_transfer(params):
    """Exact over all 3^5 binary flats: the mean and the max error are
    non-increasing in n, and the n = 8 mean is at most 0.05.

    The table comes from _binary_transfer_errors, which counts the edges of
    every flat through the identity x^T M y = b12 <=> Q(x + y) = b1 + b2 +
    2 b12 and one stacked DFT, and raises ArithmeticError (reported as
    ERROR) when its counts are not exact integers.  The seeded flats
    cross-check that table at 1e-12 against density_transfer_check, which
    builds the sum-graph and bilinear matrices directly and shares none of
    the table's counting code."""
    rng = np.random.default_rng(params.get("seed", DEFAULT_SEED))
    flats = [rng.integers(0, 3, size=5) for _ in range(24)]
    means, maxes = [], []
    for n in (6, 7, 8):
        sp = GroupSpec(3, n)
        mats = cons.trace_sym_space(n, 3)
        F = QuadraticFactor(sp, [sp.basis_vector(1)], [mats[0]])
        A = cons.gs(n, 3)
        err = _binary_transfer_errors(A, F)
        for fl in flats:
            got = unif.density_transfer_check(A, unif.TriadDescriptor.from_flat(F, fl)).measured
            if abs(got - err[tuple(fl)]) > 1e-12:
                return _ok(False, measured=got, note=f"n={n} flat {fl.tolist()}: exhaustive {err[tuple(fl)]}")
        means.append(float(err.mean()))
        maxes.append(float(err.max()))
    ok = means[0] >= means[1] >= means[2] and maxes[0] >= maxes[1] >= maxes[2] and means[2] <= 0.05
    return _ok(ok, measured=means[2], bound=0.05,
               note=f"mean={['%.3g' % m for m in means]} max={['%.3g' % m for m in maxes]}")


def _check_contraction_oracles(params):
    rng = np.random.default_rng(params.get("seed", DEFAULT_SEED))
    for _ in range(5):
        e = rng.random((int(rng.integers(4, 20)), int(rng.integers(4, 20)))) < 0.4
        if abs(unif.dev2_measure(e)[0] - unif.dev2_naive(e)) > 1e-9:
            return _ok(False, note="dev2 mismatch")
    for _ in range(3):
        h = rng.uniform(-1, 1, (6, 7, 8))
        if abs(unif.oct_sum(h) - unif.oct_naive(h)) > 1e-7:
            return _ok(False, note="oct mismatch")
    return _ok(True)


def _check_triad_membership(params):
    sp = GroupSpec(3, 5)
    mats = cons.trace_sym_space(5, 3)
    F = QuadraticFactor(sp, [sp.basis_vector(1)], [mats[0]])
    return _ok(unif.triad_membership_check(F))


def _check_factor_repair(params):
    rng = np.random.default_rng(params.get("seed", DEFAULT_SEED))
    sp = GroupSpec(3, 5)
    r = RankFunction("x")
    import math

    for _ in range(50):
        nl, nq = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        M = [((lambda m: (m + m.T) % 3)(rng.integers(0, 3, size=(5, 5)))) for _ in range(nq)]
        B = QuadraticFactor(sp, [rng.integers(0, 3, size=5) for _ in range(nl)], M)
        out = make_high_rank(B, r, 10)
        rank = factor_rank(out)
        c = out.linear.complexity + out.q
        if not refines(out, B) or not (rank == math.inf or rank >= r(c)):
            return _ok(False)
    return _ok(True)


def _check_pullback(params):
    rng = np.random.default_rng(params.get("seed", DEFAULT_SEED))
    sp = GroupSpec(3, 5)
    done = 0
    while done < 50:
        nl, nq = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        if nl + nq == 0:
            continue
        M = [((lambda m: (m + m.T) % 3)(rng.integers(0, 3, size=(5, 5)))) for _ in range(nq)]
        B = QuadraticFactor(sp, [rng.integers(0, 3, size=5) for _ in range(nl)], M)
        k = int(rng.integers(1, 3))
        R = LinearFactor(GroupSpec(3, nl + nq), [rng.integers(0, 3, size=nl + nq) for _ in range(k)])
        try:
            pullback_factor(B, R, verify=True)
        except AssertionError:
            return _ok(False, note="partition equality failed")
        done += 1
    return _ok(True)


def _check_atom_sizes(params):
    sp = GroupSpec(3, 8)
    mats = cons.trace_sym_space(8, 3)
    F = QuadraticFactor(sp, [sp.basis_vector(1)], [mats[0]])
    sizes = atom_sizes(F)
    target = 3.0**6
    tol = 3.0 ** (-2) * target
    worst = max(abs(s - target) for s in sizes.values())
    return _ok(worst <= tol, measured=float(worst), bound=float(tol))


# --- suite: closure ---


def _check_closure_fuzz(params):
    rng = np.random.default_rng(params.get("seed", DEFAULT_SEED))
    quad_tame = {n: cons.quadric(n, 3) for n in (2, 3)}
    checked = {"complement": 0, "hop2_to_op": 0, "fop2_to_vc": 0, "vc2_to_fop2": 0, "intersection": 0}

    def visit(A, n, deep):
        res = det.find_hop2(A, 2)
        if res.status == det.FOUND:
            if not det.complement_hop2_witness(res.witness).revalidate():
                return "complement transform"
            if not det.hop2_to_op_witness(res.witness).revalidate():
                return "hop2->op transform"
            checked["complement"] += 1
            checked["hop2_to_op"] += 1
        elif res.status == det.NONE:
            inter = A.intersect(quad_tame[n])
            if det.find_hop2(inter, 2).status != det.NONE:
                return "intersection preservation"
            checked["intersection"] += 1
        if deep:
            resf = det.find_fop2(A, 2)
            if resf.status == det.FOUND:
                if not det.fop2_to_vc_witness(resf.witness).revalidate():
                    return "fop2->vc transform"
                checked["fop2_to_vc"] += 1
            k2, w2, _ = det.vc2_dim(A, 2)
            if k2 == 2:
                if not det.vc2_to_fop2_witness(w2).revalidate():
                    return "vc2->fop2 transform"
                checked["vc2_to_fop2"] += 1
        return None

    for t in range(200):
        n = 2 if t % 3 else 3
        sp = GroupSpec(3, n)
        A = GroupSubset(sp, rng.random(sp.order) < rng.uniform(0.2, 0.8))
        bad = visit(A, n, deep=(t % 5 == 0))
        if bad:
            return _ok(False, note=bad)
    # rare transforms get targeted extra draws before the coverage check
    extra =  0
    while min(checked.values()) == 0 and extra < 400:
        sp = GroupSpec(3, 3)
        A = GroupSubset(sp, rng.random(sp.order) < rng.uniform(0.35, 0.65))
        bad = visit(A, 3, deep=True)
        if bad:
            return _ok(False, note=bad)
        extra += 1
    if min(checked.values()) == 0:
        return _ok(False, note=f"a transform was never exercised: {checked}")
    return _ok(True, measured=float(sum(checked.values())), note=str(checked))


# --- suite: regularize ---


def _check_stable_input(params):
    sp = GroupSpec(3, 8)
    L0 = LinearFactor(sp, [sp.basis_vector(1), sp.basis_vector(2)])
    A = cons.union_of_cosets(L0, [np.zeros(8, dtype=np.int64), sp.basis_vector(1)])
    res = reg.stable_linear_decomposition(A, eps=0.1, max_codim=4)
    v = res["verdict"]
    ok = v.error_count == 0 and res["H"].codim <= 2
    return _ok(ok, measured=float(res["H"].codim), bound=2.0)


def _check_uniform_coset_postconditions(params):
    rng = np.random.default_rng(params.get("seed", DEFAULT_SEED))
    sp = GroupSpec(3, 8)
    for t in range(100):
        eps = (0.2, 0.3, 0.5)[t % 3]
        A = GroupSubset(sp, rng.random(sp.order) < rng.uniform(0.1, 0.9))
        try:
            reg.find_uniform_dense_coset(A, reg.Subgroup(sp, []), eps)
        except AssertionError as exc:
            return _ok(False, note=str(exc))
    return _ok(True, measured=100.0, bound=100.0)


def _check_gs_regularize(params):
    res = reg.stable_linear_decomposition(cons.gs(8, 3), eps=0.1, max_codim=6)
    best = min(
        (h["error_fraction"] for h in res["history"] if h["m"] <= 6), default=1.0
    )
    return _ok(best <= 0.2, measured=float(best), bound=0.2)


def _check_chain_validity(params):
    sp = GroupSpec(3, 8)
    L0 = LinearFactor(sp, [sp.basis_vector(1), sp.basis_vector(2)])
    A1 = cons.union_of_cosets(L0, [np.zeros(8, dtype=np.int64), sp.basis_vector(1)])
    inputs = [A1, cons.gs(8, 3), GroupSubset(sp)]
    for A in inputs:
        res = reg.stable_linear_decomposition(A, eps=0.1, max_codim=6)
        chk = reg.factor_chain_check(res["chain"], A)
        if not all(chk.values()):
            return _ok(False, note=str(chk))
    return _ok(True)


# --- suite: appendix ---


def _check_sparse_span(params):
    A = cons.sparse_example(8, 3)
    members = A.members()
    for r in range(1, 9):
        combos = list(itertools.combinations(range(len(members)), r))
        bad = np.flatnonzero(ranks(members[combos], 3) < np.sqrt(r) - 1e-12)
        if bad.size:
            return _ok(False, note=f"subset {combos[bad[0]]}")
    return _ok(True)


def _check_affine_embeddings(params):
    h1 = GroupSpec(3, 1)
    g2 = GroupSpec(3, 2)
    A2 = cons.gs(2, 3)
    got = det.affine_embedding_exists((h1, GroupSubset.from_indices(h1, [1])), (g2, A2))
    if got is None:
        return _ok(False, note="positive case not found")
    ident = det.affine_embedding_exists((g2, A2), (g2, A2))
    if ident is None:
        return _ok(False, note="identity case not found")
    neg = det.affine_embedding_exists(
        (h1, GroupSubset.full(h1)), (g2, GroupSubset(g2))
    )
    return _ok(neg is None, note="negative case")


def _check_tree_dp(params):
    rng = np.random.default_rng(params.get("seed", DEFAULT_SEED))
    sp = GroupSpec(3, 2)
    for _ in range(4):
        A = GroupSubset(sp, rng.random(sp.order) < rng.uniform(0.2, 0.8))
        Lm = GroupSubset(sp, rng.random(sp.order) < 0.8)
        Nm = GroupSubset(sp, rng.random(sp.order) < 0.8)
        for d in (1, 2):
            if det.count_tree_encodings(A, d, Lm, Nm) != det.count_tree_encodings_naive(A, d, Lm, Nm):
                return _ok(False, note=f"d={d}")
    return _ok(True)


SUITES = {
    "gs": [
        ("gs-shattered-triple", "three-point-shattering-by-listed-translates", _check_gs_shatter),
        ("gs-vc-dimension", "vc-equals-three-exhaustive", _check_gs_vc),
        ("gs-3hop2-witness", "explicit-nine-vector-staircase", _check_gs_hop2_witness),
        ("gs-no-4hop2", "exhaustive-absence-of-depth-4-staircase", _check_gs_no4hop2),
        ("gs-zero-coset-density", "zero-coset-density-interval", _check_gs_zero_coset),
        ("gs-translate-intersections", "translate-intersection-identities", _check_gs_intersections),
    ],
    "quadric": [
        ("quadric-cap2", "cube-auto-completion", _check_quadric_cap2),
        ("quadric-no-2fop2", "functional-order-absence", _check_quadric_fop2),
        ("quadric-vc2", "grid-shattering-at-most-one", _check_quadric_vc2),
        ("quadric-size", "zero-level-set-count", _check_quadric_size),
    ],
    "qgs": [
        ("qgs-density", "density-near-half", _check_qgs_density),
        ("qgs-good-copy", "staircase-copy-in-reduced-pair", _check_qgs_goodcopy),
        ("qgs-aqale-fails", "linear-error-atomicity-fails", _check_qgs_aqale),
    ],
    "uniformity": [
        ("gauss-bound", "exponential-sum-rank-bound", _check_gauss_bound),
        ("u2-fourier-identity", "fourth-moment-identity", _check_u2_fourier),
        ("u3-phase-norm", "quadratic-phase-norm-one", _check_u3_phase),
        ("beta-graph-dev2", "bilinear-graph-quasirandomness", _check_beta_dev2),
        ("density-transfer", "graph-vs-atom-density", _check_density_transfer),
        ("contraction-oracles", "fast-equals-naive", _check_contraction_oracles),
        ("triad-sum-membership", "sum-label-property", _check_triad_membership),
        ("factor-repair", "rank-repair-refines-and-meets-target", _check_factor_repair),
        ("factor-pullback", "pullback-partition-equality", _check_pullback),
        ("atom-size-envelope", "near-equal-atom-sizes", _check_atom_sizes),
    ],
    "closure": [
        ("closure-transforms", "witness-transforms-revalidate", _check_closure_fuzz),
    ],
    "regularize": [
        ("stable-coset-input", "exact-recovery-of-coset-structure", _check_stable_input),
        ("uniform-coset-postconditions", "codim-density-uniformity", _check_uniform_coset_postconditions),
        ("gs-regularization", "error-fraction-decay", _check_gs_regularize),
        ("chain-validity", "emitted-chains-pass-conditions", _check_chain_validity),
    ],
    "appendix": [
        ("sparse-span-bound", "subset-dimension-lower-bound", _check_sparse_span),
        ("affine-embeddings", "embedding-positive-and-negative", _check_affine_embeddings),
        ("tree-count-oracle", "dp-equals-naive", _check_tree_dp),
    ],
}


def run_suite(name: str, params: dict | None = None, jobs: int = 1) -> SuiteResult:
    """Execute every check of the named suite; individual failures become
    FAIL entries and exceptions become ERROR entries, never process aborts."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    params = dict(params or {})
    params.setdefault("seed", DEFAULT_SEED)
    result = SuiteResult(name, dict(params))
    catalogue = SUITES[name]

    def run_one(entry):
        check_id, anchor, fn = entry
        t0 = time.monotonic()
        try:
            out = fn(params)
        except Exception as exc:  # noqa: BLE001 - captured into the report
            out = CheckResult("ERROR", note=f"{type(exc).__name__}: {exc}")
        return check_id, anchor, out, (time.monotonic() - t0) * 1000.0

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_one, catalogue))
    else:
        rows = [run_one(entry) for entry in catalogue]
    for check_id, anchor, out, ms in rows:
        result.add(check_id, anchor, out, ms)
    return result
