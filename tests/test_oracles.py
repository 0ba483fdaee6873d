"""Cross-validation of the pruned exhaustive searches against fully naive
enumeration on tiny groups.  The searches pin translation-invariant
coordinates and match level sets; the oracles here iterate every tuple with
no reductions at all, so agreement certifies the exhaustiveness claims.
vc_dim_unpinned_oracle is the one exception: vc_dim's own DFS without the
a_1 = 0 pin, so that the pin is shown to keep every output."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfa import core, detectors, regularize, uniformity
from qfa.constructions import gs
from qfa.core import GroupSpec, GroupSubset
from qfa.detectors import (
    BOUND_ONLY,
    FOUND,
    NONE,
    SearchBudget,
    Witness,
    cap2_check,
    complement_hop2_witness,
    count_tree_encodings,
    count_tree_encodings_naive,
    find_fop2,
    find_good_copy,
    find_hop2,
    find_op,
    fop2_to_vc_witness,
    hodges_extract,
    hop2_to_op_witness,
    vc2_dim,
    vc2_to_fop2_witness,
    vc_dim,
)
from qfa.uniformity import ReducedPair
from qfa.factors import LinearFactor, QuadraticFactor, label_index_table, label_values
from support import form_value, gowers_inner, plant_tree_encoding

RNG = np.random.default_rng(0xF0F2)


def random_subsets(spec, count, lo=0.15, hi=0.85):
    for _ in range(count):
        yield GroupSubset(spec, RNG.random(spec.order) < RNG.uniform(lo, hi))


def op_oracle(A, k):
    """Every a in N^k at once, one broadcast axis per coordinate, with a
    last axis for b.  The b_j are chosen independently, so a extends to a
    staircase when, for each j, some b has A[tab[a_i, b]] == (i <= j) for
    every i, read on add_perm digit sums."""
    spec = A.spec
    N = spec.order
    M = A.indicator[np.stack([spec.add_perm(i) for i in range(N)])]  # M[s, t] = A[s + t]
    a = [np.arange(N).reshape((1,) * t + (N,) + (1,) * (k - t)) for t in range(k)]
    b = np.arange(N).reshape((1,) * k + (N,))
    ok = np.ones((N,) * k, dtype=bool)
    for j in range(k):
        col = np.ones((N,) * (k + 1), dtype=bool)
        for i in range(k):
            col &= M[a[i], b] == (i <= j)
        ok &= col.any(axis=-1)
    return bool(ok.any())


def hop2_oracle(A, k):
    """Every x in N^k in turn, and every y in N^k at once, one broadcast
    axis per coordinate, with a last axis for z.  The z_w are chosen
    independently, so (x, y) extends to a staircase when, for each w, some
    z has A[tab[tab[x_u, y_v], z]] == (u < v + w) for every u, v (1-based),
    read on add_perm digit sums."""
    spec = A.spec
    N = spec.order
    tab = np.stack([spec.add_perm(i) for i in range(N)])
    M = A.indicator[tab]
    y = [np.arange(N).reshape((1,) * t + (N,) + (1,) * (k - t)) for t in range(k)]
    z = np.arange(N).reshape((1,) * k + (N,))
    for x in itertools.product(range(N), repeat=k):
        ok = np.ones((N,) * k, dtype=bool)
        for w in range(1, k + 1):
            col = np.ones((N,) * (k + 1), dtype=bool)
            for u, v in itertools.product(range(1, k + 1), repeat=2):
                col &= M[tab[x[u - 1], y[v - 1]], z] == (u < v + w)
            ok &= col.any(axis=-1)
        if ok.any():
            return True
    return False


def vc_oracle(A, kmax):
    """Largest k <= kmax with k distinct elements a_1..a_k shattered by
    translates: all 2^k patterns (A[a_1 + b], ..., A[a_k + b]) occur as b
    runs over the group, read on add_perm digit sums, over every k-subset."""
    spec = A.spec
    N = spec.order
    M = A.indicator[np.stack([spec.add_perm(i) for i in range(N)])].astype(np.int64)
    best = 0
    for k in range(1, kmax + 1):
        for elems in itertools.combinations(range(N), k):
            patterns = sum(M[a] << i for i, a in enumerate(elems))
            if np.unique(patterns).size == 2**k:
                best = k
                break
    return best


def vc_dim_unpinned_oracle(A, kmax, budget):
    """vc_dim without the a_1 = 0 pin: the same shattering DFS with every
    index a candidate for a_1, in lexicographic order, and a witness built
    and re-tested at every level."""
    spec = A.spec
    budget = budget.start()
    N = spec.order
    size = len(A)
    if size == 0 or size == N:
        return 0, None, FOUND
    cols = detectors._Columns(detectors._Grid(spec, A.indicator))

    def after_last(picks):  # the family's elements in increasing order
        return range(picks[-1] + 1 if picks else 0, N)

    best_k, best_witness = 0, None
    for k in range(1, kmax + 1):
        if 2**k > N:
            break
        refine = detectors._shatter(cols)
        status, hit = detectors._search(detectors._dfs, k, [(1 << N) - 1], after_last, refine, detectors._take, budget)
        if status != FOUND:
            return best_k, best_witness, FOUND if status == NONE else BOUND_ONLY
        elems, masks = hit
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(1, k + 1), r) for r in range(k + 1)
        )
        bS = {frozenset(S): spec.vector_of(detectors._low(masks[sum(1 << (i - 1) for i in S)])) for S in subsets}
        roles = {"a": [spec.vector_of(e) for e in elems], "b": bS}
        best_k, best_witness = k, Witness("VC", A, roles, k=k)
        detectors._check_witness(best_witness)
    return best_k, best_witness, FOUND


def fop2_oracle(A, k):
    spec = A.spec
    N = spec.order
    tab = np.stack([spec.add_perm(i) for i in range(N)])
    fs = list(itertools.product(range(1, k + 1), repeat=k * k))
    for x in itertools.product(range(N), repeat=k):
        for z in itertools.product(range(N), repeat=k):
            good = True
            for f_vals in fs:
                f = dict(zip(itertools.product(range(1, k + 1), repeat=2), f_vals))
                found_y = False
                for y in itertools.product(range(N), repeat=k):
                    ok = all(
                        A.indicator[tab[tab[x[i - 1], y[j - 1]], z[m - 1]]]
                        == (m <= f[(i, j)])
                        for i in range(1, k + 1)
                        for j in range(1, k + 1)
                        for m in range(1, k + 1)
                    )
                    if ok:
                        found_y = True
                        break
                if not found_y:
                    good = False
                    break
            if good:
                return True
    return False


def vc2_oracle(A, k):
    """Every (b, c) in N^k x N^k and every offset a at once, one broadcast
    axis each: bit (i, j) of a's pattern is A[tab[tab[b_i, c_j], a]] on
    add_perm digit sums, and (b, c) is shattered when its N offsets show
    all 2^(k^2) patterns."""
    spec = A.spec
    N = spec.order
    tab = np.stack([spec.add_perm(i) for i in range(N)])
    axes = [np.arange(N).reshape((1,) * t + (N,) + (1,) * (2 * k - t)) for t in range(2 * k + 1)]
    b, c, a = axes[:k], axes[k : 2 * k], axes[2 * k]
    pattern = np.zeros((N,) * (2 * k + 1), dtype=np.int64)
    for i, j in itertools.product(range(k), repeat=2):
        pattern |= A.indicator[tab[tab[b[i], c[j]], a]].astype(np.int64) << (i * k + j)
    rows = pattern.reshape(-1, N)
    seen = np.zeros((len(rows), 2 ** (k * k)), dtype=bool)
    seen[np.arange(len(rows))[:, None], rows] = True
    return bool(seen.all(axis=1).any())


def cap2_oracle(A):
    """Every cube over all N^6 choices of x = (x0, x1), y = (y0, y1) and
    z = (z0, z1), one broadcast axis each: corner (i, j, w) is the gather
    A[tab[tab[x_i, y_j], z_w]] on add_perm digit sums, over all cubes at once."""
    spec = A.spec
    N = spec.order
    tab = np.stack([spec.add_perm(i) for i in range(N)])
    axes = [np.arange(N).reshape((1,) * t + (N,) + (1,) * (5 - t)) for t in range(6)]
    x, y, z = axes[0:2], axes[2:4], axes[4:6]
    seven = np.ones((N,) * 6, dtype=bool)
    for i, j, w in itertools.product((0, 1), repeat=3):
        corner = A.indicator[tab[tab[x[i], y[j]], z[w]]]
        if (i, j, w) == (1, 1, 1):
            eighth = corner
        else:
            seven &= corner
    return not (seven & ~eighth).any()


def test_op_search_matches_oracle():
    for spec in (GroupSpec(3, 1), GroupSpec(5, 1), GroupSpec(3, 2)):
        for A in random_subsets(spec, 12):
            got = find_op(A, 2).status
            want = FOUND if op_oracle(A, 2) else NONE
            assert got == want, (spec, A.indices().tolist())


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1)
)
def test_searches_match_naive_oracles_on_random_sets(pn, density, seed):
    spec = GroupSpec(*pn)
    A = GroupSubset(spec, np.random.default_rng(seed).random(spec.order) < density)
    assert find_op(A, 2).status == (FOUND if op_oracle(A, 2) else NONE)
    assert find_hop2(A, 2).status == (FOUND if hop2_oracle(A, 2) else NONE)
    assert vc_dim(A, 2)[::2] == (vc_oracle(A, 2), FOUND)
    if pn in ((3, 1), (3, 2), (5, 1)):  # where the fop2, vc2 and cap2 oracles fit in memory
        assert find_fop2(A, 1).status == (FOUND if fop2_oracle(A, 1) else NONE)
        assert vc2_dim(A, 2)[::2] == (max((k for k in (1, 2) if vc2_oracle(A, k)), default=0), FOUND)
        assert cap2_check(A)[::2] == (cap2_oracle(A), FOUND)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.sampled_from([(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3)]),
    st.floats(0.05, 0.95),
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
)
def test_pinned_vc_dim_matches_unpinned_oracle(pn, density, seed, kmax):
    # a shattered family minus its first element is shattered and holds 0,
    # so pinning a_1 = 0 keeps the first hit and only shortens the
    # exhaustive levels, also under node limits that cut the search
    spec = GroupSpec(*pn)
    A = GroupSubset(spec, np.random.default_rng(seed).random(spec.order) < density)
    for limit in (50_000_000, 2_000, 30):
        budget, oracle_budget = SearchBudget(node_limit=limit), SearchBudget(node_limit=limit)
        k, w, status = vc_dim(A, kmax, budget)
        want_k, want_w, want_status = vc_dim_unpinned_oracle(A, kmax, oracle_budget)
        assert (k, w and w.to_jsonable()) == (want_k, want_w and want_w.to_jsonable()), limit
        assert status == FOUND or want_status == BOUND_ONLY, limit
        assert budget.nodes <= oracle_budget.nodes, limit


def test_hop2_search_matches_oracle():
    for spec, trials in ((GroupSpec(3, 1), 20), (GroupSpec(5, 1), 8)):
        for A in random_subsets(spec, trials):
            got = find_hop2(A, 2).status
            want = FOUND if hop2_oracle(A, 2) else NONE
            assert got == want, (spec, A.indices().tolist())


def test_hop2_search_matches_oracle_depth3():
    spec = GroupSpec(3, 1)
    for A in random_subsets(spec, 20, lo=0.1, hi=0.9):
        got = find_hop2(A, 3).status
        want = FOUND if hop2_oracle(A, 3) else NONE
        assert got == want, A.indices().tolist()


def test_fop2_search_matches_oracle():
    spec = GroupSpec(3, 1)
    for A in random_subsets(spec, 25):
        got = find_fop2(A, 2).status
        want = FOUND if fop2_oracle(A, 2) else NONE
        assert got == want, A.indices().tolist()


def test_vc2_search_matches_oracle():
    spec = GroupSpec(3, 2)
    for A in random_subsets(spec, 8):
        k, w, st = vc2_dim(A, 2)
        assert st == FOUND
        assert (k >= 2) == vc2_oracle(A, 2), A.indices().tolist()


def test_vc2_search_matches_oracle_on_window_sets():
    # With b = (0, 1) and c = (0, 2), the patterns of a are the windows
    # A[a..a+3]: the first set shows all 16 of them, the other two all but
    # 0000 and all but 1111, and no other (b, c) does better.  At N = 9 no
    # set can show 16 patterns, so these are the only positive cases.
    spec = GroupSpec(17, 1)
    for members, want in (
        ([0, 1, 2, 3, 5, 7, 8, 11], True),
        ([0, 1, 2, 3, 5, 7, 9, 10, 13], False),
        ([0, 1, 2, 4, 6, 7, 10], False),
    ):
        A = GroupSubset.from_indices(spec, members)
        assert vc2_oracle(A, 2) == want
        assert (vc2_dim(A, 2)[0] >= 2) == want


def test_cap2_matches_oracle():
    spec = GroupSpec(3, 2)
    for A in random_subsets(spec, 10):
        ok, cube, st = cap2_check(A)
        assert st == FOUND
        assert ok == cap2_oracle(A), A.indices().tolist()


def label_kind(red, s):
    """The dense/sparse/error rule from the densities, not from red.code: a
    label that is both dense and sparse (eps >= 1/2) is sparse."""
    return "sparse" if red.A0[s] else "dense" if red.A1[s] else "error"


def good_copy_H_oracle(red, k):
    """Every left k-tuple of labels against every right k-tuple from H_B,
    label sums read on add_perm digit sums."""
    lab = red.label_spec
    N = lab.order
    tab = np.stack([lab.add_perm(i) for i in range(N)])
    side = np.nonzero(red.H_B)[0]
    for left in itertools.product(range(N), repeat=k):
        for right in itertools.product(side, repeat=k):
            ok = True
            for i in range(k):
                for j in range(k):
                    want = "dense" if i <= j else "sparse"
                    if label_kind(red, int(tab[left[i], right[j]])) != want:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def test_good_copy_search_matches_oracle():
    spec = GroupSpec(3, 3)
    F = QuadraticFactor(spec, [spec.basis_vector(1)], [np.eye(3, dtype=np.int64)])
    for A in random_subsets(spec, 15):
        red = ReducedPair(A, F, 0.3)
        got = find_good_copy(red, "H", 2).status
        want = FOUND if good_copy_H_oracle(red, 2) else NONE
        assert got == want, A.indices().tolist()


def hop2_oracle_grid(A):
    """Depth-2 staircase oracle over all unpinned (x, y) grids: builds the
    four base sums directly and intersects the per-slot requirements, with
    no translation pinning and no sum collapse; sums are read on add_perm
    digit sums."""
    spec = A.spec
    N = spec.order
    tab = np.stack([spec.add_perm(i) for i in range(N)])
    shifted = A.indicator[tab]
    for x1 in range(N):
        for x2 in range(N):
            for y1 in range(N):
                for y2 in range(N):
                    s11, s12 = tab[x1, y1], tab[x1, y2]
                    s21, s22 = tab[x2, y1], tab[x2, y2]
                    z1_ok = shifted[s11] & shifted[s12] & ~shifted[s21] & shifted[s22]
                    if not z1_ok.any():
                        continue
                    z2_ok = shifted[s11] & shifted[s12] & shifted[s21] & shifted[s22]
                    if z2_ok.any():
                        return True
    return False


def test_hop2_search_matches_grid_oracle_two_dims():
    spec = GroupSpec(3, 2)
    for A in random_subsets(spec, 10):
        got = find_hop2(A, 2).status
        want = FOUND if hop2_oracle_grid(A) else NONE
        assert got == want, A.indices().tolist()


def test_tree_count_depth3_matches_naive():
    spec = GroupSpec(3, 1)
    for A in random_subsets(spec, 6, lo=0.2, hi=0.9):
        full = GroupSubset.full(spec)
        assert count_tree_encodings(A, 3, full, full) == count_tree_encodings_naive(
            A, 3, full, full
        )


def dev23_from_definitions(A, factor, a_labels, b_labels, cross_labels):
    """Recompute the relative quasirandomness data from the raw definitions:
    elementwise bilinear evaluations, triple loops for the triangle density,
    and the six-fold octahedron sum."""
    spec = A.spec
    p = spec.p
    atoms = []
    for a_lab, b_lab in zip(a_labels, b_labels):
        members = []
        for i in range(spec.order):
            v = spec.vector_of(i)
            lin_ok = all(
                int(np.dot(v, lv)) % p == a_lab[t]
                for t, lv in enumerate(factor.linear.vectors)
            )
            quad_ok = all(
                form_value(M, v, v, p) == b_lab[t] for t, M in enumerate(factor.matrices)
            )
            if lin_ok and quad_ok:
                members.append(v)
        atoms.append(members)

    def beta(u, v, lab):
        return all(
            form_value(M, u, v, p) == lab[t] for t, M in enumerate(factor.matrices)
        )

    U, V, W = atoms
    e12 = [[beta(u, v, cross_labels[0]) for v in V] for u in U]
    e13 = [[beta(u, w, cross_labels[1]) for w in W] for u in U]
    e23 = [[beta(v, w, cross_labels[2]) for w in W] for v in V]
    dens = [
        np.mean(e12) if len(U) and len(V) else 0.0,
        np.mean(e13) if len(U) and len(W) else 0.0,
        np.mean(e23) if len(V) and len(W) else 0.0,
    ]
    d2 = float(np.mean(dens))
    tri, hits = 0, 0
    for i, u in enumerate(U):
        for j, v in enumerate(V):
            if not e12[i][j]:
                continue
            for kk, w in enumerate(W):
                if e13[i][kk] and e23[j][kk]:
                    tri += 1
                    if A.contains_index(spec.index_of((u + v + w) % p)):
                        hits += 1
    d3 = hits / tri if tri else 0.0
    h = np.zeros((len(U), len(V), len(W)))
    for i, u in enumerate(U):
        for j, v in enumerate(V):
            for kk, w in enumerate(W):
                if e12[i][j] and e13[i][kk] and e23[j][kk]:
                    inside = A.contains_index(spec.index_of((u + v + w) % p))
                    h[i, j, kk] = (1.0 - d3) if inside else -d3
    total = 0.0
    for i0 in range(len(U)):
        for i1 in range(len(U)):
            for j0 in range(len(V)):
                for j1 in range(len(V)):
                    for k0 in range(len(W)):
                        for k1 in range(len(W)):
                            total += (
                                h[i0, j0, k0] * h[i0, j0, k1] * h[i0, j1, k0]
                                * h[i0, j1, k1] * h[i1, j0, k0] * h[i1, j0, k1]
                                * h[i1, j1, k0] * h[i1, j1, k1]
                            )
    sizes = (len(U), len(V), len(W))
    denom = d2**12 * (sizes[0] * sizes[1] * sizes[2]) ** 2 if d2 > 0 else 0.0
    eps1 = total / denom if denom else 0.0
    return eps1, d2, d3


def test_dev23_matches_from_definitions():
    from qfa.uniformity import TriadDescriptor, dev23_measure

    spec = GroupSpec(3, 2)
    M = np.array([[1, 1], [1, 0]], dtype=np.int64)
    F = QuadraticFactor(spec, [], [M])
    a_labels = [[], [], []]
    b_labels = [[0], [1], [2]]
    cross = [[0], [1], [2]]
    for A in random_subsets(spec, 4):
        d = TriadDescriptor(F, a_labels, b_labels, cross)
        res = dev23_measure(A, d)
        eps1, d2, d3 = dev23_from_definitions(A, F, a_labels, b_labels, cross)
        assert abs(res.eps1 - eps1) < 1e-9
        assert abs(res.d2 - d2) < 1e-9
        assert abs(res.d3 - d3) < 1e-9


def dev2_dense_oracle(edges):
    """(deviation sum, density) from the dense matrices themselves: the
    float64 balanced matrix g = 1_E - d, its codegrees C = g g^T, and the sum
    of C^2, with no blocking and no integer codegrees."""
    m = edges.astype(np.float64)
    nx, ny = m.shape
    if nx == 0 or ny == 0:
        return 0.0, 0.0
    d = m.sum() / (nx * ny)
    g = m - d
    C = g @ g.T
    return float((C * C).sum()), float(d)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    budget=st.sampled_from([1, 2000, core.BLOCK_BYTES]),
    nx=st.sampled_from([1, 4, 5, 8, 9, 40]),
    ny=st.sampled_from([1, 2, 7, 40]),
    fill=st.sampled_from(["random", "empty", "full"]),
    density=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(budget=2000, nx=9, ny=40, fill="random", density=0.5, seed=0)
@example(budget=2000, nx=5, ny=40, fill="empty", density=0.0, seed=0)
@example(budget=1, nx=9, ny=7, fill="full", density=1.0, seed=0)
def test_blocked_dev2_sum_matches_dense_oracle(budget, nx, ny, fill, density, seed):
    """Row counts on both sides of one and two blocks, empty, full and
    single-column matrices: the blocked codegree sum equals the dense one to
    a relative 1e-12, and the density exactly.  A block budget of 1 byte
    gives blocks of one row; 2000 bytes at |Y| = 40 gives four."""
    if fill == "random":
        edges = np.random.default_rng(seed).random((nx, ny)) < density
    else:
        edges = np.full((nx, ny), fill == "full")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "BLOCK_BYTES", budget)
        got, d = uniformity.dev2_sum(edges)
    want, want_d = dev2_dense_oracle(edges)
    assert d == want_d
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


@pytest.mark.parametrize("p,n", [(3, 5), (5, 3), (7, 3)])
def test_blocked_beta_graph_equals_whole_matrix_comparison(p, n, monkeypatch):
    """beta_graph builds its edges a block of rows at a time; the result is
    the comparison of the whole (q, |X|, |Y|) bilinear stack, bit for bit.
    At |Y| = 37 the budgets give blocks of one row, two or three, and four
    to six."""
    rng = np.random.default_rng(p * 100 + n)
    spec = GroupSpec(p, n)
    for budget, q in itertools.product((1, 2400, 5000), (2, 3)):
        monkeypatch.setattr(core, "BLOCK_BYTES", budget)
        mats = [(lambda R: (R + R.T) % p)(rng.integers(0, p, size=(n, n))) for _ in range(q)]
        F = QuadraticFactor(spec, [], mats)
        Y = rng.integers(0, spec.order, size=37)
        for rows in (1, 3, 7, 20):
            X = rng.integers(0, spec.order, size=rows)
            b = rng.integers(0, 2 * p, size=q)
            want = np.all(uniformity._bilin_matrix(F, X, Y) == (b % p)[:, None, None], axis=0)
            got = uniformity.beta_graph(F, X, Y, b)
            assert got.dtype == bool and np.array_equal(got, want)


def binary_transfer_oracle(A, F):
    """density_transfer_check's error on every binary flat of a factor with
    ell = q = 1, pair by pair of atoms: the sum-graph matrix (on add_perm
    digit sums) and the bilinear matrix of each pair, with b12 read off the
    bilinear values and the sigma atom from its definition."""
    from qfa.factors import label_index_table
    from qfa.uniformity import _bilin_matrix

    spec, p = F.spec, F.spec.p
    table = label_index_table(F)
    sizes = np.bincount(table, minlength=p * p)
    alpha = np.bincount(table[A.indicator], minlength=p * p) / np.maximum(sizes, 1)
    atoms = [np.flatnonzero(table == t) for t in range(p * p)]
    tab = np.stack([spec.add_perm(i) for i in range(spec.order)])
    err = np.zeros((p,) * 5)
    for (a1, b1), (a2, b2) in itertools.product(itertools.product(range(p), repeat=2), repeat=2):
        X, Y = atoms[a1 + p * b1], atoms[a2 + p * b2]
        member = A.indicator[tab[np.ix_(X, Y)]]
        bilin = _bilin_matrix(F, X, Y)[0]
        for b12 in range(p):
            edges = bilin == b12
            n_edges = edges.sum()
            rel = (edges & member).sum() / n_edges if n_edges else 0.0
            sigma = (a1 + a2) % p + p * ((b1 + b2 + 2 * b12) % p)
            err[a1, b1, a2, b2, b12] = abs(rel - alpha[sigma])
    return err


def transfer_cases(p, ns, seed):
    """(set, factor) pairs over F_p^n: the layered set at p = 3 and seeded
    random subsets, under the factor (e_1, first trace-form matrix)."""
    from qfa.constructions import gs, trace_sym_space

    rng = np.random.default_rng(seed)
    for n in ns:
        spec = GroupSpec(p, n)
        F = QuadraticFactor(spec, [spec.basis_vector(1)], [trace_sym_space(n, p)[0]])
        if p == 3 and n >= 3:
            yield gs(n, 3), F
        for _ in range(2):
            yield GroupSubset(spec, rng.random(spec.order) < rng.uniform(0.1, 0.9)), F


def assert_transfer_table_matches_oracle(cases):
    from qfa.suites import _binary_transfer_errors

    for A, F in cases:
        assert np.array_equal(_binary_transfer_errors(A, F), binary_transfer_oracle(A, F)), (A.spec, F.matrices)


def test_fourier_transfer_table_matches_atom_pair_oracle():
    assert_transfer_table_matches_oracle(transfer_cases(3, range(1, 7), 31))
    assert_transfer_table_matches_oracle(transfer_cases(5, range(1, 5), 32))


def test_fourier_transfer_table_matches_oracle_on_other_factors():
    from qfa.constructions import trace_sym_space

    rng = np.random.default_rng(33)

    def cases():
        for p, n in ((3, 4), (3, 5), (5, 3)):
            spec = GroupSpec(p, n)
            mats = trace_sym_space(n, p)
            v = rng.integers(0, p, size=n)
            v[rng.integers(n)] = 1  # nonzero
            rank1 = np.outer(v, v) % p
            forms = [mats[1], (mats[1] + 2 * mats[n - 1]) % p, rank1, np.zeros((n, n), dtype=np.int64)]
            for M in forms:
                for lin in (rng.integers(0, p, size=n), np.zeros(n, dtype=np.int64)):
                    F = QuadraticFactor(spec, [lin], [M])
                    yield GroupSubset(spec, rng.random(spec.order) < rng.uniform(0.1, 0.9)), F

    assert_transfer_table_matches_oracle(cases())


@pytest.mark.slow
def test_fourier_transfer_table_matches_oracle_at_n_7_and_8():
    assert_transfer_table_matches_oracle(transfer_cases(3, (7, 8), 34))


def revalidate_oracle(w):
    """Witness.revalidate as tuple-at-a-time loops: every sum is added
    coordinate by coordinate and read through the scalar spec.index_of.  A
    good copy's labels are judged by label_kind, never by red.code."""
    A, k, data = w.subset, w.k, w.data
    spec = A.spec
    reads = {"OP": "ab", "HOP2": "xyz", "FOP2": "xyz", "VC": "ab", "VC2": "abc", "CUBE": "xyz", "TREE": ["nodes", "leaves", "d"]}
    if w.kind == "GOODCOPY":
        sides = ["nodes", "leaves", "d"] if data.get("pattern") == "T" else ["left", "right"]
        reads["GOODCOPY"] = ["red", "pattern", "side", *sides]
    if any(role not in data for role in reads.get(w.kind, "")):
        return False
    role_lists = {"OP": "ab", "HOP2": "xyz", "FOP2": "xz", "VC": "a", "VC2": "bc"}.get(w.kind, "")
    if any(len(data[role]) != k for role in role_lists):
        return False

    def keys_the_tree():  # every 0/1 tuple shorter than d is a node, every one of length d a leaf
        d = data["d"]
        tuples = {m: set(itertools.product((0, 1), repeat=m)) for m in range(d + 1)}
        return set(data["nodes"]) == set().union(*(tuples[m] for m in range(d))) and set(data["leaves"]) == tuples[d]

    def member(*vs):
        total = np.zeros(spec.n, dtype=np.int64)
        for v in vs:
            total = total + np.asarray(v, dtype=np.int64)
        return A.contains_index(spec.index_of(total % spec.p))

    one_based = range(1, k + 1)
    if w.kind == "OP":
        a, b = data["a"], data["b"]
        return all(member(a[i], b[j]) == (i <= j) for i in range(k) for j in range(k))
    if w.kind == "HOP2":
        x, y, z = data["x"], data["y"], data["z"]
        cells = itertools.product(one_based, repeat=3)
        return all(member(x[u - 1], y[v - 1], z[t - 1]) == (u < v + t) for u, v, t in cells)
    if w.kind == "FOP2":
        x, z, yfam = data["x"], data["z"], data["y"]
        if set(yfam) != set(itertools.product(one_based, repeat=k * k)):
            return False
        for f_flat, ys in yfam.items():
            if len(ys) != k:
                return False
            f = dict(zip(itertools.product(one_based, repeat=2), f_flat))
            for i, j, m in itertools.product(one_based, repeat=3):
                if member(x[i - 1], ys[j - 1], z[m - 1]) != (m <= f[(i, j)]):
                    return False
        return True
    if w.kind == "VC":
        a = data["a"]
        if set(data["b"]) != {frozenset(S) for r in range(k + 1) for S in itertools.combinations(one_based, r)}:
            return False
        return all(member(a[i], b) == (i + 1 in S) for S, b in data["b"].items() for i in range(k))
    if w.kind == "VC2":
        b, c = data["b"], data["c"]
        cells = list(itertools.product(one_based, repeat=2))
        if set(data["a"]) != {frozenset(S) for r in range(k * k + 1) for S in itertools.combinations(cells, r)}:
            return False
        return all(member(b[i - 1], c[j - 1], a) == ((i, j) in S) for S, a in data["a"].items() for i, j in cells)
    if w.kind == "TREE":
        if not keys_the_tree():
            return False
        for sigma, h in data["nodes"].items():
            for eta, g in data["leaves"].items():
                if len(sigma) < len(eta) and eta[: len(sigma)] == sigma:
                    if member(h, g) != (eta[len(sigma)] == 1):
                        return False
        return True
    if w.kind == "CUBE":
        xs, ys, zs = data["x"], data["y"], data["z"]
        corners = itertools.product((0, 1), repeat=3)
        return all(member(xs[i], ys[j], zs[m]) == ((i, j, m) != (1, 1, 1)) for i, j, m in corners)
    if w.kind == "GOODCOPY":
        red = data["red"]
        lab = red.label_spec

        def kind_of(*vs):
            return label_kind(red, lab.index_of(sum(np.asarray(v, dtype=np.int64) for v in vs) % lab.p))

        def in_side(v):
            return bool(data["side"][lab.index_of(np.asarray(v) % lab.p)])

        if data["pattern"] == "H":
            left, right = data["left"], data["right"]
            if len(left) != k or len(right) != k:
                return False
            for j, b in enumerate(right):
                if not in_side(b):
                    return False
                for i, a in enumerate(left):
                    if kind_of(a, b) != ("dense" if i <= j else "sparse"):
                        return False
            return True
        if data["pattern"] == "U":
            left = data["left"]
            if len(left) != k or sorted(data["right"]) != list(range(2**k)):
                return False
            for bits, b in data["right"].items():
                if not in_side(b):
                    return False
                for i, a in enumerate(left):
                    if kind_of(a, b) != ("dense" if int(bits) >> i & 1 else "sparse"):
                        return False
            return True
        if not keys_the_tree():  # T
            return False
        for eta, g in data["leaves"].items():
            if not in_side(g):
                return False
            for sigma, h in data["nodes"].items():
                got = kind_of(h, g)
                if got == "error":
                    return False
                if len(sigma) < len(eta) and eta[: len(sigma)] == sigma:
                    if got != ("dense" if eta[len(sigma)] == 1 else "sparse"):
                        return False
        return True
    raise ValueError(f"no loop oracle for witness kind {w.kind!r}")


def searched_witnesses():
    """Witnesses of every kind: from the searches (OP, HOP2, FOP2 at k = 1
    and 2, VC, VC2 at k = 1 and 2, CUBE, and GOODCOPY for H, U and T at
    k = 1 and 2, with right sides in H_B or anywhere, at eps 0.3 and at eps
    0.6, where some labels are both dense and sparse), from planted tree
    encodings and the staircases extracted from them, and from the four
    witness transforms.  Draws come from this function's own generator."""
    rng = np.random.default_rng(0x5EED)
    out = [find_op(gs(3, 3), 2).witness, find_op(gs(4, 3), 3).witness, find_hop2(gs(4, 3), 3).witness]
    out += [vc_dim(gs(3, 3), 4)[1], vc2_dim(gs(2, 3), 2)[1]]
    window = GroupSubset.from_indices(GroupSpec(17, 1), [0, 1, 2, 3, 5, 7, 8, 11])  # VC2 = 2
    out.append(vc2_dim(window, 2)[1])
    spec = GroupSpec(3, 3)
    cubes = 0
    while cubes < 2 or sum(w.kind == "FOP2" and w.k == 2 for w in out) < 2:
        A = GroupSubset(spec, rng.random(spec.order) < rng.uniform(0.3, 0.7))
        found = [find_op(A, 2).witness, find_hop2(A, 2).witness, find_fop2(A, 1).witness, find_fop2(A, 2).witness]
        cube = cap2_check(A)[1]
        cubes += cube is not None
        out += [w for w in found + [cube] if w is not None]
    lab = GroupSpec(3, 3)
    F = QuadraticFactor(lab, [lab.basis_vector(1)], [np.eye(3, dtype=np.int64)])
    for eps, side in itertools.product((0.3, 0.6), (None, np.ones(lab.order, dtype=bool))):
        for _ in range(2):
            red = ReducedPair(GroupSubset(lab, rng.random(lab.order) < 0.5), F, eps)
            found = [find_good_copy(red, pattern, k, side).witness for pattern in "HUT" for k in (1, 2)]
            out += [w for w in found if w is not None]
    for spec, d, seed in ((GroupSpec(3, 6), 2, 4), (GroupSpec(3, 10), 4, 6)):
        _, tree = plant_tree_encoding(spec, d, seed=seed)
        out += [tree] + [hodges_extract(tree, k) for k in range(1, min(d, 3) + 1)]
    for w in list(out):
        if w.kind == "HOP2":
            out += [hop2_to_op_witness(w)] + ([complement_hop2_witness(w)] if w.k >= 2 else [])
        if w.kind == "FOP2" and w.k >= 2:
            out.append(fop2_to_vc_witness(w))
        if w.kind == "VC2":
            out.append(vc2_to_fop2_witness(w))
    return out


def hodges_search_oracle(encoding, k):
    """hodges_extract's guided search as nested loops: (node, leaf) index
    pairs, each after the last pick in both lists, such that the new row and
    column keep c_i + b_j in A iff i <= j, read through the scalar
    spec.index_of.  Returns the first (nodes, leaves) in loop order, or
    None."""
    A, spec = encoding.subset, encoding.subset.spec
    nodes, leaves = list(encoding.data["nodes"].values()), list(encoding.data["leaves"].values())
    M = [[A.contains_index(spec.index_of((np.asarray(h) + np.asarray(g)) % spec.p)) for g in leaves] for h in nodes]

    def search(cs, bs):
        if len(cs) == k:
            return cs, bs
        for si in range(cs[-1] + 1 if cs else 0, len(nodes)):
            for ei in range(bs[-1] + 1 if bs else 0, len(leaves)):
                if any(M[si][ej] for ej in bs) or not M[si][ei] or not all(M[sj][ei] for sj in cs):
                    continue
                got = search(cs + [si], bs + [ei])
                if got is not None:
                    return got
        return None

    got = search([], [])
    return None if got is None else ([nodes[i] for i in got[0]], [leaves[i] for i in got[1]])


def off_branch_extension(tree, rng):
    """The tree's encoding on A plus about 30% of the sums no branch
    constrains, so that the off-branch cells of the staircase search bind."""
    spec, data = tree.subset.spec, tree.data
    ind = tree.subset.indicator | (rng.random(spec.order) < 0.3)
    for sigma, h in data["nodes"].items():
        for eta, g in data["leaves"].items():
            if len(sigma) < len(eta) and eta[: len(sigma)] == sigma:
                ind[spec.index_of((np.asarray(h) + np.asarray(g)) % spec.p)] = eta[len(sigma)] == 1
    return Witness("TREE", GroupSubset(spec, ind), dict(data))


def test_hodges_extract_matches_nested_loop_oracle():
    # planted depth-d encodings in F_3^(2d), as planted and with off-branch
    # sums added, at every k the guided search serves
    rng = np.random.default_rng(0x40D)
    for d, seed in itertools.product((3, 4, 5, 6), range(4)):
        _, planted = plant_tree_encoding(GroupSpec(3, 2 * d), d, seed=seed)
        for tree, k in itertools.product((planted, off_branch_extension(planted, rng)), range(3, d + 1)):
            want = hodges_search_oracle(tree, k)
            assert want is not None, (d, seed, k)
            got = [[np.asarray(v).tolist() for v in hodges_extract(tree, k).data[role]] for role in "ab"]
            assert got == [[np.asarray(v).tolist() for v in vs] for vs in want], (d, seed, k)


def _shift(v, p):
    v = np.array(v, dtype=np.int64)
    v[0] = (v[0] + 1) % p
    return v


def _raised_selector(yfam, k):
    """yfam with one entry k of its first key that has one raised to k + 1:
    every value from k up gives the same column pattern, so only the key
    set can tell that the selector it replaces is missing."""
    key = next(f for f in yfam if k in f)
    j = key.index(k)
    raised = key[:j] + (k + 1,) + key[j + 1 :]
    return {raised if f == key else f: ys for f, ys in yfam.items()}


def mutants(w):
    """Copies of w with one change each: one element of one role shifted by
    1 in its first coordinate (every role), and by kind, one FOP2 selector
    key replaced by one outside [k] or one with an entry k raised to k + 1,
    or two selectors' y-lists swapped, one VC/VC2 set key changed or two
    sets' elements swapped, and two TREE nodes swapped."""
    p = w.subset.spec.p
    out = []

    def copy(**roles):
        return Witness(w.kind, w.subset, dict(w.data, **roles), k=w.k)

    for role, val in w.data.items():
        if isinstance(val, list) and val:
            out.append(copy(**{role: [_shift(val[0], p)] + val[1:]}))
        elif isinstance(val, dict) and val:
            first, rest = next(iter(val)), list(val.items())[1:]
            v = val[first]
            moved = [_shift(v[0], p)] + v[1:] if isinstance(v, list) else _shift(v, p)
            out.append(copy(**{role: dict([(first, moved)] + rest)}))
    keyed = {"FOP2": "y", "VC": "b", "VC2": "a", "TREE": "nodes"}.get(w.kind)
    if keyed and len(w.data[keyed]) >= 2:
        items = list(w.data[keyed].items())
        (k0, v0), (k1, v1) = items[:2]
        out.append(copy(**{keyed: dict([(k0, v1), (k1, v0)] + items[2:])}))  # swapped
        if w.kind == "FOP2":
            out.append(copy(y=dict([((0,) + k0[1:], v0)] + items[1:])))  # key outside [k]
            out.append(copy(y=_raised_selector(w.data["y"], w.k)))
        if w.kind in ("VC", "VC2"):
            flip = 1 if w.kind == "VC" else (1, 1)
            out.append(copy(**{keyed: dict([(k0 ^ {flip}, v0)] + items[1:])}))
    return out


@pytest.fixture(scope="module")
def searched():
    return searched_witnesses()


@pytest.fixture(scope="module")
def witness_cases(searched):
    """(witness, loop-oracle verdict) for every searched witness and each of
    its mutants, computed before any test patches the library.  A good copy
    is also judged against every reduced pair drawn, all on one label space,
    so that its cells meet dense, sparse and error labels."""
    reds = {id(w.data["red"]): w.data["red"] for w in searched if w.kind == "GOODCOPY"}.values()
    cases = []
    for w in searched:
        moved = [Witness(w.kind, w.subset, dict(w.data, red=red), k=w.k) for red in reds if w.kind == "GOODCOPY"]
        cases += [(m, revalidate_oracle(m)) for m in [w, *mutants(w), *moved]]
    return cases


def test_revalidate_matches_loop_oracle_on_witnesses_and_mutants(witness_cases):
    # every kind shows both verdicts, so neither side can pass by agreeing on one
    seen = {(w.kind, want) for w, want in witness_cases}
    kinds = ("OP", "HOP2", "FOP2", "VC", "VC2", "CUBE", "TREE", "GOODCOPY")
    assert seen == set(itertools.product(kinds, (True, False)))
    patterns = {(w.data["pattern"], want) for w, want in witness_cases if w.kind == "GOODCOPY"}
    assert patterns == set(itertools.product("HUT", (True, False)))
    for w, want in witness_cases:
        assert w.revalidate() == want, (w.kind, w.k, w.to_jsonable())


def test_a_missing_role_gives_false(searched):
    kinds = set()
    for w in searched:
        for role in w.data:
            rest = {key: val for key, val in w.data.items() if key != role}
            damaged = Witness(w.kind, w.subset, rest, k=w.k)
            assert not damaged.revalidate(), (w.kind, role)
            assert not revalidate_oracle(damaged), (w.kind, role)
            kinds.add(w.kind)
    assert kinds == {"OP", "HOP2", "FOP2", "VC", "VC2", "CUBE", "TREE", "GOODCOPY"}


def test_vc_witnesses_must_list_every_subset(searched):
    zero = [np.zeros(3, dtype=np.int64)] * 3
    damaged = [
        Witness("VC", gs(3, 3), {"a": zero, "b": {}}, k=3),
        Witness("VC2", gs(3, 3), {"b": zero, "c": zero, "a": {}}, k=3),
    ]
    for w in searched:
        if w.kind in ("VC", "VC2"):
            role, foreign = ("b", frozenset({w.k + 1})) if w.kind == "VC" else ("a", frozenset({(w.k + 1, 1)}))
            sets = w.data[role]
            # the foreign set holds no cell of the grid, so the shatterer of the empty set fits its pattern
            for bad in ({}, dict(list(sets.items())[:-1]), {**sets, foreign: sets[frozenset()]}):
                damaged.append(Witness(w.kind, w.subset, dict(w.data, **{role: bad}), k=w.k))
    assert {w.kind for w in damaged[2:]} == {"VC", "VC2"}
    for w in damaged:
        assert not w.revalidate(), (w.kind, w.k, list(w.data["b" if w.kind == "VC" else "a"]))
        assert not revalidate_oracle(w), (w.kind, w.k)


def test_fop2_witnesses_must_key_exactly_the_selectors(searched):
    # a key with an entry raised from k to k + 1 asks for the same column
    # as the selector it replaces, which is then missing
    fop2 = [w for w in searched if w.kind == "FOP2"]
    assert {w.k for w in fop2} == {1, 2}
    for w in fop2:
        assert w.revalidate() and revalidate_oracle(w)
        damaged = Witness("FOP2", w.subset, dict(w.data, y=_raised_selector(w.data["y"], w.k)), k=w.k)
        assert len(damaged.data["y"]) == len(w.data["y"])
        assert not damaged.revalidate(), w.k
        assert not revalidate_oracle(damaged), w.k


def test_tree_and_good_copy_witnesses_must_key_the_whole_pattern(searched):
    # a key left out is a cell never checked: empty, truncated and
    # foreign-keyed trees, U families and H staircases must all fail
    empty_tree = {"nodes": {}, "leaves": {}}
    damaged = [Witness("TREE", gs(3, 3), empty_tree), Witness("TREE", gs(3, 3), dict(empty_tree, d=2))]
    kinds = set()
    for w in searched:
        pattern = w.data.get("pattern") if w.kind == "GOODCOPY" else w.kind
        if pattern in ("TREE", "T"):
            d, nodes, leaves = w.data["d"], w.data["nodes"], w.data["leaves"]
            some_leaf = next(iter(leaves.values()))
            bad = [
                dict(empty_tree),
                {"nodes": dict(list(nodes.items())[:-1])},
                {"leaves": dict(list(leaves.items())[:-1])},
                {"leaves": {**leaves, (0,) * (d + 1): some_leaf}},
                {"nodes": {**nodes, (0,) * d: some_leaf}},
                {"d": d + 1},
            ]
        elif pattern == "U":
            left, right = w.data["left"], w.data["right"]
            bad = [{"right": {}}, {"right": dict(list(right.items())[:-1])}, {"left": left[:-1]}]
            bad.append({"right": {**right, 2**w.k: right[0]}})
        elif pattern == "H":
            bad = [{"left": w.data["left"][:-1]}, {"right": w.data["right"][:-1]}]
        else:
            continue
        kinds.add(pattern)
        damaged += [Witness(w.kind, w.subset, dict(w.data, **roles), k=w.k) for roles in bad]
    assert kinds == {"TREE", "T", "U", "H"}
    for w in damaged:
        assert not w.revalidate(), (w.kind, w.k, w.to_jsonable())
        assert not revalidate_oracle(w), (w.kind, w.k)


def test_revalidation_reads_no_sum_table(witness_cases, monkeypatch):
    # Witnesses and the tree-count oracle must be checked on a path the
    # searches do not share: with every sum table and the search's column
    # and grid builders made to raise, every verdict stays the same.
    rng = np.random.default_rng(0x7AB)
    spec = GroupSpec(3, 2)
    tree_cases = []
    for _ in range(4):
        A, L, N = (GroupSubset(spec, rng.random(spec.order) < q) for q in (rng.uniform(0.2, 0.8), 0.8, 0.8))
        tree_cases += [((A, d, L, N), count_tree_encodings(A, d, L, N)) for d in (1, 2)]

    def boom(*args, **kwargs):
        raise RuntimeError("revalidation read a search table")

    monkeypatch.setattr(GroupSpec, "sum_table", boom)
    monkeypatch.setattr(GroupSpec, "half_table", property(boom))
    for module, name in ((core, "_sum_index_grid"), (detectors, "_sum_index_grid")):
        monkeypatch.setattr(module, name, boom)
    monkeypatch.setattr(detectors, "_Grid", boom)
    monkeypatch.setattr(detectors, "_Columns", boom)
    for w, want in witness_cases:
        assert w.revalidate() == want, (w.kind, w.k)
    for args, count in tree_cases:
        assert count_tree_encodings_naive(*args) == count


def test_oracles_read_no_fast_sum_path(monkeypatch):
    # The oracles run on add_perm digit sums, the other path from the code
    # they check: with the sum table, half_table and every by-name binding
    # of _sum_index_grid made to raise, they return what they return
    # unblocked.
    rng = np.random.default_rng(0x0AC)
    sp = GroupSpec(3, 2)
    fs = [rng.uniform(-1, 1, sp.order) + 1j * rng.uniform(-1, 1, sp.order) for _ in range(8)]
    sets = [GroupSubset(sp, rng.random(sp.order) < q) for q in (0.3, 0.5, 0.7, 0.9)]
    lab = GroupSpec(3, 3)
    F = QuadraticFactor(lab, [lab.basis_vector(1)], [np.eye(3, dtype=np.int64)])
    reds = [ReducedPair(GroupSubset(lab, rng.random(lab.order) < 0.5), F, 0.3) for _ in range(4)]

    def run():
        return (
            [uniformity.u3_norm_naive(f, sp) for f in fs[:2]],
            gowers_inner(fs, sp),
            [hop2_oracle_grid(A) for A in sets],
            [good_copy_H_oracle(red, 2) for red in reds],
        )

    want = run()

    def boom(*args, **kwargs):
        raise RuntimeError("an oracle read the fast sum path")

    monkeypatch.setattr(GroupSpec, "sum_table", boom)
    monkeypatch.setattr(GroupSpec, "half_table", property(boom))
    bound = [m for m in (core, detectors, uniformity, regularize) if hasattr(m, "_sum_index_grid")]
    assert len(bound) == 4
    for module in bound:
        monkeypatch.setattr(module, "_sum_index_grid", boom)
    assert run() == want


def test_witness_check_reads_no_sum_table_under_optimize(run_optimized):
    out = run_optimized(
        "from qfa import core, detectors as det\n"
        "from qfa.constructions import gs\n"
        "assert False, 'asserts are live'\n"
        "w = det.find_op(gs(3, 3), 2).witness\n"
        "def boom(*args, **kwargs):\n"
        "    raise RuntimeError('revalidation read a search table')\n"
        "core.GroupSpec.sum_table = boom\n"
        "core.GroupSpec.half_table = property(boom)\n"
        "core._sum_index_grid = det._sum_index_grid = det._Grid = det._Columns = boom\n"
        "det._check_witness(w)\n"
        "w.data['b'].reverse()\n"
        "det._check_witness(w)\n"
    )
    assert out.returncode != 0
    assert "AssertionError: OP witness failed revalidation" in out.stderr
    assert "search table" not in out.stderr


def dft_fftn_oracle(f, spec, inverse=False):
    """The group DFT as numpy's n-dimensional FFT: an (order,) table or each
    row of a (B, order) stack viewed as a (p,) * n cube, with dft's 1/N on
    the forward side and the plain character sum on the inverse side."""
    f = np.asarray(f)
    cube = f.reshape(f.shape[:-1] + (spec.p,) * spec.n)
    axes = tuple(range(f.ndim - 1, cube.ndim))
    if inverse:
        return np.fft.ifftn(cube, axes=axes).reshape(f.shape) * spec.order
    return np.fft.fftn(cube, axes=axes).reshape(f.shape) / spec.order


def _chunk(p):
    """The number of coordinates one character-table product covers."""
    g = 1
    while p ** (g + 1) <= core._CHAR_TABLE_MAX:
        g += 1
    return g


# n at the chunk boundaries g - 1, g, g + 1 and 2g + 1, for primes on both
# sides of the table bound (67 and 101 take the FFT branch)
DFT_CASES = [
    (p, n)
    for p in (3, 5, 7, 11, 61, 67, 101)
    for n in sorted({_chunk(p) - 1, _chunk(p), _chunk(p) + 1, 2 * _chunk(p) + 1})
    if n >= 1
]


@pytest.mark.parametrize("p,n", DFT_CASES)
@settings(derandomize=True, max_examples=4, deadline=None)
@given(rows=st.sampled_from([None, 1, 2, 3]), is_complex=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_dft_and_idft_match_the_fftn_oracle(p, n, rows, is_complex, seed):
    """On tables bounded by 1, dft equals the fftn oracle to 1e-12, and so
    does idft after dividing by N (it sums N terms); idft(dft(f)) is f."""
    spec = GroupSpec(p, n)
    if spec.order > 1 << 18:  # one table at 101^3
        rows = None
    rng = np.random.default_rng(seed)
    shape = (spec.order,) if rows is None else (rows, spec.order)
    f = rng.uniform(-1, 1, shape)
    if is_complex:
        f = f * np.exp(2j * np.pi * rng.random(shape))
    fhat = core.dft(f, spec)
    assert fhat.shape == f.shape and fhat.dtype == np.complex128
    assert np.abs(fhat - dft_fftn_oracle(f, spec)).max() <= 1e-12
    back = core.idft(f, spec)
    assert back.shape == f.shape
    assert np.abs(back - dft_fftn_oracle(f, spec, inverse=True)).max() <= 1e-12 * spec.order
    assert np.abs(core.idft(fhat, spec) - f).max() <= 1e-12


def _walk_outputs():
    """(H', y) of uniform-coset walks and the outputs of decompositions."""
    rng = np.random.default_rng(0xD1F7)
    spec = GroupSpec(3, 6)

    def noisy_coset(codim, noise):
        coset = (spec.digits @ rng.integers(0, 3, (spec.n, codim)) % 3 == 0).all(axis=1)
        return GroupSubset(spec, coset ^ (rng.random(spec.order) < noise))

    out = []
    for t in range(24):
        A = noisy_coset(1 + t // 3 % 3, 0.02 * (t % 5))
        H, y, _ = regularize.find_uniform_dense_coset(A, regularize.Subgroup(spec, []), (0.02, 0.05, 0.1)[t % 3])
        out.append(([v.tolist() for v in H.duals], H.basis.tolist(), y.tolist()))
    for codim, noise in ((1, 0.03), (2, 0.01), (2, 0.05), (3, 0.05)):
        res = regularize.stable_linear_decomposition(noisy_coset(codim, noise), eps=0.1, max_codim=4)
        out.append(([v.tolist() for v in res["H"].duals], res["omega"], res["history"]))
    return out


def test_walks_and_decompositions_do_not_depend_on_the_dft_kernel(monkeypatch):
    """The top character is the first one within 1e-12 of the largest, so
    the fftn oracle and the character-table kernel, which round differently,
    pick the same characters, cosets and decompositions."""
    want = _walk_outputs()
    monkeypatch.setattr(regularize, "dft", dft_fftn_oracle)
    assert _walk_outputs() == want


def quad_values_oracle(M, spec):
    """x^T M x as the int64 einsum over the digits table that preceded
    evaluation by halves, reduced once at the end; exact while n (p-1)^3 <
    2^63, which holds for every group these tests build."""
    X = spec.digits.astype(np.int64)
    return np.einsum("ij,...jk,ik->...i", X, np.asarray(M, dtype=np.int64) % spec.p, X) % spec.p


def linear_values_oracle(v, spec):
    """x . v as one int64 product with the digits table."""
    v = np.asarray(v, dtype=np.int64) % spec.p
    return (spec.digits.astype(np.int64) @ v.T).T % spec.p


def gauss_sum_oracle(M, b, spec):
    """gauss_sum's counts from the oracle values, one matrix at a time, and
    the same float64 product with the roots."""
    p = spec.p
    vals = (quad_values_oracle(M, spec) + linear_values_oracle(b, spec)) % p
    counts = np.stack([np.bincount(row, minlength=p) for row in vals.reshape(-1, spec.order)])
    out = np.dot(counts.astype(np.float64), np.exp(2j * np.pi * np.arange(p) / p)) / spec.order
    return complex(out[0]) if np.ndim(M) == 2 else out


def label_values_oracle(F):
    """The (ell + q, N) int64 label coordinates from the oracle values, one
    form at a time."""
    spec = F.spec
    lin = F if isinstance(F, LinearFactor) else F.linear
    rows = [linear_values_oracle(v, spec) for v in lin.vectors]
    if isinstance(F, QuadraticFactor):
        rows += [
            (quad_values_oracle(M, spec) + linear_values_oracle(u, spec)) % spec.p
            for M, u in zip(F.matrices, F.shifts)
        ]
    return np.stack(rows) if rows else np.zeros((0, spec.order), dtype=np.int64)


def label_index_table_oracle(F):
    """The oracle label coordinates times the powers of p."""
    labels = label_values_oracle(F)
    return F.spec.p ** np.arange(len(labels), dtype=np.int64) @ labels


# n = 1, an odd and an even n per prime, each group small enough for the
# oracle's digits table (at p = 4093 only n = 1 is)
FORM_CASES = [(3, 1), (3, 5), (3, 6), (5, 1), (5, 3), (5, 4), (7, 1), (7, 3), (7, 2),
              (11, 1), (11, 3), (11, 2), (61, 1), (61, 3), (61, 2), (4093, 1)]


@pytest.mark.parametrize("p,n", FORM_CASES)
def test_form_kernels_match_the_einsum_oracle_bit_for_bit(p, n):
    """quad_values, gauss_sum, label_values and label_index_table equal the
    einsum/int64 path on one input and on stacks of 1 and 3, matrices not
    necessarily symmetric and entries outside [0, p) included, and on
    linear factors and quadratic factors with and without shifts, with
    q = 0, ell = 0 and ell + q = 0."""
    spec = GroupSpec(p, n)
    rng = np.random.default_rng(p * 100 + n)
    M = rng.integers(-p, 2 * p, size=(3, n, n))
    v = rng.integers(-p, 2 * p, size=(3, n))
    for got, want in (
        (core.quad_values(M[0], spec), quad_values_oracle(M[0], spec)),
        (core.quad_values(M, spec), quad_values_oracle(M, spec)),
        (core.quad_values(M[:1], spec), quad_values_oracle(M[:1], spec)),
        (label_values(LinearFactor(spec, v[:1]))[0], linear_values_oracle(v[0], spec)),
        (label_values(LinearFactor(spec, v)), linear_values_oracle(v, spec)),
    ):
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape and np.array_equal(got, want)
    S = (M + M.transpose(0, 2, 1)) % p
    assert core.gauss_sum(S[0], v[0], spec) == gauss_sum_oracle(S[0], v[0], spec)
    assert np.array_equal(core.gauss_sum(S, v, spec), gauss_sum_oracle(S, v, spec))
    # at most four label coordinates, so that 4093^(ell + q) fits in int64
    factors = [
        LinearFactor(spec, []),
        LinearFactor(spec, list(v[:2])),
        QuadraticFactor(spec, [], []),
        QuadraticFactor(spec, list(v), []),
        QuadraticFactor(spec, list(v[:1]), list(S[:2])),
        QuadraticFactor(spec, [], list(S)),
        QuadraticFactor(spec, [], list(S), list(v)),
        QuadraticFactor(spec, list(v[1:]), list(S[:2]), list(v[:2])),
    ]
    for F in factors:
        for got, want in (
            (label_values(F), label_values_oracle(F)),
            (label_index_table(F), label_index_table_oracle(F)),
        ):
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape and np.array_equal(got, want)
