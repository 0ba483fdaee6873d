import copy
import hashlib
import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfa.core import CapacityError, GroupSpec, GroupSubset
from qfa.constructions import gs, quadric, trace_sym_space, union_of_cosets
from qfa.detectors import (
    BOUND_ONLY,
    FOUND,
    NONE,
    SearchBudget,
    Witness,
    affine_embedding_exists,
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
    _good_copy_columns,
)
from qfa.factors import LinearFactor, QuadraticFactor
from qfa.uniformity import ReducedPair
from support import count_good_copies_H, plant_tree_encoding

RNG = np.random.default_rng(0xF0F2)


def vec(s):
    return np.array([int(c) for c in s])


# --- order property ---


def test_op_none_on_coset_and_empty():
    sp = GroupSpec(3, 3)
    H = union_of_cosets(LinearFactor(sp, [sp.basis_vector(1)]), [np.zeros(3, dtype=np.int64)])
    assert find_op(H, 2).status == NONE
    assert find_op(GroupSubset(sp), 2).status == NONE


def test_op_witness_in_layered_set():
    n = 5
    A = gs(n, 3)
    sp = A.spec
    a = [sp.basis_vector(i) for i in range(1, n)]
    b = [2 * sp.basis_vector(j + 1) for j in range(1, n)]
    w = Witness("OP", A, {"a": a, "b": b}, k=n - 1)
    assert w.revalidate()
    assert find_op(gs(3, 3), 2).status == FOUND


def test_witness_check_survives_optimize(run_optimized):
    out = run_optimized(
        "from qfa import detectors as det\n"
        "from qfa.constructions import gs\n"
        "assert False, 'asserts are live'\n"
        "det.Witness.revalidate = lambda self: False\n"
        "det.find_op(gs(3, 3), 2)\n"
    )
    assert out.returncode != 0
    assert "AssertionError: OP witness failed revalidation" in out.stderr


def test_extraction_and_good_copy_checks_survive_optimize(run_optimized):
    # hodges_extract is public and the catalogue reaches find_good_copy:
    # under python -O a bad witness from either must still raise
    out = run_optimized(
        "import numpy as np\n"
        "from qfa import detectors as det, uniformity as unif\n"
        "from qfa.constructions import qgs\n"
        "from qfa.core import GroupSpec, GroupSubset\n"
        "from qfa.factors import QuadraticFactor\n"
        "from qfa.regularize import Subgroup, find_dense_subspace\n"
        "assert False, 'asserts are live'\n"
        "sp = GroupSpec(3, 6)\n"
        "A = GroupSubset(sp, np.random.default_rng(0).random(sp.order) < 0.5)\n"
        "tree = find_dense_subspace(A, Subgroup(sp, []), 0.1, 1)[1]\n"
        "B, F = qgs(6, 3)\n"
        "rp = unif.ReducedPair(B, QuadraticFactor(F.spec, [], F.matrices[:4]), 0.01)\n"
        "valid = det.Witness.revalidate\n"
        "for kind, call in (('OP', lambda: det.hodges_extract(tree, 1)), ('GOODCOPY', lambda: det.find_good_copy(rp, 'H', 3))):\n"
        "    det.Witness.revalidate = lambda self, kind=kind: self.kind != kind and valid(self)\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
    )
    assert out.stdout.splitlines() == ["OP witness failed revalidation", "GOODCOPY witness failed revalidation"], out.stderr


def test_op_budget_exhaustion_reports_bound_only():
    A = gs(4, 3)
    res = find_op(A, 4, SearchBudget(node_limit=10))
    assert res.status == BOUND_ONLY


def test_k_below_one_is_rejected():
    # k = 0 used to give a vacuous FOUND from find_hop2 and find_fop2
    for search in (find_op, find_hop2, find_fop2):
        for k in (0, -1):
            with pytest.raises(ValueError):
                search(gs(2, 3), k)


def test_revalidate_rejects_role_lists_not_of_length_k():
    zero = np.zeros(2, dtype=np.int64)
    assert not Witness("HOP2", gs(2, 3), {"x": [zero], "y": [zero], "z": []}, k=0).revalidate()
    fop2 = find_fop2(GroupSubset(GroupSpec(3, 3), np.random.default_rng(0).random(27) < 0.5), 2).witness
    found = [
        (find_op(gs(3, 3), 2).witness, "ab"),
        (find_hop2(gs(4, 3), 3).witness, "xyz"),
        (fop2, "xz"),
        (vc_dim(gs(3, 3), 4)[1], "a"),
        (vc2_dim(quadric(2, 3), 2)[1], "bc"),
    ]
    for w, roles in found:
        assert w.revalidate()
        for role in roles:
            longer = dict(w.data, **{role: list(w.data[role]) + [w.data[role][0]]})
            assert not Witness(w.kind, w.subset, longer, k=w.k).revalidate(), (w.kind, role)
    yfam = {f: ys + ys[:1] for f, ys in fop2.data["y"].items()}
    assert not Witness("FOP2", fop2.subset, dict(fop2.data, y=yfam), k=2).revalidate()


# --- hyperplane order property ---


def test_hop2_explicit_witness_revalidates():
    A = gs(4, 3)
    w = Witness(
        "HOP2",
        A,
        {
            "x": [vec("2220"), vec("2210"), vec("2120")],
            "y": [vec("2220"), vec("2200"), vec("0220")],
            "z": [vec("2221"), vec("2011"), vec("2021")],
        },
        k=3,
    )
    assert w.revalidate()


def test_hop2_search_finds_depth3_in_layered_set():
    res = find_hop2(gs(4, 3), 3)
    assert res.status == FOUND and res.witness.revalidate()


def test_hop2_none_small_layered_sets():
    for n in (2, 3):
        assert find_hop2(gs(n, 3), 4).status == NONE


def test_hop2_none_on_quadrics():
    for n in (1, 2, 3):
        assert find_hop2(quadric(n, 3), 2).status == NONE


def test_hop2_reindexed_normalization():
    # u+v+w >= k+2 form on a planted set, normalized by reversing the x role
    sp = GroupSpec(3, 3)
    k = 2
    found = None
    for _ in range(200):
        A = GroupSubset(sp, RNG.random(27) < 0.5)
        res = find_hop2(A, k)
        if res.status == FOUND:
            found = (A, res.witness)
            break
    assert found is not None
    A, w = found
    xs = list(reversed(w.data["x"]))  # to the reindexed form and back
    w2 = Witness("HOP2", A, {"x": list(reversed(xs)), "y": w.data["y"], "z": w.data["z"]}, k=k)
    assert w2.revalidate()


# --- functional order property ---


def test_fop2_none_cases():
    assert find_fop2(quadric(2, 3), 2).status == NONE
    sp = GroupSpec(3, 2)
    assert find_fop2(GroupSubset(sp), 2).status == NONE
    assert find_fop2(GroupSubset.full(sp), 2).status == NONE


def test_fop2_found_on_random_and_revalidates():
    sp = GroupSpec(3, 3)
    for _ in range(100):
        A = GroupSubset(sp, RNG.random(27) < 0.5)
        res = find_fop2(A, 2)
        if res.status == FOUND:
            assert res.witness.revalidate()
            return
    pytest.fail("no functional-order witness found on random sets")


# --- VC and VC2 ---


def test_vc_dim_layered_sets():
    k3, w3, st3 = vc_dim(gs(3, 3), 4)
    assert (k3, st3) == (3, FOUND) and w3.revalidate()


def test_vc_dim_reaches_k3_in_gs53_within_200k_nodes():
    # the unpinned search proves no shattered 4-set in 6.4M nodes, so this
    # budget left it at k = 3 with BOUND_ONLY
    k, w, status = vc_dim(gs(5, 3), 4, SearchBudget(node_limit=200_000))
    assert (k, status) == (3, FOUND) and w.revalidate()


def test_vc_dim_trivial_sets():
    sp = GroupSpec(3, 2)
    assert vc_dim(GroupSubset(sp), 3)[0] == 0
    assert vc_dim(GroupSubset.full(sp), 3)[0] == 0


def test_vc2_quadric_at_most_one():
    for n in (2, 3):
        k, w, st = vc2_dim(quadric(n, 3), 2)
        assert st == FOUND and k <= 1


def test_vc2_le_vc_on_random_sets():
    sp = GroupSpec(3, 2)
    for _ in range(40):
        A = GroupSubset(sp, RNG.random(9) < RNG.uniform(0.2, 0.8))
        k2, _, st2 = vc2_dim(A, 2)
        k1, _, st1 = vc_dim(A, 3)
        if st1 == FOUND and st2 == FOUND:
            assert k2 <= k1


# --- cube auto-completion ---


def test_cap2_quadrics_and_cosets():
    for n in (2, 3):
        ok, cube, st = cap2_check(quadric(n, 3))
        assert ok and st == FOUND
    sp = GroupSpec(3, 3)
    H = union_of_cosets(LinearFactor(sp, [sp.basis_vector(1)]), [np.zeros(3, dtype=np.int64)])
    assert cap2_check(H)[0]


def test_cap2_time_limit_stops_stride_ticks():
    # cap2_check charges N nodes per tick, so the clock must be read on
    # crossing each 4096-node mark rather than only on exact multiples
    A = quadric(8, 3)
    start = time.monotonic()
    ok, cube, st = cap2_check(A, SearchBudget(time_limit=1.0))
    assert st == BOUND_ONLY and cube is None
    assert time.monotonic() - start < 10.0


def test_cap2_time_limit_at_large_n():
    # the grid kernel reads the clock once per block of about 2^22 entries
    A = quadric(8, 3)
    for budget in (SearchBudget(time_limit=1.0), SearchBudget(node_limit=10**15, time_limit=1.0)):
        start = time.monotonic()
        _, cube, status = cap2_check(A, budget)
        assert status == BOUND_ONLY and cube is None
        assert time.monotonic() - start < 3.0


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 200), st.integers(1, 9), st.integers(0, 40), st.data())
def test_search_budget_charge_matches_tick_loop(limit, per, count, data):
    # a search stops at its first failed charge, so a block starts within the limit
    start = data.draw(st.integers(0, limit))
    hit = data.draw(st.one_of(st.none(), st.integers(0, count - 1))) if count else None
    block, loop = SearchBudget(node_limit=limit).start(), SearchBudget(node_limit=limit).start()
    block.nodes = loop.nodes = start
    ok = True
    for t in range(count if hit is None else hit + 1):
        if not loop.tick(per):
            ok = False
            break
    assert block.charge(per, count, hit) == ok
    assert block.nodes == loop.nodes


def test_grid_searches_charge_nodes_like_scalar_loops():
    # node counts of a loop that ticks once per tuple, measured before the grid kernel
    res = find_fop2(quadric(3, 3), 2, SearchBudget(node_limit=100))
    assert (res.status, res.nodes) == (BOUND_ONLY, 101)
    res = find_fop2(quadric(3, 3), 2)
    assert (res.status, res.nodes) == (NONE, 729)
    q43 = quadric(4, 3)
    budget = SearchBudget()
    assert vc2_dim(q43, 2, budget)[::2] == (1, FOUND) and budget.nodes == 26_248
    budget = SearchBudget(node_limit=1000)
    assert vc2_dim(q43, 2, budget)[::2] == (1, BOUND_ONLY) and budget.nodes == 1_004
    budget = SearchBudget()
    assert cap2_check(q43, budget)[::2] == (True, FOUND) and budget.nodes == 531_441


def test_fop2_at_k_3_searches_up_to_its_node_limit():
    # N^(2k-2) = 243^4 tuples is far beyond the limit, but the grid kernel
    # stops exactly at it: the search is spent, not refused with 0 nodes
    res = find_fop2(gs(5, 3), 3, SearchBudget(node_limit=5_000))
    assert (res.status, res.nodes, res.witness) == (BOUND_ONLY, 5_001, None)


def _grid_search_rows(A, node_limits=(50_000_000, 2_000)):
    """(name, node_limit, status, k, nodes, witness JSON) for the three
    grid-kernel searches under each node limit."""

    def vc2(b):
        k, w, status = vc2_dim(A, 2, b)
        return status, k, w

    def fop2(k):
        def run(b):
            res = find_fop2(A, k, b)
            return res.status, k, res.witness

        return run

    def cap2(b):
        ok, w, status = cap2_check(A, b)
        return status, ok, w

    rows = []
    for name, run in (("vc2_dim", vc2), ("find_fop2 k=1", fop2(1)), ("find_fop2 k=2", fop2(2)), ("cap2_check", cap2)):
        for limit in node_limits:
            budget = SearchBudget(node_limit=limit, time_limit=600.0)
            status, k, w = run(budget)
            rows.append([name, limit, status, k, budget.nodes, w.to_jsonable() if w else None])
    return rows


def test_search_fingerprint_matches_scalar_loops():
    # The digest was computed with the tuple-at-a-time loops that preceded the
    # grid kernel, over the benchmark's search subsets at seed 11: identical
    # verdicts, statuses, node counts and witnesses, also when a node limit
    # cuts a block.
    rng = np.random.default_rng(11)
    digest = hashlib.sha256()
    for p, n in ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3)):
        spec = GroupSpec(p, n)
        for density in (1 / 3, 1 / 2, 2 / 3):
            size = round(density * spec.order)
            for _ in range(8):
                ind = np.zeros(spec.order, dtype=bool)
                ind[rng.permutation(spec.order)[:size]] = True
                for row in _grid_search_rows(GroupSubset(spec, ind)):
                    digest.update(json.dumps(row, sort_keys=True).encode())
    assert digest.hexdigest() == "98af73e367a26be3bbbe954904897344ba7c05179257156d95d9120fb030f271"


def test_grid_kernel_without_sum_table_matches():
    # groups too large for GroupSpec.sum_table read sums from _sum_index_grid,
    # in the grid kernel and in the columns of the DFS searches alike
    limits = (50_000_000, 1_000, 37)

    def rows(A):
        return _grid_search_rows(A, limits) + _dfs_search_rows(A, limits) + _vc_dim_rows(A, limits)

    for p, n in ((3, 2), (3, 3), (5, 2), (3, 4)):
        plain = GroupSpec(p, n)
        for _ in range(3):
            ind = RNG.random(plain.order) < RNG.uniform(0.3, 0.7)
            want = rows(GroupSubset(plain, ind))
            bare = GroupSpec(p, n)
            bare.sum_table = lambda: None
            assert rows(GroupSubset(bare, ind)) == want


def _jsonable(w):
    return w.to_jsonable() if w is not None else None


def _dfs_search_rows(A, node_limits=(50_000_000, 2_000)):
    """(name, node_limit, status, k, nodes, witness JSON) for the staircase
    searches under each node limit."""
    rows = []
    searches = (("find_op", 2, find_op), ("find_op", 3, find_op), ("find_hop2", 1, find_hop2), ("find_hop2", 2, find_hop2))
    for name, k, run in searches:
        for limit in node_limits:
            budget = SearchBudget(node_limit=limit)
            res = run(A, k, budget)
            rows.append([name, limit, res.status, k, budget.nodes, _jsonable(res.witness)])
    return rows


def _vc_dim_rows(A, node_limits):
    """The same row for vc_dim at kmax 3 under each node limit."""
    rows = []
    for limit in node_limits:
        budget = SearchBudget(node_limit=limit)
        k, w, status = vc_dim(A, 3, budget)
        rows.append(["vc_dim", limit, status, k, budget.nodes, _jsonable(w)])
    return rows


def _fingerprint_reduced_pairs():
    """(reduced pair, side) for the pairs the good-copy tests build, plus a
    few random sets at eps 0.4 and 0.3."""
    from qfa.constructions import qgs

    A, F = qgs(6, 3)
    yield ReducedPair(A, QuadraticFactor(F.spec, [], F.matrices[:4]), 0.01), None
    _, F = qgs(4, 3)
    yield ReducedPair(GroupSubset(F.spec), QuadraticFactor(F.spec, [], F.matrices[:2]), 0.01), None
    sp = GroupSpec(3, 6)
    B = QuadraticFactor(sp, [sp.basis_vector(1), sp.basis_vector(2)], [trace_sym_space(6, 3)[0]])
    rp = ReducedPair(gs(6, 3), B, 0.05)
    yield rp, None
    yield rp, np.ones(rp.label_spec.order, dtype=bool)
    sp = GroupSpec(3, 4)
    B = QuadraticFactor(sp, [], [trace_sym_space(4, 3)[0]])
    rng = np.random.default_rng(9)
    for _ in range(4):
        yield ReducedPair(GroupSubset(sp, rng.random(sp.order) < 0.5), B, 0.4), None
    sp = GroupSpec(3, 3)
    F = QuadraticFactor(sp, [sp.basis_vector(1)], [np.eye(3, dtype=np.int64)])
    rng = np.random.default_rng(11)
    for _ in range(4):
        yield ReducedPair(GroupSubset(sp, rng.random(sp.order) < rng.uniform(0.15, 0.85)), F, 0.3), None


def _good_copy_rows():
    rows = []
    for rp, side in _fingerprint_reduced_pairs():
        for pattern, ks in (("H", (1, 2, 3)), ("U", (1, 2)), ("T", (1, 2))):
            for k in ks:
                for limit in (50_000_000, 2_000, 30):
                    budget = SearchBudget(node_limit=limit)
                    res = find_good_copy(rp, pattern, k, side, budget)
                    rows.append([pattern, k, limit, res.status, budget.nodes, _jsonable(res.witness)])
        rows.append(["count H", [count_good_copies_H(rp, k, side) for k in (1, 2)]])
    return rows


def _tree_rows():
    """_find_tree_encoding and count_tree_encodings on local sets of gs(6, 3)
    in cosets of a few subgroups, and affine embeddings into small sets."""
    from qfa.regularize import Subgroup, _find_tree_encoding

    sp = GroupSpec(3, 6)
    A = gs(6, 3)
    rows = []
    e1, e2 = sp.basis_vector(1), sp.basis_vector(2)
    for duals in ([], [e1], [e1, e2], [e1 + e2]):
        H = Subgroup(sp, duals)
        for y in (np.zeros(6, dtype=np.int64), sp.basis_vector(1), sp.basis_vector(6)):
            lab, ind = H.localized(A, y)
            loc = GroupSubset(lab, ind)
            for d in (1, 2):
                found = _find_tree_encoding(loc, d)
                if found is not None:
                    found = [sorted((str(key), i) for key, i in found[role].items()) for role in ("nodes", "leaves")]
                rows.append([len(duals), y.tolist(), d, found])
    rng = np.random.default_rng(13)
    for p, n in ((3, 2), (3, 3), (5, 2)):
        sp = GroupSpec(p, n)
        for _ in range(3):
            A = GroupSubset(sp, rng.random(sp.order) < rng.uniform(0.2, 0.8))
            Lm = GroupSubset(sp, rng.random(sp.order) < 0.8)
            Nm = GroupSubset(sp, rng.random(sp.order) < 0.8)
            for d, limit in itertools.product((1, 2), (50_000_000, 40)):
                budget = SearchBudget(node_limit=limit)
                try:
                    count = count_tree_encodings(A, d, Lm, Nm, budget)
                except CapacityError:  # the budget ran out
                    count = "over"
                rows.append(["count tree", d, limit, count, budget.nodes])
            H = GroupSpec(p, 1)
            for members in ([1], [0, 1], list(range(p - 1))):
                got = affine_embedding_exists((H, GroupSubset.from_indices(H, members)), (sp, A))
                rows.append(["embed", members, None if got is None else [got[0].tolist(), got[1].tolist()]])
    return rows


def test_dfs_searches_fingerprint_matches_hand_written_bodies():
    # The digests were computed with the separate DFS bodies that preceded
    # the shared engine on bitset columns (numpy masks in find_op, find_hop2,
    # find_good_copy and _find_tree_encoding): identical statuses, values,
    # node counts and witnesses, also when a node limit cuts the search.
    # The search digest holds find_op and find_hop2 only: pinning vc_dim's
    # a_1 at 0 cut its node counts, and test_oracles compares it with the
    # unpinned search instead.
    rng = np.random.default_rng(11)
    digest = hashlib.sha256()
    for p, n in ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3)):
        spec = GroupSpec(p, n)
        for density in (1 / 3, 1 / 2, 2 / 3):
            size = round(density * spec.order)
            for _ in range(8):
                ind = np.zeros(spec.order, dtype=bool)
                ind[rng.permutation(spec.order)[:size]] = True
                for row in _dfs_search_rows(GroupSubset(spec, ind)):
                    digest.update(json.dumps(row, sort_keys=True).encode())
    digests = {
        "search": digest.hexdigest(),
        "good copy": hashlib.sha256(json.dumps(_good_copy_rows(), sort_keys=True).encode()).hexdigest(),
        "tree": hashlib.sha256(json.dumps(_tree_rows(), sort_keys=True).encode()).hexdigest(),
    }
    assert digests == {
        "search": "fb5a6e78dc57a266a4d8177f392a9c8363399a6e2cc9632cb58a229b26966d6f",
        "good copy": "0a3a38e339fbf9fd6bcb9465f81e3a4a3b6023cba100a72302883bba2726e7e0",
        "tree": "83c1e6fe0c8a34b8e96e2460986854a68e58bec8c4ade647370c82b287a8c2ea",
    }


def test_cap2_violation_returns_cube():
    sp = GroupSpec(3, 2)
    for _ in range(50):
        A = GroupSubset(sp, RNG.random(9) < 0.6)
        ok, cube, st = cap2_check(A)
        if not ok:
            assert cube.revalidate()
            return
    pytest.fail("no violating cube found on dense random sets")


def test_cap2_agrees_with_staircase_search():
    sp = GroupSpec(3, 2)
    for _ in range(60):
        A = GroupSubset(sp, RNG.random(9) < RNG.uniform(0.2, 0.8))
        ok, _, _ = cap2_check(A)
        assert ok == (find_hop2(A, 2).status == NONE)


# --- tree encodings ---


def test_tree_count_trivial_zero_cases():
    sp = GroupSpec(3, 2)
    full = GroupSubset.full(sp)
    assert count_tree_encodings(GroupSubset(sp), 1, full, full) == 0
    assert count_tree_encodings(full, 1, full, full) == 0


def test_tree_count_matches_naive():
    sp = GroupSpec(3, 2)
    for _ in range(5):
        A = GroupSubset(sp, RNG.random(9) < RNG.uniform(0.2, 0.8))
        Lm = GroupSubset(sp, RNG.random(9) < 0.8)
        Nm = GroupSubset(sp, RNG.random(9) < 0.8)
        for d in (1, 2):
            assert count_tree_encodings(A, d, Lm, Nm) == count_tree_encodings_naive(A, d, Lm, Nm)


def test_tree_searches_raise_capacity_error_when_the_budget_runs_out():
    from qfa.regularize import _find_tree_encoding

    sp = GroupSpec(3, 2)
    A = GroupSubset(sp, np.random.default_rng(3).random(sp.order) < 0.5)
    full = GroupSubset.full(sp)
    assert _find_tree_encoding(A, 2) is not None
    with pytest.raises(CapacityError):
        _find_tree_encoding(A, 2, SearchBudget(node_limit=1))
    with pytest.raises(CapacityError):
        count_tree_encodings(A, 2, full, full, SearchBudget(node_limit=1))


def test_tree_depth_cap():
    sp = GroupSpec(3, 2)
    full = GroupSubset.full(sp)
    with pytest.raises(ValueError):
        count_tree_encodings(full, 4, full, full)


# --- staircase extraction ---


def test_extract_from_planted_depth6():
    sp = GroupSpec(3, 12)
    A, w = plant_tree_encoding(sp, 6, seed=1)
    out = hodges_extract(w, 1)
    assert out is not None and out.revalidate()


def test_extract_presentation_order_invariance():
    sp = GroupSpec(3, 12)
    A, w = plant_tree_encoding(sp, 6, seed=2)
    leaves = list(w.data["leaves"].items())
    nodes = list(w.data["nodes"].items())
    RNG.shuffle(leaves)
    RNG.shuffle(nodes)
    w2 = Witness("TREE", A, {"leaves": dict(leaves), "nodes": dict(nodes), "d": 6})
    out = hodges_extract(w2, 1)
    assert out is not None and out.revalidate()


def test_extract_with_adversarial_offbranch_extension():
    sp = GroupSpec(3, 12)
    A, w = plant_tree_encoding(sp, 6, seed=3)
    constrained = set()
    for s, h in w.data["nodes"].items():
        for e, g in w.data["leaves"].items():
            if len(s) < len(e) and e[: len(s)] == s:
                constrained.add(sp.index_of((np.asarray(h) + np.asarray(g)) % 3))
    ind = A.indicator.copy()
    extra = RNG.random(sp.order) < 0.3
    extra[sorted(constrained)] = False
    ind |= extra
    w_adv = Witness("TREE", GroupSubset(sp, ind), dict(w.data))
    assert w_adv.revalidate()
    out = hodges_extract(w_adv, 1)
    assert out is not None and out.revalidate()


def test_extract_rejects_invalid_encoding():
    sp = GroupSpec(3, 4)
    A, w = plant_tree_encoding(sp, 2, seed=5)
    bad = Witness("TREE", GroupSubset(sp), dict(w.data))
    assert hodges_extract(bad, 1) is None


def test_extract_depth2_staircase():
    sp = GroupSpec(3, 6)
    A, w = plant_tree_encoding(sp, 2, seed=4)
    out = hodges_extract(w, 2)
    assert out is not None and out.k == 2 and out.revalidate()


def test_extract_k3_guided():
    sp = GroupSpec(3, 10)
    A, w = plant_tree_encoding(sp, 4, seed=6)
    out = hodges_extract(w, 3)
    assert out is not None and out.revalidate()


# --- good copies ---


def test_good_copy_found_in_qgs_reduced_pair():
    from qfa.constructions import qgs

    A, F = qgs(6, 3)
    FD = QuadraticFactor(F.spec, [], F.matrices[:4])
    rp = ReducedPair(A, FD, 0.01)
    res = find_good_copy(rp, "H", 3)
    assert res.status == FOUND
    assert res.witness.revalidate()
    # the same staircase rebuilt as the qgs-good-copy check builds its own
    roles = {role: res.witness.data[role] for role in ("left", "right")}
    assert Witness("GOODCOPY", A, {**roles, "pattern": "H", "red": rp, "side": rp.H_B}, k=3).revalidate()


def test_good_copy_reads_labels_both_dense_and_sparse_as_sparse():
    # At eps >= 1/2 a label can be both dense and sparse.  The search, the
    # revalidation of its witnesses and rp.code must all read it as sparse.
    sp = GroupSpec(3, 4)
    F = QuadraticFactor(sp, [sp.basis_vector(1)], [trace_sym_space(4, 3)[0]])
    rng = np.random.default_rng(0xB07)
    for eps in (0.5, 0.6):
        both, found = 0, set()
        for _ in range(20):
            rp = ReducedPair(GroupSubset(sp, rng.random(sp.order) < 0.5), F, eps)
            if not (rp.A1 & rp.A0).any():
                continue
            both += 1
            neg, pos, _ = _good_copy_columns(rp)[0]  # bit s: the search's verdict on label s
            for s in range(rp.label_spec.order):
                assert rp.code[s] == (0 if neg >> s & 1 else 1 if pos >> s & 1 else 2)
            for pattern, k in itertools.product("HUT", (1, 2)):
                res = find_good_copy(rp, pattern, k)
                assert res.status == NONE or (res.status == FOUND and res.witness.revalidate())
                found |= {pattern} if res.status == FOUND else set()
        assert both >= 10 and found == set("HUT")


def test_good_copy_T_check_reads_every_cell():
    # One label code changed at a time: a branch sum keeps its side, and an
    # off-branch sum may be dense or sparse but never an error.
    sp = GroupSpec(3, 3)
    F = QuadraticFactor(sp, [sp.basis_vector(1)], [np.eye(3, dtype=np.int64)])
    rng = np.random.default_rng(5)
    off = []
    while not off:
        rp = ReducedPair(GroupSubset(sp, rng.random(sp.order) < 0.5), F, 0.3)
        w = find_good_copy(rp, "T", 2, np.ones(rp.label_spec.order, dtype=bool)).witness
        if w is None:
            continue
        cells = {}  # label of a node + leaf sum -> the codes its cells want, None off-branch
        for sigma, h in w.data["nodes"].items():
            for eta, g in w.data["leaves"].items():
                want = eta[len(sigma)] if len(sigma) < len(eta) and eta[: len(sigma)] == sigma else None
                cells.setdefault(rp.label_spec.index_of((h + g) % 3), set()).add(want)
        off = [s for s, wants in cells.items() if wants == {None}]
    for s, wants in cells.items():
        for code in (0, 1, 2):
            red = copy.copy(rp)
            red.code = rp.code.copy()
            red.code[s] = code
            ok = all(code < 2 if want is None else code == want for want in wants)
            assert Witness("GOODCOPY", rp.A, dict(w.data, red=red), k=2).revalidate() == ok, (s, code)


def test_good_copy_none_when_no_dense_atoms():
    from qfa.constructions import qgs

    _, F = qgs(4, 3)
    FD = QuadraticFactor(F.spec, [], F.matrices[:2])
    rp = ReducedPair(GroupSubset(F.spec), FD, 0.01)
    assert find_good_copy(rp, "H", 1).status == NONE


def test_good_copy_count_positive_for_layered_set():
    sp = GroupSpec(3, 6)
    mats = trace_sym_space(6, 3)
    B = QuadraticFactor(sp, [sp.basis_vector(1), sp.basis_vector(2)], [mats[0]])
    rp = ReducedPair(gs(6, 3), B, 0.05)
    full_side = np.ones(rp.label_spec.order, dtype=bool)
    assert count_good_copies_H(rp, 2, side=full_side) > 0


def test_good_copy_U_pattern_small():
    sp = GroupSpec(3, 4)
    mats = trace_sym_space(4, 3)
    B = QuadraticFactor(sp, [], [mats[0]])
    rng = np.random.default_rng(9)
    for _ in range(30):
        A = GroupSubset(sp, rng.random(sp.order) < 0.5)
        rp = ReducedPair(A, B, 0.4)
        res = find_good_copy(rp, "U", 1)
        if res.status == FOUND:
            return
    pytest.fail("no box-pattern copy found at eps = 0.4")


# --- affine embeddings ---


def test_affine_embedding_examples():
    h1 = GroupSpec(3, 1)
    g2 = GroupSpec(3, 2)
    A2 = gs(2, 3)
    got = affine_embedding_exists((h1, GroupSubset.from_indices(h1, [1])), (g2, A2))
    assert got is not None
    g, V = got
    for x in range(3):
        img = (np.asarray(g) + V @ np.array([x])) % 3
        assert A2.contains_index(g2.index_of(img)) == (x == 1)
    assert affine_embedding_exists((g2, A2), (g2, A2)) is not None
    assert (
        affine_embedding_exists((h1, GroupSubset.full(h1)), (g2, GroupSubset(g2))) is None
    )


# --- closure transforms ---


def test_transforms_on_found_witnesses():
    sp = GroupSpec(3, 3)
    seen = {"hop2": 0, "fop2": 0, "vc2": 0}
    for t in range(120):
        A = GroupSubset(sp, RNG.random(27) < RNG.uniform(0.25, 0.75))
        res = find_hop2(A, 2)
        if res.status == FOUND:
            assert complement_hop2_witness(res.witness).revalidate()
            assert hop2_to_op_witness(res.witness).revalidate()
            seen["hop2"] += 1
        if t % 4 == 0:
            resf = find_fop2(A, 2)
            if resf.status == FOUND:
                assert fop2_to_vc_witness(resf.witness).revalidate()
                seen["fop2"] += 1
            k2, w2, _ = vc2_dim(A, 2)
            if k2 == 2:
                assert vc2_to_fop2_witness(w2).revalidate()
                seen["vc2"] += 1
    assert min(seen.values()) > 0


def test_intersection_preserves_tameness():
    sp = GroupSpec(3, 2)
    B = quadric(2, 3, c=1)
    assert find_hop2(B, 2).status == NONE
    done = 0
    for _ in range(200):
        A = GroupSubset(sp, RNG.random(9) < 0.5)
        if find_hop2(A, 2).status == NONE:
            assert find_hop2(A.intersect(B), 2).status == NONE
            done += 1
    assert done > 10


def test_cap2_holds_for_arbitrary_quadric_level_sets():
    from qfa.constructions import quadric

    rng = np.random.default_rng(17)
    for n in (2, 3):
        for _ in range(4):
            M = rng.integers(0, 3, size=(n, n))
            M = (M + M.T) % 3
            c = int(rng.integers(0, 3))
            Q = quadric(n, 3, M, c)
            ok, cube, st = cap2_check(Q)
            assert ok and st == FOUND, (n, M.tolist(), c)


def test_union_closure_empirical_at_searchable_depths():
    # unions of two cube-auto-completing sets (quadric level sets) stay free
    # of deep staircases at the searchable depths; witnesses found at shallow
    # depth must revalidate, and verdicts must be definitive either way
    rng = np.random.default_rng(23)
    for n in (2, 3):
        sp = GroupSpec(3, n)
        for _ in range(6):
            M1 = rng.integers(0, 3, size=(n, n)); M1 = (M1 + M1.T) % 3
            M2 = rng.integers(0, 3, size=(n, n)); M2 = (M2 + M2.T) % 3
            A1 = quadric(n, 3, M1, int(rng.integers(0, 3)))
            A2 = quadric(n, 3, M2, int(rng.integers(0, 3)))
            A = GroupSubset(sp, A1.indicator | A2.indicator)
            for k in (2, 3):
                res = find_hop2(A, k)
                assert res.status in (FOUND, NONE)
                if res.witness is not None:
                    assert res.witness.revalidate()
