import numpy as np
import pytest

from qfa.core import GroupSpec, GroupSubset, matrix_rank, quad_values
from qfa.constructions import (
    first_nonzero,
    gs,
    qgs,
    quadric,
    sparse_example,
    tau,
    trace_sym_space,
    union_of_cosets,
    verify_gs_intersection,
)
from qfa.detectors import FOUND, find_op
from qfa.factors import AtomLabel, LinearFactor, QuadraticFactor, factor_rank, label_index_table, matrix_family_rank

RNG = np.random.default_rng(0xF0F2)


def test_gs_small_and_sizes():
    A = gs(2, 3)
    assert sorted(map(tuple, A.members().tolist())) == sorted(
        [(1, 0), (1, 1), (1, 2), (0, 1)]
    )
    for n in range(1, 9):
        assert len(gs(n, 3)) == (3**n - 1) // 2


def test_gs_membership_rule():
    for n in (2, 3, 4, 5, 6):
        A = gs(n, 3)
        sp = A.spec
        for i in range(sp.order):
            v = sp.vector_of(i)
            assert A.contains_index(i) == (v[first_nonzero(v) - 1] == 1)


def test_gs_shattered_triple_by_listed_translates():
    A = gs(3, 3)
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
    assert len(subsets) == 8


def test_trace_sym_space_full_rank():
    for n in (2, 3, 4, 5, 6):
        mats = trace_sym_space(n, 3)
        assert len(mats) == n
        assert matrix_family_rank(mats, 3) == n
    mats = trace_sym_space(2, 5)
    assert matrix_family_rank(mats, 5) == 2


def test_qgs_density_and_pieces():
    A, F = qgs(8, 3)
    assert 0.4 <= A.density() <= 0.6
    # Q_i(e_i): the forms before M_i vanish and x^T M_i x = 1
    sp = A.spec
    vals = quad_values(np.stack(F.matrices[:3]), sp)
    pieces = [GroupSubset(sp, (vals[: i - 1] == 0).all(axis=0) & (vals[i - 1] == 1)) for i in (1, 2, 3)]
    for i, piece in enumerate(pieces, start=1):
        assert abs(len(piece) / 3**8 - 3.0**-i) <= 3.0 ** (-4 + 1)
    assert len(pieces[0].intersect(pieces[1])) == 0


def test_qgs_prefixes_full_rank():
    for n in (4, 5, 6):
        _, F = qgs(n, 3)
        for i in range(1, n + 1):
            assert factor_rank(QuadraticFactor(F.spec, [], F.matrices[:i])) == n


def test_quadric_examples():
    assert len(quadric(3, 3)) == 9
    q2 = quadric(2, 3)
    assert len(q2) == 1 and [0, 0] in q2
    a = GroupSubset(GroupSpec(5, 2), quadric(2, 5, c=0).indicator | quadric(2, 5, c=1).indicator)
    assert len(a) > 0  # constructible; staircase search is a harness item


def test_first_nonzero_and_tau():
    assert first_nonzero([0, 0, 1]) == 3
    assert first_nonzero([1, 2, 0]) == 1
    assert first_nonzero([0, 0, 0]) == 3
    assert np.array_equal(tau(1, 1, [0, 0], 3), np.array([1, 0]))


def test_gs_intersections_random_pairs():
    for _ in range(500):
        b = RNG.integers(0, 3, size=3)
        c = RNG.integers(0, 3, size=3)
        if np.array_equal(b, c):
            continue
        res = verify_gs_intersection(b, c, 3, 3)
        assert all(ok for _, ok in res.values()), (b, c, res)


def test_gs_intersection_case_classification():
    # c_m - b_m = 1 puts the mixed intersection in the single-translate case
    res = verify_gs_intersection([0, 0, 0], [1, 2, 2], 3, 3)
    case, ok = res["mixed"]
    assert case == 1 and ok
    # exactly one case fires per family at p = 3
    for _ in range(100):
        b = RNG.integers(0, 3, size=3)
        c = RNG.integers(0, 3, size=3)
        if np.array_equal(b, c):
            continue
        res = verify_gs_intersection(b, c, 3, 3)
        assert res["mixed"][0] in (1, 2, 3)
        assert res["plus"][0] in (1, 2, 3)
        assert res["minus"][0] in (4, 5, 6)


def test_gs_intersections_larger_p():
    for _ in range(200):
        b = RNG.integers(0, 5, size=2)
        c = RNG.integers(0, 5, size=2)
        if np.array_equal(b, c):
            continue
        res = verify_gs_intersection(b, c, 2, 5)
        assert all(ok for _, ok in res.values())


def test_sparse_example_small():
    A = sparse_example(4, 3)
    got = sorted(map(tuple, A.members().tolist()))
    want = sorted(
        [(1, 0, 1, 0), (0, 1, 1, 0), (0, 1, 0, 1)]
    )
    assert got == want
    assert len(A) == 3


def test_sparse_example_span_bound():
    A = sparse_example(8, 3)
    members = A.members()
    import itertools

    for r in range(1, 9):
        for combo in itertools.combinations(range(len(members)), r):
            X = members[list(combo)]
            assert matrix_rank(X, 3) >= np.sqrt(r) - 1e-12


def test_sparse_example_instability():
    A = sparse_example(6, 3)
    res = find_op(A, 2)
    assert res.status == FOUND and res.witness.revalidate()


def test_union_of_cosets_and_atoms():
    sp = GroupSpec(3, 3)
    H = LinearFactor(sp, [sp.basis_vector(1)])
    one = union_of_cosets(H, [np.zeros(3, dtype=np.int64)])
    assert len(one) == 9
    two = union_of_cosets(H, [np.zeros(3, dtype=np.int64), sp.basis_vector(1)])
    assert len(two) == 18
    B = QuadraticFactor(sp, [], [np.eye(3, dtype=np.int64)])
    labels = [AtomLabel([], [0]).index(3), AtomLabel([], [1]).index(3)]
    u = GroupSubset(sp, np.isin(label_index_table(B), labels))
    assert len(u) == len(quadric(3, 3)) + len(quadric(3, 3, c=1))


def test_coset_unions_are_tame():
    from qfa.detectors import NONE, find_hop2

    sp = GroupSpec(3, 3)
    H = LinearFactor(sp, [sp.basis_vector(1)])
    one = union_of_cosets(H, [np.zeros(3, dtype=np.int64)])
    assert find_op(one, 2).status == NONE
    two = union_of_cosets(H, [np.zeros(3, dtype=np.int64), sp.basis_vector(1)])
    assert find_hop2(two, 2).status == NONE


def test_sparse_example_requires_even_dimension():
    with pytest.raises(ValueError):
        sparse_example(5, 3)


def test_three_ap_cosets_search_is_permitted():
    # three cosets in arithmetic progression at p = 5: the depth-2 staircase
    # search may find a witness (recorded, no assertion on the outcome)
    from qfa.detectors import BOUND_ONLY, find_hop2

    sp = GroupSpec(5, 2)
    H = LinearFactor(sp, [sp.basis_vector(1)])
    A = union_of_cosets(
        H,
        [np.zeros(2, dtype=np.int64), sp.basis_vector(1), 2 * sp.basis_vector(1)],
    )
    res = find_hop2(A, 2)
    assert res.status != BOUND_ONLY
    if res.witness is not None:
        assert res.witness.revalidate()
