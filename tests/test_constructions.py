import hashlib

import numpy as np
import pytest

from qfa.core import GroupSpec, GroupSubset, matrix_rank, quad_values
from qfa.constructions import (
    _companions,
    _least_irreducible_companion,
    _rabin_irreducible,
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

# Outputs of the earlier construction by polynomial arithmetic mod f, pinned so
# that the companion-matrix construction stays bit-identical to it. Each polynomial is x^n + f_(n-1) x^(n-1) + ... + f_0, written
# as the digits f_0 f_1 ... f_(n-1).
LEAST_IRREDUCIBLE = {
    3: [
        "0", "10", "120", "2100", "12000", "210000", "2010000", "20100000", "101200000",
        "1020000000", "20100000000", "201000000000", "1200000000000", "21000000000000",
        "201000000000000",
    ],
    5: ["0", "20", "110", "2000", "14000", "210000", "1100000", "20000000"],
    7: ["0", "10", "200", "1100", "31000", "200000", "1600000", "31000000"],
}
TRACE_SPACE_SHA256 = {
    (1, 3): "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    (2, 3): "1db339d7793546e33dec14b9c41d1fd7840c6706ef00bef1917f8a2bd57b7f20",
    (3, 3): "f8fde6f1e12cb042d2fcf1016ffefa3be890c6fc5720441f33fed9fde414ced1",
    (4, 3): "5361fd7b69168b7df8d526b344e705253f4021e0c23de67e1df8d2883ffe4281",
    (5, 3): "402cae3f9697b054e700b7a7cb68053679fe8ccca88c1a2ff464acd10e2a26f8",
    (6, 3): "9a8d687c4fa537903242200de82777cf6a2b47352786c86a7fc9446e9f42ef6a",
    (7, 3): "062aace593da377f2a7822b610c01e12109e231de591b08e7c8b10b66f9f2502",
    (8, 3): "001ba3817fa8e3da11136388ee73a97b2fd549bb7123e8b3eed29db32ee52bb9",
    (9, 3): "6f9e8577376de98e558f1f9d5c83845710b2cc68d9da3ddbd96d8dd247221790",
    (10, 3): "34bcda1b3510639d42e5156e47b76c66495ee69eb0fe81a07b8fc9829085e254",
    (11, 3): "861df24b135cd4c58fa0c5ad94792d5651368b88585d8ebff6f4bb18755b10de",
    (12, 3): "ad60f374810b5dd804a12595380533de8b592adb27a45d1ee5d2ae22f51db342",
    (1, 5): "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    (2, 5): "1db339d7793546e33dec14b9c41d1fd7840c6706ef00bef1917f8a2bd57b7f20",
    (3, 5): "1a2bbe0438d12be28dae3e8523cde41a31f7eb2c44dbef8d277b12b88cad723b",
    (4, 5): "35ee7361744ed155bc816d61f8259579c48a57f8525ae4c11dad3f8235111780",
    (5, 5): "f833eb63e8391225b1eb875bee617b1784a68e0b64d97d1d17f33caa9dc4404e",
    (6, 5): "cd1d103dee624556df7c915a79de669339b4ddb3db2c62647fde024617cdeee1",
}


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


def _gauss_count(n, p):
    """Number of monic irreducibles of degree n over F_p:
    (1/n) sum_(d | n) mu(d) p^(n/d)."""

    def mobius(d):
        primes = [r for r in range(2, d + 1) if d % r == 0 and all(r % s for s in range(2, r))]
        return 0 if any(d % (r * r) == 0 for r in primes) else (-1) ** len(primes)

    return sum(mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("p,n", [(3, n) for n in range(1, 6)] + [(5, 1), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2), (13, 2)])
def test_rabin_test_counts_the_irreducibles(p, n):
    assert sum(_rabin_irreducible(C, p) for C in _companions(n, p)) == _gauss_count(n, p)


def test_least_irreducible_and_trace_space_are_pinned():
    for p, polys in LEAST_IRREDUCIBLE.items():
        for n, want in enumerate(polys, start=1):
            C = _least_irreducible_companion(n, p)
            assert "".join(map(str, (-C[:, -1]) % p)) == want, (n, p)
    for (n, p), want in TRACE_SPACE_SHA256.items():
        mats = np.array(trace_sym_space(n, p), dtype=np.int64)
        assert hashlib.sha256(mats.tobytes()).hexdigest() == want, (n, p)


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
