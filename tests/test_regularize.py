import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfa.core import GroupSpec, GroupSubset
from qfa.constructions import gs, quadric, trace_sym_space, union_of_cosets
from qfa.detectors import hodges_extract
from qfa.factors import AtomLabel, LinearFactor, QuadraticFactor, label_index_table
from qfa.regularize import (
    FactorChain,
    GrowthFunction,
    Subgroup,
    aqale_check,
    factor_chain_check,
    find_dense_subspace,
    find_uniform_dense_coset,
    local_uniformity,
    stable_linear_decomposition,
)
from support import atomicity_check, brute_quad_atomize, refinement_stability_check

RNG = np.random.default_rng(0xF0F2)


def test_atomicity_union_of_atoms_is_atomic():
    sp = GroupSpec(3, 4)
    mats = trace_sym_space(4, 3)
    F = QuadraticFactor(sp, [], [mats[0]])
    A = GroupSubset(sp, label_index_table(F) == AtomLabel([], [1]).index(3))
    v = atomicity_check(F, A, 1e-9)
    assert v.error_count == 0 and v.error_mass == 0


def test_atomicity_gs_zero_coset_interval():
    sp = GroupSpec(3, 6)
    A = gs(6, 3)
    for vecs in ([sp.basis_vector(2)], [sp.basis_vector(1), sp.basis_vector(4)]):
        L = LinearFactor(sp, vecs)
        v = atomicity_check(L, A, 1 / 3)
        assert v.cell_densities[0] >= 1 / 3 and v.cell_densities[0] <= 2 / 3
        assert v.error_count > 0


def test_aqale_fails_on_quadratic_layered_example():
    from qfa.constructions import qgs

    sp = GroupSpec(3, 6)
    A, F = qgs(6, 3)
    e = sp.basis_vector
    battery = [
        ([], F.matrices[:1]),
        ([e(1)], F.matrices[:2]),
        ([e(3), e(4)], [F.matrices[1], F.matrices[2]]),
    ]
    for lin, mats in battery:
        B = QuadraticFactor(sp, lin, mats)
        passed, bad, _ = aqale_check(B, A, 1 / 6, 10.0)
        assert len(bad) == 3**B.ell


def test_aqale_passes_on_atom_union():
    sp = GroupSpec(3, 4)
    mats = trace_sym_space(4, 3)
    F = QuadraticFactor(sp, [sp.basis_vector(1)], [mats[0]])
    A = GroupSubset(sp, label_index_table(F) == AtomLabel([1], [2]).index(3))
    passed, bad, _ = aqale_check(F, A, 0.01, 0.0)
    assert passed and not bad


def test_refinement_stability():
    sp = GroupSpec(3, 6)
    coarse = LinearFactor(sp, [sp.basis_vector(1)])
    fine = LinearFactor(sp, [sp.basis_vector(1), sp.basis_vector(2)])
    A = union_of_cosets(coarse, [np.zeros(6, dtype=np.int64)])
    # 0-atomic coarse stays atomic under refinement
    assert refinement_stability_check(coarse, fine, A, 1e-9, 0.01)
    # degenerate fine = coarse gives identical verdicts
    assert refinement_stability_check(coarse, coarse, A, 1e-9, 0.01)
    assert refinement_stability_check(coarse, fine, gs(6, 3), 0.2, 0.01)
    with pytest.raises(ValueError):
        refinement_stability_check(fine, coarse, A, 0.1, 0.01)


def test_uniform_coset_trivial_and_subgroup_inputs():
    sp = GroupSpec(3, 6)
    H = Subgroup(sp, [])
    _, _, stats = find_uniform_dense_coset(GroupSubset.full(sp), H, 0.4)
    assert stats["codim"] == 0 and stats["density"] == 1.0
    A0 = GroupSubset(sp, sp.digits[:, 0] == 0)
    _, _, stats = find_uniform_dense_coset(A0, H, 0.4)
    assert stats["density"] >= 1 / 3 and stats["codim"] <= 5


def test_uniform_coset_random_inputs_postconditions():
    sp = GroupSpec(3, 6)
    for t in range(30):
        eps = (0.2, 0.3, 0.5)[t % 3]
        A = GroupSubset(sp, RNG.random(sp.order) < RNG.uniform(0.1, 0.9))
        # the three postconditions are asserted inside
        find_uniform_dense_coset(A, Subgroup(sp, []), eps)


def test_uniform_coset_postconditions_survive_optimize(run_optimized):
    # The walk reuses its last coefficient when it stops at eps, so only a
    # walk that runs out of steps takes local_uniformity: here every
    # coefficient reads 1.0, and three steps (floor(2 / 0.9) + 1) use up
    # F_3^3.  Its uniformity is checked first, then its codimension.
    walk = (
        "import numpy as np\n"
        "from qfa import regularize as reg\n"
        "from qfa.core import GroupSpec, GroupSubset\n"
        "assert False, 'asserts are live'\n"
        "top = reg._top_character\n"
        "reg._top_character = lambda A, H, y: top(A, H, y) and (np.eye(H.dim, dtype=np.int64)[0], 1.0)\n"
        "{}"
        "sp = GroupSpec(3, 3)\n"
        "reg.find_uniform_dense_coset(GroupSubset.full(sp), reg.Subgroup(sp, []), 0.9)\n"
    )
    for patch, message in (
        ("reg.local_uniformity = lambda A, H, y: 1.0\n", "returned coset is not uniform"),
        ("", "codimension bound violated"),
    ):
        out = run_optimized(walk.format(patch))
        assert out.returncode != 0
        assert f"AssertionError: {message}" in out.stderr, out.stderr


def test_uniform_coset_inside_proper_subgroup():
    sp = GroupSpec(3, 6)
    H = Subgroup(sp, [sp.basis_vector(1)])
    A = GroupSubset(sp, RNG.random(sp.order) < 0.5)
    Hp, y, stats = find_uniform_dense_coset(A, H, 0.3)
    assert Hp.dim <= H.dim and stats["uniformity"] <= 0.3
    assert stats["uniformity"] == local_uniformity(A, Hp, y)  # the walk's last coefficient


def test_dense_subspace_cases():
    sp = GroupSpec(3, 6)
    H = Subgroup(sp, [])
    res = find_dense_subspace(GroupSubset.full(sp), H, 0.2, 1)
    assert res[0] == "dense"
    A0 = GroupSubset(sp, sp.digits[:, 0] == 0)
    res = find_dense_subspace(A0, H, 0.2, 1)
    assert res[0] == "dense" and res[3]["density"] >= 0.8
    assert find_dense_subspace(gs(6, 3), H, 0.1, 1)[0] == "dense"
    with pytest.raises(ValueError):
        find_dense_subspace(GroupSubset(sp), H, 0.2, 1)
    for d in (0, 4):
        with pytest.raises(ValueError, match="tree depth"):
            find_dense_subspace(GroupSubset.full(sp), H, 0.2, d)


def test_dense_subspace_evidence_branch():
    # a symmetric random set at density ~1/2 admits no dense subspace of
    # small codimension, so the dichotomy must exhibit encodings
    sp = GroupSpec(3, 6)
    A = GroupSubset(sp, RNG.random(sp.order) < 0.5)
    res = find_dense_subspace(A, Subgroup(sp, []), 0.1, 1)
    assert res[0] == "evidence" and len(res) == 2
    assert res[1].kind == "TREE" and res[1].data["d"] == 1 and res[1].revalidate()
    # its staircase of length d = 1; longer ones run the guided search (test_detectors)
    assert hodges_extract(res[1], 1).revalidate()


def test_dense_subspace_lets_a_real_memory_error_through(monkeypatch):
    # only a cap or a spent budget (CapacityError) skips the encoding evidence
    import qfa.detectors as det

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(det, "_dfs", out_of_memory)
    sp = GroupSpec(3, 6)
    A = GroupSubset(sp, np.random.default_rng(5).random(sp.order) < 0.5)
    with pytest.raises(MemoryError):
        find_dense_subspace(A, Subgroup(sp, []), 0.1, 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dense_subspace_searches_once_per_round(d):
    # each round runs one tree search and no encoding count, so every depth
    # up to 3 answers within a fraction of the 5 s bound
    sp = GroupSpec(3, 6)
    A = GroupSubset(sp, np.random.default_rng(0).random(sp.order) < 0.5)
    t0 = time.monotonic()
    res = find_dense_subspace(A, Subgroup(sp, []), 0.1, d)
    assert time.monotonic() - t0 < 5.0
    assert res[0] == "evidence" and res[1].data["d"] == d and res[1].revalidate()


def test_stable_decomposition_coset_input():
    sp = GroupSpec(3, 8)
    L0 = LinearFactor(sp, [sp.basis_vector(1), sp.basis_vector(2)])
    A = union_of_cosets(L0, [np.zeros(8, dtype=np.int64), sp.basis_vector(1)])
    res = stable_linear_decomposition(A, eps=0.1, max_codim=4)
    assert res["verdict"].error_count == 0
    assert res["H"].codim <= 2
    assert all(factor_chain_check(res["chain"], A).values())


def test_stable_decomposition_three_cosets():
    sp = GroupSpec(3, 8)
    L0 = LinearFactor(sp, [sp.basis_vector(3), sp.basis_vector(6)])
    A = union_of_cosets(
        L0, [np.zeros(8, dtype=np.int64), sp.basis_vector(3), 2 * sp.basis_vector(6)]
    )
    res = stable_linear_decomposition(A, eps=0.1, max_codim=4)
    assert res["verdict"].error_count == 0 and res["H"].codim <= 2


def test_stable_decomposition_empty_input():
    sp = GroupSpec(3, 6)
    res = stable_linear_decomposition(GroupSubset(sp), eps=0.1, max_codim=4)
    assert res["H"].codim == 0 and res["verdict"].error_count == 0


def test_stable_decomposition_eps_zero_and_negative():
    # at eps = 0 the walk may refine down to points, which are never errors;
    # a negative eps makes every cell an error and is refused
    sp = GroupSpec(3, 3)
    A = GroupSubset(sp, np.random.default_rng(3).random(sp.order) < 0.5)
    res = stable_linear_decomposition(A, eps=0.0, max_codim=3)
    assert res["verdict_strong"].error_count == 0 and all(factor_chain_check(res["chain"], A).values())
    for eps in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="non-negative"):
            stable_linear_decomposition(A, eps=eps)


def test_stable_decomposition_layered_set_error_decay():
    res = stable_linear_decomposition(gs(8, 3), eps=0.1, max_codim=6)
    fractions = [h["error_fraction"] for h in res["history"]]
    assert min(fractions) <= 0.2
    assert res["history"][-1]["codim"] <= 6


def test_engine_determinism():
    A = gs(6, 3)
    r1 = stable_linear_decomposition(A, eps=0.1, max_codim=4)
    r2 = stable_linear_decomposition(A, eps=0.1, max_codim=4)
    assert [h["error_fraction"] for h in r1["history"]] == [
        h["error_fraction"] for h in r2["history"]
    ]
    d1 = [v.tolist() for v in r1["H"].duals]
    d2 = [v.tolist() for v in r2["H"].duals]
    assert d1 == d2


def test_factor_chain_degenerate_and_forged():
    sp = GroupSpec(3, 4)
    L = LinearFactor(sp, [sp.basis_vector(1)])
    A = union_of_cosets(L, [np.zeros(4, dtype=np.int64)])
    table = label_index_table(L)
    chain = FactorChain(0.1, 4, L.complexity, GrowthFunction("0"), GrowthFunction("0"))
    chain.add_base(L)
    chain.add_step(L, [1, 2], [0], [])  # degenerate step, perfect atomicity
    chk = factor_chain_check(chain, A)
    assert all(chk.values())
    # forged dense label on a half-density cell must fail the accuracy check
    half = GroupSubset(sp, (table == 0) | ((table == 1) & (sp.digits[:, 1] == 0)))
    forged = FactorChain(0.1, 4, L.complexity, GrowthFunction("0"), GrowthFunction("0"))
    forged.add_base(L)
    forged.add_step(L, [2], [0, 1], [])
    chk = factor_chain_check(forged, half)
    assert not chk["accuracy"]


def test_brute_atomizer_examples():
    Q = quadric(3, 3)
    B = brute_quad_atomize(Q, 1e-9)
    assert B is not None and B.complexity == (0, 1)
    assert atomicity_check(B, Q, 1e-9).error_count == 0
    B = brute_quad_atomize(GroupSubset(GroupSpec(3, 3)), 1e-9)
    assert B is not None and B.complexity == (0, 0)
    # layered set: record whatever minimal complexity comes out (no claim)
    out = brute_quad_atomize(gs(3, 3), 0.1)
    assert out is None or sum(out.complexity) <= 5


def test_growth_function_validation():
    assert GrowthFunction("0")(5) == 0
    assert GrowthFunction("2*x")(4) == 8
    with pytest.raises(ValueError):
        GrowthFunction("-x")
    for formula in ("9**9**9", "1/x", "x**x**x", "0**-1"):
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="unsupported growth-function formula"):
            GrowthFunction(formula)
        assert time.monotonic() - t0 < 1.0
    assert GrowthFunction("x//2")(5) == 2
    assert repr(GrowthFunction("x^2")) == "GrowthFunction('x**2')"


def _coset_reference(H, y):
    """y + H enumerated by the basis coordinates, by digit arithmetic; one
    row per y for a stack of them."""
    sp = H.spec
    coords = GroupSpec(sp.p, H.dim).digits.astype(np.int64) if H.dim else np.zeros((1, 0), dtype=np.int64)
    return sp.indices_of((coords @ H.basis + np.asarray(y)[..., None, :]) % sp.p)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([3, 5]), st.integers(1, 5), st.integers(0, 5))
def test_coset_indices_match_digit_arithmetic(data, p, n, m):
    entries = st.integers(0, p - 1)
    H = Subgroup(GroupSpec(p, n), list(data.draw(arrays(np.int64, (m, n), elements=entries))))
    ys = data.draw(arrays(np.int64, (3, n), elements=entries))
    assert np.array_equal(H.coset_indices(ys[0]), _coset_reference(H, ys[0]))
    assert np.array_equal(H.coset_indices(ys), _coset_reference(H, ys))


def test_coset_indices_along_uniform_coset_walk(monkeypatch):
    calls = []
    coset_indices = Subgroup.coset_indices

    def checked(self, y):
        got = coset_indices(self, y)
        assert np.array_equal(got, _coset_reference(self, y))
        calls.append(self.dim)
        return got

    monkeypatch.setattr(Subgroup, "coset_indices", checked)
    sp = GroupSpec(3, 6)
    rng = np.random.default_rng(7)
    for t in range(6):
        # a noisy coset of codimension 2, so that the walk refines
        coset = ((sp.digits @ rng.integers(0, 3, (sp.n, 2))) % 3 == 0).all(axis=1)
        A = GroupSubset(sp, coset ^ (rng.random(sp.order) < 0.02 * t))
        find_uniform_dense_coset(A, Subgroup(sp, []), (0.05, 0.1)[t % 2])
    assert min(calls) < sp.n - 1  # some walk refined at least twice


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([3, 5]), st.integers(1, 8), st.integers(0, 8))
def test_refined_adds_a_dual_that_restricts_to_t(data, p, n, m):
    entries = st.integers(0, p - 1)
    H = Subgroup(GroupSpec(p, n), list(data.draw(arrays(np.int64, (m, n), elements=entries))))
    t = data.draw(arrays(np.int64, H.dim, elements=entries))
    v = H.refined(t).duals[-1]
    assert np.array_equal((H.basis @ v) % p, t)
