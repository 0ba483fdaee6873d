import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfa import core, uniformity
from qfa.core import CapacityError, GroupSpec, GroupSubset, ShapeError, dft
from qfa.constructions import gs, trace_sym_space
from qfa.factors import AtomLabel, LinearFactor, QuadraticFactor, atom_members, label_index_table, label_values
from qfa.uniformity import (
    ReducedPair,
    TriadDescriptor,
    beta_graph,
    density_transfer_check,
    dev23_measure,
    dev2_measure,
    dev2_naive,
    k222_count,
    oct_measure,
    oct_naive,
    oct_sum,
    sigma,
    triad_graphs,
    triad_membership_check,
    u2_norm,
    u3_norm,
    u3_norm_naive,
)
from support import gowers_inner, hom_count_check, hypergraph_decomposition_check

RNG = np.random.default_rng(0xF0F2)


def test_u2_constants_and_phases():
    sp = GroupSpec(3, 4)
    assert abs(u2_norm(np.ones(sp.order), sp) - 1) < 1e-9
    r = np.array([1, 2, 0, 1])
    phase = np.exp(2j * np.pi * ((sp.digits.astype(np.int64) @ r) % 3) / 3)
    assert abs(u2_norm(phase, sp) - 1) < 1e-9


def test_u2_equals_fourier_fourth_moment():
    sizes = [(3, n) for n in range(1, 9)] + [(5, n) for n in range(1, 5)] + [(7, n) for n in range(1, 4)]
    for p, n in sizes:
        sp = GroupSpec(p, n)
        for f in (
            RNG.uniform(-1, 1, sp.order),
            RNG.uniform(-1, 1, sp.order) + 1j * RNG.uniform(-1, 1, sp.order),
        ):
            lhs = u2_norm(f, sp) ** 4
            rhs = float((np.abs(dft(f, sp)) ** 4).sum())
            assert abs(lhs - rhs) < 1e-9, (p, n)


def test_u2_builds_no_table_larger_than_the_group(traced_peak):
    sp = GroupSpec(61, 3)  # the p^(2*ceil(n/2)) addition table would be 106 MB
    f = np.random.default_rng(3).uniform(-1, 1, sp.order)
    got, peak = traced_peak(lambda: u2_norm(f, sp))
    assert peak < 20 * 2**20
    assert abs(got**4 - float((np.abs(dft(f, sp)) ** 4).sum())) < 1e-12


def _u2_brute_force(f, sp):
    """E_h |E_x f(x) conj f(x+h)|^2, one translation at a time via add_perm."""
    total = 0.0
    for h in range(sp.order):
        g = np.mean(f * np.conj(f[sp.add_perm(h)]))
        total += abs(g) ** 2
    return (total / sp.order) ** 0.25


def test_u2_norm_reaches_neither_the_dft_kernel_nor_a_numpy_fft(monkeypatch):
    """u2_norm is the independent side of `u2-fourier-identity`: with the
    character-table kernel and numpy's FFTs made to raise, it still matches
    the brute-force correlation, and the check still fails when the Fourier
    side it is compared with is perturbed."""
    from qfa import core, suites

    kernel = core._character_sums

    def tripwire(*args, **kwargs):
        raise AssertionError("reached a Fourier kernel")

    monkeypatch.setattr(core, "_character_sums", tripwire)
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, tripwire)
    with pytest.raises(AssertionError, match="Fourier kernel"):
        dft(np.ones(9), GroupSpec(3, 2))
    rng = np.random.default_rng(11)
    for p, n in ((3, 1), (3, 2), (3, 4), (5, 2), (7, 2), (67, 1)):
        sp = GroupSpec(p, n)
        f = rng.uniform(-1, 1, sp.order) + 1j * rng.uniform(-1, 1, sp.order)
        assert abs(u2_norm(f, sp) - _u2_brute_force(f, sp)) < 1e-9
    # the Fourier side runs the saved kernel, scaled by 1.001
    monkeypatch.setattr(uniformity, "dft", lambda f, sp: kernel(f, sp, -1) * (1.001 / sp.order))
    assert suites._check_u2_fourier({"seed": 0}).status == "FAIL"


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]).flatmap(
        lambda pn: st.tuples(
            st.just(pn),
            st.lists(
                st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
                min_size=pn[0] ** pn[1],
                max_size=pn[0] ** pn[1],
            ),
        )
    )
)
def test_u2_matches_brute_force_correlation(case):
    (p, n), values = case
    sp = GroupSpec(p, n)
    f = np.array(values, dtype=complex)
    assert abs(u2_norm(f, sp) - _u2_brute_force(f, sp)) < 1e-9


def test_u3_quadratic_phase_and_naive_oracle():
    for n in (1, 2, 3):
        sp = GroupSpec(3, n)
        qv = np.einsum("ij,ij->i", sp.digits.astype(np.int64), sp.digits.astype(np.int64)) % 3
        f = np.exp(2j * np.pi * qv / 3)
        assert abs(u3_norm(f, sp) - 1) < 1e-9
    sp = GroupSpec(3, 2)
    f = RNG.standard_normal(sp.order)
    assert abs(u3_norm(f, sp) - u3_norm_naive(f, sp)) < 1e-9


def test_norm_nesting():
    sp = GroupSpec(3, 4)
    for _ in range(20):
        f = RNG.uniform(-1, 1, sp.order)
        assert u2_norm(f, sp) <= u3_norm(f, sp) + 1e-9


def test_gowers_cauchy_schwarz():
    sp = GroupSpec(3, 2)
    for _ in range(10):
        fs = [RNG.uniform(-1, 1, sp.order) for _ in range(8)]
        gi = gowers_inner(fs, sp)
        bound = np.prod([u3_norm(f, sp) for f in fs])
        assert abs(gi) <= bound + 1e-7
    f = RNG.uniform(-1, 1, sp.order)
    assert abs(gowers_inner([f] * 8, sp) - u3_norm(f, sp) ** 8) < 1e-9


def test_sum_graphs():
    sp = GroupSpec(3, 2)
    A = GroupSubset.from_members(sp, [[0, 0]])
    idx = list(range(sp.order))
    m = uniformity._sum_membership_tensor(A, idx, idx)
    # edge iff y = -x: a perfect matching
    assert m.sum(axis=1).tolist() == [1] * sp.order


def test_sum_graph_kernels_match_digit_arithmetic():
    # odd and even n, so both the split halves and the odd coordinate are read
    from qfa.uniformity import _bilin_matrix, _sum_membership_tensor

    for p, nmax in ((3, 7), (5, 4), (7, 3)):
        for n in range(1, nmax + 1):
            sp = GroupSpec(p, n)
            A = GroupSubset(sp, RNG.random(sp.order) < 0.5)
            X, Y, Z = (RNG.integers(0, sp.order, size=k) for k in (9, 11, 5))
            D = sp.digits.astype(np.int64)
            add = lambda *idx: sp.indices_of(sum(D[i] for i in idx))
            want = np.array([[A.indicator[add(x, y)] for y in Y] for x in X])
            assert np.array_equal(_sum_membership_tensor(A, X, Y), want)
            want3 = np.array([[[A.indicator[add(x, y, z)] for z in Z] for y in Y] for x in X])
            assert np.array_equal(_sum_membership_tensor(A, X, Y, Z), want3)
            W = Y[:3]
            want4 = np.array([[[[A.indicator[add(x, y, z, w)] for w in W] for z in Z] for y in Y] for x in X])
            assert np.array_equal(_sum_membership_tensor(A, X, Y, Z, W), want4)
            M = (lambda m: (m + m.T) % p)(RNG.integers(0, p, size=(n, n)))
            F = QuadraticFactor(sp, [], [M])
            want_b = np.array([[D[x] @ M @ D[y] % p for y in Y] for x in X])
            got = _bilin_matrix(F, X, Y)
            assert got.dtype.kind == "u" and np.array_equal(got[0], want_b)


def test_sum_graph_density_transfer_linear():
    # density of the pair graph on (H+g1) x (H+g2) equals the density of A
    # on H + g1 + g2, exactly
    sp = GroupSpec(3, 4)
    A = GroupSubset(sp, RNG.random(sp.order) < 0.4)
    H = LinearFactor(sp, [sp.basis_vector(1)])
    table = label_index_table(H)
    for g1 in (0, 1):
        for g2 in (0, 2):
            X = np.nonzero(table == g1)[0]
            Y = np.nonzero(table == g2)[0]
            m = uniformity._sum_membership_tensor(A, X, Y)
            coset = np.nonzero(table == (g1 + g2) % 3)[0]
            assert abs(m.mean() - A.indicator[coset].mean()) < 1e-12


def test_descriptor_from_flat_layout():
    sp = GroupSpec(3, 3)
    F = QuadraticFactor(sp, [sp.basis_vector(1)], [np.eye(3, dtype=np.int64), np.ones((3, 3), dtype=np.int64)])
    flat = np.arange(15) % 3  # (a1 b1, a2 b2, a3 b3, b12, b13, b23) with ell = 1, q = 2
    d = TriadDescriptor.from_flat(F, flat)
    assert [a.tolist() for a in d.a_parts] == [[0], [0], [0]]
    assert [b.tolist() for b in d.b_parts] == [[1, 2], [1, 2], [1, 2]]
    assert [b.tolist() for b in d.b_cross] == [[0, 1], [2, 0], [1, 2]]
    d = TriadDescriptor.from_flat(F, flat[:8])  # (a1 b1, a2 b2, b12)
    assert d.kind == 2 and [b.tolist() for b in d.b_cross] == [[0, 1]]
    with pytest.raises(ShapeError):
        TriadDescriptor.from_flat(F, flat[:9])


def test_descriptor_atoms_match_atom_members():
    sp = GroupSpec(3, 5)
    mats = trace_sym_space(5, 3)
    F = QuadraticFactor(sp, [sp.basis_vector(1)], [mats[0]])
    for flat in np.random.default_rng(5).integers(0, 3, size=(8, 9)):
        d = TriadDescriptor.from_flat(F, flat)
        assert d.atoms() == [atom_members(F, lab) for lab in d.atom_labels()]
        assert d.atom(sigma(d)) == atom_members(F, sigma(d))


def test_sigma_examples():
    sp = GroupSpec(3, 5)
    mats = trace_sym_space(5, 3)
    F = QuadraticFactor(sp, [], [mats[0]])
    d = TriadDescriptor(F, [[], [], []], [[1], [1], [1]], [[1], [1], [1]])
    assert sigma(d).quadratic_part == (0,)  # (1+1+1+2+2+2) mod 3
    F2 = QuadraticFactor(sp, [sp.basis_vector(1)], [mats[0]])
    d0 = TriadDescriptor(F2, [[0], [0], [0]], [[0], [0], [0]], [[0], [0], [0]])
    assert sigma(d0).combined() == (0, 0)


def test_triad_membership_small():
    for n in (3, 4):
        sp = GroupSpec(3, n)
        mats = trace_sym_space(n, 3)
        F = QuadraticFactor(sp, [sp.basis_vector(1)], [mats[0]])
        assert triad_membership_check(F)


@pytest.mark.parametrize("part", ["quadratic", "linear"])
def test_triad_membership_detects_a_corrupted_label(part, monkeypatch):
    sp = GroupSpec(3, 3)
    F = QuadraticFactor(sp, [sp.basis_vector(1)], [trace_sym_space(3, 3)[0]])
    vals = label_values(F)
    row = F.ell if part == "quadratic" else 0
    vals[row, 5] = (vals[row, 5] + 1) % 3
    monkeypatch.setattr(uniformity, "label_values", lambda factor: vals)
    assert not triad_membership_check(F)


def test_dev2_trivial_and_oracle():
    assert dev2_measure(np.ones((5, 7), dtype=bool))[0] == 0
    assert dev2_measure(np.zeros((5, 7), dtype=bool))[0] == 0
    for _ in range(5):
        e = RNG.random((int(RNG.integers(3, 20)), int(RNG.integers(3, 20)))) < 0.4
        assert abs(dev2_measure(e)[0] - dev2_naive(e)) < 1e-9


def test_oct_oracle():
    for _ in range(3):
        h = RNG.uniform(-1, 1, (6, 5, 7))
        assert abs(oct_sum(h) - oct_naive(h)) < 1e-8


def _dev2_loop(edges):
    nx, ny = edges.shape
    g = edges.astype(np.float64) - edges.mean()
    total = 0.0
    for x0 in range(nx):
        for x1 in range(nx):
            for y0 in range(ny):
                for y1 in range(ny):
                    total += g[x0, y0] * g[x0, y1] * g[x1, y0] * g[x1, y1]
    return total / (nx**2 * ny**2)


def _oct_loop(h):
    U, V, W = h.shape
    total = 0.0
    for u0, u1, v0, v1, w0, w1 in itertools.product(range(U), range(U), range(V), range(V), range(W), range(W)):
        total += (
            h[u0, v0, w0] * h[u0, v0, w1] * h[u0, v1, w0] * h[u0, v1, w1]
            * h[u1, v0, w0] * h[u1, v0, w1] * h[u1, v1, w0] * h[u1, v1, w1]
        )
    return total


def test_naive_oracles_equal_literal_loops():
    rng = np.random.default_rng(6)
    for shape in itertools.product((1, 2, 4), repeat=3):
        h = rng.uniform(-1, 1, shape)
        assert abs(oct_naive(h) - _oct_loop(h)) < 1e-12
        e = rng.random(shape[:2]) < 0.5
        assert abs(dev2_naive(e) - _dev2_loop(e)) < 1e-12


def test_naive_oracle_caps_raise_capacity_error():
    with pytest.raises(CapacityError):
        dev2_naive(np.zeros((25, 3), dtype=bool))
    with pytest.raises(CapacityError):
        oct_naive(np.zeros((3, 9, 3)))
    sp = GroupSpec(3, 5)
    with pytest.raises(CapacityError):
        u3_norm_naive(np.ones(sp.order), sp)


def test_beta_graph_dev2_trace_factor():
    sp = GroupSpec(3, 6)
    mats = trace_sym_space(6, 3)
    F = QuadraticFactor(sp, [], [mats[0]])
    a0 = atom_members(F, AtomLabel([], [0])).indices()
    a1 = atom_members(F, AtomLabel([], [1])).indices()
    eps, d2 = dev2_measure(beta_graph(F, a0, a1, [1]))
    assert eps <= 0.05 and abs(d2 - 1 / 3) <= 0.05


def test_beta_graph_dev2_at_n_8_stays_in_row_blocks(traced_peak):
    # the catalogue's beta-graph-dev2 input: two 2187-element atoms, whose
    # dense float64 codegree matrices alone are 38 MB each
    sp = GroupSpec(3, 8)
    F = QuadraticFactor(sp, [], [trace_sym_space(8, 3)[0]])
    a0 = atom_members(F, AtomLabel([], [0])).indices()
    a1 = atom_members(F, AtomLabel([], [1])).indices()
    (eps, d2), peak = traced_peak(lambda: dev2_measure(beta_graph(F, a0, a1, [1])))
    assert peak < 48 * 2**20
    assert eps <= 0.05 and abs(d2 - 1 / 3) <= 0.02


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_oct_sum_blocks_match_oracle(rows, monkeypatch):
    # a block budget of `rows` u1 slices of two float64 buffers, (V, W) and
    # (V, V), so the runs from u0 split into full and partial blocks
    for shape in ((7, 3, 4), (8, 5, 2), (5, 4, 6)):
        h = RNG.uniform(-1, 1, shape)
        monkeypatch.setattr(core, "BLOCK_BYTES", rows * 8 * shape[1] * sum(shape[1:]))
        assert abs(oct_sum(h) - oct_naive(h)) < 1e-8


@pytest.mark.parametrize(
    "shape", [(48, 243, 243), pytest.param((243, 243, 243), marks=pytest.mark.slow)]
)
def test_oct_sum_temporaries_stay_under_40_mb(shape, traced_peak):
    # 243-element parts are what a p = 3, n = 6 triad gives under the 256 part
    # cap of oct_measure and dev23_measure; one dense (U, V, V) codegree stack
    # is 23 MB at (48, 243, 243) and 115 MB at 243^3
    h = np.random.default_rng(4).uniform(-1, 1, shape)
    total, peak = traced_peak(lambda: oct_sum(h))
    assert peak < 40 * 2**20
    assert total > 0


def test_oct_vanishes_when_set_is_the_sigma_atom():
    sp = GroupSpec(3, 4)
    mats = trace_sym_space(4, 3)
    F = QuadraticFactor(sp, [], [mats[0]])
    d = TriadDescriptor(F, [[], [], []], [[0], [1], [1]], [[0], [2], [1]])
    target = atom_members(F, sigma(d))
    raw, norm = oct_measure(target, d)
    assert abs(raw) < 1e-9


def test_dev23_trivial_no_edges():
    sp = GroupSpec(3, 4)
    mats = trace_sym_space(4, 3)
    F = QuadraticFactor(sp, [], [mats[0]])
    d = TriadDescriptor(F, [[], [], []], [[0], [1], [2]], [[0], [1], [2]])
    res = dev23_measure(GroupSubset(sp), d)
    assert res.d3 == 0.0


def test_dev23_random_set_small_scale():
    sp = GroupSpec(3, 4)
    mats = trace_sym_space(4, 3)
    F = QuadraticFactor(sp, [], [mats[0]])
    A = GroupSubset(sp, RNG.random(sp.order) < 0.5)
    d = TriadDescriptor(F, [[], [], []], [[0], [1], [2]], [[0], [1], [2]])
    res = dev23_measure(A, d)
    assert res.eps1 <= 0.5 and 0 <= res.d3 <= 1


def test_density_transfer_trivial_cases():
    sp = GroupSpec(3, 4)
    mats = trace_sym_space(4, 3)
    F = QuadraticFactor(sp, [], [mats[0]])
    d2 = TriadDescriptor(F, [[], []], [[0], [1]], [[1]])
    target = atom_members(F, sigma(d2))
    rep = density_transfer_check(target, d2)
    assert rep.measured == 0.0
    rep = density_transfer_check(target.complement(), d2)
    assert rep.measured == 0.0


def test_k222_and_triangle_counts_complete():
    sp = GroupSpec(3, 3)
    F = QuadraticFactor(sp, [], [])
    d = TriadDescriptor(F, [[], [], []], [[], [], []], [[], [], []])
    atoms, graphs = triad_graphs(d)
    assert all(g.all() for g in graphs)
    assert k222_count(d, (0, 0, 0)) == 27**3
    rep = hom_count_check(atoms, graphs, 1.0, 0.01)
    assert rep.status == "PASS"


def test_triangle_count_prediction_trace_factor():
    sp = GroupSpec(3, 7)
    mats = trace_sym_space(7, 3)
    F = QuadraticFactor(sp, [], [mats[0]])
    a0 = atom_members(F, AtomLabel([], [0])).indices()
    a1 = atom_members(F, AtomLabel([], [1])).indices()
    a2 = atom_members(F, AtomLabel([], [2])).indices()
    graphs = [
        beta_graph(F, a0, a1, [1]),
        beta_graph(F, a0, a2, [2]),
        beta_graph(F, a1, a2, [0]),
    ]
    rep = hom_count_check([a0, a1, a2], graphs, 1 / 3, 0.1)
    assert rep.status == "PASS"


def test_reduced_pair_union_of_atoms_has_no_errors():
    sp = GroupSpec(3, 4)
    mats = trace_sym_space(4, 3)
    F = QuadraticFactor(sp, [sp.basis_vector(1)], [mats[0]])
    table = label_index_table(F)
    A = GroupSubset(sp, (table == 3) | (table == 5))
    rp = ReducedPair(A, F, 1e-6)
    assert rp.err.sum() == 0


def test_reduced_pair_qgs_structure():
    from qfa.constructions import qgs

    A, F = qgs(6, 3)
    for D in (2, 3):
        FD = QuadraticFactor(F.spec, [], F.matrices[:D])
        rp = ReducedPair(A, FD, 1e-9)
        assert set(np.flatnonzero(rp.err).tolist()) == {0}


def test_reduced_pair_gs_zero_atom_error():
    sp = GroupSpec(3, 6)
    F = QuadraticFactor(sp, [sp.basis_vector(1)], [])
    rp = ReducedPair(gs(6, 3), F, 0.2)
    assert rp.err[0]
    assert rp.H_B.sum() == 1  # purely linear factor: only the zero label


def test_decomposition_check_trivial_cases():
    sp = GroupSpec(3, 4)
    mats = trace_sym_space(4, 3)
    F = QuadraticFactor(sp, [], [mats[0]])
    rep = hypergraph_decomposition_check(GroupSubset(sp), F, 0.25, max_triads=16)
    assert rep.status == "PASS"
    table = label_index_table(F)
    A = GroupSubset(sp, table == 1)
    rep = hypergraph_decomposition_check(A, F, 0.3, max_triads=16)
    assert rep.status == "PASS"


def test_fourier_infinity_sandwich():
    # for |f| <= 1: max|fhat|^4 <= fourth power of the norm <= max|fhat|^2
    sp = GroupSpec(3, 5)
    for _ in range(20):
        f = RNG.uniform(-1, 1, sp.order)
        fhat_inf = float(np.abs(dft(f, sp)).max())
        u4 = u2_norm(f, sp) ** 4
        assert fhat_inf**4 <= u4 + 1e-9
        assert u4 <= fhat_inf**2 + 1e-9


def test_encoding_scarcity_bound_in_reduced_pairs():
    # when the reduced pair has no staircase copy of length 1 with right side
    # in the quadratic-label subgroup, every depth-1 encoding of the dense
    # side with leaves there must route through an error atom, so the exact
    # count is at most 2 * #errors * |H_B|^2
    from qfa.detectors import NONE, count_tree_encodings, find_good_copy

    sp = GroupSpec(3, 4)
    mats = trace_sym_space(4, 3)
    F = QuadraticFactor(sp, [sp.basis_vector(1)], [mats[0]])
    lab = GroupSpec(3, 2)
    rng = np.random.default_rng(31)
    hits = 0
    for _ in range(600):
        A = GroupSubset(sp, rng.random(sp.order) < rng.uniform(0.05, 0.95))
        rp = ReducedPair(A, F, 0.2)
        if find_good_copy(rp, "H", 1).status != NONE:
            continue
        n_err = int(rp.err.sum())
        if n_err == 0:
            continue
        dense = GroupSubset(lab, rp.A1)
        side = GroupSubset(lab, rp.H_B)
        full = GroupSubset.full(lab)
        count = count_tree_encodings(dense, 1, side, full)
        bound = 2 * n_err * int(rp.H_B.sum()) ** 2
        assert count <= bound, (count, bound)
        hits += 1
    assert hits > 0


import pytest


@pytest.mark.slow
def test_dev23_trace_factor_medium_scale():
    # relative quasirandomness of a random half-density set atop a one-form
    # triad at n = 6 (parts ~ 243); minutes of matrix multiplies
    sp = GroupSpec(3, 6)
    mats = trace_sym_space(6, 3)
    F = QuadraticFactor(sp, [], [mats[0]])
    A = GroupSubset(sp, np.random.default_rng(1).random(sp.order) < 0.5)
    d = TriadDescriptor(F, [[], [], []], [[0], [1], [2]], [[0], [1], [2]])
    res = dev23_measure(A, d, max_part=512)
    assert res.eps1 <= 0.1


@pytest.mark.slow
def test_decomposition_passing_fraction_layered_set():
    # vertex classes = atoms of the (1,1) trace factor at n = 6, edge classes
    # = bilinear-form graphs: most triples sit in relatively quasirandom
    # triads for the layered coset set
    sp = GroupSpec(3, 6)
    mats = trace_sym_space(6, 3)
    F = QuadraticFactor(sp, [sp.basis_vector(1)], [mats[0]])
    rep = hypergraph_decomposition_check(gs(6, 3), F, 0.2, max_triads=24)
    assert rep.status == "PASS"
    assert rep.measured <= 0.2


def test_u2_fourier_identity_on_layered_balanced_function():
    A = gs(4, 3)
    f = A.indicator.astype(float) - A.density()
    lhs = u2_norm(f, A.spec) ** 4
    rhs = float((np.abs(dft(f, A.spec)) ** 4).sum())
    assert abs(lhs - rhs) < 1e-9
