"""Cross-section of the library at p = 5, plus digit arithmetic past
p = 127, guarding against anything accidentally specialized to p = 3 or to
int8 digits."""

import numpy as np

from qfa.core import (
    GroupSpec,
    GroupSubset,
    dft,
    gauss_sum,
    idft,
    matrix_rank,
    quad_values,
)
from qfa.constructions import gs, qgs, quadric, trace_sym_space
from qfa.detectors import FOUND, NONE, cap2_check, find_hop2, find_op, vc2_dim
from qfa.factors import (
    AtomLabel,
    LinearFactor,
    QuadraticFactor,
    RankFunction,
    atom_sizes,
    factor_rank,
    label_index_table,
    label_values,
    make_high_rank,
    refines,
)
from qfa.uniformity import dev2_measure, beta_graph, u2_norm, u3_norm, triad_membership_check
from qfa.regularize import Subgroup, find_uniform_dense_coset

RNG = np.random.default_rng(0xF0F2)


def test_group_arithmetic_and_dft():
    sp = GroupSpec(5, 3)
    for i in (0, 1, 7, 124):
        assert sp.index_of(sp.vector_of(i)) == i
    f = RNG.standard_normal(sp.order)
    fhat = dft(f, sp)
    assert abs((np.abs(fhat) ** 2).sum() - np.mean(f**2)) < 1e-9
    assert np.abs(idft(fhat, sp) - f).max() < 1e-9


def test_gauss_sum_identity_form():
    for n in (1, 2, 3):
        sp = GroupSpec(5, n)
        g = gauss_sum(np.eye(n, dtype=np.int64), np.zeros(n), sp)
        assert abs(abs(g) - 5.0 ** (-n / 2)) < 1e-9


def test_layered_set_and_pieces():
    A = gs(2, 5)
    assert len(A) == (25 - 1) // 4
    Aq, F = qgs(3, 5)
    assert factor_rank(QuadraticFactor(F.spec, [], F.matrices[:2])) == 3
    # density near 1/(p-1)
    assert abs(Aq.density() - 0.25) < 0.1


def test_norms_and_dev2():
    sp = GroupSpec(5, 2)
    assert abs(u2_norm(np.ones(sp.order), sp) - 1) < 1e-9
    f = RNG.uniform(-1, 1, sp.order)
    assert u2_norm(f, sp) <= u3_norm(f, sp) + 1e-9
    sp3 = GroupSpec(5, 3)
    mats = trace_sym_space(3, 5)
    F = QuadraticFactor(sp3, [], [mats[0]])
    from qfa.factors import atom_members

    a0 = atom_members(F, AtomLabel([], [0])).indices()
    a1 = atom_members(F, AtomLabel([], [1])).indices()
    eps, d2 = dev2_measure(beta_graph(F, a0, a1, [2]))
    assert abs(d2 - 1 / 5) < 0.1 and eps < 0.2


def test_triad_membership_and_atom_sizes():
    sp = GroupSpec(5, 2)
    mats = trace_sym_space(2, 5)
    F = QuadraticFactor(sp, [sp.basis_vector(1)], [mats[0]])
    assert triad_membership_check(F)
    sizes = atom_sizes(QuadraticFactor(GroupSpec(5, 3), [], trace_sym_space(3, 5)[:1]))
    assert sum(sizes.values()) == 125


def test_detectors_and_rank_repair():
    Q = quadric(2, 5)
    assert find_hop2(Q, 2).status == NONE
    ok, _, st = cap2_check(Q)
    assert ok and st == FOUND
    k2, _, st = vc2_dim(Q, 2)
    assert st == FOUND and k2 <= 1
    A = gs(2, 5)
    assert find_op(A, 2).status in (FOUND, NONE)
    sp = GroupSpec(5, 3)
    dup = QuadraticFactor(sp, [], [np.eye(3, dtype=np.int64)] * 2)
    out = make_high_rank(dup, RankFunction("x"), 6)
    assert refines(out, dup)


def test_uniform_coset_engine():
    sp = GroupSpec(5, 3)
    A = GroupSubset(sp, RNG.random(sp.order) < 0.5)
    _, _, stats = find_uniform_dense_coset(A, Subgroup(sp, []), 0.3)
    assert stats["uniformity"] <= 0.3


def test_wide_prime_digits_do_not_wrap():
    # digits are int8 up to p = 127 and widen past it
    assert GroupSpec(127, 1).digits.dtype == np.int8
    sp = GroupSpec(131, 2)
    assert sp.digits.dtype == np.int16
    assert GroupSpec(131, 1).vector_of(130).tolist() == [130]
    assert sp.vector_of(130 + 131 * 129).tolist() == [130, 129]
    vecs = [(v % 131, v // 131) for v in range(sp.order)]
    M = np.array([[3, 100], [100, 128]])
    want = [(3 * a * a + 200 * a * b + 128 * b * b) % 131 for a, b in vecs]
    assert quad_values(M, sp).tolist() == want
    assert label_values(LinearFactor(sp, [[7, 130]]))[0].tolist() == [(7 * a + 130 * b) % 131 for a, b in vecs]
    x = 125 + 131 * 130
    sums = [(a + 125) % 131 + 131 * ((b + 130) % 131) for a, b in vecs]
    assert sp.add_perm(x).tolist() == sums


def test_quadratic_values_do_not_wrap_at_n_1():
    # x (p-1) x passes 2^63 for x near p once p > 2^21; the group cap allows
    # p up to 2^24 at n = 1, and every value must still be exact
    p = 3_000_017
    sp = GroupSpec(p, 1)
    xs = [0, 1, 2, 1_234_567, p - 5, p - 1]
    want = [x * (p - 1) * x % p for x in xs]
    assert want[4] == 2_999_992
    assert quad_values([[p - 1]], sp)[xs].tolist() == want
    F = QuadraticFactor(sp, [[3]], [[[p - 1]]])
    assert label_index_table(F)[xs].tolist() == [3 * x % p + p * w for x, w in zip(xs, want)]
    # a nonzero 1 x 1 form has rank 1, so |E omega^(-x^2)| = p^(-1/2)
    assert abs(abs(gauss_sum(np.array([[p - 1]]), np.zeros(1), sp)) - p**-0.5) < 1e-9
