"""The one block budget of the blocked kernels: core.block_rows, a traced
memory bound for every kernel that takes its blocks from it, and the grid
kernel's one prefix per block in groups without a sum table."""

import numpy as np
import pytest

from qfa import core, detectors
from qfa.constructions import gs, quadric, trace_sym_space
from qfa.core import GroupSpec, GroupSubset, block_rows, gauss_sum, ranks
from qfa.detectors import SearchBudget, cap2_check, find_fop2, vc2_dim
from qfa.factors import AtomLabel, QuadraticFactor, _least_rank_combo, _nontrivial_combos, atom_members
from qfa.uniformity import _sum_membership_tensor, beta_graph, dev2_sum, oct_sum, u2_norm, u3_norm

MB = 2**20


def test_block_rows_fill_the_budget_with_at_least_one_row():
    assert block_rows(0) == block_rows(1) == core.BLOCK_BYTES
    assert block_rows(core.BLOCK_BYTES + 1) == 1
    for width in (3, 1000, 12_345, core.BLOCK_BYTES // 7):
        rows = block_rows(width)
        assert rows * width <= core.BLOCK_BYTES < (rows + 1) * width


def _u2(p, n):
    sp = GroupSpec(p, n)
    f = np.random.default_rng(3).uniform(-1, 1, sp.order)
    return lambda: u2_norm(f, sp)


def _u3():
    sp = GroupSpec(3, 7)
    f = np.random.default_rng(3).uniform(-1, 1, sp.order)
    return lambda: u3_norm(f, sp)


def _trace_atoms(ell):
    """The catalogue's n = 8 trace factor (with e_1 as its linear part when
    ell) and two of its atoms, of 2187 or about 740 elements each."""
    sp = GroupSpec(3, 8)
    F = QuadraticFactor(sp, [sp.basis_vector(1)] * ell, [trace_sym_space(8, 3)[0]])
    return F, [atom_members(F, AtomLabel([a] * ell, [a])).indices() for a in (0, 1)]


def _beta():
    F, (X, Y) = _trace_atoms(0)
    return lambda: beta_graph(F, X, Y, [1])


def _dev2():
    F, (X, Y) = _trace_atoms(0)
    edges = beta_graph(F, X, Y, [1])
    return lambda: dev2_sum(edges)


def _membership():
    _, atoms = _trace_atoms(1)
    A = gs(8, 3)
    return lambda: _sum_membership_tensor(A, *atoms)


def _oct():
    h = np.random.default_rng(4).uniform(-1, 1, (16, 243, 243))
    return lambda: oct_sum(h)


def _gauss():
    rng = np.random.default_rng(5)
    M = rng.integers(0, 3, size=(1000, 6, 6))
    M, b, sp = (M + M.transpose(0, 2, 1)) % 3, rng.integers(0, 3, size=(1000, 6)), GroupSpec(3, 6)
    return lambda: gauss_sum(M, b, sp)


def _gauss_wide():
    rng = np.random.default_rng(6)
    M = rng.integers(0, 3, size=(300, 8, 8))
    M, b, sp = (M + M.transpose(0, 2, 1)) % 3, rng.integers(0, 3, size=(300, 8)), GroupSpec(3, 8)
    return lambda: gauss_sum(M, b, sp)


def _rank():
    mats = trace_sym_space(8, 3)
    return lambda: _least_rank_combo(mats, 3)


def _ranks():
    """The whole (3280, 8, 8) stack of trace_sym_space(8, 3)'s nontrivial
    combinations in one call, past any block."""
    combos = np.tensordot(_nontrivial_combos(8, 3), np.stack(trace_sym_space(8, 3)), axes=1) % 3
    return lambda: ranks(combos, 3)


def _grid():
    A = quadric(6, 3)
    return lambda: vc2_dim(A, 2, SearchBudget(node_limit=60_000))


def _cap2():
    A = quadric(8, 3)
    return lambda: cap2_check(A, SearchBudget(node_limit=A.spec.order * 12_000))


# The largest size the catalogue or perfbench runs each kernel at; oct_sum
# at the (16, 243, 243) slice of a p = 3, n = 6 triad under the part cap,
# vc2_dim and cap2_check at N = 729 and 6561, where their blocks fill the
# budget (every benchmark search fits in one block).
@pytest.mark.parametrize(
    "build,bound_mb",
    [
        pytest.param(lambda: _u2(3, 8), 8, id="u2_norm-3^8"),
        pytest.param(lambda: _u2(4093, 1), 16, id="u2_norm-4093"),
        pytest.param(_u3, 8, id="u3_norm-3^7"),
        pytest.param(_beta, 16, id="beta_graph-3^8"),
        pytest.param(_dev2, 7, id="dev2_sum-3^8"),
        pytest.param(_membership, 5, id="sum_membership-3^8"),
        pytest.param(_oct, 10, id="oct_sum-16x243x243"),
        pytest.param(_gauss, 8, id="gauss_sum-1000x3^6"),
        pytest.param(_gauss_wide, 8, id="gauss_sum-300x3^8"),
        pytest.param(_rank, 8, id="least_rank_combo-8x8"),
        pytest.param(_ranks, 3, id="ranks-3280x8x8"),
        pytest.param(_grid, 8, id="grid_kernel-3^6"),
        pytest.param(_cap2, 8, id="cap2_check-3^8"),
    ],
)
def test_blocked_kernel_peak_memory(build, bound_mb, traced_peak):
    run = build()
    _, peak = traced_peak(run)
    assert peak < bound_mb * MB, f"{peak / MB:.1f} MB"


def test_grid_kernel_keeps_one_prefix_per_block_without_a_sum_table(monkeypatch):
    """_Grid.add without a sum table pairs a (P, 1) column y with x only for
    P = 1, which k >= 3 needs.  With the sum table cap at 0, every group
    lacks the table, and the FOP2 and VC2 searches, whose blocks otherwise
    grow to many prefixes, keep one per block and return what they return
    with the table."""
    blocks = []
    grid_blocks = detectors._grid_blocks

    def spy(*args):
        for pre, last in grid_blocks(*args):
            blocks.append(len(pre))
            yield pre, last

    monkeypatch.setattr(detectors, "_grid_blocks", spy)

    def rows(A):
        out = []
        for limit in (1_000, 50_000_000):
            res = find_fop2(A, 2, SearchBudget(node_limit=limit))
            k, w, status = vc2_dim(A, 2, budget := SearchBudget(node_limit=limit))
            out.append((res.status, res.nodes, k, status, budget.nodes, w and w.to_jsonable()))
        return out

    rng = np.random.default_rng(8)
    cases = [gs(3, 3), quadric(4, 3)] + [GroupSubset(GroupSpec(5, 2), rng.random(25) < 0.5) for _ in range(3)]
    want = [rows(A) for A in cases]
    assert max(blocks) > 1
    blocks.clear()
    monkeypatch.setattr(core, "_SUM_TABLE_ENTRIES", 0)
    got = [rows(GroupSubset(GroupSpec(A.spec.p, A.spec.n), A.indicator)) for A in cases]
    assert set(blocks) == {1}
    assert got == want
