import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfa import core
from qfa.core import (
    CapacityError,
    GroupSpec,
    GroupSubset,
    ShapeError,
    _sum_index_grid,
    dft,
    gauss_sum,
    idft,
    matrix_rank,
    nullspace_basis,
    quad_values,
    ranks,
    read_subset,
    rref,
    write_subset,
)
from support import bundled_openblas, form_value


def test_index_examples():
    spec = GroupSpec(3, 2)
    assert spec.index_of([0, 0]) == 0
    assert spec.index_of([1, 0]) == 1
    assert spec.index_of([0, 1]) == 3


def test_index_roundtrip_all_small():
    for n in range(1, 7):
        spec = GroupSpec(3, n)
        for i in range(spec.order):
            assert spec.index_of(spec.vector_of(i)) == i


def test_index_range_error():
    spec = GroupSpec(3, 2)
    with pytest.raises(IndexError):
        spec.vector_of(9)


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(4, 2)
    with pytest.raises(ValueError):
        GroupSpec(2, 3)
    with pytest.raises(CapacityError):
        GroupSpec(3, 40)


def test_quad_eval_examples():
    I3 = np.eye(3, dtype=np.int64)
    spec = GroupSpec(3, 3)
    values = quad_values(I3, spec)
    assert values[spec.index_of([1, 1, 1])] == 0
    assert values[spec.index_of([1, 0, 0])] == 1
    assert quad_values(np.array([[0, 1], [1, 0]]), GroupSpec(3, 2))[GroupSpec(3, 2).index_of([1, 1])] == 2
    with pytest.raises(ShapeError):
        quad_values(I3, GroupSpec(3, 2))


def test_bilinear_identity_sampled():
    # Q(x + y) = Q(x) + 2 B(x, y) + Q(y), with Q read off quad_values and B
    # formed on Python ints
    rng = np.random.default_rng(0xF0F2)
    spec = GroupSpec(3, 4)
    for _ in range(200):
        M = rng.integers(0, 3, size=(4, 4))
        M = (M + M.T) % 3
        x = rng.integers(0, 3, size=4)
        y = rng.integers(0, 3, size=4)
        Q = quad_values(M, spec)
        lhs = Q[spec.index_of((x + y) % 3)]
        rhs = (Q[spec.index_of(x)] + 2 * form_value(M, x, y, 3) + Q[spec.index_of(y)]) % 3
        assert lhs == rhs
        assert Q[spec.index_of(x)] == form_value(M, x, x, 3)


def test_matrix_rank_examples():
    assert matrix_rank(np.eye(5, dtype=np.int64), 3) == 5
    assert matrix_rank(np.zeros((4, 4), dtype=np.int64), 3) == 0
    assert matrix_rank(np.ones((2, 2), dtype=np.int64), 3) == 1


def test_gauss_sum_trivial_cases():
    spec = GroupSpec(3, 4)
    z = np.zeros((4, 4), dtype=np.int64)
    assert abs(gauss_sum(z, np.zeros(4), spec) - 1) < 1e-9
    assert abs(gauss_sum(z, np.array([1, 0, 0, 0]), spec)) < 1e-9


def test_gauss_sum_needs_one_shift_per_matrix():
    spec = GroupSpec(3, 2)
    M = np.stack([np.eye(2, dtype=np.int64)] * 3)
    for b in (np.zeros(2), np.zeros((2, 2)), np.zeros((3, 3))):
        with pytest.raises(ShapeError):
            gauss_sum(M, b, spec)
    with pytest.raises(ShapeError):
        gauss_sum(M[0], np.zeros(3), spec)


def test_gauss_sum_identity_matrix():
    for n in range(1, 9):
        spec = GroupSpec(3, n)
        g = gauss_sum(np.eye(n, dtype=np.int64), np.zeros(n), spec)
        assert abs(abs(g) - 3.0 ** (-n / 2)) < 1e-9


def test_gauss_bound_random():
    rng = np.random.default_rng(1)
    spec = GroupSpec(3, 6)
    for _ in range(200):
        M = rng.integers(0, 3, size=(6, 6))
        M = (M + M.T) % 3
        b = rng.integers(0, 3, size=6)
        assert abs(gauss_sum(M, b, spec)) <= 3.0 ** (-matrix_rank(M, 3) / 2) + 1e-9


gauss_stacks = st.tuples(st.sampled_from([3, 5]), st.integers(1, 4), st.integers(1, 5)).flatmap(
    lambda t: st.tuples(
        st.just(t[0]),
        arrays(np.int64, (t[2], t[1], t[1]), elements=st.integers(0, t[0] - 1)),
        arrays(np.int64, (t[2], t[1]), elements=st.integers(0, t[0] - 1)),
    )
)


@settings(max_examples=100, deadline=None)
@given(gauss_stacks)
def test_gauss_sum_stack_matches_slices(case):
    p, M, b = case
    spec = GroupSpec(p, M.shape[1])
    M = (M + M.transpose(0, 2, 1)) % p
    got = gauss_sum(M, b, spec)
    assert got.shape == (len(M),)
    for i in range(len(M)):
        one = gauss_sum(M[i], b[i], spec)
        assert isinstance(one, complex)
        assert abs(got[i] - one) <= 1e-12


def test_dft_point_mass_and_constant():
    spec = GroupSpec(3, 3)
    f = np.zeros(spec.order)
    f[0] = 1.0
    fhat = dft(f, spec)
    assert np.allclose(fhat, 1.0 / spec.order, atol=1e-12)
    one = np.ones(spec.order)
    ohat = dft(one, spec)
    assert abs(ohat[0] - 1) < 1e-12
    assert np.abs(ohat[1:]).max() < 1e-12


def test_dft_parseval_inversion():
    rng = np.random.default_rng(2)
    for n in (2, 4, 6, 8):
        spec = GroupSpec(3, n)
        f = rng.standard_normal(spec.order)
        fhat = dft(f, spec)
        assert abs((np.abs(fhat) ** 2).sum() - np.mean(f**2)) < 1e-9
        back = idft(fhat, spec)
        assert np.abs(back - f).max() < 1e-9


def test_dft_and_idft_take_a_stack_row_by_row_bit_for_bit():
    rng = np.random.default_rng(5)
    for p, n in ((3, 1), (3, 4), (5, 3), (3, 7)):
        spec = GroupSpec(p, n)
        for f in (rng.standard_normal((4, spec.order)),
                  rng.standard_normal((3, spec.order)) + 1j * rng.standard_normal((3, spec.order))):
            stacked, back = dft(f, spec), idft(f, spec)
            assert stacked.shape == back.shape == f.shape
            for i in range(len(f)):
                assert np.array_equal(stacked[i], dft(f[i], spec))
                assert np.array_equal(back[i], idft(f[i], spec))
    spec = GroupSpec(3, 2)
    for bad in (np.zeros(8), np.zeros((2, 8)), np.zeros((2, 2, 9))):
        with pytest.raises(ShapeError):
            dft(bad, spec)
        with pytest.raises(ShapeError):
            idft(bad, spec)


def test_dft_peak_memory_stays_near_two_outputs(traced_peak):
    spec = GroupSpec(3, 12)
    f = np.random.default_rng(8).uniform(-1, 1, spec.order)
    fhat, peak = traced_peak(lambda: dft(f, spec))
    assert peak < 2.5 * fhat.nbytes


def test_character_tables_stay_small_and_read_only(traced_peak):
    rng = np.random.default_rng(9)
    for p, n in ((3, 7), (5, 3), (7, 3), (11, 2), (61, 2), (67, 2)):
        spec = GroupSpec(p, n)
        f = rng.standard_normal(spec.order)
        assert np.abs(idft(dft(f, spec), spec) - f).max() < 1e-9
    assert core._CHAR_TABLES
    for W in core._CHAR_TABLES.values():
        assert W.size <= core._CHAR_TABLE_MAX**2 and not W.flags.writeable
    # a prime above the bound takes the FFT branch and builds no p x p table
    spec = GroupSpec(4093, 1)
    f = rng.standard_normal(spec.order)
    fhat, peak = traced_peak(lambda: dft(f, spec))
    assert peak < 4 * fhat.nbytes  # a 4093 x 4093 table would be 268 MB
    assert all(p != 4093 for p, _, _ in core._CHAR_TABLES)
    assert np.abs(idft(fhat, spec) - f).max() < 1e-9


def test_sum_index_grid_reads_read_only_tables_held_on_the_spec():
    rng = np.random.default_rng(6)
    for p, n in ((3, 1), (3, 2), (3, 5), (5, 3), (7, 2)):
        spec = GroupSpec(p, n)
        half = spec.half_table
        assert spec.half_table is half
        assert half.shape == (p ** (n // 2),) * 2
        assert not half.flags.writeable
        with pytest.raises(ValueError):
            half[0, 0] = 1
        X = rng.integers(0, spec.order, size=6)
        Y = rng.integers(0, spec.order, size=(2, 5))
        got = _sum_index_grid(spec, X, Y)
        assert got.shape == (6, 2, 5) and got.dtype == np.int64
        want = np.stack([spec.add_perm(int(x))[Y] for x in X])
        assert np.array_equal(got, want)


# every (p, n) under the default cap, and a prime whose digits need int16
GRID_CASES = [
    (p, n) for p in (3, 5, 7) for n in range(1, int(core.DEFAULT_GROUP_BITS / math.log2(p)) + 1)
] + [(131, 2)]


def test_sum_index_grid_matches_digit_arithmetic():
    """_sum_index_grid against index arithmetic on digits i // p**j % p of
    the sampled indices alone (the spec's digit table would be 215 MB at
    3^15).  Each spec, and so its half_table, is built once."""
    specs = {case: GroupSpec(*case) for case in GRID_CASES}

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        for (p, n), spec in specs.items():
            last = spec.order - 1
            X = np.array([0, last] + data.draw(st.lists(st.integers(0, last), max_size=4)), dtype=np.int64)
            Y = np.array(data.draw(st.lists(st.integers(0, last), min_size=1, max_size=6)), dtype=np.int64)
            powers = p ** np.arange(n, dtype=np.int64)
            dX, dY = X[:, None] // powers % p, Y[:, None] // powers % p
            want = (dX[:, None, :] + dY[None, :, :]) % p @ powers
            assert np.array_equal(_sum_index_grid(spec, X, Y), want), (p, n)

    check()


def test_subset_io_roundtrip(tmp_path):
    spec = GroupSpec(3, 3)
    rng = np.random.default_rng(3)
    A = GroupSubset(spec, rng.random(27) < 0.4)
    path = tmp_path / "a.txt"
    write_subset(A, str(path))
    back = read_subset(str(path))
    assert back == A
    # header and digit format sanity
    lines = path.read_text().splitlines()
    assert lines[0] == "3 3"
    assert all(len(t) == 3 for t in lines[1:])


def test_subset_io_rejects_bad_digits(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n31\n")
    with pytest.raises(ValueError):
        read_subset(str(path))


def test_subset_header_is_two_digit_tokens(tmp_path):
    path = tmp_path / "bad.txt"
    for header in ("3 x", "3", "3 2 1", "-3 2", "3 2.0", "p n"):
        path.write_text(f"{header}\n00\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: expected header 'p n'$"):
            read_subset(str(path))


IO_PRIMES = [3, 5, 7, 11, 13]


def test_subset_file_round_trips_digits_above_nine(tmp_path):
    A = GroupSubset.from_indices(GroupSpec(11, 2), [0, 10, 120])
    path = tmp_path / "a.txt"
    write_subset(A, str(path))
    assert path.read_text() == "11 2\n00\n10 0\n10 10\n"
    assert read_subset(str(path)) == A


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(IO_PRIMES), st.integers(1, 3), st.data())
def test_subset_file_round_trip_and_truncation(p, n, data):
    """read_subset(write_subset(A)) == A; at p <= 7 the file keeps the bytes of
    the run-together digit format.  The format holds no member count, so a
    file cut at a line boundary is the set of the members before the cut,
    and only a cut header is an error."""
    spec = GroupSpec(p, n)
    A = GroupSubset.from_indices(spec, data.draw(st.lists(st.integers(0, spec.order - 1), max_size=12)))
    members = A.members().tolist()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.txt")
        write_subset(A, path)
        assert read_subset(path) == A
        with open(path) as fh:
            lines = fh.readlines()
        if p <= 7:
            assert lines == [f"{p} {n}\n"] + ["".join(map(str, row)) + "\n" for row in members]
        for cut in range(len(lines)):
            with open(path, "w") as fh:
                fh.writelines(lines[:cut])
            if cut == 0:
                with pytest.raises(ValueError, match="expected header"):
                    read_subset(path)
            else:
                assert read_subset(path) == GroupSubset.from_members(spec, members[: cut - 1])


def test_nullspace_basis():
    basis = nullspace_basis([[1, 0, 0], [0, 1, 0]], 3, 3)
    assert basis.shape == (1, 3)
    assert basis[0][2] != 0 and basis[0][0] == 0 and basis[0][1] == 0
    full = nullspace_basis([], 3, 3)
    assert full.shape == (3, 3)


RREF_PRIMES = [3, 5, 7, 11, 61, 4093]

matrices_mod_p = st.tuples(st.sampled_from(RREF_PRIMES), st.integers(0, 16), st.integers(0, 16)).flatmap(
    lambda t: st.tuples(st.just(t[0]), arrays(np.int64, t[1:], elements=st.integers(0, t[0] - 1)))
)


@settings(max_examples=200, deadline=None)
@given(matrices_mod_p)
@example((3, np.zeros((0, 5), dtype=np.int64)))
@example((5, np.zeros((4, 0), dtype=np.int64)))
@example((4093, np.full((16, 16), 4092, dtype=np.int64)))
def test_rref_properties(case):
    p, A = case
    R, pivots = rref(A, p)
    k = len(pivots)
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert np.array_equal(R[:, c], np.eye(len(R), dtype=np.int64)[i])
        assert not R[i, :c].any()
    assert not R[k:].any()
    R2, pivots2 = rref(R, p)
    assert np.array_equal(R2, R) and pivots2 == pivots
    assert matrix_rank(np.vstack([A, R]), p) == k == matrix_rank(A, p)
    null = nullspace_basis(list(A), p, A.shape[1])
    assert not ((A @ null.T) % p).any()
    assert matrix_rank(null, p) + k == A.shape[1]


stacks_mod_p = st.tuples(
    st.sampled_from(RREF_PRIMES), st.integers(0, 6), st.integers(0, 16), st.integers(0, 16)
).flatmap(lambda t: st.tuples(st.just(t[0]), arrays(np.int64, t[1:], elements=st.integers(0, t[0] - 1))))


@settings(max_examples=200, deadline=None)
@given(stacks_mod_p)
@example((3, np.zeros((0, 3, 4), dtype=np.int64)))
@example((7, np.arange(12, dtype=np.int64).reshape(1, 3, 4) % 7))
@example((11, np.zeros((2, 0, 5), dtype=np.int64)))
@example((61, np.zeros((3, 4, 0), dtype=np.int64)))
@example((4093, np.full((6, 16, 16), 4092, dtype=np.int64)))
def test_ranks_match_slices(case):
    """Every matrix of a stack gets the pivot count of its own rref, on the
    per-matrix list path and on the vectorized loop alike: the list-path
    limit is set below and then at the stack's size, so that each stack,
    the empty shapes included, takes both."""
    p, A = case
    want = [len(rref(Ai, p)[1]) for Ai in A]
    limit = core._RANKS_LIST_ENTRIES
    try:
        for forced in (-1, A.size):
            core._RANKS_LIST_ENTRIES = forced
            got = ranks(A, p)
            assert got.dtype == np.int64 and got.shape == (len(A),)
            assert got.tolist() == want
    finally:
        core._RANKS_LIST_ENTRIES = limit


def test_rref_dispatch_one_matrix_never_reaches_the_stacked_loop(monkeypatch):
    """With the stacked loop's inverse broken, every one-matrix caller still
    returns the values the vectorized loop gave (pinned here), ranks takes
    the list path up to _RANKS_LIST_ENTRIES entries, and ranks on one more
    matrix raises, which shows that the patch takes effect."""
    from qfa.factors import _row_space_basis
    from qfa.regularize import Subgroup

    def broken(a, p):
        raise AssertionError("stacked loop reached")

    monkeypatch.setattr(core, "_inverse_mod", broken)
    A = np.array([[2, 1, 0, 4, 3], [1, 3, 2, 0, 1], [3, 4, 2, 4, 4], [0, 2, 1, 1, 0]])
    want = [[1, 0, 0, 4, 3], [0, 1, 0, 1, 2], [0, 0, 1, 4, 1], [0, 0, 0, 0, 0]]
    R, pivots = rref(A, 5)
    assert R.tolist() == want and pivots == [0, 1, 2]
    fit = core._RANKS_LIST_ENTRIES // A.size  # the most copies of A the list path takes
    assert ranks(A[None], 5).tolist() == [3] and ranks(np.stack([A] * fit), 5).tolist() == [3] * fit
    assert matrix_rank(A, 5) == 3
    assert nullspace_basis(list(A), 5, 5).tolist() == [[1, 4, 1, 1, 0], [2, 3, 4, 0, 1]]
    assert [r.tolist() for r in _row_space_basis(A, 5)] == want[:3]
    H = Subgroup(GroupSpec(5, 3), [np.array([1, 2, 3])])
    assert H.basis.tolist() == [[3, 1, 0], [2, 0, 1]]
    assert H.refined([3, 1]).duals[-1].tolist() == [3, 4, 0]
    with pytest.raises(AssertionError, match="stacked loop reached"):
        ranks(np.stack([A] * (fit + 1)), 5)


def test_rref_rejects_other_ranks():
    for shape in ((3,), (2, 2, 2), (2, 2, 2, 2)):
        with pytest.raises(ShapeError):
            rref(np.zeros(shape, dtype=np.int64), 3)
        with pytest.raises(ShapeError):
            matrix_rank(np.zeros(shape, dtype=np.int64), 3)
    for shape in ((3,), (2, 2), (2, 2, 2, 2)):
        with pytest.raises(ShapeError):
            ranks(np.zeros(shape, dtype=np.int64), 3)


def test_group_bits_env_override(monkeypatch):
    monkeypatch.setenv("QFA_MAX_GROUP_BITS", "8")
    with pytest.raises(CapacityError):
        GroupSpec(3, 6)
    monkeypatch.setenv("QFA_MAX_GROUP_BITS", "24")
    GroupSpec(3, 6)
    for raw in ("2x", "26.5", "", "-1", "2²"):
        monkeypatch.setenv("QFA_MAX_GROUP_BITS", raw)
        with pytest.raises(ValueError, match="QFA_MAX_GROUP_BITS must be a non-negative integer"):
            GroupSpec(3, 6)


def test_group_spec_refuses_groups_beyond_exact_float64(monkeypatch):
    # the form kernels sum up to 2 n (p-1)^2 in float64: 67,108,859 is the
    # largest prime under a cap of 26 and passes; the next prime, and the
    # prime below 2^27, are refused under a cap of 27.  No digits are built.
    monkeypatch.setenv("QFA_MAX_GROUP_BITS", "27")
    spec = GroupSpec(67_108_859, 1)
    assert 2 * (spec.p - 1) ** 2 < 2**53 and spec._digits is None
    for p in (67_108_879, 134_217_689):
        with pytest.raises(CapacityError, match="2\\^53"):
            GroupSpec(p, 1)


def test_the_test_session_runs_blas_on_one_thread():
    blas = bundled_openblas()
    if blas is None:
        pytest.skip("numpy bundles no scipy_openblas library")
    assert blas.scipy_openblas_get_num_threads64_() == 1
