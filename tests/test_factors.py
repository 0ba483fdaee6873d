import math
import os
import re
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfa.core import CapacityError, GroupSpec, GroupSubset, ShapeError
from qfa.constructions import trace_sym_space
from qfa.factors import (
    AtomLabel,
    LinearFactor,
    QuadraticFactor,
    RankFunction,
    atom_members,
    atom_sizes,
    factor_rank,
    label_index_table,
    make_high_rank,
    matrix_family_rank,
    pad_with_high_rank,
    pullback_factor,
    pullback_partition,
    read_factor,
    refines,
    write_factor,
)
from qfa.factors import _least_rank_combo, _nontrivial_combos
from qfa.uniformity import triad_membership_check
from support import MALFORMED_FACTOR_FILES

RNG = np.random.default_rng(0xF0F2)


def rand_sym(n, p=3):
    M = RNG.integers(0, p, size=(n, n))
    return (M + M.T) % p


def test_trivial_factor_conventions():
    spec = GroupSpec(3, 4)
    triv = QuadraticFactor(spec, [], [])
    assert triv.complexity == (0, 0)
    assert factor_rank(triv) == math.inf
    sizes = atom_sizes(triv)
    assert list(sizes.values()) == [81]
    with pytest.raises(ShapeError, match="not symmetric"):
        QuadraticFactor(spec, [], [np.triu(np.ones((4, 4), dtype=np.int64))])


def test_linear_factor_goes_through_every_factor_operation(tmp_path):
    """A LinearFactor is a factor with an empty quadratic part: rank repair,
    padding, pullback (verified), rank and the file round trip all take it."""
    spec = GroupSpec(3, 2)
    L = LinearFactor(spec, [[1, 0]])
    assert factor_rank(L) == math.inf and L.linear is L
    out = pullback_factor(L, LinearFactor(GroupSpec(3, 1), [[1]]), verify=True)
    assert out.q == 0 and refines(out, L) and refines(L, out)
    repaired = make_high_rank(L, RankFunction("x"), 4)
    assert repaired.linear.complexity == 1 and repaired.q == 0 and refines(repaired, L)
    padded = pad_with_high_rank(L, trace_sym_space(2, 3), 1)
    assert padded.q == 1 and refines(padded, L)
    path = str(tmp_path / "l.txt")
    write_factor(L, path)
    back = read_factor(path)
    assert [v.tolist() for v in back.linear.vectors] == [[1, 0]] and back.q == 0


@pytest.mark.parametrize("text,line,message", MALFORMED_FACTOR_FILES)
def test_read_factor_rejects_malformed_files_at_their_line(text, line, message, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: {message}"):
        read_factor(str(path))


def test_atom_label_examples():
    spec = GroupSpec(3, 4)

    def label(x, B):
        return AtomLabel.from_index(int(label_index_table(B)[spec.index_of(x)]), 3, B.ell, B.q)

    triv = QuadraticFactor(spec, [], [])
    assert label([1, 2, 0, 1], triv) == AtomLabel([], [])
    B = QuadraticFactor(spec, [spec.basis_vector(1)], [np.eye(4, dtype=np.int64)])
    lab = label([1, 1, 0, 0], B)
    assert lab.linear_part == (1,) and lab.quadratic_part == (2,)


def test_labels_partition_group():
    spec = GroupSpec(3, 5)
    B = QuadraticFactor(spec, [spec.basis_vector(2)], [rand_sym(5)])
    sizes = atom_sizes(B)
    assert sum(sizes.values()) == spec.order
    assert len(sizes) <= 3 ** (1 + 1)


def test_atom_members_quadric_count():
    spec = GroupSpec(3, 3)
    B = QuadraticFactor(spec, [], [np.eye(3, dtype=np.int64)])
    zero = atom_members(B, AtomLabel([], [0]))
    assert len(zero) == 9


def test_atom_members_rejects_a_label_of_the_wrong_length():
    spec = GroupSpec(3, 3)
    B = QuadraticFactor(spec, [spec.basis_vector(1)], [np.eye(3, dtype=np.int64)])
    for label in (AtomLabel([], [0]), AtomLabel([0], []), AtomLabel([0], [0, 0]), AtomLabel([0, 0], [0])):
        with pytest.raises(ShapeError):
            atom_members(B, label)
    with pytest.raises(ShapeError):
        atom_members(LinearFactor(spec, [spec.basis_vector(1)]), AtomLabel([0], [0]))


def test_an_out_of_range_label_names_the_empty_set():
    # read as a little-endian index, [3, 0] would alias ([], [0, 1]) at p = 3
    spec = GroupSpec(3, 3)
    B = QuadraticFactor(spec, [], trace_sym_space(3, 3)[:2])
    assert len(atom_members(B, AtomLabel([], [0, 1]))) > 0
    for label in (AtomLabel([], [3, 0]), AtomLabel([], [0, 3]), AtomLabel([], [-1, 1]), AtomLabel([], [4, 0])):
        assert len(atom_members(B, label)) == 0
    lin = LinearFactor(spec, [spec.basis_vector(1), spec.basis_vector(2)])
    assert len(atom_members(lin, AtomLabel([0, 1], []))) == 3
    assert len(atom_members(lin, AtomLabel([3, 0], []))) == 0


def test_refines_rejects_other_groups_and_non_factors():
    a, b = GroupSpec(3, 3), GroupSpec(3, 4)
    with pytest.raises(ShapeError):
        refines(LinearFactor(a, [a.basis_vector(1)]), LinearFactor(b, [b.basis_vector(1)]))
    with pytest.raises(ShapeError):
        refines(QuadraticFactor(a, [], []), LinearFactor(GroupSpec(5, 3), []))
    with pytest.raises(TypeError):
        refines(LinearFactor(a, []), GroupSubset.full(a))
    with pytest.raises(TypeError):
        refines(np.zeros(a.order, dtype=np.int64), LinearFactor(a, []))


def test_factor_shifts_must_match_the_matrices_and_the_dimension():
    spec = GroupSpec(3, 3)
    eye = np.eye(3, dtype=np.int64)
    for mats, shifts in (
        ([np.eye(2, dtype=np.int64)], [[1, 0, 0]]),
        ([eye], [[1, 0]]),
        ([eye], []),
        ([eye], [[1, 0, 0], [0, 1, 0]]),
    ):
        with pytest.raises(ShapeError):
            QuadraticFactor(spec, [], mats, shifts)
    assert [u.tolist() for u in QuadraticFactor(spec, [], [eye, eye]).shifts] == [[0, 0, 0]] * 2


def test_a_factor_without_constraints_has_one_atom():
    spec = GroupSpec(3, 3)
    for B in (LinearFactor(spec, []), QuadraticFactor(spec, [], []), QuadraticFactor(spec, [], [], [])):
        assert atom_sizes(B) == {AtomLabel([], []): spec.order}
        assert atom_members(B, AtomLabel([], [])) == GroupSubset.full(spec)
        assert label_index_table(B).tolist() == [0] * spec.order


def test_pullback_partition_checks_the_label_dimension():
    spec = GroupSpec(3, 3)
    B = QuadraticFactor(spec, [spec.basis_vector(1)], [np.eye(3, dtype=np.int64)])
    for m in (1, 3):
        with pytest.raises(ShapeError):
            pullback_partition(B, LinearFactor(GroupSpec(3, m), [[1] * m]))
    # a factor without constraints has label space F_p^0, on which no R lives
    with pytest.raises(ShapeError):
        pullback_partition(LinearFactor(spec, []), LinearFactor(GroupSpec(3, 1), [[1]]))
    lin = LinearFactor(spec, [spec.basis_vector(1), spec.basis_vector(2)])
    R = LinearFactor(GroupSpec(3, 2), [[1, 1]])
    want = (spec.digits[:, 0].astype(np.int64) + spec.digits[:, 1]) % 3
    assert np.array_equal(pullback_partition(lin, R), want)


def test_pullback_partition_rejects_a_label_space_over_another_prime():
    spec = GroupSpec(3, 3)
    B = QuadraticFactor(spec, [spec.basis_vector(1)], [np.eye(3, dtype=np.int64)])
    with pytest.raises(ShapeError):
        pullback_partition(B, LinearFactor(GroupSpec(5, 2), [[1, 2]]))


def test_factor_rank_examples():
    spec = GroupSpec(3, 4)
    assert factor_rank(QuadraticFactor(spec, [], [np.eye(4, dtype=np.int64)])) == 4
    dup = QuadraticFactor(spec, [], [np.eye(4, dtype=np.int64)] * 2)
    assert factor_rank(dup) == 0
    mats = trace_sym_space(6, 3)
    two = QuadraticFactor(GroupSpec(3, 6), [], mats[:2])
    assert factor_rank(two) == 6


def test_factor_rank_cap():
    spec = GroupSpec(3, 3)
    with pytest.raises(Exception):
        matrix_family_rank([rand_sym(3) for _ in range(9)], 3)


def test_refines_examples():
    spec = GroupSpec(3, 4)
    B = QuadraticFactor(spec, [spec.basis_vector(1)], [rand_sym(4)])
    assert refines(B, B)
    L1 = LinearFactor(spec, [spec.basis_vector(1), spec.basis_vector(2)])
    L2 = LinearFactor(spec, [spec.basis_vector(1)])
    assert refines(L1, L2)
    assert not refines(L2, L1)
    assert refines(L1, L1) and not (refines(L1, L2) and refines(L2, L1))


def test_rank_monotone_under_adding_matrices():
    spec = GroupSpec(3, 5)
    for _ in range(20):
        mats = [rand_sym(5) for _ in range(RNG.integers(1, 4))]
        r_all = matrix_family_rank(mats, 3)
        r_less = matrix_family_rank(mats[:-1], 3) if len(mats) > 1 else math.inf
        assert r_all <= r_less


def test_make_high_rank_examples():
    spec = GroupSpec(3, 4)
    mats = trace_sym_space(4, 3)
    hi = QuadraticFactor(spec, [], mats[:2])
    out = make_high_rank(hi, RankFunction("x"), 4)
    assert out.q == 2 and all((a == b).all() for a, b in zip(out.matrices, hi.matrices))

    dup = QuadraticFactor(spec, [], [mats[0], mats[0]])
    out = make_high_rank(dup, RankFunction("1+x"), 4)
    assert len(set(map(lambda m: m.tobytes(), out.matrices))) == out.q
    assert refines(out, dup)

    E11 = np.zeros((4, 4), dtype=np.int64)
    E11[0, 0] = 1
    low = QuadraticFactor(spec, [], [E11])
    out = make_high_rank(low, RankFunction("2+x"), 4)
    assert out.q == 0
    assert out.linear.complexity <= 1
    assert refines(out, low)


def naive_combos(q, p):
    """Every coefficient tuple whose first nonzero entry is 1, in the order
    leading position first, then the tail little-endian."""
    out = []
    for lead in range(q):
        tail = q - lead - 1
        for rest in range(p**tail):
            lam = [0] * q
            lam[lead] = 1
            for j in range(tail):
                lam[lead + 1 + j] = rest // p**j % p
            out.append(lam)
    return out


def naive_rref(M, p):
    """(rows of the reduced row echelon form, rank) over F_p, on Python lists."""
    rows = [[int(v) % p for v in row] for row in M]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rows, rank


def naive_worst_combo(mats, p):
    """(rank, lam) of the first combination of least rank, one at a time."""
    best, best_lam = math.inf, None
    for lam in naive_combos(len(mats), p):
        combo = sum(c * np.asarray(M, dtype=np.int64) for c, M in zip(lam, mats)) % p
        rk = naive_rref(combo, p)[1]
        if rk < best:
            best, best_lam = rk, lam
    return best, best_lam


def random_family(rng, p, qmax=4):
    n, q = int(rng.integers(2, 6)), int(rng.integers(1, qmax + 1))
    mats = []
    for _ in range(q):
        V = rng.integers(0, p, size=(int(rng.integers(0, n + 1)), n))
        mats.append((V.T * rng.integers(1, p, size=len(V))) @ V % p)
    if q > 1 and rng.random() < 0.4:
        mats[-1] = (int(rng.integers(0, p)) * mats[0] + int(rng.integers(0, p)) * mats[1]) % p
    return n, mats


def test_matrix_family_rank_matches_naive_oracle():
    for q in range(5):
        for p in (3, 5):
            assert _nontrivial_combos(q, p).tolist() == naive_combos(q, p)
    # the first 120 families are the p = 3, 5 draws this test always made;
    # at the wider primes q is capped so the oracle's p^q loop stays small
    rng = np.random.default_rng(7)
    cases = [((3, 5)[t % 2], 4) for t in range(120)] + [(7, 3), (11, 3), (61, 2)] * 10
    for p, qmax in cases:
        _, mats = random_family(rng, p, qmax)
        rank, lam = _least_rank_combo(mats, p)
        want_rank, want_lam = naive_worst_combo(mats, p)
        assert (rank, lam.tolist()) == (want_rank, want_lam), p
        assert matrix_family_rank(mats, p) == want_rank


def naive_make_high_rank(B, r):
    """make_high_rank's repair loop, with the worst combination found by the
    one-at-a-time oracle and the row space read off the list RREF."""
    p = B.spec.p
    lin, mats = list(B.linear.vectors), list(B.matrices)
    while mats:
        c = (naive_rref(lin, p)[1] if lin else 0) + len(mats)
        worst, lam = naive_worst_combo(mats, p)
        if worst >= r(c):
            break
        combo = sum(x * M for x, M in zip(lam, mats)) % p
        del mats[max(j for j in range(len(mats)) if lam[j])]
        rows, rank = naive_rref(combo, p)
        lin.extend(np.array(row, dtype=np.int64) for row in rows[:rank])
    return lin, mats


def test_make_high_rank_matches_naive_worst_combination():
    rng = np.random.default_rng(11)
    repaired = 0
    for trial in range(150):
        p = (3, 5)[trial % 2]
        n, mats = random_family(rng, p)
        sp = GroupSpec(p, n)
        lin = [rng.integers(0, p, size=n) for _ in range(int(rng.integers(0, 2)))]
        B = QuadraticFactor(sp, lin, mats)
        r = RankFunction(("x", "x + 1", "2*x")[trial % 3])
        want_lin, want_mats = naive_make_high_rank(B, r)
        got = make_high_rank(B, r, 20)
        assert len(got.linear.vectors) == len(want_lin) and got.q == len(want_mats)
        assert all(np.array_equal(a, b) for a, b in zip(got.linear.vectors, want_lin))
        assert all(np.array_equal(a, b) for a, b in zip(got.matrices, want_mats))
        repaired += got.q < B.q
    assert repaired > 30


def test_make_high_rank_fuzz():
    spec = GroupSpec(3, 5)
    r = RankFunction("x")
    for _ in range(50):
        nl, nq = int(RNG.integers(0, 3)), int(RNG.integers(0, 4))
        B = QuadraticFactor(
            spec, [RNG.integers(0, 3, size=5) for _ in range(nl)], [rand_sym(5) for _ in range(nq)]
        )
        out = make_high_rank(B, r, 12)
        assert refines(out, B)
        rank = factor_rank(out)
        c = out.linear.complexity + out.q
        assert rank == math.inf or rank >= r(c)


def test_padding_examples():
    spec = GroupSpec(3, 6)
    mats = trace_sym_space(6, 3)
    empty = QuadraticFactor(spec, [], [])
    padded = pad_with_high_rank(empty, mats, 2)
    assert padded is not None and padded.q == 2
    assert matrix_family_rank(padded.matrices, 3) == 6
    assert pad_with_high_rank(empty, mats, 0) is empty
    one = QuadraticFactor(spec, [], [mats[0]])
    out = pad_with_high_rank(one, mats, 1)
    assert out is not None and matrix_family_rank(out.matrices, 3) == 6
    shifted = QuadraticFactor(spec, [], [mats[0]], [spec.basis_vector(2)])
    out = pad_with_high_rank(shifted, mats, 1)
    assert [u.tolist() for u in out.shifts] == [spec.basis_vector(2).tolist(), [0] * 6]


def test_padding_family_validated():
    spec = GroupSpec(3, 4)
    low = [np.zeros((4, 4), dtype=np.int64)]
    with pytest.raises(ValueError):
        pad_with_high_rank(QuadraticFactor(spec, [], []), low, 1)


def test_pullback_standard_basis_reproduces_partition():
    spec = GroupSpec(3, 5)
    mats = trace_sym_space(5, 3)
    B = QuadraticFactor(spec, [spec.basis_vector(1)], [mats[0]])
    lab = GroupSpec(3, 2)
    R = LinearFactor(lab, [lab.basis_vector(1), lab.basis_vector(2)])
    out = pullback_factor(B, R)
    assert refines(out, B) and refines(B, out)


def test_pullback_linear_only_coordinates():
    spec = GroupSpec(3, 5)
    mats = trace_sym_space(5, 3)
    B = QuadraticFactor(spec, [spec.basis_vector(1)], [mats[0]])
    lab = GroupSpec(3, 2)
    R = LinearFactor(lab, [lab.basis_vector(1)])
    out = pullback_factor(B, R)
    assert out.q == 0


def test_pullback_quadratic_coordinate_keeps_rank():
    spec = GroupSpec(3, 5)
    mats = trace_sym_space(5, 3)
    B = QuadraticFactor(spec, [spec.basis_vector(1)], [mats[0]])
    lab = GroupSpec(3, 2)
    R = LinearFactor(lab, [np.array([1, 1])])
    out = pullback_factor(B, R)
    assert out.q > 0
    assert factor_rank(out) >= factor_rank(B)


def test_pullback_fuzz_partition_equality():
    spec = GroupSpec(3, 5)
    done = 0
    while done < 50:
        nl, nq = int(RNG.integers(0, 3)), int(RNG.integers(0, 3))
        if nl + nq == 0:
            continue
        B = QuadraticFactor(
            spec, [RNG.integers(0, 3, size=5) for _ in range(nl)], [rand_sym(5) for _ in range(nq)]
        )
        k = int(RNG.integers(1, 3))
        R = LinearFactor(GroupSpec(3, nl + nq), [RNG.integers(0, 3, size=nl + nq) for _ in range(k)])
        out = pullback_factor(B, R)  # raises if the partitions disagree
        want = pullback_partition(B, R)
        got = label_index_table(out)
        order = np.argsort(want, kind="stable")
        blk = want[order][1:] == want[order][:-1]
        assert np.all(got[order][1:][blk] == got[order][:-1][blk])
        done += 1


def test_atom_sizes_trace_factor_envelope():
    spec = GroupSpec(3, 8)
    mats = trace_sym_space(8, 3)
    F = QuadraticFactor(spec, [spec.basis_vector(1)], [mats[0]])
    sizes = atom_sizes(F)
    target = 3**6
    for s in sizes.values():
        assert abs(s - target) <= target / 9


def test_rank_function_validation():
    assert RankFunction("2*x")(3) == 6
    with pytest.raises(ValueError):
        RankFunction("5")  # constant: not strictly increasing
    with pytest.raises(ValueError):
        RankFunction("__import__('os')")
    for formula in ("9**9**9", "(9**1000)**1000", "x**x**x", "1/x", "(-x)**0.5", "x +"):
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="unsupported rank-function formula"):
            RankFunction(formula)
        assert time.monotonic() - t0 < 1.0
    assert RankFunction("x^2 // 2 + x")(4) == 12
    assert repr(RankFunction(" 2*x ")) == "RankFunction('2*x')"


def test_factor_file_roundtrip(tmp_path):
    spec = GroupSpec(3, 4)
    mats = trace_sym_space(4, 3)
    B = QuadraticFactor(spec, [spec.basis_vector(2)], mats[:2])
    path = tmp_path / "factor.txt"
    write_factor(B, str(path))
    back = read_factor(str(path))
    assert isinstance(back, QuadraticFactor)
    assert refines(back, B) and refines(B, back)
    assert not any(u.any() for u in back.shifts)
    G = QuadraticFactor(spec, [spec.basis_vector(1)], [mats[0]], [spec.basis_vector(3)])
    write_factor(G, str(path))
    back = read_factor(str(path))
    assert [u.tolist() for u in back.shifts] == [spec.basis_vector(3).tolist()]
    assert refines(back, G) and refines(G, back)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 3), st.booleans(), st.data())
def test_factor_file_round_trip_and_truncation(p, n, shifted, data):
    """read_factor returns the linear vectors, matrices and shifts that
    write_factor wrote, and a file cut at any line raises the reader's
    ValueError.  Shift lines are written only when some shift is nonzero, and
    the one exception is a file cut exactly before its shift lines, which is a
    well-formed file of the same factor without shifts."""
    spec = GroupSpec(p, n)
    entries = st.integers(0, p - 1)

    def vector():
        return data.draw(arrays(np.int64, n, elements=entries))

    def matrix():
        X = data.draw(arrays(np.int64, (n, n), elements=entries))
        return np.triu(X) + np.triu(X, 1).T

    vecs = [vector() for _ in range(data.draw(st.integers(0, 2)))]
    mats = [matrix() for _ in range(data.draw(st.integers(int(shifted), 2)))]
    shifts = [vector() for _ in mats] if shifted else [np.zeros(n, dtype=np.int64) for _ in mats]
    B = QuadraticFactor(spec, vecs, mats, shifts if shifted else None)
    shift_lines = len(mats) if any(u.any() for u in shifts) else 0

    def assert_holds(F, want_shifts):
        assert [v.tolist() for v in F.linear.vectors] == [v.tolist() for v in vecs]
        assert [M.tolist() for M in F.matrices] == [M.tolist() for M in mats]
        assert [u.tolist() for u in F.shifts] == [u.tolist() for u in want_shifts]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.txt")
        write_factor(B, path)
        assert_holds(read_factor(path), shifts)
        with open(path) as fh:
            lines = fh.readlines()
        assert len(lines) == 1 + len(vecs) + n * len(mats) + shift_lines
        for cut in range(len(lines)):
            with open(path, "w") as fh:
                fh.writelines(lines[:cut])
            if shift_lines and cut == len(lines) - shift_lines:
                assert_holds(read_factor(path), [np.zeros(n, dtype=np.int64) for _ in mats])
                continue
            with pytest.raises(ValueError, match="expected header" if cut == 0 else "file ends before"):
                read_factor(path)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from([(3, 4), (5, 3), (3, 5)]), st.data())
def test_shifted_factors_keep_every_factor_operation(pn, data):
    """On random factors whose quadratic values carry shifts x.u_i (matrices
    of drawn rank, so that low-rank combinations occur): rank repair refines
    its input and meets its target, pullback induces X_R (verify=True raises
    otherwise), a file round trip keeps vectors, matrices and shifts, and at
    F_3^4 the triad sum-label identity holds."""
    p, n = pn
    spec = GroupSpec(p, n)
    entries = st.integers(0, p - 1)

    def vector():
        return data.draw(arrays(np.int64, n, elements=entries))

    def matrix():
        M = np.zeros((n, n), dtype=np.int64)
        for _ in range(data.draw(st.integers(0, n))):
            a = vector()
            M += data.draw(st.integers(1, p - 1)) * np.outer(a, a)
        return M % p

    vecs = [vector() for _ in range(data.draw(st.integers(0, 2)))]
    mats = [matrix() for _ in range(data.draw(st.integers(1, 3)))]
    shifts = [vector() for _ in mats]
    B = QuadraticFactor(spec, vecs, mats, shifts)

    r = RankFunction("x")
    out = make_high_rank(B, r, 10)
    assert refines(out, B)
    rank = factor_rank(out)
    assert rank == math.inf or rank >= r(out.linear.complexity + out.q)

    lab = GroupSpec(p, B.ell + B.q)
    rows = data.draw(st.integers(1, 2))
    R = LinearFactor(lab, [data.draw(arrays(np.int64, lab.n, elements=entries)) for _ in range(rows)])
    pullback_factor(B, R, verify=True)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.txt")
        write_factor(B, path)
        back = read_factor(path)
    for got, want in ((back.linear.vectors, vecs), (back.matrices, mats), (back.shifts, shifts)):
        assert [x.tolist() for x in got] == [x.tolist() for x in want]

    if (p, n) == (3, 4):
        assert triad_membership_check(B)


def test_label_index_table_refuses_label_spaces_int64_cannot_index():
    spec = GroupSpec(5, 2)
    # 5^27 < 2^63 < 5^28: the largest index p^(ell+q) - 1 must fit in int64
    assert label_index_table(LinearFactor(spec, [[1, 0]] * 27)).min() >= 0
    with pytest.raises(CapacityError, match="int64"):
        label_index_table(LinearFactor(spec, [[1, 0]] * 28))
