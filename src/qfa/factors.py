"""Linear and quadratic factors: atoms and label arithmetic, factor rank,
refinement, and the constructive rank-repair, padding, and pullback
procedures.

A quadratic factor's quadratic values carry linear shifts, x^T M_i x + x.u_i,
all zero unless given.  Pulling a linear factor back from the label space
produces shifts, so every operation here takes them.

A label (a-bar; b-bar) is addressed inside the label space F_p^(l+q) using the
same little-endian convention as group elements, with the linear coordinates
first.  Labels carry one entry per *stored* constraint; the complexity of the
linear part is the dimension of its span (duplicates are permitted in storage).

A factor has one labelling: `label_values`, the (l+q, N) label coordinates of
every group element from one `_form_values` pass, and the `label_index_table`
built from it.  Atoms, atom sizes, refinement and pullback partitions read the
table, and every per-cell size and density is counted by `cell_counts`.
"""

from __future__ import annotations

import ast
import math
import operator

import numpy as np

from .core import (
    CapacityError,
    GroupSpec,
    GroupSubset,
    ShapeError,
    _form_values,
    _format_row,
    _parse_row,
    as_sym_matrix,
    block_rows,
    matrix_rank,
    ranks,
    rref,
)

FACTOR_RANK_Q_CAP = 8


# A formula exponent beyond this, or a power beyond _MAX_FORMULA_BITS bits, is
# rejected instead of computed: formulas come from the command line.
_MAX_FORMULA_EXPONENT = 1024
_MAX_FORMULA_BITS = 1 << 16

_FORMULA_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Pow: operator.pow,
}


def _eval_formula(node, x):
    """Evaluate a parsed formula built from numbers, x, unary +/- and
    + - * / // **; anything else, and any arithmetic error, is a ValueError."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id == "x":
        return x
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        v = _eval_formula(node.operand, x)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp) and type(node.op) in _FORMULA_OPS:
        a = _eval_formula(node.left, x)
        b = _eval_formula(node.right, x)
        if isinstance(node.op, ast.Pow) and (
            abs(b) > _MAX_FORMULA_EXPONENT
            or (isinstance(a, int) and a.bit_length() * abs(b) > _MAX_FORMULA_BITS)
        ):
            raise ValueError(f"power {a!r}**{b!r} is too large")
        try:
            out = _FORMULA_OPS[type(node.op)](a, b)
        except ArithmeticError as exc:
            raise ValueError(str(exc)) from exc
        if isinstance(out, complex):
            raise ValueError(f"{a!r}**{b!r} is not real")
        return out
    raise ValueError(f"unsupported formula element {ast.dump(node)}")


class _MonotoneFormula:
    """A map N -> reals given as a formula in x, e.g. "2*x" or "x**2", checked
    on 0..32 at construction to be increasing (strictly when `_strict`).
    Subclasses set `_noun` and `_strict`."""

    def __init__(self, formula: str):
        formula = str(formula).strip().replace("^", "**")
        try:
            self._tree = ast.parse(formula, mode="eval").body
            probe = [self(i) for i in range(0, 33)]
        except (SyntaxError, ValueError) as exc:
            noun = self._noun.replace(" ", "-")
            raise ValueError(f"unsupported {noun} formula: {formula!r}") from exc
        self.formula = formula
        if any(b < a or (self._strict and b == a) for a, b in zip(probe, probe[1:])):
            shape = "strictly increasing" if self._strict else "monotone"
            raise ValueError(f"{self._noun} {formula!r} is not {shape}")

    def __call__(self, x):
        return _eval_formula(self._tree, x)

    def __repr__(self):
        return f"{type(self).__name__}({self.formula!r})"


class RankFunction(_MonotoneFormula):
    """A named strictly increasing map N -> positive reals, e.g. "2*x" or "x**2"."""

    _noun = "rank function"
    _strict = True


class AtomLabel:
    """The pair (a-bar; b-bar) naming an atom B(a-bar; b-bar)."""

    def __init__(self, linear_part, quadratic_part):
        self.linear_part = tuple(int(v) for v in linear_part)
        self.quadratic_part = tuple(int(v) for v in quadratic_part)

    def __eq__(self, other):
        return (
            isinstance(other, AtomLabel)
            and self.linear_part == other.linear_part
            and self.quadratic_part == other.quadratic_part
        )

    def __hash__(self):
        return hash((self.linear_part, self.quadratic_part))

    def __repr__(self):
        return f"AtomLabel({self.linear_part}, {self.quadratic_part})"

    def combined(self) -> tuple:
        return self.linear_part + self.quadratic_part

    def index(self, p: int) -> int:
        idx = 0
        for d in reversed(self.combined()):
            idx = idx * p + d
        return idx

    @classmethod
    def from_index(cls, index: int, p: int, ell: int, q: int) -> "AtomLabel":
        digits = []
        for _ in range(ell + q):
            digits.append(index % p)
            index //= p
        return cls(digits[:ell], digits[ell:])


class LinearFactor:
    """An ordered list of vectors in F_p^n; atoms are the joint level sets.
    As a factor it has an empty quadratic part and is its own linear part,
    so every factor operation takes it."""

    q = 0
    matrices = shifts = ()

    def __init__(self, spec: GroupSpec, vectors=()):
        self.spec = spec
        self.vectors = [np.asarray(v, dtype=np.int64) % spec.p for v in vectors]
        for v in self.vectors:
            if v.shape != (spec.n,):
                raise ShapeError(f"linear-factor vector has shape {v.shape}, expected ({spec.n},)")

    @property
    def ell(self) -> int:
        return len(self.vectors)

    @property
    def complexity(self) -> int:
        if not self.vectors:
            return 0
        return matrix_rank(np.stack(self.vectors), self.spec.p)

    @property
    def linear(self) -> "LinearFactor":
        return self


class QuadraticFactor:
    """A pair (L, Q): a linear factor plus symmetric matrices M_1..M_q, each
    with a linear shift u_i, so that quadratic value i is x^T M_i x + x.u_i.
    `shifts` holds one length-n vector per matrix; None means all zero."""

    def __init__(self, spec: GroupSpec, linear, matrices=(), shifts=None):
        self.spec = spec
        if isinstance(linear, LinearFactor):
            self.linear = linear
        else:
            self.linear = LinearFactor(spec, linear)
        self.matrices = [as_sym_matrix(M, spec.p) for M in matrices]
        if shifts is None:
            shifts = np.zeros((len(self.matrices), spec.n), dtype=np.int64)
        self.shifts = [np.asarray(u, dtype=np.int64) % spec.p for u in shifts]
        if len(self.shifts) != len(self.matrices):
            raise ShapeError(f"{len(self.shifts)} shifts for {len(self.matrices)} matrices")
        for M, u in zip(self.matrices, self.shifts):
            if M.shape != (spec.n, spec.n) or u.shape != (spec.n,):
                raise ShapeError(f"matrix shape {M.shape} and shift shape {u.shape} do not match dimension {spec.n}")

    @property
    def ell(self) -> int:
        return self.linear.ell

    @property
    def q(self) -> int:
        return len(self.matrices)

    @property
    def complexity(self) -> tuple:
        return (self.linear.complexity, self.q)


def label_values(B) -> np.ndarray:
    """(ell + q, order) int64 label coordinates of every group element: the
    linear values x.v_j, then the quadratic values x^T M_i x + x.u_i, from
    one `_form_values` pass on the stacked forms, with zero matrices on the
    linear rows and no matrices when q = 0.  A factor without constraints has
    no coordinates and needs no pass."""
    if not isinstance(B, (LinearFactor, QuadraticFactor)):
        raise TypeError(f"not a factor: {type(B)!r}")
    if B.ell + B.q == 0:
        return np.zeros((0, B.spec.order), dtype=np.int64)
    v = np.array([*B.linear.vectors, *B.shifts], dtype=np.int64)
    M = np.concatenate([np.zeros((B.ell, B.spec.n, B.spec.n), dtype=np.int64), B.matrices]) if B.q else None
    return _form_values(B.spec, M, v).astype(np.int64)


def label_index_table(B) -> np.ndarray:
    """Combined little-endian label index of every group element: the sum of
    p^j times label coordinate j of `label_values`.  Raises CapacityError
    when the label space has more than 2^63 labels, which int64 cannot index."""
    vals = label_values(B)
    if B.spec.p ** len(vals) > 2**63:
        raise CapacityError(f"{B.spec.p}^{len(vals)} labels exceed the int64 label index")
    return B.spec.p ** np.arange(len(vals), dtype=np.int64) @ vals


def cell_counts(table: np.ndarray, indicator, cells: int) -> tuple:
    """(sizes, densities) of the cells of a partition table: each cell's
    element count and the fraction of them in the indicator (None: the whole
    group), 0 on an empty cell; at least `cells` entries each."""
    sizes = np.bincount(table, minlength=cells)
    hits = np.bincount(table, weights=indicator, minlength=cells)
    return sizes, hits / np.maximum(sizes, 1)


def atom_members(B, label: AtomLabel) -> GroupSubset:
    """The atom with this label; empty when an entry lies outside 0..p-1."""
    table, want, p = label_index_table(B), label.combined(), B.spec.p
    if len(want) != B.ell + B.q:
        raise ShapeError("label length does not match the factor")
    if not all(0 <= d < p for d in want):
        return GroupSubset(B.spec)
    return GroupSubset(B.spec, table == label.index(p))


def atom_sizes(B) -> dict:
    """Map from AtomLabel to atom size, over nonempty atoms only."""
    sizes, _ = cell_counts(label_index_table(B), None, 1)
    return {
        AtomLabel.from_index(int(idx), B.spec.p, B.ell, B.q): int(sizes[idx])
        for idx in np.flatnonzero(sizes)
    }


def _nontrivial_combos(q: int, p: int) -> np.ndarray:
    """(count, q) array of coefficient tuples with first nonzero entry 1 (one
    per scalar class): by leading position, then little-endian in the tail."""
    blocks = []
    for lead in range(q):
        tail = q - lead - 1
        rest = np.arange(p**tail, dtype=np.int64)
        lam = np.zeros((rest.size, q), dtype=np.int64)
        lam[:, lead] = 1
        for j in range(tail):
            lam[:, lead + 1 + j] = rest // p**j % p
        blocks.append(lam)
    return np.concatenate(blocks) if blocks else np.zeros((0, q), dtype=np.int64)


def _least_rank_combo(mats, p: int, lams=None) -> tuple:
    """(rank, lam) of the first combination sum_j lam_j M_j of least F_p-rank,
    over the rows of lams (default: every nontrivial combination, in
    _nontrivial_combos order).  Each block of combinations is formed by one
    float64 product, exact while q (p-1)^2 < 2^53, and ranked by `ranks`;
    the scan stops after the first block that holds a rank-0 combination,
    since none can be lower."""
    stack = np.stack([np.asarray(M, dtype=np.int64) % p for M in mats])
    q, shape = len(stack), stack.shape[1:]
    if q * (p - 1) ** 2 >= 2**53:
        raise CapacityError(f"{q} combined matrices at p = {p} exceed exact float64 sums")
    if lams is None:
        lams = _nontrivial_combos(q, p)
    flat = stack.reshape(q, -1).astype(np.float64)
    best, best_lam = math.inf, None
    # entries of a product are at most q (p-1)^2: cast once to the smallest
    # unsigned dtype that holds that and reduce there, as _bilin_matrix does
    dtype = np.min_scalar_type(q * (p - 1) ** 2)
    # per combination, one float64 matrix (the product) and at most four of
    # 8 bytes per entry (its cast, ranks' remainder and compact copy, and
    # its gathers)
    step = block_rows(5 * 8 * flat.shape[1])
    for start in range(0, len(lams), step):
        block = lams[start : start + step]
        combos = (block @ flat).astype(dtype)
        combos %= p
        rk = ranks(combos.reshape(len(block), *shape), p)
        i = int(rk.argmin())
        if rk[i] < best:
            best, best_lam = int(rk[i]), block[i]
        if best == 0:
            break
    return best, best_lam


def factor_rank(B) -> float:
    """Minimum F_p-rank over nontrivial combinations of the factor's matrices;
    infinity when there are none."""
    return matrix_family_rank(B.matrices, B.spec.p)


def matrix_family_rank(mats, p: int) -> float:
    q = len(mats)
    if q == 0:
        return math.inf
    if q > FACTOR_RANK_Q_CAP:
        raise CapacityError(f"factor rank search capped at q <= {FACTOR_RANK_Q_CAP}, got {q}")
    return _least_rank_combo(mats, p)[0]


def refines(B1, B2) -> bool:
    """True iff the atom partition of B1 refines that of B2 (decided by
    checking that elements sharing a B1 label share their B2 label)."""
    t1, t2 = label_index_table(B1), label_index_table(B2)
    if B1.spec != B2.spec:
        raise ShapeError("factors live on different groups")
    return _refines(t1, t2)


def _refines(t1: np.ndarray, t2: np.ndarray) -> bool:
    """True iff label table t1 refines t2: elements sharing a t1 label share
    their t2 label."""
    order = np.argsort(t1, kind="stable")
    s1, s2 = t1[order], t2[order]
    same = s1[1:] == s1[:-1]
    return bool(np.all(s2[1:][same] == s2[:-1][same]))


def _row_space_basis(M: np.ndarray, p: int) -> list:
    """Basis of the row space of M over F_p (the nonzero rows of its RREF)."""
    R, pivots = rref(M, p)
    return list(R[: len(pivots)])


def make_high_rank(B: QuadraticFactor, r: RankFunction, C: int) -> QuadraticFactor:
    """Repair a factor to rank at least r(final complexity).

    Whenever a nontrivial combination sum_j lam_j M_j of the current matrices
    has rank below the target, the matrix with the largest index in that
    combination is dropped, and a spanning set of the low-rank combination's
    row space is added to the linear part, together with the combined shift
    sum_j lam_j u_j when it is nonzero; this keeps the new atoms a refinement
    of the old ones (the dropped quadratic value becomes label-measurable).
    """
    spec = B.spec
    ell0, q0 = B.linear.complexity, B.q
    if ell0 + q0 > C:
        raise ValueError(f"complexity {ell0 + q0} exceeds the bound C={C}")
    lin = list(B.linear.vectors)
    mats = list(B.matrices)
    shifts = list(B.shifts)
    while True:
        lf = LinearFactor(spec, lin)
        c = lf.complexity + len(mats)
        if not mats:
            break
        worst_rank, worst_lam = _least_rank_combo(mats, spec.p)
        if worst_rank >= r(c):
            break
        combo = np.tensordot(worst_lam, np.stack(mats), axes=1) % spec.p
        shift = worst_lam @ np.stack(shifts) % spec.p
        drop = max(j for j in range(len(mats)) if worst_lam[j] != 0)
        del mats[drop], shifts[drop]
        lin.extend(_row_space_basis(combo, spec.p))
        if shift.any():
            lin.append(shift)
    return QuadraticFactor(spec, LinearFactor(spec, lin), mats, shifts)


def pad_with_high_rank(Q: QuadraticFactor, S, q_extra: int):
    """Extend Q's quadratic part by q_extra matrices from the family S while
    preserving factor rank, keeping Q's shifts and giving each new matrix a
    zero shift; returns the extended factor, or None when the exhaustive
    (greedy + backtracking) search finds no valid extension."""
    spec = Q.spec
    mats_S = [as_sym_matrix(M, spec.p) for M in S]
    if matrix_family_rank(mats_S, spec.p) != spec.n:
        raise ValueError("padding family does not have full factor rank n")
    if q_extra == 0:
        return Q
    base = list(Q.matrices)
    base_rank = matrix_family_rank(base, spec.p) if base else math.inf
    target = min(base_rank, spec.n)

    def feasible(chosen):
        return matrix_family_rank(base + [mats_S[i] for i in chosen], spec.p) >= target

    def search(start, chosen):
        if len(chosen) == q_extra:
            return list(chosen)
        for i in range(start, len(mats_S)):
            chosen.append(i)
            if feasible(chosen):
                got = search(i + 1, chosen)
                if got is not None:
                    return got
            chosen.pop()
        return None

    picked = search(0, [])
    if picked is None:
        return None
    zeros = np.zeros((len(picked), spec.n), dtype=np.int64)
    return QuadraticFactor(spec, Q.linear, base + [mats_S[i] for i in picked], [*Q.shifts, *zeros])


def pullback_partition(B, R: LinearFactor) -> np.ndarray:
    """Partition table of X_R: for each x, the little-endian index of the
    R-label of x's B-label."""
    if (R.spec.p, R.spec.n) != (B.spec.p, B.ell + B.q):
        raise ShapeError(f"pullback factor lives on {R.spec}, expected the label space F_{B.spec.p}^{B.ell + B.q}")
    return label_index_table(R)[label_index_table(B)]


def pullback_factor(B: QuadraticFactor, R: LinearFactor, verify: bool = True):
    """Turn a linear factor R on B's label space into a quadratic factor B'
    with shifts on the group, with At(B') = X_R.

    Each vector r of R gives the label value x^T M_r x + x.t_r, with M_r =
    sum_j r_(ell+j) M_j and t_r = sum_i r_i v_i + sum_j r_(ell+j) u_j.  The
    iterative reduction follows: any low-rank combination of the assembled
    matrices must vanish identically (B's own rank forces all coefficients to
    zero), so the corresponding constraint is replaced by a linear one.
    """
    spec = B.spec
    ell, q, n, p = B.ell, B.q, spec.n, spec.p
    if R.spec.n != ell + q or R.spec.p != p:
        raise ShapeError("R must live on the label space F_p^(ell+q)")
    rho = factor_rank(B)

    coeffs = np.array(R.vectors, dtype=np.int64).reshape(R.ell, ell + q)
    forms = np.array([*B.linear.vectors, *B.shifts], dtype=np.int64).reshape(ell + q, n)
    quads = np.array(B.matrices, dtype=np.int64).reshape(q, n * n)
    shifts = list(coeffs @ forms % p)
    mats = list((coeffs[:, ell:] @ quads % p).reshape(R.ell, n, n))

    lin_extra = []
    while mats:
        if not any(M.any() for M in mats):
            lin_extra.extend(shifts)
            mats, shifts = [], []
            break
        # rho is infinite only for q = 0, whose matrices all vanish above
        worst_rank, lam = _least_rank_combo(mats, p)
        if worst_rank >= rho:
            break
        combo = np.tensordot(lam, np.stack(mats), axes=1) % p
        if combo.any():
            raise AssertionError(
                "low-rank combination did not vanish; factor rank was misreported"
            )
        i = min(j for j in range(len(mats)) if lam[j])
        lin_extra.append(pow(int(lam[i]), p - 2, p) * (lam @ np.stack(shifts) % p) % p)
        del mats[i], shifts[i]

    out = QuadraticFactor(spec, LinearFactor(spec, lin_extra), mats, shifts)
    if verify:
        want = pullback_partition(B, R)
        got = label_index_table(out)
        if not (_refines(want, got) and _refines(got, want)):
            raise AssertionError("pullback factor does not induce the partition X_R")
    return out


def write_factor(B, path: str) -> None:
    """Format: "p n ell q", then ell vector lines, then q matrices of n rows
    each, then q shift lines when some shift is nonzero.  Lines are written as
    write_subset writes members."""
    rows = [*B.linear.vectors, *(row for M in B.matrices for row in M)]
    if any(u.any() for u in B.shifts):
        rows += B.shifts
    with open(path, "w") as fh:
        fh.write(f"{B.spec.p} {B.spec.n} {B.ell} {B.q}\n")
        fh.writelines(_format_row(row) + "\n" for row in rows)


def read_factor(path: str):
    """Read write_factor's format (shift lines are read when present); a
    malformed or short file, or a line after the rows its header promises and
    the optional shift lines, is a ValueError naming the file and the line."""
    with open(path) as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    end = lines[-1][0] + 1 if lines else 1
    header = lines[0][1].split() if lines else []
    if len(header) != 4 or not all(t.isascii() and t.isdigit() for t in header):
        raise ValueError(f"{path}:{lines[0][0] if lines else 1}: expected header 'p n ell q'")
    p, n, ell, q = (int(t) for t in header)
    spec = GroupSpec(p, n)
    pos = 1

    def take_vector():
        nonlocal pos
        if pos == len(lines):
            raise ValueError(f"{path}:{end}: file ends before the rows its header 'p n ell q' promises")
        lineno, text = lines[pos]
        pos += 1
        return _parse_row(text, n, p, f"{path}:{lineno}")

    vecs = [take_vector() for _ in range(ell)]
    mats = [np.stack([take_vector() for _ in range(n)]) for _ in range(q)]
    shifts = [take_vector() for _ in range(q)] if pos < len(lines) else None
    if pos < len(lines):
        raise ValueError(f"{path}:{lines[pos][0]}: line after the rows its header 'p n ell q' promises")
    return QuadraticFactor(spec, LinearFactor(spec, vecs), mats, shifts)
