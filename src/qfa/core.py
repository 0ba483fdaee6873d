"""Exact arithmetic over F_p^n: vectors, symmetric matrices, group enumeration,
quadratic/bilinear evaluation, exact elimination, Gauss sums, the group DFT,
and the subset file format.

Exact elimination has two routines: `_rref_rows`, Gauss-Jordan on Python int
rows, behind `rref` and `matrix_rank` on one matrix, and the vectorized
forward elimination in `ranks`, which gives the rank of each matrix in a
stack.  Forms over the whole group (`quad_values`, `gauss_sum`, and a
factor's labels in `factors.label_values`) are evaluated by halves of the
coordinates (`_form_values`).

All group elements are addressed by their little-endian base-p index,
idx = sum_i v_i * p**i (coordinate 0 varies fastest).  Every table in this
module is keyed by that fixed bijection.

"The index of x + y" has two paths.  The fast path, `_sum_index_grid` over
`GroupSpec.half_table` (and `GroupSpec.sum_table` in small groups), serves
every library computation.  The digit path adds coordinate rows mod p and
indexes the sums (`GroupSpec.add_perm`, `GroupSpec.indices_of`,
`detectors._members`); it is kept for the oracles and for witness
revalidation, so that each checks the fast path from outside it.
"""

from __future__ import annotations

import math
import os
from itertools import chain

import numpy as np

DEFAULT_GROUP_BITS = 24
COMPLEX_TOL = 1e-9
# Working memory one block of a blocked kernel may hold, in bytes.
BLOCK_BYTES = 1 << 23
# Entries of the largest sum_table: a cache kept for the life of the spec, not a block.
_SUM_TABLE_ENTRIES = 1 << 23


class CapacityError(Exception):
    """Raised when an operation would exceed the enumeration cap."""


class ShapeError(Exception):
    """Raised on dimension mismatches between vectors/matrices and the group."""


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def block_rows(row_bytes: int) -> int:
    """How many rows of `row_bytes` bytes each fit in BLOCK_BYTES, at least
    one.  A kernel's row width counts every temporary that one row creates."""
    return max(1, BLOCK_BYTES // max(1, row_bytes))


def group_bits_cap() -> int:
    """Enumeration cap (log2 of max group order), overridable via QFA_MAX_GROUP_BITS."""
    raw = os.environ.get("QFA_MAX_GROUP_BITS")
    if raw is None:
        return DEFAULT_GROUP_BITS
    return int(raw)


class GroupSpec:
    """The ambient group F_p^n for an odd prime p >= 3."""

    def __init__(self, p: int, n: int):
        if not is_prime(p) or p < 3:
            raise ValueError(f"p must be an odd prime >= 3, got {p}")
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if n * math.log2(p) > group_bits_cap():
            raise CapacityError(
                f"group order p^n = {p}^{n} exceeds the enumeration cap "
                f"2^{group_bits_cap()}"
            )
        self.p = p
        self.n = n
        self.order = p**n
        self._powers = p ** np.arange(n, dtype=np.int64)
        self._digits = None
        self._half_table = None
        self._half_digits = None
        self._sum_table = None

    def __eq__(self, other):
        return isinstance(other, GroupSpec) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return f"GroupSpec(p={self.p}, n={self.n})"

    @property
    def digits(self) -> np.ndarray:
        """(order, n) table: row i holds the coordinates of the vector with
        index i, in the smallest signed dtype that holds p - 1 (int8 for
        p <= 127), written straight into it a block of rows at a time."""
        if self._digits is None:
            self._digits = np.empty((self.order, self.n), dtype=np.min_scalar_type(1 - self.p))
            # per row: its int64 index and two (rows, n) int64 temporaries
            step = block_rows(8 + 16 * self.n)
            for s in range(0, self.order, step):
                idx = np.arange(s, min(s + step, self.order), dtype=np.int64)
                self._digits[s : s + step] = idx[:, None] // self._powers % self.p
            self._digits.setflags(write=False)
        return self._digits

    @property
    def half_table(self) -> np.ndarray:
        """The addition table of F_p^(n // 2), in the smallest unsigned dtype
        that holds its entries: the table `_sum_index_grid` reads, at most N
        entries; built once and read-only like `digits`."""
        if self._half_table is None:
            k = self.n // 2
            self._half_table = addition_table(self.p, k)
            self._half_table.setflags(write=False)
        return self._half_table

    @property
    def half_digits(self) -> tuple:
        """(lo, hi): the float64 digit rows of F_p^k and of F_p^(n-k), with
        k = n // 2, so that x = hi_row * p^k + lo_row; the tables
        `_form_values` reads, at most p * sqrt(N) rows each, built once and
        read-only."""
        if self._half_digits is None:
            k = self.n // 2
            self._half_digits = tuple(
                (np.arange(self.p**m)[:, None] // self._powers[:m] % self.p).astype(np.float64)
                for m in (k, self.n - k)
            )
            for t in self._half_digits:
                t.setflags(write=False)
        return self._half_digits

    def index_of(self, v) -> int:
        v = np.asarray(v, dtype=np.int64)
        if v.shape != (self.n,):
            raise ShapeError(f"expected a vector of length {self.n}, got shape {v.shape}")
        return int(np.dot(v % self.p, self._powers))

    def vector_of(self, index: int) -> np.ndarray:
        if not 0 <= index < self.order:
            raise IndexError(f"index {index} out of range for group of order {self.order}")
        return self.digits[index].astype(np.int64)

    def indices_of(self, vectors: np.ndarray) -> np.ndarray:
        """Vectorized index_of for an (m, n) array of coordinate rows."""
        vectors = np.asarray(vectors, dtype=np.int64) % self.p
        return vectors @ self._powers

    def add_perm(self, x_index: int) -> np.ndarray:
        """Permutation a with a[s] = index_of(x + vector_of(s))."""
        x = self.digits[x_index].astype(np.int64)
        return ((self.digits.astype(np.int64) + x) % self.p) @ self._powers

    def sum_table(self) -> np.ndarray | None:
        """Cached (order, order) table of pairwise sum indices in
        `addition_table`'s dtype (uint16 at every order it is built for), or
        None when the group is too large for it to be worthwhile."""
        if self.order**2 > _SUM_TABLE_ENTRIES:
            return None
        if self._sum_table is None:
            self._sum_table = addition_table(self.p, self.n)
        return self._sum_table

    def basis_vector(self, i: int) -> np.ndarray:
        """Standard basis vector e_i, 1-based to match the usual coordinate naming."""
        if not 1 <= i <= self.n:
            raise IndexError(f"basis index {i} out of range 1..{self.n}")
        v = np.zeros(self.n, dtype=np.int64)
        v[i - 1] = 1
        return v


def addition_table(p: int, m: int) -> np.ndarray:
    """(p^m, p^m) table T with T[i, j] = index of vector_of(i) + vector_of(j)
    in F_p^m, for any m >= 0 (the table of the trivial group is [[0]]), in
    the smallest unsigned dtype that holds p^m - 1.

    Built one coordinate at a time, in that dtype: with i = i0 + p*i'
    (little-endian), T_m[i, j] = (i0 + j0) % p + p * T_(m-1)[i', j'].
    """
    dtype = np.min_scalar_type(p**m - 1)
    table = np.zeros((1, 1), dtype=dtype)
    for _ in range(m):
        digit = (np.add.outer(np.arange(p), np.arange(p)) % p).astype(dtype)
        k = len(table)
        table *= p
        table = (table[:, None, :, None] + digit[None, :, None, :]).reshape(k * p, k * p)
    return table


def _sum_index_grid(spec: GroupSpec, X, Y) -> np.ndarray:
    """Index of x + y for every x in X and y in Y, of shape X.shape + Y.shape.

    With k = n // 2 and Q = p^k, write x = (x_top * Q + x_hi) * Q + x_lo:
    x_hi and x_lo are halves of k coordinates, whose sums are read through
    the addition table of F_p^k (`spec.half_table`, at most N entries), and
    x_top is the last coordinate when n is odd, added mod p.  Table rows are
    gathered for X first, so X should be the smaller argument.  Besides its
    int64 result the grid holds at most two int64 temporaries per entry."""
    Q = np.int64(spec.p ** (spec.n // 2))  # promotes the compact table entries
    table = spec.half_table
    Xt, Xh, Xl = X // (Q * Q), X // Q % Q, X % Q
    Yt, Yh, Yl = Y // (Q * Q), Y // Q % Q, Y % Q
    out = table[Xh][..., Yh] * Q
    out += table[Xl][..., Yl]
    if spec.n % 2:
        out += np.add.outer(Xt, Yt) % spec.p * (Q * Q)
    return out


def as_sym_matrix(entries, p: int) -> np.ndarray:
    """Validate and reduce a symmetric matrix mod p."""
    m = np.asarray(entries, dtype=np.int64) % p
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise ShapeError("matrix is not symmetric")
    return m


def quad_values(M: np.ndarray, spec: GroupSpec) -> np.ndarray:
    """x^T M x mod p for every x in the group, indexed little-endian: an
    (order,) int64 array for one (n, n) matrix, (B, order) for a (B, n, n)
    stack.  Evaluated by halves (`_form_values`), so no entry of the digits
    table is read and no product overflows at any p the group cap allows."""
    M = np.asarray(M, dtype=np.int64)
    if M.shape[-2:] != (spec.n, spec.n) or M.ndim not in (2, 3):
        raise ShapeError(f"matrix shape {M.shape} does not match dimension {spec.n}")
    vals = _form_values(spec, M.reshape(-1, spec.n, spec.n), None)
    return vals.astype(np.int64).reshape(M.shape[:-2] + (spec.order,))


def _form_values(spec: GroupSpec, M, v) -> np.ndarray:
    """x^T M_b x + v_b . x mod p for every x, as a (B, order) array of the
    smallest unsigned dtype that holds n (p-1)^2, for a (B, n, n) int64
    stack M and a (B, n) int64 stack v, either of which may be None.

    With k = n // 2, write x = x_hi * p^k + x_lo, the split `_sum_index_grid`
    uses.  Then x^T M x = Q_hi(x_hi) + Q_lo(x_lo) + x_hi^T C x_lo with
    C = M_hl + M_lh^T (2 M_hl for a symmetric M), and v . x splits the same
    way.  The two halves give tables of p^(n-k) and p^k entries per matrix;
    the cross term is one float64 BLAS product, and the values are the outer
    sum of the three.  Each product is reduced mod p after its first stage,
    so no partial sum exceeds 2 n (p-1)^2 < 2^53, and the values before
    their last reduction are at most k (p-1)^2 + 2 (p-1) <= n (p-1)^2."""
    p, k = spec.p, spec.n // 2
    lo, hi = spec.half_digits
    B = len(M) if M is not None else len(v)
    tab_lo, tab_hi = np.zeros((B, len(lo))), np.zeros((B, len(hi)))
    if v is not None:
        v = (v % p).astype(np.float64)
        tab_lo += v[:, :k] @ lo.T
        tab_hi += v[:, k:] @ hi.T
    if M is not None:
        M = (M % p).astype(np.float64)
        tab_lo += (((lo @ M[:, :k, :k]) % p) * lo).sum(axis=2)
        tab_hi += (((hi @ M[:, k:, k:]) % p) * hi).sum(axis=2)
    tab_lo, tab_hi = tab_lo % p, tab_hi % p
    if M is None:
        out = tab_hi[:, :, None] + tab_lo[:, None, :]
    else:
        C = (M[:, k:, :k] + M[:, :k, k:].transpose(0, 2, 1)) % p
        out = ((hi @ C) % p) @ lo.T
        out += tab_hi[:, :, None]
        out += tab_lo[:, None, :]
    # cast once to the smallest unsigned dtype that holds n (p-1)^2 and
    # reduce there, which is faster than in float64
    out = out.reshape(B, spec.order).astype(np.min_scalar_type(spec.n * (p - 1) ** 2))
    out %= p
    return out


def rref(A, p: int):
    """Reduced row echelon form over F_p of one matrix, with its pivot
    columns: (R, pivots), pivots a list of ints.  Gauss-Jordan on Python int
    rows (`_rref_rows`).  A stack of matrices is a ShapeError: `ranks` takes
    stacks, since no caller reads a stack's forms."""
    R = np.array(A, dtype=np.int64) % p
    if R.ndim != 2:
        raise ShapeError(f"expected one matrix, got shape {R.shape}")
    rows, pivots = _rref_rows(R.tolist(), p)
    return np.fromiter(chain.from_iterable(rows), np.int64, R.size).reshape(R.shape), pivots


def _rref_rows(rows: list, p: int) -> tuple:
    """Gauss-Jordan over F_p on Python int rows, in place: (RREF rows, pivots)."""
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        for piv in range(r, len(rows)):
            if rows[piv][c]:
                break
        else:
            continue
        inv = pow(rows[piv][c], p - 2, p)
        lead = [v * inv % p for v in rows[piv]]
        rows[piv], rows[r] = rows[r], lead
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(a - f * b) % p for a, b in zip(row, lead)]
        pivots.append(c)
    return rows, pivots


def _inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Elementwise a^(p-2) mod p: the inverse of each nonzero entry of a.
    Every product is of two entries below p, so a dtype that holds (p-1)^2
    is enough."""
    out, e = np.ones_like(a), p - 2
    while True:
        if e & 1:
            out = out * a % p
        e >>= 1
        if not e:
            return out
        a = a * a % p


# A stack of at most this many entries is ranked matrix by matrix on Python
# int rows, a larger one by the vectorized loop of `ranks`: the two take
# equal time between about 120 and 230 entries for 3 x 8 to 8 x 8 matrices
# at p = 3 and 5.
_RANKS_LIST_ENTRIES = 160


def ranks(S, p: int) -> np.ndarray:
    """The F_p rank of each matrix in a (B, m, k) integer stack, as a (B,)
    int64 array, by forward elimination alone.

    A stack of at most _RANKS_LIST_ENTRIES entries takes `_rref_rows` per
    matrix.  A larger one runs one loop over the columns: at column c, each
    matrix with a nonzero entry in a still-free row takes the first such row
    as its pivot, which is then no longer free; every other free row with a
    nonzero entry at c subtracts its multiple of the pivot row, on the
    columns right of c only.  No row moves, and entries stay in the smallest
    signed dtype that holds (p-1)^2 + p."""
    S = np.asarray(S)
    if S.ndim != 3:
        raise ShapeError(f"expected a (B, m, k) stack of matrices, got shape {S.shape}")
    if S.size <= _RANKS_LIST_ENTRIES:
        return np.array([len(_rref_rows(A, p)[1]) for A in (S % p).tolist()], dtype=np.int64)
    B, m, k = S.shape
    # row b * m + i of R is row i of matrix b
    R = (S % p).astype(np.min_scalar_type(-((p - 1) ** 2 + p))).reshape(B * m, k)
    free = np.ones(B * m, dtype=bool)
    rank = np.zeros(B, dtype=np.int64)
    first = np.arange(B) * m
    for c in range(k if m else 0):
        col = R[:, c]
        cand = free & (col != 0)
        lead = cand.reshape(B, m).argmax(axis=1) + first
        has = cand[lead]
        if not has.any():
            continue
        rank += has
        cand[lead] = False
        free[lead] &= ~has
        if not free.any():
            break
        rows = np.flatnonzero(cand)
        if rows.size:
            piv = lead[rows // m]
            f = col[rows] * _inverse_mod(col[piv], p) % p
            R[rows, c + 1 :] = (R[rows, c + 1 :] - f[:, None] * R[piv, c + 1 :]) % p
    return rank


def matrix_rank(M: np.ndarray, p: int) -> int:
    """Rank over F_p of one matrix: the pivot count of `_rref_rows`."""
    M = np.asarray(M, dtype=np.int64)
    if M.ndim != 2:
        raise ShapeError(f"expected one matrix, got shape {M.shape}")
    return len(_rref_rows((M % p).tolist(), p)[1])


def nullspace_basis(rows, p: int, n: int) -> np.ndarray:
    """Basis (as rows) of {x in F_p^n : R x = 0} for the given row vectors:
    one basis vector per free column of the RREF of R."""
    rows = [np.asarray(r, dtype=np.int64) for r in rows if np.asarray(r).size]
    if not rows:
        return np.eye(n, dtype=np.int64)
    R, pivots = rref(np.stack(rows), p)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[: len(pivots), free].T) % p
    return basis


def _canonical_lines(vectors, p: int) -> list:
    """One representative per one-dimensional subspace spanned by the given
    vectors (first nonzero coordinate normalized to 1), in first-seen order."""
    seen = set()
    out = []
    for v in vectors:
        v = np.asarray(v, dtype=np.int64) % p
        if not v.any():
            continue
        lead = int(np.nonzero(v)[0][0])
        inv = pow(int(v[lead]), p - 2, p)
        canon = tuple((v * inv) % p)
        if canon not in seen:
            seen.add(canon)
            out.append(np.array(canon, dtype=np.int64))
    return out


def gauss_sum(M: np.ndarray, b, spec: GroupSpec):
    """E_x omega^(x^T M x + b^T x) with omega = exp(2*pi*i/p), as a complex
    for one (n, n) matrix and shift, or as a (B,) array for a (B, n, n)
    stack of matrices with a (B, n) stack of shifts.

    A stack is taken in blocks of matrices, each one `_form_values` pass
    (the form and its shift evaluated together, by halves) and one bincount,
    whose bins are offset by p per matrix.  |result| <= p^(-rank(M)/2) up
    to floating error (classical estimate).
    """
    p, M, b = spec.p, np.asarray(M, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if M.shape[-2:] != (spec.n, spec.n) or M.ndim not in (2, 3):
        raise ShapeError(f"matrix shape {M.shape} does not match dimension {spec.n}")
    if b.shape != M.shape[:-1]:
        raise ShapeError(f"shift shape {b.shape} does not match matrix shape {M.shape}")
    one = M.ndim == 2
    if one:
        M, b = M[None], b[None]
    # per matrix, N float64 values or N int64 bins at a time, plus the
    # compact values of this block and the last: two tables of N entries of
    # 8 bytes cover them
    step = block_rows(2 * 8 * spec.order)
    counts = []
    for s in range(0, max(len(M), 1), step):
        vals = _form_values(spec, M[s : s + step], b[s : s + step])
        offsets = p * np.arange(len(vals))[:, None]
        counts.append(np.bincount(np.add(vals, offsets, dtype=np.int64).ravel(), minlength=len(vals) * p))
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    out = np.dot(np.concatenate(counts).reshape(-1, p).astype(np.float64), roots) / spec.order
    return complex(out[0]) if one else out


# A chunk of g coordinates is transformed by one product with the character
# table of F_p^g when p^g is at most this; a prime above it keeps a
# length-p FFT along its own axis.
_CHAR_TABLE_MAX = 64
_CHAR_TABLES = {}


def _char_table(p: int, g: int, sign: int) -> np.ndarray:
    """The (p^g, p^g) table W[t, x] = omega^(sign t.x) of F_p^g, indexed
    little-endian on both sides (so W is symmetric); built once per
    (p, g, sign) and read-only.  Its entries come from one root table in
    which omega^(p - j) is the exact conjugate of omega^j."""
    W = _CHAR_TABLES.get((p, g, sign))
    if W is None:
        h = np.arange(p // 2 + 1)
        roots = np.empty(p, dtype=np.complex128)
        roots[h] = np.exp(sign * 2j * np.pi * h / p)
        roots[p - h[1:]] = np.conj(roots[h[1:]])
        digits = np.arange(p**g)[:, None] // p ** np.arange(g) % p
        W = roots[digits @ digits.T % p]
        W.setflags(write=False)
        _CHAR_TABLES[(p, g, sign)] = W
    return W


def _character_sums(f: np.ndarray, spec: GroupSpec, sign: int) -> np.ndarray:
    """sum_x f(x) omega^(sign x.t) for every t, for an (order,) table or for
    each row of a (B, order) stack.

    The coordinates are taken in chunks of g, with p^g <= _CHAR_TABLE_MAX.
    Once the lowest a coordinates are done, a row is viewed as
    (p^(n-a-g), p^g, p^a) and the chunk is one product with the table of
    F_p^g: `X[..., 0] @ W` for the first chunk and `W @ X` for the others.
    numpy runs the same 2-d products for every row of a stack, so a stack
    gives each row bit for bit."""
    f = np.asarray(f)
    if f.shape[-1:] != (spec.order,) or f.ndim not in (1, 2):
        raise ShapeError(f"expected a table of length {spec.order} or a stack of them, got shape {f.shape}")
    p, out = spec.p, f.reshape(-1, spec.order)
    g = 1
    while p ** (g + 1) <= _CHAR_TABLE_MAX:
        g += 1
    for a in range(0, spec.n, g):
        c = min(g, spec.n - a)
        X = out.reshape(len(out), p ** (spec.n - a - c), p**c, p**a)
        if p > _CHAR_TABLE_MAX:
            out = np.fft.fft(X, axis=2) if sign < 0 else np.fft.ifft(X, axis=2, norm="forward")
        elif a == 0:
            out = X[..., 0] @ _char_table(p, c, sign)
        else:
            out = np.matmul(_char_table(p, c, sign), X)
    return out.reshape(f.shape)


def dft(f: np.ndarray, spec: GroupSpec) -> np.ndarray:
    """hat f(t) = E_x f(x) omega^(-x.t), as a flat array over character
    indices: an (order,) array for one table, (B, order) for a (B, order)
    stack, each row transformed on its own (as ranks and gauss_sum take
    stacks).

    Computed as products with the character tables of F_p^g over chunks of
    g coordinates (`_character_sums`).
    """
    out = _character_sums(f, spec, -1)
    out /= spec.order
    return out


def idft(fhat: np.ndarray, spec: GroupSpec) -> np.ndarray:
    """Inverse of dft, row by row for a stack: f(x) = sum_t hat f(t) omega^(x.t)."""
    return _character_sums(fhat, spec, 1)


class GroupSubset:
    """Dense indicator of a subset of F_p^n (bit i set iff the vector with
    index i is a member)."""

    def __init__(self, spec: GroupSpec, indicator=None):
        self.spec = spec
        if indicator is None:
            self.indicator = np.zeros(spec.order, dtype=bool)
        else:
            ind = np.asarray(indicator, dtype=bool)
            if ind.shape != (spec.order,):
                raise ShapeError(
                    f"indicator length {ind.shape} does not match group order {spec.order}"
                )
            self.indicator = ind.copy()

    @classmethod
    def from_indices(cls, spec: GroupSpec, indices) -> "GroupSubset":
        s = cls(spec)
        s.indicator[np.asarray(list(indices), dtype=np.int64)] = True
        return s

    @classmethod
    def from_members(cls, spec: GroupSpec, members) -> "GroupSubset":
        return cls.from_indices(spec, [spec.index_of(v) for v in members])

    @classmethod
    def full(cls, spec: GroupSpec) -> "GroupSubset":
        return cls(spec, np.ones(spec.order, dtype=bool))

    def __len__(self):
        return int(self.indicator.sum())

    def __contains__(self, v) -> bool:
        return bool(self.indicator[self.spec.index_of(v)])

    def contains_index(self, i: int) -> bool:
        return bool(self.indicator[i])

    def density(self) -> float:
        return len(self) / self.spec.order

    def complement(self) -> "GroupSubset":
        return GroupSubset(self.spec, ~self.indicator)

    def intersect(self, other: "GroupSubset") -> "GroupSubset":
        return GroupSubset(self.spec, self.indicator & other.indicator)

    def indices(self) -> np.ndarray:
        return np.nonzero(self.indicator)[0]

    def members(self) -> np.ndarray:
        return self.spec.digits[self.indicator].astype(np.int64)

    def __eq__(self, other):
        return (
            isinstance(other, GroupSubset)
            and self.spec == other.spec
            and np.array_equal(self.indicator, other.indicator)
        )

    def __repr__(self):
        return f"GroupSubset(p={self.spec.p}, n={self.spec.n}, size={len(self)})"


def write_subset(subset: GroupSubset, path: str) -> None:
    """File format: first line "p n", then one member per line as n base-p
    digits, most significant last (matching the little-endian index); the
    digits run together, or are space-separated when one of them is >= 10."""
    spec = subset.spec
    with open(path, "w") as fh:
        fh.write(f"{spec.p} {spec.n}\n")
        for row in subset.members():
            fh.write(_format_row(row) + "\n")


def _format_row(row) -> str:
    """Entries run together while each is one digit, else space-separated."""
    vals = [str(int(v)) for v in row]
    return (" " if any(len(v) > 1 for v in vals) else "").join(vals)


def _parse_row(text: str, n: int, p: int, where: str) -> np.ndarray:
    """The n base-p digits of one file line, split on whitespace, else per
    character unless n == 1; anything else is a ValueError naming `where`
    (path:line)."""
    tokens = text.split()
    if len(tokens) == 1 and n != 1:
        tokens = list(text)
    if len(tokens) != n or not all(t.isascii() and t.isdigit() for t in tokens):
        raise ValueError(f"{where}: expected {n} base-{p} digits")
    digits = [int(t) for t in tokens]
    if any(d >= p for d in digits):
        raise ValueError(f"{where}: digit out of range for base {p}")
    return np.array(digits, dtype=np.int64)


def read_subset(path: str) -> GroupSubset:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected header 'p n'")
        p, n = int(header[0]), int(header[1])
        spec = GroupSpec(p, n)
        indices = [
            spec.index_of(_parse_row(line.strip(), n, p, f"{path}:{lineno}"))
            for lineno, line in enumerate(fh, start=2)
            if line.strip()
        ]
    return GroupSubset.from_indices(spec, indices)
