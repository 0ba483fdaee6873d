"""Uniformity norms, quasirandomness measures, sum-membership grids, bilinear-form
graphs and triads, sum-label arithmetic, reduced pairs, density transfer,
and octahedron counts.

Densities are kept as exact integer ratios until a report is produced; the
fast deviation computations are quadratic/cubic contractions whose equality
with the naive multi-fold sums is covered by oracle tests.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import (
    CapacityError, GroupSpec, GroupSubset, ShapeError, _sum_index_grid, block_rows, dft,
)
from .factors import AtomLabel, cell_counts, label_index_table, label_values


# The blocked kernels here (u2_norm, u3_norm, beta_graph, dev2_sum, oct_sum
# and _sum_membership_tensor) take their blocks from core.block_rows: each
# counts the bytes of every temporary one row of its block creates, so a
# block holds about core.BLOCK_BYTES whatever the sizes.  An index entry from
# _sum_index_grid costs 24 bytes: its int64 result and two temporaries.


class MeasureReport:
    """A named quantity with its bound and pass/fail status."""

    def __init__(self, name, measured, bound, bound_formula="", tolerance=0.0, extras=None):
        self.name = name
        self.measured = float(measured)
        self.bound = float(bound)
        self.bound_formula = bound_formula or str(bound)
        self.status = "PASS" if self.measured <= self.bound + tolerance else "FAIL"
        self.extras = extras or {}

    def __repr__(self):
        return f"MeasureReport({self.name}: {self.measured:.6g} vs {self.bound:.6g} -> {self.status})"

    def to_jsonable(self):
        return {
            "name": self.name,
            "measured": self.measured,
            "bound": self.bound,
            "bound_formula": self.bound_formula,
            "status": self.status,
            "extras": self.extras,
        }


# --- Gowers norms ---


def u2_norm(f, spec: GroupSpec) -> float:
    """U^2 norm via the correlation form E_h |g(h)|^2 with
    g(h) = E_x f(x) conj f(x+h), computed directly: it never calls `dft` or
    an FFT, so comparing it with the Fourier fourth moment is a real check.

    Split each vector as x = (x_hi, x_lo) into its high and low coordinates;
    with the little-endian index this is F = f.reshape(P, Q).  For a block of
    high shifts h_hi, the rows of conj F are gathered at the sums
    x_hi + h_hi in the high half-group (by `_sum_index_grid`) and one matrix
    product gives
    M[x_lo, h_hi, y_lo] = sum_(x_hi) F[x_hi, x_lo] conj F[x_hi + h_hi, y_lo].
    Then g(h_hi, h_lo) = (1/N) sum_(x_lo) M[x_lo, h_hi, x_lo + h_lo], gathered
    through the addition table of the low half-group (`spec.half_table`,
    the table `_sum_index_grid` reads).  That is O(N^2)
    multiply-adds in BLAS; no table has more than N entries, and the blocks
    of h_hi come from `block_rows`.  For n = 1 the low half is the trivial
    group (Q = 1).  A real f stays real, which needs a quarter of the
    multiply-adds.
    """
    f = np.asarray(f)
    f = f.astype(np.result_type(f.dtype, np.float64))
    if f.shape != (spec.order,):
        raise ShapeError("function table length mismatch")
    N = spec.order
    n_lo = spec.n // 2
    Q = spec.p**n_lo
    P = N // Q
    F = f.reshape(P, Q)
    Ft = np.ascontiguousarray(F.T)
    Fc = np.conj(F)
    # at n = 1 the high half is the group itself: share its p x p table
    hi_spec = GroupSpec(spec.p, spec.n - n_lo) if n_lo else spec
    lo_table = spec.half_table
    rows = np.arange(Q)[:, None]
    total = 0.0
    # per h_hi: P sums, the N gathered conj F entries, M and its gather
    block = block_rows(24 * P + F.itemsize * (N + 2 * Q * Q))
    for start in range(0, P, block):
        hs = np.arange(start, min(start + block, P))
        sums = _sum_index_grid(hi_spec, hs, np.arange(P))
        M = (Ft @ Fc[sums.T].reshape(P, -1)).reshape(Q, len(hs), Q)
        g = M[rows, :, lo_table].sum(axis=0)
        total += float((np.abs(g) ** 2).sum())
    return float((total / N**3) ** 0.25)


def u2_norm_fourier(f, spec: GroupSpec) -> float:
    """U^2 norm via the fourth moment of the Fourier transform."""
    fhat = dft(np.asarray(f, dtype=complex), spec)
    return float((np.abs(fhat) ** 4).sum() ** 0.25)


def u3_norm(f, spec: GroupSpec) -> float:
    """U^3 norm as E_c of the fourth U^2 power of the multiplicative
    derivative, each inner norm via the Fourier identity; the shifts x + c
    come from `_sum_index_grid`, a block of c at a time (`block_rows`)."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (spec.order,):
        raise ShapeError("function table length mismatch")
    N = spec.order
    total = 0.0
    # per c and x: the sum; the gather, its conjugate, delta and two dft
    # tables (complex); |hat| and its fourth power (float64)
    block = block_rows((24 + 5 * 16 + 2 * 8) * N)
    for start in range(0, N, block):
        shifted = _sum_index_grid(spec, np.arange(start, min(start + block, N)), np.arange(N))
        total += float((np.abs(dft(f[None, :] * np.conj(f[shifted]), spec)) ** 4).sum())
    return float((total / N) ** 0.125)


def u3_norm_naive(f, spec: GroupSpec) -> float:
    """Direct eight-fold summation oracle (small groups only)."""
    f = np.asarray(f, dtype=complex)
    N = spec.order
    if N > 100:
        raise CapacityError("naive U^3 oracle limited to tiny groups")
    tab = np.zeros((N, N), dtype=np.int64)
    for i in range(N):
        tab[i] = spec.add_perm(i)
    total = 0.0 + 0.0j
    for x in range(N):
        for a in range(N):
            xa = tab[x, a]
            for b in range(N):
                xb, xab = tab[x, b], tab[xa, b]
                inner = 0.0 + 0.0j
                for c in range(N):
                    inner += (
                        f[x]
                        * np.conj(f[xa])
                        * np.conj(f[xb])
                        * np.conj(f[tab[x, c]])
                        * f[xab]
                        * f[tab[xa, c]]
                        * f[tab[xb, c]]
                        * np.conj(f[tab[xab, c]])
                    )
                total += inner
    return float(abs(total / N**4) ** 0.125)


# --- triads ---


class TriadDescriptor:
    """Label data for a triad (ternary) or bipartite (binary) configuration
    of atoms and bilinear-form graphs of a quadratic factor."""

    def __init__(self, factor, a_parts, b_parts, b_cross):
        self.factor = factor
        self.kind = 3 if len(a_parts) == 3 else 2
        if len(a_parts) not in (2, 3):
            raise ValueError("descriptor needs two or three atoms")
        ell, q = factor.ell, factor.q
        self.a_parts = [np.asarray(a, dtype=np.int64) % factor.spec.p for a in a_parts]
        self.b_parts = [np.asarray(b, dtype=np.int64) % factor.spec.p for b in b_parts]
        self.b_cross = [np.asarray(b, dtype=np.int64) % factor.spec.p for b in b_cross]
        for a in self.a_parts:
            if a.shape != (ell,):
                raise ShapeError("linear label length mismatch")
        for b in self.b_parts + self.b_cross:
            if b.shape != (q,):
                raise ShapeError("quadratic label length mismatch")
        want_cross = 3 if self.kind == 3 else 1
        if len(self.b_parts) != self.kind or len(self.b_cross) != want_cross:
            raise ShapeError("descriptor component count mismatch")

    @classmethod
    def from_flat(cls, factor, flat):
        """Ternary layout (a1 b1, a2 b2, a3 b3, b12, b13, b23) or binary
        (a1 b1, a2 b2, b12)."""
        flat = np.asarray(flat, dtype=np.int64)
        ell, w = factor.ell, factor.ell + factor.q
        for parts, cross in ((3, 3), (2, 1)):
            if flat.size == parts * w + cross * factor.q:
                atoms = flat[: parts * w].reshape(parts, w)
                return cls(factor, atoms[:, :ell], atoms[:, ell:], flat[parts * w :].reshape(cross, -1))
        raise ShapeError("flat descriptor has the wrong length")

    def atom_labels(self):
        return [
            AtomLabel(a, b) for a, b in zip(self.a_parts, self.b_parts)
        ]

    @functools.cached_property
    def _label_table(self) -> np.ndarray:
        return label_index_table(self.factor)

    def atom(self, label: AtomLabel) -> GroupSubset:
        """Members of the factor's atom with this (reduced) label; every atom
        of one descriptor is read off one label-table pass."""
        return GroupSubset(self.factor.spec, self._label_table == label.index(self.factor.spec.p))

    def atoms(self):
        return [self.atom(lab) for lab in self.atom_labels()]


def sigma(d: TriadDescriptor) -> AtomLabel:
    """The label of the atom containing all sums across the configuration:
    linear parts add; quadratic parts add with the cross terms doubled."""
    p = d.factor.spec.p
    return AtomLabel(sum(d.a_parts) % p, (sum(d.b_parts) + 2 * sum(d.b_cross)) % p)


def _bilin_matrix(factor, X_idx, Y_idx) -> np.ndarray:
    """(q, |X|, |Y|) stack of bilinear values x^T M y mod p over the parts.

    The products run in float64 BLAS, reduced mod p after the first one; this
    is exact because every partial sum is at most n (p-1)^2 < 2^53.  The
    float64 product is cast once to the smallest unsigned dtype that holds
    n (p-1)^2 and reduced mod p in place."""
    spec = factor.spec
    dX = spec.digits[np.asarray(X_idx, dtype=np.int64)].astype(np.float64)
    dY = spec.digits[np.asarray(Y_idx, dtype=np.int64)].astype(np.float64)
    if not factor.matrices:
        return np.zeros((0, len(dX), len(dY)), dtype=np.uint8)
    Ms = np.stack(factor.matrices).astype(np.float64)
    vals = (((dX @ Ms) % spec.p) @ dY.T).astype(np.min_scalar_type(spec.n * (spec.p - 1) ** 2))
    vals %= spec.p
    return vals


def beta_graph(factor, X_idx, Y_idx, b_label) -> np.ndarray:
    """Edge matrix of the bilinear-form graph: (x, y) with x^T M_i y = b_i.

    Built a block of rows of X at a time (`block_rows`), so the bilinear
    values never exceed one float64 (q, rows, |Y|) product and its reduction."""
    X = np.asarray(X_idx, dtype=np.int64)
    b_label = np.asarray(b_label, dtype=np.int64) % factor.spec.p
    out = np.empty((len(X), len(Y_idx)), dtype=bool)
    # per row: two (q, n) float64 products of its digits, then the float64
    # bilinear product, its reduction (at most 8 bytes), the comparison with
    # b and their conjunction
    rows = block_rows(factor.q * (16 * factor.spec.n + 17 * len(Y_idx)) + len(Y_idx))
    for s in range(0, len(X), rows):
        out[s : s + rows] = (_bilin_matrix(factor, X[s : s + rows], Y_idx) == b_label[:, None, None]).all(axis=0)
    return out


def triad_graphs(d: TriadDescriptor):
    """Atoms (index arrays) and the bipartite beta edge matrices of the
    configuration; for ternary descriptors the order is (12, 13, 23)."""
    atoms = [a.indices() for a in d.atoms()]
    if d.kind == 2:
        return atoms, [beta_graph(d.factor, atoms[0], atoms[1], d.b_cross[0])]
    e12 = beta_graph(d.factor, atoms[0], atoms[1], d.b_cross[0])
    e13 = beta_graph(d.factor, atoms[0], atoms[2], d.b_cross[1])
    e23 = beta_graph(d.factor, atoms[1], atoms[2], d.b_cross[2])
    return atoms, [e12, e13, e23]


def triad_membership_check(factor) -> bool:
    """Sum-label check over all triples (x, y, z): the label of x + y + z
    must equal the sigma combination of the triple's label pieces, i.e.
    L(x+y+z) = L(x) + L(y) + L(z) on every linear column and
    Q(x+y+z) = Q(x) + Q(y) + Q(z) + 2(B(x,y) + B(x,z) + B(y,z)) on every
    quadratic column, with B(x, y) = x^T M y.

    Exhaustive: for each z, one vectorized pass compares all pairs (x, y),
    locating x + y + z through the group's sum table.  Raises CapacityError
    when the group is too large for that table.
    """
    spec = factor.spec
    p = spec.p
    table = spec.sum_table()
    if table is None:
        raise CapacityError(f"exhaustive triple check over {spec} needs the pairwise sum table")
    # (columns, N) labels and (columns, N, N) cross terms: 2 B(x, y) on the
    # quadratic columns, 0 on the linear ones.  The table exists only for
    # N^2 <= 2^23, so p < 2^12 and int16 holds every sum below.
    labels = label_values(factor).astype(np.int16)
    cross = np.zeros((len(labels), spec.order, spec.order), dtype=np.int16)
    everything = np.arange(spec.order)
    cross[factor.ell :] = 2 * _bilin_matrix(factor, everything, everything) % p
    pair = (labels[:, :, None] + labels[:, None, :] + cross) % p
    for z in range(spec.order):
        cz = cross[:, :, z]
        expected = (pair + (labels[:, z, None, None] + cz[:, :, None] + cz[:, None, :])) % p
        if not np.array_equal(expected, np.take(labels, table[z][table], axis=1)):
            return False
    return True


# --- deviation measures ---


def dev2_sum(edges: np.ndarray) -> tuple:
    """(deviation sum, density) for a dense 0/1 bipartite edge matrix m: the
    codegree contraction sum_(x0,x1) C^2 with C = g g^T and g = m - d.

    With r the row sums, t = r - d |Y| their deviations and K = m m^T the
    integer codegrees, |Y| C = |Y| K - r r^T + t t^T, whose first two terms
    are integers, exact in float64 for |Y| <= 2^26.  K is built in square
    blocks over the upper triangle (off-diagonal blocks count twice), each
    block a float32 product of two row blocks converted on the fly.  Every
    codegree is an integer at most |Y|, so float32 is exact up to
    |Y| = 2^24; wider rows take float64."""
    nx, ny = edges.shape
    if nx == 0 or ny == 0:
        return 0.0, 0.0
    r = edges.sum(axis=1, dtype=np.int64).astype(np.float64)
    total_edges = r.sum()
    t = r - total_edges / nx
    dtype = np.float32 if ny <= 1 << 24 else np.float64
    # per row: its two converted row blocks, then a row of the square block
    # (the product, its float64 copy and two outer products), which has as
    # many columns as rows, so no more than block_rows(conv)
    conv = 2 * np.dtype(dtype).itemsize * ny
    R = block_rows(conv + (np.dtype(dtype).itemsize + 24) * min(nx, block_rows(conv)))
    total = 0.0
    for i in range(0, nx, R):
        mi = edges[i : i + R].astype(dtype)
        for j in range(i, nx, R):
            block = (mi @ (mi if j == i else edges[j : j + R].astype(dtype)).T).astype(np.float64)  # K, then |Y| C
            block *= ny
            block -= np.outer(r[i : i + R], r[j : j + R])
            block += np.outer(t[i : i + R], t[j : j + R])
            total += (1 if j == i else 2) * float(np.square(block, out=block).sum())
    return total / ny**2, float(total_edges / (nx * ny))


def dev2_measure(edges: np.ndarray) -> tuple:
    """(normalized dev2 value, density): the deviation sum over |X|^2 |Y|^2."""
    nx, ny = edges.shape
    total, d = dev2_sum(edges)
    if nx == 0 or ny == 0:
        return 0.0, 0.0
    return total / (nx**2 * ny**2), d


def dev2_naive(edges: np.ndarray) -> float:
    """Four-fold sum oracle for tiny parts: the literal summand
    g[x0, y0] g[x0, y1] g[x1, y0] g[x1, y1] over the full (x0, x1, y0, y1)
    index grid, one broadcast product."""
    nx, ny = edges.shape
    if nx > 24 or ny > 24:
        raise CapacityError("naive dev2 oracle limited to parts <= 24")
    d = edges.mean() if edges.size else 0.0
    g = edges.astype(np.float64) - d
    x0, x1, y0, y1 = np.ix_(range(nx), range(nx), range(ny), range(ny))
    total = (g[x0, y0] * g[x0, y1] * g[x1, y0] * g[x1, y1]).sum()
    return float(total) / (nx**2 * ny**2) if edges.size else 0.0


def oct_sum(h: np.ndarray) -> float:
    """Octahedron sum of a (U, V, W) tensor via the nested contraction: for
    each pair (u0, u1) the V x V codegree matrix over w is squared-summed.

    The summand is symmetric in (u0, u1), so only u1 >= u0 is visited and
    the off-diagonal pairs count twice.  The u1 run is batched (to stay in
    matrix-multiply kernels) in blocks from `block_rows`, whose rows are two
    buffers: the products h[u0] h[u1] and their codegree matrices."""
    U, V, W = h.shape
    dtype = np.result_type(h.dtype, np.float64)
    rows = min(U, block_rows(dtype.itemsize * V * (V + W)))
    T, C = np.empty((rows, V, W), dtype=dtype), np.empty((rows, V, V), dtype=dtype)
    total = 0.0
    for u0 in range(U):
        for s in range(u0, U, rows):
            n = min(rows, U - s)
            t, c = T[:n], C[:n]
            np.multiply(h[u0], h[s : s + n], out=t)
            np.matmul(t, t.transpose(0, 2, 1), out=c)
            flat = c.reshape(n, V * V)
            sq = np.einsum("ij,ij->i", flat, flat)  # one squared sum per u1
            total += 2 * float(sq.sum()) - (float(sq[0]) if s == u0 else 0.0)
    return total


def oct_naive(h: np.ndarray) -> float:
    """Six-fold sum oracle for tiny parts: the literal eight-corner summand
    over the full (u0, u1, v0, v1, w0, w1) index grid, one broadcast product."""
    U, V, W = h.shape
    if max(U, V, W) > 8:
        raise CapacityError("naive oct oracle limited to parts <= 8")
    u0, u1, v0, v1, w0, w1 = np.ix_(range(U), range(U), range(V), range(V), range(W), range(W))
    return float((
        h[u0, v0, w0] * h[u0, v0, w1] * h[u0, v1, w0] * h[u0, v1, w1]
        * h[u1, v0, w0] * h[u1, v0, w1] * h[u1, v1, w0] * h[u1, v1, w1]
    ).sum())


class Dev23Result:
    def __init__(self, eps1, d2, d2_max_dev, d3, oct_value, part_sizes):
        self.eps1 = eps1
        self.d2 = d2
        self.d2_max_dev = d2_max_dev
        self.d3 = d3
        self.oct_value = oct_value
        self.part_sizes = part_sizes

    def __repr__(self):
        return (
            f"Dev23Result(eps1={self.eps1:.4g}, d2={self.d2:.4g}"
            f"+/-{self.d2_max_dev:.4g}, d3={self.d3:.4g})"
        )


def triangle_tensor(pair12, pair13, pair23) -> np.ndarray:
    """Boolean (U, V, W) tensor of triangles atop three bipartite graphs."""
    return pair12[:, :, None] & pair13[:, None, :] & pair23[None, :, :]


def dev23_measure(A: GroupSubset, d: TriadDescriptor, max_part: int = 256) -> Dev23Result:
    """Relative quasirandomness of the ternary sum graph atop a triad.

    The common bipartite density d2 is the mean of the three measured
    densities (the max deviation from it is reported); eps1 is the octahedron
    sum of the balanced weight normalized by d2^12 and the part sizes.
    """
    if d.kind != 3:
        raise ValueError("dev23 needs a ternary descriptor")
    atoms, (e12, e13, e23) = triad_graphs(d)
    U, V, W = (len(a) for a in atoms)
    if max(U, V, W) > max_part:
        raise CapacityError(f"part sizes {U},{V},{W} exceed the cap {max_part}")
    if min(U, V, W) == 0:
        return Dev23Result(0.0, 0.0, 0.0, 0.0, 0.0, (U, V, W))
    dens = [e12.mean(), e13.mean(), e23.mean()]
    d2 = float(np.mean(dens))
    d2_dev = float(max(abs(t - d2) for t in dens))
    tri = triangle_tensor(e12, e13, e23)
    ntri = int(tri.sum())
    member = _sum_membership_tensor(A, *atoms)
    edges = tri & member
    d3 = (edges.sum() / ntri) if ntri else 0.0
    h = np.where(tri, member.astype(np.float64) - d3, 0.0)
    oct_value = oct_sum(h)
    denom = (d2**12) * (U * V * W) ** 2 if d2 > 0 else 0.0
    eps1 = oct_value / denom if denom else 0.0
    return Dev23Result(eps1, d2, d2_dev, float(d3), oct_value, (U, V, W))


def _sum_membership_tensor(A: GroupSubset, *index_lists) -> np.ndarray:
    """(|X_1|, ..., |X_r|) membership of x_1 + ... + x_r in A, for r >= 2
    index lists.  The sums of all lists but the first are formed whole;
    X_1 is then added in blocks from `block_rows`."""
    X, *rest = (np.asarray(L, dtype=np.int64) for L in index_lists)
    S = rest[0]
    for L in rest[1:]:
        S = _sum_index_grid(A.spec, S, L)
    out = np.empty(X.shape + S.shape, dtype=bool)
    block = block_rows(25 * S.size)  # the index grid and the membership read
    for s in range(0, len(X), block):
        out[s : s + block] = A.indicator[_sum_index_grid(A.spec, X[s : s + block], S)]
    return out


def oct_measure(A: GroupSubset, d: TriadDescriptor, max_part: int = 256):
    """Octahedron sum of the balanced function of A relative to the triad,
    normalized by the squared part-size product (and its raw value)."""
    if d.kind != 3:
        raise ValueError("oct needs a ternary descriptor")
    atoms, (e12, e13, e23) = triad_graphs(d)
    U, V, W = (len(a) for a in atoms)
    if max(U, V, W) > max_part:
        raise CapacityError(f"part sizes {U},{V},{W} exceed the cap {max_part}")
    if min(U, V, W) == 0:
        return 0.0, 0.0
    target = d.atom(sigma(d))
    alpha = (len(A.intersect(target)) / len(target)) if len(target) else 0.0
    tri = triangle_tensor(e12, e13, e23)
    member = _sum_membership_tensor(A, *atoms)
    h = np.where(tri, member.astype(np.float64) - alpha, 0.0)
    raw = oct_sum(h)
    return raw, raw / float((U * V * W)) ** 2


def density_transfer_check(A: GroupSubset, d: TriadDescriptor, tolerance: float = 0.0) -> MeasureReport:
    """|density of the sum graph on the configuration - density of A on the
    sigma atom|, as a report (bound set by the caller via tolerance)."""
    target = d.atom(sigma(d))
    alpha = (len(A.intersect(target)) / len(target)) if len(target) else 0.0
    atoms, graphs = triad_graphs(d)
    edges = graphs[0] if d.kind == 2 else triangle_tensor(*graphs)
    count = int(edges.sum())
    rel = float((edges & _sum_membership_tensor(A, *atoms)).sum() / count) if count else 0.0
    diff = abs(rel - alpha)
    return MeasureReport(
        "density-transfer", diff, tolerance, "caller tolerance",
        extras={"relative": rel, "atom_density": alpha},
    )


def k222_count(d: TriadDescriptor, base: tuple) -> int:
    """Exact number of (u1, v1, w1) completing the base triangle to a full
    K_2,2,2 inside the triad."""
    atoms, (e12, e13, e23) = triad_graphs(d)
    u0, v0, w0 = base
    au = e12[:, v0] & e13[:, w0]
    bv = e12[u0, :] & e23[:, w0]
    cw = e13[u0, :] & e23[v0, :]
    sub12 = e12[np.ix_(np.nonzero(au)[0], np.nonzero(bv)[0])]
    sub13 = e13[np.ix_(np.nonzero(au)[0], np.nonzero(cw)[0])]
    sub23 = e23[np.ix_(np.nonzero(bv)[0], np.nonzero(cw)[0])]
    counts = sub13.astype(np.int64) @ sub23.T.astype(np.int64)
    return int((counts * sub12).sum())


# --- reduced pairs ---


class ReducedPair:
    """Label-space structure recording dense, sparse, and error atoms of a
    factor relative to a set, plus the purely-quadratic-label subgroup."""

    def __init__(self, A: GroupSubset, factor, eps: float):
        self.A = A
        self.factor = factor
        self.eps = eps
        spec = A.spec
        ell, q = factor.ell, factor.q
        self.label_spec = GroupSpec(spec.p, ell + q) if ell + q > 0 else None
        self.sizes, dens = cell_counts(label_index_table(factor), A.indicator, spec.p ** (ell + q))
        self.A1 = dens >= 1 - eps
        self.A0 = dens <= eps
        self.err = ~(self.A1 | self.A0)
        # the one dense/sparse rule: code 0 sparse, 1 dense, 2 error; a label
        # that is both (possible for eps >= 1/2) is sparse
        self.code = np.where(self.A0, 0, np.where(self.A1, 1, 2)).astype(np.int8)
        # labels with a zero linear part: the linear coordinates are the low digits
        self.H_B = np.arange(len(dens)) % spec.p**ell == 0
