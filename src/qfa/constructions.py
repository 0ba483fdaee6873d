"""Canonical example sets and matrix families: GS(n,p), QGS(n,p), quadrics,
unions of cosets, the rank-n symmetric matrix space built from the
finite-field trace form, the translate-intersection identities of GS, and
the sparse unstable example.

F_(p^n) is realized as F_p[C] for the companion matrix C of the least monic
irreducible polynomial of degree n; irreducibility is decided by Rabin's test
on powers of C and exact ranks, with no polynomial arithmetic.
"""

from __future__ import annotations

import numpy as np

from .core import GroupSpec, GroupSubset, as_sym_matrix, matrix_rank, quad_values
from .factors import (
    LinearFactor,
    QuadraticFactor,
    _least_rank_combo,
    label_index_table,
    label_values,
    matrix_family_rank,
)


def first_nonzero(x) -> int:
    """Index (1-based) of the first nonzero coordinate; n for the zero vector."""
    x = np.asarray(x, dtype=np.int64)
    nz = np.nonzero(x)[0]
    if nz.size == 0:
        return int(x.size)
    return int(nz[0]) + 1


def tau(i: int, alpha: int, a, p: int) -> np.ndarray:
    """tau_i^alpha(a) = alpha*e_i - a."""
    a = np.asarray(a, dtype=np.int64)
    out = (-a) % p
    out[i - 1] = (out[i - 1] + alpha) % p
    return out


def gs(n: int, p: int) -> GroupSubset:
    """The layered-coset set A = union_i (H_i + e_i); membership is
    "the first nonzero coordinate equals 1"."""
    spec = GroupSpec(p, n)
    return GroupSubset(spec, _leads_with_one(spec.digits))


def _leads_with_one(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows whose first nonzero entry is 1; a zero row reads its
    first entry, 0, and is out."""
    return rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)] == 1


def _power(C: np.ndarray, e: int, p: int) -> np.ndarray:
    """C^e mod p by repeated squaring in int64 (each entry of a product is at
    most n (p-1)^2, far below 2^63 for any group under the cap)."""
    out = np.eye(len(C), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ C % p
        C = C @ C % p
        e >>= 1
    return out


def _companions(n: int, p: int):
    """Companion matrices of the monic polynomials f = x^n + sum_i f_i x^i of
    degree n over F_p, with f_0..f_(n-1) the base-p digits of 0, 1, 2, ...
    (constant term least significant).  C e_i = e_(i+1) and C e_(n-1) =
    -(f_0, ..., f_(n-1)), so g(C) is multiplication by g mod f."""
    for code in range(p**n):
        C = np.eye(n, k=-1, dtype=np.int64)
        C[:, -1] = [-(code // p**i) % p for i in range(n)]
        yield C


def _rabin_irreducible(C: np.ndarray, p: int) -> bool:
    """Rabin's test on the companion matrix C of f: f is irreducible iff
    C^(p^n) = C and C^(p^(n/r)) - C is invertible for every prime r | n
    (g(C) is invertible iff gcd(g, f) = 1)."""
    n = len(C)
    frobenius = [C]
    for _ in range(n):
        frobenius.append(_power(frobenius[-1], p, p))
    primes = [r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))]
    return np.array_equal(frobenius[n], C) and all(
        matrix_rank((frobenius[n // r] - C) % p, p) == n for r in primes
    )


def _least_irreducible_companion(n: int, p: int) -> np.ndarray:
    """Companion matrix of the first monic irreducible f of degree n over F_p
    in `_companions` order."""
    return next(C for C in _companions(n, p) if _rabin_irreducible(C, p))


def trace_sym_space(n: int, p: int) -> list:
    """A basis M_1..M_n of a space of symmetric n x n matrices over F_p in
    which every nonzero combination has rank n.

    Realizes F_(p^n) as F_p[C] for the companion matrix C of the least
    irreducible polynomial, and takes M_k = matrix of the form (x, y) ->
    Tr(t^(k-1) * x * y), whose entries are M_k[i, j] = tr(C^(k-1+i+j));
    nondegeneracy of the trace form makes every nonzero combination
    invertible.  Validated by exhaustive rank checks for n <= 8 (sampled
    above).
    """
    C = _least_irreducible_companion(n, p)
    tr_pow = []
    power = np.eye(n, dtype=np.int64)
    for _ in range(3 * n):
        tr_pow.append(int(np.trace(power)) % p)
        power = (power @ C) % p
    tr_pow = np.array(tr_pow, dtype=np.int64)
    hankel = np.add.outer(np.arange(n), np.arange(n))
    mats = [tr_pow[k + hankel] for k in range(n)]
    if n <= 8:
        rank = matrix_family_rank(mats, p)
    else:
        rng = np.random.default_rng(0xF0F2)
        lams = np.stack([rng.integers(0, p, size=n) for _ in range(2000)])
        rank = min(n, _least_rank_combo(mats, p, lams[lams.any(axis=1)])[0])
    if rank != n:
        raise RuntimeError(f"trace construction failed rank validation: rank {rank} != {n}")
    return mats


def qgs(n: int, p: int) -> tuple:
    """The quadratic analogue of gs: A = union_i Q_i(e_i) for the trace
    matrix family, together with the generating purely quadratic factor."""
    spec = GroupSpec(p, n)
    factor = QuadraticFactor(spec, [], trace_sym_space(n, p))
    return GroupSubset(spec, _leads_with_one(label_values(factor).T)), factor


def quadric(n: int, p: int, M=None, c: int = 0) -> GroupSubset:
    """{x : x^T M x = c}; M defaults to the identity."""
    spec = GroupSpec(p, n)
    if M is None:
        M = np.eye(n, dtype=np.int64)
    M = as_sym_matrix(M, p)
    return GroupSubset(spec, quad_values(M, spec) == c % p)


def sparse_example(n: int, p: int) -> GroupSubset:
    """A_n = {e_i + e_j : 1 <= i <= n/2, n/2+1 <= j <= n/2+i}; unstable but
    linearly atomic (subsets have dimension at least sqrt of their size)."""
    if n % 2:
        raise ValueError("the sparse example needs even n")
    spec = GroupSpec(p, n)
    half = n // 2
    members = []
    for i in range(1, half + 1):
        for j in range(half + 1, half + i + 1):
            v = np.zeros(n, dtype=np.int64)
            v[i - 1] += 1
            v[j - 1] += 1
            members.append(v)
    return GroupSubset.from_members(spec, members)


def union_of_cosets(H: LinearFactor, reps) -> GroupSubset:
    """The union of the H-atoms (cosets) containing the given representatives."""
    spec = H.spec
    table = label_index_table(H)
    mask = np.zeros(spec.order, dtype=bool)
    for r in reps:
        mask |= table == table[spec.index_of(np.asarray(r))]
    return GroupSubset(spec, mask)


def _h_coset(spec: GroupSpec, i: int, shift) -> np.ndarray:
    """Indicator of H_i + shift, with H_i = {x : x_1 = ... = x_i = 0}."""
    shift = np.asarray(shift, dtype=np.int64) % spec.p
    digits = spec.digits
    if i == 0:
        return np.ones(spec.order, dtype=bool)
    return (digits[:, :i] == shift[:i]).all(axis=1)


def _gs_translate_union(spec, idx_range, betas, base) -> np.ndarray:
    out = np.zeros(spec.order, dtype=bool)
    for i in idx_range:
        for beta in betas:
            out |= _h_coset(spec, i, tau(i, beta, base, spec.p))
    return out


def verify_gs_intersection(b, c, n: int, p: int) -> dict:
    """Check the closed-form descriptions of how translates of the layered
    set and its complement intersect.

    Returns a dict with entries "mixed" ((A-b) cap (notA-c)), "plus"
    ((A-b) cap (A-c)) and "minus" ((notA-b) cap (notA-c)), each holding the
    fired case id and the verdict of the enumeration equality.
    """
    spec = GroupSpec(p, n)
    b = np.asarray(b, dtype=np.int64) % p
    c = np.asarray(c, dtype=np.int64) % p
    if np.array_equal(b, c):
        raise ValueError("translates must differ")
    A = gs(n, p).indicator
    m = first_nonzero((b - c) % p)
    if not ((b - c) % p)[m - 1]:
        raise AssertionError("m must be the first differing coordinate")
    delta = int((b[m - 1] - c[m - 1]) % p)
    other_betas = [beta for beta in range(2, p)]

    A_b = A[spec.add_perm(spec.index_of(b))]
    A_c = A[spec.add_perm(spec.index_of(c))]
    nA_b, nA_c = ~A_b, ~A_c

    out = {}

    # (A-b) cap (notA-c): cases on delta = b_m - c_m.
    mixed_lhs = A_b & nA_c
    rhs = np.zeros(spec.order, dtype=bool)
    if delta == p - 1:
        case = 1
        rhs |= _h_coset(spec, m, tau(m, 1, b, p))
    elif delta != 1:
        case = 2
        rhs = _gs_translate_union(spec, range(m, n + 1), [1], b)
    else:
        case = 3
        rhs = _gs_translate_union(spec, range(m + 1, n + 1), [1], b)
        rhs |= _gs_translate_union(spec, range(m + 1, n + 1), other_betas, c)
        rhs[spec.index_of((-c) % p)] = True
    out["mixed"] = (case, bool(np.array_equal(mixed_lhs, rhs)))

    # (A-b) cap (A-c).
    plus_lhs = A_b & A_c
    rhs = _gs_translate_union(spec, range(1, m), [1], b)
    if delta == 1:
        case = 1
        rhs |= _gs_translate_union(spec, range(m + 1, n + 1), [1], c)
    elif delta == p - 1:
        case = 2
        rhs |= _gs_translate_union(spec, range(m + 1, n + 1), [1], b)
    else:
        case = 3
    out["plus"] = (case, bool(np.array_equal(plus_lhs, rhs)))

    # (notA-b) cap (notA-c).  Pieces below the split coordinate are common;
    # at and beyond it the surviving translate family depends on delta.
    minus_lhs = nA_b & nA_c
    rhs = _gs_translate_union(spec, range(1, m), other_betas, b)
    for beta in other_betas:
        if (beta - delta) % p in other_betas:
            rhs |= _h_coset(spec, m, tau(m, beta, b, p))
    if delta not in (0, 1):
        rhs |= _gs_translate_union(spec, range(m + 1, n + 1), other_betas, c)
        rhs[spec.index_of((-c) % p)] = True
    if delta != p - 1:
        rhs |= _gs_translate_union(spec, range(m + 1, n + 1), other_betas, b)
        rhs[spec.index_of((-b) % p)] = True
    if delta not in (0, 1):
        case = 4
    elif delta != p - 1:
        case = 5
    else:
        case = 6
    out["minus"] = (case, bool(np.array_equal(minus_lhs, rhs)))
    return out
