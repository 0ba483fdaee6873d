"""Canonical example sets and matrix families: GS(n,p), QGS(n,p), quadrics,
unions of cosets, the rank-n symmetric matrix space built from the
finite-field trace form, helper functions for the layered-coset metric, and
the sparse unstable example.
"""

from __future__ import annotations

import numpy as np

from .core import GroupSpec, GroupSubset, as_sym_matrix, quad_values
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
    digits = spec.digits
    nonzero = digits != 0
    any_nz = nonzero.any(axis=1)
    first = np.argmax(nonzero, axis=1)
    vals = digits[np.arange(spec.order), first]
    return GroupSubset(spec, any_nz & (vals == 1))


def _poly_mul_mod(a, b, f, p):
    """Product of polynomials a*b mod f mod p (coefficient lists, low first)."""
    n = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, n - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(n + 1):
                prod[d - n + j] = (prod[d - n + j] - c * f[j]) % p
    return [v % p for v in prod[:n]] + [0] * max(0, n - len(prod))


def _poly_pow_x(e, f, p):
    """x^e mod f mod p."""
    n = len(f) - 1
    result = [1] + [0] * (n - 1)
    base = ([0, 1] + [0] * (n - 2))[:n] if n >= 2 else _poly_mul_mod([0, 1], [1], f, p)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, f, p)
        base = _poly_mul_mod(base, base, f, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    """Monic gcd of polynomials over F_p (coefficient lists, low first)."""
    a = [v % p for v in a]
    b = [v % p for v in b]

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        r = a[:]
        while len(r) >= len(b):
            coef = r[-1] * inv % p
            off = len(r) - len(b)
            for i in range(len(b)):
                r[off + i] = (r[off + i] - coef * b[i]) % p
            trim(r)
            if not r:
                break
        a, b = b, r
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [v * inv % p for v in a]
    return a


def _is_irreducible(f, p):
    """Rabin test: x^(p^n) = x mod f, and gcd(x^(p^(n/r)) - x, f) = 1 for
    every prime r dividing n."""
    n = len(f) - 1
    if n == 1:
        return True
    x = ([0, 1] + [0] * (n - 2))[:n]
    top = _poly_pow_x(p**n, f, p)
    if top != x:
        return False
    m = n
    primes = set()
    r = 2
    while r * r <= m:
        if m % r == 0:
            primes.add(r)
            while m % r == 0:
                m //= r
        r += 1
    if m > 1:
        primes.add(m)
    for r in primes:
        sub = _poly_pow_x(p ** (n // r), f, p)
        diff = [(sub[i] - x[i]) % p for i in range(n)]
        if _poly_gcd(diff, f, p) != [1]:
            return False
    return True


def _least_irreducible(n, p):
    """Lexicographically least monic irreducible of degree n over F_p
    (coefficients ordered constant term first)."""
    for code in range(p**n):
        coeffs = []
        c = code
        for _ in range(n):
            coeffs.append(c % p)
            c //= p
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return f
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def trace_sym_space(n: int, p: int) -> list:
    """A basis M_1..M_n of a space of symmetric n x n matrices over F_p in
    which every nonzero combination has rank n.

    Realizes F_(p^n) on F_p^n via the least irreducible polynomial and takes
    M_k = matrix of the form (x, y) -> Tr(t^(k-1) * x * y); nondegeneracy of
    the trace form makes every nonzero combination invertible.  Validated by
    exhaustive rank checks for n <= 8 (sampled above).
    """
    f = _least_irreducible(n, p)
    companion = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        companion[i + 1, i] = 1
    companion[:, n - 1] = [(-f[i]) % p for i in range(n)]
    tr_pow = []
    power = np.eye(n, dtype=np.int64)
    for _ in range(3 * n):
        tr_pow.append(int(np.trace(power)) % p)
        power = (power @ companion) % p
    mats = []
    for k in range(n):
        M = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                M[i, j] = tr_pow[k + i + j]
        mats.append(M)
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
    cols = label_values(factor).T
    nonzero = cols != 0
    any_nz = nonzero.any(axis=1)
    first = np.argmax(nonzero, axis=1)
    vals = cols[np.arange(spec.order), first]
    return GroupSubset(spec, any_nz & (vals == 1)), factor


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
