"""Constructive decomposition engines: uniform-dense-coset finding, dense
subspaces under tree-encoding scarcity, the stable linear-regularization
engine with factor chains, and atomicity checkers.

Subgroups are represented by their dual description: a LinearFactor whose
zero atom is the subgroup, so cosets are atoms and refinement means adding
character vectors.  The engines do not reproduce any theoretical constants:
they are greedy Fourier/energy loops whose outputs are checked against the
target conclusion shapes, with honest FAIL states when a budget ran out.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import (
    CapacityError, GroupSpec, GroupSubset, _sum_index_grid, dft, nullspace_basis, rref,
)
from .detectors import SearchBudget, Witness, _Columns, _Grid, _tree_search
from .factors import (
    LinearFactor,
    QuadraticFactor,
    _MonotoneFormula,
    cell_counts,
    label_index_table,
)


class GrowthFunction(_MonotoneFormula):
    """A named monotone non-decreasing integer map (constants allowed)."""

    _noun = "growth function"
    _strict = False


class AtomicityVerdict:
    """Classification of a partition's cells against a set: near-1, near-0,
    and error cells, with the error mass in both count and group measure."""

    def __init__(self, A: GroupSubset, table: np.ndarray, eps: float, delta: float):
        self.eps = eps
        self.delta = delta
        M = int(table.max()) + 1 if table.size else 1
        sizes, dens = cell_counts(table, A.indicator, M)
        occupied = sizes > 0
        self.cell_sizes = sizes
        self.cell_densities = dens
        self.near_one = occupied & (dens > 1 - eps) if eps > 0 else occupied & (dens == 1.0)
        self.near_zero = occupied & (dens < eps) if eps > 0 else occupied & (dens == 0.0)
        self.error = occupied & ~(self.near_one | self.near_zero)
        self.error_count = int(self.error.sum())
        self.error_mass = int(sizes[self.error].sum())
        self.total = int(sizes.sum())
        self.cells = int(occupied.sum())

    @property
    def error_fraction(self) -> float:
        return self.error_mass / self.total if self.total else 0.0

    def __repr__(self):
        return (
            f"AtomicityVerdict(eps={self.eps}, delta={self.delta}, "
            f"errors={self.error_count}/{self.cells}, mass={self.error_fraction:.4f})"
        )


def aqale_check(B: QuadraticFactor, A: GroupSubset, eps: float, delta: float):
    """Linear-error variant: PASS iff at most delta * p^ell linear atoms
    contain all non-eps-atomic intersections L cap Q."""
    spec = B.spec
    ell, q = B.ell, B.q
    table = label_index_table(B)
    verdict = AtomicityVerdict(A, table, eps, delta)
    p = spec.p
    bad_lin = {int(idx) % p**ell for idx in np.flatnonzero(verdict.error)}
    passed = len(bad_lin) <= delta * p**ell
    return passed, sorted(bad_lin), verdict


class Subgroup:
    """A subgroup of F_p^n given by dual generators (the zero atom of the
    linear factor they define) and basis rows spanning it, which fix the
    order of coset enumeration (default: the nullspace basis of the duals)."""

    def __init__(self, spec: GroupSpec, duals=(), basis=None):
        self.spec = spec
        self.duals = [np.asarray(v, dtype=np.int64) % spec.p for v in duals]
        self.basis = nullspace_basis(self.duals, spec.p, spec.n) if basis is None else basis

    @property
    def codim(self) -> int:
        return self.spec.n - len(self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def factor(self) -> LinearFactor:
        return LinearFactor(self.spec, self.duals)

    @functools.cached_property
    def _span(self) -> np.ndarray:
        """Indices of H's elements in little-endian basis-coordinate order."""
        span = np.zeros(1, dtype=np.int64)
        for b in self.basis:
            steps = self.spec.indices_of(np.outer(np.arange(self.spec.p), b))
            span = _sum_index_grid(self.spec, steps, span).ravel()
        return span

    def coset_indices(self, y) -> np.ndarray:
        """Indices of the coset y + H, enumerated by the basis coordinates;
        for an (m, n) stack of y, one row per coset."""
        return _sum_index_grid(self.spec, self.spec.indices_of(y), self._span)

    def localized(self, A: GroupSubset, y):
        """(local spec, indicator of (A - y) on H in basis coordinates)."""
        idx = self.coset_indices(y)
        m = self.dim
        lab = GroupSpec(self.spec.p, m) if m else None
        return lab, A.indicator[idx]


# Magnitudes within this of the largest count as tied for the top character.
_TIE = 1e-12


def _top_character(A: GroupSubset, H: Subgroup, y):
    """The largest nontrivial Fourier coefficient of the balanced indicator
    of A localized to the coset y + H, as (local spec, character index t,
    its magnitude), or None when H is trivial.

    t is the first index whose magnitude is within _TIE of the largest.  For
    a real table |hat f(t)| and |hat f(-t)| agree only up to rounding, so a
    plain argmax would let the DFT's rounding choose between t and -t."""
    lab, ind = H.localized(A, y)
    if lab is None:
        return None
    mags = np.abs(dft(ind.astype(np.float64) - ind.mean(), lab))
    mags[0] = 0.0
    top = mags.max()
    return lab, int(np.argmax(mags >= top - _TIE)), float(top)


def local_uniformity(A: GroupSubset, H: Subgroup, y) -> float:
    """Largest nontrivial Fourier coefficient of the balanced indicator of A
    localized to the coset y + H."""
    top = _top_character(A, H, y)
    return 0.0 if top is None else top[2]


def find_uniform_dense_coset(A: GroupSubset, H: Subgroup, eps: float):
    """Energy-increment walk: repeatedly split off the kernel hyperplane of
    the largest nontrivial local Fourier coefficient and keep the densest
    resulting coset.

    Returns (H', y, stats) with codim(H' in H) <= floor(2/eps), density of A
    on H'+y at least the density on H, and local uniformity <= eps; each
    postcondition is checked before returning and a violation raises
    AssertionError, also under python -O (it is a bug, not a caller error).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    spec = A.spec
    base_density = A.indicator[H.coset_indices(np.zeros(spec.n, dtype=np.int64))].mean()
    cur = H
    y = np.zeros(spec.n, dtype=np.int64)
    max_steps = int(2 / eps)
    for step in range(max_steps + 1):
        top = _top_character(A, cur, y)
        if top is None or top[2] <= eps:
            unif = 0.0 if top is None else top[2]
            break
        lab, t_star, _ = top
        # refine by the character's kernel, keep the densest coset
        t_vec = t_star // spec.p ** np.arange(lab.n) % spec.p  # its digits, with no digits table
        sub_coords = nullspace_basis([t_vec], spec.p, cur.dim)
        new_basis = (sub_coords @ cur.basis) % spec.p
        # direction with t.w = 1 inside the current coordinates: the first
        # such w in index order is t_i^-1 e_i at t's first nonzero entry i
        i = int(np.flatnonzero(t_vec)[0])
        w_dir = pow(int(t_vec[i]), spec.p - 2, spec.p) * cur.basis[i] % spec.p
        cur = Subgroup(spec, cur.duals + [_lift_character(cur, t_vec)], new_basis)
        # the p cosets y + j w + H', densest first (argmax keeps the first max)
        ys = (y + np.outer(np.arange(spec.p), w_dir)) % spec.p
        y = ys[int(np.argmax(A.indicator[cur.coset_indices(ys)].mean(axis=1)))]
    else:  # out of steps, so codim > max_steps too: uniformity is checked first
        unif = local_uniformity(A, cur, y)
    codim_in_H = H.dim - cur.dim
    final_density = A.indicator[cur.coset_indices(y)].mean()
    if unif > eps + 1e-12:
        raise AssertionError("returned coset is not uniform")
    if codim_in_H > max_steps:
        raise AssertionError("codimension bound violated")
    if final_density < base_density - 1e-12:
        raise AssertionError("density did not increase")
    return cur, y, {"codim": codim_in_H, "density": float(final_density), "uniformity": unif}


def _lift_character(H: Subgroup, t_vec) -> np.ndarray:
    """A vector v in F_p^n whose restriction to H (in basis coordinates)
    is the character t: any solution of H.basis @ v = t.  The basis rows are
    independent, so the system is consistent and no pivot falls on t."""
    n = H.spec.n
    t = np.asarray(t_vec, dtype=np.int64).reshape(H.dim, 1)
    R, pivots = rref(np.concatenate([H.basis, t], axis=1), H.spec.p)
    v = np.zeros(n, dtype=np.int64)
    v[pivots] = R[: len(pivots), n]
    return v


def _find_tree_encoding(A_loc: GroupSubset, d: int, budget: SearchBudget | None = None) -> dict | None:
    """One encoding of the depth-d pattern in (H, A'), all elements from H:
    the tree search of find_good_copy's T pattern with dense = A', sparse =
    its complement and every leaf allowed.  Raises CapacityError when the
    budget (by default SearchBudget()) runs out."""
    cols = _Columns(_Grid(A_loc.spec, A_loc.indicator))
    found = _tree_search(cols, (1 << A_loc.spec.order) - 1, d, (budget or SearchBudget()).start())
    return None if found is None else {"nodes": found[0], "leaves": found[1]}


def find_dense_subspace(A: GroupSubset, H: Subgroup, eps: float, d: int):
    """Either a (1-eps)-dense translated subspace of bounded codimension, or
    explicit tree-encoding evidence inside (H, A cap H); total by case split.

    Returns ("dense", H', y, stats), or ("evidence", w): a revalidated TREE
    witness w of depth d, 1 <= d <= 3, found by one tree search per round.
    """
    if not 1 <= d <= 3:
        raise ValueError("tree depth supported for 1 <= d <= 3")
    spec = A.spec
    base = A.indicator[H.coset_indices(np.zeros(spec.n, dtype=np.int64))].mean()
    if base < eps:
        raise ValueError("precondition |A cap H| >= eps|H| fails")
    eps_unif = eps
    cur, y = H, np.zeros(spec.n, dtype=np.int64)
    for _round in range(8):
        cur, y, stats = find_uniform_dense_coset(A, cur, eps_unif)
        if stats["density"] >= 1 - eps:
            return "dense", cur, y, stats
        # uniform with middling density: encodings are abundant; exhibit them
        lab, ind = cur.localized(A, y)
        if lab is not None:
            try:
                found = _find_tree_encoding(GroupSubset(lab, ind), d)
            except CapacityError:
                found = None
            if found is not None:
                # lift the local encoding back to the ambient group
                nodes = {
                    s: (lab.vector_of(h) @ cur.basis + y) % spec.p
                    for s, h in found["nodes"].items()
                }
                leaves = {
                    e: (lab.vector_of(g) @ cur.basis) % spec.p
                    for e, g in found["leaves"].items()
                }
                w = Witness("TREE", A, {"leaves": leaves, "nodes": nodes, "d": d})
                if w.revalidate():
                    return "evidence", w
        eps_unif /= 2
    raise RuntimeError("dense-subspace dichotomy did not resolve within budget")


class FactorChain:
    """A nested sequence of linear factors with per-step classifications and
    the growth/accuracy parameters of the chain conditions."""

    def __init__(self, eps, D, ell0, g: GrowthFunction, f: GrowthFunction):
        self.eps = eps
        self.D = D
        self.ell0 = ell0
        self.g = g
        self.f = f
        self.factors = []      # LinearFactor, length T+1
        self.partitions = []   # per step i >= 1: dict with sets of label ids

    def add_base(self, L: LinearFactor):
        self.factors.append(L)

    def add_step(self, L: LinearFactor, gamma0, gamma1, gamma_err):
        self.factors.append(L)
        self.partitions.append(
            {"zero": set(gamma0), "one": set(gamma1), "err": set(gamma_err)}
        )


def factor_chain_check(chain: FactorChain, A: GroupSubset) -> dict:
    """Independently test the four chain conditions against exact densities."""
    out = {"refinement": True, "growth": True, "accuracy": True, "error-spread": True}
    eps, g, f, D, ell0 = chain.eps, chain.g, chain.f, chain.D, chain.ell0
    p = A.spec.p
    for i in range(1, len(chain.factors)):
        prev, cur = chain.factors[i - 1], chain.factors[i]
        prev_set = {tuple(v) for v in prev.vectors}
        if not all(tuple(v) in {tuple(w) for w in cur.vectors} for v in prev.vectors):
            out["refinement"] = False
        ell_prev, ell_cur = prev.complexity, cur.complexity
        degenerate = {tuple(v) for v in cur.vectors} == prev_set
        if not degenerate:
            if not (f(ell_prev - ell0) < ell_cur - ell0 <= D):
                out["growth"] = False
        table = label_index_table(cur)
        sizes, dens = cell_counts(table, A.indicator, 1)
        part = chain.partitions[i - 1]
        thresh = eps * p ** (-float(g(ell_prev - ell0)))
        for lab in part["one"]:
            if sizes[lab] == 0 or dens[lab] < 1 - thresh:
                out["accuracy"] = False
        for lab in part["zero"]:
            if sizes[lab] == 0 or dens[lab] > thresh:
                out["accuracy"] = False
        # condition (4): error cells spread thinly below every coarse cell
        coarse_table = label_index_table(prev)
        cell_of = {}
        for lab in part["err"]:
            members = np.nonzero(table == lab)[0]
            if members.size == 0:
                continue
            coarse_lab = int(coarse_table[members[0]])
            cell_of.setdefault(coarse_lab, 0)
            cell_of[coarse_lab] += 1
        bound = thresh * p ** (ell_cur - ell_prev)
        if any(v > bound for v in cell_of.values()):
            out["error-spread"] = False
    return out


def stable_linear_decomposition(
    A: GroupSubset,
    H0: Subgroup | None = None,
    omega0=None,
    eps: float = 0.1,
    psi: GrowthFunction | None = None,
    max_codim: int = 8,
    g: GrowthFunction | None = None,
    f: GrowthFunction | None = None,
):
    """Greedy refinement engine: while some coset of the current subgroup is
    not atomic, refine by the largest local Fourier character of the worst
    coset.  Returns (H', omega', verdict, chain, history).

    history records, per round, the codimension and the error fractions at
    the plain eps level and at the strong eps*p^-psi(m) level; the target
    conclusion shape (all cosets outside omega' strongly atomic, |omega'|
    small) is checked on the final state and reported honestly in
    verdict_strong.
    """
    spec = A.spec
    psi = psi or GrowthFunction("2*x")
    g = g or GrowthFunction("0")
    f = f or GrowthFunction("0")
    H = H0 or Subgroup(spec, [])
    ell0 = H.codim
    omega0 = set() if omega0 is None else set(omega0)
    chain = FactorChain(eps, max_codim, ell0, g, f)
    chain.add_base(H.factor())
    history = []
    p = spec.p

    def classify(sub: Subgroup):
        table = label_index_table(sub.factor())
        m = sub.codim - ell0
        strong_eps = eps * p ** (-float(psi(m)))
        v_plain = AtomicityVerdict(A, table, eps, eps)
        v_strong = AtomicityVerdict(A, table, strong_eps, strong_eps)
        return table, m, v_plain, v_strong

    cur = H
    while True:
        table, m, v_plain, v_strong = classify(cur)
        occupied = np.nonzero(v_plain.cell_sizes > 0)[0]
        err_frac_plain = v_plain.error_count / max(1, occupied.size)
        err_frac_strong = v_strong.error_count / max(1, occupied.size)
        history.append(
            {
                "codim": cur.codim,
                "m": m,
                "error_fraction": err_frac_plain,
                "error_fraction_strong": err_frac_strong,
                "cells": int(occupied.size),
            }
        )
        # try to commit a chain step (conditions checked by the validator)
        gamma1 = [int(i) for i in np.nonzero(v_strong.near_one)[0]]
        gamma0 = [int(i) for i in np.nonzero(v_strong.near_zero)[0]]
        gamma_err = [int(i) for i in np.nonzero(v_strong.error)[0]]
        if v_strong.error_count == 0 or m >= max_codim:
            chain.add_step(cur.factor(), gamma0, gamma1, gamma_err)
            break
        # refine the most balanced error coset
        err_cells = np.nonzero(v_plain.error)[0]
        if err_cells.size == 0:
            err_cells = np.nonzero(v_strong.error)[0]
        dens = v_plain.cell_densities[err_cells]
        pick = err_cells[int(np.argmin(np.abs(dens - 0.5)))]
        rep_idx = int(np.nonzero(table == pick)[0][0])
        rep = spec.vector_of(rep_idx)
        top = _top_character(A, cur, rep)
        if top is None:
            break
        lab, t_star, mag = top
        if mag <= 1e-12:
            chain.add_step(cur.factor(), gamma0, gamma1, gamma_err)
            break
        new_dual = _lift_character(cur, t_star // p ** np.arange(lab.n) % p)
        cur = Subgroup(spec, cur.duals + [new_dual])
        if cur.codim - ell0 > max_codim:
            table, m, v_plain, v_strong = classify(cur)
            break

    omega_prime = [int(i) for i in np.nonzero(v_strong.error)[0]]
    mu = len(omega0) / max(1, p**ell0)
    bound = (mu + eps * p ** (-float(psi(m)))) * p ** (m + ell0)
    verdict_strong = len(omega_prime) <= bound
    result = {
        "H": cur,
        "omega": omega_prime,
        "verdict": v_plain,
        "verdict_strong": v_strong,
        "strong_conclusion_holds": bool(verdict_strong),
        "chain": chain,
        "history": history,
    }
    return result
