"""Exact, witness-producing searches for the combinatorial tameness
properties: order property, hyperplane and functional order properties,
VC and VC2 dimension, cube auto-completion, tree encodings, staircase
extraction from encodings, good copies in reduced pairs, and affine
embeddings.

Search strategy notes.  Since the group is abelian, a membership column over
a chosen tuple collapses to a function of elementwise sums; every exhaustive
search here enumerates one side of a configuration and matches the other side
against precomputed level sets of the required column patterns.  Searches pin
the first element of each translatable role at 0: a_1 in find_op and vc_dim,
x_1 and y_1 in find_hop2, x_1 and z_1 in find_fop2, b_1 and c_1 in vc2_dim,
and the cube's y_1 and z_1 in cap2_check.  A NONE verdict is reported only
when the pruned search provably covered the whole space.

The staircase, shattering and tree searches (find_op, find_hop2, vc_dim,
find_good_copy, the tree search behind regularize.find_dense_subspace and the
guided search of hodges_extract) run on one DFS engine, _dfs.  Each slot of a
pattern keeps a candidate mask, a Python-int bitset over the group; picking a
translate c ANDs c's column (bit s is A[c + s]) or its complement into each
slot's mask, and a search prunes when a mask empties.  The engine owns the
loop over candidates, the one SearchBudget.tick() per candidate and the
first-hit return, and raises _Exhausted, a CapacityError, when the budget runs
out.  A search differs only in its candidate rule, its refine rule (_pattern
for staircases and trees, _shatter for shattered sets, a membership table
read cell by cell for hodges_extract, which keeps no slots) and its leaf.
The columns, and those of the tree and good-copy counts, come from _Columns,
which builds each one on first use from GroupSpec.sum_table() (or
_sum_index_grid in groups too large for it) and keeps it for the search.

find_fop2, vc2_dim and cap2_check share one grid kernel: a block of translate
tuples reads all of its patterns A[a + b_i + c_j] from GroupSpec.sum_table()
(or _sum_index_grid in groups too large for it) in a few gathers.  Its first
hit in lexicographic order is the one a tuple-at-a-time loop would find, so the
witness is that loop's, and SearchBudget.charge bills the block exactly as the
loop's ticks would, also when node_limit falls inside it.  Blocks come from
core.block_rows, each tuple counting every temporary it creates, and the
clock is read once per block.

Every witness a search returns is re-tested by Witness.revalidate on a path
the searches do not share: _role_sums adds the coordinate vectors of its roles
by broadcasting and indexes the sums with GroupSpec.indices_of, one gather
reads A there (_members), or the reduced pair's label codes for a good copy,
and the kind compares that grid with its expected pattern.  It never reads
sum_table(), half_table, _sum_index_grid, _Grid or _Columns.
"""

from __future__ import annotations

import functools
import itertools
import time

import numpy as np

from .core import CapacityError, GroupSpec, GroupSubset, _sum_index_grid, block_rows, matrix_rank

NONE = "none"
FOUND = "witness"
BOUND_ONLY = "bound-only"
_CLOCK_STRIDE = 4096  # nodes between reads of the clock in SearchBudget.tick


class SearchBudget:
    """Node/time limits for a search.  Exhaustive verdicts are only reported
    when the search finished below the limits; otherwise the result status is
    BOUND_ONLY, never NONE."""

    def __init__(self, node_limit: int = 50_000_000, time_limit: float = 600.0):
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.nodes = 0
        self._deadline = None
        self._next_clock = _CLOCK_STRIDE

    def start(self):
        self.nodes = 0
        self._deadline = time.monotonic() + self.time_limit
        self._next_clock = _CLOCK_STRIDE
        return self

    def tick(self, amount: int = 1) -> bool:
        """Charge `amount` nodes; True while within budget.  The clock is
        read whenever the charged nodes cross the next multiple of 4096, so
        a large stride such as tick(N) reads it on every call."""
        self.nodes += amount
        if self.nodes > self.node_limit:
            return False
        if self.nodes >= self._next_clock:
            self._next_clock = (self.nodes // _CLOCK_STRIDE + 1) * _CLOCK_STRIDE
            if time.monotonic() > self._deadline:
                return False
        return True

    def charge(self, per: int, count: int, hit: int | None = None) -> bool:
        """Charge `count` tuples of `per` nodes as tick(per) per tuple up to
        tuple `hit` would: per * (hit + 1) for a hit, else per * count.  When
        node_limit falls inside the block, charge per * (room + 1), up to the
        tick that would have failed, and return False."""
        room = max(0, (self.node_limit - self.nodes) // per)
        used = count if hit is None else hit + 1
        if used > room:
            self.nodes += per * (room + 1)
            return False
        return self.tick(per * used)


class Witness:
    """A typed certificate; revalidate() re-tests every membership constraint
    from scratch: one gather on _role_sums digit sums per witness, compared
    with the kind's expected pattern, independent of the search code."""

    def __init__(self, kind: str, subset: GroupSubset, data: dict, k: int = 0):
        self.kind = kind
        self.subset = subset
        self.data = data
        self.k = k

    def __repr__(self):
        return f"Witness(kind={self.kind!r}, k={self.k})"

    def to_jsonable(self) -> dict:
        def conv(v):
            if isinstance(v, np.ndarray):
                return [int(t) for t in v]
            if isinstance(v, dict):
                return {str(kk): conv(vv) for kk, vv in v.items()}
            if isinstance(v, (list, tuple)):
                return [conv(t) for t in v]
            return v

        roles = {k: v for k, v in self.data.items() if k not in ("red", "side")}
        return {"kind": self.kind, "k": self.k, "roles": conv(roles)}

    def revalidate(self) -> bool:
        A, k, data = self.subset, self.k, self.data
        reads = {"OP": "ab", "HOP2": "xyz", "FOP2": "xyz", "VC": "ab", "VC2": "abc", "CUBE": "xyz",
                 "TREE": ("nodes", "leaves", "d"), "GOODCOPY": ("red", "pattern", "side")}
        if not all(role in data for role in reads.get(self.kind, ())):
            return False  # a role the kind reads is absent
        role_lists = {"OP": "ab", "HOP2": "xyz", "FOP2": "xz", "VC": "a", "VC2": "bc"}.get(self.kind, "")
        if any(len(data[role]) != k for role in role_lists):
            return False  # a k-witness lists exactly k elements per role
        if self.kind == "OP":
            r = np.arange(1, k + 1)
            return np.array_equal(_members(A, data["a"], data["b"]), r[:, None] <= r)
        if self.kind == "HOP2":
            r = np.arange(1, k + 1)  # want[u, v, w] = u < v + w
            return np.array_equal(_members(A, data["x"], data["y"], data["z"]), r[:, None, None] < r[:, None] + r)
        if self.kind == "FOP2":
            yfam = data["y"]
            # one y list per selector in [k]^(k^2); the count first, so that a
            # k too large to enumerate costs nothing
            if len(yfam) != k ** (k * k) or set(yfam) != _selectors(k):
                return False
            if any(len(ys) != k for ys in yfam.values()):
                return False
            # f[s, i, j] = f(i, j) of selector s; got[i, s, j, kk] is x_i + y^s_j + z_kk
            f = np.array(list(yfam), dtype=np.int64).reshape(len(yfam), k, k)
            got = _members(A, data["x"], [y for ys in yfam.values() for y in ys], data["z"])
            want = np.arange(1, k + 1) <= f.transpose(1, 0, 2)[..., None]
            return np.array_equal(got.reshape(want.shape), want)
        if self.kind == "VC":
            bS = data["b"]
            if set(bS) != _subsets(tuple(range(1, k + 1))):
                return False  # one b per subset of [k]
            want = np.array([[i in S for S in bS] for i in range(1, k + 1)], dtype=bool).reshape(k, len(bS))
            return np.array_equal(_members(A, data["a"], list(bS.values())), want)
        if self.kind == "VC2":
            aS = data["a"]
            if set(aS) != _subsets(tuple(itertools.product(range(1, k + 1), repeat=2))):
                return False  # one a per subset of [k]^2
            cells = itertools.product(range(1, k + 1), repeat=2)
            want = np.array([[ij in S for S in aS] for ij in cells], dtype=bool).reshape(k, k, len(aS))
            return np.array_equal(_members(A, data["b"], data["c"], list(aS.values())), want)
        if self.kind == "TREE":
            nodes, leaves = data["nodes"], data["leaves"]
            if not _keys_the_tree(nodes, leaves, data["d"]):
                return False
            pairs = [(s, e) for s in nodes for e in leaves]
            branch = np.array([len(s) < len(e) and e[: len(s)] == s for s, e in pairs], dtype=bool)
            up = np.array([len(s) < len(e) and e[len(s)] == 1 for s, e in pairs], dtype=bool)
            got = _members(A, list(nodes.values()), list(leaves.values())).ravel()
            return np.array_equal(got[branch], up[branch])
        if self.kind == "CUBE":
            want = np.ones((2, 2, 2), dtype=bool)
            want[1, 1, 1] = False  # seven corners in A, the eighth out
            return np.array_equal(_members(A, data["x"], data["y"], data["z"]), want)
        if self.kind == "GOODCOPY":
            # want[i, j]: the code of left_i + right_j (red.code: 0 sparse,
            # 1 dense), or -1 where any code but an error will do
            red, pattern = data["red"], data["pattern"]
            if pattern not in ("T", "H", "U"):
                raise ValueError(f"unknown good-copy pattern {pattern!r}")
            if not all(role in data for role in (("nodes", "leaves", "d") if pattern == "T" else ("left", "right"))):
                return False
            if pattern == "T":
                left, right = data["nodes"], data["leaves"]
                if not _keys_the_tree(left, right, data["d"]):
                    return False
                want = [[e[len(s)] if len(s) < len(e) and e[: len(s)] == s else -1 for e in right] for s in left]
            elif pattern == "H":
                left, right = dict(enumerate(data["left"])), dict(enumerate(data["right"]))
                if not len(left) == len(right) == k:
                    return False
                want = [[int(i <= j) for j in right] for i in left]
            else:  # U: right is keyed by the bits of S, one per S
                left, right = dict(enumerate(data["left"])), data["right"]
                if len(left) != k or set(right) != set(range(2**k)):
                    return False
                want = [[int(S) >> i & 1 for S in right] for i in left]
            # row 0 adds the zero label, so it holds the right elements themselves
            lab = red.label_spec
            idx = _role_sums(lab, [np.zeros(lab.n), *left.values()], list(right.values()))
            got, want = red.code[idx[1:]], np.reshape(want, idx[1:].shape)
            return bool(data["side"][idx[0]].all() and np.where(want < 0, got < 2, got == want).all())
        raise ValueError(f"unknown witness kind {self.kind!r}")


@functools.cache
def _subsets(items: tuple) -> frozenset:
    """Every subset of items, as frozensets; kept per tuple, since a check
    reads the same few key sets again and again."""
    return frozenset(frozenset(itertools.compress(items, bits)) for bits in itertools.product((0, 1), repeat=len(items)))


@functools.cache
def _selectors(k: int) -> frozenset:
    """Every selector f: [k]^2 -> [k], as the tuple of its values f(i, j)
    row by row; kept per k, as `_subsets` keeps its key sets."""
    return frozenset(itertools.product(range(1, k + 1), repeat=k * k))


def _keys_the_tree(nodes: dict, leaves: dict, d: int) -> bool:
    """Whether a depth-d tree's roles key exactly every node and every leaf."""
    sigmas, etas = _tree_keys(d)
    return set(nodes) == set(sigmas) and set(leaves) == set(etas)


def _role_sums(spec: GroupSpec, *roles) -> np.ndarray:
    """Index grid of the role sums: role i lists m_i coordinate vectors, and
    out[j_1, ..., j_r] is the index of role_1[j_1] + ... + role_r[j_r].
    Digit arithmetic only (one broadcast sum, spec.indices_of), never a sum
    table, so that witnesses are checked on a path the searches do not
    share."""
    total = np.zeros(spec.n, dtype=np.int64)
    for i, role in enumerate(roles):
        shape = [1] * len(roles) + [spec.n]
        shape[i] = len(role)
        total = total + np.asarray(role, dtype=np.int64).reshape(shape)
    return spec.indices_of(total)


def _members(A: GroupSubset, *roles) -> np.ndarray:
    """Membership grid of the role sums: out[j_1, ..., j_r] says whether
    role_1[j_1] + ... + role_r[j_r] lies in A."""
    return A.indicator[_role_sums(A.spec, *roles)]


def _check_witness(w: Witness) -> None:
    """Re-test a witness a search is about to return; an invalid one is a bug
    in the search, raised explicitly so the check also runs under python -O."""
    if not w.revalidate():
        raise AssertionError(f"{w.kind} witness failed revalidation")


class DetectResult:
    def __init__(self, status: str, witness=None, nodes: int = 0):
        self.status = status
        self.witness = witness
        self.nodes = nodes

    def __repr__(self):
        return f"DetectResult({self.status}, nodes={self.nodes})"


class _Grid:
    """Sums and membership reads of an indicator `ind` over the group.
    add(x, y): index of x + y for a (P, 1) column x and a (1, m) row or
    (P, 1) column y; sums(v)[s] = index of v + s; rows(s)[..., a] =
    ind[s + a].  All read sum_table(), via look[c, a] = ind[a + c], when the
    group has one, else _sum_index_grid, where add reads y[0] and so needs
    P = 1 for a column y: _grid_search gives such a group one prefix per
    block.  entry_bytes bounds the bytes of one sum of add or rows: an int32
    table entry, or _sum_index_grid's 24 and one membership byte."""

    def __init__(self, spec: GroupSpec, ind: np.ndarray):
        self.spec, self.ind, self.N = spec, ind, spec.order
        self.tab = spec.sum_table()
        self.all = np.arange(self.N)
        self.entry_bytes = 4 if self.tab is not None else 25

    @functools.cached_property
    def look(self):
        return None if self.tab is None else self.ind[self.tab]

    def add(self, x, y):
        if self.tab is not None:
            return self.tab[x, y]
        return _sum_index_grid(self.spec, x[:, 0], y[0])

    def sums(self, v: int) -> np.ndarray:
        if self.tab is not None:
            return self.tab[v]
        return _sum_index_grid(self.spec, np.array([v]), self.all)[0]

    def rows(self, s):
        if self.look is not None:
            return self.look[s]
        return self.ind[_sum_index_grid(self.spec, s.ravel(), self.all)].reshape(*s.shape, self.N)


class _Columns(dict):
    """cols[h] = (neg, pos, neg | pos), the Python-int bitsets whose bit s
    is neg_ind[h + s] and grid.ind[h + s]; neg_ind defaults to ~grid.ind.
    A slot's want w in {0, 1, 2} picks cols[h][w].  Each column is built on
    first use and kept for the search."""

    def __init__(self, grid: _Grid, neg_ind: np.ndarray | None = None):
        super().__init__()
        self.grid = grid
        self.neg_ind = ~grid.ind if neg_ind is None else neg_ind

    def __missing__(self, h: int) -> tuple:
        row = self.grid.sums(h)
        neg, pos = _bitset(self.neg_ind[row]), _bitset(self.grid.ind[row])
        col = self[h] = (neg, pos, neg | pos)
        return col


def _bitset(ind: np.ndarray) -> int:
    """The Python int whose bit s is ind[s]."""
    return int.from_bytes(np.packbits(ind, bitorder="little").tobytes(), "little")


def _low(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Exhausted(CapacityError):
    """A search ran out of its SearchBudget."""


def _dfs(depth: int, masks: list, candidates, refine, leaf, budget: SearchBudget):
    """Depth-first search for `depth` picks.  candidates(picks) lists the
    options for the next pick in order; refine(picks, c, masks) returns the
    slot masks after picking c, or None to prune; leaf(picks, masks) returns
    a hit or None.  Each candidate costs one budget.tick().  Returns the
    first hit, or None once the space is covered; raises _Exhausted when a
    tick fails, also from a search nested in a leaf."""
    picks = []

    def go(masks):
        if len(picks) == depth:
            return leaf(picks, masks)
        for c in candidates(picks):
            if not budget.tick():
                raise _Exhausted("search budget exhausted")
            new = refine(picks, c, masks)
            if new is not None:
                picks.append(c)
                hit = go(new)
                picks.pop()
                if hit is not None:
                    return hit
        return None

    return go(masks)


def _search(run, *args):
    """(status, hit) of run(*args), a search whose last argument is its
    budget: BOUND_ONLY when the budget ran out, NONE when the search covered
    its space, else FOUND with its first hit."""
    try:
        hit = run(*args)
    except _Exhausted:
        return BOUND_ONLY, None
    return (NONE if hit is None else FOUND), hit


def _every(N: int):
    """Candidate rule: all N translates, at every depth."""
    return lambda picks: range(N)


def _take(picks, masks):
    """Leaf of a search whose first leaf is its hit: (picks, slot masks)."""
    return list(picks), masks


def _pattern(want, cols):
    """Refine rule of a fixed pattern: after r picks, the next pick c ANDs
    cols[c][want[r][j]] into slot j (neg, pos or either side)."""

    def refine(picks, c, masks):
        col = cols[c]
        new = []
        for m, w in zip(masks, want[len(picks)]):
            m &= col[w]
            if not m:
                return None
            new.append(m)
        return new

    return refine


def _staircase(k: int, first: int) -> list:
    """want table of the k-staircase for rows first..k: row i puts slot j
    (both 1-based) on the pos side iff i <= j."""
    return [[int(i <= j) for j in range(1, k + 1)] for i in range(first, k + 1)]


def _shatter(cols):
    """Refine rule of shattering: every slot splits into its neg and its pos
    part, so after r picks slot `bits` holds the candidates that are on the
    pos side exactly of the picks i with bit i - 1 set."""

    def refine(picks, c, masks):
        neg, pos, _ = cols[c]
        lo, hi = [], []
        for m in masks:
            m0, m1 = m & neg, m & pos
            if not (m0 and m1):
                return None
            lo.append(m0)
            hi.append(m1)
        return lo + hi

    return refine


def _tree_keys(d: int):
    """Node keys (0/1 tuples shorter than d, by length) and leaf keys."""
    sigmas = [s for m in range(d) for s in itertools.product((0, 1), repeat=m)]
    return sigmas, list(itertools.product((0, 1), repeat=d))


def _tree_search(cols: _Columns, side: int, d: int, budget: SearchBudget):
    """First encoding of the depth-d tree pattern: nodes h_sigma picked in
    key order, and leaves g_eta in `side` with h + g on the pos side where
    sigma^1 <= eta, on the neg side where sigma^0 <= eta, and on either side
    off the branches.  Returns ({sigma: h}, {eta: g}) or None."""
    sigmas, etas = _tree_keys(d)
    want = [[e[len(s)] if e[: len(s)] == s else 2 for e in etas] for s in sigmas]
    hit = _dfs(len(sigmas), [side] * len(etas), _every(cols.grid.N), _pattern(want, cols), _take, budget)
    if hit is None or not all(hit[1]):  # at d = 0 an empty side has no leaf
        return None
    return dict(zip(sigmas, hit[0])), {e: _low(m) for e, m in zip(etas, hit[1])}


def find_op(A: GroupSubset, k: int, budget: SearchBudget | None = None) -> DetectResult:
    """Search for a_1..a_k, b_1..b_k with a_i + b_j in A iff i <= j.

    a_1 is pinned at 0 (sum-invariance under (a+t, b-t)); NONE is exhaustive.
    """
    spec = A.spec
    budget = (budget or SearchBudget()).start()
    if k < 1:
        raise ValueError("k must be >= 1")
    if not A.indicator.any():
        return DetectResult(NONE, nodes=budget.nodes)
    cols = _Columns(_Grid(spec, A.indicator))
    # slot j holds the candidates for b_j; a_1 = 0 is on the pos side of every slot
    stairs = _pattern(_staircase(k, 2), cols)
    status, hit = _search(_dfs, k - 1, [cols[0][1]] * k, _every(spec.order), stairs, _take, budget)
    if status != FOUND:
        return DetectResult(status, nodes=budget.nodes)
    a, masks = [0, *hit[0]], hit[1]
    vec = spec.vector_of
    w = Witness("OP", A, {"a": [vec(i) for i in a], "b": [vec(_low(m)) for m in masks]}, k=k)
    _check_witness(w)
    return DetectResult(FOUND, w, budget.nodes)


def find_hop2(A: GroupSubset, k: int, budget: SearchBudget | None = None) -> DetectResult:
    """Search for x,y,z tuples with x_u + y_v + z_w in A iff u < v + w.

    x_1 and y_1 are pinned at 0.  The x-level is the staircase of find_op:
    slot t - 1 ends up holding the s whose column A[x_u + s] is the pattern
    u < t.  For a fixed x-tuple the membership column of (y, z) depends only
    on y + z, so z_w ranges over slot w, and y_v's mask ANDs the columns at
    x_u + z_w (or their complements) for every u.  NONE is exhaustive.
    """
    spec = A.spec
    budget = (budget or SearchBudget()).start()
    if k < 1:
        raise ValueError("k must be >= 1")
    if not A.indicator.any():
        return DetectResult(NONE, nodes=budget.nodes)
    grid = _Grid(spec, A.indicator)
    cols = _Columns(grid)
    full = (1 << spec.order) - 1

    def yz_leaf(xpicks, levels):
        xs = [0, *xpicks]
        zsums = grid.add(np.array(xs)[:, None], grid.all[None, :])  # zsums[u - 1, z] = x_u + z

        def refine(zs, z, ymasks):  # ymasks hold y_2..y_k
            w = len(zs) + 1
            shifted = [cols[s] for s in zsums[:, z].tolist()]
            new = []
            for v, m in enumerate(ymasks, 2):
                for u, col in enumerate(shifted, 1):
                    m &= col[u < v + w]
                if not m:
                    return None
                new.append(m)
            return new

        hit = _dfs(k, [full] * (k - 1), lambda zs: _bits(levels[len(zs)]), refine, _take, budget)
        return None if hit is None else (xs, [0, *map(_low, hit[1])], hit[0])

    stairs = _pattern(_staircase(k, 2), cols)
    status, hit = _search(_dfs, k - 1, [cols[0][1]] * k, _every(spec.order), stairs, yz_leaf, budget)
    if status != FOUND:
        return DetectResult(status, nodes=budget.nodes)
    roles = {role: [spec.vector_of(i) for i in idx] for role, idx in zip("xyz", hit)}
    w = Witness("HOP2", A, roles, k=k)
    _check_witness(w)
    return DetectResult(FOUND, w, budget.nodes)


def _grid_blocks(N: int, r: int, width: int, one_prefix: bool):
    """itertools.product(range(N), repeat=r) in blocks (pre, last): each row
    of `pre` followed by each value in `last`, in lexicographic order.  Blocks
    double from one prefix up to block_rows(width) tuples of `width` bytes,
    so an early hit stays cheap, or keep one prefix when `one_prefix`.  For
    r = 0 the empty tuple gets a placeholder last = [0]."""
    most, n_last = block_rows(width), N if r else 1
    prefixes = itertools.product(range(N), repeat=max(r - 1, 0))
    g = 1
    while chunk := list(itertools.islice(prefixes, g)):
        pre = np.array(chunk, dtype=np.int64).reshape(len(chunk), max(r - 1, 0))
        for s in range(0, n_last, most):
            yield pre, np.arange(s, min(s + most, n_last))
        g = 1 if one_prefix else min(2 * g, max(1, most // N))


def _grid_search(A: GroupSubset, k: int, codes, per: int, budget: SearchBudget):
    """First tuple (b_2..b_k, c_2..c_k), in lexicographic order, whose pattern
    row pats[a] = sum_{i,j} A[a + b_i + c_j] << (i*k + j), with b_1 = c_1 = 0,
    contains every code.  Returns (over, hit) with hit = (bs, cs, pats) or
    None.  Each tuple costs `per` nodes, charged once per block."""
    grid = _Grid(A.spec, A.indicator)
    N, K = grid.N, 1 << (k * k)
    dtype = np.min_scalar_type(K - 1)
    zero = np.zeros((1, 1), dtype=np.int64)
    # per tuple: its pattern row, one rows() read with its cast and shift,
    # its row of `present`, the columns of `codes` and a few index bytes
    width = (3 * dtype.itemsize + grid.entry_bytes) * N + 2 * K + 16
    for pre, last in _grid_blocks(N, 2 * k - 2, width, grid.tab is None):
        # pats[prefix, last, a]: b_i and c_j are (P, 1) columns, c_k a (1, m) row
        b = [zero] + [pre[:, [t]] for t in range(k - 1)]
        c = [zero] + [pre[:, [t]] for t in range(k - 1, 2 * k - 3)] + [last[None, :]] * (k > 1)
        pats = np.zeros((len(pre), len(last), N), dtype=dtype)
        for i, j in itertools.product(range(k), repeat=2):
            s = grid.add(b[i], c[j]) if i and j else (c[j] if j else b[i])
            pats |= grid.rows(s).astype(dtype) << (i * k + j)
        pats = pats.reshape(-1, N)
        present = np.zeros((len(pats), K), dtype=bool)
        present[np.arange(len(pats))[:, None], pats] = True
        ok = present[:, codes].all(axis=1)
        hit = int(ok.argmax()) if ok.any() else None
        if not budget.charge(per, len(ok), hit):
            return True, None
        if hit is not None:
            m = len(last)
            rest = (pre[hit // m].tolist() + [int(last[hit % m])])[: 2 * k - 2]
            return False, ((0, *rest[: k - 1]), (0, *rest[k - 1 :]), pats[hit])
    return False, None


def find_fop2(A: GroupSubset, k: int, budget: SearchBudget | None = None) -> DetectResult:
    """Search for the k-functional order property.

    For fixed x-bar, z-bar the y needed for a function f at slot j depends
    only on the vector (f(1,j),...,f(k,j)); the search therefore requires,
    for each m-bar in [k]^k, a y realizing the column 1[k' <= m_i] over the
    (i, k') grid.  x_1 and z_1 are pinned at 0.  NONE is exhaustive.
    """
    spec = A.spec
    budget = (budget or SearchBudget()).start()
    if k < 1:
        raise ValueError("k must be >= 1")
    N = spec.order
    targets = {
        mbar: sum(1 << (i * k + kk) for i in range(k) for kk in range(mbar[i]))
        for mbar in itertools.product(range(1, k + 1), repeat=k)
    }
    if len(targets) > N:
        # k^k distinct columns need k^k distinct y: every tuple fails
        over = not budget.charge(1, N ** (2 * k - 2))
        return DetectResult(BOUND_ONLY if over else NONE, nodes=budget.nodes)
    over, hit = _grid_search(A, k, list(targets.values()), 1, budget)
    if hit is None:
        return DetectResult(BOUND_ONLY if over else NONE, nodes=budget.nodes)
    xs, zs, pats = hit
    realizer = {mbar: spec.vector_of(int(np.argmax(pats == pat))) for mbar, pat in targets.items()}
    yfam = {}
    for f_vals in itertools.product(range(1, k + 1), repeat=k * k):
        # f_vals lists f(i, j) row by row, so slot j + 1 needs the column f_vals[j::k]
        yfam[f_vals] = [realizer[f_vals[j::k]] for j in range(k)]
    roles = {"x": [spec.vector_of(i) for i in xs], "z": [spec.vector_of(i) for i in zs], "y": yfam}
    w = Witness("FOP2", A, roles, k=k)
    _check_witness(w)
    return DetectResult(FOUND, w, budget.nodes)


def vc_dim(A: GroupSubset, kmax: int, budget: SearchBudget | None = None):
    """Largest k <= kmax admitting a shattered translate family, with witness.

    Returns (k, witness_or_None, status); status is BOUND_ONLY when the
    search for k+1 was cut short (the value is then only a lower bound).
    The first element a_1 is pinned at 0: a shattered family minus its
    first element is a shattered family holding 0, the least index, so the
    lexicographic first hit has a_1 = 0.  Each level keeps its raw hit;
    only the witness returned is built and re-tested.
    """
    spec = A.spec
    budget = (budget or SearchBudget()).start()
    N = spec.order
    size = len(A)
    if size == 0 or size == N:
        return 0, None, FOUND
    cols = _Columns(_Grid(spec, A.indicator))

    def after_last(picks):  # the family's elements in increasing order
        return range(picks[-1] + 1, N) if picks else (0,)

    best, status = None, NONE
    for k in range(1, kmax + 1):
        if 2**k > N:
            break
        status, hit = _search(_dfs, k, [(1 << N) - 1], after_last, _shatter(cols), _take, budget)
        if status != FOUND:
            break
        best = k, hit
    status = BOUND_ONLY if status == BOUND_ONLY else FOUND
    if best is None:
        return 0, None, status
    k, (elems, masks) = best
    subsets = itertools.chain.from_iterable(itertools.combinations(range(1, k + 1), r) for r in range(k + 1))
    bS = {frozenset(S): spec.vector_of(_low(masks[sum(1 << (i - 1) for i in S)])) for S in subsets}
    w = Witness("VC", A, {"a": [spec.vector_of(e) for e in elems], "b": bS}, k=k)
    _check_witness(w)
    return k, w, status


def vc2_dim(A: GroupSubset, kmax: int, budget: SearchBudget | None = None):
    """Largest k <= kmax with a shattered k x k sum grid, with witness.

    b_1 = c_1 = 0 by the two translation symmetries.  Each level keeps its
    raw hit; only the witness returned is built and re-tested.
    """
    spec = A.spec
    budget = (budget or SearchBudget()).start()
    N = spec.order
    size = len(A)
    if size == 0 or size == N:
        return 0, None, FOUND
    best, status = None, FOUND
    for k in range(1, kmax + 1):
        if 2 ** (k * k) > N:
            break
        over, hit = _grid_search(A, k, np.arange(2 ** (k * k)), 4, budget)
        if hit is None:
            status = BOUND_ONLY if over else FOUND
            break
        best = k, hit
    if best is None:
        return 0, None, status
    k, (bs, cs, pats) = best
    aS = {
        frozenset((t // k + 1, t % k + 1) for t in range(k * k) if bits >> t & 1):
        spec.vector_of(int(np.argmax(pats == bits)))
        for bits in range(2 ** (k * k))
    }
    w = Witness("VC2", A, {"b": [spec.vector_of(i) for i in bs], "c": [spec.vector_of(i) for i in cs], "a": aS}, k=k)
    _check_witness(w)
    return k, w, status


def cap2_check(A: GroupSubset, budget: SearchBudget | None = None):
    """True iff every cube with seven corner sums in A has the eighth in A.

    Returns (verdict, cube_witness_or_None, status).  The search enumerates
    offsets a, b (N nodes per pair), then corner x and offset c; the corners
    are x + e1*a + e2*b + e3*c.  With D = A & (A - a) and E = A & ~(A - a),
    the (x, c) grid of (a, b) is D[x] & D[x+b] & D[y] & E[y+b] at y = x + c,
    nonempty iff both factors are, so a block tests b's against all y in D.
    """
    spec = A.spec
    budget = (budget or SearchBudget()).start()
    N = spec.order
    grid = _Grid(A.spec, A.indicator)
    for a in range(N):
        shifted = grid.ind[grid.sums(a)]
        D, E = grid.ind & shifted, grid.ind & ~shifted
        ys = np.flatnonzero(D)[None, :]
        step = block_rows((grid.entry_bytes + 2) * ys.size)  # the sums, D and E at them
        for b0 in range(0, N, step):
            bs = np.arange(b0, min(b0 + step, N))
            hit = None
            if ys.size and E.any():
                s = grid.add(bs[:, None], ys)
                ok = D[s].any(axis=1) & E[s].any(axis=1)
                hit = int(ok.argmax()) if ok.any() else None
            if not budget.charge(N, len(bs), hit):
                return True, None, BOUND_ONLY
            if hit is not None:
                # the first (x, c) of the grid in row-major order
                b = b0 + hit
                x = int(np.argmax(D & D[grid.sums(b)]))
                c = int(np.argmax((D & E[grid.sums(b)])[grid.sums(x)]))
                zero, vec = np.zeros(spec.n, dtype=np.int64), spec.vector_of
                corners = {"x": [vec(x), vec(int(grid.sums(x)[a]))], "y": [zero, vec(b)]}
                w = Witness("CUBE", A, {**corners, "z": [zero.copy(), vec(c)]})
                _check_witness(w)
                return False, w, FOUND
    return True, None, FOUND


def _subtree_count(nodes: list, depth: int, mask: int, cols, budget: SearchBudget) -> int:
    """Number of (node, leaf) assignments of a depth-`depth` subtree whose
    leaves are additionally constrained to `mask` (branch constraints run
    only along root-to-leaf paths, so subtrees multiply)."""
    if depth == 0:
        return mask.bit_count()
    total = 0
    for h in nodes:
        if not budget.tick():
            raise _Exhausted("tree-encoding budget exceeded")
        neg, pos, _ = cols[h]
        m1 = mask & pos
        c1 = _subtree_count(nodes, depth - 1, m1, cols, budget) if m1 else 0
        if c1:
            m0 = mask & neg
            total += c1 * (_subtree_count(nodes, depth - 1, m0, cols, budget) if m0 else 0)
    return total


def count_tree_encodings(
    A: GroupSubset, d: int, leaves_in: GroupSubset, nodes_in: GroupSubset,
    budget: SearchBudget | None = None,
) -> int:
    """Exact count of encodings of the depth-d binary tree pattern in (G, A)
    with leaves in leaves_in and nodes in nodes_in.

    An encoding assigns g_eta to leaves and h_sigma to nodes so that along
    branches, sigma^1 <= eta forces g+h in A and sigma^0 <= eta forces it out.
    Counted by tree recursion: given the nodes, leaves of disjoint subtrees
    are independent.
    """
    if d < 1 or d > 3:
        raise ValueError("tree depth supported for 1 <= d <= 3")
    budget = (budget or SearchBudget()).start()
    cols = _Columns(_Grid(A.spec, A.indicator))
    nodes = np.flatnonzero(nodes_in.indicator).tolist()
    return _subtree_count(nodes, d, _bitset(leaves_in.indicator), cols, budget)


def count_tree_encodings_naive(A: GroupSubset, d: int, leaves_in: GroupSubset, nodes_in: GroupSubset) -> int:
    """Brute-force oracle: iterate node tuples, then count each leaf by an
    explicit scan with per-branch membership checks, read from one N x N
    grid of digit sums (not from the search's columns)."""
    member = _members(A, A.spec.digits, A.spec.digits).tolist()  # member[h][g]: h + g in A
    sigmas = [tuple(s) for m in range(d) for s in itertools.product((0, 1), repeat=m)]
    etas = [tuple(e) for e in itertools.product((0, 1), repeat=d)]
    node_elems = [int(i) for i in np.nonzero(nodes_in.indicator)[0]]
    leaf_elems = [int(i) for i in np.nonzero(leaves_in.indicator)[0]]
    total = 0
    for hs in itertools.product(node_elems, repeat=len(sigmas)):
        assign = dict(zip(sigmas, hs))
        prod = 1
        for eta in etas:
            cnt = 0
            for g in leaf_elems:
                good = True
                for sigma in sigmas:
                    if len(sigma) < len(eta) and eta[: len(sigma)] == sigma:
                        if member[assign[sigma]][g] != (eta[len(sigma)] == 1):
                            good = False
                            break
                if good:
                    cnt += 1
            prod *= cnt
            if prod == 0:
                break
        total += prod
    return total


def hodges_extract(encoding: Witness, k: int) -> Witness | None:
    """Extract a staircase pair family (c_i + b_j in A iff i <= j) from a
    tree-pattern witness; c's come from nodes, b's from leaves.

    k = 1 and k = 2 are handled constructively from the branch structure
    (any depth >= k suffices); larger k runs a pruned search over
    branch-guided candidates on _dfs with the default SearchBudget, and
    raises CapacityError if the search space or the budget is too small.
    Returns None only when the input fails revalidation.
    """
    if not encoding.revalidate():
        return None
    A = encoding.subset
    leaves, nodes = encoding.data["leaves"], encoding.data["nodes"]
    d = encoding.data["d"]
    if k < 1:
        raise ValueError("k must be >= 1")

    def leaf_below(prefix):
        return leaves[tuple(prefix) + (0,) * (d - len(prefix))]

    if k == 1:
        roles = {"a": [nodes[()]], "b": [leaf_below((1,))]}
    elif k == 2 and d >= 2:
        roles = {"a": [nodes[()], nodes[(1,)]], "b": [leaf_below((1, 0)), leaf_below((1, 1))]}
    else:
        # Guided search: pick (node, leaf) pairs (c_i, b_i), each pair after
        # the last in both lists; the staircase cells are checked against A.
        node_list, leaf_list = list(nodes.values()), list(leaves.values())
        if len(node_list) * len(leaf_list) > 4_000_000:
            raise CapacityError("staircase extraction search space too large")
        M = _members(A, node_list, leaf_list).tolist()  # M[si][ei]: node si + leaf ei in A

        def after_last(picks):
            si, ei = picks[-1] if picks else (-1, -1)
            return itertools.product(range(si + 1, len(node_list)), range(ei + 1, len(leaf_list)))

        def refine(picks, c, masks):  # the new row and column of c_i + b_j in A iff i <= j
            si, ei = c
            ok = M[si][ei] and not any(M[si][ej] for _, ej in picks) and all(M[sj][ei] for sj, _ in picks)
            return masks if ok else None

        hit = _dfs(k, [], after_last, refine, _take, SearchBudget().start())
        if hit is None:
            raise CapacityError(f"no staircase of length {k} found within the guided search")
        roles = {"a": [node_list[si] for si, _ in hit[0]], "b": [leaf_list[ei] for _, ei in hit[0]]}
    w = Witness("OP", A, {role: [np.asarray(v) for v in vs] for role, vs in roles.items()}, k=k)
    _check_witness(w)
    return w


# --- transforms between witness kinds (the closure constructions) ---


def complement_hop2_witness(w: Witness) -> Witness:
    """From an l-HOP2 witness for A, the half-length witness for the
    complement: a_i = x_(l/2+i), b_j = y_(l/2-j+1), c_k = z_k."""
    if w.kind != "HOP2":
        raise ValueError("expected a HOP2 witness")
    l = w.k
    half = l // 2
    if half < 1:
        raise ValueError("need l >= 2")
    xs, ys, zs = w.data["x"], w.data["y"], w.data["z"]
    out = Witness(
        "HOP2",
        w.subset.complement(),
        {
            "x": [np.asarray(xs[half + i - 1]) for i in range(1, half + 1)],
            "y": [np.asarray(ys[half - j]) for j in range(1, half + 1)],
            "z": [np.asarray(zs[kk - 1]) for kk in range(1, half + 1)],
        },
        k=half,
    )
    return out


def hop2_to_op_witness(w: Witness) -> Witness:
    """From an l-HOP2 witness, an l-order-property witness: the pair families
    are z_(l-i+1) and x_l + y_j (roles swapped so the staircase runs i <= j)."""
    if w.kind != "HOP2":
        raise ValueError("expected a HOP2 witness")
    l = w.k
    xs, ys, zs = w.data["x"], w.data["y"], w.data["z"]
    p = w.subset.spec.p
    a = [np.asarray(zs[l - i]) % p for i in range(1, l + 1)]
    b = [(np.asarray(xs[l - 1]) + np.asarray(ys[j - 1])) % p for j in range(1, l + 1)]
    return Witness("OP", w.subset, {"a": a, "b": b}, k=l)


def fop2_to_vc_witness(w: Witness) -> Witness:
    """From an l-FOP2 witness (l >= 2), a shattered set of size l: the set
    {x_i + z_2} is shattered by the y's attached to selector functions."""
    if w.kind != "FOP2" or w.k < 2:
        raise ValueError("expected a FOP2 witness with k >= 2")
    l = w.k
    p = w.subset.spec.p
    xs, zs, yfam = w.data["x"], w.data["z"], w.data["y"]
    elems = [(np.asarray(xs[i - 1]) + np.asarray(zs[1])) % p for i in range(1, l + 1)]
    bS = {}
    for S in itertools.chain.from_iterable(
        itertools.combinations(range(1, l + 1), r) for r in range(l + 1)
    ):
        fv = []
        for i, j in itertools.product(range(1, l + 1), repeat=2):
            fv.append(2 if (j == 2 and i in S) else 1)
        bS[frozenset(S)] = np.asarray(yfam[tuple(fv)][1])
    return Witness("VC", w.subset, {"a": elems, "b": bS}, k=l)


def vc2_to_fop2_witness(w: Witness) -> Witness:
    """From a VC2 >= l witness, an l-FOP2 witness: y^f_j is the shatterer of
    the grid section {(i,k): k <= f(i,j)}."""
    if w.kind != "VC2":
        raise ValueError("expected a VC2 witness")
    l = w.k
    bs, cs, aS = w.data["b"], w.data["c"], w.data["a"]
    yfam = {}
    for f_vals in itertools.product(range(1, l + 1), repeat=l * l):
        f = dict(zip(itertools.product(range(1, l + 1), repeat=2), f_vals))
        ys = []
        for j in range(1, l + 1):
            S = frozenset(
                (i, kk)
                for i in range(1, l + 1)
                for kk in range(1, l + 1)
                if kk <= f[(i, j)]
            )
            ys.append(np.asarray(aS[S]))
        yfam[f_vals] = ys
    return Witness(
        "FOP2",
        w.subset,
        {"x": [np.asarray(v) for v in bs], "z": [np.asarray(v) for v in cs], "y": yfam},
        k=l,
    )


def affine_embedding_exists(H_pair, G_pair, budget: SearchBudget | None = None):
    """Search for an affine embedding of (F_p^m, A') into (F_p^n, A):
    an injective map x -> g + V x preserving membership both ways.

    Returns (g_vector, V_matrix) or None (exhaustive).
    """
    spec_H, Aprime = H_pair
    spec_G, A = G_pair
    budget = (budget or SearchBudget()).start()
    if spec_H.p != spec_G.p:
        raise ValueError("mismatched characteristic")
    if spec_H.order > spec_G.p**3:
        raise CapacityError("source group too large for exhaustive embedding search")
    p, m = spec_H.p, spec_H.n
    H_digits = spec_H.digits.astype(np.int64)
    want = Aprime.indicator.tolist()
    cols = _Columns(_Grid(spec_G, A.indicator))
    N = spec_G.order

    for images_of_basis in itertools.product(range(N), repeat=m):
        V = np.stack([spec_G.vector_of(c) for c in images_of_basis], axis=1)
        if matrix_rank(V.T, p) != m:
            continue
        if not budget.tick(N):
            raise _Exhausted("embedding search budget exceeded")
        images = spec_G.indices_of((H_digits @ V.T) % p).tolist()
        ok = (1 << N) - 1  # the translates g that embed the elements so far
        for h, image in enumerate(images):
            ok &= cols[image][want[h]]
            if not ok:
                break
        if ok:
            return spec_G.vector_of(_low(ok)), V
    return None


# --- good copies in reduced pairs ---


def find_good_copy(red, pattern: str, k: int, side=None, budget: SearchBudget | None = None):
    """Search a reduced pair for a good copy of H(k) or U(k), or a good
    encoding of T(k), with the right side (leaves) inside `side`.

    `side` is a boolean array over the label space; it defaults to the
    purely-quadratic-label subgroup.  All pattern sums must land in dense or
    sparse atoms as the pattern dictates (never in error atoms); for T(k)
    additionally every node+leaf sum must avoid error atoms.  NONE is
    exhaustive over the label space.
    """
    spec = red.label_spec
    if spec is None:
        return DetectResult(NONE)
    budget = (budget or SearchBudget()).start()
    side = red.H_B if side is None else np.asarray(side, dtype=bool)
    N, vec = spec.order, spec.vector_of
    cols = _good_copy_columns(red)
    if pattern == "H":
        # staircase: left a_1..a_k free, right b_1..b_k in side;
        # a_i + b_j dense iff i <= j, sparse otherwise.
        stairs = _pattern(_staircase(k, 1), cols)
        status, hit = _search(_dfs, k, [_bitset(side)] * k, _every(N), stairs, _take, budget)
    elif pattern == "U":
        # left a_1..a_k free; right b_S in side for each S subset of [k],
        # found in the slot whose bits are S.
        status, hit = _search(_dfs, k, [_bitset(side)], _every(N), _shatter(cols), _take, budget)
    elif pattern == "T":
        # good encoding: leaves in side, every node+leaf sum classified (no
        # error atoms), with branch sums dense on the 1 side, sparse on 0.
        status, hit = _search(_tree_search, cols, _bitset(side), k, budget)
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    if status != FOUND:
        return DetectResult(status, nodes=budget.nodes)
    if pattern == "T":
        nodes, leaves = ({key: vec(i) for key, i in part.items()} for part in hit)
        data = {"nodes": nodes, "leaves": leaves, "pattern": pattern, "d": k}
    else:
        left, right = [vec(i) for i in hit[0]], [vec(_low(m)) for m in hit[1]]
        if pattern == "U":
            right = dict(enumerate(right))  # keyed by the bits of S
        data = {"left": left, "right": right, "pattern": pattern}
    w = Witness("GOODCOPY", red.A, {**data, "red": red, "side": side}, k=k)
    _check_witness(w)
    return DetectResult(FOUND, w, budget.nodes)


def _good_copy_columns(red):
    """Columns of a reduced pair with pos = dense and neg = sparse atoms, as
    red.code says."""
    return _Columns(_Grid(red.label_spec, red.code == 1), red.code == 0)
