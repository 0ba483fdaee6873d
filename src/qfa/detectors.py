"""Exact, witness-producing searches for the combinatorial tameness
properties: order property, hyperplane and functional order properties,
VC and VC2 dimension, cube auto-completion, tree encodings, staircase
extraction from encodings, good copies in reduced pairs, and affine
embeddings.

Search strategy notes.  Since the group is abelian, a membership column over
a chosen tuple collapses to a function of elementwise sums; every exhaustive
search here enumerates one side of a configuration and matches the other side
against precomputed level sets of the required column patterns.  Searches pin
the first element of each translatable role at 0; a NONE verdict is reported
only when the pruned search provably covered the whole space.

find_fop2, vc2_dim and cap2_check share one grid kernel: a block of translate
tuples reads all of its patterns A[a + b_i + c_j] from GroupSpec.sum_table()
(or _sum_index_grid in groups too large for it) in a few gathers.  Its first
hit in lexicographic order is the one a tuple-at-a-time loop would find, so the
witness is that loop's, and SearchBudget.charge bills the block exactly as the
loop's ticks would, also when node_limit falls inside it.  Blocks hold about
2^22 entries, and the clock is read once per block.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from .core import GroupSpec, GroupSubset, _sum_index_grid

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

    def exhausted(self) -> bool:
        return self.nodes > self.node_limit or time.monotonic() > self._deadline


class Witness:
    """A typed certificate; revalidate() re-tests every membership constraint
    from scratch (plain loops, independent of the search code)."""

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
        A = self.subset
        spec = A.spec
        k = self.k

        def member(*vs):
            total = np.zeros(spec.n, dtype=np.int64)
            for v in vs:
                total = total + np.asarray(v, dtype=np.int64)
            return A.contains_index(spec.index_of(total % spec.p))

        if self.kind == "OP":
            a, b = self.data["a"], self.data["b"]
            for i in range(k):
                for j in range(k):
                    if member(a[i], b[j]) != (i <= j):
                        return False
            return True
        if self.kind == "HOP2":
            x, y, z = self.data["x"], self.data["y"], self.data["z"]
            for u in range(1, k + 1):
                for v in range(1, k + 1):
                    for w in range(1, k + 1):
                        if member(x[u - 1], y[v - 1], z[w - 1]) != (u < v + w):
                            return False
            return True
        if self.kind == "FOP2":
            x, z, yfam = self.data["x"], self.data["z"], self.data["y"]
            if len(yfam) != k ** (k * k):
                return False  # must cover every selector function
            for f_flat, ys in yfam.items():
                f = dict(zip(itertools.product(range(1, k + 1), repeat=2), f_flat))
                for i in range(1, k + 1):
                    for j in range(1, k + 1):
                        for kk in range(1, k + 1):
                            if member(x[i - 1], ys[j - 1], z[kk - 1]) != (kk <= f[(i, j)]):
                                return False
            return True
        if self.kind == "VC":
            a, bS = self.data["a"], self.data["b"]
            for S, b in bS.items():
                for i in range(k):
                    if member(a[i], b) != (i + 1 in S):
                        return False
            return True
        if self.kind == "VC2":
            b, c, aS = self.data["b"], self.data["c"], self.data["a"]
            for S, aa in aS.items():
                for i in range(1, k + 1):
                    for j in range(1, k + 1):
                        if member(b[i - 1], c[j - 1], aa) != ((i, j) in S):
                            return False
            return True
        if self.kind == "TREE":
            leaves, nodes = self.data["leaves"], self.data["nodes"]
            d = self.data["d"]
            for sigma, h in nodes.items():
                for eta, g in leaves.items():
                    if len(sigma) < len(eta) and eta[: len(sigma)] == sigma:
                        want = eta[len(sigma)] == 1
                        if member(h, g) != want:
                            return False
            return True
        if self.kind == "CUBE":
            xs, ys, zs = self.data["x"], self.data["y"], self.data["z"]
            for i, j, kk in itertools.product((0, 1), repeat=3):
                inside = member(xs[i], ys[j], zs[kk])
                if (i, j, kk) == (1, 1, 1):
                    if inside:
                        return False
                elif not inside:
                    return False
            return True
        if self.kind == "GOODCOPY":
            red = self.data["red"]
            lab = red.label_spec
            pattern = self.data["pattern"]

            def classify(u, w):
                s = lab.index_of((np.asarray(u) + np.asarray(w)) % lab.p)
                return red.classify(s)

            def in_side(w):
                return bool(self.data["side"][lab.index_of(np.asarray(w) % lab.p)])

            if pattern == "H":
                left, right = self.data["left"], self.data["right"]
                k = len(left)
                for j in range(k):
                    if not in_side(right[j]):
                        return False
                for i in range(k):
                    for j in range(k):
                        want = "dense" if i <= j else "sparse"
                        if classify(left[i], right[j]) != want:
                            return False
                return True
            if pattern == "U":
                left, right = self.data["left"], self.data["right"]
                k = len(left)
                for bits, w in right.items():
                    if not in_side(w):
                        return False
                    for i in range(k):
                        want = "dense" if (int(bits) >> i) & 1 else "sparse"
                        if classify(left[i], w) != want:
                            return False
                return True
            if pattern == "T":
                nodes, leaves = self.data["nodes"], self.data["leaves"]
                for e, g in leaves.items():
                    if not in_side(g):
                        return False
                    for s, h in nodes.items():
                        got = classify(h, g)
                        if got == "error":
                            return False
                        if len(s) < len(e) and e[: len(s)] == s:
                            want = "dense" if e[len(s)] == 1 else "sparse"
                            if got != want:
                                return False
                return True
            raise ValueError(f"unknown good-copy pattern {pattern!r}")
        raise ValueError(f"unknown witness kind {self.kind!r}")


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


class _Shifts:
    """Cache of shifted indicator arrays: arr(x)[s] = A[x + s]."""

    def __init__(self, A: GroupSubset):
        self.A = A
        self.spec = A.spec
        self._cache = {}

    def __call__(self, x_index: int) -> np.ndarray:
        arr = self._cache.get(x_index)
        if arr is None:
            arr = self.A.indicator[self.spec.add_perm(x_index)]
            self._cache[x_index] = arr
        return arr


def find_op(A: GroupSubset, k: int, budget: SearchBudget | None = None) -> DetectResult:
    """Search for a_1..a_k, b_1..b_k with a_i + b_j in A iff i <= j.

    a_1 is pinned at 0 (sum-invariance under (a+t, b-t)); NONE is exhaustive.
    """
    spec = A.spec
    budget = (budget or SearchBudget()).start()
    if k < 1:
        raise ValueError("k must be >= 1")
    shifts = _Shifts(A)
    N = spec.order
    # masks[j] = candidates for b_(j+1) consistent with rows chosen so far;
    # row 1 is pinned at 0 and 1 <= j+1 always holds, so every mask starts at A.
    arr0 = shifts(0)
    init = [arr0.copy() for _ in range(k)]
    over = [False]

    def dfs(row, masks, chosen):
        # row is the 1-based index of the next a to choose
        if row > k:
            bs = [int(np.nonzero(m)[0][0]) for m in masks]
            return chosen, bs
        for a in range(N):
            if not budget.tick():
                over[0] = True
                return None
            arr = shifts(a)
            new = []
            ok = True
            for j in range(k):
                m = masks[j] & (arr if row <= j + 1 else ~arr)
                if not m.any():
                    ok = False
                    break
                new.append(m)
            if ok:
                got = dfs(row + 1, new, chosen + [a])
                if got is not None:
                    return got
            if over[0]:
                return None
        return None

    if not all(m.any() for m in init):
        return DetectResult(NONE, nodes=budget.nodes)
    got = dfs(2, init, [0])
    if got is not None:
        a_idx, b_idx = got
        w = Witness(
            "OP",
            A,
            {
                "a": [spec.vector_of(i) for i in a_idx],
                "b": [spec.vector_of(i) for i in b_idx],
            },
            k=k,
        )
        _check_witness(w)
        return DetectResult(FOUND, w, budget.nodes)
    if over[0]:
        return DetectResult(BOUND_ONLY, nodes=budget.nodes)
    return DetectResult(NONE, nodes=budget.nodes)


def find_hop2(A: GroupSubset, k: int, budget: SearchBudget | None = None) -> DetectResult:
    """Search for x,y,z tuples with x_u + y_v + z_w in A iff u < v + w.

    x_1 and y_1 are pinned at 0; for a fixed x-tuple the membership column of
    (y, z) depends only on y + z, so the z side is enumerated over level sets
    of the staircase patterns and each remaining y is an intersection of
    shifted level sets.  NONE is exhaustive.
    """
    spec = A.spec
    budget = (budget or SearchBudget()).start()
    shifts = _Shifts(A)
    N = spec.order
    # level-set masks for staircase thresholds t = 2..k+1 (pattern u < t)
    thresholds = list(range(2, k + 2))
    over = [False]

    def solve_yz(masks):
        # masks[t-2][s] == True iff column of s equals staircase with threshold t
        zs = [None] * k
        ymasks = [np.ones(N, dtype=bool) for _ in range(k)]  # y_2..y_k at 1..k-1

        def zdfs(w, ymasks):
            if w > k:
                ys = [0] + [int(np.nonzero(m)[0][0]) for m in ymasks[1:]]
                return ys, list(zs)
            t = min(1 + w, k + 1)
            cand = np.nonzero(masks[t - 2])[0]
            for z in cand:
                if not budget.tick():
                    over[0] = True
                    return None
                perm = spec.add_perm(int(z))
                new = [ymasks[0]]
                ok = True
                for v in range(2, k + 1):
                    tv = min(v + w, k + 1)
                    m = ymasks[v - 1] & masks[tv - 2][perm]
                    if not m.any():
                        ok = False
                        break
                    new.append(m)
                if ok:
                    zs[w - 1] = int(z)
                    got = zdfs(w + 1, new)
                    if got is not None:
                        return got
                if over[0]:
                    return None
            return None

        return zdfs(1, ymasks)

    arr0 = shifts(0)

    def xdfs(row, masks, chosen):
        if row > k:
            got = solve_yz(masks)
            if got is None:
                return None
            ys, zs = got
            return chosen, ys, zs
        for x in range(N):
            if not budget.tick():
                over[0] = True
                return None
            arr = shifts(x)
            new = []
            ok = True
            for t in thresholds:
                m = masks[t - 2] & (arr if row < t else ~arr)
                if not m.any():
                    ok = False
                    break
                new.append(m)
            if ok:
                got = xdfs(row + 1, new, chosen + [x])
                if got is not None:
                    return got
            if over[0]:
                return None
        return None

    init = []
    feasible = True
    for t in thresholds:
        m = arr0 if 1 < t else ~arr0
        init.append(m.copy())
        if not m.any():
            feasible = False
    if not feasible:
        return DetectResult(NONE, nodes=budget.nodes)
    got = xdfs(2, init, [0])
    if got is not None:
        xs, ys, zs = got
        w = Witness(
            "HOP2",
            A,
            {
                "x": [spec.vector_of(i) for i in xs],
                "y": [spec.vector_of(i) for i in ys],
                "z": [spec.vector_of(i) for i in zs],
            },
            k=k,
        )
        _check_witness(w)
        return DetectResult(FOUND, w, budget.nodes)
    if over[0]:
        return DetectResult(BOUND_ONLY, nodes=budget.nodes)
    return DetectResult(NONE, nodes=budget.nodes)


def hop2_witness_from_reindexed(A: GroupSubset, xs, ys, zs, k: int) -> Witness:
    """Normalize the equivalent form (sums in A iff u+v+w >= k+2) to the
    primary u < v+w indexing by reversing the first role."""
    xs = [np.asarray(v) for v in xs]
    w = Witness(
        "HOP2",
        A,
        {"x": list(reversed(xs)), "y": [np.asarray(v) for v in ys], "z": [np.asarray(v) for v in zs]},
        k=k,
    )
    return w


_BLOCK = 1 << 22  # entries per block of the translate-grid kernel


class _Grid:
    """add(x, y): index of x + y for a (P, 1) column x and a (1, m) row or
    (P, 1) column y; rows(s)[..., a] = A[s + a].  Both read sum_table(), via
    look[c, a] = A[a + c], when the group has one, else _sum_index_grid; a
    group without the table has N^2 > _BLOCK, so its blocks hold P = 1."""

    def __init__(self, A: GroupSubset):
        self.spec, self.ind, self.N = A.spec, A.indicator, A.spec.order
        self.tab = A.spec.sum_table()
        self.look = None if self.tab is None else self.ind[self.tab]
        self.all = np.arange(self.N)

    def add(self, x, y):
        if self.tab is not None:
            return self.tab[x, y]
        return _sum_index_grid(self.spec, x[:, 0], y[0])

    def sums(self, v: int) -> np.ndarray:  # index of v + s for every s
        return self.add(np.array([[v]]), self.all[None, :])[0]

    def rows(self, s):
        if self.look is not None:
            return self.look[s]
        return self.ind[_sum_index_grid(self.spec, s.ravel(), self.all)].reshape(*s.shape, self.N)


def _grid_blocks(N: int, r: int, width: int):
    """itertools.product(range(N), repeat=r) in blocks (pre, last): each row
    of `pre` followed by each value in `last`, in lexicographic order.  Blocks
    double from one prefix up to about _BLOCK / width tuples, so an early hit
    stays cheap.  For r = 0 the empty tuple gets a placeholder last = [0]."""
    most, n_last = max(1, _BLOCK // width), N if r else 1
    prefixes = itertools.product(range(N), repeat=max(r - 1, 0))
    g = 1
    while chunk := list(itertools.islice(prefixes, g)):
        pre = np.array(chunk, dtype=np.int64).reshape(len(chunk), max(r - 1, 0))
        for s in range(0, n_last, most):
            yield pre, np.arange(s, min(s + most, n_last))
        g = min(2 * g, max(1, most // N))


def _grid_search(A: GroupSubset, k: int, codes, per: int, budget: SearchBudget):
    """First tuple (b_2..b_k, c_2..c_k), in lexicographic order, whose pattern
    row pats[a] = sum_{i,j} A[a + b_i + c_j] << (i*k + j), with b_1 = c_1 = 0,
    contains every code.  Returns (over, hit) with hit = (bs, cs, pats) or
    None.  Each tuple costs `per` nodes, charged once per block."""
    grid = _Grid(A)
    N, K = grid.N, 1 << (k * k)
    dtype = np.min_scalar_type(K - 1)
    zero = np.zeros((1, 1), dtype=np.int64)
    for pre, last in _grid_blocks(N, 2 * k - 2, max(N, K)):
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
    if k > 2 and spec.order ** (2 * (k - 1)) > budget.node_limit:
        return DetectResult(BOUND_ONLY, nodes=0)
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


def _bitmask_columns(A: GroupSubset):
    """Python-int bitmasks: cols[a] has bit b set iff A[a + b]."""
    spec = A.spec
    shifts = _Shifts(A)
    cols = []
    for a in range(spec.order):
        packed = np.packbits(shifts(a), bitorder="little").tobytes()
        cols.append(int.from_bytes(packed, "little"))
    return cols


def vc_dim(A: GroupSubset, kmax: int, budget: SearchBudget | None = None):
    """Largest k <= kmax admitting a shattered translate family, with witness.

    Returns (k, witness_or_None, status); status is BOUND_ONLY when the
    search for k+1 was cut short (the value is then only a lower bound).
    """
    spec = A.spec
    budget = (budget or SearchBudget()).start()
    N = spec.order
    size = len(A)
    if size == 0 or size == N:
        return 0, None, FOUND
    cols = _bitmask_columns(A)
    neg = [(~c) & ((1 << N) - 1) for c in cols]

    best_k, best_witness = 0, None
    over = [False]

    def witness_from(elems):
        k = len(elems)
        bS = {}
        for S in itertools.chain.from_iterable(
            itertools.combinations(range(1, k + 1), r) for r in range(k + 1)
        ):
            mask = (1 << N) - 1
            for i in range(1, k + 1):
                mask &= cols[elems[i - 1]] if i in S else neg[elems[i - 1]]
            bS[frozenset(S)] = spec.vector_of((mask & -mask).bit_length() - 1)
        return Witness(
            "VC", A, {"a": [spec.vector_of(e) for e in elems], "b": bS}, k=k
        )

    def dfs(k, start, elems, masks):
        # masks: one candidate bitset per subset pattern of the chosen elements
        if len(elems) == k:
            return list(elems)
        for a in range(start, N):
            if not budget.tick():
                over[0] = True
                return None
            ca, na = cols[a], neg[a]
            new = []
            ok = True
            for m in masks:
                m1 = m & ca
                if not m1:
                    ok = False
                    break
                m0 = m & na
                if not m0:
                    ok = False
                    break
                new.append(m0)
                new.append(m1)
            if ok:
                got = dfs(k, a + 1, elems + [a], new)
                if got is not None:
                    return got
            if over[0]:
                return None
        return None

    for k in range(1, kmax + 1):
        if 2**k > N:
            break
        got = dfs(k, 0, [], [(1 << N) - 1])
        if over[0]:
            return best_k, best_witness, BOUND_ONLY
        if got is None:
            return best_k, best_witness, FOUND
        best_k = k
        best_witness = witness_from(got)
        _check_witness(best_witness)
    return best_k, best_witness, FOUND


def vc2_dim(A: GroupSubset, kmax: int, budget: SearchBudget | None = None):
    """Largest k <= kmax with a shattered k x k sum grid, with witness."""
    spec = A.spec
    budget = (budget or SearchBudget()).start()
    N = spec.order
    size = len(A)
    if size == 0 or size == N:
        return 0, None, FOUND
    best_k, best_witness = 0, None
    for k in range(1, kmax + 1):
        if 2 ** (k * k) > N:
            return best_k, best_witness, FOUND
        # b_1 = c_1 = 0 by the two translation symmetries
        over, hit = _grid_search(A, k, np.arange(2 ** (k * k)), 4, budget)
        if over:
            return best_k, best_witness, BOUND_ONLY
        if hit is None:
            return best_k, best_witness, FOUND
        bs, cs, pats = hit
        aS = {
            frozenset((t // k + 1, t % k + 1) for t in range(k * k) if bits >> t & 1):
            spec.vector_of(int(np.argmax(pats == bits)))
            for bits in range(2 ** (k * k))
        }
        roles = {"b": [spec.vector_of(i) for i in bs], "c": [spec.vector_of(i) for i in cs], "a": aS}
        best_k, best_witness = k, Witness("VC2", A, roles, k=k)
        _check_witness(best_witness)
    return best_k, best_witness, FOUND


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
    grid = _Grid(A)
    for a in range(N):
        shifted = grid.ind[grid.sums(a)]
        D, E = grid.ind & shifted, grid.ind & ~shifted
        ys = np.flatnonzero(D)[None, :]
        step = max(1, _BLOCK // max(1, ys.size))
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


def _subtree_count(A, nodes_ind, spec, depth, mask, shifts, budget):
    """Number of (node, leaf) assignments of a depth-`depth` subtree whose
    leaves are additionally constrained to `mask` (branch constraints run
    only along root-to-leaf paths, so subtrees multiply)."""
    if depth == 0:
        return int(mask.sum())
    total = 0
    for h in np.nonzero(nodes_ind)[0]:
        if not budget.tick():
            raise MemoryError("tree-encoding budget exceeded")
        arr = shifts(int(h))
        m1 = mask & arr
        if m1.any():
            c1 = _subtree_count(A, nodes_ind, spec, depth - 1, m1, shifts, budget)
        else:
            c1 = 0
        if c1 == 0:
            continue
        m0 = mask & ~arr
        if m0.any():
            c0 = _subtree_count(A, nodes_ind, spec, depth - 1, m0, shifts, budget)
        else:
            c0 = 0
        total += c0 * c1
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
    spec = A.spec
    budget = (budget or SearchBudget()).start()
    shifts = _Shifts(A)
    return _subtree_count(
        A, nodes_in.indicator, spec, d, leaves_in.indicator.copy(), shifts, budget
    )


def count_tree_encodings_naive(A: GroupSubset, d: int, leaves_in: GroupSubset, nodes_in: GroupSubset) -> int:
    """Brute-force oracle: iterate node tuples, then count each leaf by an
    explicit scan with per-branch membership checks."""
    spec = A.spec
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
                        inside = A.contains_index(spec.sum_index(assign[sigma], g))
                        if inside != (eta[len(sigma)] == 1):
                            good = False
                            break
                if good:
                    cnt += 1
            prod *= cnt
            if prod == 0:
                break
        total += prod
    return total


def plant_tree_encoding(spec: GroupSpec, d: int, seed: int = 0, max_tries: int = 20000) -> tuple:
    """Build a tree-pattern witness on fresh elements, with A defined as
    exactly the sums the branches require.  Returns (subset, witness).

    Elements are redrawn until the required and forbidden sums are disjoint;
    the group should be large compared to the square of the number of
    branch constraints (about d * 2^d) for this to finish quickly."""
    sigmas = [tuple(s) for m in range(d) for s in itertools.product((0, 1), repeat=m)]
    etas = [tuple(e) for e in itertools.product((0, 1), repeat=d)]
    for attempt in range(max_tries):
        rng = np.random.default_rng(seed + attempt)
        nodes = {s: rng.integers(0, spec.p, size=spec.n) for s in sigmas}
        leaves = {e: rng.integers(0, spec.p, size=spec.n) for e in etas}
        required, forbidden = set(), set()
        for s, h in nodes.items():
            for e, g in leaves.items():
                if len(s) < len(e) and e[: len(s)] == s:
                    idx = spec.index_of((np.asarray(h) + np.asarray(g)) % spec.p)
                    (required if e[len(s)] == 1 else forbidden).add(idx)
        if required & forbidden:
            continue
        A = GroupSubset.from_indices(spec, required)
        w = Witness("TREE", A, {"leaves": leaves, "nodes": nodes, "d": d})
        _check_witness(w)
        return A, w
    raise RuntimeError(
        f"could not plant a depth-{d} encoding without sum collisions in "
        f"a group of order {spec.order}"
    )


def hodges_extract(encoding: Witness, k: int) -> Witness | None:
    """Extract a staircase pair family (c_i + b_j in A iff i <= j) from a
    tree-pattern witness; c's come from nodes, b's from leaves.

    k = 1 and k = 2 are handled constructively from the branch structure
    (any depth >= k suffices); larger k runs a pruned search over
    branch-guided candidates and may raise if the search space is too large.
    Returns None only when the input fails revalidation.
    """
    if not encoding.revalidate():
        return None
    A = encoding.subset
    spec = A.spec
    leaves, nodes = encoding.data["leaves"], encoding.data["nodes"]
    d = encoding.data["d"]
    if k < 1:
        raise ValueError("k must be >= 1")

    def leaf_below(prefix):
        want = tuple(prefix) + (0,) * (d - len(prefix))
        return leaves[want]

    if k == 1:
        c = nodes[()]
        b = leaf_below((1,))
        w = Witness("OP", A, {"a": [np.asarray(c)], "b": [np.asarray(b)]}, k=1)
        _check_witness(w)
        return w
    if k == 2 and d >= 2:
        cs = [np.asarray(nodes[()]), np.asarray(nodes[(1,)])]
        bs = [np.asarray(leaf_below((1, 0))), np.asarray(leaf_below((1, 1)))]
        w = Witness("OP", A, {"a": cs, "b": bs}, k=2)
        _check_witness(w)
        return w

    # Guided search: nodes along all-ones prefixes as c's, hang-off leaves as
    # b's; the under-determined cells are checked directly against A.
    node_list = list(nodes.items())
    leaf_list = list(leaves.items())
    if len(node_list) * len(leaf_list) > 4_000_000:
        raise MemoryError("staircase extraction search space too large")
    M = {}
    for s, h in node_list:
        for e, g in leaf_list:
            M[(s, e)] = A.contains_index(
                spec.index_of((np.asarray(h) + np.asarray(g)) % spec.p)
            )

    def search(cs, bs, next_nodes, next_leaves):
        if len(cs) == k:
            return cs, bs
        for si in range(next_nodes, len(node_list)):
            for ei in range(next_leaves, len(leaf_list)):
                s, _ = node_list[si]
                e, _ = leaf_list[ei]
                ok = True
                for _, ej in bs:
                    if M[(s, ej)]:
                        ok = False
                        break
                if not ok:
                    continue
                if not M[(s, e)]:
                    continue
                for _, sj in cs:
                    if not M[(sj, e)]:
                        ok = False
                        break
                if not ok:
                    continue
                got = search(cs + [(si, s)], bs + [(ei, e)], si + 1, ei + 1)
                if got is not None:
                    return got
        return None

    got = search([], [], 0, 0)
    if got is None:
        raise MemoryError(f"no staircase of length {k} found within the guided search")
    cs, bs = got
    w = Witness(
        "OP",
        A,
        {
            "a": [np.asarray(nodes[s]) for _, s in cs],
            "b": [np.asarray(leaves[e]) for _, e in bs],
        },
        k=k,
    )
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
        raise MemoryError("source group too large for exhaustive embedding search")
    p, m, n = spec_H.p, spec_H.n, spec_G.n
    H_digits = spec_H.digits.astype(np.int64)
    want = Aprime.indicator
    shifts = _Shifts(A)
    N = spec_G.order

    for cols in itertools.product(range(N), repeat=m):
        V = np.stack([spec_G.vector_of(c) for c in cols], axis=1)
        from .core import matrix_rank

        if matrix_rank(V.T, p) != m:
            continue
        if not budget.tick(N):
            raise MemoryError("embedding search budget exceeded")
        images = spec_G.indices_of((H_digits @ V.T) % p)
        ok = np.ones(N, dtype=bool)
        for h in range(spec_H.order):
            arr = shifts(int(images[h]))
            ok &= arr if want[h] else ~arr
            if not ok.any():
                break
        if ok.any():
            g = int(np.nonzero(ok)[0][0])
            return spec_G.vector_of(g), V
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
    N = spec.order
    cls = np.zeros(N, dtype=np.int8)
    cls[red.A1] = 2
    cls[red.A0] = 1

    def shifted_cls(i):
        return cls[spec.add_perm(int(i))]

    if pattern == "H":
        # staircase: left a_1..a_k free, right b_1..b_k in side;
        # a_i + b_j dense iff i <= j, sparse otherwise.
        def dfs(row, masks, chosen):
            if row > k:
                bs = [int(np.nonzero(m)[0][0]) for m in masks]
                return chosen, bs
            for a in range(N):
                if not budget.tick():
                    return None
                col = shifted_cls(a)
                new, ok = [], True
                for j in range(k):
                    want = 2 if row <= j + 1 else 1
                    m = masks[j] & (col == want)
                    if not m.any():
                        ok = False
                        break
                    new.append(m)
                if ok:
                    got = dfs(row + 1, new, chosen + [a])
                    if got is not None:
                        return got
                if budget.exhausted():
                    return None
            return None

        got = dfs(1, [side.copy() for _ in range(k)], [])
        if got is not None:
            left, right = got
            w = Witness(
                "GOODCOPY",
                red.A,
                {
                    "left": [spec.vector_of(i) for i in left],
                    "right": [spec.vector_of(i) for i in right],
                    "pattern": "H",
                    "red": red,
                    "side": side,
                },
                k=k,
            )
            _check_witness(w)
            return DetectResult(FOUND, w, budget.nodes)
        return DetectResult(BOUND_ONLY if budget.exhausted() else NONE, nodes=budget.nodes)

    if pattern == "U":
        # left a_1..a_k free; right b_S in side for each S subset of [k].
        def dfs(row, masks, chosen):
            if row > k:
                out = {}
                for bits, m in enumerate(masks):
                    out[bits] = int(np.nonzero(m)[0][0])
                return chosen, out
            for a in range(N):
                if not budget.tick():
                    return None
                col = shifted_cls(a)
                new, ok = [], True
                for bits in range(2 ** (row - 1)):
                    m = masks[bits]
                    m0 = m & (col == 1)
                    m1 = m & (col == 2)
                    if not m0.any() or not m1.any():
                        ok = False
                        break
                    new.append(m0)
                    new.append(m1)
                if ok:
                    # reorder so bit (row-1) indexes membership of the new element
                    reordered = [None] * (2**row)
                    for bits in range(2 ** (row - 1)):
                        reordered[bits] = new[2 * bits]
                        reordered[bits | (1 << (row - 1))] = new[2 * bits + 1]
                    got = dfs(row + 1, reordered, chosen + [a])
                    if got is not None:
                        return got
                if budget.exhausted():
                    return None
            return None

        got = dfs(1, [side.copy()], [])
        if got is not None:
            left, right = got
            w = Witness(
                "GOODCOPY",
                red.A,
                {
                    "left": [spec.vector_of(i) for i in left],
                    "right": {bits: spec.vector_of(i) for bits, i in right.items()},
                    "pattern": "U",
                    "red": red,
                    "side": side,
                },
                k=k,
            )
            _check_witness(w)
            return DetectResult(FOUND, w, budget.nodes)
        return DetectResult(BOUND_ONLY if budget.exhausted() else NONE, nodes=budget.nodes)

    if pattern == "T":
        d = k
        # good encoding: leaves in side, every node+leaf sum classified (no
        # error atoms), with branch sums dense on the 1 side, sparse on 0.
        leaf_keys = list(itertools.product((0, 1), repeat=d))
        node_keys = [tuple(s) for m in range(d) for s in itertools.product((0, 1), repeat=m)]

        def dfs(idx, nodes, leaf_masks):
            if idx == len(node_keys):
                out = {}
                for key, m in leaf_masks.items():
                    pos = np.nonzero(m)[0]
                    if pos.size == 0:
                        return None
                    out[key] = int(pos[0])
                return nodes, out
            sigma = node_keys[idx]
            for h in range(N):
                if not budget.tick():
                    return None
                col = shifted_cls(h)
                new, ok = {}, True
                for key, m in leaf_masks.items():
                    if len(sigma) < d and key[: len(sigma)] == sigma:
                        want = 2 if key[len(sigma)] == 1 else 1
                        mm = m & (col == want)
                    else:
                        mm = m & (col > 0)
                    if not mm.any():
                        ok = False
                        break
                    new[key] = mm
                if ok:
                    got = dfs(idx + 1, nodes + [h], new)
                    if got is not None:
                        return got
                if budget.exhausted():
                    return None
            return None

        got = dfs(0, [], {key: side.copy() for key in leaf_keys})
        if got is not None:
            nodes, leaves = got
            w = Witness(
                "GOODCOPY",
                red.A,
                {
                    "nodes": {node_keys[i]: spec.vector_of(h) for i, h in enumerate(nodes)},
                    "leaves": {key: spec.vector_of(i) for key, i in leaves.items()},
                    "pattern": "T",
                    "d": d,
                    "red": red,
                    "side": side,
                },
                k=d,
            )
            _check_witness(w)
            return DetectResult(FOUND, w, budget.nodes)
        return DetectResult(BOUND_ONLY if budget.exhausted() else NONE, nodes=budget.nodes)

    raise ValueError(f"unknown pattern {pattern!r}")


def verify_good_copy(red, left_labels, right_labels, pattern: str = "H") -> bool:
    """Re-check a staircase good copy from atom densities (independent of the
    search): left_i + right_j must be a dense atom iff i <= j, sparse
    otherwise, and the right side must lie in the quadratic-label subgroup."""
    spec = red.label_spec
    k = len(left_labels)
    for j, b in enumerate(right_labels):
        bi = spec.index_of(np.asarray(b))
        if not red.H_B[bi]:
            return False
    for i in range(k):
        for j in range(k):
            s = spec.index_of(
                (np.asarray(left_labels[i]) + np.asarray(right_labels[j])) % spec.p
            )
            want = "dense" if i + 1 <= j + 1 else "sparse"
            if red.classify(s) != want:
                return False
    return True


def count_good_copies_H(red, k: int, side=None) -> int:
    """Exact count of good copies of the k-staircase with right side in
    `side` (product formula over realizer columns per left tuple)."""
    spec = red.label_spec
    side = red.H_B if side is None else np.asarray(side, dtype=bool)
    N = spec.order
    cls = np.zeros(N, dtype=np.int8)
    cls[red.A1] = 2
    cls[red.A0] = 1
    total = 0
    for left in itertools.product(range(N), repeat=k):
        cols = [cls[spec.add_perm(a)] for a in left]
        prod = 1
        for j in range(1, k + 1):
            m = side.copy()
            for i in range(1, k + 1):
                m &= cols[i - 1] == (2 if i <= j else 1)
            prod *= int(m.sum())
            if prod == 0:
                break
        total += prod
    return total
