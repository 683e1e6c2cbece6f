"""Network simplex for the dense balanced transportation problem.

    min  sum_ij c_ij x_ij
    s.t. sum_j x_ij = supply_i,   sum_i x_ij = demand_j,   x >= 0

The basis is a spanning tree of the bipartite graph, rooted at row 0.  The
solver first builds the northwest-corner staircase and prices it once.  For
atoms sorted by position in one dimension with balanced masses the
staircase is the monotone (optimal) coupling, so those instances finish on
that single pricing pass.  Elsewhere it is a poor start, and the solver
replaces it by the matrix-minimum basis: arcs taken by increasing cost,
each carrying as much as its row and column still hold, then joined into a
spanning tree by zero-flow arcs.  That start needs a fraction of the
staircase's pivots.  Pricing is vectorized Dantzig (most negative reduced
cost, first index on ties); after a stretch of degenerate pivots the solver
switches to Bland's smallest-index rule until a nondegenerate pivot occurs,
which prevents cycling while keeping the pivot sequence deterministic.

The tree is maintained incrementally (Ahuja, Magnanti and Orlin, *Network
Flows*, 1993, ch. 11).  Parent and depth arrays persist across pivots; the
cycle closed by the entering arc is found by walking its two ends up to
their lowest common ancestor, the deeper end first.  The leaving arc cuts
off one subtree, which holds one end of the entering arc.  Only that subtree
is re-hung, below the entering arc, and only its nodes get new depths and
dual potentials.  The reduced-cost matrix is then recomputed in full, as
``(c_ij - u_i) - v_j``.

This gives the same results, bit for bit, as rebuilding the whole tree on
every pivot.  A potential is ``cost[arc] - potential[parent]`` along the
unique tree path from the root, so it depends on that path alone:
recomputing the re-hung subtree top-down gives the bits a breadth-first
pass over the whole tree would, and every other node keeps its path and its
bits.  The staircase is a path, so its potentials are computed while it is
built, by the same expressions.  Pricing thus sees the same matrix, so the
pivot sequence, the flows and the value are unchanged.  A final full
rebuild checks that the basis is a spanning tree and recomputes every
reduced cost for the optimality certificate.

Warm start.  A caller solving a sequence of instances can pass a
``WarmStart`` carrier, which keeps the last optimal basis (all m + n - 1
arcs with their flows) and the tree of its final rebuild: adjacency,
parents and BFS order.  For a fixed tree and fixed supplies and demands the
tree flows are unique, so that basis is primal-feasible for any instance
with the same supply and demand, whatever its costs (the reoptimization
view of Ahuja, Magnanti and Orlin, ch. 11).  Such a solve skips both starts
and the starting BFS: it prices the kept tree with one pass over the kept
order, each potential ``cost[arc] - potential[parent]`` as above, so the
bits are those a rebuild would give.  It then pivots with the same pricing,
Bland window and pivot limit, and ends with the same full rebuild and
certificate; when the costs moved a little, few pivots remain.  Any other
instance takes the cold start.  A solve empties the carrier when it starts
and refills it only when it succeeds.  Where the optimum is degenerate a
warm solve may end at another optimal basis than a cold one, so flows and
the value's last bits can differ.  The carrier belongs to the caller, not
to the module, so a result depends on the call's arguments alone.

Bound.  The same feasibility makes a fitting carrier an upper bound:
``WarmStart.price`` prices the kept basis at new costs, ``sum f *
cost[arc]``, without solving.  The carrier keeps its arcs as row, column
and flow arrays, so the caller computes only those m + n - 1 costs: O(m +
n), no cost matrix.  A solve returns a basis whose reduced costs are at
least ``-100 price_tol``, so its cost is at most the optimum plus ``100
price_tol`` times the total supply (``certificate_slack``).  That slack
needs only an upper bound on max |cost|, such as one from the two point
sets' support radii, so a caller can bound an instance whose matrix it
never builds.  A caller that only needs to know whether the optimum can
exceed some value may skip the solve when the bound is below it.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from .errors import SolverError


class SimplexError(SolverError):
    """Internal failure of the transportation solver (should never happen)."""


def _northwest_corner(supply: np.ndarray, demand: np.ndarray, cost: np.ndarray):
    """Initial spanning-tree basis with exactly m + n - 1 arcs, keyed by the
    flat index ``i * n + j`` of arc ``(i, j)``, and its potentials ``u, v``.

    The staircase is a path on which each arc reaches one new node from one
    already joined to row 0, so that node's potential is the arc's cost less
    the other end's: the bits ``_Tree.rebuild`` would give it.
    """
    m, n = cost.shape
    a = supply.tolist()
    b = demand.tolist()
    u = [0.0] * m
    v = [0.0] * n
    flows: dict[int, float] = {}
    i = j = 0
    new_col = True  # arc (0, 0) reaches column 0 from the root
    while True:
        if new_col:
            v[j] = cost.item(i, j) - u[i]
        else:
            u[i] = cost.item(i, j) - v[j]
        f = min(a[i], b[j])
        flows[i * n + j] = max(f, 0.0)
        a[i] -= f
        b[j] -= f
        if i == m - 1 and j == n - 1:
            break
        new_col = j < n - 1 and (i == m - 1 or not a[i] <= b[j])
        if new_col:
            j += 1
        else:
            i += 1
    return flows, np.array(u), np.array(v)


def _greedy_start(supply: np.ndarray, demand: np.ndarray, cost: np.ndarray):
    """Matrix-minimum spanning-tree basis with exactly m + n - 1 arcs, keyed
    like the staircase's.

    Arcs are visited by increasing cost, ties by flat index.  An arc whose
    row and column are both open carries ``min(a_i, b_j)`` of what they
    still hold and closes the one it used up, the row on a tie.  A closed
    row or column gets no later arc, so these arcs form a forest; zero-flow
    arcs, visited in the same order, then join its components.  Like the
    staircase, this absorbs a small supply/demand imbalance.
    """
    m, n = cost.shape
    a = supply.astype(float).tolist()
    b = demand.astype(float).tolist()
    # By cost, then flat index: quicksort, then one integer sort puts each
    # run of equal costs back in index order, the order of a stable sort.
    flat = cost.reshape(-1)
    order = np.argsort(flat)
    key = order.copy()
    key[1:] += np.cumsum(flat[order[1:]] != flat[order[:-1]]) * flat.size
    order = np.sort(key) % flat.size
    # memoryviews yield Python ints lazily, for the prefix the scans reach
    rows, cols = (memoryview(x) for x in np.divmod(order, n))
    row_open = [True] * m
    col_open = [True] * n
    open_rows, open_cols = m, n
    flows: dict[int, float] = {}
    root = list(range(m + n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for i, j in zip(rows, cols):
        if not (row_open[i] and col_open[j]):
            continue
        f = min(a[i], b[j])
        flows[i * n + j] = max(f, 0.0)
        root[find(i)] = find(m + j)
        if a[i] <= b[j]:
            row_open[i] = False
            open_rows -= 1
            b[j] -= f
        else:
            col_open[j] = False
            open_cols -= 1
            a[i] -= f
        if not (open_rows and open_cols):
            break

    missing = m + n - 1 - len(flows)
    for i, j in zip(rows, cols):
        if not missing:
            break
        ri, rj = find(i), find(m + j)
        if ri != rj:
            root[ri] = rj
            flows[i * n + j] = 0.0
            missing -= 1
    return flows


def _bland_window(m: int, n: int) -> int:
    """Degenerate pivots in a row after which pricing switches to Bland's rule."""
    return 2 * (m + n) + 10


def _first_negative(reduced: np.ndarray, price_tol: float) -> int:
    """Bland's rule: the smallest flat index with a negative reduced cost, or -1."""
    mask = reduced.reshape(-1) < -price_tol
    return int(np.argmax(mask)) if mask.any() else -1


class _Tree:
    """Spanning-tree bookkeeping over nodes 0..m-1 (rows) and m..m+n-1 (cols)."""

    def __init__(self, m: int, n: int, basis: dict[int, float]):
        self.m = m
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(m + n)]
        for arc in basis:
            i, j = divmod(arc, n)
            self.adj[i].add(m + j)
            self.adj[m + j].add(i)
        self.parent = [-1] * (m + n)
        self.depth = [0] * (m + n)
        self.order: list[int] = []

    def rebuild(self, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """BFS from the root: parents, depths, the visiting order, and from
        them the dual potentials ``u, v``."""
        parent = self.parent
        depth = self.depth
        adj = self.adj
        seen = [False] * (self.m + self.n)
        seen[0] = True
        parent[0] = -1
        depth[0] = 0
        order = [0]
        for node in order:  # the list is the queue: it grows while read
            for nbr in adj[node]:
                if not seen[nbr]:
                    seen[nbr] = True
                    parent[nbr] = node
                    depth[nbr] = depth[node] + 1
                    order.append(nbr)
        if len(order) != self.m + self.n:
            raise SimplexError("basis graph is not a spanning tree")
        self.order = order
        return self.potentials(cost)

    def potentials(self, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dual potentials ``u, v`` down the order of the last rebuild, each
        ``cost[arc] - potential[parent]`` with ``u[0] = 0``.  The order must
        put every node after its parent."""
        m = self.m
        parent = self.parent
        u = [0.0] * m
        v = [0.0] * self.n
        for node in islice(self.order, 1, None):
            up = parent[node]
            if node < m:  # col -> row arc (node, up - m)
                u[node] = cost.item(node, up - m) - v[up - m]
            else:  # row -> col arc (up, node - m)
                v[node - m] = cost.item(up, node - m) - u[up]
        return np.array(u), np.array(v)

    def cycle(self, row: int, col_node: int) -> tuple[list[int], int]:
        """Node walk of the unique cycle closed by the entering arc row->col.

        The walk is ``[row]``, the column side from ``col_node`` up to below
        the lowest common ancestor, the ancestor, then the row side down to
        the parent of ``row``; the ancestor's index in the walk is returned
        with it (``len(walk)`` when the ancestor is ``row`` itself).
        """
        parent = self.parent
        depth = self.depth
        a, b = row, col_node
        row_side: list[int] = []
        col_side: list[int] = []
        while depth[a] > depth[b]:
            row_side.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            col_side.append(b)
            b = parent[b]
        while a != b:
            row_side.append(a)
            col_side.append(b)
            a = parent[a]
            b = parent[b]
        walk = [row] + col_side
        if a == row:
            return walk, len(walk)
        return walk + [a] + row_side[:0:-1], len(walk)

    def rehang(
        self,
        leaving: int,
        top: int,
        below: int,
        cost: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
    ) -> None:
        """Swap the leaving arc (a flat index) for the entering arc
        ``below``-``top``.

        ``below`` is the entering arc's end inside the subtree the leaving
        arc cuts off.  That subtree is hung from ``top`` and its depths and
        potentials are recomputed top-down.
        """
        m = self.m
        adj = self.adj
        parent = self.parent
        depth = self.depth
        li, lj = divmod(leaving, self.n)
        adj[li].discard(m + lj)
        adj[m + lj].discard(li)
        adj[top].add(below)
        adj[below].add(top)
        parent[below] = top
        stack = [below]
        while stack:
            node = stack.pop()
            up = parent[node]
            depth[node] = depth[up] + 1
            if node < m:  # col -> row arc (node, up - m)
                u[node] = cost[node, up - m] - v[up - m]
            else:  # row -> col arc (up, node - m)
                v[node - m] = cost[up, node - m] - u[up]
            for nbr in adj[node]:
                if nbr != up:
                    parent[nbr] = node
                    stack.append(nbr)


def _pivot(tree, flows, cost, u, v, reduced, price_tol, degen_tol, max_iter) -> None:
    """Pivot until no reduced cost is below ``-price_tol``, updating the
    tree, the flows, the potentials and the reduced costs in place."""
    m, n = tree.m, tree.n
    bland = False
    degenerate_run = 0
    bland_window = _bland_window(m, n)

    for _ in range(max_iter):
        if bland:
            flat = _first_negative(reduced, price_tol)
            if flat < 0:
                break
        else:
            flat = int(np.argmin(reduced))
            if reduced.flat[flat] >= -price_tol:
                break
        ei, ej = divmod(flat, n)

        walk, apex = tree.cycle(ei, m + ej)
        walk.append(ei)
        # The walk alternates row and column nodes: its odd steps run from a
        # column to a row against a tree arc, its even steps along one.
        # Column node c is column c - m, so arc (r, c - m) has key r * n + c - m.
        backward = [r * n + c - m for r, c in zip(walk[2::2], walk[1::2])]
        forward = [r * n + c - m for r, c in zip(walk[2:-1:2], walk[3::2])]

        theta = math.inf
        leave = -1
        for k, arc in enumerate(backward):
            if flows[arc] < theta:
                theta = flows[arc]
                leave = k
        if leave < 0:
            raise SimplexError("no leaving arc: unbounded cycle in transportation LP")

        # ``0.0 if f < 0.0 else f`` is ``max(f, 0.0)``, signed zeros included.
        for arc in backward:
            f = flows[arc] - theta
            flows[arc] = 0.0 if f < 0.0 else f
        for arc in forward:
            f = flows[arc] + theta
            flows[arc] = 0.0 if f < 0.0 else f
        leaving = backward[leave]
        del flows[leaving]
        flows[flat] = theta
        # The walk climbs from the column end to the apex, so a leaving arc
        # before the apex cuts the column end off; otherwise the row end.
        if 2 * leave + 1 < apex:
            tree.rehang(leaving, ei, m + ej, cost, u, v)
        else:
            tree.rehang(leaving, m + ej, ei, cost, u, v)
        np.subtract(cost, u[:, None], out=reduced)
        reduced -= v

        if theta <= degen_tol:
            degenerate_run += 1
            if degenerate_run >= bland_window:
                bland = True
        else:
            degenerate_run = 0
            bland = False
    else:
        raise SimplexError(f"pivot limit {max_iter} exceeded")


def _price_tol(cap: float) -> float:
    """Pricing tolerance for costs of absolute value at most ``cap``: reduced
    costs above ``-price_tol`` count as nonnegative, and the certificate
    allows down to ``-100 price_tol``.  A solve takes ``cap = max |cost|``."""
    return 1e-12 * (1.0 + cap)


def certificate_slack(cap: float, total: float) -> float:
    """How much more than the optimum a solve can return on an instance
    whose costs lie in [-cap, cap] and whose total supply is at most
    ``total``: the certificate's ``100 price_tol`` per unit of flow.  The
    tolerance rises with ``cap``, so an upper bound on max |cost| gives an
    upper bound on the slack."""
    return 100 * _price_tol(cap) * total


def _basis(m: int, n: int, flows: dict[int, float], cost: np.ndarray):
    """The tree, potentials and reduced costs of a spanning-tree basis."""
    tree = _Tree(m, n, flows)
    u, v = tree.rebuild(cost)
    return tree, u, v, cost - u[:, None] - v[None, :]


class WarmStart:
    """Caller-owned carrier of the last optimal basis, for the next solve.

    It holds every arc of the basis with its flow, zero-flow arcs included,
    both as a dict and as row, column and flow arrays; the tree of the
    solve's final rebuild (adjacency, parents and BFS order); and the
    supply and demand bytes the basis was built for.  A solve that gets a
    carrier empties it, starts from its basis and tree when its own supply
    and demand have the same bytes, and stores its final basis and tree
    back when it succeeds.  A carrier holds no state beyond what its
    caller's solves put in it.  ``price`` prices the kept basis at another
    instance's costs without solving it, from those m + n - 1 arcs alone;
    like a warm start, it needs the same supply and demand bytes, so it
    gives inf wherever the masses change between instances.
    """

    __slots__ = ("masses", "basis", "tree", "arcs")

    def __init__(self) -> None:
        self.masses = (b"", b"")
        self.basis: dict[int, float] = {}
        self.tree: _Tree | None = None
        self.arcs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def fits(self, supply: np.ndarray, demand: np.ndarray) -> bool:
        """Whether the basis is for these supplies and demands (and shape)."""
        return self.masses == (supply.tobytes(), demand.tobytes())

    def keep(self, supply: np.ndarray, demand: np.ndarray, basis: dict[int, float],
             tree: _Tree) -> None:
        self.masses = (supply.tobytes(), demand.tobytes())
        self.basis = basis
        self.tree = tree
        count = len(basis)
        rows, cols = np.divmod(np.fromiter(basis, dtype=np.intp, count=count), tree.n)
        self.arcs = rows, cols, np.fromiter(basis.values(), dtype=float, count=count)

    def price(self, supply: np.ndarray, demand: np.ndarray, arc_costs) -> float:
        """The kept basis's cost ``sum f * cost[i, j]`` at another instance's
        costs; inf when the carrier is empty or does not fit ``supply`` and
        ``demand``.  ``arc_costs(rows, cols)`` returns the costs of the arcs
        ``(rows[k], cols[k])``, and is called only when the basis fits.

        A fitting basis is a feasible plan whatever the costs, so its price
        bounds the optimum from above; add ``certificate_slack`` to bound
        what a solve can return.  The carrier is left as it is."""
        if not self.basis or not self.fits(supply, demand):
            return math.inf
        rows, cols, flows = self.arcs
        return float(flows @ arc_costs(rows, cols))

    def take(self, supply: np.ndarray, demand: np.ndarray):
        """``(basis, tree)`` when they fit these supplies and demands, else
        None.  The carrier is empty afterwards either way, so a solve that
        fails leaves nothing behind."""
        fit = self.fits(supply, demand)
        kept = self.basis, self.tree
        self.masses, self.basis, self.tree, self.arcs = (b"", b""), {}, None, None
        return kept if fit else None


def solve_transport(
    supply,
    demand,
    cost,
    *,
    max_iter: int | None = None,
    warm: WarmStart | None = None,
):
    """Solve the balanced transportation LP exactly.

    Returns ``(value, flows)`` with ``flows`` a dict ``{(i, j): flow > 0}``.
    ``supply`` and ``demand`` must be nonnegative and (approximately)
    balanced; both starting bases absorb imbalance up to ~1e-9.

    The northwest-corner staircase is built and priced once.  If that pass
    finds it optimal (sorted, balanced 1D instances), it is the answer.
    Otherwise the pivots start from the matrix-minimum basis instead.  When
    ``warm`` holds a basis for the same supply and demand bytes, the pivots
    start from it and neither start is built; ``warm`` is emptied when the
    solve starts and gets the final basis and tree when it succeeds.
    """
    supply = np.asarray(supply, dtype=float)
    demand = np.asarray(demand, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    if m == 0 or n == 0:
        return 0.0, {}
    if len(supply) != m or len(demand) != n:
        raise ValueError("cost shape does not match supply/demand lengths")

    price_tol = _price_tol(float(np.max(np.abs(cost))))
    mass_scale = 1.0 + float(max(supply.sum(), demand.sum()))
    degen_tol = 1e-12 * mass_scale

    if max_iter is None:
        max_iter = 2000 + 60 * (m + n)

    kept = None if warm is None else warm.take(supply, demand)
    if kept is not None:
        flows, tree = kept
        u, v = tree.potentials(cost)
        reduced = cost - u[:, None] - v[None, :]
        pivot = True
    else:
        flows, u, v = _northwest_corner(supply, demand, cost)
        pivot = (cost - u[:, None] - v[None, :]).min() < -price_tol
        if pivot:
            flows = _greedy_start(supply, demand, cost)
            tree, u, v, reduced = _basis(m, n, flows, cost)
        else:
            tree = _Tree(m, n, flows)
    if pivot:
        _pivot(tree, flows, cost, u, v, reduced, price_tol, degen_tol, max_iter)

    # Spanning-tree check and optimality certificate from a full rebuild:
    # every reduced cost nonnegative (up to noise).
    u, v = tree.rebuild(cost)
    worst = float(np.min(cost - u[:, None] - v[None, :]))
    if worst < -100 * price_tol:
        raise SimplexError(f"returned basis is not optimal (reduced cost {worst})")
    if warm is not None:
        warm.keep(supply, demand, flows, tree)

    positive = {divmod(arc, n): f for arc, f in flows.items() if f > 0.0}
    value = math.fsum(cost[i, j] * f for (i, j), f in positive.items())
    return value, positive
