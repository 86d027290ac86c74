"""Loopless undirected multigraphs and their structural queries.

A :class:`Multigraph` stores parallel edges as a single (u, v, mult) entry
per vertex pair with u < v.  Nothing here changes a graph once it is
built and every function is pure, so values can be shared freely between
threads.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable, Sequence

from .errors import DisconnectedGraphError, InputError
from .polynomials import Record, bareiss_det

Edge = tuple[int, int, int]


def _is_int(x) -> bool:
    """An int that is not a bool, so JSON's true and false are not read as 1 and 0."""
    return isinstance(x, int) and not isinstance(x, bool)


class Multigraph(Record):
    """Loopless multigraph on vertices 0..n-1 with positive edge multiplicities.

    ``edges`` must be canonical: one (u, v, mult) entry per pair, u < v,
    sorted by pair.  :meth:`from_edges` builds that form from any edge list.
    Raises :class:`InputError` otherwise.  ``m`` is the number of edges,
    counted with multiplicity.
    """

    __slots__ = ("n", "edges", "m")

    def __init__(self, n: int, edges: tuple[Edge, ...]):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        for u, v, mult in edges:
            if u == v:
                raise InputError(f"loop edge at vertex {u} is not allowed")
            if not 0 <= u < v < n:
                raise InputError(
                    f"edge ({u}, {v}) is not a pair u < v of vertices in 0..{n - 1}")
            if mult < 1:
                raise InputError(f"edge ({u}, {v}) has multiplicity {mult} < 1")
        if any(a[:2] >= b[:2] for a, b in zip(edges, edges[1:])):
            raise InputError("edge pairs must be unique and sorted")
        self.n = n
        self.edges = edges
        self.m = sum(mult for _, _, mult in edges)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Multigraph":
        """Build a normalized multigraph, merging parallel (u, v) entries.

        Raises :class:`InputError` on loops, out-of-range vertex ids or
        non-positive multiplicities.
        """
        merged: dict[tuple[int, int], int] = {}
        for entry in edges:
            if len(entry) == 3:
                u, v, mult = entry
            elif len(entry) == 2:
                u, v = entry
                mult = 1
            else:
                raise InputError(f"edge entry must be [u, v, mult], got {entry!r}")
            if not all(_is_int(x) for x in (u, v, mult)):
                raise InputError(f"edge entry must contain integers, got {entry!r}")
            if mult < 1:  # checked per entry: merging could hide it
                raise InputError(f"edge ({u}, {v}) has multiplicity {mult} < 1")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0) + mult
        norm = tuple((u, v, mult) for (u, v), mult in sorted(merged.items()))
        return cls(n=n, edges=norm)

    @property
    def pair_count(self) -> int:
        """Number of distinct adjacent vertex pairs (bundles)."""
        return len(self.edges)

    def degree(self, v: int) -> int:
        return sum(mult for a, b, mult in self.edges if a == v or b == v)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v, mult in self.edges:
            deg[u] += mult
            deg[v] += mult
        return deg

    def multiplicity(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        for a, b, mult in self.edges:
            if (a, b) == key:
                return mult
        return 0

    def is_simple(self) -> bool:
        return all(mult == 1 for _, _, mult in self.edges)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [[u, v, mult] for u, v, mult in self.edges]})

    def __repr__(self):
        return f"Multigraph(n={self.n}, m={self.m}, pairs={self.pair_count})"


def parse_graph(text: str) -> Multigraph:
    """Parse the graph wire format ``{"n": int, "edges": [[u, v, mult], ...]}``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed graph JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise InputError('graph JSON must be an object with keys "n" and "edges"')
    n = doc["n"]
    if not _is_int(n):
        raise InputError(f'"n" must be an integer, got {n!r}')
    if not isinstance(doc["edges"], list):
        raise InputError('"edges" must be a list of [u, v, mult] triples')
    return Multigraph.from_edges(n, doc["edges"])


def is_connected(g: Multigraph) -> bool:
    """True iff every vertex is reachable from vertex 0 (n = 1 counts as connected)."""
    if g.n == 0:
        raise InputError("connectivity of the empty graph is undefined")
    return edges_connected(g.n, g.edges)


def edges_connected(n: int, edges: Iterable[Edge]) -> bool:
    """Connectivity of vertices 0..n-1 under (u, v, mult) edges; n <= 1 is connected."""
    if n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def _require_connected(g: Multigraph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("operation requires a connected graph")


class Block(Record):
    """A biconnected component, relabelled to 0..n_B-1.

    ``vertices[i]`` is the label in the parent graph of block vertex ``i``.
    """

    __slots__ = ("graph", "vertices")

    def __init__(self, graph: Multigraph, vertices: tuple[int, ...]):
        self.graph = graph
        self.vertices = vertices


def blocks(g: Multigraph) -> list[Block]:
    """Biconnected components of a connected multigraph.

    A bridge pair with multiplicity k becomes a 2-vertex block carrying the
    whole bundle; parallel edges never split across blocks.
    """
    _require_connected(g)
    if g.n == 1:
        return []

    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]  # (neighbour, pair index)
    for idx, (u, v, _) in enumerate(g.edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))

    disc = [-1] * g.n
    low = [0] * g.n
    edge_stack: list[int] = []
    out: list[Block] = []
    timer = 0

    def emit(upto: int) -> None:
        group: list[int] = []
        while True:
            idx = edge_stack.pop()
            group.append(idx)
            if idx == upto:
                break
        verts: list[int] = []
        index_of: dict[int, int] = {}
        for idx in group:
            for x in g.edges[idx][:2]:
                if x not in index_of:
                    index_of[x] = len(verts)
                    verts.append(x)
        sub = Multigraph.from_edges(
            len(verts),
            [(index_of[g.edges[i][0]], index_of[g.edges[i][1]], g.edges[i][2]) for i in group],
        )
        out.append(Block(graph=sub, vertices=tuple(verts)))

    # Iterative Tarjan so deep paths in large substituted graphs don't blow the
    # recursion limit.
    for root in range(g.n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # (vertex, parent pair idx, next child pos)
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, pidx, pos = stack[-1]
            if pos < len(adj[u]):
                stack[-1] = (u, pidx, pos + 1)
                v, eidx = adj[u][pos]
                if eidx == pidx:
                    continue
                if disc[v] == -1:
                    edge_stack.append(eidx)
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, eidx, 0))
                elif disc[v] < disc[u]:
                    edge_stack.append(eidx)
                    low[u] = min(low[u], disc[v])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[u])
                    if low[u] >= disc[parent]:
                        emit(pidx)
    return out


def edge_connectivity(g: Multigraph, *, upper_bound: int | None = None) -> int:
    """Minimum number of single edges (with multiplicity) whose removal disconnects g.

    Matula's dominating-set reduction: lambda = min(delta, lambda(d0, d) for
    d in D), with delta the minimum degree, D a dominating set that also
    holds every endpoint of a bundle (multiplicity >= 2) and d0 its first
    vertex; each lambda(d0, d) is a max-flow with edge capacities equal to
    multiplicities.  Exact: take a cut below delta with a shore S that
    misses D.  Each x in S has only simple edges, so at least delta-|S|+1
    of them cross, and a neighbour in D, so at least one crosses; the cut
    is then >= |S|*max(1, delta-|S|+1) >= delta.  So both shores of such a
    cut meet D.  Without the bundle rule the first bound fails.

    With ``upper_bound`` the result is min(lambda, upper_bound), and every
    flow stops at that bound (useful when a vertex of that degree is known
    to exist).
    """
    if g.n < 2:
        raise InputError("edge connectivity needs at least two vertices")
    if upper_bound is not None and upper_bound < 0:
        raise InputError(f"upper bound must be nonnegative, got {upper_bound}")
    _require_connected(g)

    # Paired arcs: a ^ 1 is the reverse of arc a; capacities reset per flow.
    to: list[int] = []
    nxt: list[int] = []
    first = [-1] * g.n
    caps0: list[int] = []
    for u, v, mult in g.edges:
        for a, b in ((u, v), (v, u)):
            to.append(b)
            caps0.append(mult)
            nxt.append(first[a])
            first[a] = len(to) - 1

    in_d = [False] * g.n
    dominated = [False] * g.n

    def join(x: int) -> None:
        in_d[x] = dominated[x] = True
        a = first[x]
        while a != -1:
            dominated[to[a]] = True
            a = nxt[a]

    for x in {x for u, v, mult in g.edges if mult > 1 for x in (u, v)}:
        join(x)
    deg = g.degrees()
    for x in sorted(range(g.n), key=deg.__getitem__, reverse=True):  # stable: ties by label
        if not dominated[x]:
            join(x)

    best = min(deg) if upper_bound is None else min(min(deg), upper_bound)
    d0, *rest = [x for x in range(g.n) if in_d[x]]
    for d in rest:
        best = _max_flow(first, to, nxt, caps0, d0, d, best)
    return best


def _max_flow(first: list[int], to: list[int], nxt: list[int], caps0: list[int],
              s: int, t: int, stop_at: int) -> int:
    """BFS augmenting-path max flow, stopping once ``stop_at`` is reached."""
    caps = list(caps0)
    n = len(first)
    flow = 0
    while flow < stop_at:
        parent_arc = [-1] * n
        parent_arc[s] = -2
        q = deque([s])
        while q and parent_arc[t] == -1:
            u = q.popleft()
            a = first[u]
            while a != -1:
                v = to[a]
                if parent_arc[v] == -1 and caps[a] > 0:
                    parent_arc[v] = a
                    q.append(v)
                a = nxt[a]
        if parent_arc[t] == -1:
            break
        bottleneck = stop_at - flow
        v = t
        while v != s:
            a = parent_arc[v]
            bottleneck = min(bottleneck, caps[a])
            v = to[a ^ 1]
        v = t
        while v != s:
            a = parent_arc[v]
            caps[a] -= bottleneck
            caps[a ^ 1] += bottleneck
            v = to[a ^ 1]
        flow += bottleneck
    return flow


def spanning_tree_count(g: Multigraph) -> int:
    """Number of spanning trees via the determinant of a reduced Laplacian.

    Exact over Python integers, so safe as an independent oracle for H(1).
    """
    _require_connected(g)
    if g.n == 1:
        return 1
    size = g.n - 1
    lap = [[0] * size for _ in range(size)]
    for u, v, mult in g.edges:
        if u > 0:
            lap[u - 1][u - 1] += mult
        if v > 0:
            lap[v - 1][v - 1] += mult
        if u > 0 and v > 0:
            lap[u - 1][v - 1] -= mult
            lap[v - 1][u - 1] -= mult
    return bareiss_det(lap)[0]


def bundle_replace(g: Multigraph, k: int) -> Multigraph:
    """Replace every edge with a bundle of k parallel edges (multiplicities scale by k)."""
    if k < 1:
        raise InputError(f"bundle factor must be >= 1, got {k}")
    return Multigraph(n=g.n, edges=tuple((u, v, mult * k) for u, v, mult in g.edges))
