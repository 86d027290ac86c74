"""Ground-truth reliability computations.

Two independent routes to Rel(G;q) live here: subset enumeration with
per-bundle binomial weighting, and a memoized factor/contract recursion.
Split reliability (each surviving component holds exactly one vertex of a
target set K) is enumeration-only; the gadget graphs it is needed for are
small.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

from .errors import DisconnectedGraphError, GuardExceededError, InputError
from .multigraph import Multigraph, blocks, edges_connected, is_connected
from .polynomials import FVector, RatPoly, convolve, rel_from_f

DEFAULT_GUARD_PAIRS = 24
DEFAULT_DC_BUDGET = 500_000


@dataclass(frozen=True)
class SplitSpec:
    """Nonempty set of distinct target vertices; |K| = 2 is the {u,v}-split case."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InputError("split specification needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("split specification has duplicate vertices")

    @classmethod
    def of(cls, vertices: Iterable[int]) -> "SplitSpec":
        return cls(tuple(vertices))


def _check_guard(g: Multigraph, guard_pairs: int) -> None:
    if g.pair_count > guard_pairs:
        raise GuardExceededError(
            f"graph has {g.pair_count} distinct pairs; enumeration guard is {guard_pairs}")


class _DSU:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def f_vector(g: Multigraph, guard_pairs: int = DEFAULT_GUARD_PAIRS) -> FVector:
    """Exact F-vector by enumeration over subsets of distinct vertex pairs.

    Connectivity after removal depends only on which bundles are removed
    entirely, so each surviving bundle contributes a binomial generating
    factor (1+z)^mult - z^mult and the 2^m blowup reduces to 2^pairs.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("F-vector requires a connected graph")
    _check_guard(g, guard_pairs)
    p = g.pair_count
    pairs = g.edges
    top = g.m - g.n + 1
    acc = [0] * (top + 1)
    simple = g.is_simple()
    # (1+z)^mult - z^mult per bundle, precomputed.
    bundle_gen = [[comb(mult, j) for j in range(mult)] for _, _, mult in pairs]
    fail_weight = [mult for _, _, mult in pairs]

    for mask in range(1 << p):
        dsu = _DSU(g.n)
        for idx in range(p):
            if mask >> idx & 1:
                u, v, _ = pairs[idx]
                dsu.union(u, v)
        root = dsu.find(0)
        if any(dsu.find(v) != root for v in range(1, g.n)):
            continue
        if simple:
            acc[p - bin(mask).count("1")] += 1
            continue
        shift = 0
        prod = [1]
        for idx in range(p):
            if mask >> idx & 1:
                prod = convolve(prod, bundle_gen[idx])
            else:
                shift += fail_weight[idx]
        for j, c in enumerate(prod):
            if c:
                acc[shift + j] += c
    return FVector(values=tuple(acc), n=g.n, m=g.m)


def rel_bruteforce(g: Multigraph, guard_pairs: int = DEFAULT_GUARD_PAIRS) -> RatPoly:
    """Rel(G;q) = sum_i F_i q^i (1-q)^(m-i), from the enumerated F-vector."""
    return rel_from_f(f_vector(g, guard_pairs))


def sprel(g: Multigraph, spec: SplitSpec, guard_pairs: int = DEFAULT_GUARD_PAIRS) -> RatPoly:
    """Split reliability: every surviving component contains exactly one vertex of K.

    With |K| = 1 this collapses to all-terminal reliability.  The graph may
    be disconnected; states where some component misses K entirely simply
    never count.
    """
    if g.n == 0:
        raise InputError("split reliability of the empty graph is undefined")
    for v in spec.vertices:
        if not (0 <= v < g.n):
            raise InputError(f"split vertex {v} outside 0..{g.n - 1}")
    _check_guard(g, guard_pairs)
    p = g.pair_count
    pairs = g.edges
    in_k = [False] * g.n
    for v in spec.vertices:
        in_k[v] = True

    # Per bundle: survives with probability 1-q^mult, fails with q^mult.
    survive = [[1] + [0] * (mult - 1) + [-1] for _, _, mult in pairs]  # 1 - q^mult
    fail_deg = [mult for _, _, mult in pairs]

    total: list[int] = [0]
    for mask in range(1 << p):
        dsu = _DSU(g.n)
        for idx in range(p):
            if mask >> idx & 1:
                u, v, _ = pairs[idx]
                dsu.union(u, v)
        counts: dict[int, int] = {}
        for v in range(g.n):
            r = dsu.find(v)
            counts[r] = counts.get(r, 0) + (1 if in_k[v] else 0)
        if any(c != 1 for c in counts.values()):
            continue
        prod = [1]
        shift = 0
        for idx in range(p):
            if mask >> idx & 1:
                prod = convolve(prod, survive[idx])
            else:
                shift += fail_deg[idx]
        padded = [0] * shift + prod
        if len(padded) > len(total):
            total += [0] * (len(padded) - len(total))
        for i, c in enumerate(padded):
            total[i] += c
    return RatPoly(total)


def rel_via_blocks(g: Multigraph) -> RatPoly:
    """Rel is multiplicative over biconnected components."""
    if not is_connected(g):
        raise DisconnectedGraphError("block factorization requires a connected graph")
    result = RatPoly.one()
    for block in blocks(g):
        result = result * rel_auto(block.graph)
    return result


# ---------------------------------------------------------------------------
# Deletion-contraction
# ---------------------------------------------------------------------------


def _canonical(n: int, edges: tuple[tuple[int, int, int], ...]) -> tuple:
    """Relabel vertices by first appearance in the sorted edge list."""
    label: dict[int, int] = {}
    out = []
    for u, v, mult in edges:
        for x in (u, v):
            if x not in label:
                label[x] = len(label)
        a, b = label[u], label[v]
        if a > b:
            a, b = b, a
        out.append((a, b, mult))
    # Isolated vertices cannot occur: callers only recurse on connected graphs.
    return (n, tuple(sorted(out)))


def _contract(n: int, edges: tuple[tuple[int, int, int], ...], u: int, v: int):
    """Merge v into u, dropping loops and merging parallel bundles."""
    merged: dict[tuple[int, int], int] = {}
    for a, b, mult in edges:
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 == b2:
            continue
        # Compact: shift labels above v down by one.
        a2 = a2 - 1 if a2 > v else a2
        b2 = b2 - 1 if b2 > v else b2
        key = (a2, b2) if a2 < b2 else (b2, a2)
        merged[key] = merged.get(key, 0) + mult
    return n - 1, tuple(sorted((a, b, m) for (a, b), m in merged.items()))


def _delete(edges: tuple[tuple[int, int, int], ...], idx: int):
    return edges[:idx] + edges[idx + 1:]


def rel_deletion_contraction(g: Multigraph, max_expansions: int = DEFAULT_DC_BUDGET) -> RatPoly:
    """Rel(G;q) by the bundle factor/contract recursion with memoization.

    A bundle of multiplicity k is operational (contract) with probability
    1-q^k and fails entirely (delete) with probability q^k; deleting a
    bridge bundle contributes nothing.  Memo keys are canonical sorted edge
    multisets after first-seen relabelling; no isomorphism reduction.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("deletion-contraction requires a connected graph")
    memo: dict[tuple, list[int]] = {}
    budget = [max_expansions]

    def solve(n: int, edges: tuple[tuple[int, int, int], ...]) -> list[int]:
        if n == 1:
            return [1]
        key = _canonical(n, edges)
        hit = memo.get(key)
        if hit is not None:
            return hit
        budget[0] -= 1
        if budget[0] < 0:
            raise GuardExceededError("deletion-contraction expansion budget exceeded")
        u, v, mult = edges[0]
        # 1 - q^mult and q^mult as coefficient lists.
        cn, ce = _contract(n, edges, u, v)
        contracted = solve(cn, ce)
        out = [0] * (mult + len(contracted))
        for i, c in enumerate(contracted):
            out[i] += c
            out[i + mult] -= c
        rest = _delete(edges, 0)
        if edges_connected(n, rest):
            deleted = solve(n, rest)
            need = mult + len(deleted)
            if len(out) < need:
                out += [0] * (need - len(out))
            for i, c in enumerate(deleted):
                out[i + mult] += c
        memo[key] = out
        return out

    return RatPoly(solve(g.n, g.edges))


def rel_auto(g: Multigraph, max_expansions: int = DEFAULT_DC_BUDGET) -> RatPoly:
    """Rel(G;q) by the default route, deletion-contraction.

    Subset enumeration (``rel_bruteforce``) costs 2^pairs connectivity
    tests and is kept only as an independent oracle.
    """
    return rel_deletion_contraction(g, max_expansions)
