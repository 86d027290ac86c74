"""Ground-truth reliability computations.

Two independent routes to Rel(G;q) live here: a memoized factor/contract
recursion, the default, and subset enumeration with per-bundle binomial
weighting, kept only as an oracle.  One enumeration scan serves the
oracles ``f_vector``, ``rel_bruteforce`` and ``sprel`` (split reliability:
each surviving component holds exactly one vertex of a target set K).
Outside the oracles split reliability for two terminals comes from the
recursion, as spRel(H; u, v) = Rel(H/uv) - Rel(H) with ``contract``.
The F- and H-vectors, and the transforms between them and Rel, live here
too, so that a ``certify`` run, which needs none of them, never loads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

from .errors import DisconnectedGraphError, GuardExceededError, InputError, NumericalError
from .multigraph import Multigraph, blocks, edges_connected, is_connected
from .polynomials import ONE_MINUS_Q, ONE_PLUS_Q, Q, RatPoly, compose_homogeneous, convolve

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


# ---------------------------------------------------------------------------
# F-vectors and H-vectors of the cographic matroid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FVector:
    """F_i = number of i-edge subsets whose removal leaves the graph connected."""

    values: tuple[int, ...]
    n: int
    m: int

    def __post_init__(self):
        expect = self.m - self.n + 2
        if len(self.values) != expect:
            raise InputError(
                f"F-vector needs m-n+2 = {expect} entries, got {len(self.values)}")
        if any(v < 0 for v in self.values):
            raise InputError("F-vector entries must be nonnegative")
        if self.values and self.values[0] != 1:
            raise InputError("F_0 must be 1 for a connected graph")

    def check_binomial_bound(self) -> bool:
        return all(v <= comb(self.m, i) for i, v in enumerate(self.values))

    def to_polynomial(self) -> RatPoly:
        """The generating polynomial F(G; x)."""
        return RatPoly(self.values)


@dataclass(frozen=True)
class HVector:
    """Coefficients of Rel after the (1-q)^(n-1) factor is removed."""

    values: tuple[int, ...]
    n: int
    m: int

    def __post_init__(self):
        expect = self.m - self.n + 2
        if len(self.values) != expect:
            raise InputError(
                f"H-vector needs m-n+2 = {expect} entries, got {len(self.values)}")
        if self.values and self.values[0] != 1:
            raise InputError("H_0 must be 1")

    def is_strictly_positive(self) -> bool:
        return all(v >= 1 for v in self.values)

    def is_log_concave(self) -> bool:
        v = self.values
        return all(v[i] * v[i] >= v[i - 1] * v[i + 1] for i in range(1, len(v) - 1))

    def to_polynomial(self) -> RatPoly:
        return RatPoly(self.values)

    def total(self) -> int:
        """H(1); equals the number of spanning trees."""
        return sum(self.values)


def f_to_h(f: FVector) -> HVector:
    """Convert an F-vector to the unique H-vector with the same reliability polynomial.

    Rel = sum_i F_i q^i (1-q)^(m-i), and a validated F-vector has entries
    only for i <= m-n+1, where m-i >= n-1.  So every term keeps the factor
    (1-q)^(n-1), and H = sum_i F_i q^i (1-q)^(m-n+1-i) has integer
    coefficients with nothing left over.  A corrupt F-vector shows as a
    nonpositive H entry.
    """
    values = tuple(compose_homogeneous(f.values, f.m - f.n + 1, Q, ONE_MINUS_Q))
    if any(v <= 0 for v in values):
        raise NumericalError("H-vector entries must be strictly positive; corrupt F-vector")
    return HVector(values=values, n=f.n, m=f.m)


def h_to_rel(h: HVector) -> RatPoly:
    """Expand (1-q)^(n-1) * sum_k H_k q^k; the result has degree exactly m."""
    one_minus_q = RatPoly([1, -1])
    return (one_minus_q ** (h.n - 1)) * h.to_polynomial()


def rel_from_f(f: FVector) -> RatPoly:
    """Expand sum_i F_i q^i (1-q)^(m-i)."""
    return RatPoly(compose_homogeneous(f.values, f.m, Q, ONE_MINUS_Q))


def f_from_rel(rel: RatPoly, n: int) -> FVector:
    """Recover the F-vector from an expanded reliability polynomial.

    Uses F(t) = (1+t)^m Rel(t/(1+t)) = sum_j c_j t^j (1+t)^(m-j); entries
    beyond degree m-n+1 must vanish, which doubles as a sanity check.  The
    map is unimodular, so F is integral exactly when Rel is.
    """
    if rel.is_zero():
        raise InputError("cannot take the F-vector of the zero polynomial")
    if any(c.denominator != 1 for c in rel.coeffs):
        raise NumericalError("non-integral F-vector recovered")
    m = rel.degree
    f = compose_homogeneous([c.numerator for c in rel.coeffs], m, Q, ONE_PLUS_Q)
    top = m - n + 1
    if top < 0 or any(f[top + 1:]):
        raise NumericalError("reliability polynomial is inconsistent with the claimed vertex count")
    return FVector(values=tuple(f[:top + 1]), n=n, m=m)


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

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; True iff they were different."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _split_failure_counts(g: Multigraph, targets: tuple[int, ...], guard_pairs: int) -> list[int]:
    """c_i = number of i-edge subsets whose failure leaves every surviving
    component holding exactly one vertex of ``targets``, by enumeration.

    One target vertex makes this the F-vector count (the survivors connect
    the graph).  A state has n - unions components, so it qualifies iff
    that is |K| and the targets sit in distinct components.  Whether a
    state qualifies depends only on which bundles are removed entirely, so
    each surviving bundle contributes a binomial generating factor
    (1+z)^mult - z^mult and the 2^m blowup reduces to 2^pairs.
    """
    p = g.pair_count
    if p > guard_pairs:
        raise GuardExceededError(
            f"graph has {p} distinct pairs; enumeration guard is {guard_pairs}")
    pairs = g.edges
    need = g.n - len(targets)
    acc = [0] * (g.m + 1)
    simple = g.is_simple()
    # (1+z)^mult - z^mult per bundle, precomputed.
    bundle_gen = [[comb(mult, j) for j in range(mult)] for _, _, mult in pairs]

    for mask in range(1 << p):
        survivors = mask.bit_count()
        if survivors < need:  # each union takes a surviving pair
            continue
        dsu = _DSU(g.n)
        unions = 0
        for idx in range(p):
            if mask >> idx & 1:
                u, v, _ = pairs[idx]
                unions += dsu.union(u, v)
        if unions != need or len({dsu.find(x) for x in targets}) != len(targets):
            continue
        if simple:
            acc[p - survivors] += 1
            continue
        shift = 0
        prod = [1]
        for idx in range(p):
            if mask >> idx & 1:
                prod = convolve(prod, bundle_gen[idx])
            else:
                shift += pairs[idx][2]
        for j, c in enumerate(prod):
            acc[shift + j] += c
    return acc


def f_vector(g: Multigraph, guard_pairs: int = DEFAULT_GUARD_PAIRS) -> FVector:
    """Exact F-vector by enumeration over subsets of distinct vertex pairs (an oracle)."""
    if not is_connected(g):
        raise DisconnectedGraphError("F-vector requires a connected graph")
    counts = _split_failure_counts(g, (0,), guard_pairs)
    return FVector(values=tuple(counts[:g.m - g.n + 2]), n=g.n, m=g.m)


def rel_bruteforce(g: Multigraph, guard_pairs: int = DEFAULT_GUARD_PAIRS) -> RatPoly:
    """Rel(G;q) = sum_i F_i q^i (1-q)^(m-i), from the enumerated F-vector (an oracle)."""
    return rel_from_f(f_vector(g, guard_pairs))


def sprel(g: Multigraph, spec: SplitSpec, guard_pairs: int = DEFAULT_GUARD_PAIRS) -> RatPoly:
    """Split reliability by enumeration (an oracle): every surviving
    component contains exactly one vertex of K.

    With |K| = 1 this collapses to all-terminal reliability.  The graph may
    be disconnected; states where some component misses K entirely simply
    never count.
    """
    if g.n == 0:
        raise InputError("split reliability of the empty graph is undefined")
    for v in spec.vertices:
        if not (0 <= v < g.n):
            raise InputError(f"split vertex {v} outside 0..{g.n - 1}")
    counts = _split_failure_counts(g, spec.vertices, guard_pairs)
    return RatPoly(compose_homogeneous(counts, g.m, Q, ONE_MINUS_Q))


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


def contract(n: int, edges: tuple[tuple[int, int, int], ...], u: int, v: int):
    """Merge v into u, dropping loops and merging parallel bundles.

    Takes and returns (vertex count, canonical edge tuple), so
    ``Multigraph(*contract(g.n, g.edges, u, v))`` is G/uv.
    """
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


def rel_auto(g: Multigraph, max_expansions: int = DEFAULT_DC_BUDGET) -> RatPoly:
    """Rel(G;q) by the default route, the bundle factor/contract recursion
    with memoization.

    A bundle of multiplicity k is operational (contract) with probability
    1-q^k and fails entirely (delete) with probability q^k; deleting a
    bridge bundle contributes nothing.  Memo keys are canonical sorted edge
    multisets after first-seen relabelling; no isomorphism reduction.
    Subset enumeration (``rel_bruteforce``) costs 2^pairs connectivity
    tests and is kept only as an independent oracle.
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
        cn, ce = contract(n, edges, u, v)
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
