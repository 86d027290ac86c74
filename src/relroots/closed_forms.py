"""Closed-form reliability of the two-clique multigraph family, and from it
of complete graphs and complete graphs minus an edge.

The recursion conditions on the communication class of a marked vertex,
so every term except the target carries a strictly positive power of q and
the target polynomial can be read off in one pass.  Internally it runs on
plain integer coefficient lists; all reliability polynomials here have
integer coefficients.
"""

from __future__ import annotations

from math import comb

from .errors import InputError
from .multigraph import Multigraph
from .polynomials import RatPoly, Record


def _padd_into(acc: list[int], p: list[int], shift: int, scale: int) -> None:
    need = shift + len(p)
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for i, c in enumerate(p):
        if c:
            acc[shift + i] += scale * c


# ---------------------------------------------------------------------------
# The two-clique family: K_m and K_n with internal bundles of size a and all
# cross pairs joined by b parallel edges.
# ---------------------------------------------------------------------------


class TwoCliqueParams(Record):
    """Parameters (m, n, a, b): clique orders and internal/cross multiplicities."""

    __slots__ = ("m", "n", "a", "b")

    def __init__(self, m: int, n: int, a: int, b: int):
        if min(m, n, a, b) < 1:
            raise InputError("two-clique parameters must all be >= 1")
        self.m, self.n, self.a, self.b = m, n, a, b

    @property
    def edge_count(self) -> int:
        return self.a * (comb(self.m, 2) + comb(self.n, 2)) + self.b * self.m * self.n


def two_clique_graph(p: TwoCliqueParams) -> Multigraph:
    """Explicit multigraph on m+n vertices: clique pairs get multiplicity a,
    cross pairs multiplicity b."""
    edges = []
    for i in range(p.m):
        for j in range(i + 1, p.m):
            edges.append((i, j, p.a))
    for i in range(p.n):
        for j in range(i + 1, p.n):
            edges.append((p.m + i, p.m + j, p.a))
    for i in range(p.m):
        for j in range(p.n):
            edges.append((i, p.m + j, p.b))
    return Multigraph.from_edges(p.m + p.n, edges)


def two_clique_reliability(p: TwoCliqueParams) -> RatPoly:
    """Rel of the two-clique family, solved from the communication-class identity.

    Conditioning on the class of a fixed vertex of the first clique gives

        sum_{i=1}^{M} sum_{j=0}^{N} C(M-1,i-1) C(N,j)
            q^{a[i(M-i)+j(N-j)] + b[i(N-j)+j(M-i)]} Rel(i,j) = 1,

    and the (i,j) = (M,N) term is the only one with q-exponent zero, so each
    table cell is extracted in one pass over its predecessors.  The memo is
    keyed by (i,j) only; a and b are fixed per solve.
    """
    a, b = p.a, p.b
    table: dict[tuple[int, int], list[int]] = {(1, 0): [1]}

    for big_m in range(1, p.m + 1):
        for big_n in range(0, p.n + 1):
            if (big_m, big_n) in table:
                continue
            acc = [1]
            for i in range(1, big_m + 1):
                for j in range(0, big_n + 1):
                    if (i, j) == (big_m, big_n):
                        continue
                    expo = a * (i * (big_m - i) + j * (big_n - j)) \
                        + b * (i * (big_n - j) + j * (big_m - i))
                    coef = comb(big_m - 1, i - 1) * comb(big_n, j)
                    _padd_into(acc, table[(i, j)], expo, -coef)
            table[(big_m, big_n)] = acc
    return RatPoly(table[(p.m, p.n)])


def rel_complete(n: int) -> RatPoly:
    """All-terminal reliability of the complete graph K_n, the two-clique
    graph (1, n-1, 1, 1)."""
    if n < 1:
        raise InputError(f"complete graph needs n >= 1, got {n}")
    return two_clique_reliability(TwoCliqueParams(1, n - 1, 1, 1)) if n > 1 else RatPoly.one()


def _rel_complete_contracted(n: int) -> RatPoly:
    """Rel(K_n / e): the merged vertex joins each of the other n-2 by two
    parallel edges, the two-clique graph (1, n-2, 1, 2)."""
    return two_clique_reliability(TwoCliqueParams(1, n - 2, 1, 2))


def rel_complete_minus_edge(n: int) -> RatPoly:
    """All-terminal reliability of K_n with one edge deleted (n >= 3).

    Deletion-contraction on that edge e, Rel(K_n) = q Rel(K_n - e) +
    (1-q) Rel(K_n / e), gives Rel(K_n - e) exactly; both reliabilities are
    1 at q = 0, so the division by q is a shift.  K_2 minus its edge is
    disconnected, so n = 2 is rejected.
    """
    if n < 3:
        raise InputError(f"complete graph minus an edge needs n >= 3, got {n}")
    rest = rel_complete(n) - RatPoly([1, -1]) * _rel_complete_contracted(n)
    return RatPoly(rest.coeffs[1:])


def sprel_complete_minus_edge(n: int) -> RatPoly:
    """Split reliability of K_n minus an edge between the two nonadjacent vertices.

    spRel(H; u, v) = Rel(H/uv) - Rel(H), and merging the nonadjacent pair
    of K_n - e gives K_n / e.
    """
    if n < 3:
        raise InputError(f"split reliability of K_n minus an edge needs n >= 3, got {n}")
    return _rel_complete_contracted(n) - rel_complete_minus_edge(n)
