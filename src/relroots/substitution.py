"""Gadget edge substitution.

Replacing every edge of a base graph by a copy of a two-terminal gadget
composes reliabilities: each gadget copy is either fully connected
(an operational base edge) or split between its terminals (a failed one),
so Rel of the substituted graph is the base's Rel, homogenized, evaluated
at the {u,v}-split reliability spRel(H) and Rel(H).  Every gadget
polynomial comes from deletion-contraction, spRel(H) through the
contraction identity spRel(H; u, v) = Rel(H/uv) - Rel(H).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .closed_forms import TwoCliqueParams, two_clique_graph
from .errors import InputError, NumericalError
from .multigraph import Multigraph, is_connected
from .polynomials import QComplex, RatPoly, compose_homogeneous


@dataclass(frozen=True)
class Gadget:
    """A connected graph with two distinct marked terminals."""

    graph: Multigraph
    u: int
    v: int

    def __post_init__(self):
        if self.graph.n < 2:
            raise InputError("gadget needs at least two vertices")
        if self.u == self.v:
            raise InputError("gadget terminals must be distinct")
        for t in (self.u, self.v):
            if not (0 <= t < self.graph.n):
                raise InputError(f"gadget terminal {t} outside 0..{self.graph.n - 1}")
        if not is_connected(self.graph):
            raise InputError("gadget must be connected")


def bundle_gadget(k: int) -> Gadget:
    """Two terminals joined by k parallel edges."""
    return Gadget(graph=Multigraph.from_edges(2, [(0, 1, k)]), u=0, v=1)


def complete_minus_edge_gadget(n: int) -> Gadget:
    """K_n with the edge between the two terminals deleted (terminals nonadjacent)."""
    if n < 3:
        raise InputError("complete-minus-edge gadget needs n >= 3")
    edges = [(i, j, 1) for i in range(n) for j in range(i + 1, n) if (i, j) != (0, 1)]
    return Gadget(graph=Multigraph.from_edges(n, edges), u=0, v=1)


def substitute_edges(g: Multigraph, gadget: Gadget,
                     flip: tuple[bool, ...] | None = None) -> Multigraph:
    """Replace each of the m edges of g by its own copy of the gadget.

    Bundles are expanded first, so an edge of multiplicity k receives k
    copies.  Identification is oriented lexicographically (smaller endpoint
    to u); ``flip`` reverses individual copies, which never changes the
    reliability and exists for the orientation-independence tests.
    """
    if not is_connected(g):
        raise InputError("edge substitution needs a connected base graph")
    unit_edges: list[tuple[int, int]] = []
    for a, b, mult in g.edges:
        unit_edges.extend([(a, b)] * mult)
    if flip is not None and len(flip) != len(unit_edges):
        raise InputError("flip mask must have one entry per expanded edge")

    h = gadget.graph
    internal = [w for w in range(h.n) if w not in (gadget.u, gadget.v)]
    next_label = g.n
    out_edges: list[tuple[int, int, int]] = []
    for idx, (a, b) in enumerate(unit_edges):
        if flip is not None and flip[idx]:
            a, b = b, a
        mapping = {gadget.u: a, gadget.v: b}
        for w in internal:
            mapping[w] = next_label
            next_label += 1
        for x, y, mult in h.edges:
            out_edges.append((mapping[x], mapping[y], mult))
    return Multigraph.from_edges(next_label, out_edges)


def _terminal_reliabilities(gadget: Gadget) -> tuple[RatPoly, RatPoly]:
    """(spRel(H; u, v), Rel(H/uv)) by deletion-contraction.

    H/uv is connected exactly when H is connected or splits into a u-part
    and a v-part, so spRel(H; u, v) = Rel(H/uv) - Rel(H).
    """
    from .reliability import contract, rel_auto

    h = gadget.graph
    rel_contracted = rel_auto(Multigraph(*contract(h.n, h.edges, gadget.u, gadget.v)))
    return rel_contracted - rel_auto(h), rel_contracted


def substituted_reliability(g: Multigraph, gadget: Gadget) -> RatPoly:
    """Rel of the substituted graph from the composition formula.

    sum_i F_i(G) Rel(H)^(m-i) spRel(H)^i, where i counts split gadgets.
    Homogenized, Rel(G) = sum_j a_j x^j (x+y)^(m-j) = sum_i F_i x^i y^(m-i)
    with x = q, y = 1-q; putting x = spRel(H) and y = Rel(H), whose sum is
    Rel(H/uv), gives sum_j a_j spRel(H)^j Rel(H/uv)^(m-j).
    """
    from .reliability import rel_auto

    a, sp_h, rel_contracted = ([c.numerator for c in p.coeffs]
                               for p in (rel_auto(g), *_terminal_reliabilities(gadget)))
    return RatPoly(compose_homogeneous(a, g.m, sp_h, rel_contracted))


def substituted_root_poly(r, gadget: Gadget) -> list[QComplex]:
    """The polynomial spRel(H;q) - (r/(1-r)) Rel(H;q) for a base root r.

    Its solutions are reliability roots of the substituted graph except
    where Rel(H) itself vanishes; filtering against the gadget's own roots
    is left to the caller.  r = 1 is the pole of the transform and is
    rejected.
    """
    r = QComplex.of(r)
    if r.re == 1 and r.im == 0:
        raise InputError("base root r = 1 has no F-polynomial image")
    ratio = r / (QComplex.of(1) - r)
    sp_h, rel_contracted = _terminal_reliabilities(gadget)
    rel_h = rel_contracted - sp_h
    d = max(rel_h.degree, sp_h.degree)
    out = []
    for i in range(d + 1):
        s = sp_h.coeffs[i] if i <= sp_h.degree else Fraction(0)
        rl = rel_h.coeffs[i] if i <= rel_h.degree else Fraction(0)
        out.append(QComplex.of(s) - ratio * QComplex.of(rl))
    return out


def substituted_two_clique_graph(k: int, n: int) -> Multigraph:
    """The simple high-edge-connectivity examples: bundle the 6-vertex
    two-clique base by k, then substitute K_n minus an edge for every edge.

    The result is simple because the substituted gadget keeps its terminals
    nonadjacent.  For 2-edge-connected bases its edge connectivity is n-1;
    ``edge_connectivity`` proves it with a handful of max-flows, because the
    6 base vertices dominate every gadget vertex, and the certificate of
    ``relroots certify`` reports it.
    """
    if not 3 <= n <= 6:
        raise InputError(f"gadget order must be in 3..6, got {n}")
    if k < 1:
        raise InputError(f"bundle factor must be >= 1, got {k}")
    base = two_clique_graph(TwoCliqueParams(m=3, n=3, a=k, b=6 * k))
    result = substitute_edges(base, complete_minus_edge_gadget(n))
    if not result.is_simple():
        raise NumericalError("substituted graph unexpectedly has parallel edges")
    return result
