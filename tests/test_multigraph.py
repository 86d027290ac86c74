import json
import random

import pytest

from conftest import complete_graph, oracle_spanning_trees, random_connected_multigraph
from relroots import (DisconnectedGraphError, InputError, Multigraph, blocks,
                      bundle_replace, edge_connectivity, is_connected, multigraph,
                      parse_graph, spanning_tree_count, substituted_two_clique_graph)


def test_parse_basic():
    g = parse_graph('{"n":2,"edges":[[0,1,6]]}')
    assert g.n == 2 and g.m == 6 and g.edges == ((0, 1, 6),)

    k3 = parse_graph('{"n":3,"edges":[[0,1,1],[1,2,1],[0,2,1]]}')
    assert k3.m == 3 and k3.pair_count == 3


def test_parse_merges_and_orders_pairs():
    g = parse_graph('{"n":3,"edges":[[2,0,1],[0,2,2],[1,0,1]]}')
    assert g.edges == ((0, 1, 1), (0, 2, 3),)


def test_parse_rejects_loops():
    with pytest.raises(InputError):
        parse_graph('{"n":2,"edges":[[0,0,1]]}')


def test_parse_rejects_bad_ids_and_mults():
    with pytest.raises(InputError):
        parse_graph('{"n":2,"edges":[[0,2,1]]}')
    with pytest.raises(InputError):
        parse_graph('{"n":2,"edges":[[0,1,0]]}')
    with pytest.raises(InputError):
        parse_graph('{"n":2,"edges"')
    with pytest.raises(InputError):
        parse_graph('[1,2,3]')


@pytest.mark.parametrize("text", ['{"n": true, "edges": []}',
                                  '{"n": 2, "edges": [[false, 1, 1]]}',
                                  '{"n": 2, "edges": [[0, true]]}',
                                  '{"n": 2, "edges": [[0, 1, true]]}'])
def test_parse_rejects_booleans(text):
    # bool is an int subclass: JSON true would otherwise read as 1
    with pytest.raises(InputError):
        parse_graph(text)


def test_constructor_rejects_noncanonical_edges():
    bad = [
        (2, ((0, 0, 1),)),               # loop
        (2, ((0, 2, 1),)),               # vertex out of range
        (2, ((-1, 1, 1),)),              # negative vertex
        (2, ((0, 1, 0),)),               # zero multiplicity
        (2, ((1, 0, 1),)),               # u > v
        (3, ((0, 2, 1), (0, 1, 1))),     # unsorted pairs
        (3, ((0, 1, 1), (0, 1, 2))),     # repeated pair
        (-1, ()),                        # negative vertex count
    ]
    for n, edges in bad:
        with pytest.raises(InputError):
            Multigraph(n=n, edges=edges)
    assert Multigraph(n=3, edges=((0, 1, 2), (1, 2, 1))).m == 3


def test_json_round_trip():
    g = parse_graph('{"n":4,"edges":[[0,1,2],[1,2,1],[2,3,4]]}')
    assert parse_graph(g.to_json()) == g
    doc = json.loads(g.to_json())
    assert doc["n"] == 4


def test_is_connected():
    assert is_connected(complete_graph(3))
    assert not is_connected(Multigraph.from_edges(2, []))
    assert not is_connected(Multigraph.from_edges(3, [(0, 1, 1)]))
    assert is_connected(Multigraph.from_edges(1, []))
    with pytest.raises(InputError):
        is_connected(Multigraph.from_edges(0, []))


def test_blocks_single_block():
    bl = blocks(complete_graph(4))
    assert len(bl) == 1
    assert bl[0].graph.n == 4 and bl[0].graph.m == 6


def test_blocks_shared_vertex():
    g = Multigraph.from_edges(5, [(0, 1, 1), (1, 2, 1), (0, 2, 1),
                                  (2, 3, 1), (3, 4, 1), (2, 4, 1)])
    bl = blocks(g)
    assert sorted((b.graph.n, b.graph.m) for b in bl) == [(3, 3), (3, 3)]


def test_blocks_path_and_bridge_bundle():
    p3 = Multigraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
    bl = blocks(p3)
    assert sorted((b.graph.n, b.graph.m) for b in bl) == [(2, 1), (2, 1)]

    bridge_bundle = Multigraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 5)])
    bl = blocks(bridge_bundle)
    assert sorted((b.graph.n, b.graph.m) for b in bl) == [(2, 5), (3, 3)]


def test_blocks_partition_edges_and_vertex_counts():
    rng = random.Random(101)
    for _ in range(40):
        g = random_connected_multigraph(rng)
        bl = blocks(g)
        assert sum(b.graph.m for b in bl) == g.m
        assert sum(b.graph.n - 1 for b in bl) == g.n - 1
        # multiset of edges is preserved under the vertex mappings
        back = sorted(
            (min(b.vertices[u], b.vertices[v]), max(b.vertices[u], b.vertices[v]), mult)
            for b in bl for (u, v, mult) in b.graph.edges)
        assert back == sorted(g.edges)


def test_blocks_requires_connected():
    with pytest.raises(DisconnectedGraphError):
        blocks(Multigraph.from_edges(3, [(0, 1, 1)]))


def test_edge_connectivity_known_values():
    assert edge_connectivity(complete_graph(4)) == 3
    assert edge_connectivity(Multigraph.from_edges(2, [(0, 1, 6)])) == 6
    cycle = Multigraph.from_edges(5, [(i, (i + 1) % 5, 1) for i in range(5)])
    assert edge_connectivity(cycle) == 2
    with pytest.raises(InputError):
        edge_connectivity(Multigraph.from_edges(1, []))


def test_edge_connectivity_scales_with_bundles():
    rng = random.Random(55)
    for _ in range(10):
        g = random_connected_multigraph(rng, max_m=10, max_n=5)
        lam = edge_connectivity(g)
        for k in (2, 3):
            assert edge_connectivity(bundle_replace(g, k)) == k * lam


def _min_cut_oracle(g: Multigraph) -> int:
    """Smallest edge cut over every vertex subset holding vertex 0."""
    cuts = []
    for mask in range((1 << (g.n - 1)) - 1):
        shore = {0} | {i + 1 for i in range(g.n - 1) if mask >> i & 1}
        cuts.append(sum(mult for u, v, mult in g.edges if (u in shore) != (v in shore)))
    return min(cuts)


def _two_cluster_graph(rng: random.Random, mults: list[int]) -> Multigraph:
    # Dense clusters joined by few edges give cuts below the minimum degree.
    while True:
        n = rng.randint(2, 9)
        side = [rng.random() < 0.5 for _ in range(n)]
        p_in, p_out = rng.uniform(0.7, 1.0), rng.uniform(0.0, 0.25)
        edges = [(u, v, rng.choice(mults)) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < (p_in if side[u] == side[v] else p_out)]
        g = Multigraph.from_edges(n, edges)
        if is_connected(g):
            return g


@pytest.mark.parametrize("mults", [[1], [1, 1, 1, 2, 3]], ids=["simple", "multi"])
def test_edge_connectivity_against_cut_oracle(mults):
    rng = random.Random(505)
    below_min_degree = 0
    for _ in range(300):
        g = _two_cluster_graph(rng, mults)
        lam = _min_cut_oracle(g)
        below_min_degree += lam < min(g.degrees())
        assert edge_connectivity(g) == lam
        bound = rng.randint(0, lam + 2)
        assert edge_connectivity(g, upper_bound=bound) == min(lam, bound)
    assert below_min_degree >= 10


def test_edge_connectivity_bundle_endpoints_join_the_dominating_set():
    # Vertex 2 alone dominates this graph, but the cut around the 3-bundle
    # pair {8, 9} has two edges, below the minimum degree 4.
    k8 = [(i, j, 1) for i in range(8) for j in range(i + 1, 8)]
    g = Multigraph.from_edges(10, k8 + [(8, 9, 3), (2, 8, 1), (2, 9, 1)])
    assert edge_connectivity(g) == 2
    with pytest.raises(InputError):
        edge_connectivity(g, upper_bound=-1)


def test_edge_connectivity_flow_count(monkeypatch):
    # The dominating set is the 6 base vertices: 5 flows, not one per vertex.
    flows = []
    max_flow = multigraph._max_flow

    def counted(*args):
        flows.append(args)
        return max_flow(*args)

    monkeypatch.setattr(multigraph, "_max_flow", counted)
    assert edge_connectivity(substituted_two_clique_graph(6, 6)) == 5
    assert len(flows) <= 5


def test_spanning_tree_count_known_values():
    assert spanning_tree_count(complete_graph(3)) == 3
    assert spanning_tree_count(complete_graph(4)) == 16
    assert spanning_tree_count(Multigraph.from_edges(2, [(0, 1, 6)])) == 6


def test_spanning_tree_count_against_enumeration():
    rng = random.Random(9)
    for _ in range(15):
        g = random_connected_multigraph(rng, max_m=10, max_n=5)
        assert spanning_tree_count(g) == oracle_spanning_trees(g)


def test_spanning_tree_count_relabel_invariant():
    g = Multigraph.from_edges(4, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (0, 3, 1)])
    perm = [2, 0, 3, 1]
    h = Multigraph.from_edges(4, [(perm[u], perm[v], mult) for u, v, mult in g.edges])
    assert spanning_tree_count(g) == spanning_tree_count(h)


def test_bundle_replace():
    k3 = complete_graph(3)
    doubled = bundle_replace(k3, 2)
    assert all(mult == 2 for _, _, mult in doubled.edges)
    assert bundle_replace(k3, 1) == k3
    with pytest.raises(InputError):
        bundle_replace(k3, 0)
