import random
from itertools import product
from math import comb

import pytest

from conftest import complete_graph, random_connected_multigraph
from relroots import (FVector, GuardExceededError, InputError, Multigraph,
                      critical_configs, f_from_rel, f_to_h, f_vector, h_vector_chip,
                      ideal_check, monomials_of, recurrent_by_firing_search,
                      rel_auto, rel_from_f, spanning_tree_count)
from relroots import chip_firing
from relroots.chip_firing import Configuration


def test_critical_counts_tiny():
    k2 = Multigraph.from_edges(2, [(0, 1, 1)])
    assert len(critical_configs(k2, 0)) == 1

    k3 = complete_graph(3)
    configs = critical_configs(k3, 0)
    assert len(configs) == 3
    mono = monomials_of(configs, k3)
    assert sorted(m.degree for m in mono) == [0, 1, 1]

    b2 = Multigraph.from_edges(2, [(0, 1, 2)])
    assert len(critical_configs(b2, 0)) == 2


def test_h_vector_chip_known_values():
    assert h_vector_chip(complete_graph(3), 0).values == (1, 2)
    assert h_vector_chip(complete_graph(4), 0).values == (1, 3, 6, 6)
    star = Multigraph.from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    assert h_vector_chip(star, 2).values == (1,)


def test_h_vector_chip_sink_independent():
    rng = random.Random(6)
    for _ in range(20):
        g = random_connected_multigraph(rng, max_m=12, max_n=6)
        ref = h_vector_chip(g, 0)
        for w in range(1, g.n):
            assert h_vector_chip(g, w) == ref


def test_h_vector_chip_matches_transform():
    rng = random.Random(7)
    for _ in range(25):
        g = random_connected_multigraph(rng)
        assert h_vector_chip(g, 0) == f_to_h(f_vector(g))


# K5 with multiplicities 4..6 (every degree 20) has 20^4 = 160000 stable
# configurations at sink 0: more than one scan chunk, ending in a partial one.
K5_MULTI = Multigraph.from_edges(5, [(u, v, 4 + (u + v) % 3) for u in range(5)
                                     for v in range(u + 1, 5)])
# Vertex 1 has degree 130, so its chip count reaches 259 during a burn.
DEGREE_130 = Multigraph.from_edges(3, [(0, 1, 100), (1, 2, 30), (0, 2, 2)])
BUNDLE_3000 = Multigraph.from_edges(2, [(0, 1, 3000)])


def test_h_vector_chip_spans_several_chunks():
    states = 1
    for d in K5_MULTI.degrees()[1:]:
        states *= d
    assert states > chip_firing._CHUNK_STATES and states % chip_firing._CHUNK_STATES
    assert h_vector_chip(K5_MULTI, 0) == f_to_h(f_vector(K5_MULTI))


@pytest.mark.parametrize("g, expected_h", [
    (K5_MULTI, f_to_h(f_vector(K5_MULTI)).values),
    (DEGREE_130, f_to_h(f_vector(DEGREE_130)).values),
    (BUNDLE_3000, (1,) * 3000),
], ids=["K5-multi", "degree-130", "bundle-3000"])
def test_chunking_does_not_change_results(g, expected_h, monkeypatch):
    # One state per chunk, a chunk size that divides no degree product, and
    # the default: the same configurations in the same order, the same H.
    results = []
    for size in (1, 7, chip_firing._CHUNK_STATES):
        monkeypatch.setattr(chip_firing, "_CHUNK_STATES", size)
        results.append((critical_configs(g, 0), h_vector_chip(g, 0)))
    assert results[0] == results[1] == results[2]
    assert results[0][1].values == expected_h


def test_transforms_at_large_degree():
    # The 1,000-edge bundle's H through F and both transforms: all ones.
    bundle = Multigraph.from_edges(2, [(0, 1, 1000)])
    assert f_to_h(f_from_rel(rel_auto(bundle), 2)).values == (1,) * 1000
    # A triangle of bundles a, b, c loses connectivity exactly when two
    # bundles are removed whole, so F_i = C(m, i) - sum_pairs C(m-p, i-p)
    # for i <= m-2; rel_from_f and f_from_rel round-trip it at degree 499.
    a, b, c = 200, 150, 149
    m = a + b + c
    triangle = Multigraph.from_edges(3, [(0, 1, a), (1, 2, b), (0, 2, c)])
    pairs = (a + b, b + c, a + c)
    f = FVector(values=tuple(comb(m, i) - sum(comb(m - p, i - p) for p in pairs if p <= i)
                             for i in range(m - 1)), n=3, m=m)
    rel = rel_from_f(f)
    assert rel == rel_auto(triangle)
    assert f_from_rel(rel, 3) == f
    assert f_to_h(f).total() == spanning_tree_count(triangle) == a * b + b * c + a * c


def test_h_vector_counts_spanning_trees():
    rng = random.Random(14)
    for _ in range(10):
        g = random_connected_multigraph(rng, max_m=12, max_n=6)
        assert h_vector_chip(g, 0).total() == spanning_tree_count(g)


def test_chip_validation():
    k3 = complete_graph(3)
    with pytest.raises(InputError):
        critical_configs(k3, 7)
    with pytest.raises(InputError):
        h_vector_chip(Multigraph.from_edges(3, [(0, 1, 1)]), 0)
    with pytest.raises(GuardExceededError):
        h_vector_chip(complete_graph(6), 0, state_guard=10)


def test_burning_matches_firing_sequence_definition():
    # Every stable configuration on graphs with m <= 8, both tests, all sinks.
    graphs = [
        Multigraph.from_edges(2, [(0, 1, 1)]),
        Multigraph.from_edges(2, [(0, 1, 3)]),
        complete_graph(3),
        Multigraph.from_edges(3, [(0, 1, 2), (1, 2, 1), (0, 2, 1)]),
        Multigraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]),
        complete_graph(4),
        Multigraph.from_edges(4, [(0, 1, 2), (1, 2, 2), (2, 3, 2), (0, 3, 2)]),
    ]
    # critical_configs also keeps the itertools.product order of the scan.
    for g in graphs:
        degrees = g.degrees()
        for w in range(g.n):
            expected = []
            others = [v for v in range(g.n) if v != w]
            for values in product(*(range(degrees[v]) for v in others)):
                theta = [0] * g.n
                for v, val in zip(others, values):
                    theta[v] = val
                theta[w] = -sum(values)
                cfg = Configuration(theta=tuple(theta), sink=w)
                if recurrent_by_firing_search(g, cfg):
                    expected.append(cfg)
            assert critical_configs(g, w) == expected


def test_ideal_check_small_graphs():
    for g, expect_top in ((complete_graph(3), 1), (complete_graph(4), 3)):
        mono = monomials_of(critical_configs(g, 0), g)
        report = ideal_check(mono, g)
        assert report.ok
        assert report.top_degree == expect_top
        assert report.max_support <= g.n - 2

    tree = Multigraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
    mono = monomials_of(critical_configs(tree, 0), tree)
    report = ideal_check(mono, tree)
    assert report.ok and report.top_degree == 0


def test_ideal_check_randomized():
    rng = random.Random(3)
    for _ in range(15):
        g = random_connected_multigraph(rng, max_m=10, max_n=5)
        mono = monomials_of(critical_configs(g, 0), g)
        assert ideal_check(mono, g).ok


def test_pair_counting_bounds():
    rng = random.Random(16)
    for _ in range(20):
        g = random_connected_multigraph(rng)
        if g.n < 2 or g.m < g.n:
            continue
        h = h_vector_chip(g, 0).values
        assert h[-2] <= (g.n - 1) * h[-1]
        simple_vertex = any(
            all(mult == 1 for a, b, mult in g.edges if v in (a, b))
            for v in range(g.n))
        if g.n >= 3 and simple_vertex:
            assert h[-2] <= (g.n - 2) * h[-1]
