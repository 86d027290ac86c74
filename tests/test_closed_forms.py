from fractions import Fraction

import pytest

from conftest import complete_graph, complete_minus_edge_graph
from relroots import (InputError, RatPoly, SplitSpec, TwoCliqueParams,
                      f_to_h, f_vector, rel_bruteforce, rel_complete,
                      rel_complete_minus_edge, sprel,
                      sprel_complete_minus_edge, two_clique_graph,
                      two_clique_reliability)
from relroots.reliability import rel_auto

ONE_MINUS_Q = RatPoly([1, -1])


def test_rel_complete_base_and_small():
    assert rel_complete(1) == RatPoly.one()
    assert rel_complete(2) == RatPoly([1, -1])
    assert rel_complete(3) == rel_bruteforce(complete_graph(3))
    assert rel_complete(4) == rel_bruteforce(complete_graph(4))
    assert rel_complete(5) == rel_bruteforce(complete_graph(5))
    with pytest.raises(InputError):
        rel_complete(0)


def test_rel_complete_minus_edge():
    assert rel_complete_minus_edge(3) == ONE_MINUS_Q ** 2
    assert rel_complete_minus_edge(4) == ONE_MINUS_Q ** 3 * RatPoly([1, 3, 4])
    assert rel_complete_minus_edge(5) == rel_bruteforce(complete_minus_edge_graph(5))
    for n in (1, 2):
        with pytest.raises(InputError):
            rel_complete_minus_edge(n)


def test_sprel_complete_minus_edge():
    assert sprel_complete_minus_edge(3) == RatPoly([0, 2, -2])  # 2q(1-q)
    assert sprel_complete_minus_edge(4) == \
        RatPoly([0, 0, 2]) * RatPoly([1, 3]) * ONE_MINUS_Q ** 2
    assert sprel_complete_minus_edge(5) == \
        sprel(complete_minus_edge_graph(5), SplitSpec.of((0, 1)))
    with pytest.raises(InputError):
        sprel_complete_minus_edge(2)


def test_two_clique_graph_shapes():
    g = two_clique_graph(TwoCliqueParams(3, 2, 1, 2))
    assert g.n == 5 and g.m == 16
    g = two_clique_graph(TwoCliqueParams(2, 2, 6, 1))
    assert g.n == 4 and g.m == 16
    assert two_clique_graph(TwoCliqueParams(1, 1, 1, 1)).edges == ((0, 1, 1),)


def test_two_clique_reliability_small():
    assert two_clique_reliability(TwoCliqueParams(1, 1, 1, 6)) == \
        RatPoly([1, 0, 0, 0, 0, 0, -1])
    p = TwoCliqueParams(2, 2, 6, 1)
    assert two_clique_reliability(p) == rel_bruteforce(two_clique_graph(p))
    p = TwoCliqueParams(3, 2, 1, 2)
    assert two_clique_reliability(p) == rel_bruteforce(two_clique_graph(p))


def test_two_clique_reliability_matches_complete_graphs():
    # with a = b the family degenerates to bundled complete graphs
    for n in (3, 4):
        p = TwoCliqueParams(n, 1, 1, 1)
        assert two_clique_reliability(p) == rel_complete(n + 1)


def test_two_clique_reliability_endpoints_and_degree():
    for params in (TwoCliqueParams(3, 3, 1, 6), TwoCliqueParams(4, 2, 2, 3)):
        rel = two_clique_reliability(params)
        assert rel.degree == params.edge_count
        assert rel(0) == 1 and rel(1) == 0


def test_two_clique_reliability_against_deletion_contraction():
    p = TwoCliqueParams(3, 2, 1, 2)
    assert two_clique_reliability(p) == rel_auto(two_clique_graph(p))


def test_two_clique_h_ratio_for_complete_graphs():
    # H_{m-n}/H_{m-n+1} of K_n, transform route
    for n in range(3, 7):
        h = f_to_h(f_vector(complete_graph(n))).values
        assert Fraction(h[-2], h[-1]) == Fraction(n - 2, 2)


def test_params_validation():
    with pytest.raises(InputError):
        TwoCliqueParams(0, 1, 1, 1)
    with pytest.raises(InputError):
        TwoCliqueParams(1, 1, 1, 0)
