import random
from fractions import Fraction

import pytest

from conftest import (complete_graph, oracle_rel, oracle_sprel,
                      random_connected_multigraph)
from relroots import (DisconnectedGraphError, Gadget, GuardExceededError,
                      Multigraph, RatPoly, SplitSpec, f_from_rel, f_to_h,
                      f_vector, rel_auto, rel_bruteforce, rel_complete,
                      rel_via_blocks,
                      spanning_tree_count, sprel, substitute_edges,
                      substituted_reliability, substituted_root_poly)
from relroots import reliability
from relroots.errors import InputError


def test_f_vector_known_values():
    assert f_vector(complete_graph(3)).values == (1, 3)
    assert f_vector(complete_graph(4)).values == (1, 6, 15, 16)
    b6 = Multigraph.from_edges(2, [(0, 1, 6)])
    assert f_vector(b6).values == (1, 6, 15, 20, 15, 6)


def test_f_vector_top_is_tree_count():
    rng = random.Random(2)
    for _ in range(20):
        g = random_connected_multigraph(rng)
        f = f_vector(g)
        assert f.values[-1] == spanning_tree_count(g)
        assert f.check_binomial_bound()


def test_f_vector_guard_and_errors():
    with pytest.raises(DisconnectedGraphError):
        f_vector(Multigraph.from_edges(3, [(0, 1, 1)]))
    big = complete_graph(8)  # 28 pairs
    with pytest.raises(GuardExceededError):
        f_vector(big, guard_pairs=24)


def test_rel_bruteforce_known_values():
    assert rel_bruteforce(Multigraph.from_edges(2, [(0, 1, 1)])) == RatPoly([1, -1])
    assert rel_bruteforce(complete_graph(3)) == RatPoly([1, 0, -3, 2])
    # a tree keeps all edges
    star = Multigraph.from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    assert rel_bruteforce(star) == RatPoly([1, -1]) ** 3


def test_bruteforce_matches_independent_oracle():
    rng = random.Random(8)
    for _ in range(25):
        g = random_connected_multigraph(rng, max_m=10, max_n=5)
        assert rel_bruteforce(g) == oracle_rel(g)


def test_deletion_contraction_agrees():
    assert rel_auto(complete_graph(3)) == RatPoly([1, 0, -3, 2])
    assert rel_auto(complete_graph(4)) == rel_bruteforce(complete_graph(4))
    p3 = Multigraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
    assert rel_auto(p3) == RatPoly([1, -1]) ** 2


def test_deletion_contraction_budget():
    with pytest.raises(GuardExceededError):
        rel_auto(complete_graph(6), max_expansions=3)


def test_rel_via_blocks():
    g = Multigraph.from_edges(5, [(0, 1, 1), (1, 2, 1), (0, 2, 1),
                                  (2, 3, 1), (3, 4, 1), (2, 4, 1)])
    assert rel_via_blocks(g) == RatPoly([1, 0, -3, 2]) ** 2
    assert rel_via_blocks(g) == rel_bruteforce(g)
    p3 = Multigraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
    assert rel_via_blocks(p3) == RatPoly([1, -1]) ** 2
    k4 = complete_graph(4)
    assert rel_via_blocks(k4) == rel_bruteforce(k4)


def test_three_routes_agree_randomized():
    rng = random.Random(4)
    for _ in range(40):
        g = random_connected_multigraph(rng)
        bf = rel_bruteforce(g)
        assert bf == rel_auto(g)
        assert bf == rel_via_blocks(g)


def test_sprel_known_values():
    # all ten operational split states of K_4 by hand: 8 with two live edges,
    # 2 with three
    k4 = complete_graph(4)
    expected = (RatPoly([0, 0, 0, 0, 8]) * RatPoly([1, -1]) ** 2
                + RatPoly([0, 0, 0, 2]) * RatPoly([1, -1]) ** 3)
    assert sprel(k4, SplitSpec.of((0, 1))) == expected

    bk = Multigraph.from_edges(2, [(0, 1, 4)])
    assert sprel(bk, SplitSpec.of((0, 1))) == RatPoly([0, 0, 0, 0, 1])

    two_triangles = Multigraph.from_edges(
        6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    assert sprel(two_triangles, SplitSpec.of((0, 3))) == rel_complete(3) ** 2


def test_sprel_matches_oracle_and_collapses():
    rng = random.Random(12)
    for _ in range(15):
        g = random_connected_multigraph(rng, max_m=10, max_n=5)
        u = rng.randrange(g.n)
        v = (u + 1 + rng.randrange(g.n - 1)) % g.n if g.n > 1 else u
        if u == v:
            continue
        assert sprel(g, SplitSpec.of((u, v))) == oracle_sprel(g, (u, v))
        assert sprel(g, SplitSpec.of((u,))) == rel_bruteforce(g)


def test_sprel_validation():
    k3 = complete_graph(3)
    with pytest.raises(InputError):
        SplitSpec.of(())
    with pytest.raises(InputError):
        SplitSpec.of((0, 0))
    with pytest.raises(InputError):
        sprel(k3, SplitSpec.of((5,)))


def test_bundle_rel_plus_sprel_is_one():
    for k in range(1, 7):
        b = Multigraph.from_edges(2, [(0, 1, k)])
        assert rel_bruteforce(b) + sprel(b, SplitSpec.of((0, 1))) == RatPoly.one()


def test_rel_auto_never_enumerates(monkeypatch):
    # Subset enumeration is an oracle only, even for a 6-pair graph; the
    # transforms and the substitution formula run on deletion-contraction.
    g = Multigraph.from_edges(4, [(0, 1, 2), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 3), (2, 3, 1)])
    expected = oracle_rel(g)
    expected_h = f_to_h(f_vector(g))
    # terminals joined by a 2-bundle: the contraction drops it as a loop
    gadget = Gadget(graph=Multigraph.from_edges(3, [(0, 1, 2), (0, 2, 1), (1, 2, 1)]), u=0, v=1)
    base = complete_graph(3)
    expected_sub = oracle_rel(substitute_edges(base, gadget))
    expected_pencil = oracle_sprel(gadget.graph, (0, 1)) - oracle_rel(gadget.graph)

    def refuse(*args, **kwargs):
        raise AssertionError("rel_auto enumerated edge subsets")

    monkeypatch.setattr(reliability, "_split_failure_counts", refuse)
    assert rel_auto(g) == expected
    assert f_to_h(f_from_rel(rel_auto(g), g.n)) == expected_h
    assert substituted_reliability(base, gadget) == expected_sub
    # r = 1/2 makes r/(1-r) = 1, so the pencil is spRel - Rel
    pencil = substituted_root_poly(Fraction(1, 2), gadget)
    assert all(c.im == 0 for c in pencil)
    assert RatPoly([c.re for c in pencil]) == expected_pencil
