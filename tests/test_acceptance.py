"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
stream; tolerances are pinned here.
"""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from conftest import (complete_graph, complete_minus_edge_graph, oracle_rel,
                      random_2connected_multigraph,
                      random_connected_multigraph)
from relroots import (Gadget, Multigraph, QComplex, RatPoly, SplitSpec,
                      SchurCohnHypothesisError, TwoCliqueParams,
                      bundle_gadget, check_modulus_bound,
                      complete_minus_edge_gadget, edge_connectivity, f_to_h,
                      f_vector, find_roots, h_vector_chip, max_modulus_root,
                      rel_auto, rel_bruteforce, rel_complete_minus_edge,
                      rel_via_blocks,
                      reliability_root_set, schur_cohn, spanning_tree_count,
                      sprel, sprel_complete_minus_edge, substitute_edges,
                      substituted_reliability, substituted_two_clique_graph,
                      two_clique_reliability)
from relroots.stability import (BASE_ROOT_BOX, ParamBox, certificate_pencil,
                                kth_root_ratio_box, schur_cohn_box)
from relroots.cli import TABLE1_REFERENCE

# Published enclosures of z/(1-z) at the 9th and 7th principal roots of the
# base root R, the root of Rel(3,3,1,6) inside BASE_ROOT_BOX.
PUBLISHED_BOX_K9 = ParamBox.of(Fraction(-101749, 100000), Fraction(-101731, 100000),
                               Fraction(1070762, 100000), Fraction(1070814, 100000))
PUBLISHED_BOX_K7 = ParamBox.of(Fraction(-90269, 100000), Fraction(-90254, 100000),
                               Fraction(832420, 100000), Fraction(832462, 100000))


def _report(num: int, text: str, ok: bool) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(0xC0FFEE)
    return [random_connected_multigraph(rng, max_m=14, max_n=7) for _ in range(200)]


def test_criterion_01_table1_rows():
    tol = 1e-8
    worst = 0.0
    for n in range(3, 7):
        rel = two_clique_reliability(TwoCliqueParams(n, n, 1, 6))
        z = max_modulus_root(reliability_root_set(rel, 256))
        ref_re, ref_im, ref_mod = (float(s) for s in TABLE1_REFERENCE[n])
        worst = max(worst, abs(float(z.real) - ref_re), abs(float(z.imag) - ref_im),
                    abs(float(abs(z)) - ref_mod))
    _report(1, f"max-modulus roots of the (n,n,1,6) family, n=3..6, "
               f"worst component error {worst:.2e} <= {tol}", worst <= tol)


def transported_box(k):
    """BASE_ROOT_BOX carried to the parameter box of the k-th root."""
    return kth_root_ratio_box(BASE_ROOT_BOX.a_lo, BASE_ROOT_BOX.a_hi,
                              BASE_ROOT_BOX.b_lo, BASE_ROOT_BOX.b_hi, k)


def test_criterion_02_degree_one_certificate():
    pen = certificate_pencil(3)
    rep = schur_cohn_box(pen.box_poly(PUBLISHED_BOX_K9))
    derived = schur_cohn_box(pen.box_poly(transported_box(9)))
    symbolic_ok = True
    # M_1 and 4a+4 are both affine in (a, b); agreement on three points in
    # general position proves the identity.
    for a, b in ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(5)),
                 (Fraction(-2), Fraction(3))):
        coeffs = pen.exact_poly(a, b)
        if coeffs[1].abs2() - coeffs[0].abs2() != 4 * a + 4:
            symbolic_ok = False
    ok = (rep.signs == derived.signs == ("-",) and rep.beta == derived.beta == 1
          and symbolic_ok)
    _report(2, f"gadget-order-3 certificate over the published and the transported box: "
               f"signs={rep.signs}, beta={rep.beta}, M_1 = 4a+4 verified", ok)


def test_criterion_03_degree_three_certificate():
    pen = certificate_pencil(4)
    rep = schur_cohn_box(pen.box_poly(PUBLISHED_BOX_K7))
    derived = schur_cohn_box(pen.box_poly(transported_box(7)))
    ok = rep.signs == derived.signs == ("+", "+", "-") and rep.beta == derived.beta == 1
    _report(3, f"gadget-order-4 certificate over the published and the transported box: "
               f"signs={rep.signs}, beta={rep.beta}, subdivision depths "
               f"{rep.subdivision_depth} and {derived.subdivision_depth}", ok)


def test_criterion_04_higher_order_certificates():
    box = transported_box(6)
    results = []
    for n in (5, 6):
        rep = schur_cohn_box(certificate_pencil(n).box_poly(box))
        results.append((n, rep.signs, rep.beta))
        assert rep.determinate and rep.beta is not None
    ok = all(beta >= 1 for _, _, beta in results)
    _report(4, "gadget-order-5/6 certificates from the derived parameter box: "
               + "; ".join(f"n={n} beta={beta} signs={''.join(s)}"
                           for n, s, beta in results), ok)


def test_criterion_05_constructions():
    expected = {(9, 3): (546, 1080, 2), (7, 4): (846, 2100, 3),
                (6, 5): (1086, 3240, 4), (6, 6): (1446, 5040, 5)}
    ok = True
    details = []
    for (k, n), (ev, ee, lam_expect) in expected.items():
        g = substituted_two_clique_graph(k, n)
        # max-flows from one base vertex to the other five, each capped at n
        lam = edge_connectivity(g, upper_bound=n)
        good = (g.n, g.m) == (ev, ee) and g.is_simple() and lam == lam_expect
        ok = ok and good
        details.append(f"({k},{n})->({g.n},{g.m},lam={lam})")
    _report(5, "substituted constructions " + ", ".join(details)
               + " all simple with expected sizes and connectivity", ok)


def test_criterion_06_closed_form_identities():
    one_minus_q = RatPoly([1, -1])
    q = RatPoly([0, 1])
    ok = (rel_complete_minus_edge(3) == one_minus_q ** 2
          and sprel_complete_minus_edge(3) == RatPoly([0, 2]) * one_minus_q
          and sprel(complete_graph(4), SplitSpec.of((0, 1)))
          == (RatPoly([8]) * one_minus_q ** 2 * q ** 4
              + RatPoly([2]) * one_minus_q ** 3 * q ** 3))
    _report(6, "closed forms for the 3-vertex gadget and the K_4 split states, exact", ok)


def test_criterion_07_oracle_equivalence(corpus):
    for i, g in enumerate(corpus):
        bf = rel_bruteforce(g)
        assert bf == rel_auto(g), f"graph {i}"
        assert bf == rel_via_blocks(g), f"graph {i}"
        h_ref = f_to_h(f_vector(g))
        for w in range(g.n):
            assert h_vector_chip(g, w) == h_ref, f"graph {i} sink {w}"
    _report(7, f"{len(corpus)} random multigraphs: brute force, deletion-contraction "
               "and block product agree exactly; chip-firing H matches for every sink", True)


def test_criterion_08_h_vector_laws(corpus):
    for i, g in enumerate(corpus):
        h = f_to_h(f_vector(g))
        assert h.is_strictly_positive(), f"graph {i}"
        assert h.is_log_concave(), f"graph {i}"
        assert h.total() == spanning_tree_count(g), f"graph {i}"
    for n in range(3, 9):
        kn = complete_graph(n)
        if n <= 6:
            h = f_to_h(f_vector(kn))
        else:
            h = h_vector_chip(kn, 0)
        assert Fraction(h.values[-2], h.values[-1]) == Fraction(n - 2, 2), n
    _report(8, f"H positivity, log-concavity and H(1)=tree-count on {len(corpus)} graphs; "
               "top-ratio (n-2)/2 for complete graphs n=3..8", True)


def test_criterion_09_modulus_bounds():
    rng = random.Random(0xBEEF)
    count = 0
    while count < 100:
        g = random_2connected_multigraph(rng, max_m=14, max_n=8)
        rep = check_modulus_bound(g, precision_bits=128)
        assert rep.roots_within_bound, (g.edges, rep.max_modulus, rep.bound)
        assert rep.ratio_within_bound, (g.edges, rep.ratio, rep.bound)
        count += 1
    _report(9, f"{count} random 2-connected graphs: no root disk beyond the order bound, "
               "and the coefficient-ratio bound exact", True)


def test_criterion_10_substitution_soundness():
    rng = random.Random(0xFACADE)
    gadget_pool = [
        Gadget(graph=Multigraph.from_edges(3, [(0, 1, 1), (1, 2, 1)]), u=0, v=2),
        Gadget(graph=Multigraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]), u=0, v=1),
        complete_minus_edge_gadget(3),
        bundle_gadget(2),
        bundle_gadget(3),
        Gadget(graph=Multigraph.from_edges(3, [(0, 1, 2), (1, 2, 1)]), u=0, v=2),
    ]
    checked = 0
    while checked < 50:
        g = random_connected_multigraph(rng, max_m=4, max_n=4)
        gadget = rng.choice(gadget_pool)
        if g.m * gadget.graph.m > 14:
            continue
        sub = substitute_edges(g, gadget)
        assert substituted_reliability(g, gadget) == oracle_rel(sub), (g.edges, gadget)
        checked += 1
    bundle_ok = 0
    for _ in range(10):
        g = random_connected_multigraph(rng, max_m=7, max_n=5)
        k = rng.choice((2, 3))
        assert substituted_reliability(g, bundle_gadget(k)) == \
            rel_bruteforce(g).substitute_power(k)
        bundle_ok += 1
    _report(10, f"composition formula equals brute force on {checked} random pairs; "
                f"bundle case equals power substitution on {bundle_ok}", True)


def test_criterion_11_unit_disk_negatives():
    ok = True
    details = []
    for n in range(3, 7):
        rel = rel_complete_minus_edge(n)
        h, k = rel.deflate_unit_roots()
        assert k == n - 1
        if h.degree >= 1:
            rs = find_roots(h, 192)
            top = max(float(m) for m in rs.moduli())
        else:
            top = 0.0
        details.append(f"n={n}:{top:.6f}")
        ok = ok and top < 1.0
    for params in (TwoCliqueParams(1, 1, 1, 6), TwoCliqueParams(2, 2, 1, 6)):
        rs = reliability_root_set(two_clique_reliability(params), 192)
        top = max(float(m) for m in rs.moduli())
        ok = ok and top <= 1.0 + 1e-9
        details.append(f"({params.m},{params.n}):{top:.6f}")
    _report(11, "gadget and small-family roots stay inside the unit disk "
                "(deflated factors strictly): " + " ".join(details), ok)


def test_criterion_12_root_count_agreement():
    rng = random.Random(0xDECADE)
    done = 0
    while done < 200:
        deg = rng.randint(1, 8)
        coeffs = [QComplex(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                           Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                  for _ in range(deg + 1)]
        if coeffs[-1].is_zero() or coeffs[0].is_zero():
            continue
        rs = find_roots(coeffs, 128)
        if any(abs(abs(z) - 1) < 1e-6 for z in rs.roots):
            continue
        try:
            rep = schur_cohn(coeffs)
        except SchurCohnHypothesisError:
            continue
        assert rep.beta == sum(1 for z in rs.roots if abs(z) > 1), coeffs
        done += 1
    _report(12, f"determinant root counts match the solver on {done} "
                "circle-avoiding polynomials, exactly", True)
