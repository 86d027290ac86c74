import random
from collections import Counter
from fractions import Fraction

import pytest

from relroots import (InputError, QComplex, RatPoly, SchurCohnHypothesisError,
                      TwoCliqueParams, find_roots, two_clique_reliability)
from relroots import stability
from relroots.polynomials import bareiss_det
from relroots.fixed_point import polished_root_disk
from relroots.stability import (BASE_ROOT_BOX, ParamBox, _clear_denominators,
                                _det_sign_polynomials, _exact_mks, _hermitian_matrix,
                                _nested_dets, _real, certificate_pencil, kth_root_ratio_box,
                                schur_cohn, schur_cohn_box)
from test_acceptance import PUBLISHED_BOX_K7, PUBLISHED_BOX_K9, transported_box
from test_polynomials import _elimination_det


def test_exact_linear_cases():
    rep = schur_cohn(RatPoly([-2, 1]))  # root at 2
    assert rep.signs == ("-",) and rep.beta == 1
    rep = schur_cohn(RatPoly([Fraction(-1, 2), 1]))  # root at 1/2
    assert rep.signs == ("+",) and rep.beta == 0


def test_exact_counts_match_solver_products():
    # (q-2)(q-3): both outside
    rep = schur_cohn(RatPoly([6, -5, 1]))
    assert rep.beta == 2
    # (q-2)(q-1/3): one of each
    rep = schur_cohn(RatPoly([Fraction(2, 3), Fraction(-7, 3), 1]))
    assert rep.beta == 1
    # (q-1/2)(q-1/3): both inside
    rep = schur_cohn(RatPoly([Fraction(1, 6), Fraction(-5, 6), 1]))
    assert rep.beta == 0


def test_exact_hypothesis_failure():
    # root exactly on the unit circle
    with pytest.raises(SchurCohnHypothesisError):
        schur_cohn(RatPoly([-1, 1]))
    with pytest.raises(InputError):
        schur_cohn(RatPoly.zero())


def test_pencil_reduction_and_m1_closed_form():
    pen = certificate_pencil(3)
    # spRel/(1-q) = 2q, Rel/(1-q) = 1-q
    assert pen.split_reduced == RatPoly([0, 2])
    assert pen.rel_reduced == RatPoly([1, -1])
    # M_1((a,b)) = 4a+4: both sides are degree-1 polynomials in a and
    # constant in b, so agreement at two points proves the identity.
    for a, b in ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(5)),
                 (Fraction(-3, 2), Fraction(7))):
        coeffs = pen.exact_poly(a, b)
        lead, const = coeffs[1], coeffs[0]
        m1 = lead.abs2() - const.abs2()
        assert m1 == 4 * a + 4


def test_pencil_divisibility_all_orders():
    from relroots import rel_complete_minus_edge, sprel_complete_minus_edge
    for n in range(3, 7):
        pen = certificate_pencil(n)
        one_minus_q = RatPoly([1, -1])
        assert pen.split_reduced * one_minus_q ** (n - 2) == sprel_complete_minus_edge(n)
        assert pen.rel_reduced * one_minus_q ** (n - 2) == rel_complete_minus_edge(n)
        assert pen.degree == (n - 1) * (n - 2) // 2


def test_box_certificates_published_boxes():
    # The boxes of the published (9,3) and (7,4) constructions, as certify
    # derives them: one transport of the base box.
    rep = schur_cohn_box(certificate_pencil(3).box_poly(transported_box(9)))
    assert rep.signs == ("-",) and rep.beta == 1

    rep = schur_cohn_box(certificate_pencil(4).box_poly(transported_box(7)))
    assert rep.signs == ("+", "+", "-") and rep.beta == 1
    assert rep.subdivision_depth <= 12


def test_box_certificate_wide_box_indeterminate():
    # M_1 = 4a+4 straddles zero over a in [-2, 2] no matter how far we split
    bp = certificate_pencil(3).box_poly(ParamBox.of(-2, 2, 0, 1))
    rep = schur_cohn_box(bp, max_depth=3)
    assert not rep.determinate and rep.beta is None
    # M_k is even in b, so a box straddling b = 0 must bound the signs as
    # tightly as its b >= 0 half: t = b^2 is an even power of the b
    # interval, [0, 1/4] here, not the product [-1/4, 1/4].
    pen = certificate_pencil(4)
    whole = ParamBox.of(Fraction(-1, 6), Fraction(5, 6), Fraction(-1, 2), Fraction(1, 2))
    half = ParamBox.of(Fraction(-1, 6), Fraction(5, 6), 0, Fraction(1, 2))
    for box in (whole, half):
        assert schur_cohn_box(pen.box_poly(box), max_depth=0).signs == ("+", "+", "?")


def test_point_box_is_not_bisected(monkeypatch):
    # M_1 = 4a + 4 vanishes at a = -1, so a point box there stays undecided;
    # it has no width to split, so it takes one evaluation at depth 0.
    boxes = []
    box_signs = stability._box_signs

    def counting(bp):
        boxes.append(bp.box)
        return box_signs(bp)

    monkeypatch.setattr(stability, "_box_signs", counting)
    rep = schur_cohn_box(certificate_pencil(3).box_poly(ParamBox.of(-1, -1, 1, 1)))
    assert rep.signs == ("?",) and rep.beta is None and rep.subdivision_depth == 0
    assert len(boxes) == 1
    # A box with width along one side only is still bisected along it.
    rep = schur_cohn_box(certificate_pencil(3).box_poly(ParamBox.of(-2, 2, 1, 1)), max_depth=3)
    assert rep.signs == ("?",) and rep.subdivision_depth == 3


def test_box_subdivision_consistent_with_parent():
    pen = certificate_pencil(4)
    parent = transported_box(7)
    rep_parent = schur_cohn_box(pen.box_poly(parent))
    assert rep_parent.determinate
    for child in parent.split():
        rep_child = schur_cohn_box(pen.box_poly(child))
        assert rep_child.signs == rep_parent.signs


def _centre_and_corners(box):
    yield (box.a_lo + box.a_hi) / 2, (box.b_lo + box.b_hi) / 2
    for a in (box.a_lo, box.a_hi):
        for b in (box.b_lo, box.b_hi):
            yield a, b


def _non_dyadic(rng, centre):
    """An odd numerator over an even multiple of 3 or 7 near ``centre``,
    never an integer and never a dyadic rational."""
    while True:
        den = rng.choice((6, 14)) * rng.randint(1, 10)
        x = Fraction(2 * round(centre * den / 2) + 1, den)
        if x.denominator & (x.denominator - 1):
            return x


def test_box_signs_match_exact_points():
    # The box path reads signs off the interpolated determinant polynomials;
    # at exact points those must equal the kernel's determinants, and the
    # exact test must agree with the certified box signs.
    for n, k in ((3, 9), (4, 7), (5, 6), (6, 6)):
        box = transported_box(k)
        pen = certificate_pencil(n)
        polys = _det_sign_polynomials(n)
        box_signs = schur_cohn_box(pen.box_poly(box)).signs
        assert "?" not in box_signs
        for a, b in _centre_and_corners(box):
            coeffs = pen.exact_poly(a, b)
            mks = _exact_mks(coeffs)
            for k, p in enumerate(polys, start=1):
                value = sum(c * a ** i * (b * b) ** j
                            for i, row in enumerate(p) for j, c in enumerate(row))
                assert value == mks[k - 1]
            assert schur_cohn(coeffs).signs == box_signs
        # A point box at a non-dyadic rational rounds its endpoints outward
        # once; its signs must still be exactly those of the exact test,
        # near the certificate box and elsewhere.
        rng = random.Random(n)
        centre = (box.a_lo + box.a_hi) / 2, (box.b_lo + box.b_hi) / 2
        for centre_a, centre_b in [centre] * 3 + [(rng.randint(-2, 2), rng.randint(-2, 2))
                                                  for _ in range(3)]:
            a, b = _non_dyadic(rng, centre_a), _non_dyadic(rng, centre_b)
            point = schur_cohn_box(pen.box_poly(ParamBox.of(a, a, b, b)), max_depth=0)
            assert point.signs == schur_cohn(pen.exact_poly(a, b)).signs


def test_ratio_boxes_contained_in_published():
    # The published boxes hold the image of the proven base-root disk; the
    # single-cell image of the whole base box is wider than they are.
    base, _ = two_clique_reliability(TwoCliqueParams(3, 3, 1, 6)).deflate_unit_roots()
    disk = polished_root_disk(base, (BASE_ROOT_BOX.a_lo + BASE_ROOT_BOX.a_hi) / 2,
                              (BASE_ROOT_BOX.b_lo + BASE_ROOT_BOX.b_hi) / 2)
    square = ParamBox.square(*disk)
    assert BASE_ROOT_BOX.contains(square)
    for k, published in ((9, PUBLISHED_BOX_K9), (7, PUBLISHED_BOX_K7)):
        assert published.contains(
            kth_root_ratio_box(square.a_lo, square.a_hi, square.b_lo, square.b_hi, k))
        assert not published.contains(transported_box(k))


def test_ratio_box_point_and_errors():
    box = kth_root_ratio_box(Fraction(1, 2), Fraction(1, 2), 0, 0, 1)
    assert box.a_lo <= 1 <= box.a_hi
    assert abs(box.a_hi - box.a_lo) < Fraction(1, 10 ** 20)
    assert box.b_lo <= 0 <= box.b_hi
    with pytest.raises(InputError):
        kth_root_ratio_box(Fraction(1, 2), Fraction(3, 2), Fraction(-1), Fraction(1), 1)
    with pytest.raises(InputError):
        kth_root_ratio_box(Fraction(-1), Fraction(1), Fraction(-1), Fraction(1), 3)


def test_ratio_box_point_images_are_tight():
    # A point box maps to a box around the exact image that is only as
    # wide as the outward rounding of a few 256-bit interval operations.
    z1 = QComplex(Fraction(1, 3), Fraction(1, 5))
    z2 = QComplex(Fraction(1, 2), Fraction(1, 3))
    for w, z, k in ((z1, z1, 1), (z2 * z2, z2, 2)):
        box = kth_root_ratio_box(w.re, w.re, w.im, w.im, k)
        image = z / (QComplex.of(1) - z)
        assert box.a_lo <= image.re <= box.a_hi and box.b_lo <= image.im <= box.b_hi
        assert box.a_hi - box.a_lo < Fraction(1, 2 ** 200)
        assert box.b_hi - box.b_lo < Fraction(1, 2 ** 200)


def test_ratio_box_ignores_global_precision():
    # The transport and the sign checks run in their own interval context.
    # At 10 bits mpmath's global interval context loses the last (6,6) sign.
    import mpmath as mp
    reference = transported_box(6)
    pen = certificate_pencil(6)
    signs = schur_cohn_box(pen.box_poly(reference), max_depth=0).signs
    assert "?" not in signs
    saved = mp.iv.prec
    try:
        mp.iv.prec = 10
        with mp.workprec(53):
            assert transported_box(6) == reference
            assert schur_cohn_box(pen.box_poly(reference), max_depth=0).signs == signs
            assert mp.mp.prec == 53
        assert mp.iv.prec == 10
    finally:
        mp.iv.prec = saved


def test_box_degree_check_is_exact():
    # For n = 3 the leading coefficient 2 + (a+bi) vanishes only at (-2, 0),
    # while M_1 = 4a+4 is negative on all of these boxes.
    pen = certificate_pencil(3)
    rep = schur_cohn_box(pen.box_poly(ParamBox.of(-2, Fraction(-3, 2), 0, 1)), max_depth=4)
    assert rep.signs == ("?",)
    near = Fraction(1, 10 ** 6)
    for box in (ParamBox.of(-2 + near, Fraction(-3, 2), 0, 1),
                ParamBox.of(-2, Fraction(-3, 2), near, 1)):
        assert pen.box_poly(box).valid_degree
        assert schur_cohn_box(pen.box_poly(box)).signs == ("-",)


def test_ratio_box_encloses_sampled_images():
    import mpmath as mp
    for k in (6, 7, 9):
        box = transported_box(k)
        rng = random.Random(k)
        with mp.workprec(120):
            for _ in range(200):
                re = BASE_ROOT_BOX.a_lo + Fraction(rng.random()).limit_denominator(10 ** 6) \
                    * (BASE_ROOT_BOX.a_hi - BASE_ROOT_BOX.a_lo)
                im = BASE_ROOT_BOX.b_lo + Fraction(rng.random()).limit_denominator(10 ** 6) \
                    * (BASE_ROOT_BOX.b_hi - BASE_ROOT_BOX.b_lo)
                w = mp.mpc(mp.mpmathify(re), mp.mpmathify(im))
                z = mp.root(w, k)
                img = z / (1 - z)
                assert float(box.a_lo) <= img.real <= float(box.a_hi)
                assert float(box.b_lo) <= img.imag <= float(box.b_hi)


def test_beta_agrees_with_solver_randomized():
    rng = random.Random(2025)
    done = 0
    while done < 60:
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
        assert rep.beta == sum(1 for z in rs.roots if abs(z) > 1)
        gcoeffs, _ = _clear_denominators(coeffs)
        assert rep.signs == tuple("+" if _real_det(gcoeffs, k) > 0 else "-"
                                  for k in range(1, deg + 1))
        done += 1


def _real_det(gcoeffs, k):
    """M_k from the k x k Hermitian matrix built at order k, by its own elimination."""
    return _real(bareiss_det(_hermitian_matrix(gcoeffs, k))[0])


def _counting_eliminations(monkeypatch) -> list:
    """Record the order of every elimination that stability runs."""
    orders = []
    kernel = stability.bareiss_det

    def counting(matrix):
        orders.append(len(matrix))
        return kernel(matrix)

    monkeypatch.setattr(stability, "bareiss_det", counting)
    return orders


def test_nested_dets_match_per_k_determinants(monkeypatch):
    # M_k is read off one elimination until its first row swap; later M_k
    # come from their own determinants.  Small coefficients with zeros make
    # swaps common, so both branches run.
    orders, fallbacks = _counting_eliminations(monkeypatch), []
    rng = random.Random(404)
    for trial in range(150):
        deg = rng.randint(1, 7)
        gcoeffs = [(rng.randint(-2, 2), rng.randint(-2, 2) if trial % 2 else 0)
                   for _ in range(deg + 1)]
        expected = [_real_det(gcoeffs, k) for k in range(1, deg + 1)]
        orders.clear()
        assert _nested_dets(gcoeffs) == expected
        fallbacks += orders[1:]
    assert len(fallbacks) >= 20


def _block_matrix(gcoeffs, k):
    """The classical 2k x 2k Schur-Cohn matrix [[B*, A], [A*, B]], with A and B
    upper triangular, A[i][j] = c_{j-i} and B[i][j] = conj(c_{d-j+i}), and the
    starred blocks their conjugate transposes."""
    d = len(gcoeffs) - 1

    def conj(x):
        return (x[0], -x[1])

    def a_entry(i, j):
        return gcoeffs[j - i] if j >= i else (0, 0)

    def b_entry(i, j):
        return conj(gcoeffs[d - j + i]) if j >= i else (0, 0)

    top = [[conj(b_entry(j, i)) for j in range(k)] + [a_entry(i, j) for j in range(k)]
           for i in range(k)]
    bottom = [[conj(a_entry(j, i)) for j in range(k)] + [b_entry(i, j) for j in range(k)]
              for i in range(k)]
    return top + bottom


def test_nested_dets_match_block_determinants(monkeypatch):
    # M_k is defined by the 2k x 2k block matrix; _nested_dets reads every M_k
    # off one d x d Hermitian matrix.  Textbook elimination over exact complex
    # rationals on the block matrix checks the block identity, the nesting and
    # the fallback after a row swap.  Small coefficients with zeros make zero
    # leading minors common.
    orders, fallbacks = _counting_eliminations(monkeypatch), []
    rng = random.Random(1936)
    cases = [[(rng.randint(-2, 2), rng.randint(-2, 2) if trial % 2 else 0)
              for _ in range(rng.randint(1, 8) + 1)] for trial in range(60)]
    # The one n = 4 grid node, a = -2 and b = 0, where M_1 = 0 makes the
    # elimination of H swap rows.
    node, _ = _clear_denominators(certificate_pencil(4).exact_poly(-2, 0))
    assert len(bareiss_det(_hermitian_matrix(node, 3))[1]) == 1
    for gcoeffs in cases + [node]:
        orders.clear()
        dets = _nested_dets(gcoeffs)
        fallbacks += orders[1:]
        assert [QComplex.of(m) for m in dets] == [
            _elimination_det(_block_matrix(gcoeffs, k)) for k in range(1, len(gcoeffs))]
    assert fallbacks[-2:] == [2, 3]
    assert len(fallbacks) >= 20


def test_det_sign_polynomials_one_elimination_per_node(monkeypatch):
    # n = 6 has pencil degree d = 10: one elimination of an order-10 real
    # integer matrix at each of the (d + 1)^2 = 121 lower-set nodes, and one
    # of the Hermitian matrix over the Gaussian integers for the spot check
    # of every k.
    orders = Counter()
    kernel = stability.bareiss_det

    def counting(matrix):
        orders[len(matrix), "gaussian" if isinstance(matrix[0][0], tuple) else "int"] += 1
        return kernel(matrix)

    monkeypatch.setattr(stability, "bareiss_det", counting)
    _det_sign_polynomials.cache_clear()
    _det_sign_polynomials(6)
    assert orders == Counter({(10, "int"): 121, (10, "gaussian"): 1})


def test_det_sign_polynomials_match_hermitian_minors_at_real_nodes():
    # The grid runs at imaginary b; at real integer b the polynomials must
    # give the leading minors of the Hermitian matrix itself.
    for n in range(3, 7):
        pen = certificate_pencil(n)
        polys = _det_sign_polynomials(n)
        for a, b in ((0, 1), (-2, 3), (1, 2), (3, -1), (-1, 5)):
            gcoeffs, denom = _clear_denominators(pen.exact_poly(a, b))
            assert denom == 1
            assert _nested_dets(gcoeffs) == [
                sum(c * a ** i * (b * b) ** j for i, row in enumerate(p) for j, c in enumerate(row))
                for p in polys]


def test_det_polynomials_match_determinants_off_grid():
    rng = random.Random(1009)
    for n in range(3, 7):
        pen = certificate_pencil(n)
        polys = _det_sign_polynomials(n)
        # Row i of P_k stores only its lower set, t^j with i + 2j <= 2k.
        for k, p in enumerate(polys, start=1):
            assert [len(row) for row in p] == [(2 * k - i) // 2 + 1 for i in range(2 * k + 1)]
        for _ in range(3):
            # Odd over even: never an integer, so never a grid node.
            a = Fraction(2 * rng.randint(-30, 30) + 1, 2 * rng.randint(1, 15))
            b = Fraction(2 * rng.randint(-30, 30) + 1, 2 * rng.randint(1, 15))
            mks = _exact_mks(pen.exact_poly(a, b))
            for k, p in enumerate(polys, start=1):
                value = sum(c * a ** i * (b * b) ** j
                            for i, row in enumerate(p) for j, c in enumerate(row))
                assert value == mks[k - 1]


def test_parambox_split_and_json():
    box = ParamBox.of(0, 4, 0, 1)
    left, right = box.split()
    assert left.a_hi == right.a_lo == 2
    doc = ParamBox.of(Fraction(-101749, 100000), -1, 10, 11).to_dict()
    assert doc["a_lo"] == "-101749/100000" and doc["b_hi"] == "11/1"
    with pytest.raises(InputError):
        ParamBox.of(1, 0, 0, 1)
