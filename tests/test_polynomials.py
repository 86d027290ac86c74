import random
from fractions import Fraction

import pytest

from conftest import complete_graph, oracle_rel, random_connected_multigraph
from relroots import (FVector, HVector, InputError, NumericalError, QComplex,
                      RatPoly, f_from_rel, f_to_h, f_vector, h_to_rel,
                      parse_complex_rational, rel_from_f)
from relroots.multigraph import Multigraph
from relroots import polynomials
from relroots.polynomials import ONE_MINUS_Q, ONE_PLUS_Q, Q, bareiss_det, compose_homogeneous


def test_ring_arithmetic():
    one_minus_q = RatPoly([1, -1])
    one_plus_q = RatPoly([1, 1])
    assert one_minus_q * one_plus_q == RatPoly([1, 0, -1])
    assert one_minus_q + one_plus_q == RatPoly([2])
    assert RatPoly([1, 2])(Fraction(1, 2)) == 2
    assert (RatPoly([1, 2]) * RatPoly.zero()).is_zero()
    assert RatPoly([0, 0, 0]).is_zero()


def test_power_and_derivative():
    p = RatPoly([1, -1]) ** 3
    assert p == RatPoly([1, -3, 3, -1])
    assert p.derivative() == RatPoly([-3, 6, -3])


def test_substitute_power():
    assert RatPoly([1, -1]).substitute_power(2) == RatPoly([1, 0, -1])
    assert RatPoly([1, 2, 3]).substitute_power(1) == RatPoly([1, 2, 3])
    with pytest.raises(InputError):
        RatPoly([1, 1]).substitute_power(0)


def test_substitute_power_matches_tripled_triangle():
    k3 = complete_graph(3)
    tripled = Multigraph.from_edges(3, [(u, v, 3) for u, v, _ in k3.edges])
    assert oracle_rel(k3).substitute_power(3) == oracle_rel(tripled)


def test_divide_one_minus_q():
    p = RatPoly([1, -3, 3, -1])  # (1-q)^3
    q1, r1 = p.divide_one_minus_q()
    assert r1 == 0 and q1 == RatPoly([1, -2, 1])
    h, k = p.deflate_unit_roots()
    assert k == 3 and h == RatPoly.one()
    # Deflation clears denominators once and takes integer prefix sums; it
    # must give what repeated synthetic division gives.
    rng = random.Random(1729)
    cases = [RatPoly.zero(), RatPoly([5]), RatPoly([Fraction(1, 3), Fraction(-1, 3)])]
    for _ in range(100):
        base = RatPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(rng.randint(0, 6))])
        cases.append(base * RatPoly([1, -1]) ** rng.randint(0, 4))
    for p in cases:
        h, k = p, 0
        while not h.is_zero():
            quot, rem = h.divide_one_minus_q()
            if rem != 0:
                break
            h, k = quot, k + 1
        assert p.deflate_unit_roots() == (h, k), p


def test_f_to_h_known_values():
    # K_3: expanding (1-q)^3 + 3q(1-q)^2 = (1-q)^2 (1+2q) by hand
    h = f_to_h(FVector(values=(1, 3), n=3, m=3))
    assert h.values == (1, 2)
    # tree
    assert f_to_h(FVector(values=(1,), n=4, m=3)).values == (1,)
    # 2-vertex double edge: (1-q)^2 + 2q(1-q) = (1-q)(1+q)
    assert f_to_h(FVector(values=(1, 2), n=2, m=2)).values == (1, 1)


def test_f_to_h_rejects_corrupt_vector():
    # F_1 = 0 is impossible for a connected graph with a cycle; the quotient
    # picks up a nonpositive entry
    with pytest.raises(NumericalError):
        f_to_h(FVector(values=(1, 0), n=3, m=3))
    # an over-count sneaks past the division but fails the binomial bound
    assert not FVector(values=(1, 4), n=3, m=3).check_binomial_bound()


def test_h_to_rel_known_values():
    rel = h_to_rel(HVector(values=(1, 2), n=3, m=3))
    assert rel == RatPoly([1, 0, -3, 2])
    assert h_to_rel(HVector(values=(1,), n=2, m=1)) == RatPoly([1, -1])


def test_round_trip_f_h_rel():
    rng = random.Random(31)
    for _ in range(25):
        g = random_connected_multigraph(rng, max_m=12, max_n=6)
        f = f_vector(g)
        h = f_to_h(f)
        rel = h_to_rel(h)
        assert rel == rel_from_f(f)
        assert rel.degree == g.m
        assert rel(0) == 1
        if g.n >= 2:
            assert rel(1) == 0
        # evaluation identity at independent sample points
        for x in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 4)):
            lhs = sum(Fraction(fi) * x ** i * (1 - x) ** (g.m - i)
                      for i, fi in enumerate(f.values))
            assert lhs == rel(x)


def test_f_from_rel_round_trip():
    rng = random.Random(77)
    for _ in range(15):
        g = random_connected_multigraph(rng, max_m=12, max_n=6)
        f = f_vector(g)
        assert f_from_rel(rel_from_f(f), g.n).values == f.values


def _compose_reference(c, d, s, t):
    """sum_j c_j s^j t^(d-j) by RatPoly powers, as a list as long as its
    longest unreduced term, 1 + j(len(s)-1) + (d-j)(len(t)-1) entries."""
    total, length = RatPoly.zero(), 0
    for j, cj in enumerate(c):
        if cj:
            total = total + RatPoly(s) ** j * RatPoly(t) ** (d - j) * cj
            length = max(length, 1 + j * (len(s) - 1) + (d - j) * (len(t) - 1))
    return list(total.coeffs) + [0] * (length - len(total.coeffs))


def test_compose_homogeneous_against_powers():
    rng = random.Random(28)

    def coeffs(k):
        return [rng.choice((0, 1, -1, rng.randint(-99, 99), rng.randint(-2 ** 70, 2 ** 70)))
                for _ in range(k)]

    cases = [([], 3, Q, ONE_MINUS_Q), ([0, 0, 0], 2, Q, ONE_PLUS_Q), ([7], 0, Q, ONE_MINUS_Q),
             ([0], 0, (2, 3), (1, 4, 4)), ([0, 0, 5, 0], 3, Q, ONE_MINUS_Q),
             ([0, 2], 4, (1, 2, 1), ONE_MINUS_Q), ([1, 0, 0], 5, Q, (3, 0, 1))]
    twos = (Q, ONE_MINUS_Q, ONE_PLUS_Q, (1, 0), (-3, 5))
    for _ in range(300):
        d = rng.randint(0, 9)
        c = coeffs(rng.randint(0, d + 1))
        s, t = (rng.choice(twos) if rng.random() < 0.5 else tuple(coeffs(rng.randint(1, 4)))
                for _ in range(2))
        cases.append((c, d, s, t))
    for c, d, s, t in cases:
        assert compose_homogeneous(c, d, s, t) == _compose_reference(c, d, s, t), (c, d, s, t)


def test_vector_shape_validation():
    with pytest.raises(InputError):
        FVector(values=(1, 2, 3), n=3, m=3)
    with pytest.raises(InputError):
        FVector(values=(2, 3), n=3, m=3)
    with pytest.raises(InputError):
        HVector(values=(0, 1), n=3, m=3)


def test_hvector_predicates():
    h = HVector(values=(1, 3, 6, 6), n=4, m=6)
    assert h.is_strictly_positive()
    assert h.is_log_concave()
    assert h.total() == 16
    bad = HVector(values=(1, 1, 6, 2), n=4, m=6)
    assert not bad.is_log_concave()


def test_poly_json_round_trip():
    p = RatPoly([1, Fraction(-3, 2), 0, 2])
    text = p.to_json()
    assert '"-3/2"' in text and '"1/1"' in text
    assert RatPoly.from_json(text) == p
    with pytest.raises(InputError):
        RatPoly.from_json('{"var":"q"}')


@pytest.mark.parametrize("coeffs", ['"12"', '{"0": "1"}'])
def test_poly_json_needs_a_coeffs_list(coeffs):
    # a string would otherwise be read character by character, "12" as 1 + 2q
    with pytest.raises(InputError):
        RatPoly.from_json('{"coeffs": %s}' % coeffs)


def test_qcomplex_field_ops():
    z = QComplex(Fraction(1, 2), Fraction(3))
    w = QComplex(Fraction(-2), Fraction(1, 4))
    assert (z * w).conjugate() == z.conjugate() * w.conjugate()
    assert (z / w) * w == z
    assert z.abs2() == Fraction(1, 4) + 9


def test_parse_complex_rational():
    assert parse_complex_rational("3/2") == QComplex(Fraction(3, 2))
    assert parse_complex_rational("-1/2+3i") == QComplex(Fraction(-1, 2), Fraction(3))
    assert parse_complex_rational("2i") == QComplex(Fraction(0), Fraction(2))
    assert parse_complex_rational("1-i") == QComplex(Fraction(1), Fraction(-1))
    for bad in ("(1", "1/0", "2j"):
        with pytest.raises(InputError):
            parse_complex_rational(bad)


def _elimination_det(matrix) -> QComplex:
    """Textbook Gaussian elimination over exact complex rationals."""
    m = [[QComplex.of(x) for x in row] for row in matrix]
    det = QComplex.of(1)
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if not m[r][k].is_zero()), None)
        if pivot is None:
            return QComplex.of(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det = det * m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def test_bareiss_det_against_elimination():
    rng = random.Random(31)
    fixed = [
        [],
        [[(0, 0), (1, 0)], [(1, 0), (0, 0)]],  # zero leading pivot: row swap
        [[(0, 0), (2, 1), (1, 0)], [(0, 0), (1, 0), (3, -1)], [(1, 1), (0, 0), (2, 0)]],
        [[(1, 2), (2, 4)], [(3, 0), (6, 0)]],  # singular
        [[(0, 0), (1, 0)], [(0, 0), (5, 0)]],  # zero column
        [[0, 2, 1], [3, 1, 4], [1, 5, 9]],  # plain ints, zero leading pivot
        [[2, 4], [1, 2]],  # plain ints, singular
    ]
    randomized = []
    for trial in range(120):
        size = rng.randint(1, 6)
        gaussian = trial % 2 == 1
        randomized.append([[(rng.randint(-3, 3), rng.randint(-3, 3) if gaussian else 0)
                            for _ in range(size)] for _ in range(size)])
    for _ in range(60):  # plain-int matrices take the integer path unwrapped
        size = rng.randint(1, 6)
        randomized.append([[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)])
    for matrix in fixed + randomized:
        det, _ = bareiss_det(matrix)
        assert QComplex.of(det) == _elimination_det(matrix)
        assert isinstance(det, tuple) == (not matrix or isinstance(matrix[0][0], tuple))
    assert bareiss_det([])[0] == (1, 0)
    assert bareiss_det(fixed[1])[0] == (-1, 0)
    assert bareiss_det(fixed[3])[0] == (0, 0)
    assert bareiss_det(fixed[5])[0] == -32
    assert bareiss_det(fixed[6])[0] == 0


def test_bareiss_reports_leading_minors():
    # Until the first row swap, the pivots are the leading principal minors,
    # and a swap is reported by a list that stops at the zero pivot.
    rng = random.Random(57)
    matrices = []
    for trial in range(80):
        size = rng.randint(1, 7)
        m = [[(rng.randint(-4, 4), rng.randint(-4, 4) if trial % 4 else 0)
              for _ in range(size)] for _ in range(size)]
        if trial % 3 == 0 and size >= 4:
            m[2][:3] = m[0][:3]  # leading minor of order 3 vanishes
        matrices.append(m)
    swaps = 0
    for m in matrices:
        det, minors = bareiss_det(m)
        leading = [_elimination_det([row[:s] for row in m[:s]]) for s in range(1, len(m) + 1)]
        assert [QComplex.of(x) for x in minors] == leading[:len(minors)]
        if len(minors) < len(m):
            swaps += 1
            assert QComplex.of(minors[-1]).is_zero()
        else:
            assert minors[-1] == det
    assert swaps >= 10


def _euclid_degree(a, b, p):
    """Degree of gcd(a, b) over GF(p), by the textbook Euclid on lists."""
    def trim(f):
        while f and f[-1] == 0:
            f = f[:-1]
        return f

    a, b = trim(a), trim(b)
    while b:
        r, inv = list(a), pow(b[-1], -1, p)
        while len(r) >= len(b):
            c, k = r[-1] * inv % p, len(r) - len(b)
            r = trim([(x - c * b[i - k]) % p if i >= k else x for i, x in enumerate(r)][:-1])
        a, b = b, r
    return len(a) - 1


def test_gcd_degree_mod_p_matches_euclid():
    # Random pairs with a planted common factor g, and a few zero or
    # trailing-zero second arguments.
    p, rng = polynomials._P, random.Random(1930)

    def mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def rand(deg):
        return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

    degrees = set()
    for trial in range(60):
        g = rand(rng.randint(0, 6))
        a, b = mul(g, rand(rng.randint(0, 40))), mul(g, rand(rng.randint(0, 40)))
        if trial % 10 == 0:
            b = [0] * rng.randint(0, 3)
        elif trial % 10 == 1:
            b += [0, 0]
        expected = _euclid_degree(a, b, p)
        assert polynomials._gcd_degree_mod_p(a, b) == expected, trial
        degrees.add(expected)
    assert len(degrees) > 5
