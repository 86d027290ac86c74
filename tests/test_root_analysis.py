import random
from fractions import Fraction

import mpmath as mp
import pytest

from conftest import complete_graph, random_2connected_multigraph
from relroots import (Annulus, InputError, Multigraph, QComplex, RatPoly,
                      RootFindingError, TwoCliqueParams, check_modulus_bound,
                      enestrom_kakeya, find_roots, max_modulus_root,
                      rel_bruteforce, reliability_root_set,
                      two_clique_reliability)
from relroots.cli import main
from relroots.root_analysis import FixedHorner, _Solve


def _close(z, re, im, tol=1e-12):
    return abs(float(z.real) - re) < tol and abs(float(z.imag) - im) < tol


def test_linear_and_cyclotomic():
    rs = find_roots(RatPoly([1, 2]))
    assert len(rs) == 1 and _close(rs.roots[0], -0.5, 0.0)

    rs = find_roots(RatPoly([1, 0, 0, 0, 0, 0, -1]))
    assert len(rs) == 6
    assert all(abs(float(m) - 1.0) < 1e-20 for m in rs.moduli())
    top = max_modulus_root(rs)
    assert _close(top, 1.0, 0.0)


def test_zero_roots_split_off():
    rs = find_roots(RatPoly([0, 0, 2, -2]))  # 2q^2(1-q)
    mods = sorted(float(m) for m in rs.moduli())
    assert mods == pytest.approx([0.0, 0.0, 1.0])


def test_residuals_and_double_precision_stability():
    h, k = two_clique_reliability(TwoCliqueParams(2, 2, 6, 1)).deflate_unit_roots()
    assert k == 3
    rs1 = find_roots(h, 128)
    rs2 = find_roots(h, 256)
    thr = mp.mpf(2) ** (-(128 // 2) + 10)
    assert all(r <= thr * max(1, abs(z)) for z, r in zip(rs1.roots, rs1.residuals))
    for z1, r1 in zip(rs1.roots, rs1.residuals):
        z2 = min(rs2.roots, key=lambda z: abs(z - z1))
        assert abs(z2 - z1) <= 10 * r1 + mp.mpf(2) ** -120


def test_find_roots_validation():
    with pytest.raises(InputError):
        find_roots(RatPoly.zero())
    with pytest.raises(InputError):
        find_roots(RatPoly([5]))
    with pytest.raises(InputError):
        find_roots(RatPoly([1, 1]), precision_bits=16)


def test_max_modulus_tie_breaks():
    # roots of 1-q^6 all share modulus 1; the real root wins on real part
    rs = find_roots(RatPoly([1, 0, 0, 0, 0, 0, -1]))
    top = max_modulus_root(rs)
    assert _close(top, 1.0, 0.0)
    # conjugate pair: the upper-half member is reported
    rs = find_roots(RatPoly([1, 1, 1]))
    top = max_modulus_root(rs)
    assert float(top.imag) > 0


def test_enestrom_kakeya():
    assert enestrom_kakeya(RatPoly([1, 2])) == Annulus(Fraction(1, 2), Fraction(1, 2))
    assert enestrom_kakeya(RatPoly([1, 1, 1])) == Annulus(Fraction(1), Fraction(1))
    ann = enestrom_kakeya(RatPoly([1, 3, 6, 6]))
    assert ann == Annulus(Fraction(1, 3), Fraction(1))
    rs = find_roots(RatPoly([1, 3, 6, 6]))
    assert all(ann.contains(z) for z in rs.roots)
    with pytest.raises(InputError):
        enestrom_kakeya(RatPoly([1, -1, 1]))


def test_enestrom_kakeya_randomized():
    rng = random.Random(90)
    for _ in range(30):
        deg = rng.randint(1, 30)
        coeffs = [Fraction(rng.randint(1, 50), rng.randint(1, 9)) for _ in range(deg + 1)]
        p = RatPoly(coeffs)
        ann = enestrom_kakeya(p)
        rs = find_roots(p, 128)
        assert all(ann.contains(z, slack=1e-9) for z in rs.roots)


def test_reliability_root_set_deflates():
    rel = rel_bruteforce(complete_graph(3))
    rs = reliability_root_set(rel)
    mods = sorted(float(m) for m in rs.moduli())
    assert mods == pytest.approx([0.5, 1.0, 1.0])
    ones = [z for z in rs.roots if z == 1]
    assert len(ones) == 2


def test_bundle_root_map():
    # Roots of Rel(G;q^k) are exactly the k-th roots of roots of Rel(G;q);
    # verified by evaluating the bundled polynomial at every claimed root.
    g_params = TwoCliqueParams(2, 2, 6, 1)
    rel = two_clique_reliability(g_params)
    rs = reliability_root_set(rel, 192)
    k = 2
    bundled = rel.substitute_power(k)
    with mp.workprec(220):
        coeffs = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in bundled.coeffs]
        rev = list(reversed(coeffs))
        scale = max(abs(c) for c in coeffs)
        claimed = []
        for z in rs.roots:
            for branch in range(k):
                w = mp.root(z, k, branch)
                claimed.append(w)
                assert abs(mp.polyval(rev, w)) / scale < mp.mpf(2) ** -60
    assert len(claimed) == bundled.degree
    # moduli are pulled toward the unit circle
    mx = max(abs(z) for z in rs.roots)
    mxb = max(abs(w) for w in claimed)
    assert mp.almosteq(mxb, mx ** (mp.mpf(1) / k), rel_eps=mp.mpf(2) ** -40)
    assert 1 < mxb < mx


def test_check_modulus_bound_known_graphs():
    rep = check_modulus_bound(complete_graph(4))
    assert rep.bound == 2 and rep.ok and rep.simple_vertex

    b6 = Multigraph.from_edges(2, [(0, 1, 6)])
    rep = check_modulus_bound(b6)
    assert rep.bound == 1 and rep.ok
    assert rep.max_modulus == pytest.approx(1.0)

    with pytest.raises(InputError):
        check_modulus_bound(Multigraph.from_edges(3, [(0, 1, 1), (1, 2, 1)]))


def test_check_modulus_bound_randomized():
    rng = random.Random(4242)
    for _ in range(30):
        g = random_2connected_multigraph(rng)
        rep = check_modulus_bound(g, 128)
        assert rep.ok, (g.edges, rep)


def _product(roots) -> RatPoly:
    p = RatPoly([1])
    for r in roots:
        p = p * RatPoly([-Fraction(r), 1])
    return p


def _assert_matches(rs, exact, tol):
    """Each exact root has its own computed root within ``tol``."""
    assert len(rs) == len(exact)
    unmatched = list(rs.roots)
    for r in exact:
        v = mp.mpf(r.numerator) / r.denominator
        best = min(unmatched, key=lambda z: abs(z - v))
        assert abs(best - v) <= tol, (r, best)
        unmatched.remove(best)


def test_table1_rows_need_no_multiprecision_sweep():
    for n in range(3, 7):
        rel = two_clique_reliability(TwoCliqueParams(n, n, 1, 6))
        rs = reliability_root_set(rel, 256)
        diag = rs.diagnostics
        assert diag.reswept == 0 and diag.sweeps == 0 and diag.escalations == 0, (n, diag)
        assert diag.direct == rel.deflate_unit_roots()[0].degree
        assert diag.worst_residual_log2 <= -(256 // 2) + 10


def test_fallback_resolves_wilkinson_30():
    # Double precision cannot separate these roots: most starts stay
    # unresolved after the capped polish and go through the fallback.
    with mp.workprec(300):
        rs = find_roots(_product(range(1, 31)))
        _assert_matches(rs, [Fraction(k) for k in range(1, 31)], mp.mpf(2) ** -100)
    # Per-root bookkeeping: the fallback finishes at the requested precision.
    assert rs.diagnostics.reswept >= 1 and rs.diagnostics.escalations == 0
    assert rs.diagnostics.direct + rs.diagnostics.reswept == 30


def test_fallback_separates_a_tight_cluster():
    exact = [1 + Fraction(j, 10 ** 6) for j in range(8)] + [Fraction(k) for k in range(2, 12)]
    with mp.workprec(300):
        rs = find_roots(_product(exact))
        _assert_matches(rs, exact, mp.mpf(2) ** -100)
    assert rs.diagnostics.reswept >= 1 and rs.diagnostics.escalations == 0


def test_freeze_rejects_duplicates_beyond_multiplicity():
    # Two starts polish to the simple root 1: the second is re-swept to 2.
    solve = _Solve([QComplex(c) for c in _product([1, 2, 3]).coeffs],
                   [1.0001, 1.0002, 2.9], 256)
    assert solve.freeze([0, 1, 2]) == [1]
    assert solve.sweep([1]) == []
    assert [complex(z) for z in solve.roots()] == pytest.approx([1, 2, 3], abs=1e-30)
    # A double root (as the polish measures it) may be found twice.
    solve = _Solve([QComplex(c) for c in _product([1, 1, 3]).coeffs],
                   [1.0001, 0.9998 + 1e-4j, 2.9], 256)
    assert solve.freeze([0, 1, 2]) == []


def test_fixed_horner_against_exact_evaluation():
    rng = random.Random(2718)

    def rand_frac(spread):
        return Fraction(rng.randint(1, 2 ** 40) * rng.choice([-1, 1]),
                        rng.randint(1, 2 ** 40)) * Fraction(2) ** rng.randint(-spread, spread)

    for trial in range(60):
        d = rng.randint(1, 40)
        spread = 200 if trial % 2 else 8
        coeffs = [QComplex(rand_frac(spread), rand_frac(spread) if trial % 3 else Fraction(0))
                  for _ in range(d + 1)]
        bits = rng.choice([83, 158, 286])
        horner = FixedHorner(coeffs, bits)
        for _ in range(4):
            # A dyadic point, exactly representable at ``bits`` bits.
            scale = rng.randint(0, 48)
            zr = rng.randint(-2 ** 50, 2 ** 50) << (bits - scale)
            zi = rng.randint(-2 ** 50, 2 ** 50) << (bits - scale)
            z = QComplex(Fraction(zr, 2 ** bits), Fraction(zi, 2 ** bits))
            p, dp = QComplex(Fraction(0)), QComplex(Fraction(0))
            for c in reversed(coeffs):
                dp = dp * z + p
                p = p * z + c
            pr, pi, dr, di, err_p, err_dp, t = horner.evaluate(zr, zi)
            unit = Fraction(2) ** -t
            p_err2 = (QComplex(pr * unit, pi * unit) - p).abs2()
            dp_err2 = (QComplex(dr * unit, di * unit) - dp).abs2()
            assert p_err2 <= (err_p * unit) ** 2
            assert dp_err2 <= (err_dp * unit) ** 2
            # The scale keeps the bound below 2^-bits of the largest term.
            top2 = max((c.abs2() * z.abs2() ** k for k, c in enumerate(coeffs)))
            assert (err_dp * unit * 2 ** bits) ** 2 <= top2


def test_triple_roots_fail_at_the_precision_cap(tmp_path, capsys):
    q2 = RatPoly([1, 1, 1])
    p = q2 * q2 * q2 * RatPoly([-2, 1])
    with pytest.raises(RootFindingError):
        find_roots(p)
    f = tmp_path / "triple.json"
    f.write_text(p.to_json())
    assert main(["roots", str(f)]) == 4
    capsys.readouterr()
