import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from mpmath.libmp import from_man_exp

from conftest import complete_graph, random_2connected_multigraph
from relroots import (Annulus, InputError, Multigraph, QComplex, RatPoly, RootSet,
                      TwoCliqueParams, check_modulus_bound,
                      enestrom_kakeya, find_roots, max_modulus_root,
                      rel_bruteforce, reliability_root_set,
                      two_clique_graph, two_clique_reliability)
from relroots import fixed_point, polynomials, root_analysis
from relroots.cli import main, roots_csv
from relroots.polynomials import _squarefree_mod_p, convolve, squarefree_split
from relroots.fixed_point import FixedEval, polished_root_disk
from relroots.root_analysis import _Solve
from relroots.stability import BASE_ROOT_BOX, mpf_to_fraction


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


def test_max_modulus_root_is_exact_below_modulus_one():
    # A tie tolerance would call moduli 1e-12 apart equal below modulus 1,
    # and 2^-60 apart equal at 1; the proven disks tell both apart.
    for small, large in ((Fraction(1, 10 ** 6), -Fraction(1, 10 ** 6) - Fraction(1, 10 ** 12)),
                         (Fraction(1), -1 - Fraction(1, 2 ** 60))):
        rs = find_roots(_product([small, large]))
        top = max_modulus_root(rs)
        disks, s = root_analysis._root_disks(rs)
        x, y, r = disks[rs.roots.index(top)]
        assert y == 0 and abs(x - large * 2 ** s) <= r, (small, large)


def _disks_meet(rs, ann: Annulus) -> bool:
    """Whether every proven root disk of rs meets the annulus, exactly."""
    disks, s = root_analysis._root_disks(rs)
    lo, hi = ann.lo * 2 ** s, ann.hi * 2 ** s
    return all(x * x + y * y <= (hi + r) ** 2 and (lo <= r or x * x + y * y >= (lo - r) ** 2)
               for x, y, r in disks)


def test_enestrom_kakeya():
    assert enestrom_kakeya(RatPoly([1, 2])) == Annulus(Fraction(1, 2), Fraction(1, 2))
    assert enestrom_kakeya(RatPoly([1, 1, 1])) == Annulus(Fraction(1), Fraction(1))
    ann = enestrom_kakeya(RatPoly([1, 3, 6, 6]))
    assert ann == Annulus(Fraction(1, 3), Fraction(1))
    rs = find_roots(RatPoly([1, 3, 6, 6]))
    assert _disks_meet(rs, ann)
    assert not _disks_meet(rs, Annulus(Fraction(1, 3), Fraction(1, 2)))
    assert not _disks_meet(rs, Annulus(Fraction(7, 10), Fraction(1)))
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
        assert _disks_meet(rs, ann)


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


def test_check_modulus_bound_takes_the_largest_ratio(monkeypatch):
    # A graph's H is log-concave, so its top ratio is its largest; an H
    # whose largest ratio, 3, sits below the top one, 1, shows that the
    # bound reads every ratio.
    h = RatPoly([1, 3, 1, 1])
    monkeypatch.setattr("relroots.reliability.rel_auto", lambda g: RatPoly([1, -1]) * h)
    rep = check_modulus_bound(Multigraph.from_edges(2, [(0, 1, 6)]))
    assert rep.ratio == enestrom_kakeya(h).hi == 3
    assert rep.bound == 1 and not rep.ratio_within_bound


def test_check_modulus_bound_sees_a_root_just_beyond(monkeypatch):
    # A root 2^-40 beyond the bound, proven to 2^-200, is beyond it: no
    # slack on the modulus lets it pass.
    solve = root_analysis.find_roots

    def beyond(h, precision_bits):
        rs = solve(h, precision_bits)
        z, rho = mp.make_mpf(from_man_exp((2 << 40) + 1, -40)), mp.make_mpf(from_man_exp(1, -200))
        return RootSet((mp.mpc(z),) + rs.roots[1:], (rho,) + rs.residuals[1:], rs.precision_bits)

    monkeypatch.setattr(root_analysis, "find_roots", beyond)
    rep = check_modulus_bound(complete_graph(4))
    assert rep.bound == 2 and rep.ratio_within_bound
    assert not rep.roots_within_bound and not rep.ok


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


def _recorded_freezes(monkeypatch) -> list:
    """Patch the Newton loop to record (z, d·ρ, prec, bits) for every root it proves."""
    seen = []
    newton = root_analysis._newton

    def recording(evaluator, z, bits, prec, slope=None):
        out = newton(evaluator, z, bits, prec, slope)
        if out is not None:
            seen.append((out[0], evaluator.degree * out[1], prec, bits))
        return out

    monkeypatch.setattr(root_analysis, "_newton", recording)
    return seen


def _assert_freeze_bound(seen) -> None:
    # Every root is frozen with d·ρ ≤ 2^-(prec/2+10)·|z|, exactly.
    assert seen and all(radius <= fixed_point._modulus(*z) >> (prec // 2 + 10)
                        for z, radius, prec, _ in seen)


def _recorded_passes(monkeypatch) -> list:
    """Patch the recurrence passes to record (pass, bits) for every run; the
    list-free ``_value_pass`` is recorded as the b pass it runs."""
    passes = []
    for name, label in (("_b_pass", "_b_pass"), ("_value_pass", "_b_pass"), ("_e_pass", "_e_pass")):
        def recording(table, zr, r2, bits, run=getattr(fixed_point, name), label=label):
            passes.append((label, bits))
            return run(table, zr, r2, bits)

        monkeypatch.setattr(fixed_point, name, recording)
    return passes


def test_table1_rows_need_no_multiprecision_sweep(monkeypatch):
    # The modular certificate proves each row squarefree: no exact gcd runs.
    monkeypatch.setattr(polynomials, "_cgcd", None)
    freezes = _recorded_freezes(monkeypatch)
    passes = _recorded_passes(monkeypatch)
    proofs = []    # the bits of every proof attempt
    residual = FixedEval.residual

    def proving(self, values, bits):
        proofs.append(bits)
        return residual(self, values, bits)

    monkeypatch.setattr(FixedEval, "residual", proving)
    # Mirroring one root of each conjugate pair halves the fixed-point work
    # (220, 428, 775 and 1,277 evaluations when every start is polished).
    # Freezing each root at its first proven iterate, with the early steps
    # at half precision, cut the 116, 223, 395 and 648 evaluations, every
    # one at full precision, to 87, 196, 320 and 549, of which 58, 144, 193
    # and 300 at full precision.  Half precision up to the step that should
    # land inside the freeze bound kept those totals and cut the full ones
    # to 29, 52, 84 and 132; each of the 58, 144, 236 and 417 half-precision
    # evaluations ran two recurrence passes, b and e.  Secant steps, seeded
    # by the double sweep's p', run the b pass alone.  Each proof then ran
    # at full precision, 290 bits, for 30,286, 55,172, 98,360 and 165,498
    # bits over all passes; run at the lowest rung its rounding floor allows,
    # 0, 0, 1 and 13 of them still run at full precision (proofs, full
    # ones, step passes, mirrored, bits).
    budget = {3: (29, 0, 84, 26, 22_862), 4: (52, 0, 156, 49, 41_860),
              5: (83, 1, 310, 79, 77_432), 6: (132, 13, 549, 116, 135_738)}
    for n in range(3, 7):
        passes.clear()
        proofs.clear()
        rel = two_clique_reliability(TwoCliqueParams(n, n, 1, 6))
        rs = reliability_root_set(rel, 256)
        diag = rs.diagnostics
        assert diag.reswept == 0 and diag.sweeps == 0 and diag.escalations == 0, (n, diag)
        assert diag.direct == rel.deflate_unit_roots()[0].degree
        assert diag.worst_residual_log2 <= -(256 // 2) + 10
        # Newton-polygon starts and the per-root stop end the double sweep
        # early instead of at its 400-iteration cap.
        assert diag.machine_iterations <= 100, (n, diag)
        # A real table: each proof attempt runs one b pass and one e pass,
        # at whatever rung; every step pass is a b pass alone.
        e_passes = sorted(bits for name, bits in passes if name == "_e_pass")
        assert e_passes == sorted(proofs), n
        steps = sum(name == "_b_pass" for name, _ in passes) - len(proofs)
        full = sum(bits >= 256 + fixed_point._GUARD_BITS for bits in proofs)
        assert (len(proofs), full, steps) == budget[n][:3], (n, proofs)
        assert sum(bits for _, bits in passes) == budget[n][4], n
        assert diag.mirrored == budget[n][3], (n, diag)
    _assert_freeze_bound(freezes)


def test_proofs_at_the_rung_match_proofs_at_full_precision(monkeypatch):
    # Proving at the lowest rung its rounding floor allows changes no count
    # against proving at full precision: each root lands in the disk of its
    # full-precision counterpart and the other way round, and every disk
    # passes the freeze bound.  The rung proofs, one in six, hold in exact
    # arithmetic: |p(z)| ≤ ρ·|p'(z)| at the point each returns.
    third = Fraction(1, 3)
    cases = [two_clique_reliability(TwoCliqueParams(n, n, 1, 6)).deflate_unit_roots()[0]
             for n in range(3, 6)]
    cases.append(_product([third, third + Fraction(1, 2 ** 100), third + Fraction(1, 2 ** 99),
                           -2, Fraction(5, 7)]))
    counts = ("direct", "mirrored", "reswept", "sweeps", "escalations")
    freezes = _recorded_freezes(monkeypatch)
    proofs = []
    newton = root_analysis._newton

    def recording(evaluator, z, bits, prec, slope=None):
        out = newton(evaluator, z, bits, prec, slope)
        if out is not None:
            proofs.append((evaluator.coeffs, out, bits))
        return out

    monkeypatch.setattr(root_analysis, "_newton", recording)
    ladder = [find_roots(p, 256) for p in cases]
    assert len(proofs) > 150
    for coeffs, ((zr, zi), rho), bits in proofs[::6]:
        value, slope, _ = _exact_reference(coeffs)(zr, zi, bits)
        assert value.abs2() * (1 << 2 * bits) <= rho * rho * slope.abs2()
    monkeypatch.setattr(fixed_point, "_proof_bits", lambda *args: args[-1])
    full = [find_roots(p, 256) for p in cases]
    for p, rung, at_full in zip(cases, ladder, full):
        assert ([getattr(rung.diagnostics, c) for c in counts]
                == [getattr(at_full.diagnostics, c) for c in counts]), p.degree
        for z, w, rho, sigma in zip(rung.roots, at_full.roots, at_full.residuals,
                                    rung.residuals):
            dx, dy = (mpf_to_fraction(a) - mpf_to_fraction(b) for a, b in
                      ((z.real, w.real), (z.imag, w.imag)))
            radius = p.degree * mpf_to_fraction(min(rho, sigma))
            assert dx * dx + dy * dy <= radius * radius
    assert full[-1].diagnostics.escalations == 1
    _assert_freeze_bound(freezes)


def _fused_remainders(table, zr, r2, bits):
    """(b_0, b_1, e_2, e_3) from one loop over both of ``FixedEval``'s
    recurrences, as the evaluator computed them before its two passes."""
    two_bits, shift = 2 * bits, bits + 1
    b1 = b2 = e1 = e2 = 0
    for c in table[:-2]:
        b1, b2 = c + ((((zr * b1) << shift) - r2 * b2) >> two_bits), b1
        e1, e2 = b1 + ((((zr * e1) << shift) - r2 * e2) >> two_bits), e1
    b1, b2 = table[-2] + ((((zr * b1) << shift) - r2 * b2) >> two_bits), b1
    b0 = table[-1] + ((((zr * b1) << shift) - r2 * b2) >> two_bits)
    return b0, b1, e1, e2


def test_b_pass_gives_the_values_of_evaluate():
    # The secant steps read p off the b pass alone: bit for bit the p that
    # evaluate gives at the same z, bits and t; and the b and e passes give
    # what the fused loop gave.  Rows 3..6 run real tables, Gaussian
    # polynomials complex ones.
    rng = random.Random(1964)
    cases = [fixed_point._as_qcomplex_coeffs(
        two_clique_reliability(TwoCliqueParams(n, n, 1, 6)).deflate_unit_roots()[0])
        for n in range(3, 7)]
    cases += [[QComplex(Fraction(rng.randint(-99, 99)), Fraction(rng.randint(-99, 99)))
               for _ in range(rng.randint(10, 60))] + [QComplex(Fraction(1))] for _ in range(4)]
    tables = 0
    for coeffs in cases:
        evaluator = FixedEval(coeffs)
        for z in find_roots(coeffs).roots[::5]:
            for bits in (158, 286):
                wiggle = Fraction(rng.randint(-2 ** 20, 2 ** 20), 2 ** 60)
                zr = fixed_point._scaled_int(mpf_to_fraction(z.real) + wiggle, bits)
                zi = fixed_point._scaled_int(mpf_to_fraction(z.imag) - wiggle, bits)
                values = evaluator.evaluate(zr, zi, bits)
                t = values[6]
                assert evaluator.value(zr, zi, bits, t) == values[:2]
                r2 = zr * zr + zi * zi
                for table in evaluator._table(t):
                    if table is None:
                        continue
                    bs = fixed_point._b_pass(table, zr, r2, bits)
                    e2, e3 = fixed_point._e_pass(bs, zr, r2, bits)
                    assert (bs[-1], bs[-2], e2, e3) == _fused_remainders(table, zr, r2, bits)
                    assert fixed_point._value_pass(table, zr, r2, bits) == (bs[-1], bs[-2])
                    tables += 1
    assert tables > 300


def _fraction_scaled(x: float, t: int) -> int:
    """x·2^t rounded to the nearest integer (ties up) through ``Fraction``."""
    q = Fraction(x)
    num, den = q.numerator, q.denominator
    if t >= 0:
        num <<= t
    else:
        den <<= -t
    return (2 * num + den) // (2 * den)


def _per_edge_starts(hull):
    """The Newton-polygon starts built edge by edge, as one array per edge."""
    log_radii, angles = [], []
    for (k1, l1), (k2, l2) in zip(hull, hull[1:]):
        log_radii += [(l1 - l2) / (k2 - k1)] * (k2 - k1)
        angles.append(root_analysis._start_angles(k2 - k1)
                      + 2.0 * math.pi * k1 / root_analysis._PHI)
    return np.array(log_radii), np.concatenate(angles)


def test_integer_conversions_match_their_fraction_routes():
    # Each conversion around the fixed-point solve gives, bit for bit, what
    # the Fraction arithmetic it replaced gives: float to fixed point,
    # coefficients to scaled doubles, log2|c| of a real c, the batched
    # Newton-polygon starts, and err_p read without a logarithm.  The inputs
    # cover ±0.0, subnormals, 2^±1000 scales, negative shifts and exact ties.
    rng = random.Random(2017)
    tiny = math.ldexp(1.0, -1074)
    floats = [0.0, -0.0, tiny, -tiny, 3 * tiny, math.ldexp(1.0, -1022), 0.5, -0.5, 1.5,
              -2.5, 1.0 + 2.0 ** -52, math.ldexp(3.0, -60), -math.ldexp(3.0, -60)]
    floats += [math.ldexp(rng.random() - 0.5, rng.randint(-1000, 1000)) for _ in range(200)]
    floats += [math.ldexp(rng.randint(1, 2 ** 52), -1074) for _ in range(20)]
    for x in floats:
        y = rng.choice(floats)
        for bits in (-1100, -300, -61, -1, 0, 1, 59, 60, 61, 290, 1100, 1200):
            assert fixed_point._to_fixed(complex(x, y), bits) == (
                _fraction_scaled(x, bits), _fraction_scaled(y, bits)), (x, y, bits)

    # Coefficients whose scaled doubles are exact ties (1 + 2^-53 and 3·2^-1075
    # round to even), subnormal or zero, around 2^±1000 and complex.
    fixed = [Fraction(2 ** 53 + 1, 2 ** 53), -Fraction(2 ** 53 + 3, 2 ** 53), Fraction(3, 2 ** 1075),
             Fraction(-5, 2 ** 1076), Fraction(7, 2 ** 1060), Fraction(0), Fraction(2) ** 1000,
             Fraction(1, 3) * Fraction(2) ** -1000, Fraction(2 ** 54 + 1, 3)]
    subnormals = 0
    for trial in range(40):
        middle = [rng.choice(fixed) if rng.random() < 0.5 else
                  Fraction(rng.randint(-2 ** 80, 2 ** 80), rng.randint(1, 2 ** 80))
                  * Fraction(2) ** rng.randint(-40, 40) for _ in range(rng.randint(1, 12))]
        coeffs = [QComplex(Fraction(1))] + [
            QComplex(c, rng.choice(middle) if trial % 3 == 0 else Fraction(0)) for c in middle
        ] + [QComplex(Fraction(rng.choice([1, -3]), rng.choice([1, 7])))]
        logs = [fixed_point._log2_abs(c) for c in coeffs]
        for scale in (-1, 0, 1, rng.randint(-60, 60)):
            machine = root_analysis._machine_coeffs(coeffs, logs, scale)
            if machine is None:
                continue
            out, shift = machine
            for i, c in enumerate(coeffs):
                factor = Fraction(2) ** (i * scale - shift)
                assert out[i] == complex(float(c.re * factor), float(c.im * factor)), (c, i, scale)
                subnormals += 0 < abs(out[i].real) < sys.float_info.min
    assert subnormals > 20

    # log2|x| itself differs from the formula in about one x in a hundred.
    reals = fixed + [Fraction(rng.randint(-2 ** 200, 2 ** 200), rng.randint(1, 2 ** 200))
                     * Fraction(2) ** rng.randint(-5000, 5000) for _ in range(200)]
    reals += [Fraction(rng.randint(-2 ** 120, 2 ** 120), rng.randint(1, 2 ** 120))
              for _ in range(1000)]
    for x in reals:
        a2 = QComplex(x).abs2()
        expected = (None if a2 == 0 else
                    (math.log2(a2.numerator) - math.log2(a2.denominator)) / 2.0)
        assert fixed_point._log2_abs(QComplex(x)) == expected, x

    polys = [fixed_point._as_qcomplex_coeffs(
        two_clique_reliability(TwoCliqueParams(n, n, 1, 6)).deflate_unit_roots()[0])
        for n in range(3, 7)]
    polys += [[QComplex(Fraction(rng.randint(1, 2 ** rng.randint(1, 400))))
               if k in (0, d) or rng.random() < 0.8 else QComplex(Fraction(0))
               for k in range(d + 1)] for d in (1, 2, 5, 40, 300)]
    for coeffs in polys:
        evaluator = FixedEval(coeffs)
        batched = root_analysis._newton_polygon_starts(evaluator.hull)
        for got, want in zip(batched, _per_edge_starts(evaluator.hull)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for bits in (0, 1, 158):
            one = 1 << bits
            for zr, zi in [(0, 0), (one - 1, 0), (one, 0), (0, -one), (one - 1, 1)] + [
                    (rng.randint(-2 * one, 2 * one), rng.randint(-2 * one, 2 * one))
                    for _ in range(20)]:
                assert evaluator.value_error(zr, zi, bits) == evaluator.bounds(zr, zi, bits)[0]


def test_seeded_slopes_carry_their_own_power_of_two(monkeypatch):
    # The first step of the first freeze takes p' from the double sweep, as
    # a 53-bit mantissa and its own power of two.  Coefficients scaled by
    # 2^(e + k·s) put p' far outside double range, and the roots at 2^-s
    # give the sweep a scale of its own: every start must still polish
    # straight to its root.
    freezes = _recorded_freezes(monkeypatch)
    seeded = []
    newton = root_analysis._newton

    def recording(evaluator, z, bits, prec, slope=None):
        seeded.append(slope is not None)
        return newton(evaluator, z, bits, prec, slope)

    monkeypatch.setattr(root_analysis, "_newton", recording)
    rng = random.Random(20)
    for trial in range(20):
        d, gaussian = rng.randint(10, 80), trial % 2
        e, s = rng.randint(-300, 300), rng.randint(-20, 20)
        coeffs = [QComplex(Fraction(rng.choice([-1, 1]) * rng.randint(1, 99)),
                           Fraction(rng.randint(-99, 99) if gaussian else 0))
                  * QComplex(Fraction(2) ** (e + k * s)) for k in range(d + 1)]
        diag = find_roots(coeffs).diagnostics
        assert diag.reswept == 0 and diag.escalations == 0, (trial, diag)
        assert diag.direct == d
    assert all(seeded)
    _assert_freeze_bound(freezes)


def test_moduli_ignore_mpmath_working_precision():
    # check_modulus_bound and roots_csv take the root moduli at the root
    # set's precision, and mpf_to_fraction reads ints and floats exactly,
    # not at mpmath's working precision.
    g = two_clique_graph(TwoCliqueParams(3, 3, 1, 6))
    rs = find_roots(RatPoly([1, 3, 6, 6]))
    expected = check_modulus_bound(g), roots_csv(rs)
    with mp.workprec(8):
        got = check_modulus_bound(g), roots_csv(rs)
        exact = mpf_to_fraction(1000003), mpf_to_fraction(0.1)
        assert mp.mp.prec == 8
    assert got == expected
    assert expected[0].max_modulus == pytest.approx(1.0412603341, abs=1e-10)
    assert exact == (1000003, Fraction(0.1))


def test_one_evaluator_per_factor(monkeypatch):
    # A factor's solve reads every precision, escalations included, off the
    # one FixedEval built for it; so does each polished root disk.
    built = []
    init = FixedEval.__init__

    def counted(self, coeffs):
        built.append(len(coeffs) - 1)
        init(self, coeffs)

    monkeypatch.setattr(FixedEval, "__init__", counted)
    third = Fraction(1, 3)
    cluster = [third, third + Fraction(1, 2 ** 100), third + Fraction(1, 2 ** 99), -2,
               Fraction(5, 7)]
    assert find_roots(_product(cluster), 256).diagnostics.escalations == 1
    assert built == [5]
    built.clear()
    find_roots(_product([2, 2, 3]))
    assert built == [1, 1]
    base = two_clique_reliability(TwoCliqueParams(3, 3, 1, 6)).deflate_unit_roots()[0]
    for bits in (128, 256):
        built.clear()
        assert polished_root_disk(base, (BASE_ROOT_BOX.a_lo + BASE_ROOT_BOX.a_hi) / 2,
                                  (BASE_ROOT_BOX.b_lo + BASE_ROOT_BOX.b_hi) / 2, bits)
        assert built == [base.degree]


def test_solver_neither_reads_nor_sets_mpmath_precision():
    # Roots, residuals and disks are exact dyadics from the fixed-point
    # integers: mpmath's working precision changes none of them, and the
    # solver leaves it as it found it.
    rel = two_clique_reliability(TwoCliqueParams(3, 3, 1, 6))
    base = rel.deflate_unit_roots()[0]
    gaussian = _cproduct({QComplex(Fraction(1), Fraction(2)): 2, QComplex(Fraction(-1, 3)): 1})
    centre = ((BASE_ROOT_BOX.a_lo + BASE_ROOT_BOX.a_hi) / 2,
              (BASE_ROOT_BOX.b_lo + BASE_ROOT_BOX.b_hi) / 2)

    def solve():
        return find_roots(gaussian), reliability_root_set(rel), polished_root_disk(base, *centre)

    expected = solve()
    with mp.workprec(8):
        got = solve()
        assert mp.mp.prec == 8
    assert got == expected and expected[2] is not None


def test_worst_residual_matches_its_mpmath_value():
    # worst_residual_log2 comes from the fixed-point integers; the returned
    # exact dyadics give the same value through mpmath.
    cases = [two_clique_reliability(TwoCliqueParams(n, n, 1, 6)).deflate_unit_roots()[0]
             for n in range(3, 7)]
    cases += [RatPoly([-Fraction(1, 2 ** 2000), 0, 1]), RatPoly([-(2 ** 2000), 0, 1])]
    for p in cases:
        rs = find_roots(p)
        with mp.workprec(2 * rs.precision_bits + 64):
            worst = max(mp.log(r / abs(z), 2) for z, r in zip(rs.roots, rs.residuals))
        assert abs(rs.diagnostics.worst_residual_log2 - worst) <= 1e-9, p.degree


def _three_pass_horner(stack, z):
    """p, p' and the noise sum of ``_aberth_machine``'s stack, one Horner loop each."""
    def horner(cs, x):
        acc = np.full_like(x, cs[-1])
        for c in cs[-2::-1]:
            acc = acc * x + c
        return acc

    return horner(stack[0], z), horner(stack[1][:-1], z), horner(stack[2].real, np.abs(z))


def test_stacked_horner_matches_three_passes(monkeypatch):
    # The double sweep's one stacked Horner pass gives every value, and so
    # every root and iteration count, bit for bit as three loops would.
    inputs = []
    machine = root_analysis._aberth_machine

    def recording(coeffs, z):
        inputs.append((coeffs, z.copy()))
        return machine(coeffs, z)

    monkeypatch.setattr(root_analysis, "_aberth_machine", recording)
    for n in range(3, 7):
        find_roots(two_clique_reliability(TwoCliqueParams(n, n, 1, 6)).deflate_unit_roots()[0])
    rng = random.Random(1969)
    for _ in range(20):
        find_roots([QComplex(Fraction(rng.randint(-99, 99)), Fraction(rng.randint(-99, 99)))
                    for _ in range(rng.randint(3, 40))] + [QComplex(Fraction(1))])
    assert len(inputs) == 24
    stacked, calls = root_analysis._stacked_horner, []

    def checked(stack, z):
        rows = stacked(stack, z)
        p, dp, noise = _three_pass_horner(stack, z)
        assert rows[0].tobytes() == p.tobytes() and rows[1].tobytes() == dp.tobytes()
        assert rows[2].real.tobytes() == noise.tobytes() and not rows[2].imag.any()
        calls.append(z.size)
        return rows

    for coeffs, z in inputs:
        monkeypatch.setattr(root_analysis, "_stacked_horner", checked)
        roots, iterations = machine(coeffs, z)
        monkeypatch.setattr(root_analysis, "_stacked_horner", _three_pass_horner)
        want_roots, want_iterations = machine(coeffs, z)
        assert roots.tobytes() == want_roots.tobytes() and iterations == want_iterations
    assert len(calls) > 24 * 5


def _all_pairs_admit(held, z, radius) -> bool:
    if any((z[0] - x[0]) ** 2 + (z[1] - x[1]) ** 2 <= (radius + r) ** 2 for x, r in held):
        return False
    held.append((z, radius))
    return True


def test_windowed_admission_matches_an_all_pairs_scan():
    # A frozen disk is tested only when its real part lies within the
    # candidate's radius plus the widest frozen radius; the decisions must
    # be those of the all-pairs scan.  The wide disk's centre lies far
    # outside the window of the candidates' own radii, yet it covers them.
    wide = ((0, 0), 10 ** 6)
    rng = random.Random(4242)
    for trial in range(20):
        held = [wide]
        for _ in range(5):
            _all_pairs_admit(held, (rng.randint(2 * 10 ** 6, 3 * 10 ** 6),
                                    rng.randint(-10 ** 6, 10 ** 6)), rng.randint(1, 1000))
        disks = root_analysis._Disks(held)
        verdicts = []
        for _ in range(300):
            z = rng.randint(-2 * 10 ** 6, 4 * 10 ** 6), rng.randint(-2 * 10 ** 6, 2 * 10 ** 6)
            radius = rng.choice([1, 10, 10 ** 3, 10 ** 5]) * rng.randint(1, 9)
            verdicts.append(_all_pairs_admit(held, z, radius))
            assert disks.admit(z, radius) == verdicts[-1], (trial, z, radius)
        assert any(verdicts) and not all(verdicts)
    # Candidates whose own windows miss the wide disk's centre.
    disks = root_analysis._Disks([wide])
    assert not disks.admit((900_000, 0), 10) and not disks.admit((-999_000, 500), 1)
    assert disks.admit((1_000_020, 0), 10)


def _recorded_pairs(monkeypatch, rewire=None) -> list:
    """Patch the conjugate pairing to record (and optionally rewire) its pairs."""
    seen = []
    pairs = root_analysis._conjugate_pairs

    def recording(z):
        found = pairs(z)
        found = rewire(found) if rewire else found
        seen.append(found)
        return found

    monkeypatch.setattr(root_analysis, "_conjugate_pairs", recording)
    return seen


def test_mirrored_roots_are_exact_conjugates(monkeypatch):
    seen = _recorded_pairs(monkeypatch)
    h, _ = two_clique_reliability(TwoCliqueParams(4, 4, 1, 6)).deflate_unit_roots()
    rs = find_roots(h)
    (pairs,) = seen
    assert len(pairs) == rs.diagnostics.mirrored == 49
    for j, k in pairs.items():
        # A sum is zero only when exact, at any working precision.
        assert rs.roots[k].real == rs.roots[j].real and rs.roots[k].imag + rs.roots[j].imag == 0
        assert rs.roots[j].imag > 0
        assert rs.residuals[k] == rs.residuals[j]


def test_roots_and_residuals_are_exact_dyadics(monkeypatch):
    # The returned values are the fixed-point integers times 2^-bits,
    # unrounded: roots of modulus > 1 carry more bits than the working
    # precision, and the cluster's residuals more than 53.
    solves = []
    roots = _Solve.roots

    def recording(self):
        solves.append((self.bits, list(self.points), list(self.residuals)))
        return roots(self)

    monkeypatch.setattr(_Solve, "roots", recording)
    eps = Fraction(1, 10 ** 30)
    rs = find_roots(_product([2 + eps, 2 + 2 * eps, 2 + 3 * eps]), 128)
    ((bits, points, residuals),) = solves
    assert max(r.bit_length() for r in residuals) > 53
    assert max(zr.bit_length() for zr, _ in points) > bits
    scale = Fraction(1, 2 ** bits)
    for z, rho, (zr, zi), r in zip(rs.roots, rs.residuals, points, residuals):
        assert mpf_to_fraction(z.real) == zr * scale
        assert mpf_to_fraction(z.imag) == zi * scale
        assert mpf_to_fraction(rho) == r * scale


def _conjugate_pair_product(pairs, reals) -> tuple[list, dict]:
    exact = {QComplex(Fraction(r)): 1 for r in reals}
    for re, im in pairs:
        exact[QComplex(Fraction(re), Fraction(im))] = 1
        exact[QComplex(Fraction(re), -Fraction(im))] = 1
    return _cproduct(exact), exact


def test_wrong_pairing_costs_a_sweep_not_a_root(monkeypatch):
    # Unpair one true pair (j1, k1) whose lower start k1 is polished before
    # j1, and mirror j1 into the lower slot k2 of another pair: the mirror
    # duplicates the root k1 already froze, so k2 must be re-swept (without
    # an escalation) to the root it was meant for.
    def rewire(pairs):
        j1 = next(j for j, k in pairs.items() if k < j)
        j2 = next(j for j in pairs if j != j1)
        wrong = {j: k for j, k in pairs.items() if j not in (j1, j2)}
        wrong[j1] = pairs[j2]
        return wrong

    seen = _recorded_pairs(monkeypatch, rewire)
    p, exact = _conjugate_pair_product(
        [(Fraction(k, 3), Fraction(k + 2, 5)) for k in range(-4, 5)], [Fraction(1, 7), 2, -3])
    with mp.workprec(300):
        rs = find_roots(p)
        _assert_multiplicities(rs, exact, mp.mpf(2) ** -100)
    assert len(seen) == 1 and len(seen[0]) >= 2
    diag = rs.diagnostics
    assert diag.reswept >= 1 and diag.escalations == 0, diag


def test_real_roots_and_near_real_pairs():
    # Wilkinson's polynomial has no pairs to mirror; (q-1)^2 + 10^-20 has a
    # pair 1e-10 off the axis that double precision sees as a double root.
    wilkinson = _product(range(1, 21))
    close, exact = _conjugate_pair_product([(1, Fraction(1, 10 ** 10))], [])
    with mp.workprec(300):
        rs = find_roots(wilkinson)
        _assert_matches(rs, [Fraction(k) for k in range(1, 21)], mp.mpf(2) ** -100)
        _assert_multiplicities(find_roots(close), exact, mp.mpf(2) ** -100)
    assert rs.diagnostics.mirrored == 0


def test_real_roots_are_proven_real(monkeypatch):
    # A real factor's root frozen near the axis is moved onto it, and its
    # disk grows by |Im z| so that it still holds the disk D(z, dρ) the
    # Newton loop proved: the grown disk is symmetric about the axis, so
    # the one root it holds is real.  Every such root prints im 0.
    polished = _recorded_freezes(monkeypatch)
    reals = [Fraction(-7, 3), Fraction(-1), Fraction(1, 5), Fraction(2), Fraction(9, 4)]
    p, exact = _conjugate_pair_product([(Fraction(1, 2), Fraction(3, 4)), (-2, Fraction(1, 3))],
                                       reals)
    rs = find_roots(p)
    d = len(exact)
    (bits,) = {b for _, _, _, b in polished}
    scale = Fraction(1, 2 ** bits)
    disks = [(mpf_to_fraction(z.real), mpf_to_fraction(z.imag), d * mpf_to_fraction(r))
             for z, r in zip(rs.roots, rs.residuals)]
    on_axis = [disk for disk in disks if disk[1] == 0]
    assert sorted(x for x, _, _ in on_axis) == pytest.approx([float(r) for r in reals])
    # Every exact root lies in exactly one reported disk.
    for r in exact:
        assert sum((x - r.re) ** 2 + (y - r.im) ** 2 <= radius ** 2
                   for x, y, radius in disks) == 1, r
    # Each real root's disk holds the disk the Newton loop proved, and some
    # polished real root was off the axis, so the growth was needed.
    moved = 0
    for (zr, zi), radius, _, _ in polished:
        match = [(x, rad) for x, _, rad in on_axis if x == zr * scale]
        if match and zi:
            ((x, rad),) = match
            moved += 1
            assert rad >= radius * scale + abs(zi) * scale
    assert moved >= 1
    csv = roots_csv(rs).splitlines()[1:]
    assert sum(line.split(",")[1] == "0.0" for line in csv) == len(reals)


def test_complex_coefficients_are_never_mirrored():
    # 1 + 2i and 1.001 - 2i look like a conjugate pair to the double starts,
    # but 1 - 2i is no root: nothing may be mirrored.
    exact = {QComplex(Fraction(1), Fraction(2)): 1,
             QComplex(Fraction(1001, 1000), Fraction(-2)): 1, QComplex(Fraction(3)): 1}
    with mp.workprec(300):
        rs = find_roots(_cproduct(exact))
        _assert_multiplicities(rs, exact, mp.mpf(2) ** -100)
    assert rs.diagnostics.mirrored == 0 and rs.diagnostics.escalations == 0


def test_fallback_resolves_wilkinson_30():
    # Double precision cannot separate these roots: most starts stay
    # unresolved after the capped polish and go through the fallback.
    with mp.workprec(300):
        rs = find_roots(_product(range(1, 31)))
        _assert_matches(rs, [Fraction(k) for k in range(1, 31)], mp.mpf(2) ** -100)
    # Per-root bookkeeping: the fallback finishes at the requested precision.
    assert rs.diagnostics.reswept >= 1 and rs.diagnostics.escalations == 0
    assert rs.diagnostics.direct + rs.diagnostics.reswept == 30


def test_fallback_separates_a_tight_cluster(monkeypatch):
    # Each re-swept point stops on its own: once settled, it is no longer
    # evaluated, so a re-sweep evaluates fewer points than sweeps x active.
    runs = []
    aberth = root_analysis._aberth

    class Counting:
        def __init__(self, evaluator):
            self.evaluator, self.calls = evaluator, 0

        def evaluate(self, *args):
            self.calls += 1
            return self.evaluator.evaluate(*args)

    def counting(evaluator, points, active, bits, tol_shift):
        counted = Counting(evaluator)
        sweeps = aberth(counted, points, active, bits, tol_shift)
        runs.append((counted.calls, sweeps * len(active)))
        return sweeps

    monkeypatch.setattr(root_analysis, "_aberth", counting)
    exact = [1 + Fraction(j, 10 ** 6) for j in range(8)] + [Fraction(k) for k in range(2, 12)]
    with mp.workprec(300):
        rs = find_roots(_product(exact))
        _assert_matches(rs, exact, mp.mpf(2) ** -100)
    assert rs.diagnostics.reswept >= 1 and rs.diagnostics.escalations == 0
    assert all(calls <= full for calls, full in runs)
    assert sum(calls for calls, _ in runs) < sum(full for _, full in runs), runs


def test_freeze_rejects_a_second_copy_of_a_root():
    # Two starts polish to the simple root 1: the second is re-swept to 2.
    solve = _Solve(FixedEval([QComplex(c) for c in _product([1, 2, 3]).coeffs]),
                   [(1.0001, 0), (1.0002, 0), (2.9, 0)], 256)
    assert solve.freeze([0, 1, 2]) == [1]
    assert solve.sweep([1]) == []
    assert [complex(z) for z in solve.roots()] == pytest.approx([1, 2, 3], abs=1e-30)
    # Start 1 would mirror into slot 2 but repeats the root i of start 0: both
    # go to the sweep, which finds -i and 2.
    coeffs = _cproduct({QComplex(Fraction(0), Fraction(s)): 1 for s in (1, -1)}
                       | {QComplex(Fraction(r)): 1 for r in (2, 3)})
    solve = _Solve(FixedEval(coeffs), [(1e-4 + 1j, 0), (2e-4 + 1j, 0), (0.3 - 1j, 0), (2.9, 0)],
                   256)
    assert solve.freeze([0, 1, 2, 3], {1: 2}) == [1, 2]
    assert solve.mirrored == 0 and solve.sweep([1, 2]) == []
    got = sorted((complex(z) for z in solve.roots()), key=lambda z: (round(z.real), z.imag))
    assert got == pytest.approx([-1j, 1j, 2, 3], abs=1e-30)


def test_freeze_admits_close_roots_with_disjoint_disks():
    # Roots 2^-30 apart are distinct for the disks D(z, 3·residual) at 64
    # bits, however near they look against 2^-prec/2.
    third = Fraction(1, 3)
    exact = [third, third + Fraction(1, 2 ** 30), Fraction(2)]
    p = _product(exact)
    solve = _Solve(FixedEval([QComplex(c) for c in p.coeffs]), [(float(r), 0) for r in exact], 64)
    assert solve.freeze([0, 1, 2]) == []
    rs = find_roots(p, 64)
    assert rs.diagnostics.worst_residual_log2 <= -rs.precision_bits / 2 + 10
    with mp.workprec(rs.precision_bits + 64):
        disks = [(z, 3 * r) for z, r in zip(rs.roots, rs.residuals)]
        for i, (z, r) in enumerate(disks):
            assert all(abs(z - w) > r + s for w, s in disks[i + 1:])
        for r in exact:
            v = mp.mpf(r.numerator) / r.denominator
            assert sum(abs(z - v) <= s for z, s in disks) == 1


@pytest.mark.parametrize("center, gap_log2", [(1, 100), (1, 130), (1, 150), (1, 200),
                                              (Fraction(1, 3), 125)])
def test_tight_clusters_resolve(center, gap_log2):
    # The multiprecision sweep's stop tightens with each escalation, so a
    # pair closer than 2^-60 gets Newton starts inside its own basins.
    exact = [Fraction(center), center + Fraction(1, 2 ** gap_log2), Fraction(2)]
    rs = find_roots(_product(exact), 256)
    with mp.workprec(rs.precision_bits + 64):
        _assert_matches(rs, exact, mp.mpf(2) ** -(gap_log2 + 20))


def _exact_reference(coeffs):
    """(zr, zi, bits) -> exact p(z), p'(z) and max_k |c_k|^2 |z|^(2k) at
    z = (zr + i·zi) / 2^bits.

    With D the common denominator of the coefficients, Horner over Gaussian
    integers gives sum_k D·c_k·(zr + i·zi)^k·2^(bits·(n−1−k)) = D·2^(bits·(n−1))·q(z)
    for a list q of n coefficients.  Floats only pick the candidates for the
    largest term, which is then taken exactly.
    """
    den = math.lcm(*(x.denominator for c in coeffs for x in (c.re, c.im)))
    ints = [(int(c.re * den), int(c.im * den)) for c in coeffs]
    dints = [(k * nr, k * ni) for k, (nr, ni) in enumerate(ints)][1:]
    sizes = [(c.abs2(), k) for k, c in enumerate(coeffs) if not c.is_zero()]

    def log2(x: Fraction) -> float:
        return math.log2(x.numerator) - math.log2(x.denominator)

    def at(zr: int, zi: int, bits: int):
        # Cancel the common power of two, so that short dyadic points stay cheap.
        shift = min((v & -v).bit_length() - 1 for v in (zr, zi, 1 << bits) if v)
        zr, zi, bits = zr >> shift, zi >> shift, bits - shift

        def value(ints):
            ar = ai = 0
            for j, (nr, ni) in enumerate(reversed(ints)):
                ar, ai = (ar * zr - ai * zi + (nr << (bits * j)),
                          ar * zi + ai * zr + (ni << (bits * j)))
            scale = den << (bits * (len(ints) - 1))
            return QComplex(Fraction(ar, scale), Fraction(ai, scale))

        r2 = Fraction(zr * zr + zi * zi, 1 << (2 * bits))
        if r2 == 0:
            top2 = coeffs[0].abs2()
        else:
            logs = [log2(s) + k * log2(r2) for s, k in sizes]
            top2 = max(s * r2 ** k for (s, k), lg in zip(sizes, logs) if lg >= max(logs) - 2)
        return value(ints), value(dints), top2

    return at


def test_fixed_eval_against_exact_evaluation():
    rng = random.Random(2718)

    def rand_frac(spread):
        return Fraction(rng.randint(1, 2 ** 40) * rng.choice([-1, 1]),
                        rng.randint(1, 2 ** 40)) * Fraction(2) ** rng.randint(-spread, spread)

    def check(reference, evaluator, zr, zi, bits):
        p, dp, top2 = reference(zr, zi, bits)
        pr, pi, dr, di, err_p, err_dp, t = evaluator.evaluate(zr, zi, bits)
        unit = Fraction(2) ** -t
        p_err2 = (QComplex(pr * unit, pi * unit) - p).abs2()
        dp_err2 = (QComplex(dr * unit, di * unit) - dp).abs2()
        assert p_err2 <= (err_p * unit) ** 2
        assert dp_err2 <= (err_dp * unit) ** 2
        # The scale keeps the bound below 2^-bits of the largest term.
        assert (err_dp * unit * 2 ** bits) ** 2 <= top2

    for trial in range(60):
        d = rng.randint(1, 40)
        spread = 200 if trial % 2 else 8
        coeffs = [QComplex(rand_frac(spread), rand_frac(spread) if trial % 3 else Fraction(0))
                  for _ in range(d + 1)]
        bits = rng.choice([83, 158, 286])
        evaluator, reference = FixedEval(coeffs), _exact_reference(coeffs)
        for _ in range(4):
            # A dyadic point, exactly representable at ``bits`` bits.
            scale = rng.randint(0, 48)
            zr = rng.randint(-2 ** 50, 2 ** 50) << (bits - scale)
            zi = rng.randint(-2 ** 50, 2 ** 50) << (bits - scale)
            check(reference, evaluator, zr, zi, bits)

    # Degree 240, beyond the largest table1 row, and degree 16, each with a
    # real and a complex table.  At a real point near 1 the floors of the
    # recurrence add up in p' as sum_k k x^(k-1) floor_k: a bound without
    # the factor k fails there.  Near-real points, and points far inside
    # and outside the unit circle, follow.
    bits = 286
    for d, far in [(240, 4), (16, 2 ** 20)]:
        for complex_coeffs in (False, True):
            coeffs = [QComplex(rand_frac(8), rand_frac(8) if complex_coeffs else Fraction(0))
                      for _ in range(d + 1)]
            evaluator, reference = FixedEval(coeffs), _exact_reference(coeffs)
            for x in (1 - Fraction(1, 2 ** 20), Fraction(-127, 128), Fraction(1, 2 ** 30),
                      Fraction(far), Fraction(-far)):
                zr = fixed_point._scaled_int(x, bits)
                for zi in (0, 1 << (bits - 60), -(zr >> 40)):
                    check(reference, evaluator, zr, zi, bits)
            for radius in (Fraction(1, 2 ** 30), Fraction(1), Fraction(far)):
                check(reference, evaluator, fixed_point._scaled_int(radius * Fraction(3, 4), bits),
                      fixed_point._scaled_int(radius * Fraction(5, 8), bits), bits)


def test_fixed_eval_scale_reads_the_largest_term_off_the_hull():
    # evaluate's scale t comes from max_k log2|c_k| + k·log2|z|, read off the
    # upper hull of the points (k, log2|c_k|).  On the table1 polynomials it
    # must be the very float of the maximum over all terms, so that t, and
    # every table1 digit, stay as the maximum over all terms gives them.
    # The hull's own edge slopes, where two vertices tie, are points too.
    rng = random.Random(1974)
    for n in range(3, 10):
        h, _ = two_clique_reliability(TwoCliqueParams(m=n, n=n, a=1, b=6)).deflate_unit_roots()
        coeffs = fixed_point._as_qcomplex_coeffs(h)
        logs = [fixed_point._log2_abs(c) for c in coeffs]
        evaluator = FixedEval(coeffs)
        points = ([rng.uniform(-4, 4) for _ in range(500)]
                  + [rng.gauss(0, 0.1) for _ in range(500)] + evaluator._descents)
        for log_mod in points:
            assert evaluator._top_log2(log_mod) == max(lg + k * log_mod
                                                       for k, lg in enumerate(logs))


def _assert_multiplicities(rs, exact, tol):
    """Each exact root r with multiplicity m has exactly m computed roots
    within ``tol``, and no computed root is left over."""
    assert len(rs) == sum(exact.values())
    for r, mult in exact.items():
        v = mp.mpc(mp.mpf(r.re.numerator) / r.re.denominator,
                   mp.mpf(r.im.numerator) / r.im.denominator)
        assert sum(1 for z in rs.roots if abs(z - v) <= tol) == mult, (r, mult)


def _cproduct(exact) -> list:
    p = [QComplex(Fraction(1))]
    for r, mult in exact.items():
        for _ in range(mult):
            p = convolve(p, [-r, QComplex(Fraction(1))])
    return p


def test_triple_roots_get_exact_multiplicities(tmp_path, capsys):
    q2 = RatPoly([1, 1, 1])
    p = q2 * q2 * q2 * RatPoly([-2, 1])
    with mp.workprec(300):
        rs = find_roots(p)
        w = mp.mpc(-0.5, mp.sqrt(3) / 2)
        for v, mult in ((w, 3), (mp.conj(w), 3), (mp.mpf(2), 1)):
            assert sum(1 for z in rs.roots if abs(z - v) <= mp.mpf(2) ** -100) == mult
    assert len(rs) == 7
    # The solver met the three distinct roots once each.
    assert rs.diagnostics.direct + rs.diagnostics.reswept == 3
    f = tmp_path / "triple.json"
    f.write_text(p.to_json())
    assert main(["roots", str(f)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 7


def test_gaussian_triple_root():
    exact = {QComplex(Fraction(1), Fraction(2)): 3, QComplex(Fraction(-1, 2)): 1}
    with mp.workprec(300):
        _assert_multiplicities(find_roots(_cproduct(exact)), exact, mp.mpf(2) ** -100)


def test_seeded_products_of_powers(monkeypatch):
    freezes = _recorded_freezes(monkeypatch)
    rng = random.Random(8128)

    def gaussian():
        re = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        return QComplex(re, Fraction(rng.randint(-40, 40), rng.randint(1, 9)))

    for trial in range(12):
        # Multiplicities 1..4, with integer roots in even trials and
        # Gaussian-rational roots in odd ones; a factor has 1 or 2 roots.
        exact = {}
        for mult in range(1, 5):
            for _ in range(rng.randint(1, 2)):
                r = gaussian() if trial % 2 else QComplex(Fraction(rng.randint(-30, 30)))
                exact.setdefault(r, mult)
        lead = QComplex(Fraction(rng.randint(1, 50), rng.randint(1, 50)))
        p = [lead * c for c in _cproduct(exact)]
        factors = squarefree_split(p)
        assert sorted(mult for _, mult in factors) == sorted(set(exact.values()))
        with mp.workprec(300):
            _assert_multiplicities(find_roots(p), exact, mp.mpf(2) ** -100)
    _assert_freeze_bound(freezes)


def test_squarefree_input_failing_the_modular_certificate():
    # q^2 + p is squarefree, but its image q^2 in GF(p)[q] is not.
    p = [QComplex(Fraction(1_000_000_009)), QComplex(Fraction(0)), QComplex(Fraction(1))]
    assert not _squarefree_mod_p(p)
    assert squarefree_split(p) == [([QComplex(Fraction(1_000_000_009)), QComplex(Fraction(0)),
                                     QComplex(Fraction(1))], 1)]
    with mp.workprec(300):
        rs = find_roots(p)
        root = mp.sqrt(1_000_000_009)
        got = sorted(rs.roots, key=lambda z: z.imag)
        for z, v in zip(got, (-root, root)):
            assert abs(z - mp.mpc(0, v)) <= root * mp.mpf(2) ** -100
    assert len(rs) == 2


def test_roots_beyond_double_range_start_on_their_own_scale():
    # The starts come from the Newton polygon and the double sweep runs on
    # p(2^s y) for an exact power of two 2^s; a polynomial that fits no one
    # double scale hands its starts to the fixed-point sweep as y * 2^e.  No
    # start is clamped into double range and walked in from there.
    a = Fraction(1, 2 ** 3000)
    huge = find_roots(RatPoly([-(2 ** 3000), 0, 1]))
    assert huge.diagnostics.sweeps <= 16
    tiny = find_roots(RatPoly([1, 0, -(2 ** 6000)]))
    assert tiny.diagnostics.direct == 2
    both = find_roots(RatPoly([1, -(a + 1 / a), 1]))
    assert both.diagnostics.machine_iterations == 0
    big = Fraction(2 ** 1500)
    for rs, exact in ((huge, [-big, big]), (tiny, [-a, a]), (both, [a, 1 / a])):
        with mp.workprec(rs.precision_bits + 64):
            for r in exact:
                v = mp.mpf(r.numerator) / r.denominator
                assert min(abs(z - v) for z in rs.roots) <= abs(v) * mp.mpf(2) ** -200, v


def test_tiny_roots_keep_their_relative_accuracy():
    # Roots ±2^-1000: thresholds relative to |z|, guard bits from an
    # uncapped lower root bound and starts on the Newton polygon's circle
    # resolve them straight from double precision, instead of reporting
    # points hundreds of orders of magnitude too large.
    rs = find_roots(RatPoly([1, 0, -(2 ** 2000)]))
    assert rs.diagnostics.escalations == 0 and rs.diagnostics.direct == 2
    with mp.workprec(rs.precision_bits + 64):
        target = mp.ldexp(1, -1000)
        got = sorted(rs.roots, key=lambda z: z.real)
        for z, v in zip(got, (-target, target)):
            assert abs(z - v) <= target * mp.mpf(2) ** -200
