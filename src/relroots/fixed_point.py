"""Fixed-point evaluation of complex polynomials, and Newton's method with
a proven residual bound.

A point is a pair of Python integers (zr, zi) standing for
z = (zr + i·zi) / 2^bits.  ``FixedEval`` evaluates p and p' there with a
proven error bound, and ``_newton`` polishes a start near a simple root to
the first iterate z whose own evaluation proves ρ ≥ |p(z)/p'(z)| tight
enough that the disk D(z, dρ), d the degree, holds a root.  The root
solver (``root_analysis``) freezes its roots this way, and
``polished_root_disk`` gives such a disk on its own, with no root solve.

At z = x + iy ``FixedEval`` runs one real second-order recurrence,
b_k = c_k + 2x·b_{k+1} − |z|²·b_{k+2}, which divides p by the real
quadratic (X − z)(X − z̄) (Knuth, TAOCP vol. 2, §4.6.4), and the same
recurrence over b_d..b_2 for the quotient Q: p(z) = (b_0 − x·b_1) + i·y·b_1
and p'(z) = b_1 + 2iy·Q(z), at four real products per step where complex
Horner takes eight.  Complex coefficients run it on their real and their
imaginary parts.  Each step floors once, and a floor only perturbs a
coefficient, by less than 3/2 units with its rounding; so p is off by at
most (3/2)·Σ|z|^k units and p' by (3/2)·Σ k·|z|^(k−1) + 2·Σ|z|^k, per
part (``FixedEval`` has the proof).
"""

from __future__ import annotations

import bisect
import cmath
import math
from fractions import Fraction
from typing import Sequence, Union

from .errors import InputError, NumericalError
from .polynomials import QComplex, RatPoly, cpoly_normalize

DEFAULT_PRECISION_BITS = 256
# The root solver doubles its precision while roots fail, up to this cap.
MAX_PRECISION_BITS = 4096
# At working precision prec a point carries prec + 30 guard bits, and in the
# root solver enough bits more that a lower bound on the root moduli below 1
# still gets prec + 30 significant bits.
_GUARD_BITS = 30
_SCALE_STEP = 16        # coefficient scalings are cached in steps of 16 bits
_POLISH_STEPS = 40      # Newton steps before an unproven start counts as unresolved

PolyLike = Union[RatPoly, Sequence]


def _as_qcomplex_coeffs(p: PolyLike) -> list[QComplex]:
    if isinstance(p, RatPoly):
        return cpoly_normalize(list(p.coeffs))
    return cpoly_normalize(list(p))


def _log2_abs(c: QComplex) -> float | None:
    """log2|c|, as half of log2 of |c|²'s numerator less its denominator's;
    None for c = 0.  A real c's |c|² is num²/den², already in lowest terms."""
    if c.im:
        a2 = c.abs2()
        num, den = a2.numerator, a2.denominator
    else:
        num, den = c.re.numerator, c.re.denominator
        num, den = num * num, den * den
    if num == 0:
        return None
    return (math.log2(num) - math.log2(den)) / 2.0


def _upper_hull(logs: list[float | None]) -> list[tuple[int, float]]:
    """Vertices (k, l(k)) of the upper convex hull of the points (k, logs[k]),
    left to right, skipping the None entries (zero coefficients)."""
    hull: list[tuple[int, float]] = []
    for k, lk in enumerate(logs):
        if lk is None:
            continue
        # Drop the last vertex while it lies on or below the chord to (k, lk).
        while len(hull) >= 2 and ((hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
                                  <= (lk - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append((k, lk))
    return hull


def _rounded(num: int, den: int, t: int) -> int:
    """num/den * 2^t, den > 0, rounded to the nearest integer (ties up)."""
    if t >= 0:
        num <<= t
    else:
        den <<= -t
    return (2 * num + den) // (2 * den)


def _scaled_int(x: Fraction, t: int) -> int:
    """x * 2^t rounded to the nearest integer."""
    return _rounded(x.numerator, x.denominator, t)


def _to_fixed(z: complex, bits: int) -> tuple[int, int]:
    return _rounded(*z.real.as_integer_ratio(), bits), _rounded(*z.imag.as_integer_ratio(), bits)


def _slope(w: complex, e: int) -> tuple[int, int, int] | None:
    """w·2^e as (mr, mi, x) with mr + i·mi ≈ w·2^(e−x) in integers of 53
    bits, whatever the size of w; None when w is zero or not finite."""
    if w == 0 or not cmath.isfinite(w):
        return None
    k = math.frexp(max(abs(w.real), abs(w.imag)))[1]
    return round(math.ldexp(w.real, 53 - k)), round(math.ldexp(w.imag, 53 - k)), e + k - 53


def _quotient(ar: int, ai: int, br: int, bi: int, bits: int) -> tuple[int, int] | None:
    """a / b for Gaussian integers a, b, as a fixed-point point (None if b = 0)."""
    n2 = br * br + bi * bi
    if n2 == 0:
        return None
    return ((ar * br + ai * bi) << bits) // n2, ((ai * br - ar * bi) << bits) // n2


def _modulus(zr: int, zi: int) -> int:
    return math.isqrt(zr * zr + zi * zi)


def _ratio(ar: int, ai: int, br: int, bi: int, shift: int) -> tuple[int, int] | None:
    """a / b · 2^shift for Gaussian integers a, b and any integer shift
    (None if b = 0)."""
    if shift >= 0:
        return _quotient(ar, ai, br, bi, shift)
    return _quotient(ar, ai, br << -shift, bi << -shift, 0)


def _b_pass(table: list[int], zr: int, r2: int, bits: int) -> list[int]:
    """b_d, ..., b_1, b_0 of ``FixedEval``'s first recurrence over one real
    coefficient table, highest degree first, at a point with real part
    zr / 2^bits and squared modulus r2 / 2^(2·bits)."""
    two_bits, s = 2 * bits, zr << bits + 1
    bs = []
    push = bs.append
    b1 = b2 = 0
    for c in table:
        b1, b2 = c + ((s * b1 - r2 * b2) >> two_bits), b1
        push(b1)
    return bs


def _value_pass(table: list[int], zr: int, r2: int, bits: int) -> tuple[int, int]:
    """(b_0, b_1) of ``_b_pass`` at the same point, with no list of the b's."""
    two_bits, s = 2 * bits, zr << bits + 1
    b1 = b2 = 0
    for c in table:
        b1, b2 = c + ((s * b1 - r2 * b2) >> two_bits), b1
    return b1, b2


def _e_pass(bs: list[int], zr: int, r2: int, bits: int) -> tuple[int, int]:
    """(e_2, e_3) of ``FixedEval``'s second recurrence, over the b_d..b_2
    that ``_b_pass`` returned at the same point."""
    two_bits, s = 2 * bits, zr << bits + 1
    e1 = e2 = 0
    for b in bs[:-2]:
        e1, e2 = b + ((s * e1 - r2 * e2) >> two_bits), e1
    return e1, e2


def _combine(zr: int, zi: int, bits: int, b0: int, b1: int, f0: int, f1: int) -> tuple[int, int]:
    """(p re, p im) from b_0, b_1 of the real table and f_0, f_1 of the
    imaginary one: p = (b_0 − x·b_1 − y·f_1) + i·(f_0 + y·b_1 − x·f_1)."""
    return b0 + ((-zr * b1 - zi * f1) >> bits), f0 + ((zi * b1 - zr * f1) >> bits)


class FixedEval:
    """p and p' at fixed-point points, in Python integers at the ``bits``
    bits each call passes.

    At a point z the coefficients are the integers round(c_k 2^t), real and
    imaginary parts apart.  The scale t comes from the polynomial, as
    ``root_analysis._machine_coeffs`` chooses its shift: the largest term |c_k| |z|^k,
    times 2^t, is at least 2^bits times the bound err_dp below, so tiny,
    huge or complex rational coefficients keep their relative accuracy.
    Scaled coefficient tables are cached for t in steps of 16 bits, keyed
    by t alone, so one evaluator serves every precision.  The
    largest term's log2, max_k log2|c_k| + k·log2|z|, is attained at a vertex
    of the upper hull of the points (k, log2|c_k|): the first one whose next
    edge falls by at least log2|z| per degree.

    Recurrence (Knuth, TAOCP vol. 2, §4.6.4).  With z = x + iy, s = 2x and
    r = |z|², z is a root of q(X) = X² − sX + r.  For real a_0..a_d, the
    recurrence b_k = a_k + s·b_{k+1} − r·b_{k+2} (b_{d+1} = b_{d+2} = 0)
    gives the polynomial identity

        Σ a_k X^k = q(X)·Q(X) + b_1·(X − s) + b_0,   Q(X) = Σ_{k≥2} b_k X^(k−2),

    so P(z) = (b_0 − x·b_1) + i·y·b_1 and P'(z) = b_1 + 2iy·Q(z).  The same
    recurrence over b_d..b_2, e_k = b_k + s·e_{k+1} − r·e_{k+2}, gives
    Q(z) = (e_2 − x·e_3) + i·y·e_3.  ``evaluate`` keeps the b's
    (``_b_pass``) and runs the e's over them in a second pass
    (``_e_pass``); ``value`` runs the same steps but keeps only b_1 and b_0
    (``_value_pass``), so it gives p alone, bit for bit as ``evaluate``
    gives it, for half the work and no list.  With s·2^bits taken once, a
    step costs two real products where complex Horner costs four per
    value.  A complex table runs the loop on
    its real and its imaginary parts, p = P_re + i·P_im.  s and r are
    exact (r at 2·bits), so each step rounds once, by a floor.

    Error bound, in units of 2^-t (after W. M. Gentleman, Computer J. 1969).
    Let a_k be a part's exact scaled coefficients and M = max(1, |z|).
    - Rounding a_k to an integer (at most 1/2) and the floor φ_k ∈ [0, 1)
      of step k only change the coefficient: the computed b_k are the exact
      remainders of P̃ with coefficients a_k + δ_k, |δ_k| < 3/2.  The
      identity holds for P̃ exactly, so the b's give P̃(z) and P̃'(z), with
      |P̃(z) − P(z)| ≤ (3/2)·G, G = Σ_{k≤d} |z|^k, and
      |P̃'(z) − P'(z)| ≤ (3/2)·G₁, G₁ = Σ_{k≤d} k·|z|^(k−1).
    - Seen forward, an error at step j reaches b_k through
      U_m = (z^(m+1) − z̄^(m+1))/(z − z̄) = Σ_{i≤m} z^i z̄^(m−i), m = j − k,
      and |U_m| ≤ (m+1)·M^m.  At a real z the bound is attained and b_1 is
      P̃'(x): the factor m + 1 is the k of G₁ and cannot be dropped.
    - The floors ψ_k ∈ [0, 1) of the e-recurrence make it evaluate
      Q − Σ ψ_k X^(k−2), exactly as above.  Times 2iy that costs at most
      2|y|·Σ_{k≤d−2} |z|^k ≤ 2G.
    - p and p' then round once per real component, under √2 each.
    With 2^e ≥ M^d (one spare bit for the float logarithm),
    G ≤ (d+1)·2^e and G₁ ≤ d(d+1)/2·2^e.  With n = 1 part for a real table
    and 2 for a complex one, ``evaluate`` returns the integers
    err_p = 3n(d+1)·2^(e−1) + 2 ≥ n·(3/2)·G + √2 and
    err_dp = n(3d+8)(d+1)·2^(e−2) + 2 ≥ n·((3/2)·G₁ + 2G) + √2.
    """

    def __init__(self, coeffs: list[QComplex]):
        self.coeffs = coeffs
        self.degree = len(coeffs) - 1
        self.real = all(c.im == 0 for c in coeffs)
        self.logs = [_log2_abs(c) for c in coeffs]
        self.hull = _upper_hull(self.logs)
        # Minus the slope of each hull edge, increasing from left to right.
        self._descents = [(l1 - l2) / (k2 - k1)
                          for (k1, l1), (k2, l2) in zip(self.hull, self.hull[1:])]
        self._scaled: dict[int, tuple[list[int], list[int] | None]] = {}

    def _table(self, t: int) -> tuple[list[int], list[int] | None]:
        """Real and imaginary parts of round(c_k 2^t), highest degree first;
        no imaginary table for a real polynomial."""
        table = self._scaled.get(t)
        if table is None:
            table = ([_scaled_int(c.re, t) for c in reversed(self.coeffs)],
                     None if self.real else [_scaled_int(c.im, t) for c in reversed(self.coeffs)])
            self._scaled[t] = table
        return table

    def _top_log2(self, log_mod: float) -> float:
        """max_k log2|c_k| + k·log_mod.  The vertex comes from bisecting the
        edges; its two neighbours are compared too, so that rounding in the
        slopes cannot pick a vertex whose term is not the largest."""
        i = bisect.bisect_left(self._descents, log_mod)
        return max(lk + k * log_mod for k, lk in self.hull[max(i - 1, 0):i + 2])

    def bounds(self, zr: int, zi: int, bits: int) -> tuple[int, int, int]:
        """(err_p, err_dp, t) at z = (zr + i·zi) / 2^bits: the scale t that
        ``evaluate`` takes there and its error bounds, in units of 2^-t (at
        any scale, since they count units)."""
        d = self.degree
        log_mod = math.log2(_modulus(zr, zi) + 1) - bits
        e = math.ceil(d * max(log_mod, 0.0)) + 1
        g = (d + 1) << e
        parts = 1 if self.real else 2
        err_p = (3 * parts * g >> 1) + 2
        err_dp = (parts * (3 * d + 8) * g >> 2) + 2    # exact: (d+1)(3d+8) is even, e ≥ 1
        top = self._top_log2(log_mod)
        t = math.ceil((bits + math.log2(err_dp) + 1 - top) / _SCALE_STEP) * _SCALE_STEP
        return err_p, err_dp, t

    def value_error(self, zr: int, zi: int, bits: int) -> int:
        """``bounds``' err_p at z, with no square root or logarithm while
        |z| < 1: there the integer modulus m < 2^bits has log2(m + 1) ≤ bits,
        so e = 1 and err_p = 3n(d+1) + 2."""
        if zr * zr + zi * zi < 1 << 2 * bits:
            return 3 * (1 if self.real else 2) * (self.degree + 1) + 2
        return self.bounds(zr, zi, bits)[0]

    def value(self, zr: int, zi: int, bits: int, t: int) -> tuple[int, int]:
        """(p re, p im) at z = (zr + i·zi) / 2^bits in units of 2^-t, from
        b_1 and b_0 alone (``_value_pass``): what ``evaluate`` returns at z
        when its scale is t.  The error bound is ``bounds``' err_p."""
        re_table, im_table = self._table(t)
        r2 = zr * zr + zi * zi
        b0, b1 = _value_pass(re_table, zr, r2, bits)
        f0, f1 = _value_pass(im_table, zr, r2, bits) if im_table else (0, 0)
        return _combine(zr, zi, bits, b0, b1, f0, f1)

    def evaluate(self, zr: int, zi: int, bits: int) -> tuple[int, int, int, int, int, int, int]:
        """(p re, p im, p' re, p' im, err_p, err_dp, t) at z = (zr + i·zi) / 2^bits;
        all but t in units of 2^-t."""
        err_p, err_dp, t = self.bounds(zr, zi, bits)
        re_table, im_table = self._table(t)
        r2 = zr * zr + zi * zi
        bs = _b_pass(re_table, zr, r2, bits)
        e2, e3 = _e_pass(bs, zr, r2, bits)
        b1 = bs[-2]
        # f: the imaginary part's remainders, zero for a real polynomial.
        f0 = f1 = f2 = f3 = 0
        if im_table:
            fs = _b_pass(im_table, zr, r2, bits)
            f2, f3 = _e_pass(fs, zr, r2, bits)
            f0, f1 = fs[-1], fs[-2]
        pr, pi = _combine(zr, zi, bits, bs[-1], b1, f0, f1)
        # 2^bits (e_2 − x e_3) and 2^bits (f_2 − x f_3), exact.
        qr, qi = (e2 << bits) - zr * e3, (f2 << bits) - zr * f3
        dr = b1 + ((-2 * zi * (zi * e3 + qi)) >> (2 * bits))
        di = f1 + ((2 * zi * (qr - zi * f3)) >> (2 * bits))
        return pr, pi, dr, di, err_p, err_dp, t

    def residual(self, values: tuple, bits: int) -> int | None:
        """Upper bound on |p(z) / p'(z)| as a fixed-point integer at ``bits``
        bits (None: no bound), from the values ``evaluate`` returned at z."""
        pr, pi, dr, di, err_p, err_dp, _ = values
        num = _modulus(pr, pi) + 1 + err_p
        den = _modulus(dr, di) - err_dp
        if den <= 0:
            return None
        return -((-num << bits) // den)


def _within(d: int, limit: int, m: int, num: int, den: int = 1) -> bool:
    """d·num/den ≤ 2^-limit·m, exactly."""
    return d * num << limit <= m * den


def _proof_bits(d: int, limit: int, m: int, num: int, den: int, half: int, bits: int) -> int:
    """The lowest rung half + k·_SCALE_STEP, k ≥ 0, whose rounding floor F
    passes d·F ≤ 2^-(limit+2)·m, a quarter of the freeze bound, capped at
    ``bits``; F is num/den at half precision and halves with each bit added."""
    rung = half
    while rung < bits and not _within(d, limit + 2, m, num, den << rung - half):
        rung += _SCALE_STEP
    return min(rung, bits)


def _newton(evaluator: FixedEval, z: tuple[int, int], bits: int, prec: int,
            slope: tuple[int, int, int] | None = None) -> tuple[tuple[int, int], int] | None:
    """Newton's method from a start near a simple root, to (z, ρ), or None;
    z and ρ are fixed-point at ``bits`` bits, prec plus the guard bits.

    It returns at the first iterate z whose own evaluation proves
    ρ ≥ |p(z)/p'(z)| with d·ρ ≤ b = 2^-(prec/2+10)·|z|, d the degree; the
    same evaluation gives the Newton step when it does not.  Steps run at
    half precision, bits − prec/2 (guard bits kept), up to the step that
    should land inside b; a half-precision step never proves a residual.
    The first proving evaluation runs at the lowest rung, half precision
    plus a multiple of ``_SCALE_STEP`` bits, whose rounding floor
    F = err_p/|p'| passes d·F ≤ b/4 (``_proof_bits``).  F is read at the
    last half-precision point, with |p'| ≈ |p|/s₁, s₁ the step taken from
    it, and halves with each bit added.  z is truncated to the rung, which
    is an exact shift of its integers, and a proof there freezes
    (z, ρ·2^drop) at ``bits``, drop the bits the rung leaves out.  When it
    fails, its own Newton step is taken, and every later evaluation runs
    at full precision, ``bits``, as a proof and as a step.

    The first half step is a Newton step: p' comes from the same
    evaluation, or from ``slope``, (mr, mi, x) for p'(z) ≈ (mr + i·mi)·2^x,
    when the caller has one.  When that step s₁ shows the start inside the
    basin, 2·d·s₁ ≤ |z| (K·s₁ ≤ 1/2 for the K below), every later half step
    is a secant step through the last two half-precision points, p·Δz/Δp,
    with p at both points at one scale t: it runs the list-free b pass of
    ``FixedEval.value`` alone, about half of what an evaluation of p and p'
    costs, and reads err_p from ``FixedEval.value_error``; otherwise the
    half steps stay Newton steps.  Near a simple
    root the error contracts as e' ≈ K·e² under Newton and e' ≈ K·e·e₋
    under the secant, e₋ the error one point back (Ostrowski 1960; Traub
    1964), and a step is about the error it removes.  So with n₁ the step
    itself for a Newton step and the step before it for a secant step,
    the last two steps s₁ (the latest) and s₂ estimate K ≈ s₁/(s₂·n₂),
    and the error at z is e ≈ K·s₁·n₁.  After the first step K is taken as
    d/|z|, its size when the other roots lie about |z| away
    (K = |p''/2p'| at the root ζ is at most Σ 1/|ζ − ζ_j| over the
    others).  A full-precision Newton step from z lands at about K·e².  A
    half step cannot land closer than its rounding, F = err_p/|p'|, with
    |p'| taken as |p'| − err_dp from a Newton evaluation and as
    (|Δp| − 2·err_p)/|Δz| for a secant step.  z gets its proving
    evaluation when d·e ≤ b (z should prove), when e ≤ F (half precision
    has nothing left to give), or when d·K·e² ≤ b < d·F (the next step
    should land inside b, and a half step cannot).  A wrong estimate costs
    an evaluation, never a proof.  A secant step that fails (Δp = 0) or
    stops halving (from step 5 on) hands over to half-precision Newton
    steps.  A start whose Newton steps stop halving (from step 5 on), or
    that is not proven within ``_POLISH_STEPS`` steps, lies outside its
    basin and is left to the Aberth sweep.
    """
    zr, zi = z
    d, shift, limit = evaluator.degree, prec // 2, prec // 2 + 10
    half = bits - shift
    # s1, s2: the last two step sizes, and n1, n2 the other error each one's
    # model multiplies into K·e (the step itself for a Newton step, the step
    # before it for a secant step); floor: the last half step's F, None once
    # a proving evaluation has run or when that step had no bound; last:
    # the last half-precision point, p there, its scale t and err_p, None
    # once a proof has run.
    s1 = s2 = n1 = n2 = floor = last = None
    # secant, set by the first step: the later half steps are secant steps;
    # calm: the first step that must halve the one before it.
    secant, calm = False, 5
    for it in range(_POLISH_STEPS):
        m = _modulus(zr, zi)
        if s1 is None:
            prove = False
        elif floor is None:
            prove = True
        else:
            # K, e ≈ K·s1·n1 and K·e², each as a numerator over a denominator.
            k_num, k_den = (s1, s2 * n2) if s2 is not None else (d, m)
            e_num, e_den = k_num * s1 * n1, k_den
            prove = (_within(d, limit, m, e_num, e_den) or e_num <= floor * e_den
                     or (not _within(d, limit, m, floor)
                         and _within(d, limit, m, k_num * e_num * e_num, k_den * e_den * e_den)))
        partner = None
        if prove:
            drop = 0
            if last is not None:
                # The first proof: |p'| ≈ |p|/s1 at the last half-precision point.
                (_, (pr, pi), _, err_p), last = last, None
                drop = bits - _proof_bits(d, limit, m, err_p * s1, _modulus(pr, pi), half, bits)
            floor = None
            # z truncated to the rung, exactly: a proof there proves (z, ρ·2^drop) at bits.
            hr, hi, at = zr >> drop, zi >> drop, bits - drop
            zr, zi = hr << drop, hi << drop
            values = evaluator.evaluate(hr, hi, at)
            rho = evaluator.residual(values, at)
            if rho is not None and d * rho <= _modulus(hr, hi) >> limit:
                return (zr, zi), rho << drop
            step = _quotient(*values[:4], at)
            step = step and (step[0] << drop, step[1] << drop)
        else:
            hr, hi = zr >> shift, zi >> shift
            if s1 is None and slope is not None:
                # p'(z) ≈ M·2^x: the step p/p' is P/M · 2^(half − t − x).
                err_p, _, t = evaluator.bounds(hr, hi, half)
                pr, pi = evaluator.value(hr, hi, half, t)
                mr, mi, x = slope
                step = _ratio(pr, pi, mr, mi, half - t - x)
                bound = _ratio(err_p, 0, _modulus(mr, mi), 0, half - t - x)
                bound = bound and bound[0] << shift
            elif secant:
                (lr, li), (lpr, lpi), t, _ = last
                err_p = evaluator.value_error(hr, hi, half)
                pr, pi = evaluator.value(hr, hi, half, t)
                # The step p·Δz/Δp, and F ≈ err_p·|Δz|/(|Δp| − 2·err_p).
                dzr, dzi, dpr, dpi = hr - lr, hi - li, pr - lpr, pi - lpi
                step = _quotient(pr * dzr - pi * dzi, pr * dzi + pi * dzr, dpr, dpi, 0)
                den = _modulus(dpr, dpi) - 2 * err_p
                bound = (err_p * _modulus(dzr, dzi) // den) << shift if den > 0 else None
                partner = s1
            else:
                pr, pi, dr, di, err_p, err_dp, t = evaluator.evaluate(hr, hi, half)
                den = _modulus(dr, di) - err_dp
                bound = ((err_p << half) // den) << shift if den > 0 else None
                step = _quotient(pr, pi, dr, di, half)
            step = step and (step[0] << shift, step[1] << shift)
        size = step and _modulus(*step)
        if partner is not None and (step is None or (it >= calm and 2 * size > s1)):
            # The secant step failed or stopped halving: Newton steps from
            # here on, with as many steps to settle as from a start.
            secant, calm = False, it + 5
            continue
        if step is None or (s1 and it >= calm and 2 * size > s1):
            return None
        if not prove:
            floor, last = bound, ((hr, hi), (pr, pi), t, err_p)
        if s1 is None:
            # K·s₁ ≤ 1/2, K = d/|z|: each step should at least halve the error.
            secant = 2 * d * size <= m
        zr, zi = zr - step[0], zi - step[1]
        s1, s2, n1, n2 = size, s1, size if partner is None else partner, n1
    return None


def polished_root_disk(p: PolyLike, re, im, precision_bits: int = DEFAULT_PRECISION_BITS
                       ) -> tuple[Fraction, Fraction, Fraction] | None:
    """(re, im, radius) of a disk that holds a root of p, from Newton's
    method started at re + i·im, or None when Newton proves no tight disk.

    The start is polished by ``_newton`` in ``FixedEval`` at
    ``precision_bits`` plus guard bits, to the first z whose residual bound
    ρ ≥ |p(z)/p'(z)| passes d·ρ ≤ 2^-(precision_bits/2+10)·|z|, d the
    degree of p.  D(z, dρ) holds a root: p'/p(z) = Σ 1/(z − ζ_k) over the
    d roots with multiplicity gives min |z − ζ_k| ≤ d·|p(z)/p'(z)|
    (P. Henrici, Applied and Computational Complex Analysis I, 1974, §6.4).  That holds for any p, squarefree or
    not, and for any z; nothing here shows which root the disk holds.
    The values are the exact dyadics of the fixed-point computation.
    """
    coeffs = _as_qcomplex_coeffs(p)
    if len(coeffs) < 2:
        raise InputError("a root disk needs a polynomial of degree at least 1")
    evaluator, bits = FixedEval(coeffs), precision_bits + _GUARD_BITS
    start = _scaled_int(Fraction(re), bits), _scaled_int(Fraction(im), bits)
    polished = _newton(evaluator, start, bits, precision_bits)
    if polished is None:
        return None
    (zr, zi), rho = polished
    one = 1 << bits
    return Fraction(zr, one), Fraction(zi, one), Fraction(evaluator.degree * rho, one)


def _dyadic(raw) -> tuple[int, int]:
    """(m, e), m·2^e the exact value of a raw mpmath float: the one mpf reader."""
    sign, man, exp, _ = raw
    if not man and raw != (0, 0, 0, 0):  # mpmath's zero; inf and nan have man 0 too
        raise NumericalError("non-finite value has no exact rational")
    return (-int(man) if sign else int(man)), int(exp)
