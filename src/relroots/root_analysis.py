"""Complex root extraction, max-modulus queries and coefficient-ratio bounds.

The solver keeps books per root.  A simultaneous Aberth iteration in double
precision gives one start per root; every start is Newton-polished in
fixed-point Python integers at prec + 30 bits or more (``FixedHorner``),
and a root is frozen once its residual bound |p(z)/p'(z)| passes
2^(-prec/2+10)·max(1, |z|) and it duplicates no frozen root beyond its
multiplicity.  Only the roots left over are re-swept by a fixed-point Aberth
iteration whose sum runs over all current roots, then polished again; the
precision doubles (up to a cap) for the roots that still fail.  The final
root multiset is checked against exact symmetric functions of the
coefficients.  Every multiprecision evaluation of p and p' goes through
that one fixed-point path, whose error bound enters each reported residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import mpmath as mp
import numpy as np

from .errors import (DisconnectedGraphError, InputError, NumericalError,
                     RootFindingError)
from .multigraph import Multigraph, blocks, is_connected
from .polynomials import QComplex, RatPoly, cpoly_normalize
from .reliability import rel_auto

DEFAULT_PRECISION_BITS = 256
MAX_PRECISION_BITS = 4096

PolyLike = Union[RatPoly, Sequence]


@dataclass(frozen=True)
class SolverDiagnostics:
    """How ``find_roots`` reached its roots.

    ``direct`` roots were frozen straight from their double-precision
    starts; ``reswept`` roots went through multiprecision Aberth, which
    took ``sweeps`` sweeps over ``escalations`` precision doublings.
    ``worst_residual_log2`` is the largest log2(residual / max(1, |z|)) over
    the nonzero roots (None when there are none).
    """

    direct: int = 0
    reswept: int = 0
    sweeps: int = 0
    escalations: int = 0
    worst_residual_log2: float | None = None


@dataclass(frozen=True)
class RootSet:
    """Polished complex roots with per-root residual bounds |p(z)/p'(z)|."""

    roots: tuple
    residuals: tuple
    precision_bits: int
    diagnostics: SolverDiagnostics | None = field(default=None, compare=False)

    def moduli(self) -> list:
        return [abs(z) for z in self.roots]

    def max_modulus(self):
        return max(self.moduli())

    def __len__(self):
        return len(self.roots)


@dataclass(frozen=True)
class Annulus:
    """Closed annulus lo <= |z| <= hi with exact rational radii."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise InputError("annulus radii out of order")

    def contains(self, z, slack: float = 1e-9) -> bool:
        r = abs(z)
        return float(self.lo) - slack <= r <= float(self.hi) + slack


def _as_qcomplex_coeffs(p: PolyLike) -> list[QComplex]:
    if isinstance(p, RatPoly):
        return cpoly_normalize(list(p.coeffs))
    return cpoly_normalize(list(p))


def _to_mpc(c: QComplex) -> mp.mpc:
    return mp.mpc(mp.mpmathify(c.re), mp.mpmathify(c.im))


def _log2_abs(c: QComplex) -> float | None:
    a2 = c.abs2()
    if a2 == 0:
        return None
    return (math.log2(a2.numerator) - math.log2(a2.denominator)) / 2.0


def _initial_radius(coeffs: list[QComplex]) -> float:
    """Root-modulus bound for the starting circle.

    The minimum of the Cauchy and Fujiwara bounds, improved by the
    consecutive-coefficient-ratio bound when all coefficients are positive
    reals (the typical H-polynomial case, where it is far tighter).  All
    evaluated in the log domain so that the enormous coefficient ratios of
    high-degree H-polynomials cannot overflow.
    """
    d = len(coeffs) - 1
    lead = _log2_abs(coeffs[d])
    assert lead is not None
    logs = [_log2_abs(c) for c in coeffs]
    cauchy_log = max((lg - lead for lg in logs[:d] if lg is not None), default=None)
    if cauchy_log is None:
        return 1.0
    cauchy = 1.0 + (2.0 ** cauchy_log if cauchy_log < 1000 else math.inf)
    fujiwara_log = max(
        ((logs[d - k] - lead - (1.0 if k == d else 0.0)) / k
         for k in range(1, d + 1) if logs[d - k] is not None),
        default=0.0,
    )
    radius = min(cauchy, 2.0 * (2.0 ** min(fujiwara_log, 512.0)))
    if all(c.im == 0 and c.re > 0 for c in coeffs):
        ratio_log = max(logs[i - 1] - logs[i] for i in range(1, d + 1))
        radius = min(radius, 2.0 ** min(ratio_log, 512.0))
    return max(radius, 1e-6)


class _MachineFailure(Exception):
    pass


def _machine_coeffs(coeffs: list[QComplex], radius: float) -> np.ndarray:
    """Coefficients of p(radius * y), scaled by a power of two, as complex128.

    Substituting z = radius * y keeps the sweep iterates of order one, so
    Horner evaluation cannot overflow doubles no matter how large the
    degree or the coefficient ratios; the roots are rescaled afterwards.
    """
    log_r = math.log2(radius)
    logs = [_log2_abs(c) for c in coeffs]
    scaled_logs = [lg + i * log_r for i, lg in enumerate(logs) if lg is not None]
    shift = int(max(scaled_logs))
    out = np.zeros(len(coeffs), dtype=np.complex128)
    with mp.workprec(64):
        for i, c in enumerate(coeffs):
            factor = mp.mpf(2) ** (i * mp.log(mp.mpf(radius), 2) - shift)
            re = mp.mpmathify(c.re) * factor
            im = mp.mpmathify(c.im) * factor
            out[i] = complex(float(re), float(im))
    if not np.isfinite(out).all():
        raise _MachineFailure("coefficients outside double range")
    return out


def _start_angles(d: int) -> np.ndarray:
    # Equally spaced starting points with an irrational angular offset so
    # symmetric polynomials cannot stall the sweep.
    return 2.0 * math.pi * (np.arange(d) + 0.5) / d + 1.0 / 1.6180339887498949


def _aberth_machine(coeffs: np.ndarray, radius: float, max_iter: int = 400) -> np.ndarray:
    d = len(coeffs) - 1
    dcoeffs = coeffs[1:] * np.arange(1, d + 1)
    angles = _start_angles(d)
    z = radius * np.exp(1j * angles)

    def horner_vec(cs, x):
        acc = np.full_like(x, cs[-1])
        for c in cs[-2::-1]:
            acc = acc * x + c
        return acc

    with np.errstate(all="ignore"):
        for it in range(max_iter):
            pv = horner_vec(coeffs, z)
            pd = horner_vec(dcoeffs, z)
            bad = pd == 0
            if bad.any():
                pd = np.where(bad, 1e-300, pd)
            w = pv / pd
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            s = (1.0 / diff).sum(axis=1)
            denom = 1.0 - w * s
            denom = np.where(denom == 0, 1e-300, denom)
            dz = w / denom
            z = z - dz
            wild = ~np.isfinite(z)
            if wild.any():
                # Transient overflow escapes are reseeded on the circle and
                # the sweep carries on; validation decides in the end.
                z = np.where(wild, np.exp(1j * (angles + 0.1 * (it + 1))), z)
                continue
            if (np.abs(dz) <= 1e-13 * (1.0 + np.abs(z))).all():
                break
    if not np.isfinite(z).all():
        raise _MachineFailure("iteration diverged")
    return z


# ---------------------------------------------------------------------------
# Fixed-point multiprecision arithmetic
#
# A point is a pair of Python integers (zr, zi) standing for
# z = (zr + i*zi) / 2^P.  At working precision prec, P = prec + 30 guard bits,
# plus enough bits that a lower bound on the root moduli below 1 still gets
# prec + 30 significant bits.
# ---------------------------------------------------------------------------

_GUARD_BITS = 30
_SCALE_STEP = 16        # coefficient scalings are cached in steps of 16 bits
_POLISH_STEPS = 40      # Newton steps before a start counts as unresolved
_ABERTH_SWEEPS = 200    # multiprecision Aberth sweeps per precision level


def _scaled_int(x: Fraction, t: int) -> int:
    """x * 2^t rounded to the nearest integer."""
    num, den = x.numerator, x.denominator
    if t >= 0:
        num <<= t
    else:
        den <<= -t
    return (2 * num + den) // (2 * den)


def _to_fixed(z: complex, bits: int) -> tuple[int, int]:
    return _scaled_int(Fraction(z.real), bits), _scaled_int(Fraction(z.imag), bits)


def _quotient(ar: int, ai: int, br: int, bi: int, bits: int) -> tuple[int, int] | None:
    """a / b for Gaussian integers a, b, as a fixed-point point (None if b = 0)."""
    n2 = br * br + bi * bi
    if n2 == 0:
        return None
    return ((ar * br + ai * bi) << bits) // n2, ((ai * br - ar * bi) << bits) // n2


def _modulus(zr: int, zi: int) -> int:
    return math.isqrt(zr * zr + zi * zi)


class FixedHorner:
    """p and p' at fixed-point points, in Python integers at ``bits`` bits.

    At a point z the coefficients are the Gaussian integers
    ĉ_k = round(c_k 2^t).  The scale t comes from the polynomial, as
    ``_machine_coeffs`` chooses its shift: the largest term |c_k| |z|^k,
    times 2^t, is at least 2^bits times the error bound below, so tiny,
    huge or complex rational coefficients keep their relative accuracy.
    Scaled coefficient lists are cached for t in steps of 16 bits.

    Error bound: each coefficient rounding costs at most √2/2 and each
    floored product at most √2 units of 2^-t, so with G = Σ_{k≤d} |z|^k the
    returned p and p' (in units of 2^-t) lie within (3√2/2)·G of 2^t p(z)
    and within (3√2/2)·d·G + √2·G of 2^t p'(z).  ``evaluate`` returns
    integers err_p = 3·Ĝ and err_dp = 3(d+1)·Ĝ, where Ĝ = (d+1)·2^e ≥ G
    and 2^e ≥ max(1, |z|)^d with one spare bit for the float logarithm.
    """

    def __init__(self, coeffs: list[QComplex], bits: int):
        self.coeffs = coeffs
        self.bits = bits
        self.degree = len(coeffs) - 1
        logs = [_log2_abs(c) for c in coeffs]
        self._logs = np.array([-math.inf if lg is None else lg for lg in logs])
        self._powers = np.arange(len(coeffs), dtype=float)
        self._scaled: dict[int, tuple[list[int], list[int]]] = {}

    def _table(self, t: int) -> tuple[list[int], list[int]]:
        """Real and imaginary parts of round(c_k 2^t), highest degree first."""
        table = self._scaled.get(t)
        if table is None:
            table = ([_scaled_int(c.re, t) for c in reversed(self.coeffs)],
                     [_scaled_int(c.im, t) for c in reversed(self.coeffs)])
            self._scaled[t] = table
        return table

    def evaluate(self, zr: int, zi: int) -> tuple[int, int, int, int, int, int, int]:
        """(p re, p im, p' re, p' im, err_p, err_dp, t); all but t in units of 2^-t."""
        bits, d = self.bits, self.degree
        log_mod = math.log2(_modulus(zr, zi) + 1) - bits
        e = math.ceil(d * max(log_mod, 0.0)) + 1
        g_log = e + math.log2(d + 1)
        top = float(np.max(self._logs + self._powers * log_mod))
        t = math.ceil((bits + g_log + 2 + math.log2(d + 1) - top) / _SCALE_STEP) * _SCALE_STEP
        cr, ci = self._table(t)
        ar, ai = cr[0], ci[0]
        dr = di = 0
        for c_re, c_im in zip(cr[1:], ci[1:]):
            dr, di = ((dr * zr - di * zi) >> bits) + ar, ((dr * zi + di * zr) >> bits) + ai
            ar, ai = ((ar * zr - ai * zi) >> bits) + c_re, ((ar * zi + ai * zr) >> bits) + c_im
        g = (d + 1) << e
        return ar, ai, dr, di, 3 * g, 3 * (d + 1) * g, t

    def newton_step(self, zr: int, zi: int) -> tuple[int, int] | None:
        pr, pi, dr, di = self.evaluate(zr, zi)[:4]
        return _quotient(pr, pi, dr, di, self.bits)

    def residual(self, zr: int, zi: int) -> int | None:
        """Upper bound on |p(z) / p'(z)| as a fixed-point integer (None: no bound)."""
        pr, pi, dr, di, err_p, err_dp, _ = self.evaluate(zr, zi)
        num = _modulus(pr, pi) + 1 + err_p
        den = _modulus(dr, di) - err_dp
        if den <= 0:
            return None
        return -((-num << self.bits) // den)


def _polish(horner: FixedHorner, z: tuple[int, int], prec: int) -> tuple[tuple[int, int], int]:
    """Newton polishing with a multiplicity correction; returns (z, multiplicity).

    Near an isolated multiple root plain Newton contracts linearly by
    (mu-1)/mu, so a stable step ratio reveals the multiplicity and scaling
    the step by mu restores quadratic convergence.  A start whose steps stop
    halving after the multiplicity check, or that has not converged after
    ``_POLISH_STEPS`` steps, is left to the Aberth sweep.
    """
    bits = horner.bits
    zr, zi = z
    mu = 1
    prev_step = None
    for it in range(_POLISH_STEPS):
        step = horner.newton_step(zr, zi)
        if step is None:
            break
        zr, zi = zr - mu * step[0], zi - mu * step[1]
        size = _modulus(*step)
        if size <= max(1 << bits, _modulus(zr, zi)) >> (prec // 2):
            break
        if prev_step and it >= 3:
            ratio = size / prev_step
            if mu == 1 and 0.2 < ratio < 0.95:
                est = round(1 / (1 - ratio))
                if 2 <= est <= 16:
                    mu = est
            elif it >= 5 and ratio > 0.5:
                break  # no quadratic convergence: a start outside the basin
        prev_step = size
    return (zr, zi), mu


def _aberth(horner: FixedHorner, points: list, active: list[int], prec: int) -> int:
    """Aberth sweeps in fixed point that move only the points in ``active``.

    The Aberth sum runs over every current point, frozen roots included, so
    a re-swept point is pushed away from the roots already found.  The sweep
    only has to hand Newton a start inside its quadratic basin; it stops
    once no active point moves by more than 2^-min(prec/2, 60) relative.
    Returns the number of sweeps.
    """
    bits = horner.bits
    two_bits = 2 * bits
    one = 1 << bits
    tol_shift = min(prec // 2, 60)
    for sweep in range(1, _ABERTH_SWEEPS + 1):
        settled = True
        for k in active:
            zr, zi = points[k]
            w = horner.newton_step(zr, zi)
            if w is None:
                settled = False
                continue
            sr = si = 0
            for xr, xi in points:
                ar, ai = zr - xr, zi - xi
                n2 = ar * ar + ai * ai
                if n2:  # skips the point itself
                    sr += (ar << two_bits) // n2
                    si -= (ai << two_bits) // n2
            wr, wi = w
            dz = _quotient(wr, wi, one - ((wr * sr - wi * si) >> bits),
                           -((wr * si + wi * sr) >> bits), bits) or w
            zr, zi = zr - dz[0], zi - dz[1]
            points[k] = (zr, zi)
            if _modulus(*dz) > max(one, _modulus(zr, zi)) >> tol_shift:
                settled = False
        if settled:
            return sweep
    return _ABERTH_SWEEPS


def _multiset_consistent(roots: list, coeffs: list[QComplex], prec: int) -> bool:
    """Check the root multiset against exact symmetric functions.

    The sum of roots and the sum of squares are pinned by the top
    coefficients, so a sweep that collapsed two distinct roots into one
    (duplicating another) cannot pass, while genuine multiplicities do.
    """
    d = len(coeffs) - 1
    lead = _to_mpc(coeffs[-1])
    e1 = -_to_mpc(coeffs[-2]) / lead if d >= 1 else mp.mpc(0)
    s1 = mp.fsum(z.real for z in roots) + 1j * mp.fsum(z.imag for z in roots)
    big = max([mp.mpf(1)] + [abs(z) for z in roots])
    tol = d * mp.mpf(2) ** (-(prec // 2) + 8) * big * big
    if abs(s1 - e1) > tol:
        return False
    if d >= 2:
        e2 = _to_mpc(coeffs[-3]) / lead
        p2 = e1 * e1 - 2 * e2
        sq = [z * z for z in roots]
        s2 = mp.fsum(z.real for z in sq) + 1j * mp.fsum(z.imag for z in sq)
        if abs(s2 - p2) > tol:
            return False
    return True


class _Solve:
    """Per-root bookkeeping of one ``find_roots`` call.

    ``points[k]`` is root k once frozen (``residuals[k]`` is then set) and
    its current approximation otherwise.  Every point is held at the
    current working precision; escalation shifts them all exactly.
    """

    def __init__(self, coeffs: list[QComplex], starts, prec: int):
        self.coeffs = coeffs
        self.prec = prec
        smallest = 1.0 / _initial_radius(coeffs[::-1])
        self.guard_bits = _GUARD_BITS + max(0, math.ceil(-math.log2(smallest)))
        self.horner = FixedHorner(coeffs, prec + self.guard_bits)
        self.points = [_to_fixed(complex(z), self.horner.bits) for z in starts]
        self.residuals: list = [None] * len(self.points)
        self.reswept: set[int] = set()
        self.sweeps = 0
        self.escalations = 0

    def freeze(self, candidates: list[int]) -> list[int]:
        """Polish each candidate; freeze those that validate and duplicate no
        frozen root.  Returns the candidates left unresolved."""
        horner, bits = self.horner, self.horner.bits
        limit_shift = self.prec // 2 - 10
        frozen = [z for z, r in zip(self.points, self.residuals) if r is not None]
        unresolved = []
        for k in candidates:
            z, mu = _polish(horner, self.points[k], self.prec)
            residual = horner.residual(*z)
            limit = max(1 << bits, _modulus(*z)) >> limit_shift
            # A simple root may be found once; a root of multiplicity mu
            # (as the polish measured it) up to mu times.
            copies = sum(1 for x in frozen
                         if (z[0] - x[0]) ** 2 + (z[1] - x[1]) ** 2 <= limit * limit)
            if residual is None or residual > limit or copies >= mu:
                unresolved.append(k)
                continue
            self.points[k] = z
            self.residuals[k] = mp.ldexp(mp.mpf(residual), -bits)
            frozen.append(z)
        return unresolved

    def sweep(self, active: list[int]) -> list[int]:
        self.reswept.update(active)
        self.sweeps += _aberth(self.horner, self.points, active, self.prec)
        return self.freeze(active)

    def escalate(self, unfreeze: bool) -> None:
        old = self.horner.bits
        self.prec *= 2
        self.escalations += 1
        self.horner = FixedHorner(self.coeffs, self.prec + self.guard_bits)
        shift = self.horner.bits - old
        self.points = [(zr << shift, zi << shift) for zr, zi in self.points]
        if unfreeze:
            self.residuals = [None] * len(self.points)

    def roots(self) -> list:
        bits = self.horner.bits
        return [mp.mpc(mp.ldexp(mp.mpf(zr), -bits), mp.ldexp(mp.mpf(zi), -bits))
                for zr, zi in self.points]


def find_roots(p: PolyLike, precision_bits: int = DEFAULT_PRECISION_BITS) -> RootSet:
    """All complex roots of a polynomial with exact (complex-)rational coefficients.

    Exact roots at the origin are split off first.  Every double-precision
    Aberth start is Newton-polished in fixed point; the roots that validate
    are frozen, and only the rest are re-swept by multiprecision Aberth,
    first at ``precision_bits`` and then at doubled precisions.  Repeated
    roots are tolerated (the polish step corrects for multiplicity and the
    result is validated against exact symmetric functions), though the root
    at 1 of reliability polynomials should still be deflated upstream for
    speed and accuracy.  Raises :class:`RootFindingError` when roots still
    fail validation at the maximum escalated precision.
    """
    coeffs = _as_qcomplex_coeffs(p)
    if not coeffs:
        raise InputError("cannot find roots of the zero polynomial")
    if len(coeffs) == 1:
        raise InputError("cannot find roots of a constant polynomial")
    if precision_bits < 53:
        raise InputError("precision_bits must be at least 53")

    zero_mult = 0
    while coeffs[0].is_zero():
        coeffs = coeffs[1:]
        zero_mult += 1
    zeros = [mp.mpc(0)] * zero_mult
    zero_res = [mp.mpf(0)] * zero_mult

    d = len(coeffs) - 1
    if d == 0:
        return RootSet(roots=tuple(zeros), residuals=tuple(zero_res),
                       precision_bits=precision_bits, diagnostics=SolverDiagnostics())

    radius = _initial_radius(coeffs)
    try:
        # Sweep the rescaled polynomial p(s * y) from the unit circle; the
        # cap keeps s^d, and with it every Horner value, inside double range.
        s = min(radius, 2.0 ** (600.0 / d))
        starts = s * _aberth_machine(_machine_coeffs(coeffs, s), 1.0)
        from_machine = True
    except _MachineFailure:
        starts = radius * np.exp(1j * _start_angles(d))
        from_machine = False
    solve = _Solve(coeffs, starts, precision_bits)
    unresolved = list(range(d))
    if from_machine:
        unresolved = solve.freeze(unresolved)
    direct = d - len(unresolved)

    while True:
        if unresolved:
            unresolved = solve.sweep(unresolved)
        unfreeze = False
        if not unresolved:
            with mp.workprec(solve.horner.bits):
                roots = solve.roots()
                if _multiset_consistent(roots, coeffs, precision_bits):
                    worst = max(mp.log(r / max(1, abs(z)), 2)
                                for z, r in zip(roots, solve.residuals))
                    diagnostics = SolverDiagnostics(
                        direct=direct, reswept=len(solve.reswept), sweeps=solve.sweeps,
                        escalations=solve.escalations, worst_residual_log2=float(worst))
                    return RootSet(roots=tuple(zeros + roots),
                                   residuals=tuple(zero_res + solve.residuals),
                                   precision_bits=solve.prec, diagnostics=diagnostics)
            # A collapsed multiset: re-sweep every root at higher precision.
            unresolved = list(range(d))
            unfreeze = True
        if 2 * solve.prec > MAX_PRECISION_BITS:
            raise RootFindingError(
                "roots failed residual validation up to the precision cap; "
                "the polynomial may have multiple roots")
        solve.escalate(unfreeze)


def max_modulus_root(rs: RootSet):
    """Root of maximal modulus; ties go to the larger real part, then to the
    upper half plane (so a conjugate pair reports its +i member)."""
    if not rs.roots:
        raise InputError("empty root set")
    moduli = rs.moduli()
    mx = max(moduli)
    tol = mp.mpf(1e-10) * max(mp.mpf(1), mx)
    candidates = [z for z, r in zip(rs.roots, moduli) if r >= mx - tol]
    best = candidates[0]
    for z in candidates[1:]:
        if z.real > best.real + tol:
            best = z
        elif abs(z.real - best.real) <= tol and z.imag > best.imag:
            best = z
    return best


def enestrom_kakeya(p: RatPoly) -> Annulus:
    """Annulus of consecutive coefficient ratios containing all roots of a
    positive-coefficient polynomial."""
    if p.degree < 1:
        raise InputError("need degree >= 1 for a coefficient-ratio annulus")
    if any(c <= 0 for c in p.coeffs):
        raise InputError("coefficient-ratio bound requires strictly positive coefficients")
    ratios = [p.coeffs[i - 1] / p.coeffs[i] for i in range(1, len(p.coeffs))]
    return Annulus(lo=min(ratios), hi=max(ratios))


def reliability_root_set(rel: RatPoly, precision_bits: int = DEFAULT_PRECISION_BITS) -> RootSet:
    """Roots of a reliability polynomial, factoring (1-q)^k out exactly first.

    The massively multiple root at 1 would wreck the iteration, so it is
    deflated and re-attached with residual 0.
    """
    h, k = rel.deflate_unit_roots()
    if h.degree < 1:
        base = RootSet(roots=(), residuals=(), precision_bits=precision_bits,
                       diagnostics=SolverDiagnostics())
    else:
        base = find_roots(h, precision_bits)
    with mp.workprec(max(precision_bits, base.precision_bits)):
        ones = tuple(mp.mpc(1) for _ in range(k))
    return RootSet(roots=base.roots + ones,
                   residuals=base.residuals + tuple(mp.mpf(0) for _ in range(k)),
                   precision_bits=base.precision_bits, diagnostics=base.diagnostics)


@dataclass
class Theorem1Report:
    """Outcome of the order-based modulus bound checks for a 2-connected graph."""

    n: int
    m: int
    bound: int
    simple_vertex: bool
    max_modulus: float
    ratio: Fraction
    roots_within_bound: bool
    ratio_within_bound: bool

    @property
    def ok(self) -> bool:
        return self.roots_within_bound and self.ratio_within_bound


def check_modulus_bound(g: Multigraph, precision_bits: int = DEFAULT_PRECISION_BITS,
                        slack: float = 1e-9) -> Theorem1Report:
    """Verify the order bound on reliability root moduli for a 2-connected graph.

    Every root must satisfy |z| <= n-1, improving to n-2 when n >= 3 and some
    vertex has no incident multiple edges; the top H-vector ratio obeys the
    same bound exactly.
    """
    if not is_connected(g) or g.n < 2:
        raise InputError("modulus bound check needs a connected graph on >= 2 vertices")
    if len(blocks(g)) != 1:
        raise InputError("modulus bound check requires a 2-connected graph")

    simple_vertex = any(
        all(mult == 1 for a, b, mult in g.edges if v in (a, b))
        for v in range(g.n)
    )
    bound = g.n - 2 if (g.n >= 3 and simple_vertex) else g.n - 1

    rel = rel_auto(g)
    h, k = rel.deflate_unit_roots()
    if k != g.n - 1:
        raise NumericalError(f"expected (1-q)^{g.n - 1} to divide Rel exactly, got {k}")
    h_ints = [int(c) for c in h.coeffs]

    top = len(h_ints) - 1
    ratio = Fraction(h_ints[top - 1], h_ints[top]) if top >= 1 else Fraction(0)
    ratio_ok = ratio <= bound

    if h.degree >= 1:
        rs = find_roots(h, precision_bits)
        max_mod = float(max(max(rs.moduli()), mp.mpf(1)))
    else:
        max_mod = 1.0
    roots_ok = max_mod <= bound + slack

    return Theorem1Report(n=g.n, m=g.m, bound=bound, simple_vertex=simple_vertex,
                          max_modulus=max_mod, ratio=ratio,
                          roots_within_bound=roots_ok, ratio_within_bound=ratio_ok)
