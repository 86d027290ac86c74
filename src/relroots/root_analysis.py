"""Complex root extraction, max-modulus queries and coefficient-ratio bounds.

Multiplicity is exact algebra: the input is split into squarefree,
pairwise coprime factors first (``polynomials.squarefree_split``), and the
solver only ever meets simple roots.  It keeps books per root.  A
simultaneous Aberth iteration in double precision gives one start per root.
It starts from the Newton polygon of log2|c_k| (one circle per hull edge,
as many starts as the edge is long), sweeps the polynomial scaled by a
power of two so that those starts are of order one, and stops each root
on its own: once its step is below 1e-13 relative, or once |p(z)| has
stayed below the rounding-error bound 2^-53 * sum |c_k| |z|^k for ten
iterations running; only active roots are evaluated and moved.  Then
every start is Newton-polished in fixed-point Python integers
(``FixedEval``), at a working precision of prec + 30 bits or more.  The
steps run at prec/2 bits fewer up to the step that should land inside
the bound below; after the first, whose p' comes from the double sweep,
they are secant steps, which evaluate p alone.  The Newton loop stops at
the first point z whose own evaluation proves a residual bound
ρ ≥ |p(z)/p'(z)| with d·ρ ≤ 2^-(prec/2+10)·|z|, d the degree.  That
evaluation runs at the fewest bits, from half precision up in steps of
16, whose rounding floor stays below a quarter of the bound; only after
a proof there fails does Newton go on at the working precision.  z is
frozen once its disk D(z, dρ), which holds a root, is disjoint from the
disk of every frozen root, compared exactly in integers against the
disks near it in real part; the d frozen disks then hold every root
exactly once, and a root of a real p whose disk reaches the real axis is
proven real.  When p is real, a
lower-half start whose conjugate is plainly the nearest upper-half start
is not polished: it takes the exact conjugate of that start's frozen root
and its disk, and must still be disjoint from every frozen disk.  Only
the roots left over are re-swept by a fixed-point Aberth iteration whose
sum runs over all current roots, then polished again.  While roots still
fail, the precision doubles (up to a cap), every root is frozen afresh
from its current point, and the leftovers are re-swept with a stop that
tightens with the precision.  Every multiprecision evaluation of p and p'
goes through that one fixed-point path, whose error bound enters each
reported residual.

At z = x + iy that path runs one real second-order recurrence,
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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import mpmath as mp
from mpmath.libmp import from_man_exp, fzero, mpc_abs, round_nearest

from .errors import (DisconnectedGraphError, InputError, NumericalError,
                     RootFindingError)
from .multigraph import Multigraph, blocks, is_connected
from .polynomials import QComplex, RatPoly, cpoly_normalize, squarefree_split
from .reliability import rel_auto

DEFAULT_PRECISION_BITS = 256
MAX_PRECISION_BITS = 4096

PolyLike = Union[RatPoly, Sequence]


@dataclass(frozen=True)
class SolverDiagnostics:
    """How ``find_roots`` reached its roots.

    ``direct`` roots were frozen straight from their double-precision
    starts; ``mirrored`` of them are the exact conjugates of another direct
    root of a real polynomial, frozen without being evaluated.
    ``reswept`` roots went through multiprecision Aberth, which took
    ``sweeps`` sweeps over ``escalations`` precision doublings.
    ``machine_iterations`` counts the iterations of the double sweep.
    ``worst_residual_log2`` is the largest log2(residual / |z|) over the
    nonzero roots (None when there are none).  For a polynomial with
    repeated roots the counts are over the distinct roots solved.
    """

    direct: int = 0
    mirrored: int = 0
    reswept: int = 0
    sweeps: int = 0
    escalations: int = 0
    machine_iterations: int = 0
    worst_residual_log2: float | None = None

    def merge(self, other: "SolverDiagnostics") -> "SolverDiagnostics":
        """Counts of two solves added up, with the worse of their residuals."""
        worst = [w for w in (self.worst_residual_log2, other.worst_residual_log2)
                 if w is not None]
        return SolverDiagnostics(
            direct=self.direct + other.direct, mirrored=self.mirrored + other.mirrored,
            reswept=self.reswept + other.reswept,
            sweeps=self.sweeps + other.sweeps, escalations=self.escalations + other.escalations,
            machine_iterations=self.machine_iterations + other.machine_iterations,
            worst_residual_log2=max(worst, default=None))


@dataclass(frozen=True)
class RootSet:
    """Polished complex roots with per-root residual bounds.

    The residual of a root bounds |a(z)/a'(z)| for the squarefree factor a
    of the input that the root belongs to (the input itself when it is
    squarefree), and every copy of a repeated root carries it.  With d the
    degree of a, the disks D(z, d·residual) about its distinct roots are
    pairwise disjoint and each holds exactly one root of a.  A root of a
    real a with imaginary part exactly 0 is proven real; when the solver
    moved it onto the axis from a point z', its residual bounds
    |a(z')/a'(z')| + |Im z'|/d instead, so that its disk holds the disk
    of z' (``_Solve.freeze``).  Exact zero roots have residual 0.  Roots
    and residuals are the solver's exact binary values, never rounded to
    a working precision.
    """

    roots: tuple
    residuals: tuple
    precision_bits: int
    diagnostics: SolverDiagnostics | None = field(default=None, compare=False)

    def moduli(self) -> list:
        """|z| per root, bit for bit as ``abs(z)`` gives it at ``precision_bits``."""
        return [mp.make_mpf(mpc_abs(z._mpc_, self.precision_bits, round_nearest))
                for z in self.roots]

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


def _as_qcomplex_coeffs(p: PolyLike) -> list[QComplex]:
    if isinstance(p, RatPoly):
        return cpoly_normalize(list(p.coeffs))
    return cpoly_normalize(list(p))


def _log2_abs(c: QComplex) -> float | None:
    a2 = c.abs2()
    if a2 == 0:
        return None
    return (math.log2(a2.numerator) - math.log2(a2.denominator)) / 2.0


def _root_bound_log2(coeffs: list[QComplex], logs: list[float | None]) -> float:
    """log2 of an upper bound on the root moduli, uncapped; ``logs`` holds
    log2|c_k| (``_log2_abs``) for each coefficient.

    The minimum of the Cauchy and Fujiwara bounds, improved by the
    consecutive-coefficient-ratio bound when all coefficients are positive
    reals (the typical H-polynomial case, where it is far tighter).  All
    evaluated in the log domain so that the enormous coefficient ratios of
    high-degree H-polynomials cannot overflow.
    """
    d = len(coeffs) - 1
    lead = logs[d]
    assert lead is not None
    cauchy_log = max((lg - lead for lg in logs[:d] if lg is not None), default=None)
    if cauchy_log is None:
        return 0.0
    bound = max(cauchy_log, 0.0) + math.log2(1.0 + 2.0 ** -abs(cauchy_log))
    bound = min(bound, 1.0 + max((logs[d - k] - lead - (1.0 if k == d else 0.0)) / k
                                 for k in range(1, d + 1) if logs[d - k] is not None))
    if all(c.im == 0 and c.re > 0 for c in coeffs):
        bound = min(bound, max(logs[i - 1] - logs[i] for i in range(1, d + 1)))
    return bound


_PHI = 1.6180339887498949


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


def _start_angles(d: int) -> np.ndarray:
    # Equally spaced starting points with an irrational angular offset so
    # symmetric polynomials cannot stall the sweep.
    import numpy as np

    return 2.0 * math.pi * (np.arange(d) + 0.5) / d + 1.0 / _PHI


def _newton_polygon_starts(hull: list[tuple[int, float]]) -> tuple[np.ndarray, np.ndarray]:
    """log2 radii and angles of one start per root, from the Newton polygon.

    The upper convex hull (``_upper_hull``) of the points (k, l(k)),
    l(k) = log2|c_k|, splits
    the degree into its edges; an edge from k1 to k2 gets k2 - k1 starts on
    the circle of radius 2^((l(k1) - l(k2)) / (k2 - k1)), near which that
    many roots lie (D. A. Bini, Numer. Algorithms 1996).  Each edge's starts
    are turned by k1 golden angles, so that the many one-root edges of a
    log-concave coefficient sequence spread around the circle instead of
    lining up on one ray.  The constant term must be nonzero.
    """
    import numpy as np

    log_radii, angles = [], []
    for (k1, l1), (k2, l2) in zip(hull, hull[1:]):
        log_radii += [(l1 - l2) / (k2 - k1)] * (k2 - k1)
        angles.append(_start_angles(k2 - k1) + 2.0 * math.pi * k1 / _PHI)
    return np.array(log_radii), np.concatenate(angles)


def _machine_coeffs(coeffs: list[QComplex], logs: list[float | None],
                    scale_log2: int) -> tuple[np.ndarray, int] | None:
    """Coefficients of 2^-shift · p(2^scale_log2 * y) as complex128, and
    shift, or None when they do not fit in doubles; ``logs`` holds log2|c_k|.

    The power 2^-shift makes the largest coefficient about one, so none can
    overflow, and each is rounded correctly from its exact shifted value.
    The first and last coefficients must stay normal doubles: every other
    vertex of the Newton polygon lies above the chord between them, so the
    polygon, and with it the root moduli, survive the rounding.
    """
    import numpy as np

    shift = math.floor(max(lg + i * scale_log2 for i, lg in enumerate(logs) if lg is not None))
    out = np.zeros(len(coeffs), dtype=np.complex128)
    for i, c in enumerate(coeffs):
        e = i * scale_log2 - shift
        factor = Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)
        out[i] = complex(float(c.re * factor), float(c.im * factor))
    if min(abs(out[0]), abs(out[-1])) < np.finfo(float).tiny:
        return None
    return out, shift


# Iterations below the rounding-error bound that freeze a root.  A streak of
# 1 freezes clustered roots too early: 211 of 323 roots come direct at
# table1 n = 7 (256 with 10), and n = 6 loses one.
_NOISE_STREAK = 10


def _machine_stack(coeffs: np.ndarray) -> np.ndarray:
    """p, p' (its top coefficient 0) and |c_k|, lowest degree first, as the
    rows that ``_stacked_horner`` runs over."""
    import numpy as np

    d = len(coeffs) - 1
    return np.array([coeffs, np.append(coeffs[1:] * np.arange(1, d + 1), 0), np.abs(coeffs)])


def _stacked_horner(stack: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows p(z), p'(z) and Σ|c_k|·|z|^k from one Horner pass over
    ``_aberth_machine``'s stack of coefficients, at the points (z, z, |z|).

    Each row takes the roundings its own Horner loop would: the zero on
    top of p' turns into its first coefficient exactly, and the |c_k| row
    runs at |z| + 0i, whose imaginary parts stay 0.
    """
    import numpy as np

    columns = stack.T[::-1, :, None]
    x = np.array([z, z, np.abs(z)], dtype=np.complex128)
    acc = np.repeat(columns[0], z.size, axis=1)
    for c in columns[1:]:
        acc *= x
        acc += c
    return acc


def _aberth_machine(coeffs: np.ndarray, z: np.ndarray,
                    max_iter: int = 400) -> tuple[np.ndarray, int]:
    """Double-precision Aberth iteration from the starts z, stopped per root.

    A root is frozen once its step is below 1e-13 (1 + |z|), or once |p(z)|
    has stayed below the rounding-error bound 2^-53 * sum |c_k| |z|^k for
    ``_NOISE_STREAK`` iterations running.  Only active roots are evaluated
    and moved; frozen roots stay in their Aberth sums.  Returns the roots
    and the number of iterations.
    """
    import numpy as np

    d = len(coeffs) - 1
    stack = _machine_stack(coeffs)
    z = z.astype(np.complex128)
    streak = np.zeros(d, dtype=int)
    active = np.arange(d)
    it = 0
    with np.errstate(all="ignore"):
        while active.size and it < max_iter:
            it += 1
            za = z[active]
            pv, pd, noise = _stacked_horner(stack, za)
            noise = 2.0 ** -53 * noise.real
            streak[active] = np.where(np.abs(pv) < noise, streak[active] + 1, 0)
            pd = np.where(pd == 0, 1e-300, pd)
            w = pv / pd
            diff = za[:, None] - z[None, :]
            diff[np.arange(active.size), active] = np.inf
            s = np.divide(1.0, diff, out=diff).sum(axis=1)
            del diff    # keeps one active x d matrix alive at a time
            denom = 1.0 - w * s
            dz = w / np.where(denom == 0, 1e-300, denom)
            za = za - dz
            # Transient overflow escapes are reseeded on the unit circle and
            # stay active; validation decides in the end.
            wild = ~np.isfinite(za)
            if wild.any():
                za[wild] = np.exp(1j * (_start_angles(d)[active[wild]] + 0.1 * it))
            z[active] = za
            done = ~wild & ((np.abs(dz) <= 1e-13 * (1.0 + np.abs(za)))
                            | (streak[active] >= _NOISE_STREAK))
            active = active[~done]
    return z, it


def _conjugate_pairs(z: np.ndarray) -> dict[int, int]:
    """Upper-half start j -> lower-half start k, for starts that mirror each other.

    k pairs with the upper start j whose conjugate lies nearest to it, when
    that distance is below half the distance from k, and from j, to its
    nearest other start.  The match is then one-to-one: two lower starts
    that near one point would lie closer together than their own distances
    to their nearest other starts.
    """
    import numpy as np

    def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        diff = np.subtract.outer(a, b)
        return np.abs(diff, out=diff).real

    dist = distances(z, z)
    np.fill_diagonal(dist, np.inf)
    sep = dist.min(axis=1)
    del dist    # with the in-place abs, one complex matrix is alive at a time
    lower, upper = np.flatnonzero(z.imag < 0), np.flatnonzero(z.imag > 0)
    if not lower.size or not upper.size:
        return {}
    dist = distances(z[lower], np.conj(z[upper]))
    near = dist.argmin(axis=1)
    gap = dist[np.arange(lower.size), near]
    keep = (gap < sep[lower] / 2) & (gap < sep[upper[near]] / 2)
    return {int(upper[j]): int(k) for k, j in zip(lower[keep], near[keep])}


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
_POLISH_STEPS = 40      # Newton steps before an unproven start counts as unresolved
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
    two_bits, shift = 2 * bits, bits + 1
    bs = []
    push = bs.append
    b1 = b2 = 0
    for c in table:
        b1, b2 = c + ((((zr * b1) << shift) - r2 * b2) >> two_bits), b1
        push(b1)
    return bs


def _e_pass(bs: list[int], zr: int, r2: int, bits: int) -> tuple[int, int]:
    """(e_2, e_3) of ``FixedEval``'s second recurrence, over the b_d..b_2
    that ``_b_pass`` returned at the same point."""
    two_bits, shift = 2 * bits, bits + 1
    e1 = e2 = 0
    for b in bs[:-2]:
        e1, e2 = b + ((((zr * e1) << shift) - r2 * e2) >> two_bits), e1
    return e1, e2


class FixedEval:
    """p and p' at fixed-point points, in Python integers at the ``bits``
    bits each call passes.

    At a point z the coefficients are the integers round(c_k 2^t), real and
    imaginary parts apart.  The scale t comes from the polynomial, as
    ``_machine_coeffs`` chooses its shift: the largest term |c_k| |z|^k,
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
    Q(z) = (e_2 − x·e_3) + i·y·e_3.  The b's are kept (``_b_pass``) and the
    e's run over them in a second pass (``_e_pass``), so that ``value``
    gives p alone, bit for bit as ``evaluate`` gives it, for half the work.  A step costs two real products where
    complex Horner costs four per value.  A complex table runs the loop on
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

    def _b_passes(self, zr: int, zi: int, r2: int, bits: int, t: int
                  ) -> tuple[int, int, list[int], list[int] | None]:
        """(p re, p im) in units of 2^-t, and the b's of the real and the
        imaginary table (None for a real polynomial)."""
        re_table, im_table = self._table(t)
        bs = _b_pass(re_table, zr, r2, bits)
        # f: the imaginary part's remainders, zero for a real polynomial.
        fs = _b_pass(im_table, zr, r2, bits) if im_table else None
        b0, b1 = bs[-1], bs[-2]
        f0, f1 = (fs[-1], fs[-2]) if fs else (0, 0)
        return b0 + ((-zr * b1 - zi * f1) >> bits), f0 + ((zi * b1 - zr * f1) >> bits), bs, fs

    def value(self, zr: int, zi: int, bits: int, t: int) -> tuple[int, int]:
        """(p re, p im) at z = (zr + i·zi) / 2^bits in units of 2^-t, from
        the b pass alone: what ``evaluate`` returns at z when its scale is t.
        The error bound is ``bounds``' err_p."""
        return self._b_passes(zr, zi, zr * zr + zi * zi, bits, t)[:2]

    def evaluate(self, zr: int, zi: int, bits: int) -> tuple[int, int, int, int, int, int, int]:
        """(p re, p im, p' re, p' im, err_p, err_dp, t) at z = (zr + i·zi) / 2^bits;
        all but t in units of 2^-t."""
        err_p, err_dp, t = self.bounds(zr, zi, bits)
        r2 = zr * zr + zi * zi
        pr, pi, bs, fs = self._b_passes(zr, zi, r2, bits, t)
        e2, e3 = _e_pass(bs, zr, r2, bits)
        f2, f3 = _e_pass(fs, zr, r2, bits) if fs else (0, 0)
        b1, f1 = bs[-2], fs[-2] if fs else 0
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
    with p at both points at one scale t: it runs the b pass of
    ``FixedEval.value`` alone, about half of what an evaluation of p and p'
    costs; otherwise the half steps stay Newton steps.  Near a simple
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
                err_p = evaluator.bounds(hr, hi, half)[0]
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


def _aberth(evaluator: FixedEval, points: list, active: list[int], bits: int,
           tol_shift: int) -> int:
    """Aberth sweeps in fixed point that move only the points in ``active``.

    The Aberth sum runs over every current point, frozen roots included, so
    a re-swept point is pushed away from the roots already found.  The sweep
    only has to hand Newton a start inside its quadratic basin, so a point
    stops once its step is at most 2^-tol_shift of its modulus: it is no
    longer evaluated or moved, but keeps its place in every other point's
    sum.  The sweeps end when every active point has stopped.  Points are
    fixed-point at ``bits`` bits.  Returns the number of sweeps.
    """
    two_bits = 2 * bits
    one = 1 << bits
    moving = active
    for sweep in range(1, _ABERTH_SWEEPS + 1):
        unsettled = []
        for k in moving:
            zr, zi = points[k]
            w = _quotient(*evaluator.evaluate(zr, zi, bits)[:4], bits)
            if w is None:
                unsettled.append(k)
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
            if _modulus(*dz) > _modulus(zr, zi) >> tol_shift:
                unsettled.append(k)
        moving = unsettled
        if not moving:
            return sweep
    return _ABERTH_SWEEPS


class _Disks:
    """Pairwise disjoint fixed-point disks D(z, r), sorted by real part.

    ``admit`` adds a disk when (Δre)² + (Δim)² > (r₁ + r₂)² against every
    disk held, exactly in integers.  It tests only the held disks whose
    real part lies within r₁ + (the widest radius held) of its own, found
    by bisection: the centres of any other pair lie farther apart in real
    part alone than the sum of their radii.
    """

    def __init__(self, disks: list[tuple[tuple[int, int], int]]):
        self._disks = sorted((zr, zi, r) for (zr, zi), r in disks)
        self._widest = max((r for _, _, r in self._disks), default=0)

    def admit(self, z: tuple[int, int], radius: int) -> bool:
        """Add D(z, radius) if it is disjoint from every disk held."""
        zr, zi = z
        reach = radius + self._widest
        lo = bisect.bisect_left(self._disks, (zr - reach,))
        hi = bisect.bisect_left(self._disks, (zr + reach + 1,), lo)
        for k in range(lo, hi):
            xr, xi, r = self._disks[k]
            if (zr - xr) ** 2 + (zi - xi) ** 2 <= (radius + r) ** 2:
                return False
        bisect.insort(self._disks, (zr, zi, radius), lo, hi)
        self._widest = max(self._widest, radius)
        return True


class _Solve:
    """Per-root bookkeeping of one ``find_roots`` call.

    ``points[k]`` is root k once frozen (``residuals[k]``, its residual
    bound in units of 2^-bits, is then set) and its current approximation
    otherwise.  Every point is held at ``bits``, the working precision plus
    the guard bits; escalation shifts them all exactly and freezes them
    afresh.  One ``evaluator`` serves every precision.  Each start is a
    pair (y, e) standing for y * 2^e, with y a complex double.
    """

    def __init__(self, evaluator: FixedEval, starts, prec: int):
        self.evaluator = evaluator
        self.prec = self.requested = prec
        # 1 / (a bound on the roots of the reversed polynomial) bounds every
        # root from below.
        self.guard_bits = _GUARD_BITS + max(
            0, math.ceil(_root_bound_log2(evaluator.coeffs[::-1], evaluator.logs[::-1])))
        self.points = [_to_fixed(complex(y), self.bits + int(e)) for y, e in starts]
        self.residuals: list = [None] * len(self.points)
        self.reswept: set[int] = set()
        self.mirrored = 0
        self.sweeps = 0
        self.escalations = 0

    @property
    def bits(self) -> int:
        return self.prec + self.guard_bits

    def freeze(self, candidates: list[int], mirrors: dict[int, int] | None = None,
               slopes: list | None = None) -> list[int]:
        """Polish each candidate; freeze those whose root disk is disjoint
        from every frozen one.  Returns the candidates left unresolved, in order.

        ``_newton`` polishes a candidate to z with a residual bound
        ρ ≥ |p(z)/p'(z)|, d·ρ ≤ 2^-(prec/2+10)·|z|.  Its disk D(z, dρ), d the
        degree, holds a root: p'/p(z) = Σ 1/(z - ζ_k) gives
        min |z - ζ_k| ≤ d·|p(z)/p'(z)|.  It is frozen only when
        (Δre)² + (Δim)² > (r₁ + r₂)² in the fixed-point integers against
        every frozen disk, so d frozen disks are pairwise disjoint and hold
        every root exactly once.

        For a real p, a z with |Im z| ≤ dρ is frozen on the axis instead, at
        Re z with ρ raised to ⌈(dρ + |Im z|)/d⌉.  That disk holds D(z, dρ),
        and with it a root ζ, and it is symmetric about the axis, so it
        holds ζ̄ too; once the d disks are pairwise disjoint, ζ̄ = ζ, and the
        root is proven real.

        ``mirrors`` maps a candidate j of a real polynomial to a candidate k
        that is not polished: once j freezes at z, k gets the conjugate of z
        and the residual of z.  That bound is proven for the conjugate too,
        since |p(z̄)/p'(z̄)| = |p(z)/p'(z)| for real p and negating the
        imaginary part is exact.  The conjugate's disk must still be
        disjoint from every frozen disk, and k stays unresolved with j when
        j fails.

        ``slopes``, when given, holds p' at each candidate's point in
        ``_newton``'s (mr, mi, x) form, or None, for its first step.
        """
        evaluator, d = self.evaluator, self.evaluator.degree
        mirrors = mirrors or {}
        frozen = _Disks([(z, d * r) for z, r in zip(self.points, self.residuals)
                         if r is not None])
        unresolved = []

        def admit(k: int, z: tuple[int, int], residual: int) -> bool:
            if not frozen.admit(z, d * residual):
                return False
            self.points[k] = z
            self.residuals[k] = residual
            return True

        partners = set(mirrors.values())
        for j in candidates:
            if j in partners:
                continue
            polished = _newton(evaluator, self.points[j], self.bits, self.prec,
                               slopes[j] if slopes else None)
            if polished is not None:
                z, residual = polished
                if evaluator.real and abs(z[1]) <= d * residual:
                    z, residual = (z[0], 0), -(-(d * residual + abs(z[1])) // d)
            if polished is None or not admit(j, z, residual):
                unresolved += [j, mirrors[j]] if j in mirrors else [j]
            elif j in mirrors:
                if admit(mirrors[j], (z[0], -z[1]), residual):
                    self.mirrored += 1
                else:
                    unresolved.append(mirrors[j])
        return sorted(unresolved)

    def sweep(self, active: list[int]) -> list[int]:
        self.reswept.update(active)
        # 2^-60 at the requested precision, tightened by half of every bit an
        # escalation adds: a cluster narrower than the stop would hand Newton
        # starts that fall into a frozen neighbour at every precision.
        tol_shift = min(self.prec // 2, 60 + (self.prec - self.requested) // 2)
        self.sweeps += _aberth(self.evaluator, self.points, active, self.bits, tol_shift)
        return self.freeze(active)

    def escalate(self) -> list[int]:
        """Double the precision and freeze every root afresh from its current
        point.  Returns the roots left unresolved.

        A root frozen early with a wide disk would otherwise block a close
        neighbour at every precision.
        """
        shift = self.prec
        self.prec *= 2
        self.escalations += 1
        self.points = [(zr << shift, zi << shift) for zr, zi in self.points]
        self.residuals = [None] * len(self.points)
        return self.freeze(list(range(len(self.points))))

    def roots(self) -> list:
        """The points as exact mpc values, whatever the working precision."""
        bits = self.bits
        return [mp.make_mpc((from_man_exp(zr, -bits), from_man_exp(zi, -bits)))
                for zr, zi in self.points]


def _solve_squarefree(coeffs: list[QComplex], precision_bits: int) -> RootSet:
    """Roots of a squarefree polynomial with a nonzero constant term.

    Every double-precision Aberth start is Newton-polished in fixed point,
    except that a real polynomial mirrors one start of each conjugate pair
    (``_conjugate_pairs``, ``_Solve.freeze``); the roots that validate are
    frozen, and only the rest are re-swept by multiprecision Aberth, first
    at ``precision_bits`` and then at doubled precisions, where every root
    is frozen afresh.  When the scaled polynomial does not fit in doubles,
    the Newton-polygon starts go straight to that sweep, each one held as a
    double of order one times its own power of two.
    """
    import numpy as np

    d = len(coeffs) - 1
    evaluator = FixedEval(coeffs)
    log_radii, angles = _newton_polygon_starts(evaluator.hull)
    unit = np.exp(1j * angles)
    # Sweep p(2^scale * y), whose starts lie around the unit circle.
    scale = round(float(log_radii.max() + log_radii.min()) / 2)
    machine = _machine_coeffs(coeffs, evaluator.logs, scale)
    if machine is None:
        exps = np.rint(log_radii)
        starts, iterations = list(zip(2.0 ** (log_radii - exps) * unit, exps)), 0
    else:
        machine, shift = machine
        ys, iterations = _aberth_machine(machine, 2.0 ** (log_radii - scale) * unit)
        starts = [(y, scale) for y in ys]
    solve = _Solve(evaluator, starts, precision_bits)
    unresolved = list(range(d))
    if machine is not None:
        # p'(2^scale·y) = 2^(shift − scale) times the scaled polynomial's p'(y).
        with np.errstate(all="ignore"):
            slopes = [_slope(complex(w), shift - scale)
                      for w in _stacked_horner(_machine_stack(machine), ys)[1]]
        unresolved = solve.freeze(unresolved, _conjugate_pairs(ys) if evaluator.real else None,
                                  slopes)
    direct = d - len(unresolved)

    while unresolved:
        unresolved = solve.sweep(unresolved)
        if unresolved:
            if 2 * solve.prec > MAX_PRECISION_BITS:
                raise RootFindingError("roots failed residual validation up to the precision cap")
            unresolved = solve.escalate()

    bits = solve.bits
    # Unrounded, like the roots: each disk D(z, d·ρ) stays proven.
    residuals = [mp.make_mpf(from_man_exp(r, -bits)) for r in solve.residuals]
    # log2(ρ / |z|) from the fixed-point integers, whose units cancel; every ρ is at least 1.
    worst = max(math.log2(r) - math.log2(zr * zr + zi * zi) / 2
                for (zr, zi), r in zip(solve.points, solve.residuals))
    diagnostics = SolverDiagnostics(
        direct=direct, mirrored=solve.mirrored, reswept=len(solve.reswept),
        sweeps=solve.sweeps, escalations=solve.escalations,
        machine_iterations=iterations, worst_residual_log2=worst)
    return RootSet(roots=tuple(solve.roots()), residuals=tuple(residuals),
                   precision_bits=solve.prec, diagnostics=diagnostics)


def find_roots(p: PolyLike, precision_bits: int = DEFAULT_PRECISION_BITS) -> RootSet:
    """All complex roots of a polynomial with exact (complex-)rational coefficients.

    Exact roots at the origin are split off first, and the rest of the
    polynomial is split exactly into squarefree, pairwise coprime factors
    (``squarefree_split``), so the solver only ever meets simple roots.
    Each factor is solved on its own (``_solve_squarefree``), and each of
    its roots is reported as often as the factor's multiplicity, every copy
    with the factor's residual.  The diagnostics add up over the factors,
    with the worst residual taken over all of them, and ``precision_bits``
    is the largest precision any factor reached.  Raises
    :class:`RootFindingError` when roots still fail validation at the
    maximum escalated precision.
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
    roots = [mp.mpc(0)] * zero_mult
    residuals = [mp.mpf(0)] * zero_mult
    prec, diagnostics = precision_bits, SolverDiagnostics()
    for factor, mult in squarefree_split(coeffs):
        part = _solve_squarefree(factor, precision_bits)
        roots += [z for z in part.roots for _ in range(mult)]
        residuals += [r for r in part.residuals for _ in range(mult)]
        prec = max(prec, part.precision_bits)
        diagnostics = diagnostics.merge(part.diagnostics)
    return RootSet(roots=tuple(roots), residuals=tuple(residuals), precision_bits=prec,
                   diagnostics=diagnostics)


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
    if not man and raw != fzero:
        raise NumericalError("non-finite value has no exact rational")
    return (-int(man) if sign else int(man)), int(exp)


def _root_disks(rs: RootSet) -> tuple[list[tuple[int, int, int]], int]:
    """((x, y, r) per root, s ≥ 0), D((x + iy)/2^s, r/2^s) = D(z, n·ρ), n = len(rs.roots) ≥ the
    degree of the root's factor, so it holds the disk the solver proved (``RootSet``)."""
    parts = [(*map(_dyadic, z._mpc_), _dyadic(rho._mpf_))
             for z, rho in zip(rs.roots, rs.residuals)]
    s = -min([0] + [e for part in parts for _, e in part])
    return [(x << (ex + s), y << (ey + s), len(parts) * r << (er + s))
            for (x, ex), (y, ey), (r, er) in parts], s


def _outermost(disks: list[tuple[int, int, int]]) -> tuple[int, list[int]]:
    """(k, candidates) for ``_root_disks``' (x, y, r): each root modulus lies in [⌊|z|⌋ − r,
    ⌊|z|⌋ + 1 + r]; every root but the candidates, whose intervals reach the largest lower
    bound, is proven smaller.  k is the candidate with the larger real part, tied when the
    intervals [x − r, x + r] overlap, then with the larger imaginary part."""
    lows = [_modulus(x, y) - r for x, y, r in disks]
    top = max(lows)
    candidates = [k for k, low in enumerate(lows) if low + 1 + 2 * disks[k][2] >= top]
    best = candidates[0]
    for k in candidates[1:]:
        (x, y, r), (bx, by, br) = disks[k], disks[best]
        if x - r > bx + br or (abs(x - bx) <= r + br and y > by):
            best = k
    return best, candidates


def max_modulus_root(rs: RootSet):
    """Root of maximal modulus, decided exactly on the proven disks; ties, such as
    the roots of 1 − q⁶, go to the larger real part, then to the upper half plane
    (so a conjugate pair reports its +i member) (``_outermost``)."""
    if not rs.roots:
        raise InputError("empty root set")
    return rs.roots[_outermost(_root_disks(rs)[0])[0]]


def enestrom_kakeya(p: RatPoly) -> Annulus:
    """Annulus of consecutive coefficient ratios containing all roots of a positive-
    coefficient polynomial (Eneström–Kakeya; S. Kakeya, Tôhoku Math. J. 1912)."""
    if p.degree < 1:
        raise InputError("need degree >= 1 for a coefficient-ratio annulus")
    if any(c <= 0 for c in p.coeffs):
        raise InputError("coefficient-ratio bound requires strictly positive coefficients")
    ratios = [p.coeffs[i - 1] / p.coeffs[i] for i in range(1, len(p.coeffs))]
    return Annulus(lo=min(ratios), hi=max(ratios))


def reliability_root_set(rel: RatPoly, precision_bits: int = DEFAULT_PRECISION_BITS) -> RootSet:
    """Roots of a reliability polynomial, factoring (1-q)^k out exactly first.

    ``find_roots`` would find the multiple root at 1 through its squarefree
    split too, but the gcd of a high-degree Rel and its derivative costs far
    more than synthetic division by (1-q), so the root at 1 is deflated here
    and re-attached k times with residual 0.
    """
    h, k = rel.deflate_unit_roots()
    if h.degree < 1:
        base = RootSet(roots=(), residuals=(), precision_bits=precision_bits,
                       diagnostics=SolverDiagnostics())
    else:
        base = find_roots(h, precision_bits)
    return RootSet(roots=base.roots + (mp.mpc(1),) * k,
                   residuals=base.residuals + (mp.mpf(0),) * k,
                   precision_bits=base.precision_bits, diagnostics=base.diagnostics)


@dataclass
class Theorem1Report:
    """Outcome of the order-based modulus bound checks for a 2-connected graph.

    ``ratio_within_bound``, ratio ≤ bound for the largest H ratio h_(i−1)/h_i, proves
    |z| ≤ bound for every root (``enestrom_kakeya``).  ``roots_within_bound`` is False
    only when some root's proven disk lies wholly beyond the bound.  ``max_modulus``
    is max(1, |z|) at the root set's precision."""

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


def check_modulus_bound(g: Multigraph,
                        precision_bits: int = DEFAULT_PRECISION_BITS) -> Theorem1Report:
    """Verify the order bound on reliability root moduli for a 2-connected graph.

    Every root must satisfy |z| <= n-1, improving to n-2 when n >= 3 and some
    vertex has no incident multiple edges; the H ratios prove it exactly, and
    the root disks of a solve at ``precision_bits`` cross-check it exactly.
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

    ratio, max_mod, roots_ok = Fraction(0), 1.0, True
    if h.degree >= 1:
        ratio = enestrom_kakeya(h).hi
        rs = find_roots(h, precision_bits)
        disks, s = _root_disks(rs)
        roots_ok = all(x * x + y * y <= ((bound << s) + r) ** 2 for x, y, r in disks)
        max_mod = float(max(rs.moduli() + [1]))

    return Theorem1Report(n=g.n, m=g.m, bound=bound, simple_vertex=simple_vertex,
                          max_modulus=max_mod, ratio=ratio,
                          roots_within_bound=roots_ok, ratio_within_bound=ratio <= bound)
