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
goes through that one fixed-point path (``fixed_point``), whose error
bound enters each reported residual.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, mpc_abs, round_nearest

from .errors import InputError, NumericalError, RootFindingError
from .fixed_point import (_GUARD_BITS, DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, FixedEval,
                          PolyLike, _as_qcomplex_coeffs, _dyadic, _modulus, _newton, _quotient,
                          _slope, _to_fixed)
from .multigraph import Multigraph, blocks, is_connected
from .polynomials import QComplex, RatPoly, squarefree_split


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

    ks, ls = (np.array(v) for v in zip(*hull))
    # Per start: its edge's left end k1, its length and slope, and its index on the edge.
    lengths = np.diff(ks)
    k1 = np.repeat(ks[:-1], lengths)
    d = np.repeat(lengths, lengths)
    j = np.arange(ks[0], ks[-1]) - k1
    log_radii = np.repeat((ls[:-1] - ls[1:]) / lengths, lengths)
    # _start_angles(d) + 2π·k1/φ per edge, with the same roundings per element.
    return log_radii, 2.0 * math.pi * (j + 0.5) / d + 1.0 / _PHI + 2.0 * math.pi * k1 / _PHI


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
        # c·2^e as a quotient of integers: true division rounds it correctly.
        e = i * scale_log2 - shift
        up, down = (1 << e, 1) if e >= 0 else (1, 1 << -e)
        out[i] = complex(c.re.numerator * up / (c.re.denominator * down),
                         c.im.numerator * up / (c.im.denominator * down))
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


_ABERTH_SWEEPS = 200    # multiprecision Aberth sweeps per precision level


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
    and re-attached k times with residual 0.  A nonzero constant has no
    roots; the zero polynomial raises ``InputError``.
    """
    if rel.is_zero():
        raise InputError("cannot find roots of the zero polynomial")
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
    from .reliability import rel_auto

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
