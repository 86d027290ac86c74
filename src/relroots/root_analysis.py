"""Complex root extraction, max-modulus queries and coefficient-ratio bounds.

The solver runs a simultaneous Aberth-style iteration at machine precision
from points on a coefficient-bound circle, then polishes every root with
big-float Newton steps at the requested precision, evaluating the
polynomial from its exact rational coefficients rounded to the working
precision.  Residual bounds |p(z)/p'(z)| are reported per root; on
validation failure the precision doubles (up to a cap) and a full
high-precision sweep is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
class RootSet:
    """Polished complex roots with per-root residual bounds |p(z)/p'(z)|."""

    roots: tuple
    residuals: tuple
    precision_bits: int

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


def _horner(coeffs: list, z):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


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


def _aberth_machine(coeffs: np.ndarray, radius: float,
                    max_iter: int = 400) -> tuple[np.ndarray, bool]:
    d = len(coeffs) - 1
    dcoeffs = coeffs[1:] * np.arange(1, d + 1)
    # Equally spaced starting points with an irrational angular offset so
    # symmetric polynomials cannot stall the sweep.
    angles = 2.0 * math.pi * (np.arange(d) + 0.5) / d + 1.0 / 1.6180339887498949
    z = radius * np.exp(1j * angles)

    def horner_vec(cs, x):
        acc = np.full_like(x, cs[-1])
        for c in cs[-2::-1]:
            acc = acc * x + c
        return acc

    converged = False
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
                converged = True
                break
    if not np.isfinite(z).all():
        raise _MachineFailure("iteration diverged")
    return z, converged


def _circle_starts_mp(d: int, radius: float) -> list:
    golden = mp.mpf(1) / ((1 + mp.sqrt(5)) / 2)
    return [mp.mpc(radius) * mp.expjpi(2 * (mp.mpf(k) + mp.mpf(1) / 2) / d + golden / mp.pi)
            for k in range(d)]


def _aberth_mpmath(coeffs: list[QComplex], radius: float, prec: int,
                   warm, max_iter: int) -> list:
    """High-precision Aberth sweep, warm-startable from machine estimates.

    Big coefficient ranges defeat double precision outright (every Horner
    value drowns in rounding noise near the roots), so this stage is the
    real solver for high-degree reliability polynomials.  The sweep only
    has to hand Newton a start inside its quadratic basin; chasing full
    precision here wastes whole passes on points that orbit a multiple
    root, and even an unconverged sweep is a useful polish start.
    """
    coeffs_mpc = [_to_mpc(c) for c in coeffs]
    d = len(coeffs_mpc) - 1
    dcoeffs = [k * coeffs_mpc[k] for k in range(1, d + 1)]
    if warm is not None:
        z = [mp.mpc(complex(w)) for w in warm]
    else:
        z = _circle_starts_mp(d, radius)
    tol = mp.mpf(2) ** (-min(prec // 2, 60))
    for _ in range(max_iter):
        moved = mp.mpf(0)
        for k in range(d):
            pv = _horner(coeffs_mpc, z[k])
            pd = _horner(dcoeffs, z[k])
            s = mp.mpc(0)
            for j in range(d):
                if j != k:
                    delta = z[k] - z[j]
                    if delta == 0:
                        delta = mp.mpf(2) ** (-prec) * (1 + abs(z[k]))
                    s += 1 / delta
            if pd == 0:
                pd = mp.mpf(2) ** (-prec)
            w = pv / pd
            denom = 1 - w * s
            if denom == 0:
                denom = mp.mpf(2) ** (-prec)
            dz = w / denom
            z[k] = z[k] - dz
            moved = max(moved, abs(dz) / max(1, abs(z[k])))
        if moved <= tol:
            break
    return z


def _polish(coeffs_mpc: list, dcoeffs_mpc: list, z0, prec: int):
    """Newton polishing with a multiplicity correction.

    Near an isolated multiple root plain Newton contracts linearly by
    (mu-1)/mu, so a stable step ratio reveals the multiplicity and scaling
    the step by mu restores quadratic convergence.
    """
    z = mp.mpc(z0)
    tol = mp.mpf(2) ** (-(prec // 2))
    mu = 1
    prev_step = None
    for it in range(300):
        pd = _horner(dcoeffs_mpc, z)
        if pd == 0:
            break
        step = _horner(coeffs_mpc, z) / pd
        z = z - mu * step
        s = abs(step)
        if s <= tol * max(1, abs(z)):
            break
        if prev_step is not None and prev_step > 0 and mu == 1 and it >= 3:
            ratio = s / prev_step
            if mp.mpf("0.2") < ratio < mp.mpf("0.95"):
                est = int(mp.nint(1 / (1 - ratio)))
                if 2 <= est <= 16:
                    mu = est
        prev_step = s
    pd = _horner(dcoeffs_mpc, z)
    residual = abs(_horner(coeffs_mpc, z)) / abs(pd) if pd != 0 else mp.inf
    return z, residual


def _multiset_consistent(roots: list, coeffs_mpc: list, prec: int) -> bool:
    """Check the root multiset against exact symmetric functions.

    The sum of roots and the sum of squares are pinned by the top
    coefficients, so a sweep that collapsed two distinct roots into one
    (duplicating another) cannot pass, while genuine multiplicities do.
    """
    d = len(coeffs_mpc) - 1
    lead = coeffs_mpc[-1]
    e1 = -coeffs_mpc[-2] / lead if d >= 1 else mp.mpc(0)
    s1 = mp.fsum(z.real for z in roots) + 1j * mp.fsum(z.imag for z in roots)
    big = max([mp.mpf(1)] + [abs(z) for z in roots])
    tol = d * mp.mpf(2) ** (-(prec // 2) + 8) * big * big
    if abs(s1 - e1) > tol:
        return False
    if d >= 2:
        e2 = coeffs_mpc[-3] / lead
        p2 = e1 * e1 - 2 * e2
        sq = [z * z for z in roots]
        s2 = mp.fsum(z.real for z in sq) + 1j * mp.fsum(z.imag for z in sq)
        if abs(s2 - p2) > tol:
            return False
    return True


def find_roots(p: PolyLike, precision_bits: int = DEFAULT_PRECISION_BITS) -> RootSet:
    """All complex roots of a polynomial with exact (complex-)rational coefficients.

    Exact roots at the origin are split off first; everything else goes
    through the Aberth + Newton pipeline.  Repeated roots are tolerated
    (the polish step corrects for multiplicity and the result is validated
    against exact symmetric functions), though the root at 1 of reliability
    polynomials should still be deflated upstream for speed and accuracy.
    Raises :class:`RootFindingError` when validation still fails at the
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

    d = len(coeffs) - 1
    if d == 0:
        with mp.workprec(precision_bits):
            zeros = tuple(mp.mpc(0) for _ in range(zero_mult))
        return RootSet(roots=zeros, residuals=tuple(mp.mpf(0) for _ in range(zero_mult)),
                       precision_bits=precision_bits)

    radius = _initial_radius(coeffs)
    machine_start: np.ndarray | None = None
    machine_converged = False
    try:
        # Sweep the rescaled polynomial p(s * y) from the unit circle; the
        # cap keeps s^d, and with it every Horner value, inside double range.
        s = min(radius, 2.0 ** (600.0 / d))
        y, machine_converged = _aberth_machine(_machine_coeffs(coeffs, s), 1.0)
        machine_start = s * y
    except _MachineFailure:
        machine_start = None

    prec = precision_bits
    while prec <= MAX_PRECISION_BITS:
        with mp.workprec(prec + 30):
            coeffs_mpc = [_to_mpc(c) for c in coeffs]
            dcoeffs_mpc = [k * coeffs_mpc[k] for k in range(1, d + 1)]
            # A machine sweep that converged usually polishes straight
            # through; otherwise the sweep reruns in big floats, warm-started
            # from whatever the machine stage produced, since huge
            # coefficient ranges drown double precision in rounding noise.
            modes = (["machine"] if machine_converged else []) + ["hp"]
            for mode in modes:
                if mode == "machine":
                    starts = [mp.mpc(z) for z in machine_start]
                else:
                    iters = 200 if machine_start is not None else 600
                    starts = _aberth_mpmath(coeffs, radius, prec,
                                            warm=machine_start, max_iter=iters)
                polished = [_polish(coeffs_mpc, dcoeffs_mpc, z0, prec) for z0 in starts]
                roots = [z for z, _ in polished]
                residuals = [r for _, r in polished]
                threshold = mp.mpf(2) ** (-(prec // 2) + 10)
                ok = all(r <= threshold * max(1, abs(z))
                         for z, r in zip(roots, residuals))
                if ok and _multiset_consistent(roots, coeffs_mpc, prec):
                    zeros = [mp.mpc(0)] * zero_mult
                    zero_res = [mp.mpf(0)] * zero_mult
                    return RootSet(roots=tuple(zeros + roots),
                                   residuals=tuple(zero_res + residuals),
                                   precision_bits=prec)
        prec *= 2
    raise RootFindingError(
        "roots failed residual validation up to the precision cap; "
        "the polynomial may have multiple roots")


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
        base = RootSet(roots=(), residuals=(), precision_bits=precision_bits)
    else:
        base = find_roots(h, precision_bits)
    with mp.workprec(max(precision_bits, base.precision_bits)):
        ones = tuple(mp.mpc(1) for _ in range(k))
    return RootSet(roots=base.roots + ones,
                   residuals=base.residuals + tuple(mp.mpf(0) for _ in range(k)),
                   precision_bits=base.precision_bits)


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
