"""Root counting relative to the unit circle, with certified box variants.

The classical determinant test is evaluated exactly for polynomials with
complex-rational coefficients (fraction-free elimination over Gaussian
integers after clearing denominators, which rescales every determinant by
a positive factor).  For the certificate pencil, whose coefficients depend
on a complex parameter a+bi ranging over a rational box, the determinants
are exact bivariate polynomials in the parameter, bounded over the box by
interval Horner evaluation.  When an interval sign is undecided the box is
bisected along its longest side, and a certificate requires one uniform
sign pattern across all leaves.

Every certificate box is the image of one root enclosure, transported as
a single cell and returned as an exact rational hull.  The transport and
the sign bounds run in one private mpmath interval context at 256 bits,
which rounds every endpoint outward.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import comb, lcm, prod
from typing import Iterator, Optional, Sequence

from mpmath.ctx_iv import MPIntervalContext

from .closed_forms import rel_complete_minus_edge, sprel_complete_minus_edge
from .errors import InputError, NumericalError, SchurCohnHypothesisError
from .fixed_point import _dyadic
from .polynomials import GInt, QComplex, RatPoly, bareiss_det, cpoly_normalize


@dataclass(frozen=True)
class ParamBox:
    """Rational rectangle [a_lo,a_hi] x [b_lo,b_hi] for the parameter a+bi."""

    a_lo: Fraction
    a_hi: Fraction
    b_lo: Fraction
    b_hi: Fraction

    def __post_init__(self):
        if self.a_lo > self.a_hi or self.b_lo > self.b_hi:
            raise InputError("parameter box endpoints out of order")

    @classmethod
    def of(cls, a_lo, a_hi, b_lo, b_hi) -> "ParamBox":
        """The box with these endpoints, each read as a ``Fraction`` (a number
        or a string such as '3/2'); an unreadable one raises ``InputError``."""
        try:
            ends = [Fraction(x) for x in (a_lo, a_hi, b_lo, b_hi)]
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise InputError(f"bad parameter box endpoint: {exc}") from exc
        return cls(*ends)

    def split(self) -> tuple["ParamBox", "ParamBox"]:
        """Bisect along the longest side."""
        if self.a_hi - self.a_lo >= self.b_hi - self.b_lo:
            mid = (self.a_lo + self.a_hi) / 2
            return (ParamBox(self.a_lo, mid, self.b_lo, self.b_hi),
                    ParamBox(mid, self.a_hi, self.b_lo, self.b_hi))
        mid = (self.b_lo + self.b_hi) / 2
        return (ParamBox(self.a_lo, self.a_hi, self.b_lo, mid),
                ParamBox(self.a_lo, self.a_hi, mid, self.b_hi))

    def contains(self, other: "ParamBox") -> bool:
        return (self.a_lo <= other.a_lo and other.a_hi <= self.a_hi
                and self.b_lo <= other.b_lo and other.b_hi <= self.b_hi)

    @classmethod
    def square(cls, re: Fraction, im: Fraction, radius: Fraction) -> "ParamBox":
        """The bounding square of the disk D(re + im i, radius)."""
        return cls(re - radius, re + radius, im - radius, im + radius)

    def to_dict(self) -> dict:
        return {name: f"{getattr(self, name).numerator}/{getattr(self, name).denominator}"
                for name in ("a_lo", "a_hi", "b_lo", "b_hi")}


# Enclosure of the large-modulus reliability root R of the 6-vertex
# two-clique base graph (params m=n=3, a=1, b=6).  ``cli.run_certificate``
# proves that it holds a root disk and transports it to every certificate
# box with ``kth_root_ratio_box``.
BASE_ROOT_BOX = ParamBox.of(Fraction(69659, 100000), Fraction(69660, 100000),
                            Fraction(77393, 100000), Fraction(77394, 100000))


@dataclass
class SchurCohnReport:
    """Signs of the nested determinants and the induced outside-root count.

    ``signs[k]`` is '+', '-' or '?'; ``beta`` (sign changes in the sequence
    prefixed by 1) is present only when every sign is determinate.
    """

    signs: tuple[str, ...]
    beta: Optional[int]
    box: Optional[ParamBox] = None
    subdivision_depth: int = 0

    @property
    def determinate(self) -> bool:
        return all(s in "+-" for s in self.signs)

    def to_json(self) -> str:
        doc = {"signs": list(self.signs), "beta": self.beta,
               "subdivision_depth": self.subdivision_depth}
        if self.box is not None:
            doc["box"] = self.box.to_dict()
        return json.dumps(doc)


def _sign_changes(signs: Sequence[int]) -> int:
    seq = [1] + list(signs)
    return sum(1 for i in range(1, len(seq)) if seq[i - 1] * seq[i] < 0)


# ---------------------------------------------------------------------------
# Exact path: the Schur-Cohn matrix over the integers and the Gaussian integers
# ---------------------------------------------------------------------------


def _schur_cohn_matrix(coeffs: Sequence[int], conj: Sequence[int], k: int) -> list[list[int]]:
    """The k x k Schur-Cohn matrix H = B*B - A*A of c_0 + c_1 q + ... + c_d q^d,
    over the integers, with the conjugates c̄_i read from ``conj``.

    A is the k x k upper triangular Toeplitz matrix with A[i][j] = c_{j-i}
    and B the one with B[i][j] = c̄_{d-j+i}; the starred blocks are their
    transposes with c and c̄ exchanged (conjugate transposes when c̄ is the
    conjugate of c).  H[i][j] sums over l from 0 to min(i, j); its
    l = 0 term is c_{d-i} c̄_{d-j} - c̄_i c_j and the rest is H[i-1][j-1],
    so H fills in O(k^2).

    Every entry is bilinear in (c, c̄), so c̄ may be any sequence: the
    Hermitian matrix of Gaussian-integer coefficients is assembled from
    three such integer matrices (``_hermitian_matrix``), and the
    certificate grid passes the real integers that c and c̄ become at an
    imaginary parameter (``_det_sign_polynomials``).
    """
    d = len(coeffs) - 1
    h = [[0] * k for _ in range(k)]
    for i in range(k):
        top, low, row = coeffs[d - i], conj[i], h[i]
        for j in range(k):
            row[j] = top * conj[d - j] - low * coeffs[j] + (h[i - 1][j - 1] if i and j else 0)
    return h


def _hermitian_matrix(gcoeffs: list[GInt], k: int) -> list[list[GInt]] | list[list[int]]:
    """The k x k Hermitian Schur-Cohn matrix of Gaussian-integer coefficients.

    With c = x + iy and c̄ = x - iy, bilinearity splits H(c, c̄) into
    G(x, x) + G(y, y) + i·(G(y, x) - G(x, y)), G the integer matrix of
    ``_schur_cohn_matrix``, and G(y, x) is the transpose of G(x, y).  Real
    coefficients give G(x, x) alone, as plain ints.
    """
    x = [re for re, _ in gcoeffs]
    y = [im for _, im in gcoeffs]
    h = _schur_cohn_matrix(x, x, k)
    if not any(y):
        return h
    hy, g = _schur_cohn_matrix(y, y, k), _schur_cohn_matrix(x, y, k)
    return [[(h[i][j] + hy[i][j], g[j][i] - g[i][j]) for j in range(k)] for i in range(k)]


def schur_cohn(p) -> SchurCohnReport:
    """Exact root counting for a complex-rational polynomial.

    Returns the determinant signs and the number of roots outside the unit
    circle.  Raises :class:`SchurCohnHypothesisError` when some determinant
    vanishes exactly (the test then says nothing).
    """
    coeffs = cpoly_normalize(p.coeffs if isinstance(p, RatPoly) else list(p))
    if not coeffs:
        raise InputError("root counting needs a nonzero polynomial")
    n = len(coeffs) - 1
    if n < 1:
        raise InputError("root counting needs degree >= 1")

    gcoeffs, _ = _clear_denominators(coeffs)
    dets = _nested_dets(gcoeffs)
    for k, det in enumerate(dets, start=1):
        if det == 0:
            raise SchurCohnHypothesisError(
                f"determinant M_{k} is exactly zero; the test hypothesis fails")
    signs = [1 if det > 0 else -1 for det in dets]
    return SchurCohnReport(
        signs=tuple("+" if s > 0 else "-" for s in signs),
        beta=_sign_changes(signs),
    )


def _clear_denominators(coeffs: Sequence[QComplex]) -> tuple[list[GInt], int]:
    """Gaussian-integer coefficients times their least common denominator.

    Scaling by a positive rational multiplies each determinant M_k by a
    positive factor (denominator^(2k)), leaving every sign unchanged.
    """
    denom = lcm(*(c.re.denominator for c in coeffs), *(c.im.denominator for c in coeffs))
    return [(int(c.re * denom), int(c.im * denom)) for c in coeffs], denom


def _real(det: GInt | int) -> int:
    """A leading principal minor of the Hermitian test matrix H, which is real, as an int."""
    if isinstance(det, int):
        return det
    re, im = det
    if im != 0:
        raise NumericalError("test determinant came out non-real")
    return re


def _leading_minors(h: list[list]) -> list:
    """The leading principal minors of orders 1..k of a k x k matrix.

    ``bareiss_det`` reports them until its first row swap; each one past
    that swap comes from the elimination of its own leading block.
    """
    _, minors = bareiss_det(h)
    return minors + [bareiss_det([row[:k] for row in h[:k]])[0]
                     for k in range(len(minors) + 1, len(h) + 1)]


def _nested_dets(gcoeffs: list[GInt]) -> list[int]:
    """M_1..M_d of Gaussian-integer coefficients, from one elimination.

    The Schur-Cohn determinant M_k is det [[B*, A], [A*, B]] with the k x k
    blocks of ``_schur_cohn_matrix``.  B* and A* are lower triangular
    Toeplitz, so both are polynomials in the lower shift and commute.  Where
    B* is invertible, det = det(B*) det(B - A* B*^-1 A) = det(B*B - B*A*B*^-1 A)
    = det(B*B - A*A); both sides are polynomials in the coefficients, so
    M_k = det H_k everywhere (J. R. Silvester, Math. Gazette 84, 2000).

    Nesting: A and B are upper triangular, so an entry of B*B - A*A sums only
    over l <= min(i, j) < k, and the coefficients it reads do not depend on k.
    So H_k is the leading k x k block of H_d and M_k its leading principal
    minor of order k (``_leading_minors``).
    """
    d = len(gcoeffs) - 1
    return [_real(m) for m in _leading_minors(_hermitian_matrix(gcoeffs, d))]


def _exact_mks(coeffs: Sequence[QComplex]) -> list[Fraction]:
    """Exact M_1..M_d for complex-rational coefficients, from one elimination."""
    gcoeffs, denom = _clear_denominators(coeffs)
    return [Fraction(det, denom ** (2 * k))
            for k, det in enumerate(_nested_dets(gcoeffs), start=1)]


# ---------------------------------------------------------------------------
# Box path
# ---------------------------------------------------------------------------

# Working precision of the private interval context of the box transport
# and the certificate sign checks; it holds every determinant polynomial
# coefficient (at most 152 bits) exactly.
_INTERVAL_BITS = 256


@cache
def _interval_context() -> MPIntervalContext:
    """The one private context, so no call reads or sets mpmath's global
    precision.  Nothing changes its precision, so calls may run concurrently."""
    iv = MPIntervalContext()
    iv.prec = _INTERVAL_BITS
    return iv


def _enclose(iv: MPIntervalContext, lo: Fraction, hi: Fraction):
    """An interval of ``iv`` holding [lo, hi], its rational endpoints rounded outward."""
    return iv.mpf((iv.mpf(lo.numerator) / lo.denominator,
                   iv.mpf(hi.numerator) / hi.denominator))


@dataclass
class BoxPoly:
    """A certificate pencil with its parameter ranging over a rational box.

    Sign certification evaluates the pencil's exact determinant polynomials
    over ``box`` and bisects it when a sign is undecided.
    """

    box: ParamBox
    pencil: "CertificatePencil" = field(repr=False)

    @property
    def degree(self) -> int:
        return self.pencil.degree

    @property
    def valid_degree(self) -> bool:
        """Whether the leading coefficient is nonzero everywhere on the box.

        The leading coefficient s_d - (a+bi) r_d is a nonzero constant when
        r_d = 0, and otherwise vanishes only at the real parameter
        a = s_d/r_d, b = 0; the test is exact.
        """
        s_d, r_d = list(self.pencil._coeff_pairs())[-1]
        if r_d == 0:
            return s_d != 0
        box = self.box
        return not (box.a_lo <= s_d / r_d <= box.a_hi and box.b_lo <= 0 <= box.b_hi)


def _box_signs(bp: BoxPoly) -> list[str]:
    """Evaluate the exact determinant polynomials over the box.

    Each P_k(a, t = b^2) takes one interval Horner pass in the private
    interval context, and its sign is '+' or '-' only when the whole
    interval excludes 0.

    Interval elimination on the coefficient intervals would ignore that
    every matrix entry shares the one parameter a+bi, and its dependency
    blowup swamps the sign for the larger gadgets; the precomputed bivariate
    polynomials evaluate tightly with a single interval Horner pass each.
    """
    if not bp.valid_degree:
        return ["?"] * bp.degree
    iv = _interval_context()
    box = bp.box
    a = _enclose(iv, box.a_lo, box.a_hi)
    # An even power, not b * b: the product of a b interval straddling 0
    # with itself takes a negative lower end.
    t = _enclose(iv, box.b_lo, box.b_hi) ** 2
    signs = []
    for p in _det_sign_polynomials(bp.pencil.n):
        val = iv.mpf(0)
        for row in reversed(p):
            inner = iv.mpf(0)
            for c in reversed(row):
                inner = inner * t + c
            val = val * a + inner
        signs.append("+" if val.a > 0 else "-" if val.b < 0 else "?")
    return signs


def schur_cohn_box(bp: BoxPoly, max_depth: int = 12) -> SchurCohnReport:
    """Certified sign pattern over a parameter box.

    If some determinant interval straddles zero, the box is bisected along
    its longest side (up to ``max_depth``, and never a point box, which has
    no width to split) and all leaves must agree on one sign pattern;
    otherwise the report comes back indeterminate.
    """

    def solve(poly: BoxPoly, depth: int) -> tuple[tuple[str, ...], int]:
        signs = tuple(_box_signs(poly))
        box = poly.box
        if ("?" not in signs or depth >= max_depth
                or (box.a_lo == box.a_hi and box.b_lo == box.b_hi)):
            return signs, depth
        left, right = box.split()
        s1, d1 = solve(poly.pencil.box_poly(left), depth + 1)
        s2, d2 = solve(poly.pencil.box_poly(right), depth + 1)
        if "?" in s1 or "?" in s2 or s1 != s2:
            return tuple("?" if a != b or a == "?" else a for a, b in zip(s1, s2)), max(d1, d2)
        return s1, max(d1, d2)

    signs, depth = solve(bp, 0)
    beta = None
    if all(s in "+-" for s in signs):
        beta = _sign_changes([1 if s == "+" else -1 for s in signs])
    return SchurCohnReport(signs=signs, beta=beta, box=bp.box, subdivision_depth=depth)


# ---------------------------------------------------------------------------
# The certificate pencil for the gadget K_n minus an edge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificatePencil:
    """The parametric polynomial s(q) - (a+bi) r(q) whose roots outside the
    unit circle certify reliability roots of the substituted graphs.

    Here s and r are the split reliability and the reliability of K_n minus
    an edge, both divided exactly by their common (1-q)^(n-2) factor.
    """

    n: int
    split_reduced: RatPoly
    rel_reduced: RatPoly

    @property
    def degree(self) -> int:
        return comb(self.n - 1, 2)

    def _coeff_pairs(self) -> Iterator[tuple[Fraction, Fraction]]:
        return zip_longest(self.split_reduced.coeffs, self.rel_reduced.coeffs,
                           fillvalue=Fraction(0))

    def exact_poly(self, a, b) -> list[QComplex]:
        a, b = Fraction(a), Fraction(b)
        return [QComplex(s - a * r, -b * r) for s, r in self._coeff_pairs()]

    def box_poly(self, box: ParamBox) -> BoxPoly:
        return BoxPoly(box=box, pencil=self)


def _newton_steps(xs: list[int]) -> list[int]:
    """Denominator steps of divided differences on the distinct integer nodes xs.

    Entry j (j >= 1) is the lcm of |x_i - x_{i-j}| over i; entry 0 is 1.
    A divided difference of order j of integer values, on consecutive
    nodes of xs or of any node list that begins like xs, times the product
    D_j of entries 1..j, is then an integer.
    """
    return [1] + [lcm(*(abs(xs[i] - xs[i - j]) for i in range(j, len(xs))))
                  for j in range(1, len(xs))]


def _divided_differences(xs: list[int], ys: list[int], steps: list[int]) -> list[int]:
    """D_j · f[x_0, ..., x_j] for j = 0, 1, ..., of the integer values ys at
    xs, all integers, with D_j from ``steps`` (``_newton_steps``).

    Induction on j: f[x_{i-j}..x_i] = (f[x_{i-j+1}..x_i] - f[x_{i-j}..x_{i-1}])
    / (x_i - x_{i-j}), and D_j / (D_{j-1}·(x_i - x_{i-j})) is an integer.
    """
    n = len(xs)
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * (steps[j] // (xs[i] - xs[i - j]))
    return coef


def _interp_1d(xs: list[int], ys: list[int], steps: list[int]) -> list[int]:
    """D_{n-1} times the monomial coefficients of the polynomial through the
    integer values ys at the n integer nodes xs, all integers.

    The Newton form sum_j f[x_0..x_j] (x - x_0)...(x - x_{j-1}), times
    D_{n-1}, is expanded by Horner's rule over the integers.
    """
    n = len(xs)
    coef = _divided_differences(xs, ys, steps)
    out = [coef[n - 1]]
    scale = 1    # D_{n-1} / D_i
    for i in range(n - 2, -1, -1):
        scale *= steps[i + 1]
        new = [0] * (len(out) + 1)
        for dgr, c in enumerate(out):
            new[dgr + 1] += c
            new[dgr] -= c * xs[i]
        new[0] += coef[i] * scale
        out = new
    return out


@cache
def _det_sign_polynomials(n: int):
    """Exact bivariate polynomials P_k(a, t) with P_k(a, b^2) = M_k(a, b).

    Three exact facts bring the work down to one elimination over the
    integers per node of one shared grid.

    Nested minors.  M_k is the leading principal minor of order k of the
    d x d Hermitian Schur-Cohn matrix H of the pencil, d its degree (proof
    at ``_nested_dets``; the nesting holds for any c̄).  So one
    fraction-free elimination per node gives M_1..M_d.

    Lower-set support.  Every pencil coefficient s_i - (a+bi) r_i is affine
    in (a, b), and every entry of H is a sum of products of two of them, so
    the k x k determinant M_k has total degree <= 2k.  Negating b conjugates
    the coefficients, which turns the Hermitian H into conj(H) = H^T, whose
    leading principal minors are those of H, so M_k is even in b.
    In t = b^2 its monomials a^i t^j therefore have i + 2j <= 2k.  Write
    P_k = sum_j C_j(a) N_j(t) in the Newton basis
    N_j = (t - t_0)...(t - t_{j-1}); as t^j is a combination of N_0..N_j,
    C_j has degree <= 2k - 2j in a.  At a node a_i, C_j(a_i) is the divided
    difference of P_k(a_i, .) on t_0..t_j, which needs the values at
    (a_i, t_0..t_j) only, and it is needed for i <= 2k - 2j; C_j then
    follows by interpolation on a_0..a_{2k-2j}.  With a = 0, 1, -1, 2, -2, ...
    and t = 0, -1, -4, ..., -d^2, every k reads its nodes (a_i, t_j),
    i + 2j <= 2k, off the one grid for k = d: (d + 1)^2 nodes, 121 at n = 6.

    Real integers at every node.  With the conjugate written as the
    polynomial c̄_i = s_i - (a - bi) r_i, every entry of H is an integer
    polynomial in (a, b), bilinear in (c, c̄) (``_schur_cohn_matrix``), so
    M_k(a, b) = P_k(a, b^2) holds for complex b as well.  At b = iβ,
    c_i = s_i - a·r_i + β·r_i and c̄_i = s_i - a·r_i - β·r_i are real, so
    P_k(a, -β^2) is the leading principal minor of order k of a real
    integer matrix, and every grid elimination runs over plain ints.  The
    t-nodes -β^2 lie as far apart as the squares β^2 do, so the
    denominators below are those of the nodes β^2.

    The pencil's coefficients s_i, r_i are integers (checked once), so
    every grid value is an integer, and the interpolation runs over the
    integers: C_j(a_i) carries the denominator D^t_j of its order in t,
    the a-interpolation of C_j one more, D^a_{2k-2j}, and each coefficient
    of P_k comes out as an integer times their lcm.  That lcm must divide
    every coefficient exactly, and each P_k is checked against the exact
    M_k of the Hermitian matrix at one off-grid rational point, all k from
    one more elimination, over the Gaussian integers.  The coefficients
    are returned as ints.
    """
    pencil = certificate_pencil(n)
    d = pencil.degree
    pairs = list(pencil._coeff_pairs())
    if any(x.denominator != 1 for pair in pairs for x in pair):
        raise NumericalError("certificate pencil coefficients are not integers")
    pairs = [(int(s), int(r)) for s, r in pairs]
    a_nodes = [(i + 1) // 2 if i % 2 else -(i // 2) for i in range(2 * d + 1)]
    t_nodes = [-beta * beta for beta in range(d + 1)]
    a_steps, t_steps = _newton_steps(a_nodes), _newton_steps(t_nodes)
    # grid[i][j][k - 1] = P_k(a_i, t_j) on the lower set i + 2j <= 2d.
    grid = [[_leading_minors(_schur_cohn_matrix([s - a * r + beta * r for s, r in pairs],
                                                [s - a * r - beta * r for s, r in pairs], d))
             for beta in range((2 * d - i) // 2 + 1)]
            for i, a in enumerate(a_nodes)]
    # Spot check at an off-grid rational point, t = b^2 = 1/49.
    a_chk, t_chk = Fraction(1, 3), Fraction(1, 49)
    direct = _exact_mks(pencil.exact_poly(a_chk, Fraction(1, 7)))
    # D^t_j for each order j in t.
    t_dens = [prod(t_steps[1:j + 1]) for j in range(d + 1)]
    polys = []
    for k in range(1, d + 1):
        # newton[i][j] = D^t_j · C_j(a_i), from the t-nodes t_0..t_j with i + 2j <= 2k.
        newton = []
        for i in range(2 * k + 1):
            count = (2 * k - i) // 2 + 1
            newton.append(_divided_differences(
                t_nodes[:count], [grid[i][j][k - 1] for j in range(count)], t_steps))
        # dens[j] = D^t_j · D^a_{2k-2j}, the denominator of C_j's coefficients.
        dens = [t_dens[j] * prod(a_steps[1:2 * k - 2 * j + 1]) for j in range(k + 1)]
        den = lcm(*dens)
        # Row i holds den times the coefficients of a^i t^j, j <= (2k - i) / 2 only.
        p = [[0] * ((2 * k - i) // 2 + 1) for i in range(2 * k + 1)]
        basis = [1]    # (t - t_0)...(t - t_{j-1}), lowest degree first
        for j in range(k + 1):
            c_j = _interp_1d(a_nodes[:2 * k - 2 * j + 1],
                             [newton[i][j] for i in range(2 * k - 2 * j + 1)], a_steps)
            for i, ca in enumerate(c_j):
                ca *= den // dens[j]
                for l, cb in enumerate(basis):
                    p[i][l] += ca * cb
            basis = [0] + basis
            for l in range(len(basis) - 1):
                basis[l] -= t_nodes[j] * basis[l + 1]
        if any(c % den for row in p for c in row):
            raise NumericalError("determinant polynomial interpolation went non-integral")
        p = tuple(tuple(c // den for c in row) for row in p)
        # P_k at the spot point times the denominator a_pows[0]·t_pows[0].
        a_pows = [a_chk.numerator ** i * a_chk.denominator ** (2 * k - i)
                  for i in range(2 * k + 1)]
        t_pows = [t_chk.numerator ** j * t_chk.denominator ** (k - j) for j in range(k + 1)]
        scaled = sum(c * a_pows[i] * t_pows[j] for i, row in enumerate(p) for j, c in enumerate(row))
        if direct[k - 1] != Fraction(scaled, a_pows[0] * t_pows[0]):
            raise NumericalError("determinant polynomial failed its spot check")
        polys.append(p)
    return tuple(polys)


def certificate_pencil(n: int) -> CertificatePencil:
    """Build the pencil for K_n minus an edge, verifying the exact divisions.

    Both the reliability and the split reliability of the gadget carry a
    (1-q)^(n-2) factor; a nonzero remainder here would mean the closed
    forms are wrong, so it raises.
    """
    if not 3 <= n <= 6:
        raise InputError(f"certificate pencil is defined for 3 <= n <= 6, got {n}")
    split = sprel_complete_minus_edge(n)
    rel = rel_complete_minus_edge(n)
    for _ in range(n - 2):
        split, rem_s = split.divide_one_minus_q()
        rel, rem_r = rel.divide_one_minus_q()
        if rem_s != 0 or rem_r != 0:
            raise NumericalError("gadget polynomials were not divisible by (1-q)^(n-2)")
    pencil = CertificatePencil(n=n, split_reduced=split, rel_reduced=rel)
    if pencil.degree != max(split.degree, rel.degree):
        raise NumericalError("unexpected pencil degree after reduction")
    return pencil


# ---------------------------------------------------------------------------
# Rigorous image box of z/(1-z) over k-th roots of a root enclosure
# ---------------------------------------------------------------------------

def kth_root_ratio_box(re_lo, re_hi, im_lo, im_hi, k: int) -> ParamBox:
    """Enclose { z/(1-z) : z principal k-th root of w, w in the input box }.

    The box, with its exact rational endpoints rounded outward, is mapped
    as one interval cell through z = exp(log(w)/k) and -1 + 1/(1-z) in
    mpmath's interval arithmetic, which rounds every operation outward.
    The arithmetic runs in a private interval context at 256 bits, so it
    neither reads nor changes mpmath's process-wide precision.  The exact
    rational hull of the image is returned, so it contains the true image
    without any pad.
    """
    if k < 1:
        raise InputError("root index k must be >= 1")
    re_lo, re_hi = Fraction(re_lo), Fraction(re_hi)
    im_lo, im_hi = Fraction(im_lo), Fraction(im_hi)
    if re_lo > re_hi or im_lo > im_hi:
        raise InputError("input box endpoints out of order")
    if re_lo <= 1 <= re_hi and im_lo <= 0 <= im_hi:
        raise InputError("input box contains 1, a pole of z/(1-z)")
    if k > 1 and re_lo <= 0 <= re_hi and im_lo <= 0 <= im_hi:
        raise InputError("input box contains 0; k-th root enclosure is ambiguous")
    # The principal logarithm jumps across the negative real axis; an
    # interval argument straddling it widens to [-pi, pi].
    if k > 1 and not (re_lo > 0 or im_lo > 0 or im_hi < 0):
        raise InputError("input box must avoid the negative real axis for k > 1")

    iv = _interval_context()
    z = iv.mpc(_enclose(iv, re_lo, re_hi), _enclose(iv, im_lo, im_hi))
    if k > 1:
        z = iv.exp(iv.log(z) / k)
    (a_lo, a_hi), (b_lo, b_hi) = (-1 + 1 / (1 - z))._mpci_
    return ParamBox(_exact_fraction(a_lo), _exact_fraction(a_hi),
                    _exact_fraction(b_lo), _exact_fraction(b_hi))


def _exact_fraction(raw) -> Fraction:
    """Exact rational value of a raw mpmath float (sign, mantissa, exponent, bits)."""
    man, exp = _dyadic(raw)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a Fraction, an int, a float or a finite mpf, read
    at the precision it carries, never at mpmath's working precision."""
    return _exact_fraction(x._mpf_) if hasattr(x, "_mpf_") else Fraction(x)
