"""Root counting relative to the unit circle, with certified box variants.

The classical determinant test is evaluated exactly for polynomials with
complex-rational coefficients (fraction-free elimination over Gaussian
integers after clearing denominators, which rescales every determinant by
a positive factor).  For the certificate pencil, whose coefficients depend
on a complex parameter a+bi ranging over a rational box, the determinants
are exact bivariate polynomials in the parameter, bounded over the box by
interval Horner evaluation in exact integers, over the box's common
denominator.  When an interval sign is undecided the box is bisected along
its longest side, and a certificate requires one uniform sign pattern
across all leaves.

Every certificate box is the image of one root enclosure, transported as
a single cell: a disk about a k-th root polished by Newton's method, with
an exact binomial-series radius, mapped exactly by the Möbius map z/(1-z)
and rounded outward to a 2^-256 grid.  Nothing here uses floating point
for a bound, nor mpmath.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import comb, isqrt, lcm, prod
from typing import Iterator, Optional, Sequence

from .closed_forms import rel_complete_minus_edge, sprel_complete_minus_edge
from .errors import InputError, NumericalError, SchurCohnHypothesisError
from .fixed_point import _dyadic, _modulus, _quotient, _scaled_int, _to_fixed
from .polynomials import GInt, QComplex, RatPoly, Record, bareiss_det, cpoly_normalize


class ParamBox(Record):
    """Rational rectangle [a_lo,a_hi] x [b_lo,b_hi] for the parameter a+bi."""

    __slots__ = ("a_lo", "a_hi", "b_lo", "b_hi")

    def __init__(self, a_lo: Fraction, a_hi: Fraction, b_lo: Fraction, b_hi: Fraction):
        if a_lo > a_hi or b_lo > b_hi:
            raise InputError("parameter box endpoints out of order")
        self.a_lo, self.a_hi, self.b_lo, self.b_hi = a_lo, a_hi, b_lo, b_hi

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


class SchurCohnReport(Record):
    """Signs of the nested determinants and the induced outside-root count.

    ``signs[k]`` is '+', '-' or '?'; ``beta`` (sign changes in the sequence
    prefixed by 1) is present only when every sign is determinate.
    """

    __slots__ = ("signs", "beta", "box", "subdivision_depth")

    def __init__(self, signs: tuple[str, ...], beta: Optional[int],
                 box: Optional[ParamBox] = None, subdivision_depth: int = 0):
        self.signs, self.beta = signs, beta
        self.box, self.subdivision_depth = box, subdivision_depth

    __hash__ = None

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

class BoxPoly(Record):
    """A certificate pencil with its parameter ranging over a rational box.

    Sign certification evaluates the pencil's exact determinant polynomials
    over ``box`` and bisects it when a sign is undecided.
    """

    __slots__ = ("box", "pencil")

    def __init__(self, box: ParamBox, pencil: "CertificatePencil"):
        self.box, self.pencil = box, pencil

    __hash__ = None

    def __repr__(self):
        return f"BoxPoly(box={self.box!r})"

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


def _integer_box(box: ParamBox) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """(D, A, T): the box over one common denominator D, with a in A/D and
    t = b^2 in T/D^2 for integer intervals A and T.

    T is the exact range of the square, [0, max] when b straddles 0 (the
    product of such a b interval with itself would take a negative end).
    """
    den = lcm(box.a_lo.denominator, box.a_hi.denominator,
              box.b_lo.denominator, box.b_hi.denominator)
    a_lo, a_hi, b_lo, b_hi = (x.numerator * (den // x.denominator)
                              for x in (box.a_lo, box.a_hi, box.b_lo, box.b_hi))
    squares = b_lo * b_lo, b_hi * b_hi
    return den, (a_lo, a_hi), (0 if b_lo <= 0 <= b_hi else min(squares), max(squares))


def _times(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """The exact product of two integer intervals: the hull of four products."""
    prods = x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1]
    return min(prods), max(prods)


def _scaled_horner(p, k: int, den: int, a: tuple[int, int], t: tuple[int, int]) -> tuple[int, int]:
    """An integer interval holding D^(2k)·P_k(A/D, T/D^2) over the integer
    intervals A and T (``_integer_box``), D = ``den``.

    D^(2k)·P_k = sum c_ij·D^(2k-i-2j)·A^i·T^j, so one interval Horner pass
    over the scaled coefficients, in T within each row and then in A, runs
    in exact integers.  Scaling by a positive constant commutes with interval
    products and sums, so this is D^(2k) times the exact interval Horner
    value of P_k on the rational box, which any outward rounding contains.
    """
    pows = [1]
    for _ in range(2 * k):
        pows.append(pows[-1] * den)
    val = (0, 0)
    for i in range(len(p) - 1, -1, -1):
        inner = (0, 0)
        for j in range(len(p[i]) - 1, -1, -1):
            c = p[i][j] * pows[2 * k - i - 2 * j]
            lo, hi = _times(inner, t)
            inner = lo + c, hi + c
        lo, hi = _times(val, a)
        val = lo + inner[0], hi + inner[1]
    return val


def _box_signs(bp: BoxPoly) -> list[str]:
    """Evaluate the exact determinant polynomials over the box.

    Each P_k(a, t = b^2) takes one interval Horner pass in exact integers
    (``_scaled_horner``), and its sign is '+' or '-' only when the whole
    interval excludes 0.

    Interval elimination on the coefficient intervals would ignore that
    every matrix entry shares the one parameter a+bi, and its dependency
    blowup swamps the sign for the larger gadgets; the precomputed bivariate
    polynomials evaluate tightly with a single interval Horner pass each.
    """
    if not bp.valid_degree:
        return ["?"] * bp.degree
    box = _integer_box(bp.box)
    signs = []
    for k, p in enumerate(_det_sign_polynomials(bp.pencil.n), start=1):
        lo, hi = _scaled_horner(p, k, *box)
        signs.append("+" if lo > 0 else "-" if hi < 0 else "?")
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


class CertificatePencil(Record):
    """The parametric polynomial s(q) - (a+bi) r(q) whose roots outside the
    unit circle certify reliability roots of the substituted graphs.

    Here s and r are the split reliability and the reliability of K_n minus
    an edge, both divided exactly by their common (1-q)^(n-2) factor.
    """

    __slots__ = ("n", "split_reduced", "rel_reduced")

    def __init__(self, n: int, split_reduced: RatPoly, rel_reduced: RatPoly):
        self.n, self.split_reduced, self.rel_reduced = n, split_reduced, rel_reduced

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
    # Spot check at an off-grid rational point, a = 1/3 and b = 1/7, read as
    # a point box by the evaluator of the box path.
    spot = ParamBox.of(Fraction(1, 3), Fraction(1, 3), Fraction(1, 7), Fraction(1, 7))
    spot_box = _integer_box(spot)
    direct = _exact_mks(pencil.exact_poly(spot.a_lo, spot.b_lo))
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
        scaled, _ = _scaled_horner(p, k, *spot_box)
        if direct[k - 1] != Fraction(scaled, spot_box[0] ** (2 * k)):
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

# The image box is rounded outward to multiples of 2^-_GRID_BITS, and the
# k-th root is polished at a fixed point of twice as many bits.
_GRID_BITS = 256


def _ceil_sqrt(n: int) -> int:
    """The least integer at or above the square root of the integer n >= 0."""
    return isqrt(n - 1) + 1 if n else 0


def _powers(zr: int, zi: int, k: int, shift: int = 0) -> list[tuple[int, int]]:
    """z^0, ..., z^k of z = zr + i·zi: exact Gaussian integers for shift 0,
    else at the fixed point 2^shift with every product floored."""
    out = [(1 << shift, 0)]
    for _ in range(k):
        pr, pi = out[-1]
        out.append(((pr * zr - pi * zi) >> shift, (pr * zi + pi * zr) >> shift))
    return out


def kth_root_ratio_box(re_lo, re_hi, im_lo, im_hi, k: int) -> ParamBox:
    """Enclose { z/(1-z) : z principal k-th root of w, w in the input box }.

    Every bound is exact, in integers, for whatever approximate root z0 of
    the box's centre w0 the Newton steps give:

    - z0 starts from doubles and takes three Newton steps on z^k = w0 at a
      fixed point of 2·_GRID_BITS bits.  The box lies in the disk D(w0, r),
      r its half diagonal.
    - With s = (|z0^k - w0| + r)/|z0|^k < 1, every w in the box is
      z0^k·(1 + δ) with |δ| <= s, and z = z0·(1 + δ)^(1/k) (the binomial
      series) is a k-th root of w.  As |C(1/k, j)| <= 1/k for j >= 1,
      |z - z0| <= ρ = |z0|·s/(k(1 - s)).  For k = 1, z = w and
      ρ = |z0 - w0| + r.  So s < 1 rejects the boxes that hold 0.
    - These roots are principal.  The box avoids the negative real axis,
      where the principal root jumps, so on the connected box it is a
      constant k-th root of unity times z0·(1 + δ)^(1/k), and it is enough
      that the root of w0 in D(z0, ρ0), ρ0 the radius for r = 0, is
      principal.  Every point of that disk is: for k > 1, Im z^j keeps the
      sign of Im z0 for j = 1..k exactly when 0 < |arg z| < π/k, and
      Re z^j > 0 for j = 1..k gives |arg z| < π/(2k), as the first j with
      j·|arg z| >= π/2 would have j·|arg z| < π.  Over the disk,
      |z^j - z0^j| <= (|z0| + ρ0)^j - |z0|^j bounds both.
    - -1 + 1/(1-z) maps D(z0, ρ) onto the disk with centre -1 + ū/g and
      radius ρ/g, u = 1 - z0 and g = |u|^2 - ρ^2 > 0, so g > 0 rejects the
      boxes that hold the pole 1.  Its bounding square, rounded outward to
      multiples of 2^-_GRID_BITS, is returned.
    """
    if k < 1:
        raise InputError("root index k must be >= 1")
    re_lo, re_hi = Fraction(re_lo), Fraction(re_hi)
    im_lo, im_hi = Fraction(im_lo), Fraction(im_hi)
    if re_lo > re_hi or im_lo > im_hi:
        raise InputError("input box endpoints out of order")
    # The principal root jumps across the negative real axis.
    if k > 1 and not (re_lo > 0 or im_lo > 0 or im_hi < 0):
        raise InputError("input box must avoid the negative real axis for k > 1")

    bits = 2 * _GRID_BITS
    q = lcm(re_lo.denominator, re_hi.denominator, im_lo.denominator, im_hi.denominator)
    x0, x1, y0, y1 = (v.numerator * (q // v.denominator) for v in (re_lo, re_hi, im_lo, im_hi))
    cx, cy = x0 + x1, y0 + y1    # w0 = (cx + i·cy) / 2q
    wr, wi = _scaled_int(Fraction(cx, 2 * q), bits), _scaled_int(Fraction(cy, 2 * q), bits)
    # A double start, read from w0 / 2^(k·e) so that it stays in range.
    e = (max(abs(cx), abs(cy)).bit_length() - (2 * q).bit_length()) // k
    scale = Fraction(2) ** (k * e) * 2 * q
    z = _to_fixed(complex(cx / scale, cy / scale) ** (1 / k), bits + e)
    for _ in range(3):
        (pr, pi), (xk, yk) = _powers(*z, k, bits)[k - 1:]
        z = _quotient((k - 1) * xk + wr, (k - 1) * yk + wi, k * pr, k * pi, bits)
        if z is None:
            raise InputError("input box lies too near 0; k-th root enclosure is ambiguous")
    zr, zi = z
    pows = _powers(zr, zi, k)
    xk, yk = pows[k]
    # s = s_num / s_den, both at the scale 2q·2^(k·bits), rounded up and down.
    ex, ey = 2 * q * xk - (cx << k * bits), 2 * q * yk - (cy << k * bits)
    e_num = _ceil_sqrt(ex * ex + ey * ey)
    s_num = e_num + _ceil_sqrt(((x1 - x0) ** 2 + (y1 - y0) ** 2) << 2 * k * bits)
    if k == 1:
        rho = -(-s_num // (2 * q))    # ρ·2^bits, rounded up
    else:
        s_den = 2 * q * _modulus(xk, yk)
        if s_num >= s_den:
            raise InputError("input box lies too near 0; k-th root enclosure is ambiguous")
        norm = zr * zr + zi * zi
        # ρ·2^bits for the box, and for its centre alone, rounded up.
        rho, rho0 = (-(-(_ceil_sqrt(norm) * num) // (k * (s_den - num)))
                     for num in (s_num, e_num))
        step_up, step_down = _ceil_sqrt(norm) + rho0, _modulus(zr, zi)
        upper = lower = 1
        same_side = right = True
        for xj, yj in pows[1:]:
            upper, lower = upper * step_up, lower * step_down
            same_side &= (yj if zi > 0 else -yj) > upper - lower
            right &= xj > upper - lower
        if not (same_side or right):
            raise InputError("the k-th root of the input box's centre was not proven principal")
    ur = (1 << bits) - zr
    g = ur * ur + zi * zi - rho * rho    # g·2^(2·bits)
    if g <= 0:
        raise InputError("input box contains 1, a pole of z/(1-z), or lies too near it")
    shift, grid = bits + _GRID_BITS, 1 << _GRID_BITS
    return ParamBox(Fraction(((ur - rho) << shift) // g - grid, grid),
                    Fraction(-((-(ur + rho) << shift) // g) - grid, grid),
                    Fraction(((zi - rho) << shift) // g, grid),
                    Fraction(-((-(zi + rho) << shift) // g), grid))


def _exact_fraction(raw) -> Fraction:
    """Exact rational value of a raw mpmath float (sign, mantissa, exponent, bits)."""
    man, exp = _dyadic(raw)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a Fraction, an int, a float or a finite mpf, read
    at the precision it carries, never at mpmath's working precision."""
    return _exact_fraction(x._mpf_) if hasattr(x, "_mpf_") else Fraction(x)
