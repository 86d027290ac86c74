"""Root counting relative to the unit circle, with certified box variants.

The classical determinant test is evaluated exactly for polynomials with
complex-rational coefficients (fraction-free elimination over Gaussian
integers after clearing denominators, which rescales every determinant by
a positive factor).  For the certificate pencil, whose coefficients depend
on a complex parameter a+bi ranging over a rational box, the determinants
are exact bivariate polynomials in the parameter, bounded over the box in
rational interval arithmetic.  When an interval sign is undecided the box
is bisected along its longest side, and a certificate requires one uniform
sign pattern across all leaves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from math import comb, lcm
from typing import Iterator, Optional, Sequence

import mpmath as mp

from .closed_forms import rel_complete_minus_edge, sprel_complete_minus_edge
from .errors import InputError, NumericalError, SchurCohnHypothesisError
from .intervals import QComplexInterval, QInterval
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
        return cls(Fraction(a_lo), Fraction(a_hi), Fraction(b_lo), Fraction(b_hi))

    @property
    def a(self) -> QInterval:
        return QInterval(self.a_lo, self.a_hi)

    @property
    def b(self) -> QInterval:
        return QInterval(self.b_lo, self.b_hi)

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

    def to_dict(self) -> dict:
        return {name: f"{getattr(self, name).numerator}/{getattr(self, name).denominator}"
                for name in ("a_lo", "a_hi", "b_lo", "b_hi")}


# Published enclosure of the large-modulus reliability root R of the
# 6-vertex two-clique base graph (params m=n=3, a=1, b=6), and of the
# transformed parameter z/(1-z) at the 9th and 7th principal roots of R.
# These boxes keep the headline certificates float-free end to end.
BASE_ROOT_BOX = ParamBox.of(Fraction(69659, 100000), Fraction(69660, 100000),
                            Fraction(77393, 100000), Fraction(77394, 100000))
RATIO_BOX_K9 = ParamBox.of(Fraction(-101749, 100000), Fraction(-101731, 100000),
                           Fraction(1070762, 100000), Fraction(1070814, 100000))
RATIO_BOX_K7 = ParamBox.of(Fraction(-90269, 100000), Fraction(-90254, 100000),
                           Fraction(832420, 100000), Fraction(832462, 100000))


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
# Exact path: Gaussian-integer fraction-free elimination
# ---------------------------------------------------------------------------


def _test_matrix_exact(coeffs: list[GInt], k: int) -> list[list[GInt]]:
    """The 2k x 2k block matrix [[B*, A],[A*, B]] for the degree-n input.

    A is upper triangular from the low coefficients, B upper triangular from
    the conjugated high ones; the starred blocks are conjugate transposes.
    """
    n = len(coeffs) - 1
    zero: GInt = (0, 0)

    def conj(x: GInt) -> GInt:
        return (x[0], -x[1])

    def a_entry(i: int, j: int) -> GInt:
        return coeffs[j - i] if j >= i else zero

    def b_entry(i: int, j: int) -> GInt:
        return conj(coeffs[n - (j - i)]) if j >= i else zero

    out = []
    for i in range(k):
        row = [conj(b_entry(j, i)) for j in range(k)] + [a_entry(i, j) for j in range(k)]
        out.append(row)
    for i in range(k):
        row = [conj(a_entry(j, i)) for j in range(k)] + [b_entry(i, j) for j in range(k)]
        out.append(row)
    return out


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
    signs: list[int] = []
    for k in range(1, n + 1):
        det = _real_det(gcoeffs, k)
        if det == 0:
            raise SchurCohnHypothesisError(
                f"determinant M_{k} is exactly zero; the test hypothesis fails")
        signs.append(1 if det > 0 else -1)
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


def _real_det(gcoeffs: list[GInt], k: int) -> int:
    """M_k of Gaussian-integer coefficients; the test matrix is Hermitian."""
    re, im = bareiss_det(_test_matrix_exact(gcoeffs, k))
    if im != 0:
        raise NumericalError("test determinant came out non-real")
    return re


def _exact_mk(coeffs: Sequence[QComplex], k: int) -> Fraction:
    """Exact M_k for complex-rational coefficients, via the scaled integer path."""
    gcoeffs, denom = _clear_denominators(coeffs)
    return Fraction(_real_det(gcoeffs, k), denom ** (2 * k))


# ---------------------------------------------------------------------------
# Box path
# ---------------------------------------------------------------------------


@dataclass
class BoxPoly:
    """A certificate pencil's coefficients as complex rational intervals over a box.

    Sign certification evaluates the pencil's exact determinant polynomials
    over ``box`` and bisects it when a sign is undecided.
    """

    coeffs: tuple[QComplexInterval, ...]
    box: ParamBox
    pencil: "CertificatePencil" = field(repr=False)

    def __post_init__(self):
        if not self.coeffs:
            raise InputError("box polynomial needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def valid_degree(self) -> bool:
        """The degree claim needs a leading coefficient interval excluding zero."""
        return self.coeffs[-1].excludes_zero()


def _box_signs(bp: BoxPoly) -> list[str]:
    """Evaluate the exact determinant polynomials over the box.

    Interval elimination on the coefficient intervals would ignore that
    every matrix entry shares the one parameter a+bi, and its dependency
    blowup swamps the sign for the larger gadgets; the precomputed bivariate
    polynomials evaluate tightly with a single interval Horner pass each.
    """
    if not bp.valid_degree:
        return ["?"] * bp.degree
    t_iv = bp.box.b.square()
    signs = []
    for p in _det_sign_polynomials(bp.pencil.n):
        val = _eval_poly2_interval(p, bp.box.a, t_iv)
        s = val.sign()
        signs.append("+" if s > 0 else "-" if s < 0 else "?")
    return signs


def _eval_poly2_interval(p, a_iv: QInterval, t_iv: QInterval) -> QInterval:
    acc = QInterval.point(0)
    for row in reversed(p):
        inner = QInterval.point(0)
        for c in reversed(row):
            inner = inner * t_iv + QInterval.point(c)
        acc = acc * a_iv + inner
    return acc


def schur_cohn_box(bp: BoxPoly, max_depth: int = 12) -> SchurCohnReport:
    """Certified sign pattern over a parameter box.

    If some determinant interval straddles zero, the box is bisected along
    its longest side (up to ``max_depth``) and all leaves must agree on one
    sign pattern; otherwise the report comes back indeterminate.
    """

    def solve(poly: BoxPoly, depth: int) -> tuple[tuple[str, ...], int]:
        signs = tuple(_box_signs(poly))
        if "?" not in signs or depth >= max_depth:
            return signs, depth
        left, right = poly.box.split()
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
        w = QComplexInterval(box.a, box.b)
        coeffs = tuple(QComplexInterval.point(s, 0) - w.scale(r) for s, r in self._coeff_pairs())
        return BoxPoly(coeffs=coeffs, box=box, pencil=self)


def _interp_1d(xs: list[Fraction], ys: list[Fraction]) -> list[Fraction]:
    """Exact univariate polynomial interpolation (Newton divided differences)."""
    n = len(xs)
    coef = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    out = [coef[n - 1]]
    for i in range(n - 2, -1, -1):
        new = [Fraction(0)] * (len(out) + 1)
        for dgr, c in enumerate(out):
            new[dgr + 1] += c
            new[dgr] -= c * xs[i]
        new[0] += coef[i]
        out = new
    return out


_det_poly_cache: dict[int, tuple] = {}


def _det_sign_polynomials(n: int):
    """Exact bivariate polynomials P_k(a, t) with P_k(a, b^2) = M_k(a, b).

    M_k is a real polynomial of degree <= 2k in a and even of degree <= 2k
    in b (conjugating the parameter conjugates the pencil coefficients and
    leaves the determinants fixed), so a (2k+1) x (k+1) grid of exact
    Gaussian-integer determinants pins it down.  Each result is verified
    against a direct determinant at an off-grid rational point.
    """
    cached = _det_poly_cache.get(n)
    if cached is not None:
        return cached
    pencil = certificate_pencil(n)
    d = pencil.degree
    polys = []
    for k in range(1, d + 1):
        a_nodes = [Fraction(v) for v in range(-k, k + 1)]
        b_nodes = list(range(0, k + 1))
        t_nodes = [Fraction(b * b) for b in b_nodes]
        values = [[_exact_mk(pencil.exact_poly(a, b), k) for b in b_nodes]
                  for a in range(-k, k + 1)]
        # Interpolate along t for each a-node, then along a per t-degree.
        t_coef_rows = [_interp_1d(t_nodes, row) for row in values]
        p = []
        for i_coeffs in zip(*[_interp_1d(a_nodes, [t_coef_rows[ia][j] for ia in range(len(a_nodes))])
                              for j in range(k + 1)]):
            p.append(list(i_coeffs))
        if any(c.denominator != 1 for row in p for c in row):
            raise NumericalError("determinant polynomial interpolation went non-integral")
        # Spot check at an off-grid rational point.
        a_chk, b_chk = Fraction(1, 3), Fraction(1, 7)
        direct = _exact_mk(pencil.exact_poly(a_chk, b_chk), k)
        t_chk = b_chk * b_chk
        interp = sum(p[i][j] * a_chk ** i * t_chk ** j
                     for i in range(len(p)) for j in range(len(p[i])))
        if direct != interp:
            raise NumericalError("determinant polynomial failed its spot check")
        polys.append(tuple(tuple(row) for row in p))
    result = tuple(polys)
    _det_poly_cache[n] = result
    return result


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


def kth_root_ratio_box(re_lo, re_hi, im_lo, im_hi, k: int,
                       precision_bits: int = 256, grid: int = 16) -> ParamBox:
    """Enclose { z/(1-z) : z principal k-th root of w, w in the input box }.

    The box is cut into a grid of cells and each cell runs through polar
    enclosures whose corner extremes are rigorous for rectangles confined
    to a half plane off the negative real axis; the hull of the cell images
    is returned.  Everything is evaluated in big-float arithmetic with an
    outward pad that dwarfs the accumulated rounding, so the rational box
    is guaranteed to contain the true image (the wrapping slack of the
    polar detour shrinks linearly with the grid).
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
    # Corner-extreme arguments need the box inside one open half plane
    # avoiding the branch cut.
    if k > 1 and not (re_lo > 0 or im_lo > 0 or im_hi < 0):
        raise InputError("input box must avoid the negative real axis for k > 1")

    with mp.workprec(precision_bits):
        bounds = None
        re_step = (re_hi - re_lo) / grid
        im_step = (im_hi - im_lo) / grid
        for i in range(grid):
            for j in range(grid):
                cell = _map_ratio_cell(
                    re_lo + i * re_step, re_lo + (i + 1) * re_step if re_step else re_hi,
                    im_lo + j * im_step, im_lo + (j + 1) * im_step if im_step else im_hi,
                    k)
                if bounds is None:
                    bounds = list(cell)
                else:
                    bounds = [min(bounds[0], cell[0]), max(bounds[1], cell[1]),
                              min(bounds[2], cell[2]), max(bounds[3], cell[3])]
                if im_step == 0:
                    break
            if re_step == 0:
                break
        pad = mp.mpf(2) ** (-(precision_bits // 2))
        scale = max(1, *(abs(b) for b in bounds))
        return ParamBox(
            a_lo=mpf_to_fraction(bounds[0] - pad * scale),
            a_hi=mpf_to_fraction(bounds[1] + pad * scale),
            b_lo=mpf_to_fraction(bounds[2] - pad * scale),
            b_hi=mpf_to_fraction(bounds[3] + pad * scale),
        )


def _map_ratio_cell(re_lo, re_hi, im_lo, im_hi, k: int):
    """Image bounds of one rectangle cell under z/(1-z) of the k-th root."""
    if k == 1:
        z_re = (mp.mpmathify(re_lo), mp.mpmathify(re_hi))
        z_im = (mp.mpmathify(im_lo), mp.mpmathify(im_hi))
    else:
        corners = [mp.mpc(mp.mpmathify(re), mp.mpmathify(im))
                   for re in (re_lo, re_hi) for im in (im_lo, im_hi)]
        # Polar enclosure of the cell; the principal k-th root then maps it
        # monotonically in both coordinates.
        r_lo, r_hi = _modulus_range(corners, re_lo, re_hi, im_lo, im_hi)
        args = [mp.arg(c) for c in corners]
        t_lo, t_hi = min(args) / k, max(args) / k
        z_re, z_im = _polar_to_rect(mp.root(r_lo, k), mp.root(r_hi, k), t_lo, t_hi)
    # w = z/(1-z) = -1 + 1/(1-z)
    one_minus_re = (1 - z_re[1], 1 - z_re[0])
    one_minus_im = (-z_im[1], -z_im[0])
    inv_re, inv_im = _rect_reciprocal(one_minus_re, one_minus_im)
    return (inv_re[0] - 1, inv_re[1] - 1, inv_im[0], inv_im[1])


def _modulus_range(corners, re_lo, re_hi, im_lo, im_hi):
    mods = [abs(c) for c in corners]
    lo, hi = min(mods), max(mods)
    # The closest point of a rectangle to the origin may be an edge
    # projection rather than a corner.
    if re_lo <= 0 <= re_hi:
        lo = min(lo, abs(mp.mpmathify(min(abs(im_lo), abs(im_hi)))))
    if im_lo <= 0 <= im_hi:
        lo = min(lo, abs(mp.mpmathify(min(abs(re_lo), abs(re_hi)))))
    if re_lo <= 0 <= re_hi and im_lo <= 0 <= im_hi:
        lo = mp.mpf(0)
    return lo, hi


def _polar_to_rect(r_lo, r_hi, t_lo, t_hi):
    """Rectangle enclosing { r e^(it) : r in [r_lo,r_hi], t in [t_lo,t_hi] }."""
    ts = [t_lo, t_hi]
    for axis in (0, mp.pi / 2, -mp.pi / 2, mp.pi, -mp.pi):
        if t_lo <= axis <= t_hi:
            ts.append(axis)
    res = []
    ims = []
    for t in ts:
        c, s = mp.cos(t), mp.sin(t)
        for r in (r_lo, r_hi):
            res.append(r * c)
            ims.append(r * s)
    return (min(res), max(res)), (min(ims), max(ims))


def _rect_reciprocal(re_rng, im_rng):
    """Rectangle enclosing 1/w for w in the given rectangle (0 excluded)."""
    if re_rng[0] <= 0 <= re_rng[1] and im_rng[0] <= 0 <= im_rng[1]:
        raise InputError("reciprocal of a rectangle containing 0")
    corners = [mp.mpc(re, im) for re in re_rng for im in im_rng]
    mods = [abs(c) for c in corners]
    lo = min(mods)
    if re_rng[0] <= 0 <= re_rng[1]:
        lo = min(lo, min(abs(im_rng[0]), abs(im_rng[1])))
    if im_rng[0] <= 0 <= im_rng[1]:
        lo = min(lo, min(abs(re_rng[0]), abs(re_rng[1])))
    hi = max(mods)
    args = [mp.arg(c) for c in corners]
    if max(args) - min(args) > mp.pi:
        raise InputError("rectangle too wide for a single-branch reciprocal")
    r_lo, r_hi = 1 / hi, 1 / lo
    t_lo, t_hi = -max(args), -min(args)
    return _polar_to_rect(r_lo, r_hi, t_lo, t_hi)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a Fraction or of a finite binary float."""
    if isinstance(x, Fraction):
        return x
    x = mp.mpf(x)
    if not mp.isfinite(x):
        raise NumericalError("non-finite value has no exact rational")
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    val = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -val if sign else val
