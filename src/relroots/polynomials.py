"""Exact univariate polynomial arithmetic over rationals.

All reliability algebra stays in this exact layer; floating point only
appears downstream in root analysis.  Coefficients are ascending-degree
:class:`fractions.Fraction` values with a nonzero leading coefficient
(the zero polynomial is the empty tuple).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import accumulate, zip_longest
from operator import add, sub
from typing import Iterable, Sequence, Union

from .errors import InputError, NumericalError

Rat = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise InputError(f"cannot interpret {x!r} as an exact rational")


class Record:
    """Base of the plain slotted records.

    Equality (between records of the same class), hashing and the repr
    ``Name(field=value, ...)`` all follow the subclass's ``__slots__``, in
    order; a subclass writes only ``__init__`` and what differs.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class RatPoly:
    """Univariate polynomial with exact rational coefficients (ascending degree)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "RatPoly(0)"
        terms = [f"{c}*q^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "RatPoly(" + " + ".join(terms) + ")"

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return RatPoly(convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def scale(self, c: Rat) -> "RatPoly":
        c = _frac(c)
        if c == 0:
            return RatPoly.zero()
        return RatPoly([c * x for x in self.coeffs])

    def __pow__(self, k: int) -> "RatPoly":
        if k < 0:
            raise InputError("negative polynomial powers are not defined")
        result = RatPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x: Rat) -> Fraction:
        """Evaluate by Horner's rule."""
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RatPoly":
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def substitute_power(self, k: int) -> "RatPoly":
        """p(q) -> p(q^k); replacing each edge of a graph by a k-bundle acts this way on Rel."""
        if k < 1:
            raise InputError(f"power substitution needs k >= 1, got {k}")
        if k == 1 or self.is_zero():
            return self
        out = [Fraction(0)] * (self.degree * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return RatPoly(out)

    # -- division by (1 - q) ------------------------------------------

    def divide_one_minus_q(self) -> tuple["RatPoly", Fraction]:
        """Synthetic division p = (1-q)*quotient + remainder, remainder constant."""
        if self.is_zero():
            return RatPoly.zero(), Fraction(0)
        # p(q) = (q-1)*s(q) + r  with s by Horner at 1; then (1-q)*(-s) + r.
        quot = [Fraction(0)] * max(len(self.coeffs) - 1, 0)
        acc = Fraction(0)
        for i in range(len(self.coeffs) - 1, 0, -1):
            acc = acc + self.coeffs[i]
            quot[i - 1] = -acc
        rem = acc + self.coeffs[0]
        return RatPoly(quot), rem

    def deflate_unit_roots(self) -> tuple["RatPoly", int]:
        """Factor out (1-q)^k exactly; returns (remaining polynomial, k).

        The denominators are cleared once, to integers a_i over their lcm.
        The remainder of a division by (1-q) is p(1) = Σ a_i, so the loop
        stops at the first nonzero sum; while it is zero, p = (1-q)·s with
        s_i = a_0 + ... + a_i, the prefix sums below the top one.
        """
        if self.is_zero():
            return self, 0
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        k = 0
        while sum(ints) == 0:
            ints = list(accumulate(ints[:-1]))
            k += 1
        return RatPoly(Fraction(c, den) for c in ints), k

    # -- serialization -------------------------------------------------

    def to_json(self, var: str = "q") -> str:
        coeffs = [f"{c.numerator}/{c.denominator}" for c in self.coeffs]
        return json.dumps({"var": var, "coeffs": coeffs})

    @classmethod
    def from_json(cls, text: str) -> "RatPoly":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed polynomial JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("coeffs"), list):
            raise InputError('polynomial JSON must be an object with a "coeffs" list')
        try:
            return cls([Fraction(c) for c in doc["coeffs"]])
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise InputError(f"bad coefficient in polynomial JSON: {exc}") from exc


def convolve(a: Sequence, b: Sequence) -> list:
    """Ascending coefficient list of the product of two ascending coefficient lists.

    For b = 1 ± q, the t of every F/Rel/H transform, the product is one
    linear pass of additions, out_k = a_k ± a_(k-1).
    """
    if not a or not b:
        return []
    if len(b) == 2 and b[0] == 1 and b[1] in (1, -1):
        return list(map(add if b[1] == 1 else sub, [*a, 0], [0, *a]))
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


Q = (0, 1)
ONE_MINUS_Q = (1, -1)
ONE_PLUS_Q = (1, 1)


def compose_homogeneous(c: Sequence, d: int, s: Sequence, t: Sequence) -> list:
    """Ascending coefficient list of sum_j c_j s^j t^(d-j), for len(c) <= d+1.

    Horner in t: acc <- acc*t + c_j s^j for j = 0..d, keeping one running
    power of s.  With s = q the term is c_j at index j, and t = 1 ± q makes
    each step one pass of additions (the Taylor-shift structure of von zur
    Gathen and Gerhard, ISSAC 1997).  Every F/Rel/H transform and the
    substitution formula are this sum; with integer inputs it stays in
    integers.
    """
    monomial = tuple(s) == Q
    acc: list = []
    s_pow: list = [1]
    for j in range(d + 1):
        acc = convolve(acc, t)
        if j < len(c) and c[j]:
            if monomial:
                acc += [0] * (j + 1 - len(acc))
                acc[j] += c[j]
            else:
                term = [c[j] * x for x in s_pow]
                acc = [x + y for x, y in zip_longest(acc, term, fillvalue=0)]
        if j < d and not monomial:
            s_pow = convolve(s_pow, s)
    return acc


# ---------------------------------------------------------------------------
# Gaussian rationals, for complex-coefficient polynomials
# ---------------------------------------------------------------------------


class QComplex(Record):
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction = Fraction(0)):
        self.re, self.im = re, im

    @classmethod
    def of(cls, value) -> "QComplex":
        if isinstance(value, QComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(_frac(value))
        if isinstance(value, tuple) and len(value) == 2:
            return cls(_frac(value[0]), _frac(value[1]))
        raise InputError(f"cannot interpret {value!r} as an exact complex rational")

    def __add__(self, other: "QComplex") -> "QComplex":
        other = QComplex.of(other)
        return QComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QComplex") -> "QComplex":
        other = QComplex.of(other)
        return QComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QComplex":
        return QComplex(-self.re, -self.im)

    def __mul__(self, other) -> "QComplex":
        other = QComplex.of(other)
        return QComplex(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other) -> "QComplex":
        other = QComplex.of(other)
        d = other.abs2()
        if d == 0:
            raise ZeroDivisionError("division by exact complex zero")
        num = self * other.conjugate()
        return QComplex(num.re / d, num.im / d)

    def conjugate(self) -> "QComplex":
        return QComplex(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def cpoly_normalize(coeffs: Sequence) -> list[QComplex]:
    """Coerce to QComplex and strip trailing (leading-degree) zeros."""
    cs = [QComplex.of(c) for c in coeffs]
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def parse_complex_rational(text: str) -> QComplex:
    """Parse strings like '3/2', '-1/2+3i', '2i', '1-i' into exact complex rationals."""
    s = text.strip().replace(" ", "")
    if not s:
        raise InputError("empty complex literal")
    # Split into at most two signed terms.
    terms: list[str] = []
    start = 0
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-/eE":
            terms.append(s[start:i])
            start = i
    terms.append(s[start:])
    re_part = Fraction(0)
    im_part = Fraction(0)
    try:
        for term in terms:
            if term in ("i", "+i"):
                im_part += 1
            elif term == "-i":
                im_part -= 1
            elif term.endswith("i"):
                im_part += Fraction(term[:-1])
            else:
                re_part += Fraction(term)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad complex literal {text!r}: {exc}") from exc
    return QComplex(re_part, im_part)


# ---------------------------------------------------------------------------
# Squarefree decomposition over the Gaussian rationals
# ---------------------------------------------------------------------------

# A prime p ≡ 1 (mod 4), so -1 has a square root s in GF(p), and (p, i - s)
# is a prime ideal of Z[i] with residue field GF(p), i mapping to s.  For a
# quadratic non-residue g, s = g^((p-1)/4).
_P = 1_000_000_009
_I_MOD_P = pow(next(g for g in range(2, _P) if pow(g, (_P - 1) // 2, _P) == _P - 1),
               (_P - 1) // 4, _P)
_C0, _C1 = QComplex(Fraction(0)), QComplex(Fraction(1))


def _gcd_degree_mod_p(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) in GF(p)[x] (ascending lists, a nonzero; Euclid).

    The rows are int64 arrays, each of which holds a remainder in its first
    na or nb entries: residues lie below p < 2^30, so c·y < 2^60.
    """
    import numpy as np

    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    na, nb = len(a), len(b)
    while nb and not b[nb - 1]:
        nb -= 1
    while nb:
        db = nb - 1
        inv = pow(int(b[db]), -1, _P)
        head = b[:db]
        for k in range(na - 1 - db, -1, -1):
            c = int(a[k + db]) * inv % _P
            if c:
                a[k:k + db] = (a[k:k + db] - c * head) % _P
        a, b, na, nb = b, a, nb, min(na, db)
        while nb and not b[nb - 1]:
            nb -= 1
    return na - 1


def _squarefree_mod_p(f: list[QComplex]) -> bool:
    """A cheap certificate that f is squarefree over Q(i); False proves nothing.

    Scale f by the lcm of its denominators to F in Z[i][x] and map F to
    GF(p)[x] by i -> s.  If the image of lc(F) is nonzero and the image F̄
    is coprime to F̄', then f is squarefree.  Proof: suppose f = g^2 h with
    g nonconstant.  Z[i] is a unique factorization domain, so by Gauss's
    lemma g can be taken primitive in Z[i][x], and then g^2 divides F in
    Z[i][x].  Reduction modulo (p, i - s) is a ring map, so ḡ^2 divides F̄.
    As lc(F) = lc(g)^2 lc(h) maps to a nonzero element of the field GF(p),
    so does lc(g), and ḡ has the degree of g, at least 1.  Then ḡ divides
    both F̄ and F̄' = 2ḡḡ'h̄ + ḡ^2h̄', against gcd(F̄, F̄') = 1.
    """
    den = math.lcm(*(x.denominator for c in f for x in (c.re, c.im)))
    img = [(int(c.re * den) + int(c.im * den) * _I_MOD_P) % _P for c in f]
    if img[-1] == 0:
        return False
    return _gcd_degree_mod_p(img, [k * c % _P for k, c in enumerate(img)][1:]) == 0


def _cdivmod(a: list[QComplex], b: list[QComplex]) -> tuple[list[QComplex], list[QComplex]]:
    """Quotient and remainder of ascending QComplex lists (b nonzero)."""
    rem, db = list(a), len(b) - 1
    inv = _C1 / b[-1]
    quot = [_C0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = quot[k] = rem[k + db] * inv
        if not c.is_zero():
            rem[k:k + db] = [x - c * y for x, y in zip(rem[k:k + db], b)]
    return quot, cpoly_normalize(rem[:db])


def _cgcd(a: list[QComplex], b: list[QComplex]) -> list[QComplex]:
    """Monic gcd by Euclid's algorithm (a nonzero)."""
    while b:
        a, b = b, _cdivmod(a, b)[1]
    inv = _C1 / a[-1]
    return [c * inv for c in a]


def _cderivative(a: list[QComplex]) -> list[QComplex]:
    return [c * k for k, c in enumerate(a)][1:]


def _cminus_derivative(c: list[QComplex], b: list[QComplex]) -> list[QComplex]:
    """c - b'."""
    return cpoly_normalize([x - y for x, y in zip_longest(c, _cderivative(b), fillvalue=_C0)])


def squarefree_split(coeffs: Sequence) -> list[tuple[list[QComplex], int]]:
    """Exact squarefree decomposition f = lc · ∏ a_i^i over Q(i).

    Returns the nonconstant factors as (a_i, i); the a_i are squarefree and
    pairwise coprime, so every root of a_i is a root of f of multiplicity
    exactly i.  A polynomial that ``_squarefree_mod_p`` certifies comes back
    unchanged as the single factor (f, 1).  Otherwise Yun's algorithm
    (D. Y. Y. Yun, "On square-free decomposition algorithms", SYMSAC 1976)
    runs in exact arithmetic, with monic factors; its divisions are exact
    by construction, and the product lc · ∏ a_i^i must reproduce f.
    """
    f = cpoly_normalize(coeffs)
    if len(f) < 2:
        return []
    if len(f) == 2 or _squarefree_mod_p(f):
        return [(f, 1)]
    df = _cderivative(f)
    a0 = _cgcd(f, df)
    b = _cdivmod(f, a0)[0]
    d = _cminus_derivative(_cdivmod(df, a0)[0], b)
    factors, i = [], 1
    while len(b) > 1:
        a = _cgcd(b, d)
        b = _cdivmod(b, a)[0]
        d = _cminus_derivative(_cdivmod(d, a)[0], b)
        if len(a) > 1:
            factors.append((a, i))
        i += 1
    product = [f[-1]]
    for a, i in factors:
        for _ in range(i):
            product = convolve(product, a)
    if cpoly_normalize(product) != f:
        raise NumericalError("squarefree decomposition does not multiply back to its input")
    return factors


# ---------------------------------------------------------------------------
# Fraction-free determinants over the Gaussian integers
# ---------------------------------------------------------------------------

GInt = tuple[int, int]
Entry = Union[int, GInt]


def bareiss_det(matrix: Sequence[Sequence[Entry]]) -> tuple[Entry, list[Entry]]:
    """Exact determinant of a square matrix, with the leading principal
    minors that the elimination meets on the way.

    Entries are all Gaussian integers (re, im) or all plain ints; results
    come back in the same form (an empty matrix counts as Gaussian).
    Bareiss elimination: each update is divided exactly by the previous
    pivot, so entries stay integers of moderate size.  When every imaginary
    part is zero the elimination runs over plain ints, with two products
    and one exact division per update instead of a Gaussian cross product
    and a division through the pivot's norm.

    Until the first row swap, the pivot at step s is the leading principal
    minor of order s + 1 (Sylvester's identity, which also makes every
    division exact), and the last diagonal entry is the determinant.  The
    second result lists these minors for orders 1, 2, ...: all n of them
    when no swap happens, otherwise up to and including the zero pivot that
    forced the first swap.  A zero pivot is swapped with a lower row, and a
    column with no nonzero candidate makes the determinant zero.
    """
    n = len(matrix)
    pairs = n == 0 or isinstance(matrix[0][0], tuple)
    real = not pairs or all(im == 0 for row in matrix for _, im in row)
    m = [[re for re, _ in row] if pairs and real else list(row) for row in matrix]
    zero, det = (0, 1) if real else ((0, 0), (1, 0))
    minors: list[Entry] = []
    negate = swapped = False
    pr, pi = 1, 0  # previous pivot
    for k in range(n):
        if not swapped:
            minors.append(m[k][k])
        if k == n - 1:
            det = m[k][k]
            break
        if m[k][k] == zero:
            r = next((r for r in range(k + 1, n) if m[r][k] != zero), None)
            if r is None:
                det = zero
                break
            m[k], m[r] = m[r], m[k]
            negate, swapped = not negate, True
        row_k = m[k]
        if real:
            a = row_k[k]
            for i in range(k + 1, n):
                row_i = m[i]
                c = row_i[k]
                for j in range(k + 1, n):
                    q, rem = divmod(a * row_i[j] - c * row_k[j], pr)
                    if rem:
                        raise NumericalError("fraction-free elimination hit a non-exact division")
                    row_i[j] = q
            pr = a
            continue
        ar, ai = row_k[k]
        norm = pr * pr + pi * pi
        for i in range(k + 1, n):
            row_i = m[i]
            cr, ci = row_i[k]
            for j in range(k + 1, n):
                br, bi = row_i[j]
                dr, di = row_k[j]
                # a*b - c*d, times conj(prev), then divided exactly by |prev|^2
                nr = ar * br - ai * bi - cr * dr + ci * di
                ni = ar * bi + ai * br - cr * di - ci * dr
                qr, rr = divmod(nr * pr + ni * pi, norm)
                qi, ri = divmod(ni * pr - nr * pi, norm)
                if rr or ri:
                    raise NumericalError("fraction-free elimination hit a non-exact division")
                row_i[j] = (qr, qi)
        pr, pi = ar, ai
    if negate:
        det = -det if real else (-det[0], -det[1])
    if pairs and real:
        return (det, 0), [(x, 0) for x in minors]
    return det, minors
