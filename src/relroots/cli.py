"""Command-line surface and reproduction drivers.

Subcommands: rel, roots, hvector, family, substitute, schur-cohn, certify,
table1.  Every command is deterministic given its flags; outputs go to
stdout or --out.  Exit codes: 1 input error, 2 guard exhausted,
3 indeterminate certificate, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys

from .closed_forms import TwoCliqueParams, rel_complete_minus_edge, two_clique_reliability
from .errors import IndeterminateError, InputError, NumericalError, ToolkitError
from .fixed_point import DEFAULT_PRECISION_BITS, polished_root_disk
from .multigraph import edge_connectivity, parse_graph
from .polynomials import RatPoly, parse_complex_rational
from .stability import (BASE_ROOT_BOX, ParamBox, certificate_pencil, kth_root_ratio_box,
                        mpf_to_fraction, schur_cohn, schur_cohn_box)
from .substitution import substituted_two_clique_graph


def __getattr__(name: str):
    """``find_roots`` read as an attribute of this module (PEP 562), which
    ``perfbench/certify_child.py`` wraps: the solver and the reliability
    recursion are imported inside the commands that run them, so that
    ``certify`` loads neither."""
    if name != "find_roots":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .root_analysis import find_roots
    return find_roots


# Published max-modulus reliability roots of the two-clique graphs with
# parameters (n, n, 1, 6), rounded to 10 decimals.
TABLE1_REFERENCE = {
    3: ("0.6965978094", "0.7739344775", "1.0412603341"),
    4: ("0.7225077023", "0.7873461471", "1.0686118731"),
    5: ("0.7415248258", "0.7932060873", "1.0858337645"),
    6: ("0.7557913447", "0.7946437701", "1.0966673507"),
    7: ("0.7665525647", "0.7937722633", "1.1034841369"),
    8: ("0.7747703944", "0.7917743649", "1.1077796753"),
    9: ("0.7811493576", "0.7892664429", "1.1104664951"),
    10: ("0.7861847934", "0.7865650322", "1.1121020993"),
    11: ("0.7902223368", "0.7838329136", "1.1130343112"),
    12: ("0.7935054014", "0.7811532818", "1.1134860896"),
}


def format_decimal(x, digits: int) -> str:
    """Fixed-point decimal string, rounding half to even."""
    fr = mpf_to_fraction(x)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ctx.rounding = decimal.ROUND_HALF_EVEN
        d = decimal.Decimal(fr.numerator) / decimal.Decimal(fr.denominator)
        return str(d.quantize(decimal.Decimal(1).scaleb(-digits)))


def _sig(x, digits: int = 17) -> str:
    import mpmath as mp

    return mp.nstr(x, digits, strip_zeros=False)


def _radius(r: int, s: int) -> str:
    """r/2^s rounded up to 3 significant digits, so that it still bounds the
    disk; 0 prints as 0."""
    if not r:
        return "0"
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        ctx.rounding = decimal.ROUND_CEILING
        return f"{decimal.Decimal(r) / decimal.Decimal(1 << s):.2e}"


def roots_csv(root_set) -> str:
    """CSV with 17 significant digits, sorted by the printed modulus, then
    real part, then imaginary part, all descending; ``radius`` is the
    radius n·ρ of the proven disk about each root (``_root_disks``).

    Sorting on the printed values keeps rounding noise below the 17th digit
    from breaking ties: the six roots of 1 - q^6 all print modulus 1, so
    they come out in descending real part.
    """
    from .root_analysis import _root_disks

    disks, s = _root_disks(root_set)
    rows = sorted(((_sig(z.real), _sig(z.imag), _sig(modulus), _radius(r, s))
                   for modulus, z, (_, _, r) in zip(root_set.moduli(), root_set.roots, disks)),
                  key=lambda row: (decimal.Decimal(row[2]), decimal.Decimal(row[0]),
                                   decimal.Decimal(row[1])),
                  reverse=True)
    return "\n".join(["re,im,modulus,radius"] + [",".join(row) for row in rows]) + "\n"


def roots_svg(root_set, size: int = 480) -> str:
    """Scatter of the roots against the unit circle, as a standalone SVG."""
    pts = [(float(z.real), float(z.imag)) for z in root_set.roots]
    span = max([1.0] + [max(abs(x), abs(y)) for x, y in pts]) * 1.15
    scale = (size / 2) / span

    def sx(x):
        return size / 2 + x * scale

    def sy(y):
        return size / 2 - y * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{size / 2}" cy="{size / 2}" r="{scale}" fill="none" '
        f'stroke="#888" stroke-width="1"/>',
        f'<line x1="0" y1="{size / 2}" x2="{size}" y2="{size / 2}" stroke="#ccc"/>',
        f'<line x1="{size / 2}" y1="0" x2="{size / 2}" y2="{size}" stroke="#ccc"/>',
    ]
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#c0392b" '
                     f'fill-opacity="0.75"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Command implementations (importable; the CLI wraps these)
# ---------------------------------------------------------------------------


def table1_rows(max_n: int, precision_bits: int = DEFAULT_PRECISION_BITS,
                digits: int = 10) -> list[tuple[int, str, str, str]]:
    """Max-modulus reliability root of the (n,n,1,6) two-clique graph, n = 3..max_n.

    Each row, the root that ``max_modulus_root`` picks, is proven to lie outside
    the unit disk.  The reported root z of the deflated reliability h carries a
    residual ρ, so D(z, dρ), with d the degree of h, holds a root of h, and of
    Rel.  That disk lies outside the closed unit disk when |z| > 1 + dρ, checked
    exactly in integers (``_root_disks``); otherwise the row raises ``NumericalError``.
    """
    from .root_analysis import RootSet, _outermost, _root_disks, find_roots

    if not 3 <= max_n <= 12:
        raise InputError("table supports max_n in 3..12")
    rows = []
    for n in range(3, max_n + 1):
        h, _ = two_clique_reliability(TwoCliqueParams(m=n, n=n, a=1, b=6)).deflate_unit_roots()
        rs = find_roots(h, precision_bits)
        disks, s = _root_disks(rs)
        k = _outermost(disks)[0]
        z, (x, y, r) = rs.roots[k], disks[k]
        if x * x + y * y <= ((1 << s) + r) ** 2:
            raise NumericalError(f"table1 row n={n}: the root disk of radius {r / 2 ** s:.3g} "
                                 f"about {_sig(z, 12)} is not proven outside the unit disk")
        modulus = RootSet((z,), rs.residuals[k:k + 1], rs.precision_bits).moduli()[0]
        rows.append((n, format_decimal(z.real, digits), format_decimal(z.imag, digits),
                     format_decimal(modulus, digits)))
    return rows


def run_certificate(k: int, n: int, box: ParamBox | None = None,
                    precision_bits: int = DEFAULT_PRECISION_BITS) -> dict:
    """Full certificate that the substituted graph has a reliability root
    outside the unit disk.

    The parameter box, unless given, is ``BASE_ROOT_BOX`` transported by
    ``kth_root_ratio_box``.  ``pass`` also needs a proven disk about a root
    of the deflated Rel(3,3,1,6) inside ``BASE_ROOT_BOX`` (``base_disk``,
    checked with or without a given box), a box that holds the transported
    bounding square of that disk, and so the parameter of the root, an
    exact Schur-Cohn count of zero roots outside the unit circle for the
    gadget's deflated reliability, and edge connectivity n-1.  The disk
    comes from Newton's method started at the centre of ``BASE_ROOT_BOX``
    (``polished_root_disk``), and both containments are exact.
    """
    if box is None:
        box = kth_root_ratio_box(BASE_ROOT_BOX.a_lo, BASE_ROOT_BOX.a_hi,
                                 BASE_ROOT_BOX.b_lo, BASE_ROOT_BOX.b_hi, k)
    base, _ = two_clique_reliability(TwoCliqueParams(m=3, n=3, a=1, b=6)).deflate_unit_roots()
    disk = polished_root_disk(base, (BASE_ROOT_BOX.a_lo + BASE_ROOT_BOX.a_hi) / 2,
                              (BASE_ROOT_BOX.b_lo + BASE_ROOT_BOX.b_hi) / 2, precision_bits)
    square = None if disk is None else ParamBox.square(*disk)
    if square is not None and not BASE_ROOT_BOX.contains(square):
        disk = square = None
    graph = substituted_two_clique_graph(k, n)
    lam = edge_connectivity(graph, upper_bound=n)
    pencil = certificate_pencil(n)
    report = schur_cohn_box(pencil.box_poly(box))

    h_gadget, _ = rel_complete_minus_edge(n).deflate_unit_roots()
    inside = h_gadget.degree < 1 or schur_cohn(h_gadget).beta == 0

    holds_root = square is not None and box.contains(
        kth_root_ratio_box(square.a_lo, square.a_hi, square.b_lo, square.b_hi, k))
    passed = (report.determinate and report.beta is not None and report.beta >= 1 and inside
              and lam == n - 1 and holds_root)
    return {
        "k": k,
        "n": n,
        "vertices": graph.n,
        "edges": graph.m,
        "simple": graph.is_simple(),
        "edge_connectivity": lam,
        "box": box.to_dict(),
        "base_disk": None if disk is None else {
            name: f"{x.numerator}/{x.denominator}"
            for name, x in zip(("re", "im", "radius"), disk)},
        "signs": list(report.signs),
        "beta": report.beta,
        "subdivision_depth": report.subdivision_depth,
        "gadget_roots_inside": inside,
        "pass": passed,
    }


# ---------------------------------------------------------------------------
# argparse plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 1 for input
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_common(parser, suppress: bool) -> None:
    # Registered on the main parser and again on every subparser (with
    # suppressed defaults) so the flags work on either side of the command.
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--precision-bits", type=int,
                        **(kw or {"default": DEFAULT_PRECISION_BITS}))
    parser.add_argument("--digits", type=int, **(kw or {"default": 10}))
    parser.add_argument("--guard-m", type=int,
                        help="distinct vertex pairs that rel --method brute may enumerate",
                        **(kw or {"default": None}))
    parser.add_argument("--out", type=str, **(kw or {"default": None}))


def _build_parser() -> _Parser:
    p = _Parser(prog="relroots", description=__doc__)
    _add_common(p, suppress=False)
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        s = sub.add_parser(name, **kwargs)
        _add_common(s, suppress=True)
        return s

    s = add_parser("rel", help="reliability polynomial of a graph file")
    s.add_argument("graph", type=str)
    s.add_argument("--method", choices=("auto", "brute"), default="auto")

    s = add_parser("roots", help="roots of a polynomial JSON file")
    s.add_argument("poly", type=str)
    s.add_argument("--svg", type=str, default=None)

    s = add_parser("hvector", help="H-vector of a graph file")
    s.add_argument("graph", type=str)
    s.add_argument("--via", choices=("transform", "chip"), default="transform")
    s.add_argument("--sink", type=int, default=0)

    s = add_parser("family", help="closed-form reliability of the two-clique family")
    s.add_argument("params", nargs=4, type=int, metavar=("M", "N", "A", "B"))

    s = add_parser("substitute", help="substitute a gadget into every edge")
    s.add_argument("graph", type=str)
    s.add_argument("gadget", type=str)
    s.add_argument("u", type=int)
    s.add_argument("v", type=int)
    s.add_argument("--poly", action="store_true",
                   help="emit the composed reliability instead of the graph")

    s = add_parser("schur-cohn", help="count roots outside the unit circle")
    s.add_argument("poly", type=str,
                   help="polynomial JSON file, or a literal like 'q-2' or '(1+2i)*q^2-1'")

    s = add_parser("certify", help="certified root-outside-disk certificate")
    s.add_argument("k", type=int)
    s.add_argument("n", type=int)
    s.add_argument("--box", nargs=4, type=str, metavar=("A_LO", "A_HI", "B_LO", "B_HI"))

    s = add_parser("table1", help="max-modulus roots of the (n,n,1,6) family")
    s.add_argument("max_n", type=int)
    return p


def _parse_poly_literal(text: str):
    """Parse a small polynomial literal such as 'q-2' or '(1-i)*q^2 + 3/2'."""
    s = text.replace(" ", "").replace("**", "^")
    if not s:
        raise InputError("empty polynomial literal")
    terms: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0 and s[i - 1] not in "+-*/^(":
            terms.append(s[start:i])
            start = i
    terms.append(s[start:])
    coeffs: dict[int, object] = {}
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if "q" in term:
            head, _, tail = term.partition("q")
            head = head.rstrip("*")
            if head.startswith("(") and head.endswith(")"):
                head = head[1:-1]
            coeff = parse_complex_rational(head) if head else parse_complex_rational("1")
            if not tail:
                power = 1
            elif tail[0] == "^" and tail[1:].isascii() and tail[1:].isdigit():
                power = int(tail[1:])
            else:
                raise InputError(f"bad power in polynomial term {term!r}")
        else:
            coeff = parse_complex_rational(term)
            power = 0
        scaled = coeff if sign == 1 else -coeff
        coeffs[power] = coeffs.get(power, parse_complex_rational("0")) + scaled
    top = max(coeffs)
    return [coeffs.get(i, parse_complex_rational("0")) for i in range(top + 1)]


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.digits < 1:
            raise InputError(f"--digits must be at least 1, got {args.digits}")
        return _dispatch(args)
    except ToolkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except SystemExit as exc:
        return int(exc.code or 0)


def _dispatch(args) -> int:
    if args.command == "rel":
        from .reliability import DEFAULT_GUARD_PAIRS, rel_auto, rel_bruteforce
        g = parse_graph(_read(args.graph))
        if args.method == "brute":
            guard = DEFAULT_GUARD_PAIRS if args.guard_m is None else args.guard_m
            rel = rel_bruteforce(g, guard)
        else:
            rel = rel_auto(g)
        _emit(rel.to_json() + "\n", args.out)
        return 0

    if args.command == "roots":
        from .root_analysis import reliability_root_set
        rs = reliability_root_set(RatPoly.from_json(_read(args.poly)), args.precision_bits)
        _emit(roots_csv(rs), args.out)
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(roots_svg(rs))
        return 0

    if args.command == "hvector":
        g = parse_graph(_read(args.graph))
        if args.via == "chip":
            from .chip_firing import h_vector_chip
            h = h_vector_chip(g, args.sink)
        else:
            from .reliability import f_from_rel, f_to_h, rel_auto
            h = f_to_h(f_from_rel(rel_auto(g), g.n))
        doc = {"n": h.n, "m": h.m, "H": [str(v) for v in h.values]}
        _emit(json.dumps(doc) + "\n", args.out)
        return 0

    if args.command == "family":
        params = TwoCliqueParams(*args.params)
        _emit(two_clique_reliability(params).to_json() + "\n", args.out)
        return 0

    if args.command == "substitute":
        from .substitution import Gadget, substitute_edges, substituted_reliability
        g = parse_graph(_read(args.graph))
        gadget = Gadget(graph=parse_graph(_read(args.gadget)), u=args.u, v=args.v)
        if args.poly:
            _emit(substituted_reliability(g, gadget).to_json() + "\n", args.out)
        else:
            _emit(substitute_edges(g, gadget).to_json() + "\n", args.out)
        return 0

    if args.command == "schur-cohn":
        # A path that cannot be read is a polynomial literal; a file that
        # can be read must hold polynomial JSON.
        try:
            source = _read(args.poly)
        except InputError:
            coeffs = _parse_poly_literal(args.poly)
        else:
            coeffs = RatPoly.from_json(source).coeffs
        report = schur_cohn(list(coeffs))
        _emit(report.to_json() + "\n", args.out)
        return 0

    if args.command == "certify":
        box = ParamBox.of(*args.box) if args.box else None
        cert = run_certificate(args.k, args.n, box, args.precision_bits)
        _emit(json.dumps(cert, indent=2) + "\n", args.out)
        if not cert["pass"]:
            raise IndeterminateError("certificate did not reach a determinate pass")
        return 0

    if args.command == "table1":
        # Only table1 reads --digits; half the decimal digits of the
        # precision are what its roots resolve.
        capacity = int(args.precision_bits * 0.3010) // 2
        if args.digits > capacity:
            raise InputError(f"{args.digits} digits exceed what {args.precision_bits} "
                             f"precision bits support ({capacity})")
        rows = table1_rows(args.max_n, args.precision_bits, args.digits)
        lines = ["n,re,im,modulus"]
        for n, re, im, mod in rows:
            lines.append(f"{n},{re},{im},{mod}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    raise InputError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
