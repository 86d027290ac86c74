import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mpmath as mp

import relroots
from relroots import ParamBox, RatPoly, cli, rel_complete, root_analysis
from relroots.cli import TABLE1_REFERENCE, format_decimal, main, run_certificate, table1_rows
from relroots.fixed_point import FixedEval, polished_root_disk
from relroots.root_analysis import _outermost, _root_disks
from relroots.stability import mpf_to_fraction

K3 = '{"n":3,"edges":[[0,1,1],[1,2,1],[0,2,1]]}'
P3 = '{"n":3,"edges":[[0,1,1],[1,2,1]]}'
K8 = json.dumps({"n": 8, "edges": [[i, j, 1] for i in range(8) for j in range(i + 1, 8)]})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rel_command(tmp_path, capsys):
    f = tmp_path / "k3.json"
    f.write_text(K3)
    code, out = run(capsys, "rel", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs"] == ["1/1", "0/1", "-3/1", "2/1"]
    # deletion-contraction is what `auto` runs; there is no separate `dc`,
    # and the two-clique closed form is the `family` command, not a method
    for flags in (["--method", "dc"], ["--method", "family"], ["--family", "2", "2", "6", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["rel", str(f), *flags])
        assert exc.value.code == 1
    capsys.readouterr()


def test_rel_tree_and_errors(tmp_path, capsys):
    tree = tmp_path / "p3.json"
    tree.write_text(P3)
    code, out = run(capsys, "rel", str(tree))
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1/1", "-2/1", "1/1"]

    loop = tmp_path / "loop.json"
    loop.write_text('{"n":2,"edges":[[0,0,1]]}')
    assert main(["rel", str(loop)]) == 1
    capsys.readouterr()

    disc = tmp_path / "disc.json"
    disc.write_text('{"n":3,"edges":[[0,1,1]]}')
    assert main(["rel", str(disc)]) == 1
    capsys.readouterr()


def test_guard_exit_code(tmp_path, capsys):
    f = tmp_path / "k8.json"
    f.write_text(K8)
    assert main(["rel", str(f), "--method", "brute", "--guard-m", "20"]) == 2
    # K8's 28 pairs are past the default guard of 24 too.
    assert main(["rel", str(f), "--method", "brute"]) == 2
    capsys.readouterr()


def test_hvector_both_routes(tmp_path, capsys):
    f = tmp_path / "k3.json"
    f.write_text(K3)
    code, out = run(capsys, "hvector", str(f))
    assert code == 0 and json.loads(out)["H"] == ["1", "2"]
    code, out = run(capsys, "hvector", str(f), "--via", "chip", "--sink", "2")
    assert code == 0 and json.loads(out)["H"] == ["1", "2"]

    # 28 pairs, past the enumeration guard: H(1) is Cayley's 8^6 spanning trees
    k8 = tmp_path / "k8.json"
    k8.write_text(K8)
    code, out = run(capsys, "hvector", str(k8))
    assert code == 0 and sum(int(v) for v in json.loads(out)["H"]) == 8 ** 6


def test_family_then_roots(tmp_path, capsys):
    poly_file = tmp_path / "fam.json"
    code, _ = run(capsys, "family", "2", "2", "6", "1", "--out", str(poly_file))
    assert code == 0
    code, out = run(capsys, "roots", str(poly_file))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,modulus,radius"
    # the smallest multigraph with reliability roots outside the unit disk
    top_modulus = float(lines[1].split(",")[2])
    assert top_modulus > 1.0
    assert len(lines) == 1 + 16


def test_roots_csv_radius_bounds_each_proven_disk(tmp_path, capsys):
    # radius is n·ρ (_root_disks) rounded up to 3 significant digits, so it
    # still bounds the disk; the three roots at 1, deflated exactly, print 0.
    poly_file = tmp_path / "fam.json"
    assert run(capsys, "family", "2", "2", "6", "1", "--out", str(poly_file))[0] == 0
    code, out = run(capsys, "roots", str(poly_file))
    assert code == 0
    rs = relroots.reliability_root_set(RatPoly.from_json(poly_file.read_text()))
    disks, s = _root_disks(rs)
    exact = {(cli._sig(z.real), cli._sig(z.imag)): Fraction(r, 1 << s)
             for z, (_, _, r) in zip(rs.roots, disks)}
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == len(rs.roots) == 16
    for re, im, _, radius in rows:
        r = exact[re, im]
        assert r <= Fraction(radius) <= r * Fraction(101, 100), (re, im, radius)
        assert (radius == "0") == (r == 0) == ((re, im) == ("1.0000000000000000", "0.0"))
    assert sum(radius == "0" for *_, radius in rows) == 3


def test_roots_csv_breaks_modulus_ties_by_real_then_imaginary_part(tmp_path, capsys):
    # The six roots of 1 - q^6 all print modulus 1.0000000000000000, though
    # their computed moduli differ in the last bits.
    poly_file = tmp_path / "p.json"
    poly_file.write_text('{"var":"q","coeffs":["1/1","0/1","0/1","0/1","0/1","0/1","-1/1"]}')
    code, out = run(capsys, "roots", str(poly_file))
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert {modulus for _, _, modulus, _ in rows} == {"1.0000000000000000"}
    half, h = "0.50000000000000000", "0.86602540378443865"
    assert [(re, im) for re, im, _, _ in rows] == [
        ("1.0000000000000000", "0.0"), (half, h), (half, "-" + h),
        ("-" + half, h), ("-" + half, "-" + h), ("-1.0000000000000000", "0.0")]


def test_roots_svg(tmp_path, capsys):
    poly_file = tmp_path / "p.json"
    poly_file.write_text('{"var":"q","coeffs":["1/1","0/1","0/1","0/1","0/1","0/1","-1/1"]}')
    svg = tmp_path / "roots.svg"
    code, _ = run(capsys, "roots", str(poly_file), "--svg", str(svg))
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_substitute_command(tmp_path, capsys):
    base = tmp_path / "k3.json"
    base.write_text(K3)
    gadget = tmp_path / "p3.json"
    gadget.write_text(P3)
    code, out = run(capsys, "substitute", str(base), str(gadget), "0", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6 and len(doc["edges"]) == 6

    code, out = run(capsys, "substitute", str(base), str(gadget), "0", "2", "--poly")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1/1", "0/1", "-15/1", "40/1", "-45/1", "24/1", "-5/1"]

    # K8 (28 pairs) with the path gadget: a path survives with T = 1-q^2 and
    # splits with S = 2q(1-q), so the result is T^28 Rel(K8; S/T)
    k8 = tmp_path / "k8.json"
    k8.write_text(K8)
    code, out = run(capsys, "substitute", str(k8), str(gadget), "0", "2", "--poly")
    assert code == 0
    poly = RatPoly.from_json(out)
    for q in (Fraction(1, 3), Fraction(2, 7)):
        s = 2 * q * (1 - q)
        t = (1 - q) ** 2 + s
        assert poly(q) == t ** 28 * rel_complete(8)(s / t)


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    # main returns exit code 1 with an error line instead of raising
    # UnicodeDecodeError; schur-cohn then reads the path as a bad literal.
    bad = tmp_path / "bad.json"
    bad.write_bytes(bytes.fromhex("fffe00626164"))
    assert main(["rel", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read")
    assert main(["schur-cohn", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad complex literal")


def test_schur_cohn_command(capsys, tmp_path):
    code, out = run(capsys, "schur-cohn", "q-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["beta"] == 1 and doc["signs"] == ["-"]

    poly_file = tmp_path / "p.json"
    poly_file.write_text('{"var":"q","coeffs":["-1/2","1/1"]}')
    code, out = run(capsys, "schur-cohn", str(poly_file))
    assert code == 0 and json.loads(out)["beta"] == 0


def test_certify_command(capsys):
    radii = []
    # --precision-bits reaches the base disk: more bits, a tighter disk.
    for flags in ([], ["--precision-bits", "512"]):
        code, out = run(capsys, "certify", "9", "3", *flags)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] and doc["beta"] == 1 and doc["signs"] == ["-"]
        assert (doc["vertices"], doc["edges"]) == (546, 1080)
        assert doc["edge_connectivity"] == 2
        disk = {key: Fraction(value) for key, value in doc["base_disk"].items()}
        assert cli.BASE_ROOT_BOX.contains(ParamBox.square(disk["re"], disk["im"], disk["radius"]))
        radii.append(disk["radius"])
    assert radii[1] < radii[0]


def test_certify_indeterminate_exit(capsys):
    code = main(["certify", "9", "3", "--box", "-2", "2", "0", "1"])
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv, code", [
    (["9", "3", "--box", "-5", "-4", "0", "1"], 3),
    (["7", "4", "--box", "-3", "-2", "5", "6"], 3),
    # The published (9,3) box, in decimals: argparse reads -101749/100000
    # as an option.
    (["9", "3", "--box", "-1.01749", "-1.01731", "10.70762", "10.70814"], 0),
], ids=["k9-far", "k7-far", "k9-published"])
def test_certify_needs_a_box_that_holds_the_root_parameter(capsys, argv, code):
    # Every box here gets determinate signs with beta = 1 and a proven base
    # disk (M_1 = 4a + 4 < 0 for any a < -1), but only a box that holds the
    # transported square of that disk holds the parameter of the root.
    got, out = run(capsys, "certify", *argv)
    doc = json.loads(out)
    assert doc["beta"] == 1 and doc["base_disk"] is not None
    assert got == code and doc["pass"] is (code == 0)


def test_table1_command(capsys):
    code, out = run(capsys, "table1", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,re,im,modulus"
    assert lines[1] == "3," + ",".join(TABLE1_REFERENCE[3])


def test_table1_digits_beyond_double_precision(capsys):
    # Checked against mpmath.polyroots at 120 digits: every printed digit
    # comes from the 256-bit root, none from a 53-bit rounding.
    code, out = run(capsys, "table1", "3", "--digits", "30")
    assert code == 0
    assert out.splitlines()[1] == ("3,0.696597809364082419277710868395,"
                                   "0.773934477491224279225101547629,"
                                   "1.041260334143413365031437602639")


def test_table1_digits_survive_a_doubled_precision(capsys):
    # Each root is frozen once d·ρ ≤ 2^-138·|z| at 256 bits, short of the
    # last bits that 256 bits could reach; the 38 digits that 256 bits
    # allow must still be those of the 512-bit roots.
    outputs = []
    for bits in ("256", "512"):
        assert main(["table1", "6", "--digits", "38", "--precision-bits", bits]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 5


def test_table1_ignores_mpmath_working_precision():
    # Moduli and real parts are compared at the root set's precision, not at
    # mpmath's: at 8 bits the rows n = 3 and 6 reported the -i member.
    root_sets = [relroots.find_roots(relroots.two_clique_reliability(
        relroots.TwoCliqueParams(n, n, 1, 6)).deflate_unit_roots()[0]) for n in range(3, 7)]
    tops = [relroots.max_modulus_root(rs) for rs in root_sets]
    rows = table1_rows(6)
    with mp.workprec(8):
        assert [relroots.max_modulus_root(rs) for rs in root_sets] == tops
        assert table1_rows(6) == rows
        assert mp.mp.prec == 8
    assert all(z.imag > 0 for z in tops)


def test_table1_rows_are_proven_outermost():
    # On rows 3..6 every root but the row's and its exact conjugate is
    # proven smaller in modulus; of the two, the row reports the +i member.
    for n in range(3, 7):
        h = relroots.two_clique_reliability(relroots.TwoCliqueParams(n, n, 1, 6))
        rs = relroots.find_roots(h.deflate_unit_roots()[0])
        k, candidates = _outermost(_root_disks(rs)[0])
        z = [(mpf_to_fraction(w.real), mpf_to_fraction(w.imag)) for w in rs.roots]
        assert z[k][1] > 0 and [z[j] for j in candidates if j != k] == [(z[k][0], -z[k][1])]
        assert rs.roots[k] == relroots.max_modulus_root(rs)


@pytest.mark.parametrize("margin, code", [(0.999, 0), (1.001, 4)])
def test_table1_proves_its_row_outside_the_unit_disk(monkeypatch, capsys, margin, code):
    # Every residual becomes margin·(|z| - 1)/d for the row's root z, with d
    # the degree of the deflated h, so the disk D(z, d·residual) misses the
    # unit disk just barely, or reaches into it just barely.
    solve = root_analysis.find_roots

    def inflated(h, precision_bits):
        rs = solve(h, precision_bits)
        rho = margin * (abs(relroots.max_modulus_root(rs)) - 1) / h.degree
        return dataclasses.replace(rs, residuals=tuple(mp.mpf(rho) for _ in rs.roots))

    monkeypatch.setattr(root_analysis, "find_roots", inflated)
    assert main(["table1", "3"]) == code
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == (["3," + ",".join(TABLE1_REFERENCE[3])] if code == 0 else [])


def test_digits_capacity_check(capsys):
    # Only table1 reads --digits, so only table1 checks them against the
    # precision: 60 bits hold 9 digits, and certify still passes at 60
    # bits under the default of 10.  Every command rejects digits below 1.
    assert main(["--digits", "100", "table1", "3"]) == 1
    assert main(["table1", "3", "--digits", "100"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == 2 * "error: 100 digits exceed what 256 precision bits support (38)\n"
    assert main(["--precision-bits", "60", "certify", "9", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert main(["--digits", "0", "certify", "9", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: --digits")


@pytest.mark.parametrize("digits", ["-2", "0"])
def test_digits_below_one_are_rejected(capsys, digits):
    assert main(["--digits", digits, "table1", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --digits")


@pytest.mark.parametrize("literal",
                         ["q^x", "2*q^", "(1+i", "1/0*q", "q^-1+2", "q^-1+q", "qq", "q*2"])
def test_schur_cohn_rejects_a_bad_literal(capsys, literal):
    assert main(["schur-cohn", literal]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_schur_cohn_reads_a_literal_only_when_no_file_can_be_read(capsys, tmp_path):
    # A readable file with bad JSON reports the JSON error, not a bad literal.
    bad = tmp_path / "bad.json"
    bad.write_text('{"coeffs": "12"}')
    assert main(["schur-cohn", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == 'error: polynomial JSON must be an object with a "coeffs" list\n'
    assert main(["schur-cohn", "q^x"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    code, out = run(capsys, "schur-cohn", "1+2*q")
    assert code == 0 and json.loads(out)["beta"] == 0


def test_roots_of_the_zero_polynomial_and_a_constant(tmp_path, capsys):
    poly_file = tmp_path / "p.json"
    poly_file.write_text('{"coeffs": []}')
    assert main(["roots", str(poly_file)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: cannot find roots of the zero polynomial\n"
    # a nonzero constant has no roots, which is no error
    poly_file.write_text('{"coeffs": ["3/1"]}')
    code, out = run(capsys, "roots", str(poly_file))
    assert code == 0 and out == "re,im,modulus,radius\n"


@pytest.mark.parametrize("box", [["x", "0", "0", "1"], ["1/0", "1", "0", "1"]])
def test_certify_rejects_an_unreadable_box_endpoint(capsys, box):
    assert main(["certify", "9", "3", "--box", *box]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad parameter box endpoint")


def test_format_decimal_half_even():
    from fractions import Fraction
    assert format_decimal(Fraction(1, 8), 2) == "0.12"
    assert format_decimal(Fraction(3, 8), 2) == "0.38"
    assert format_decimal(Fraction(25, 1000), 2) == "0.02"


def test_format_decimal_rejects_non_finite():
    import mpmath as mp
    from relroots import NumericalError
    for x in (mp.inf, -mp.inf, mp.nan):
        with pytest.raises(NumericalError):
            format_decimal(x, 3)


def test_run_certificate_dict_shape(monkeypatch):
    cert = run_certificate(7, 4)
    assert cert["pass"] and cert["signs"] == ["+", "+", "-"]
    assert cert["gadget_roots_inside"] and cert["edge_connectivity"] == 3
    assert set(cert["box"]) == {"a_lo", "a_hi", "b_lo", "b_hi"}
    # the connectivity claim is part of the pass
    monkeypatch.setattr(cli, "edge_connectivity", lambda g, upper_bound: 2)
    assert not run_certificate(7, 4)["pass"]


def test_certify_needs_the_base_disk_in_the_base_box(monkeypatch):
    # Shifted by 1e-5 in a, the box still transports to a box with the same
    # signs, but no proven root disk of Rel(3,3,1,6) lies inside it.
    box, shift = cli.BASE_ROOT_BOX, Fraction(1, 10 ** 5)
    monkeypatch.setattr(cli, "BASE_ROOT_BOX",
                        ParamBox(box.a_lo + shift, box.a_hi + shift, box.b_lo, box.b_hi))
    cert = run_certificate(9, 3)
    assert cert["signs"] == ["-"] and cert["base_disk"] is None
    assert not cert["pass"]


def test_certify_gadget_check_is_exact(monkeypatch):
    # A gadget polynomial with the extra root 2 fails the exact count.
    gadget = cli.rel_complete_minus_edge
    monkeypatch.setattr(cli, "rel_complete_minus_edge", lambda n: gadget(n) * RatPoly([-2, 1]))
    cert = run_certificate(9, 3)
    assert not cert["gadget_roots_inside"] and not cert["pass"]


def test_polished_root_disk_scales_the_residual_by_the_degree(monkeypatch):
    # Started at its root z = 1/2, a quartic keeps z, and with the residual
    # pinned to ρ (4ρ passes the Newton loop's bound 2^-138·|z| at 256 bits)
    # the disk is D(z, 4ρ), not D(z, ρ): a box edge between z + ρ and
    # z + 4ρ must reject it, and the edge at z + 4ρ admits it.
    monkeypatch.setattr(FixedEval, "residual", lambda self, values, bits: 1 << (bits - 150))
    z, rho = Fraction(1, 2), Fraction(1, 2 ** 150)
    disk = polished_root_disk(RatPoly([-1, 2]) * RatPoly([5, 0, 0, 1]), z, 0)
    assert disk == (z, 0, 4 * rho)
    assert not ParamBox.of(0, z + 2 * rho, -1, 1).contains(ParamBox.square(*disk))
    assert ParamBox.of(0, z + 4 * rho, -1, 1).contains(ParamBox.square(*disk))


@pytest.mark.parametrize("rho_log2, passed", [(-40, True), (-20, False)])
def test_certify_rejects_a_base_disk_spilling_out_of_the_base_box(monkeypatch, rho_log2,
                                                                   passed):
    # BASE_ROOT_BOX is 1e-5 wide and the base root lies near its middle:
    # D(z, 55ρ) fits at ρ = 2^-40 and spills out at ρ = 2^-20 (radius 5.2e-5).
    # At p bits the Newton loop admits 55ρ < 2^(rho_log2+6) = 2^-(p/2+10),
    # as |z| > 1.
    monkeypatch.setattr(FixedEval, "residual",
                        lambda self, values, bits: 1 << (bits + rho_log2))
    cert = run_certificate(9, 3, precision_bits=2 * (-rho_log2 - 16))
    assert cert["signs"] == ["-"] and cert["pass"] == passed
    if passed:
        assert Fraction(cert["base_disk"]["radius"]) == 55 * Fraction(2) ** rho_log2
    else:
        assert cert["base_disk"] is None


_NAMES_RESOLVE = """
import importlib
for name in relroots.__all__:
    value = getattr(relroots, name)
    module = "relroots." + relroots._SOURCES[name]
    assert value is getattr(importlib.import_module(module), name), name
    assert getattr(value, "__module__", module) == module, name
from relroots import *
assert RatPoly is relroots.RatPoly and "RatPoly" in dir(relroots)
try:
    relroots.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""


@pytest.mark.parametrize("code, loads_numpy", [
    ("from relroots.cli import run_certificate\nassert run_certificate(9, 3)['pass']\n"
     "assert 'relroots.chip_firing' not in sys.modules", False),
    ("assert len(relroots.find_roots(relroots.RatPoly([-2, 0, 1]))) == 2", True),
    ("g = relroots.parse_graph('{\"n\":3,\"edges\":[[0,1,1],[1,2,1],[0,2,1]]}')\n"
     "assert relroots.h_vector_chip(g, 0).values == (1, 2)", True),
    (_NAMES_RESOLVE, False),
], ids=["certify", "find_roots", "h_vector_chip", "names"])
def test_numpy_loads_only_where_it_runs(code, loads_numpy):
    # Each case runs after ``import relroots`` in a new interpreter, which
    # loads no submodule, no mpmath and no numpy: every public name is
    # imported from its submodule when it is first read.
    env = {**os.environ, "PYTHONPATH": str(Path(relroots.__file__).parents[1])}
    script = ("import sys\nimport relroots\n"
              "assert not [m for m in sys.modules if m.startswith(('relroots.', 'mpmath', 'numpy'))]\n"
              f"{code}\nprint('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(loads_numpy)


@pytest.mark.parametrize("argv, solver", [
    (["certify", "9", "3"], False),
    (["roots", "POLY"], True),
    (["table1", "3"], True),
], ids=["certify", "roots", "table1"])
def test_commands_load_the_solver_only_where_it_runs(tmp_path, argv, solver):
    # One command through ``cli.main`` in a new interpreter: ``certify``
    # proves its base disk with ``fixed_point`` alone and its box in exact
    # integers, so it loads neither the root solver nor the reliability
    # recursion, chip-firing, numpy or mpmath,
    # and its records are plain classes, so it loads no ``dataclasses``
    # (nor the ``inspect`` that it imports); ``roots`` and ``table1`` load
    # the solver but not the recursion.  ``cli.find_roots`` still reads as
    # the solver's.
    poly = tmp_path / "p.json"
    poly.write_text('{"coeffs": ["-2", "0", "1"]}')
    argv = [str(poly) if arg == "POLY" else arg for arg in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(relroots.__file__).parents[1])}
    watched = ("relroots.root_analysis", "relroots.reliability", "relroots.chip_firing", "numpy",
               "mpmath", "dataclasses", "inspect")
    script = ("import contextlib, io, json, sys\nfrom relroots import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    assert cli.main({argv!r}) == 0\n"
              f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))\n"
              "from relroots import root_analysis\n"
              "assert cli.find_roots is root_analysis.find_roots\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    if solver:
        assert {"relroots.root_analysis", "numpy"} <= set(loaded)
        assert not {"relroots.reliability", "relroots.chip_firing"} & set(loaded)
    else:
        assert loaded == []
