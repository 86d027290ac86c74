"""The plain slotted records: their constructors, equality, hashing and the
validation each one runs on construction."""

from fractions import Fraction

import pytest

from relroots import (Block, Gadget, InputError, Multigraph, ParamBox, QComplex,
                      SchurCohnReport, TwoCliqueParams, blocks, certificate_pencil)
from relroots.reliability import contract

TRIANGLE = ((0, 1, 1), (0, 2, 1), (1, 2, 1))
K3 = Multigraph(n=3, edges=TRIANGLE)
PATH = Multigraph(n=3, edges=((0, 1, 1), (1, 2, 1)))

# name -> (build a fresh value, build a different one, hashable, the fresh
# value's repr).  The builds use the positional and keyword forms that
# callers use.
RECORDS = {
    "QComplex": (lambda: QComplex(Fraction(1, 2), Fraction(-3)),
                 lambda: QComplex(Fraction(1, 2)), True,
                 "QComplex(re=Fraction(1, 2), im=Fraction(-3, 1))"),
    "Multigraph": (lambda: Multigraph(*contract(3, TRIANGLE, 0, 1)),
                   lambda: Multigraph(n=2, edges=((0, 1, 1),)), True,
                   "Multigraph(n=2, m=2, pairs=1)"),
    "Block": (lambda: blocks(PATH)[0],
              lambda: Block(graph=Multigraph(n=2, edges=((0, 1, 1),)), vertices=(0, 2)), True,
              "Block(graph=Multigraph(n=2, m=1, pairs=1), vertices=(1, 2))"),
    "TwoCliqueParams": (lambda: TwoCliqueParams(*(3, 3, 1, 6)),
                        lambda: TwoCliqueParams(m=3, n=3, a=1, b=5), True,
                        "TwoCliqueParams(m=3, n=3, a=1, b=6)"),
    "ParamBox": (lambda: ParamBox.of(0, "1/2", 0, 1),
                 lambda: ParamBox(Fraction(0), Fraction(1, 2), Fraction(0), Fraction(2)), True,
                 "ParamBox(a_lo=Fraction(0, 1), a_hi=Fraction(1, 2), "
                 "b_lo=Fraction(0, 1), b_hi=Fraction(1, 1))"),
    "SchurCohnReport": (lambda: SchurCohnReport(signs=("-",), beta=1),
                        lambda: SchurCohnReport(("-",), 1, subdivision_depth=2), False,
                        "SchurCohnReport(signs=('-',), beta=1, box=None, subdivision_depth=0)"),
    "BoxPoly": (lambda: certificate_pencil(3).box_poly(ParamBox.of(0, 1, 0, 1)),
                lambda: certificate_pencil(3).box_poly(ParamBox.of(0, 1, 0, 2)), False,
                "BoxPoly(box=ParamBox(a_lo=Fraction(0, 1), a_hi=Fraction(1, 1), "
                "b_lo=Fraction(0, 1), b_hi=Fraction(1, 1)))"),
    "CertificatePencil": (lambda: certificate_pencil(4), lambda: certificate_pencil(3), True,
                          "CertificatePencil(n=4, split_reduced=RatPoly(2*q^2 + 6*q^3), "
                          "rel_reduced=RatPoly(1*q^0 + 2*q^1 + 1*q^2 + -4*q^3))"),
    "Gadget": (lambda: Gadget(graph=K3, u=0, v=2),
               lambda: Gadget(PATH, 0, 2), True,
               "Gadget(graph=Multigraph(n=3, m=3, pairs=3), u=0, v=2)"),
}


@pytest.mark.parametrize("make, other, hashable, text", RECORDS.values(), ids=RECORDS)
def test_record_equality_and_hashing(make, other, hashable, text):
    a, b, c = make(), make(), other()
    assert a is not b and a == b and not a != b
    assert a != c and a != tuple(getattr(a, name) for name in type(a).__slots__)
    assert repr(a).startswith(type(a).__name__ + "(")
    assert repr(a) == text
    if hashable:
        assert hash(a) == hash(b) and len({a, b, c}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_multigraph_counts_its_edges():
    assert Multigraph(n=3, edges=((0, 1, 2), (1, 2, 3))).m == 5
    assert Multigraph(*contract(3, TRIANGLE, 0, 1)) == Multigraph(n=2, edges=((0, 1, 2),))


@pytest.mark.parametrize("build", [
    lambda: ParamBox(Fraction(1), Fraction(0), Fraction(0), Fraction(1)),
    lambda: ParamBox.of(0, 1, "1/2", "1/3"),
    lambda: TwoCliqueParams(3, 3, 1, 0),
    lambda: TwoCliqueParams(m=0, n=3, a=1, b=6),
    lambda: Multigraph(n=-1, edges=()),
    lambda: Multigraph(n=2, edges=((1, 1, 1),)),
    lambda: Multigraph(n=2, edges=((0, 2, 1),)),
    lambda: Multigraph(n=2, edges=((1, 0, 1),)),
    lambda: Multigraph(n=2, edges=((0, 1, 0),)),
    lambda: Multigraph(n=3, edges=((0, 2, 1), (0, 1, 1))),
    lambda: Multigraph(n=3, edges=((0, 1, 1), (0, 1, 2))),
    lambda: Gadget(graph=K3, u=1, v=1),
    lambda: Gadget(graph=K3, u=0, v=3),
    lambda: Gadget(graph=K3, u=-1, v=0),
    lambda: Gadget(graph=Multigraph(n=1, edges=()), u=0, v=1),
    lambda: Gadget(graph=Multigraph(n=3, edges=((0, 1, 1),)), u=0, v=1),
], ids=["box-a-reversed", "box-b-reversed", "two-clique-b-0", "two-clique-m-0",
        "graph-negative-n", "graph-loop", "graph-vertex-out-of-range", "graph-pair-reversed",
        "graph-multiplicity-0", "graph-pairs-unsorted", "graph-pair-repeated",
        "gadget-equal-terminals", "gadget-terminal-out-of-range", "gadget-negative-terminal",
        "gadget-one-vertex", "gadget-disconnected"])
def test_record_validation_raises_input_error(build):
    with pytest.raises(InputError):
        build()
