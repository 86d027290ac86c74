"""Workloads of the relroots benchmark: seeded inputs, the op, and its check.

Every workload yields its inputs in rounds; the harness runs whole rounds.
An op receives only generated graphs and polynomials and reaches the
package through ``ctx.lib`` (or, for ``certify``, a child interpreter), so
a traced run can wrap those entry points.  Every check returns the list of
problems it found (empty when the output is right) and any margins it
measured on the way.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator

import mpmath as mp

import relroots
from relroots import (Gadget, GuardExceededError, Multigraph, RatPoly, RootSet,
                      TwoCliqueParams, bundle_gadget, complete_minus_edge_gadget)
from relroots.chip_firing import DEFAULT_STATE_GUARD
from relroots.cli import TABLE1_REFERENCE

PRECISION_BITS = 256
TABLE1_ORDERS = tuple(range(3, 7))
TABLE1_TOLERANCE = mp.mpf("1e-8")  # acceptance criterion 1

# (k, n) -> (signs, vertices, edges, edge connectivity) of the published
# certificate sweep; every certificate has beta = 1.
CERTIFY_EXPECTED = {
    (9, 3): ("-", 546, 1080, 2),
    (7, 4): ("++-", 846, 2100, 3),
    (6, 5): ("+++++-", 1086, 3240, 4),
    (6, 6): ("+++++++++-", 1446, 5040, 5),
}
CHILD_SCRIPT = Path(__file__).resolve().parent / "certify_child.py"
CHILD_TIMEOUT_S = 150

# Public functions the in-process ops call, reached through ``ctx.lib``.
LIBRARY = ("two_clique_reliability", "reliability_root_set", "max_modulus_root",
           "substitute_edges", "rel_auto", "substituted_reliability", "f_from_rel",
           "f_to_h", "h_vector_chip", "spanning_tree_count", "edge_connectivity")


def library() -> SimpleNamespace:
    return SimpleNamespace(**{name: getattr(relroots, name) for name in LIBRARY})


def root_attrs(args: tuple, rs) -> dict:
    """Counts for a root_analysis call: requested and returned precision, worst residual."""
    out = {"requested_bits": args[1] if len(args) > 1 else PRECISION_BITS}
    if rs is not None:
        out["precision_bits"] = rs.precision_bits
        worst = [mp.log(r / max(1, abs(z)), 2) for z, r in zip(rs.roots, rs.residuals) if r]
        out["max_residual_log2"] = float(max(worst)) if worst else None
    return out


def chip_states(g: Multigraph, sink: int = 0) -> int:
    """Stable configurations h_vector_chip enumerates: the product of non-sink degrees."""
    degrees = g.degrees()
    return math.prod(d for v, d in enumerate(degrees) if v != sink)


# Entry points wrapped in a traced in-process run: attribute of ``ctx.lib``
# -> (span name, counts from the call's inputs and output).
TRACE_POINTS = {
    "two_clique_reliability": ("closed_forms.two_clique_reliability", None),
    "reliability_root_set": ("root_analysis.reliability_root_set", root_attrs),
    "max_modulus_root": ("root_analysis.max_modulus_root", None),
    "substitute_edges": ("substitution.substitute_edges", None),
    "rel_auto": ("reliability.rel_auto",
                 lambda a, r: {"pairs": a[0].pair_count, "masks": 2 ** a[0].pair_count}),
    "substituted_reliability": ("substitution.substituted_reliability", None),
    "f_from_rel": ("polynomials.f_from_rel", None),
    "f_to_h": ("polynomials.f_to_h", None),
    "h_vector_chip": ("chip_firing.h_vector_chip",
                      lambda a, r: {"states": chip_states(a[0], a[1])}),
    "spanning_tree_count": ("multigraph.spanning_tree_count", None),
    "edge_connectivity": ("multigraph.edge_connectivity", lambda a, r: {"targets": a[0].n - 1}),
}


def trace_deflation(tracer) -> None:
    """Span every RatPoly.deflate_unit_roots call (root_analysis calls it on each input)."""
    tracer.patch(RatPoly, "deflate_unit_roots", "polynomials.deflate_unit_roots",
                 lambda a, r: {"degree": r[0].degree} if r is not None else {})


# ---------------------------------------------------------------------------
# Seeded generator of gadget-substituted graphs
# ---------------------------------------------------------------------------

GADGETS = {
    "K3-e": complete_minus_edge_gadget(3),
    "K4-e": complete_minus_edge_gadget(4),
    "K5-e": complete_minus_edge_gadget(5),
    "triangle": Gadget(graph=Multigraph.from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)]),
                       u=0, v=1),
    "bundle2": bundle_gadget(2),
    "bundle3": bundle_gadget(3),
}
BASE_ORDERS = (3, 4, 5)
EXTRA_EDGES = (0, 1)

# h_vector_chip holds about 150 bytes per stable configuration, so a graph
# just under its default guard of 2^24 configurations needs gigabytes.  Cells
# (gadget, base order, extra edges) whose graphs land between 2^20 and the
# guard are left out; on every other cell the guard either admits at most
# 2^20 configurations or rejects the graph outright (a counted
# GuardExceededError).  The excluded cells land there on every draw.
CHIP_STATE_CAP = 1 << 20
EXCLUDED_CELLS = (("K4-e", 4, 1), ("K4-e", 5, 0), ("K5-e", 3, 0))
CELLS = tuple((gadget, order, extra) for gadget in GADGETS for order in BASE_ORDERS
              for extra in EXTRA_EDGES if (gadget, order, extra) not in EXCLUDED_CELLS)


def random_base(rng: random.Random, order: int, extra: int) -> Multigraph:
    """A 2-connected multigraph: a Hamiltonian cycle in random vertex order plus
    ``extra`` edges between random vertex pairs (parallel edges allowed)."""
    cycle = rng.sample(range(order), order)
    pairs = Counter(tuple(sorted((cycle[i], cycle[(i + 1) % order]))) for i in range(order))
    for _ in range(extra):
        pairs[tuple(sorted(rng.sample(range(order), 2)))] += 1
    return Multigraph.from_edges(order, [(a, b, m) for (a, b), m in sorted(pairs.items())])


@dataclass(frozen=True)
class Substituted:
    cell: tuple
    base: Multigraph
    gadget: Gadget


def substituted_draws(rng: random.Random) -> Iterator[list[Substituted]]:
    """Rounds of draws, each round one draw per cell in a seeded order."""
    while True:
        cells = list(CELLS)
        rng.shuffle(cells)
        draws = []
        for cell in cells:
            gadget, order, extra = cell
            draw = Substituted(cell, random_base(rng, order, extra), GADGETS[gadget])
            states = chip_states(relroots.substitute_edges(draw.base, draw.gadget))
            if CHIP_STATE_CAP < states <= DEFAULT_STATE_GUARD:
                raise RuntimeError(f"cell {cell} drew a graph with {states} chip states")
            draws.append(draw)
        yield draws


# ---------------------------------------------------------------------------
# table1: max-modulus roots of the (n,n,1,6) two-clique family, n = 3..6
# ---------------------------------------------------------------------------


def table1_rounds(seed: int) -> Iterator[list]:
    # The paper fixes these four polynomials; the seed changes nothing.
    while True:
        yield [TABLE1_ORDERS]


def table1_run(orders, ctx) -> list:
    lib = ctx.lib
    rows = []
    for n in orders:
        rel = lib.two_clique_reliability(TwoCliqueParams(m=n, n=n, a=1, b=6))
        rows.append((n, lib.max_modulus_root(lib.reliability_root_set(rel, PRECISION_BITS))))
    return rows


def table1_check(orders, rows) -> tuple[list[str], dict]:
    problems = []
    if [n for n, _ in rows] != list(orders):
        problems.append(f"rows {[n for n, _ in rows]} != {list(orders)}")
    worst = mp.mpf(0)
    for n, z in rows:
        ref = [mp.mpf(s) for s in TABLE1_REFERENCE[n]]
        err = max(abs(z.real - ref[0]), abs(z.imag - ref[1]), abs(abs(z) - ref[2]))
        worst = max(worst, err)
        if not err <= TABLE1_TOLERANCE:
            problems.append(f"n={n}: max-modulus root {mp.nstr(z, 12)} is {mp.nstr(err, 3)} "
                            f"from the reference")
    return problems, {"root_analysis.table_err": float(worst)}


# ---------------------------------------------------------------------------
# certify: the four published constructions, each in a fresh interpreter
# ---------------------------------------------------------------------------


def certify_rounds(seed: int) -> Iterator[list]:
    # The paper fixes the four constructions; the seed changes nothing.
    while True:
        yield [tuple(CERTIFY_EXPECTED)]


def certify_run(constructions, ctx) -> list[dict]:
    out = []
    for k, n in constructions:
        cmd = [sys.executable, str(CHILD_SCRIPT), str(k), str(n), str(int(ctx.tracer is not None))]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=ctx.child_env,
                              timeout=CHILD_TIMEOUT_S)
        end = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"certify {k} {n} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        probe = doc.pop("probe")
        ctx.probe.adopt(probe["times"], probe["speeds"])
        if ctx.tracer is not None:
            parent = ctx.tracer.record("process.certify_child", start, end, {"k": k, "n": n})
            ctx.tracer.adopt(doc.pop("spans"), parent)
        out.append(doc)
    return out


def certify_check(constructions, results) -> tuple[list[str], dict]:
    problems = []
    if [(r["k"], r["n"]) for r in results] != list(constructions):
        problems.append("constructions missing or out of order")
    for r in results:
        signs, vertices, edges, lam = CERTIFY_EXPECTED[(r["k"], r["n"])]
        cert = r["cert"]
        got = ("".join(cert["signs"]), cert["beta"], cert["pass"], cert["vertices"],
               cert["edges"], r["vertices"], r["edges"], r["lam"])
        want = (signs, 1, True, vertices, edges, vertices, edges, lam)
        if got != want:
            problems.append(f"certify {r['k']} {r['n']}: (signs, beta, pass, V, E, V, E, lambda) "
                            f"= {got}, expected {want}")
    return problems, {}


# ---------------------------------------------------------------------------
# substituted: exact reliability, H-vectors and counts of substituted graphs
# ---------------------------------------------------------------------------


def substituted_rounds(seed: int) -> Iterator[list]:
    return substituted_draws(random.Random(f"substituted:{seed}"))


def substituted_run(draw: Substituted, ctx) -> SimpleNamespace:
    lib = ctx.lib
    g = lib.substitute_edges(draw.base, draw.gadget)
    rel = lib.rel_auto(g)
    composed = lib.substituted_reliability(draw.base, draw.gadget)
    h = lib.f_to_h(lib.f_from_rel(rel, g.n))
    try:
        chip = lib.h_vector_chip(g, 0)
    except GuardExceededError:  # the documented outcome above the state guard
        chip = None
    trees = lib.spanning_tree_count(g)
    lam = lib.edge_connectivity(g)
    return SimpleNamespace(graph=g, rel=rel, composed=composed, h=h, chip=chip,
                           trees=trees, lam=lam)


def substituted_check(draw: Substituted, r) -> tuple[list[str], dict]:
    problems = []
    if r.composed != r.rel:
        problems.append(f"{draw.cell}: composition formula differs from rel_auto")
    if r.chip is not None and r.chip.values != r.h.values:
        problems.append(f"{draw.cell}: chip-firing H {r.chip.values} != transform H {r.h.values}")
    if sum(r.h.values) != r.trees:
        problems.append(f"{draw.cell}: H(1) = {sum(r.h.values)} != {r.trees} spanning trees")
    if not 1 <= r.lam <= min(r.graph.degrees()):
        problems.append(f"{draw.cell}: edge connectivity {r.lam} outside 1..min degree")
    return problems, {}


# ---------------------------------------------------------------------------
# substituted_roots: roots of the exact Rel of substituted graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubstitutedPoly:
    cell: tuple
    rel: RatPoly
    order: int  # vertices of the substituted graph


def substituted_roots_rounds(seed: int) -> Iterator[list]:
    # The same generator with its own stream; the polynomial handed to the
    # op is what `relroots substitute --poly` prints for the draw.
    for draws in substituted_draws(random.Random(f"substituted_roots:{seed}")):
        for d in draws:
            internal = d.gadget.graph.n - 2
            yield [SubstitutedPoly(d.cell, relroots.substituted_reliability(d.base, d.gadget),
                                   d.base.n + internal * d.base.m)]


def substituted_roots_run(poly: SubstitutedPoly, ctx) -> RootSet:
    return ctx.lib.reliability_root_set(poly.rel, PRECISION_BITS)


def substituted_roots_check(poly: SubstitutedPoly, rs: RootSet) -> tuple[list[str], dict]:
    problems = []
    if len(rs.roots) != poly.rel.degree:
        problems.append(f"{poly.cell}: {len(rs.roots)} roots for degree {poly.rel.degree}")
    if rs.roots and not max(rs.moduli()) <= poly.order - 1:
        problems.append(f"{poly.cell}: a root modulus exceeds the order bound {poly.order - 1}")
    return problems, {}


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[int], Iterator[list]]
    run: Callable
    check: Callable
    children: bool = False  # ops run in child interpreters
    # Errors that are a documented way for an op to fail rather than a sign of
    # a wrong result; any other error makes the run incorrect.
    expected_errors: tuple = ()


WORKLOADS = {w.name: w for w in (
    Workload("table1", table1_rounds, table1_run, table1_check),
    Workload("certify", certify_rounds, certify_run, certify_check, children=True),
    Workload("substituted", substituted_rounds, substituted_run, substituted_check),
    Workload("substituted_roots", substituted_roots_rounds, substituted_roots_run,
             substituted_roots_check, expected_errors=("RootFindingError",)),
)}


# ---------------------------------------------------------------------------
# Negative controls: each check must count a corrupted result as failed
# ---------------------------------------------------------------------------


def _perturb_digit(text: str, place: int) -> str:
    i = text.index(".") + place
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def controls(ctx) -> list[tuple[str, Workload, object, object, object]]:
    """(label, workload, input, correct result, corrupted result) for every check."""
    out = []

    rows = [(n, mp.mpc(TABLE1_REFERENCE[n][0], TABLE1_REFERENCE[n][1])) for n in TABLE1_ORDERS]
    bad = list(rows)
    re, im, _ = TABLE1_REFERENCE[5]
    bad[2] = (5, mp.mpc(_perturb_digit(re, 6), im))
    out.append(("table1: one perturbed table digit", WORKLOADS["table1"], TABLE1_ORDERS, rows, bad))

    constructions = tuple(CERTIFY_EXPECTED)
    certs = [{"k": k, "n": n, "vertices": v, "edges": e, "lam": lam,
              "cert": {"signs": list(signs), "beta": 1, "pass": True, "vertices": v, "edges": e}}
             for (k, n), (signs, v, e, lam) in CERTIFY_EXPECTED.items()]
    flipped = json.loads(json.dumps(certs))
    flipped[1]["cert"]["signs"][0] = "-"
    out.append(("certify: one flipped certificate sign", WORKLOADS["certify"], constructions,
                certs, flipped))

    tiny = Substituted(("bundle2", 3, 0), random_base(random.Random(0), 3, 0), GADGETS["bundle2"])
    good = substituted_run(tiny, ctx)
    coeffs = list(good.composed.coeffs)
    coeffs[1] += 1
    out.append(("substituted: one wrong coefficient", WORKLOADS["substituted"], tiny, good,
                SimpleNamespace(**{**vars(good), "composed": RatPoly(coeffs)})))
    values = list(good.chip.values)
    values[1] += 1
    wrong_h = replace(good.chip, values=tuple(values))
    out.append(("substituted: one wrong H entry", WORKLOADS["substituted"], tiny, good,
                SimpleNamespace(**{**vars(good), "chip": wrong_h})))

    base = random_base(random.Random(0), 3, 0)
    poly = SubstitutedPoly(("K3-e", 3, 0), relroots.substituted_reliability(base, GADGETS["K3-e"]),
                           6)
    rs = substituted_roots_run(poly, ctx)
    out.append(("substituted_roots: one root missing", WORKLOADS["substituted_roots"], poly, rs,
                replace(rs, roots=rs.roots[:-1], residuals=rs.residuals[:-1])))
    return out
