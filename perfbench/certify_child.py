"""One construction of the ``certify`` workload, run in a fresh interpreter.

Usage: python3 certify_child.py K N TRACE

Runs ``relroots certify K N`` through ``relroots.cli.main`` and then the
capped max-flow sweep over the same construction, as a CLI user pays for
them on every run (including the determinant-polynomial cache fill).  Prints
one JSON line with the certificate, the graph's size and edge connectivity,
the samples of its own host-speed probe and, when TRACE is 1, the recorded
spans; exits with the CLI's exit code.

With TRACE 1 the attributes that ``relroots.cli`` looks up are wrapped in
spans, and the certificate's Schur-Cohn box is solved a second time to show
what the cold first call spent on the cache fill; the harness leaves the
``perfbench.traced_only`` span around it out of the op time.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction

from relroots import (ParamBox, certificate_pencil, cli, edge_connectivity, schur_cohn_box,
                      substituted_two_clique_graph)

from hostspeed import SpeedProbe


def main(k: int, n: int, traced: bool) -> int:
    with SpeedProbe() as probe:
        rc, doc = run(k, n, traced)
    doc["probe"] = {"times": probe.times, "speeds": probe.speeds}
    print(json.dumps(doc))
    return rc


def run(k: int, n: int, traced: bool) -> tuple[int, dict]:
    graph_fn, lam_fn = substituted_two_clique_graph, edge_connectivity
    if traced:
        from tracing import Tracer
        from workloads import root_attrs, trace_deflation

        tracer = Tracer()
        points = {  # attribute of relroots.cli -> (span name, counts from inputs and output)
            "main": ("cli.main", None),
            "certificate_pencil": ("stability.certificate_pencil", None),
            "schur_cohn_box": (
                "stability.schur_cohn_box",
                lambda a, r: {"subdivision_depth": r.subdivision_depth} if r else {}),
            "kth_root_ratio_box": ("stability.kth_root_ratio_box", None),
            "substituted_two_clique_graph": ("substitution.substituted_two_clique_graph", None),
            "rel_complete_minus_edge": ("closed_forms.rel_complete_minus_edge", None),
            "find_roots": ("root_analysis.find_roots",
                           lambda a, r: {**root_attrs(a, r), "degree": a[0].degree}),
        }
        for attr, (name, attrs) in points.items():
            tracer.patch(cli, attr, name, attrs)
        trace_deflation(tracer)
        graph_fn = cli.substituted_two_clique_graph
        lam_fn = tracer.wrap("multigraph.edge_connectivity", edge_connectivity,
                             lambda a, r: {"targets": a[0].n - 1})

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["certify", str(k), str(n)])
    cert = json.loads(out.getvalue()) if rc == 0 else None
    graph = graph_fn(k, n)
    lam = lam_fn(graph, upper_bound=n)
    doc = {"k": k, "n": n, "cert": cert, "vertices": graph.n, "edges": graph.m, "lam": lam}

    if traced:
        if cert is not None:
            def repeat() -> None:
                box = ParamBox.of(*(Fraction(cert["box"][key])
                                    for key in ("a_lo", "a_hi", "b_lo", "b_hi")))
                poly = certificate_pencil(n).box_poly(box)
                tracer.wrap("stability.schur_cohn_box.repeat", schur_cohn_box)(poly)

            tracer.wrap("perfbench.traced_only", repeat)()
        tracer.restore()
        doc["spans"] = tracer.dump()
    return rc, doc


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1"))
