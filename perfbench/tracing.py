"""Span recording for traced benchmark runs, and the per-layer metrics derived from it.

Spans are recorded from outside the package: the benchmark replaces the
attributes through which it (or ``relroots.cli``) reaches a module's public
functions with wrappers that time each call.  Nothing under ``src/`` is
changed.  Spans stay in memory and are written out when the run ends.

Times come from ``time.perf_counter``, which on Linux reads the system-wide
CLOCK_MONOTONIC, so spans recorded in a child process line up with the
parent's.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

# rel_auto picks brute force up to this many distinct vertex pairs (its
# default guard of 24 pairs is larger, so the 16 decides).
BRUTE_FORCE_PAIRS = 16


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; ``op`` tags every span with the op that caused it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable[[tuple, object], dict]] = None) -> Callable:
        """``fn`` with a span around every call.

        ``attrs(args, result)`` adds counts computed from the call's public
        inputs and output; ``result`` is None when the call raised.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(index)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if attrs is not None:
                    span.attrs.update(attrs(args, result))

        return traced

    def patch(self, owner: object, attr: str, name: str,
              attrs: Optional[Callable[[tuple, object], dict]] = None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def record(self, name: str, start: float, end: float, attrs: Optional[dict] = None) -> int:
        """Add a span timed by the caller (e.g. around a child process)."""
        self.spans.append(Span(name, start, end, self._stack[-1] if self._stack else None,
                               self.op, dict(attrs or {})))
        return len(self.spans) - 1

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans serialized by a child process under span ``parent``."""
        base = len(self.spans)
        for s in spans:
            p = parent if s["parent"] is None else base + s["parent"]
            self.spans.append(Span(s["name"], s["start"], s["end"], p, self.op, s["attrs"]))

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Things a later in-package trace could report but that cannot be seen from
# outside the package; the benchmark names them instead of approximating.
UNOBSERVABLE = {
    "stability.det_polynomial_interpolation_s":
        "the determinant-polynomial cache fill runs inside the first schur_cohn_box "
        "call; only first_s minus repeat_s bounds it",
    "root_analysis.winning_stage":
        "whether the machine sweep or the multiprecision sweep produced the roots "
        "is not returned; only the final precision is",
    "root_analysis.iterations": "Aberth and Newton iteration counts are not returned",
    "reliability.dc_expansions": "deletion-contraction expansions and memo hits are internal",
    "reliability.masks_nested":
        "masks enumerated by the f_vector/rel_auto/sprel calls nested inside "
        "substituted_reliability are internal",
    "stability.certificate_leaves": "leaves evaluated by schur_cohn_box's bisection are internal",
}

UNITS = {
    "root_analysis.busy_s": "s",
    "root_analysis.calls": "count",
    "root_analysis.degree_sum": "count",
    "root_analysis.escalations": "count",
    "root_analysis.failures": "count",
    "root_analysis.max_residual_log2": "log2",
    "root_analysis.table_err": "1",
    "closed_forms.busy_s": "s",
    "stability.schur_cohn_box.first_s": "s",
    "stability.schur_cohn_box.repeat_s": "s",
    "stability.kth_root_ratio_box.s": "s",
    "stability.certificate_pencil.s": "s",
    "stability.subdivision_depth": "count",
    "multigraph.edge_connectivity.s": "s",
    "multigraph.max_flows": "count",
    "multigraph.spanning_tree_count.s": "s",
    "substitution.substituted_two_clique_graph.s": "s",
    "substitution.substitute_edges.s": "s",
    "substitution.substituted_reliability.s": "s",
    "reliability.rel_auto.small_s": "s",
    "reliability.rel_auto.large_s": "s",
    "reliability.masks": "count",
    "polynomials.f_from_rel.s": "s",
    "polynomials.f_to_h.s": "s",
    "polynomials.deflate_unit_roots.s": "s",
    "chip_firing.h_vector_chip.s": "s",
    "chip_firing.states": "count",
    "chip_firing.guard_exceeded": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

ROOT_ENTRY_POINTS = ("root_analysis.reliability_root_set", "root_analysis.find_roots")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], ops: int, overhead_s: float, margins: dict,
                  speed_of_op: dict) -> dict:
    """Per-layer metrics from the spans of ``ops`` traced ops.

    Times and counts are per op (totals divided by ``ops``); the margins
    (worst residual, worst table error, deepest subdivision) are maxima.
    Self times are host-adjusted with the core's mean speed over the span's
    op (``speed_of_op``, see ``hostspeed``), like the end-to-end times.
    """
    own = [t * speed_of_op[s.op] for s, t in zip(spans, self_times(spans))]

    def total(pred) -> float:
        return sum(t for s, t in zip(spans, own) if pred(s))

    def per_op(x: float) -> float:
        return x / ops

    def named(name: str) -> float:
        return per_op(total(lambda s: s.name == name))

    def layer(prefix: str) -> float:
        return per_op(total(lambda s: s.name.startswith(prefix + ".")))

    def count(pred, key: Optional[str] = None) -> float:
        return per_op(sum((s.attrs.get(key, 0) if key else 1) for s in spans if pred(s)))

    def parent_name(s: Span) -> Optional[str]:
        return spans[s.parent].name if s.parent is not None else None

    def rel_auto(small: bool):
        return lambda s: (s.name == "reliability.rel_auto"
                          and (s.attrs["pairs"] <= BRUTE_FORCE_PAIRS) == small)

    roots = [s for s in spans if s.name in ROOT_ENTRY_POINTS]
    residuals = [s.attrs["max_residual_log2"] for s in roots
                 if s.attrs.get("max_residual_log2") is not None]
    depths = [s.attrs["subdivision_depth"] for s in spans
              if s.name == "stability.schur_cohn_box"]
    chip_ran = lambda s: s.name == "chip_firing.h_vector_chip" and "error" not in s.attrs

    values = {
        "root_analysis.busy_s": layer("root_analysis"),
        "root_analysis.calls": count(lambda s: s.name in ROOT_ENTRY_POINTS),
        "root_analysis.degree_sum": (
            count(lambda s: s.name == "polynomials.deflate_unit_roots"
                  and parent_name(s) == "root_analysis.reliability_root_set", "degree")
            + count(lambda s: s.name == "root_analysis.find_roots", "degree")),
        "root_analysis.escalations": count(
            lambda s: s.name in ROOT_ENTRY_POINTS
            and s.attrs.get("precision_bits", 0) > s.attrs["requested_bits"]),
        "root_analysis.failures": count(
            lambda s: s.name in ROOT_ENTRY_POINTS and s.attrs.get("error") == "RootFindingError"),
        "root_analysis.max_residual_log2": max(residuals, default=0.0),
        "root_analysis.table_err": margins.get("root_analysis.table_err", 0.0),
        "closed_forms.busy_s": layer("closed_forms"),
        "stability.schur_cohn_box.first_s": named("stability.schur_cohn_box"),
        "stability.schur_cohn_box.repeat_s": named("stability.schur_cohn_box.repeat"),
        "stability.kth_root_ratio_box.s": named("stability.kth_root_ratio_box"),
        "stability.certificate_pencil.s": named("stability.certificate_pencil"),
        "stability.subdivision_depth": max(depths, default=0),
        "multigraph.edge_connectivity.s": named("multigraph.edge_connectivity"),
        "multigraph.max_flows": count(lambda s: s.name == "multigraph.edge_connectivity",
                                      "targets"),
        "multigraph.spanning_tree_count.s": named("multigraph.spanning_tree_count"),
        "substitution.substituted_two_clique_graph.s":
            named("substitution.substituted_two_clique_graph"),
        "substitution.substitute_edges.s": named("substitution.substitute_edges"),
        "substitution.substituted_reliability.s": named("substitution.substituted_reliability"),
        "reliability.rel_auto.small_s": per_op(total(rel_auto(small=True))),
        "reliability.rel_auto.large_s": per_op(total(rel_auto(small=False))),
        "reliability.masks": count(rel_auto(small=True), "masks"),
        "polynomials.f_from_rel.s": named("polynomials.f_from_rel"),
        "polynomials.f_to_h.s": named("polynomials.f_to_h"),
        "polynomials.deflate_unit_roots.s": named("polynomials.deflate_unit_roots"),
        "chip_firing.h_vector_chip.s": named("chip_firing.h_vector_chip"),
        "chip_firing.states": count(chip_ran, "states"),
        "chip_firing.guard_exceeded": count(
            lambda s: s.name == "chip_firing.h_vector_chip"
            and s.attrs.get("error") == "GuardExceededError"),
        "cli.self_s": named("cli.main"),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
