"""Exact all-terminal reliability polynomials, their complex roots, and
certified root-location proofs over rational parameter boxes.

``import relroots`` loads no submodule: each public name is imported from
its submodule when it is first read (PEP 562), so a process pays only for
the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SOURCES = {
    **dict.fromkeys(("Configuration", "CriticalMonomial", "critical_configs", "h_vector_chip",
                     "ideal_check", "monomials_of", "recurrent_by_firing_search"),
                    "chip_firing"),
    **dict.fromkeys(("TwoCliqueParams", "rel_complete", "rel_complete_minus_edge",
                     "sprel_complete_minus_edge", "two_clique_graph",
                     "two_clique_reliability"), "closed_forms"),
    **dict.fromkeys(("DisconnectedGraphError", "GuardExceededError", "IndeterminateError",
                     "InputError", "NumericalError", "RootFindingError",
                     "SchurCohnHypothesisError", "ToolkitError"), "errors"),
    **dict.fromkeys(("Block", "Multigraph", "blocks", "bundle_replace", "edge_connectivity",
                     "is_connected", "parse_graph", "spanning_tree_count"), "multigraph"),
    **dict.fromkeys(("QComplex", "RatPoly", "parse_complex_rational"), "polynomials"),
    **dict.fromkeys(("FVector", "HVector", "SplitSpec", "f_from_rel", "f_to_h", "f_vector",
                     "h_to_rel", "rel_auto", "rel_bruteforce", "rel_from_f", "rel_via_blocks",
                     "sprel"), "reliability"),
    **dict.fromkeys(("Annulus", "RootSet", "SolverDiagnostics", "check_modulus_bound",
                     "enestrom_kakeya", "find_roots", "max_modulus_root",
                     "reliability_root_set"), "root_analysis"),
    **dict.fromkeys(("BASE_ROOT_BOX", "BoxPoly", "CertificatePencil", "ParamBox",
                     "SchurCohnReport", "certificate_pencil", "kth_root_ratio_box",
                     "schur_cohn", "schur_cohn_box"), "stability"),
    **dict.fromkeys(("Gadget", "bundle_gadget", "complete_minus_edge_gadget",
                     "substitute_edges", "substituted_reliability", "substituted_root_poly",
                     "substituted_two_clique_graph"), "substitution"),
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCES))
