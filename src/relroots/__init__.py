"""Exact all-terminal reliability polynomials, their complex roots, and
certified root-location proofs over rational parameter boxes."""

from .chip_firing import (Configuration, CriticalMonomial, critical_configs,
                          h_vector_chip, ideal_check, monomials_of,
                          recurrent_by_firing_search)
from .closed_forms import (TwoCliqueParams, rel_complete,
                           rel_complete_minus_edge, sprel_complete_minus_edge,
                           two_clique_graph, two_clique_reliability)
from .errors import (DisconnectedGraphError, GuardExceededError,
                     IndeterminateError, InputError, NumericalError,
                     RootFindingError, SchurCohnHypothesisError, ToolkitError)
from .multigraph import (Block, Multigraph, blocks, bundle_replace,
                         edge_connectivity, is_connected, parse_graph,
                         spanning_tree_count)
from .polynomials import (FVector, HVector, QComplex, RatPoly, f_from_rel,
                          f_to_h, h_to_rel, parse_complex_rational, rel_from_f)
from .reliability import (SplitSpec, f_vector, rel_auto, rel_bruteforce,
                          rel_via_blocks, sprel)
from .root_analysis import (Annulus, RootSet, SolverDiagnostics,
                            check_modulus_bound, enestrom_kakeya, find_roots,
                            max_modulus_root, reliability_root_set)
from .stability import (BASE_ROOT_BOX, BoxPoly, CertificatePencil, ParamBox,
                        SchurCohnReport, certificate_pencil, kth_root_ratio_box,
                        schur_cohn, schur_cohn_box)
from .substitution import (Gadget, bundle_gadget, complete_minus_edge_gadget,
                           substitute_edges, substituted_reliability,
                           substituted_root_poly, substituted_two_clique_graph)

__version__ = "0.1.0"
