"""Exact tools for one-relator relative presentations and Howie diagrams."""

__version__ = "0.1.0"

from .groups import GroupTable, GroupTableError, cyclic_group
from .freeprod import (AmbientMismatch, FPWord, FreeProduct, ShiftDomainError,
                       conjugate_in_free_product)
from .words import (TWord, WordParseError, cyclic_equal, is_cyclically_reduced,
                    is_unimodular, parse_h_word, parse_word, t_exponent_residue,
                    word_str)
from .presentation import (RelPresentation, RewriteError, back_substitute,
                           evaluate_alternating_word, initial_rewrite, minimize,
                           shape_certificate, verify_conditions)
from .diagram import (Diagram, DiagramError, Slot, classify_face,
                      curvature_weights, is_degenerate_digon, is_phi_reduced,
                      is_reduced, uniform_weights, validate_howie)
from .moves import (DiagramChain, GlueResult, MoveError, MoveTrace, fill_hole,
                    glue_cyclic_copies, merge_digons, pull_identity_edge,
                    reduce_to_chain, replay_trace, thicken)
from .conjugacy import (FreeProductModel, ReductionOutcome, center_certificate,
                        digon_step, malnormality_oracle, prefix_trace,
                        reduce_conjugator)
from .search import (EnumerationConfig, EnumerationResult,
                     brute_force_enumerate, curvature_audit, enumerate_diagrams)

__all__ = [
    "GroupTable", "GroupTableError", "cyclic_group",
    "FreeProduct", "FPWord", "AmbientMismatch", "ShiftDomainError",
    "conjugate_in_free_product",
    "TWord", "WordParseError", "parse_word", "parse_h_word", "word_str",
    "cyclic_equal", "is_unimodular", "is_cyclically_reduced",
    "t_exponent_residue",
    "RelPresentation", "RewriteError", "initial_rewrite", "minimize",
    "verify_conditions", "shape_certificate", "back_substitute",
    "evaluate_alternating_word",
    "Diagram", "DiagramError", "Slot", "classify_face", "validate_howie",
    "curvature_weights", "uniform_weights", "is_reduced", "is_phi_reduced",
    "is_degenerate_digon",
    "MoveError", "MoveTrace", "DiagramChain", "GlueResult", "merge_digons",
    "fill_hole", "pull_identity_edge", "thicken", "reduce_to_chain",
    "replay_trace", "glue_cyclic_copies",
    "ReductionOutcome", "digon_step", "prefix_trace", "reduce_conjugator",
    "FreeProductModel", "malnormality_oracle", "center_certificate",
    "EnumerationConfig", "EnumerationResult", "enumerate_diagrams",
    "brute_force_enumerate", "curvature_audit",
]
