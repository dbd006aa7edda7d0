"""Exact flat-band analysis for Z^d-periodic graph operators.

The package builds Floquet matrices of labeled periodic graphs over
exact rational arithmetic, detects flat bands as linear factors of the
dispersion polynomial, analyzes Newton-polytope structure, and offers a
combinatorial support-zero search plus numeric band sampling as
independent cross-checks.
"""

from .bands import (BandSample, hermitian_eigh, numeric_flat_flags, sample_bands,
                    symmetric_jacobi, write_csv)
from .flatband import (FlatBandReport, GenericFlatBandDecision, InheritanceResult,
                       IrreducibleFactor, flat_bands, flat_bands_of,
                       generic_flat_band_decision, inheritance_check,
                       vertical_segment_face_witness)
from .floquet import (FloquetMatrix, dispersion_polynomial, induced_dispersion,
                      induced_operator)
from .graph import (EdgeClass, Labeling, PeriodicGraph, ShiftAssignment,
                    canonicalize_edge, components, find_support_zero_component,
                    has_support_zero_domain, induced_subgraph, is_support_zero,
                    reshift, support_of_subset)
from .graphio import (GraphFormatError, GraphSpec, graph_to_document,
                      load_graph_file, load_graph_text, parse_graph_spec)
from .laurent import (LaurentPoly, det_bareiss, det_leibniz, determinant, facial_polynomial,
                      format_poly)
from .polytope import (FaceDescriptor, NewtonPolytopeData,
                       extreme_points, face_of, facial_independence_witness,
                       generic_support, hulls_equal, in_convex_hull,
                       is_vertical_segment, minkowski_sum, newton_polytope_data,
                       permutation_product, sigma_support_check, vertical_faces)
from .resultant import cut_edge_certificate, evaluate_z, resultant, sylvester_matrix
from .sampling import (random_labeling, random_periodic_graph, random_rational,
                       rng_for, tame_real_labeling)

__version__ = "0.1.0"

__all__ = [
    "BandSample", "EdgeClass", "FaceDescriptor", "FlatBandReport", "FloquetMatrix",
    "GenericFlatBandDecision", "GraphFormatError",
    "GraphSpec", "InheritanceResult", "IrreducibleFactor", "Labeling",
    "LaurentPoly", "NewtonPolytopeData", "PeriodicGraph",
    "ShiftAssignment",
    "canonicalize_edge", "components", "cut_edge_certificate", "det_bareiss",
    "det_leibniz", "determinant", "dispersion_polynomial", "evaluate_z",
    "extreme_points", "face_of", "facial_independence_witness", "facial_polynomial",
    "find_support_zero_component", "flat_bands", "flat_bands_of", "format_poly",
    "generic_flat_band_decision", "generic_support", "graph_to_document",
    "has_support_zero_domain", "hermitian_eigh", "hulls_equal", "in_convex_hull",
    "induced_dispersion", "induced_operator", "induced_subgraph", "inheritance_check",
    "is_support_zero", "is_vertical_segment", "load_graph_file", "load_graph_text",
    "minkowski_sum", "newton_polytope_data", "numeric_flat_flags", "parse_graph_spec",
    "permutation_product", "random_labeling",
    "random_periodic_graph", "random_rational", "reshift", "resultant", "rng_for",
    "sample_bands", "sigma_support_check", "support_of_subset", "sylvester_matrix",
    "symmetric_jacobi", "tame_real_labeling", "vertical_faces",
    "vertical_segment_face_witness", "write_csv",
]
