"""Signless Laplacian spectra and energies of simple graphs.

The library computes adjacency, Laplacian, and signless Laplacian spectra with
a hand-written cyclic Jacobi eigensolver (compiled kernel with a pure-Python
twin), evaluates a catalog of lower and upper bounds on the signless Laplacian
energy with applicability gates and equality diagnosis, recognizes the graph
families behind characteristic spectrum patterns, and ships an exhaustive
verification harness plus reference-table reproduction.
"""

from .graph_core import (
    FAMILY_KINDS,
    DegreeStats,
    Graph,
    StructureInfo,
    build_family,
    cartesian_product,
    complete,
    complete_bipartite,
    crown,
    cycle,
    degree_stats,
    disjoint_copies,
    disjoint_union,
    emit_edgelist,
    emit_graph6,
    graph_from_edges,
    graph_from_mask,
    iter_labeled_graphs,
    matching,
    parse_edgelist,
    parse_graph6,
    path,
    prism,
    random_graph,
    star,
    structure,
)
from .spectral import (
    BACKEND,
    EigenSolveReport,
    GraphFacts,
    LemmaCheck,
    ProductSpectrumCheck,
    Spectrum,
    a_spectrum,
    adjacency_matrix,
    check_spectral_lemmas,
    l_spectrum,
    laplacian_matrix,
    product_spectrum_check,
    q_spectrum,
    signless_laplacian_matrix,
    symmetric_eigenvalues,
    zero_multiplicity,
)
from .energy import EnergyReport, GammaSequence, energies, gamma_sequence
from .bounds import (
    BOUND_IDS,
    BoundResult,
    EqualityDiagnosis,
    all_bounds,
    evaluate_bound,
    gan5_two_case_value,
)
from .families_verify import (
    CubicBounds,
    PrismBounds,
    QPatternResult,
    SrgResult,
    classify_q_pattern,
    cubic_bounds,
    detect_srg,
    prism_bounds,
    prism_gamma_min,
)
from .reports import (
    TableReport,
    TableRow,
    VerifySummary,
    analyze_report,
    render_json,
    reproduce_table1,
    reproduce_table2,
    table_report_dict,
    verify_exhaustive,
    verify_report,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graphs and families
    "Graph", "graph_from_edges", "build_family", "FAMILY_KINDS",
    "complete", "complete_bipartite", "star", "cycle", "path", "matching",
    "crown", "prism", "cartesian_product", "disjoint_union", "disjoint_copies",
    "graph_from_mask", "iter_labeled_graphs", "random_graph",
    "parse_graph6", "emit_graph6", "parse_edgelist", "emit_edgelist",
    "DegreeStats", "degree_stats", "StructureInfo", "structure",
    # spectra
    "BACKEND", "symmetric_eigenvalues", "EigenSolveReport", "Spectrum", "GraphFacts",
    "adjacency_matrix", "laplacian_matrix", "signless_laplacian_matrix",
    "a_spectrum", "l_spectrum", "q_spectrum", "zero_multiplicity",
    "LemmaCheck", "check_spectral_lemmas",
    "ProductSpectrumCheck", "product_spectrum_check",
    # energies
    "GammaSequence", "gamma_sequence", "EnergyReport", "energies",
    # bounds
    "BOUND_IDS", "BoundResult", "EqualityDiagnosis",
    "evaluate_bound", "all_bounds", "gan5_two_case_value",
    # family recognition and closed forms
    "QPatternResult", "classify_q_pattern", "SrgResult", "detect_srg",
    "prism_gamma_min", "PrismBounds", "prism_bounds",
    "CubicBounds", "cubic_bounds",
    # reports
    "TableRow", "TableReport", "reproduce_table1", "reproduce_table2",
    "analyze_report", "VerifySummary", "verify_exhaustive", "verify_report",
    "table_report_dict", "render_json",
]
