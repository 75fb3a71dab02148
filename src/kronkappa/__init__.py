"""Vertex connectivity of direct (Kronecker) products of graphs.

The core fact: for a connected graph G and n >= 3,
kappa(G x K_n) = min(n * kappa(G), (n - 1) * delta(G)), where x is the direct
product. The package computes both sides of that equation, produces explicit
minimum separators for each branch, and ships a verification harness that
checks the equality and its supporting facts against flow-based and
brute-force connectivity oracles over exhaustive and randomised graph
families.
"""

from .checks import (
    check_complete_product,
    check_layer_in_component,
    check_quotient_connected,
    rerun_check,
)
from .connectivity import (
    BRUTE_FORCE_BUDGET,
    CutWitness,
    brute_force_kappa,
    is_separator,
    kappa,
    min_vertex_cut,
)
from .formula import (
    FormulaInapplicable,
    FormulaResult,
    QuotientGraph,
    build_quotient,
    formula_kappa_product,
    kappa_product_fast,
    sample_separator,
    witness_cut,
)
from .generators import (
    all_labeled_graphs,
    labeled_graphs,
    random_bipartite_graph,
    random_connected_graph,
    random_graph,
)
from .graphio import (
    Graph6Error,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .graphs import (
    VERTEX_CAP,
    Graph,
    OddCycleStatus,
    connected_components,
    delete_vertex,
    min_degree,
    odd_cycle_status,
)
from .products import (
    ProductGraph,
    complete_graph,
    direct_product,
)
from .reports import VerificationReport, reports_to_json_lines
from .sweep import (
    SweepConfig,
    instance_checks,
    instance_seed,
    lemma_checks,
    run_sweep,
    theorem_checks,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_BUDGET",
    "CutWitness",
    "FormulaInapplicable",
    "FormulaResult",
    "Graph",
    "Graph6Error",
    "OddCycleStatus",
    "ProductGraph",
    "QuotientGraph",
    "SweepConfig",
    "VERTEX_CAP",
    "VerificationReport",
    "all_labeled_graphs",
    "brute_force_kappa",
    "build_quotient",
    "check_complete_product",
    "check_layer_in_component",
    "check_quotient_connected",
    "complete_graph",
    "connected_components",
    "delete_vertex",
    "direct_product",
    "formula_kappa_product",
    "instance_checks",
    "instance_seed",
    "is_separator",
    "kappa",
    "kappa_product_fast",
    "labeled_graphs",
    "lemma_checks",
    "min_degree",
    "min_vertex_cut",
    "odd_cycle_status",
    "parse_edge_list",
    "parse_graph6",
    "random_bipartite_graph",
    "random_connected_graph",
    "random_graph",
    "reports_to_json_lines",
    "rerun_check",
    "run_sweep",
    "sample_separator",
    "theorem_checks",
    "witness_cut",
    "write_edge_list",
    "write_graph6",
]
