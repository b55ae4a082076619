"""Toolkit for k-independent sets: exact-rational bounds, certified
constructive algorithms, extremal-family generators and a small exact
solver."""

from .algorithms import (
    Partition,
    RunTrace,
    algorithm1,
    algorithm2,
    caro_tuza_greedy,
    lovasz_equal,
    lovasz_largest_class,
    lovasz_partition,
)
from .bounds import (
    BoundReport,
    BoundRow,
    bound_report,
    caro_tuza_sum,
    corollary_avg,
    corollary_halfbound,
    f1_exact,
    f_lower,
    f_upper_catalog,
    frac_str,
    hopkins_staton,
    main_bound,
    potential_f,
    residue_t,
    table_f2,
    theorem6_check,
    thm_first_approach_bound,
    witness_ratio,
)
from .graph import (
    CertificateError,
    Graph,
    GraphError,
    build,
    complement,
    copies,
    disjoint_union,
    girth,
    induced_subgraph,
    remove_edges_of,
    verify_k_independent,
)
from .generators import (
    FamilySpec,
    blend,
    complete,
    complete_minus_clique,
    complete_minus_cycle,
    j_graph,
    make_graph,
    parse_family,
    random_gnm,
    star,
    thm10_odd,
    thm12_2,
    thm14_5,
    thm14_6,
    wagner_r8,
)
from .oracle import (
    OracleLimitError,
    WitnessSet,
    alpha_k_bruteforce,
    alpha_k_exact,
    chi_k_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
