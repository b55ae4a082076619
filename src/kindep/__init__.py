"""Toolkit for k-independent sets: exact-rational bounds, certified
constructive algorithms, extremal-family generators and a small exact
solver.

The names below load their module on first use (PEP 562), so importing
the package costs little and each CLI subcommand loads only what it runs.
"""

import importlib

# module -> the public names it defines.
_NAMES = {
    "graph": "CertificateError Graph GraphError WitnessSet build copies disjoint_union"
    " girth verify_k_independent",
    "generators": "FamilySpec blend complete complete_minus_clique complete_minus_cycle"
    " j_graph make_graph parse_family random_gnm star thm10_odd thm12_2 thm14_5"
    " thm14_6 wagner_r8",
    "bounds": "BoundReport BoundRow bound_report caro_tuza_sum corollary_avg"
    " corollary_halfbound f1_exact f_lower f_upper_catalog frac_str hopkins_staton"
    " main_bound potential_f residue_t table_f2 theorem6_check"
    " thm_first_approach_bound witness_ratio",
    "algorithms": "Partition RunTrace algorithm1 algorithm2 caro_tuza_greedy"
    " lovasz_largest_class lovasz_partition",
    "oracle": "OracleLimitError alpha_k_exact chi_k_exact",
}
# exported name -> the module that defines it; a submodule maps to itself.
_HOME = {name: module for module, names in _NAMES.items() for name in [module, *names.split()]}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    return module if name == _HOME[name] else getattr(module, name)
