"""Exact tools for sum- and product-extremal locally sparse multigraphs.

A multigraph is an (s,q)-graph when every s vertices support at most q
edges counted with multiplicity.  The package builds the part-weighted
extremal constructions, evaluates every closed-form quantity attached to
them, computes the exact extremal sums/products and family counts at
small n by pruned search, and machine-checks the finite identities and
conjecture instances around them.
"""

from .constructions import (
    IteratedSpec,
    OptResult,
    iterated_multigraph,
    max_edge_product,
    max_edge_sum,
    turan_multigraph,
)
from .families import (
    clone_saturate,
    in_graded_family,
    in_saturated_family,
    raise_min_weights,
)
from .multigraph import Multigraph, Params, pair_rank
from .search import (
    BudgetExceededError,
    SearchOutcome,
    brute_force,
    count_graphs,
    max_product_search,
    max_sum_search,
)

__all__ = [
    "BudgetExceededError",
    "IteratedSpec",
    "Multigraph",
    "OptResult",
    "Params",
    "SearchOutcome",
    "brute_force",
    "clone_saturate",
    "count_graphs",
    "in_graded_family",
    "in_saturated_family",
    "iterated_multigraph",
    "max_edge_product",
    "max_edge_sum",
    "max_product_search",
    "max_sum_search",
    "pair_rank",
    "raise_min_weights",
    "turan_multigraph",
]

__version__ = "0.1.0"
