"""Nested near-extremal families and product-raising transformations.

The graded family of params contains the multigraphs that satisfy the
(s', q_{s'}) sparsity bound for every grade s' from 2 up to the base
grade s_base, where q_{s'} is the construction optimum at s' vertices.
The saturated subfamily additionally requires every weight to be at
least a-d and every pair at exactly a-d to be a clone pair.  Two
transformations move a graded member toward the saturated subfamily
without ever decreasing the total edge product: raising all low weights
to a-d, and copying the row of the stronger endpoint across each
offending minimum-weight pair.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .constructions import max_edge_sum
from .multigraph import Multigraph, Params


@lru_cache(maxsize=None)
def _grade_bounds(params: Params, s: int) -> tuple[tuple[int, int], ...]:
    return tuple((sp, max_edge_sum(params, sp).value) for sp in range(2, s + 1))


def grade_bounds(params: Params, s: int) -> dict[int, int]:
    """Construction optimum for every grade s' in 2..s (the family bounds).

    Built once per (params, s); each call gets its own dict.
    """
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    return dict(_grade_bounds(params, s))


@lru_cache(maxsize=256)
def in_graded_family(G: Multigraph, params: Params) -> bool:
    """True iff G meets the (s', bound(s'))-property for every grade s' <= s_base.

    Grades above the vertex count hold vacuously.  The last 256 answers are kept.
    """
    for sp, bound in _grade_bounds(params, params.s_base):
        if sp <= G.n and not G.satisfies(sp, bound):
            return False
    return True


def _offending_pairs(G: Multigraph, floor: int) -> Iterator[tuple[int, int]]:
    """The pairs at weight exactly ``floor`` (= a-d) between non-clones, lazily."""
    return ((i, j) for i, j, w in G.pairs() if w == floor and not G.are_clones(i, j))


def in_saturated_family(G: Multigraph, params: Params) -> bool:
    """Graded membership plus: min weight >= a-d, and a-d pairs are clones."""
    if not in_graded_family(G, params):
        return False
    floor = params.a - params.d
    if G.min_weight() < floor:
        return False
    return next(_offending_pairs(G, floor), None) is None


def raise_min_weights(G: Multigraph, params: Params) -> Multigraph:
    """Lift every weight below a-d up to a-d.

    Requires G in the graded family (checked); the result stays in the
    family and its edge product can only grow.  Raising the edges one at
    a time or all at once gives the same graph, so this clamps in one
    pass.
    """
    if not in_graded_family(G, params):
        raise ValueError("raise_min_weights requires a graded-family member")
    floor = params.a - params.d
    return Multigraph(G.n, [max(w, floor) for w in G.weights()])


def clone_saturate(G: Multigraph, params: Params) -> Multigraph:
    """Clone endpoints across minimum-weight pairs until saturated.

    Requires a graded-family member with min weight >= a-d (checked).
    An offending pair carries weight exactly a-d between non-clones.
    Each sweep picks the offender endpoint with the largest
    product-degree (ties to the higher label) and copies its row onto
    every one of its offending partners.  Copying the stronger row never
    decreases the edge product, and a completed sweep leaves a block no
    offending pair can touch again, so at most C(n,2) copies happen in
    total.

    Processing offenders one pair at a time instead - re-picking the
    stronger endpoint after every single copy - can oscillate forever
    between two sources with equal product-degree, which is why the
    sweep is anchored to one source row.
    """
    floor = params.a - params.d
    if G.min_weight() < floor or not in_graded_family(G, params):
        raise ValueError(
            "clone_saturate requires a graded-family member with min weight >= a-d"
        )

    current = G
    copies = 0
    max_copies = G.n * (G.n - 1) // 2
    while True:
        offending = list(_offending_pairs(current, floor))
        if not offending:
            return current
        endpoints = sorted({v for pair in offending for v in pair})
        source = max(endpoints, key=lambda v: (current.product_degree(v), v))
        partners = sorted(
            {u if v == source else v for u, v in offending if source in (u, v)}
        )
        for target in partners:
            current = current.copied_row(source, target)
            copies += 1
            if copies > max_copies:
                raise RuntimeError("cloning exceeded its provable step bound")
