"""Weighted Turan-type constructions and their exact part-size optimization.

A construction member for parameters (a, r, d) partitions the vertices
into r ordered parts: pairs inside part 0 (the "light" part) get weight
a-d, pairs inside any other part get weight a, and pairs crossing two
parts get weight a+1.  This module builds members, optimizes the part
sizes exactly for edge sum and edge product, and assembles the iterated
variants where the light part is recursively replaced by a member for
reduced parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .multigraph import Multigraph, Params


@dataclass(frozen=True)
class OptResult:
    """Exact optimum over part sizes with the full argmax set.

    argmax is the lexicographically least optimal composition; every
    composition is canonical (parts 1..r-1 sorted nonincreasing, part 0
    kept distinguished).
    """

    value: int
    argmax: tuple[int, ...]
    all_argmax: tuple[tuple[int, ...], ...]


def check_sizes(params: Params, sizes: Sequence[int]) -> tuple[int, ...]:
    sz = tuple(sizes)
    if len(sz) != params.r:
        raise ValueError(f"expected {params.r} part sizes, got {len(sz)}")
    if any((not isinstance(v, int)) or v < 0 for v in sz):
        raise ValueError(f"part sizes must be nonnegative integers: {sz}")
    return sz


def _pair_counts(params: Params, sizes: Sequence[int]) -> tuple[int, int, int]:
    """(light pairs, middle pairs, cross pairs) for the given composition."""
    sz = check_sizes(params, sizes)
    n = sum(sz)
    light = math.comb(sz[0], 2)
    middle = sum(math.comb(v, 2) for v in sz[1:])
    cross = math.comb(n, 2) - light - middle
    return light, middle, cross


def construction_sum(params: Params, sizes: Sequence[int]) -> int:
    light, middle, cross = _pair_counts(params, sizes)
    a, d = params.a, params.d
    return (a - d) * light + a * middle + (a + 1) * cross


def construction_product(params: Params, sizes: Sequence[int]) -> int:
    # a zero light-part weight annihilates the product as soon as light > 0
    light, middle, cross = _pair_counts(params, sizes)
    a, d = params.a, params.d
    return (a - d) ** light * a ** middle * (a + 1) ** cross


def turan_multigraph(params: Params, sizes: Sequence[int]) -> Multigraph:
    """Build the construction member with the given part sizes.

    Vertices are labeled block by block: part 0 first, then parts 1..r-1.
    """
    sz = check_sizes(params, sizes)
    n = sum(sz)
    if n < 1:
        raise ValueError("construction needs at least one vertex")
    a, d = params.a, params.d
    part = [p for p, v in enumerate(sz) for _ in range(v)]
    inside = [a - d] + [a] * (params.r - 1)
    # colex order: j outer, i < j inner
    weights = [inside[pi] if pi == pj else a + 1 for j, pj in enumerate(part) for pi in part[:j]]
    return Multigraph(n, weights)


def _optimize(params: Params, n: int, value: Callable[..., int]) -> OptResult:
    """Exact maximum of value(params, sizes) over canonical compositions of n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    # No tail that is not balanced can be optimal.  Take tail parts of sizes
    # x and y <= x-2 and move one vertex from the first to the second: that
    # turns x-1-y >= 1 weight-a pairs into weight-(a+1) pairs and changes no
    # other pair.  Every weight is >= 1 (a-d >= 1), so both the edge sum and
    # the edge product strictly increase.  In canonical (nonincreasing) order
    # the balanced tail is unique, so scanning the light-part size v0 = 0..n
    # over balanced tails finds the whole argmax set in n+1 exact
    # evaluations, already in lexicographic order.
    tail = params.r - 1
    if tail == 0:
        candidates = [(n,)]
    else:
        candidates = []
        for v0 in range(n + 1):
            base, extra = divmod(n - v0, tail)
            candidates.append((v0,) + (base + 1,) * extra + (base,) * (tail - extra))
    values = [value(params, comp) for comp in candidates]
    best = max(values)
    arg = tuple(comp for comp, val in zip(candidates, values) if val == best)
    return OptResult(best, arg[0], arg)


def max_edge_sum(params: Params, n: int) -> OptResult:
    """Exact maximum edge sum over all compositions, with the argmax set."""
    return _optimize(params, n, construction_sum)


def max_edge_product(params: Params, n: int) -> OptResult:
    """Exact maximum edge product over all compositions, with the argmax set."""
    return _optimize(params, n, construction_product)


def optimum_to_dict(params: Params, n: int, opt: OptResult) -> dict:
    """JSON-able export of an optimization result (values as decimal strings)."""
    return {
        "n": n,
        "params": {"a": params.a, "r": params.r, "d": params.d},
        "value": str(opt.value),
        "argmax": list(opt.argmax),
        "all_argmax": [list(c) for c in opt.all_argmax],
    }


@dataclass(frozen=True)
class IteratedSpec:
    """Nested construction: each level replaces the previous light part.

    levels is a sequence of (r, d) pairs; level k runs at base value
    a - (d_1 + ... + d_{k-1}).  Each level must be valid on its own
    (in particular every weight it places stays >= 1).  The light part of
    the last level remains a constant-weight clique of terminal_weight.
    """

    a: int
    levels: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("need at least one level")
        self.level_params()  # Params validation raises on a bad level

    def level_params(self) -> list[Params]:
        out = []
        a = self.a
        for r, d in self.levels:
            out.append(Params(a, r, d))
            a -= d
        return out

    @property
    def terminal_weight(self) -> int:
        return self.a - sum(d for _, d in self.levels)


def iterated_multigraph(spec: IteratedSpec, sizes_by_level: Sequence[Sequence[int]]) -> Multigraph:
    """Build the nested construction with explicit sizes at every level.

    Level 0 sizes must sum to the total vertex count; the sizes of each
    deeper level must sum to the light-part size of the level above.  A
    single level reproduces turan_multigraph exactly.
    """
    level_params = spec.level_params()
    if len(sizes_by_level) != len(level_params):
        raise ValueError(
            f"expected sizes for {len(level_params)} levels, got {len(sizes_by_level)}"
        )
    all_sizes = [check_sizes(p, s) for p, s in zip(level_params, sizes_by_level)]
    for k in range(1, len(all_sizes)):
        if sum(all_sizes[k]) != all_sizes[k - 1][0]:
            raise ValueError(
                f"level {k} sizes sum to {sum(all_sizes[k])}, expected the "
                f"light-part size {all_sizes[k - 1][0]} of level {k - 1}"
            )
    n = sum(all_sizes[0])
    if n < 1:
        raise ValueError("construction needs at least one vertex")
    base = turan_multigraph(level_params[0], all_sizes[0])
    weights = list(base.weights())
    for k in range(1, len(all_sizes)):
        block = sum(all_sizes[k])  # light part of the level above = vertices 0..block-1
        if block < 2:  # no pair here, nor at any deeper level
            break
        inner = turan_multigraph(level_params[k], all_sizes[k]).weights()
        weights[: len(inner)] = inner  # the pairs inside 0..block-1 are a colex prefix
    return Multigraph(n, weights)
