"""Edge-weighted multigraphs with local sparsity checks.

A multigraph here is a complete graph on vertices 0..n-1 where every
unordered pair carries a nonnegative integer multiplicity (possibly 0).
A multigraph is an (s,q)-graph when every s-set of vertices supports at
most q edges counted with multiplicity.  This module provides the graph
type, exact sum/product queries, the sparsity check, clone tests and the
shared JSON serialization format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator


def pair_rank(i: int, j: int) -> int:
    """Colex rank of the unordered pair {i, j}: pairs inside {0..m} form a prefix."""
    if i == j:
        raise ValueError(f"not a pair: ({i}, {j})")
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


@lru_cache(maxsize=None)
def _s_sets(n: int, s: int) -> tuple[tuple[tuple[int, ...], itemgetter], ...]:
    """Every s-set of 0..n-1 in `combinations` order, with a getter for the
    weights of its pairs.  Built from `combinations` and `pair_rank` only,
    so the sparsity check shares no code with the search it verifies.
    """
    if not 2 <= s <= n:
        raise ValueError(f"need 2 <= s <= n, got s={s}, n={n}")
    table = []
    for xs in combinations(range(n), s):
        ranks = [pair_rank(u, v) for u, v in combinations(xs, 2)]
        # itemgetter of one index returns the weight itself; a slice keeps a tuple
        table.append((xs, itemgetter(*ranks) if s > 2 else itemgetter(slice(ranks[0], ranks[0] + 1))))
    return tuple(table)


@dataclass(frozen=True)
class Params:
    """Construction parameters: base multiplicity a, part count r, deficiency d.

    The derived grade s_base = (r-1)(d+1)+2 is the smallest subset size at
    which the sum-extremal behaviour of the family with these parameters
    separates from neighbouring parameter choices.
    """

    a: int
    r: int
    d: int

    def __post_init__(self) -> None:
        if self.a < 1:
            raise ValueError(f"a must be >= 1, got {self.a}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if not 0 <= self.d <= self.a - 1:
            raise ValueError(f"d must satisfy 0 <= d <= a-1, got d={self.d}, a={self.a}")

    @property
    def s_base(self) -> int:
        return (self.r - 1) * (self.d + 1) + 2


class Multigraph:
    """Immutable multigraph on vertices 0..n-1 with integer pair weights.

    Weights are stored densely in colex pair order; n stays small in all
    intended uses (exact search tops out well below n = 64), so the dense
    representation wins over anything sparse.
    """

    __slots__ = ("n", "_w")

    def __init__(self, n: int, weights: Iterable[int]):
        if type(n) is not int or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        w = tuple(weights)
        expected = n * (n - 1) // 2
        if len(w) != expected:
            raise ValueError(f"expected {expected} weights for n={n}, got {len(w)}")
        for x in w:
            if type(x) is not int or x < 0:
                raise ValueError(f"weights must be nonnegative integers, got {x!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_w", w)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Multigraph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Multigraph) and self.n == other.n and self._w == other._w

    def __hash__(self) -> int:
        return hash((self.n, self._w))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, weights={self._w})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, n: int, w: int) -> "Multigraph":
        return cls(n, [w] * (n * (n - 1) // 2))

    # -- basic access ------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if type(v) is not int or not 0 <= v < self.n:
            raise ValueError(f"vertex {v!r} out of range 0..{self.n - 1}")

    def weight(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        return self._w[pair_rank(u, v)]

    def weights(self) -> tuple[int, ...]:
        """The full weight vector in colex pair order."""
        return self._w

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """Yield (i, j, weight) for every pair, i < j, in lexicographic order."""
        for i in range(self.n):
            for j in range(i + 1, self.n):
                yield i, j, self._w[pair_rank(i, j)]

    def min_weight(self) -> int:
        return min(self._w, default=0)

    def _vertex_set(self, X: Iterable[int] | None) -> tuple[int, ...]:
        if X is None:
            return tuple(range(self.n))
        xs = sorted(set(X))
        for v in xs:
            self._check_vertex(v)
        return tuple(xs)

    # -- sums and products ------------------------------------------------

    def edge_sum(self, X: Iterable[int] | None = None) -> int:
        """Sum of weights over pairs inside X (whole graph when X is None)."""
        xs = self._vertex_set(X)
        w = self._w
        return sum(w[pair_rank(u, v)] for u, v in combinations(xs, 2))

    def edge_product(self, X: Iterable[int] | None = None) -> int:
        """Product of weights over pairs inside X; 1 when |X| <= 1.  Exact."""
        xs = self._vertex_set(X)
        w = self._w
        out = 1
        for u, v in combinations(xs, 2):
            out *= w[pair_rank(u, v)]
            if out == 0:
                return 0
        return out

    def product_degree(self, v: int) -> int:
        self._check_vertex(v)
        out = 1
        for u in range(self.n):
            if u != v:
                out *= self._w[pair_rank(u, v)]
        return out

    # -- local sparsity -------------------------------------------------------

    def find_violation(self, s: int, q: int) -> tuple[int, ...] | None:
        """Return the first s-set, in lexicographic order, whose edge sum
        exceeds q, or None if every s-set sums to at most q.  The scan is
        exhaustive, with no pruning: it sums the s-sets of `_s_sets(n, s)`.
        """
        if q < 0:
            raise ValueError("q must be >= 0")
        w = self._w
        for xs, inside in _s_sets(self.n, s):
            if sum(inside(w)) > q:
                return xs
        return None

    def satisfies(self, s: int, q: int) -> bool:
        """True iff every s-set of vertices supports at most q edges."""
        return self.find_violation(s, q) is None

    def max_subset_sum(self, s: int) -> tuple[int, tuple[int, ...]]:
        """Maximum edge sum over all s-sets, with the first maximizing set."""
        xs, inside = max(_s_sets(self.n, s), key=lambda entry: sum(entry[1](self._w)))
        return sum(inside(self._w)), xs

    # -- clones and row edits -------------------------------------------------

    def are_clones(self, u: int, v: int) -> bool:
        """True iff u and v have identical weights to every third vertex."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("clone test needs two distinct vertices")
        w = self._w
        return all(
            w[pair_rank(u, z)] == w[pair_rank(v, z)]
            for z in range(self.n)
            if z != u and z != v
        )

    def copied_row(self, source: int, target: int) -> "Multigraph":
        """New graph where target's weights to third vertices are copied from source.

        The weight of the pair {source, target} itself is left unchanged.
        """
        self._check_vertex(source)
        self._check_vertex(target)
        if source == target:
            raise ValueError("source and target must differ")
        new = list(self._w)
        for z in range(self.n):
            if z != source and z != target:
                new[pair_rank(target, z)] = self._w[pair_rank(source, z)]
        return Multigraph(self.n, new)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [[i, j, w] for i, j, w in self.pairs()]}

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "Multigraph":
        if not isinstance(data, dict) or "n" not in data or "edges" not in data:
            raise ValueError("multigraph document needs fields 'n' and 'edges'")
        n = data["n"]
        if type(n) is not int or n < 1:
            raise ValueError(f"invalid vertex count {n!r}")
        expected = n * (n - 1) // 2
        weights: list[int | None] = [None] * expected
        edges = data["edges"]
        if not isinstance(edges, list) or len(edges) != expected:
            raise ValueError(f"expected exactly {expected} edge entries, got {len(edges) if isinstance(edges, list) else type(edges)}")
        for entry in edges:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
                raise ValueError(f"bad edge entry {entry!r}")
            i, j, w = entry
            if not (type(i) is int and type(j) is int and 0 <= i < j < n):
                raise ValueError(f"bad pair ({i!r}, {j!r}) for n={n}")
            r = pair_rank(i, j)
            if weights[r] is not None:
                raise ValueError(f"pair ({i}, {j}) listed twice")
            weights[r] = w
        return cls(n, weights)  # type: ignore[arg-type]

    @classmethod
    def loads(cls, text: str) -> "Multigraph":
        return cls.from_dict(json.loads(text))

