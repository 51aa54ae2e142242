"""Good-copy pattern detection against an exhaustive permutation oracle."""

from __future__ import annotations

import random
import zlib
from itertools import combinations, permutations

import pytest

from sqgraphs import constructions as C
from sqgraphs.multigraph import Multigraph, Params
from sqgraphs.patterns import (
    CompleteMultipartite,
    Cycle5,
    Path4,
    TriplesMinusEdge,
    find_good_copy,
)


def pattern_edge_set(pattern) -> tuple[int, set[frozenset[int]]]:
    """(order, edges) of the pattern on vertices 0..order-1."""
    if isinstance(pattern, CompleteMultipartite):
        bounds = []
        start = 0
        for t in pattern.sizes:
            bounds.append(range(start, start + t))
            start += t
        edges = {
            frozenset((u, v))
            for p1, p2 in combinations(bounds, 2)
            for u in p1
            for v in p2
        }
        return start, edges
    if isinstance(pattern, Cycle5):
        return 5, {frozenset((i, (i + 1) % 5)) for i in range(5)}
    if isinstance(pattern, Path4):
        return 4, {frozenset((i, i + 1)) for i in range(3)}
    if isinstance(pattern, TriplesMinusEdge):
        order, edges = pattern_edge_set(CompleteMultipartite((3,) * pattern.r))
        edges.discard(frozenset((0, 3)))
        return order, edges
    raise AssertionError(pattern)


def brute_has_good_copy(G: Multigraph, a: int, pattern) -> bool:
    """Exhaustive scan over vertex subsets and permutations."""
    order, target = pattern_edge_set(pattern)
    for xs in combinations(range(G.n), order):
        if any(G.weight(u, v) < a for u, v in combinations(xs, 2)):
            continue
        level = {
            frozenset((u, v))
            for u, v in combinations(xs, 2)
            if G.weight(u, v) == a + 1
        }
        if len(level) != len(target):
            continue
        for perm in permutations(range(order)):
            mapped = {frozenset((xs[perm[i]], xs[perm[j]])) for e in target for i, j in [tuple(e)]}
            if mapped == level:
                return True
    return False


class TestMultipartite:
    def test_found_in_zero_deficiency_member(self):
        for r, t in ((2, 2), (3, 2), (2, 3)):
            params = Params(2, r, 0)
            G = C.turan_multigraph(params, (t,) * r)
            parts = find_good_copy(G, 2, CompleteMultipartite((t,) * r))
            assert parts is not None
            flat = [v for p in parts for v in p]
            assert sorted(flat) == list(range(r * t))
            # cross pairs sit exactly one above the base weight
            for p1, p2 in combinations(parts, 2):
                assert all(G.weight(u, v) == 3 for u in p1 for v in p2)

    def test_absent_without_high_level(self):
        G = Multigraph.constant(5, 2)
        assert find_good_copy(G, 2, CompleteMultipartite((1, 1))) is None

    def test_single_edge_pattern(self):
        G = Multigraph.constant(5, 2).with_weight(1, 3, 3)
        assert find_good_copy(G, 2, CompleteMultipartite((1, 1))) == ((1,), (3,))

    def test_low_weight_blocks_copy(self):
        G = Multigraph.constant(4, 2).with_weight(0, 1, 3).with_weight(2, 3, 1)
        assert find_good_copy(G, 2, CompleteMultipartite((1, 1)), within=[0, 1]) == (
            (0,),
            (1,),
        )
        assert find_good_copy(G, 2, CompleteMultipartite((2, 2))) is None

    def test_unequal_parts_found_either_way(self):
        params = Params(2, 2, 0)
        G = C.turan_multigraph(params, (3, 2))
        assert find_good_copy(G, 2, CompleteMultipartite((2, 3))) == ((3, 4), (0, 1, 2))

    def test_within_restriction(self):
        params = Params(2, 2, 0)
        G = C.turan_multigraph(params, (2, 3))
        assert find_good_copy(G, 2, CompleteMultipartite((2, 2))) is not None
        assert (
            find_good_copy(G, 2, CompleteMultipartite((2, 2)), within=[0, 1, 2])
            is None
        )

    def test_first_realization_is_returned(self):
        G = Multigraph.constant(6, 2)
        for u, v in ((0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (2, 5)):
            G = G.with_weight(u, v, 3)
        parts = find_good_copy(G, 2, CompleteMultipartite((2, 2)))
        assert parts == ((0, 1), (3, 4))


class TestCycleAndPath:
    def build_level_graph(self, n: int, a: int, edges) -> Multigraph:
        G = Multigraph.constant(n, a)
        for u, v in edges:
            G = G.with_weight(u, v, a + 1)
        return G

    def test_cycle_found_and_ordered(self):
        G = self.build_level_graph(6, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        order = find_good_copy(G, 2, Cycle5())
        assert order == (0, 1, 2, 3, 4)

    def test_chord_destroys_cycle(self):
        G = self.build_level_graph(
            5, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]
        )
        assert find_good_copy(G, 2, Cycle5()) is None

    def test_path_found_and_ordered(self):
        G = self.build_level_graph(6, 3, [(2, 5), (5, 1), (1, 4)])
        assert find_good_copy(G, 3, Path4()) == (1, 5, 2, 4) or find_good_copy(
            G, 3, Path4()
        ) == (2, 5, 1, 4)

    def test_complete_bipartite_has_no_induced_path(self):
        # the high-level graph of a two-part member is complete bipartite,
        # whose induced 4-vertex subgraphs are stars and 4-cycles only
        G = C.turan_multigraph(Params(2, 2, 0), (2, 3))
        assert G.level_edges(3) != frozenset()
        assert find_good_copy(G, 2, Path4()) is None

    def test_star_is_not_a_path(self):
        G = self.build_level_graph(4, 2, [(0, 1), (0, 2), (0, 3)])
        assert find_good_copy(G, 2, Path4()) is None

    def test_low_pair_blocks_the_copy(self):
        G = self.build_level_graph(4, 2, [(0, 1), (1, 2), (2, 3)])
        assert find_good_copy(G, 2, Path4()) == (0, 1, 2, 3)
        assert find_good_copy(G.with_weight(0, 2, 1), 2, Path4()) is None


class TestTriplesMinusEdge:
    def make_member(self, r: int, missing=(0, 3)) -> Multigraph:
        G = C.turan_multigraph(Params(2, r, 0), (3,) * r)
        return G.with_weight(*missing, 2)

    def test_found_with_missing_pair(self):
        hit = find_good_copy(self.make_member(2), 2, TriplesMinusEdge(2))
        assert hit is not None
        parts, missing = hit
        assert missing == (0, 3)
        assert {frozenset(p) for p in parts} == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_full_multipartite_is_not_a_copy(self):
        G = C.turan_multigraph(Params(2, 2, 0), (3, 3))
        assert find_good_copy(G, 2, TriplesMinusEdge(2)) is None

    def test_two_missing_pairs_rejected(self):
        G = self.make_member(2).with_weight(1, 4, 2)
        assert find_good_copy(G, 2, TriplesMinusEdge(2)) is None

    def test_three_parts(self):
        hit = find_good_copy(self.make_member(3, missing=(4, 8)), 2, TriplesMinusEdge(3))
        assert hit is not None
        parts, missing = hit
        assert missing == (4, 8)

    def test_needs_two_parts(self):
        with pytest.raises(ValueError):
            TriplesMinusEdge(1)


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "pattern",
        [
            CompleteMultipartite((1, 1)),
            CompleteMultipartite((2, 2)),
            CompleteMultipartite((1, 2)),
            CompleteMultipartite((1, 1, 1)),
            Path4(),
            Cycle5(),
            TriplesMinusEdge(2),
        ],
    )
    def test_existence_agrees_with_brute_force(self, pattern):
        rng = random.Random(zlib.crc32(repr(pattern).encode()))
        a = 2
        order, target = pattern_edge_set(pattern)
        hits = 0
        trials = 60
        for t in range(trials):
            n = rng.randint(max(4, order), max(7, order + 1))
            if t % 3 == 0:
                # plant the pattern on a random subset, then add noise
                spots = list(range(n))
                rng.shuffle(spots)
                G = Multigraph.constant(n, a)
                for e in target:
                    u, v = tuple(e)
                    G = G.with_weight(spots[u], spots[v], a + 1)
                for _ in range(rng.randint(0, 2)):
                    i, j = rng.sample(range(n), 2)
                    G = G.with_weight(i, j, rng.choice([a - 1, a + 1, a + 2]))
            else:
                weights = [
                    rng.choice([a, a, a, a + 1, a + 1, a - 1, a + 2])
                    for _ in range(n * (n - 1) // 2)
                ]
                G = Multigraph(n, weights)
            found = find_good_copy(G, a, pattern) is not None
            assert found == brute_has_good_copy(G, a, pattern)
            hits += found
        # the sample must exercise both outcomes to mean anything
        assert 0 < hits < trials
