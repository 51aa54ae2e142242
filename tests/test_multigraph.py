"""Core multigraph operations against hand-computed and brute-force values."""

from __future__ import annotations

import json
import math
import random
from itertools import combinations

import pytest

from sqgraphs import constructions as C
from sqgraphs import multigraph as M
from sqgraphs import search as S
from sqgraphs.multigraph import Multigraph, Params, pair_rank


def layered_graph(inner0: int, inner: int, cross: int, sizes: tuple[int, ...]) -> Multigraph:
    """Hand-rolled part-weighted graph, independent of the constructions module."""
    part_of = []
    for idx, v in enumerate(sizes):
        part_of.extend([idx] * v)
    n = len(part_of)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if part_of[i] != part_of[j]:
                edges.append([i, j, cross])
            elif part_of[i] == 0:
                edges.append([i, j, inner0])
            else:
                edges.append([i, j, inner])
    return Multigraph.from_dict({"n": n, "edges": edges})


def random_graph(n: int, wmax: int, rng: random.Random) -> Multigraph:
    return Multigraph(n, [rng.randint(0, wmax) for _ in range(n * (n - 1) // 2)])


class TestSumsAndProducts:
    def test_constant_graph_sum(self):
        G = Multigraph.constant(4, 2)
        assert G.edge_sum() == 12  # 2 * C(4,2)

    def test_singleton_sum_is_zero(self):
        G = Multigraph.constant(5, 3)
        assert G.edge_sum([2]) == 0
        assert G.edge_sum([]) == 0

    def test_layered_sum_matches_hand_expansion(self):
        # one light vertex against a weight-2 triangle, cross weight 3
        G = layered_graph(1, 2, 3, (1, 3))
        assert G.edge_sum() == 3 * 3 + 2 * 3 == 15

    def test_constant_graph_product(self):
        G = Multigraph.constant(4, 2)
        assert G.edge_product() == 64

    def test_zero_weight_annihilates(self):
        G = Multigraph(4, [2, 2, 0, 2, 2, 2])  # pair {1, 2} has colex rank 2
        assert G.edge_product() == 0
        assert G.edge_product([0, 3]) == 2

    def test_layered_product_matches_hand_expansion(self):
        G = layered_graph(1, 2, 3, (2, 3))
        assert G.edge_product() == 1 * 2 ** 3 * 3 ** 6 == 5832

    def test_product_extension_identity(self):
        rng = random.Random(4)
        for _ in range(30):
            G = random_graph(6, 4, rng)
            X = [0, 2, 4]
            cross = math.prod(G.weight(x, 5) for x in X)
            assert G.edge_product(X + [5]) == G.edge_product(X) * cross

    def test_vertex_out_of_range(self):
        G = Multigraph.constant(4, 1)
        with pytest.raises(ValueError):
            G.edge_sum([0, 4])


class TestCrossAndDegrees:
    def test_degrees_constant(self):
        G = Multigraph.constant(5, 3)
        assert G.product_degree(0) == 81

    def test_degrees_single_vertex(self):
        G = Multigraph(1, [])
        assert G.product_degree(0) == 1

    def test_degrees_layered(self):
        G = layered_graph(1, 2, 3, (1, 3))
        assert G.product_degree(0) == 27


class TestSparsity:
    def test_constant_meets_its_own_bound(self):
        G = Multigraph.constant(6, 3)
        assert G.satisfies(4, 3 * 6)
        assert not G.satisfies(4, 3 * 6 - 1)

    def test_layered_bound(self):
        G = layered_graph(1, 2, 3, (2, 3))
        assert G.satisfies(4, 15)
        violation = G.find_violation(4, 14)
        assert violation is not None
        assert G.edge_sum(violation) > 14

    def test_matches_brute_force(self):
        rng = random.Random(11)
        cases = []
        for _ in range(40):
            n = rng.randint(3, 7)
            G = random_graph(n, 5, rng)
            cases += [(G, rng.randint(2, n)), (G, 2), (G, n)]
        # tight graphs, whose heaviest s-sets sit exactly at their own q:
        # construction members and search witnesses on up to 9 vertices
        for a, r, d in ((2, 2, 1), (2, 3, 1), (3, 2, 2), (2, 4, 1)):
            params = Params(a, r, d)
            for n in range(params.s_base, 10):
                for optimize in (C.max_edge_sum, C.max_edge_product):
                    cases.append((C.turan_multigraph(params, optimize(params, n).argmax), params.s_base))
        for search, n, s, q in (
            (S.max_product_search, 6, 4, 15), (S.max_product_search, 7, 6, 41),
            (S.max_product_search, 8, 6, 17), (S.max_product_search, 9, 3, 7),
            (S.max_sum_search, 9, 4, 15), (S.max_sum_search, 9, 6, 41),
        ):
            cases.append((search(n, s, q).witness, s))
        for G, s in cases:
            sets = list(combinations(range(G.n), s))
            best = max(G.edge_sum(xs) for xs in sets)
            assert G.max_subset_sum(s) == (best, next(xs for xs in sets if G.edge_sum(xs) == best))
            for q in (best - 1, best, best + 3):
                if q < 0:
                    continue
                assert G.satisfies(s, q) == (best <= q)
                hit = G.find_violation(s, q)
                if best > q:
                    assert hit is not None and G.edge_sum(hit) > q
                    assert hit == next(xs for xs in sets if G.edge_sum(xs) > q)  # the first in lex order
                else:
                    assert hit is None

    def test_max_subset_sum(self):
        rng = random.Random(13)
        G = random_graph(6, 4, rng)
        best, xs = G.max_subset_sum(3)
        assert best == max(G.edge_sum(c) for c in combinations(range(6), 3))
        assert G.edge_sum(xs) == best

    def test_max_subset_sum_leaves_no_table_cached(self):
        # a one-shot scan; only find_violation's callers reuse s-set tables
        before = M._s_sets.cache_info()
        assert Multigraph.constant(12, 1).max_subset_sum(5)[0] == 10
        assert M._s_sets.cache_info() == before

    def test_bad_grade_rejected(self):
        G = Multigraph.constant(4, 1)
        with pytest.raises(ValueError):
            G.satisfies(1, 5)
        with pytest.raises(ValueError):
            G.satisfies(5, 5)

    def test_table_limit_counts_cells_exactly(self):
        # check_table refuses exactly the tables of over MAX_TABLE_CELLS cells, C(n,s) * C(n,2)
        refused = 0
        for n in range(2, 41):
            for s in range(2, n + 1):
                over = math.comb(n, s) * math.comb(n, 2) > M.MAX_TABLE_CELLS
                if over:
                    with pytest.raises(ValueError, match="table of over"):
                        M.check_table(n, s)
                    refused += 1
                else:
                    M.check_table(n, s)
        assert refused == 482
        # the largest table in use, expi 17 4 15, is admitted
        assert math.comb(17, 4) * math.comb(17, 2) == 323_680
        with pytest.raises(ValueError, match="table of over"):  # C(10**9, 5 * 10**8) is never computed
            M.check_table(10**9, 5 * 10**8)

    def test_oversized_table_refused_before_it_is_built(self, monkeypatch):
        # the 13-sets of 26 vertices are 10,400,600
        def build(*args):
            raise AssertionError("table built")

        monkeypatch.setattr(M, "combinations", build)
        G = Multigraph.constant(26, 1)
        with pytest.raises(ValueError, match="table of over"):
            G.satisfies(13, 100)
        with pytest.raises(ValueError, match="table of over"):
            G.max_subset_sum(13)


class TestClonesAndEdits:
    def test_constant_graph_all_clones(self):
        G = Multigraph.constant(5, 2)
        assert all(G.are_clones(i, j) for i, j in combinations(range(5), 2))

    def test_same_part_vertices_are_clones(self):
        G = layered_graph(1, 2, 3, (2, 3))
        assert G.are_clones(0, 1)
        assert G.are_clones(2, 4)
        assert not G.are_clones(0, 2)

    def test_clone_symmetry(self):
        rng = random.Random(17)
        for _ in range(20):
            G = random_graph(5, 3, rng)
            for i, j in combinations(range(5), 2):
                assert G.are_clones(i, j) == G.are_clones(j, i)

    def test_fast_paths_match_brute_references(self):
        # are_clones, pairs and the whole-graph sum and product read the weight
        # vector directly; each must agree with a pair_rank walk
        rng = random.Random(41)
        for n in range(2, 9):
            for _ in range(5):
                G = random_graph(n, 2, rng)
                w = G.weights()
                for u in range(n):
                    for v in range(n):
                        if u != v:
                            others = [z for z in range(n) if z not in (u, v)]
                            brute = all(w[pair_rank(u, z)] == w[pair_rank(v, z)] for z in others)
                            assert G.are_clones(u, v) == brute, (w, u, v)
                assert list(G.pairs()) == [(i, j, w[pair_rank(i, j)]) for i in range(n) for j in range(i + 1, n)]
                assert G.edge_sum() == G.edge_sum(range(n))
                assert G.edge_product() == G.edge_product(range(n))
        assert Multigraph(2, [0]).are_clones(0, 1) and Multigraph(2, [3]).are_clones(1, 0)

    def test_copied_row(self):
        G = layered_graph(1, 2, 3, (2, 3))
        H = G.copied_row(2, 0)
        assert H.weight(0, 1) == G.weight(2, 1)
        assert H.weight(0, 2) == G.weight(0, 2)  # the pair itself is untouched
        assert H.are_clones(0, 2)

    def test_immutability(self):
        G = Multigraph.constant(3, 1)
        with pytest.raises(AttributeError):
            G.n = 5


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(23)
        G = random_graph(6, 7, rng)
        assert Multigraph.loads(G.dumps()) == G
        assert G.dumps() == Multigraph.loads(G.dumps()).dumps()

    def test_document_shape(self):
        G = Multigraph.constant(3, 2)
        doc = json.loads(G.dumps())
        assert doc["n"] == 3
        assert sorted(map(tuple, doc["edges"])) == [(0, 1, 2), (0, 2, 2), (1, 2, 2)]

    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError):
            Multigraph.from_dict({"n": 3, "edges": [[0, 1, 2], [0, 2, 2]]})

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError):
            Multigraph.from_dict(
                {"n": 3, "edges": [[0, 1, 2], [0, 1, 3], [1, 2, 2]]}
            )

    @pytest.mark.parametrize(
        "text",
        [
            '{"n":3,"edges":[[0,1,true],[0,2,2],[1,2,2]]}',
            '{"n":3,"edges":[[0,1,1],[0,2,2],[true,2,2]]}',
            '{"n":true,"edges":[]}',
        ],
        ids=["weight", "index", "vertex-count"],
    )
    def test_json_boolean_rejected(self, text):
        with pytest.raises(ValueError):
            Multigraph.loads(text)

    def test_edge_count_checked_before_allocating(self):
        # a list of n(n-1)/2 entries at n = 10**8 would take about 40 PB
        with pytest.raises(ValueError, match="edge entries"):
            Multigraph.from_dict({"n": 10**8, "edges": []})

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            Multigraph.from_dict(
                {"n": 3, "edges": [[0, 1, -1], [0, 2, 2], [1, 2, 2]]}
            )
        with pytest.raises(ValueError):
            Multigraph.from_dict(
                {"n": 3, "edges": [[1, 0, 1], [0, 2, 2], [1, 2, 2]]}
            )


def test_pair_rank_is_colex():
    ranks = [pair_rank(i, j) for j in range(1, 6) for i in range(j)]
    assert ranks == list(range(15))


def test_params_validation():
    assert Params(2, 2, 1).s_base == 4
    assert Params(3, 3, 2).s_base == 8
    with pytest.raises(ValueError):
        Params(2, 2, 2)
    with pytest.raises(ValueError):
        Params(0, 2, 0)
    with pytest.raises(ValueError):
        Params(2, 0, 1)
