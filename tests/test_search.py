"""Branch-and-bound engines, counting, oracle cross-checks, and the cache."""

from __future__ import annotations

import contextlib
import json
import math
import random
import warnings
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, count, permutations, product
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest

from sqgraphs import constructions as C
from sqgraphs import multigraph as M
from sqgraphs import search as S
from sqgraphs.formulas import _amgm
from sqgraphs.multigraph import Multigraph, Params, pair_rank


def isomorphic(G: Multigraph, H: Multigraph) -> bool:
    """Plain permutation scan; fine at the tiny sizes used in tests."""
    if G.n != H.n:
        return False
    for perm in permutations(range(G.n)):
        if all(G.weight(i, j) == H.weight(perm[i], perm[j]) for i, j, _ in G.pairs()):
            return True
    return False


class TestPinnedInstances:
    def test_product_single_constraint_case(self):
        out = S.max_product_search(4, 4, 15)
        assert out.value == 216
        assert out.optimal
        assert isomorphic(out.witness, C.turan_multigraph(Params(2, 2, 1), (1, 3)))

    def test_product_exact_multiple_case(self):
        assert S.max_product_search(4, 4, 12).value == _amgm(12, 6) == 64

    def test_product_equals_amgm_at_exact_grade(self):
        for s in (2, 3, 4):
            for a in (1, 2, 3):
                q = a * math.comb(s, 2)
                assert S.max_product_search(s, s, q).value == a ** math.comb(s, 2)

    def test_sum_single_set_fills_bound(self):
        for s, q in ((2, 7), (3, 11), (4, 15)):
            assert S.max_sum_search(s, s, q).value == q

    def test_pair_grade_is_independent_pairs(self):
        assert S.max_product_search(4, 2, 5).value == 5 ** 6
        assert S.max_sum_search(4, 2, 5).value == 5 * 6

    def test_construction_lower_bound_at_five(self):
        cons = C.max_edge_sum(Params(2, 2, 1), 5).value
        out = S.max_sum_search(5, 4, 15)
        assert out.value >= cons
        pi = S.max_product_search(5, 4, 15)
        assert pi.value >= C.max_edge_product(Params(2, 2, 1), 5).value

    def test_degenerate_low_bound_gives_zero_product(self):
        out = S.max_product_search(4, 3, 2)  # q < C(3,2) forces a zero pair
        assert out.value == 0
        assert out.optimal


class TestAveragingBound:
    def test_sum_closes_at_the_root(self):
        # the averaging chain (37 and 51) is met by a seed construction; the
        # one-step bound floor(15 * C(7,4) / C(5,2)) = 52 left n = 7 open
        for n, value in ((6, 37), (7, 51)):
            out = S.max_sum_search(n, 4, 15)
            assert (out.value, out.optimal, out.stats["nodes"]) == (value, True, 0)
            assert out.stats["upper"] == value

    def test_product_seven_vertices_node_count(self):
        out = S.max_product_search(7, 4, 15)
        assert out.value == 60466176
        assert out.optimal
        assert out.stats["nodes"] <= 635

    @pytest.mark.parametrize(
        "engine,n,s,q,budget,expected",
        [
            # a collect (products on n >= s+1, sums on n >= s+2) counts every
            # level, and a product search the two-weight seed's nodes too
            ("product", 6, 4, 15, S.DEFAULT_NODE_BUDGET, (419904, True, 396, 170, 89, 419904)),
            ("product", 7, 4, 15, S.DEFAULT_NODE_BUDGET, (60466176, True, 635, 290, 89, 60466176)),
            ("product", 6, 4, 21, S.DEFAULT_NODE_BUDGET, (95551488, True, 592, 310, 130, 95551488)),
            ("product", 7, 6, 41, S.DEFAULT_NODE_BUDGET, (918330048, True, 3409, 1954, 1010, 918330048)),
            ("sum", 7, 5, 13, 20_000, (24, False, 20001, 5776, 3102, 26)),
            # the search stops at the leaf where the incumbent meets upper,
            # here the two-weight seed's
            ("product", 5, 4, 15, S.DEFAULT_NODE_BUDGET, (7776, True, 20, 6, 0, 7776)),
            ("sum", 4, 3, 13, S.DEFAULT_NODE_BUDGET, (26, True, 6, 0, 0, 26)),
            # the benchmark ladder's two largest climbed rungs
            ("product", 8, 4, 15, S.DEFAULT_NODE_BUDGET, (17414258688, True, 1016, 442, 159, 17414258688)),
            ("product", 7, 4, 21, S.DEFAULT_NODE_BUDGET, (123834728448, True, 888, 456, 207, 123834728448)),
        ],
    )
    def test_pruning_is_pinned(self, engine, n, s, q, budget, expected):
        # exact node and per-rule prune counts: a change to any pruning rule
        # or to the search order shows here
        search = S.max_product_search if engine == "product" else S.max_sum_search
        out = search(n, s, q, node_budget=budget)
        st = out.stats
        got = (out.value, out.optimal, st["nodes"], st["bound_prunes"], st["symmetry_prunes"], st["upper"])
        assert got == expected

    @pytest.mark.parametrize(
        "n,q,chain", [(7, 15, 51), (8, 15, 68), (9, 15, 87), (7, 21, 72), (8, 21, 96), (9, 21, 123)]
    )
    def test_sum_chain_values(self, n, q, chain):
        assert S._averaging_chain(n, 4, q, False) == chain

    def test_chain_never_above_one_step_bound(self):
        for n in range(2, 10):
            for s in range(2, n + 1):
                sets, per_pair = math.comb(n, s), math.comb(n - 2, s - 2)
                for q in range(26):
                    assert S._averaging_chain(n, s, q, False) <= q * sets // per_pair
                    cap = S._amgm(q, math.comb(s, 2)) ** sets
                    assert S._averaging_chain(n, s, q, True) <= S._iroot(cap, per_pair)

    def test_product_chain_step(self):
        # ex(7,6,41) = 918330048 bounds ex(8,6,41) by the value the engine finds
        assert S._iroot(918330048**8, 6) == 892616806656
        assert S._averaging_chain(7, 4, 15, True) == 148111168

    def test_integer_root(self):
        for k in (1, 2, 3, 15):
            for x in list(range(300)) + [216 ** 70, 216 ** 70 - 1]:
                r = S._iroot(x, k)
                assert r ** k <= x < (r + 1) ** k

    def test_seeds_stop_at_the_root_bound(self):
        # at s = 2 the constant seed q on every pair meets the bound, so no
        # construction is built: exsum 3 2 800 once built 1,599 of them
        assert S.max_product_search(5, 2, 7).stats["seeds"] == 1
        out = S.max_sum_search(3, 2, 800)
        assert (out.value, out.optimal, out.stats["seeds"], out.stats["nodes"]) == (2400, True, 1, 0)


@lru_cache(maxsize=None)
def _s_optimum(a: int, r: int, d: int, s: int) -> int:
    return C.max_edge_sum(Params(a, r, d), s).value


@lru_cache(maxsize=None)
def _member(a: int, r: int, d: int, n: int, mode: str) -> Multigraph:
    params = Params(a, r, d)
    optimize = C.max_edge_product if mode == "product" else C.max_edge_sum
    return C.turan_multigraph(params, optimize(params, n).argmax)


def reference_seeds(n: int, s: int, q: int, mode: str):
    """Every feasible construction member in (a, r, d) order, after the
    constant graph: the enumeration the search once seeded from."""
    spairs = s * (s - 1) // 2
    g = Multigraph.constant(n, q // spairs)
    seen = {g.weights()}
    yield g
    for a in range(1, q // spairs + 2):
        for r in range(1, s + 1):
            for d in range(a):
                if _s_optimum(a, r, d, s) > q:
                    continue
                g = _member(a, r, d, n, mode)
                if g.weights() not in seen:
                    seen.add(g.weights())
                    if g.satisfies(s, q):
                        yield g


class TestSeeds:
    def test_same_first_maximal_seed_as_full_enumeration(self):
        for n in range(3, 8):
            for s in range(2, min(n, 6) + 1):
                for q in range(41):
                    for mode in ("sum", "product"):
                        ref = list(reference_seeds(n, s, q, mode))
                        new = list(S._seed_witnesses(n, s, q, mode))
                        value = partial(S._graph_value, mode=mode)
                        # max keeps the first maximal seed, as _run_search does
                        best_ref, best_new = max(ref, key=value), max(new, key=value)
                        assert best_new.weights() == best_ref.weights(), (n, s, q, mode)
                        assert {g.weights() for g in new} <= {g.weights() for g in ref}

    def test_run_search_keeps_the_first_maximal_seed(self, monkeypatch):
        best = S.max_sum_search(5, 3, 4).witness  # 12, below the root bound 13
        relabeled = [0] * 10
        for i, j, w in best.pairs():
            relabeled[pair_rank((i + 1) % 5, (j + 1) % 5)] = w
        seeds = [Multigraph.constant(5, 1), Multigraph(5, relabeled), best]
        assert tuple(relabeled) != best.weights()
        monkeypatch.setattr(S, "_seed_witnesses", lambda *args: iter(seeds))
        out = S.max_sum_search(5, 3, 4)
        assert (out.value, out.optimal, out.stats["seeds"]) == (12, True, 3)
        assert out.witness.weights() == tuple(relabeled)

    def test_seed_count_does_not_grow_with_q(self):
        # the full enumeration built 493 seeds at q = 301 and never finished
        # at q = 10**6; no seed meets the root bound on either instance
        for search, n, s, seeds in ((S.max_sum_search, 5, 3, 3), (S.max_product_search, 6, 4, 4)):
            for q in (301, 10**6):
                assert search(n, s, q, node_budget=1).stats["seeds"] == seeds, (n, s, q)


class TestDepthTables:
    def test_tables_follow_their_definition(self):
        # X indexes combinations(range(n), s) in order, or in the row form only
        # the s-sets through n-1, each with only its pairs to n-1 (the ranks
        # from K = C(n-1,2) on), and then nothing below depth K; each getter,
        # applied to the list of pair ranks, reads back the pairs it selects
        for n in range(2, 9):
            ranks = list(range(n * (n - 1) // 2))
            for s in range(2, n + 1):
                for row in (False, True):
                    K = math.comb(n - 1, 2) if row else 0
                    ssets = [
                        [e for e in sorted(pair_rank(u, v) for u, v in combinations(X, 2)) if e >= K]
                        for X in combinations(range(n), s)
                        if not row or n - 1 in X
                    ]
                    open_sets, later = S._depth_tables(n, s, row)
                    assert len(open_sets) == len(later) == len(ranks)
                    assert not any(open_sets[:K]) and not any(later[:K]), (n, s)
                    for k in ranks[K:]:
                        assert later[k] == tuple(
                            (X, tuple(e for e in prs if e > k))
                            for X, prs in enumerate(ssets)
                            if k in prs
                        ), (n, s, row, k)
                        tails = [(X, tuple(e for e in prs if e >= k)) for X, prs in enumerate(ssets)]
                        assert [(X, get(ranks)) for X, get in open_sets[k]] == [
                            (X, tail) for X, tail in tails if len(tail) >= 2
                        ], (n, s, row, k)

    def test_tables_equal_the_per_depth_construction(self):
        # reference: scan every s-set's pairs again at each depth k; the
        # per-s-set build must give the same tables, with X in the same order.
        # The row form holds nothing below depth K = C(n-1,2), and from K on
        # equals the full tables re-indexed to the s-sets through n-1
        def per_depth(n, s):
            ssets = [
                sorted(pair_rank(u, v) for u, v in combinations(X, 2))
                for X in combinations(range(n), s)
            ]
            open_sets, later = [], []
            for k in range(n * (n - 1) // 2):
                tails = [(X, tuple(e for e in prs if e >= k)) for X, prs in enumerate(ssets)]
                open_sets.append(
                    tuple((X, itemgetter(*prs)) for X, prs in tails if len(prs) >= 2)
                )
                later.append(tuple((X, prs[1:]) for X, prs in tails if prs and prs[0] == k))
            return tuple(open_sets), tuple(later)

        rng = random.Random(32)
        for n in range(2, 10):
            vec = [rng.randrange(10**6) for _ in range(n * (n - 1) // 2)]
            for s in range(2, n + 1):
                want_open, want_later = per_depth(n, s)
                open_sets, later = S._depth_tables(n, s, False)
                assert later == want_later, (n, s)
                assert [[(X, get(vec)) for X, get in row] for row in open_sets] == [
                    [(X, get(vec)) for X, get in row] for row in want_open
                ], (n, s)
                K = math.comb(n - 1, 2)
                through = [X for X, Y in enumerate(combinations(range(n), s)) if n - 1 in Y]
                index = {X: i for i, X in enumerate(through)}
                row_open, row_later = S._depth_tables(n, s, True)
                assert len(row_open) == len(row_later) == len(later)
                assert not any(row_open[:K]) and not any(row_later[:K]), (n, s)
                assert row_later[K:] == tuple(tuple((index[X], prs) for X, prs in row) for row in later[K:]), (n, s)
                assert [[(X, get(vec)) for X, get in row] for row in row_open[K:]] == [
                    [(index[X], get(vec)) for X, get in row] for row in open_sets[K:]
                ], (n, s)


class TestLexLeader:
    @staticmethod
    def brute(W, j):
        """Lex-leader by trying all (j+1)! relabelings of the block."""
        block = [(x, y) for y in range(1, j + 1) for x in range(y)]
        own = [W[pair_rank(x, y)] for x, y in block]
        return all(
            [W[pair_rank(p[x], p[y])] for x, y in block] <= own
            for p in permutations(range(j + 1))
        )

    @staticmethod
    def check(W, j):
        # stale entries past the block, as the search leaves them, do not count
        stale = W + [9, 0] * (j + 1)
        assert S._lex_leader(stale, j, S._rank_table(j + 2)) == TestLexLeader.brute(W, j), (W, j)

    def test_random_blocks(self):
        rng = random.Random(13)
        for _ in range(3000):
            j = rng.randint(1, 5)
            top = rng.choice((1, 2, 3, 5))
            self.check([rng.randint(0, top) for _ in range(j * (j + 1) // 2)], j)

    def test_constant_and_two_weight_blocks(self):
        # ties everywhere: every relabeling of a constant block is equal
        for j in range(1, 6):
            self.check([3] * (j * (j + 1) // 2), j)
        for j in range(1, 5):
            for W in product((1, 2), repeat=j * (j + 1) // 2):
                self.check(list(W), j)
        rng = random.Random(7)
        for _ in range(500):
            self.check([rng.choice((1, 2)) for _ in range(15)], 5)


class TestCanonicalForm:
    """search._canonical_form, the key by which _collect extends one graph
    per isomorphism class."""

    @staticmethod
    def brute(W, m):
        """The lex-max colex vector over every relabeling that lists the
        vertices in non-increasing order of their sorted incident weights."""
        R = S._rank_table(m)
        degrees = [sorted((W[R[u][v]] for v in range(m) if v != u), reverse=True) for u in range(m)]
        colex = [(u, v) for v in range(1, m) for u in range(v)]
        return max(
            tuple(W[R[p[u]][p[v]]] for u, v in colex)
            for p in permutations(range(m))
            if all(degrees[p[i]] >= degrees[p[i + 1]] for i in range(m - 1))
        )

    @staticmethod
    def relabel(W, m, p):
        """W with vertex u renamed p[u]."""
        out = [0] * len(W)
        for v in range(1, m):
            for u in range(v):
                out[pair_rank(p[u], p[v])] = W[pair_rank(u, v)]
        return out

    @staticmethod
    def graph(rng, m):
        top = rng.choice((1, 2, 3))
        return [rng.randint(0, top) for _ in range(m * (m - 1) // 2)]

    def test_equals_the_brute_force_form(self):
        rng = random.Random(29)
        for _ in range(400):
            m = rng.randint(2, 6)
            W = self.graph(rng, m)
            assert S._canonical_form(W, m) == self.brute(W, m), (W, m)

    def test_does_not_change_under_relabeling(self):
        rng = random.Random(31)
        for _ in range(300):
            m = rng.randint(2, 9)
            W = self.graph(rng, m)
            p = rng.sample(range(m), m)
            assert S._canonical_form(self.relabel(W, m, p), m) == S._canonical_form(W, m), (W, p)

    def test_agrees_with_networkx_isomorphism(self):
        # pairs with the same incident weights at every vertex: a relabeling
        # of W, and half the time one with the weights swapped around a
        # 4-cycle a-b-c-d whose pairs alternate between two weights
        nx = pytest.importorskip("networkx", reason="checks isomorphism; not a package dependency")
        match = nx.algorithms.isomorphism.numerical_edge_match("weight", 0)
        rng = random.Random(37)
        verdicts = []
        for _ in range(300):
            m = rng.randint(4, 8)
            W = [rng.randint(0, 1) for _ in range(m * (m - 1) // 2)]
            V = self.relabel(W, m, rng.sample(range(m), m))
            for _ in range(20 if rng.random() < 0.5 else 0):
                a, b, c, d = rng.sample(range(m), 4)
                ab, bc, cd, da = (pair_rank(min(e), max(e)) for e in ((a, b), (b, c), (c, d), (d, a)))
                if V[ab] == V[cd] != V[bc] == V[da]:
                    V[ab], V[bc], V[cd], V[da] = V[bc], V[ab], V[da], V[cd]
                    break
            graphs = []
            for weights in (W, V):
                graphs.append(nx.Graph())
                graphs[-1].add_weighted_edges_from(Multigraph(m, weights).pairs())
            same = S._canonical_form(W, m) == S._canonical_form(V, m)
            assert same == nx.is_isomorphic(*graphs, edge_match=match), (W, V)
            verdicts.append(same)
        assert min(sum(verdicts), len(verdicts) - sum(verdicts)) >= 50  # both verdicts occur


# ex(n) on the exact rungs of the paper's points (a,r,d) = (2,2,1), (3,2,1),
# (2,3,1) and (2,4,1), that is (s,q) = (4,15), (4,21), (6,41) and (8,79); the
# engine meets each of them in this file, most in TestClimb.test_frontier
EXACT_RUNGS = {
    (4, 15): {
        4: 216,
        5: 7_776,
        6: 419_904,
        7: 60_466_176,
        8: 17_414_258_688,
        9: 12_694_994_583_552,
        10: 21_936_950_640_377_856,
        11: 75_814_101_413_145_870_336,
        12: 524_027_068_967_664_255_762_432,
        13: 10_314_424_798_490_535_546_171_949_056,
        17: 3_127_915_390_764_112_479_316_656_145_521_574_647_402_294_411_264,
        20: 29_642_511_830_891_277_142_110_270_792_590_257_472_493_870_311_689_709_966_121_750_233_088,
    },
    (4, 21): {6: 95_551_488, 7: 123_834_728_448, 11: 51_513_956_987_797_266_998_470_115_328},
    (6, 41): {
        7: 918_330_048,
        8: 892_616_806_656,
        9: 1_735_247_072_139_264,
        10: 7_589_970_693_537_140_736,
        11: 88_529_418_169_417_209_544_704,
        12: 3_097_821_400_584_246_996_388_282_368,
    },
    (8, 79): {9: 8_784_688_302_705_024},
}


class TestClimb:
    """Product searches on n >= s+1 vertices and sum searches on n >= s+2
    climb from s vertices (search._collect), after the two-weight seed."""

    @staticmethod
    def direct(n, s, q):
        """The direct search at n from the best seed, with no two-weight seed."""
        upper = S._averaging_chain(n, s, q, True)
        seed = max(S._seed_witnesses(n, s, q, "product"), key=Multigraph.edge_product)
        best = [seed.edge_product()]

        def leaf(value, W):
            best[0] = value
            if value >= upper:
                raise S._Stop

        if best[0] < upper:
            stats = {"nodes": 0, "bound_prunes": 0, "symmetry_prunes": 0}
            with contextlib.suppress(S._Stop):
                S._tree_search(n, s, q, True, S.DEFAULT_NODE_BUDGET, stats, lambda: best[0] + 1, leaf)
        return best[0]

    def test_matches_the_direct_search_on_the_grid(self):
        # every product instance of tests/golden/grid.json that climbs
        rows = nodes = 0
        for n in range(4, 8):
            for s in range(2, n):
                for q in range(16 if n < 7 else 10):
                    out = S.max_product_search(n, s, q)
                    assert out.optimal
                    assert out.value == self.direct(n, s, q), (n, s, q)
                    assert out.witness.find_violation(s, q) is None
                    assert out.witness.edge_product() == out.value
                    rows, nodes = rows + 1, nodes + out.stats["nodes"]
        # pinned, so that a row needing more nodes shows here
        assert (rows, nodes) == (194, 4_440)

    @staticmethod
    def assert_nonisomorphic_optima(weights, value):
        """Each weight vector is a (6,41)-graph on 7 vertices of this value,
        and no two are isomorphic."""
        nx = pytest.importorskip("networkx", reason="checks isomorphism; not a package dependency")
        graphs = []
        for W in weights:
            G = Multigraph(7, W)
            assert G.edge_product() == value
            assert G.find_violation(6, 41) is None
            graphs.append(nx.Graph())
            graphs[-1].add_weighted_edges_from(G.pairs())
        match = nx.algorithms.isomorphism.numerical_edge_match("weight", 0)
        for A, B in combinations(graphs, 2):
            assert not nx.is_isomorphic(A, B, edge_match=match)

    def test_collect_keeps_one_graph_per_optimum(self):
        T = 918_330_048  # ex(7,6,41)
        keep, stats = [], {"nodes": 0, "bound_prunes": 0, "symmetry_prunes": 0}

        def leaf(value, W):  # keep every leaf; the floor stays at T-1
            assert value == T
            keep.append(W[:])

        S._tree_search(7, 6, 41, True, S.DEFAULT_NODE_BUDGET, stats, lambda: T, leaf)
        assert len(keep) == 6
        self.assert_nonisomorphic_optima(keep, T)

    @staticmethod
    def canonical(W, m):
        """The least weight vector over all m! relabelings of W."""
        R = S._rank_table(m)
        colex = [(u, v) for v in range(1, m) for u in range(v)]
        return min(tuple(W[R[p[u]][p[v]]] for u, v in colex) for p in permutations(range(m)))

    @classmethod
    def classes(cls, m, s, q, T, collect, product=True, cap=None):
        """The classes that collect(stats, leaf) hands over, each leaf
        checked to be an (s,q)-graph of its value, at least T, within cap."""
        got, stats = set(), {"nodes": 0, "bound_prunes": 0, "symmetry_prunes": 0}
        mode = "product" if product else "sum"

        def leaf(value, W):
            assert value >= T and S._certified(Multigraph(m, W[:]), m, s, q, mode, value)
            assert cap is None or max(W) <= cap
            got.add(cls.canonical(W, m))

        collect(stats, leaf)
        return got

    @staticmethod
    def optimum(m, s, q, product, cap):
        """The direct search's last leaf from floor -1, which is the optimum."""
        best = [-1]

        def leaf(value, W):
            best[0] = value

        stats = {"nodes": 0, "bound_prunes": 0, "symmetry_prunes": 0}
        S._tree_search(m, s, q, product, S.DEFAULT_NODE_BUDGET, stats, lambda: best[0] + 1, leaf, cap=cap)
        return best[0]

    def test_recursive_collect_meets_the_direct_collect(self):
        # at each threshold T, _collect hands over exactly the isomorphism
        # classes of the direct lex-leader collect at floor T-1, and only
        # (s,q)-graphs of the value it is given: on products with s+1 <= m <= 6
        # and C(s,2) <= q <= C(s,2)+2 at T = ex, ex/2 and ex/4, and on sums with
        # s+2 <= m <= 6, uncapped at 1 <= q <= 3 and under cap 1 (the two-weight
        # seed's search) at 1 <= q < C(s,2), each at T = ex and ex-1
        budget = S.DEFAULT_NODE_BUDGET
        kinds = [
            (True, None, lambda s: range(s * (s - 1) // 2, s * (s - 1) // 2 + 3), lambda ex: {ex, (ex + 1) // 2, (ex + 3) // 4}),
            (False, None, lambda s: range(1, 4), lambda ex: {ex, ex - 1}),
            (False, 1, lambda s: range(1, s * (s - 1) // 2), lambda ex: {ex, ex - 1}),
        ]
        for product, cap, qs, thresholds in kinds:
            for m in range(3, 7):
                for s in range(2, m - (not product)):
                    for q in qs(s):
                        for T in thresholds(self.optimum(m, s, q, product, cap)):
                            direct = self.classes(m, s, q, T, lambda st, leaf: S._tree_search(
                                m, s, q, product, budget, st, lambda: T, leaf, cap=cap), product, cap)
                            climbed = self.classes(m, s, q, T, lambda st, leaf: S._collect(
                                m, s, q, product, budget, st, lambda: T, leaf, cap), product, cap)
                            assert climbed == direct, (product, cap, m, s, q, T)

    def test_extension_hands_over_exactly_the_feasible_rows(self):
        # _tree_search from a prefix H, a random (s,q)-graph on 0..n-2, at a
        # fixed least() = T hands over, once each, exactly the rows of vertex
        # n-1 that make an (s,q)-graph of value >= T: on products and sums,
        # with and without cap 1, for 3 <= n <= 6 and 2 <= s <= n (224 cases).
        # The brute force tries every row with weights in wlo..top: a pair
        # lies in an s-set whose other C(s,2)-1 pairs weigh >= wlo (products
        # with a 0 weight are 0 < T), so no heavier weight is feasible
        rng = random.Random(21)
        cases = 0
        for n in range(3, 7):
            K = math.comb(n - 1, 2)
            for s in range(2, n + 1):
                spairs = s * (s - 1) // 2
                for is_product, cap in ((True, None), (False, None), (True, 1), (False, 1)):
                    wlo = 1 if is_product else 0
                    for _ in range(4):
                        # at most about 1,300 rows uncapped
                        q = spairs * wlo + rng.randrange(int(1300 ** (1 / (n - 1))))
                        top = q - (spairs - 1) * wlo if cap is None else min(cap, q - (spairs - 1) * wlo)
                        H = [wlo] * K
                        for e in rng.sample(range(K), K):  # each pair as heavy as H stays feasible
                            H[e] = rng.randint(wlo, max(wlo, top))
                            while s < n and not Multigraph(n - 1, H).satisfies(s, q):
                                H[e] -= 1
                        value = math.prod if is_product else sum
                        feasible = {
                            row: value(H + list(row))
                            for row in product(range(wlo, top + 1), repeat=n - 1)
                            if Multigraph(n, H + list(row)).satisfies(s, q)
                        }
                        T = rng.choice([*feasible.values(), max(feasible.values(), default=wlo) + 1])
                        got = []

                        def leaf(v, W):
                            assert W[:K] == H and v == value(W)
                            got.append(tuple(W[K:]))

                        stats = {"nodes": 0, "bound_prunes": 0, "symmetry_prunes": 0}
                        S._tree_search(n, s, q, is_product, S.DEFAULT_NODE_BUDGET, stats, lambda: T, leaf, H, cap)
                        want = sorted(row for row, v in feasible.items() if v >= T)
                        assert sorted(got) == want, (n, s, q, is_product, cap, H, T)
                        cases += 1
        assert cases == 224

    def test_ties_hand_over_every_optimum(self):
        # at least() = ex(7,6,41) the collect from 7 vertices hands over every
        # optimum, some in several labelings: the six classes that the direct
        # collect keeps (see test_collect_keeps_one_graph_per_optimum)
        T = 918_330_048
        optima = self.classes(7, 6, 41, T, lambda st, leaf: S._collect(
            7, 6, 41, True, S.DEFAULT_NODE_BUDGET, st, lambda: T, leaf))
        assert len(optima) == 6
        self.assert_nonisomorphic_optima(optima, T)

    def test_beats_the_construction_at_eight_vertices(self):
        # (2,3,1) is (s,q) = (6,41); the optimum is 4/3 of the construction's.
        # The two-weight seed finds it in 143 nodes, so the collect only
        # proves it optimal, and no 7-vertex graph reaches the top level
        out = S.max_product_search(8, 6, 41)
        assert (out.value, out.optimal) == (892_616_806_656, True)
        assert 3 * out.value == 4 * C.max_edge_product(Params(2, 3, 1), 8).value
        assert out.stats["levels"] == {"two_weight": 143, 6: 2_915, 7: 388}

    def test_phase_two_runs_at_the_optimum_below(self):
        # the two-weight seed finds ex(8,6,17) = 4, which is also ex(7,6,17);
        # the collect at least() = 5 still runs the 7-vertex level at T2 = 4,
        # the optimum below, so that level hands over both 7-vertex optima
        # (the classes of the direct collect at floor 3) for the top level to
        # extend, and none extends above 4
        out = S.max_product_search(8, 6, 17)
        assert (out.value, out.optimal, out.stats["nodes"]) == (4, True, 245)
        assert out.stats["levels"] == {"two_weight": 30, 6: 203, 7: 12, 8: 0}
        assert S.max_product_search(7, 6, 17).value == 4
        budget = S.DEFAULT_NODE_BUDGET
        handed = self.classes(7, 6, 17, 4, lambda st, leaf: S._collect(
            7, 6, 17, True, budget, st, lambda: 4, leaf))
        direct = self.classes(7, 6, 17, 4, lambda st, leaf: S._tree_search(
            7, 6, 17, True, budget, st, lambda: 4, leaf))
        assert handed == direct and len(handed) == 2

    def test_nodes_sum_over_levels(self):
        # each level counts its own nodes, not those of the levels it hands
        # graphs to; together with the seed's they make up every node, also
        # when the budget stops the search.  stats["duplicates"] counts the
        # extension searches each level skipped as isomorphic to an earlier one
        out = S.max_product_search(7, 4, 15)
        assert out.stats["levels"] == {"two_weight": 59, 4: 217, 5: 108, 6: 196, 7: 55}
        assert sum(out.stats["levels"].values()) == out.stats["nodes"] == 635
        assert out.stats["duplicates"] == {6: 6, 7: 9}
        record = S.cache_record(7, 4, 15, out)["stats"]
        assert "levels" not in record and "duplicates" not in record
        out = S.max_sum_search(7, 5, 13, node_budget=20_000)
        assert out.stats["levels"] == {5: 10_649, 6: 8_369, 7: 983}
        assert sum(out.stats["levels"].values()) == out.stats["nodes"] == 20_001
        assert out.stats["duplicates"] == {7: 347}

    @pytest.mark.parametrize(
        "budget,levels",
        [
            (50, {"two_weight": 51}),
            (160, {"two_weight": 59, 4: 65, 5: 25, 6: 12}),
            (245, {"two_weight": 59, 4: 91, 5: 72, 6: 24}),
            (255, {"two_weight": 59, 4: 91, 5: 73, 6: 33}),
        ],
        ids=["50", "160", "245", "255"],
    )
    def test_budget_bound_in_every_phase(self, budget, levels):
        # (6,4,15) takes 396 nodes: 1-59 search the two-weight seed, and the
        # collect runs its 4-vertex base in the rest, save 82-88, 114-125,
        # 138-143, 172-184, 195-211, 224-229, 236-247 and 265-270 where it
        # extends to 5 vertices, and 126-137, 212-223 and 248-264 within
        # those, where it extends to 6; so 50, 160, 245 and 255 stop the seed,
        # the base, a 5-vertex and a 6-vertex extension
        out = S.max_product_search(6, 4, 15, node_budget=budget)
        assert not out.optimal
        assert out.stats["nodes"] == budget + 1
        assert out.stats["levels"] == levels
        assert out.stats["upper"] == S._averaging_chain(6, 4, 15, True)
        assert out.witness.find_violation(4, 15) is None
        assert out.witness.edge_product() == out.value <= 419_904

    @pytest.mark.parametrize(
        "n,s,q,nodes,over",
        [
            pytest.param(9, 6, 41, 61_747, Fraction(4, 3), marks=pytest.mark.slow),
            (9, 4, 15, 1_105, 1),
            (10, 4, 15, 1_254, 1),
            (11, 4, 15, 1_852, 1),
            (12, 4, 15, 4_000, 1),
            (13, 4, 15, 4_351, 1),
            pytest.param(17, 4, 15, 9_433, 1, marks=pytest.mark.slow),
            pytest.param(20, 4, 15, 20_201, 1, marks=pytest.mark.slow),
            (11, 4, 21, 3_656, 1),
            pytest.param(10, 6, 41, 164_021, 1, marks=pytest.mark.slow),
            pytest.param(11, 6, 41, 323_657, 1, marks=pytest.mark.slow),
            pytest.param(12, 6, 41, 377_030, 1, marks=pytest.mark.slow),
            pytest.param(9, 8, 79, 444_787, 1, marks=pytest.mark.slow),
        ],
    )
    def test_frontier(self, n, s, q, nodes, over):
        # exact within the default budget, seed nodes included (the direct
        # search needs 1,551,932 nodes for (9,4,15)); `over` is the optimum
        # over the construction's value: (2,3,1) beats the construction at
        # n = 9 and meets it from 10 on, and (2,4,1), the paper's r = 4 point,
        # meets it at 9
        out = S.max_product_search(n, s, q)
        value = EXACT_RUNGS[s, q][n]
        assert (out.value, out.optimal, out.stats["nodes"]) == (value, True, nodes)
        params = {(4, 15): Params(2, 2, 1), (4, 21): Params(3, 2, 1), (6, 41): Params(2, 3, 1),
                  (8, 79): Params(2, 4, 1)}[s, q]
        assert value == over * C.max_edge_product(params, n).value

    def test_katona_chain_between_exact_rungs(self):
        # ex(n)**(n-2) <= ex(n-1)**n on each pair of consecutive exact rungs
        # (each of the n induced (n-1)-vertex subgraphs is an (s,q)-graph, and
        # each pair lies in n-2 of them): a law independent of how each value was found
        pairs = 0
        for rungs in EXACT_RUNGS.values():
            for n, ex in rungs.items():
                if n - 1 in rungs:
                    assert ex ** (n - 2) <= rungs[n - 1] ** n, n
                    pairs += 1
        assert pairs == 15


class TestTwoWeightSeed:
    """search._two_weight_seed: a*K_n + H, H simple, from a capped sum search."""

    @staticmethod
    def seed(n, s, q, start):
        """The last graph the seed hands over above start, each certified,
        or None if none beats it; and the seed's nodes."""
        inc, stats = [start.edge_product(), None], {"nodes": 0, "bound_prunes": 0, "symmetry_prunes": 0}

        def record(value, W):
            inc[:] = value, Multigraph(n, W)
            assert S._certified(inc[1], n, s, q, "product", value)

        S._two_weight_seed(n, s, q, S.DEFAULT_NODE_BUDGET, stats, inc, record)
        return inc[0], inc[1], stats["nodes"]

    @pytest.mark.parametrize(
        "n,ex,nodes",
        [(7, 918_330_048, 176), (8, 892_616_806_656, 228), (9, 1_735_247_072_139_264, 680)],
    )
    def test_meets_the_optimum_at_six_forty_one(self, n, ex, nodes):
        # (2,3,1): from the constant graph 2*K_n, the best two-weight graph is
        # an optimum, 4/3 of the construction at n = 8 and 9
        assert self.seed(n, 6, 41, Multigraph.constant(n, 2))[::2] == (ex, nodes)

    def test_construction_stays_the_seed_at_eight_vertices(self):
        # (2,2,1): no two-weight graph beats the construction, so no H passes
        # the break-even floor
        best = max(S._seed_witnesses(8, 4, 15, "product"), key=Multigraph.edge_product)
        assert best.edge_product() == C.max_edge_product(Params(2, 2, 1), 8).value
        assert self.seed(8, 4, 15, best) == (best.edge_product(), None, 59)

    def test_never_exceeds_the_engine_on_the_grid(self):
        # from the constant graph a*K_n the seed finds the best two-weight
        # graph, the optimum of a restriction, so never above the optimum
        golden = json.loads((Path(__file__).parent / "golden" / "grid.json").read_text(encoding="utf-8"))
        rows = 0
        for key, (ex, optimal) in golden.items():
            mode, n, s, q = key.split()
            n, s, q = int(n), int(s), int(q)
            if mode == "product" and optimal and q >= s * (s - 1) // 2:
                value = self.seed(n, s, q, Multigraph.constant(n, q // (s * (s - 1) // 2)))[0]
                assert value <= int(ex), key
                rows += 1
        assert rows == 190


class TestCounting:
    def test_independent_pairs(self):
        for n, q in ((3, 4), (4, 2)):
            assert S.count_graphs(n, 2, q) == (q + 1) ** math.comb(n, 2)

    def test_single_full_set_is_stars_and_bars(self):
        assert S.count_graphs(4, 4, 3) == math.comb(9, 6) == 84
        for q in range(0, 8):
            assert S.count_graphs(4, 4, q) == math.comb(q + 6, 6)

    def test_budget_error_not_wrong_answer(self):
        with pytest.raises(S.BudgetExceededError):
            S.count_graphs(4, 4, 6, node_budget=10)
        with pytest.raises(S.BudgetExceededError):  # verify all's counting call
            S.count_graphs(6, 4, 9, 2_000_000)

    def test_node_budget_is_one_per_call(self):
        # pinned: a change to the node semantics moves where budgets stop
        assert S.count_graphs(5, 4, 9, node_budget=271_069) == 421_495
        with pytest.raises(S.BudgetExceededError):
            S.count_graphs(5, 4, 9, node_budget=271_068)

    @staticmethod
    def one_call_per_node(n, s, q):
        """count_graphs' recursion with no leaf counted in place: one dfs
        call per tree node, leaves included.  Returns (count, nodes)."""
        open_sets, later = S._depth_tables(n, s, False)
        nodes = 0

        def dfs(k, choices, rem):
            nonlocal nodes
            nodes += 1
            if not open_sets[k]:
                return math.prod(choices[k:])
            total = 0
            for w in range(choices[k]):
                child, crem = choices[:], rem[:]
                for X, prs in later[k]:
                    r = crem[X] = rem[X] - w
                    for e in prs:
                        if r < child[e]:
                            child[e] = r
                total += dfs(k + 1, child, crem)
            return total

        return dfs(0, [q + 1] * math.comb(n, 2), [q + 1] * math.comb(n, s)), nodes

    def test_fold_keeps_one_node_per_tree_node_for_every_s(self):
        # at s = 2 the root counts every graph, one node, for q up to 12; for
        # s >= 3 the node at depth P-5 counts its subtree in place (the root at
        # n = 3), and each (n, s) climbs q until the reference passes 20,000 nodes
        rows = 0
        for n in range(2, 8):
            for s in range(2, n + 1):
                for q in range(13) if s == 2 else count():
                    value, nodes = self.one_call_per_node(n, s, q)
                    assert S.count_graphs(n, s, q, node_budget=nodes) == value, (n, s, q)
                    with pytest.raises(S.BudgetExceededError):
                        S.count_graphs(n, s, q, node_budget=nodes - 1)
                    rows += 1
                    if nodes > 20_000:
                        break
        assert rows == 368

    @pytest.mark.slow
    def test_deepest_pinned_count_is_node_exact(self):
        # (6,4,8), next to the paper's counting point (6,4,9), takes 22,622,784
        # nodes with one call per node (more than the default budget)
        assert S.count_graphs(6, 4, 8, node_budget=22_622_784) == 29_598_215
        with pytest.raises(S.BudgetExceededError):
            S.count_graphs(6, 4, 8, node_budget=22_622_783)

    @pytest.mark.slow
    def test_paper_counting_point(self):
        # verify counting's point (s, q) = (2r, (a-1)*C(2r,2) + ex(2r, K_{r+1}) - 1)
        # at n = 6, a = r = 2, which it skips at the default budget; the budget
        # is the count's node total
        assert S.count_graphs(6, 4, 9, node_budget=70_718_747) == 104_079_865


class TestTableLimit:
    def test_oversized_instances_refused_before_any_table(self, monkeypatch):
        # (26,13) has C(26,13) = 10,400,600 s-sets at any budget, and the
        # oracle at n = 24 an incidence row for each of 2**24 - 25 s-sets
        def build(*args, **kwargs):
            raise AssertionError("table built")

        for module, name in ((S, "combinations"), (S.np, "zeros"), (M, "combinations")):
            monkeypatch.setattr(module, name, build)
        with pytest.raises(ValueError, match="table of over"):
            S.count_graphs(26, 13, 1, node_budget=1000)
        with pytest.raises(ValueError, match="table of over"):
            S.max_product_search(26, 13, 100, node_budget=1000)
        with pytest.raises(S.BudgetExceededError, match="incidence"):
            S.brute_force(24, 2, 0, "sum", 0)


class TestOracle:
    def test_cap_at_bound_reproduces_small_values(self):
        assert S.brute_force(3, 2, 3, "product", 3).value == 27
        assert S.brute_force(3, 2, 3, "sum", 3).value == 9
        assert S.brute_force(3, 2, 2, "count", 2).value == 27

    def test_generous_cap_changes_nothing(self):
        for mode in ("sum", "product", "count"):
            tight = S.brute_force(4, 3, 5, mode, 5).value
            loose = S.brute_force(4, 3, 5, mode, 9).value
            assert tight == loose

    def test_budget_guard(self):
        S._bf_table.cache_clear()
        with pytest.raises(S.BudgetExceededError):  # 10^10 assignments
            S.brute_force(5, 3, 9, "sum", 9)
        assert S._bf_table(5)["levels"] == []  # refused before enumerating
        assert S.brute_force(5, 3, 2, "sum", 2).value == S.max_sum_search(5, 3, 2).value
        with pytest.raises(S.BudgetExceededError):  # (cap+1)^2 table cells at n = 2
            S.brute_force(2, 2, 10**4, "sum", 10**4)

    def test_budget_keeps_codes_in_int64(self):
        # every index, sum and product of an admitted instance is below _IDX
        assert S.DEFAULT_ORACLE_BUDGET < S._IDX

    def test_interrupted_growth_keeps_only_finished_levels(self, monkeypatch):
        cases = [(s, mode) for s in (2, 3, 4) for mode in ("sum", "product", "count")]

        def run():
            outs = {(s, mode): S.brute_force(4, s, 6, mode, 6) for s, mode in cases}
            return {case: (out.value, out.witness and out.witness.weights()) for case, out in outs.items()}

        def same_levels(levels, want):
            return all(
                a.keys() == b.keys() and all(np.array_equal(a[s], b[s]) for s in b)
                for a, b in zip(levels, want, strict=True)
            )

        S._bf_table.cache_clear()
        fresh, fresh_levels = run(), S._bf_table(4)["levels"]
        S._bf_table.cache_clear()
        calls, bincount = [0], np.bincount

        def failing(*args, **kwargs):
            calls[0] += 1
            if calls[0] == 30:  # partway through level 2: 3 calls at level 0, then 18 per level
                raise MemoryError
            return bincount(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(S.np, "bincount", failing)
            with pytest.raises(MemoryError):
                S.brute_force(4, 3, 6, "sum", 6)
        assert same_levels(S._bf_table(4)["levels"], fresh_levels[:2])
        assert run() == fresh
        assert same_levels(S._bf_table(4)["levels"], fresh_levels)

    def test_chunks_that_split_blocks_keep_the_tables(self, monkeypatch):
        # at _CHUNK = 7 every block of n = 4 from level 2 on, and of n = 3
        # from level 3 on, spans several settings of its high digits
        def grow(n, cap):
            S._bf_table.cache_clear()
            return S._bf_grow(n, cap)

        for n, cap in ((4, 3), (3, 6)):
            want = grow(n, cap)
            with monkeypatch.context() as m:
                m.setattr(S, "_CHUNK", 7)
                got = grow(n, cap)
            assert len(got) == len(want) == cap + 1
            for a, b in zip(got, want):
                assert a.keys() == b.keys() == set(range(2, n + 1))
                assert all(np.array_equal(a[s], b[s]) for s in b), (n, cap)
        S._bf_table.cache_clear()

    def test_witness_does_not_depend_on_cap(self):
        cases = [(s, q, mode) for s in (2, 3, 4) for q in (3, 5, 7) for mode in ("sum", "product")]
        fresh = {}
        for s, q, mode in cases:
            S._bf_table.cache_clear()
            out = S.brute_force(4, s, q, mode, q)
            fresh[s, q, mode] = out.value, out.witness.weights()
        S.brute_force(4, 2, 12, "sum", 12)  # grows the n = 4 table to cap 12
        for s, q, mode in cases:
            out = S.brute_force(4, s, q, mode, q)
            assert (out.value, out.witness.weights()) == fresh[s, q, mode]
        # a larger cap only adds assignments of larger index
        ties = 0
        for s in (2, 3, 4):
            for mode in ("sum", "product"):
                for c in range(10):
                    lo, hi = (S.brute_force(4, s, 9, mode, cap) for cap in (c, c + 3))
                    if lo.value == hi.value:
                        assert lo.witness.weights() == hi.witness.weights()
                        ties += 1
        assert ties >= 6

    @pytest.mark.parametrize("n,cap", [(3, 3), (4, 2)])
    def test_matches_loop_enumeration(self, n, cap):
        """Value, count and smallest-index witness against a plain loop over
        the assignments in index order: by largest entry c, then by the
        first entry equal to c, then least significant entry first."""
        P = n * (n - 1) // 2
        order = []
        for c in range(cap + 1):
            for j in range(P):
                for high in product(range(c + 1), repeat=P - 1 - j):
                    for low in product(range(c), repeat=j):
                        order.append(Multigraph(n, [*low[::-1], c, *high[::-1]]))
        assert len({g.weights() for g in order}) == len(order) == (cap + 1) ** P
        for s in range(2, n + 1):
            for q in range(7):
                feasible = [g for g in order if g.satisfies(s, q)]
                assert S.brute_force(n, s, q, "count", cap).value == len(feasible)
                for mode in ("sum", "product"):
                    best = max(feasible, key=lambda g: S._graph_value(g, mode))  # first maximum
                    out = S.brute_force(n, s, q, mode, cap)
                    assert out.value == S._graph_value(best, mode)
                    assert out.witness.weights() == best.weights()

    @pytest.mark.parametrize("n,cap", [(3, 3), (4, 2), (5, 1)])
    def test_decode_is_one_to_one(self, n, cap):
        """Indices 0..(cap+1)^P - 1 decode onto every assignment with entries
        <= cap, each once, and index i's largest entry is _iroot(i, P)."""
        P = n * (n - 1) // 2
        decoded = [S._decode_assignment(n, i).weights() for i in range((cap + 1) ** P)]
        assert sorted(decoded) == list(product(range(cap + 1), repeat=P))
        assert all(max(w) == S._iroot(i, P) for i, w in enumerate(decoded))

    def test_witness_is_certified(self, monkeypatch):
        monkeypatch.setattr(S, "_certified", lambda *args: False)
        with pytest.raises(RuntimeError, match="oracle witness fails its certificate"):
            S.brute_force(3, 2, 3, "sum", 3)

    def test_witness_is_sound(self):
        out = S.brute_force(4, 3, 7, "product", 7)
        assert out.witness.satisfies(3, 7)
        assert out.witness.edge_product() == out.value


class TestEngineAgainstOracle:
    @pytest.mark.parametrize("n,s", [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
    def test_values_agree(self, n, s):
        for q in (0, 1, 3, 6, 10):
            assert (
                S.max_product_search(n, s, q).value
                == S.brute_force(n, s, q, "product", q).value
            )
            assert (
                S.max_sum_search(n, s, q).value
                == S.brute_force(n, s, q, "sum", q).value
            )
            assert S.count_graphs(n, s, q) == S.brute_force(n, s, q, "count", q).value

    def test_values_agree_at_n5(self):
        # 5^10 assignments at cap 4; n = 6 (3^15 at cap 2) is the slow test below
        for s in range(2, 6):
            for q in range(5):
                assert S.max_product_search(5, s, q).value == S.brute_force(5, s, q, "product", q).value
                assert S.max_sum_search(5, s, q).value == S.brute_force(5, s, q, "sum", q).value
                assert S.count_graphs(5, s, q) == S.brute_force(5, s, q, "count", q).value

    @pytest.mark.slow
    def test_values_agree_at_n6(self):
        # 45 values at 3^15 assignments (cap 2); opt in with `pytest -m slow`
        for s in range(2, 7):
            for q in range(3):
                assert S.max_product_search(6, s, q).value == S.brute_force(6, s, q, "product", q).value
                assert S.max_sum_search(6, s, q).value == S.brute_force(6, s, q, "sum", q).value
                assert S.count_graphs(6, s, q) == S.brute_force(6, s, q, "count", q).value


class TestEngineContracts:
    def test_certificate_checks_every_condition(self):
        G = Multigraph.constant(4, 2)  # a (3,6)-graph with edge sum 12
        assert S._certified(G, 4, 3, 6, "sum", 12)
        assert not S._certified(G, 5, 3, 6, "sum", 12)  # vertex count
        assert not S._certified(G, 4, 3, 5, "sum", 12)  # sparsity
        assert not S._certified(G, 4, 3, 6, "sum", 13)  # value
        assert not S._certified(G, 4, 3, 6, "product", 12)  # value in its mode

    @pytest.mark.parametrize("search", [S.max_sum_search, S.max_product_search])
    def test_engine_witness_is_certified(self, monkeypatch, search):
        monkeypatch.setattr(S, "_certified", lambda *args: False)
        with pytest.raises(RuntimeError, match="engine witness fails its certificate"):
            search(4, 3, 5)

    def test_witness_soundness(self):
        for n, s, q in ((5, 3, 8), (5, 4, 15), (6, 4, 15)):
            for runner, mode in (
                (S.max_product_search, "product"),
                (S.max_sum_search, "sum"),
            ):
                out = runner(n, s, q)
                assert out.witness.satisfies(s, q)
                value = (
                    out.witness.edge_product()
                    if mode == "product"
                    else out.witness.edge_sum()
                )
                assert value == out.value

    def test_per_edge_bound_in_product_witness(self):
        for n, s, q in ((5, 3, 8), (4, 4, 15), (5, 4, 15)):
            out = S.max_product_search(n, s, q)
            cap = q - (math.comb(s, 2) - 1)
            assert max(out.witness.weights()) <= cap
            # above the trivial bound the optimum never needs a zero weight
            assert out.witness.min_weight() >= 1

    def test_monotone_in_q(self):
        vals = [S.max_product_search(4, 3, q).value for q in range(3, 14)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_monotone_in_s(self):
        for q in (6, 9, 12):
            v2 = S.max_product_search(4, 2, q).value
            v3 = S.max_product_search(4, 3, q).value
            v4 = S.max_product_search(4, 4, q).value
            assert v2 >= v3 >= v4

    def test_construction_dominance(self):
        for a, r, d in ((2, 2, 1), (3, 2, 1)):
            params = Params(a, r, d)
            s = params.s_base
            q = C.max_edge_sum(params, s).value
            for n in range(s, 6):
                assert (
                    S.max_product_search(n, s, q).value
                    >= C.max_edge_product(params, n).value
                )

    def test_budget_bound_flagged_not_wrong(self):
        # (6,4,15) takes 396 nodes, the two-weight seed's 59 first, so 50 stops it
        out = S.max_product_search(6, 4, 15, node_budget=50)
        assert not out.optimal
        assert out.witness.satisfies(4, 15)
        full = S.max_product_search(6, 4, 15)
        assert full.optimal
        assert full.stats["upper"] == full.value
        assert out.value <= full.value <= out.stats["upper"]

    def test_deterministic(self):
        a = S.max_product_search(5, 4, 15)
        b = S.max_product_search(5, 4, 15)
        assert a.value == b.value
        assert a.witness == b.witness

    def test_input_validation(self):
        with pytest.raises(ValueError):
            S.max_product_search(3, 5, 10)
        with pytest.raises(ValueError):
            S.max_sum_search(4, 1, 10)
        with pytest.raises(ValueError):
            S.count_graphs(4, 3, -1)


class TestSeed:
    @pytest.mark.parametrize("seed", [Multigraph.constant(4, 3), Multigraph.constant(5, 2)])
    @pytest.mark.parametrize("engine", [S.max_sum_search, S.max_product_search])
    def test_seed_must_be_an_sq_graph_on_n_vertices(self, monkeypatch, engine, seed):
        # K_4 with weight 3 has 18 > 15 on its 4-set; K_5 is on the wrong vertex count
        def no_search(*args):
            raise AssertionError("a search started")

        monkeypatch.setattr(S, "_seed_witnesses", no_search)
        with pytest.raises(ValueError, match="seed is not an"):
            engine(4, 4, 15, seed=seed)


def canonical_line(n: int, s: int, q: int, mode: str = "sum") -> str:
    """The line append_cache writes for a witness-less record of the key."""
    rec = S.cache_record(n, s, q, S.SearchOutcome(mode, 7, None, True, {}))
    return json.dumps(rec, separators=(",", ":"), sort_keys=True)


def reference_load_cache(path: str, key: tuple) -> tuple[dict | None, int]:
    """load_cache's line loop as it was before the block scan: every line is
    read and matched in Python.  Returns the record and the malformed count."""
    n, s, q, mode = key
    own = (mode, str(n), str(q), str(s))  # the key's _CACHE_HEAD groups
    out: dict[tuple, dict] = {}
    skipped = 0
    try:
        fh = open(path, "r", encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return None, 0
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            head = S._CACHE_HEAD.match(line)
            if head and head.groups() != own:
                continue
            try:
                rec = json.loads(line)
                if rec.get("engine_version") != S.ENGINE_VERSION:
                    continue
                k = rec["key"]
                out[(k["n"], k["s"], k["q"], k["mode"])] = rec
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError):
                skipped += 1
    return out.get(key), skipped


# keys that share fields, and whose spellings share prefixes ("n":1 and "n":13)
SCAN_KEYS = [(3, 2, 4, "sum"), (3, 2, 4, "product"), (3, 2, 5, "sum"), (13, 2, 4, "sum"),
             (1, 2, 4, "sum"), (3, 2, 44, "sum"), (4, 3, 4, "sum")]


def random_cache_bytes(rng: random.Random) -> bytes:
    """A cache file mixing every kind of line a lookup meets."""
    lines = []
    for value in range(rng.randrange(40)):
        n, s, q, mode = rng.choice(SCAN_KEYS)
        rec = S.cache_record(n, s, q, S.SearchOutcome(mode, value, None, True, {}))
        line = json.dumps(rec, separators=(",", ":"), sort_keys=True)
        kind = rng.randrange(10)
        if kind == 1:  # hand-formatted: spaces, and the key's fields in another order
            rec["key"] = dict(rng.sample(sorted(rec["key"].items()), 4))
            line = json.dumps(rec)
        elif kind == 2:  # own and other heads after leading whitespace
            line = rng.choice([" ", "\t", " \t "]) + line
        elif kind == 3:  # blank or whitespace-only
            line = rng.choice(["", " ", "\t \t", "\x0c"])
        elif kind == 4:  # torn
            line = line[: rng.randrange(1, len(line))]
        elif kind == 5:
            line = line.replace(f'"n":{n},', rng.choice([f'"n":0{n},', f'"n":{n}.0,']))
        elif kind == 6:
            line = line.replace(f'"engine_version":"{S.ENGINE_VERSION}"', '"engine_version":"0"')
        data = line.encode()
        if kind == 7:  # bytes that are not UTF-8
            at = rng.randrange(len(data) + 1)
            data = data[:at] + rng.choice([b"\xff", b"\xc3", b"\xfe\xff"]) + data[at:]
        lines.append(data)
    ends = [rng.choice([b"\n", b"\r\n", b"\r"]) for _ in lines]
    if ends and rng.random() < 0.5:
        ends[-1] = b""  # no final newline
    return b"".join(line + end for line, end in zip(lines, ends))


class TestCache:
    def test_round_trip_and_short_circuit(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        out = S.max_product_search(4, 4, 15)
        S.append_cache(path, S.cache_record(4, 4, 15, out))
        hit = S.cached_outcome(path, 4, 4, 15, "product")
        assert hit == out.witness
        assert S.cached_outcome(path, 4, 4, 14, "product") is None
        # 216 meets the root bound, so the seeded search takes no node
        again = S.max_product_search(4, 4, 15, seed=hit)
        assert (again.value, again.optimal, again.stats["nodes"]) == (216, True, 0)
        assert again.stats["source"] == "cache"

    def test_record_is_line_json(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        out = S.max_sum_search(3, 2, 4)
        S.append_cache(path, S.cache_record(3, 2, 4, out))
        line = open(path).read().strip()
        assert "\n" not in line
        assert '"engine_version":"1"' in line.replace(" ", "")

    def test_version_mismatch_invalidates(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        out = S.max_sum_search(3, 2, 4)
        rec = S.cache_record(3, 2, 4, out)
        rec["engine_version"] = "0-obsolete"
        S.append_cache(path, rec)
        assert S.cached_outcome(path, 3, 2, 4, "sum") is None

    def test_non_optimal_records_do_not_short_circuit(self, tmp_path):
        # a budget-bound record's witness is a lower bound: it seeds, nothing more
        path = str(tmp_path / "cache.jsonl")
        out = S.max_product_search(6, 4, 15, node_budget=50)
        assert not out.optimal
        S.append_cache(path, S.cache_record(6, 4, 15, out))
        hit = S.cached_outcome(path, 6, 4, 15, "product")
        assert hit == out.witness
        again = S.max_product_search(6, 4, 15, node_budget=50, seed=hit)
        assert not again.optimal and again.stats["upper"] == out.stats["upper"]
        full = S.max_product_search(6, 4, 15, seed=hit)
        assert (full.value, full.optimal) == (419904, True)

    @pytest.mark.parametrize("flag", ["false", 1])
    def test_optimal_flag_is_not_read(self, tmp_path, flag):
        path = str(tmp_path / "cache.jsonl")
        out = S.max_product_search(4, 4, 15)
        rec = S.cache_record(4, 4, 15, out)
        rec["optimal"] = flag
        S.append_cache(path, rec)
        hit = S.cached_outcome(path, 4, 4, 15, "product")
        assert hit == out.witness
        again = S.max_product_search(4, 4, 15, seed=hit)
        assert (again.value, again.optimal, again.stats["source"]) == (216, True, "cache")

    def test_torn_last_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        out = S.max_sum_search(3, 2, 4)
        S.append_cache(path, S.cache_record(3, 2, 4, out))
        line = json.dumps(S.cache_record(3, 2, 5, S.max_sum_search(3, 2, 5)))
        with open(path, "a") as fh:
            fh.write(line[: len(line) // 2])
        with pytest.warns(S.CacheWarning, match="skipped 1 malformed"):
            assert S.cached_outcome(path, 3, 2, 4, "sum") == out.witness
        with pytest.warns(S.CacheWarning):
            assert S.cached_outcome(path, 3, 2, 5, "sum") is None

    def test_non_utf8_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        out = S.max_sum_search(3, 2, 4)
        S.append_cache(path, S.cache_record(3, 2, 4, out))
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe garbage\n")
        with pytest.warns(S.CacheWarning, match="skipped 1 malformed"):
            assert S.cached_outcome(path, 3, 2, 4, "sum") == out.witness

    def test_deeply_nested_line_is_skipped(self, tmp_path):
        # json.loads raises RecursionError, not ValueError, on deep nesting
        path = str(tmp_path / "cache.jsonl")
        out = S.max_sum_search(3, 2, 4)
        S.append_cache(path, S.cache_record(3, 2, 4, out))
        with open(path, "a") as fh:
            fh.write("[" * 200_000 + "\n")
        S.append_cache(path, S.cache_record(3, 2, 5, S.max_sum_search(3, 2, 5)))
        with pytest.warns(S.CacheWarning, match="skipped 1 malformed"):
            assert S.cached_outcome(path, 3, 2, 4, "sum") == out.witness
        with pytest.warns(S.CacheWarning, match="skipped 1 malformed"):
            assert S.cached_outcome(path, 3, 2, 5, "sum") is not None

    def test_record_without_key_fields_is_skipped(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        rec = S.cache_record(3, 2, 4, S.max_sum_search(3, 2, 4))
        del rec["key"]["q"]
        S.append_cache(path, rec)
        with pytest.warns(S.CacheWarning, match="skipped 1 malformed"):
            assert S.load_cache(path, (3, 2, 4, "sum")) is None

    def test_edited_value_is_a_miss(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        rec = S.cache_record(4, 4, 15, S.max_product_search(4, 4, 15))
        rec["value"] = "99999999"
        S.append_cache(path, rec)
        assert S.cached_outcome(path, 4, 4, 15, "product") is None

    def test_infeasible_witness_is_a_miss(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        rec = S.cache_record(3, 2, 4, S.max_sum_search(3, 2, 4))
        heavy = Multigraph.constant(3, 5)
        rec["witness"] = heavy.to_dict()
        rec["value"] = str(heavy.edge_sum())
        S.append_cache(path, rec)
        assert S.cached_outcome(path, 3, 2, 4, "sum") is None

    def test_witness_on_other_vertex_count_is_a_miss(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        rec = S.cache_record(3, 2, 4, S.max_sum_search(3, 2, 4))
        rec["witness"] = Multigraph.constant(4, 4).to_dict()  # a (2,4)-graph, on 4 vertices
        rec["value"] = "24"
        S.append_cache(path, rec)
        assert S.cached_outcome(path, 3, 2, 4, "sum") is None

    def test_oversized_witness_is_a_miss(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        rec = S.cache_record(4, 4, 15, S.max_product_search(4, 4, 15))
        rec["witness"] = {"n": 10**8, "edges": []}
        S.append_cache(path, rec)
        assert S.cached_outcome(path, 4, 4, 15, "product") is None

    def test_blank_lines_are_not_malformed(self, tmp_path, recwarn):
        path = str(tmp_path / "cache.jsonl")
        with open(path, "w") as fh:
            fh.write("\n   \n")
        S.append_cache(path, S.cache_record(3, 2, 4, S.max_sum_search(3, 2, 4)))
        with open(path, "a") as fh:
            fh.write(" \t \n\n")
        assert S.load_cache(path, (3, 2, 4, "sum"))["key"] == {"n": 3, "s": 2, "q": 4, "mode": "sum"}
        assert not [w for w in recwarn if issubclass(w.category, S.CacheWarning)]

    def test_latest_record_wins(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        out = S.max_sum_search(3, 2, 4)
        stale = S.cache_record(3, 2, 4, out)
        stale["value"] = "999"
        S.append_cache(path, stale)
        S.append_cache(path, S.cache_record(3, 2, 4, out))
        assert S.cached_outcome(path, 3, 2, 4, "sum") == out.witness

    # load_cache parses only the lines that can hold its key: a line that
    # opens with another key's head, as append_cache writes it, is skipped

    def test_damaged_line_of_the_key_is_counted(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        out = S.max_sum_search(3, 2, 4)
        S.append_cache(path, S.cache_record(3, 2, 4, out))
        with open(path, "a") as fh:
            fh.write(canonical_line(3, 2, 4)[:-5] + "\n")
        with pytest.warns(S.CacheWarning, match="skipped 1 malformed"):
            assert S.cached_outcome(path, 3, 2, 4, "sum") == out.witness

    def test_damaged_line_of_another_key_is_counted_by_its_own_lookup(self, tmp_path, recwarn):
        path = str(tmp_path / "cache.jsonl")
        out = S.max_sum_search(3, 2, 4)
        S.append_cache(path, S.cache_record(3, 2, 4, out))
        damaged = canonical_line(3, 2, 5)[:-5]
        assert S._CACHE_HEAD.match(damaged)  # the head is intact
        with open(path, "a") as fh:
            fh.write(damaged + "\n")
        assert S.cached_outcome(path, 3, 2, 4, "sum") == out.witness
        assert not [w for w in recwarn if issubclass(w.category, S.CacheWarning)]
        with pytest.warns(S.CacheWarning, match="skipped 1 malformed"):
            assert S.cached_outcome(path, 3, 2, 5, "sum") is None

    def test_hand_formatted_record_is_found(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        out = S.max_sum_search(3, 2, 4)
        rec = S.cache_record(3, 2, 4, out)
        rec["key"] = {"s": 2, "q": 4, "mode": "sum", "n": 3}
        with open(path, "w") as fh:
            fh.write(canonical_line(3, 2, 5) + "\n" + json.dumps(rec) + "\n")
        assert S.cached_outcome(path, 3, 2, 4, "sum") == out.witness

    @pytest.mark.parametrize("spelling, found", [("3.0", True), ("03", False)])
    def test_other_number_spellings_are_parsed(self, tmp_path, recwarn, spelling, found):
        # JSON reads 3.0 as a key equal to 3, and rejects 03; neither is
        # append_cache's spelling, so the head pattern leaves both to json
        path = str(tmp_path / "cache.jsonl")
        line = canonical_line(3, 2, 4).replace('"n":3,', f'"n":{spelling},')
        assert not S._CACHE_HEAD.match(line)
        with open(path, "w") as fh:
            fh.write(line + "\n")
        assert (S.load_cache(path, (3, 2, 4, "sum")) is not None) is found
        assert S.load_cache(path, (3, 2, 5, "sum")) is None
        malformed = [w for w in recwarn if issubclass(w.category, S.CacheWarning)]
        assert len(malformed) == (0 if found else 2)

    def test_unhashable_key_field_is_malformed(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        with open(path, "w") as fh:
            fh.write(canonical_line(3, 2, 4).replace('"n":3,', '"n":[1],') + "\n")
        with pytest.warns(S.CacheWarning, match="skipped 1 malformed"):
            assert S.load_cache(path, (3, 2, 4, "sum")) is None

    def test_latest_record_wins_across_layouts(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        out = S.max_sum_search(3, 2, 4)
        good = S.cache_record(3, 2, 4, out)
        stale = dict(good, value="999")
        for rec, hand in [(stale, False), (good, True), (stale, True), (good, False)]:
            if hand:
                with open(path, "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
            else:
                S.append_cache(path, rec)
            S.append_cache(path, S.cache_record(3, 2, 5, out))
            assert S.load_cache(path, (3, 2, 4, "sum"))["value"] == rec["value"]
            assert (S.cached_outcome(path, 3, 2, 4, "sum") == out.witness) is (rec is good)

    def test_lookup_parses_only_its_own_lines(self, tmp_path, monkeypatch):
        # 300 canonical records of other keys, many sharing fields with the
        # key, and two of its own: the lookup decodes exactly those two
        path = str(tmp_path / "cache.jsonl")
        keys = product((2, 3, 4), (2, 3), range(26), ("sum", "product"))
        others = [k for k in keys if k != (3, 2, 4, "sum")][:300]
        assert len(others) == 300
        out = S.max_sum_search(3, 2, 4)
        for i, key in enumerate(others):
            with open(path, "a") as fh:
                fh.write(canonical_line(*key) + "\n")
            if i in (100, 200):
                S.append_cache(path, S.cache_record(3, 2, 4, out))
        calls = []
        loads = json.loads
        monkeypatch.setattr(S.json, "loads", lambda text, **kw: calls.append(text) or loads(text, **kw))
        assert S.load_cache(path, (3, 2, 4, "sum"))["value"] == str(out.value)
        assert len(calls) == 2

    def test_append_after_torn_last_line_starts_a_new_line(self, tmp_path, recwarn):
        path = str(tmp_path / "cache.jsonl")
        rec = S.cache_record(3, 2, 5, S.max_sum_search(3, 2, 5))
        line = json.dumps(rec, separators=(",", ":"), sort_keys=True)
        torn = line[: len(line) // 2]
        assert S._CACHE_HEAD.match(torn)  # (3,2,5)'s head is intact
        with open(path, "w") as fh:
            fh.write(torn)
        out = S.max_sum_search(3, 2, 4)
        S.append_cache(path, S.cache_record(3, 2, 4, out))
        assert open(path).read().split("\n")[0] == torn
        assert S.cached_outcome(path, 3, 2, 4, "sum") == out.witness
        assert not [w for w in recwarn if issubclass(w.category, S.CacheWarning)]
        with pytest.warns(S.CacheWarning, match="skipped 1 malformed"):
            assert S.cached_outcome(path, 3, 2, 5, "sum") is None

    @pytest.mark.parametrize("block", [None, 37])
    def test_scan_matches_the_line_loop(self, tmp_path, monkeypatch, block):
        # the block scan skips exactly the lines the old loop skipped: each
        # lookup returns the same record and reports the same malformed count;
        # a block of 37 characters cuts most lines
        if block:
            monkeypatch.setattr(S, "_CACHE_BLOCK", block)
        path = str(tmp_path / "cache.jsonl")
        rng = random.Random(2024)
        for _ in range(150):
            with open(path, "wb") as fh:
                fh.write(random_cache_bytes(rng))
            for key in SCAN_KEYS:
                want, skipped = reference_load_cache(path, key)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", S.CacheWarning)
                    assert S.load_cache(path, key) == want
                messages = [str(w.message) for w in caught]
                assert messages == ([f"skipped {skipped} malformed line(s) in cache {path}"] if skipped else [])
