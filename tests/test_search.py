"""Branch-and-bound engines, counting, oracle cross-checks, and the cache."""

from __future__ import annotations

import contextlib
import json
import math
import random
from functools import lru_cache, partial
from itertools import combinations, permutations, product

import pytest

from sqgraphs import constructions as C
from sqgraphs import search as S
from sqgraphs.formulas import am_gm_bound
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
        assert S.max_product_search(4, 4, 12).value == am_gm_bound(2, 6, 0) == 64

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
        assert out.stats["nodes"] <= 3_778

    @pytest.mark.parametrize(
        "engine,n,s,q,budget,expected",
        [
            # a climb (n >= s+2) counts its search of ex(n-1), which keeps
            # ties, and both phases
            ("product", 6, 4, 15, S.DEFAULT_NODE_BUDGET, (419904, True, 709, 345, 168, 419904)),
            ("product", 7, 4, 15, S.DEFAULT_NODE_BUDGET, (60466176, True, 3778, 1458, 1141, 60466176)),
            ("product", 6, 4, 21, S.DEFAULT_NODE_BUDGET, (95551488, True, 1221, 688, 302, 95551488)),
            ("product", 7, 6, 41, S.DEFAULT_NODE_BUDGET, (918330048, True, 19612, 10495, 6280, 918330048)),
            ("sum", 7, 5, 13, 20_000, (23, False, 20001, 9913, 3261, 26)),
            # the search stops at the leaf where the incumbent meets upper
            ("product", 5, 4, 15, S.DEFAULT_NODE_BUDGET, (7776, True, 146, 88, 13, 7776)),
            ("sum", 4, 3, 13, S.DEFAULT_NODE_BUDGET, (26, True, 6, 0, 0, 26)),
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

    def test_seed_count_does_not_grow_with_q(self):
        # the full enumeration built 493 seeds at q = 301 and never finished
        # at q = 10**6; no seed meets the root bound on either instance
        for search, n, s, seeds in ((S.max_sum_search, 5, 3, 3), (S.max_product_search, 6, 4, 4)):
            for q in (301, 10**6):
                assert search(n, s, q, node_budget=1).stats["seeds"] == seeds, (n, s, q)


class TestDepthTables:
    def test_tables_follow_their_definition(self):
        # X indexes combinations(range(n), s) in order; each getter, applied
        # to the list of pair ranks, reads back the pairs it selects
        for n in range(2, 9):
            ranks = list(range(n * (n - 1) // 2))
            for s in range(2, n + 1):
                ssets = [
                    sorted(pair_rank(u, v) for u, v in combinations(X, 2))
                    for X in combinations(range(n), s)
                ]
                open_sets, later = S._depth_tables(n, s)
                assert len(open_sets) == len(later) == len(ranks)
                for k in ranks:
                    assert later[k] == tuple(
                        (X, tuple(e for e in prs if e > k))
                        for X, prs in enumerate(ssets)
                        if k in prs
                    ), (n, s, k)
                    tails = [(X, tuple(e for e in prs if e >= k)) for X, prs in enumerate(ssets)]
                    assert [(X, get(ranks)) for X, get in open_sets[k]] == [
                        (X, tail) for X, tail in tails if len(tail) >= 2
                    ], (n, s, k)


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

class TestClimb:
    """Product searches on n >= s+2 vertices climb from n-1 (search._climb)."""

    @staticmethod
    def direct(n, s, q):
        """The direct search at n from the best seed, as run for n <= s+1."""
        upper = S._averaging_chain(n, s, q, True)
        seed = max(S._seed_witnesses(n, s, q, "product"), key=Multigraph.edge_product)
        best = [seed.edge_product()]

        def leaf(value, W):
            best[0] = value
            if value >= upper:
                raise S._Stop
            return value

        if best[0] < upper:
            stats = {"nodes": 0, "bound_prunes": 0, "symmetry_prunes": 0}
            with contextlib.suppress(S._Stop):
                S._tree_search(n, s, q, True, S.DEFAULT_NODE_BUDGET, stats, best[0], leaf)
        return best[0]

    def test_matches_the_direct_search_on_the_grid(self):
        # every product instance of tests/golden/grid.json that climbs
        rows = nodes = 0
        for n in range(4, 8):
            for s in range(2, n - 1):
                for q in range(16 if n < 7 else 10):
                    out = S.max_product_search(n, s, q)
                    assert out.optimal
                    assert out.value == self.direct(n, s, q), (n, s, q)
                    assert out.witness.find_violation(s, q) is None
                    assert out.witness.edge_product() == out.value
                    rows, nodes = rows + 1, nodes + out.stats["nodes"]
        # pinned, so that a row needing more nodes shows here
        assert (rows, nodes) == (136, 7_349)

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
            return T - 1

        S._tree_search(7, 6, 41, True, S.DEFAULT_NODE_BUDGET, stats, T - 1, leaf)
        assert len(keep) == 6
        self.assert_nonisomorphic_optima(keep, T)

    def test_ties_hand_over_every_optimum(self):
        # the search of ex(7,6,41) that feeds the climb at n = 8 keeps ties:
        # its seed is optimal, so its list holds the lex-max form of each of
        # the six 7-vertex optima, and the climb extends them from there
        ties = []
        out = S._run_search(7, 6, 41, "product", S.DEFAULT_NODE_BUDGET, ties)
        assert (out.value, out.optimal, out.stats["nodes"]) == (918_330_048, True, 20_442)
        assert len(ties) == 6
        for W in ties:
            assert all(S._lex_leader(list(W), j, S._rank_table(7)) for j in range(2, 7))
        self.assert_nonisomorphic_optima(ties, out.value)
        # without ties no leaf beats the seed, and the search needs fewer nodes
        assert S.max_product_search(7, 6, 41).stats["nodes"] == 19_612

    def test_beats_the_construction_at_eight_vertices(self):
        # (2,3,1) is (s,q) = (6,41); the optimum is 4/3 of the construction's
        out = S.max_product_search(8, 6, 41)
        assert (out.value, out.optimal) == (892_616_806_656, True)
        assert 3 * out.value == 4 * C.max_edge_product(Params(2, 3, 1), 8).value
        # the search of ex(7) = T keeps its six optima as ties (20,442 nodes);
        # the first extends to the optimum, which lifts T' above T: phase 1
        # ends there, and phase 2 does not run
        assert out.stats["nodes"] == 20_572
        assert out.stats["climb"] == {
            "seed": 669_462_604_992, "L": 892_616_806_656, "T": 918_330_048, "kept": 1,
            "collect_nodes": 0, "extend_nodes": 130,
        }

    def test_phase_two_runs_at_the_optimum_below(self):
        # phase 1 raises L from the seed's 1 to 4 = ex(7,6,17), so T' =
        # ex(7): phase 2 still runs, collecting at T' and handing over two
        # graphs; a climb that skipped phase 2 here would stop at 300 nodes
        out = S.max_product_search(8, 6, 17)
        assert (out.value, out.optimal, out.stats["nodes"]) == (4, True, 573)
        assert out.stats["climb"] == {
            "seed": 1, "L": 4, "T": 4, "kept": 2, "collect_nodes": 273, "extend_nodes": 7,
        }

    def test_stats_sum_over_phases(self):
        out = S.max_product_search(7, 4, 15)
        below = S._run_search(6, 4, 15, "product", S.DEFAULT_NODE_BUDGET, [])  # keeps ties, as the climb's
        climb = out.stats["climb"]
        assert climb == {
            "seed": 60466176, "L": 60466176, "T": 361596, "kept": 4,
            "collect_nodes": 2990, "extend_nodes": 72,
        }
        assert out.stats["nodes"] == below.stats["nodes"] + climb["collect_nodes"] + climb["extend_nodes"]
        for key in ("bound_prunes", "symmetry_prunes"):
            assert out.stats[key] > below.stats[key]
        assert "climb" not in S.cache_record(7, 4, 15, out)["stats"]

    @pytest.mark.parametrize(
        "budget,climb",
        [
            (50, None),
            (160, {"L": None, "T": 7776, "kept": 1, "collect_nodes": 0, "extend_nodes": 4}),
            (270, {"L": 419_904, "T": 5608, "kept": 1, "collect_nodes": 91, "extend_nodes": 23}),
            (500, {"L": 419_904, "T": 5608, "kept": 3, "collect_nodes": 303, "extend_nodes": 41}),
        ],
        ids=["50", "160", "270", "500"],
    )
    def test_budget_bound_in_every_phase(self, budget, climb):
        # (6,4,15) climbs in 709 nodes: 1-157 find ex(5,4,15), 158-174 extend
        # its one optimum in phase 1, and phase 2 collects in the rest, save
        # 266-277 and 387-398 where it extends; so 50, 160, 270 and 500 stop
        # the search at n-1, a phase-1 extension, a phase-2 extension and the
        # phase-2 collect
        out = S.max_product_search(6, 4, 15, node_budget=budget)
        assert not out.optimal
        assert out.stats["nodes"] == budget + 1
        assert out.stats.get("climb") == (climb and {"seed": 419_904, **climb})
        assert out.stats["upper"] == S._averaging_chain(6, 4, 15, True)
        assert out.witness.find_violation(4, 15) is None
        assert out.witness.edge_product() == out.value <= 419_904

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "n,s,q,value,nodes",
        [(9, 6, 41, 1_735_247_072_139_264, 734_147), (9, 4, 15, 12_694_994_583_552, 227_655)],
    )
    def test_nine_vertices(self, n, s, q, value, nodes):
        # the direct search needs 1,551,932 nodes for (9,4,15)
        out = S.max_product_search(n, s, q)
        assert (out.value, out.optimal, out.stats["nodes"]) == (value, True, nodes)


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
        with pytest.raises(S.BudgetExceededError):
            S.brute_force(5, 3, 9, "sum", 9, budget=1000)
        assert S._bf_table(5)["cap"] == -1  # refused before enumerating
        value = S.brute_force(5, 3, 2, "sum", 2).value
        assert value == S.max_sum_search(5, 3, 2).value
        # the budget gates a query; it does not key the table
        misses = S._bf_table.cache_info().misses
        assert S.brute_force(5, 3, 2, "sum", 2, budget=10**6).value == value
        assert S._bf_table.cache_info().misses == misses
        with pytest.raises(S.BudgetExceededError):  # (cap+1)^2 table cells at n = 2
            S.brute_force(2, 2, 10**4, "sum", 10**4)

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
        # (6,4,15) climbs in 709 nodes, 157 of them for ex(5,4,15), so 50 stops it
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


class TestCache:
    def test_round_trip_and_short_circuit(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        out = S.max_product_search(4, 4, 15)
        S.append_cache(path, S.cache_record(4, 4, 15, out))
        hit = S.cached_outcome(path, 4, 4, 15, "product")
        assert hit is not None
        assert hit.value == out.value
        assert hit.witness == out.witness
        assert hit.stats["source"] == "cache"
        assert S.cached_outcome(path, 4, 4, 14, "product") is None

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
        path = str(tmp_path / "cache.jsonl")
        out = S.max_product_search(6, 4, 15, node_budget=50)
        assert not out.optimal
        S.append_cache(path, S.cache_record(6, 4, 15, out))
        assert S.cached_outcome(path, 6, 4, 15, "product") is None

    @pytest.mark.parametrize("flag", ["false", 1])
    def test_optimal_must_be_json_true(self, tmp_path, flag):
        path = str(tmp_path / "cache.jsonl")
        rec = S.cache_record(4, 4, 15, S.max_product_search(4, 4, 15))
        rec["optimal"] = flag
        S.append_cache(path, rec)
        assert S.cached_outcome(path, 4, 4, 15, "product") is None

    def test_torn_last_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        out = S.max_sum_search(3, 2, 4)
        S.append_cache(path, S.cache_record(3, 2, 4, out))
        line = json.dumps(S.cache_record(3, 2, 5, S.max_sum_search(3, 2, 5)))
        with open(path, "a") as fh:
            fh.write(line[: len(line) // 2])
        with pytest.warns(S.CacheWarning, match="skipped 1 malformed"):
            assert S.cached_outcome(path, 3, 2, 4, "sum").value == out.value
        with pytest.warns(S.CacheWarning):
            assert S.cached_outcome(path, 3, 2, 5, "sum") is None

    def test_record_without_key_fields_is_skipped(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        rec = S.cache_record(3, 2, 4, S.max_sum_search(3, 2, 4))
        del rec["key"]["q"]
        S.append_cache(path, rec)
        with pytest.warns(S.CacheWarning, match="skipped 1 malformed"):
            assert S.load_cache(path) == {}

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

    def test_latest_record_wins(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        out = S.max_sum_search(3, 2, 4)
        stale = S.cache_record(3, 2, 4, out)
        stale["value"] = "999"
        S.append_cache(path, stale)
        S.append_cache(path, S.cache_record(3, 2, 4, out))
        assert S.cached_outcome(path, 3, 2, 4, "sum").value == out.value
