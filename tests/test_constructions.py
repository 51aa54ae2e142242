"""Construction builders and exact part-size optimization."""

from __future__ import annotations

import math
from itertools import combinations

import pytest

from sqgraphs import constructions as C
from sqgraphs import formulas as F
from sqgraphs.multigraph import Multigraph, Params


def ordered_compositions(n: int, r: int):
    """All ordered size tuples, with no canonical-form reduction."""
    if r == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in ordered_compositions(n - head, r - 1):
            yield (head,) + rest


def unreduced_optimum(value, params: Params, n: int):
    """Maximum and canonical argmax set from every ordered composition.

    Each optimal tail is sorted nonincreasing and duplicates are removed,
    so the set is comparable with OptResult.all_argmax.
    """
    scored = {
        sizes: value(params, sizes) for sizes in ordered_compositions(n, params.r)
    }
    best = max(scored.values())
    argmax = sorted({
        (sizes[0],) + tuple(sorted(sizes[1:], reverse=True))
        for sizes, val in scored.items()
        if val == best
    })
    return best, tuple(argmax)


UNREDUCED_PARAMS = (
    Params(2, 2, 1), Params(3, 2, 2), Params(2, 3, 1),
    Params(3, 1, 1), Params(2, 4, 1), Params(1, 3, 0),
)


def graph_from_sizes(params: Params, sizes) -> Multigraph:
    """Second, direct builder: assign weights from explicit part labels."""
    part_of = []
    for idx, v in enumerate(sizes):
        part_of.extend([idx] * v)
    n = len(part_of)
    a, d = params.a, params.d
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if part_of[i] != part_of[j]:
                edges.append([i, j, a + 1])
            elif part_of[i] == 0:
                edges.append([i, j, a - d])
            else:
                edges.append([i, j, a])
    return Multigraph.from_dict({"n": n, "edges": edges})


class TestBuilder:
    def test_degenerate_partition_is_constant(self):
        p = Params(2, 2, 1)
        assert C.turan_multigraph(p, (0, 5)) == Multigraph.constant(5, 2)

    def test_single_part_is_light_clique(self):
        assert C.turan_multigraph(Params(3, 1, 2), (4,)) == Multigraph.constant(4, 1)

    def test_pinned_product(self):
        G = C.turan_multigraph(Params(2, 2, 1), (2, 3))
        assert G.edge_product() == 5832
        assert G.edge_sum() == 25

    def test_matches_direct_builder(self):
        for params in (Params(2, 2, 1), Params(3, 3, 2), Params(4, 2, 0)):
            for sizes in ordered_compositions(6, params.r):
                if sum(sizes) == 0:
                    continue
                assert C.turan_multigraph(params, sizes) == graph_from_sizes(params, sizes)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            C.turan_multigraph(Params(2, 2, 1), (1, 2, 3))


class TestMaxEdgeSum:
    def test_pinned_with_argmax_set(self):
        opt = C.max_edge_sum(Params(2, 2, 1), 4)
        assert opt.value == 15
        assert opt.argmax == (1, 3)
        assert set(opt.all_argmax) == {(1, 3), (2, 2)}

    def test_agrees_with_unreduced_enumeration(self):
        for params in UNREDUCED_PARAMS:
            for n in range(0, 9):
                value, argmax = unreduced_optimum(C.construction_sum, params, n)
                opt = C.max_edge_sum(params, n)
                assert (opt.value, opt.all_argmax) == (value, argmax)
                assert opt.argmax == argmax[0]

    def test_sum_is_graph_sum(self):
        for params in (Params(2, 2, 1), Params(3, 3, 1)):
            for n in (4, 6):
                opt = C.max_edge_sum(params, n)
                assert C.turan_multigraph(params, opt.argmax).edge_sum() == opt.value

    def test_base_grade_identity_deficiency_one(self):
        # the sum optimum at s = 2r equals a*C(2r,2) + turan(2r, r+1) - 1
        for a in range(2, 7):
            for r in range(2, 5):
                s = 2 * r
                lhs = C.max_edge_sum(Params(a, r, 1), s).value
                assert lhs == a * math.comb(s, 2) + F.turan_number(s, r + 1) - 1

    def test_zero_deficiency_formula(self):
        # with no light-part discount the optimum is a*C(n,2) plus the
        # Turan count of cross pairs
        for a in (1, 2, 3):
            for r in (2, 3):
                for n in range(2, 13):
                    lhs = C.max_edge_sum(Params(a, r, 0), n).value
                    assert lhs == a * math.comb(n, 2) + F.turan_number(n, r + 1)


class TestMaxEdgeProduct:
    def test_pinned_small_cases(self):
        assert C.max_edge_product(Params(2, 2, 1), 4).value == 216
        assert C.max_edge_product(Params(2, 2, 1), 4).argmax == (1, 3)
        assert C.max_edge_product(Params(2, 2, 1), 5).value == 5832
        assert C.max_edge_product(Params(2, 2, 1), 5).argmax == (2, 3)

    def test_candidate_values_enumerated(self):
        p = Params(2, 2, 1)
        values = {
            sizes: C.construction_product(p, sizes)
            for sizes in [(0, 4), (1, 3), (2, 2)]
        }
        assert values == {(0, 4): 64, (1, 3): 216, (2, 2): 162}

    def test_agrees_with_unreduced_enumeration(self):
        for params in UNREDUCED_PARAMS:
            for n in range(0, 9):
                value, argmax = unreduced_optimum(C.construction_product, params, n)
                opt = C.max_edge_product(params, n)
                assert (opt.value, opt.all_argmax) == (value, argmax)
                assert opt.argmax == argmax[0]

    def test_light_part_tracks_optimal_fraction(self):
        for a, r, d in ((2, 2, 1), (3, 2, 1), (3, 2, 2), (2, 3, 1)):
            params = Params(a, r, d)
            x = float(F.light_part_fraction(params, 30).value)
            for n in (10, 47, 120, 300):
                opt = C.max_edge_product(params, n)
                assert abs(opt.argmax[0] - x * n) <= 2

    def test_log_density_approaches_limit(self):
        for a, r, d in ((2, 2, 1), (3, 2, 1)):
            params = Params(a, r, d)
            x = float(F.light_part_fraction(params, 30).value)
            target = math.log(a) + (r - 2 + x) / (r - 1) * math.log((a + 1) / a)
            val = C.max_edge_product(params, 200).value
            assert abs(math.log(val) / math.comb(200, 2) - target) < 1e-2

    def test_sum_density_approaches_limit(self):
        for a, r, d in ((2, 2, 1), (3, 3, 2)):
            params = Params(a, r, d)
            got = C.max_edge_sum(params, 200).value / math.comb(200, 2)
            assert abs(got - float(F.sum_density_limit(params))) < 1e-2


class TestFamilyClosure:
    def test_members_meet_their_base_bound(self):
        # every s-subset of a member induces a member on s vertices
        for a, r, d in ((2, 2, 1), (3, 2, 2), (2, 3, 1)):
            params = Params(a, r, d)
            s = params.s_base
            bound = C.max_edge_sum(params, s).value
            for n in (s, s + 1, s + 2):
                opt = C.max_edge_product(params, n)
                G = C.turan_multigraph(params, opt.argmax)
                assert G.satisfies(s, bound)

    def test_every_subset_within_smaller_optimum(self):
        params = Params(2, 2, 1)
        G = C.turan_multigraph(params, (2, 4))
        for s in range(2, 7):
            bound = C.max_edge_sum(params, s).value
            assert all(
                G.edge_sum(xs) <= bound for xs in combinations(range(6), s)
            )


class TestIterated:
    def test_single_level_matches_flat_builder(self):
        spec = C.IteratedSpec(2, ((2, 1),))
        assert C.iterated_multigraph(spec, [(2, 3)]) == C.turan_multigraph(
            Params(2, 2, 1), (2, 3)
        )

    def test_degenerate_inner_level_is_flat(self):
        # replacing the light part by a constant-weight-1 clique changes nothing
        spec = C.IteratedSpec(2, ((2, 1), (1, 0)))
        flat = C.turan_multigraph(Params(2, 2, 1), (3, 4))
        assert C.iterated_multigraph(spec, [(3, 4), (3,)]) == flat

    def test_two_nontrivial_levels(self):
        spec = C.IteratedSpec(3, ((2, 1), (2, 1)))
        G = C.iterated_multigraph(spec, [(4, 5), (2, 2)])
        assert spec.terminal_weight == 1
        # outer cross weight 4, outer middle weight 3
        assert G.weight(0, 4) == 4
        assert G.weight(3, 8) == 4
        assert G.weight(4, 8) == 3
        # inner construction at base 2 sits on the first four vertices
        assert G.weight(0, 1) == 1
        assert G.weight(2, 3) == 2
        assert G.weight(0, 2) == 3
        # the graph satisfies exactly the bound given by its own worst subset
        q, best_set = G.max_subset_sum(4)
        assert G.satisfies(4, q)
        assert not G.satisfies(4, q - 1)
        assert G.edge_sum(best_set) == q

    def test_single_vertex_light_part_ends_the_nesting(self):
        # a one-vertex light part has no pair, so the deeper levels add nothing
        spec = C.IteratedSpec(3, ((2, 1), (2, 1)))
        flat = C.turan_multigraph(Params(3, 2, 1), (1, 4))
        assert C.iterated_multigraph(spec, [(1, 4), (1, 0)]) == flat
        spec = C.IteratedSpec(4, ((2, 1),) * 3)
        flat = C.turan_multigraph(Params(4, 2, 1), (1, 3))
        assert C.iterated_multigraph(spec, [(1, 3), (1, 0), (1, 0)]) == flat

    def test_inconsistent_nesting_rejected(self):
        spec = C.IteratedSpec(3, ((2, 1), (2, 1)))
        with pytest.raises(ValueError):
            C.iterated_multigraph(spec, [(4, 5), (2, 3)])

    def test_level_weights_must_stay_positive(self):
        with pytest.raises(ValueError):
            C.IteratedSpec(2, ((2, 1), (2, 1)))  # inner base 1 cannot lose 1 more
        with pytest.raises(ValueError):
            C.IteratedSpec(2, ())
