"""Family membership and the product-raising transformations."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from sqgraphs import constructions as C
from sqgraphs.families import (
    clone_saturate,
    grade_bounds,
    in_graded_family,
    in_saturated_family,
    raise_min_weights,
)
from sqgraphs.multigraph import Multigraph, Params
from sqgraphs.verify import sample_graded_member


class TestMembership:
    def test_constant_base_weight_is_member(self):
        for a, r, d in ((2, 2, 1), (3, 2, 2), (2, 3, 1), (4, 4, 0)):
            params = Params(a, r, d)
            assert in_graded_family(Multigraph.constant(6, a), params)

    def test_overweight_pair_fails_first_grade(self):
        params = Params(2, 2, 1)
        assert not in_graded_family(Multigraph.constant(5, 4), params)

    def test_optimal_members_are_members(self):
        for a, r, d in ((2, 2, 1), (3, 2, 2), (2, 3, 1)):
            params = Params(a, r, d)
            for n in (params.s_base, params.s_base + 2):
                G = C.turan_multigraph(params, C.max_edge_product(params, n).argmax)
                assert in_graded_family(G, params)
                assert in_saturated_family(G, params)

    def test_grades_above_vertex_count_are_vacuous(self):
        params = Params(2, 3, 1)  # base grade 6
        assert in_graded_family(Multigraph.constant(3, 2), params)

    def test_low_weight_blocks_saturation(self):
        params = Params(3, 2, 2)
        G = Multigraph(5, [0] + [3] * 9)  # pair {0, 1} at weight 0
        assert in_graded_family(G, params)
        assert not in_saturated_family(G, params)

    def test_min_weight_pair_must_be_clones(self):
        params = Params(2, 2, 1)
        G = Multigraph(5, [1, 3] + [2] * 8)  # pairs {0, 1} and {0, 2} at 1 and 3
        assert in_graded_family(G, params)
        # 0 and 1 are joined at the floor but disagree on vertex 2
        assert not G.are_clones(0, 1)
        assert not in_saturated_family(G, params)

    def test_grade_bounds_values(self):
        bounds = grade_bounds(Params(2, 2, 1), 4)
        assert bounds == {2: 3, 3: 8, 4: 15}
        bounds[4] = 0  # the bounds are built once, but each caller owns its dict
        assert grade_bounds(Params(2, 2, 1), 4) == {2: 3, 3: 8, 4: 15}


class TestRaiseMinWeights:
    def test_fixed_point(self):
        params = Params(2, 2, 1)
        G = Multigraph.constant(5, 2)
        assert raise_min_weights(G, params) == G

    def test_constant_below_floor_clamps(self):
        params = Params(3, 2, 2)
        G = Multigraph.constant(5, 0)
        assert raise_min_weights(G, params) == Multigraph.constant(5, 1)

    def test_precondition_checked(self):
        params = Params(2, 2, 1)
        with pytest.raises(ValueError):
            raise_min_weights(Multigraph.constant(5, 4), params)

    def test_randomized_contract(self):
        rng = random.Random(101)
        params = Params(2, 2, 1)
        for _ in range(150):
            G = sample_graded_member(params, 6, rng)
            assert G is not None
            raised = raise_min_weights(G, params)
            assert raised.min_weight() >= 1
            assert raised.edge_product() >= G.edge_product()
            assert in_graded_family(raised, params)
            # clamping preserves clone pairs
            for i, j in combinations(range(6), 2):
                if G.are_clones(i, j):
                    assert raised.are_clones(i, j)


class TestCloneSaturate:
    def test_fixed_point_when_saturated(self):
        params = Params(2, 2, 1)
        G = C.turan_multigraph(params, (2, 3))
        assert clone_saturate(G, params) == G

    def test_two_vertices_unchanged(self):
        params = Params(2, 2, 1)
        G = Multigraph.constant(2, 1)
        assert clone_saturate(G, params) == G

    def test_precondition_checked(self):
        params = Params(2, 2, 1)
        with pytest.raises(ValueError):
            clone_saturate(Multigraph.constant(4, 0), params)

    def test_randomized_contract(self):
        rng = random.Random(202)
        for a, r, d in ((2, 2, 1), (3, 2, 1), (3, 2, 2)):
            params = Params(a, r, d)
            for _ in range(80):
                G = sample_graded_member(params, 6, rng)
                assert G is not None
                raised = raise_min_weights(G, params)
                final = clone_saturate(raised, params)
                assert final.edge_product() >= raised.edge_product() >= G.edge_product()
                assert in_saturated_family(final, params)

    def test_alternating_sources_terminate(self):
        # a light vertex tied at the floor to two different stronger rows;
        # re-picking the source pair by pair would oscillate between them
        params = Params(2, 2, 1)
        G = Multigraph.from_dict(
            {
                "n": 6,
                "edges": [
                    [0, 1, 3], [0, 2, 1], [1, 2, 3], [0, 3, 1], [1, 3, 2],
                    [2, 3, 1], [0, 4, 1], [1, 4, 2], [2, 4, 2], [3, 4, 3],
                    [0, 5, 2], [1, 5, 2], [2, 5, 2], [3, 5, 2], [4, 5, 2],
                ],
            }
        )
        assert in_graded_family(G, params) and G.min_weight() == 1
        final = clone_saturate(G, params)
        assert in_saturated_family(final, params)
        assert final.edge_product() >= G.edge_product()

    def test_saturation_can_break_unrelated_clone_pair(self):
        # 0 and 1 are clones joined by weight 3; both meet vertex 2 at the
        # floor weight.  Any product-safe row copy onto 2 desynchronizes
        # 0 from 1 at entry 2, so the clone pair does not survive even
        # though the result is saturated and the product grows.
        params = Params(2, 2, 1)
        G = Multigraph.from_dict(
            {
                "n": 4,
                "edges": [[0, 1, 3], [0, 2, 1], [0, 3, 2], [1, 2, 1], [1, 3, 2], [2, 3, 2]],
            }
        )
        assert in_graded_family(G, params)
        assert G.are_clones(0, 1)
        final = clone_saturate(G, params)
        assert in_saturated_family(final, params)
        assert final.edge_product() >= G.edge_product()
        assert not final.are_clones(0, 1)
