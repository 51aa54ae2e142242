"""Closed-form evaluations against independent brute-force computations."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from sqgraphs import formulas as F
from sqgraphs.multigraph import Params


def brute_turan(n: int, k: int) -> int:
    """Max edges over all complete (k-1)-partite graphs, balanced or not."""
    best = 0

    def rec(remaining: int, parts: list[int]):
        nonlocal best
        if len(parts) == k - 1:
            if remaining == 0:
                edges = math.comb(n, 2) - sum(math.comb(p, 2) for p in parts)
                best = max(best, edges)
            return
        for v in range(remaining + 1):
            rec(remaining - v, parts + [v])

    rec(n, [])
    return best


class TestTuran:
    def test_square(self):
        assert F.turan_number(4, 3) == 4

    def test_small_k_exceeds_n(self):
        assert F.turan_number(4, 9) == 6
        assert F.turan_number(2, 5) == 1

    def test_three_parts(self):
        assert F.turan_number(6, 4) == 12

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_balanced_is_optimal(self, k):
        for n in range(0, 11):
            assert F.turan_number(n, k) == brute_turan(n, k)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            F.turan_number(5, 1)


class TestLightPartFraction:
    def test_pinned_value(self):
        # ln(3/2) / ln(9/2), high-precision evaluation of the closed form
        x = float(F.light_part_fraction(Params(2, 2, 1)))
        assert abs(x - 0.2695772896908149) < 1e-12

    def test_zero_deficiency_collapses(self):
        for a in (1, 2, 5):
            for r in (2, 3, 7):
                x = float(F.light_part_fraction(Params(a, r, 0)))
                assert abs(x - 1 / r) < 1e-12

    def test_bounds(self):
        for a in range(2, 10):
            for r in range(2, 6):
                for d in range(1, a):
                    x = float(F.light_part_fraction(Params(a, r, d)))
                    assert 0 < x < 1
                    assert x < 1 / (d * (r - 1))

    def test_recurrence_on_grid(self):
        worst = 0.0
        for a in range(2, 21):
            for r in range(2, 11):
                for d in range(1, min(a - 1, 5) + 1):
                    worst = max(worst, F.light_part_recurrence_residual(a, r, d))
        assert worst < 1e-12

    def test_rejects_single_part(self):
        with pytest.raises(ValueError):
            F.light_part_fraction(Params(2, 1, 1))


class TestProductDensityLimit:
    def test_pinned_value(self):
        v = float(F.product_density_limit(2, 2))
        assert abs(v - 2.2310032349914817) < 1e-12

    def test_sandwich(self):
        for a in range(2, 21, 3):
            for r in range(2, 11):
                v = float(F.product_density_limit(a, r))
                assert a < v < a + 1

    def test_monotone_toward_upper_end(self):
        vals = [float(F.product_density_limit(2, r)) for r in range(2, 51)]
        assert all(x < y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 3

    def test_matches_general_form_at_deficiency_one(self):
        for a in (2, 3, 5):
            for r in (2, 3, 4):
                lhs = float(F.product_density_limit(a, r))
                rhs = float(F.construction_density_limit(Params(a, r, 1)))
                assert abs(lhs - rhs) < 1e-12


class TestSumDensityLimit:
    def test_examples(self):
        assert F.sum_density_limit(Params(2, 2, 1)) == Fraction(7, 3)
        assert F.sum_density_limit(Params(3, 2, 0)) == Fraction(4) - Fraction(1, 2)
        for a, r in ((2, 2), (3, 4)):
            assert F.sum_density_limit(Params(a, r, 0)) == Fraction(a + 1) - Fraction(1, r)


class TestMaxSumDensity:
    def test_pinned_threshold(self):
        assert F.max_sum_density(4, 15) == Fraction(7, 3)

    def test_integer_bounds(self):
        for s in range(2, 11):
            for a in range(1, 6):
                assert F.max_sum_density(s, a * math.comb(s, 2)) == a

    def test_threshold_property(self):
        # the floor-sum exceeds q at the returned value and not at any
        # admissible rational below it
        for s, q in ((4, 15), (5, 23), (6, 41), (3, 7)):
            m = F.max_sum_density(s, q)
            assert m.denominator <= s - 1
            assert F._floor_sum(m, s) > q
            below = max(
                (
                    Fraction(k, i)
                    for i in range(1, s)
                    for k in range(0, int(m * i) + 1)
                    if Fraction(k, i) < m
                ),
                default=None,
            )
            if below is not None:
                assert F._floor_sum(below, s) <= q

    def test_monotone_in_q(self):
        vals = [F.max_sum_density(4, q) for q in range(0, 30)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))


def brute_best_product(total: int, count: int) -> int:
    best = 0

    def rec(remaining: int, slots: int, prod: int):
        nonlocal best
        if slots == 1:
            best = max(best, prod * remaining)
            return
        for v in range(remaining + 1):
            rec(remaining - v, slots - 1, prod * v)

    if count == 0:
        return 1
    rec(total, count, 1)
    return best


class TestAmGm:
    def test_pinned(self):
        assert F._amgm(15, 6) == 216

    def test_equal_split(self):
        assert F._amgm(15, 5) == 3 ** 5

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_matches_brute_force(self, a):
        # totals a*count .. (a+1)*count + 1; over a = 0..3, every total to 4*count + 1
        for count in range(0, 7):
            for total in range(a * count, (a + 1) * count + 2):
                assert F._amgm(total, count) == brute_best_product(total, count)

    def test_dominates_random_vectors(self):
        rng = random.Random(31)
        for _ in range(2000):
            n = rng.randint(1, 8)
            a = rng.randint(0, 4)
            t = rng.randint(0, n)
            total = a * n + t
            vec = [0] * n
            for _ in range(total):
                vec[rng.randrange(n)] += 1
            assert math.prod(vec) <= F._amgm(total, n)


class TestPartSizeCondition:
    def test_pinned_instance(self):
        # 2^3 <= 3^2 * 1 holds, 2^2 <= 3^1 * 1 does not
        assert F.part_size_condition(2, 1, 3)
        assert not F.part_size_condition(2, 1, 2)

    def test_min_size_deficiency_one(self):
        assert F.min_part_size(2, 1) == 3
        assert all(F.min_part_size(a, 1) <= 3 for a in range(2, 201))

    def test_min_size_cubic_bound_spot(self):
        for d in range(1, 5):
            for a in range(d + 1, 20):
                assert F.min_part_size(a, d) <= d * (1 + d + d * d)

    def test_razor_thin_case(self):
        # at a=200 the deficiency-one inequality holds by under one percent
        assert 200 ** 3 <= 201 ** 2 * 199
        assert F.part_size_condition(200, 1, 3)


class TestCrossGain:
    def test_deficiency_one_always_holds(self):
        assert all(
            F.cross_gain_condition(a, r, 1)
            for a in range(2, 101)
            for r in range(2, 101, 7)
        )

    def test_failing_instance(self):
        assert not F.cross_gain_condition(3, 2, 2)

    def test_many_parts_recovers(self):
        for d in range(1, 6):
            for a in range(d + 1, 31):
                for r in range(d * (d + 1), d * (d + 1) + 5):
                    assert F.cross_gain_condition(a, r, d)


class TestPlateauDensity:
    def test_single_part_degenerates(self):
        assert float(F.plateau_density(3, 1)) == 3.0

    def test_pinned(self):
        assert abs(float(F.plateau_density(2, 2)) - math.sqrt(6)) < 1e-12

    def test_bounds(self):
        for a in range(1, 8):
            for r in range(2, 8):
                v = float(F.plateau_density(a, r))
                assert a < v < a + 1


def test_density_rendering():
    assert F.density(216, 6).startswith("2.449489742")
    assert F.density(64, 6) == "2.0"
    assert F.density(0, 10) == "0.0"
    assert F.density(0, 0) == F.density(1, 0) == "1.0"  # one vertex, no pairs
