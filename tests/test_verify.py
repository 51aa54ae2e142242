"""Check suites: statuses, determinism, registry audit, report emission."""

from __future__ import annotations

import csv
import random
from collections import Counter

import pytest

from sqgraphs import verify as V
from sqgraphs.families import in_graded_family
from sqgraphs.multigraph import Multigraph, Params


class TestConjectureSuite:
    def test_equality_at_four_and_dominance_throughout(self):
        rows = V.conjecture_checks(Params(2, 2, 1), [4, 5])
        assert not V.hard_failures(rows)
        by = {(r.name, r.point.split()[3]): r for r in rows}
        eq4 = by[("product_equals_construction", "n=4")]
        assert eq4.left == eq4.right == "216"
        dom5 = by[("product_dominates_construction", "n=5")]
        assert dom5.status == V.PASS
        assert int(dom5.left) >= int(dom5.right)

    def test_budget_exhaustion_marks_inconclusive(self):
        rows = V.conjecture_checks(Params(2, 2, 1), [6], node_budget=10)
        (row,) = [r for r in rows if r.name == "product_dominates_construction"]
        assert row.status == V.REPORTED
        assert "inconclusive" in row.note


class TestIdentitySuite:
    def test_default_grid_passes(self):
        rows = V.identity_checks(a_max=4, r_max=4)
        assert rows
        assert not V.hard_failures(rows)

    def test_difference_identity_spot(self):
        # a=3, r=3, d=2: consecutive sums below the base grade step by
        # s'(a+1) - floor((s'-1)/(r-1))
        from sqgraphs.constructions import max_edge_sum

        params = Params(3, 3, 2)
        for sp in range(2, params.s_base):
            diff = (
                max_edge_sum(params, sp + 1).value - max_edge_sum(params, sp).value
            )
            assert diff == sp * 4 - (sp - 1) // 2


class TestConditionSuite:
    def test_all_pass(self):
        rows = V.condition_checks()
        assert len(rows) == 4
        assert all(r.status == V.PASS for r in rows)


    def test_cross_gain_names_the_first_counterexample(self, monkeypatch):
        monkeypatch.setattr(V.formulas, "cross_gain_condition", lambda a, r, d: a != 5)
        row = next(r for r in V.condition_checks() if r.name == "cross_gain_many_parts")
        assert (row.status, row.note) == (V.FAIL, "a=5 r=2 d=1")


class TestCountingSuite:
    def test_pinned_count(self):
        rows = V.counting_checks(4, 2, 2)
        by = {r.name: r for r in rows}
        assert by["counting_family_nonempty"].left == "5005"
        assert by["counting_density"].status == V.REPORTED

    def test_infeasible_grade_skipped(self):
        rows = V.counting_checks(3, 2, 2)
        assert all(r.status == V.REPORTED for r in rows)
        assert any("skipped" in r.note for r in rows)

    def test_budget_bound_count_skipped(self):
        # the row verify all prints at n = 6
        assert V.counting_checks(6, 2, 2, node_budget=1000) == [
            V.CheckReport(
                "counting_density", "n=6 a=2 r=2 s=4 q=9", V.REPORTED, "", "",
                "skipped: count(6,4,9) exceeded the node budget of 1000",
            )
        ]


class TestTransformationSuite:
    def test_statuses_and_determinism(self):
        rows1 = V.transformation_checks(trials=60, seed=7)
        rows2 = V.transformation_checks(trials=60, seed=7)
        assert [(r.name, r.status, r.note) for r in rows1] == [
            (r.name, r.status, r.note) for r in rows2
        ]
        provable = ("transform_product_monotone", "transform_lands_saturated")
        assert all(r.status == V.PASS for r in rows1 if r.name in provable)

    def test_each_graph_is_scanned_once(self, monkeypatch):
        # the transformations re-check the graph they are handed; the graded
        # check answers those from its cache, so no (graph, grade, bound) is
        # scanned twice (2,006 scans of 1,323 distinct ones without the cache)
        scans = Counter()
        scan = Multigraph.find_violation

        def counted(G, s, q):
            scans[G, s, q] += 1
            return scan(G, s, q)

        in_graded_family.cache_clear()
        monkeypatch.setattr(Multigraph, "find_violation", counted)
        V.transformation_checks(trials=50, seed=1)
        assert sum(scans.values()) == len(scans) == 1_323

    def test_sampler_yields_members(self):
        rng = random.Random(5)
        params = Params(2, 2, 1)
        G = V.sample_graded_member(params, 6, rng)
        assert G is not None
        assert in_graded_family(G, params)


class TestRegistryAndReports:
    def test_every_check_is_classified(self):
        rows = []
        rows += V.conjecture_checks(Params(2, 2, 1), [4])
        rows += V.conjecture_checks(Params(2, 2, 1), [6], node_budget=10)  # inconclusive
        rows += V.identity_checks(a_max=3, r_max=3)
        rows += V.condition_checks()
        rows += V.counting_checks(4, 2, 2)
        rows += V.counting_checks(6, 2, 2, node_budget=1000)  # skipped
        rows += V.transformation_checks(trials=20)
        for r in rows:
            assert r.name in V.CHECK_KINDS
            kind, rationale = V.CHECK_KINDS[r.name]
            assert kind in ("hard", "reported")
            assert rationale
            if kind == "reported":
                assert r.status == V.REPORTED
            elif r.status == V.REPORTED:
                assert r.note.startswith(("inconclusive", "skipped"))
        assert any(
            V.CHECK_KINDS[r.name][0] == "hard" and r.status == V.REPORTED for r in rows
        )

    def test_row_rejects_an_unregistered_check(self):
        with pytest.raises(KeyError):
            V._row("no_such_check", "x", True)

    def test_reported_rows_never_count_as_hard_failures(self):
        rows = [V.CheckReport("counting_density", "x", V.FAIL)]
        assert not V.hard_failures(rows)

    def test_report_files(self, tmp_path):
        rows = V.condition_checks()
        txt, csv_path = V.write_reports(rows, str(tmp_path / "report"))
        lines = open(txt).read().splitlines()
        assert len(lines) == len(rows)
        assert all(line.startswith("check=") for line in lines)
        with open(csv_path) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        assert parsed[0]["status"] == "pass"
        # rows are sorted by name then point for deterministic diffs
        assert [p["check"] for p in parsed] == sorted(p["check"] for p in parsed)
