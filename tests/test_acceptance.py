"""Acceptance suite: one test per criterion, at the stated tolerances.

Criterion 7 is split into its three asserted properties; the
clone-preservation property is implemented exactly as stated and is
expected to fail: row-copy cloning provably cannot keep every input
clone pair intact (see tests/test_families.py for a minimal
counterexample), so that test documents an honest red rather than a
weakened check.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import permutations

from sqgraphs import constructions as C
from sqgraphs import formulas as F
from sqgraphs import search as S
from sqgraphs import verify as V
from sqgraphs.multigraph import Params


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {detail}: PASS")


def test_criterion_1_oracle_equivalence():
    """Pruned engines equal full enumeration on the whole small matrix."""
    t0 = time.perf_counter()
    checked = 0
    for n in (3, 4):
        for s in (2, 3, 4):
            if s > n:
                continue
            for q in range(0, 16):
                assert (
                    S.max_product_search(n, s, q).value
                    == S.brute_force(n, s, q, "product", q).value
                )
                assert (
                    S.max_sum_search(n, s, q).value
                    == S.brute_force(n, s, q, "sum", q).value
                )
                checked += 2
            for q in range(0, 7):
                assert S.count_graphs(n, s, q) == S.brute_force(n, s, q, "count", q).value
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"matrix took {elapsed:.1f}s"
    _report("1", f"{checked} engine/oracle values agree in {elapsed:.1f}s")


def test_criterion_2_pinned_product_instance():
    t0 = time.perf_counter()
    out = S.max_product_search(4, 4, 15)
    assert out.value == 216
    assert out.optimal
    target = C.turan_multigraph(Params(2, 2, 1), (1, 3))
    assert any(
        all(out.witness.weight(i, j) == target.weight(p[i], p[j]) for i, j, _ in target.pairs())
        for p in permutations(range(4))
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1, f"instance took {elapsed:.2f}s"
    _report("2", f"max product(4,4,15) = 216 with the expected witness in {elapsed:.2f}s")


def test_criterion_3_construction_dominance():
    t0 = time.perf_counter()
    rows = []
    excluded = 0
    for a in (2, 3):
        for r in (2, 3):
            params = Params(a, r, 1)
            s = 2 * r
            q = C.max_edge_sum(params, s).value
            for n in range(s, 7):
                out = S.max_product_search(n, s, q)
                if not out.optimal:
                    excluded += 1
                    continue
                cons = C.max_edge_product(params, n).value
                assert out.value >= cons, (a, r, n, out.value, cons)
                rows.append((a, r, n))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"dominance grid took {elapsed:.1f}s"
    assert rows, "no instance completed within budget"
    _report(
        "3",
        f"search >= construction on {len(rows)} instances "
        f"({excluded} budget-bound excluded) in {elapsed:.1f}s",
    )


def test_criterion_4_closed_form_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for a in range(2, 21):
        for r in range(2, 11):
            for d in range(1, min(a - 1, 5) + 1):
                worst = max(worst, F.light_part_recurrence_residual(a, r, d))
    assert worst < 1e-12, f"recurrence residual {worst}"

    assert F.max_sum_density(4, 15) == Fraction(7, 3)

    for a in range(2, 11):
        for r in range(2, 6):
            s = 2 * r
            q = C.max_edge_sum(Params(a, r, 1), s).value
            assert F.max_sum_density(s, q) == a + Fraction(2 * r - 3, 2 * r - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"closed forms took {elapsed:.1f}s"
    _report("4", f"recurrence residual {worst:.2e} and exact sum-density thresholds in {elapsed:.1f}s")


def test_criterion_5_condition_suite():
    t0 = time.perf_counter()
    assert all(F.min_part_size(a, 1) <= 3 for a in range(2, 201))
    for d in range(1, 7):
        for a in range(d + 1, 51):
            assert F.min_part_size(a, d) <= d * (1 + d + d * d)
    assert all(
        F.cross_gain_condition(a, r, 1)
        for a in range(2, 101)
        for r in range(2, 101)
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"conditions took {elapsed:.1f}s"
    _report("5", f"integer power conditions verified in {elapsed:.1f}s")


def test_criterion_6_identity_suite():
    t0 = time.perf_counter()
    for a in range(1, 7):
        for r in range(2, 6):
            for d in range(0, a):
                params = Params(a, r, d)
                s_base = params.s_base
                for sp in range(2, s_base):
                    diff = (
                        C.max_edge_sum(params, sp + 1).value
                        - C.max_edge_sum(params, sp).value
                    )
                    assert diff == sp * (a + 1) - (sp - 1) // (r - 1), (a, r, d, sp)
                for i in range(1, d + 1):
                    si = (r - 1) * (d - i + 2) + 2
                    assert (
                        C.max_edge_sum(params, si).value
                        < C.max_edge_sum(Params(a, r, d - i), si).value
                    ), (a, r, d, i)
                for sv in range(s_base, s_base + 3):
                    assert any(
                        comp[0] >= 2 for comp in C.max_edge_sum(params, sv).all_argmax
                    ), (a, r, d, sv)
                for sv in range(2, s_base + 1):
                    assert any(
                        comp[0] <= 1 for comp in C.max_edge_sum(params, sv).all_argmax
                    ), (a, r, d, sv)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"identities took {elapsed:.1f}s"
    _report("6", f"difference/monotonicity/threshold identities exact in {elapsed:.1f}s")


_TRANSFORM_ROWS: list[V.CheckReport] = []


def _transformation_rows() -> list[V.CheckReport]:
    if not _TRANSFORM_ROWS:
        _TRANSFORM_ROWS.extend(V.transformation_checks(trials=1000))
    return _TRANSFORM_ROWS


def test_criterion_7_transformations_monotone_and_saturated():
    t0 = time.perf_counter()
    rows = _transformation_rows()
    by_name: dict[str, list[V.CheckReport]] = {}
    for r in rows:
        by_name.setdefault(r.name, []).append(r)
    assert all(r.status == V.PASS for r in by_name["transform_product_monotone"])
    assert all(r.status == V.PASS for r in by_name["transform_lands_saturated"])
    assert all(r.left == "1000" for r in by_name["transform_sampler"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"trials took {elapsed:.1f}s"
    _report(
        "7",
        "product-nondecreasing and saturated-family landing on 3x1000 trials "
        f"in {elapsed:.1f}s",
    )


def test_criterion_7_transformations_preserve_clones():
    """Stated property: clone pairs of the input survive the transformations.

    This is implemented exactly as written and fails: a counterexample-
    backed limitation of the row-copy transformation, kept red on purpose.
    """
    rows = _transformation_rows()
    failing = [
        r
        for r in rows
        if r.name == "transform_preserves_clones" and r.status != V.PASS
    ]
    if failing:
        print(f"ACCEPTANCE 7 (clone preservation): FAIL: {failing[0].note}")
    else:
        _report("7", "clone pairs preserved on all trials")
    assert not failing, f"clone preservation fails: {failing[0].note}"


def test_criterion_8_density_report(tmp_path):
    t0 = time.perf_counter()
    params = Params(2, 2, 1)
    rows = V.conjecture_checks(params, [4, 5, 6])
    for n in (4, 5):
        rows += V.counting_checks(n, 2, 2)
    txt, csv_path = V.write_reports(rows, str(tmp_path / "acceptance_density_report"))
    lines = open(txt).read().splitlines()
    assert len(lines) == len(rows)
    density_rows = [r for r in rows if r.name == "search_density_vs_limit"]
    assert len(density_rows) == 3
    count_rows = [r for r in rows if r.name == "counting_density"]
    assert len(count_rows) == 2

    # when the search agrees exactly with the construction, their densities
    # coincide; the trend toward the limit constant is reported, not
    # asserted, because finite n approaches it from above
    limit = float(F.product_density_limit(2, 2))
    assert abs(limit - 2.2310032349914817) < 1e-12
    equalities = {
        r.point: r.left == r.right
        for r in rows
        if r.name == "product_equals_construction"
    }
    for r in density_rows:
        if equalities.get(r.point):
            n = int(r.point.split()[3].split("=")[1])
            cons = C.max_edge_product(params, n)
            cons_density = F.density(cons.value, n * (n - 1) // 2)
            assert r.left == cons_density
    elapsed = time.perf_counter() - t0
    assert elapsed < 900, f"report took {elapsed:.1f}s"
    _report(
        "8",
        f"density report with {len(lines)} rows written to {txt} in {elapsed:.1f}s "
        "(trend logged, not asserted)",
    )
