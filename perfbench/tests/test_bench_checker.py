"""The output checker flags wrong outputs and passes right ones."""

import io
import contextlib

import checker
import workloads

from sqgraphs import cli
from sqgraphs.multigraph import Multigraph


def _record(tmp_path, n, s, q, value, optimal, graph):
    path = tmp_path / "w.json"
    path.write_text(graph.dumps() + "\n")
    return (
        f"command=exsum n={n} s={s} q={q} value={value} density=x "
        f"optimal={str(optimal).lower()} source=search witness={path}\n"
    )


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_real_exact_and_budget_bound_results_pass(tmp_path):
    rc, out = _run_cli(["exsum", "5", "4", "15", "--out", str(tmp_path)])
    assert rc == 0
    assert checker.check_search("sum", 5, 4, 15, rc, out) == checker.Verdict()
    rc, out = _run_cli(["exsum", "6", "4", "15", "--budget", "50", "--out", str(tmp_path)])
    assert rc == 3
    assert checker.check_search("sum", 6, 4, 15, rc, out) == checker.Verdict()


def test_flags_wrong_value(tmp_path):
    out = _record(tmp_path, 5, 4, 15, 26, True, Multigraph.constant(5, 2))
    problems = checker.check_search("sum", 5, 4, 15, 0, out).problems
    assert any("known optimum" in p for p in problems)
    assert any("differs from the reported value" in p for p in problems)


def test_flags_optimal_claim_below_known_exact(tmp_path):
    # constant weight 2 is a feasible (4,15)-graph with edge sum 20 < 25
    out = _record(tmp_path, 5, 4, 15, 20, True, Multigraph.constant(5, 2))
    problems = checker.check_search("sum", 5, 4, 15, 0, out).problems
    assert problems == ["exsum 5 4 15: optimal claim 20, known optimum 25"]


def test_budget_bound_lower_value_is_not_flagged(tmp_path):
    out = _record(tmp_path, 5, 4, 15, 20, False, Multigraph.constant(5, 2))
    assert checker.check_search("sum", 5, 4, 15, 3, out) == checker.Verdict()


def test_flags_infeasible_witness(tmp_path):
    # constant weight 3: every 4-set carries 18 > 15
    out = _record(tmp_path, 5, 4, 15, 30, False, Multigraph.constant(5, 3))
    problems = checker.check_search("sum", 5, 4, 15, 3, out).problems
    assert any("is not an (4,15)-graph" in p for p in problems)


def test_flags_unexpected_exit_code(tmp_path):
    out = _record(tmp_path, 5, 4, 15, 20, False, Multigraph.constant(5, 2))
    verdict = checker.check_search("sum", 5, 4, 15, 1, out)
    assert verdict.failed and "unexpected exit code 1" in verdict.problems[0]
    verdict = checker.check_search("sum", 5, 4, 15, 0, out)
    assert any("exit code 0 with optimal=false" in p for p in verdict.problems)


def test_construct_known_defect_counts_as_failed_not_wrong():
    err = "error: Exceeds the limit (4300 digits) for integer string conversion\n"
    assert checker.check_construct((2, 3, 1, 150), 2, "", err, {}) == checker.Verdict(True, [])
    assert checker.check_construct((2, 8, 1, 60), 2, "", err, {}).problems


def test_verify_rows_against_golden():
    golden = checker.load_golden("certify.json")
    lines = []
    for key, row in golden["rows"].items():
        name, point = key.split("|", 1)
        lines.append(f"check={name} point=[{point}] status={row['status']} left=- right=- note=-")
    out = "\n".join(lines) + "\n"
    assert checker.check_verify(4, out, golden) == checker.Verdict(True, [])
    assert checker.check_verify(0, out, golden).problems
    flipped = out.replace("status=pass", "status=fail", 1)
    assert checker.check_verify(4, flipped, golden).problems
    healed = out.replace("status=fail", "status=pass", 1)
    assert checker.check_verify(4, healed, golden).problems


def test_cache_stream_has_each_new_key_once_as_a_miss():
    prefilled, new = workloads.cache_universe()
    assert workloads.cache_universe() == (prefilled, new)
    assert all(n <= 5 and q <= 15 for _, n, _, q in prefilled)
    stream = workloads.cache_stream(7, prefilled, new)
    assert stream == workloads.cache_stream(7, prefilled, new)
    assert len(stream) == workloads.CACHE_MISS_EVERY * len(new)
    seen = set(prefilled)
    misses = 0
    for key in stream:
        if key not in seen:
            misses += 1
            seen.add(key)
    assert misses == len(new)
    assert sorted(seen - set(prefilled)) == sorted(new)
