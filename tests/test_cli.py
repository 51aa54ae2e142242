"""Command-line behaviour: records, exit codes, witnesses, cache, reports."""

from __future__ import annotations

import json
import os

import pytest

from sqgraphs.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main
from sqgraphs.constructions import construction_product
from sqgraphs.multigraph import Multigraph, Params
from sqgraphs.search import SearchOutcome, append_cache, cache_record


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_fields(line: str) -> dict:
    return dict(kv.split("=", 1) for kv in line.strip().split(" "))


class TestSearchCommands:
    def test_expi_pinned(self, capsys, tmp_path):
        code, out, _ = run(capsys, "expi", "4", "4", "15", "--out", str(tmp_path))
        assert code == EXIT_OK
        rec = record_fields(out)
        assert rec["value"] == "216"
        assert rec["density"].startswith("2.449489742")
        assert rec["optimal"] == "true"
        witness = Multigraph.loads(open(rec["witness"]).read())
        assert witness.edge_product() == 216
        assert witness.satisfies(4, 15)

    def test_expi_lower_bound_case(self, capsys, tmp_path):
        code, out, _ = run(capsys, "expi", "4", "4", "12", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert record_fields(out)["value"] == "64"

    def test_exsum_single_set(self, capsys, tmp_path):
        code, out, _ = run(capsys, "exsum", "4", "4", "15", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert record_fields(out)["value"] == "15"

    def test_count(self, capsys, tmp_path):
        code, out, _ = run(capsys, "count", "4", "4", "3")
        assert code == EXIT_OK
        assert record_fields(out)["value"] == "84"

    def test_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "expi", "3", "9", "1", "--out", str(tmp_path))
        assert code == EXIT_USAGE
        code = main(["expi", "not-a-number", "2", "3"])
        assert code == EXIT_USAGE

    def test_budget_bound_exit(self, capsys, tmp_path):
        # (6,4,15) needs 1,839 nodes with the averaging bound, so 40 stops it
        code, out, _ = run(
            capsys, "expi", "6", "4", "15", "--budget", "40", "--out", str(tmp_path)
        )
        assert code == EXIT_BUDGET
        assert record_fields(out)["optimal"] == "false"

    def test_budget_bound_reports_upper(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "expi", "7", "4", "15", "--budget", "50", "--out", str(tmp_path)
        )
        assert code == EXIT_BUDGET
        rec = record_fields(out)
        assert rec["optimal"] == "false"
        # the averaging chain; the one-step constant reads 148111277
        assert rec["upper"] == "148111168"
        assert int(rec["value"]) <= 148111168

    def test_stop_at_upper_is_optimal_within_budget(self, capsys, tmp_path):
        # the incumbent meets the root bound at node 146: nothing is left to
        # search, so a budget of 150 proves it optimal
        code, out, _ = run(
            capsys, "expi", "5", "4", "15", "--budget", "150", "--out", str(tmp_path)
        )
        assert code == EXIT_OK
        rec = record_fields(out)
        assert (rec["value"], rec["optimal"], rec["upper"]) == ("7776", "true", "7776")

    def test_threads_flag_removed(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "expi", "4", "4", "15", "--threads", "2", "--out", str(tmp_path)
        )
        assert code == EXIT_USAGE

    def test_cache_short_circuit(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        code, first, _ = run(
            capsys, "expi", "4", "4", "15", "--cache", cache, "--out", str(tmp_path)
        )
        assert code == EXIT_OK
        code, second, _ = run(
            capsys, "expi", "4", "4", "15", "--cache", cache, "--out", str(tmp_path)
        )
        assert code == EXIT_OK
        f1, f2 = record_fields(first), record_fields(second)
        assert f1["source"] == "search" and f2["source"] == "cache"
        assert f1["value"] == f2["value"] == f1["upper"] == f2["upper"]
        # one record only: the cached rerun does not append
        assert len(open(cache).read().splitlines()) == 1

    def test_cache_torn_last_line_warns(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        argv = ("expi", "4", "4", "15", "--cache", cache, "--out", str(tmp_path))
        run(capsys, *argv)
        with open(cache, "a") as fh:
            fh.write('{"engine_version":"1","key":{"mode":"prod')
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK
        assert record_fields(out)["source"] == "cache"
        warnings = [ln for ln in err.splitlines() if ln.startswith("warning:")]
        assert len(warnings) == 1 and "skipped 1 malformed" in warnings[0]

    def test_cache_edited_value_is_searched_again(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        argv = ("expi", "4", "4", "15", "--cache", cache, "--out", str(tmp_path))
        run(capsys, *argv)
        rec = json.loads(open(cache).read())
        rec["value"] = "99999999"
        with open(cache, "w") as fh:
            fh.write(json.dumps(rec) + "\n")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        fields = record_fields(out)
        assert fields["source"] == "search" and fields["value"] == "216"
        # the fresh record is appended and wins over the edited one
        assert len(open(cache).read().splitlines()) == 2
        code, out, _ = run(capsys, *argv)
        assert record_fields(out)["source"] == "cache"

    def test_cache_boolean_weight_is_searched_again(self, capsys, tmp_path):
        # JSON true is no integer weight, though Python would count it as 1
        cache = str(tmp_path / "cache.jsonl")
        argv = ("exsum", "4", "4", "15", "--cache", cache, "--out", str(tmp_path))
        run(capsys, *argv)
        rec = json.loads(open(cache).read())
        edge = rec["witness"]["edges"][0]
        assert edge[2] >= 1
        rec["value"] = str(int(rec["value"]) - edge[2] + 1)
        edge[2] = True
        with open(cache, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        fields = record_fields(out)
        assert fields["source"] == "search" and fields["value"] == "15"
        assert len(open(cache).read().splitlines()) == 3

    def test_count_ignores_cache(self, capsys, tmp_path):
        # a count record has no witness to re-check, so count has no --cache
        # flag: an edited record can be neither served nor added to
        cache = str(tmp_path / "cache.jsonl")
        edited = SearchOutcome("count", 85, None, True, {"source": "search"})
        append_cache(cache, cache_record(4, 4, 3, edited))
        code, out, err = run(capsys, "count", "4", "4", "3", "--cache", cache)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--cache" in err
        assert len(open(cache).read().splitlines()) == 1

    def test_csv_format(self, capsys, tmp_path):
        code, out, _ = run(capsys, "count", "4", "2", "2", "--format", "csv")
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header.split(",")[:4] == ["command", "n", "s", "q"]
        assert row.split(",")[4] == "729"


class TestConstructCommand:
    def test_pinned(self, capsys, tmp_path):
        code, out, _ = run(capsys, "construct", "2", "2", "1", "5", "--out", str(tmp_path))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        sums = record_fields(lines[0])
        prods = record_fields(lines[1])
        assert sums["kind"] == "sum" and sums["value"] == "25"
        assert prods["kind"] == "product" and prods["value"] == "5832"
        assert prods["argmax"] == "2/3"
        witness = Multigraph.loads(open(prods["witness"]).read())
        assert witness.edge_product() == 5832
        opt_doc = json.load(open(prods["witness"].replace(".json", ".opt.json")))
        assert opt_doc == {
            "n": 5,
            "params": {"a": 2, "r": 2, "d": 1},
            "value": "5832",
            "argmax": [2, 3],
            "all_argmax": [[2, 3]],
        }

    def test_single_part_constant(self, capsys, tmp_path):
        code, out, _ = run(capsys, "construct", "3", "1", "0", "4", "--out", str(tmp_path))
        assert code == EXIT_OK
        prods = record_fields(out.strip().splitlines()[1])
        witness = Multigraph.loads(open(prods["witness"]).read())
        assert witness == Multigraph.constant(4, 3)

    def test_product_beyond_int_str_limit(self, capsys, tmp_path):
        # the product has more than 4300 digits, past Python's default limit
        code, out, _ = run(capsys, "construct", "2", "3", "1", "150", "--out", str(tmp_path))
        assert code == EXIT_OK
        prods = record_fields(out.strip().splitlines()[1])
        assert prods["kind"] == "product"
        sizes = [int(v) for v in prods["argmax"].split("/")]
        assert int(prods["value"]) == construction_product(Params(2, 3, 1), sizes)


class TestIterateCommand:
    def test_two_level_member(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "iterate", "--a", "3", "--level", "2,1", "--level", "2,1",
            "--sizes", "4,5", "--sizes", "2,2", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        rec = record_fields(out)
        assert rec["n"] == "9"
        assert rec["terminal_weight"] == "1"
        witness = Multigraph.loads(open(rec["witness"]).read())
        assert witness.satisfies(int(rec["s"]), int(rec["max_subset_sum"]))
        assert not witness.satisfies(int(rec["s"]), int(rec["max_subset_sum"]) - 1)

    def test_inconsistent_sizes_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "iterate", "--a", "3", "--level", "2,1", "--level", "2,1",
            "--sizes", "4,5", "--sizes", "2,3", "--out", str(tmp_path),
        )
        assert code == EXIT_USAGE
        assert "level 1" in err


class TestVerifyCommand:
    def test_conditions_pass(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "conditions", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert "status=pass" in out
        assert os.path.exists(tmp_path / "verify_conditions.txt")
        assert os.path.exists(tmp_path / "verify_conditions.csv")

    def test_conjecture_dominance(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "verify", "conjecture", "--a", "2", "--r", "2", "--d", "1",
            "--n", "4..5", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        assert "check=product_dominates_construction" in out

    def test_hard_failure_exit_code(self, capsys, tmp_path):
        # the clone-preservation claim fails on random members, which must
        # surface as the dedicated hard-failure exit code
        code, out, _ = run(
            capsys,
            "verify", "transformations", "--trials", "400", "--out", str(tmp_path),
        )
        from sqgraphs.cli import EXIT_HARD_FAIL

        assert code == EXIT_HARD_FAIL
        assert "check=transform_preserves_clones" in out


class TestRangeArguments:
    def test_empty_formulas_range(self, capsys, tmp_path):
        code, out, err = run(capsys, "formulas", "--a", "4..2")
        assert code == EXIT_USAGE
        assert out == ""
        assert "empty range" in err

    def test_empty_verify_range(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "verify", "counting", "--n", "6..4", "--out", str(tmp_path)
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "empty range" in err

    # "{out}" stands for the test's own output directory; only commands that
    # accept --out get one
    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["verify", "conjecture", "--r", "3", "--n", "4..5", "--out", "{out}"], "s_base=6",
                id="conjecture-below-s_base",
            ),
            pytest.param(["formulas", "--r", "1"], "no grid point", id="formulas-r-below-2"),
            pytest.param(["formulas", "--a", "2", "--d", "5"], "no grid point", id="formulas-d-above-a-1"),
            pytest.param(["expi", "4", "4", "15", "--budget", "0", "--out", "{out}"], "--budget", id="budget-0"),
            pytest.param(["formulas", "--precision", "0"], "--precision", id="precision-0"),
            pytest.param(["verify", "transformations", "--trials", "0", "--out", "{out}"], "--trials", id="trials-0"),
            pytest.param(["verify", "identities", "--amax", "0", "--out", "{out}"], "--amax", id="amax-0"),
            pytest.param(["verify", "identities", "--rmax", "1", "--out", "{out}"], "--rmax", id="rmax-1"),
            # a flag the command does not read is rejected, not ignored
            *(
                pytest.param(argv, f"unrecognized arguments: {argv[-2]}", id=f"{argv[0]}-{argv[-2][2:]}")
                for argv in (
                    ["expi", "4", "4", "15", "--out", "{out}", "--precision", "30"],
                    ["exsum", "4", "4", "15", "--out", "{out}", "--precision", "30"],
                    ["count", "4", "4", "3", "--precision", "30"],
                    ["count", "4", "4", "3", "--cache", "{out}/c.jsonl"],
                    ["count", "4", "4", "3", "--out", "{out}"],
                    ["construct", "2", "2", "1", "5", "--out", "{out}", "--budget", "7"],
                    ["construct", "2", "2", "1", "5", "--out", "{out}", "--precision", "30"],
                    ["construct", "2", "2", "1", "5", "--out", "{out}", "--cache", "{out}/c.jsonl"],
                    ["iterate", "--a", "3", "--level", "2,1", "--sizes", "4,5", "--out", "{out}", "--budget", "7"],
                    ["iterate", "--a", "3", "--level", "2,1", "--sizes", "4,5", "--out", "{out}", "--precision", "30"],
                    ["iterate", "--a", "3", "--level", "2,1", "--sizes", "4,5", "--out", "{out}", "--cache", "{out}/c.jsonl"],
                    ["verify", "conditions", "--out", "{out}", "--cache", "{out}/c.jsonl"],
                    ["formulas", "--budget", "7"],
                    ["formulas", "--cache", "{out}/c.jsonl"],
                    ["formulas", "--out", "{out}"],
                )
            ),
        ],
    )
    def test_bad_selection(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, *(arg.format(out=tmp_path) for arg in argv))
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err
        assert not os.path.exists(tmp_path / "c.jsonl")


class TestFormulasCommand:
    def test_grid(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "formulas", "--a", "2..3", "--r", "2..2", "--d", "1..1",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 2
        rec = record_fields(lines[0])
        assert rec["a"] == "2" and rec["min_part_size"] == "3"
        assert rec["product_density_limit"].startswith("2.2310032")
