"""Command-line behaviour: records, exit codes, witnesses, cache, reports."""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from sqgraphs.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, _write_out, main
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

    def test_count_budget_exit(self, capsys):
        code, out, err = run(capsys, "count", "6", "4", "9", "--budget", "1000")
        assert code == EXIT_BUDGET
        assert out == ""
        assert err == "error: count(6,4,9) exceeded the node budget of 1000\n"

    def test_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "expi", "3", "9", "1", "--out", str(tmp_path))
        assert code == EXIT_USAGE
        code = main(["expi", "not-a-number", "2", "3"])
        assert code == EXIT_USAGE

    def test_budget_bound_exit(self, capsys, tmp_path):
        # (6,4,15) takes 396 nodes, the two-weight seed's 59 first, so 40 stops it
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

    def test_cache_non_utf8_line_warns(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        argv = ("expi", "4", "4", "15", "--cache", cache, "--out", str(tmp_path))
        run(capsys, *argv)
        with open(cache, "ab") as fh:
            fh.write(b"\xff\xfe garbage\n")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK
        assert record_fields(out)["source"] == "cache"
        warnings = [ln for ln in err.splitlines() if ln.startswith("warning:")]
        assert len(warnings) == 1 and "skipped 1 malformed" in warnings[0]

    def test_cache_deeply_nested_line_warns(self, capsys, tmp_path):
        # json.loads raises RecursionError on it; the run searches and warns
        cache = str(tmp_path / "cache.jsonl")
        with open(cache, "w") as fh:
            fh.write("[" * 200_000 + "\n")
        code, out, err = run(capsys, "expi", "4", "4", "15", "--cache", cache, "--out", str(tmp_path))
        assert code == EXIT_OK
        assert record_fields(out)["value"] == "216"
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

    def test_cache_oversized_witness_is_searched_again(self, capsys, tmp_path):
        # untrusted n: sized against its edge list, never allocated
        cache = str(tmp_path / "cache.jsonl")
        rec = cache_record(4, 4, 15, SearchOutcome("product", 216, None, True, {}))
        rec["witness"] = {"n": 10**8, "edges": []}
        with open(cache, "w") as fh:
            fh.write(json.dumps(rec) + "\n")
        code, out, _ = run(capsys, "expi", "4", "4", "15", "--cache", cache, "--out", str(tmp_path))
        assert code == EXIT_OK
        fields = record_fields(out)
        assert fields["source"] == "search" and fields["value"] == "216"

    def test_cache_worse_record_is_not_served_as_optimal(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        argv = ("expi", "4", "4", "15", "--cache", cache, "--out", str(tmp_path))
        run(capsys, *argv)
        rec = json.loads(open(cache).read())
        rec["value"] = "64"
        for edge in rec["witness"]["edges"]:
            edge[2] = 2
        with open(cache, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        fields = record_fields(out)
        # the edited witness is feasible, so it only seeds the search
        assert (fields["value"], fields["optimal"], fields["source"]) == ("216", "true", "search")
        assert len(open(cache).read().splitlines()) == 3

    def test_cache_seed_below_the_root_bound_is_proved_again(self, capsys, tmp_path):
        # exsum 5 3 13 = 42, and the averaging chain gives only 43
        cache = str(tmp_path / "cache.jsonl")
        argv = ("exsum", "5", "3", "13", "--cache", cache, "--out", str(tmp_path))
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert record_fields(out)["source"] == "search"
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        fields = record_fields(out)
        assert (fields["value"], fields["optimal"], fields["source"]) == ("42", "true", "cache")
        # the proof needs nodes: within too small a budget the record stays a lower bound
        code, out, _ = run(capsys, *argv, "--budget", "5")
        assert code == EXIT_BUDGET
        fields = record_fields(out)
        assert (fields["value"], fields["optimal"], fields["upper"]) == ("42", "false", "43")
        assert fields["source"] == "cache"
        assert len(open(cache).read().splitlines()) == 1

    def test_cache_budget_bound_rerun_appends_no_duplicate(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        argv = ("expi", "6", "4", "15", "--cache", cache, "--out", str(tmp_path))
        for _ in range(2):
            code, out, _ = run(capsys, *argv, "--budget", "50")
            assert code == EXIT_BUDGET
        assert record_fields(out)["source"] == "cache"
        assert len(open(cache).read().splitlines()) == 1
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        fields = record_fields(out)
        assert (fields["value"], fields["optimal"]) == ("419904", "true")

    def test_cache_in_missing_directory_is_refused_before_searching(self, capsys, tmp_path):
        cache = str(tmp_path / "missing" / "cache.jsonl")
        out_dir = tmp_path / "out"
        argv = ("exsum", "4", "4", "15", "--cache", cache, "--format", "csv", "--out", str(out_dir))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "missing" in err
        assert not out_dir.exists()  # no witness file

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


OLD_NS = 1_000_000_000_000_000_000  # an mtime in 2001, set by hand


class TestWitnessFile:
    TEXT = '{"n":3,"edges":[[0,1,2]]}'

    def write(self, tmp_path) -> str:
        return _write_out(SimpleNamespace(out=str(tmp_path)), "w.witness.json", self.TEXT)

    def test_identical_file_is_left_alone(self, tmp_path):
        path = self.write(tmp_path)
        os.utime(path, ns=(OLD_NS, OLD_NS))
        inode = os.stat(path).st_ino
        assert self.write(tmp_path) == path
        assert (os.stat(path).st_ino, os.stat(path).st_mtime_ns) == (inode, OLD_NS)
        assert open(path, "rb").read() == (self.TEXT + "\n").encode()

    @pytest.mark.parametrize(
        "stale",
        [
            (TEXT.replace("2]]", "3]]") + "\n").encode(),  # same length, one byte changed
            (TEXT + "\n\n").encode(),  # longer, with the same prefix
            (TEXT + "\r\n").encode(),  # a CRLF copy
            (TEXT + "\r").encode(),  # same length, its newline a lone CR
        ],
    )
    def test_other_bytes_are_rewritten(self, tmp_path, stale):
        path = tmp_path / "w.witness.json"
        assert stale != (self.TEXT + "\n").encode()
        path.write_bytes(stale)
        os.utime(path, ns=(OLD_NS, OLD_NS))
        self.write(tmp_path)
        assert path.read_bytes() == (self.TEXT + "\n").encode()
        assert os.stat(path).st_mtime_ns != OLD_NS

    def test_directory_at_witness_path_exits_2(self, capsys, tmp_path):
        (tmp_path / "expi_n4_s4_q15.witness.json").mkdir()
        code, out, err = run(capsys, "expi", "4", "4", "15", "--out", str(tmp_path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error:")

    def test_rerun_leaves_witness_untouched(self, capsys, tmp_path):
        argv = ("expi", "4", "4", "15", "--out", str(tmp_path / "d"))
        code, first, _ = run(capsys, *argv)
        assert code == EXIT_OK
        path = record_fields(first)["witness"]
        os.utime(path, ns=(OLD_NS, OLD_NS))
        code, second, _ = run(capsys, *argv)
        assert (code, second) == (EXIT_OK, first)
        assert os.stat(path).st_mtime_ns == OLD_NS


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

    def test_more_sizes_than_levels_rejected(self, capsys, tmp_path):
        out_dir = tmp_path / "o"
        code, out, err = run(
            capsys,
            "iterate", "--a", "3", "--level", "2,1",
            "--sizes", "4,5", "--sizes", "2,2", "--out", str(out_dir),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "expected sizes for 1 levels, got 2" in err
        assert not out_dir.exists()

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

    def test_hard_failure_stops_the_remaining_suites(self, capsys, tmp_path, monkeypatch):
        from sqgraphs import verify
        from sqgraphs.cli import EXIT_HARD_FAIL

        code, conjecture_out, _ = run(capsys, "verify", "conjecture", "--n", "4", "--out", str(tmp_path / "c"))
        assert code == EXIT_OK
        failed = verify.CheckReport("sum_difference_step", "a=2", verify.FAIL, "1", "2")
        monkeypatch.setattr(verify, "identity_checks", lambda **kwargs: [failed])
        code, out, _ = run(capsys, "verify", "all", "--n", "4", "--out", str(tmp_path / "all"))
        assert code == EXIT_HARD_FAIL
        assert out == conjecture_out + verify.format_report_line(failed) + "\n"
        assert sorted(os.listdir(tmp_path / "all")) == [
            "verify_conjecture.csv", "verify_conjecture.txt",
            "verify_identities.csv", "verify_identities.txt",
        ]

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_all_equals_the_suites_run_one_at_a_time(self, capsys, tmp_path, fmt):
        from sqgraphs.cli import _SUITES, EXIT_HARD_FAIL

        flags = ("--n", "4", "--trials", "50", "--amax", "3", "--rmax", "3", "--format", fmt)
        code, out, _ = run(capsys, "verify", "all", *flags, "--out", str(tmp_path / "all"))
        assert code == EXIT_HARD_FAIL  # from the transformation suite's clone rows only
        singles = []
        for suite in _SUITES:
            code, single, _ = run(capsys, "verify", suite, *flags, "--out", str(tmp_path / "one"))
            assert code == (EXIT_HARD_FAIL if suite == "transformations" else EXIT_OK)
            # each run prints the csv header; `verify all` prints it once
            singles.append(single.split("\r\n", 1)[1] if fmt == "csv" and singles else single)
        assert out == "".join(singles)
        names = sorted(os.listdir(tmp_path / "all"))
        assert len(names) == 10 and names == sorted(os.listdir(tmp_path / "one"))
        for name in names:
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    @pytest.mark.parametrize("case", ["normal", "hard-failure", "error"])
    def test_no_worker_outlives_the_command(self, capsys, tmp_path, monkeypatch, case):
        from sqgraphs import verify
        from sqgraphs.cli import EXIT_HARD_FAIL

        def raising():
            raise ValueError("no rows at this point")

        if case == "hard-failure":
            failed = verify.CheckReport("sum_difference_step", "a=2", verify.FAIL, "1", "2")
            monkeypatch.setattr(verify, "identity_checks", lambda **kwargs: [failed])
        elif case == "error":
            monkeypatch.setattr(verify, "condition_checks", raising)
        argv = ("verify", "all", "--n", "4", "--trials", "50", "--amax", "3", "--rmax", "3", "--out", str(tmp_path))
        code, _, err = run(capsys, *argv)
        assert multiprocessing.active_children() == []
        if case == "error":
            # the suites before it are reported, as when the suites ran in turn
            assert (code, err) == (EXIT_USAGE, "error: no rows at this point\n")
            assert sorted(os.listdir(tmp_path)) == [
                "verify_conjecture.csv", "verify_conjecture.txt",
                "verify_identities.csv", "verify_identities.txt",
            ]
        else:
            assert code == EXIT_HARD_FAIL

    def test_a_killed_worker_fails_the_command(self, tmp_path):
        # a worker killed by a signal (as by the kernel's OOM killer) fails the
        # command at once, with the reason on stderr, and the other worker is
        # ended.  Run in a fresh interpreter with two workers, under a timeout:
        # a hang would run into it, and so would a worker left running, which
        # holds the captured pipes open
        import sqgraphs

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sqgraphs.__file__)))
        probe = (
            "import os, signal, sys\n"
            "from sqgraphs import cli, verify\n"
            "parent = os.getpid()\n"
            "def killed(**kwargs):\n"
            "    assert os.getpid() != parent, 'the suite ran in the parent'\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "os.cpu_count = lambda: 2\n"
            "verify.transformation_checks = killed\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        argv = ("verify", "all", "--n", "4", "--trials", "50", "--amax", "3", "--rmax", "3", "--out", str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        # transformations goes first, and counting holds the other worker, so
        # no suite's rows come back
        assert proc.returncode == 1
        assert "BrokenProcessPool" in proc.stderr and "terminated abruptly" in proc.stderr
        assert proc.stdout == "" and os.listdir(tmp_path) == []

    def test_importing_the_cli_leaves_multiprocessing_unloaded(self):
        # `verify` imports it where it builds the pool, so no other command pays for it
        import sqgraphs

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sqgraphs.__file__)))
        probe = "import sys, sqgraphs.cli; print('multiprocessing' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout == "False\n"


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
            pytest.param(
                ["verify", "counting", "--n", "-3", "--out", "{out}"], "no n in '-3' reaches s=4",
                id="counting-below-s",
            ),
            # every selected suite's inputs are checked before the first one runs
            pytest.param(
                ["verify", "all", "--d", "0", "--r", "3", "--n", "4..5", "--out", "{out}"],
                "no n in '4..5' reaches s=6", id="all-counting-below-s",
            ),
            # a budget-bound count once hid a = 1 behind a skipped row, exit 0
            pytest.param(
                ["verify", "counting", "--a", "1", "--n", "4", "--budget", "1", "--out", "{out}"],
                "need a, r >= 2", id="counting-a-below-2",
            ),
            pytest.param(["formulas", "--r", "1"], "no grid point", id="formulas-r-below-2"),
            pytest.param(["formulas", "--a", "2", "--d", "5"], "no grid point", id="formulas-d-above-a-1"),
            pytest.param(["expi", "4", "4", "15", "--budget", "0", "--out", "{out}"], "--budget", id="budget-0"),
            # refused before a table of the C(26,13) s-sets is built, at any budget
            pytest.param(["count", "26", "13", "1", "--budget", "1000"], "table of over", id="count-table-limit"),
            pytest.param(
                ["expi", "26", "13", "100", "--budget", "1000", "--out", "{out}"], "table of over",
                id="expi-table-limit",
            ),
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
        assert not list(tmp_path.glob("verify_*"))


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

    def test_csv_is_a_table(self, capsys):
        code, out, _ = run(capsys, "formulas", "--format", "csv")
        assert code == EXIT_OK
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert header[-2:] == ["min_part_size", "product_density_limit"]
        assert rows and all(len(row) == len(header) for row in rows)
        by_d = {row[2]: row[-2:] for row in rows}
        assert by_d["0"] == ["-", "-"] and by_d["2"][1] == "-"
