"""The four workloads: inputs made from a seed, passes of operations, checks.

Each workload turns its seed into a list of operations.  A pass runs the
list once in a closed loop with one client (the next operation starts
when the previous one returns).  Only the call into sqgraphs is timed;
the output checks run between operations, outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checker
import speed

import sqgraphs.cli
import sqgraphs.search

LADDER_BUDGET = 300_000
LADDER: list[tuple[str, int, int, int]] = (
    [("product", n, 4, 15) for n in range(5, 9)]
    + [("product", n, 4, 21) for n in range(5, 8)]
    + [("product", n, 6, 41) for n in (6, 7)]
    + [("sum", 5, 4, 15), ("sum", 6, 4, 15), ("sum", 6, 3, 9), ("sum", 7, 4, 15), ("sum", 5, 3, 30)]
)
# (a,r,d) -> the (s, q) of its product-search series on the ladder
FRONTIER_SERIES = {"2-2-1": (4, 15), "3-2-1": (4, 21), "2-3-1": (6, 41)}

# Both sides of the n > 60 float-prefilter switch in max_edge_product.
CONSTRUCT_POINTS = [(2, 8, 1, 60), (2, 8, 1, 61), (2, 6, 1, 80), (3, 4, 2, 120), checker.CONSTRUCT_DEFECT_POINT]

CERTIFY_BUDGET = 2_000_000
MATRIX_CAPS = range(13)

CACHE_PREFILL = 208
CACHE_MISS_EVERY = 10  # one request in ten asks for a key not cached yet

COMMANDS = {"product": "expi", "sum": "exsum"}


@dataclass
class Op:
    run: Callable[[], object]  # timed: the call into sqgraphs
    check: Callable[[object], checker.Verdict]  # untimed


@dataclass
class PassResult:
    walls: list[float] = field(default_factory=list)  # seconds at the reference host speed
    raw_walls: list[float] = field(default_factory=list)  # measured wall seconds
    cpus: list[float] = field(default_factory=list)  # measured process CPU seconds
    speed: float = 1.0  # mean host speed over the pass (1.0 = reference)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls)


def clear_program_caches() -> None:
    """Empty every lru cache in sqgraphs, as a fresh process would have them."""
    for name, mod in list(sys.modules.items()):
        if name == "sqgraphs" or name.startswith("sqgraphs."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def call_cli(argv: list[str]) -> tuple[object, str, str]:
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sqgraphs.cli.main(argv)
        except Exception:
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def run_pass(workload: "Workload", inputs, workdir: Path) -> PassResult:
    """One closed-loop pass over the workload's operations.

    The output directory starts empty, so every pass writes the same files;
    ``workload.before_op`` and the checks run outside the timed region.
    """
    shutil.rmtree(workdir / "out", ignore_errors=True)
    (workdir / "out").mkdir()
    ops = workload.ops(inputs, workdir)
    res = PassResult()
    clear_program_caches()
    gc.collect()
    intervals = []
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        for op in ops:
            workload.before_op()
            t0, c0 = time.perf_counter(), time.process_time()
            outcome = op.run()
            t1, c1 = time.perf_counter(), time.process_time()
            intervals.append((t0, t1))
            res.raw_walls.append(t1 - t0)
            res.cpus.append(c1 - c0)
            verdict = op.check(outcome)
            res.attempted += 1
            res.failed += verdict.failed
            res.problems += verdict.problems
        end = time.perf_counter()
        time.sleep(speed.MIN_WINDOW / 2)  # samples after the last operation
    res.walls = [probe.corrected(t0, t1) for t0, t1 in intervals]
    res.speed = probe.speed(start, end)
    return res


def _search_argv(key, workdir: Path, *extra: str) -> list[str]:
    mode, n, s, q = key
    return [COMMANDS[mode], str(n), str(s), str(q), "--out", str(workdir / "out"), *extra]


class Workload:
    """One workload: ``prepare`` is set-up, ``ops`` builds one pass."""

    name: str
    nominal_pass_s: float  # one pass at the reference host speed, roughly

    def before_op(self) -> None:
        """Each CLI command stands for a fresh process: no warm caches, no garbage.

        Collecting here keeps a collection that an earlier operation's
        garbage would trigger from being charged to the next operation.
        """
        clear_program_caches()
        gc.collect()

    def prepare(self, seed: int, workdir: Path):
        raise NotImplementedError

    def ops(self, inputs, workdir: Path) -> list[Op]:
        raise NotImplementedError


class SearchWorkload(Workload):
    name = "search"
    nominal_pass_s = 25.0

    def prepare(self, seed, workdir):
        order = list(LADDER)
        random.Random(seed).shuffle(order)
        return order

    def ops(self, order, workdir):
        def op(key):
            argv = _search_argv(key, workdir, "--budget", str(LADDER_BUDGET))
            return Op(
                lambda: call_cli(argv),
                lambda res: checker.check_search(*key, res[0], res[1]),
            )

        return [op(key) for key in order]


class ConstructWorkload(Workload):
    """The points in a fixed order, whatever the seed.

    Each point allocates up to ~150 MB; the allocator state one point
    leaves shifts the next point's time, so a seeded order would add
    run-to-run spread without measuring anything.
    """

    name = "construct"
    nominal_pass_s = 12.0

    def prepare(self, seed, workdir):
        return CONSTRUCT_POINTS, checker.load_golden("construct.json")["points"]

    def ops(self, inputs, workdir):
        order, golden = inputs

        def op(point):
            argv = ["construct", *map(str, point), "--out", str(workdir / "out")]
            return Op(
                lambda: call_cli(argv),
                lambda res: checker.check_construct(point, res[0], res[1], res[2], golden),
            )

        return [op(point) for point in order]


def _matrix_row_op(n: int, s: int) -> Op:
    """One (n, s) row of the matrix: every cap q, each mode, engine against oracle."""

    def run():
        S = sqgraphs.search
        rows = []
        for q in MATRIX_CAPS:
            rows.append(("product", q, S.max_product_search(n, s, q).value, S.brute_force(n, s, q, "product", q).value))
            rows.append(("sum", q, S.max_sum_search(n, s, q).value, S.brute_force(n, s, q, "sum", q).value))
            rows.append(("count", q, S.count_graphs(n, s, q), S.brute_force(n, s, q, "count", q).value))
        return rows

    def check(rows):
        return checker.Verdict(False, [
            f"matrix {mode}({n},{s},{q}): engine {engine} != oracle {oracle}"
            for mode, q, engine, oracle in rows if engine != oracle
        ])

    return Op(run, check)


class CertifyWorkload(Workload):
    """`verify all` at a lowered budget, then the engine-vs-oracle matrix.

    The matrix keeps the loop order of acceptance criterion 1 (s outer,
    cap q inner), so the oracle's per-cap table cache sees the same
    access pattern as the test suite.  Program caches are emptied once per
    pass, not per operation, because that access pattern is what is
    measured.  One operation is one (n, s) row: single entries take well
    under a millisecond, too short to time steadily.
    """

    name = "certify"
    nominal_pass_s = 15.0

    def before_op(self) -> None:
        pass

    def prepare(self, seed, workdir):
        return seed, checker.load_golden("certify.json")

    def ops(self, inputs, workdir):
        seed, golden = inputs
        argv = ["verify", "all", "--budget", str(CERTIFY_BUDGET), "--seed", str(seed), "--out", str(workdir / "out")]
        ops = [Op(lambda: call_cli(argv), lambda res: checker.check_verify(res[0], res[1], golden))]
        ops += [_matrix_row_op(n, s) for n in (3, 4) for s in range(2, n + 1)]
        return ops


def cache_universe() -> tuple[list, list]:
    """(prefilled keys, new keys): a fixed split, the same for every seed.

    The keys are the 320 cheap instances with n <= 5 and q <= 15.  Fixing
    the split fixes which searches the misses run, so the tail latency
    does not depend on the seed.  112 new keys make a stream of 1120
    requests per pass; the two passes of a run put 22 samples beyond p99.
    """
    small = [
        (mode, n, s, q)
        for mode in ("product", "sum")
        for n in range(2, 6)
        for s in range(2, n + 1)
        for q in range(16)
    ]
    random.Random("sqgraphs-cache-split").shuffle(small)
    return small[:CACHE_PREFILL], small[CACHE_PREFILL:]


def cache_stream(seed: int, prefilled: list, new: list) -> list:
    """Requests in order: hits on cached keys, and each new key once.

    Block i of CACHE_MISS_EVERY requests holds new key i at a seeded
    place.  Each miss thus meets the cache file at the same size for
    every seed, which keeps the tail latency steady; the seed picks the
    hit keys and where in its block each miss falls.
    """
    rng = random.Random(seed)
    cached = list(prefilled)
    stream = []
    for key in new:
        block = [rng.choice(cached) for _ in range(CACHE_MISS_EVERY - 1)]
        block.insert(rng.randrange(CACHE_MISS_EVERY), key)
        cached.append(key)
        stream += block
    return stream


class CacheWorkload(Workload):
    """A request stream against a `--cache` file the program pre-filled."""

    name = "cache"
    nominal_pass_s = 8.0

    def before_op(self) -> None:
        # a full collection per request would cost more than the request;
        # collector effects average out over the stream's 1120 requests
        clear_program_caches()

    def prepare(self, seed, workdir):
        prefilled, new = cache_universe()
        stream = cache_stream(seed, prefilled, new)
        path = workdir / "prefill.jsonl"
        path.unlink(missing_ok=True)
        values = {}
        for key in prefilled:
            rc, out, _ = call_cli(_search_argv(key, workdir, "--cache", str(path)))
            if rc != 0:
                raise RuntimeError(f"cache pre-fill failed on {key}: exit {rc}")
            values[key] = checker.parse_record(out.splitlines()[0])["value"]
        return stream, path, values

    def ops(self, inputs, workdir):
        stream, prefill, prefill_values = inputs
        live = workdir / "cache.jsonl"
        shutil.copyfile(prefill, live)
        values = dict(prefill_values)

        def check(key, res):
            verdict = checker.check_search(*key, res[0], res[1])
            if verdict.failed:
                return verdict
            value = checker.parse_record(res[1].splitlines()[0])["value"]
            first = values.setdefault(key, value)
            if value != first:
                verdict.problems.append(f"cache: {key} served {value}, written as {first}")
            return verdict

        def op(key):
            argv = _search_argv(key, workdir, "--cache", str(live))
            return Op(lambda: call_cli(argv), lambda res: check(key, res))

        return [op(key) for key in stream]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SearchWorkload(), ConstructWorkload(), CertifyWorkload(), CacheWorkload())
}


def frontier(keys_optimal: dict) -> dict[str, int]:
    """Largest ladder n solved to proven optimality, per (a,r,d) series."""
    out = {}
    for label, (s, q) in FRONTIER_SERIES.items():
        exact = [n for (mode, n, ss, qq), opt in keys_optimal.items() if mode == "product" and (ss, qq) == (s, q) and opt]
        out[label] = max(exact, default=0)
    return out


def ladder_name(key) -> str:
    mode, n, s, q = key
    return f"{COMMANDS[mode]}-{n}-{s}-{q}"

