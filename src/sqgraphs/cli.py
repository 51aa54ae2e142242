"""Command-line interface: exact searches, constructions, and check suites.

Commands: exsum, expi, count, construct, iterate, verify, formulas.
Results are printed as structured text records (one per line, key=value)
for machine diffing, or as CSV with --format csv.  Exit codes: 0 on
success/optimal, 2 on usage errors, 3 on budget-bound results, 4 when a
verify suite records hard check failures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv as _csv
import io
import json
import os
import sys
import warnings

from . import formulas, search, verify
from .constructions import (
    IteratedSpec,
    iterated_multigraph,
    max_edge_product,
    max_edge_sum,
    optimum_to_dict,
    turan_multigraph,
)
from .multigraph import Params

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_HARD_FAIL = 4


def _emit(record: dict, args, header_done: list[bool]) -> None:
    if args.fmt == "csv":
        buf = io.StringIO()
        writer = _csv.writer(buf)
        if not header_done[0]:
            writer.writerow(record.keys())
            header_done[0] = True
        writer.writerow(record.values())
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write(
            " ".join(f"{k}={v}" for k, v in record.items()) + "\n"
        )


def _write_out(args, name: str, text: str) -> str:
    """Write ``text`` and a newline to file ``name`` under --out, unless it holds them; return its path."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    data = (text + "\n").encode("utf-8")
    with contextlib.suppress(OSError):  # unreadable: written below, or refused as before
        if os.path.isfile(path) and os.path.getsize(path) == len(data):
            with open(path, "rb") as fh:
                if fh.read() == data:
                    return path
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _at_least(minimum: int):
    """Argparse type: an int no smaller than ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def _range_arg(text: str) -> list[int]:
    """Parse '4..6' or '5' into a list of ints; an empty range is an error."""
    if ".." in text:
        lo, hi = (int(x) for x in text.split("..", 1))
        if lo > hi:
            raise ValueError(f"empty range {text!r}: {lo} > {hi}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _n_values(text: str, name: str, s: int) -> list[int]:
    """The n of a --n range that reach s; none is a usage error."""
    n_values = [n for n in _range_arg(text) if n >= s]
    if not n_values:
        raise ValueError(f"no n in {text!r} reaches {name}={s}")
    return n_values


def _search_record(args, value: int, optimal: bool, source: str) -> dict:
    n = args.n
    return {
        "command": args.command,
        "n": n,
        "s": args.s,
        "q": args.q,
        "value": str(value),
        "density": formulas.density(value, n * (n - 1) // 2),
        "optimal": str(optimal).lower(),
        "source": source,
    }


def _count_command(args) -> int:
    try:
        value = search.count_graphs(args.n, args.s, args.q, node_budget=args.budget)
    except search.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    _emit(_search_record(args, value, True, "search"), args, [False])
    return EXIT_OK


def _search_command(args) -> int:
    n, s, q = args.n, args.s, args.q
    seed = None
    if args.cache and not os.path.isdir(os.path.dirname(args.cache) or "."):  # refused before any output
        raise ValueError(f"--cache directory {os.path.dirname(args.cache)!r} does not exist")
    if args.cache:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", search.CacheWarning)
            seed = search.cached_outcome(args.cache, n, s, q, args.mode)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
    engine = search.max_sum_search if args.mode == "sum" else search.max_product_search
    outcome = engine(n, s, q, node_budget=args.budget, seed=seed)
    source = outcome.stats["source"]
    record = _search_record(args, outcome.value, outcome.optimal, source)
    record["upper"] = str(outcome.stats["upper"])
    stem = f"{args.command}_n{n}_s{s}_q{q}"
    record["witness"] = _write_out(args, stem + ".witness.json", outcome.witness.dumps())
    _emit(record, args, [False])
    if args.cache and source == "search":  # a "cache" outcome found nothing new to store
        search.append_cache(args.cache, search.cache_record(n, s, q, outcome))
    return EXIT_OK if outcome.optimal else EXIT_BUDGET


def _construct_command(args) -> int:
    params = Params(args.a, args.r, args.d)
    n = args.n
    pairs = n * (n - 1) // 2
    header = [False]
    for kind, opt in (
        ("sum", max_edge_sum(params, n)),
        ("product", max_edge_product(params, n)),
    ):
        witness = turan_multigraph(params, opt.argmax)
        stem = f"construct_a{args.a}_r{args.r}_d{args.d}_n{n}.{kind}"
        path = _write_out(args, stem + ".json", witness.dumps())
        _write_out(
            args, stem + ".opt.json", json.dumps(optimum_to_dict(params, n, opt), separators=(",", ":"))
        )
        _emit(
            {
                "command": "construct",
                "kind": kind,
                "a": args.a,
                "r": args.r,
                "d": args.d,
                "n": n,
                "value": str(opt.value),
                "density": formulas.density(opt.value, pairs),
                "argmax": "/".join(map(str, opt.argmax)),
                "all_argmax": ";".join("/".join(map(str, c)) for c in opt.all_argmax),
                "witness": path,
            },
            args,
            header,
        )
    return EXIT_OK


def _iterate_command(args) -> int:
    levels = tuple((int(r), int(d)) for r, d in (lv.split(",") for lv in args.level))
    spec = IteratedSpec(args.a, levels)
    sizes = [[int(x) for x in sz.split(",")] for sz in args.sizes]
    G = iterated_multigraph(spec, sizes)
    s = args.s if args.s is not None else spec.level_params()[0].s_base
    max_sum = G.max_subset_sum(s)[0] if s <= G.n else G.edge_sum()
    pairs = G.n * (G.n - 1) // 2
    path = _write_out(args, f"iterate_n{G.n}.witness.json", G.dumps())
    _emit(
        {
            "command": "iterate",
            "a": args.a,
            "levels": ";".join(f"{r},{d}" for r, d in levels),
            "n": G.n,
            "terminal_weight": spec.terminal_weight,
            "edge_sum": G.edge_sum(),
            "edge_product": str(G.edge_product()),
            "density": formulas.density(G.edge_product(), pairs),
            "s": s,
            "max_subset_sum": max_sum,
            "witness": path,
        },
        args,
        [False],
    )
    return EXIT_OK


# the verify suites, in the order `verify all` reports them
_SUITES = ("conjecture", "identities", "conditions", "counting", "transformations")


def _verify_command(args) -> int:
    suites = _SUITES if args.suite == "all" else (args.suite,)
    # check every selected suite's inputs before any suite runs or writes
    if "conjecture" in suites:
        params = Params(args.a, args.r, args.d)
        conjecture_n = _n_values(args.n, "s_base", params.s_base)
    if "counting" in suites:
        if args.a < 2 or args.r < 2:
            raise ValueError(f"need a, r >= 2, got a={args.a}, r={args.r}")
        counting_n = _n_values(args.n, "s", 2 * args.r)
    os.makedirs(args.out, exist_ok=True)
    # one row builder per suite, in _SUITES order; built per call, so the
    # verify.*_checks in place when the command runs is the one that runs
    builders = (
        lambda: verify.conjecture_checks(params, conjecture_n, node_budget=args.budget, dps=args.precision),
        lambda: verify.identity_checks(a_max=args.amax, r_max=args.rmax),
        verify.condition_checks,
        lambda: [
            row
            for n in counting_n
            for row in verify.counting_checks(n, args.a, args.r, node_budget=args.budget, dps=args.precision)
        ],
        lambda: verify.transformation_checks(trials=args.trials, seed=args.seed),
    )
    run = dict(zip(_SUITES, builders, strict=True))
    header = [False]
    import multiprocessing  # here, not at the top: the imports add ~7 ms to every command
    from concurrent.futures import ProcessPoolExecutor

    # the suites run side by side, up to one worker per CPU; fork hands each
    # worker the builders, and only the rows are pickled back
    workers = min(len(suites), os.cpu_count() or 1)
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _adopt_builders, (run,))
    try:
        # longest first (cold-cache costs, 2-core host: transformations 280 ms, counting 207,
        # identities 72, conditions 10, conjecture 4): two workers end `verify all` in ~293 ms, not 352
        pending = {suite: pool.submit(_run_suite, suite) for suite in reversed(suites)}
        for suite in suites:
            # re-raises the suite's exception, or BrokenProcessPool once a worker has died
            rows = pending[suite].result()
            verify.write_reports(rows, os.path.join(args.out, f"verify_{suite}"))
            for row in rows:
                _emit(row.record(), args, header)
            if verify.hard_failures(rows):
                # a failed theorem-backed check aborts the remaining suites,
                # whose rows are dropped
                return EXIT_HARD_FAIL
    finally:
        # end the workers of suites still running (what Python 3.14's
        # terminate_workers does); the pool then joins them
        for proc in list(pool._processes.values()):
            proc.terminate()
        pool.shutdown()
    return EXIT_OK


def _adopt_builders(builders: dict) -> None:  # pool initializer, run in each forked worker
    global _builders
    _builders = builders


def _run_suite(suite: str) -> list[verify.CheckReport]:
    return _builders[suite]()


def _formulas_command(args) -> int:
    points = [
        (a, r, d)
        for a in _range_arg(args.a)
        for r in _range_arg(args.r)
        for d in _range_arg(args.d)
        if 0 <= d <= a - 1 and r >= 2
    ]
    if not points:
        raise ValueError("no grid point has 0 <= d <= a-1 and r >= 2")
    header = [False]
    for a, r, d in points:
        params = Params(a, r, d)
        record = {
            "a": a,
            "r": r,
            "d": d,
            "light_part_fraction": str(
                formulas.light_part_fraction(params, args.precision)
            ),
            "sum_density_limit": str(formulas.sum_density_limit(params)),
            "plateau_density": str(formulas.plateau_density(a, r, args.precision)),
            "cross_gain": str(formulas.cross_gain_condition(a, r, d)).lower(),
            # every record has every column; "-" where a key does not apply
            "min_part_size": formulas.min_part_size(a, d) if d >= 1 else "-",
            "product_density_limit": (  # d == 1 implies a >= 2
                str(formulas.product_density_limit(a, r, args.precision)) if d == 1 else "-"
            ),
        }
        _emit(record, args, header)
    return EXIT_OK


# add_argument keywords of each flag that several commands share; a
# subcommand adds exactly the ones its handler reads
_SHARED_FLAGS = {
    "--budget": dict(type=_at_least(1), default=search.DEFAULT_NODE_BUDGET, help="node budget for searches and counts"),
    "--precision": dict(type=_at_least(1), default=formulas.DEFAULT_DPS, help="decimal digits for real-valued outputs"),
    "--cache": dict(default=None, help="append-only result cache file"),
    "--out": dict(default=".", help="directory for witness and report files"),
    "--format": dict(dest="fmt", choices=("text", "csv"), default="text"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqgraphs",
        description="Exact extremal computations for locally sparse multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, desc: str, handler, *flags: str, **defaults) -> argparse.ArgumentParser:
        """Add subcommand ``name`` with exactly the shared ``flags`` its handler reads."""
        p = sub.add_parser(name, help=desc)
        for flag in flags:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        p.set_defaults(handler=handler, **defaults)
        return p

    search_flags = ("--budget", "--cache", "--out", "--format")
    for p in (
        command("exsum", "maximum edge sum over (s,q)-graphs", _search_command, *search_flags, mode="sum"),
        command("expi", "maximum edge product over (s,q)-graphs", _search_command, *search_flags, mode="product"),
        command("count", "number of (s,q)-graphs", _count_command, "--budget", "--format"),
    ):
        for field in ("n", "s", "q"):
            p.add_argument(field, type=int)

    p = command("construct", "optimal construction members", _construct_command, "--out", "--format")
    for field in ("a", "r", "d", "n"):
        p.add_argument(field, type=int)

    p = command("iterate", "nested construction members", _iterate_command, "--out", "--format")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--level", action="append", required=True, metavar="R,D")
    p.add_argument("--sizes", action="append", required=True, metavar="V0,V1,...")
    p.add_argument("--s", type=int, default=None, help="subset size for the sparsity scan")

    p = command("verify", "run a check suite", _verify_command, "--budget", "--precision", "--out", "--format")
    p.add_argument("suite", choices=(*_SUITES, "all"))
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--n", default="4..6", help="n or lo..hi")
    p.add_argument("--amax", type=_at_least(1), default=6)
    p.add_argument("--rmax", type=_at_least(2), default=5)
    p.add_argument("--trials", type=_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=20240817)

    p = command("formulas", "closed-form grid evaluation", _formulas_command, "--precision", "--format")
    p.add_argument("--a", default="2..4", help="a or lo..hi")
    p.add_argument("--r", default="2..4", help="r or lo..hi")
    p.add_argument("--d", default="0..2", help="d or lo..hi")

    return parser


# built once per process, at import: main parses every command line with it
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    # print exact values in full; process-wide, so callers can parse them back
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
