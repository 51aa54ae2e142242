"""sqgraphs benchmark: run one workload and print its metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Workloads are listed in ``workloads.WORKLOADS``.  ``--trace 0`` runs timed
passes with nothing wrapped and reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs one pass with nothing wrapped and one
with spans recorded around the sqgraphs entry points, and reports the
per-layer metrics.  ``--workload all`` runs every workload with
``--trace 0`` and then ``--trace 1``, each run in its own child process,
one after another.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# one thread: the benchmark measures the single-threaded program
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 7
PREPARE_REPEATS = 3
IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import sqgraphs.cli"

if not (SRC / "sqgraphs" / "cli.py").is_file():
    sys.exit(f"error: no sqgraphs sources under {SRC}")
sys.path.insert(0, str(SRC))

import checker  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    def output_of(cmd: list[str]) -> str:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return "unavailable"
        return done.stdout.strip() if done.returncode == 0 else "unavailable"

    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": output_of(["git", "rev-parse", "HEAD"]),
        "python": sys.executable,
        "python_version": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "int_max_str_digits": sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def measure_setup(workload, seed: int, workdir: Path):
    """Set-up time: median interpreter start + ``import sqgraphs.cli`` in a
    fresh child process, plus the median time to make the inputs."""
    starts, prepares = [], []
    inputs = None
    with speed.SpeedProbe() as probe:
        for _ in range(IMPORT_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(SRC)], check=True)
            starts.append((t0, time.perf_counter()))
        for _ in range(PREPARE_REPEATS):
            workloads.clear_program_caches()
            t0 = time.perf_counter()
            inputs = workload.prepare(seed, workdir)
            prepares.append((t0, time.perf_counter()))
        time.sleep(speed.MIN_WINDOW / 2)  # samples after the last interval
    setup_s = sum(statistics.median(probe.corrected(*iv) for iv in ivs) for ivs in (starts, prepares))
    return setup_s, inputs


def timed_passes(workload, inputs, workdir: Path, seconds: float) -> list:
    """As many whole passes as fit in ``seconds`` at the reference speed; at least one.

    The count depends only on ``seconds`` and the workload's nominal pass
    time, never on how fast this host is right now, so every run of a
    workload averages the same number of passes.
    """
    count = max(1, int(seconds // workload.nominal_pass_s))
    return [workloads.run_pass(workload, inputs, workdir) for _ in range(count)]


def end_to_end(passes: list, setup_s: float) -> dict:
    # numpy-style linear interpolation between closest ranks
    cuts = statistics.quantiles([w for p in passes for w in p.walls], n=100, method="inclusive")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(p.wall for p in passes),
        "op_p50_ms": cuts[49] * 1e3,
        "op_p99_ms": cuts[98] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(spans: list, untraced, traced, workload_name: str) -> dict:
    """Layer metrics from the traced pass; times at the reference host speed."""
    k = traced.speed
    selfs = [st * k for st in tracing.self_times(spans)]

    def dur(sp) -> float:
        return (sp.end - sp.start) * k

    layer_self: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    under_search = []
    for sp, st in zip(spans, selfs):
        name = sp.name
        layer = name.split(".")[0]
        layer_self[layer] += st
        layer_self[name] += st
        calls[layer] += 1
        calls[name] += 1
        parent = spans[sp.parent] if sp.parent >= 0 else None
        under_search.append(parent is not None and (parent.name.startswith("search.") or under_search[sp.parent]))

    engine = [sp for sp in spans if sp.name.startswith("search.")]
    nodes = sum(sp.info.get("nodes", 0) for sp in engine)
    bound = [sp for sp in engine if sp.info.get("optimal") is False]
    counts = [sp for sp in spans if sp.name == "count.count_graphs"]
    oracle = [sp for sp in spans if sp.name == "oracle.brute_force"]
    lookups = [sp for sp in spans if sp.name == "cache.cached_outcome"]
    appends = [sp for sp in spans if sp.name == "cache.append_cache"]
    hits = sum(bool(sp.info.get("hit")) for sp in lookups)

    out = {
        "search.calls": len(engine),
        "search.nodes": nodes,
        "search.bound_prunes": sum(sp.info.get("bound_prunes", 0) for sp in engine),
        "search.symmetry_prunes": sum(sp.info.get("symmetry_prunes", 0) for sp in engine),
        "search.budget_bound": len(bound),
        "search.exact_count": sum(sp.info.get("optimal") is True for sp in engine),
        "search.wasted_node_frac": sum(sp.info.get("nodes", 0) for sp in bound) / nodes if nodes else 0.0,
        "search.self_s": layer_self["search"],
        "search.us_per_node": layer_self["search"] * 1e6 / nodes if nodes else 0.0,
        "count.calls": len(counts),
        "count.budget_exceeded": sum(bool(sp.info.get("budget_exceeded")) for sp in counts),
        "count.wasted_s": sum(dur(sp) for sp in counts if sp.info.get("budget_exceeded")),
        "count.self_s": layer_self["count"],
        "oracle.calls": len(oracle),
        "oracle.self_s": layer_self["oracle"],
        "oracle.max_call_s": max((dur(sp) for sp in oracle), default=0.0),
        "cache.lookups": len(lookups),
        "cache.hits": hits,
        "cache.hit_ratio": hits / len(lookups) if lookups else 0.0,
        "cache.lookup_s": sum(dur(sp) for sp in lookups),
        "cache.appends": len(appends),
        "cache.append_s": sum(dur(sp) for sp in appends),
        "cache.bytes_per_lookup": sum(sp.info.get("bytes", 0) for sp in lookups) / len(lookups) if lookups else 0.0,
        "constructions.calls": calls["constructions"],
        "constructions.self_s": layer_self["constructions"],
        "constructions.seed_s": sum(
            st for sp, st, under in zip(spans, selfs, under_search) if under and sp.name.startswith("constructions.")
        ),
        "multigraph.find_violation.calls": calls["multigraph.find_violation"],
        "multigraph.find_violation.self_s": layer_self["multigraph.find_violation"],
        "families.self_s": layer_self["families"],
        "formulas.self_s": layer_self["formulas"],
        "cli.self_s": layer_self["cli"],
        "wait_s": sum(untraced.raw_walls) - sum(untraced.cpus),
        "host.speed": traced.speed,
        "trace.overhead_frac": (traced.wall - untraced.wall) / untraced.wall,
    }
    for suite in ("conjecture", "identities", "conditions", "counting", "transformations"):
        out[f"verify.{suite}.self_s"] = layer_self[f"verify.{suite}"]

    # the ladder's own numbers: only the search workload runs the ladder
    on_ladder = workload_name == "search"
    ladder_nodes = {sp.info["key"]: sp.info.get("nodes", 0) for sp in engine} if on_ladder else {}
    optimal = {sp.info["key"]: sp.info.get("optimal") for sp in engine} if on_ladder else {}
    for key in workloads.LADDER:
        out[f"search.nodes.{workloads.ladder_name(key)}"] = ladder_nodes.get(key, 0)
    for label, n in workloads.frontier(optimal).items():
        out[f"search.frontier.{label}"] = n
    out["search.node_drift"] = sum(
        ladder_nodes.get(key) != checker.SEED_NODES[key] for key in workloads.LADDER
    ) if on_ladder else 0
    return out


def pick(spec: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run_one(args, bench: dict) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    try:
        setup_s, inputs = measure_setup(workload, args.seed, workdir)
        if not args.trace:
            passes = timed_passes(workload, inputs, workdir, args.seconds)
            metrics = pick(bench["end_to_end"], end_to_end(passes, setup_s))
        else:
            untraced = workloads.run_pass(workload, inputs, workdir)
            recorder = tracing.Recorder()
            recorder.install()
            try:
                traced = workloads.run_pass(workload, inputs, workdir)
            finally:
                recorder.uninstall()
            if recorder.missing:
                print(f"note: entry points not found: {recorder.missing}", file=sys.stderr)
            passes = [untraced, traced]
            metrics = pick(bench["per_layer"], per_layer(recorder.spans, untraced, traced, args.workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    measured = [
        {"wall_s": sum(p.raw_walls), "cpu_s": sum(p.cpus), "host_speed": p.speed, "ref_s": p.wall} for p in passes
    ]
    print(json.dumps({"env": environment(), "passes": measured}))
    problems = [msg for p in passes for msg in p.problems]
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:>9} {name:<36} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload, timed and then traced, each run in its own fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                raise SystemExit(f"workload {name} exited with {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "construct", "certify", "cache", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args, bench)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
