"""Output checks for the benchmark's operations, against a known-values table.

Every check returns a Verdict: ``failed`` marks an operation that did not
complete (it counts into the failed fraction), ``problems`` lists outputs
that are wrong (any problem makes the run incorrect).  The checks read
only what the CLI printed and the witness files it wrote, and re-verify
each witness through ``Multigraph.loads(...).satisfies(s, q)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from sqgraphs.multigraph import Multigraph

HERE = Path(__file__).resolve().parent

# (mode, n, s, q) -> exact optimum, or (lo, hi) when only an interval is known
KNOWN: dict[tuple[str, int, int, int], int | tuple[int, int]] = {
    ("product", 5, 4, 15): 7776,
    ("product", 6, 4, 15): 419904,
    ("product", 7, 4, 15): 60466176,
    ("product", 8, 4, 15): 17414258688,
    ("product", 5, 4, 21): 248832,
    ("product", 6, 4, 21): 95551488,
    ("product", 7, 4, 21): 123834728448,
    ("product", 6, 6, 41): 2834352,
    ("product", 7, 6, 41): 918330048,
    ("sum", 5, 4, 15): 25,
    ("sum", 6, 4, 15): 37,
    ("sum", 6, 3, 9): 45,
    ("sum", 7, 4, 15): (51, 52),
    ("sum", 5, 3, 30): 100,
}

# Nodes per ladder instance at budget 300000, measured at the seed commit.
# A budget-bound call reports budget + 1: the engine counts the node that
# trips the budget before it stops.
SEED_NODES: dict[tuple[str, int, int, int], int] = {
    ("product", 5, 4, 15): 819,
    ("product", 6, 4, 15): 11376,
    ("product", 7, 4, 15): 276637,
    ("product", 8, 4, 15): 300001,
    ("product", 5, 4, 21): 4180,
    ("product", 6, 4, 21): 164961,
    ("product", 7, 4, 21): 300001,
    ("product", 6, 6, 41): 0,
    ("product", 7, 6, 41): 300001,
    ("sum", 5, 4, 15): 34919,
    ("sum", 6, 4, 15): 300001,
    ("sum", 6, 3, 9): 124135,
    ("sum", 7, 4, 15): 300001,
    ("sum", 5, 3, 30): 300001,
}

# Known defect: under the default int-to-str limit of Python 3.11 the
# product value of this member has too many digits to print, so the
# command exits 2.  Counted as a failed operation, not filtered out.
CONSTRUCT_DEFECT_POINT = (2, 3, 1, 150)
INT_STR_LIMIT_MESSAGE = "Exceeds the limit"

# Standing hard failures of `verify all` (kept red on purpose).
KNOWN_HARD_FAILS = frozenset(
    ("transform_preserves_clones", f"a={a} r={r} d={d} n=6 trials=1000")
    for a, r, d in ((2, 2, 1), (3, 2, 1), (3, 2, 2))
)


@dataclass
class Verdict:
    failed: bool = False
    problems: list[str] = field(default_factory=list)


def parse_record(line: str) -> dict[str, str]:
    """Split one text record ``k=v k=v ...`` (values hold no spaces)."""
    out = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if sep:
            out[key] = value
    return out


def _witness_problems(path: str | None, n: int, s: int | None, q: int | None, mode: str, value: int) -> list[str]:
    if not path:
        return ["no witness file"]
    try:
        G = Multigraph.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable witness {path}: {exc}"]
    problems = []
    if G.n != n:
        problems.append(f"witness has {G.n} vertices, expected {n}")
    elif s is not None and not G.satisfies(s, q):
        problems.append(f"witness {path} is not an ({s},{q})-graph")
    got = G.edge_product() if mode == "product" else G.edge_sum()
    if got != value:
        problems.append(f"witness {mode} differs from the reported value")
    return problems


def check_search(mode: str, n: int, s: int, q: int, rc, out: str) -> Verdict:
    """One `expi`/`exsum` call: exit code, optimality flag, value, witness."""
    tag = f"{'expi' if mode == 'product' else 'exsum'} {n} {s} {q}"
    if rc not in (0, 3):
        return Verdict(True, [f"{tag}: unexpected exit code {rc}"])
    lines = [ln for ln in out.splitlines() if ln.startswith("command=")]
    if len(lines) != 1:
        return Verdict(True, [f"{tag}: expected one record, got {len(lines)}"])
    rec = parse_record(lines[0])
    problems = []
    try:
        value = int(rec["value"])
        optimal = {"true": True, "false": False}[rec["optimal"]]
    except (KeyError, ValueError):
        return Verdict(True, [f"{tag}: malformed record {lines[0]!r}"])
    if (rec.get("n"), rec.get("s"), rec.get("q")) != (str(n), str(s), str(q)):
        problems.append(f"{tag}: record is for another instance")
    if optimal != (rc == 0):
        problems.append(f"{tag}: exit code {rc} with optimal={rec['optimal']}")
    known = KNOWN.get((mode, n, s, q))
    if known is not None:
        lo, hi = known if isinstance(known, tuple) else (known, known)
        if optimal and not lo <= value <= hi:
            problems.append(f"{tag}: optimal claim {value}, known optimum {known}")
        if not optimal and value > hi:
            problems.append(f"{tag}: lower bound {value} exceeds the known optimum {known}")
    problems += [f"{tag}: {p}" for p in _witness_problems(rec.get("witness"), n, s, q, mode, value)]
    return Verdict(False, problems)


def _member_value(a: int, r: int, d: int, sizes: list[int], kind: str) -> int:
    """Edge sum or product of the construction member, from its part sizes."""
    n = sum(sizes)
    light = math.comb(sizes[0], 2)
    middle = sum(math.comb(v, 2) for v in sizes[1:])
    cross = math.comb(n, 2) - light - middle
    if kind == "sum":
        return (a - d) * light + a * middle + (a + 1) * cross
    return (a - d) ** light * a ** middle * (a + 1) ** cross


def load_golden(name: str) -> dict:
    return json.loads((HERE / "golden" / name).read_text(encoding="utf-8"))


def check_construct(point: tuple[int, int, int, int], rc, out: str, err: str, golden: dict) -> Verdict:
    """One `construct a r d n` call, against the golden values and argmax sets."""
    a, r, d, n = point
    tag = "construct " + " ".join(map(str, point))
    if rc == 2 and point == CONSTRUCT_DEFECT_POINT and INT_STR_LIMIT_MESSAGE in err:
        return Verdict(True, [])
    if rc != 0:
        return Verdict(True, [f"{tag}: unexpected exit code {rc}: {err.strip()[:200]}"])
    records = [parse_record(ln) for ln in out.splitlines() if ln.startswith("command=")]
    kinds = [rec.get("kind") for rec in records]
    if kinds != ["sum", "product"]:
        return Verdict(True, [f"{tag}: expected sum and product records, got {kinds}"])
    problems = []
    expected = golden.get(" ".join(map(str, point)), {})
    for rec in records:
        kind = rec["kind"]
        value = int(rec["value"])
        sizes = [int(v) for v in rec["argmax"].split("/")]
        if sum(sizes) != n or len(sizes) != r:
            problems.append(f"{tag} {kind}: argmax {rec['argmax']} is not a composition of n into r parts")
            continue
        if _member_value(a, r, d, sizes, kind) != value:
            problems.append(f"{tag} {kind}: value does not match its argmax")
        want = expected.get(kind)
        if want is not None:
            if rec["value"] != want["value"]:
                problems.append(f"{tag} {kind}: value differs from the golden value")
            if rec["all_argmax"] != want["all_argmax"]:
                problems.append(f"{tag} {kind}: argmax set {rec['all_argmax']} != {want['all_argmax']}")
        problems += [f"{tag} {kind}: {p}" for p in _witness_problems(rec.get("witness"), n, None, None, kind, value)]
    return Verdict(False, problems)


def parse_rows(out: str) -> dict[tuple[str, str], str]:
    """(check, point) -> status for every `verify` row."""
    rows = {}
    for line in out.splitlines():
        if not line.startswith("check="):
            continue
        name = line[len("check="):].split(" ", 1)[0]
        point = line[line.index("point=[") + 7: line.index("] status=")]
        rows[(name, point)] = parse_record(line[line.index("] status=") + 2:])["status"]
    return rows


def check_verify(rc, out: str, golden: dict) -> Verdict:
    """`verify all`: exactly the standing hard failures, other rows as golden.

    A golden pass row must stay pass.  A golden reported-only row may
    disappear or turn into conclusive rows only when it recorded a budget
    stop (note ``inconclusive``/``skipped``): a faster engine may finish
    it.  No new row may fail.  The command exits 4 because of the
    standing failures, so it counts as a failed operation.
    """
    rows = parse_rows(out)
    problems = []
    if rc != 4:
        problems.append(f"verify all: exit code {rc}, expected 4")
    fails = {key for key, status in rows.items() if status == "fail"}
    if fails != KNOWN_HARD_FAILS:
        problems.append(f"verify all: fail rows {sorted(fails)} differ from the standing three")
    for key_text, want in golden["rows"].items():
        name, point = key_text.split("|", 1)
        got = rows.get((name, point))
        if want["status"] == "reported-only" and want["budget_stop"]:
            continue
        if got != want["status"]:
            problems.append(f"verify all: {name} [{point}] is {got}, golden {want['status']}")
    return Verdict(rc != 0, problems)
