"""Golden search grid: value and optimality of 600 small instances.

The grid is both engines at 2 <= s <= n <= 7 and 0 <= q <= 15 (q <= 9 at
n = 7), each searched with a budget of 3,000 nodes.  A change to the
search may close more instances, but it must not move a value or lose
an optimal one.  Node counts are not pinned here.  After a deliberate
change of value, rewrite the golden data with

    PYTHONPATH=src python tests/test_grid_golden.py

and review the diff of tests/golden/grid.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from sqgraphs.search import max_product_search, max_sum_search

GOLDEN = Path(__file__).parent / "golden" / "grid.json"
BUDGET = 3_000


def grid():
    for mode, search in (("sum", max_sum_search), ("product", max_product_search)):
        for n in range(2, 8):
            for s in range(2, n + 1):
                for q in range(16 if n < 7 else 10):
                    yield f"{mode} {n} {s} {q}", search, (n, s, q)


def run_grid() -> dict[str, list]:
    """[value, optimal] per instance, the value as a decimal string."""
    out = {}
    for key, search, args in grid():
        outcome = search(*args, node_budget=BUDGET)
        out[key] = [str(outcome.value), outcome.optimal]
    return out


def test_grid_values_and_optimality_hold():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_grid()
    assert got.keys() == golden.keys()
    moved = {k: (golden[k][0], got[k][0]) for k in golden if got[k][0] != golden[k][0]}
    assert not moved, f"values moved (golden, now): {moved}"
    lost = [k for k in golden if golden[k][1] and not got[k][1]]
    assert not lost, f"no longer optimal: {lost}"


if __name__ == "__main__":
    golden = run_grid()
    lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in golden.items())
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(golden)} instances to {GOLDEN}", file=sys.stderr)
