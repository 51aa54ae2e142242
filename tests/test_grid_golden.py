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
from math import comb
from pathlib import Path

from sqgraphs.formulas import _amgm
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


def test_cross_instance_laws_hold():
    """Laws between instances that follow from the definition alone, so they
    share no code with the search's pruning.  A value is a lower bound on
    its optimum, so the side of a law that needs an upper bound uses only
    optimal instances."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    grid = {}
    for key, (value, optimal) in golden.items():
        mode, n, s, q = key.split()
        grid[mode, int(n), int(s), int(q)] = int(value), optimal
    cases = dict.fromkeys(("q", "s", "chain", "amgm", "sum_superadditive", "product_superadditive"), 0)
    broken = []

    def check(law: str, upper_key: tuple, holds) -> None:
        if grid.get(upper_key, (0, False))[1]:
            cases[law] += 1
            if not holds(grid[upper_key][0]):
                broken.append((law, upper_key))

    for (mode, n, s, q), (value, _) in grid.items():
        product = mode == "product"
        # an (s,q)-graph is an (s,q+1)-graph and an (s-1,q)-graph, so ex is
        # monotone in q and antitone in s
        check("q", (mode, n, s, q + 1), lambda ex: value <= ex)
        check("s", (mode, n, s - 1, q), lambda ex: value <= ex)
        # each pair lies in n-2 of the n induced (n-1)-vertex subgraphs
        if product:
            check("chain", (mode, n - 1, s, q), lambda ex: value ** (n - 2) <= ex**n)
            check("amgm", ("sum", n, s, q), lambda ex: value <= _amgm(ex, comb(n, 2)))
        else:
            check("chain", (mode, n - 1, s, q), lambda ex: (n - 2) * value <= n * ex)
        # the weight-wise sum of two witnesses is an (s, q1+q2)-graph, and
        # prod(a+b) >= prod(a) + prod(b) for nonnegative weights
        for q1 in range(1, q // 2 + 1):
            low = grid[mode, n, s, q1][0] + grid[mode, n, s, q - q1][0]
            check(f"{mode}_superadditive", (mode, n, s, q), lambda ex: low <= ex)
    assert not broken, broken
    # the counts at the time the test was written; optimal flags only grow
    minimum = dict(q=532, s=394, chain=414, amgm=274, sum_superadditive=845, product_superadditive=960)
    assert all(cases[law] >= count for law, count in minimum.items()), cases


if __name__ == "__main__":
    golden = run_grid()
    lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in golden.items())
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(golden)} instances to {GOLDEN}", file=sys.stderr)
