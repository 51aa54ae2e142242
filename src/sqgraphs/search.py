"""Exact extremal search over locally sparse multigraphs.

Computes the maximum edge sum and the maximum edge product over all
(s,q)-graphs on n labeled vertices by branch-and-bound over weight
assignments, counts the family exactly on tiny instances, and provides a
fully independent brute-force oracle used to validate the pruned
engines.  All values are exact integers; products use arbitrary
precision throughout.
"""

from __future__ import annotations

import json
import time
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import prod
from operator import itemgetter

import numpy as np

from .constructions import max_edge_product, max_edge_sum, turan_multigraph
from .formulas import _amgm
from .multigraph import Multigraph, Params, pair_rank

ENGINE_VERSION = "1"

DEFAULT_NODE_BUDGET = 20_000_000
DEFAULT_ORACLE_BUDGET = 50_000_000

_MODES = ("sum", "product", "count")


class BudgetExceededError(RuntimeError):
    """Raised when an exact computation would exceed its resource budget."""


class _Stop(Exception):
    """Unwinds the search: the budget ran out or the incumbent met `upper`."""


class CacheWarning(UserWarning):
    """A result cache file held lines that could not be read as records."""


@dataclass
class SearchOutcome:
    """Result of one extremal computation.

    value is exact; witness (when present) realizes it and satisfies the
    sparsity bound.  optimal=False marks a run whose budget ran out before
    the incumbent met the root bound: value is then only a lower bound,
    and stats["upper"] bounds the optimum from above (it equals value
    when optimal).
    """

    mode: str
    value: int
    witness: Multigraph | None
    optimal: bool
    stats: dict = field(default_factory=dict)


def _validate(n: int, s: int, q: int) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 2 <= s <= n:
        raise ValueError(f"need 2 <= s <= n, got s={s}, n={n}")
    if q < 0:
        raise ValueError(f"need q >= 0, got {q}")


def _iroot(x: int, k: int) -> int:
    """Largest R >= 0 with R**k <= x, by integer bisection."""
    lo, hi = 0, 1 << (x.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _averaging_chain(n: int, s: int, q: int, product: bool) -> int:
    """Upper bound on the optimum over (s,q)-graphs on n vertices.

    Recursive Katona chain: an (s,q)-graph on t vertices restricts to an
    (s,q)-graph on each of its t (t-1)-subsets, and each pair lies in t-2
    of them, so (t-2)*ex(t) <= t*ex(t-1) for sums and ex(t)**(t-2) <=
    ex(t-1)**t for products.  From ex(s) <= q, or _amgm(q, C(s,2)) for
    products, each step is floored up to t = n.  The result is never above
    the one-step Katona bound from t = s straight to t = n.
    """
    u = _amgm(q, s * (s - 1) // 2) if product else q
    for t in range(s + 1, n + 1):
        u = _iroot(u**t, t - 2) if product else t * u // (t - 2)
    return u


@lru_cache(maxsize=None)
def _rank_table(n: int) -> tuple[tuple[int, ...], ...]:
    """R[u][v] = pair_rank(u, v); the diagonal is never read."""
    return tuple(tuple(pair_rank(u, v) if u != v else -1 for v in range(n)) for u in range(n))


def _lex_leader(W: list[int], j: int, R: tuple[tuple[int, ...], ...]) -> bool:
    """False if a relabeling of {0..j} makes block {0..j}, W[:C(j+1,2)] in
    colex order, lexicographically larger.

    Sound: such a relabeling moves block entries only within the block,
    which precedes every later pair, so it would enlarge all of W; the
    lex-max labeling of any optimum therefore passes at every block.  The
    images p[0], p[1], ... of 0, 1, ... are picked in turn, and the first
    y+1 picks fix column y, the entries W[R[p[x]][p[y]]] for x < y.  A
    larger column rejects W, a smaller one abandons the branch, a tie goes
    deeper.  Column 1 is the pair that p[0], p[1] map onto (0, 1), so W is
    rejected if a block pair is heavier than W[0], and only pairs of
    weight W[0] start.
    """
    top = W[0]
    if max(W[: j * (j + 1) // 2]) > top:
        return False
    p = [0] * (j + 1)
    free = [True] * (j + 1)

    def larger(y: int) -> bool:  # some completion of p[:y] beats W
        if y > j:
            return False
        c = y * (y - 1) // 2
        for z in range(j + 1):
            if free[z]:
                Rz = R[z]
                for x in range(y):
                    a, b = W[Rz[p[x]]], W[c + x]
                    if a != b:
                        if a > b:
                            return True
                        break
                else:
                    free[z], p[y] = False, z
                    if larger(y + 1):
                        return True
                    free[z] = True
        return False

    for u in range(j + 1):
        for v in range(u + 1, j + 1):
            if W[R[u][v]] == top:
                free[u] = free[v] = False
                p[0], p[1] = u, v
                if larger(2):
                    return False
                p[0], p[1] = v, u
                if larger(2):
                    return False
                free[u] = free[v] = True
    return True


@lru_cache(maxsize=None)
def _layout(n: int, s: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """(sset_pairs, cover): pair ranks inside each s-set, s-sets on each pair."""
    sset_pairs = tuple(
        tuple(sorted(pair_rank(u, v) for u, v in combinations(X, 2)))
        for X in combinations(range(n), s)
    )
    cover: list[list[int]] = [[] for _ in range(n * (n - 1) // 2)]
    for xid, prs in enumerate(sset_pairs):
        for e in prs:
            cover[e].append(xid)
    return sset_pairs, tuple(map(tuple, cover))


@lru_cache(maxsize=None)
def _depth_tables(n: int, s: int) -> tuple[tuple, tuple]:
    """Per depth k of the rank-order search: open_sets[k] holds (X, getter of
    X's pairs >= k) for each s-set X with >= 2 of them; later[k] holds (X, X's
    pairs > k) for each X on pair k."""
    sset_pairs, cover = _layout(n, s)
    open_sets, later = [], []
    for k in range(len(cover)):
        tails = [(X, tuple(e for e in prs if e >= k)) for X, prs in enumerate(sset_pairs)]
        open_sets.append(tuple((X, itemgetter(*prs)) for X, prs in tails if len(prs) >= 2))
        later.append(tuple((X, tails[X][1][1:]) for X in cover[k]))
    return tuple(open_sets), tuple(later)


def _seed_witnesses(n: int, s: int, q: int, mode: str) -> Iterator[Multigraph]:
    """Feasible starting incumbents: constant graph, then construction optima.

    Every construction whose s-vertex optimum stays within q is feasible
    on n vertices because induced subsets of a member are members at the
    smaller size.  Lazy, so the caller can stop at a seed that meets the
    root bound.
    """
    spairs = s * (s - 1) // 2
    g = Multigraph.constant(n, q // spairs)
    seen = {g.weights()}
    yield g
    optimize = max_edge_product if mode == "product" else max_edge_sum
    amax = q // spairs + 1
    for a in range(1, amax + 1):
        for r in range(1, s + 1):
            for d in range(0, a):
                params = Params(a, r, d)
                if max_edge_sum(params, s).value > q:
                    continue
                g = turan_multigraph(params, optimize(params, n).argmax)
                if g.weights() not in seen:
                    seen.add(g.weights())
                    if g.satisfies(s, q):
                        yield g


def _graph_value(G: Multigraph, mode: str) -> int:
    return G.edge_product() if mode == "product" else G.edge_sum()


def _run_search(
    n: int, s: int, q: int, mode: str, node_budget: int
) -> SearchOutcome:
    t0 = time.perf_counter()
    _validate(n, s, q)
    P = n * (n - 1) // 2
    spairs = s * (s - 1) // 2
    product = mode == "product"
    wlo = 1 if product else 0

    sset_pairs, cover = _layout(n, s)
    open_sets, later = _depth_tables(n, s)
    S = len(sset_pairs)

    upper = _averaging_chain(n, s, q, product)
    seeds = []
    for g in _seed_witnesses(n, s, q, mode):  # none can exceed upper
        seeds.append(g)
        if _graph_value(g, mode) >= upper:
            break
    inc_wit = max(seeds, key=lambda g: _graph_value(g, mode))
    inc_val = _graph_value(inc_wit, mode)

    rem = [q] * S
    am = [_amgm(q, spairs)] * S
    W = [0] * P
    R = _rank_table(n)
    block = {pair_rank(j - 1, j): j for j in range(2, n)}  # pair k completes {0..j}
    nodes = bound_prunes = symmetry_prunes = 0

    # wlo is the least weight tried: a product search with q < C(s,2) has
    # upper == 0 and never starts.  rem[X] is what s-set X may still add to
    # its sum; at depth k its m open pairs are its pairs >= k, and one of them
    # takes at most X's slack rem[X] - (m-1)*wlo, as the others take >= wlo
    # each.  ub[e] is the least slack over cover[e].  Setting pair k to w <=
    # ub[k] leaves each X in cover[k] the slack rem[X] - w - (m-2)*wlo >= wlo
    # on its later pairs, which the child's ub takes as a new minimum; so
    # ub >= wlo, and in product mode acc >= 1 and every am[X] >= 1.
    per_pair = len(cover[0])
    cap = am[0] ** S

    def prune_by_bound(k: int, acc: int, cap: int, ub: list[int]) -> bool:
        ubs = ub[k:]
        if product:
            # Katona cap: am[X] = _amgm(rem[X], m) bounds the product of X's
            # open pairs, each in per_pair = C(n-2, s-2) s-sets, so beating
            # inc_val needs an open product R > inc_val // acc with
            # R**per_pair <= cap = prod_X am[X]
            if (inc_val // acc + 1) ** per_pair > cap:
                return True
            # total: each open pair e takes at most ub[e]
            base = acc * prod(ubs)
            if base <= inc_val:
                return True
            # per-set: am[X] may replace the product of X's ub (open_sets
            # omits X with m = 1, where am[X] = rem[X] >= ub[e])
            for X, get in open_sets[k]:
                px = prod(get(ub))
                if am[X] < px and (base // px) * am[X] <= inc_val:
                    return True
            return False
        # total and per-set, as above: X's open pairs add at most rem[X]
        base = acc + sum(ubs)
        if base <= inc_val:
            return True
        for X, get in open_sets[k]:
            sx = sum(get(ub))
            if rem[X] < sx and base - sx + rem[X] <= inc_val:
                return True
        return False

    def dfs(k: int, acc: int, cap: int, ub: list[int]) -> None:
        nonlocal inc_val, inc_wit, nodes, bound_prunes, symmetry_prunes
        if k == P:
            if acc > inc_val:
                inc_val = acc
                inc_wit = Multigraph(n, W)
                if inc_val >= upper:  # no completion beats the root bound
                    raise _Stop
            return
        if prune_by_bound(k, acc, cap, ub):
            bound_prunes += 1
            return
        if product:
            olds = [am[X] for X in cover[k]]
            old = prod(olds)  # nonzero: every am[X] >= 1
        j = block.get(k)
        for w in range(ub[k], wlo - 1, -1):
            nodes += 1
            if nodes > node_budget:
                raise _Stop
            W[k] = w
            if j and not _lex_leader(W, j, R):
                symmetry_prunes += 1
                continue
            child = ub[:]
            new = 1
            for X, prs in later[k]:
                r = rem[X] = rem[X] - w
                if product:
                    am[X] = a = _amgm(r, len(prs))
                    new *= a
                slack = r - (len(prs) - 1) * wlo
                for e in prs:
                    if slack < child[e]:
                        child[e] = slack
            if product:
                dfs(k + 1, acc * w, cap // old * new, child)
            else:
                dfs(k + 1, acc + w, cap, child)
            for X in cover[k]:
                rem[X] += w
        if product:
            for X, a in zip(cover[k], olds):
                am[X] = a

    try:
        if inc_val < upper:  # else a seed already meets the root bound
            dfs(0, 1 if product else 0, cap, [q - (spairs - 1) * wlo] * P)
    except _Stop:
        pass
    optimal = nodes <= node_budget

    # soundness: re-verify the winning witness on an independent code path
    if inc_wit.find_violation(s, q) is not None:
        raise RuntimeError("engine produced an infeasible witness")
    if _graph_value(inc_wit, mode) != inc_val:
        raise RuntimeError("engine value does not match its witness")

    stats = {"nodes": nodes, "bound_prunes": bound_prunes, "symmetry_prunes": symmetry_prunes}
    stats["upper"] = inc_val if optimal else upper
    stats["wall_time"] = time.perf_counter() - t0
    stats["seeds"] = len(seeds)
    stats["source"] = "search"
    return SearchOutcome(mode=mode, value=inc_val, witness=inc_wit, optimal=optimal, stats=stats)


def max_sum_search(
    n: int, s: int, q: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> SearchOutcome:
    """Exact maximum edge sum over all (s,q)-graphs on n vertices."""
    return _run_search(n, s, q, "sum", node_budget)


def max_product_search(
    n: int, s: int, q: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> SearchOutcome:
    """Exact maximum edge product over all (s,q)-graphs on n vertices."""
    return _run_search(n, s, q, "product", node_budget)


def count_graphs(n: int, s: int, q: int, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact number of (s,q)-graphs on n labeled vertices.

    Any pair lies inside some s-set, so weights are implicitly bounded by
    q and the count is finite.  Raises BudgetExceededError rather than
    ever returning a truncated count.
    """
    _validate(n, s, q)
    P = n * (n - 1) // 2
    open_sets, later = _depth_tables(n, s)
    rem = [q + 1] * len(_layout(n, s)[0])
    nodes = 0

    # rem[X] is one more than what s-set X may still add, so choices[e], the
    # least rem over cover[e], is the number of weights pair e may take; it
    # is carried and lowered on later[k] as ub is in _run_search.  Once no
    # s-set has two open pairs (open_sets[k] is empty), the open pairs are
    # independent and the count is the product of their choices.
    def dfs(k: int, choices: list[int]) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"count({n},{s},{q}) exceeded the node budget of {node_budget}"
            )
        if k == P:
            return 1
        if not open_sets[k]:
            return prod(choices[k:])
        total = 0
        for w in range(choices[k]):
            child = choices[:]
            for X, prs in later[k]:
                r = rem[X] = rem[X] - w
                for e in prs:
                    if r < child[e]:
                        child[e] = r
            total += dfs(k + 1, child)
            for X, _ in later[k]:
                rem[X] += w
        return total

    return dfs(0, [q + 1] * P)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

_CHUNK = 1 << 15  # assignments per step: about 20 MB of temporaries at n = 5
_IDX = 1 << 31  # indices and values stay below it (see brute_force)


def _level_radices(c: int, j: int, P: int) -> list[int]:
    """Digit radices of block j of level c: entries before j are < c, entry j
    is c (radix 1, digit 0, set afterwards), later entries are <= c."""
    return [c] * j + [1] + [c + 1] * (P - 1 - j)


@lru_cache(maxsize=None)
def _bf_table(n: int) -> dict:
    """Exhaustive enumeration on n vertices, grown by _bf_grow one level at a time.

    Level c holds the (c+1)^P - c^P assignments whose largest entry is
    exactly c, as P blocks: in block j the first entry equal to c is entry
    j.  An assignment's index is c^P plus its offset in the level (blocks
    in order, then digits of _level_radices, least significant first), so
    it does not depend on how far the table has grown.  For every s in
    2..n, tables[s][:, c, m] records how many level-c assignments have
    maximum s-set sum m, and the best total sum and product among them,
    each encoded as value * _IDX + (_IDX - 1 - index): the largest code
    is the largest value at the smallest index.
    """
    P = n * (n - 1) // 2
    rows, incidence = {}, []
    for s in range(2, n + 1):
        start = len(incidence)
        for X in combinations(range(n), s):
            row = np.zeros(P)
            row[[pair_rank(u, v) for u, v in combinations(X, 2)]] = 1
            incidence.append(row)
        rows[s] = slice(start, len(incidence))
    empty = np.zeros((3, 0, 0), dtype=np.int64)
    return {"cap": -1, "incidence": np.array(incidence), "rows": rows,
            "tables": dict.fromkeys(rows, empty)}


def _bf_grow(n: int, cap: int) -> dict[int, np.ndarray]:
    """The tables of n by s, enumerated up to level cap."""
    table = _bf_table(n)
    tables, done = table["tables"], table["cap"] + 1
    P = n * (n - 1) // 2
    if cap >= done:
        # rows past the last finished level start fresh, so a growth that
        # was interrupted is redone from its unfinished level
        for s, old in tables.items():
            tables[s] = np.full((3, cap + 1, cap * s * (s - 1) // 2 + 1), -1, dtype=np.int64)
            tables[s][0] = 0
            tables[s][:, :done, : old.shape[2]] = old[:, :done]
    for c in range(done, cap + 1):
        start = c**P
        for j in range(P):
            # int32 digits: offsets stay below _IDX (see brute_force)
            radix = _level_radices(c, j, P)
            radices = np.array(radix, dtype=np.int32)[:, None]
            strides = np.array([prod(radix[:i]) for i in range(P)], dtype=np.int32)[:, None]
            block = c**j * (c + 1) ** (P - 1 - j)
            for lo in range(0, block, _CHUNK):
                off = np.arange(lo, min(lo + _CHUNK, block), dtype=np.int32)
                W = off // strides % radices
                W[j] = c
                tiebreak = (_IDX - 1 - start) - off.astype(np.int64)
                enc_sum = W.sum(axis=0, dtype=np.int64) * _IDX + tiebreak
                enc_prod = np.multiply.reduce(W, axis=0, dtype=np.int64) * _IDX + tiebreak
                # s-set sums are below _IDX, so exact in float64
                setsums = table["incidence"] @ W.astype(np.float64)
                for s, tab in tables.items():
                    m = setsums[table["rows"][s]].max(axis=0).astype(np.int64)
                    tab[0, c] += np.bincount(m, minlength=tab.shape[2])
                    np.maximum.at(tab[1, c], m, enc_sum)
                    np.maximum.at(tab[2, c], m, enc_prod)
            start += block
        table["cap"] = c
    return tables


def _decode_assignment(n: int, idx: int) -> Multigraph:
    P = n * (n - 1) // 2
    c = _iroot(idx, P)
    off, j = idx - c**P, 0
    while off >= c**j * (c + 1) ** (P - 1 - j):
        off -= c**j * (c + 1) ** (P - 1 - j)
        j += 1
    weights = []
    for radix in _level_radices(c, j, P):
        off, w = divmod(off, radix)
        weights.append(w)
    weights[j] = c
    # entries decode in pair-rank order, matching colex pair order
    return Multigraph(n, weights)


def brute_force(
    n: int,
    s: int,
    q: int,
    mode: str,
    weight_cap: int,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> SearchOutcome:
    """Full enumeration over all weight assignments with entries <= weight_cap.

    No pruning beyond the per-edge cap: every one of the (cap+1)^C(n,2)
    assignments is generated and tested, once per n, as the table of n
    grows level by level.  With weight_cap = q the result is the
    unrestricted optimum, since any pair lies inside an s-set.  Ties go
    to the assignment of smallest index (see _bf_table).  Used only to
    validate the pruned engines.
    """
    t0 = time.perf_counter()
    _validate(n, s, q)
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if weight_cap < 0:
        raise ValueError("weight_cap must be >= 0")

    P = n * (n - 1) // 2
    total = (weight_cap + 1) ** P
    cells = (weight_cap + 1) * (weight_cap * P + 1)  # rows x columns at s = n
    if max(total, cells) > budget:
        raise BudgetExceededError(
            f"brute force over {total} assignments in a table of {cells} cells"
            f" exceeds the budget of {budget}"
        )
    # every index, sum and product is then below _IDX, so codes fit in int64
    if total >= _IDX:
        raise BudgetExceededError(
            "instance too large for exact vectorized enumeration"
        )

    tab = _bf_grow(n, weight_cap)[s][:, : weight_cap + 1, : q + 1]
    stats = {
        "nodes": total,
        "bound_prunes": 0,
        "symmetry_prunes": 0,
        "source": "oracle",
    }

    if mode == "count":
        value = int(tab[0].sum())
        stats["wall_time"] = time.perf_counter() - t0
        return SearchOutcome("count", value, None, True, stats)

    best = int(tab[1 if mode == "sum" else 2].max())
    if best < 0:
        raise RuntimeError("no feasible assignment found (unreachable: 0 is feasible)")
    value, code = divmod(best, _IDX)
    witness = _decode_assignment(n, _IDX - 1 - code)
    if witness.find_violation(s, q) is not None:
        raise RuntimeError("oracle produced an infeasible witness")
    if _graph_value(witness, mode) != value:
        raise RuntimeError("oracle value does not match its witness")
    stats["wall_time"] = time.perf_counter() - t0
    return SearchOutcome(mode, value, witness, True, stats)


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------


def cache_record(n: int, s: int, q: int, outcome: SearchOutcome) -> dict:
    return {
        "key": {"n": n, "s": s, "q": q, "mode": outcome.mode},
        "value": str(outcome.value),
        "optimal": outcome.optimal,
        "witness": outcome.witness.to_dict() if outcome.witness else None,
        "stats": {
            k: v for k, v in outcome.stats.items() if isinstance(v, (int, float, str))
        },
        "engine_version": ENGINE_VERSION,
    }


def append_cache(path: str, record: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n")
        fh.flush()


def load_cache(path: str) -> dict[tuple, dict]:
    """Latest record per key, keeping only this engine version.

    The file is untrusted input: a line that is not JSON or lacks the key
    fields (a torn last write, a hand edit) is skipped, and one
    CacheWarning reports how many were.
    """
    out: dict[tuple, dict] = {}
    skipped = 0
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return out
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if rec.get("engine_version") != ENGINE_VERSION:
                    continue
                key = rec["key"]
                out[(key["n"], key["s"], key["q"], key["mode"])] = rec
            except (ValueError, KeyError, TypeError, AttributeError):
                skipped += 1
    if skipped:
        warnings.warn(
            f"skipped {skipped} malformed line(s) in cache {path}", CacheWarning, stacklevel=2
        )
    return out


def cached_outcome(path: str, n: int, s: int, q: int, mode: str) -> SearchOutcome | None:
    """Reload an optimal cached outcome, or None if absent, non-optimal or unsound.

    A record is served only when its "optimal" is JSON true and its
    witness is an (s,q)-graph on n vertices with exactly the stored
    value; anything else is a miss, so the caller searches again.  The
    witness proves only that the value is attained, a lower bound: the
    "optimal" flag itself is trusted, so a record edited to a worse
    value with a matching feasible witness is served as optimal.
    """
    rec = load_cache(path).get((n, s, q, mode))
    if rec is None or rec.get("optimal") is not True:
        return None
    try:
        value = int(rec["value"])
        witness = Multigraph.from_dict(rec["witness"])
        stats = dict(rec.get("stats", {}))
    except (KeyError, TypeError, ValueError):
        return None
    if (
        witness.n != n
        or witness.find_violation(s, q) is not None
        or _graph_value(witness, mode) != value
    ):
        return None
    stats["source"] = "cache"
    stats["upper"] = value
    return SearchOutcome(mode, value, witness, True, stats)
