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
import re
import time
import warnings
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import comb, inf, prod
from operator import itemgetter

import numpy as np

from .constructions import max_edge_product, max_edge_sum, turan_multigraph
from .formulas import _amgm
from .multigraph import MAX_TABLE_CELLS, Multigraph, Params, check_table, pair_rank

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
    check_table(n, s)  # also n >= 2
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


def _canonical_form(W: Sequence[int], m: int) -> tuple[int, ...]:
    """A complete invariant of the m-vertex graph W: the lex-max colex weight
    vector over the labelings that list the vertices by non-increasing
    sorted incident weights (an isomorphism maps these onto the other's).
    The picks fix the columns in turn, as in _lex_leader; only the largest
    column goes on, and a branch below the best vector found stops.  Twins
    (equal weights to every third vertex) are swapped by an automorphism,
    so each pick tries one vertex per twin class."""
    R = _rank_table(m)
    A = [[W[R[u][v]] if u != v else -1 for v in range(m)] for u in range(m)]
    degrees = [sorted(row, reverse=True) for row in A]
    cells = sorted(degrees, reverse=True)

    def twins(u: int, v: int) -> bool:
        row = A[u][:]
        row[u], row[v] = row[v], row[u]
        return row == A[v]

    twin = [next(v for v in range(m) if twins(u, v)) for u in range(m)]  # least twin

    def pick(p: list[int], vec: list[int], best: list[int]) -> list[int]:
        """The larger of best and the best vector that completes p."""
        if len(p) == m:
            return vec  # not below best, or it was dropped
        cols = {}  # one candidate per twin class, with its column
        for z in range(m):
            if z not in p and degrees[z] == cells[len(p)]:
                cols[twin[z]] = [A[x][z] for x in p], z
        top = max(cols.values())[0]
        vec = vec + top
        for col, z in cols.values():
            if col == top and vec >= best[: len(vec)]:
                best = pick(p + [z], vec, best)
        return best

    return tuple(pick([], [], []))


@lru_cache(maxsize=None)
def _depth_tables(n: int, s: int) -> tuple[tuple, tuple]:
    """Per depth k of the rank-order search, with X indexing the s-sets
    combinations(range(n), s) in order: open_sets[k] holds (X, getter of X's
    pairs >= k) for each X with >= 2 of them; later[k] holds (X, X's pairs > k)
    for each X on pair k.  X's pairs >= k are prs[i:] for every k with
    prs[i-1] < k <= prs[i], so each X is walked once, in ascending order."""
    P = n * (n - 1) // 2
    open_sets, later = [[] for _ in range(P)], [[] for _ in range(P)]
    for X, Y in enumerate(combinations(range(n), s)):
        prs = sorted(pair_rank(u, v) for u, v in combinations(Y, 2))
        for i, e in enumerate(prs):
            later[e].append((X, tuple(prs[i + 1 :])))
            if len(prs) - i >= 2:
                get = itemgetter(*prs[i:])
                for k in range(prs[i - 1] + 1 if i else 0, e + 1):
                    open_sets[k].append((X, get))
    return tuple(map(tuple, open_sets)), tuple(map(tuple, later))


def _seed_witnesses(n: int, s: int, q: int, mode: str) -> Iterator[Multigraph]:
    """Feasible starting incumbents: constant graph, then the undominated
    construction optima in ascending (a, r, d) order.

    Induced subsets of a member are members, so it is feasible when its
    s-vertex optimum a*C(s,2) + h(r, d), h = max(cross - d*light), is <= q,
    that is when a <= a(r, d) = (q - h) // C(s,2).  Raising a raises every
    weight and lowering d the light ones, so the first maximal member has
    a = a(r, d) > d and a(r, d) > a(r, d-1), and r >= 2 (r = 1 gives constant
    graphs no heavier than the first seed), so h >= 0 and a <= q // C(s,2);
    h is fixed from d = C(s,2)-1 on, where a light pair scores <= 0.  Each
    seed is one of the full enumeration's, whose first maximal seed is among
    them with none as heavy before it, so the caller keeps the same graph.
    Lazy, so the caller can stop at a seed that meets the root bound.
    """
    spairs = s * (s - 1) // 2
    g = Multigraph.constant(n, q // spairs)
    seen = {g.weights()}
    yield g
    optimize = max_edge_product if mode == "product" else max_edge_sum
    members = []
    for r in range(2, s + 1):
        prev = 0
        for d in range(min(q // spairs, spairs)):
            a = (q + (d + 1) * spairs - max_edge_sum(Params(d + 1, r, d), s).value) // spairs
            if a > max(d, prev):
                members.append((a, r, d))
            prev = a
    for a, r, d in sorted(members):
        params = Params(a, r, d)
        g = turan_multigraph(params, optimize(params, n).argmax)
        if g.weights() not in seen:
            seen.add(g.weights())
            if g.satisfies(s, q):
                yield g


def _graph_value(G: Multigraph, mode: str) -> int:
    return G.edge_product() if mode == "product" else G.edge_sum()


def _certified(G: Multigraph, n: int, s: int, q: int, mode: str, value: int) -> bool:
    """Whether G is an (s,q)-graph on n vertices whose edge sum or product is value.

    Every reported witness, from the engine, the oracle or the cache, must
    pass this one check.  It re-verifies on an independent code path: it
    uses only Multigraph, none of the search's tables or bounds.
    """
    return G.n == n and G.find_violation(s, q) is None and _graph_value(G, mode) == value


def _tree_search(
    n: int, s: int, q: int, product: bool, budget: int, stats: dict, least: Callable[[], int],
    leaf: Callable, prefix: Sequence[int] = (), cap: int | None = None,
) -> None:
    """Branch-and-bound over the pairs after `prefix`.  Each leaf of value
    at least least() goes to leaf(value, W), which may record it, extend it
    or raise _Stop; the floor least() - 1 is read at the start and after
    each leaf, and the bounds prune only subtrees with no leaf above it.
    With a prefix (the weights of an (n-1)-vertex graph H, in any labeling)
    the search runs over the graphs whose vertices 0..n-2 induce H, with no
    lex-leader test (see _collect).  A cap bounds every weight, through the
    initial ub; a relabeling keeps it, so the lex-leader test stays sound.
    stats counts nodes and prunes in place, a leaf's own searches included,
    and _Stop is raised once stats["nodes"] passes budget.
    stats["levels"][n] counts this search's own nodes, or
    stats["levels"]["two_weight"] under a cap (see _two_weight_seed).
    """
    P = n * (n - 1) // 2
    spairs = s * (s - 1) // 2
    wlo = 1 if product else 0
    levels = stats.setdefault("levels", {})
    level = n if cap is None else "two_weight"
    levels.setdefault(level, 0)

    open_sets, later = _depth_tables(n, s)
    per_pair = comb(n - 2, s - 2)
    R = _rank_table(n)
    block = {} if prefix else {pair_rank(j - 1, j): j for j in range(2, n)}  # pair k completes {0..j}

    # wlo is the least weight tried: a product search with q < C(s,2) has
    # upper == 0 and never starts.  rem[X] is what s-set X may still add to
    # its sum; at depth k its m open pairs are its pairs >= k, and one of them
    # takes at most X's slack rem[X] - (m-1)*wlo, as the others take >= wlo
    # each.  ub[e] is the least slack over the s-sets on e.  Setting pair k to
    # w <= ub[k] leaves each X on pair k the slack rem[X] - w - (m-2)*wlo >=
    # wlo on its later pairs, which the child's ub takes as a new minimum; so
    # ub >= wlo, and in product mode acc >= 1 and every am[X] >= 1.  Each
    # child gets its own rem, am and ub, so nothing is undone on the way back.
    def step(k: int, w: int, ub: list[int], rem: list[int], am: list[int]) -> tuple:
        child, crem = ub[:], rem[:]
        cam = am[:] if product else am
        new = 1
        for X, prs in later[k]:
            r = crem[X] = rem[X] - w
            if product:
                cam[X] = a = _amgm(r, len(prs))
                new *= a
            slack = r - (len(prs) - 1) * wlo
            for e in prs:
                if slack < child[e]:
                    child[e] = slack
        return child, crem, cam, new

    K = len(prefix)
    W = list(prefix) + [0] * (P - K)
    S = comb(n, s)
    top = q - (spairs - 1) * wlo
    state = [top if cap is None else min(cap, top)] * P, [q] * S, [_amgm(q, spairs)] * S
    for k in range(K):  # the prefix's pairs, set as dfs sets them
        state = step(k, W[k], *state)[:3]
    floor = least() - 1

    def prune_by_bound(k: int, acc: int, katona: int, ub: list[int], rem: list[int], am: list[int]) -> bool:
        ubs = ub[k:]
        if product:
            # Katona cap: am[X] = _amgm(rem[X], m) bounds the product of X's
            # open pairs, each in per_pair = C(n-2, s-2) s-sets, so beating
            # floor needs an open product R > floor // acc with
            # R**per_pair <= katona = prod_X am[X]
            if (floor // acc + 1) ** per_pair > katona:
                return True
            # total: each open pair e takes at most ub[e]
            base = acc * prod(ubs)
            if base <= floor:
                return True
            # per-set: am[X] may replace the product of X's ub (open_sets
            # omits X with m = 1, where am[X] = rem[X] >= ub[e])
            for X, get in open_sets[k]:
                px = prod(get(ub))
                if am[X] < px and (base // px) * am[X] <= floor:
                    return True
            return False
        # total and per-set, as above: X's open pairs add at most rem[X]
        base = acc + sum(ubs)
        if base <= floor:
            return True
        for X, get in open_sets[k]:
            sx = sum(get(ub))
            if rem[X] < sx and base - sx + rem[X] <= floor:
                return True
        return False

    def dfs(k: int, acc: int, katona: int, ub: list[int], rem: list[int], am: list[int]) -> None:
        nonlocal floor
        if k == P:
            if acc > floor:
                leaf(acc, W)
                floor = least() - 1
            return
        if prune_by_bound(k, acc, katona, ub, rem, am):
            stats["bound_prunes"] += 1
            return
        if product:
            old = prod(am[X] for X, _ in later[k])  # nonzero: every am[X] >= 1
        j = block.get(k)
        for w in range(ub[k], wlo - 1, -1):
            stats["nodes"] += 1
            levels[level] += 1
            if stats["nodes"] > budget:
                raise _Stop
            W[k] = w
            if j and not _lex_leader(W, j, R):
                stats["symmetry_prunes"] += 1
                continue
            child, crem, cam, new = step(k, w, ub, rem, am)
            if product:
                dfs(k + 1, acc * w, katona // old * new, child, crem, cam)
            else:
                dfs(k + 1, acc + w, katona, child, crem, cam)

    dfs(K, prod(prefix) if product else sum(prefix), prod(state[2]), *state)


def _collect(
    m: int, s: int, q: int, product: bool, budget: int, stats: dict, least: Callable[[], int],
    leaf: Callable, cap: int | None = None,
) -> None:
    """Hand leaf(value, W) a labeling of each m-vertex (s,q)-graph H whose
    edge product (or sum) is at least least(), which only grows.

    Lemma: each pair of H lies in m-2 of its m induced subgraphs H-v, so
    the product over v of P(H-v) is P(H)**(m-2), and the sum over v of
    e(H-v) is (m-2)*e(H).  So some v has P(H-v) >= T2, the least T2 with
    T2**m >= T**(m-2), or e(H-v) >= T2 = ceil((m-2)*T/m), where T = least().
    At m = s a search from least() reaches H's lex-max labeling (see
    _lex_leader; the bounds prune no leaf above the floor).  Above s, H is
    a collected H-v plus a vertex v, put last: the level below collects
    from T2, and grow extends H-v from least(), so every floor rises with
    least().
    Extensions skip the lex-leader tests, which could reject every labeling
    of H that extends H-v, so H may come in several labelings.  grow
    extends one H-v per class (by _canonical_form) and counts the rest in
    stats["duplicates"], keyed as stats["levels"].  Sound: isomorphic H-v
    have isomorphic extensions, the contract is a labeling of each class,
    and least() only grows, so a class's first extension handed over every
    one above any later floor.  A cap keeps the lemma: the capped graphs
    are closed under induced subgraphs.
    """
    if m == s:
        _tree_search(m, s, q, product, budget, stats, least, leaf, cap=cap)
        return

    @lru_cache(maxsize=1)  # least() moves only with the incumbent
    def below(T: int) -> int:  # T2 of T
        return _iroot(T ** (m - 2) - 1, m) + 1 if product else -(-(m - 2) * T // m)

    seen, level = set(), m if cap is None else "two_weight"
    duplicates = stats.setdefault("duplicates", {})

    def grow(value: int, H: Sequence[int]) -> None:
        form = _canonical_form(H, m - 1)
        if form in seen:
            duplicates[level] = duplicates.get(level, 0) + 1
        else:
            seen.add(form)
            _tree_search(m, s, q, product, budget, stats, least, leaf, H, cap)

    _collect(m - 1, s, q, product, budget, stats, lambda: below(least()), grow, cap)


def _search(
    n: int, s: int, q: int, product: bool, budget: int, stats: dict, least: Callable[[], int],
    leaf: Callable, cap: int | None = None,
) -> None:
    """Hand leaf every n-vertex graph of value at least least(), as _collect
    does: products on n >= s+1 vertices and sums on n >= s+2 by _collect,
    the rest by one direct search (at n = s+1 a sum collect took more nodes
    on the grid and lost values at budget 3,000)."""
    search = _collect if n >= s + 1 + (not product) else _tree_search
    search(n, s, q, product, budget, stats, least, leaf, cap=cap)


def _two_weight_seed(n: int, s: int, q: int, budget: int, stats: dict, inc: list, record: Callable) -> None:
    """Hand record the best product graph a*K_n + H above inc[0], where
    a = q // C(s,2) and H is a simple graph.

    a*K_n + H is an (s,q)-graph exactly when every s-set spans at most
    t = q - a*C(s,2) edges of H, and its product a**(P-h) * (a+1)**h grows
    with h = |H|; so this is a sum search for H with every weight capped at
    1, at the floor of the largest h whose product is <= inc[0].  These H
    are closed under induced subgraphs, so _collect's lemma holds for them.
    A lower a' < a gives t' >= C(s,2), so H = K_n, that is (a'+1)*K_n, no
    heavier than the constant seed a*K_n: only a can beat the seeds.
    """
    a, t = divmod(q, s * (s - 1) // 2)
    P = n * (n - 1) // 2
    h = 0  # the floor
    while h < P and a ** (P - h - 1) * (a + 1) ** (h + 1) <= inc[0]:
        h += 1

    def take(value: int, H: Sequence[int]) -> None:
        nonlocal h
        record(a ** (P - value) * (a + 1) ** value, [a + w for w in H])
        h = value

    _search(n, s, t, False, budget, stats, lambda: h + 1, take, cap=1)


def _run_search(n: int, s: int, q: int, mode: str, node_budget: int, seed: Multigraph | None) -> SearchOutcome:
    """The one search behind every outcome.  A seed (a cached witness) is the
    first incumbent, and is proved optimal only as every seed is."""
    t0 = time.perf_counter()
    _validate(n, s, q)
    if seed is not None and not (seed.n == n and seed.satisfies(s, q)):
        raise ValueError(f"seed is not an ({s},{q})-graph on {n} vertices")
    product = mode == "product"

    upper = _averaging_chain(n, s, q, product)
    inc = [-1, None]
    given = [] if seed is None else [seed]
    for seeds, g in enumerate(chain(given, _seed_witnesses(n, s, q, mode)), 1):  # none can exceed upper
        value = _graph_value(g, mode)
        if value > inc[0]:  # strictly, so the first maximal seed stays
            inc[:] = value, g
        if value >= upper:
            break
    stats = {"nodes": 0, "bound_prunes": 0, "symmetry_prunes": 0, "levels": {}}

    def record(value: int, W: list[int]) -> None:  # value > inc[0]
        inc[:] = value, Multigraph(n, W)
        if value >= upper:  # no completion beats the root bound
            raise _Stop

    try:
        if inc[0] < upper:  # else a seed already meets the root bound
            if product:
                _two_weight_seed(n, s, q, node_budget, stats, inc, record)
            _search(n, s, q, product, node_budget, stats, lambda: inc[0] + 1, record)
    except _Stop:
        pass
    inc_val, inc_wit = inc
    optimal = stats["nodes"] <= node_budget

    if not _certified(inc_wit, n, s, q, mode, inc_val):
        raise RuntimeError("engine witness fails its certificate")

    stats["upper"] = inc_val if optimal else upper
    stats["wall_time"] = time.perf_counter() - t0
    stats["seeds"] = seeds
    stats["source"] = "cache" if inc_wit is seed else "search"
    return SearchOutcome(mode=mode, value=inc_val, witness=inc_wit, optimal=optimal, stats=stats)


def max_sum_search(
    n: int, s: int, q: int, node_budget: int = DEFAULT_NODE_BUDGET, seed: Multigraph | None = None
) -> SearchOutcome:
    """Exact maximum edge sum over all (s,q)-graphs on n vertices, from seed if given."""
    return _run_search(n, s, q, "sum", node_budget, seed)


def max_product_search(
    n: int, s: int, q: int, node_budget: int = DEFAULT_NODE_BUDGET, seed: Multigraph | None = None
) -> SearchOutcome:
    """Exact maximum edge product over all (s,q)-graphs on n vertices, from seed if given."""
    return _run_search(n, s, q, "product", node_budget, seed)


def count_graphs(n: int, s: int, q: int, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact number of (s,q)-graphs on n labeled vertices.

    Any pair lies inside some s-set, so weights are implicitly bounded by
    q and the count is finite.  Raises BudgetExceededError rather than
    ever returning a truncated count.
    """
    _validate(n, s, q)
    P = n * (n - 1) // 2
    later = _depth_tables(n, s)[1]
    nodes = 0

    def charge(size: int) -> None:
        nonlocal nodes
        nodes += size
        if nodes > node_budget:
            raise BudgetExceededError(f"count({n},{s},{q}) exceeded the node budget of {node_budget}")

    # rem[X] is one more than what s-set X may still add, so choices[e], the
    # least rem over the s-sets on e, is the number of weights pair e may
    # take; both are carried by value and lowered on later[k] as in
    # _tree_search's step.  At s = 2 each s-set is one pair, so the pairs
    # are independent and the root counts all (q+1)**P graphs as one node.
    if s == 2:
        charge(1)
        return (q + 1) ** P

    # Once s >= 3 every depth up to P - 2 branches ({n-3, n-2, n-1} holds
    # pairs P - 2 and P - 1).  A node at depth P - 3 reads only the least rem
    # over seven groups of s-sets: those on P - 3, on P - 2 and on P - 1 (its
    # choices), on P - 3 and P - 2, on P - 3 and P - 1, on all three, and on
    # P - 2 and P - 1 only (an empty group reads inf).  Its child w lowers
    # each s-set X on P - 3 to rem[X] - w, so the child's pair P - 2 has c
    # choices and P - 1 has a, and its child w' is a leaf with min(a, m - w')
    # choices, m the child's least rem over the s-sets on P - 2 and P - 1.
    # Each rem bounds the choices of its s-set's open pairs, so c <= m and
    # a <= m: the leaves have a choices while w' <= m - a, and the last
    # d = c + a - m - 1 (if d > 0) have a - 1, ..., a - d.  So fold gives the
    # node's (nodes, count), 1 + c nodes per child, from its seven ints
    # alone, and a per-call memo on them is exact.  It holds at most
    # (q+2)**7 keys, and 17,587 at (6,4,9) in 20M nodes.
    @lru_cache(maxsize=None)
    def fold(cw: int, c2: int, c1: int, r2: int, r1: int, r3: int, r0: int) -> tuple[int, int]:
        size, total = 1, 0
        for w in range(cw):
            c = r2 - w if r2 - w < c2 else c2
            a = r1 - w if r1 - w < c1 else c1
            m = r3 - w if r3 - w < r0 else r0
            d = c + a - m - 1
            size += 1 + c
            total += c * a - d * (d + 1) // 2 if d > 0 else c * a
        return size, total

    if n == 3:  # so s = 3: the root is a P - 3 node, and its one s-set is on all three pairs
        size, total = fold(q + 1, q + 1, q + 1, q + 1, q + 1, q + 1, inf)
        charge(size)
        return total

    # A node at depth P - 4 reads 15 ints: its choices (the least rem on P - 4)
    # and each group's least rems A on P - 4 and B off it; its child w lowers
    # the s-sets on P - 4 by w, so the child's group reads min(A - w, B).  So
    # the node at P - 5 takes the 15 once, split on and off P - 5 (a getter
    # lists its s-sets twice, so one s-set gives a tuple), and counts its
    # children and theirs in place.  Totals only grow, so one budget check per
    # P - 5 node raises exactly when one check per node would.
    f5, f4, f3, f2, f1 = ({X for X, _ in later[e]} for e in range(P - 5, P))
    groups = (f4, *(h for g in (f3, f2, f1, f3 & f2, f3 & f1, f3 & f2 & f1, f2 & f1 - f3) for h in (g & f4, g - f4)))
    gets = [itemgetter(*Xs, *Xs) if Xs else None for g in groups for Xs in (sorted(g & f5), sorted(g - f5))]

    def dfs(k: int, choices: list[int], rem: list[int]) -> int:
        if k == P - 5:
            (C, D, A0, B0, E0, F0, A1, B1, E1, F1, A2, B2, E2, F2, A3, B3, E3, F3,
             A4, B4, E4, F4, A5, B5, E5, F5, A6, B6, E6, F6) = [min(g(rem)) if g else inf for g in gets]
            size, total = 1 + choices[k], 0
            for x in range(choices[k]):  # both loops written out: a comprehension doubled their cost
                c4, a0, b0 = C - x if C - x < D else D, A0 - x if A0 - x < B0 else B0, E0 - x if E0 - x < F0 else F0
                a1, b1 = A1 - x if A1 - x < B1 else B1, E1 - x if E1 - x < F1 else F1
                a2, b2 = A2 - x if A2 - x < B2 else B2, E2 - x if E2 - x < F2 else F2
                a3, b3 = A3 - x if A3 - x < B3 else B3, E3 - x if E3 - x < F3 else F3
                a4, b4 = A4 - x if A4 - x < B4 else B4, E4 - x if E4 - x < F4 else F4
                a5, b5 = A5 - x if A5 - x < B5 else B5, E5 - x if E5 - x < F5 else F5
                a6, b6 = A6 - x if A6 - x < B6 else B6, E6 - x if E6 - x < F6 else F6
                for w in range(c4):
                    sub, count = fold(
                        a0 - w if a0 - w < b0 else b0, a1 - w if a1 - w < b1 else b1, a2 - w if a2 - w < b2 else b2,
                        a3 - w if a3 - w < b3 else b3, a4 - w if a4 - w < b4 else b4, a5 - w if a5 - w < b5 else b5,
                        a6 - w if a6 - w < b6 else b6,
                    )
                    size += sub
                    total += count
            charge(size)
            return total
        charge(1)
        total = 0
        for w in range(choices[k]):
            child, crem = choices[:], rem[:]
            for X, prs in later[k]:
                r = crem[X] = rem[X] - w
                for e in prs:
                    if r < child[e]:
                        child[e] = r
            total += dfs(k + 1, child, crem)
        return total

    return dfs(0, [q + 1] * P, [q + 1] * comb(n, s))


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

_CHUNK = 1 << 15  # most settings of a block's low digits: about 15 MB of temporaries at n = 5
_IDX = 1 << 31  # indices and values stay below it (see brute_force)


def _level_radices(c: int, j: int, P: int) -> list[int]:
    """Digit radices of block j of level c: entries before j are < c, entry j
    is c (radix 1, digit 0, set afterwards), later entries are <= c."""
    return [c] * j + [1] + [c + 1] * (P - 1 - j)


@lru_cache(maxsize=None)
def _bf_table(n: int) -> dict:
    """Exhaustive enumeration on n vertices, kept as a list of finished levels.

    Level c holds the (c+1)^P - c^P assignments whose largest entry is
    exactly c, as P blocks: in block j the first entry equal to c is entry
    j.  An assignment's index is c^P plus its offset in the level (blocks
    in order, then digits of _level_radices, least significant first), so
    it does not depend on how many levels are kept.  For every s in 2..n,
    levels[c][s][:, m] records how many level-c assignments have maximum
    s-set sum m (at most c * C(s,2)), and the best total sum and product
    among them, each encoded as value * _IDX + (_IDX - 1 - index): the
    largest code is the largest value at the smallest index.  _bf_grow
    appends a level only once it is finished.
    """
    P = n * (n - 1) // 2
    rows, incidence = {}, []
    for s in range(2, n + 1):
        start = len(incidence)
        for X in combinations(range(n), s):
            row = np.zeros(P, np.int64)
            row[[pair_rank(u, v) for u, v in combinations(X, 2)]] = 1
            incidence.append(row)
        rows[s] = slice(start, len(incidence))
    return {"incidence": np.array(incidence), "rows": rows, "levels": []}


def _bf_grow(n: int, cap: int) -> list[dict[int, np.ndarray]]:
    """The levels of n, enumerated up to level cap."""
    table = _bf_table(n)
    levels, incidence, rows = table["levels"], table["incidence"], table["rows"]
    P = n * (n - 1) // 2
    for c in range(len(levels), cap + 1):
        # per s and maximum s-set sum: a count of 0 and no code yet (-1)
        level = {s: np.repeat(np.array([[0], [-1], [-1]], np.int64), c * comb(s, 2) + 1, axis=1)
                 for s in rows}
        start = c**P
        for j in range(P if c else 1):  # level 0 has one block, the zero assignment
            # the low digits (the longest prefix with at most _CHUNK settings) are
            # built once with their integer s-set sums, sum and product; each
            # chunk is one setting of the high digits, added to them as constants
            radix = _level_radices(c, j, P)
            t = max(i for i in range(P + 1) if prod(radix[:i]) <= _CHUNK)
            low, high = (np.indices(r[::-1]).reshape(len(r), prod(r))[::-1] for r in (radix[:t], radix[t:]))
            (low if j < t else high)[j if j < t else j - t] = c  # entry j is c
            sums, total, product = incidence[:, :t] @ low, low.sum(axis=0), low.prod(axis=0)
            high_sums, high_total, high_product = incidence[:, t:] @ high, high.sum(axis=0), high.prod(axis=0)
            tiebreak = (_IDX - 1 - start) - np.arange(low.shape[1])
            for h in range(high.shape[1]):
                enc_sum = (total + high_total[h]) * _IDX + tiebreak
                enc_prod = product * high_product[h] * _IDX + tiebreak
                for s, tab in level.items():
                    m = (sums[rows[s]] + high_sums[rows[s], h, None]).max(axis=0)
                    tab[0] += np.bincount(m, minlength=tab.shape[1])
                    np.maximum.at(tab[1], m, enc_sum)
                    np.maximum.at(tab[2], m, enc_prod)
                tiebreak -= low.shape[1]
            start += low.shape[1] * high.shape[1]
        levels.append(level)
    return levels


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


def brute_force(n: int, s: int, q: int, mode: str, weight_cap: int) -> SearchOutcome:
    """Full enumeration over all weight assignments with entries <= weight_cap.

    No pruning beyond the per-edge cap: every one of the (cap+1)^C(n,2)
    assignments is generated and tested, once per n, as levels 0..cap of
    the table of n (see _bf_table), each read up to maximum s-set sum q.
    With weight_cap = q the result is the unrestricted optimum, since any
    pair lies inside an s-set.  Ties go to the assignment of smallest
    index.  Instances over DEFAULT_ORACLE_BUDGET assignments or table
    cells, or with an incidence table over MAX_TABLE_CELLS cells, are
    refused.  Used only to validate the pruned engines.
    """
    t0 = time.perf_counter()
    _validate(n, s, q)
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if weight_cap < 0:
        raise ValueError("weight_cap must be >= 0")

    P = n * (n - 1) // 2
    total = (weight_cap + 1) ** P
    cells = (weight_cap + 1) * (weight_cap * P + 1)  # bounds the cells of levels 0..cap at s = n
    incidence = (2**n - n - 1) * P  # a row per s-set, for every s in 2..n
    if max(total, cells) > DEFAULT_ORACLE_BUDGET or incidence > MAX_TABLE_CELLS:
        raise BudgetExceededError(
            f"brute force over {total} assignments in a table of {cells} cells and {incidence} incidence"
            f" cells exceeds the budget of {DEFAULT_ORACLE_BUDGET} or the table limit of {MAX_TABLE_CELLS}"
        )
    # DEFAULT_ORACLE_BUDGET < _IDX, so every index, sum and product is below
    # _IDX and codes fit in int64

    tabs = [level[s][:, : q + 1] for level in _bf_grow(n, weight_cap)[: weight_cap + 1]]
    stats = {"nodes": total, "bound_prunes": 0, "symmetry_prunes": 0, "source": "oracle"}

    if mode == "count":
        value = sum(int(tab[0].sum()) for tab in tabs)
        stats["wall_time"] = time.perf_counter() - t0
        return SearchOutcome("count", value, None, True, stats)

    # level 0, the zero assignment, is feasible, so best >= 0
    best = max(int(tab[1 if mode == "sum" else 2].max()) for tab in tabs)
    value, code = divmod(best, _IDX)
    witness = _decode_assignment(n, _IDX - 1 - code)
    if not _certified(witness, n, s, q, mode, value):
        raise RuntimeError("oracle witness fails its certificate")
    stats["wall_time"] = time.perf_counter() - t0
    return SearchOutcome(mode, value, witness, True, stats)


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------


def cache_record(n: int, s: int, q: int, outcome: SearchOutcome) -> dict:
    """The line that stores outcome.  Its "optimal" and "stats" describe the
    run that wrote it; no lookup reads them (see cached_outcome)."""
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


# The head of a line as append_cache writes it, compact with sorted fields:
# engine_version, then the key, each field in its one canonical spelling.
_CACHE_HEAD = re.compile(
    r'\{"engine_version":' + re.escape(json.dumps(ENGINE_VERSION)) + r',"key":\{"mode":"(product|sum)",'
    r'"n":(0|[1-9][0-9]*),"q":(0|[1-9][0-9]*),"s":(0|[1-9][0-9]*)\}'
)


def load_cache(path: str, key: tuple[int, int, int, str]) -> dict | None:
    """The latest record of key = (n, s, q, mode) at this engine version,
    or None.

    A line that opens with another key's _CACHE_HEAD is skipped unparsed.
    Every other line is parsed, and its record is used only if its decoded
    key equals the wanted one.  The file is untrusted input: a parsed line that is not
    JSON or lacks the key fields (a torn last write, a hand edit, bytes that
    are not UTF-8, arrays nested too deep to parse) is skipped, and one
    CacheWarning reports how many were.  So the warning counts the
    malformed lines this lookup read: a line damaged after an intact head
    of another key is reported by that key's lookup.  A line that repeats
    "key" is skipped when its first key is another key's head.  No value
    depends on this: a cached witness only seeds a search (cached_outcome).
    """
    n, s, q, mode = key
    own = (mode, str(n), str(q), str(s))  # the key's _CACHE_HEAD groups
    out: dict[tuple, dict] = {}
    skipped = 0
    try:
        fh = open(path, "r", encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return None
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            head = _CACHE_HEAD.match(line)
            if head and head.groups() != own:
                continue
            try:
                rec = json.loads(line)
                if rec.get("engine_version") != ENGINE_VERSION:
                    continue
                k = rec["key"]
                out[(k["n"], k["s"], k["q"], k["mode"])] = rec
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError):
                skipped += 1
    if skipped:
        warnings.warn(
            f"skipped {skipped} malformed line(s) in cache {path}", CacheWarning, stacklevel=2
        )
    return out.get(key)


def cached_outcome(path: str, n: int, s: int, q: int, mode: str) -> Multigraph | None:
    """The cached witness for the key, or None if absent or unsound.

    The witness is returned only when it passes _certified at the record's
    stored value; anything else is a miss.  It proves only that the value
    is attained, so it serves as the search's first seed (see _run_search),
    never as an optimum: the record's "optimal" and "stats" are not read.
    One load_cache call finds the record, parsing only the lines that can
    hold the key.
    """
    rec = load_cache(path, (n, s, q, mode))
    if rec is None:
        return None
    try:
        value = int(rec["value"])
        witness = Multigraph.from_dict(rec["witness"])
    except (KeyError, TypeError, ValueError):
        return None
    return witness if _certified(witness, n, s, q, mode, value) else None
