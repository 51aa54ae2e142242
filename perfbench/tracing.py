"""In-memory spans around sqgraphs entry points, and the self-time arithmetic.

A Recorder wraps each public entry point listed in ENTRY_POINTS by
attribute replacement: every sqgraphs module attribute that is bound to
the entry point (for example ``cli.search.max_product_search``,
``verify.count_graphs`` or ``search.max_edge_product``) is pointed at one
wrapper, and ``uninstall`` puts the originals back.  Timed runs never
install a Recorder.  Span names start with the layer they belong to, so
layer self time is the sum of its spans' self times.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

# span name -> (module, attribute).  ``Multigraph.find_violation`` is a
# class attribute; every other entry is a module-level function.
ENTRY_POINTS: dict[str, tuple[str, str]] = {
    "cli.main": ("sqgraphs.cli", "main"),
    "search.max_sum_search": ("sqgraphs.search", "max_sum_search"),
    "search.max_product_search": ("sqgraphs.search", "max_product_search"),
    "count.count_graphs": ("sqgraphs.search", "count_graphs"),
    "oracle.brute_force": ("sqgraphs.search", "brute_force"),
    "cache.cached_outcome": ("sqgraphs.search", "cached_outcome"),
    "cache.load_cache": ("sqgraphs.search", "load_cache"),
    "cache.append_cache": ("sqgraphs.search", "append_cache"),
    "constructions.max_edge_sum": ("sqgraphs.constructions", "max_edge_sum"),
    "constructions.max_edge_product": ("sqgraphs.constructions", "max_edge_product"),
    "constructions.turan_multigraph": ("sqgraphs.constructions", "turan_multigraph"),
    "constructions.iterated_multigraph": ("sqgraphs.constructions", "iterated_multigraph"),
    "multigraph.find_violation": ("sqgraphs.multigraph", "Multigraph.find_violation"),
    "families.grade_bounds": ("sqgraphs.families", "grade_bounds"),
    "families.in_graded_family": ("sqgraphs.families", "in_graded_family"),
    "families.in_saturated_family": ("sqgraphs.families", "in_saturated_family"),
    "families.raise_min_weights": ("sqgraphs.families", "raise_min_weights"),
    "families.clone_saturate": ("sqgraphs.families", "clone_saturate"),
    "verify.conjecture": ("sqgraphs.verify", "conjecture_checks"),
    "verify.identities": ("sqgraphs.verify", "identity_checks"),
    "verify.conditions": ("sqgraphs.verify", "condition_checks"),
    "verify.counting": ("sqgraphs.verify", "counting_checks"),
    "verify.transformations": ("sqgraphs.verify", "transformation_checks"),
}

# every public function of the formulas module is an entry point
FORMULAS_MODULE = "sqgraphs.formulas"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    root: int  # index of the root span: spans of one operation share it
    info: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for idx, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((sp.end - sp.start) - covered)
    return out


def _search_note(mode: str):
    def note(args, kwargs, result, exc):
        n, s, q = args[:3]
        info = {"key": (mode, n, s, q)}
        if result is not None:
            stats = result.stats
            info.update(
                nodes=stats.get("nodes", 0),
                bound_prunes=stats.get("bound_prunes", 0),
                symmetry_prunes=stats.get("symmetry_prunes", 0),
                optimal=result.optimal,
            )
        return info

    return note


def _count_note(args, kwargs, result, exc):
    return {"budget_exceeded": exc is not None and type(exc).__name__ == "BudgetExceededError"}


def _lookup_note(args, kwargs, result, exc):
    path = args[0]
    return {"hit": result is not None, "bytes": os.path.getsize(path) if os.path.exists(path) else 0}


NOTES = {
    "search.max_sum_search": _search_note("sum"),
    "search.max_product_search": _search_note("product"),
    "count.count_graphs": _count_note,
    "cache.cached_outcome": _lookup_note,
}


def _resolve(module_name: str, attr: str):
    owner = sys.modules.get(module_name)
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part, None)
    return owner, attr.split(".")[-1]


class Recorder:
    """Collects spans from wrapped entry points while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            sp = Span(name, clock(), 0.0, parent, spans[parent].root if parent >= 0 else idx)
            spans.append(sp)
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                sp.end = clock()
                stack.pop()
                if note is not None:
                    sp.info = note(args, kwargs, result, exc)

        return wrapper

    def install(self) -> None:
        """Point every sqgraphs binding of each entry point at its wrapper."""
        targets = dict(ENTRY_POINTS)
        for attr, value in vars(sys.modules[FORMULAS_MODULE]).items():
            if inspect.isfunction(value) and value.__module__ == FORMULAS_MODULE and not attr.startswith("_"):
                targets[f"formulas.{attr}"] = (FORMULAS_MODULE, attr)
        modules = [m for n, m in sys.modules.items() if n == "sqgraphs" or n.startswith("sqgraphs.")]
        for name, (module_name, attr) in targets.items():
            owner, leaf = _resolve(module_name, attr)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            self._patch(owner, leaf, wrapper)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and not (mod is owner and key == leaf):
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
