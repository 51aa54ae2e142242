"""Runnable checks for the identities, inequalities and conjectured values.

Each check produces CheckReport rows.  A row is either hard (the claim
is an unconditional identity or inequality and a failure is a real
regression) or reported-only (conjectured equalities and asymptotic
trends: desk-scale n cannot confirm or refute a limit statement, so the
rows carry data, never verdicts).  The kind of every check is recorded
in CHECK_KINDS so the classification itself is auditable, and every row
takes its status from it through one constructor, _row.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass

from . import formulas
from .constructions import max_edge_product, max_edge_sum
from .families import (
    clone_saturate,
    in_graded_family,
    in_saturated_family,
    raise_min_weights,
)
from .multigraph import Multigraph, Params
from .search import (
    BudgetExceededError,
    DEFAULT_NODE_BUDGET,
    count_graphs,
    max_product_search,
)

PASS = "pass"
FAIL = "fail"
REPORTED = "reported-only"


@dataclass
class CheckReport:
    name: str
    point: str
    status: str
    left: str = ""
    right: str = ""
    note: str = ""

    def record(self) -> dict[str, str]:
        """The row as a report record; ``-`` stands for an empty field."""
        return {
            "check": self.name,
            "point": f"[{self.point}]",
            "status": self.status,
            "left": self.left or "-",
            "right": self.right or "-",
            "note": self.note or "-",
        }


# name -> (kind, rationale).  Hard checks back finite claims; reported-only
# rows carry conjecture instances or asymptotic trends as data.
CHECK_KINDS: dict[str, tuple[str, str]] = {
    "product_dominates_construction": ("hard", "construction members are feasible, so the search can never fall below them"),
    "product_equals_construction": ("reported", "conjectured equality; only asymptotic, finite n is data"),
    "search_density_vs_limit": ("reported", "asymptotic limit comparison at desk-scale n"),
    "sum_difference_step": ("hard", "exact identity for consecutive grades below the base grade"),
    "deficiency_strict_monotone": ("hard", "strict inequality between deficiencies at the separating grade"),
    "sum_argmax_light_part_large": ("hard", "some sum-argmax has light part >= 2 at and above the base grade"),
    "sum_argmax_light_part_small": ("hard", "some sum-argmax has light part <= 1 at and below the base grade"),
    "part_fraction_recurrence": ("hard", "closed-form recurrence of the optimal light-part fraction"),
    "min_part_size_deficiency_one": ("hard", "part size 3 suffices at deficiency 1"),
    "min_part_size_cubic_bound": ("hard", "part size d(1+d+d^2) always suffices"),
    "cross_gain_deficiency_one": ("hard", "cross-gain condition always holds at deficiency 1"),
    "cross_gain_many_parts": ("hard", "cross-gain condition holds once r >= d(d+1)"),
    "counting_family_nonempty": ("hard", "the construction itself belongs to the counted family"),
    "counting_density": ("reported", "finite count logged against the asymptotic growth constant"),
    "transform_product_monotone": ("hard", "both transformations never decrease the edge product"),
    "transform_lands_saturated": ("hard", "the composed transformations produce a saturated member"),
    "transform_preserves_clones": ("hard", "clone pairs of the input survive the transformations"),
    "transform_sampler": ("reported", "rejection-sampler yield per parameter point"),
}


def hard_failures(reports: list[CheckReport]) -> list[CheckReport]:
    return [
        r
        for r in reports
        if r.status == FAIL and CHECK_KINDS.get(r.name, ("hard",))[0] == "hard"
    ]


def _row(
    name: str, point: str, ok: bool | None, left: str = "", right: str = "", note: str = ""
) -> CheckReport:
    """A row of check ``name``: the one place a row's status is chosen.

    Rows of a reported-only check, and rows of a hard check with no
    outcome (``ok is None``: inconclusive or skipped), are reported-only;
    otherwise ``ok`` decides pass or fail.  An unregistered name raises
    KeyError.
    """
    if CHECK_KINDS[name][0] == "reported" or ok is None:
        status = REPORTED
    else:
        status = PASS if ok else FAIL
    return CheckReport(name, point, status, left, right, note)


def _sorted(reports: list[CheckReport]) -> list[CheckReport]:
    return sorted(reports, key=lambda r: (r.name, r.point))


# ---------------------------------------------------------------------------
# conjecture instances
# ---------------------------------------------------------------------------


def conjecture_checks(
    params: Params,
    n_values: list[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
    dps: int = formulas.DEFAULT_DPS,
) -> list[CheckReport]:
    """Search vs construction at the base grade, per n.

    Dominance (search >= construction) is hard; equality and the density
    trend are reported-only.  Budget-bound rows are inconclusive.
    """
    s = params.s_base
    q = max_edge_sum(params, s).value
    limit = formulas.construction_density_limit(params, dps)
    out: list[CheckReport] = []
    for n in n_values:
        point = f"a={params.a} r={params.r} d={params.d} n={n} s={s} q={q}"
        cons = max_edge_product(params, n).value
        outcome = max_product_search(n, s, q, node_budget=node_budget)
        pairs = n * (n - 1) // 2
        dens = formulas.density(outcome.value, pairs)
        if not outcome.optimal:
            out.append(
                _row(
                    "product_dominates_construction", point, None,
                    str(outcome.value), str(cons),
                    "inconclusive: node budget exhausted, search value is a lower bound",
                )
            )
            continue
        out.append(
            _row(
                "product_dominates_construction", point, outcome.value >= cons,
                str(outcome.value), str(cons), "search vs construction",
            )
        )
        out.append(
            _row(
                "product_equals_construction", point, None,
                str(outcome.value), str(cons),
                "equal" if outcome.value == cons else "search exceeds construction",
            )
        )
        out.append(
            _row(
                "search_density_vs_limit", point, None,
                dens, str(limit),
                f"value^(1/{pairs}) against the asymptotic constant",
            )
        )
    return _sorted(out)


# ---------------------------------------------------------------------------
# exact identities
# ---------------------------------------------------------------------------


def identity_checks(a_max: int = 6, r_max: int = 5) -> list[CheckReport]:
    out: list[CheckReport] = []
    for a in range(1, a_max + 1):
        for r in range(2, r_max + 1):
            for d in range(0, a):
                params = Params(a, r, d)
                s_base = params.s_base
                point = f"a={a} r={r} d={d}"
                sums = {sp: max_edge_sum(params, sp) for sp in range(2, s_base + 3)}

                # consecutive-grade difference identity below the base grade
                steps = (
                    (sp, sums[sp + 1].value - sums[sp].value, sp * (a + 1) - (sp - 1) // (r - 1))
                    for sp in range(2, s_base)
                )
                detail = next((f"s'={sp}: {lhs} != {rhs}" for sp, lhs, rhs in steps if lhs != rhs), "")
                out.append(
                    _row(
                        "sum_difference_step", point, not detail,
                        "exact", "exact", detail or f"s'=2..{s_base - 1}",
                    )
                )

                # strictly smaller sums than the reduced-deficiency family
                if d >= 1:
                    gaps = (
                        (i, sums[si].value, max_edge_sum(Params(a, r, d - i), si).value)
                        for i in range(1, d + 1)
                        for si in [(r - 1) * (d - i + 2) + 2]
                    )
                    detail = next((f"i={i}: {lhs} !< {rhs}" for i, lhs, rhs in gaps if not lhs < rhs), "")
                    out.append(
                        _row(
                            "deficiency_strict_monotone", point, not detail,
                            "exact", "exact", detail or f"i=1..{d}",
                        )
                    )

                # light-part size thresholds across the sum-argmax set
                big_ok = all(
                    any(comp[0] >= 2 for comp in sums[sv].all_argmax)
                    for sv in range(s_base, s_base + 3)
                )
                small_ok = all(
                    any(comp[0] <= 1 for comp in sums[sv].all_argmax)
                    for sv in range(2, s_base + 1)
                )
                out.append(
                    _row("sum_argmax_light_part_large", point, big_ok, note=f"s={s_base}..{s_base + 2}")
                )
                out.append(_row("sum_argmax_light_part_small", point, small_ok, note=f"s=2..{s_base}"))

    # recurrence of the optimal light-part fraction
    worst = 0.0
    worst_point = ""
    for a in range(2, 21):
        for r in range(2, 11):
            for d in range(1, min(a - 1, 5) + 1):
                res = formulas.light_part_recurrence_residual(a, r, d)
                if res > worst:
                    worst, worst_point = res, f"a={a} r={r} d={d}"
    out.append(
        _row(
            "part_fraction_recurrence",
            "a=2..20 r=2..10 d<=5",
            worst < 1e-12,
            f"{worst:.3e}", "1e-12",
            f"worst residual at {worst_point}",
        )
    )
    return _sorted(out)


# ---------------------------------------------------------------------------
# integer power conditions
# ---------------------------------------------------------------------------


def condition_checks() -> list[CheckReport]:
    out: list[CheckReport] = []

    worst = max(formulas.min_part_size(a, 1) for a in range(2, 201))
    out.append(
        _row(
            "min_part_size_deficiency_one", "a=2..200 d=1",
            worst <= 3, str(worst), "3",
            "largest minimal part size observed",
        )
    )

    bad = next((  # the first counterexample, or ""
        f"a={a} d={d}"
        for d in range(1, 7) for a in range(d + 1, 51)
        if formulas.min_part_size(a, d) > d * (1 + d + d * d)
    ), "")
    out.append(
        _row(
            "min_part_size_cubic_bound", "d=1..6 a<=(50)",
            not bad, "", "d(1+d+d^2)", bad or "all within bound",
        )
    )

    ok = all(
        formulas.cross_gain_condition(a, r, 1)
        for a in range(2, 101)
        for r in range(2, 101)
    )
    out.append(
        _row(
            "cross_gain_deficiency_one", "a=2..100 r=2..100 d=1",
            ok, note="exact integer comparisons",
        )
    )

    bad = next((  # the first counterexample, or ""
        f"a={a} r={r} d={d}"
        for d in range(1, 6) for a in range(d + 1, 31) for r in range(d * (d + 1), d * (d + 1) + 11)
        if not formulas.cross_gain_condition(a, r, d)
    ), "")
    out.append(
        _row(
            "cross_gain_many_parts", "d=1..5 a<=30 r=d(d+1)..d(d+1)+10",
            not bad, note=bad or "all hold",
        )
    )
    return _sorted(out)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def counting_checks(
    n: int, a: int, r: int, node_budget: int = DEFAULT_NODE_BUDGET, dps: int = formulas.DEFAULT_DPS
) -> list[CheckReport]:
    """Exact family count against the asymptotic growth constant (data only)."""
    s = 2 * r
    q = (a - 1) * math.comb(s, 2) + formulas.turan_number(s, r + 1) - 1
    point = f"n={n} a={a} r={r} s={s} q={q}"
    if s > n:
        return [_row("counting_density", point, None, note="skipped: grade exceeds the vertex count")]
    try:
        count = count_graphs(n, s, q, node_budget=node_budget)
    except BudgetExceededError as exc:
        return [_row("counting_density", point, None, note=f"skipped: {exc}")]
    pairs = n * (n - 1) // 2
    limit = formulas.product_density_limit(a, r, dps)
    return _sorted(
        [
            _row("counting_family_nonempty", point, count >= 1, str(count), ">=1"),
            _row(
                "counting_density", point, None,
                formulas.density(count, pairs), str(limit),
                f"count^(1/{pairs}) against the growth constant",
            ),
        ]
    )


# ---------------------------------------------------------------------------
# transformation properties
# ---------------------------------------------------------------------------


def sample_graded_member(params: Params, n: int, rng: random.Random) -> Multigraph | None:
    """Rejection-sample a graded-family member around the constant-a graph (400 tries)."""
    a, d = params.a, params.d
    lo, hi = max(0, a - d - 1), a + 1
    pair_count = n * (n - 1) // 2
    for _ in range(400):
        weights = [
            a if rng.random() < 0.6 else rng.randint(lo, hi) for _ in range(pair_count)
        ]
        G = Multigraph(n, weights)
        if in_graded_family(G, params):
            return G
    return None


def transformation_checks(trials: int = 1000, seed: int = 20240817) -> list[CheckReport]:
    """Randomized properties of raise_min_weights followed by clone_saturate.

    Per parameter point, on 6-vertex samples: the edge product never
    decreases, the result is a saturated member, and clone pairs of the
    input stay clones.  The last property mirrors a claim made alongside
    the transformation's construction; see the row note for the first
    counterexample when it fails.
    """
    n = 6
    out: list[CheckReport] = []
    for a, r, d in ((2, 2, 1), (3, 2, 1), (3, 2, 2)):
        params = Params(a, r, d)
        rng = random.Random((seed, a, r, d).__hash__())
        point = f"a={a} r={r} d={d} n={n} trials={trials}"
        sampled = 0
        monotone_bad = ""
        saturated_bad = ""
        clones_bad = ""
        for t in range(trials):
            G = sample_graded_member(params, n, rng)
            if G is None:
                continue
            sampled += 1
            clone_pairs = [
                (i, j) for i, j, _ in G.pairs() if G.are_clones(i, j)
            ]
            raised = raise_min_weights(G, params)
            final = clone_saturate(raised, params)
            if not (raised.edge_product() >= G.edge_product() and final.edge_product() >= raised.edge_product()):
                monotone_bad = monotone_bad or f"trial {t}: product decreased"
            if not in_saturated_family(final, params):
                saturated_bad = saturated_bad or f"trial {t}: not saturated"
            broken = [p for p in clone_pairs if not final.are_clones(*p)]
            if broken and not clones_bad:
                clones_bad = f"trial {t}: clone pair {broken[0]} broken; input {G.weights()}"
        out.append(
            _row(
                "transform_sampler", point, None,
                str(sampled), str(trials), "graded members found / trials",
            )
        )
        out.append(_row("transform_product_monotone", point, not monotone_bad, note=monotone_bad))
        out.append(_row("transform_lands_saturated", point, not saturated_bad, note=saturated_bad))
        out.append(_row("transform_preserves_clones", point, not clones_bad, note=clones_bad))
    return _sorted(out)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def format_report_line(r: CheckReport) -> str:
    return " ".join(f"{k}={v}" for k, v in r.record().items())


def write_reports(reports: list[CheckReport], base_path: str) -> tuple[str, str]:
    """Write the rows as structured text and as CSV; returns both paths."""
    rows = _sorted(reports)
    txt_path = base_path + ".txt"
    csv_path = base_path + ".csv"
    with open(txt_path, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(format_report_line(r) + "\n")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "point", "status", "left", "right", "note"])
        for r in rows:
            writer.writerow([r.name, r.point, r.status, r.left, r.right, r.note])
    return txt_path, csv_path
