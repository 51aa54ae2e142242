"""Closed-form quantities for locally sparse multigraph extremal problems.

Everything that can be evaluated exactly is evaluated exactly: inequality
checks between integer powers use Python integers (the conditions are
razor-thin for small bases, so floats are never trusted), rational limits
use fractions.Fraction, and the transcendental quantities are computed
with mpmath at a configurable decimal precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .multigraph import Params

DEFAULT_DPS = 50


@dataclass(frozen=True)
class BigReal:
    """A high-precision real together with the decimal precision it carries."""

    value: object  # mpmath.mpf
    dps: int

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return mp.nstr(self.value, self.dps)

    def digits(self, k: int) -> str:
        return mp.nstr(self.value, k)


def turan_number(n: int, k: int) -> int:
    """Maximum edge count of a K_k-free graph on n vertices.

    Computed from the balanced complete (k-1)-partite graph; Turan's
    theorem is assumed, not re-proved.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    parts = k - 1
    size, extra = divmod(n, parts)
    internal = extra * math.comb(size + 1, 2) + (parts - extra) * math.comb(size, 2)
    return math.comb(n, 2) - internal


@lru_cache(maxsize=None)  # BigReal is frozen, so callers may share a result
def light_part_fraction(params: Params, dps: int = DEFAULT_DPS) -> BigReal:
    """Asymptotically product-optimal fraction of vertices in the light part.

    Equals log((a+1)/a) / log((a+1)^r / (a (a-d)^(r-1))).  For d = 0 this
    simplifies to 1/r; for d >= 1 it is strictly below 1/(d(r-1)).
    """
    a, r, d = params.a, params.r, params.d
    if r < 2:
        raise ValueError(f"need r >= 2, got r={r}")
    with mp.workdps(dps):
        num = mp.log(a + 1) - mp.log(a)
        den = r * mp.log(a + 1) - mp.log(a) - (r - 1) * mp.log(a - d)
        val = num / den
    return BigReal(val, dps)


def light_part_recurrence_residual(a: int, r: int, d: int) -> float:
    """Relative residual of the part-fraction recurrence linking r and r+1.

    The fraction x(r+1) satisfies x(r+1) = ((r-1+x(r+1))/r) * x(r), which
    reflects that inside a product-optimal member the vertices joined to a
    fixed middle part by cross weight induce the optimal member one part
    smaller.
    """
    with mp.workdps(DEFAULT_DPS):
        x_r = light_part_fraction(Params(a, r, d)).value
        x_r1 = light_part_fraction(Params(a, r + 1, d)).value
        rhs = (r - 1 + x_r1) / r * x_r
        return float(abs(x_r1 - rhs) / x_r1)


def product_density_limit(a: int, r: int, dps: int = DEFAULT_DPS) -> BigReal:
    """Limit of the maximal geometric mean of weights for the resolved family.

    For grade s = 2r and bound a*C(2r,2) + turan(2r, r+1) - 1 the limit is
    the construction density limit at deficiency 1.  Strictly between a
    and a+1.
    """
    if a < 2 or r < 2:
        raise ValueError(f"need a, r >= 2, got a={a}, r={r}")
    return construction_density_limit(Params(a, r, 1), dps)


def construction_density_limit(params: Params, dps: int = DEFAULT_DPS) -> BigReal:
    """Limit of the construction family's maximal geometric mean of weights.

    a^((1-x)/(r-1)) * (a+1)^((r-2+x)/(r-1)) with x the light-part
    fraction for (a, r, d).
    """
    a, r = params.a, params.r
    with mp.workdps(dps):
        x = light_part_fraction(params, dps).value
        val = mp.power(a, (1 - x) / (r - 1)) * mp.power(a + 1, (r - 2 + x) / (r - 1))
    return BigReal(val, dps)


def sum_density_limit(params: Params) -> Fraction:
    """Limit of the maximal average weight inside the construction family."""
    a, r, d = params.a, params.r, params.d
    return Fraction(a + 1) - Fraction(d + 1, (r - 1) * d + r)


def _floor_sum(m: Fraction, s: int) -> int:
    return sum(math.floor(1 + m * i) for i in range(1, s))


def max_sum_density(s: int, q: int) -> Fraction:
    """Least rational m with sum_{i<s} floor(1 + m*i) > q.

    This step threshold is the asymptotic maximum of the average edge
    multiplicity over (s,q)-graphs.  The step function jumps only at
    rationals with denominator at most s-1, so scanning those candidates
    and binary-searching the threshold is exact.
    """
    if s < 2:
        raise ValueError(f"s must be >= 2, got {s}")
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    candidates = sorted(
        {Fraction(k, i) for i in range(1, s) for k in range(0, (q + s) * i + 1)}
    )
    lo, hi = 0, len(candidates) - 1
    # the top candidate q+s always clears the bound: its sum is
    # (s-1) + (q+s)*C(s,2) > q
    while lo < hi:
        mid = (lo + hi) // 2
        if _floor_sum(candidates[mid], s) > q:
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


@lru_cache(maxsize=None)
def _amgm(total: int, count: int) -> int:
    """Max product of `count` nonnegative integers with sum at most `total`.

    Unvalidated and cached: the search engines call it at every node.
    """
    if count == 0:
        return 1
    if total <= 0:
        return 0
    base, extra = divmod(total, count)
    return base ** (count - extra) * (base + 1) ** extra


def part_size_condition(a: int, d: int, size: int) -> bool:
    """Exact check of the replicated-part inequalities at a given part size R.

    Requires (a-d+i)^R <= (a+1)^(R-d+i-1) * (a-d)^(d-i+1) for every i in
    1..d.  Evaluated in exact integers.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if a < d + 1:
        raise ValueError(f"need a >= d+1, got a={a}, d={d}")
    if size < d + 1:
        raise ValueError(f"need size >= d+1, got {size}")
    return all(
        (a - d + i) ** size <= (a + 1) ** (size - d + i - 1) * (a - d) ** (d - i + 1)
        for i in range(1, d + 1)
    )


def min_part_size(a: int, d: int) -> int:
    """Least part size R >= d+1 passing part_size_condition.

    The size d(1 + d + d^2) always works, so the scan is bounded.
    """
    cap = max(d * (1 + d + d * d), d + 1)
    for size in range(d + 1, cap + 1):
        if part_size_condition(a, d, size):
            return size
    raise RuntimeError(f"no qualifying part size up to {cap} for a={a}, d={d}")


def cross_gain_condition(a: int, r: int, d: int) -> bool:
    """Exact check of (a+1)^r * (a-d) >= a^(r+1).

    Holds for every a, r >= 2 when d = 1, and for r >= d(d+1) in general;
    it is the condition letting cross-weight gains over r parts dominate
    the light-part loss in the averaging steps.
    """
    if a < 1 or r < 1 or not 0 <= d <= a - 1:
        raise ValueError(f"invalid parameters a={a}, r={r}, d={d}")
    return (a + 1) ** r * (a - d) >= a ** (r + 1)


def plateau_density(a: int, r: int, dps: int = DEFAULT_DPS) -> BigReal:
    """Conjectured flat-interval value a^(1/r) * (a+1)^((r-1)/r).

    For bounds just above the deficiency-0 threshold the maximal geometric
    mean is expected not to move; this is the conjectured common value.
    """
    if a < 1 or r < 1:
        raise ValueError(f"need a, r >= 1, got a={a}, r={r}")
    with mp.workdps(dps):
        val = mp.power(a, mp.mpf(1) / r) * mp.power(a + 1, mp.mpf(r - 1) / r)
    return BigReal(val, dps)


def density(value: int, n_pairs: int) -> str:
    """Decimal rendering of value^(1/n_pairs) to 12 significant digits.

    A graph with no pairs (one vertex) has density 1.0, the root of its
    empty edge product.
    """
    if n_pairs < 0:
        raise ValueError("n_pairs must be >= 0")
    if value < 0:
        raise ValueError("value must be >= 0")
    if n_pairs == 0:
        return "1.0"
    if value == 0:
        return "0.0"
    with mp.workdps(27):  # 15 guard digits past the 12 shown
        root = mp.exp(mp.log(value) / n_pairs)
        return mp.nstr(root, 12)
