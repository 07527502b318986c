"""Parameter-counting bounds on the fraction of parties whose reduced
states can determine an n-party pure state.

The lower bound compares the number of real parameters carried by all
reduced states of up to k parties (exact integer counting over the product
operator basis) against the parameter count of pure states. The counts for
k = 1, 2, ... come from one running sum of exact integers, each step one
binomial update of the previous term, so the first k counts cost O(k)
big-integer operations. Asymptotically the comparison becomes a
transcendental condition in the fraction ``alpha = k/n`` whose unique root
in (0, 1/2] is the bound; it is about 0.189 for qubits and grows toward
1/2 with the local dimension. The upper bound comes from the constructive
tripartite splitting and is the fraction (2m+1)/(3m+1), decreasing toward
2/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Bracket width and residual at which the root bisection stops.
_ALPHA_TOL = 1e-13

__all__ = [
    "BoundsRow",
    "AlphaSolution",
    "count_reduced_params",
    "pure_param_count",
    "binary_entropy",
    "solve_alpha_lower",
    "finite_n_lower_fraction",
    "bounds_rows",
    "alpha_upper_table",
]


@dataclass(frozen=True)
class BoundsRow:
    """One finite-size comparison: parameters in k-party reduced states
    versus parameters in pure states, exact integers."""

    n: int
    d: int
    k: int
    reduced_param_count: int
    pure_param_count: int

    @property
    def sufficient_by_count(self) -> bool:
        return self.reduced_param_count >= self.pure_param_count


@dataclass(frozen=True)
class AlphaSolution:
    """Root of the asymptotic counting condition for local dimension d."""

    d: int
    alpha: float
    residual: float
    bracket: tuple[float, float]

    def __post_init__(self):
        if not (0.0 < self.alpha <= 0.5):
            raise ValueError(f"alpha {self.alpha} outside (0, 1/2]")
        lo, hi = self.bracket
        if not (lo < self.alpha < hi):
            raise ValueError("alpha must lie inside its bracket")


def _running_counts(n: int, d: int):
    """Yield ``(k, count_reduced_params(n, k, d))`` for k = 1..n.

    The term ``C(n,r) q^r`` follows from the previous one as
    ``term * (n-r+1) // r * q``; the division is exact because
    ``C(n,r-1) (n-r+1) = r C(n,r)``.
    """
    q = d * d - 1
    term = 1
    total = 0
    for r in range(1, n + 1):
        term = term * (n - r + 1) // r * q
        total += term
        yield r, total


def count_reduced_params(n: int, k: int, d: int) -> int:
    """Real parameters in all reduced states of up to k of n d-level parties.

    Each reduced state of r parties contributes the coefficients of the
    (d^2-1)-element traceless local basis on its r slots, so the total is
    ``sum_{r=1}^{k} C(n,r) (d^2-1)^r``. It is evaluated exactly as a running
    sum with O(k) big-integer operations.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if d < 2:
        raise ValueError("d must be >= 2")
    for r, total in _running_counts(n, d):
        if r == k:
            return total


def pure_param_count(n: int, d: int) -> int:
    """Real parameters of a normalized n-party pure state modulo phase: 2 d^n - 2."""
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    return 2 * d ** n - 2


def binary_entropy(x: float) -> float:
    """Natural-log entropy ``-x ln x - (1-x) ln(1-x)`` with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def solve_alpha_lower(d: int) -> AlphaSolution:
    """Solve ``H(alpha) + alpha ln(d^2 - 1) - ln d = 0`` on (0, 1/2].

    The left side is strictly increasing there (derivative
    ``ln((1-a)/a) + ln(d^2-1) > 0``), negative near 0 and positive at 1/2,
    so bisection converges to the unique root, stopping once the bracket
    and the residual are both below ``_ALPHA_TOL``. For a fraction of parties
    below this root the reduced states carry too few parameters to single
    out a pure state.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    ln_q = math.log(d * d - 1)
    ln_d = math.log(d)

    def f(a: float) -> float:
        return binary_entropy(a) + a * ln_q - ln_d

    lo, hi = 1e-16, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < _ALPHA_TOL and abs(f(mid)) < _ALPHA_TOL:
            break
    mid = 0.5 * (lo + hi)
    return AlphaSolution(d, mid, abs(f(mid)), (lo, hi))


def finite_n_lower_fraction(n: int, d: int = 2) -> tuple[int, float]:
    """Smallest k whose reduced-state parameter count reaches the pure-state
    count, returned as ``(k, k/n)``.

    Such a k always exists because the full count at k = n is d^(2n) - 1,
    which exceeds 2 d^n - 2. The ratio k/n decreases toward the asymptotic
    root as n grows.
    """
    target = pure_param_count(n, d)
    for k, count in _running_counts(n, d):
        if count >= target:
            return k, k / n
    raise AssertionError("unreachable: k = n always suffices")


def bounds_rows(n: int, d: int, k_max: int | None = None) -> list[BoundsRow]:
    """Comparison rows for k = 1.. up to the first sufficient k (or k_max)."""
    target = pure_param_count(n, d)
    if k_max is not None and k_max > n:
        raise ValueError(f"need k_max <= n, got k_max={k_max}, n={n}")
    rows = []
    limit = k_max if k_max is not None else n
    for k, count in _running_counts(n, d):
        if k > limit:
            break
        rows.append(BoundsRow(n, d, k, count, target))
        if k_max is None and rows[-1].sufficient_by_count:
            break
    return rows


def alpha_upper_table(m_max: int) -> list[dict]:
    """Constructive upper-bound fractions (2m+1)/(3m+1) for m = 1..m_max.

    Fractions are exact and strictly decreasing toward the limit 2/3,
    which is appended as a final row with m = None.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    rows = []
    for m in range(1, m_max + 1):
        frac = Fraction(2 * m + 1, 3 * m + 1)
        rows.append({
            "m": m,
            "total_parties": 3 * m + 1,
            "marginal_order": 2 * m + 1,
            "fraction": frac,
        })
    rows.append({
        "m": None,
        "total_parties": None,
        "marginal_order": None,
        "fraction": Fraction(2, 3),
    })
    return rows
