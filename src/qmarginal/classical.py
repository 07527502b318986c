"""Classical contrast: marginals of n-1 of n random variables never pin
down the joint distribution.

The deviation tensor built from a zero-sum vector on every variable has
identically vanishing marginals on any proper subset of the variables, so
adding a small multiple of it to any strictly positive joint produces a
distinct joint with all (n-1)-variable marginals unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .tensor import SeededRng, _require_finite

__all__ = [
    "JointDistribution",
    "EpsilonTooLargeError",
    "classical_marginal",
    "alternating_deviation",
    "counterexample_pair",
]


@dataclass(frozen=True)
class JointDistribution:
    """Joint probability table over discrete variables."""

    arity: tuple[int, ...]
    probabilities: np.ndarray = field(repr=False)

    def __post_init__(self):
        arity = tuple(int(a) for a in self.arity)
        if not arity or any(a < 2 for a in arity):
            raise ValueError(f"arities must all be >= 2, got {arity}")
        object.__setattr__(self, "arity", arity)
        p = np.ascontiguousarray(self.probabilities, dtype=float)
        if p.shape != arity:
            raise ValueError(f"table shape {p.shape} does not match arity {arity}")
        _require_finite(p, "probability table")
        if p.min() < 0.0:
            raise ValueError(f"negative probability {p.min()!r}")
        total = p.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @classmethod
    def uniform(cls, n: int, d: int) -> "JointDistribution":
        shape = (d,) * n
        return cls(shape, np.full(shape, 1.0 / d ** n))

    @classmethod
    def random(cls, n: int, d: int, rng: SeededRng) -> "JointDistribution":
        """Flat-Dirichlet joint; strictly positive with probability one."""
        shape = (d,) * n
        p = rng.generator.dirichlet(np.ones(d ** n)).reshape(shape)
        return cls(shape, p / p.sum())


def classical_marginal(p: JointDistribution, keep: Sequence[int]) -> JointDistribution:
    """Marginal distribution on the variables in ``keep``."""
    keep = sorted(set(int(i) for i in keep))
    n = len(p.arity)
    if not keep:
        raise ValueError("keep must be non-empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"variable index out of range in {keep}")
    drop = tuple(i for i in range(n) if i not in keep)
    table = p.probabilities.sum(axis=drop) if drop else p.probabilities
    return JointDistribution(tuple(p.arity[i] for i in keep), table)


def alternating_deviation(n: int, d: int) -> np.ndarray:
    """Signed tensor whose every (n-1)-variable marginal vanishes.

    Product of the zero-sum vector (1, -1, 0, ..., 0) over all n variables;
    summing over any single variable gives the zero array exactly.
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    v = np.zeros(d)
    v[0], v[1] = 1.0, -1.0
    delta = v
    for _ in range(n - 1):
        delta = np.multiply.outer(delta, v)
    return delta.reshape((d,) * n)


class EpsilonTooLargeError(ValueError):
    """Requested deviation would push the joint off the simplex; carries the
    largest admissible epsilon for this base distribution."""

    def __init__(self, epsilon: float, max_admissible: float):
        self.max_admissible = max_admissible
        super().__init__(
            f"epsilon={epsilon} exceeds the admissible maximum {max_admissible}"
        )


def counterexample_pair(n: int, d: int, epsilon: float, rng: SeededRng,
                        base: JointDistribution | None = None):
    """Two distinct joints with identical marginals on every n-1 variables.

    ``q = p + epsilon * delta`` with the alternating deviation ``delta``;
    p is a flat-Dirichlet draw unless ``base`` is given. n must be at least
    2, since a single variable has no (n-1)-variable marginal. epsilon must
    be finite, positive and small enough to keep q non-negative, otherwise
    :class:`EpsilonTooLargeError` reports the admissible maximum.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 variables, got n={n}")
    if not np.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive (the pair would not be distinct)")
    p = base if base is not None else JointDistribution.random(n, d, rng)
    if p.arity != (d,) * n:
        raise ValueError(f"base arity {p.arity} does not match (d,)*n")
    delta = alternating_deviation(n, d)
    negative = delta < 0
    max_admissible = float(p.probabilities[negative].min()) if negative.any() else np.inf
    if epsilon > max_admissible:
        raise EpsilonTooLargeError(epsilon, max_admissible)
    q = JointDistribution(p.arity, p.probabilities + epsilon * delta)
    return p, q
