"""Seeded random incidence quotients for the property suites."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .presentation import IncidenceQuotient, from_poset
from .quivers import Quiver, _bits, cover_arrows


@dataclass(frozen=True)
class RandomModel:
    seed: int
    n: int
    edge_density: float = 0.4
    zero_rate: float = 0.25
    max_attempts: int = 64

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0 < self.edge_density <= 1:
            raise ValueError("edge_density must lie in (0, 1]")
        if not 0 <= self.zero_rate <= 1:
            raise ValueError("zero_rate must lie in [0, 1]")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")


def random_algebra(model: RandomModel) -> IncidenceQuotient:
    """Deterministic per (seed, parameters): a random partial order, its
    Hasse quiver, and zero pairs sampled among the length->=2 comparable
    pairs; retried until the presentation certifies, with the final attempt
    returned uncertified if none does."""
    rng = random.Random(model.seed)
    names = [str(k) for k in range(1, model.n + 1)]
    last = None
    for attempt in range(model.max_attempts):
        ge = [0] * model.n
        for i in range(model.n):
            for j in range(i + 1, model.n):
                if rng.random() < model.edge_density:
                    ge[i] |= 1 << j
        # transitive closure over the linear extension 1..n
        for i in range(model.n - 1, -1, -1):
            for j in _bits(ge[i]):
                ge[i] |= ge[j]
        quiver = Quiver(names, [(names[i], names[j]) for i, j in cover_arrows(ge)])
        eligible = []
        for i in range(model.n):
            for j in _bits(ge[i]):
                if (i, j) not in quiver.arrows:
                    eligible.append((names[i], names[j]))
        zeros = [p for p in eligible if rng.random() < model.zero_rate]
        label = f"random-s{model.seed}-n{model.n}"
        algebra = from_poset(quiver, zeros, label=label)
        last = algebra
        if algebra.validity.certified:
            return algebra
    return last
