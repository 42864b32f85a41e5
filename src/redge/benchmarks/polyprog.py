"""Polynomial programming: push L binary choices toward a fixed target.

Each row is a 2-way categorical; the discrete loss per row is |x2 - c|^p with
x2 the second one-hot coordinate.  Since the row values at the two vertices
are c^p and (1-c)^p, the optimum is c^p with all mass on the first category.

Besides the power relaxation, a linear extension matching the loss at every
vertex is provided:  c^p * x1 + (1-c)^p * x2.  It defines the same discrete
problem but a much easier optimization landscape for straight-through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tensor import Node, as_matrix

RELAXATIONS = ("power", "linear")


@dataclass(frozen=True)
class PolyProgProblem:
    length: int = 128
    target: float = 0.45
    exponent: float = 2.0
    relaxation: str = "power"

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"length must be at least 1, got {self.length}")
        if self.exponent < 1.0:
            raise ValueError("exponent must be >= 1")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must lie in (0, 1)")
        if self.relaxation not in RELAXATIONS:
            raise ValueError(f"relaxation must be one of {RELAXATIONS}")

    def vertex_values(self):
        """Per-row loss at the two vertices (category 1, category 2)."""
        return self.target**self.exponent, (1.0 - self.target) ** self.exponent

    @property
    def optimum(self) -> float:
        return min(self.vertex_values())


def polyprog_loss(x: Node, problem: PolyProgProblem) -> Node:
    """Mean per-row loss of an Lx2 (soft or hard) sample, as one closed-form
    node: |x_2 - c|^p per row, or the linear x . (c^p, (1-c)^p)."""
    if x.shape[1] != 2:
        raise ValueError(f"polyprog_loss expects L x 2 rows, got {x.shape}")
    scale = 1.0 / x.shape[0]
    if problem.relaxation == "power":
        p, target = problem.exponent, problem.target
        # one array, category-major so that each row op is contiguous: the
        # per-row loss and the gap x_2 - c, then the VJP (0, slope) with
        # slope = g / L * p * |gap|^(p-1) * sign(gap), returned as its (L, 2)
        # transpose.  The sign goes to the other row: numpy's np.sign is
        # about 5x slower in place.
        second, both = x.value[:, 1], np.empty(x.shape[::-1])
        work, gap = both
        np.subtract(second, target, out=gap)
        per_row = np.power(np.abs(gap, out=work), p, out=work)

        def vjp(g):
            np.subtract(second, target, out=gap)   # so a second pass repeats the first
            np.sign(gap, out=work)
            np.power(np.abs(gap, out=gap), p - 1.0, out=gap)
            np.multiply(g[0, 0] * scale * p, gap, out=gap)
            np.multiply(gap, work, out=gap)
            work.fill(0.0)
            return both.T
    else:
        weights = np.array([problem.vertex_values()])
        per_row = x.value @ weights.T

        def vjp(g):
            return np.repeat(g[0, 0] * scale * weights, x.shape[0], axis=0)

    return x.apply(np.array([[per_row.sum() * scale]]), vjp)


def exact_polyprog_loss(probs, problem: PolyProgProblem) -> float:
    """Exact expectation of the discrete loss via two-point enumeration per row."""
    probs = as_matrix(probs)
    v1, v2 = problem.vertex_values()
    # the row sum scaled by 1/L, as in polyprog_loss, so both agree exactly
    # at hard samples
    return float((probs[:, 0] * v1 + probs[:, 1] * v2).sum() * (1.0 / probs.shape[0]))
