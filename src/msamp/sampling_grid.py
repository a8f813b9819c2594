"""Periodic nonuniform (multicoset) sampling grids and density accounting.

A grid is the union of P+1 shifted uniform cosets

    X_k = { j*delta_X + k*delta_x : j integer },   k = 0..P,

truncated to |j| <= J. delta_X is the coarse (macroscale) spacing, delta_x
the fine (microscale) offset between consecutive cosets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError
from .signal_model import MultiscaleSignalSpec, _integer

__all__ = [
    "PeriodicSamplingGrid",
    "ConstraintCheck",
    "GridValidationReport",
    "build_grid",
    "validate_against",
    "beurling_density",
    "nyquist_rate",
]


@dataclass(frozen=True)
class PeriodicSamplingGrid:
    """Truncated multicoset grid with cosets k = 0..P and macro indices |j| <= J."""

    delta_X: float
    delta_x: float
    P: int
    J: int

    def __post_init__(self):
        object.__setattr__(self, "delta_X", float(self.delta_X))
        object.__setattr__(self, "delta_x", float(self.delta_x))
        object.__setattr__(self, "P", _integer(self.P, "P"))
        object.__setattr__(self, "J", _integer(self.J, "J"))
        if not (math.isfinite(self.delta_X) and math.isfinite(self.delta_x)):
            raise ConstraintError(
                f"grid spacings must be finite, got delta_X={self.delta_X!r}, "
                f"delta_x={self.delta_x!r}"
            )
        if self.delta_X <= 0:
            raise ConstraintError("delta_X must be positive")
        if self.P < 0:
            raise ConstraintError("P must be >= 0")
        if self.P > 0 and self.delta_x <= 0:
            raise ConstraintError("delta_x must be positive when P > 0")
        if self.delta_x < 0:
            raise ConstraintError("delta_x must be >= 0")
        if self.J < 1:
            raise ConstraintError("J must be >= 1")
        if self.P * self.delta_x >= self.delta_X:
            raise ConstraintError(
                f"coset overlap: P*delta_x = {self.P * self.delta_x} >= "
                f"delta_X = {self.delta_X}"
            )

    @property
    def n_points(self) -> int:
        return (self.P + 1) * (2 * self.J + 1)

    def macro_indices(self) -> np.ndarray:
        return np.arange(-self.J, self.J + 1)

    def point(self, k: int, j: int) -> float:
        if not 0 <= k <= self.P:
            raise ConstraintError(f"coset index {k} outside 0..{self.P}")
        if not -self.J <= j <= self.J:
            raise ConstraintError(f"macro index {j} outside -{self.J}..{self.J}")
        return j * self.delta_X + k * self.delta_x

    def coset_points(self, k: int) -> np.ndarray:
        """All points of coset k, ascending."""
        if not 0 <= k <= self.P:
            raise ConstraintError(f"coset index {k} outside 0..{self.P}")
        return self.macro_indices() * self.delta_X + k * self.delta_x


def build_grid(delta_X: float, delta_x: float, P: int, J: int) -> PeriodicSamplingGrid:
    """Construct a grid; raises ConstraintError if cosets would overlap."""
    return PeriodicSamplingGrid(delta_X=delta_X, delta_x=delta_x, P=P, J=J)


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class GridValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        lines = [
            f"[{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}"
            for c in self.checks
        ]
        return "\n".join(lines)

    def require_ok(self) -> None:
        """Raise ConstraintError listing each failed check with its detail."""
        if not self.ok:
            names = "; ".join(f"{c.name} ({c.detail})" for c in self.failures)
            raise ConstraintError(f"grid fails reconstruction constraints: {names}")


def validate_against(
    grid: PeriodicSamplingGrid, spec: MultiscaleSignalSpec
) -> GridValidationReport:
    """Check the grid against the reconstruction requirements for `spec`.

    Four independent checks: delta_x <= epsilon/(2M+1), delta_X > epsilon,
    delta_X <= 1/(2N), and P == 2M. Returns a report; never raises.
    """
    eps, N, M = spec.epsilon, spec.N, spec.M
    dx_cap = eps / (2 * M + 1)
    dX_cap = 1 / (2 * N)
    checks = (
        ConstraintCheck(
            "delta_x <= epsilon/(2M+1)",
            grid.delta_x <= dx_cap,
            f"delta_x={grid.delta_x!r}, cap={dx_cap!r}",
        ),
        ConstraintCheck(
            "delta_X > epsilon",
            grid.delta_X > eps,
            f"delta_X={grid.delta_X!r}, epsilon={eps!r}",
        ),
        ConstraintCheck(
            "delta_X <= 1/(2N)",
            grid.delta_X <= dX_cap,
            f"delta_X={grid.delta_X!r}, cap={dX_cap!r}",
        ),
        ConstraintCheck(
            "P == 2M",
            grid.P == 2 * M,
            f"P={grid.P}, 2M={2 * M}",
        ),
    )
    return GridValidationReport(checks)


def beurling_density(grid: PeriodicSamplingGrid) -> float:
    """Lower Beurling density of the untruncated grid: (P+1)/delta_X.

    Each coset contributes one point per macro period, so every window of
    length r contains (P+1)*(r/delta_X) + O(1) points; the truncation J
    plays no role in the asymptotic count.
    """
    return (grid.P + 1) / grid.delta_X


def nyquist_rate(spec: MultiscaleSignalSpec) -> float:
    """Uniform-sampling rate for the full band: 2*(N + M/epsilon)."""
    return 2 * (spec.N + spec.M / spec.epsilon)
