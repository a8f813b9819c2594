"""Quantitative stability analysis of the multicoset reconstruction.

Covers the closed-form stability constant, two-sided Gautschi bounds on
the infinity norm of inverse Vandermonde matrices, node-separation
audits, and the empirically measured ratio between signal energy and
sample energy that the stability constant is supposed to dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, SingularSystemError
from .oracle import l2_norm_quadrature
from .reconstruction import VandermondeSystem, build_vandermonde
from .sampling_grid import PeriodicSamplingGrid, beurling_density, nyquist_rate
from .sampling_operator import sample_signal
from .signal_model import MultiscaleSignalSpec, evaluate

__all__ = [
    "StabilityReport",
    "NodeGapCheck",
    "NodeGapAudit",
    "stability_constant",
    "two_band_stability_constant",
    "gautschi_bounds",
    "vandermonde_inverse_norm",
    "node_gap_audit",
    "measured_stability_ratio",
    "stability_report",
    "report_to_dict",
    "report_csv_header",
    "report_csv_row",
]


def stability_constant(
    N: float, M: int, epsilon: float, delta_X: float, delta_x: float
) -> float:
    """Closed-form bound C with ||f||^2 <= C * sum_{y in grid} |f(y)|^2.

    C = (1/2N) * sin(pi*(1/epsilon - 1/delta_X)*delta_x)**(-2M). Requires
    the sine argument (1/epsilon - 1/delta_X)*delta_x to lie in (0, 1/2),
    which the grid constraints guarantee; for M = 0 the bound is 1/(2N)
    independent of the microscale spacing.
    """
    if N <= 0 or epsilon <= 0 or delta_X <= 0:
        raise ConstraintError("N, epsilon, delta_X must be positive")
    if M == 0:
        return 1.0 / (2 * N)
    arg = (1 / epsilon - 1 / delta_X) * delta_x
    if not 0 < arg < 0.5:
        raise ConstraintError(
            f"(1/epsilon - 1/delta_X)*delta_x = {arg!r} outside (0, 1/2); "
            "the closed form is only valid under the grid constraints"
        )
    return (1.0 / (2 * N)) * math.sin(math.pi * arg) ** (-2 * M)


def two_band_stability_constant(N: float, delta_ratio: float) -> float:
    """Stability constant 1/(2N*sin(pi*r)) for the two-band path (reconstruct_two_band).

    r = delta_x/epsilon; maximal node separation (and the minimum value
    1/(2N)) occurs at r = 1/2.
    """
    if N <= 0:
        raise ConstraintError("N must be positive")
    if not 0 < delta_ratio < 1 or delta_ratio == 0:
        raise ConstraintError(f"delta_x/epsilon = {delta_ratio!r} outside (0, 1)")
    return 1.0 / (2 * N * math.sin(math.pi * delta_ratio))


def _node_array(V_or_nodes) -> np.ndarray:
    if isinstance(V_or_nodes, VandermondeSystem):
        return np.asarray(V_or_nodes.nodes, dtype=complex)
    return np.asarray(V_or_nodes, dtype=complex)


def gautschi_bounds(nodes) -> tuple[float, float]:
    """Two-sided bounds on ||V^{-1}||_inf from pairwise node distances.

    lower = max_l prod_{l' != l} max(1, |w_l'|) / |w_l - w_l'|
    upper = max_l prod_{l' != l} (1 + |w_l'|) / |w_l - w_l'|

    Single-node systems return (1, 1) by the empty-product convention.
    """
    w = _node_array(nodes)
    n = len(w)
    if n == 1:
        return 1.0, 1.0
    lower = upper = 0.0
    for l in range(n):
        others = np.concatenate([w[:l], w[l + 1 :]])
        dist = np.abs(w[l] - others)
        if np.any(dist < 1e-15):
            raise SingularSystemError(f"duplicate nodes at index {l}")
        lo = float(np.prod(np.maximum(1.0, np.abs(others)) / dist))
        hi = float(np.prod((1.0 + np.abs(others)) / dist))
        lower = max(lower, lo)
        upper = max(upper, hi)
    return lower, upper


def vandermonde_inverse_norm(V_or_nodes) -> float:
    """||V^{-1}||_inf by explicit inversion (matrix orders here are tiny).

    V[k, l] = w_l^k; the norm is the maximum absolute row sum of the
    inverse.
    """
    w = _node_array(V_or_nodes)
    n = len(w)
    V = w[None, :] ** np.arange(n)[:, None]
    try:
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"singular Vandermonde matrix: {exc}") from exc
    return float(np.max(np.sum(np.abs(Vinv), axis=1)))


@dataclass(frozen=True)
class NodeGapCheck:
    band_pair: tuple
    gap: float
    above_lower: bool
    below_two: bool


@dataclass(frozen=True)
class NodeGapAudit:
    checks: tuple
    lower_bound: float

    @property
    def all_pass(self) -> bool:
        return all(c.above_lower and c.below_two for c in self.checks)

    @property
    def min_gap(self) -> float:
        return min((c.gap for c in self.checks), default=math.inf)


def node_gap_audit(
    V: VandermondeSystem, epsilon: float, delta_X: float, delta_x: float
) -> NodeGapAudit:
    """Audit adjacent node gaps against the analytic separation bound.

    Every gap between band-adjacent nodes (including the wraparound pair
    from the largest positive band to the largest negative one) must
    exceed |exp(2*pi*i*(1/epsilon - 1/delta_X)*delta_x) - 1| and stay
    below 2. Comparisons run in angle space: on the unit circle the chord
    2*sin(pi*d) is monotone in the wrapped angle fraction d in [0, 1/2],
    so comparing fractions is exact where chords of nearly equal length
    would lose precision.
    """
    c = (1 / epsilon - 1 / delta_X) * delta_x
    c_wrapped = min(c % 1.0, 1.0 - c % 1.0) if c > 0 else -1.0
    lower_chord = 2 * abs(math.sin(math.pi * c))
    shifts = V.lattice_shifts
    bands = V.band_indices
    n = len(bands)
    checks = []
    if n >= 2:
        pairs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
        for a, b in pairs:
            dfrac = ((shifts[b] - shifts[a]) * delta_x / delta_X) % 1.0
            dfrac = min(dfrac, 1.0 - dfrac)
            gap = 2 * abs(math.sin(math.pi * dfrac))
            checks.append(
                NodeGapCheck(
                    band_pair=(bands[a], bands[b]),
                    gap=gap,
                    above_lower=dfrac > c_wrapped,
                    below_two=dfrac < 0.5,
                )
            )
    return NodeGapAudit(checks=tuple(checks), lower_bound=lower_chord)


def measured_stability_ratio(
    spec: MultiscaleSignalSpec,
    grid: PeriodicSamplingGrid,
    max_quadrature_points: int = 2_000_000,
) -> float:
    """Quadrature energy of the signal over the truncated window divided by
    the energy of its samples on the truncated grid.

    The stability theory bounds this ratio by stability_constant(...); the
    quadrature window is the grid hull [-J*dX, J*dX + P*dx] and the step
    resolves the fastest band oscillation with >= 32 points per period
    (capped at max_quadrature_points for very wide windows, where the
    excess lies in negligible kernel tails). The signal is evaluated at
    all quadrature points in one evaluate call, in the factored form of
    signal_model: one sine and one carrier exponential per point.
    """
    lo = -grid.J * grid.delta_X
    hi = grid.J * grid.delta_X + grid.P * grid.delta_x
    step = min(grid.delta_x if grid.P > 0 else math.inf, spec.epsilon / (8 * max(spec.M, 1))) / 4
    if (hi - lo) / step > max_quadrature_points:
        step = (hi - lo) / max_quadrature_points
    num = l2_norm_quadrature(lambda x: evaluate(spec, x), (lo, hi), step)
    samples = sample_signal(spec, grid, check=False)
    den = samples.total_sample_energy()
    if den <= 0:
        raise ConstraintError("degenerate sample set: zero sample energy")
    return num / den


@dataclass(frozen=True)
class StabilityReport:
    """All stability diagnostics for one (signal, grid) pair."""

    C_theoretical: float
    vinv_norm: float
    gautschi_lower: float
    gautschi_upper: float
    min_node_gap: float
    measured_ratio: float
    beurling_density: float
    landau_rate: float
    nyquist_rate: float
    parameters: dict


def stability_report(
    spec: MultiscaleSignalSpec, grid: PeriodicSamplingGrid
) -> StabilityReport:
    """Assemble the full stability picture for a signal/grid pair."""
    system = build_vandermonde(spec, grid)
    lower, upper = gautschi_bounds(system)
    return StabilityReport(
        C_theoretical=stability_constant(
            spec.N, spec.M, spec.epsilon, grid.delta_X, grid.delta_x
        ),
        vinv_norm=vandermonde_inverse_norm(system),
        gautschi_lower=lower,
        gautschi_upper=upper,
        min_node_gap=system.min_node_gap(),
        measured_ratio=measured_stability_ratio(spec, grid),
        beurling_density=beurling_density(grid),
        landau_rate=(2 * spec.M + 1) * 2 * spec.N,
        nyquist_rate=nyquist_rate(spec),
        parameters={
            "N": spec.N,
            "M": spec.M,
            "epsilon": spec.epsilon,
            "delta_X": grid.delta_X,
            "delta_x": grid.delta_x,
            "P": grid.P,
            "J": grid.J,
        },
    )


_REPORT_FIELDS = [
    "C_theoretical",
    "vinv_norm",
    "gautschi_lower",
    "gautschi_upper",
    "min_node_gap",
    "measured_ratio",
    "beurling_density",
    "landau_rate",
    "nyquist_rate",
]


def report_to_dict(report: StabilityReport) -> dict:
    d = {k: getattr(report, k) for k in _REPORT_FIELDS}
    d["parameters"] = dict(report.parameters)
    return d


def report_csv_header() -> list:
    return ["N", "M", "epsilon", "delta_X", "delta_x", "P", "J"] + _REPORT_FIELDS


def report_csv_row(report: StabilityReport) -> list:
    p = report.parameters
    vals = [p["N"], p["M"], p["epsilon"], p["delta_X"], p["delta_x"], p["P"], p["J"]]
    vals += [getattr(report, k) for k in _REPORT_FIELDS]
    return [f"{v:.17g}" if isinstance(v, float) else str(v) for v in vals]
