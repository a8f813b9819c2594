"""Quantitative stability analysis of the multicoset reconstruction.

Covers the closed-form stability constant, two-sided Gautschi bounds on
the infinity norm of inverse Vandermonde matrices, node-separation
audits, and the exact ratio between signal energy and sample energy that
the stability constant is supposed to dominate.

The sample energy needs no evaluation of the signal. Poisson summation
over each coset {k*dx + n*dX : n in Z} gives

    sum_n |f(k*dx + n*dX)|^2
        = (1/dX) * int_{|zeta| <= 1/(2dX)} |sum_l F(zeta + l/dX) w_l^k|^2 dzeta,

with w_l = exp(2*pi*i*l*dx/dX) and F the Fourier transform of f (the
generalized sampling expansion of Papoulis, IEEE Trans. Circuits Syst.
24(11), 1977). Band m folds to m/epsilon = L/dX + beta, and on the cell
it contributes the pieces that reconstruction._band_pieces lists: one
for a band inside the cell, two for a band across its edge, each with
lattice shift L + l. On its interval a piece carries the band spectrum
G(zeta) = (1/2N) * sum_j a_j * exp(-pi*i*(zeta - b)*j/N), a
trigonometric polynomial, so the integral is a finite Hermitian form in
the Gram matrix of the coset phases and the exponential integrals over
the overlaps of the pieces.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, SingularSystemError
from .reconstruction import (
    VandermondeSystem,
    _band_pieces,
    _fold_bands,
    _vandermonde,
    build_vandermonde,
)
from .sampling_grid import (
    PeriodicSamplingGrid,
    beurling_density,
    nyquist_rate,
    validate_against,
)
from .signal_model import MultiscaleSignalSpec, _merge_atoms, total_energy

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
    if not 0 < delta_ratio < 1:
        raise ConstraintError(f"delta_x/epsilon = {delta_ratio!r} outside (0, 1)")
    return 1.0 / (2 * N * math.sin(math.pi * delta_ratio))


def gautschi_bounds(nodes) -> tuple[float, float]:
    """Two-sided bounds on ||V^{-1}||_inf from pairwise node distances.

    lower = max_l prod_{l' != l} max(1, |w_l'|) / |w_l - w_l'|
    upper = max_l prod_{l' != l} (1 + |w_l'|) / |w_l - w_l'|

    nodes is the array of w_l, such as VandermondeSystem.nodes. The
    distances |w_l - w_l'| come from one matrix; nodes closer than 1e-15
    raise SingularSystemError naming the first such index. A single node
    gives (1, 1), the empty product.
    """
    w = np.asarray(nodes, dtype=complex)
    dist = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(dist, np.inf)
    close = np.flatnonzero(dist.min(axis=1) < 1e-15)
    if close.size:
        raise SingularSystemError(f"duplicate nodes at index {close[0]}")
    modulus = np.abs(w)
    factors = np.stack([np.maximum(1.0, modulus), 1.0 + modulus])[:, None, :] / dist
    # exactly 1 where l' = l: multiply-reduce runs in order, so each row
    # product keeps the bits of the product over l' != l alone
    diagonal = np.arange(len(w))
    factors[:, diagonal, diagonal] = 1.0
    lower, upper = np.prod(factors, axis=2).max(axis=1)
    return float(lower), float(upper)


def vandermonde_inverse_norm(nodes) -> float:
    """||V^{-1}||_inf by explicit inversion (matrix orders here are tiny).

    nodes is the array of w_l, such as VandermondeSystem.nodes; V is the
    Vandermonde matrix V[k, l] = w_l^k, built as the system build does, so
    a system's nodes give its own matrix bit for bit. The norm is the
    maximum absolute row sum of the inverse.
    """
    V = _vandermonde(np.asarray(nodes, dtype=complex))
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


def node_gap_audit(V: VandermondeSystem, epsilon: float) -> NodeGapAudit:
    """Audit adjacent node gaps against the analytic separation bound.

    The grid spacings delta_X and delta_x are V's own. Every gap between
    band-adjacent nodes (including the wraparound pair from the largest
    positive band to the largest negative one) must exceed
    |exp(2*pi*i*(1/epsilon - 1/delta_X)*delta_x) - 1| and stay below 2.
    Comparisons run in angle space: on the unit circle the chord
    2*sin(pi*d) is monotone in the wrapped angle fraction d in [0, 1/2],
    so comparing fractions is exact where chords of nearly equal length
    would lose precision.
    """
    delta_X, delta_x = V.delta_X, V.delta_x
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
    spec: MultiscaleSignalSpec, grid: PeriodicSamplingGrid
) -> float:
    """Exact ratio ||f||^2 / sum_{y in grid} |f(y)|^2 over the untruncated grid.

    The grid is {k*dx + n*dX : k = 0..P, n in Z}; its truncation J plays
    no part. The numerator is total_energy(spec). The denominator is
    the sample energy of the module docstring:

        E_s = (1/dX) * sum_{p,q} <w_p, w_q> * int_{I_p & I_q} conj(G_p) G_q,

    over the pieces p of every band, where w_p[k] = exp(2*pi*i*L_p*k*dx/dX)
    for k = 0..P and I_p = [b_p - N, b_p + N] cut to the cell. Each
    pair of atoms j, j' integrates exp(i*omega*zeta) with
    omega = pi*(j - j')/N over the overlap, so E_s is one form
    phi^H (Gram o Integral) phi with phi = a_j * exp(i*pi*b_p*j/N). Bands
    across the cell edge are exact too. The stability theory bounds the
    ratio by stability_constant(...). Cost: O(((2M+1)*atoms)^2) per pair,
    and the signal is never evaluated. The windowed-quadrature estimate of
    the same ratio is oracle.quadrature_stability_ratio.
    """
    num = total_energy(spec)
    den = _sample_energy(spec, grid)
    if den <= 0:
        raise ConstraintError("degenerate sample set: zero sample energy")
    return num / den


def _sample_energy(spec: MultiscaleSignalSpec, grid: PeriodicSamplingGrid) -> float:
    """E_s of measured_stability_ratio, one entry per (piece, atom centre).

    The pieces of each band are reconstruction._band_pieces of its fold.
    """
    N, dX = spec.N, grid.delta_X
    shifts, offsets, _ = _fold_bands(spec.bands, N, spec.epsilon, dX)
    shift, lo, hi, centre, phi = [], [], [], [], []
    for atoms, L, beta in zip(spec.bands.values(), shifts, offsets):
        merged = _merge_atoms(atoms)
        for l, b, a, z in _band_pieces(beta, N, dX):
            for j, amp in merged.items():
                shift.append(L + l)
                lo.append(a)
                hi.append(z)
                centre.append(j)
                phi.append(amp * cmath.exp(1j * math.pi * b * j / N))
    k = np.arange(grid.P + 1)
    w = np.exp(2j * np.pi * np.outer(k, shift) * (grid.delta_x / dX))
    gram = w.conj().T @ w
    lo, hi, centre = np.array(lo), np.array(hi), np.array(centre, dtype=float)
    start = np.maximum(lo[:, None], lo[None, :])
    width = np.maximum(np.minimum(hi[:, None], hi[None, :]) - start, 0.0)
    # int_start^{start+width} exp(i*omega*zeta) in its sinc form, which
    # divides by nothing at omega = 0
    dj = centre[:, None] - centre[None, :]
    integral = (
        width
        * np.exp(1j * np.pi * dj * (start + width / 2) / N)
        * np.sinc(dj * width / (2 * N))
    )
    phi = np.array(phi)
    form = np.vdot(phi, (gram * integral) @ phi)
    return float(form.real) / (4 * N * N * dX)


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
    # after the build, whose node-gap check runs on any grid, so that
    # colliding nodes report as singular even where the grid is invalid
    validate_against(grid, spec).require_ok()
    lower, upper = gautschi_bounds(system.nodes)
    return StabilityReport(
        C_theoretical=stability_constant(
            spec.N, spec.M, spec.epsilon, grid.delta_X, grid.delta_x
        ),
        vinv_norm=vandermonde_inverse_norm(system.nodes),
        gautschi_lower=lower,
        gautschi_upper=upper,
        min_node_gap=system.node_gap,
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
