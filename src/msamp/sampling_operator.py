"""Shannon-type interpolation operator for individual sampling cosets.

For samples v_j = g(j*delta_X + k*delta_x) taken on coset k, the operator

    S_k g(x) = sum_{|j|<=J} v_j * phi_s(x - j*delta_X - k*delta_x)

uses the ideal lowpass kernel phi_s(z) = sinc(z/delta_X), whose passband
is [-1/(2*delta_X), 1/(2*delta_X)]. The kernel vanishes at every other
point of the same coset, so the interpolant reproduces its own samples
exactly regardless of truncation.

With u = (x - k*delta_x)/delta_X, every kernel value shares one sine:

    sinc(u - j) = (-1)^j * sin(pi*u) / (pi*(u - j)),

so S_k g(x) = sin(pi*u)/pi * sum_j w_j/(u - j) with w_j = (-1)^j v_j, a
Cauchy sum. apply_coset_operator evaluates it with one sine per point,
taken after the exact reduction u = r + f, r = rint(u), as
(-1)^r sin(pi*f), which stays accurate at |u| ~ J; the sum costs
nx*(2J+1) divisions and one real matrix product with the (2J+1, 2) real
and imaginary parts of w, instead of nx*(2J+1) sines and a complex copy
of the dense kernel matrix.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import ConstraintError
from .sampling_grid import PeriodicSamplingGrid, validate_against
from .signal_model import _SINC_SNAP_TOL, MultiscaleSignalSpec, evaluate

__all__ = [
    "SampleSet",
    "sample_signal",
    "apply_coset_operator",
    "coset_parseval_check",
    "samples_to_csv",
    "samples_from_csv",
]

# Cauchy-matrix entries built per block of points: 512 KiB of float64, so
# a block stays in cache and memory does not grow with the number of points.
_BLOCK_ELEMENTS = 1 << 16


class SampleSet:
    """Sample values on a truncated multicoset grid.

    values[k, j + J] holds the sample at j*delta_X + k*delta_x, complex,
    for 0 <= k <= P and -J <= j <= J.
    """

    def __init__(self, grid: PeriodicSamplingGrid, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        expected = (grid.P + 1, 2 * grid.J + 1)
        if values.shape != expected:
            raise ConstraintError(
                f"values shape {values.shape} != (P+1, 2J+1) = {expected}"
            )
        if not np.all(np.isfinite(values.real) & np.isfinite(values.imag)):
            raise ConstraintError("sample values must be finite")
        self.grid = grid
        self.values = values

    def value(self, k: int, j: int) -> complex:
        self.grid.point(k, j)  # bounds check
        return complex(self.values[k, j + self.grid.J])

    def coset_row(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.grid.P:
            raise ConstraintError(f"coset index {k} outside 0..{self.grid.P}")
        return self.values[k]

    def total_sample_energy(self) -> float:
        """sum over all grid points of |value|^2."""
        return float(np.sum(np.abs(self.values) ** 2))


def sample_signal(
    spec: MultiscaleSignalSpec, grid: PeriodicSamplingGrid, check: bool = True
) -> SampleSet:
    """Evaluate the signal on every grid point.

    With check=True the grid must satisfy the reconstruction constraints
    for `spec`; pass check=False for free-form sampling (e.g. uniform
    full-rate grids for the classical oracle).
    """
    if check:
        validate_against(grid, spec).require_ok()
    points = np.stack([grid.coset_points(k) for k in range(grid.P + 1)])
    return SampleSet(grid, evaluate(spec, points))


def apply_coset_operator(samples: SampleSet, k: int, x):
    """Truncated coset interpolant S_k evaluated at x (scalar or array).

    Evaluates the factored Cauchy sum of the module docstring. Where u lies
    within _SINC_SNAP_TOL of an integer r, the result is the stored sample
    v_r exactly, or 0 when |r| > J, as the dense sinc kernel gives.
    """
    grid = samples.grid
    if not 0 <= k <= grid.P:
        raise ConstraintError(f"coset index {k} outside 0..{grid.P}")
    x = np.asarray(x, dtype=float)
    u = np.atleast_1d((x - k * grid.delta_x) / grid.delta_X)
    v = samples.coset_row(k)
    j = grid.macro_indices().astype(float)
    r = np.rint(u)
    f = u - r
    out = np.zeros(u.shape, dtype=complex)

    snap = np.abs(f) < _SINC_SNAP_TOL
    stored = snap & (np.abs(r) <= grid.J)
    out[stored] = v[r[stored].astype(int) + grid.J]

    live = ~snap
    ul = u[live]
    # w_j = (-1)^j v_j as (2J+1, 2) real and imaginary parts
    w = np.where(j % 2 == 0, v, -v).view(float).reshape(-1, 2)
    total = np.empty((ul.size, 2))
    rows = max(1, _BLOCK_ELEMENTS // j.size)
    for i in range(0, ul.size, rows):
        cauchy = np.subtract.outer(ul[i : i + rows], j)
        np.divide(1.0, cauchy, out=cauchy)
        np.matmul(cauchy, w, out=total[i : i + rows])
    sine = np.where(r[live] % 2 == 0, 1.0, -1.0) * np.sin(np.pi * f[live]) / np.pi
    out[live] = sine * total.view(complex)[:, 0]
    return complex(out[0]) if x.ndim == 0 else out


def coset_parseval_check(
    samples: SampleSet, k: int, window_margin: float | None = None
) -> tuple[float, float]:
    """Compare the L2 norm of S_k against its closed sample form.

    Returns (lhs, rhs) where lhs is a quadrature estimate of ||S_k||^2
    over [-J*dX - margin, J*dX + margin] and rhs = delta_X * sum_j |v_j|^2.
    Equality is exact on the whole line; the gap measures the energy of
    the kernel tails beyond the quadrature window.
    """
    from .oracle import l2_norm_quadrature

    grid = samples.grid
    if window_margin is None:
        window_margin = grid.J * grid.delta_X
    lo = -grid.J * grid.delta_X - window_margin
    hi = grid.J * grid.delta_X + k * grid.delta_x + window_margin
    # S_k is bandlimited to 1/(2 delta_X); delta_x refines further when
    # cosets exist
    if grid.P > 0:
        step = min(grid.delta_x, grid.delta_X / 4) / 8
    else:
        step = grid.delta_X / 32
    npts = (hi - lo) / step
    if npts > 2_000_000:
        step = (hi - lo) / 2_000_000
    lhs = l2_norm_quadrature(lambda x: apply_coset_operator(samples, k, x), (lo, hi), step)
    rhs = grid.delta_X * float(np.sum(np.abs(samples.coset_row(k)) ** 2))
    return lhs, rhs


# -- CSV wire format: header k,j,x,re,im; floats at 17 significant digits


def samples_to_csv(samples: SampleSet, path) -> None:
    grid = samples.grid
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["k", "j", "x", "re", "im"])
        for k in range(grid.P + 1):
            for j in range(-grid.J, grid.J + 1):
                v = samples.values[k, j + grid.J]
                w.writerow(
                    [k, j, f"{grid.point(k, j):.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"]
                )


def samples_from_csv(path) -> SampleSet:
    """Rebuild a SampleSet (grid included) from its CSV export."""
    by_kj = {}
    with open(path, newline="", encoding="utf-8") as f:
        r = csv.reader(f)
        header = next(r)
        if [h.strip() for h in header] != ["k", "j", "x", "re", "im"]:
            raise ConstraintError(f"unexpected sample CSV header: {header}")
        for rec in r:
            if not rec:
                continue
            try:
                k, j = int(rec[0]), int(rec[1])
                x, re, im = float(rec[2]), float(rec[3]), float(rec[4])
            except (ValueError, IndexError) as exc:
                raise ConstraintError(
                    f"sample CSV line {r.line_num} is malformed: {rec}"
                ) from exc
            if (k, j) in by_kj:
                raise ConstraintError(f"sample CSV repeats the row k={k}, j={j}")
            by_kj[(k, j)] = (x, re, im)
    if not by_kj:
        raise ConstraintError("sample CSV contains no rows")
    P = max(k for k, _ in by_kj)
    J = max(j for _, j in by_kj)
    if set(by_kj) != {(k, j) for k in range(P + 1) for j in range(-J, J + 1)}:
        raise ConstraintError("sample CSV is not a complete (P+1) x (2J+1) grid")
    x00 = by_kj[(0, 0)][0]
    delta_X = by_kj[(0, 1)][0] - x00 if J >= 1 else 0.0
    delta_x = by_kj[(1, 0)][0] - x00 if P >= 1 else 0.0
    grid = PeriodicSamplingGrid(delta_X=delta_X, delta_x=delta_x, P=P, J=J)
    xs = np.empty((P + 1, 2 * J + 1))
    values = np.zeros((P + 1, 2 * J + 1), dtype=complex)
    for (k, j), (x, re, im) in by_kj.items():
        xs[k, j + J] = x
        values[k, j + J] = complex(re, im)
    # A point off the lattice by more than the kernel's snap window would be
    # interpolated as if it sat on the lattice.
    lattice = np.stack([grid.coset_points(k) for k in range(P + 1)])
    off = ~(np.abs(xs - lattice) <= _SINC_SNAP_TOL * grid.delta_X)
    if off.any():
        k, jj = np.argwhere(off)[0]
        raise ConstraintError(
            f"sample CSV point k={k}, j={jj - J} has x={float(xs[k, jj])!r}, off the "
            f"grid point {float(lattice[k, jj])!r} given by delta_X={grid.delta_X!r}, "
            f"delta_x={grid.delta_x!r}"
        )
    return SampleSet(grid, values)
