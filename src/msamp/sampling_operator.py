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


# -- CSV wire format. _write_csv is the one CSV writer: every CSV that msamp
# writes (samples here, reconstruction.reconstruction_to_csv and the CLI's
# sweep table) goes through it. Sample files carry the header k,j,x,re,im,
# one row per grid point, floats at 17 significant digits, CRLF line ends.

_SAMPLE_CSV_HEADER = ("k", "j", "x", "re", "im")
# Rows formatted per write call, so the memory a write takes does not grow
# with the file: about 80 KiB of text per call for a sample file.
_CSV_BLOCK_ROWS = 1024
_SAMPLE_DTYPE = np.dtype(
    [("k", np.int64), ("j", np.int64), ("x", float), ("re", float), ("im", float)]
)


def _write_csv(path, header, columns) -> None:
    """Write header and columns as CSV, a block of rows per write.

    columns holds one sequence per header field. Floats are written at 17
    significant digits and everything else (ints, empty cells) with str;
    a numpy column is written by its dtype. Every line ends in CRLF, as
    csv.writer ends it.
    """
    fields, cells = [], []
    for col in columns:
        if isinstance(col, np.ndarray):
            floats = col.dtype.kind == "f"
        else:
            floats = all(isinstance(v, float) for v in col)
            if not floats:
                # ints as they are; floats next to empty cells each as a float
                col = [format(v, ".17g") if isinstance(v, float) else v for v in col]
        fields.append("{:.17g}" if floats else "{}")
        cells.append(col)
    row = (",".join(fields) + "\r\n").format
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(header) + "\r\n")
        for i in range(0, len(cells[0]), _CSV_BLOCK_ROWS):
            block = [c[i : i + _CSV_BLOCK_ROWS] for c in cells]
            block = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
            f.write("".join([row(*r) for r in zip(*block)]))


def samples_to_csv(samples: SampleSet, path) -> None:
    grid = samples.grid
    width = 2 * grid.J + 1
    _write_csv(
        path,
        _SAMPLE_CSV_HEADER,
        [
            np.repeat(np.arange(grid.P + 1), width),
            np.tile(grid.macro_indices(), grid.P + 1),
            np.concatenate([grid.coset_points(k) for k in range(grid.P + 1)]),
            samples.values.real.ravel(),
            samples.values.imag.ravel(),
        ],
    )


def _parse_rows(path) -> np.ndarray:
    """Parse the body row by row, naming the first malformed or repeated row.

    np.loadtxt refuses some spellings that Python's int and float accept
    (digit separators, non-ASCII digits, a lone CR as line end); rows that
    int and float take are accepted here as before.
    """
    rows, seen = [], set()
    with open(path, newline="", encoding="utf-8") as f:
        r = csv.reader(f)
        next(r)
        for rec in r:
            if not rec:
                continue
            try:
                if len(rec) != len(_SAMPLE_CSV_HEADER):
                    raise ValueError(f"{len(rec)} fields")
                ints = np.array(rec[:2], dtype=np.int64)
                floats = np.array(rec[2:], dtype=float)
            except (ValueError, OverflowError) as exc:
                raise ConstraintError(
                    f"sample CSV line {r.line_num} is malformed: {rec}"
                ) from exc
            k, j = ints.tolist()
            if (k, j) in seen:
                raise ConstraintError(f"sample CSV repeats the row k={k}, j={j}")
            seen.add((k, j))
            rows.append((k, j, *floats.tolist()))
    return np.array(rows, dtype=_SAMPLE_DTYPE)


def samples_from_csv(path) -> SampleSet:
    """Rebuild a SampleSet (grid included) from its CSV export.

    The body is parsed in one pass; only a body that does not parse is read
    again row by row, to name the line at fault.
    """
    with open(path, newline="", encoding="utf-8") as f:
        rows = csv.reader(f)
        header = next(rows, [])
        has_rows = any(rows)  # csv.reader yields [] for a blank line
    if [h.strip() for h in header] != list(_SAMPLE_CSV_HEADER):
        raise ConstraintError(f"unexpected sample CSV header: {header}")
    if not has_rows:
        raise ConstraintError("sample CSV contains no rows")
    try:
        table = np.loadtxt(
            path,
            dtype=_SAMPLE_DTYPE,
            delimiter=",",
            skiprows=1,
            comments=None,
            quotechar='"',
            ndmin=1,
            encoding="utf-8",
        )
    except ValueError:
        table = _parse_rows(path)
    k, j = table["k"], table["j"]
    # the first repeat in file order: lexsort is stable, so each later
    # occurrence of a (k, j) pair follows its first one
    order = np.lexsort((j, k))
    repeat = (np.diff(k[order]) == 0) & (np.diff(j[order]) == 0)
    if repeat.any():
        i = order[1:][repeat].min()
        raise ConstraintError(f"sample CSV repeats the row k={k[i]}, j={j[i]}")
    P, J = int(k.max()), int(j.max())
    width = 2 * J + 1
    # with no repeats, (P+1)*(2J+1) rows inside the index ranges are the grid
    if k.min() < 0 or j.min() < -J or table.size != (P + 1) * width:
        raise ConstraintError("sample CSV is not a complete (P+1) x (2J+1) grid")
    cell = k * width + j + J
    xs = np.empty(table.size)
    xs[cell] = table["x"]
    xs = xs.reshape(P + 1, width)
    values = np.empty(table.size, dtype=complex)
    values.real[cell] = table["re"]
    values.imag[cell] = table["im"]
    delta_X = float(xs[0, J + 1] - xs[0, J]) if J >= 1 else 0.0
    delta_x = float(xs[1, J] - xs[0, J]) if P >= 1 else 0.0
    grid = PeriodicSamplingGrid(delta_X=delta_X, delta_x=delta_x, P=P, J=J)
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
    return SampleSet(grid, values.reshape(P + 1, width))
