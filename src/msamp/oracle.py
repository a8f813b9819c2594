"""Independent brute-force verifiers and truncation-tolerance calibration.

Nothing here shares solver code with the multicoset reconstruction path:
the classical full-rate interpolation, quadrature norms, the windowed
quadrature of the stability ratio, and windowed-DFT band checks are
deliberately separate routes used to cross-examine it.
The calibration utilities measure how fast truncated interpolation series
converge and persist the resulting tolerance table, which every
approximate assertion in the test suite consumes.
"""

from __future__ import annotations

import datetime
import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConstraintError
from .reconstruction import _as_params, _fold_bands, reconstruct
from .sampling_grid import PeriodicSamplingGrid, build_grid
from .sampling_operator import SampleSet, sample_signal
from .signal_model import MultiscaleSignalSpec, evaluate, random_signal, spectral_support

__all__ = [
    "classical_reconstruct",
    "l2_norm_quadrature",
    "quadrature_stability_ratio",
    "BandSupportReport",
    "band_support_check",
    "interior_points",
    "reconstruction_error",
    "random_valid_grid",
    "random_valid_pair",
    "CalibrationTable",
    "calibrate_truncation",
    "save_calibration",
    "load_calibration",
    "load_default_calibration",
]


def classical_reconstruct(samples: SampleSet, x, spec_params=None):
    """Cardinal-series interpolation from a single uniform coset.

    Independent full-rate oracle: requires P = 0, and when (N, M, epsilon)
    is supplied, a sampling rate of at least 2*(N + M/epsilon) so the
    whole multiband spectrum fits one passband. The kernel is evaluated
    with numpy's sinc plus a near-integer snap mirroring the exactness of
    cardinal interpolation at the grid points.
    """
    grid = samples.grid
    if grid.P != 0:
        raise ConstraintError("classical oracle needs a uniform grid (P = 0)")
    if spec_params is not None:
        N, M, eps = _as_params(spec_params)
        needed = 2 * (N + M / eps)
        if 1 / grid.delta_X < needed * (1 - 1e-12):
            raise ConstraintError(
                f"rate 1/delta_X = {1 / grid.delta_X!r} below the Nyquist "
                f"rate {needed!r} for the full band"
            )
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    offsets = grid.macro_indices() * grid.delta_X
    u = (x[:, None] - offsets[None, :]) / grid.delta_X
    r = np.rint(u)
    ker = np.where(np.abs(u - r) < 1e-9, (r == 0).astype(float), np.sinc(u))
    out = ker.astype(complex) @ samples.coset_row(0)
    return complex(out[0]) if scalar else out


def l2_norm_quadrature(fn, window: tuple[float, float], step: float) -> float:
    """Composite-trapezoid estimate of the squared L2 norm of fn over window.

    The step must span the window at least 16 times; callers are
    responsible for choosing a step that resolves the integrand's fastest
    oscillation (>= 32 points per period is the house rule).
    """
    a, b = float(window[0]), float(window[1])
    if not b > a:
        raise ConstraintError("empty quadrature window")
    if not 0 < step <= (b - a) / 16:
        raise ConstraintError(
            f"quadrature step {step!r} too coarse for window length {b - a!r}"
        )
    n = int(math.ceil((b - a) / step))
    x = np.linspace(a, b, n + 1)
    y = np.abs(np.asarray(fn(x))) ** 2
    h = (b - a) / n
    return float(h * (np.sum(y) - 0.5 * (y[0] + y[-1])))


def quadrature_stability_ratio(
    spec: MultiscaleSignalSpec, grid: PeriodicSamplingGrid
) -> float:
    """Quadrature energy of the signal over the truncated window divided by
    the energy of its samples on the truncated grid.

    The cross-check of stability.measured_stability_ratio, which is exact
    on the untruncated grid; the two differ by the truncation, up to
    about 0.08/J relative. The quadrature window is the grid hull
    [-J*dX, J*dX + P*dx] and the step resolves the fastest band
    oscillation with >= 32 points per period (capped at 2,000,000 steps
    for very wide windows, where the excess lies in negligible kernel
    tails).
    """
    lo = -grid.J * grid.delta_X
    hi = grid.J * grid.delta_X + grid.P * grid.delta_x
    step = min(grid.delta_x if grid.P > 0 else math.inf, spec.epsilon / (8 * max(spec.M, 1))) / 4
    if (hi - lo) / step > 2_000_000:
        step = (hi - lo) / 2_000_000
    num = l2_norm_quadrature(lambda x: evaluate(spec, x), (lo, hi), step)
    den = sample_signal(spec, grid, check=False).total_sample_energy()
    if den <= 0:
        raise ConstraintError("degenerate sample set: zero sample energy")
    return num / den


# Hann-window leakage allowance: band_support_check widens each support
# interval by this many DFT bins before it counts energy as in band.
_DILATION_BINS = 1.0


@dataclass(frozen=True, eq=False)
class BandSupportReport:
    """Windowed-DFT energy localization summary."""

    in_band_fraction: float
    bin_freqs: np.ndarray
    magnitudes: np.ndarray
    in_band: np.ndarray


def band_support_check(
    spec: MultiscaleSignalSpec, window_length: float, grid_step: float
) -> BandSupportReport:
    """Fraction of windowed-DFT energy inside the signal's spectral bands.

    Evaluates the signal on a uniform grid over [-T/2, T/2], applies a
    Hann window (the slow sinc tails would otherwise leak across the
    spectral gaps), and compares energy inside the support intervals
    (each widened by _DILATION_BINS DFT bins) against the total.
    """
    max_step = 1 / (4 * (spec.N + spec.M / spec.epsilon))
    if grid_step > max_step:
        raise ConstraintError(
            f"grid_step {grid_step!r} exceeds {max_step!r}; the top band "
            "would alias"
        )
    n = int(math.ceil(window_length / grid_step))
    x = -window_length / 2 + window_length * np.arange(n) / n
    f = evaluate(spec, x)
    w = 0.5 * (1 - np.cos(2 * np.pi * np.arange(n) / n))
    F = np.fft.fft(f * w)
    freqs = np.fft.fftfreq(n, d=window_length / n)
    power = np.abs(F) ** 2
    pad = _DILATION_BINS / window_length
    in_band = np.zeros(n, dtype=bool)
    for lo, hi in spectral_support(spec).intervals:
        in_band |= (freqs >= lo - pad) & (freqs <= hi + pad)
    total = float(np.sum(power))
    frac = float(np.sum(power[in_band])) / total if total > 0 else 0.0
    return BandSupportReport(
        in_band_fraction=frac,
        bin_freqs=freqs,
        magnitudes=np.abs(F),
        in_band=in_band,
    )


# -- randomized valid configurations ------------------------------------

# delta_X draws before random_valid_grid falls back to the lattice-aligned one
_MAX_TRIES = 5000
# random_valid_pair's range of the envelope half-bandwidth N, and its atoms per band
_N_RANGE = (0.5, 4.0)
_ATOMS_PER_BAND = 2


def random_valid_grid(
    rng: np.random.Generator, N: float, M: int, epsilon: float, J: int
) -> PeriodicSamplingGrid:
    """Draw a grid satisfying the reconstruction constraints for (N, M, eps).

    delta_X is uniform over (1.25*epsilon, 1/(2N)), redrawn until the
    smallest edge margin 1/(2*delta_X) - N - |beta_m| over the bands
    exceeds 5% of the half cell: reconstruct refuses grids on which a
    folded band straddles the kernel passband edge. When _MAX_TRIES draws
    all fail, the lattice-aligned delta_X = 2*epsilon is used, which folds
    every band exactly to centre. delta_x/epsilon is uniform over
    [0.5, 1]/(2M+1), the well-conditioned upper half of the admissible
    range.
    """
    lo, hi = 1.25 * epsilon, 1 / (2 * N)
    if not (lo < hi and 2 * epsilon <= hi):
        raise ConstraintError(
            f"no admissible delta_X for N={N}, epsilon={epsilon}: "
            f"need 2*epsilon <= 1/(2N)"
        )

    def margin(dX: float) -> float:
        return min(_fold_bands(range(-M, M + 1), N, epsilon, dX)[2])

    delta_X = 2 * epsilon
    for _ in range(_MAX_TRIES):
        cand = rng.uniform(lo, hi)
        if margin(cand) > 0.05 / (2 * cand):
            delta_X = cand
            break
    if margin(delta_X) <= 0:
        raise ConstraintError(
            f"could not find a non-straddling delta_X for N={N}, M={M}, "
            f"epsilon={epsilon}"
        )
    if M == 0:
        delta_x = 0.0
    else:
        delta_x = epsilon / (2 * M + 1) * rng.uniform(0.5, 1.0)
    return build_grid(delta_X=delta_X, delta_x=delta_x, P=2 * M, J=J)


def random_valid_pair(
    rng_or_seed,
    J: int,
    M_choices: tuple[int, ...] = (0, 1, 2, 3),
    eps_range: tuple[float, float] = (0.005, 0.1),
):
    """Random (signal, grid) pair on which reconstruction must succeed.

    epsilon is redrawn until N*epsilon <= 0.225, which keeps the
    admissible delta_X interval nonempty with enough headroom that a
    clear (non-straddling) grid always exists.
    """
    rng = (
        rng_or_seed
        if isinstance(rng_or_seed, np.random.Generator)
        else np.random.default_rng(rng_or_seed)
    )
    N = rng.uniform(*_N_RANGE)
    M = int(rng.choice(M_choices))
    eps = rng.uniform(*eps_range)
    while N * eps > 0.225:
        eps = rng.uniform(*eps_range)
    spec = random_signal(
        seed=int(rng.integers(0, 2**31)),
        N=N,
        M=M,
        epsilon=eps,
        atoms_per_band=_ATOMS_PER_BAND,
    )
    grid = random_valid_grid(rng, N=N, M=M, epsilon=eps, J=J)
    return spec, grid


def interior_points(grid: PeriodicSamplingGrid, n: int, rng: np.random.Generator):
    """n random evaluation points in the interior window |x| <= J*dX/2."""
    half = grid.J * grid.delta_X / 2
    return rng.uniform(-half, half, size=n)


def reconstruction_error(
    spec: MultiscaleSignalSpec,
    grid: PeriodicSamplingGrid,
    n_points: int = 33,
    rng: np.random.Generator | None = None,
) -> float:
    """Max interior reconstruction error relative to the signal scale.

    Samples the signal on the grid, reconstructs at n_points random
    interior points, and returns max|rec - truth| / max|truth|.
    """
    rng = rng or np.random.default_rng(0)
    xs = interior_points(grid, n_points, rng)
    samples = sample_signal(spec, grid)
    rec = reconstruct(samples, (spec.N, spec.M, spec.epsilon), xs)
    truth = evaluate(spec, xs)
    scale = float(np.max(np.abs(truth)))
    if scale == 0:
        raise ConstraintError("signal vanishes at all evaluation points")
    return float(np.max(np.abs(rec.assembled - truth))) / scale


# -- truncation-tolerance calibration ------------------------------------

_CALIBRATION_RESOURCE = "truncation_calibration.json"
# tau(J) over the worst measured error, and the interior points per trial
_SAFETY = 1.5
_N_EVAL = 33


@dataclass(frozen=True)
class CalibrationTable:
    """Committed truncation tolerances tau(J) = safety * c_tail * log(J)/J.

    measured[J] is the worst interior reconstruction error seen over the
    calibration trials at truncation J; c_tail is the fitted envelope
    constant max_J measured[J]*J/log(J). The committed tolerance keeps
    the log(J)/J envelope shape, so it is non-increasing by construction.
    """

    j_values: tuple
    measured: dict
    tolerances: dict
    c_tail: float
    safety: float
    seed: int
    trials: int
    generated_at: str = field(compare=False)

    def tau(self, J: int) -> float:
        try:
            return self.tolerances[int(J)]
        except KeyError:
            raise ConstraintError(f"no calibrated tolerance for J={J}")


def calibrate_truncation(J_values, trials: int, seed: int) -> CalibrationTable:
    """Measure worst-case interior truncation error over random pairs.

    Deterministic in `seed`: trial t at truncation J uses the generator
    seeded with (seed, J, t). The safety factor _SAFETY widens the
    committed tolerance over the measured maximum to absorb draw-to-draw
    variation in later test campaigns; both numbers are stored. J_values
    must be strictly ascending and at least 2, as the envelope divides by
    log(J).
    """
    J_values = [int(J) for J in J_values]
    if not J_values:
        raise ConstraintError("J_values must not be empty")
    if any(b <= a for a, b in zip(J_values, J_values[1:])):
        raise ConstraintError(f"J_values must be strictly ascending, got {J_values}")
    if J_values[0] < 2:
        raise ConstraintError(
            f"J_values must be >= 2, got {J_values[0]}; tau(J) divides by log(J)"
        )
    if trials < 1:
        raise ConstraintError("trials must be >= 1")
    measured = {}
    for J in J_values:
        worst = 0.0
        for t in range(trials):
            rng = np.random.default_rng([seed, J, t])
            spec, grid = random_valid_pair(rng, J=J)
            err = reconstruction_error(spec, grid, n_points=_N_EVAL, rng=rng)
            worst = max(worst, err)
        measured[J] = worst
    c_tail = max(measured[J] * J / math.log(J) for J in J_values)
    tolerances = {J: _SAFETY * c_tail * math.log(J) / J for J in J_values}
    # honor SOURCE_DATE_EPOCH so regeneration can be byte-reproducible
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    now = (
        datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
        if epoch
        else datetime.datetime.now(datetime.timezone.utc)
    )
    return CalibrationTable(
        j_values=tuple(J_values),
        measured=measured,
        tolerances=tolerances,
        c_tail=c_tail,
        safety=_SAFETY,
        seed=seed,
        trials=trials,
        generated_at=now.replace(microsecond=0).isoformat(),
    )


def save_calibration(table: CalibrationTable, path) -> None:
    payload = {
        "seed": table.seed,
        "trials": table.trials,
        "generated_at": table.generated_at,
        "safety": table.safety,
        "c_tail": table.c_tail,
        "measured": {str(J): v for J, v in table.measured.items()},
        "tau": {str(J): v for J, v in table.tolerances.items()},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def _table_from_payload(payload: dict) -> CalibrationTable:
    measured = {int(k): float(v) for k, v in payload["measured"].items()}
    tau = {int(k): float(v) for k, v in payload["tau"].items()}
    return CalibrationTable(
        j_values=tuple(sorted(tau)),
        measured=measured,
        tolerances=tau,
        c_tail=float(payload["c_tail"]),
        safety=float(payload["safety"]),
        seed=int(payload["seed"]),
        trials=int(payload["trials"]),
        generated_at=str(payload["generated_at"]),
    )


def load_calibration(path) -> CalibrationTable:
    with open(path, encoding="utf-8") as f:
        return _table_from_payload(json.load(f))


def load_default_calibration() -> CalibrationTable:
    """The calibration table committed with the package."""
    ref = resources.files("msamp").joinpath("data", _CALIBRATION_RESOURCE)
    with ref.open("r", encoding="utf-8") as f:
        return _table_from_payload(json.load(f))
