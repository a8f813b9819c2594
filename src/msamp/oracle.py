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
from .reconstruction import _as_params, alias_split, reconstruct
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
    "DEFAULT_CALIBRATION_RESOURCE",
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


@dataclass(frozen=True, eq=False)
class BandSupportReport:
    """Windowed-DFT energy localization summary."""

    in_band_fraction: float
    bin_freqs: np.ndarray
    magnitudes: np.ndarray
    in_band: np.ndarray
    window_length: float
    dilation_bins: float


def band_support_check(
    spec: MultiscaleSignalSpec,
    window_length: float,
    grid_step: float,
    dilation_bins: float = 1.0,
) -> BandSupportReport:
    """Fraction of windowed-DFT energy inside the signal's spectral bands.

    Evaluates the signal on a uniform grid over [-T/2, T/2], applies a
    Hann window (the slow sinc tails would otherwise leak across the
    spectral gaps), and compares energy inside the support intervals
    (dilated by `dilation_bins` DFT bins) against the total.
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
    pad = dilation_bins / window_length
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
        window_length=window_length,
        dilation_bins=dilation_bins,
    )


# -- randomized valid configurations ------------------------------------


def _straddle_guard(N: float, M: int, epsilon: float, delta_X: float) -> float:
    """Worst margin (in cycles) between a folded band edge and the kernel
    passband edge; positive means every band folds cleanly."""
    worst = math.inf
    for m in range(-M, M + 1):
        _, beta = alias_split(m, epsilon, delta_X)
        worst = min(worst, 1 / (2 * delta_X) - N - abs(beta))
    return worst


def random_valid_grid(
    rng: np.random.Generator,
    N: float,
    M: int,
    epsilon: float,
    J: int,
    max_tries: int = 5000,
) -> PeriodicSamplingGrid:
    """Draw a grid satisfying the reconstruction constraints for (N, M, eps).

    delta_X is uniform over (1.25*epsilon, 1/(2N)) subject to every band
    folding clear of the kernel passband edge by at least 5% of the half
    cell (rejection sampling; straddling configurations are not
    reconstructible by the single-branch algorithm). When rejection runs
    out of tries the lattice-aligned delta_X = 2*epsilon is used, which
    folds every band exactly to center. delta_x/epsilon is uniform over
    [0.5, 1]/(2M+1), the well-conditioned upper half of the admissible
    range.
    """
    lo, hi = 1.25 * epsilon, 1 / (2 * N)
    if not (lo < hi and 2 * epsilon <= hi):
        raise ConstraintError(
            f"no admissible delta_X for N={N}, epsilon={epsilon}: "
            f"need 2*epsilon <= 1/(2N)"
        )
    delta_X = 2 * epsilon
    for _ in range(max_tries):
        cand = rng.uniform(lo, hi)
        if _straddle_guard(N, M, epsilon, cand) > 0.05 / (2 * cand):
            delta_X = cand
            break
    if _straddle_guard(N, M, epsilon, delta_X) <= 0:
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
    N_range: tuple[float, float] = (0.5, 4.0),
    M_choices: tuple[int, ...] = (0, 1, 2, 3),
    eps_range: tuple[float, float] = (0.005, 0.1),
    atoms_per_band: int = 2,
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
    N = rng.uniform(*N_range)
    M = int(rng.choice(M_choices))
    eps = rng.uniform(*eps_range)
    while N * eps > 0.225:
        eps = rng.uniform(*eps_range)
    spec = random_signal(
        seed=int(rng.integers(0, 2**31)),
        N=N,
        M=M,
        epsilon=eps,
        atoms_per_band=atoms_per_band,
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

DEFAULT_CALIBRATION_RESOURCE = "truncation_calibration.json"


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


def calibrate_truncation(
    J_values,
    trials: int,
    seed: int,
    safety: float = 1.5,
    n_eval: int = 33,
    atoms_per_band: int = 2,
) -> CalibrationTable:
    """Measure worst-case interior truncation error over random pairs.

    Deterministic in `seed`: trial t at truncation J uses the generator
    seeded with (seed, J, t). The safety factor widens the committed
    tolerance over the measured maximum to absorb draw-to-draw variation
    in later test campaigns; both numbers are stored.
    """
    J_values = [int(J) for J in J_values]
    if not J_values:
        raise ConstraintError("J_values must not be empty")
    if sorted(J_values) != J_values:
        raise ConstraintError("J_values must be ascending")
    if trials < 1:
        raise ConstraintError("trials must be >= 1")
    measured = {}
    for J in J_values:
        worst = 0.0
        for t in range(trials):
            rng = np.random.default_rng([seed, J, t])
            spec, grid = random_valid_pair(rng, J=J, atoms_per_band=atoms_per_band)
            err = reconstruction_error(spec, grid, n_points=n_eval, rng=rng)
            worst = max(worst, err)
        measured[J] = worst
    c_tail = max(measured[J] * J / math.log(J) for J in J_values)
    tolerances = {J: safety * c_tail * math.log(J) / J for J in J_values}
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
        safety=safety,
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
    ref = resources.files("msamp").joinpath("data", DEFAULT_CALIBRATION_RESOURCE)
    with ref.open("r", encoding="utf-8") as f:
        return _table_from_payload(json.load(f))
