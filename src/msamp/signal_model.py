"""Multiscale bandlimited test signals with an exact finite representation.

A signal here is a sum of frequency bands

    f(x) = sum_{m=-M..M} c_m(x) * exp(2*pi*i*m*x/epsilon),

where each slow envelope c_m is a finite combination of sinc atoms on the
Nyquist grid j/(2N) and is therefore exactly bandlimited to [-N, N]. The
band carriers push copies of that interval to m/epsilon, producing a
multiband spectrum with gaps of order 1/epsilon. Because the
representation is closed-form, sampling and reconstruction can be tested
against exact values instead of approximations.

With t = 2N*x = r + f, r = rint(t), every atom shares one sine:

    sinc(t - j) = (-1)^(r+j) * sin(pi*f) / (pi*(t - j)),

and every carrier is a power of one z = exp(2*pi*i*x/epsilon), with
z^-m = conj(z^m). evaluate therefore takes per point one sine (after the
exact reduction of t), one complex exponential (after the exact reduction
of x/epsilon), one division per distinct atom centre, a real-by-complex
multiply-add per atom and a complex product per band, instead of a sinc
per atom and a complex exponential per band. evaluate_coefficient shares
this kernel and skips the exponential.
Within _SINC_SNAP_TOL (1e-9) of a lattice point, |f| < 1e-9, the atoms
give exactly 1 at j = r and 0 elsewhere, as sinc does.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError

__all__ = [
    "SincAtom",
    "MultiscaleSignalSpec",
    "SpectralSupport",
    "sinc",
    "evaluate_coefficient",
    "evaluate",
    "spectral_support",
    "random_signal",
    "total_energy",
    "spec_to_dict",
    "spec_from_dict",
    "save_spec",
    "load_spec",
]

# |u| below this is treated with the series branch of sinc.
_SINC_TAYLOR_TOL = 1e-8
# Distance from a nonzero integer below which sinc is exactly zero. Keeps
# the cardinal-interpolation identity exact under floating-point grids;
# see kernel usage in sampling_operator.
_SINC_SNAP_TOL = 1e-9
# Points per block of _synthesize. A complex temporary of a block is
# 64 KiB, which malloc serves from reused heap memory instead of mapping
# fresh pages, and memory does not grow with the number of points.
_EVAL_BLOCK = 1 << 12


def sinc(u):
    """Normalized sinc, sin(pi*u)/(pi*u), exact at integers.

    Returns exactly 1 at u == 0 (via the series 1 - (pi*u)^2/6 for
    |u| < 1e-8) and exactly 0 at nonzero integers (snap window 1e-9, wide
    enough to absorb roundoff in grid arithmetic, narrow enough not to
    disturb any tested tolerance).
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.empty_like(u)

    r = np.rint(u)
    near_int = np.abs(u - r) < _SINC_SNAP_TOL
    near_zero = np.abs(u) < _SINC_TAYLOR_TOL

    plain = ~(near_int | near_zero)
    up = u[plain]
    out[plain] = np.sin(np.pi * up) / (np.pi * up)

    uz = u[near_zero]
    out[near_zero] = 1.0 - (np.pi * uz) ** 2 / 6.0
    out[near_int & ~near_zero] = 0.0

    return float(out[0]) if scalar else out


def _integer(value, name: str) -> int:
    """int(value), refusing a float with a fractional part instead of cutting it."""
    if isinstance(value, (float, np.floating)) and not float(value).is_integer():
        raise ConstraintError(f"{name} = {value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class SincAtom:
    """One sinc atom of a band envelope: amplitude * sinc(2N*x - center_index).

    The atom is centered at x = center_index/(2N), i.e. on the Nyquist grid
    of the envelope bandwidth.
    """

    center_index: int
    amplitude: complex

    def __post_init__(self):
        a = complex(self.amplitude)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ConstraintError(f"atom amplitude must be finite, got {a!r}")
        object.__setattr__(self, "amplitude", a)
        object.__setattr__(self, "center_index", _integer(self.center_index, "center_index"))


@dataclass(frozen=True)
class MultiscaleSignalSpec:
    """Exact description of a multiscale bandlimited signal.

    Fields
    ------
    epsilon : scale ratio, 0 < epsilon << 1
    N       : half-bandwidth of each band envelope (cycles per unit)
    M       : number of fast harmonics per side; band indices run -M..M
    bands   : mapping band index -> tuple of SincAtom (may omit empty bands)

    Requires 0 < 2N < 1/epsilon so the bands cannot overlap, and at least
    one atom with a nonzero amplitude.
    """

    epsilon: float
    N: float
    M: int
    bands: dict = field(default_factory=dict)

    def __post_init__(self):
        eps = float(self.epsilon)
        N = float(self.N)
        M = _integer(self.M, "M")
        if not (eps > 0 and N > 0 and M >= 0):
            raise ConstraintError("need epsilon > 0, N > 0, M >= 0")
        if not 2 * N < 1 / eps:
            raise ConstraintError(
                f"band overlap: need 2N < 1/epsilon, got 2N={2 * N} >= {1 / eps}"
            )
        clean = {}
        for m, atoms in self.bands.items():
            m = _integer(m, "band index")
            if m in clean:
                raise ConstraintError(f"band index {m} given twice")
            if abs(m) > M:
                raise ConstraintError(f"band index {m} outside [-{M}, {M}]")
            clean[m] = tuple(
                a if isinstance(a, SincAtom) else SincAtom(*a) for a in atoms
            )
        if not any(a.amplitude != 0 for atoms in clean.values() for a in atoms):
            raise ConstraintError("degenerate signal: all atom amplitudes are zero")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "bands", clean)

    def band(self, m: int) -> tuple:
        """Atoms of band m (empty tuple if the band carries nothing)."""
        if abs(m) > self.M:
            raise ConstraintError(f"band index {m} outside [-{self.M}, {self.M}]")
        return self.bands.get(int(m), ())


@dataclass(frozen=True)
class SpectralSupport:
    """Sorted, pairwise-disjoint frequency intervals carrying all signal energy."""

    intervals: tuple

    def total_measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))


def evaluate_coefficient(spec: MultiscaleSignalSpec, m: int, x):
    """Evaluate the band-m envelope c_m at x (scalar or array).

    c_m(x) = sum_j a_j * sinc(2N*x - j); exactly bandlimited to [-N, N].
    """
    if abs(int(m)) > spec.M:
        raise ConstraintError(f"band index {m} outside [-{spec.M}, {spec.M}]")
    # c_m is the band-0 term (carrier 1) of a signal holding band m's atoms
    return _synthesize(spec.N, spec.epsilon, {0: spec.band(m)}, x)


def evaluate(spec: MultiscaleSignalSpec, x):
    """Evaluate the full signal sum_m c_m(x) exp(2*pi*i*m*x/epsilon).

    Uses the factored form of the module docstring: per point one sine,
    one complex exponential and one division per distinct atom centre,
    then a multiply-add per atom and a complex product per band.
    """
    return _synthesize(spec.N, spec.epsilon, spec.bands, x)


def _synthesize(N: float, epsilon: float, bands: dict, x):
    """sum over bands (m -> atoms) of c_m(x) * z^m at x, in blocks of points.

    The atoms of a band are merged per centre j, with (-1)^j folded into
    their sum; bands are taken in order of |m|, so z^|m| grows by one
    product at a time. Atoms and bands are summed elementwise in this
    fixed order, so a point's value does not depend on the other points.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    rows: dict[int, int] = {}  # atom centre j -> its row of the kernel block
    terms = []  # (m, [(row of j, (-1)^j * sum of band m's amplitudes at j)])
    for m in sorted(bands, key=lambda m: (abs(m), m)):
        merged = _merge_atoms(bands[m])
        if merged:
            terms.append((m, [
                (rows.setdefault(j, len(rows)), -w if j % 2 else w)
                for j, w in merged.items()
            ]))
    centres = np.array(list(rows), dtype=float)[:, None]
    parity = np.where(centres % 2 == 0, 1.0, -1.0)
    top = max((abs(m) for m, _ in terms), default=0)
    out = np.zeros(flat.shape, dtype=complex)
    for lo in range(0, flat.size, _EVAL_BLOCK):
        xb = flat[lo : lo + _EVAL_BLOCK]
        t = 2 * N * xb
        r = np.rint(t)
        f = t - r
        half = 0.5 * r
        # s = (-1)^r sin(pi*f)/pi, so that sinc(t - j) = s/(t - j)
        s = np.sin(np.pi * f) / np.where(np.floor(half) == half, np.pi, -np.pi)
        snap = np.flatnonzero(np.abs(f) < _SINC_SNAP_TOL)
        if snap.size:
            t[snap] += 0.5  # keeps t - j off zero; these columns are set below
        kernel = np.subtract(t, centres)
        np.divide(1.0, kernel, out=kernel)
        if snap.size:
            # 1 at the centre r, 0 elsewhere, after the (-1)^j of the weights
            kernel[:, snap] = np.where(centres == r[snap], parity, 0.0)
            s[snap] = 1.0
        if top:
            z = power = _carrier(xb / epsilon)
        level = 1  # power = z^level
        acc = out[lo : lo + _EVAL_BLOCK]
        for m, band in terms:
            env = kernel[band[0][0]] * band[0][1]
            for row, w in band[1:]:
                env += kernel[row] * w
            if m:
                while level < abs(m):
                    power, level = power * z, level + 1
                # not in place: numpy rounds an in-place complex product of
                # a short array differently, so a value would depend on the call
                env = env * (power if m > 0 else np.conj(power))
            acc += env
        acc *= s
    return complex(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _carrier(u):
    """exp(2*pi*i*u), taken after the exact reduction u - rint(u)."""
    theta = 2 * np.pi * (u - np.rint(u))
    z = np.empty(theta.shape, dtype=complex)
    z.real = np.cos(theta)
    z.imag = np.sin(theta)
    return z


def spectral_support(spec: MultiscaleSignalSpec) -> SpectralSupport:
    """The 2M+1 intervals [-N + m/eps, N + m/eps], sorted and disjoint."""
    if not 2 * spec.N < 1 / spec.epsilon:
        raise ConstraintError("band overlap: 2N < 1/epsilon violated")
    intervals = tuple(
        (-spec.N + m / spec.epsilon, spec.N + m / spec.epsilon)
        for m in range(-spec.M, spec.M + 1)
    )
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        if hi >= lo:
            raise ConstraintError("spectral intervals overlap")
    return SpectralSupport(intervals)


def random_signal(
    seed: int,
    N: float,
    M: int,
    epsilon: float,
    atoms_per_band: int,
    amplitude_bound: float = 1.0,
) -> MultiscaleSignalSpec:
    """Deterministic random test signal.

    Every band -M..M receives `atoms_per_band` atoms with center indices
    drawn from {-atoms_per_band, ..., atoms_per_band} and amplitudes drawn
    uniformly from the complex disk of radius `amplitude_bound` (magnitude
    bounded away from zero so the signal cannot degenerate).
    """
    if atoms_per_band < 1:
        raise ConstraintError("atoms_per_band must be >= 1")
    if amplitude_bound <= 0:
        raise ConstraintError("amplitude_bound must be positive")
    rng = np.random.default_rng(seed)
    bands = {}
    for m in range(-M, M + 1):
        atoms = []
        for _ in range(atoms_per_band):
            j = int(rng.integers(-atoms_per_band, atoms_per_band + 1))
            mag = amplitude_bound * math.sqrt(rng.uniform(0.04, 1.0))
            phase = rng.uniform(0.0, 2 * np.pi)
            atoms.append(SincAtom(j, mag * cmath.exp(1j * phase)))
        bands[m] = tuple(atoms)
    return MultiscaleSignalSpec(epsilon=epsilon, N=N, M=M, bands=bands)


def total_energy(spec: MultiscaleSignalSpec) -> float:
    """Exact squared L2 norm over the whole line.

    Bands live on disjoint spectral intervals and sinc translates on the
    Nyquist grid are orthogonal with norm^2 = 1/(2N), so the energy is
    (1/2N) * sum_m sum_j |a_{m,j}|^2 after merging atoms that share a
    center.
    """
    total = 0.0
    for atoms in spec.bands.values():
        total += sum(abs(v) ** 2 for v in _merge_atoms(atoms).values())
    return total / (2 * spec.N)


def _merge_atoms(atoms) -> dict[int, complex]:
    """Centre index j -> sum of the amplitudes of the atoms centred at j.

    Atoms that share a centre are one atom: their sum is what every exact
    formula (energy, spectrum, synthesis) weights.
    """
    merged: dict[int, complex] = {}
    for a in atoms:
        merged[a.center_index] = merged.get(a.center_index, 0j) + a.amplitude
    return merged


# -- JSON wire format ---------------------------------------------------
#
# {"epsilon": r, "N": r, "M": n,
#  "bands": [{"m": n, "atoms": [{"j": n, "re": r, "im": r}]}]}


def spec_to_dict(spec: MultiscaleSignalSpec) -> dict:
    return {
        "epsilon": spec.epsilon,
        "N": spec.N,
        "M": spec.M,
        "bands": [
            {
                "m": m,
                "atoms": [
                    {"j": a.center_index, "re": a.amplitude.real, "im": a.amplitude.imag}
                    for a in atoms
                ],
            }
            for m, atoms in sorted(spec.bands.items())
        ],
    }


def spec_from_dict(d: dict) -> MultiscaleSignalSpec:
    """Rebuild a spec from its wire dict; a missing or malformed field, a
    non-integral M, m or j, a band index given twice or a spec that
    MultiscaleSignalSpec refuses is a ConstraintError naming the spec."""
    try:
        bands = {}
        for b in d["bands"]:
            if b["m"] in bands:
                raise ValueError(f"band m={b['m']} appears twice")
            bands[b["m"]] = [(a["j"], complex(a["re"], a["im"])) for a in b["atoms"]]
        return MultiscaleSignalSpec(epsilon=d["epsilon"], N=d["N"], M=d["M"], bands=bands)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConstraintError(f"malformed signal spec: {exc!r}") from exc


def save_spec(spec: MultiscaleSignalSpec, path) -> None:
    text = json.dumps(spec_to_dict(spec), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_spec(path) -> MultiscaleSignalSpec:
    with open(path, encoding="utf-8") as f:
        try:
            d = json.load(f)
        except ValueError as exc:
            raise ConstraintError(f"signal spec {path} is not valid JSON: {exc}") from exc
    return spec_from_dict(d)
