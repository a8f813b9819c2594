"""Shared high-precision oracles and helpers for the test suite."""

import mpmath
import numpy as np
import pytest

from msamp import MultiscaleSignalSpec


def hp_sinc(u, dps: int = 50):
    """sin(pi*u)/(pi*u) at `dps` digits; exact 1 at 0."""
    with mpmath.workdps(dps):
        u = mpmath.mpf(u)
        if u == 0:
            return mpmath.mpf(1)
        return mpmath.sin(mpmath.pi * u) / (mpmath.pi * u)


def hp_coset_interpolant(samples, k: int, x, dps: int = 40):
    """Coset interpolant S_k(x) = sum_j v_j sinc((x - j*dX - k*dx)/dX).

    Dense reference: every kernel value is taken at `dps` digits from the
    float inputs, with no factoring, argument reduction or snapping.
    """
    grid = samples.grid
    with mpmath.workdps(dps):
        dX, dx = mpmath.mpf(grid.delta_X), mpmath.mpf(grid.delta_x)
        terms = [
            (int(j), mpmath.mpc(v.real, v.imag))
            for j, v in zip(grid.macro_indices(), samples.coset_row(k))
        ]
        out = []
        for xi in np.atleast_1d(np.asarray(x, dtype=float)):
            u = (mpmath.mpf(float(xi)) - k * dx) / dX
            out.append(complex(sum(v * hp_sinc(u - j, dps) for j, v in terms)))
    return np.array(out)


def hp_coefficient(spec: MultiscaleSignalSpec, m: int, x: float, dps: int = 50):
    """Band envelope c_m(x) summed term by term at high precision."""
    with mpmath.workdps(dps):
        xx = mpmath.mpf(x)
        N = mpmath.mpf(spec.N)
        tot = mpmath.mpc(0)
        for atom in spec.band(m):
            a = mpmath.mpc(atom.amplitude.real, atom.amplitude.imag)
            tot += a * hp_sinc(2 * N * xx - atom.center_index, dps)
        return complex(tot)


def hp_evaluate(spec: MultiscaleSignalSpec, x: float, dps: int = 50):
    """Full signal value at high precision (independent summation route)."""
    with mpmath.workdps(dps):
        xx = mpmath.mpf(x)
        eps = mpmath.mpf(spec.epsilon)
        tot = mpmath.mpc(0)
        for m in spec.bands:
            cm = mpmath.mpc(hp_coefficient(spec, m, x, dps))
            tot += cm * mpmath.exp(2j * mpmath.pi * m * xx / eps)
        return complex(tot)


@pytest.fixture(scope="session")
def calibration():
    from msamp import load_default_calibration

    return load_default_calibration()


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
