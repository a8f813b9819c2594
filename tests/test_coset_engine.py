"""Tests for the batched coset engine and for reconstruct's choice of path."""

import numpy as np
import pytest

from msamp import (
    SampleSet,
    apply_coset_operator,
    build_grid,
    random_signal,
    reconstruct,
    sample_signal,
)
from msamp import _coset_engine, reconstruction
from msamp.oracle import interior_points, random_valid_grid

from conftest import hp_coset_interpolant


def random_samples(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (grid.P + 1, 2 * grid.J + 1)
    return SampleSet(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def hull(grid):
    return -grid.J * grid.delta_X, grid.J * grid.delta_X + grid.P * grid.delta_x


def problem(M, J, nx):
    """Samples, spec and interior points drawn as the recon_dense benchmark draws them."""
    rng = np.random.default_rng([M, J, nx])
    spec = random_signal(seed=M + J + nx, N=1.0, M=M, epsilon=0.02, atoms_per_band=2)
    grid = random_valid_grid(rng, N=1.0, M=M, epsilon=0.02, J=J)
    return sample_signal(spec, grid), spec, interior_points(grid, nx, rng)


def check(samples, x, hp=True):
    """The engine within 2e-14*max|v| of the Cauchy sum, 1e-13*max|v| of the dense sum."""
    out = _coset_engine.coset_interpolants(samples, x)
    assert out.shape == (samples.grid.P + 1, x.size) and out.dtype == complex
    for k in range(samples.grid.P + 1):
        scale = np.max(np.abs(samples.coset_row(k)))
        assert np.max(np.abs(out[k] - apply_coset_operator(samples, k, x))) <= 2e-14 * scale
        if hp:
            assert np.max(np.abs(out[k] - hp_coset_interpolant(samples, k, x))) <= 1e-13 * scale
    return out


class TestAccuracy:
    def test_random_points_and_hull_ends(self, rng):
        grid = build_grid(0.22, 0.03, 2, 64)
        lo, hi = hull(grid)
        ends = [lo, np.nextafter(lo, 0), hi, np.nextafter(hi, 0), lo + 0.37, hi - 0.41]
        check(random_samples(grid, 1), np.concatenate([rng.uniform(lo, hi, 30), ends]))

    @pytest.mark.parametrize("M, J, nx", [(3, 512, 512), (3, 256, 1000)])
    def test_engine_side_shapes(self, M, J, nx):
        # signal samples: on white noise at J = 512 both paths stand 3-4e-14
        # of max|v| from the dense sum, as rounding in 2J+1 terms of size 1
        samples, _, x = problem(M, J, nx)
        assert _coset_engine.is_cheaper(samples.grid, x)
        check(samples, x, hp=False)
        check(samples, x[:: nx // 4])

    def test_snapped_points_return_stored_sample(self, rng):
        # criterion 7: within 1e-9*delta_X of a sample of coset k, S_k is that sample
        grid = build_grid(0.22, 0.03, 2, 64)
        samples = random_samples(grid, 3)
        j = np.array([-64, -63, -17, 0, 5, 63, 64])
        offsets = np.array([0.0, 9e-10, -9e-10, 5e-10, 0.0, -2e-10, 0.0])
        for k in range(3):
            x = (j + offsets) * grid.delta_X + k * grid.delta_x
            x = np.concatenate([x, rng.uniform(*hull(grid), 5)])
            out = _coset_engine.coset_interpolants(samples, x)
            assert np.array_equal(out[k, : j.size], samples.coset_row(k)[j + 64])
        # past the window a snapped point gives 0, as the Cauchy sum does
        x = np.array([65 * grid.delta_X, -65 * grid.delta_X])
        assert np.array_equal(_coset_engine.coset_interpolants(samples, x)[0], [0, 0])

    def test_points_on_the_fine_grid(self):
        grid = build_grid(0.22, 0.03, 2, 64)
        n = np.arange(-180, 181, 7)
        x = n * grid.delta_X / 3
        qt, _ = _coset_engine.fine_rows(x, grid.delta_X)
        on_fine = x[qt == np.rint(qt)]
        assert on_fine.size > 20
        check(random_samples(grid, 4), on_fine)

    def test_points_next_to_fine_points(self):
        # q*t - n0 rounds here (|q*t| < 29), so only the tap distance
        # q*t - (n0 + i) in one rounding keeps the weight next to the point
        grid = build_grid(0.22, 0.03, 2, 64)
        n = np.array([-29, -13, -2, -1, 1, 2, 4, 13, 28])
        delta = np.array([1e-7, -1e-7, 1e-10, -3e-12])
        x = ((n[:, None] + delta) * grid.delta_X / 3).ravel()
        check(random_samples(grid, 5), x)

    def test_integer_kernel_shifts(self, rng):
        # c_k = k*delta_x/delta_X = k/3: s = rho/3 - c_k is 0 at (k, rho) = (1, 1), (2, 2)
        grid = build_grid(0.375, 0.125, 2, 64)
        s = np.arange(3) / 3 - (np.arange(3) * grid.delta_x / grid.delta_X)[:, None]
        assert np.count_nonzero(s == 0) == 3
        check(random_samples(grid, 6), rng.uniform(*hull(grid), 30))

    def test_single_coset(self, rng):
        grid = build_grid(0.3, 0.0, 0, 64)
        check(random_samples(grid, 7), rng.uniform(*hull(grid), 30))

    def test_empty_points(self):
        samples = random_samples(build_grid(0.22, 0.03, 2, 16), 8)
        out = _coset_engine.coset_interpolants(samples, np.array([]))
        assert out.shape == (3, 0) and out.dtype == complex
        assert not _coset_engine.is_cheaper(samples.grid, np.array([]))


class TestPathChoice:
    """reconstruct takes the engine or the Cauchy sum by (P+1, nx, J) and the points."""

    @staticmethod
    def refuse(*args):
        raise AssertionError("this path must not run")

    def test_engine_shape(self, monkeypatch):
        samples, spec, xs = problem(3, 512, 512)
        with monkeypatch.context() as m:
            m.setattr(reconstruction, "apply_coset_operator", self.refuse)
            fast = reconstruct(samples, spec, xs)
        with monkeypatch.context() as m:
            m.setattr(reconstruction._coset_engine, "coset_interpolants", self.refuse)
            with pytest.raises(AssertionError, match="must not run"):
                reconstruct(samples, spec, xs)
            m.setattr(reconstruction._coset_engine, "is_cheaper", lambda grid, x: False)
            exact = reconstruct(samples, spec, xs)
        scale = np.max(np.abs(exact.assembled))
        assert np.max(np.abs(fast.assembled - exact.assembled)) <= 1e-12 * scale

    @pytest.mark.parametrize("M, J, nx", [(3, 512, 33), (0, 64, 33), (8, 2048, 10), (3, 2048, 40)])
    def test_cauchy_shapes(self, monkeypatch, M, J, nx):
        samples, spec, xs = problem(M, J, nx)
        monkeypatch.setattr(reconstruction._coset_engine, "coset_interpolants", self.refuse)
        reconstruct(samples, spec, xs)
