"""Tests for the independent verifiers and calibration machinery."""

import math

import numpy as np
import pytest

from msamp import (
    ConstraintError,
    MultiscaleSignalSpec,
    SincAtom,
    band_support_check,
    build_grid,
    calibrate_truncation,
    classical_reconstruct,
    l2_norm_quadrature,
    load_calibration,
    load_default_calibration,
    random_signal,
    random_valid_pair,
    reconstruct,
    sample_signal,
    save_calibration,
    sinc,
    spectral_support,
    validate_against,
)
from msamp.oracle import interior_points


def nyquist_samples(spec, J=256, rate_margin=1.0):
    from msamp import nyquist_rate

    dX = rate_margin / nyquist_rate(spec)
    grid = build_grid(dX, 0.0, 0, J)
    return sample_signal(spec, grid, check=False), grid


class TestClassicalReconstruct:
    def test_atom_center_on_grid(self):
        # delta_X = 0.25 puts the atom center x = 0 on the grid
        spec = MultiscaleSignalSpec(
            epsilon=0.1, N=1.0, M=0, bands={0: [SincAtom(0, 2.5 - 1.0j)]}
        )
        samples, grid = nyquist_samples(spec)
        assert classical_reconstruct(samples, 0.0) == samples.value(0, 0)
        assert classical_reconstruct(samples, 0.0) == 2.5 - 1.0j

    def test_grid_points_reproduced_exactly(self):
        spec = random_signal(seed=9, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        samples, grid = nyquist_samples(spec)
        for j in (-5, 0, 3, 17):
            x = grid.point(0, j)
            assert classical_reconstruct(samples, x) == samples.value(0, j)

    def test_rejects_multicoset_input(self):
        spec = random_signal(seed=9, N=1.0, M=1, epsilon=0.1, atoms_per_band=1)
        grid = build_grid(0.22, 0.03, 2, 16)
        samples = sample_signal(spec, grid)
        with pytest.raises(ConstraintError, match="uniform"):
            classical_reconstruct(samples, 0.0)

    def test_rejects_sub_nyquist_rate(self):
        spec = random_signal(seed=9, N=1.0, M=1, epsilon=0.1, atoms_per_band=1)
        grid = build_grid(0.25, 0.0, 0, 16)  # rate 4 << 22
        samples = sample_signal(spec, grid, check=False)
        with pytest.raises(ConstraintError, match="rate"):
            classical_reconstruct(samples, 0.0, spec)

    def test_agrees_with_multicoset_reconstruction(self, rng, calibration):
        # two independent reconstruction routes from different sample sets
        spec = random_signal(seed=14, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        mc_grid = build_grid(0.22, 0.03, 2, 256)
        mc_samples = sample_signal(spec, mc_grid)
        ny_samples, ny_grid = nyquist_samples(spec, J=2048)
        xs = interior_points(mc_grid, 25, rng)
        sub = reconstruct(mc_samples, spec, xs)
        full = classical_reconstruct(ny_samples, xs, spec)
        scale = np.max(np.abs(full))
        assert np.max(np.abs(sub.assembled - full)) <= 2 * calibration.tau(256) * scale


class TestQuadrature:
    def test_kernel_energy(self):
        # ||sinc(./dX)||^2 = dX: the kernel's spectrum is flat of height
        # dX on a band of width 1/dX
        dX = 0.5
        got = l2_norm_quadrature(lambda x: sinc(x / dX), (-50, 50), 1e-3)
        assert got == pytest.approx(dX, abs=1e-2 * dX)

    def test_zero_function(self):
        assert l2_norm_quadrature(lambda x: np.zeros_like(x), (0, 1), 0.01) == 0.0

    def test_richardson_self_consistency(self):
        fn = lambda x: np.exp(-(x**2)) * (1 + 0.5j)
        a = l2_norm_quadrature(fn, (-8, 8), 1e-3)
        b = l2_norm_quadrature(fn, (-8, 8), 5e-4)
        assert abs(a / b - 1) < 1e-6

    def test_step_too_coarse(self):
        with pytest.raises(ConstraintError, match="coarse"):
            l2_norm_quadrature(lambda x: x, (0.0, 1.0), 0.5)


class TestBandSupport:
    def test_classical_band(self):
        spec = random_signal(seed=1, N=1.0, M=0, epsilon=0.05, atoms_per_band=2)
        rep = band_support_check(spec, window_length=400.0, grid_step=0.2)
        assert rep.in_band_fraction >= 0.999

    def test_random_multiband_campaign(self):
        for seed in range(8):
            spec, _ = random_valid_pair(seed, J=8, eps_range=(0.02, 0.1))
            step = 1 / (4 * (spec.N + spec.M / spec.epsilon))
            rep = band_support_check(spec, window_length=400.0, grid_step=step)
            assert rep.in_band_fraction >= 0.999

    def test_top_band_centroid_localized(self):
        spec = MultiscaleSignalSpec(
            epsilon=0.1, N=1.0, M=2, bands={2: [SincAtom(0, 1.0)]}
        )
        step = 1 / (4 * (spec.N + spec.M / spec.epsilon))
        rep = band_support_check(spec, window_length=200.0, grid_step=step)
        power = rep.magnitudes**2
        centroid = float(np.sum(rep.bin_freqs * power) / np.sum(power))
        lo, hi = spectral_support(spec).intervals[-1]
        assert lo <= centroid <= hi

    def test_step_precondition(self):
        spec = random_signal(seed=1, N=1.0, M=1, epsilon=0.1, atoms_per_band=1)
        with pytest.raises(ConstraintError, match="alias"):
            band_support_check(spec, window_length=100.0, grid_step=0.5)

    def test_energy_additive_across_disjoint_bands(self):
        # bands live on disjoint intervals, so the DFT energy of the sum
        # splits into the per-band energies
        lone = {
            m: MultiscaleSignalSpec(
                epsilon=0.1, N=1.0, M=1, bands={m: [SincAtom(m, 1.0 + 0.5j * m)]}
            )
            for m in (-1, 0, 1)
        }
        both = MultiscaleSignalSpec(
            epsilon=0.1, N=1.0, M=1,
            bands={m: s.bands[m] for m, s in lone.items()},
        )
        step = 1 / (4 * (1.0 + 1 / 0.1))

        def banded_energy(spec):
            rep = band_support_check(spec, window_length=400.0, grid_step=step)
            return float(np.sum(rep.magnitudes[rep.in_band] ** 2))

        total = banded_energy(both)
        parts = sum(banded_energy(s) for s in lone.values())
        assert total == pytest.approx(parts, rel=1e-3)


class TestRandomValidPair:
    def test_deterministic_in_seed(self):
        a_spec, a_grid = random_valid_pair(123, J=16)
        b_spec, b_grid = random_valid_pair(123, J=16)
        assert a_spec == b_spec and a_grid == b_grid

    def test_constraints_always_hold(self):
        for seed in range(40):
            spec, grid = random_valid_pair(seed, J=8)
            assert validate_against(grid, spec).ok


class TestCalibration:
    def test_regeneration_is_deterministic(self):
        a = calibrate_truncation([16, 32], trials=2, seed=5)
        b = calibrate_truncation([16, 32], trials=2, seed=5)
        assert a == b
        c = calibrate_truncation([16, 32], trials=2, seed=6)
        assert a != c

    def test_tolerances_non_increasing(self):
        table = load_default_calibration()
        taus = [table.tau(J) for J in table.j_values]
        assert all(b <= a for a, b in zip(taus, taus[1:]))
        assert table.tau(512) < table.tau(64)

    def test_envelope_dominates_measurements(self):
        table = load_default_calibration()
        for J in table.j_values:
            assert table.tau(J) >= table.measured[J]
            assert table.tau(J) == pytest.approx(
                table.safety * table.c_tail * math.log(J) / J, rel=1e-12
            )

    def test_committed_table_metadata(self):
        table = load_default_calibration()
        assert table.j_values == (64, 128, 256, 512)
        assert table.trials >= 30
        assert table.generated_at

    def test_committed_table_regenerates(self):
        # the committed seed and trial count give the committed measurements
        # back, so a change that moves them (in the kernels or in the
        # random_valid_grid draw) shows here and must regenerate the table
        table = load_default_calibration()
        fresh = calibrate_truncation(table.j_values, trials=table.trials, seed=table.seed)
        for J in table.j_values:
            assert fresh.measured[J] == pytest.approx(table.measured[J], rel=1e-6)

    def test_file_round_trip(self, tmp_path):
        table = calibrate_truncation([16, 32], trials=2, seed=5)
        path = tmp_path / "cal.json"
        save_calibration(table, path)
        back = load_calibration(path)
        assert back == table
        assert back.generated_at == table.generated_at

    def test_unknown_truncation_rejected(self):
        table = load_default_calibration()
        with pytest.raises(ConstraintError):
            table.tau(1000)

    def test_input_validation(self):
        with pytest.raises(ConstraintError, match="ascending"):
            calibrate_truncation([32, 16], trials=2, seed=0)
        with pytest.raises(ConstraintError, match="strictly ascending"):
            calibrate_truncation([16, 16], trials=2, seed=0)
        with pytest.raises(ConstraintError, match=">= 2"):
            calibrate_truncation([1, 16], trials=2, seed=0)
        with pytest.raises(ConstraintError, match="trials"):
            calibrate_truncation([16], trials=0, seed=0)
