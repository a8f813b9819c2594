"""Tests for the centred alias split, Vandermonde systems, and reconstruction."""

import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msamp import (
    ConstraintError,
    MultiscaleSignalSpec,
    SincAtom,
    SingularSystemError,
    alias_split,
    apply_coset_operator,
    build_grid,
    build_vandermonde,
    evaluate,
    evaluate_coefficient,
    random_signal,
    random_valid_pair,
    reconstruct,
    reconstruct_two_band,
    reconstruction_to_csv,
    sample_signal,
    solve_coset_system,
    validate_against,
)
from msamp.oracle import classical_reconstruct, interior_points, random_valid_grid
from msamp.reconstruction import SpecParams, _band_pieces, _build_system, _fold_bands

from conftest import reference_reconstruction_csv


class TestDecomposeFrequency:
    """alias_split(m, epsilon, delta_X) -> (L_eff, beta)."""

    def test_zero_band(self):
        assert alias_split(0, 0.1, 0.35) == (0, 0.0)

    def test_positive_band_rational_oracle(self):
        # exact rational arithmetic: (1/0.1)*0.35 = 3.5 -> floor 3,
        # beta = 10 - 3/0.35 = 10/7, exactly half a cell
        L, beta = alias_split(1, 0.1, 0.35)
        t = Fraction(1) / Fraction("0.1") * Fraction("0.35")
        assert t == Fraction(7, 2)
        assert L == 3
        assert beta == pytest.approx(float(Fraction(10, 7)), abs=1e-12)

    def test_negative_band_rational_oracle(self):
        # floor(-3.5) = -4, beta = -10 + 4/0.35 = 10/7, the same tie
        L, beta = alias_split(-1, 0.1, 0.35)
        assert L == -4
        assert beta == pytest.approx(float(Fraction(10, 7)), abs=1e-12)

    def test_lattice_aligned_snaps_to_zero_offset(self):
        # 0.3/0.1 is 2.9999999999999996 in floats; the snap must still
        # yield the aligned split
        assert alias_split(1, 0.1, 0.3) == (3, 0.0)

    @given(
        m=st.integers(-5, 5),
        eps=st.floats(0.005, 0.1),
        dX=st.floats(0.011, 0.9),
    )
    @settings(max_examples=200, deadline=None)
    def test_split_identity_and_range(self, m, eps, dX):
        L, beta = alias_split(m, eps, dX)
        lhs = m / eps
        rhs = L / dX + beta
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
        assert abs(beta) * dX <= 0.5 + 1e-9


class TestAliasBranch:
    def test_lower_branch_unchanged(self):
        # 1/0.1 = 2/0.22 + 0.909..., and 0.909 < 1/(2*0.22): the floor split
        L, beta = alias_split(1, 0.1, 0.22)
        assert L == 2
        assert beta == pytest.approx(10 - 2 / 0.22, abs=1e-12)
        assert 0 <= beta <= 1 / (2 * 0.22)

    def test_upper_branch_folds_down(self):
        # the floor split of -1/0.1 is (-3, 3.636...), past the half cell;
        # the surviving alias folds down from the next lattice line
        L, beta = alias_split(-1, 0.1, 0.22)
        assert L == -2
        assert beta == pytest.approx(-10 + 2 / 0.22, abs=1e-12)
        assert -1 / (2 * 0.22) <= beta < 0

    def test_boundary_tie_stays_on_floor(self):
        # beta exactly at the half cell (1 ulp above 1/(2dX) in floats):
        # keep the floor split, where rounding to nearest would not
        L, beta = alias_split(1, 0.1, 0.35)
        assert L == 3
        assert beta == 1.4285714285714288
        assert beta == np.nextafter(1 / (2 * 0.35), np.inf)


class TestBuildVandermonde:
    def test_single_band(self):
        grid = build_grid(0.4, 0.0, 0, 8)
        V = build_vandermonde((1.0, 0, 0.05), grid)
        assert V.size == 1
        np.testing.assert_allclose(V.nodes, [1.0 + 0.0j], atol=0)

    def test_pinned_three_band_nodes(self):
        grid = build_grid(0.35, 0.03, 2, 8)
        V = build_vandermonde((1.0, 1, 0.1), grid)
        assert V.band_indices == (-1, 0, 1)
        w_m1, w0, w1 = V.nodes
        assert w0 == 1.0 + 0.0j
        np.testing.assert_allclose(
            w1, np.exp(2j * np.pi * 3 * 0.03 / 0.35), atol=1e-15
        )
        np.testing.assert_allclose(
            w_m1, np.exp(-2j * np.pi * 4 * 0.03 / 0.35), atol=1e-15
        )
        assert 0 < np.angle(w1) < np.pi
        assert -np.pi < np.angle(w_m1) < 0

    def test_unimodular_nodes(self):
        spec, grid = random_valid_pair(3, J=8)
        V = build_vandermonde(spec, grid)
        np.testing.assert_allclose(np.abs(V.nodes), 1.0, atol=1e-14)

    def test_node_collision_raises(self):
        # delta_x = delta_X/3 forces w_1 = exp(2*pi*i*L_1*delta_x/delta_X)
        # with L_1 = 3 back onto w_0 = 1 (constraints violated upstream)
        grid = build_grid(0.35, 0.35 / 3, 2, 8)
        with pytest.raises(SingularSystemError, match="bands"):
            build_vandermonde((1.0, 1, 0.1), grid)

    @given(
        N=st.floats(0.2, 4.0),
        M=st.integers(1, 8),
        log_eps=st.floats(-6.0, 0.0),
        log_u=st.floats(-9.0, 0.0),
        log_s=st.floats(-16.0, 0.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_node_angles_ordered_on_valid_grids(self, N, M, log_eps, log_u, log_s):
        # on a valid grid theta_m = L_m*dx/dX increases strictly with m
        # inside (-1/2, 1/2), which puts positive bands on the upper half
        # circle and negative bands on the lower one
        eps = 10**log_eps
        hi = 1 / (2 * N)
        if eps >= hi:
            return
        dX = eps + 10**log_u * (hi - eps)
        dx = 10**log_s * eps / (2 * M + 1)
        grid = build_grid(dX, dx, 2 * M, 4)
        if not validate_against(grid, SpecParams(N, M, eps)).ok:
            return
        theta = np.array(
            [alias_split(m, eps, dX)[0] * dx / dX for m in range(-M, M + 1)]
        )
        assert theta[M] == 0
        assert np.all(np.abs(theta) < 0.5)
        assert np.all(np.diff(theta) >= dx * (1 / eps - 1 / dX) * (1 - 1e-9))
        assert np.all(np.diff(theta) > 0)

    def test_straddling_band_recorded(self):
        grid = build_grid(0.35, 0.03, 2, 8)
        V = build_vandermonde((1.0, 1, 0.1), grid)
        assert set(V.straddling_bands) == {-1, 1}
        clear = build_vandermonde((1.0, 1, 0.1), build_grid(0.22, 0.03, 2, 8))
        assert clear.straddling_bands == ()

    def test_non_integral_M_rejected(self):
        # a tuple M is not cut to an integer: 2.9 would build bands -2..2
        grid = build_grid(0.22, 0.03, 2, 8)
        with pytest.raises(ConstraintError, match="M = 2.9"):
            build_vandermonde((1.0, 2.9, 0.1), grid)
        spec = random_signal(seed=5, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        samples = sample_signal(spec, grid)
        with pytest.raises(ConstraintError, match="M = 1.7"):
            reconstruct(samples, (1.0, 1.7, 0.1), [0.0])


class TestBandPieces:
    def test_pieces_tile_each_band_on_valid_grids(self):
        # cut to the cell, the pieces of a band cover its width 2N; a band
        # inside the cell is one piece, one across the edge is two, the
        # second wrapped by one lattice step
        rng = np.random.default_rng(23)
        worst = 0.0
        straddling = 0
        for _ in range(3000):
            N = rng.uniform(0.2, 4.0)
            M = int(rng.integers(0, 9))
            hi = 1 / (2 * N)
            eps = 10 ** rng.uniform(-4, np.log10(hi))
            dX = hi - rng.uniform() * (hi - eps)
            _, offsets, margins = _fold_bands(range(-M, M + 1), N, eps, dX)
            for beta, margin in zip(offsets, margins):
                pieces = _band_pieces(beta, N, dX)
                width = sum(b - a for _, _, a, b in pieces)
                worst = max(worst, abs(width - 2 * N) / (2 * N))
                assert {l for l, *_ in pieces} <= {-1, 0, 1}
                if margin >= 0:
                    assert len(pieces) == 1
                elif margin < -1e-12 / dX:
                    assert len(pieces) == 2
                    straddling += 1
        assert worst <= 1e-11
        assert straddling > 1000


class TestSolve:
    def test_single_band_identity(self):
        grid = build_grid(0.4, 0.0, 0, 8)
        V = build_vandermonde((1.0, 0, 0.05), grid)
        out = solve_coset_system(V, np.array([3.5 - 1.0j]))
        np.testing.assert_allclose(out, [3.5 - 1.0j], atol=0)

    def test_constructed_unit_vector(self, rng):
        spec, grid = random_valid_pair(11, J=8)
        V = build_vandermonde(spec, grid)
        for i in range(V.size):
            e = np.zeros(V.size, dtype=complex)
            e[i] = 1.0
            out = solve_coset_system(V, V.matrix @ e)
            assert np.max(np.abs(out - e)) <= 1e-12

    def test_two_band_closed_case(self):
        # bands {0, 1} on a lattice-aligned grid: S_0 = c0 + c1 and
        # S_1 = c0 + c1*w1 must invert to (c0, c1)
        grid = build_grid(0.3, 0.03, 1, 8)
        V = _build_system((0, 1), 1.0, 0.1, grid)
        w1 = V.nodes[1]
        np.testing.assert_allclose(w1, np.exp(2j * np.pi * 0.3), atol=1e-14)
        c0, c1 = 0.7 - 0.2j, -1.1 + 0.4j
        out = solve_coset_system(V, np.array([c0 + c1, c0 + c1 * w1]))
        np.testing.assert_allclose(out, [c0, c1], atol=1e-12)

    def test_matrix_rhs(self, rng):
        spec, grid = random_valid_pair(5, J=8)
        V = build_vandermonde(spec, grid)
        U = rng.normal(size=(V.size, 6)) + 1j * rng.normal(size=(V.size, 6))
        B = V.matrix @ U
        out = solve_coset_system(V, B)
        assert np.max(np.abs(out - U)) <= 1e-11

    def test_wrong_length_rejected(self):
        grid = build_grid(0.4, 0.0, 0, 8)
        V = build_vandermonde((1.0, 0, 0.05), grid)
        with pytest.raises(ConstraintError):
            solve_coset_system(V, np.array([1.0, 2.0]))

    def test_backward_stable_on_random_valid_grids(self, rng):
        # relative backward error max|V u - b| / (||V||_inf max|u| + max|b|)
        # on the ill-conditioned node sets of large band counts (cond(V)
        # reaches 3e7 at M = 8); LU with partial pivoting stays near 1e-16
        for M in (8, 10, 12):
            for _ in range(20):
                grid = random_valid_grid(rng, N=1.0, M=M, epsilon=0.02, J=8)
                V = build_vandermonde((1.0, M, 0.02), grid)
                b = rng.normal(size=V.size) + 1j * rng.normal(size=V.size)
                u = solve_coset_system(V, b)
                norm = np.max(np.sum(np.abs(V.matrix), axis=1))
                residual = np.max(np.abs(V.matrix @ u - b))
                scale = norm * np.max(np.abs(u)) + np.max(np.abs(b))
                assert residual / scale <= 1e-14, (M, residual / scale)

    def test_large_band_count_recovers_unit_vectors(self):
        # M = 8 -> 17 bands: the solve still satisfies the system
        grid = build_grid(0.05, 0.9 * 0.01 / 17, 16, 4)
        V = build_vandermonde((0.5, 8, 0.01), grid)
        assert V.size == 17
        for i in (0, 8, 16):
            e = np.zeros(17, dtype=complex)
            e[i] = 1.0
            out = solve_coset_system(V, V.matrix @ e)
            assert np.max(np.abs(out - e)) <= 1e-9

    def test_permutation_invariance(self, rng):
        spec, grid = random_valid_pair(13, J=8)
        V = build_vandermonde(spec, grid)
        b = rng.normal(size=V.size) + 1j * rng.normal(size=V.size)
        x1 = solve_coset_system(V, b)
        perm = rng.permutation(V.size)
        V2 = dataclasses.replace(V, matrix=V.matrix[perm])
        x2 = solve_coset_system(V2, b[perm])
        assert np.max(np.abs(x1 - x2)) <= 1e-12 * max(1.0, np.max(np.abs(x1)))


class TestReconstruct:
    def test_classical_reduction_matches_oracle(self, rng):
        # M = 0, P = 0, delta_X = 1/(2N): same cardinal series through two
        # independent code paths
        spec = random_signal(seed=2, N=1.0, M=0, epsilon=0.05, atoms_per_band=2)
        grid = build_grid(0.5, 0.0, 0, 256)
        samples = sample_signal(spec, grid)
        xs = interior_points(grid, 40, rng)
        rec = reconstruct(samples, spec, xs)
        oracle = classical_reconstruct(samples, xs, spec)
        assert np.max(np.abs(rec.assembled - oracle)) <= 1e-12

    def test_synthetic_signal_interior_accuracy(self, rng):
        spec = random_signal(seed=42, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        grid = build_grid(0.22, 0.03, 2, 256)
        samples = sample_signal(spec, grid)
        xs = interior_points(grid, 40, rng)
        rec = reconstruct(samples, spec, xs)
        truth = evaluate(spec, xs)
        rel = np.max(np.abs(rec.assembled - truth)) / np.max(np.abs(truth))
        assert rel <= 1e-4

    def test_value_at_grid_point_consistent(self, calibration):
        spec = random_signal(seed=6, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        grid = build_grid(0.22, 0.03, 2, 256)
        samples = sample_signal(spec, grid)
        x0 = grid.point(0, 3)
        rec = reconstruct(samples, spec, [x0])
        assert abs(rec.assembled[0] - samples.value(0, 3)) <= calibration.tau(256)

    def test_band_by_band_recovery(self, rng, calibration):
        spec = random_signal(seed=10, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        grid = build_grid(0.22, 0.03, 2, 256)
        samples = sample_signal(spec, grid)
        xs = interior_points(grid, 25, rng)
        rec = reconstruct(samples, spec, xs)
        scale = np.max(np.abs(evaluate(spec, xs)))
        for m in (-1, 0, 1):
            target = evaluate_coefficient(spec, m, xs) * np.exp(
                2j * np.pi * m * xs / spec.epsilon
            )
            got = rec.band_component(m)
            assert np.max(np.abs(got - target)) <= calibration.tau(256) * scale

    def test_error_halves_with_doubled_truncation(self, rng):
        # typical-case decay; seeds with anomalously lucky cancellation at
        # some J (where the signed tail happens to nearly vanish at the
        # worst point) break per-doubling monotonicity and are avoided
        for seed in (1, 4, 6):
            spec, grid64 = random_valid_pair(seed, J=64)
            xs = interior_points(grid64, 30, rng)
            errs = []
            for J in (64, 128, 256):
                grid = build_grid(grid64.delta_X, grid64.delta_x, grid64.P, J)
                samples = sample_signal(spec, grid)
                rec = reconstruct(samples, spec, xs)
                truth = evaluate(spec, xs)
                errs.append(np.max(np.abs(rec.assembled - truth)))
            assert errs[1] <= 0.6 * errs[0]
            assert errs[2] <= 0.6 * errs[1]

    def test_invalid_grid_lists_failures(self):
        spec = random_signal(seed=2, N=1.0, M=1, epsilon=0.1, atoms_per_band=1)
        grid = build_grid(0.6, 0.03, 1, 16)
        samples = sample_signal(spec, grid, check=False)
        with pytest.raises(ConstraintError) as exc:
            reconstruct(samples, spec, [0.0])
        assert "delta_X <= 1/(2N)" in str(exc.value)
        assert "P == 2M" in str(exc.value)

    def test_straddling_config_rejected(self):
        spec = random_signal(seed=2, N=1.0, M=1, epsilon=0.1, atoms_per_band=1)
        grid = build_grid(0.35, 0.03, 2, 16)
        samples = sample_signal(spec, grid)
        with pytest.raises(ConstraintError, match="straddle"):
            reconstruct(samples, spec, [0.0])

    def test_near_coincident_nodes_on_valid_grid_raise(self):
        # delta_x = 1e-14 is far below the cap epsilon/(2M+1): the grid is
        # valid, but the nodes of bands -1 and 0 lie within 1e-12 of each
        # other, where cond(V) would be about 1e27
        spec = random_signal(seed=5, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        grid = build_grid(0.22, 1e-14, 2, 8)
        assert validate_against(grid, spec).ok
        samples = sample_signal(spec, grid)
        with pytest.raises(SingularSystemError, match="bands -1 and 0") as exc:
            reconstruct(samples, spec, [0.0])
        assert "delta_x/delta_X = -9.09e-14 is within 1e-12 of an integer" in str(
            exc.value
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        spec = random_signal(seed=2, N=1.0, M=1, epsilon=0.1, atoms_per_band=1)
        samples = sample_signal(spec, build_grid(0.22, 0.03, 2, 16))
        with pytest.raises(ConstraintError, match=f"evaluation point 2 is {bad!r}"):
            reconstruct(samples, spec, [0.0, 0.1, bad, np.nan])

    def test_point_outside_hull_rejected(self):
        # the README quickstart grid at J = 64, where x = 2*J*delta_X returned
        # 2.6e-18 against f = 5.0e-3
        spec = random_signal(seed=7, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        grid = build_grid(0.22, 0.03, 2, 64)
        samples = sample_signal(spec, grid)
        lo, hi = -64 * 0.22, 64 * 0.22 + 2 * 0.03
        far = 2 * 64 * 0.22
        with pytest.raises(ConstraintError, match=f"evaluation point 1 is {far!r}, outside"):
            reconstruct(samples, spec, [0.0, far, -far])
        for bad in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)):
            with pytest.raises(ConstraintError, match=rf"outside the sample hull .*\[{lo!r}, {hi!r}\]"):
                reconstruct(samples, spec, [bad])
        rec = reconstruct(samples, spec, [lo, hi])
        assert np.all(np.isfinite(rec.assembled))


def two_band_setup(ratio=0.5, J=256, seed=4):
    """Signal on bands {0, 1} over a lattice-aligned grid, delta_x = ratio*eps."""
    eps, N = 0.1, 1.0
    rng = np.random.default_rng(seed)
    bands = {
        0: [SincAtom(0, complex(*rng.normal(size=2)))],
        1: [SincAtom(1, complex(*rng.normal(size=2)))],
    }
    spec = MultiscaleSignalSpec(epsilon=eps, N=N, M=1, bands=bands)
    grid = build_grid(0.3, ratio * eps, 1, J)
    samples = sample_signal(spec, grid, check=False)  # P != 2M by design
    return spec, grid, samples


class TestTwoBand:
    def test_matches_ground_truth_at_half_ratio(self, rng, calibration):
        spec, grid, samples = two_band_setup(ratio=0.5)
        xs = interior_points(grid, 30, rng)
        rec = reconstruct_two_band(samples, (1.0, 1, 0.1), xs)
        truth = evaluate(spec, xs)
        scale = np.max(np.abs(truth))
        assert np.max(np.abs(rec.assembled - truth)) <= calibration.tau(256) * scale

    def test_agrees_with_general_solver(self, rng):
        # independent reference: the closed-form inverse of the 2x2 system
        # [[1, 1], [1, w1]], namely [[w1, -1], [-1, 1]]/(w1 - 1)
        for ratio in (0.2, 0.35, 0.5):
            spec, grid, samples = two_band_setup(ratio=ratio, J=64)
            xs = interior_points(grid, 20, rng)
            fast = reconstruct_two_band(samples, (1.0, 1, 0.1), xs)
            w1 = np.exp(2j * np.pi * grid.delta_x / 0.1)
            S0, S1 = (apply_coset_operator(samples, k, xs) for k in (0, 1))
            u0 = (w1 * S0 - S1) / (w1 - 1)
            u1 = (S1 - S0) / (w1 - 1)
            closed = u0 + u1 * np.exp(2j * np.pi * xs / 0.1)
            scale = max(1.0, float(np.max(np.abs(closed))))
            assert fast.lattice_shifts == (0, 3)
            assert np.max(np.abs(fast.assembled - closed)) <= 1e-12 * scale

    def test_integer_micro_ratio_is_singular(self):
        spec, grid, samples = two_band_setup(J=16)
        grid2 = build_grid(0.3, 0.1, 1, 16)  # delta_x/epsilon = 1
        samples2 = sample_signal(spec, grid2, check=False)
        with pytest.raises(SingularSystemError, match="integer"):
            reconstruct_two_band(samples2, (1.0, 1, 0.1), [0.0])

    @pytest.mark.parametrize(
        "dX, message",
        [(1e-12, "needs delta_X > epsilon"), (0.6, "delta_X exceeds 1/(2N)")],
    )
    def test_delta_X_out_of_range(self, dX, message):
        spec, _, _ = two_band_setup(J=16)
        grid = build_grid(dX, dX / 4, 1, 16)  # dX/epsilon = 0 and 6
        samples = sample_signal(spec, grid, check=False)
        with pytest.raises(ConstraintError, match=re.escape(message)):
            reconstruct_two_band(samples, (1.0, 1, 0.1), [0.0])

    def test_needs_two_cosets(self):
        spec = random_signal(seed=2, N=1.0, M=0, epsilon=0.1, atoms_per_band=1)
        grid = build_grid(0.3, 0.0, 0, 16)
        samples = sample_signal(spec, grid, check=False)
        with pytest.raises(ConstraintError, match="two cosets"):
            reconstruct_two_band(samples, (1.0, 1, 0.1), [0.0])

    def test_needs_lattice_alignment(self):
        spec, grid, samples = two_band_setup(J=16)
        grid2 = build_grid(0.33, 0.05, 1, 16)  # delta_X/epsilon = 3.3
        samples2 = sample_signal(spec, grid2, check=False)
        with pytest.raises(ConstraintError, match="integer"):
            reconstruct_two_band(samples2, (1.0, 1, 0.1), [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        spec, grid, samples = two_band_setup(J=16)
        with pytest.raises(ConstraintError, match=f"evaluation point 0 is {bad!r}"):
            reconstruct_two_band(samples, (1.0, 1, 0.1), [bad])

    def test_point_outside_hull_rejected(self):
        spec, grid, samples = two_band_setup(J=16)
        hi = 16 * 0.3 + 0.05
        with pytest.raises(ConstraintError, match="evaluation point 1 .* outside the sample hull"):
            reconstruct_two_band(samples, (1.0, 1, 0.1), [hi, np.nextafter(hi, np.inf)])


class TestCsvExport:
    def test_columns_and_round_trip(self, tmp_path, rng):
        spec = random_signal(seed=3, N=1.0, M=1, epsilon=0.1, atoms_per_band=1)
        grid = build_grid(0.22, 0.03, 2, 32)
        samples = sample_signal(spec, grid)
        xs = np.linspace(-2, 2, 9)
        rec = reconstruct(samples, spec, xs)
        truth = evaluate(spec, xs)

        plain = tmp_path / "rec.csv"
        reconstruction_to_csv(rec, plain)
        lines = plain.read_text().strip().splitlines()
        assert lines[0] == "x,re_fhat,im_fhat"
        assert len(lines) == 10

        full = tmp_path / "rec_full.csv"
        reconstruction_to_csv(rec, full, truth=truth, include_bands=True)
        header = full.read_text().splitlines()[0].split(",")
        assert header[:5] == ["x", "re_fhat", "im_fhat", "re_err", "im_err"]
        assert "re_band_0" in header and "im_band_-1" in header
        row = full.read_text().splitlines()[1].split(",")
        assert float(row[0]) == xs[0]
        got = complex(float(row[1]), float(row[2]))
        assert got == rec.assembled[0]

    @pytest.mark.parametrize("with_truth", [False, True])
    @pytest.mark.parametrize("include_bands", [False, True])
    @pytest.mark.parametrize("M, J", [(0, 16), (1, 32), (3, 64)])
    def test_bytes_match_reference_writer(self, tmp_path, with_truth, include_bands, M, J):
        rng = np.random.default_rng([M, J])
        grid = random_valid_grid(rng, N=1.0, M=M, epsilon=0.02, J=J)
        spec = random_signal(seed=M + J, N=1.0, M=M, epsilon=0.02, atoms_per_band=2)
        xs = interior_points(grid, 13, rng)
        rec = reconstruct(sample_signal(spec, grid), spec, xs)
        truth = evaluate(spec, xs) if with_truth else None
        reconstruction_to_csv(rec, tmp_path / "rec.csv", truth=truth, include_bands=include_bands)
        reference_reconstruction_csv(
            rec, tmp_path / "ref.csv", truth=truth, include_bands=include_bands
        )
        assert (tmp_path / "rec.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
