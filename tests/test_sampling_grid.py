"""Tests for multicoset grid construction, validation, and densities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msamp import (
    ConstraintError,
    MultiscaleSignalSpec,
    SincAtom,
    beurling_density,
    build_grid,
    grid_from_dict,
    grid_to_dict,
    load_grid,
    nyquist_rate,
    points_to_csv,
    save_grid,
    spectral_support,
    validate_against,
)


def simple_spec(N=1.0, M=1, epsilon=0.1):
    return MultiscaleSignalSpec(
        epsilon=epsilon, N=N, M=M, bands={0: [SincAtom(0, 1.0)]}
    )


class TestBuildGrid:
    def test_uniform_coset(self):
        grid = build_grid(0.5, 0.05, 0, 2)
        np.testing.assert_allclose(
            grid.coset_points(0), [-1.0, -0.5, 0.0, 0.5, 1.0], atol=0
        )

    def test_three_cosets_enumeration(self):
        grid = build_grid(0.5, 0.05, 2, 1)
        expected = [-0.5, -0.45, -0.40, 0.0, 0.05, 0.10, 0.5, 0.55, 0.60]
        np.testing.assert_allclose(grid.all_points(), sorted(expected), atol=1e-15)

    def test_coset_overlap_rejected(self):
        with pytest.raises(ConstraintError, match="overlap"):
            build_grid(0.5, 0.2, 3, 4)

    def test_non_integral_P_rejected(self):
        d = {"delta_X": 0.4, "delta_x": 0.01, "P": 2.6, "J": 8}
        with pytest.raises(ConstraintError, match="P = 2.6"):
            grid_from_dict(d)
        with pytest.raises(ConstraintError, match="P = 2.6"):
            build_grid(0.4, 0.01, 2.6, 8)

    def test_non_integral_J_rejected(self):
        d = {"delta_X": 0.4, "delta_x": 0.01, "P": 2, "J": 8.9}
        with pytest.raises(ConstraintError, match="J = 8.9"):
            grid_from_dict(d)
        with pytest.raises(ConstraintError, match="J = 8.9"):
            build_grid(0.4, 0.01, 2, 8.9)

    def test_integral_floats_and_numpy_integers_accepted(self):
        grid = grid_from_dict({"delta_X": 0.4, "delta_x": 0.01, "P": 2.0, "J": np.int64(8)})
        assert grid == build_grid(0.4, 0.01, 2, 8)
        assert type(grid.P) is int and type(grid.J) is int

    @given(value=st.floats().filter(lambda v: not v.is_integer()))
    @settings(max_examples=50, deadline=None)
    def test_every_non_integral_P_J_rejected(self, value):
        for key in ("P", "J"):
            d = {"delta_X": 0.4, "delta_x": 0.01, "P": 2, "J": 8, key: value}
            with pytest.raises(ConstraintError, match="not an integer"):
                grid_from_dict(d)

    def test_point_bounds_checked(self):
        grid = build_grid(0.5, 0.05, 1, 2)
        with pytest.raises(ConstraintError):
            grid.point(2, 0)
        with pytest.raises(ConstraintError):
            grid.point(0, 3)

    @given(
        P=st.integers(0, 5),
        J=st.integers(1, 30),
        dX=st.floats(0.05, 2.0),
        frac=st.floats(0.01, 0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_point_count(self, P, J, dX, frac):
        dx = 0.0 if P == 0 else frac * dX / max(P, 1)
        grid = build_grid(dX, dx, P, J)
        assert grid.n_points == (P + 1) * (2 * J + 1)
        assert len(grid.all_points()) == grid.n_points


class TestValidateAgainst:
    def test_all_pass(self):
        spec = simple_spec()
        grid = build_grid(0.35, 0.03, 2, 8)
        report = validate_against(grid, spec)
        assert report.ok and not report.failures

    def test_macro_spacing_too_large(self):
        spec = simple_spec()
        grid = build_grid(0.6, 0.03, 2, 8)
        report = validate_against(grid, spec)
        assert [c.name for c in report.failures] == ["delta_X <= 1/(2N)"]

    def test_wrong_coset_count(self):
        spec = simple_spec(M=1)
        grid = build_grid(0.35, 0.03, 1, 8)
        report = validate_against(grid, spec)
        assert [c.name for c in report.failures] == ["P == 2M"]

    def test_micro_spacing_too_large(self):
        spec = simple_spec()
        grid = build_grid(0.35, 0.04, 2, 8)  # cap is 0.1/3
        report = validate_against(grid, spec)
        assert [c.name for c in report.failures] == ["delta_x <= epsilon/(2M+1)"]

    def test_summary_mentions_each_check(self):
        report = validate_against(build_grid(0.35, 0.03, 2, 8), simple_spec())
        text = report.summary()
        for name in ("delta_x", "delta_X > epsilon", "1/(2N)", "P == 2M"):
            assert name in text


class TestDensities:
    def test_beurling_three_cosets(self):
        assert beurling_density(build_grid(0.5, 0.05, 2, 4)) == 6.0

    def test_beurling_uniform(self):
        assert beurling_density(build_grid(0.25, 0.0, 0, 4)) == 4.0

    def test_landau_rate_at_critical_spacing(self):
        # delta_X = 1/(2N), P = 2M: density equals the total spectral measure
        spec = simple_spec(N=1.0, M=1, epsilon=0.1)
        grid = build_grid(0.5, 0.03, 2, 4)
        density = beurling_density(grid)
        assert density == pytest.approx(6.0, abs=1e-12)
        assert density == pytest.approx(
            spectral_support(spec).total_measure(), abs=1e-12
        )

    def test_nyquist_classical(self):
        assert nyquist_rate(simple_spec(N=1.0, M=0)) == 2.0

    def test_nyquist_high_band(self):
        assert nyquist_rate(simple_spec(N=1.0, M=2, epsilon=0.01)) == 402.0

    def test_nyquist_moderate(self):
        assert nyquist_rate(simple_spec(N=1.0, M=1, epsilon=0.1)) == 22.0

    def test_savings_ratio_formula_and_shrinkage(self):
        # density/nyquist = (2M+1)*N*eps/(N*eps + M) < 1, shrinking with eps
        prev = None
        N, M = 1.0, 2
        for eps in (0.1, 0.05, 0.01, 0.005):
            spec = simple_spec(N=N, M=M, epsilon=eps)
            grid = build_grid(1 / (2 * N), eps / (2 * M + 1), 2 * M, 4)
            ratio = beurling_density(grid) / nyquist_rate(spec)
            expected = (2 * M + 1) * N * eps / (N * eps + M)
            assert ratio == pytest.approx(expected, rel=1e-12)
            assert ratio < 1
            if prev is not None:
                assert ratio < prev
            prev = ratio


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        grid = build_grid(0.35, 0.03, 2, 16)
        assert grid_from_dict(grid_to_dict(grid)) == grid
        path = tmp_path / "grid.json"
        save_grid(grid, path)
        assert load_grid(path) == grid

    def test_points_csv(self, tmp_path):
        grid = build_grid(0.5, 0.05, 1, 2)
        path = tmp_path / "points.csv"
        points_to_csv(grid, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,j,x"
        assert len(lines) == 1 + grid.n_points
        k, j, x = lines[1].split(",")
        assert (int(k), int(j)) == (0, -2)
        assert float(x) == grid.point(0, -2)
