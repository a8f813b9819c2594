"""Tests for the coset interpolation operator and sample handling."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msamp import (
    ConstraintError,
    MultiscaleSignalSpec,
    SampleSet,
    SincAtom,
    alias_split,
    apply_coset_operator,
    build_grid,
    coset_parseval_check,
    evaluate,
    evaluate_coefficient,
    random_signal,
    sample_signal,
    samples_from_csv,
    samples_to_csv,
    sinc,
)
from msamp.sampling_grid import PeriodicSamplingGrid
from msamp.sampling_operator import _write_csv
from msamp.signal_model import _SINC_SNAP_TOL

from conftest import hp_coset_interpolant, reference_samples_csv

TWO_OVER_PI = 0.63661977236758134308


def spec_and_grid(seed=7, J=64):
    spec = random_signal(seed=seed, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
    grid = build_grid(0.22, 0.03, 2, J)
    return spec, grid


def unit_sample_interpolant(delta_X, x, J=8):
    """S_0 of a single unit sample at the origin: the kernel sinc(x/delta_X)."""
    values = np.zeros((1, 2 * J + 1), dtype=complex)
    values[0, J] = 1.0
    samples = SampleSet(build_grid(delta_X, 0.0, 0, J), values)
    return apply_coset_operator(samples, 0, x)


class TestKernel:
    def test_unit_at_zero(self):
        assert unit_sample_interpolant(0.35, 0.0) == 1.0

    def test_zero_at_macro_multiples(self):
        dX = 0.35
        for n in (1, -1, 3, -12):  # -12 lies past the J = 8 window
            assert unit_sample_interpolant(dX, n * dX) == 0.0

    def test_half_spacing(self):
        dX = 0.4
        assert abs(unit_sample_interpolant(dX, dX / 2) - TWO_OVER_PI) < 1e-15

    def test_requires_positive_spacing(self):
        for dX in (0.0, -0.35):
            with pytest.raises(ConstraintError, match="delta_X must be positive"):
                PeriodicSamplingGrid(delta_X=dX, delta_x=0.0, P=0, J=8)


class TestSampleSignal:
    def test_values_match_vectorized_evaluate(self):
        spec, grid = spec_and_grid()
        samples = sample_signal(spec, grid)
        for k in range(grid.P + 1):
            expected = evaluate(spec, grid.coset_points(k))
            assert np.array_equal(samples.coset_row(k), expected)

    def test_far_field_decay(self):
        # lone unit atom at the origin: |f(x)| <= 1/(pi*2N*|x|)
        spec = MultiscaleSignalSpec(
            epsilon=0.1, N=1.0, M=0, bands={0: [SincAtom(0, 1.0)]}
        )
        grid = build_grid(0.5, 0.0, 0, 256)
        samples = sample_signal(spec, grid)
        for j in (64, 128, 256, -100, -256):
            x = grid.point(0, j)
            assert abs(samples.value(0, j)) <= 1 / (np.pi * 2 * abs(x)) + 1e-15

    def test_nyquist_sampling_of_sinc_is_delta(self):
        spec = MultiscaleSignalSpec(
            epsilon=0.1, N=1.0, M=0, bands={0: [SincAtom(0, 1.0)]}
        )
        grid = build_grid(0.5, 0.0, 0, 32)  # delta_X = 1/(2N)
        samples = sample_signal(spec, grid)
        expected = np.zeros(65, dtype=complex)
        expected[32] = 1.0
        assert np.array_equal(samples.values[0], expected)

    def test_invalid_grid_rejected(self):
        spec, _ = spec_and_grid()
        bad = build_grid(0.6, 0.03, 2, 8)
        with pytest.raises(ConstraintError, match="delta_X <= 1/"):
            sample_signal(spec, bad)

    def test_check_can_be_disabled(self):
        spec, _ = spec_and_grid()
        bad = build_grid(0.01, 0.0, 0, 8)  # full-rate uniform, P != 2M
        samples = sample_signal(spec, bad, check=False)
        assert samples.values.shape == (1, 17)


class TestInterpolationIdentity:
    def test_reproduces_every_stored_sample(self):
        spec, grid = spec_and_grid(seed=21, J=48)
        samples = sample_signal(spec, grid)
        worst = 0.0
        for k in range(grid.P + 1):
            xs = grid.coset_points(k)
            out = apply_coset_operator(samples, k, xs)
            stored = samples.coset_row(k)
            scale = np.abs(stored) + 1e-300
            worst = max(worst, float(np.max(np.abs(out - stored) / scale)))
        assert worst <= 1e-13

    def test_single_nonzero_sample_gives_kernel(self, rng):
        _, grid = spec_and_grid(J=16)
        values = np.zeros((3, 33), dtype=complex)
        values[1, 16] = 1.0  # (k=1, j=0)
        samples = SampleSet(grid, values)
        xs = rng.uniform(-4, 4, size=20)
        out = apply_coset_operator(samples, 1, xs)
        expected = sinc((xs - grid.delta_x) / grid.delta_X)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_coset_out_of_range(self):
        spec, grid = spec_and_grid(J=8)
        samples = sample_signal(spec, grid)
        with pytest.raises(ConstraintError):
            apply_coset_operator(samples, 3, 0.0)

    def test_classical_interpolation_matches_signal(self, rng, calibration):
        # M = 0 at the critical spacing: S_0 is plain cardinal interpolation
        spec = random_signal(seed=3, N=1.0, M=0, epsilon=0.05, atoms_per_band=2)
        grid = build_grid(0.5, 0.0, 0, 256)
        samples = sample_signal(spec, grid)
        xs = rng.uniform(-grid.J * grid.delta_X / 2, grid.J * grid.delta_X / 2, 25)
        out = apply_coset_operator(samples, 0, xs)
        truth = evaluate(spec, xs)
        scale = np.max(np.abs(truth))
        assert np.max(np.abs(out - truth)) <= calibration.tau(256) * scale


class TestFactoredKernel:
    """apply_coset_operator against a dense high-precision sinc sum."""

    @staticmethod
    def random_samples(seed, J):
        grid = build_grid(0.22, 0.03, 2, J)
        rng = np.random.default_rng(seed)
        shape = (grid.P + 1, 2 * J + 1)
        return SampleSet(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    @staticmethod
    def assert_matches_reference(samples, k, xs):
        out = apply_coset_operator(samples, k, xs)
        ref = hp_coset_interpolant(samples, k, xs)
        tol = 1e-13 * np.max(np.abs(samples.coset_row(k)))
        assert np.max(np.abs(out - ref)) <= tol

    @staticmethod
    def points(grid, k, u):
        return np.asarray(u) * grid.delta_X + k * grid.delta_x

    def test_random_points(self, rng):
        samples = self.random_samples(1, 64)
        half = samples.grid.J * samples.grid.delta_X
        for k in range(3):
            self.assert_matches_reference(samples, k, rng.uniform(-half, half, 30))

    def test_near_lattice_outside_snap_window(self, rng):
        # 1e-9 <= |u - j| <= 1e-8: the dense sinc's series branch
        samples = self.random_samples(2, 64)
        offsets = np.array([1.01e-9, 3e-9, 9.9e-9, -1.5e-9, -9e-9])
        for k in range(3):
            j = rng.integers(-64, 65, offsets.size)
            self.assert_matches_reference(samples, k, self.points(samples.grid, k, j + offsets))

    def test_snapped_points_return_stored_sample(self):
        samples = self.random_samples(3, 64)
        j = np.array([-64, -17, 0, 5, 64])
        offsets = np.array([0.0, 5e-10, -9e-10, 2e-10, -3e-10])
        for k in range(3):
            out = apply_coset_operator(samples, k, self.points(samples.grid, k, j + offsets))
            assert np.array_equal(out, samples.coset_row(k)[j + 64])

    def test_past_window(self):
        samples = self.random_samples(4, 64)
        snapped = np.array([65, -65, 200, -1000]) + np.array([0.0, 4e-10, -4e-10, 0.0])
        unsnapped = np.array([64.5, -65.3, 192.4, -320.1, 65 + 2e-9])
        for k in range(3):
            out = apply_coset_operator(samples, k, self.points(samples.grid, k, snapped))
            assert np.array_equal(out, np.zeros(snapped.size))
            self.assert_matches_reference(samples, k, self.points(samples.grid, k, unsnapped))

    @pytest.mark.parametrize("J", [64, 512])
    def test_window_edge(self, J):
        samples = self.random_samples(5, J)
        u = np.array([J - 0.5, J - 1e-3, J + 0.3, J + 1e-6, -J + 0.25, -J - 0.7])
        for k in (0, 2):
            self.assert_matches_reference(samples, k, self.points(samples.grid, k, u))

    def test_scalar_point(self):
        samples = self.random_samples(6, 64)
        x = float(self.points(samples.grid, 1, 3.7))
        out = apply_coset_operator(samples, 1, x)
        assert isinstance(out, complex)
        assert out == apply_coset_operator(samples, 1, np.array([x]))[0]
        ref = complex(hp_coset_interpolant(samples, 1, x)[0])
        assert abs(out - ref) <= 1e-13 * np.max(np.abs(samples.coset_row(1)))


class TestAliasingIdentity:
    def test_lower_branch_band_folds_with_phase(self, rng, calibration):
        # single occupied band, alias offset in [0, 1/(2dX) - N]: the
        # interpolant is the envelope times the folded carrier
        eps, N, dX, dx, J = 0.1, 1.0, 0.22, 0.03, 256
        spec = MultiscaleSignalSpec(
            epsilon=eps, N=N, M=1,
            bands={1: [SincAtom(0, 0.8 + 0.1j), SincAtom(1, -0.3 + 0.6j)]},
        )
        grid = build_grid(dX, dx, 2, J)
        samples = sample_signal(spec, grid)
        L, beta = alias_split(1, eps, dX)
        assert 0 <= beta <= 1 / (2 * dX)  # lower branch configuration
        xs = rng.uniform(-J * dX / 2, J * dX / 2, 30)
        for k in range(3):
            out = apply_coset_operator(samples, k, xs)
            cm = evaluate_coefficient(spec, 1, xs)
            pred = cm * np.exp(2j * np.pi * (beta * xs + (L / dX) * k * dx))
            scale = np.max(np.abs(cm))
            assert np.max(np.abs(out - pred)) <= calibration.tau(J) * scale

    def test_upper_branch_band_needs_centered_split(self, rng, calibration):
        # alpha > 1/(2dX): the surviving alias is the centered remainder
        eps, N, dX, dx, J = 0.1, 1.0, 0.22, 0.03, 256
        spec = MultiscaleSignalSpec(
            epsilon=eps, N=N, M=1, bands={-1: [SincAtom(0, 1.0 - 0.4j)]}
        )
        grid = build_grid(dX, dx, 2, J)
        samples = sample_signal(spec, grid)
        L_eff, beta = alias_split(-1, eps, dX)
        # the floor split, alpha in [0, 1/dX), lies past the half cell
        L_floor, alpha = L_eff - 1, beta + 1 / dX
        assert alpha > 1 / (2 * dX) and beta < 0  # upper branch configuration
        # points near the envelope center, where a wrong branch is O(1) off
        xs = rng.uniform(-2.0, 2.0, 30)
        k = 2
        out = apply_coset_operator(samples, k, xs)
        cm = evaluate_coefficient(spec, -1, xs)
        scale = np.max(np.abs(cm))
        pred_eff = cm * np.exp(2j * np.pi * (beta * xs + (L_eff / dX) * k * dx))
        pred_floor = cm * np.exp(2j * np.pi * (alpha * xs + (L_floor / dX) * k * dx))
        assert np.max(np.abs(out - pred_eff)) <= calibration.tau(J) * scale
        assert np.max(np.abs(out - pred_floor)) > 0.1 * scale

    def test_operator_linear_in_samples(self, rng):
        spec, grid = spec_and_grid(J=32)
        s1 = sample_signal(spec, grid)
        s2 = SampleSet(grid, s1.values[::-1].copy())  # reshuffled rows
        s_sum = SampleSet(grid, s1.values + s2.values)
        xs = rng.uniform(-3, 3, 12)
        for k in range(3):
            a = apply_coset_operator(s1, k, xs)
            b = apply_coset_operator(s2, k, xs)
            c = apply_coset_operator(s_sum, k, xs)
            np.testing.assert_allclose(c, a + b, atol=1e-13)


class TestParseval:
    def test_single_sample(self):
        _, grid = spec_and_grid(J=16)
        values = np.zeros((3, 33), dtype=complex)
        values[0, 16] = 2.0 - 1.0j
        samples = SampleSet(grid, values)
        lhs, rhs = coset_parseval_check(samples, 0)
        assert rhs == pytest.approx(grid.delta_X * 5.0, rel=1e-14)
        assert abs(lhs / rhs - 1) <= 1e-2

    def test_random_signal_row(self):
        spec, grid = spec_and_grid(seed=5, J=64)
        samples = sample_signal(spec, grid)
        lhs, rhs = coset_parseval_check(samples, 1)
        assert abs(lhs / rhs - 1) <= 1e-2

    def test_zero_row(self):
        _, grid = spec_and_grid(J=8)
        values = np.zeros((3, 17), dtype=complex)
        values[2, 3] = 1.0  # keep another coset nonzero
        samples = SampleSet(grid, values)
        lhs, rhs = coset_parseval_check(samples, 0)
        assert (lhs, rhs) == (0.0, 0.0)


@st.composite
def sample_sets(draw):
    """Valid grids with P 0..4 and J 1..20, carrying finite complex values."""
    P = draw(st.integers(0, 4))
    J = draw(st.integers(1, 20))
    delta_X = draw(st.floats(1e-3, 10.0))
    # a single coset has no second coset to carry delta_x in the CSV
    delta_x = 0.0 if P == 0 else draw(st.floats(0.01, 0.99)) * delta_X / P
    grid = build_grid(delta_X, delta_x, P, J)
    finite = st.complex_numbers(allow_nan=False, allow_infinity=False)
    n = grid.n_points
    values = draw(st.lists(finite, min_size=n, max_size=n))
    return SampleSet(grid, np.array(values).reshape(P + 1, 2 * J + 1))


class TestSampleCsv:
    def test_round_trip_exact(self, tmp_path):
        spec, grid = spec_and_grid(seed=9, J=12)
        samples = sample_signal(spec, grid)
        path = tmp_path / "samples.csv"
        samples_to_csv(samples, path)
        back = samples_from_csv(path)
        assert back.grid == grid
        assert np.array_equal(back.values, samples.values)

    @given(samples=sample_sets())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_exact_property(self, tmp_path_factory, samples):
        path = tmp_path_factory.mktemp("csv") / "samples.csv"
        samples_to_csv(samples, path)
        back = samples_from_csv(path)
        assert back.grid == samples.grid
        assert np.array_equal(back.values, samples.values)

    @given(
        samples=sample_sets(),
        edit=st.sampled_from(["duplicate", "drop", "move"]),
        shift=st.floats(2.0, 1e3) | st.floats(-1e3, -2.0),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_edited_row_rejected_property(
        self, tmp_path_factory, samples, edit, shift, data
    ):
        # a duplicated row, a dropped row, or an x moved off its lattice
        # point by more than the kernel's snap window
        path = tmp_path_factory.mktemp("csv") / "samples.csv"
        samples_to_csv(samples, path)
        lines = path.read_text().splitlines()
        row = data.draw(st.integers(1, len(lines) - 1))
        if edit == "duplicate":
            lines.append(lines[row])
        elif edit == "drop":
            del lines[row]
        else:
            k, j, x, re, im = lines[row].split(",")
            moved = float(x) + shift * _SINC_SNAP_TOL * samples.grid.delta_X
            lines[row] = ",".join([k, j, repr(moved), re, im])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConstraintError):
            samples_from_csv(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConstraintError, match="header"):
            samples_from_csv(path)

    def test_incomplete_grid_rejected(self, tmp_path):
        spec, grid = spec_and_grid(seed=9, J=4)
        samples = sample_signal(spec, grid)
        path = tmp_path / "samples.csv"
        samples_to_csv(samples, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ConstraintError, match="complete"):
            samples_from_csv(path)

    @pytest.mark.parametrize("grid", [build_grid(0.05, 0.0, 0, 5), build_grid(0.22, 0.03, 2, 12)])
    def test_round_trip_bytes_identical(self, tmp_path, grid):
        spec, _ = spec_and_grid(seed=9)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        samples_to_csv(sample_signal(spec, grid, check=False), first)
        samples_to_csv(samples_from_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_duplicated_row_rejected(self, tmp_path):
        spec, grid = spec_and_grid(seed=9, J=4)
        path = tmp_path / "samples.csv"
        samples_to_csv(sample_signal(spec, grid), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[7]]) + "\n")
        with pytest.raises(ConstraintError, match="repeats the row k=0, j=2"):
            samples_from_csv(path)

    @pytest.mark.parametrize("row, shift", [(7, 1e-6), (20, -3e-8), (1, 0.5)])
    def test_off_grid_x_rejected(self, tmp_path, row, shift):
        spec, grid = spec_and_grid(seed=9, J=4)
        path = tmp_path / "samples.csv"
        samples_to_csv(sample_signal(spec, grid), path)
        lines = path.read_text().splitlines()
        k, j, x, re, im = lines[row].split(",")
        lines[row] = ",".join([k, j, repr(float(x) + shift * grid.delta_X), re, im])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConstraintError, match="off the grid"):
            samples_from_csv(path)

    @pytest.mark.parametrize("field", ["x", "1.5", ""])
    def test_malformed_field_rejected(self, tmp_path, field):
        spec, grid = spec_and_grid(seed=9, J=4)
        path = tmp_path / "samples.csv"
        samples_to_csv(sample_signal(spec, grid), path)
        lines = path.read_text().splitlines()
        lines[3] = ",".join([field] + lines[3].split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConstraintError, match="line 4 is malformed"):
            samples_from_csv(path)

    @given(samples=sample_sets())
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_reference_writer_property(self, tmp_path_factory, samples):
        folder = tmp_path_factory.mktemp("csv")
        samples_to_csv(samples, folder / "samples.csv")
        reference_samples_csv(samples, folder / "reference.csv")
        assert (folder / "samples.csv").read_bytes() == (folder / "reference.csv").read_bytes()

    @pytest.mark.parametrize("edit", [lambda r: r + ",0", lambda r: r.rsplit(",", 1)[0]])
    def test_wrong_field_count_rejected(self, tmp_path, edit):
        # a sixth field or a missing fifth, on the fifth line
        spec, grid = spec_and_grid(seed=9, J=4)
        path = tmp_path / "samples.csv"
        samples_to_csv(sample_signal(spec, grid), path)
        lines = path.read_text().splitlines()
        lines[4] = edit(lines[4])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConstraintError, match="line 5 is malformed"):
            samples_from_csv(path)

    def test_comment_row_malformed(self, tmp_path):
        spec, grid = spec_and_grid(seed=9, J=4)
        path = tmp_path / "samples.csv"
        samples_to_csv(sample_signal(spec, grid), path)
        lines = path.read_text().splitlines()
        lines[2] = "#" + lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConstraintError, match="line 3 is malformed"):
            samples_from_csv(path)

    @pytest.mark.parametrize("body", ["", "\r\n", "\n\r\n\n"])
    def test_header_only_has_no_rows(self, tmp_path, body):
        path = tmp_path / "samples.csv"
        path.write_bytes(b"k,j,x,re,im\r\n" + body.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstraintError, match="contains no rows"):
                samples_from_csv(path)

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_bytes(b"")
        with pytest.raises(ConstraintError, match="header"):
            samples_from_csv(path)

    def test_first_repeat_in_file_order(self, tmp_path):
        spec, grid = spec_and_grid(seed=9, J=4)
        path = tmp_path / "samples.csv"
        samples_to_csv(sample_signal(spec, grid), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[7], lines[3]]) + "\n")
        with pytest.raises(ConstraintError, match="repeats the row k=0, j=2"):
            samples_from_csv(path)

    def test_repeat_before_malformed_line_reported_first(self, tmp_path):
        spec, grid = spec_and_grid(seed=9, J=4)
        path = tmp_path / "samples.csv"
        samples_to_csv(sample_signal(spec, grid), path)
        lines = path.read_text().splitlines()
        lines[5] = lines[4]
        lines[9] = "x" + lines[9]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConstraintError, match="repeats the row k=0, j=-1"):
            samples_from_csv(path)

    @pytest.mark.parametrize(
        "k, message",
        [("99999999999999999999", "line 7 is malformed"), ("1000000000000", "not a complete")],
    )
    def test_far_coset_index_rejected(self, tmp_path, k, message):
        # past int64 the row is malformed; inside it the grid is incomplete,
        # found without building the (P+1) x (2J+1) index set
        spec, grid = spec_and_grid(seed=9, J=4)
        path = tmp_path / "samples.csv"
        samples_to_csv(sample_signal(spec, grid), path)
        lines = path.read_text().splitlines()
        lines[6] = ",".join([k] + lines[6].split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConstraintError, match=message):
            samples_from_csv(path)

    def test_python_number_spellings_read_as_before(self, tmp_path):
        # lone CR line ends and digit separators, which int and float accept
        spec, grid = spec_and_grid(seed=9, J=4)
        samples = sample_signal(spec, grid)
        path = tmp_path / "samples.csv"
        samples_to_csv(samples, path)
        lines = path.read_text().splitlines()
        k, j, x, re, im = lines[3].split(",")
        lines[3] = ",".join([k, j, x, "1_000.5", im])
        path.write_bytes("\r".join(lines).encode() + b"\r")
        back = samples_from_csv(path)
        expected = samples.values.copy()
        expected[0, 2] = complex(1000.5, expected[0, 2].imag)
        assert back.grid == grid
        assert np.array_equal(back.values, expected)


def test_writer_formats_each_cell_by_type(tmp_path):
    # ints and empty cells as str, floats (numpy scalars too) at 17 digits
    columns = [
        [1, 2, 3],
        np.array([0.1, -0.0, 1e-300]),
        [np.float64(2 / 3), "", 7.0],
        ["", "", ""],
        np.array([4, 5, 6]),
    ]
    _write_csv(tmp_path / "out.csv", ["a", "b", "c", "d", "e"], columns)
    with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["a", "b", "c", "d", "e"])
        for row in zip(*columns):
            w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
