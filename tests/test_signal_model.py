"""Tests for the exact multiscale signal representation."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msamp import (
    ConstraintError,
    MultiscaleSignalSpec,
    SincAtom,
    evaluate,
    evaluate_coefficient,
    load_spec,
    random_signal,
    save_spec,
    sinc,
    spec_from_dict,
    spec_to_dict,
    spectral_support,
    total_energy,
)
from msamp.oracle import l2_norm_quadrature, random_valid_pair
from msamp.signal_model import _EVAL_BLOCK

from conftest import hp_coefficient, hp_evaluate, hp_sinc

TWO_OVER_PI = 0.63661977236758134308  # 2/pi at 20 digits


def make_spec(bands, N=1.0, M=1, epsilon=0.1):
    return MultiscaleSignalSpec(epsilon=epsilon, N=N, M=M, bands=bands)


# floats that are not integers, nan and the infinities included
non_integral = st.floats().filter(lambda v: not v.is_integer())


@st.composite
def random_specs(draw):
    N = draw(st.floats(0.1, 10.0))
    epsilon = draw(st.floats(1e-3, 0.9 / (2 * N)))
    M = draw(st.integers(0, 4))
    amplitude = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)
    atoms = st.lists(st.tuples(st.integers(-50, 50), amplitude), max_size=4)
    bands = draw(st.dictionaries(st.integers(-M, M), atoms, min_size=1))
    assume(any(a != 0 for band in bands.values() for _, a in band))
    return MultiscaleSignalSpec(epsilon=epsilon, N=N, M=M, bands=bands)


class TestSinc:
    def test_exact_at_zero(self):
        assert sinc(0.0) == 1.0

    def test_exact_at_nonzero_integers(self):
        for n in (1, -1, 2, 17, -300):
            assert sinc(float(n)) == 0.0

    def test_half(self):
        assert abs(sinc(0.5) - TWO_OVER_PI) < 1e-15

    def test_near_integer_snap(self):
        assert sinc(3.0 + 1e-12) == 0.0
        assert sinc(-7.0 - 1e-13) == 0.0

    def test_tiny_argument_series(self):
        assert sinc(1e-10) == 1.0  # series term below double resolution
        u = 5e-9
        assert abs(sinc(u) - (1.0 - (math.pi * u) ** 2 / 6)) == 0.0

    def test_matches_high_precision(self, rng):
        u = rng.uniform(-20, 20, size=200)
        vals = sinc(u)
        for ui, vi in zip(u, vals):
            assert abs(vi - float(hp_sinc(ui))) < 1e-14

    def test_array_shape(self):
        out = sinc(np.zeros((3, 4)))
        assert out.shape == (3, 4)
        assert np.all(out == 1.0)


class TestSpecValidation:
    def test_atom_rejects_nan(self):
        with pytest.raises(ConstraintError):
            SincAtom(0, complex(float("nan"), 0))

    def test_band_overlap_rejected(self):
        with pytest.raises(ConstraintError, match="2N"):
            make_spec({0: [SincAtom(0, 1.0)]}, N=1.0, epsilon=0.6)

    def test_band_index_out_of_range(self):
        with pytest.raises(ConstraintError):
            make_spec({2: [SincAtom(0, 1.0)]}, M=1)

    def test_all_zero_rejected(self):
        with pytest.raises(ConstraintError, match="degenerate"):
            make_spec({0: [SincAtom(0, 0.0)], 1: [SincAtom(1, 0.0)]})

    def test_non_integral_center_index_rejected(self):
        with pytest.raises(ConstraintError, match="center_index = 2.9"):
            SincAtom(2.9, 1.0)
        with pytest.raises(ConstraintError, match="center_index = 2.9"):
            make_spec({0: [(2.9, 1.0)]})

    def test_non_integral_M_rejected(self):
        with pytest.raises(ConstraintError, match="M = 1.7"):
            make_spec({0: [(2, 1.0)]}, M=1.7)

    def test_non_integral_band_index_rejected(self):
        with pytest.raises(ConstraintError, match="band index = 0.6"):
            make_spec({0.6: [(2, 1.0)]})

    def test_integral_floats_and_numpy_integers_accepted(self):
        spec = make_spec({1.0: [(2.0, 1.0)], np.int64(-1): [(np.int32(3), 1j)]}, M=np.int64(1))
        assert spec.M == 1 and type(spec.M) is int
        assert spec.bands == {1: (SincAtom(2, 1.0),), -1: (SincAtom(3, 1j),)}
        assert all(type(m) is int for m in spec.bands)
        assert all(type(a.center_index) is int for a in spec.bands[-1] + spec.bands[1])

    @given(value=non_integral)
    @settings(max_examples=50, deadline=None)
    def test_every_non_integral_M_m_j_rejected(self, value):
        with pytest.raises(ConstraintError, match="not an integer"):
            make_spec({0: [(0, 1.0)]}, M=value)
        with pytest.raises(ConstraintError, match="not an integer"):
            make_spec({value: [(0, 1.0)]}, M=3)
        with pytest.raises(ConstraintError, match="not an integer"):
            SincAtom(value, 1.0)


class TestEvaluateCoefficient:
    def test_single_atom_at_center(self):
        spec = make_spec({0: [SincAtom(0, 1.0)]}, M=0)
        assert evaluate_coefficient(spec, 0, 0.0) == 1.0 + 0.0j

    def test_zero_at_other_grid_points(self):
        spec = make_spec({0: [SincAtom(0, 1.0)]}, M=0, N=1.0)
        assert evaluate_coefficient(spec, 0, 1 / 2.0) == 0.0 + 0.0j

    def test_two_atom_value_vs_high_precision(self):
        # a = 1 at j=0 plus a = 2i at j=1, N=1, x=0.25:
        # value = sinc(0.5) + 2i*sinc(-0.5) = (2/pi)*(1 + 2i)
        spec = make_spec({0: [SincAtom(0, 1.0), SincAtom(1, 2.0j)]}, M=0)
        got = evaluate_coefficient(spec, 0, 0.25)
        expected = TWO_OVER_PI * (1 + 2j)
        assert abs(got - expected) < 1e-15
        assert abs(got - hp_coefficient(spec, 0, 0.25)) < 1e-15

    def test_band_out_of_range(self):
        spec = make_spec({0: [SincAtom(0, 1.0)]}, M=1)
        with pytest.raises(ConstraintError):
            evaluate_coefficient(spec, 2, 0.0)

    def test_vectorized_agrees_with_scalar(self, rng):
        spec = random_signal(seed=3, N=1.5, M=2, epsilon=0.05, atoms_per_band=3)
        xs = rng.uniform(-3, 3, size=16)
        vec = evaluate_coefficient(spec, 1, xs)
        for i, x in enumerate(xs):
            assert vec[i] == evaluate_coefficient(spec, 1, float(x))


class TestEvaluate:
    def test_single_band_equals_coefficient(self, rng):
        spec = make_spec({0: [SincAtom(0, 0.7 - 0.2j), SincAtom(2, 1.1j)]}, M=0)
        for x in rng.uniform(-5, 5, size=10):
            assert evaluate(spec, x) == evaluate_coefficient(spec, 0, x)

    def test_carrier_is_unity_at_origin(self):
        spec = make_spec({1: [SincAtom(0, 1.0)]}, M=1, epsilon=0.1)
        assert evaluate(spec, 0.0) == 1.0 + 0.0j

    def test_three_band_value_vs_high_precision(self):
        spec = make_spec(
            {
                -1: [SincAtom(0, 0.4 + 0.1j)],
                0: [SincAtom(1, 1.0)],
                1: [SincAtom(-1, -0.3 + 0.8j)],
            },
            N=1.0,
            M=1,
            epsilon=0.1,
        )
        got = evaluate(spec, 0.3)
        assert abs(got - hp_evaluate(spec, 0.3)) < 1e-13

    @given(
        scale=st.complex_numbers(
            min_magnitude=0.1, max_magnitude=5, allow_nan=False, allow_infinity=False
        ),
        x=st.floats(-10, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity_in_atom_amplitudes(self, scale, x):
        base = {0: [SincAtom(0, 1.0)], 1: [SincAtom(1, 0.5 - 0.5j)]}
        scaled = {
            m: [SincAtom(a.center_index, scale * a.amplitude) for a in atoms]
            for m, atoms in base.items()
        }
        s1 = make_spec(base)
        s2 = make_spec(scaled)
        v1, v2 = evaluate(s1, x), evaluate(s2, x)
        assert abs(v2 - scale * v1) <= 1e-12 * max(1.0, abs(v2))

    def test_sum_of_specs_is_sum_of_values(self, rng):
        a = random_signal(seed=1, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        b = random_signal(seed=2, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        merged = {
            m: tuple(a.band(m)) + tuple(b.band(m)) for m in range(-1, 2)
        }
        s = make_spec(merged)
        for x in rng.uniform(-4, 4, size=12):
            tot = evaluate(a, x) + evaluate(b, x)
            assert abs(evaluate(s, x) - tot) < 1e-13

    def test_conjugate_symmetric_spec_is_real(self, rng):
        atoms = {
            1: [SincAtom(0, 0.3 + 0.7j), SincAtom(1, -0.2 + 0.1j)],
            0: [SincAtom(0, 1.0)],
        }
        atoms[-1] = [
            SincAtom(a.center_index, a.amplitude.conjugate()) for a in atoms[1]
        ]
        spec = make_spec(atoms, M=1)
        xs = rng.uniform(-5, 5, size=40)
        vals = evaluate(spec, xs)
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(vals.imag)) <= 1e-12 * scale


def evaluation_scale(spec, x):
    """1e-15 * sum|a| * (1 + M|x|/epsilon): the allowed error of evaluate at x."""
    total = sum(abs(a.amplitude) for atoms in spec.bands.values() for a in atoms)
    return 1e-15 * total * (1 + spec.M * np.abs(x) / spec.epsilon)


class TestFactoredEvaluate:
    """The factored kernel (one sine and one carrier exponential per point)
    against the term-by-term 50-digit hp_evaluate."""

    def assert_close(self, spec, xs):
        xs = np.asarray(xs, dtype=float)
        got = evaluate(spec, xs)
        want = np.array([hp_evaluate(spec, float(x)) for x in xs])
        assert np.all(np.abs(got - want) <= evaluation_scale(spec, xs))

    # (plan index, M) of the J = 512 pairs of the benchmark's campaign plan
    @pytest.mark.parametrize("k, M", [(3, 0), (7, 1), (11, 2), (15, 3)])
    def test_random_points_of_plan_pairs(self, k, M):
        spec, grid = random_valid_pair(np.random.default_rng([20240601, k]), J=512, M_choices=(M,))
        assert spec.M == M and grid.J == 512
        half = grid.J * grid.delta_X
        self.assert_close(spec, np.random.default_rng(k).uniform(-half, half, 40))

    def test_taylor_window_off_the_lattice(self, rng):
        spec = random_signal(seed=5, N=1.5, M=2, epsilon=0.05, atoms_per_band=3)
        j = rng.integers(-6, 7, 40)
        off = rng.uniform(1e-9, 1e-8, 40) * rng.choice([-1.0, 1.0], 40)
        self.assert_close(spec, (j + off) / (2 * spec.N))

    def test_snapped_points_give_the_atoms_at_the_centre(self, rng):
        spec = random_signal(seed=6, N=1.5, M=2, epsilon=0.05, atoms_per_band=3)
        for r in range(-5, 6):
            x = r / (2 * spec.N) + rng.uniform(-1e-10, 1e-10)
            at_r = {
                m: sum(a.amplitude for a in spec.band(m) if a.center_index == r)
                for m in spec.band_indices()
            }
            for m, c in at_r.items():
                assert evaluate_coefficient(spec, m, x) == c
            with mpmath.workdps(50):
                phase = 2j * mpmath.pi * mpmath.mpf(x) / mpmath.mpf(spec.epsilon)
                want = complex(sum(mpmath.mpc(c) * mpmath.exp(m * phase) for m, c in at_r.items()))
            assert abs(evaluate(spec, x) - want) <= evaluation_scale(spec, x)

    def test_atoms_sharing_a_centre(self, rng):
        spec = make_spec(
            {
                0: [(1, 0.5 - 0.25j), (1, -0.75j), (-2, 1.0)],
                1: [(0, 0.3), (0, -0.3), (2, 0.2j)],
                -1: [(2, 1.0), (2, 1.0), (-1, 0.4 - 0.1j)],
            }
        )
        self.assert_close(spec, rng.uniform(-20, 20, 40))
        assert evaluate_coefficient(spec, 0, 0.5) == (0.5 - 0.25j) + -0.75j
        assert evaluate_coefficient(spec, 1, 0.0) == 0
        assert evaluate_coefficient(spec, -1, 1.0) == 2.0

    def test_scalar_and_2d_input(self, rng):
        spec = random_signal(seed=7, N=1.0, M=3, epsilon=0.02, atoms_per_band=2)
        xs = rng.uniform(-30, 30, (3, 5))
        vals = evaluate(spec, xs)
        assert vals.shape == (3, 5)
        assert np.array_equal(vals.ravel(), evaluate(spec, xs.ravel()))
        self.assert_close(spec, xs.ravel())
        x0 = float(xs[1, 2])
        assert isinstance(evaluate(spec, x0), complex)
        assert evaluate(spec, x0) == vals[1, 2]
        coeffs = evaluate_coefficient(spec, -2, xs)
        assert coeffs.shape == (3, 5)
        assert evaluate_coefficient(spec, -2, x0) == coeffs[1, 2]
        assert abs(coeffs[1, 2] - hp_coefficient(spec, -2, x0)) <= evaluation_scale(spec, 0.0)

    def test_blocks_match_per_point_calls(self, rng):
        spec = random_signal(seed=8, N=2.0, M=3, epsilon=0.03, atoms_per_band=3)
        xs = rng.uniform(-50, 50, 3 * _EVAL_BLOCK + 17)
        xs[::97] = np.rint(xs[::97] * 2 * spec.N) / (2 * spec.N)  # snapped points
        vals = evaluate(spec, xs)
        edges = [b * _EVAL_BLOCK + d for b in range(1, 4) for d in (-1, 0, 1)]
        picks = np.concatenate([[0, xs.size - 1], edges, np.arange(0, xs.size, 97)[:50],
                                rng.integers(0, xs.size, 150)])
        for i in picks:
            assert vals[i] == evaluate(spec, float(xs[i]))


class TestSpectralSupport:
    def test_three_bands(self):
        spec = make_spec({0: [SincAtom(0, 1.0)]}, N=1.0, M=1, epsilon=0.1)
        ivs = spectral_support(spec).intervals
        assert ivs == ((-11.0, -9.0), (-1.0, 1.0), (9.0, 11.0))

    def test_single_band(self):
        spec = make_spec({0: [SincAtom(0, 1.0)]}, N=2.5, M=0, epsilon=0.05)
        assert spectral_support(spec).intervals == ((-2.5, 2.5),)

    def test_five_bands_width_four(self):
        spec = make_spec({0: [SincAtom(0, 1.0)]}, N=2.0, M=2, epsilon=0.05)
        ivs = spectral_support(spec).intervals
        assert len(ivs) == 5
        centers = [(lo + hi) / 2 for lo, hi in ivs]
        widths = [hi - lo for lo, hi in ivs]
        assert centers == [-40.0, -20.0, 0.0, 20.0, 40.0]
        assert all(w == 4.0 for w in widths)

    def test_total_measure(self):
        spec = make_spec({0: [SincAtom(0, 1.0)]}, N=1.0, M=1, epsilon=0.1)
        assert spectral_support(spec).total_measure() == pytest.approx(6.0, abs=1e-12)


class TestRandomSignal:
    def test_deterministic(self):
        a = random_signal(seed=11, N=1.0, M=2, epsilon=0.05, atoms_per_band=3)
        b = random_signal(seed=11, N=1.0, M=2, epsilon=0.05, atoms_per_band=3)
        assert a == b

    def test_single_band_when_M_zero(self):
        spec = random_signal(seed=5, N=1.0, M=0, epsilon=0.1, atoms_per_band=2)
        assert list(spec.bands) == [0]

    def test_generator_output_is_valid(self):
        for seed in range(10):
            spec = random_signal(seed=seed, N=2.0, M=1, epsilon=0.05, atoms_per_band=2)
            assert spec.M == 1 and 2 * spec.N < 1 / spec.epsilon
            assert all(
                abs(a.amplitude) <= 1.0 for at in spec.bands.values() for a in at
            )
            assert any(
                a.amplitude != 0 for at in spec.bands.values() for a in at
            )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConstraintError):
            random_signal(seed=0, N=1.0, M=1, epsilon=0.1, atoms_per_band=0)
        with pytest.raises(ConstraintError):
            random_signal(seed=0, N=1.0, M=1, epsilon=0.6, atoms_per_band=1)


class TestTotalEnergy:
    def test_single_atom(self):
        spec = make_spec({0: [SincAtom(0, 2.0)]}, N=1.0, M=0)
        assert total_energy(spec) == pytest.approx(4.0 / 2.0, rel=1e-15)

    def test_duplicate_centers_merge(self):
        spec = make_spec({0: [SincAtom(0, 1.0), SincAtom(0, -1.0), SincAtom(1, 1.0)]}, M=0)
        assert total_energy(spec) == pytest.approx(0.5, rel=1e-15)

    def test_matches_quadrature(self):
        spec = random_signal(seed=8, N=1.0, M=1, epsilon=0.1, atoms_per_band=1)
        w = 400.0
        q = l2_norm_quadrature(lambda x: evaluate(spec, x), (-w, w), 0.002)
        assert q == pytest.approx(total_energy(spec), rel=2e-2)


class TestSerialization:
    def test_round_trip_lossless(self):
        spec = random_signal(seed=13, N=1.25, M=2, epsilon=0.031, atoms_per_band=3)
        again = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert again == spec

    @given(spec=random_specs())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_of_random_specs(self, spec):
        assert spec_from_dict(spec_to_dict(spec)) == spec
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec

    def test_wire_schema(self):
        spec = make_spec({0: [SincAtom(0, 1.0)], 1: [SincAtom(-1, 2.0j)]})
        d = spec_to_dict(spec)
        assert set(d) == {"epsilon", "N", "M", "bands"}
        assert d["bands"][0]["m"] == 0
        assert d["bands"][1]["atoms"] == [{"j": -1, "re": 0.0, "im": 2.0}]

    def test_file_round_trip(self, tmp_path):
        spec = random_signal(seed=4, N=0.75, M=1, epsilon=0.09, atoms_per_band=2)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec
