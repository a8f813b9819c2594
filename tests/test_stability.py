"""Tests for stability constants, Gautschi bounds, and measured ratios."""

import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest

from msamp import (
    ConstraintError,
    MultiscaleSignalSpec,
    SincAtom,
    SingularSystemError,
    build_grid,
    build_vandermonde,
    gautschi_bounds,
    measured_stability_ratio,
    node_gap_audit,
    random_signal,
    random_valid_pair,
    sample_signal,
    stability_constant,
    stability_report,
    two_band_stability_constant,
    total_energy,
    vandermonde_inverse_norm,
)
from msamp.oracle import quadrature_stability_ratio

# (1/2) * sin(pi*(1/0.1 - 1/0.35)*0.03)**-2 at 20 digits (mpmath, exact
# IEEE inputs)
PINNED_C = 1.2862082642155814164


class TestStabilityConstant:
    def test_classical_case_ignores_micro_spacing(self):
        for dx in (0.0, 0.01, 0.3):
            assert stability_constant(1.0, 0, 0.05, 0.4, dx) == 0.5
        assert stability_constant(2.0, 0, 0.05, 0.2, 0.01) == 0.25

    def test_pinned_value_vs_high_precision(self):
        got = stability_constant(1.0, 1, 0.1, 0.35, 0.03)
        assert got == pytest.approx(PINNED_C, rel=1e-13)
        with mpmath.workdps(40):
            arg = (1 / mpmath.mpf(0.1) - 1 / mpmath.mpf(0.35)) * mpmath.mpf(0.03)
            oracle = mpmath.mpf(0.5) / mpmath.sin(mpmath.pi * arg) ** 2
        assert got == pytest.approx(float(oracle), rel=1e-13)

    def test_two_band_constant_minimal_at_half(self):
        assert two_band_stability_constant(1.0, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert two_band_stability_constant(2.0, 0.5) == pytest.approx(0.25, abs=1e-15)
        for r in (0.1, 0.25, 0.4, 0.49):
            assert two_band_stability_constant(1.0, r) > 0.5

    def test_domain_errors(self):
        with pytest.raises(ConstraintError):
            stability_constant(1.0, 1, 0.1, 0.35, 0.2)  # sine argument > 1/2
        with pytest.raises(ConstraintError):
            two_band_stability_constant(1.0, 0.0)
        with pytest.raises(ConstraintError):
            two_band_stability_constant(1.0, 1.0)

    def test_strictly_decreasing_in_micro_spacing(self):
        N, M, eps, dX = 1.0, 2, 0.05, 0.3
        cap = eps / (2 * M + 1)
        values = [
            stability_constant(N, M, eps, dX, r * cap)
            for r in np.linspace(0.05, 1.0, 40)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestGautschiBounds:
    def test_single_node_empty_product(self):
        assert gautschi_bounds(np.array([1.0 + 0j])) == (1.0, 1.0)

    def test_two_antipodal_nodes(self):
        lower, upper = gautschi_bounds(np.array([1.0 + 0j, -1.0 + 0j]))
        assert lower == pytest.approx(0.5, abs=1e-15)
        assert upper == pytest.approx(1.0, abs=1e-15)

    def test_three_node_bracket_vs_explicit_inverse(self):
        nodes = np.array([1.0 + 0j, 1.0j, -1.0j])
        lower, upper = gautschi_bounds(nodes)
        norm = vandermonde_inverse_norm(nodes)
        # high-precision explicit inverse gives 1.2071067811865475244
        assert norm == pytest.approx(1.2071067811865475244, rel=1e-13)
        assert lower <= norm <= upper

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(SingularSystemError):
            gautschi_bounds(np.array([1.0 + 0j, 1.0 + 0j]))


class TestInverseNorm:
    def test_trivial_system(self):
        assert vandermonde_inverse_norm(np.array([1.0 + 0j])) == 1.0

    def test_two_by_two_closed_form(self):
        for theta in np.linspace(0.02, 0.98, 25):
            nodes = np.array([1.0, np.exp(2j * np.pi * theta)])
            norm = vandermonde_inverse_norm(nodes)
            assert norm == pytest.approx(
                1 / abs(math.sin(math.pi * theta)), rel=1e-12
            )

    def test_sandwich_over_random_systems(self):
        for seed in range(60):
            spec, grid = random_valid_pair(seed, J=8)
            V = build_vandermonde(spec, grid)
            norm = vandermonde_inverse_norm(V.nodes)
            lower, upper = gautschi_bounds(V.nodes)
            assert lower <= norm * (1 + 1e-12)
            assert norm <= upper * (1 + 1e-12)
            # analytic worst-case bounds in terms of the grid parameters
            arg = (1 / spec.epsilon - 1 / grid.delta_X) * grid.delta_x
            cap = math.sin(math.pi * arg) ** (-2 * spec.M) if spec.M else 1.0
            assert 2.0 ** (-2 * spec.M) <= norm * (1 + 1e-12)
            assert norm <= cap * (1 + 1e-12)

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularSystemError):
            vandermonde_inverse_norm(np.array([1.0 + 0j, 1.0 + 0j]))


class TestNodeGapAudit:
    def test_single_band_trivial(self):
        grid = build_grid(0.4, 0.0, 0, 8)
        V = build_vandermonde((1.0, 0, 0.05), grid)
        audit = node_gap_audit(V, 0.05)
        assert audit.checks == () and audit.all_pass

    def test_three_band_case(self):
        eps, dX, dx = 0.1, 0.35, 0.03
        grid = build_grid(dX, dx, 2, 8)
        V = build_vandermonde((1.0, 1, eps), grid)
        audit = node_gap_audit(V, eps)
        assert len(audit.checks) == 3  # two adjacent + wraparound
        assert audit.all_pass
        assert audit.lower_bound == pytest.approx(
            2 * math.sin(math.pi * (1 / eps - 1 / dX) * dx), rel=1e-13
        )
        pairs = [c.band_pair for c in audit.checks]
        assert (1, -1) in pairs  # wraparound pair

    def test_gap_values_match_direct_arithmetic(self):
        eps, dX, dx = 0.1, 0.35, 0.03
        grid = build_grid(dX, dx, 2, 8)
        V = build_vandermonde((1.0, 1, eps), grid)
        audit = node_gap_audit(V, eps)
        by_pair = {c.band_pair: c.gap for c in audit.checks}
        w = dict(zip(V.band_indices, V.nodes))
        for (a, b), gap in by_pair.items():
            assert gap == pytest.approx(abs(w[a] - w[b]), rel=1e-12)

    def test_random_campaign_zero_violations(self):
        for seed in range(200):
            spec, grid = random_valid_pair(seed, J=8)
            V = build_vandermonde(spec, grid)
            audit = node_gap_audit(V, spec.epsilon)
            assert audit.all_pass


class TestMeasuredRatio:
    def test_critically_sampled_sinc_matches_parseval(self):
        # lone Nyquist-grid atom at the critical spacing: all off-center
        # samples vanish, so the ratio approaches delta_X = 1/(2N)
        spec = MultiscaleSignalSpec(
            epsilon=0.05, N=1.0, M=0, bands={0: [SincAtom(0, 1.0)]}
        )
        grid = build_grid(0.5, 0.0, 0, 256)
        ratio = measured_stability_ratio(spec, grid)
        assert ratio == pytest.approx(0.5, abs=1e-2)

    def test_scale_invariance(self):
        spec = random_signal(seed=4, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        scaled = MultiscaleSignalSpec(
            epsilon=spec.epsilon,
            N=spec.N,
            M=spec.M,
            bands={
                m: [SincAtom(a.center_index, 7 * a.amplitude) for a in atoms]
                for m, atoms in spec.bands.items()
            },
        )
        grid = build_grid(0.22, 0.03, 2, 64)
        r1 = measured_stability_ratio(spec, grid)
        r2 = measured_stability_ratio(scaled, grid)
        assert abs(r1 - r2) <= 1e-12 * r1

    def test_bounded_by_stability_constant(self):
        for seed in range(20):
            spec, grid = random_valid_pair(seed, J=128)
            ratio = measured_stability_ratio(spec, grid)
            C = stability_constant(
                spec.N, spec.M, spec.epsilon, grid.delta_X, grid.delta_x
            )
            assert ratio <= C * 1.05


def _straddling_pair():
    """Bands +-1 fold across the cell edge at delta_X = 0.42."""
    spec = random_signal(seed=3, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
    return spec, build_grid(0.42, 0.03, 2, 64)


class TestExactSampleEnergy:
    """measured_stability_ratio is exact on the untruncated grid."""

    def test_matches_brute_force_sum(self):
        spec5 = random_signal(seed=5, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        cases = [random_valid_pair(seed, J=64) for seed in range(2000, 2006)]
        cases.append(_straddling_pair())
        # P != 2M: the coset phases have P + 1 rows, not 2M + 1
        cases.append((spec5, build_grid(0.22, 0.03, 4, 64)))
        cases.append((spec5, build_grid(0.22, 0.0, 0, 64)))
        spec, grid = _straddling_pair()
        assert build_vandermonde(spec, grid).straddling_bands == (-1, 1)
        for spec, grid in cases:
            wide = build_grid(grid.delta_X, grid.delta_x, grid.P, 2**15)
            brute = sample_signal(spec, wide, check=False).total_sample_energy()
            ratio = measured_stability_ratio(spec, grid)
            assert ratio == pytest.approx(total_energy(spec) / brute, rel=2e-4)

    def test_equals_delta_X_at_M_0(self):
        for seed in range(10):
            spec, grid = random_valid_pair(seed, J=64, M_choices=(0,))
            ratio = measured_stability_ratio(spec, grid)
            assert ratio == pytest.approx(grid.delta_X, rel=1e-14)

    def test_within_frame_bounds(self):
        for seed in range(20):
            spec, grid = random_valid_pair(seed, J=64)
            sv = np.linalg.svd(build_vandermonde(spec, grid).matrix, compute_uv=False)
            ratio = measured_stability_ratio(spec, grid)
            assert grid.delta_X / sv[0] ** 2 * (1 - 1e-12) <= ratio
            assert ratio <= grid.delta_X / sv[-1] ** 2 * (1 + 1e-12)

    def test_quadrature_agrees_within_truncation(self):
        for J in (64, 256):
            for seed in range(20):
                spec, grid = random_valid_pair(seed, J=J)
                exact = measured_stability_ratio(spec, grid)
                assert quadrature_stability_ratio(spec, grid) == pytest.approx(
                    exact, rel=0.2 / J
                )


class TestStabilityReport:
    def test_fields_and_invariants(self):
        spec = random_signal(seed=3, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        grid = build_grid(0.22, 0.03, 2, 64)
        rep = stability_report(spec, grid)
        assert rep.gautschi_lower <= rep.vinv_norm <= rep.gautschi_upper
        assert rep.measured_ratio <= rep.C_theoretical * 1.05
        assert rep.landau_rate == (2 * spec.M + 1) * 2 * spec.N
        assert rep.beurling_density == pytest.approx(3 / 0.22, rel=1e-15)
        assert rep.nyquist_rate == 22.0
        assert rep.min_node_gap > 0

    def test_json_round_trip(self):
        spec = random_signal(seed=3, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        grid = build_grid(0.22, 0.03, 2, 32)
        rep = stability_report(spec, grid)
        d = json.loads(json.dumps(dataclasses.asdict(rep)))
        assert d["parameters"]["P"] == 2
        assert d["vinv_norm"] == rep.vinv_norm

    def test_refuses_grid_failing_constraints(self):
        spec = random_signal(seed=5, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
        # delta_X > 1/(2N), then P != 2M
        for grid in (build_grid(0.7, 0.03, 2, 8), build_grid(0.22, 0.03, 4, 8)):
            with pytest.raises(ConstraintError, match="fails reconstruction constraints"):
                stability_report(spec, grid)
