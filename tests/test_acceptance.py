"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The randomized campaigns are fully seeded; tolerances come from
the committed calibration table or are pinned in the criterion itself.
"""

import math
import time

import numpy as np
import pytest

from msamp import (
    MultiscaleSignalSpec,
    SincAtom,
    apply_coset_operator,
    band_support_check,
    beurling_density,
    build_grid,
    build_vandermonde,
    classical_reconstruct,
    evaluate,
    gautschi_bounds,
    load_default_calibration,
    measured_stability_ratio,
    nyquist_rate,
    random_signal,
    random_valid_pair,
    reconstruct,
    sample_signal,
    spectral_support,
    stability_constant,
    two_band_stability_constant,
    vandermonde_inverse_norm,
)
from msamp.cli import main as cli_main
from msamp.oracle import interior_points, quadrature_stability_ratio

SEED = 20240601
N_PAIRS = 200
SUBSAMPLE = 20


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def campaign():
    """The shared 200-pair random campaign used by criteria 1 and 3."""
    t0 = time.time()
    pairs = []
    errors = []
    sub_errors_512 = []
    for t in range(N_PAIRS):
        rng = np.random.default_rng([SEED, 1, t])
        spec, grid = random_valid_pair(rng, J=256)
        xs = interior_points(grid, 33, rng)
        samples = sample_signal(spec, grid)
        truth = evaluate(spec, xs)
        scale = float(np.max(np.abs(truth)))
        rec = reconstruct(samples, spec, xs)
        err = float(np.max(np.abs(rec.assembled - truth))) / scale
        errors.append(err)
        pairs.append((spec, grid))
        if t < SUBSAMPLE:
            grid512 = build_grid(grid.delta_X, grid.delta_x, grid.P, 512)
            samples512 = sample_signal(spec, grid512)
            rec512 = reconstruct(samples512, spec, xs)
            sub_errors_512.append(
                float(np.max(np.abs(rec512.assembled - truth))) / scale
            )
    return {
        "pairs": pairs,
        "errors": np.array(errors),
        "sub_512": np.array(sub_errors_512),
        "elapsed": time.time() - t0,
    }


def test_criterion_1_sub_nyquist_exact_reconstruction(campaign):
    tau = load_default_calibration().tau(256)
    errors = campaign["errors"]
    max_err = float(errors.max())
    sub_256 = float(errors[:SUBSAMPLE].max())
    sub_512 = float(campaign["sub_512"].max())
    ok = (
        len(errors) >= 200
        and max_err <= tau
        and sub_512 < sub_256
        and campaign["elapsed"] < 120.0
    )
    report(
        1,
        ok,
        f"{len(errors)} pairs, max rel err {max_err:.3e} <= tau(256) {tau:.3e}; "
        f"subsample err(512) {sub_512:.3e} < err(256) {sub_256:.3e}; "
        f"{campaign['elapsed']:.1f}s",
    )
    assert ok


def test_criterion_2_classical_reduction():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng([SEED, 2, seed])
        N = rng.uniform(0.5, 3.0)
        spec = random_signal(
            seed=int(rng.integers(2**31)), N=N, M=0,
            epsilon=rng.uniform(0.005, 0.1), atoms_per_band=2,
        )
        grid = build_grid(1 / (2 * N), 0.0, 0, 256)
        samples = sample_signal(spec, grid)
        xs = np.concatenate(
            [interior_points(grid, 40, rng), grid.coset_points(0)[50:80]]
        )
        sub = reconstruct(samples, spec, xs).assembled
        classical = classical_reconstruct(samples, xs, spec)
        worst = max(worst, float(np.max(np.abs(sub - classical))))
    ok = worst <= 1e-12
    report(2, ok, f"multicoset vs classical path, max pointwise diff {worst:.3e}")
    assert ok


def test_criterion_3_stability_inequality(campaign):
    violations = 0
    exact_violations = 0
    worst_frac = 0.0
    for spec, grid in campaign["pairs"]:
        ratio = quadrature_stability_ratio(spec, grid)
        C = stability_constant(
            spec.N, spec.M, spec.epsilon, grid.delta_X, grid.delta_x
        )
        worst_frac = max(worst_frac, ratio / C)
        if ratio > C * 1.05:
            violations += 1
        if measured_stability_ratio(spec, grid) > C:
            exact_violations += 1
    ok = violations == 0 and exact_violations == 0
    report(
        3,
        ok,
        f"{len(campaign['pairs'])} pairs, measured/C worst {worst_frac:.3f}, "
        f"{violations} violations of ratio <= 1.05*C, "
        f"{exact_violations} of exact ratio <= C",
    )
    assert ok


def test_criterion_4_gautschi_sandwich():
    t0 = time.time()
    violations = 0
    for t in range(1000):
        rng = np.random.default_rng([SEED, 4, t])
        spec, grid = random_valid_pair(rng, J=4)
        V = build_vandermonde(spec, grid)
        norm = vandermonde_inverse_norm(V.nodes)
        lower, upper = gautschi_bounds(V.nodes)
        arg = (1 / spec.epsilon - 1 / grid.delta_X) * grid.delta_x
        analytic_cap = math.sin(math.pi * arg) ** (-2 * spec.M) if spec.M else 1.0
        slack = 1 + 1e-12
        if not (lower <= norm * slack and norm <= upper * slack):
            violations += 1
        elif not (2.0 ** (-2 * spec.M) <= norm * slack and norm <= analytic_cap * slack):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 30.0
    report(4, ok, f"1000 systems, {violations} violations, {elapsed:.1f}s")
    assert ok


def test_criterion_5_two_band_closed_form():
    worst_norm = 0.0
    for i in range(1, 101):
        r = 0.5 * i / 100.5  # 100 ratios strictly inside (0, 1/2)
        nodes = np.array([1.0, np.exp(2j * np.pi * r)])
        norm = vandermonde_inverse_norm(nodes)
        closed = 1 / math.sin(math.pi * r)
        worst_norm = max(worst_norm, abs(norm - closed) / closed)
    worst_C = 0.0
    for N in (0.5, 1.0, 2.0, 3.7):
        got = two_band_stability_constant(N, 0.5)
        worst_C = max(worst_C, abs(got - 1 / (2 * N)) / (1 / (2 * N)))
    ok = worst_norm <= 1e-12 and worst_C <= 1e-12
    report(
        5,
        ok,
        f"explicit-inverse norm vs 1/sin: rel err {worst_norm:.2e}; "
        f"C(1/2) vs 1/(2N): rel err {worst_C:.2e}",
    )
    assert ok


def test_criterion_6_spectral_structure():
    worst = 1.0
    for t in range(50):
        rng = np.random.default_rng([SEED, 6, t])
        spec, _ = random_valid_pair(rng, J=8, eps_range=(0.02, 0.1))
        step = 1 / (4 * (spec.N + spec.M / spec.epsilon))
        rep = band_support_check(spec, window_length=400.0, grid_step=step)
        worst = min(worst, rep.in_band_fraction)
    ok = worst >= 0.999
    report(6, ok, f"50 specs, worst in-band energy fraction {worst:.6f}")
    assert ok


def test_criterion_7_interpolation_identity():
    worst = 0.0
    for t in range(10):
        rng = np.random.default_rng([SEED, 7, t])
        spec, grid = random_valid_pair(rng, J=32)
        samples = sample_signal(spec, grid)
        for k in range(grid.P + 1):
            xs = grid.coset_points(k)
            out = apply_coset_operator(samples, k, xs)
            stored = samples.coset_row(k)
            rel = np.abs(out - stored) / (np.abs(stored) + 1e-300)
            worst = max(worst, float(np.max(rel)))
    ok = worst <= 1e-13
    report(7, ok, f"all cosets of 10 pairs, worst relative deviation {worst:.2e}")
    assert ok


def test_criterion_8_landau_rate_optimality():
    worst_density = 0.0
    worst_savings = 0.0
    cases = [(1.0, 2, 0.01), (1.0, 1, 0.1), (0.5, 3, 0.02), (2.0, 0, 0.05)]
    for t in range(30):
        rng = np.random.default_rng([SEED, 8, t])
        N = rng.uniform(0.5, 4)
        M = int(rng.integers(0, 4))
        eps = rng.uniform(0.005, min(0.1, 0.9 / (2 * N)))
        cases.append((N, M, eps))
    for N, M, eps in cases:
        spec = MultiscaleSignalSpec(
            epsilon=eps, N=N, M=M, bands={0: [SincAtom(0, 1.0)]}
        )
        grid = build_grid(1 / (2 * N), eps / (2 * M + 1) if M else 0.0, 2 * M, 8)
        density = beurling_density(grid)
        measure = spectral_support(spec).total_measure()
        target = (2 * M + 1) * 2 * N
        worst_density = max(
            worst_density,
            abs(density - target) / target,
            abs(measure - target) / target,
        )
        savings = density / nyquist_rate(spec)
        closed = (2 * M + 1) * N * eps / (N * eps + M)
        worst_savings = max(worst_savings, abs(savings - closed) / closed)
    # pinned example: N=1, M=2, eps=0.01 -> density 10 vs Nyquist 402
    g = build_grid(0.5, 0.002, 4, 8)
    s = MultiscaleSignalSpec(epsilon=0.01, N=1.0, M=2, bands={0: [SincAtom(0, 1.0)]})
    pinned_ok = beurling_density(g) == 10.0 and nyquist_rate(s) == 402.0
    ok = worst_density <= 1e-12 and worst_savings <= 1e-12 and pinned_ok
    report(
        8,
        ok,
        f"density vs spectral measure rel err {worst_density:.2e}; "
        f"savings-ratio closed form rel err {worst_savings:.2e}",
    )
    assert ok


def test_criterion_9_monotone_stability_guidance(tmp_path):
    spec_path = tmp_path / "spec.json"
    sweep_path = tmp_path / "sweep.csv"
    assert (
        cli_main(
            ["synth", "--N", "1", "--M", "1", "--epsilon", "0.1",
             "--atoms", "2", "--seed", "5", "--out", str(spec_path)]
        )
        == 0
    )
    assert (
        cli_main(
            ["sweep", "--spec", str(spec_path), "--dX", "0.22", "--J", "48",
             "--points", "24", "--seed", "5", "--out", str(sweep_path)]
        )
        == 0
    )
    rows = sweep_path.read_text().strip().splitlines()[1:]
    C = [float(r.split(",")[4]) for r in rows if r.split(",")[3] == "1"]
    ratios = [float(r.split(",")[1]) for r in rows]
    strictly_decreasing = all(b < a - 1e-12 for a, b in zip(C, C[1:]))
    minimized_at_cap = (
        min(C) == C[-1] and ratios[-1] == pytest.approx(1 / 3, rel=1e-12)
    )
    ok = strictly_decreasing and minimized_at_cap and len(C) == 24
    report(
        9,
        ok,
        f"sweep C column strictly decreasing over {len(C)} points, "
        f"min at delta_x/epsilon = 1/(2M+1)",
    )
    assert ok
