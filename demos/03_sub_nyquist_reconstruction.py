#!/usr/bin/env python3
"""Exact reconstruction from sub-Nyquist multicoset samples.

Undersampling folds each band's carrier onto a low-frequency alias, but
the 2M+1 cosets tag band m with distinct unit-circle phases w_m^k. A
small Vandermonde solve per evaluation point separates the bands; the
truncation of the interpolation series is the only error source, and it
shrinks steadily as the truncation J grows.
"""

import numpy as np

from msamp import (
    build_grid,
    classical_reconstruct,
    evaluate,
    nyquist_rate,
    random_signal,
    reconstruct,
    reconstruct_two_band,
    sample_signal,
)
from msamp.signal_model import MultiscaleSignalSpec, SincAtom

rng = np.random.default_rng(11)
spec = random_signal(seed=42, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
delta_X, delta_x = 0.22, 0.03

print("truncation sweep (same interior evaluation points):")
xs = rng.uniform(-6, 6, size=41)
truth = evaluate(spec, xs)
scale = np.max(np.abs(truth))
for J in (32, 64, 128, 256, 512):
    grid = build_grid(delta_X, delta_x, 2, J)
    samples = sample_signal(spec, grid)
    rec = reconstruct(samples, spec, xs)
    err = np.max(np.abs(rec.assembled - truth)) / scale
    print(f"  J={J:4d}: {samples.grid.n_points:5d} samples, "
          f"max relative error {err:.2e}")

# per-band recovery: the solve separates the multiscale components
grid = build_grid(delta_X, delta_x, 2, 256)
rec = reconstruct(sample_signal(spec, grid), spec, xs)
for m in (-1, 0, 1):
    from msamp import evaluate_coefficient

    target = evaluate_coefficient(spec, m, xs) * np.exp(
        2j * np.pi * m * xs / spec.epsilon
    )
    err = np.max(np.abs(rec.band_component(m) - target)) / scale
    print(f"band {m:+d} component recovered to {err:.2e}")

# cross-check against the classical full-rate route
full_rate_dX = 1 / nyquist_rate(spec)
ny_grid = build_grid(full_rate_dX, 0.0, 0, 2048)
ny_samples = sample_signal(spec, ny_grid, check=False)
classical = classical_reconstruct(ny_samples, xs, spec)
print(f"\nvs classical reconstruction at {nyquist_rate(spec):.0f} samples/unit "
      f"({ny_grid.n_points} samples): max diff {np.max(np.abs(rec.assembled - classical)):.2e}")
print(f"multicoset route used {3 * (2 * 256 + 1)} samples "
      f"at density {3 / delta_X:.1f}/unit")

# two-band path: lattice-aligned scale, the general solve on bands {0, 1}
two = MultiscaleSignalSpec(
    epsilon=0.1, N=1.0, M=1,
    bands={0: [SincAtom(0, 1.0)], 1: [SincAtom(1, 0.6 - 0.8j)]},
)
tb_grid = build_grid(0.3, 0.05, 1, 256)  # delta_X/epsilon = 3, delta_x/eps = 1/2
tb_samples = sample_signal(two, tb_grid, check=False)
tb = reconstruct_two_band(tb_samples, (1.0, 1, 0.1), xs)
tb_truth = evaluate(two, xs)
err = np.max(np.abs(tb.assembled - tb_truth)) / np.max(np.abs(tb_truth))
print(f"\ntwo-band path (two cosets only): max relative error {err:.2e}")
