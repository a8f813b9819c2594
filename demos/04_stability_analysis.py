#!/usr/bin/env python3
"""Stability of the reconstruction: constants, bounds, and guidance.

The closed-form constant C = (1/2N) * sin(pi*(1/eps - 1/dX)*dx)^(-2M)
bounds the ratio between the signal's energy and its sample energy. C is
driven by the Vandermonde node geometry: well-separated nodes mean a
well-conditioned solve. The sweep at the end shows C strictly decreasing
as delta_x/epsilon grows toward 1/(2M+1), where the nodes are maximally
spread.
"""


from msamp import (
    build_grid,
    build_vandermonde,
    node_gap_audit,
    random_signal,
    stability_constant,
    stability_report,
    two_band_stability_constant,
    vandermonde_inverse_norm,
)

spec = random_signal(seed=3, N=1.0, M=1, epsilon=0.1, atoms_per_band=2)
grid = build_grid(0.22, 0.03, 2, 128)

rep = stability_report(spec, grid)
print("stability report:")
print(f"  theoretical constant C    : {rep.C_theoretical:.6f}")
print(f"  exact energy ratio        : {rep.measured_ratio:.6f}  (must be <= C)")
print(f"  ||V^-1||_inf              : {rep.vinv_norm:.6f}")
print(f"  Gautschi bounds           : [{rep.gautschi_lower:.6f}, {rep.gautschi_upper:.6f}]")
print(f"  min node gap              : {rep.min_node_gap:.6f}")
print(f"  sampling density          : {rep.beurling_density:.2f} "
      f"(Landau floor {rep.landau_rate:.2f}, Nyquist {rep.nyquist_rate:.2f})")

system = build_vandermonde(spec, grid)
audit = node_gap_audit(system, spec.epsilon)
print(f"\nnode separation audit (analytic lower bound "
      f"{audit.lower_bound:.4f}, upper bound 2):")
for c in audit.checks:
    status = "ok" if (c.above_lower and c.below_two) else "VIOLATION"
    print(f"  bands {c.band_pair}: gap {c.gap:.4f} [{status}]")

print("\nmicro-spacing sweep (fixed N, M, eps, delta_X):")
print(f"  {'dx/eps':>8} {'C':>12} {'||V^-1||':>10}")
cap = spec.epsilon / (2 * spec.M + 1)
for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
    dx = frac * cap
    C = stability_constant(spec.N, spec.M, spec.epsilon, grid.delta_X, dx)
    g = build_grid(grid.delta_X, dx, 2, 8)
    norm = vandermonde_inverse_norm(build_vandermonde(spec, g).nodes)
    print(f"  {frac / (2 * spec.M + 1):8.4f} {C:12.4f} {norm:10.4f}")
print("reconstruction is most stable at dx/eps = 1/(2M+1), the right edge")

print("\ntwo-band closed form: C(r) = 1/(2N sin(pi r)); at r = 1/2, C = 1/(2N):")
for r in (0.1, 0.25, 0.5):
    print(f"  r={r:4.2f}: C = {two_band_stability_constant(1.0, r):.4f}")
