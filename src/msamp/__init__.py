"""Sub-Nyquist multicoset sampling and reconstruction of multiscale
bandlimited signals.

The package builds signals of the form
f(x) = sum_m c_m(x) exp(2*pi*i*m*x/epsilon) with exactly bandlimited
envelopes, samples them on periodic nonuniform (multicoset) grids at the
Landau-optimal average rate, reconstructs them exactly through a small
Vandermonde system per evaluation point, and verifies the associated
stability theory (closed-form constants, Gautschi bounds, node gaps, and
exact energy ratios).
"""

from .errors import ConstraintError, SingularSystemError
from .oracle import (
    band_support_check,
    calibrate_truncation,
    classical_reconstruct,
    l2_norm_quadrature,
    load_calibration,
    load_default_calibration,
    random_valid_pair,
    save_calibration,
)
from .reconstruction import (
    alias_split,
    build_vandermonde,
    reconstruct,
    reconstruct_two_band,
    reconstruction_to_csv,
    solve_coset_system,
)
from .sampling_grid import (
    beurling_density,
    build_grid,
    nyquist_rate,
    validate_against,
)
from .sampling_operator import (
    SampleSet,
    apply_coset_operator,
    coset_parseval_check,
    sample_signal,
    samples_from_csv,
    samples_to_csv,
)
from .signal_model import (
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
from .stability import (
    gautschi_bounds,
    measured_stability_ratio,
    node_gap_audit,
    stability_constant,
    stability_report,
    two_band_stability_constant,
    vandermonde_inverse_norm,
)

__version__ = "0.1.0"
