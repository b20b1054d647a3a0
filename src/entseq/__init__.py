"""entseq: synthesis of noise-robust perfect entanglers from local rotations
interleaved between weakly entangling two-qubit slices."""

from .gate_algebra import (
    expm_hermitian,
    local_rotation,
    pauli_product,
    trace_fidelity,
)
from .weyl_geometry import (
    canonical_gate,
    cartan_decompose,
    cubic_roots,
    makhlin_invariants,
    pe_distance_d,
    pe_fidelity,
    pe_functional_D,
    w1_indicator_s,
    weyl_coordinates,
)
from .noise_model import (
    ALL_CHANNELS,
    NoiseConfig,
    NoiseRealization,
    TWO_LOCAL_CHANNELS,
    make_ensemble,
)
from .sequence_engine import (
    EnsembleMetrics,
    SequenceParams,
    calibrate_amplitude,
    ensemble_gates,
    ensemble_metrics,
    evaluate_solution,
    gate_error,
    target_gate,
    zz_phase_slice,
)
from .optimizer import (
    OptimizationResult,
    OptimizerConfig,
    SequenceObjective,
    cascade_optimize,
    initialize_guess,
)

__version__ = "0.1.0"
