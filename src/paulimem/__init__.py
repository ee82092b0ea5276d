"""Two-use classical capacity of Pauli channels with correlated-noise memory.

Channel model, optimal input families (dominant-axis product states and Bell
states), closed-form output spectra, memory thresholds, and an independent
brute-force entropy-minimization check over all two-qubit pure states.
"""

from .capacity import (
    CapacityCurve,
    CapacityResult,
    Regime,
    capacity_sweep,
    capacity_two_use,
    ensemble_output_entropies,
    entropy_bits,
    spectrum_bell_regime,
    spectrum_product_regime,
    sweep_to_csv,
    sweep_to_json,
    verify_ensemble_achievability,
)
from .channel import (
    FAMILIES,
    ChannelParams,
    PauliChannel,
    Thresholds,
    apply_channel,
    apply_channel_weights,
    channel_from_config,
    channel_params,
    depolarizing,
    epsilon_matrix,
    epsilon_matrix_bruteforce,
    epsilon_vector,
    mp_channel,
    ordering,
    thresholds,
)
from .errors import (
    BadIndex,
    InvalidSpectrum,
    InvalidState,
    NonHermitian,
    NonNormalized,
    NotPure,
    OutOfRange,
    PauliMemError,
)
from .oracle import (
    OptimalityReport,
    OracleResult,
    SearchConfig,
    a2_coefficient,
    eig_hermitian4,
    min_entropy_bruteforce,
    output_entropies,
    output_matrix,
    verify_optimality_grid,
)
from .states import (
    PureStateParams,
    alpha_beta,
    amplitudes_from_angles,
    bell_state,
    density_matrix,
    params_from_state,
    params_from_states,
    pauli_weights,
    product_optimal_state,
    state_vector,
    state_vectors,
    weights_to_density,
)

__version__ = "0.1.0"
