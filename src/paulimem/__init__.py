"""Two-use classical capacity of Pauli channels with correlated-noise memory.

Channel model, optimal input families (dominant-axis product states and Bell
states), closed-form output spectra, memory thresholds, and an independent
brute-force entropy-minimization check over all two-qubit pure states.

Importing the package loads no submodule and no numpy: each public name loads
the submodule that defines it on first use (PEP 562), so a command-line run
pays only for the modules its command calls. channel, closed_form and errors
import no numpy; capacity, states, pauli and oracle do.
"""

import importlib

_EXPORTS = {
    "capacity": (
        "CapacityCurve",
        "ChannelParams",
        "apply_channel",
        "apply_channel_weights",
        "capacity_sweep",
        "channel_params",
        "ensemble_output_entropies",
        "entropy_bits",
        "epsilon_matrix",
        "epsilon_matrix_bruteforce",
        "epsilon_vector",
        "spectrum_bell_regime",
        "spectrum_product_regime",
        "sweep_to_csv",
        "sweep_to_json",
        "verify_ensemble_achievability",
    ),
    "channel": (
        "FAMILIES",
        "PauliChannel",
        "Thresholds",
        "channel_from_config",
        "depolarizing",
        "mp_channel",
        "ordering",
        "thresholds",
    ),
    "closed_form": ("CapacityResult", "Regime", "capacity_two_use"),
    "errors": (
        "BadIndex",
        "InvalidSpectrum",
        "InvalidState",
        "NonHermitian",
        "NonNormalized",
        "NotPure",
        "OutOfRange",
        "PauliMemError",
    ),
    "oracle": (
        "OptimalityReport",
        "OracleResult",
        "SearchConfig",
        "a2_coefficient",
        "eig_hermitian4",
        "min_entropy_bruteforce",
        "output_entropies",
        "output_matrix",
        "verify_optimality_grid",
    ),
    "states": (
        "PureStateParams",
        "alpha_beta",
        "amplitudes_from_angles",
        "bell_state",
        "density_matrix",
        "params_from_state",
        "params_from_states",
        "pauli_weights",
        "product_optimal_state",
        "state_vector",
        "state_vectors",
        "weights_to_density",
    ),
}
# Public name -> the submodule that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """The public name from its submodule, imported now and kept here for later lookups."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
