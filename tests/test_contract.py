"""The library's input contract, for every public function that takes an array.

A value of the documented type with the wrong number of axes or a wrong
length, an empty array, a NaN or infinite entry, a ragged or string list, or
an array of the wrong kind (bool, string, object, or complex for a real
argument) raises the PauliMemError subclass the function raises for its other checks;
a NaN is named as such. The valid input in each row must still be accepted.
The four functions that take Pauli weights also reject weights whose values
break the contract their docstrings state.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimem import (
    InvalidSpectrum,
    InvalidState,
    NonHermitian,
    NonNormalized,
    OutOfRange,
    PauliChannel,
    PureStateParams,
    SearchConfig,
    a2_coefficient,
    apply_channel,
    apply_channel_weights,
    capacity_sweep,
    channel_params,
    density_matrix,
    eig_hermitian4,
    ensemble_output_entropies,
    entropy_bits,
    output_entropies,
    output_matrix,
    params_from_state,
    params_from_states,
    pauli_weights,
    state_vector,
    state_vectors,
    verify_ensemble_achievability,
    verify_optimality_grid,
    weights_to_density,
)
from conftest import ILLUSTRATION_Q

CHANNEL = PauliChannel(ILLUSTRATION_Q, 0.5)
ROWS = [[0.3, 0.7, 1.1, 0.2, 0.4, 0.6], [2.0, 0.1, 2.5, 1.0, 3.0, 0.5]]
VECS = [state_vector(PureStateParams(*row)) for row in ROWS]
RHO = density_matrix(VECS[0])
W = pauli_weights(RHO)

# name: (callable, its error, a valid input, the shapes it accepts with None
# for any length, the argument's name in its messages)
CASES = {
    "entropy_bits": (entropy_bits, InvalidSpectrum, [0.4, 0.3, 0.2, 0.1], [(4,)], "eigenvalue"),
    "ensemble_output_entropies": (partial(ensemble_output_entropies, CHANNEL), InvalidState,
                                  RHO, [(4, 4)], "density operator"),
    "verify_ensemble_achievability": (partial(verify_ensemble_achievability, CHANNEL),
                                      InvalidState, RHO, [(4, 4)], "density operator"),
    "apply_channel": (partial(apply_channel, CHANNEL), InvalidState, RHO, [(4, 4)],
                      "density operator"),
    "apply_channel_weights": (partial(apply_channel_weights, CHANNEL), InvalidState, W,
                              [(4, 4)], "weight"),
    "output_matrix": (partial(output_matrix, CHANNEL), InvalidState, W, [(4, 4)], "weight"),
    "eig_hermitian4": (eig_hermitian4, NonHermitian, RHO, [(4, 4)], "matrix"),
    "a2_coefficient": (partial(a2_coefficient, channel_params(CHANNEL)), InvalidState, W,
                       [(4, 4)], "weight"),
    "output_entropies": (partial(output_entropies, CHANNEL), OutOfRange, ROWS,
                         [(None, 6), (6,)], "parameter"),
    "state_vectors": (state_vectors, OutOfRange, ROWS, [(None, 6)], "parameter"),
    "density_matrix": (density_matrix, NonNormalized, VECS[0], [(4,)], "state vector"),
    "pauli_weights": (pauli_weights, NonHermitian, RHO, [(4, 4)], "density operator"),
    "weights_to_density": (weights_to_density, InvalidState, W, [(4, 4)], "weight"),
    "params_from_states": (params_from_states, NonNormalized, VECS, [(None, 4)],
                           "state vector"),
    "params_from_state": (params_from_state, NonNormalized, VECS[0], [(4,)], "state vector"),
    "capacity_sweep": (partial(capacity_sweep, CHANNEL), OutOfRange, [0.0, 0.3, 1.0], [(None,)],
                       "mu grid"),
    # Three points, the fewest test_nan_is_named can set a NaN in, and one start each.
    "verify_optimality_grid": (partial(verify_optimality_grid, CHANNEL,
                                       cfg=SearchConfig(restarts=1)),
                               OutOfRange, [0.0, 0.3, 1.0], [(None,)], "mu grid"),
}


def trace_weights(w00):
    """W with its trace weight w[0, 0] set to w00."""
    w = W.copy()
    w[0, 0] = w00
    return w


# Weights of the right shape that break the contract the four weight-taking
# functions state: a trace away from 1 (w[0, 0] != 1), and for a2_coefficient
# the weights of a mixed state, whose squares do not sum to 4.
BAD_WEIGHTS = [
    ("apply_channel_weights", np.zeros((4, 4)), r"^weight w\[0, 0\] is 0.0, not 1$"),
    ("output_matrix", trace_weights(2.0), r"^weight w\[0, 0\] is 2.0, not 1$"),
    ("weights_to_density", trace_weights(1.000000002),
     r"^weight w\[0, 0\] is 1.000000002, not 1$"),
    ("a2_coefficient", trace_weights(0.5), r"^weight w\[0, 0\] is 0.5, not 1$"),
    ("a2_coefficient", pauli_weights(np.eye(4) / 4.0),
     r"^squared weights sum to 1.0, not 4 \(not pure\)$"),
]
cases = pytest.mark.parametrize("case", CASES)
contract = settings(derandomize=True, deadline=None, max_examples=8)


def accepted(shape, accepts) -> bool:
    return any(
        len(shape) == len(a) and all(n in (None, m) for n, m in zip(a, shape)) for a in accepts
    )


def rejects(case, value, match=None):
    check, error = CASES[case][:2]
    with pytest.raises(error, match=match):
        check(value)


@cases
def test_valid_input_is_accepted(case):
    check, _, valid = CASES[case][:3]
    check(valid)


@pytest.mark.parametrize("case, value, message", BAD_WEIGHTS)
def test_bad_weight_values(case, value, message):
    rejects(case, value, message)
    rejects(case, value.tolist(), message)


@cases
@contract
@given(data=st.data())
def test_wrong_shape(case, data):
    accepts = CASES[case][3]
    shape = data.draw(st.lists(st.integers(0, 7), max_size=3).map(tuple))
    if accepted(shape, accepts):
        return
    value = np.full(shape, data.draw(st.floats(-1.0, 1.0)))
    rejects(case, value.tolist() if data.draw(st.booleans()) else value, "has shape")


@cases
@contract
@given(data=st.data())
def test_empty(case, data):
    accepts = CASES[case][3]
    shape = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple))
    shape = shape[:-1] + (0,) if 0 not in shape else shape
    if not accepted(shape, accepts):
        rejects(case, np.empty(shape).tolist() if data.draw(st.booleans()) else np.empty(shape))


@cases
@contract
@given(data=st.data())
def test_non_finite_entry(case, data):
    _, _, valid, _, name = CASES[case]
    value = np.array(valid)
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    i = data.draw(st.integers(0, value.size - 1))
    if np.iscomplexobj(value) and data.draw(st.booleans()):
        bad = complex(0.0, bad)
    value.flat[i] = bad
    rejects(case, value, f"{name} is NaN" if math.isnan(abs(bad)) else f"{name} is not finite")


@cases
@pytest.mark.parametrize("entries", [slice(None), 2], ids=["all", "one"])
def test_nan_is_named(case, entries):
    _, _, valid, _, name = CASES[case]
    value = np.array(valid)
    value.flat[entries] = math.nan
    rejects(case, value, f"{name} is NaN")


def wrong_kind(valid, kind):
    """valid as an array of a kind numpy would convert without an error, to a wrong
    value: bool, string (of numerals), object, or complex for a real argument. Unrefused,
    entropy_bits gave 1.846 for a string or a complex spectrum of 0.4, 0.3, 0.2, 0.1, and
    capacity_sweep swept mu = 0.5 for the grid [0.5 + 2j]."""
    a = np.array(valid)
    return a + 2j if kind == "complex" else a.astype({"bool": bool, "string": str}.get(kind, kind))


# (case, kind, as a list): an object array as a list is a list of numbers, and a
# complex argument takes complex values.
WRONG_KINDS = [
    (case, kind, as_list) for case in CASES
    for kind, as_list in [("bool", False), ("bool", True), ("string", False), ("string", True),
                          ("object", False), ("complex", False), ("complex", True)]
    if kind != "complex" or not np.iscomplexobj(CASES[case][2])
]


@pytest.mark.parametrize("case, kind, as_list", WRONG_KINDS)
def test_wrong_kind(case, kind, as_list):
    value = wrong_kind(CASES[case][2], kind)
    rejects(case, value.tolist() if as_list else value, "entries must be")


@cases
@contract
@given(data=st.data())
def test_ragged_or_string_list(case, data):
    rows = np.array(CASES[case][2]).tolist()
    i = data.draw(st.integers(0, len(rows) - 1))
    word = st.text(alphabet="abcdghklmopqrstuvwxyz ", max_size=4)  # never parses as a number
    if isinstance(rows[i], list):
        j = data.draw(st.integers(0, len(rows[i]) - 1))
        rows[i] = data.draw(st.sampled_from(
            [rows[i][:j], rows[i] + rows[i][:1], rows[i][:j] + [[rows[i][j]]] + rows[i][j + 1:],
             rows[i][:j] + [data.draw(word)] + rows[i][j + 1:]]
        ))
    else:
        rows[i] = data.draw(st.sampled_from([[rows[i]] * 2, [], data.draw(word)]))
    rejects(case, rows)
