"""Pauli matrices on one and two qubits and their index algebra.

Conventions used throughout the package: the two-qubit basis is ordered
|00>, |01>, |10>, |11> with the first qubit as the left tensor factor, and
sigma_3 is diagonal.
"""

import numpy as np

SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
"""sigma_0 (identity), sigma_1, sigma_2, sigma_3."""

PAULI2 = np.array([[np.kron(SIGMA[n], SIGMA[k]) for k in range(4)] for n in range(4)])
"""PAULI2[n, k] = sigma_n tensor sigma_k as a 4x4 matrix."""

_n = np.arange(4)

# s[n, k] = +1 iff sigma_n and sigma_k commute (n == k, or either is the
# identity), -1 otherwise; equivalently sigma_n sigma_k sigma_n = s[n, k] sigma_k.
SIGN_TABLE = np.where((_n[:, None] == 0) | (_n == 0) | (_n[:, None] == _n), 1.0, -1.0)

# PRODUCT_INDEX[k, kp] = the index m with sigma_k sigma_kp proportional to
# sigma_m. Up to phase the indices multiply as two-bit words under XOR
# (1 ^ 2 = 3: sigma_1 sigma_2 = i sigma_3).
PRODUCT_INDEX = np.bitwise_xor.outer(_n, _n).astype(np.intp)
del _n

for _arr in (SIGMA, PAULI2, SIGN_TABLE, PRODUCT_INDEX):
    _arr.setflags(write=False)
del _arr
