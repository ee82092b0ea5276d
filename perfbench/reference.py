"""Independent reference route for the two-use capacity.

Nothing here imports paulimem. The channel is built from the model itself,
p_ij = (1 - mu) q_i q_j + mu q_i delta_ij, applied to a density operator by
the operator sum over its own Pauli matrices, and diagonalized with
numpy.linalg.eigvalsh. S_min is the minimum output entropy over the product
inputs on all three axes and one Bell input; the capacity per use is
1 - S_min / 2. Every function is vectorized over a batch of channels.
"""

from __future__ import annotations

import numpy as np

_SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
# _U[i, j] = sigma_i (x) sigma_j
_U = np.array([[np.kron(_SIGMA[i], _SIGMA[j]) for j in range(4)] for i in range(4)])
# _COMMUTE[n, k] = +1 if sigma_n and sigma_k commute, else -1.
_COMMUTE = np.array(
    [[1.0 if (n == k or n == 0 or k == 0) else -1.0 for k in range(4)] for n in range(4)]
)


def _projector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _axis_ket(axis: int) -> np.ndarray:
    """+1 eigenvector of sigma_axis."""
    _, vecs = np.linalg.eigh(_SIGMA[axis])
    return vecs[:, 1]


# Inputs, in column order: product states on the x, y and z axes, then the
# Bell state (|00> + |11>)/sqrt(2).
INPUT_NAMES = ("product_x", "product_y", "product_z", "bell")
_INPUTS = np.array(
    [_projector(np.kron(_axis_ket(a), _axis_ket(a))) for a in (1, 2, 3)]
    + [_projector([1, 0, 0, 1])]
)
# _CONJ[k, i, j] = U_ij rho_k U_ij, so E(rho_k) = sum_ij p_ij _CONJ[k, i, j].
_CONJ = np.einsum("ijab,kbc,ijcd->kijad", _U, _INPUTS, _U)

_CHUNK = 4096


def joint_probabilities(q, mu) -> np.ndarray:
    """(N, 4, 4) joint error distribution of two correlated uses."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    n = max(q.shape[0], mu.shape[0])
    q, mu = np.broadcast_to(q, (n, 4)), np.broadcast_to(mu, (n,))
    p = (1.0 - mu)[:, None, None] * q[:, :, None] * q[:, None, :]
    idx = np.arange(4)
    p[:, idx, idx] += mu[:, None] * q
    return p


def _entropy(lam: np.ndarray) -> np.ndarray:
    lam = np.clip(lam, 0.0, None)
    logs = np.log2(np.where(lam > 0.0, lam, 1.0))
    return np.maximum(-np.sum(lam * logs, axis=-1), 0.0)


def input_entropies(q, mu) -> np.ndarray:
    """(N, 4) output entropies of the INPUT_NAMES inputs, in bits."""
    p = joint_probabilities(q, mu)
    out = np.empty((p.shape[0], len(INPUT_NAMES)))
    for lo in range(0, p.shape[0], _CHUNK):
        rho = np.einsum("nij,kijab->nkab", p[lo : lo + _CHUNK], _CONJ)
        out[lo : lo + _CHUNK] = _entropy(np.linalg.eigvalsh(rho))
    return out


def capacity(q, mu) -> np.ndarray:
    """Two-use capacity per use, 1 - S_min / 2, for every channel of the batch."""
    return 1.0 - input_entropies(q, mu).min(axis=1) / 2.0


def state_from_params(theta, phi, psi, phi11, phi10, phi01) -> np.ndarray:
    """Amplitudes over |00>, |01>, |10>, |11> of the six-parameter pure-state family."""
    half, plus, minus = theta / 2.0, (phi + psi) / 2.0, (phi - psi) / 2.0
    return np.array(
        [
            np.cos(plus) * np.cos(half),
            np.sin(plus) * np.cos(half) * np.exp(1j * phi01),
            np.cos(minus) * np.sin(half) * np.exp(1j * phi10),
            np.sin(minus) * np.sin(half) * np.exp(1j * phi11),
        ]
    )


def state_entropy(q, mu, vec) -> float:
    """Output entropy of the pure input vec, by the operator sum."""
    p = joint_probabilities(q, mu)[0]
    rho = _projector(vec)
    out = np.einsum("ij,ijab,bc,ijcd->ad", p, _U, rho, _U)
    return float(_entropy(np.linalg.eigvalsh(out)))


def eps_vector(q) -> np.ndarray:
    """(N, 4) signed error sums eps_n = sum_k q_k s_kn."""
    return np.atleast_2d(np.asarray(q, dtype=float)) @ _COMMUTE


def threshold_residuals(q, mu_ml, mu_star) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the two threshold-defining equations at the given memories.

    With eps_kk(mu) = (1 - mu) eps_k^2 + mu and (l, m, s) the axes ordered by
    decreasing |eps_k|: mu_ml solves eps_mm^2 = eps_l^2 and mu_star solves
    eps_mm^2 + eps_ss^2 = 2 eps_l^2.
    """
    eps = eps_vector(q)[:, 1:]
    order = np.argsort(-np.abs(eps), axis=1, kind="stable")
    e2 = np.take_along_axis(eps, order, axis=1) ** 2
    el2, em2, es2 = e2[:, 0], e2[:, 1], e2[:, 2]

    def diag(e_sq, mu):
        return (1.0 - mu) * e_sq + mu

    mu_ml = np.asarray(mu_ml, dtype=float)
    mu_star = np.asarray(mu_star, dtype=float)
    r_ml = diag(em2, mu_ml) ** 2 - el2
    r_star = diag(em2, mu_star) ** 2 + diag(es2, mu_star) ** 2 - 2.0 * el2
    return r_ml, r_star


def mu_star(q) -> np.ndarray:
    """Root in mu of eps_mm^2 + eps_ss^2 = 2 eps_l^2 (the larger one), unclamped."""
    eps = eps_vector(q)[:, 1:]
    e2 = -np.sort(-(eps**2), axis=1)
    el2, em2, es2 = e2[:, 0], e2[:, 1], e2[:, 2]
    dm, ds = 1.0 - em2, 1.0 - es2
    a = dm * dm + ds * ds
    b = 2.0 * (em2 * dm + es2 * ds)
    c = em2 * em2 + es2 * es2 - 2.0 * el2
    return (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)


def self_test() -> list[str]:
    """Check the route against closed forms of the paper; returns failures."""
    failures = []
    rng = np.random.default_rng(12345)
    q = rng.dirichlet(np.ones(4), 16)
    c_full = capacity(q, 1.0)
    if np.abs(c_full - 1.0).max() > 1e-12:
        failures.append(f"reference: c2 at mu = 1 is {c_full.min()!r}, not 1")
    h = -(1 / 6) * np.log2(1 / 6) - (5 / 6) * np.log2(5 / 6)
    c_dep = capacity([0.75, 0.25 / 3, 0.25 / 3, 0.25 / 3], 0.0)[0]
    if abs(c_dep - (1.0 - h)) > 1e-12:
        failures.append(f"reference: depolarizing p = 0.25, mu = 0 gives {c_dep!r}, not 1 - H2(1/6)")
    return failures
