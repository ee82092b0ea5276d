"""Pauli channels used twice with correlated noise, and their derived parameters.

A channel draws one of the four Pauli transformations with probabilities q and
applies it to each of two qubits; with probability mu the second qubit suffers
the *same* transformation as the first, with probability 1 - mu an independent
one. Everything the capacity analysis needs derives from the signed error sums
eps_n and the 4x4 matrix eps_nk that scales the Pauli components of a state.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .errors import InvalidState, NonNormalized, OutOfRange, checked_array
from .pauli import PAULI2, PRODUCT_INDEX, SIGN_TABLE
from .states import _checked_weights

_SUM_TOL = 1e-9
_TRACE_TOL = 1e-9


@dataclass(frozen=True)
class PauliChannel:
    """Two correlated uses of a Pauli channel.

    q holds the probabilities of sigma_0..sigma_3 (validated, never silently
    renormalized); mu in [0, 1] is the probability that both uses suffer the
    same transformation.
    """

    q: tuple[float, float, float, float]
    mu: float

    def __post_init__(self):
        try:
            q = tuple(map(float, self.q))
            mu = float(self.mu)
        except (TypeError, ValueError, OverflowError):
            raise OutOfRange("channel parameters must be real numbers") from None
        if len(q) != 4:
            raise OutOfRange(f"need 4 probabilities, got {len(q)}")
        if not all(map(isfinite, q)) or not isfinite(mu):
            raise OutOfRange("channel parameters must be finite")
        if min(q) < 0.0 or max(q) > 1.0:
            raise OutOfRange(f"probabilities outside [0, 1]: {q}")
        if not 0.0 <= mu <= 1.0:
            raise OutOfRange(f"mu outside [0, 1]: {mu}")
        total = ((q[0] + q[1]) + q[2]) + q[3]
        if abs(total - 1.0) > _SUM_TOL:
            raise NonNormalized(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "mu", mu)

    def with_mu(self, mu: float) -> "PauliChannel":
        """Same error distribution, different memory."""
        return PauliChannel(self.q, mu)

    def joint_probabilities(self) -> np.ndarray:
        """p[i, j]: probability that sigma_i hits the first use and sigma_j the second."""
        q = np.array(self.q)
        return (1.0 - self.mu) * np.outer(q, q) + self.mu * np.diag(q)


def _family_parameter(p) -> float:
    """p as a float; anything float() refuses raises OutOfRange, as PauliChannel does."""
    try:
        return float(p)
    except (TypeError, ValueError, OverflowError):
        raise OutOfRange("family parameter p must be a real number") from None


def depolarizing(p: float, mu: float) -> PauliChannel:
    """Depolarizing channel q = (1 - p, p/3, p/3, p/3).

    p is restricted to [0, 3/4], the range where the identity remains the
    dominant outcome.
    """
    p = _family_parameter(p)
    if not 0.0 <= p <= 0.75:
        raise OutOfRange(f"depolarizing parameter outside [0, 3/4]: {p}")
    third = p / 3.0
    return PauliChannel((1.0 - p, third, third, third), mu)


def mp_channel(p: float, mu: float) -> PauliChannel:
    """One-parameter family q = (p, 1/2 - p, 1/2 - p, p) with p in [0, 1/2]."""
    p = _family_parameter(p)
    if not 0.0 <= p <= 0.5:
        raise OutOfRange(f"mp parameter outside [0, 1/2]: {p}")
    return PauliChannel((p, 0.5 - p, 0.5 - p, p), mu)


FAMILIES = {"depolarizing": depolarizing, "mp": mp_channel}
"""Named one-parameter channel families: name -> constructor(p, mu)."""


def _eps(q: tuple) -> list[float]:
    """eps_0..eps_3 as plain floats, each sum_k q_k s_kn added left to right."""
    q0, q1, q2, q3 = q
    return [1.0, q0 + q1 - q2 - q3, q0 - q1 + q2 - q3, q0 - q1 - q2 + q3]


def epsilon_vector(channel: PauliChannel) -> np.ndarray:
    """Signed error sums eps_n = sum_k q_k s_kn; eps_0 is identically 1.

    Accumulated left to right in index order so that decimal probabilities
    cancel exactly (a channel with q0 + q1 == q2 + q3 really reports eps_1 == 0).
    """
    return np.array(_eps(channel.q))


def epsilon_matrix(channel: PauliChannel) -> np.ndarray:
    """The symmetric 4x4 scaling factors eps_kk' of the two-qubit Pauli basis.

    eps_kk' = (1 - mu) eps_k eps_k' + mu eps_k'' where sigma_k sigma_k' is
    proportional to sigma_k''. Row and column 0 reproduce the single-use
    values; the diagonal grows affinely from eps_k^2 at mu = 0 to 1 at mu = 1.
    """
    return _epsilon_matrix(epsilon_vector(channel), channel.mu)


def _epsilon_matrix(eps: np.ndarray, mu: float) -> np.ndarray:
    """eps_kk' from the eps vector at one memory value mu."""
    return (1.0 - mu) * eps[:, None] * eps[None, :] + mu * eps[PRODUCT_INDEX]


def epsilon_matrix_bruteforce(channel: PauliChannel) -> np.ndarray:
    """Same matrix, straight from the joint error distribution.

    eps_nk = sum_ij p_ij s_in s_jk; kept as an independent route for testing
    the closed form.
    """
    p = channel.joint_probabilities()
    return SIGN_TABLE.T @ p @ SIGN_TABLE


def ordering(channel: PauliChannel) -> tuple[int, int, int]:
    """Indices (l, m, s) of eps_1..eps_3 sorted by decreasing magnitude.

    The sort key is d_k = 1 - eps_k^2 (see Thresholds). Ties keep the smaller
    index first, which makes the output deterministic; the capacity is
    invariant under tied permutations.
    """
    return _capacity_inputs(channel)[1]


@dataclass(frozen=True)
class Thresholds:
    """Memory values where the channel-parameter ordering changes.

    mu_ml solves eps_mm(mu)^2 = eps_l^2 and mu_star solves eps_mm(mu)^2 +
    eps_ss(mu)^2 = 2 eps_l^2; 0 <= mu_ml <= mu_star <= 1. mu_star is where
    the two families' outputs have equal purity Tr(rho_out^2), the Renyi-2
    crossover, not where entangled inputs overtake in von Neumann entropy.

    Both derive from p_k = q_0 + q_k, the weight sigma_k keeps, and n_k, the
    weight it flips: 1 - eps_k^2 = 4 p_k n_k, with no cancellation even next
    to a point mass. That needs sum(q) = 1; for the sums within 1e-9 of 1
    that PauliChannel accepts, the thresholds move by the same order.

    degenerate marks a point-mass q (every |eps_k| = 1): both equations read
    0 = 0 and the thresholds are reported as 0.
    """

    mu_ml: float
    mu_star: float
    degenerate: bool = False


def thresholds(channel: PauliChannel) -> Thresholds:
    """Both memory thresholds of the channel (mu itself is ignored)."""
    return _capacity_inputs(channel)[2]


def _capacity_inputs(channel: PauliChannel) -> tuple[list, tuple[int, int, int], Thresholds]:
    """eps as plain floats, the magnitude ordering and the thresholds: all that
    does not depend on mu. Every route to Thresholds goes through here, so its
    fields are plain floats."""
    q0, q1, q2, q3 = channel.q
    # (p_k, n_k): the weight sigma_k keeps and the weight it flips; sigma_0 flips nothing.
    kept_flipped = [(1.0, 0.0), (q0 + q1, q2 + q3), (q0 + q2, q1 + q3), (q0 + q3, q1 + q2)]
    d = [4.0 * p * n for p, n in kept_flipped]
    order = tuple(sorted((1, 2, 3), key=d.__getitem__))  # stable: ties keep index order
    return _eps(channel.q), order, _thresholds(kept_flipped, d, order)


def _thresholds(kept_flipped: list, d: list[float], order: tuple[int, int, int]) -> Thresholds:
    l, m, s = order
    dm, ds = d[m], d[s]
    if dm == 0.0:  # two d_k vanish only for a point-mass q
        return Thresholds(0.0, 0.0, degenerate=True)
    # In x = 1 - mu, eps_kk = 1 - x d_k; at mu_ml eps_mm = e = |eps_l|, 1 - e = 2 min(p_l, n_l).
    p, n = kept_flipped[l]
    e = abs(p - n)
    x = 2.0 * min(p, n) / dm
    mu_ml = 1.0 - x
    # At mu_ml + delta, eps_mm = e + delta d_m and eps_ss = v + delta d_s, where v = e - g and
    # g = x (d_s - d_m) >= 0. So the mu_star equation reads (d_m^2 + d_s^2) delta^2 + 2 b delta
    # = c with b = e d_m + v d_s and c = g (e + v), and its root delta >= 0 has no cancellation.
    # c = 0 where the roots coincide (d_m = d_s), and b = c = 0 at the uniform q.
    g = x * (ds - dm)
    v = e - g
    b = e * dm + v * ds
    c = g * (e + v)
    delta = c / (b + sqrt(b * b + (dm * dm + ds * ds) * c)) if c > 0.0 else 0.0
    # Where the roots lie at mu = 0 (eps_l = eps_m = 0), rounding can put them a hair below.
    return Thresholds(max(mu_ml, 0.0), max(mu_ml + delta, 0.0))


@dataclass(frozen=True)
class ChannelParams:
    """Everything derived from a channel: eps vector, eps matrix, magnitude
    ordering and the two thresholds."""

    eps: np.ndarray
    eps2: np.ndarray
    ordering: tuple[int, int, int]
    thresholds: Thresholds

    def __post_init__(self):
        self.eps.setflags(write=False)
        self.eps2.setflags(write=False)


def channel_params(channel: PauliChannel) -> ChannelParams:
    eps, order, th = _capacity_inputs(channel)
    eps = np.array(eps)
    return ChannelParams(
        eps=eps, eps2=_epsilon_matrix(eps, channel.mu), ordering=order, thresholds=th
    )


def apply_channel(channel: PauliChannel, rho: np.ndarray) -> np.ndarray:
    """Operator-sum action sum_ij p_ij (sigma_i x sigma_j) rho (sigma_i x sigma_j).

    rho must be Hermitian with unit trace; the output is again Hermitian,
    unit-trace and positive semidefinite.
    """
    rho = checked_array(rho, (4, 4), complex, InvalidState, "density operator")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= _TRACE_TOL:
        raise InvalidState(f"trace {tr}, expected 1")
    if not np.abs(rho - rho.conj().T).max() <= _TRACE_TOL:
        raise InvalidState("density operator is not Hermitian")
    p = channel.joint_probabilities()
    out = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            u = PAULI2[i, j]
            out += p[i, j] * (u @ rho @ u)
    return out


def apply_channel_weights(channel: PauliChannel, w: np.ndarray) -> np.ndarray:
    """Channel action in the Pauli basis: every weight scales by eps_nk.

    Expects the weights of a unit-trace operator (w[0, 0] = 1).
    """
    return epsilon_matrix(channel) * _checked_weights(w)


def _config_number(value, key: str) -> float:
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:  # an int too large for a float
        pass
    raise OutOfRange(f"config value {key!r} is not a number: {value!r}")


def channel_from_config(cfg: dict, mu: float | None = None) -> PauliChannel:
    """Build a channel from a configuration mapping, the form the CLI gives all channel input.

    Two layouts are accepted: {"q": [q0, q1, q2, q3], "mu": m} or
    {"family": <a FAMILIES name>, "p": x, "mu": m}, with no other key. An
    explicit mu argument overrides the one in the mapping. A missing,
    stray or malformed key raises OutOfRange naming it.
    """
    if not isinstance(cfg, dict):
        raise OutOfRange("channel config must be a JSON object")
    if mu is None:
        if "mu" not in cfg:
            raise OutOfRange("channel config is missing 'mu'")
        mu = cfg["mu"]
    mu = _config_number(mu, "mu")
    if ("q" in cfg) == ("family" in cfg):
        raise OutOfRange("channel config needs exactly one of 'q' or 'family'")
    keys = ("q", "mu") if "q" in cfg else ("family", "p", "mu")
    stray = [k for k in cfg if k not in keys]
    if stray:
        allowed = ", ".join(map(repr, keys))
        raise OutOfRange(f"channel config key {stray[0]!r} is not one of {allowed}")
    if "q" in cfg:
        q = cfg["q"]
        if not isinstance(q, (list, tuple)) or len(q) != 4:
            raise OutOfRange("'q' must be a list of 4 probabilities")
        return PauliChannel(tuple(_config_number(x, "q") for x in q), mu)
    if "p" not in cfg:
        raise OutOfRange("family config is missing 'p'")
    family = cfg["family"]
    if not isinstance(family, str) or family not in FAMILIES:
        raise OutOfRange(f"unknown channel family {family!r}")
    return FAMILIES[family](_config_number(cfg["p"], "p"), mu)
