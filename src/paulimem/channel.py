"""Pauli channels used twice with correlated noise, and their derived parameters.

A channel draws one of the four Pauli transformations with probabilities q and
applies it to each of two qubits; with probability mu the second qubit suffers
the *same* transformation as the first, with probability 1 - mu an independent
one. Everything the capacity analysis needs derives from the signed error sums
eps_n and the 4x4 matrix eps_nk that scales the Pauli components of a state.

This module works in plain Python floats and imports no numpy (joint_probabilities
imports it when called), so the point commands of the CLI run without it;
capacity.py holds the numpy views (ChannelParams, epsilon_vector,
epsilon_matrix) and the operator-sum routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

from .errors import NonNormalized, OutOfRange

_SUM_TOL = 1e-9


# float() takes text that spells a number ("0.5", b"1") and bools, which are ints.
_NOT_REAL = (str, bytes, bytearray, bool)


def _real(x, message: str) -> float:
    """float(x) for a real number x. Text, a Python or numpy bool (by its dtype kind,
    whatever its type's name), and whatever float() refuses raise
    OutOfRange(message.format(x)), built only then."""
    try:
        if not isinstance(x, _NOT_REAL) and getattr(getattr(x, "dtype", None), "kind", "") != "b":
            return float(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise OutOfRange(message.format(x))


def _frozen(cls, fields: dict):
    """An instance of the frozen dataclass cls holding fields, which name all of its
    fields: one dict update, where the generated __init__ makes a call per field.
    No __post_init__ runs."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass(frozen=True, init=False)
class PauliChannel:
    """Two correlated uses of a Pauli channel.

    q holds the probabilities of sigma_0..sigma_3 (validated, never silently
    renormalized); mu in [0, 1] is the probability that both uses suffer the
    same transformation.
    """

    q: tuple[float, float, float, float]
    mu: float

    def __init__(self, q: tuple[float, float, float, float], mu: float):
        # Four exact floats in a tuple are kept as given: these tests cost less than
        # the conversion that everything else goes through.
        if not (type(q) is tuple and len(q) == 4 and type(q[0]) is float
                and type(q[1]) is float and type(q[2]) is float and type(q[3]) is float
                and type(mu) is float):
            message = "channel parameters must be real numbers"
            if isinstance(q, _NOT_REAL):  # bytes iterate to ints
                raise OutOfRange(message)
            try:
                q = tuple([_real(x, message) for x in q])
            except TypeError:  # q does not iterate
                raise OutOfRange(message) from None
            mu = _real(mu, message)
        if len(q) != 4:
            raise OutOfRange(f"need 4 probabilities, got {len(q)}")
        q0, q1, q2, q3 = q
        # One test passes exactly the valid ranges (NaN fails every comparison); a
        # failing value is then named by the first check it breaks, in this order.
        if not (0.0 <= q0 <= 1.0 and 0.0 <= q1 <= 1.0 and 0.0 <= q2 <= 1.0
                and 0.0 <= q3 <= 1.0 and 0.0 <= mu <= 1.0):
            if not all(map(isfinite, q)) or not isfinite(mu):
                raise OutOfRange("channel parameters must be finite")
            if min(q) < 0.0 or max(q) > 1.0:
                raise OutOfRange(f"probabilities outside [0, 1]: {q}")
            raise OutOfRange(f"mu outside [0, 1]: {mu}")
        total = ((q0 + q1) + q2) + q3
        if abs(total - 1.0) > _SUM_TOL:
            raise NonNormalized(f"probabilities sum to {total!r}, not 1")
        vars(self).update(q=q, mu=mu)

    def with_mu(self, mu: float) -> "PauliChannel":
        """Same error distribution, different memory."""
        return PauliChannel(self.q, mu)

    def joint_probabilities(self) -> "np.ndarray":
        """p[i, j]: probability that sigma_i hits the first use and sigma_j the second.

        The one array a channel gives, so numpy is imported here, on first use."""
        import numpy as np

        q = np.array(self.q)
        return (1.0 - self.mu) * np.outer(q, q) + self.mu * np.diag(q)


def depolarizing(p: float, mu: float) -> PauliChannel:
    """Depolarizing channel q = (1 - p, p/3, p/3, p/3).

    p is restricted to [0, 3/4], the range where the identity remains the
    dominant outcome.
    """
    p = _real(p, "family parameter p must be a real number")
    if not 0.0 <= p <= 0.75:
        raise OutOfRange(f"depolarizing parameter outside [0, 3/4]: {p}")
    third = p / 3.0
    return PauliChannel((1.0 - p, third, third, third), mu)


def mp_channel(p: float, mu: float) -> PauliChannel:
    """One-parameter family q = (p, 1/2 - p, 1/2 - p, p) with p in [0, 1/2]."""
    p = _real(p, "family parameter p must be a real number")
    if not 0.0 <= p <= 0.5:
        raise OutOfRange(f"mp parameter outside [0, 1/2]: {p}")
    return PauliChannel((p, 0.5 - p, 0.5 - p, p), mu)


FAMILIES = {"depolarizing": depolarizing, "mp": mp_channel}
"""Named one-parameter channel families: name -> constructor(p, mu)."""


def _eps(q: tuple) -> list[float]:
    """eps_0..eps_3 as plain floats, each sum_k q_k s_kn added left to right."""
    q0, q1, q2, q3 = q
    return [1.0, q0 + q1 - q2 - q3, q0 - q1 + q2 - q3, q0 - q1 - q2 + q3]


def _eps_diagonal(eps: list, mu) -> list:
    """eps_kk(mu) = (1 - mu) eps_k^2 + mu for k = 0..3, mu a float (one point) or an
    (N,) grid: bit for bit the diagonal of the eps matrix, whose mu eps_0 is mu."""
    x = 1.0 - mu
    e0, e1, e2, e3 = eps  # unrolled: a comprehension costs ~0.2 us more a call
    return [x * e0 * e0 + mu, x * e1 * e1 + mu, x * e2 * e2 + mu, x * e3 * e3 + mu]


def _epsilon_matrix(eps: list, mu: float) -> list[list[float]]:
    """The symmetric 4x4 scaling factors eps_kk' of the two-qubit Pauli basis, as
    plain floats: eps_kk' = (1 - mu) eps_k eps_k' + mu eps_k'', where sigma_k sigma_k'
    is proportional to sigma_k'' and k'' = k XOR k' (two-bit words). Row and column 0
    reproduce the single-use values; the diagonal grows affinely from eps_k^2 at
    mu = 0 to 1 at mu = 1."""
    x = 1.0 - mu
    return [[x * eps[k] * eps[kp] + mu * eps[k ^ kp] for kp in range(4)] for k in range(4)]


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
    # p_k and n_k: the weight sigma_k keeps and the weight it flips; sigma_0 flips nothing.
    p = (1.0, q0 + q1, q0 + q2, q0 + q3)
    n = (0.0, q2 + q3, q1 + q3, q1 + q2)
    d1, d2, d3 = 4.0 * p[1] * n[1], 4.0 * p[2] * n[2], 4.0 * p[3] * n[3]
    d = (0.0, d1, d2, d3)
    # Ascending d, as a stable sort orders it: a tie keeps the smaller index first.
    if d1 <= d2:
        order = (1, 2, 3) if d2 <= d3 else (1, 3, 2) if d1 <= d3 else (3, 1, 2)
    else:
        order = (2, 1, 3) if d1 <= d3 else (2, 3, 1) if d2 <= d3 else (3, 2, 1)
    l, m, s = order
    return _eps(channel.q), order, _thresholds(p[l], n[l], d[m], d[s])


def _thresholds(p: float, n: float, dm: float, ds: float) -> Thresholds:
    """Thresholds from p_l and n_l of the dominant axis l and d_m <= d_s of the others."""
    if dm == 0.0:  # two d_k vanish only for a point-mass q
        return _frozen(Thresholds, {"mu_ml": 0.0, "mu_star": 0.0, "degenerate": True})
    # In x = 1 - mu, eps_kk = 1 - x d_k; at mu_ml eps_mm = e = |eps_l|, 1 - e = 2 min(p_l, n_l).
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
    # Roots at or next to mu = 0 can come out a hair below it: by rounding where
    # eps_l = eps_m = 0, and by up to the order of the 1e-9 sum tolerance where
    # sum(q) falls short of 1 (q = (0.25, 0.2499999998) * 2 gives -4e-10 for both).
    return _frozen(Thresholds, {"mu_ml": max(mu_ml, 0.0), "mu_star": max(mu_ml + delta, 0.0),
                                "degenerate": False})


def _params(channel: PauliChannel) -> tuple[list, list, tuple[int, int, int], Thresholds]:
    """eps, the eps matrix, the ordering and the thresholds, in plain floats: the
    fields of capacity.ChannelParams and the output of the params command."""
    eps, order, th = _capacity_inputs(channel)
    return eps, _epsilon_matrix(eps, channel.mu), order, th


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
    mu = _real(mu, "config value 'mu' is not a number: {!r}")
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
        message = "config value 'q' is not a number: {!r}"
        return PauliChannel(tuple([_real(x, message) for x in q]), mu)
    if "p" not in cfg:
        raise OutOfRange("family config is missing 'p'")
    family = cfg["family"]
    if not isinstance(family, str) or family not in FAMILIES:
        raise OutOfRange(f"unknown channel family {family!r}")
    return FAMILIES[family](_real(cfg["p"], "config value 'p' is not a number: {!r}"), mu)
