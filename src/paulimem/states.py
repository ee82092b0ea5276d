"""The six-parameter family of two-qubit pure states and its Pauli geometry.

Three angles fix the four real amplitudes through a hyperspherical
parametrization, three phases dress the |11>, |10> and |01> components. The
family covers every pure two-qubit state up to an irrelevant global phase.

checked_array, the one check every public function that takes an array makes
first, lives here, beside numpy: the channel core and the errors import none.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .errors import BadIndex, InvalidState, NonHermitian, NonNormalized, NotPure, OutOfRange
from .errors import is_integer
from .pauli import PAULI2, SIGMA

_NORM_TOL = 1e-9
_IMAG_TOL = 1e-9
# The dtype kinds each target takes, and how a refusal words them: numpy would parse a
# string of digits, drop an imaginary part, and read True as 1.
_KINDS = {float: ("iuf", "real numbers"), complex: ("iufc", "numbers")}


def checked_array(x, shape: tuple, dtype, error: type, name: str) -> np.ndarray:
    """x as a finite dtype array of the given shape (None: any length), or error naming name.

    An array of bools, strings or objects, or a complex one for a float dtype, is
    refused before it is converted."""
    kinds, words = _KINDS[dtype]
    try:
        a = np.asarray(x)
    except (TypeError, ValueError):  # a ragged list
        a = None
    if a is None or a.dtype.kind not in kinds:
        raise error(f"{name} entries must be {words}")
    a = a.astype(dtype, copy=False)
    if a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape)):
        raise error(f"{name} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise error(f"{name} is NaN" if np.isnan(a).any() else f"{name} is not finite")
    return a


@dataclass(frozen=True)
class PureStateParams:
    """Parameters of a two-qubit pure state.

    theta, phi, psi set the amplitude magnitudes; phi11, phi10, phi01 are the
    phases of the |11>, |10>, |01> components relative to |00>. No canonical
    ranges are enforced (the trigonometric construction is total).
    """

    theta: float
    phi: float
    psi: float
    phi11: float = 0.0
    phi10: float = 0.0
    phi01: float = 0.0

    @property
    def varphi(self) -> float:
        """The combination (phi10 + phi01 - phi11) / 2 controlling the
        one-sided weight sum beta."""
        return (self.phi10 + self.phi01 - self.phi11) / 2.0

    def as_array(self) -> np.ndarray:
        """(theta, phi, psi, phi11, phi10, phi01) as a float vector."""
        return np.array([self.theta, self.phi, self.psi, self.phi11, self.phi10, self.phi01])


def amplitudes_from_angles(theta, phi, psi) -> tuple:
    """Real amplitudes (c00, c11, c10, c01); their squares sum to 1.

    Elementwise: the angles may be floats or equal-shape arrays. Individual
    values may be negative for some angle ranges; a sign is a phase, and
    keeping it preserves full coverage of the amplitude sphere.
    """
    half = theta / 2.0
    plus = (phi + psi) / 2.0
    minus = (phi - psi) / 2.0
    c00 = np.cos(plus) * np.cos(half)
    c11 = np.sin(minus) * np.sin(half)
    c10 = np.cos(minus) * np.sin(half)
    c01 = np.sin(plus) * np.cos(half)
    return c00, c11, c10, c01


def state_vectors(params: np.ndarray) -> np.ndarray:
    """(N, 6) rows (theta, phi, psi, phi11, phi10, phi01) -> (N, 4) amplitudes
    over |00>, |01>, |10>, |11> (unit norm)."""
    params = checked_array(params, (None, 6), float, OutOfRange, "parameter")
    c00, c11, c10, c01 = amplitudes_from_angles(params[:, 0], params[:, 1], params[:, 2])
    v = np.empty((params.shape[0], 4), dtype=complex)
    v[:, 0] = c00
    v[:, 1] = c01 * np.exp(1j * params[:, 5])
    v[:, 2] = c10 * np.exp(1j * params[:, 4])
    v[:, 3] = c11 * np.exp(1j * params[:, 3])
    return v


def state_vector(params: PureStateParams) -> np.ndarray:
    """Amplitudes over |00>, |01>, |10>, |11> (unit norm)."""
    return state_vectors(params.as_array()[None, :])[0]


def density_matrix(vec: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| of a unit vector."""
    v = checked_array(vec, (4,), complex, NonNormalized, "state vector")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise NonNormalized(f"state vector has norm {float(norm)!r}")
    return np.outer(v, v.conj())


def pauli_weights(rho: np.ndarray) -> np.ndarray:
    """All sixteen weights w_nk = Tr(rho sigma_n x sigma_k) of a density operator.

    The traces of a Hermitian operator against Hermitian basis elements are
    real; the imaginary parts are checked against tolerance before being
    dropped, so a non-Hermitian input fails loudly instead of corrupting the
    weights.
    """
    rho = checked_array(rho, (4, 4), complex, NonHermitian, "density operator")
    traces = np.einsum("nkab,ba->nk", PAULI2, rho)
    worst = np.abs(traces.imag).max()
    if not worst <= _IMAG_TOL:
        raise NonHermitian(f"weight imaginary part {worst:.3e} exceeds tolerance")
    return traces.real.copy()


def _checked_weights(w, pure: bool = False) -> np.ndarray:
    """w as the (4, 4) weights of a unit-trace operator (w[0, 0] = 1) and, if pure, of a pure
    state (the squares sum to 4), each within 1e-9; anything else raises InvalidState."""
    w = checked_array(w, (4, 4), float, InvalidState, "weight")
    if not abs(w[0, 0] - 1.0) <= _NORM_TOL:
        raise InvalidState(f"weight w[0, 0] is {float(w[0, 0])!r}, not 1")
    if pure and not abs((w * w).sum() - 4.0) <= _NORM_TOL:
        raise InvalidState(f"squared weights sum to {float((w * w).sum())!r}, not 4 (not pure)")
    return w


def weights_to_density(w: np.ndarray) -> np.ndarray:
    """(1/4) sum_nk w_nk sigma_n x sigma_k of unit-trace weights; inverse of pauli_weights."""
    w = _checked_weights(w)
    return np.einsum("nk,nkab->ab", w, PAULI2) / 4.0


def alpha_beta(params: PureStateParams) -> tuple[float, float, float]:
    """Closed forms of the weight sums (alpha_plus, alpha_minus, beta).

    alpha_pm = w11^2 + w22^2 +- w33^2 and beta = sum_n (w_n0^2 + w_0n^2),
    evaluated directly from the angles and phases. Tight bounds:
    alpha_minus <= 1, alpha_plus <= 3, beta <= 2, and alpha_plus + beta <= 3,
    so no single pure state saturates alpha_plus and beta together.
    """
    th, ph, ps = params.theta, params.phi, params.psi
    sin2t = sin(th) ** 2
    transverse = 0.5 * sin2t * (
        cos(params.phi10 - params.phi01) ** 2 * (sin(ph) + sin(ps)) ** 2
        + cos(params.phi11) ** 2 * (sin(ph) - sin(ps)) ** 2
    )
    w33 = cos(th) * cos(ph) * cos(ps) - sin(ph) * sin(ps)
    varphi = params.varphi
    beta = 2.0 * (
        1.0 - sin2t * (sin(ps) ** 2 * cos(varphi) ** 2 + sin(ph) ** 2 * sin(varphi) ** 2)
    )
    return transverse + w33 * w33, transverse - w33 * w33, beta


def product_optimal_state(l: int, zeta: int = 1, xi: int = 1) -> np.ndarray:
    """(1/4)(sigma_0 + zeta sigma_l) x (sigma_0 + xi sigma_l).

    Both qubits sit in +-1 eigenstates of the same Pauli axis l; these are the
    entropy-minimizing inputs at low memory.
    """
    if not (is_integer(l) and l in (1, 2, 3)):
        raise BadIndex(f"axis index must be 1, 2 or 3, got {l!r}")
    if not all(is_integer(s) and s in (-1, 1) for s in (zeta, xi)):
        raise BadIndex(f"signs must be +1 or -1, got {(zeta, xi)!r}")
    a = (SIGMA[0] + zeta * SIGMA[l]) / 2.0
    b = (SIGMA[0] + xi * SIGMA[l]) / 2.0
    return np.kron(a, b)


def bell_state(eta: int, nu: int, xi: int) -> np.ndarray:
    """(1/4)(1 + eta s1s1 + nu s2s2 + xi s3s3); a Bell projector iff eta*nu*xi = -1.

    The four sign patterns with product -1 give the four maximally entangled
    Bell states; product +1 would give an operator that is not a pure-state
    projector.
    """
    if not all(is_integer(s) and s in (-1, 1) for s in (eta, nu, xi)):
        raise BadIndex(f"signs must be +1 or -1, got {(eta, nu, xi)!r}")
    if eta * nu * xi != -1:
        raise NotPure(f"sign pattern {(eta, nu, xi)} has product +1, not a pure state")
    out = PAULI2[0, 0] + eta * PAULI2[1, 1] + nu * PAULI2[2, 2] + xi * PAULI2[3, 3]
    return out / 4.0


def params_from_states(vecs: np.ndarray) -> np.ndarray:
    """Invert state_vectors up to a global phase: (N, 4) amplitudes -> (N, 6) rows.

    Rotates each row's global phase so its |00> amplitude is real and
    nonnegative, reads the three relative phases, and recovers the angles
    from the amplitude magnitudes. Demonstrates that the family covers every
    pure state.
    """
    v = checked_array(vecs, (None, 4), complex, NonNormalized, "state vector")
    norm = np.linalg.norm(v, axis=1)
    off = ~(np.abs(norm - 1.0) <= _NORM_TOL)
    if off.any():
        raise NonNormalized(f"state vector has norm {float(norm[off][0])!r}")
    a00 = v[:, :1]
    v = v * np.where(np.abs(a00) > 1e-15, np.exp(-1j * np.angle(a00)), 1.0)
    r = np.abs(v)
    theta = 2.0 * np.arctan2(np.hypot(r[:, 2], r[:, 3]), np.hypot(r[:, 0], r[:, 1]))
    plus = np.arctan2(r[:, 1], r[:, 0])
    minus = np.arctan2(r[:, 3], r[:, 2])
    phases = np.angle(v[:, [3, 2, 1]])
    return np.column_stack([theta, plus + minus, plus - minus, phases])


def params_from_state(vec: np.ndarray) -> PureStateParams:
    """Invert state_vector up to a global phase; row 0 of params_from_states."""
    v = checked_array(vec, (4,), complex, NonNormalized, "state vector")
    return PureStateParams(*params_from_states(v[None, :])[0].tolist())
