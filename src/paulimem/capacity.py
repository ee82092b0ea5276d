"""Output spectra, entropies, regimes, and the two-use capacity curve.

The two candidate input families (product states along the dominant Pauli
axis, and Bell states) both admit closed-form output spectra. The capacity
per use is 1 - S/2 with S the smaller of the two output entropies; the
equal-weight ensemble of the sixteen Pauli-conjugated copies of the optimal
input achieves it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelParams, PauliChannel, _epsilon_matrix, apply_channel, channel_params
from .errors import InvalidSpectrum, InvalidState, OutOfRange
from .pauli import PAULI2

_SPECTRUM_TOL = 1e-9
_TIE_TOL = 1e-12
_ENSEMBLE_ENTROPY_TOL = 1e-10

SWEEP_CSV_HEADER = "mu,regime,c2,entropy_product,entropy_bell,l1,l2,l3,l4"


class Regime(str, Enum):
    """Which input family minimizes the output entropy."""

    PRODUCT = "product"
    ENTANGLED = "entangled"
    TIE = "tie"


def _sum4(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis (length 4), added strictly left to right."""
    return ((x[..., 0] + x[..., 1]) + x[..., 2]) + x[..., 3]


def _branch_spectra(eps2: np.ndarray, l: int, e_l) -> np.ndarray:
    """Output spectra of both input families at N points, shape (N, 2, 4).

    eps2 holds the eps_kk' matrix of each point, shape (N, 4, 4), of which
    only the diagonal is read; l is the dominant axis and e_l = eps_l.
    [:, 0] is the product spectrum (see spectrum_product_regime), [:, 1] the
    Bell spectrum (see spectrum_bell_regime), each sorted descending.
    """
    e11, e22, e33 = eps2[:, 1, 1], eps2[:, 2, 2], eps2[:, 3, 3]
    e_ll = eps2[:, l, l]
    lam = np.empty((len(eps2), 2, 4))
    a = 1.0 + e_ll
    lam[:, 0, 0] = a + 2.0 * e_l
    lam[:, 0, 1] = a - 2.0 * e_l
    lam[:, 0, 2] = lam[:, 0, 3] = 1.0 - e_ll
    a = 1.0 + e33
    b = 1.0 - e33
    lam[:, 1, 0] = a + e11 + e22
    lam[:, 1, 1] = a - e11 - e22
    lam[:, 1, 2] = b + e11 - e22
    lam[:, 1, 3] = b - e11 + e22
    lam /= 4.0
    lam.sort(axis=2)
    return lam[..., ::-1]


def _entropies(lam: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits of the 4-point spectra along the last axis.

    Eigenvalues in [-1e-9, 0) are treated as rounded zeros; anything more
    negative, or a total away from 1 by more than 1e-9, raises InvalidSpectrum
    for the first such spectrum.
    """
    low = lam.min(axis=-1)
    total = _sum4(lam)
    bad = (low < -_SPECTRUM_TOL) | (abs(total - 1.0) > _SPECTRUM_TOL)
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        if low[i] < -_SPECTRUM_TOL:
            raise InvalidSpectrum(f"negative eigenvalue {low[i]!r}")
        raise InvalidSpectrum(f"eigenvalues sum to {total[i]!r}, not 1")
    # Zeros and rounded negatives contribute 1 log2 1 = 0.
    p = np.where(lam > 0.0, lam, 1.0)
    # 0.0 - sum turns a pure spectrum's -0.0 into 0.0; eigenvalues a hair
    # above 1 give a tiny negative sum, clamped to 0.
    return np.maximum(0.0 - _sum4(p * np.log2(p)), 0.0)


def entropy_bits(lambdas) -> float:
    """Von Neumann entropy -sum lam log2(lam) of a 4-point spectrum, in bits.

    Eigenvalues in [-1e-9, 0) are treated as rounded zeros; anything more
    negative, or a total away from 1 by more than 1e-9, is rejected.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (4,):
        raise InvalidSpectrum(f"expected 4 eigenvalues, got shape {lam.shape}")
    return float(_entropies(lam[None])[0])


def _cp_spectra(cp: ChannelParams) -> np.ndarray:
    l = cp.ordering[0]
    return _branch_spectra(cp.eps2[None], l, cp.eps[l])[0]


def spectrum_product_regime(cp: ChannelParams) -> np.ndarray:
    """Output spectrum of the optimal product inputs, sorted descending.

    The four values are (1 + eps_ll +- 2 eps_l)/4 and (1 - eps_ll)/4 twice;
    they match the diagonalized output of any sigma_l eigenstate pair.
    """
    return _cp_spectra(cp)[0]


def spectrum_bell_regime(cp: ChannelParams) -> np.ndarray:
    """Output spectrum of any Bell input, sorted descending.

    (1 + s1 eps_11 + s2 eps_22 + s3 eps_33)/4 over the four sign patterns
    with product +1; all four Bell inputs give this same multiset, so no
    axis relabeling is needed.
    """
    return _cp_spectra(cp)[1]


@dataclass(frozen=True)
class CapacityResult:
    """Two-use capacity at one memory value, with both branch diagnostics."""

    mu: float
    regime: Regime
    lambdas_product: np.ndarray
    lambdas_bell: np.ndarray
    entropy_product: float
    entropy_bell: float
    c2: float
    mu_ml: float
    mu_star: float
    optimal_state_descriptor: dict

    def __post_init__(self):
        self.lambdas_product.setflags(write=False)
        self.lambdas_bell.setflags(write=False)

    def winning_spectrum(self) -> np.ndarray:
        """Spectrum of the branch named in optimal_state_descriptor."""
        if self.optimal_state_descriptor["family"] == "product":
            return self.lambdas_product
        return self.lambdas_bell

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "regime": self.regime.value,
            "c2": self.c2,
            "entropy_product": self.entropy_product,
            "entropy_bell": self.entropy_bell,
            "lambdas_product": [float(x) for x in self.lambdas_product],
            "lambdas_bell": [float(x) for x in self.lambdas_bell],
            "mu_ml": json_float(self.mu_ml),
            "mu_star": json_float(self.mu_star),
            "optimal_state": self.optimal_state_descriptor,
        }


def json_float(x: float):
    """x as a JSON number; NaN and infinities, which JSON cannot hold, become null."""
    return float(x) if np.isfinite(x) else None


def format_number(x) -> str:
    """CSV text of one cell: strings as is, true/false for booleans, else 12 significant digits."""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(float(x) + 0.0, ".12g")  # + 0.0 normalizes -0.0


def csv_text(header: str, rows) -> str:
    """The header line, then one line per row with each cell through format_number."""
    lines = [header]
    lines.extend(",".join(map(format_number, row)) for row in rows)
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    """obj as JSON indented by two spaces, with a final newline."""
    return json.dumps(obj, indent=2) + "\n"


def _capacity_results(cp: ChannelParams, mu: list, eps2: np.ndarray) -> list[CapacityResult]:
    """CapacityResult at each memory value in mu, from one pass of the array kernel.

    eps2 holds the eps_kk' matrix at each mu, shape (len(mu), 4, 4); cp
    supplies eps, the ordering and the thresholds, none of which depends on mu.
    """
    l = cp.ordering[0]
    lam = _branch_spectra(eps2, l, cp.eps[l])
    s = _entropies(lam)
    th = cp.thresholds
    results = []
    for m, pair, (s_p, s_b) in zip(mu, lam, s.tolist()):
        if abs(s_p - s_b) < _TIE_TOL:
            regime = Regime.TIE
        elif s_p < s_b:
            regime = Regime.PRODUCT
        else:
            regime = Regime.ENTANGLED
        if regime is Regime.ENTANGLED:
            descriptor = {"family": "bell", "signs": [1, -1, 1]}
        else:
            descriptor = {"family": "product", "l": l}
        results.append(
            CapacityResult(
                mu=m,
                regime=regime,
                lambdas_product=pair[0],
                lambdas_bell=pair[1],
                entropy_product=s_p,
                entropy_bell=s_b,
                c2=1.0 - min(s_p, s_b) / 2.0,
                mu_ml=th.mu_ml,
                mu_star=th.mu_star,
                optimal_state_descriptor=descriptor,
            )
        )
    return results


def capacity_two_use(channel: PauliChannel) -> CapacityResult:
    """Classical capacity of two correlated uses, in bits per use.

    Evaluates both analytic branches and returns c2 = 1 - S_min/2. The regime
    label comes from comparing the two entropies directly (differences below
    1e-12 report TIE); mu_star is reported alongside but not used for the
    decision, because the entropy crossover can sit a hair away from it.
    On a tie the product family is named in the descriptor; both families
    are then optimal.
    """
    cp = channel_params(channel)
    return _capacity_results(cp, [channel.mu], cp.eps2[None])[0]


def _checked_mu_grid(channel_base: PauliChannel, mu_grid) -> np.ndarray:
    """mu_grid as a 1-D float array; raises OutOfRange naming its first value outside [0, 1]."""
    mu = np.asarray(mu_grid, dtype=float)
    if mu.ndim != 1:
        raise OutOfRange(f"mu grid must be one-dimensional, got shape {mu.shape}")
    bad = ~((mu >= 0.0) & (mu <= 1.0))
    if bad.any():
        channel_base.with_mu(mu[np.argmax(bad)])  # raises, naming the value
    return mu


def capacity_sweep(channel_base: PauliChannel, mu_grid) -> list[CapacityResult]:
    """Capacity at every memory value of the grid, with q held fixed.

    The grid is checked as a whole first: the first value outside [0, 1]
    (NaN and infinities included) raises OutOfRange, as PauliChannel would.
    The curve is then one array pass; eps, the ordering and the thresholds
    are computed once.
    """
    mu = _checked_mu_grid(channel_base, mu_grid)
    cp = channel_params(channel_base)
    return _capacity_results(cp, mu.tolist(), _epsilon_matrix(cp.eps, mu[:, None, None]))


def _ensemble_outputs(channel: PauliChannel, rho_star: np.ndarray) -> list[np.ndarray]:
    outs = []
    for i in range(4):
        for j in range(4):
            u = PAULI2[i, j]
            outs.append(apply_channel(channel, u @ rho_star @ u))
    return outs


def ensemble_output_entropies(channel: PauliChannel, rho_star: np.ndarray) -> np.ndarray:
    """Output entropies of the sixteen Pauli-conjugated copies of rho_star.

    The channel is covariant under Pauli conjugation, so all sixteen agree.
    """
    ents = []
    for out in _ensemble_outputs(channel, rho_star):
        ents.append(entropy_bits(np.linalg.eigvalsh(out)))
    return np.array(ents)


def verify_ensemble_achievability(channel: PauliChannel, rho_star: np.ndarray) -> float:
    """Max-norm deviation of the equal-weight ensemble's average output from I/4.

    The sixteen inputs (sigma_i x sigma_j) rho (sigma_i x sigma_j), sent with
    equal probabilities, average to the maximally mixed output, and each
    member has the same output entropy; together these make 1 - S/2
    achievable, not just an upper bound. Raises InvalidState if the member
    entropies spread by more than 1e-10.
    """
    outs = _ensemble_outputs(channel, rho_star)
    avg = sum(outs) / 16.0
    deviation = float(np.abs(avg - np.eye(4) / 4.0).max())
    ents = [entropy_bits(np.linalg.eigvalsh(out)) for out in outs]
    spread = max(ents) - min(ents)
    if spread > _ENSEMBLE_ENTROPY_TOL:
        raise InvalidState(f"ensemble output entropies spread by {spread:.3e}")
    return deviation


def sweep_to_csv(results: list[CapacityResult]) -> str:
    """Fixed-schema CSV of a sweep; l1..l4 hold the winning branch spectrum."""
    rows = (
        (r.mu, r.regime.value, r.c2, r.entropy_product, r.entropy_bell,
         *r.winning_spectrum().tolist())
        for r in results
    )
    return csv_text(SWEEP_CSV_HEADER, rows)


# One element of json_text([r.to_dict() for r in results]) up to its
# thresholds: mu, regime, c2, both entropies and the eight spectrum values.
_JSON_ROW = """\
  {{
    "mu": {},
    "regime": "{}",
    "c2": {},
    "entropy_product": {},
    "entropy_bell": {},
    "lambdas_product": [
      {},
      {},
      {},
      {}
    ],
    "lambdas_bell": [
      {},
      {},
      {},
      {}
    ],
{}"""


def _json_tail(r: CapacityResult) -> str:
    """The rest of r's JSON element after the spectra, as json_text renders it."""
    d = r.to_dict()
    tail = {k: d[k] for k in ("mu_ml", "mu_star", "optimal_state")}
    return json_text([tail])[len("[\n  {\n"):-len("\n]\n")]


def sweep_to_json(results: list[CapacityResult]) -> str:
    """JSON array of full CapacityResult objects (double precision).

    Byte-identical to json_text([r.to_dict() for r in results]), which
    indent=2 confines to the pure-Python encoder. Each element is instead
    filled into one row template, every value through float.__repr__ as in
    json; the value fields must therefore be finite floats, as they are in
    every result capacity_two_use and capacity_sweep return. The constant
    tail (thresholds, NaN as null, and the descriptor) is rendered through
    to_dict and json_text once per distinct (mu_ml, mu_star, descriptor).
    """
    if not results:
        return json_text([])
    num = float.__repr__
    tails = {}
    rows = []
    for r in results:
        # Thresholds by identity (results keeps them alive), since 0.0 == -0.0
        # prints two ways; the descriptor by its repr, since it is a dict.
        key = (id(r.mu_ml), id(r.mu_star), repr(r.optimal_state_descriptor))
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = _json_tail(r)
        rows.append(_JSON_ROW.format(
            num(r.mu), r.regime.value, num(r.c2), num(r.entropy_product), num(r.entropy_bell),
            *map(num, r.lambdas_product.tolist()), *map(num, r.lambdas_bell.tolist()), tail,
        ))
    return "[\n" + ",\n".join(rows) + "\n]\n"
