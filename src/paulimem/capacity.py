"""Output spectra, entropies, regimes, and the two-use capacity curve.

The two candidate input families (product states along the dominant Pauli
axis, and Bell states) both admit closed-form output spectra. The capacity
per use is 1 - S/2 with S the smaller of the two output entropies; the
equal-weight ensemble of the sixteen Pauli-conjugated copies of the optimal
input achieves it.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import (
    ChannelParams,
    PauliChannel,
    Thresholds,
    _epsilon_matrix,
    apply_channel,
    channel_params,
)
from .errors import InvalidSpectrum, InvalidState, OutOfRange
from .pauli import PAULI2

_SPECTRUM_TOL = 1e-9
_TIE_TOL = 1e-12
_ENSEMBLE_ENTROPY_TOL = 1e-10

SWEEP_CSV_HEADER = "mu,regime,c2,entropy_product,entropy_bell,l1,l2,l3,l4"
# Every CSV number, in format_number and in the sweep's CSV row template.
_NUMBER_SPEC = ".12g"


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


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Two-use capacity at one memory value, with both branch diagnostics.

    Results compare by value, field by field as to_dict gives them; they are
    not hashable.
    """

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

    def __eq__(self, other):
        if not isinstance(other, CapacityResult):
            return NotImplemented
        return self.to_dict() == other.to_dict()

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
    return format(float(x) + 0.0, _NUMBER_SPEC)  # + 0.0 normalizes -0.0


def csv_text(header: str, rows) -> str:
    """The header line, then one line per row with each cell through format_number."""
    lines = [header]
    lines.extend(",".join(map(format_number, row)) for row in rows)
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    """obj as JSON indented by two spaces, with a final newline."""
    return json.dumps(obj, indent=2) + "\n"


def _regime(s_p: float, s_b: float) -> Regime:
    """The family of smaller output entropy; entropies within 1e-12 are a TIE."""
    if abs(s_p - s_b) < _TIE_TOL:
        return Regime.TIE
    if s_p < s_b:
        return Regime.PRODUCT
    return Regime.ENTANGLED


def _result(
    mu: float, lam: np.ndarray, s_p: float, s_b: float, l: int, th: Thresholds
) -> CapacityResult:
    """CapacityResult at one mu from both branch spectra lam, shape (2, 4), and their entropies."""
    regime = _regime(s_p, s_b)
    if regime is Regime.ENTANGLED:
        descriptor = {"family": "bell", "signs": [1, -1, 1]}
    else:
        descriptor = {"family": "product", "l": l}
    return CapacityResult(
        mu=mu,
        regime=regime,
        lambdas_product=lam[0],
        lambdas_bell=lam[1],
        entropy_product=s_p,
        entropy_bell=s_b,
        c2=1.0 - min(s_p, s_b) / 2.0,
        mu_ml=th.mu_ml,
        mu_star=th.mu_star,
        optimal_state_descriptor=descriptor,
    )


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
    lam = _cp_spectra(cp)
    s_p, s_b = _entropies(lam).tolist()
    return _result(channel.mu, lam, s_p, s_b, cp.ordering[0], cp.thresholds)


@dataclass(frozen=True, eq=False)
class CapacityCurve(Sequence):
    """Two-use capacity along a memory grid, held as read-only columns.

    mu has shape (N,); spectra (N, 2, 4) holds the product then the Bell
    spectrum at each mu, each sorted descending; entropies (N, 2) holds their
    entropies. l (the dominant axis) and thresholds do not depend on mu.
    Entry i is built on indexing and equals capacity_two_use at mu[i]; a
    slice is again a curve.
    """

    mu: np.ndarray
    spectra: np.ndarray
    entropies: np.ndarray
    l: int
    thresholds: Thresholds

    def __post_init__(self):
        for column in (self.mu, self.spectra, self.entropies):
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.mu)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CapacityCurve(
                self.mu[i], self.spectra[i], self.entropies[i], self.l, self.thresholds
            )
        i = operator.index(i)
        s_p, s_b = self.entropies[i].tolist()
        return _result(self.mu[i].item(), self.spectra[i], s_p, s_b, self.l, self.thresholds)


def _checked_mu_grid(channel_base: PauliChannel, mu_grid) -> np.ndarray:
    """mu_grid as a 1-D float array; raises OutOfRange naming its first value outside [0, 1]."""
    mu = np.asarray(mu_grid, dtype=float)
    if mu.ndim != 1:
        raise OutOfRange(f"mu grid must be one-dimensional, got shape {mu.shape}")
    bad = ~((mu >= 0.0) & (mu <= 1.0))
    if bad.any():
        channel_base.with_mu(mu[np.argmax(bad)])  # raises, naming the value
    return mu


def capacity_sweep(channel_base: PauliChannel, mu_grid) -> CapacityCurve:
    """Capacity at every memory value of the grid, with q held fixed.

    The grid is checked as a whole first: the first value outside [0, 1]
    (NaN and infinities included) raises OutOfRange, as PauliChannel would.
    The curve is then one array pass; eps, the ordering and the thresholds
    are computed once.
    """
    mu = _checked_mu_grid(channel_base, mu_grid).copy()  # the curve owns, and freezes, its grid
    cp = channel_params(channel_base)
    l = cp.ordering[0]
    lam = _branch_spectra(_epsilon_matrix(cp.eps, mu[:, None, None]), l, cp.eps[l])
    return CapacityCurve(mu, lam, _entropies(lam), l, cp.thresholds)


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
    ents = ensemble_output_entropies(channel, rho_star)
    spread = max(ents) - min(ents)
    if spread > _ENSEMBLE_ENTROPY_TOL:
        raise InvalidState(f"ensemble output entropies spread by {spread:.3e}")
    return deviation


def _table(curve: CapacityCurve) -> np.ndarray:
    """The writers' input: one row (mu, c2, entropy_product, entropy_bell,
    *lambdas_product, *lambdas_bell) per entry of the curve, shape (N, 12)."""
    if not isinstance(curve, CapacityCurve):
        raise TypeError(f"expected a CapacityCurve, got {type(curve).__name__}")
    c2 = 1.0 - curve.entropies.min(axis=1) / 2.0
    spectra = curve.spectra.reshape(len(curve), 8)
    return np.column_stack((curve.mu, c2, curve.entropies, spectra))


_CSV_ROW = ",".join(["%" + _NUMBER_SPEC, "%s"] + ["%" + _NUMBER_SPEC] * 7)


def sweep_to_csv(curve: CapacityCurve) -> str:
    """Fixed-schema CSV of a curve; l1..l4 hold the winning branch spectrum.

    Byte-identical to csv_text(SWEEP_CSV_HEADER, ...) over each entry's mu,
    regime, c2, both entropies and winning_spectrum().
    """
    table = _table(curve)
    lines = [SWEEP_CSV_HEADER]
    for row in (table + 0.0).tolist():  # + 0.0 normalizes -0.0, as in format_number
        regime = _regime(row[2], row[3])
        lam = row[8:] if regime is Regime.ENTANGLED else row[4:8]
        lines.append(_CSV_ROW % (row[0], regime.value, row[1], row[2], row[3], *lam))
    return "\n".join(lines) + "\n"


# One element of json_text([r.to_dict() for r in results]) up to its
# thresholds: mu, regime, c2, both entropies and the eight spectrum values.
_JSON_ROW = """\
  {
    "mu": %r,
    "regime": "%s",
    "c2": %r,
    "entropy_product": %r,
    "entropy_bell": %r,
    "lambdas_product": [
      %r,
      %r,
      %r,
      %r
    ],
    "lambdas_bell": [
      %r,
      %r,
      %r,
      %r
    ],
%s"""


def _json_tail(r: CapacityResult) -> str:
    """The rest of r's JSON element after the spectra, as json_text renders it."""
    d = r.to_dict()
    tail = {k: d[k] for k in ("mu_ml", "mu_star", "optimal_state")}
    return json_text([tail])[len("[\n  {\n"):-len("\n]\n")]


def sweep_to_json(curve: CapacityCurve) -> str:
    """JSON array of the curve's entries as full CapacityResult objects (double precision).

    Byte-identical to json_text([r.to_dict() for r in curve]), which indent=2
    confines to the pure-Python encoder. Each element is instead filled into
    one row template, every value through float.__repr__ (%r) as in json. The
    tail (thresholds, NaN as null, and the descriptor) depends only on the
    regime, so it is rendered through to_dict and json_text once per regime.
    """
    table = _table(curve)
    if not len(table):
        return json_text([])
    tails = {}
    rows = []
    for i, row in enumerate(table.tolist()):
        regime = _regime(row[2], row[3])
        tail = tails.get(regime)
        if tail is None:
            tail = tails[regime] = _json_tail(curve[i])
        rows.append(_JSON_ROW % (row[0], regime.value, *row[1:], tail))
    return "[\n" + ",\n".join(rows) + "\n]\n"
