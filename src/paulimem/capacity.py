"""Output spectra, entropies, regimes, and the two-use capacity curve.

The two candidate input families (product states along the dominant Pauli
axis, and Bell states) both admit closed-form output spectra. The capacity
per use is 1 - S/2 with S the smaller of the two output entropies; the
equal-weight ensemble of the sixteen Pauli-conjugated copies of the optimal
input achieves it.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelParams, PauliChannel, Thresholds, _capacity_inputs, apply_channel
from .errors import InvalidSpectrum, InvalidState, OutOfRange, checked_array
from .pauli import PAULI2

_SPECTRUM_TOL = 1e-9
_TIE_TOL = 1e-12
_ENSEMBLE_ENTROPY_TOL = 1e-10
# Rows per block of a sweep's entropies and of its CSV and JSON text: large
# enough that numpy's per-call cost is spread thin, small enough that a
# block's temporaries, Python floats and text stay a few MB.
_BLOCK_ROWS = 8192

SWEEP_CSV_HEADER = "mu,regime,c2,entropy_product,entropy_bell,l1,l2,l3,l4"
# Every CSV number, in format_number and in the sweep's CSV row template.
_NUMBER_SPEC = ".12g"


class Regime(str, Enum):
    """Which input family minimizes the output entropy."""

    PRODUCT = "product"
    ENTANGLED = "entangled"
    TIE = "tie"


def _eps_diagonal(eps: list, mu) -> list:
    """eps_kk(mu) = (1 - mu) eps_k^2 + mu for k = 0..3, bit for bit the diagonal
    of the eps_kk' matrix; mu is a float (one point) or an (N,) grid."""
    return [(1.0 - mu) * x * x + mu for x in eps]


def _branch_spectra(d, e_ll, e_l) -> np.ndarray:
    """Output spectra of both input families, shape (2, 4), or (N, 2, 4) over a grid.

    d[k] = eps_kk for k = 0..3 and e_ll = d[l], each a float (one point) or an
    (N,) column; l is the dominant axis and e_l = eps_l. [..., 0, :] is the
    product spectrum (see spectrum_product_regime), [..., 1, :] the Bell
    spectrum (see spectrum_bell_regime), each sorted descending.
    """
    e11, e22, e33 = d[1], d[2], d[3]
    a, b = 1.0 + e_ll, 1.0 - e_ll
    c, f = 1.0 + e33, 1.0 - e33
    # One literal for both spectra: (8,) at one point, (8, N) over a grid.
    lam = np.array([a + 2.0 * e_l, a - 2.0 * e_l, b, b,
                    c + e11 + e22, c - e11 - e22, f + e11 - e22, f - e11 + e22])
    lam = lam.T.reshape(np.shape(e33) + (2, 4)) / 4.0
    lam.sort(axis=-1)
    return lam[..., ::-1]


def _entropies(lam: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits of the 4-point spectra along the last axis.

    The array route, for sweeps and stacks of eigvalsh outputs; _float_entropies
    is its plain-float twin for a query of one or two spectra, equal bit for bit,
    and holds the one spectrum rule: a spectrum it refuses raises InvalidSpectrum,
    worded by it. Sums over the last axis add left to right: numpy sums fewer
    than 8 terms in order.
    """
    # One test of the whole array, written so that NaN, for which every
    # comparison is false, fails it. It compares what _float_entropies compares,
    # with sums equal bit for bit, so that call then raises for the first bad spectrum.
    if lam.size and not (lam.min() >= -_SPECTRUM_TOL
                         and abs(lam.sum(axis=-1) - 1.0).max() <= _SPECTRUM_TOL):
        _float_entropies(lam.reshape(-1, 4).tolist())
    # Zeros and rounded negatives contribute 1 log2 1 = 0.
    p = np.where(lam > 0.0, lam, 1.0)
    # 0.0 - sum turns a pure spectrum's -0.0 into 0.0; eigenvalues a hair
    # above 1 give a tiny negative sum, clamped to 0.
    return np.maximum(0.0 - (p * np.log2(p)).sum(axis=-1), 0.0)


def _float_entropies(spectra: list) -> list:
    """_entropies of a list of 4-float spectra, as a list of floats, bit for bit.

    The spectrum rule of the package: eigenvalues in [-1e-9, 0) are rounded
    zeros. The first spectrum with a value below -1e-9 raises InvalidSpectrum
    naming its smallest value, and one whose total is NaN or away from 1 by
    more than 1e-9 raises naming that total; a spectrum holding a NaN is
    reported by its total, NaN. Then one np.log2 call over every value and
    _entropies' arithmetic in Python floats: each sum starts from 0.0 and adds
    its four terms left to right, as numpy's does (so four -0.0 total 0.0). A
    query of one or two spectra spends most of its time in numpy's per-call
    cost, which this route pays once instead of a dozen times.
    """
    for a, b, c, d in spectra:
        total = 0.0 + a + b + c + d
        # NaN fails every comparison, and a NaN value makes the total NaN.
        if not (abs(total - 1.0) <= _SPECTRUM_TOL and a >= -_SPECTRUM_TOL
                and b >= -_SPECTRUM_TOL and c >= -_SPECTRUM_TOL and d >= -_SPECTRUM_TOL):
            # A NaN is reported by the total, even beside a negative value.
            low = min(a, b, c, d)
            if low < -_SPECTRUM_TOL and not any(map(math.isnan, (a, b, c, d))):
                raise InvalidSpectrum(f"negative eigenvalue {low!r}")
            raise InvalidSpectrum(f"eigenvalues sum to {total!r}, not 1")
    p = [x if x > 0.0 else 1.0 for spectrum in spectra for x in spectrum]
    log_p = np.log2(p).tolist()
    entropies = []
    for i in range(0, len(p), 4):
        s = 0.0 - (0.0 + p[i] * log_p[i] + p[i + 1] * log_p[i + 1]
                   + p[i + 2] * log_p[i + 2] + p[i + 3] * log_p[i + 3])
        entropies.append(s if s > 0.0 else 0.0)
    return entropies


def entropy_bits(lambdas) -> float:
    """Von Neumann entropy -sum lam log2(lam) of a 4-point spectrum, in bits.

    A value that is not four finite numbers raises InvalidSpectrum under the
    input contract; the spectrum is then held to _float_entropies' rule, which
    it takes as the route of one spectrum, equal bit for bit to the array one.
    """
    lam = checked_array(lambdas, (4,), float, InvalidSpectrum, "eigenvalue")
    return _float_entropies([lam.tolist()])[0]


def _cp_spectra(cp: ChannelParams) -> np.ndarray:
    d, l = cp.eps2.diagonal().tolist(), cp.ordering[0]
    return _branch_spectra(d, d[l], cp.eps[l].item())


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
            "mu_ml": self.mu_ml,
            "mu_star": self.mu_star,
            "optimal_state": self.optimal_state_descriptor,
        }


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
    lam.setflags(write=False)  # and with it both spectra, as __post_init__ does
    # The fields as __init__ sets them, without the object.__setattr__ call per
    # field that a frozen dataclass's __init__ makes.
    r = object.__new__(CapacityResult)
    vars(r).update(
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
    return r


def capacity_two_use(channel: PauliChannel) -> CapacityResult:
    """Classical capacity of two correlated uses, in bits per use.

    Evaluates both analytic branches and returns c2 = 1 - S_min/2. The regime
    label comes from comparing the two entropies directly (differences below
    1e-12 report TIE); mu_star is reported alongside but not used for the
    decision. mu_star is where the two output spectra have equal purity
    sum(lam^2), not equal entropy, so the entropies can still differ there
    by a few hundredths of a bit. On a tie the product family is named in
    the descriptor; both families are then optimal.
    """
    eps, (l, _, _), th = _capacity_inputs(channel)
    d = _eps_diagonal(eps, channel.mu)
    lam = _branch_spectra(d, d[l], eps[l])
    s_p, s_b = _float_entropies(lam.tolist())
    return _result(channel.mu, lam, s_p, s_b, l, th)


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
    """mu_grid as a 1-D float array, checked by checked_array; raises OutOfRange naming
    its first value outside [0, 1]."""
    mu = checked_array(mu_grid, (None,), float, OutOfRange, "mu grid")
    bad = (mu < 0.0) | (mu > 1.0)
    if bad.any():
        channel_base.with_mu(mu[np.argmax(bad)])  # raises, naming the value
    return mu


def capacity_sweep(channel_base: PauliChannel, mu_grid) -> CapacityCurve:
    """Capacity at every memory value of the grid, with q held fixed.

    The grid is checked as a whole first, by the input contract (a 1-D list or
    array of finite numbers) and then for the first value outside [0, 1], each
    raising OutOfRange, the latter as PauliChannel would.
    The spectra and their entropies are then array passes over _BLOCK_ROWS
    rows at a time, into columns allocated once; eps, the ordering and the
    thresholds are computed once.
    """
    mu = _checked_mu_grid(channel_base, mu_grid).copy()  # the curve owns, and freezes, its grid
    eps, (l, _, _), th = _capacity_inputs(channel_base)
    # Whole, each temporary would be up to 64 MB at the 10^6-point grid bound.
    lam = np.empty((len(mu), 2, 4))
    ent = np.empty((len(mu), 2))
    for i in range(0, len(mu), _BLOCK_ROWS):
        d = _eps_diagonal(eps, mu[i:i + _BLOCK_ROWS])
        lam[i:i + _BLOCK_ROWS] = _branch_spectra(d, d[l], eps[l])
        ent[i:i + _BLOCK_ROWS] = _entropies(lam[i:i + _BLOCK_ROWS])
    return CapacityCurve(mu, lam, ent, l, th)


def _ensemble_outputs(channel: PauliChannel, rho_star: np.ndarray) -> np.ndarray:
    """(16, 4, 4) outputs of the sixteen Pauli-conjugated copies of rho_star."""
    rho_star = checked_array(rho_star, (4, 4), complex, InvalidState, "density operator")
    return np.stack([apply_channel(channel, u @ rho_star @ u) for u in PAULI2.reshape(16, 4, 4)])


def _output_entropies(outs: np.ndarray) -> np.ndarray:
    """Entropies in bits of a stack of 4x4 output matrices."""
    return _entropies(np.linalg.eigvalsh(outs))


def ensemble_output_entropies(channel: PauliChannel, rho_star: np.ndarray) -> np.ndarray:
    """Output entropies of the sixteen Pauli-conjugated copies of rho_star.

    The channel is covariant under Pauli conjugation, so all sixteen agree.
    """
    return _output_entropies(_ensemble_outputs(channel, rho_star))


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
    ents = _output_entropies(outs)
    spread = max(ents) - min(ents)
    if spread > _ENSEMBLE_ENTROPY_TOL:
        raise InvalidState(f"ensemble output entropies spread by {spread:.3e}")
    return deviation


# The writers' regime codes, which index _REGIMES and _REGIME_NAMES.
_REGIMES = (Regime.PRODUCT, Regime.ENTANGLED, Regime.TIE)
_PRODUCT, _ENTANGLED, _TIE = range(3)
_REGIME_NAMES = np.array([r.value for r in _REGIMES], dtype=object)


def _regime_codes(s_p: np.ndarray, s_b: np.ndarray) -> np.ndarray:
    """_regime elementwise over two entropy columns, as regime codes."""
    return np.where(abs(s_p - s_b) < _TIE_TOL, _TIE, np.where(s_p < s_b, _PRODUCT, _ENTANGLED))


def _parts(curve: CapacityCurve) -> list:
    """The curve in slices of up to _BLOCK_ROWS entries; anything but a curve raises TypeError."""
    if not isinstance(curve, CapacityCurve):
        raise TypeError(f"expected a CapacityCurve, got {type(curve).__name__}")
    return [curve[i:i + _BLOCK_ROWS] for i in range(0, len(curve), _BLOCK_ROWS)]


def _table(part: CapacityCurve) -> tuple[np.ndarray, np.ndarray]:
    """Regime codes and rows (mu, c2, entropy_product, entropy_bell,
    *lambdas_product, *lambdas_bell) of a curve, shapes (N,) and (N, 12)."""
    s = part.entropies
    c2 = 1.0 - s.min(axis=1) / 2.0
    rows = np.column_stack((part.mu, c2, s, part.spectra.reshape(len(part), 8)))
    return _regime_codes(s[:, 0], s[:, 1]), rows


_CSV_ROW = ",".join(["%" + _NUMBER_SPEC, "%s"] + ["%" + _NUMBER_SPEC] * 7) + "\n"


def sweep_csv_blocks(curve: CapacityCurve):
    """sweep_to_csv's text in pieces: the header line, then up to _BLOCK_ROWS rows at a time.

    Each block is one % over the row template repeated once per row, filled
    from an object array of Python floats and regime names; l1..l4 come from
    the Bell spectrum where the regime is ENTANGLED, else the product one.
    """
    parts = _parts(curve)
    yield SWEEP_CSV_HEADER + "\n"
    for part in parts:
        codes, rows = _table(part)
        rows += 0.0  # normalizes -0.0, as in format_number
        cells = np.empty((len(rows), 9), dtype=object)
        cells[:, 0] = rows[:, 0]
        cells[:, 1] = _REGIME_NAMES[codes]
        cells[:, 2:5] = rows[:, 1:4]
        cells[:, 5:] = np.where((codes == _ENTANGLED)[:, None], rows[:, 8:], rows[:, 4:8])
        yield _CSV_ROW * len(rows) % tuple(cells.ravel().tolist())


def sweep_to_csv(curve: CapacityCurve) -> str:
    """Fixed-schema CSV of a curve; l1..l4 hold the winning branch spectrum.

    Byte-identical to csv_text(SWEEP_CSV_HEADER, ...) over each entry's mu,
    regime, c2, both entropies and winning_spectrum(). The text is the join
    of sweep_csv_blocks, which the CLI writes block by block instead.
    """
    return "".join(sweep_csv_blocks(curve))


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


def sweep_json_blocks(curve: CapacityCurve):
    """sweep_to_json's text in pieces of up to _BLOCK_ROWS elements, then the closing bracket.

    Each block is one % over the element template repeated once per row,
    filled from an object array of Python floats, regime names and tails.
    The tail (thresholds and the descriptor) depends only on
    the regime, so it is rendered through to_dict and json_text once per
    regime of the curve, at that regime's first entry.
    """
    parts = _parts(curve)
    if not parts:
        yield json_text([])
        return
    tails = np.empty(len(_REGIMES), dtype=object)
    opening = "[\n"
    for part in parts:
        codes, rows = _table(part)
        # The codes present, ascending; np.unique would load numpy.ma on numpy 2.
        for code in np.flatnonzero(np.bincount(codes, minlength=len(_REGIMES))).tolist():
            if tails[code] is None:
                tails[code] = _json_tail(part[int(np.argmax(codes == code))])
        cells = np.empty((len(rows), 14), dtype=object)
        cells[:, 0] = rows[:, 0]
        cells[:, 1] = _REGIME_NAMES[codes]
        cells[:, 2:13] = rows[:, 1:]
        cells[:, 13] = tails[codes]
        yield opening + ",\n".join([_JSON_ROW] * len(rows)) % tuple(cells.ravel().tolist())
        opening = ",\n"
    yield "\n]\n"


def sweep_to_json(curve: CapacityCurve) -> str:
    """JSON array of the curve's entries as full CapacityResult objects (double precision).

    Byte-identical to json_text([r.to_dict() for r in curve]), which indent=2
    confines to the pure-Python encoder. Every value goes through
    float.__repr__ (%r), as in json. The text is the join of
    sweep_json_blocks, which the CLI writes block by block instead.
    """
    return "".join(sweep_json_blocks(curve))
