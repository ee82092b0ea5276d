"""The closed form in numpy arrays: the capacity at one point, the capacity curve along a
memory grid with its CSV and JSON writers, and the channel's numpy views and actions.

capacity_two_use is closed_form._point with its spectra as a read-only array; a
sweep evaluates the same spectrum expressions on columns, with the same libm log2.
The equal-weight ensemble of the sixteen Pauli-conjugated copies of the optimal
input achieves the capacity.
"""

from __future__ import annotations

import math
import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import PauliChannel, Thresholds, _capacity_inputs, _eps, _eps_diagonal, _epsilon_matrix
from .channel import _frozen, _params
from .closed_form import _NUMBER_SPEC, _SPECTRUM_TOL, _TIE_TOL, SWEEP_CSV_HEADER, Regime
from .closed_form import _fields, _float_entropies, _point, _regime, _spectrum_values
from .closed_form import _to_dict, _winning_spectrum, csv_text, json_text
from .errors import InvalidSpectrum, InvalidState, OutOfRange
from .pauli import PAULI2, SIGN_TABLE
from .states import _checked_weights, checked_array

_TRACE_TOL = 1e-9
_ENSEMBLE_ENTROPY_TOL = 1e-10
# Rows per block of a sweep's entropies and of its CSV and JSON text: large
# enough that numpy's per-call cost is spread thin, small enough that a
# block's temporaries, Python floats and text stay a few MB.
_BLOCK_ROWS = 8192
_PACK_SPECTRA = struct.Struct("8d").pack


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
    """channel.py's plain-float parameters of the channel, as arrays."""
    eps, eps2, order, th = _params(channel)
    return ChannelParams(np.array(eps), np.array(eps2), order, th)


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
    return np.array(_epsilon_matrix(_eps(channel.q), channel.mu))


def epsilon_matrix_bruteforce(channel: PauliChannel) -> np.ndarray:
    """Same matrix, straight from the joint error distribution.

    eps_nk = sum_ij p_ij s_in s_jk; kept as an independent route for testing
    the closed form.
    """
    p = channel.joint_probabilities()
    return SIGN_TABLE.T @ p @ SIGN_TABLE


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


def _branch_spectra(d, e_ll, e_l) -> np.ndarray:
    """Output spectra of both input families, shape (2, 4), or (N, 2, 4) over a grid.

    The arguments are _spectrum_values'; [..., 0, :] is the product spectrum
    (see spectrum_product_regime), [..., 1, :] the Bell spectrum (see
    spectrum_bell_regime), each sorted descending.
    """
    # (8,) at one point, (8, N) over a grid.
    lam = np.array(_spectrum_values(d, e_ll, e_l))
    lam = lam.T.reshape(np.shape(d[3]) + (2, 4))
    lam.sort(axis=-1)
    return lam[..., ::-1]


def _entropies(lam: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits of the 4-point spectra along the last axis.

    The array route, for sweeps and stacks of eigvalsh outputs: the arithmetic
    of closed_form._float_entropies, with the same libm log2, on a whole array,
    equal to it bit for bit. A spectrum that rule refuses raises InvalidSpectrum,
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
    log_p = np.fromiter(map(math.log2, memoryview(p.ravel())), float, p.size).reshape(p.shape)
    # 0.0 - sum turns a pure spectrum's -0.0 into 0.0; eigenvalues a hair
    # above 1 give a tiny negative sum, clamped to 0.
    return np.maximum(0.0 - (p * log_p).sum(axis=-1), 0.0)


def entropy_bits(lambdas) -> float:
    """Von Neumann entropy -sum lam log2(lam) of a 4-point spectrum, in bits.

    A value that is not four finite real numbers raises InvalidSpectrum under
    the input contract; the spectrum is then held to the spectrum rule of
    closed_form._float_entropies, which gives its entropy.
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
        # Read-only copies: the caller's arrays stay theirs, and writeable.
        for name in ("lambdas_product", "lambdas_bell"):
            spectrum = np.array(getattr(self, name), dtype=float)
            spectrum.setflags(write=False)
            object.__setattr__(self, name, spectrum)

    def __eq__(self, other):
        if not isinstance(other, CapacityResult):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def winning_spectrum(self) -> np.ndarray:
        """Spectrum of the branch named in optimal_state_descriptor."""
        return _winning_spectrum(self)

    def to_dict(self) -> dict:
        return _to_dict(self)


def capacity_two_use(channel: PauliChannel) -> CapacityResult:
    """Classical capacity of two correlated uses, in bits per use.

    Evaluates both analytic branches and returns c2 = 1 - S_min/2. The regime
    label comes from comparing the two entropies directly (differences below
    1e-12 report TIE); mu_star is reported alongside but not used for the
    decision. mu_star is where the two output spectra have equal purity
    sum(lam^2), not equal entropy, so the entropies can still differ there
    by a few hundredths of a bit. On a tie the product family is named in
    the descriptor; both families are then optimal. The values are those of
    closed_form._point, with its two spectra as halves of one array.
    """
    fields = _point(channel)
    # Over bytes, which are immutable, the array and both halves are read-only.
    lam = np.frombuffer(_PACK_SPECTRA(*fields["lambdas_product"], *fields["lambdas_bell"]))
    fields["lambdas_product"], fields["lambdas_bell"] = lam[:4], lam[4:]
    return _frozen(CapacityResult, fields)


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
        lam_p, lam_b = self.spectra[i, 0], self.spectra[i, 1]  # views of the read-only column
        fields = _fields(self.mu[i].item(), lam_p, lam_b, s_p, s_b, self.l, self.thresholds)
        return _frozen(CapacityResult, fields)


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
