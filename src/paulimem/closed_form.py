"""The two-use capacity at one memory value in plain Python floats, and its record,
CapacityResult; no numpy is imported.

Both candidate input families (product states along the dominant Pauli axis, and
Bell states) have closed-form output spectra, written here once; capacity.py runs
the same expressions on numpy columns. The capacity per use is 1 - S/2, S the
smaller output entropy. Every closed-form log2 is the C library's (math.log2), so
no bit depends on numpy's SIMD path. The CLI's point commands load only this,
channel.py and errors.py.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

from .channel import _NOT_REAL, PauliChannel, Thresholds, _capacity_inputs, _eps_diagonal
from .channel import _frozen, _real
from .errors import InvalidSpectrum, OutOfRange

_SPECTRUM_TOL = 1e-9
_TIE_TOL = 1e-12

SWEEP_CSV_HEADER = "mu,regime,c2,entropy_product,entropy_bell,l1,l2,l3,l4"
# Every CSV number, in format_number and in the sweep's CSV row template.
_NUMBER_SPEC = ".12g"


class Regime(str, Enum):
    """Which input family minimizes the output entropy."""

    PRODUCT = "product"
    ENTANGLED = "entangled"
    TIE = "tie"


# The members bound once: Python 3.10 and 3.11 take ~0.1 us to look one up on Regime.
_PRODUCT, _ENTANGLED, _TIE = Regime


def _regime(s_p: float, s_b: float) -> Regime:
    """The family of smaller output entropy; entropies within 1e-12 are a TIE."""
    if abs(s_p - s_b) < _TIE_TOL:
        return _TIE
    if s_p < s_b:
        return _PRODUCT
    return _ENTANGLED


def _spectrum_values(d, e_ll, e_l) -> list:
    """The eight output eigenvalues of both input families, unsorted.

    d[k] = eps_kk for k = 0..3 and e_ll = d[l], each a float (one point) or an
    (N,) column; l is the dominant axis and e_l = eps_l. The first four are the
    product spectrum, (1 + eps_ll +- 2 eps_l)/4 and (1 - eps_ll)/4 twice; the
    last four the Bell spectrum, (1 + s1 eps_11 + s2 eps_22 + s3 eps_33)/4 over
    the four sign patterns with product +1.
    """
    e11, e22, e33 = d[1], d[2], d[3]
    a, b = 1.0 + e_ll, 1.0 - e_ll
    c, f = 1.0 + e33, 1.0 - e33
    return [(a + 2.0 * e_l) / 4.0, (a - 2.0 * e_l) / 4.0, b / 4.0, b / 4.0,
            (c + e11 + e22) / 4.0, (c - e11 - e22) / 4.0,
            (f + e11 - e22) / 4.0, (f - e11 + e22) / 4.0]


def _float_entropies(spectra: list) -> list:
    """Von Neumann entropies in bits of a list of 4-float spectra, as a list of floats.

    The spectrum rule of the package: eigenvalues in [-1e-9, 0) are rounded
    zeros. The first spectrum with a value below -1e-9 raises InvalidSpectrum
    naming its smallest value, and one whose total is NaN or away from 1 by
    more than 1e-9 raises naming that total; a spectrum holding a NaN is
    reported by its total, NaN. Zeros and rounded negatives are skipped: the
    array route adds 1 log2 1 = 0.0 for them, which changes no partial sum here,
    as none starting from 0.0 is -0.0. Each sum adds its terms left to right, as
    numpy's sum of capacity._entropies does, and 0.0 - sum turns a -0.0 into
    0.0. Eigenvalues a hair above 1 give a tiny negative sum, clamped to 0.
    """
    entropies = []
    for spectrum in spectra:
        a, b, c, d = spectrum
        total = 0.0 + a + b + c + d
        # NaN fails every comparison, and a NaN value makes the total NaN.
        if not (abs(total - 1.0) <= _SPECTRUM_TOL and a >= -_SPECTRUM_TOL
                and b >= -_SPECTRUM_TOL and c >= -_SPECTRUM_TOL and d >= -_SPECTRUM_TOL):
            # A NaN is reported by the total, even beside a negative value.
            low = min(a, b, c, d)
            if low < -_SPECTRUM_TOL and not any(map(math.isnan, (a, b, c, d))):
                raise InvalidSpectrum(f"negative eigenvalue {low!r}")
            raise InvalidSpectrum(f"eigenvalues sum to {total!r}, not 1")
        s = 0.0
        for x in spectrum:
            if x > 0.0:
                s += x * math.log2(x)
        s = 0.0 - s
        entropies.append(s if s > 0.0 else 0.0)
    return entropies


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Two-use capacity at one memory value, with both branch diagnostics.

    Each spectrum is a 4-tuple of floats, sorted descending where capacity_two_use
    or a curve entry builds it. Results compare by value, field by field as to_dict
    gives them; they are not hashable.
    """

    mu: float
    regime: Regime
    lambdas_product: tuple[float, float, float, float]
    lambdas_bell: tuple[float, float, float, float]
    entropy_product: float
    entropy_bell: float
    c2: float
    mu_ml: float
    mu_star: float
    optimal_state_descriptor: dict

    def __post_init__(self):
        """Only a direct build or dataclasses.replace runs this. It holds mu, mu_ml and
        mu_star as floats and each spectrum as a 4-tuple of floats, refusing text and
        bools as PauliChannel does (OutOfRange for a memory value, InvalidSpectrum for
        a spectrum entry). It raises InvalidSpectrum for a descriptor that is not a dict
        holding "family", and if the entropies, c2, regime or family do not follow from
        the spectra as capacity_two_use and capacity_sweep derive them."""
        for name in ("mu", "mu_ml", "mu_star"):
            value = _real(getattr(self, name), name + " {!r} is not a real number")
            object.__setattr__(self, name, value)
        for name in ("lambdas_product", "lambdas_bell"):
            object.__setattr__(self, name, _spectrum(getattr(self, name), name))
        descriptor = self.optimal_state_descriptor
        if not (isinstance(descriptor, dict) and "family" in descriptor):
            raise InvalidSpectrum(f"optimal_state_descriptor {descriptor!r} "
                                  "is not a dict holding 'family'")
        s_p, s_b = _float_entropies([self.lambdas_product, self.lambdas_bell])
        regime = _regime(s_p, s_b)
        derived = {"entropy_product": (self.entropy_product, s_p),
                   "entropy_bell": (self.entropy_bell, s_b),
                   "c2": (self.c2, 1.0 - min(s_p, s_b) / 2.0),
                   "regime": (self.regime, regime),
                   "family": (descriptor["family"],
                              "bell" if regime is _ENTANGLED else "product")}
        for name, (given, value) in derived.items():
            # A Regime equals its text ("product"); only the member itself follows.
            if given != value or name == "regime" and given is not value:
                raise InvalidSpectrum(f"{name} {given!r} does not follow from the spectra, "
                                      f"which give {value!r}")

    def __eq__(self, other):
        if not isinstance(other, CapacityResult):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def winning_spectrum(self):
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
            "lambdas_product": list(self.lambdas_product),
            "lambdas_bell": list(self.lambdas_bell),
            "mu_ml": self.mu_ml,
            "mu_star": self.mu_star,
            "optimal_state": self.optimal_state_descriptor,
        }


def _spectrum(values, name: str) -> tuple:
    """values as a 4-tuple of floats, each through channel._real; text, a bool, a value
    that does not iterate and a length other than 4 raise InvalidSpectrum."""
    message = name + " entry {!r} is not a real number"
    try:
        if isinstance(values, _NOT_REAL):  # bytes iterate to ints
            raise TypeError
        spectrum = tuple([_real(x, message) for x in values])
    except TypeError:
        raise InvalidSpectrum(f"{name} must be 4 real numbers, got {values!r}") from None
    except OutOfRange as exc:
        raise InvalidSpectrum(str(exc)) from None
    if len(spectrum) != 4:
        raise InvalidSpectrum(f"{name} holds {len(spectrum)} values, not 4")
    return spectrum


def _result(mu: float, lam_p: tuple, lam_b: tuple, s_p: float, s_b: float, l: int,
            th: Thresholds) -> CapacityResult:
    """The capacity result at one mu, from both branch spectra (4-tuples of floats,
    held as given) and their entropies; on a tie the descriptor names the product
    family, both families being optimal."""
    regime = _regime(s_p, s_b)
    if regime is _ENTANGLED:
        descriptor = {"family": "bell", "signs": [1, -1, 1]}
    else:
        descriptor = {"family": "product", "l": l}
    return _frozen(CapacityResult, {
        "mu": mu,
        "regime": regime,
        "lambdas_product": lam_p,
        "lambdas_bell": lam_b,
        "entropy_product": s_p,
        "entropy_bell": s_b,
        "c2": 1.0 - min(s_p, s_b) / 2.0,
        "mu_ml": th.mu_ml,
        "mu_star": th.mu_star,
        "optimal_state_descriptor": descriptor,
    })


def capacity_two_use(channel: PauliChannel) -> CapacityResult:
    """Classical capacity of two correlated uses, in bits per use.

    Evaluates both analytic branches and returns c2 = 1 - S_min/2. The regime
    label comes from comparing the two entropies directly (differences below
    1e-12 report TIE); mu_star is reported alongside but not used for the
    decision. mu_star is where the two output spectra have equal purity
    sum(lam^2), not equal entropy, so the entropies can still differ there
    by a few hundredths of a bit. On a tie the product family is named in
    the descriptor; both families are then optimal. Each spectrum is a tuple
    sorted descending; eps, the ordering and the thresholds come from one
    _capacity_inputs.
    """
    eps, (l, _, _), th = _capacity_inputs(channel)
    d = _eps_diagonal(eps, channel.mu)
    lam = _spectrum_values(d, d[l], eps[l])
    lam_p, lam_b = tuple(sorted(lam[:4], reverse=True)), tuple(sorted(lam[4:], reverse=True))
    s_p, s_b = _float_entropies([lam_p, lam_b])
    return _result(channel.mu, lam_p, lam_b, s_p, s_b, l, th)


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
