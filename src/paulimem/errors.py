"""Exception types shared across the package, and checked_array, the one check every
public function that takes an array makes first, raising the subclass it raises elsewhere."""

import numpy as np


class PauliMemError(ValueError):
    """Base class for all validation errors raised by this package."""


class NonNormalized(PauliMemError):
    """Probabilities, amplitudes or weights do not sum/normalize to 1."""


class OutOfRange(PauliMemError):
    """A parameter lies outside its admissible range."""


class InvalidState(PauliMemError):
    """A density operator fails its trace or Hermiticity contract."""


class BadIndex(PauliMemError):
    """A Pauli index or sign argument is not one of the allowed values."""


class NotPure(PauliMemError):
    """The requested Bell-type operator is not a pure-state projector."""


class NonHermitian(PauliMemError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class InvalidSpectrum(PauliMemError):
    """An eigenvalue list is not a valid probability spectrum."""


def checked_array(x, shape: tuple, dtype, error: type, name: str) -> np.ndarray:
    """x as a finite dtype array of the given shape (None: any length), or error naming name."""
    try:
        a = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError):
        raise error(f"{name} entries must be numbers") from None
    if a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape)):
        raise error(f"{name} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise error(f"{name} is NaN" if np.isnan(a).any() else f"{name} is not finite")
    return a


def is_integer(x) -> bool:
    """x is a Python or numpy integer; not a bool (True == 1), float or string."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)
