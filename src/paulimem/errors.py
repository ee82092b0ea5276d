"""Exception types shared across the package, and is_integer; no numpy is imported here.

The array input contract, checked_array, lives in states.py, beside numpy."""

from numbers import Integral


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


def is_integer(x) -> bool:
    """x is a Python or numpy integer (numpy registers its integers as numbers.Integral);
    not a bool (True == 1), float or string."""
    return isinstance(x, Integral) and not isinstance(x, bool)
