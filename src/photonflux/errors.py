"""Exception types shared across the package."""


class PhotonfluxError(ValueError):
    """Base class for all contract violations raised by this package."""


class InvalidModeError(PhotonfluxError):
    """A mode index does not belong to the state's declared mode space."""


class TruncationError(PhotonfluxError):
    """An operation would exceed the occupation cutoff of a truncated space."""


class NormalizationError(PhotonfluxError):
    """A state required to be normalized is not."""


class DimensionError(PhotonfluxError):
    """Operands live on incompatible grids or mode spaces."""


class UnitarityError(PhotonfluxError):
    """A matrix required to be unitary is not, beyond tolerance."""


class GridCoverageError(PhotonfluxError):
    """A spectrum leaks beyond the edges of its wavenumber grid."""


class StepSizeError(PhotonfluxError):
    """A finite-difference step is too large for the grid."""


class PassivityError(PhotonfluxError):
    """A medium would amplify rather than attenuate."""


class DomainError(PhotonfluxError):
    """An argument lies outside the mathematical domain of the operation."""


class PortError(PhotonfluxError):
    """A circuit port reference is unknown or inconsistent."""


class NetlistError(PhotonfluxError):
    """A netlist or a JSON spec failed validation; the message names the violations."""


class InvariantError(PhotonfluxError):
    """A computed result violates a numerical invariant, e.g. is not finite."""
