"""Exception types shared across the package.

Two broad families matter to callers: InputError for arguments that are
rejected up front, ComputationError for numerical procedures that fail to
converge or to certify their result.  The command line maps the first
family to exit code 2 and the second to exit code 3.
"""


class WavesymError(Exception):
    """Base class for all package errors."""


class InputError(WavesymError):
    """Invalid argument or precondition violation detectable at call time."""


class ComputationError(WavesymError):
    """A numerical procedure failed to converge or to certify its result."""


class OutOfRange(InputError):
    """A parameter lies outside its documented range."""


class NotBiaxial(InputError):
    """The dielectric tensor has a repeated eigenvalue."""


class RankZero(ComputationError):
    """The coefficient matrix vanishes, so the kernel line is undefined."""


class DegenerateField(ComputationError):
    """The determinant field vanishes on the lattice that sets its scale."""


class LiftFailure(ComputationError):
    """A continuous angle lift could not be certified (grid too coarse)."""


class ZeroOnVertex(ComputationError):
    """A section vanishes on a mesh vertex; perturb the mesh and retry."""


class TransportFailure(ComputationError):
    """A tangent frame cannot be carried to a point by projection."""


class GluingMismatch(ComputationError):
    """A boundary eigenline-angle map is not a degree +-1 circle map."""


class NotClosed(ComputationError):
    """The mesh has boundary edges where a closed surface is required."""


class NotConnected(ComputationError):
    """The mesh has several components where one is required."""
