"""Exception hierarchy shared across the package.

Operation-contract failures raise ``AperioError`` subclasses; violations of
constructor invariants raise plain ``ValueError``.
"""


class AperioError(Exception):
    """Base class for all operation errors raised by this package."""


class EmptyPatchError(AperioError):
    """An operation that needs at least one point received an empty patch."""


class WindowTooLargeError(AperioError):
    """A counting window exceeds what the patch box can certify."""


class CoverageError(AperioError):
    """A patch box is too small to cover the requested compact window."""


class DegenerateBasisError(AperioError):
    """Lattice basis matrix is singular (or numerically so)."""


class EmptyWindowError(AperioError):
    """An internal-space window with zero volume where positive volume is required."""


class GridTooCoarseError(AperioError):
    """Evaluation grid step is too coarse for the requested window."""


class DimensionMismatchError(AperioError):
    """Points do not live in the space a kernel expects."""


class NotAFrameError(AperioError):
    """A Gram system is too ill-conditioned to canonicalize at this truncation."""


class PatchSizeError(AperioError):
    """Requested Folner size is infeasible for the given patch."""


class GramSizeError(AperioError):
    """Gram matrix would exceed the dense-solver size limit (``framekit.MAX_GRAM_POINTS``)."""


class ConfigError(AperioError):
    """Experiment configuration failed to parse or validate."""
