"""Exception hierarchy shared across the package.

Operation-contract failures raise ``AperioError`` subclasses; violations of
constructor invariants raise plain ``ValueError``.  ``DimensionMismatchError``
is both; ``pointset.as_box`` and ``pointset.as_rows`` raise it, and
``density`` for a limit patch of another dimension than the base patch.
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


class DimensionMismatchError(AperioError, ValueError):
    """A box, point rows, limit patch or kernel is not of the dimension it meets; the command line exits 2."""


class NotAFrameError(AperioError):
    """A Gram system is too ill-conditioned to canonicalize at this truncation."""


class PatchSizeError(AperioError):
    """Requested Folner size is infeasible for the given patch."""


class GramSizeError(AperioError):
    """Gram matrix would exceed the dense-solver size limit (``framekit.MAX_GRAM_POINTS``)."""


class ConfigError(AperioError):
    """Experiment configuration failed to parse or validate."""
