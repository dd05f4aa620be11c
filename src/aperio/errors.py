"""Exception hierarchy shared across the package.

One rule decides whose fault a failure is.  A check that reads only the
call's own arguments and no patch data raises ``ArgumentError`` where it is
made; the command line exits 2 on it, as on a ``ConfigError`` from parsing.
A failure that depends on the data is an operation error (another
``AperioError``, or a plain ``ValueError`` for a constructor invariant such as
a degenerate box or duplicate points); the command line exits 1 on it.
``ArgumentError`` is also a ``ValueError``, so library callers catch both
kinds alike.  A value is checked where it is made
(``KernelSpec``, ``DensityReport``), and not again where it is used.
"""


class AperioError(Exception):
    """Base class for all errors raised by this package."""


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


class ArgumentError(AperioError, ValueError):
    """An argument is out of its range, or out of relation to another argument; the command line exits 2."""


class GridTooCoarseError(ArgumentError):
    """Evaluation grid step is too coarse for the requested window."""


class DimensionMismatchError(ArgumentError):
    """A box, point rows, limit patch or kernel is not of the dimension it meets; the command line exits 2."""


class GramSizeError(AperioError):
    """Gram matrix would exceed the dense-solver size limit (``framekit.MAX_GRAM_POINTS``)."""


class ConfigError(AperioError):
    """Experiment configuration failed to parse or validate."""
