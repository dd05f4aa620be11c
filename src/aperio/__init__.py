"""Computable density theory for point sets in R^d.

Generate relatively separated point sets (lattices, cut-and-project model
sets), estimate Beurling and hull densities along Folner boxes, assemble
reproducing-kernel Gram systems (Paley-Wiener, Gaussian time-frequency) with
their frame and Riesz bound trends, and check necessary density conditions
for sampling and interpolation.
"""

__version__ = "0.1.0"

from .pointset import PointPatch, SeparationStats, is_relatively_dense, rel_separation, restrict, translate
from .cutproject import CutProjectScheme, generate_model_set, model_set_covolume
from .hull import orbit_sample
from .density import (
    CovolumeBounds,
    DensityReport,
    FolnerSpec,
    TestFunction,
    beurling_density,
    covolume_bounds_from_density,
    weil_check,
)
from .rkhs import KernelSpec, gabor_gaussian, kernel_matrix, paley_wiener, wiener_amalgam_norm
from .framekit import FrameReport, VerdictReport, frame_trend_report, sampling_bounds, verdict

__all__ = [name for name in dir() if not name.startswith("_")]
