"""Weighted nearest-neighbor drug-target interaction prediction.

Predicts missing drug-target interactions from precomputed similarity
matrices: a decay-weighted kNN baseline, a variant that first recovers
likely missing interactions from neighbor rows and columns, and a
sampling ensemble over entity subsets. Includes the cross-validation and
AUPR harness used to benchmark them.
"""

from . import data, ensemble, evaluation, imbalance, models
from .data import *  # noqa: F403
from .ensemble import *  # noqa: F403
from .evaluation import *  # noqa: F403
from .imbalance import *  # noqa: F403
from .models import *  # noqa: F403
from .neighbors import neighbor_table

__version__ = "0.1.0"

# Each module's own __all__ is its public list; neighbors exports only the table.
__all__ = [
    *data.__all__,
    *ensemble.__all__,
    *evaluation.__all__,
    *imbalance.__all__,
    *models.__all__,
    "neighbor_table",
    "__version__",
]
