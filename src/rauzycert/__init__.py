"""Rauzy-Veech induction on labeled permutations, pseudo-Anosov
certification via primitive path matrices, and bounds on stretch-factor
and curve-graph translation lengths."""

from .diagram import (
    AllowedPath,
    RauzyDiagram,
    build_path,
    explore,
    injectivity_check,
    to_dot,
    to_json,
)
from .errors import (
    EnumerationCapError,
    NotAllowedError,
    PermutationParseError,
    RauzyError,
    ReducibleError,
)
from .linalg import (
    IntMatrix,
    SpectralBracket,
    min_positive_power,
    path_matrix,
)
from .pa import PACertificate, certify, lc_lower_bound, lc_upper_bound
from .perm import (
    LabeledPermutation,
    UnlabeledPermutation,
    central,
    fg_start,
    is_irreducible,
    parse,
    unlabeled,
)
from .surface import GluedSurface, glue, stratum_of_central

__version__ = "0.1.0"

__all__ = [
    "AllowedPath",
    "EnumerationCapError",
    "GluedSurface",
    "IntMatrix",
    "LabeledPermutation",
    "NotAllowedError",
    "PACertificate",
    "PermutationParseError",
    "RauzyDiagram",
    "RauzyError",
    "ReducibleError",
    "SpectralBracket",
    "UnlabeledPermutation",
    "build_path",
    "central",
    "certify",
    "explore",
    "fg_start",
    "glue",
    "injectivity_check",
    "is_irreducible",
    "lc_lower_bound",
    "lc_upper_bound",
    "min_positive_power",
    "parse",
    "path_matrix",
    "stratum_of_central",
    "to_dot",
    "to_json",
    "unlabeled",
]
