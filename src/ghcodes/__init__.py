"""Mixed-alphabet generalized Hadamard codes: construction, Gray maps,
and structural verification (GH property, minimum distance, linearity,
kernel, rank)."""

from .analysis import (
    AnalysisReport,
    hamming_distance,
    is_gh_code,
    is_linear,
    kernel,
    kernel_basis,
    min_distance,
    rank,
    verify_theorems,
)
from .construction import (
    GeneratorMatrix,
    TypeSignature,
    base_matrix,
    build,
    extend_with_row,
    parse_text,
    to_text,
)
from .enumeration import AdditiveCode, PAryCode, gray_image, order_p_subcode, span
from .errors import IntegrityError, ResourceLimitError
from .gray import mixed_gray, phi, phi_extended, y_matrix
from .ring import (
    CodeShape,
    MixedVector,
    add,
    from_expansion,
    order_of,
    p_ary_expansion,
    scalar_mul,
)

__all__ = [
    "AdditiveCode",
    "AnalysisReport",
    "CodeShape",
    "GeneratorMatrix",
    "IntegrityError",
    "MixedVector",
    "PAryCode",
    "ResourceLimitError",
    "TypeSignature",
    "add",
    "base_matrix",
    "build",
    "extend_with_row",
    "from_expansion",
    "gray_image",
    "hamming_distance",
    "is_gh_code",
    "is_linear",
    "kernel",
    "kernel_basis",
    "min_distance",
    "mixed_gray",
    "order_of",
    "order_p_subcode",
    "p_ary_expansion",
    "parse_text",
    "phi",
    "phi_extended",
    "rank",
    "scalar_mul",
    "span",
    "to_text",
    "verify_theorems",
    "y_matrix",
]
