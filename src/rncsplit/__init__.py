"""Exact splitting types of restricted tangent and normal bundles of rational
normal curves on projective hypersurfaces."""

from .binform import BinaryForm, format_binary_form
from .constructor import (
    ExtensionStep,
    build_chain,
    extend_dimension,
    seed_example,
)
from .fields import DEFAULT_PRIME, RATIONALS, FieldSpec, parse_field
from .multipoly import (
    CurveContext,
    IdealCombination,
    MultiPoly,
    format_hypersurface,
    format_poly,
    lift_binary_form,
    parse_hypersurface,
    parse_poly,
    restrict_to_curve,
)
from .sheafmap import (
    GradedSheafMap,
    build_delta,
    build_psi,
    check_smooth_along_curve,
    compose,
    kernel_matrix,
    splitting_of_kernel,
)
from .splitting import (
    Prediction,
    SplittingType,
    balanced_of,
    expected_max,
    format_splitting,
    glue_bound,
    interpolation_count,
    parse_splitting,
    predicted_splitting,
    specializes_to,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
