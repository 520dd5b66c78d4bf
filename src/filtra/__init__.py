"""Characteristic filters of finite unipotent matrix groups over Z_p,
refined through scalar rings of their graded Lie rings."""

from .errors import (
    CapExceeded,
    ClosureViolation,
    DimensionMismatch,
    FiltraError,
    MeataxeExhausted,
    NoNontrivialComponent,
    NonNormalGenerator,
    NotAbelianSection,
    NotNormal,
    NotOrderReversing,
)
from .group import (
    DEFAULT_CAP,
    SectionBasis,
    Subgroup,
    UnipotentGroup,
    commutator_subgroup,
    exponent_p_central_series,
    group_from_spec,
    group_to_spec,
    is_normal,
    jennings_series,
    join,
    lower_central_series,
    make_heisenberg,
    make_ut,
    power_subgroup,
)
from .ring import FinCommRing, make_poly_quotient, make_r_circ
from .filters import (
    Filter,
    eta_filter,
    filter_to_json,
    gamma_filter,
    generate,
    kappa_filter,
    series_filter,
    verify_axioms,
)
from .liering import GradedLieRing
from .bimap import (
    adjoint_ring,
    centroid_ring,
    derivation_ring,
    heisenberg_tensor,
    kronecker_pair_tensor,
    solve_ring,
)
from .algrep import MatAlgebra, algebra_closure, jacobson_radical, verify_radical
from .refine import (
    RefineRound,
    StableResult,
    fingerprint,
    refine_once,
    refine_stable,
    ring_at,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
