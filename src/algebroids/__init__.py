"""Exact symbolic calculus for anchored frame models on R^n.

The package keeps every structural computation in the field of rational
functions with exact rational coefficients: coordinate changes, bundle
morphisms, brackets, anchors, and the pseudo-inverse reduction chain.
Floating point enters only in the trajectory integrators.

builtin_data and verify_paper load the verify module on first use, so
that a process that does not re-derive the worked example never
imports it.
"""

from .symexpr import (
    Expr,
    ExprError,
    ParseError,
    PoleError,
    parse,
)
from .matcalc import (
    FMatrix,
    RankDropWarning,
    SingularMatrixError,
    adjugate_inverse,
    determinant,
    left_pseudo_inverse,
    matmul,
)
from .bundle import (
    Bundle,
    Chart,
    CoordMap,
    GeometryError,
    NotDiffeomorphismError,
    Section,
    VBMorphism,
    apply_morphism,
    compose,
    compose_maps,
    identity_map,
    make_coord_map,
    pullback,
    tangent_bundle,
    tangent_lift,
)
from .algebroid import (
    AlgebroidModel,
    BulletInstance,
    anchor_derivation,
    bracket,
    bullet_apply,
    bullet_bracket,
    check_axioms,
    check_bullet_jacobi,
    induced_anchor,
)
from .control import (
    ControlSystem,
    ELProblem,
    RegularityError,
    Trajectory,
    TrajectoryError,
    el_rhs,
    integrate,
    solve_el,
    verify_transform,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .report import Report

__version__ = "0.1.0"

__all__ = [
    "Expr",
    "ExprError",
    "ParseError",
    "PoleError",
    "parse",
    "FMatrix",
    "RankDropWarning",
    "SingularMatrixError",
    "matmul",
    "determinant",
    "adjugate_inverse",
    "left_pseudo_inverse",
    "Chart",
    "CoordMap",
    "Bundle",
    "Section",
    "VBMorphism",
    "GeometryError",
    "NotDiffeomorphismError",
    "make_coord_map",
    "identity_map",
    "compose_maps",
    "pullback",
    "tangent_bundle",
    "tangent_lift",
    "apply_morphism",
    "compose",
    "AlgebroidModel",
    "BulletInstance",
    "anchor_derivation",
    "bracket",
    "bullet_apply",
    "bullet_bracket",
    "check_axioms",
    "check_bullet_jacobi",
    "induced_anchor",
    "ControlSystem",
    "ELProblem",
    "Trajectory",
    "TrajectoryError",
    "RegularityError",
    "integrate",
    "solve_el",
    "el_rhs",
    "verify_transform",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "Report",
    "builtin_data",
    "verify_paper",
]


def __getattr__(name):
    if name in ("builtin_data", "verify_paper"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
