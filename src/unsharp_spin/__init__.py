"""Unsharp spin-1 observables from apparatus misalignment.

Misaligned spin measurements realize POVMs rather than projective
measurements: each intended direction yields three commuting effects that
share the eigenbasis of the sharp observable and carry four
model-dependent eigenvalues.  When the misalignment is small enough, the
eigenvalue thresholds color every eigenray "almost true" or "almost
false", and for Kochen-Specker direction sets no noncontextual coloring
exists.  This package builds the effects, verifies their algebra, and
proves the non-colorability exhaustively.
"""

from .crosscheck import check_coloring
from .formats import (
    dumps_report,
    fixture_path,
    load_direction_file,
    load_profile_file,
    load_ray_file,
    save_direction_file,
)
from .ks_solver import (
    COLORABLE,
    CONDITION2_FAILED,
    KS_CONTRADICTION,
    KsInstance,
    KsReport,
    SolveResult,
    build_graph,
    canonicalize_and_dedupe,
    ks_pipeline,
    solve_coloring,
)
from .misalignment import AxialDensity, UniformCap, cap_area
from .spin_core import (
    EffectTriple,
    sharp_eigenvectors,
    sharp_projectors,
    spin_along,
    spin_matrices,
    unit_from_polar,
)
from .unsharp_povm import (
    AF,
    AT,
    U,
    Alphas,
    alphas_axial,
    alphas_for_model,
    alphas_uniform_cap,
    color_assignment,
    condition2_check,
    effects,
    effects_from_alphas,
    outcome_probabilities,
    simulate_outcomes,
    threshold_epsilon,
)

__version__ = "0.1.0"

__all__ = [
    "AF",
    "AT",
    "Alphas",
    "AxialDensity",
    "COLORABLE",
    "CONDITION2_FAILED",
    "EffectTriple",
    "KS_CONTRADICTION",
    "KsInstance",
    "KsReport",
    "SolveResult",
    "U",
    "UniformCap",
    "alphas_axial",
    "alphas_for_model",
    "alphas_uniform_cap",
    "build_graph",
    "canonicalize_and_dedupe",
    "cap_area",
    "check_coloring",
    "color_assignment",
    "condition2_check",
    "dumps_report",
    "effects",
    "effects_from_alphas",
    "fixture_path",
    "ks_pipeline",
    "load_direction_file",
    "load_profile_file",
    "load_ray_file",
    "outcome_probabilities",
    "save_direction_file",
    "sharp_eigenvectors",
    "sharp_projectors",
    "simulate_outcomes",
    "solve_coloring",
    "spin_along",
    "spin_matrices",
    "threshold_epsilon",
    "unit_from_polar",
]
