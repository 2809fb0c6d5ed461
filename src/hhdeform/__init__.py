"""Exact computation of Hochschild cohomology for a family of deformed
self-injective cycle algebras, with an independent bar-complex oracle."""

from .algebra import (
    Algebra,
    AlgebraSpec,
    BasisMonomial,
    NonGenericParameters,
    build_algebra,
)
from .freepaths import g_generators, verify_g_recursions
from .homcomplex import (
    coboundary_matrix,
    cohomology_dimension,
    hom_dimension,
    hom_space_basis,
    kernel_image_dims,
)
from .resolution import (
    BimoduleMap,
    Generator,
    check_complex,
    compose,
    differential,
    generators,
    underlying_matrix,
    verify_exactness,
)
from .ring import (
    Cochain,
    CohomologyClass,
    canonical_generators,
    cup_product,
    lift_cocycle,
    ring_report,
)

__all__ = [
    "Algebra",
    "AlgebraSpec",
    "BasisMonomial",
    "BimoduleMap",
    "Cochain",
    "CohomologyClass",
    "Generator",
    "NonGenericParameters",
    "bar_cochain_dimension",
    "bar_cohomology_dimension",
    "build_algebra",
    "canonical_generators",
    "check_complex",
    "coboundary_matrix",
    "cohomology_dimension",
    "compose",
    "cup_product",
    "differential",
    "g_generators",
    "generators",
    "hom_dimension",
    "hom_space_basis",
    "kernel_image_dims",
    "lift_cocycle",
    "ring_report",
    "underlying_matrix",
    "verify_exactness",
    "verify_g_recursions",
]


def __getattr__(name):
    # the bar oracle is imported on first read, so `import hhdeform.cli`
    # does not load it for commands that never run it; the name is not
    # cached here, so a rebinding of the bar module's attribute shows through
    if name in ("bar_cochain_dimension", "bar_cohomology_dimension"):
        from . import bar
        return getattr(bar, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
