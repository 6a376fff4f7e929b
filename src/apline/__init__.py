"""Desk-scale geometry of the projective line over the matrix algebra M(n, C).

Subspace points, operator-valued cross-ratios, the Hermitian sub-geometries
(involutions, circle action, Cayley chart, unitary torsor), obstate
expectation values with variance and spectral distributions, and a finite
classical model that serves as the n = 1 oracle.

The top level re-exports AplineError and the main objects of the matrix
modules (algebra, grassmann, crossratio, hermitian, obstate); their other
names are reached through the module.  The classical model lives in
``apline.classical`` and the seeded invariant sweep behind ``apline
check`` in ``apline.properties``; ``import apline`` loads neither.
"""

from .algebra import (
    adjoint,
    herm_decompose,
    is_hermitian,
    is_invertible,
    is_psd,
    is_unitary,
    matrix_from_json,
    random_density,
    random_hermitian,
    random_invertible,
    random_matrix,
    random_psd,
    random_unitary,
    trace_normalized,
)
from .crossratio import (
    INF,
    EndoX,
    Infinity,
    classical_cr,
    cp1_value,
    is_inf,
    kernel,
    ratio,
    transition_probability,
)
from .errors import AplineError
from .grassmann import (
    ProjectiveMap,
    SubspacePoint,
    apply_map,
    chart_repr,
    cochart_repr,
    identity_map,
    infinity_point,
    is_transversal,
    one_point,
    point_eq,
    point_from_chart,
    point_from_cochart,
    projector,
    random_map,
    random_point,
    scalar_action,
    torsor_product,
    zero_point,
)
from .hermitian import (
    alpha,
    arithmetic_distance,
    beta,
    cayley_to_unitary,
    cyclic_triple,
    line_family,
    membership,
    poles,
    s1_action,
    tau,
    transport_to_zero,
    unitary_to_point,
    unitary_torsor,
)
from .obstate import (
    Obstate,
    distribution,
    expectation,
    is_cyclically_ordered,
    is_positive,
    is_pure,
    new_obstate,
    obstate_from_json,
    pure_expectation,
    pure_state_point,
    standard_obstate,
    state_from_density,
    variance,
)

__version__ = "0.1.0"

# Trials per property of the seeded sweep behind ``apline check``.  It is
# defined here, not in apline.properties, so the CLI can show it as the
# option default without loading the harness.
DEFAULT_TRIALS = 100

__all__ = [
    "AplineError",
    "EndoX",
    "INF",
    "Infinity",
    "Obstate",
    "ProjectiveMap",
    "SubspacePoint",
    "adjoint",
    "alpha",
    "apply_map",
    "arithmetic_distance",
    "beta",
    "cayley_to_unitary",
    "chart_repr",
    "classical_cr",
    "cochart_repr",
    "cp1_value",
    "cyclic_triple",
    "distribution",
    "expectation",
    "herm_decompose",
    "identity_map",
    "infinity_point",
    "is_cyclically_ordered",
    "is_hermitian",
    "is_inf",
    "is_invertible",
    "is_positive",
    "is_psd",
    "is_pure",
    "is_transversal",
    "is_unitary",
    "kernel",
    "line_family",
    "matrix_from_json",
    "membership",
    "new_obstate",
    "obstate_from_json",
    "one_point",
    "point_eq",
    "point_from_chart",
    "point_from_cochart",
    "poles",
    "projector",
    "pure_expectation",
    "pure_state_point",
    "random_density",
    "random_hermitian",
    "random_invertible",
    "random_map",
    "random_matrix",
    "random_point",
    "random_psd",
    "random_unitary",
    "ratio",
    "s1_action",
    "scalar_action",
    "standard_obstate",
    "state_from_density",
    "tau",
    "torsor_product",
    "trace_normalized",
    "transition_probability",
    "transport_to_zero",
    "unitary_to_point",
    "unitary_torsor",
    "variance",
    "zero_point",
]
