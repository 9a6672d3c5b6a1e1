"""Generic tropical varieties of graded polynomial ideals over the rationals.

Exact Groebner-basis computations recover dimension, depth, Cohen-Macaulay
class and multiplicity from the fan structure of the generic tropical
variety in the constant-coefficient case.
"""

from .fans import ConeId, adjacent_pairs, interior_point, maximal_cones, refinement_maximal_cones
from .generic import (
    GenericityFailure,
    GenericityPolicy,
    Transform,
    apply_transform,
    classify_cm,
    cone_constancy,
    depth,
    gin,
    identity_policy,
    random_transform,
    ray_constancy,
    recover_depth,
    separating_witness,
    tropical_member,
)
from .groebner import (
    DegreeCapExceeded,
    GroebnerBasis,
    Ideal,
    NotGradedError,
    buchberger,
    contains_monomial,
    ideal_equal,
    initial_ideal,
    normal_form,
    saturate,
)
from .invariants import (
    HilbertData,
    MonomialIdeal,
    depth_of_stable,
    dimension,
    hilbert,
    is_strongly_stable,
    minimalize,
    monomial_dimension,
    multiplicity,
)
from .poly import (
    GREVLEX,
    OrderSpec,
    ParseError,
    Polynomial,
    UsageError,
    initial_form,
    parse_polynomial,
)
from .tropmult import (
    MultiplicityReport,
    NewtonPolytope,
    edge_lattice_length,
    hypersurface_mc,
    intrinsic_multiplicity,
    newton_polytope,
    topdim_monomial_free,
)

__version__ = "0.1.0"
