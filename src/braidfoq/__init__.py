"""braidfoq: exact computer algebra for braided free orthogonal quantum groups."""

from .scalar import Field, FieldMismatch, Matrix, Scalar, SingularMatrix
from .graded import (GradedSpace, Infeasible, OmegaData, ValidationReport, f_matrix,
                     irreducibility_test, omega_tilde, solve_omega, triviality_lhs,
                     triviality_scan, validate)
from .transform import ReductionTrace, degree_shift, double_cover, reduce_to_degree_zero
from .freealg import (AlgebraContext, AlgebraElement, GeneratorSym,
                      MembershipCertificate, TensorElement, Word, apply_comult,
                      coassociativity_check, expand_three_legs, ideal_membership,
                      normal_form, well_definedness_check)
from .presentation import (MorphismSpec, Presentation, aof_presentation,
                           aof_to_tform_morphism, apply_morphism,
                           bosonisation_presentation, braided_presentation,
                           check_morphism, circle_presentation,
                           deserialize_presentation, intertwiner_check, projection_morphisms,
                           serialize_presentation, substitute_t_generators,
                           t_form_presentation)
from .fusion import (FusionContext, FusionDecomposition, IrrepLabel, conj_label, dim,
                     fuse, q_parameter, ring_checks, su_q2_reference_instance)

__version__ = "0.1.0"
