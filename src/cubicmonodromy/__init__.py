"""Monodromy of the triple-cover cubic-surface family.

The package computes the 27 lines of the surfaces w^3 = f(x, y, z) branching
over a smooth plane cubic, realizes symmetries as integer matrices on the
divisor lattice, tracks line monodromy along loops in the family parameter,
and certifies that the resulting group is exactly the centralizer of the deck
class in the Weyl group of the E6 lattice: a group of order 648 isomorphic to
a semidirect product of the order-27 extraspecial group by SL(2, F3).
"""

from .curves import (CubicForm, family_lambda, flex_height_squared,
                     flex_quartic, hesse_form, inflection_points)
from .errors import (AmbiguousMatching, BadIncidencePattern, CapExceeded,
                     DegenerateCurve, FixtureError, FormViolation,
                     GeometryError, GroupError, InconsistentProjection,
                     LatticeError, NoSixer, NonConvergence, NonIntegralImage,
                     NotAFlex, NotAMember, NotASubgroup, NotIsomorphic,
                     NoUniqueMatch, NumericalError, SingularParameter,
                     TransformResidual, WrongOrder)
from .fixtures import FixtureSet, load_fixtures
from .groups import (MODEL_IDENTITY, ModelElement, SemidirectGroup,
                     conjugation_relations, corrected_action, identify_order24,
                     intersect, is_normal, semidirect_model,
                     verify_generator_map)
from .lines import (CANONICAL_CLASS, J_FORM, SurfaceData, all_lines,
                    base_surface, build_surface_data, classify_lines,
                    concurrent_triples, deck_permutation, find_sixer,
                    incidence_graph, induced_line_perm, is_strongly_regular_27,
                    lift_to_lines, line_label, pairing, perm_compose,
                    perm_to_lattice_map, preserves_incidence, surface_residual,
                    translation)
from .numeric import roots_of
from .report import (REPORT_SCHEMA, SCHEMA_VERSION, Check, VerificationReport,
                     render_csv, render_json, render_text)
from .tracking import (Loop, LoopTrace, TrackingConfig, constant_loop,
                       custom_loop, flex_lattice_map, gamma_minus, gamma_plus,
                       monodromy_matrix, trace_loop, track_flexes)
from .verify import (GeneratorSource, build_pipeline, fixture_group,
                     fixture_source, model_images_of, run_checks,
                     transcribed_flex_permutation, transcribed_root_permutation,
                     verify_isomorphism_via_transport)
from .weyl import (WEYL_ORDER, FiniteMatrixGroup, centralizer, conjugacy_class,
                   conjugacy_class_size, is_lattice_map, lattice_inverse,
                   lattice_invariants, regenerate, reflection,
                   weyl_generators, weyl_group)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
