"""closure-lab: exact closure-operation computations over graded rings.

Layers: polynomial arithmetic (poly/field/orders), a Groebner kernel for
submodules of free modules (gb), graded quotient rings (ring), finitely
presented modules (modules), closure operations and their checkers
(closure), finite module modifications (modify), and the script surface
(dsl/session/cli).
"""

from .field import QQ, prime_field, rationals
from .orders import DEGREVLEX, LEX, ModuleOrder, MonomialOrder, wdegrevlex
from .poly import ContextError, DomainError, ParseError, PolyRing, Polynomial
from .gb import GroebnerBasis, Vec, buchberger
from .ring import (ParameterSequence, QuotientRing, RingElem,
                   UnsupportedInputError, make_quotient_ring,
                   presented_subring)
from .modules import (FPModule, ModuleMap, Submodule, direct_sum, free_module,
                      ideal_as_module, ideal_submodule, is_regular_sequence,
                      quotient_module, residue_field, ring_as_module,
                      scaled_gens, tensor, tensor_elem)
from .closure import (CheckOutcome, ClosureOp, IntersectionClosure,
                      MembershipOutcome, ModuleClosure,
                      MonomialIntegralClosure, PhantomInstance,
                      TrivialClosure, check_colon_capturing,
                      check_faithfulness, check_functoriality,
                      check_generalized_colon_capturing,
                      check_semi_residuality, closure_of_ideal,
                      dietz_obstruction, direct_sum_closure, ideal_member,
                      intersect_closures, is_trivial_on_sample,
                      newton_polyhedron_member, phantom_test)
from .modify import (BadRelation, ModificationTrace, containment_modification,
                     find_bad_relation, parameter_chain,
                     parameter_modification)
from .session import Session, StatementResult
from .dsl import parse_script, print_statements

__version__ = "0.1.0"
