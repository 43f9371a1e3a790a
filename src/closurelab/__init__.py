"""closure-lab: exact closure-operation computations over graded rings.

Layers: polynomial arithmetic (poly/field/orders), a Groebner kernel for
submodules of free modules (gb), graded quotient rings (ring), finitely
presented modules (modules), closure operations and their checkers
(closure), finite module modifications (modify), and the script surface
(dsl/session/cli).

`import closurelab` loads the engine, field to closure, and no more.
The six names of modify and the four of the script surface (Session,
StatementResult, parse_script, print_statements) are in `__all__` too;
the module `__getattr__` imports their modules when one of them is first
used, so a caller of the engine alone does not pay for them
(closurelab.cli imports them at once).  Value types (orders, syntax
nodes, outcomes, results) are plain classes with `__slots__` and the
methods of `values.Record`, not dataclasses: a dataclass generates its
methods from source at every import, which took about a fifth of it.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .field import QQ, prime_field, rationals
from .orders import DEGREVLEX, LEX, ModuleOrder, MonomialOrder, wdegrevlex
from .poly import (ContextError, DomainError, ParseError, PolyRing,
                   Polynomial, Vec)
from .gb import GroebnerBasis, buchberger
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

__version__ = "0.1.0"

# name -> the module that defines it, imported when the name is first used
_LAZY = {name: module for module, names in (
    ("modify", ("BadRelation", "ModificationTrace", "containment_modification",
                "find_bad_relation", "parameter_chain",
                "parameter_modification")),
    ("session", ("Session", "StatementResult")),
    ("dsl", ("parse_script", "print_statements"))) for name in names}

__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_")
                  and not isinstance(value, _ModuleType)] + list(_LAZY))


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
