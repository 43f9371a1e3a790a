"""Value types and the package import: `import closurelab` loads the
engine alone, and the value types written out in place of dataclasses
keep a dataclass's equality, hash, repr, immutability and pickling."""

import pickle
import subprocess
import sys

import pytest

from closurelab.acceptance import CriterionResult
from closurelab.closure import CheckOutcome, MembershipOutcome
from closurelab.dsl import Call, CallStmt, Name, Parser, parse_script
from closurelab.orders import DEGREVLEX, ModuleOrder, MonomialOrder, wdegrevlex
from closurelab.ring import ParameterSequence
from closurelab.session import StatementResult

SCRIPT = """ring R = poly(Fp(5), [x, y], wdegrevlex[1,2]) / (x^2 - y);
module M = ideal_module(R, x, y);
closure c = module_closure(M);
check member(x*y, closure(c, ideal(R, x)));
export json "out.json";
ideal I = ideal(R, x, y^2);
"""


def test_import_loads_the_engine_alone():
    code = (
        "import sys, closurelab\n"
        "late = ('closurelab.dsl', 'closurelab.session', 'closurelab.modify',"
        " 'dataclasses')\n"
        "print(sorted(m for m in late if m in sys.modules))\n"
        "from closurelab import Session, parse_script, parameter_chain\n"
        "names = dir(closurelab)\n"
        "print(all(n in names for n in closurelab.__all__))\n"
        "print(Session.__module__, parse_script.__module__,"
        " parameter_chain.__module__)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == ["[]", "True",
                   "closurelab.session closurelab.dsl closurelab.modify"]


def test_lazy_names_are_listed_and_unknown_names_refused():
    import closurelab
    for name in ("Session", "StatementResult", "parse_script",
                 "print_statements", "BadRelation", "parameter_chain"):
        assert name in closurelab.__all__ and name in dir(closurelab)
        assert getattr(closurelab, name) is not None
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        closurelab.no_such_name


def test_equal_values_hash_equal():
    assert MonomialOrder("wdegrevlex", (1, 2)) == wdegrevlex([1, 2])
    assert hash(MonomialOrder("degrevlex")) == hash(DEGREVLEX)
    assert ModuleOrder(DEGREVLEX, 2) == ModuleOrder(MonomialOrder("degrevlex"),
                                                    2)
    assert hash(ModuleOrder(DEGREVLEX, 2)) == hash(ModuleOrder(DEGREVLEX, 2))
    assert ModuleOrder(DEGREVLEX, 2) != ModuleOrder(DEGREVLEX)
    assert MonomialOrder("lex") != "lex"
    first, second = parse_script(SCRIPT), parse_script(SCRIPT)
    assert first == second
    assert [hash(s) for s in first] == [hash(s) for s in second]
    assert len(set(first + second)) == len(first)


def test_bound_is_left_out_of_equality():
    args = (Name("x"),)
    assert Call("closure", args, {"cl": "c"}) == Call("closure", args)
    assert hash(Call("closure", args, {"cl": "c"})) == hash(
        Call("closure", args))
    assert CallStmt("check", None, "member", args, {"u": "x"}) == \
        CallStmt("check", None, "member", args)
    assert Call("closure", args).bound == {}


def test_frozen_values_refuse_assignment_and_results_are_unhashable():
    node = parse_script(SCRIPT)[0]
    for value, field in ((DEGREVLEX, "kind"),
                         (ModuleOrder(DEGREVLEX), "nreal"),
                         (node, "name"), (Name("x"), "value")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    for value in (MembershipOutcome(True), CheckOutcome(False),
                  StatementResult("check x;", "check"),
                  CriterionResult(1, "t", True, "d", 0.5),
                  ParameterSequence(())):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    out = MembershipOutcome(True)
    out.holds = False
    assert out == MembershipOutcome(False) != MembershipOutcome(True)


def test_reprs_are_the_dataclass_reprs():
    assert repr(DEGREVLEX) == \
        "MonomialOrder(kind='degrevlex', weights=(), nelim=0)"
    assert repr(ModuleOrder(wdegrevlex((1, 2)), 3)) == (
        "ModuleOrder(ring_order=MonomialOrder(kind='wdegrevlex', "
        "weights=(1, 2), nelim=0), nreal=3)")
    assert [repr(s) for s in parse_script(SCRIPT)] == [
        "RingDef(name='R', form='poly', field_spec=('Fp', 5), "
        "vars=('x', 'y'), order_spec=('wdegrevlex', (1, 2)), "
        "relations=('x^2 - y',), images=(), pres_names=(), kind='ring')",
        "CallStmt(kind='module', name='M', form='ideal_module', "
        "args=(Name(value='R'), Name(value='x'), Name(value='y')))",
        "CallStmt(kind='closure', name='c', form='module_closure', "
        "args=(Name(value='M'),))",
        "CallStmt(kind='check', name=None, form='member', "
        "args=(Expr(text='x*y'), Call(head='closure', "
        "args=(Name(value='c'), Call(head='ideal', args=(Name(value='R'), "
        "Name(value='x')))))))",
        "ExportStmt(what='json', path='out.json', kind='export')",
        "CallStmt(kind='ideal', name='I', form='ideal', "
        "args=(Name(value='R'), Name(value='x'), Expr(text='y^2')))"]
    parser = Parser("check member(x, N);")
    parser.parse_script()
    assert repr(parser.spans) == (
        "[Span(script='check member(x, N);', start=0, "
        "args=(('x', 13), ('N', 16)))]")
    assert repr(parser.toks[0]) == \
        "Token(kind='name', value='check', pos=0, end=5)"
    assert repr(MembershipOutcome(True)) == \
        "MembershipOutcome(holds=True, certificate=None)"
    assert repr(CriterionResult(1, "t", True, "d", 0.5)) == (
        "CriterionResult(number=1, title='t', passed=True, detail='d', "
        "seconds=0.5)")


def test_values_survive_pickling():
    result = CriterionResult(7, "closure axioms", True, "ok", 1.25)
    back = pickle.loads(pickle.dumps(result))
    assert back == result and back.line() == result.line()
    for value in (DEGREVLEX, wdegrevlex((2, 3)), ModuleOrder(DEGREVLEX, 2),
                  *parse_script(SCRIPT)):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and hash(back) == hash(value)
    block = pickle.loads(pickle.dumps(ModuleOrder(DEGREVLEX, 2)))
    assert block.term_key((3, 5)) == (False, 5, -3)
    stmt = parse_script(SCRIPT)[3]
    assert pickle.loads(pickle.dumps(stmt)).bound == stmt.bound != {}
