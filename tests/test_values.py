"""Value types and the package import: `import closurelab` loads the
engine alone, the README's Python sketch runs as printed, and the value
types written out in place of dataclasses keep a dataclass's equality,
hash, repr, immutability and pickling."""

import copy
import importlib
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import closurelab
from closurelab.acceptance import CriterionResult
from closurelab.closure import CheckOutcome, MembershipOutcome, TrivialClosure
from closurelab.dsl import (Call, CallStmt, Expr, IntArg, ListArg, Name,
                            Param, Parser, StrArg, parse_script)
from closurelab.modify import find_bad_relation, parameter_chain
from closurelab.modules import is_regular_sequence, ring_as_module
from closurelab.orders import DEGREVLEX, ModuleOrder, MonomialOrder, wdegrevlex
from closurelab.ring import ParameterSequence
from closurelab.session import Session, StatementResult
from closurelab.values import Record

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


def test_readme_python_sketch_prints_its_comment():
    """The README's fenced python block, run in a fresh interpreter with
    src/ on PYTHONPATH (tests/conftest.py puts it there), prints exactly
    its `# ...` comment lines."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    want = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    out = subprocess.run([sys.executable, "-c", block], capture_output=True,
                         text=True, check=True, timeout=120)
    assert want == ["['a*b', 'a*c', 'a^2', 'b*c', 'c^2']"]
    assert out.stdout.splitlines() == want


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


def test_frozen_values_refuse_assignment_and_results_are_unhashable(kxy):
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
                  ParameterSequence(kxy, ())):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    out = MembershipOutcome(True)
    with pytest.raises(AttributeError):
        out.holds = False
    assert out == MembershipOutcome(True) != MembershipOutcome(False)


def test_a_verified_parameter_sequence_cannot_be_changed(veronese4):
    """A ParameterSequence is checked when made; its elements cannot be
    swapped afterwards for a sequence that is not a partial s.o.p."""
    seq = ParameterSequence(veronese4, ["a", "d"])
    with pytest.raises(AttributeError):
        seq.elems = tuple(veronese4.elem(x) for x in "abc")
    with pytest.raises(AttributeError):
        del seq.elems
    assert [str(x) for x in seq] == ["a", "d"]


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
        "args=(Name(value='R'), Name(value='x'), Name(value='y')), "
        "negated=False)",
        "CallStmt(kind='closure', name='c', form='module_closure', "
        "args=(Name(value='M'),), negated=False)",
        "CallStmt(kind='check', name=None, form='member', "
        "args=(Expr(text='x*y'), Call(head='closure', "
        "args=(Name(value='c'), Call(head='ideal', args=(Name(value='R'), "
        "Name(value='x')))))), negated=False)",
        "ExportStmt(what='json', path='out.json', kind='export')",
        "CallStmt(kind='ideal', name='I', form='ideal', "
        "args=(Name(value='R'), Name(value='x'), Expr(text='y^2')), "
        "negated=False)"]
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


def _samples(kxy, veronese4):
    """One instance of every value type of the package, by class."""
    script = parse_script(SCRIPT)
    parser = Parser("check member(x, N);")
    parser.parse_script()
    session = Session()
    session.eval_text("ring P = poly(Q, [x, y], degrevlex);\n"
                      "ideal I = ideal(P, x, y^2);")
    M = ring_as_module(veronese4)
    trace = parameter_chain(veronese4, TrivialClosure(), ["a", "d"], 1)
    samples = [
        Param("N", "set", optional=True), Name("x"), IntArg(3),
        StrArg("out.json"), Expr("x*y"), ListArg((Name("x"), IntArg(1))),
        Call("closure", (Name("c"),), {"cl": "c"}), *script, parser.spans[0],
        parser.toks[0], wdegrevlex((1, 2)), ModuleOrder(DEGREVLEX, 2),
        MembershipOutcome(True, ["x"]), CheckOutcome(False, "y", "note"),
        ParameterSequence(veronese4, ["a", "d"]),
        find_bad_relation(M, ["a", "d"], 12), trace.stages[1], trace,
        CriterionResult(1, "t", True, "d", 0.5),
        session.env["I"][1], session.log[1][1],
        is_regular_sequence(["x", "y"], ring_as_module(kxy))]
    return {type(value): value for value in samples}


# values that hold a ring, or its elements or modules: a ring does not
# pickle (its monomial encoders are local functions), so these are
# copied, which takes the same state back through __setstate__
HOLD_A_RING = {"ParameterSequence", "BadRelation", "Stage",
               "ModificationTrace", "IdealValue"}


def _value_types():
    """Every Record subclass with fields in the closurelab package, with
    all of its modules imported."""
    for info in pkgutil.iter_modules(closurelab.__path__):
        importlib.import_module(f"closurelab.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls._fields and cls.__module__.startswith("closurelab."):
                found.add(cls)
    return found


def test_every_value_type_is_fixed_once_made_and_pickles(kxy, veronese4):
    """A value type missing from the samples fails here: each refuses
    assignment and deletion of its fields after __init__, and comes back
    equal from pickle (the verify-paper pool pickles CriterionResult back
    from its workers) or, holding a ring, from copy."""
    samples = _samples(kxy, veronese4)
    assert _value_types() == set(samples)
    for cls, value in samples.items():
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert copy.copy(value) == value, cls
        if cls.__name__ not in HOLD_A_RING:
            assert pickle.loads(pickle.dumps(value)) == value, cls
