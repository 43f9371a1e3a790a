"""Script parser and command line on generated and mutated input.

Polynomial arguments are checked at parse time by the grammar that
`PolyRing.parse` uses; the checker the parser had before
(`oracles.check_poly_syntax`) is the reference it must agree with.  Small
scripts that mostly evaluate run through `closure-lab run --json`, whose
exit code must match the report it prints.
"""

import io
import json
import os
import random
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from closurelab import cli, dsl
from closurelab.dsl import (Call, CallStmt, ScriptError, parse_script,
                            print_statements)

from oracles import check_poly_syntax


# --- polynomial arguments against the reference checker ----------------------------


POLY_SLOTS = ("ring R = poly(Q, [x, y], lex) / ({});\n",
              "ideal I = ideal(R, x*y,\n {});",
              "check member({}, I);")
LEAVES = ["x", "y", "b_2", "q", "0", "1", "12", "007"]
STRAY = ["+", "-", "*", "^", "/", "(", ")", ",", "[", "]", "=", ";", "{",
         '"s"', "#", "!"]


def _poly_tokens(rng, depth=0):
    """Tokens of a random expression of the polynomial grammar."""
    out = []
    for k in range(rng.randint(1, 3)):
        if k or rng.random() < 0.2:
            out.append(rng.choice("+-") if k else "-")
        for f in range(rng.randint(1, 3)):
            if f and rng.random() < 0.5:
                out.append("*")
            r = rng.random()
            if depth < 2 and r < 0.15:
                out += ["("] + _poly_tokens(rng, depth + 1) + [")"]
            elif r < 0.3:
                out += [str(rng.randint(0, 20)), "/", str(rng.randint(0, 9))]
            else:
                out.append(rng.choice(LEAVES))
            if rng.random() < 0.2:
                out += ["^", str(rng.randint(0, 3))]
    return out


def _mutated(rng, toks):
    """Up to three token deletions, insertions or replacements."""
    toks = list(toks)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        op = rng.random()
        if op < 0.35 and toks:
            del toks[rng.randrange(len(toks))]
        elif op < 0.7 or not toks:
            toks.insert(rng.randrange(len(toks) + 1), rng.choice(STRAY + LEAVES))
        else:
            toks[rng.randrange(len(toks))] = rng.choice(STRAY + LEAVES)
    return toks


def _joined(rng, toks):
    return "".join(t + rng.choice(("", "", " ", "  ", "\n")) for t in toks)


def _outcome(script):
    try:
        return parse_script(script)
    except ScriptError as exc:
        return (exc.line, exc.col, exc.bare_message, str(exc))


def test_poly_arguments_agree_with_reference_checker(monkeypatch):
    rng = random.Random(5)
    scripts = [POLY_SLOTS[i % len(POLY_SLOTS)].format(
                   _joined(rng, _mutated(rng, _poly_tokens(rng))))
               for i in range(10_200)]
    new = [_outcome(s) for s in scripts]
    monkeypatch.setattr(dsl, "_check_poly_syntax", check_poly_syntax)
    old = [_outcome(s) for s in scripts]
    for script, a, b in zip(scripts, new, old):
        assert a == b, script
    accepted = sum(isinstance(o, list) for o in new)
    assert 0.2 * len(scripts) < accepted < 0.8 * len(scripts)


# --- whole scripts from the grammar, mutated --------------------------------------


NAMES = st.sampled_from(["R", "S", "I", "M", "cl", "T", "x", "a"])
INTS = st.integers(0, 12).map(str)
FIELDS = st.sampled_from(["Q", "Fp(5)", "Fp(7)"])
ORDERS = st.sampled_from(["lex", "degrevlex", "wdegrevlex[2,2,2]",
                          "wdegrevlex[1, 3]"])


def _list_of(elem, lo=1, hi=3):
    return st.lists(elem, min_size=lo, max_size=hi).map(
        lambda xs: ", ".join(xs))


POLYS = st.recursive(
    st.one_of(NAMES, INTS, st.builds("{}/{}".format, INTS, INTS)),
    lambda inner: st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*"), inner),
        st.builds("{}^{}".format, NAMES, INTS),
        st.builds("({})".format, inner),
        st.builds("-{}".format, inner)),
    max_leaves=6)

ARGS = st.recursive(
    st.one_of(POLYS, st.builds('"{}"'.format, NAMES), INTS.map("-{}".format)),
    lambda inner: st.one_of(
        st.builds("[{}]".format, _list_of(inner, 0)),
        st.builds("{}({}, {})".format,
                  st.sampled_from(["closure", "product", "mult"]),
                  inner, inner),
        st.builds("ideal({}, {})".format, NAMES, _list_of(POLYS))),
    max_leaves=4)


def _bracketed(elem):
    return _list_of(elem, 0).map("[{}]".format)


# arguments that fit each kind of parameter in dsl.SIGNATURES
_NAME_ARGS = st.one_of(NAMES, NAMES.map('"{}"'.format))
KIND_ARGS = {
    "name": _NAME_ARGS, "ring": _NAME_ARGS, "closure": _NAME_ARGS,
    "set": st.deferred(lambda: st.one_of(NAMES, st.sampled_from(
        dsl.SET_HEADS).flatmap(_fitting_call))),
    "element": POLYS,
    "element|[vector]": st.one_of(POLYS, _bracketed(POLYS)),
    "[list]": _bracketed(POLYS),
    "[int list]": _bracketed(st.integers(-3, 12).map(str)),
    "int": INTS,
    "ideal|[list]": st.one_of(NAMES, _bracketed(POLYS)),
}


@st.composite
def _fitting_call(draw, form):
    """A call of form whose arguments fit its signature: an optional ring
    before other parameters is there or not, and the other optional
    parameters are filled in order."""
    params = dsl.PARAMS[form]
    args, more = [], True
    for i, p in enumerate(params):
        arg = KIND_ARGS[p.kind]
        if p.rest:
            args += draw(st.lists(arg, max_size=3))
        elif not p.optional:
            args.append(draw(arg))
        elif p.kind == "ring" and i + 1 < len(params):
            if draw(st.booleans()):
                args.append(draw(arg))
        elif more and draw(st.booleans()):
            args.append(draw(arg))
        else:
            more = False
    return f"{form}({', '.join(args)})"


def _fitting_statement(stmt):
    """A statement stmt of a form in dsl.SIGNATURES, with fitting arguments;
    a check may be a `check not`."""
    call = st.sampled_from(tuple(dsl.SIGNATURES[stmt])).flatmap(_fitting_call)
    if stmt == "check":
        return st.builds("check {}{};".format, st.sampled_from(["", "not "]),
                         call)
    return st.builds(f"{stmt} {{}} = {{}};".format, NAMES, call)


STATEMENTS = st.one_of(
    *(_fitting_statement(stmt) for stmt in ("check", "module", "closure",
                                            "modify")),
    st.builds("ring {} = poly({}, [{}], {}){};".format, NAMES, FIELDS,
              _list_of(NAMES), ORDERS,
              st.one_of(st.just(""),
                        st.builds(" / ({})".format, _list_of(POLYS)))),
    st.builds("ring {} = subring({}, [{}], [{}]{});".format, NAMES, FIELDS,
              _list_of(NAMES), _list_of(POLYS),
              st.one_of(st.just(""), st.builds(", [{}]".format,
                                               _list_of(NAMES)))),
    st.builds("ideal {} = ideal({}, {});".format, NAMES, NAMES,
              _list_of(POLYS)),
    st.builds("closure {} = {};".format, NAMES,
              st.sampled_from(["trivial", "integral_closure"])),
    st.builds("check {}({});".format, st.sampled_from(dsl.CHECK_FNS),
              _list_of(ARGS, 0, 4)),
    st.builds('export {} "{}";'.format, st.sampled_from(["json", "session"]),
              NAMES))

_TOKEN = re.compile(r'"[^"]*"|\w+|\S')
MUTANTS = ["(", ")", "[", "]", ",", ";", "=", "/", "^", "*", "+", "-", '"',
           "#", "\n", "ring", "check", "x", "3"]


def _mutate(draw, text):
    """Up to three token-level mutations of text, tokens joined by spaces."""
    toks = _TOKEN.findall(text)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(toks)))
        op = draw(st.sampled_from(["delete", "insert", "replace", "repeat"]))
        if op == "insert" or not toks:
            toks.insert(i, draw(st.sampled_from(MUTANTS)))
        elif op == "delete":
            del toks[min(i, len(toks) - 1)]
        elif op == "replace":
            toks[min(i, len(toks) - 1)] = draw(st.sampled_from(MUTANTS))
        else:
            toks[i:i] = toks[max(0, i - 3):i]
    return " ".join(toks)


@st.composite
def scripts(draw):
    """Up to four statements, then up to three token-level mutations."""
    return _mutate(draw, "\n".join(
        draw(st.lists(STATEMENTS, min_size=1, max_size=4))))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scripts())
def test_parse_raises_only_script_errors_and_round_trips(text):
    """A reprinted script parses into equal statements that bind the same
    arguments: equality leaves out the bindings, so they are compared
    apart, down to those of set expressions."""
    try:
        stmts = parse_script(text)
    except ScriptError:
        return
    again = parse_script(print_statements(stmts))
    assert again == stmts
    assert [_bindings(s) for s in again] == [_bindings(s) for s in stmts]


def _bindings(value):
    """The binding of a statement or call, with the bindings of the calls
    it holds in place of them."""
    if isinstance(value, (CallStmt, Call)):
        return {k: _bindings(v) for k, v in value.bound.items()}
    if isinstance(value, tuple):
        return tuple(_bindings(v) for v in value)
    return value


# --- small scripts through the command line ----------------------------------------


# homogeneous polynomials in x, y of degree at most 3
MONOMIALS = {1: ["x", "y"], 2: ["x^2", "x*y", "y^2"],
             3: ["x^3", "x^2*y", "x*y^2", "y^3"]}
SMALL_POLYS = st.sampled_from(sorted(MONOMIALS)).flatmap(
    lambda d: st.lists(st.builds("{}{}".format,
                                 st.sampled_from(["", "2*", "-", "3/2*"]),
                                 st.sampled_from(MONOMIALS[d])),
                       min_size=1, max_size=3)).map(" + ".join)
SMALL_RINGS = st.builds(
    "ring R = poly({}, [{}], {}){};".format,
    st.sampled_from(["Q", "Fp(5)"]), st.sampled_from(["x, y", "x, y", "x"]),
    st.sampled_from(["lex", "degrevlex", "wdegrevlex[2,2]"]),
    st.one_of(st.just(""), st.builds(" / ({})".format, SMALL_POLYS)))


# subrings of k[s, t] on two or three monomials of degree 1 to 3, with
# presentation variables x, y (and z); subring_module generators in s, t:
# units, monomials and polynomials, and zero and inhomogeneous ones
TARGET_MONOMIALS = ["s", "t", "s^2", "s*t", "t^2", "s^3", "s^2*t", "s*t^2",
                    "t^3"]
SUBRING_RINGS = st.builds(
    lambda field, images: "ring R = subring({}, [s, t], [{}], [{}]);".format(
        field, ", ".join(images), ", ".join("xyz"[:len(images)])),
    st.sampled_from(["Q", "Fp(5)"]),
    st.lists(st.sampled_from(TARGET_MONOMIALS), min_size=2, max_size=3,
             unique=True))
SUBRING_MODULES = st.lists(
    st.sampled_from(["0", "s + t^2", "s + t", "s^2 - 2*t^2", "1", "s*t",
                     "t^2", "s^2*t"]),
    min_size=1, max_size=2).map(
        lambda gens: f"subring_module(R, [{', '.join(gens)}])")


def _checks(closures, ideals):
    """Check statements on the given closure names and ideal expressions."""
    closures = st.sampled_from(closures)
    sets = st.one_of(ideals, st.builds("closure({}, {})".format, closures,
                                       ideals))
    return st.one_of(
        st.builds("check member({}, {});".format, SMALL_POLYS, sets),
        st.builds("check equal({}, {});".format, sets, sets),
        st.builds("check faithful({});".format, closures),
        st.builds("check dietz_obstruction({}, [x, y], 2);".format,
                  closures),
        st.builds("check {}({}, R, [x, y]);".format,
                  st.sampled_from(["colon_capturing", "gcc"]), closures),
        st.builds("modify T = parameter_chain(R, {}, [x, y], 1);".format,
                  closures),
        st.just("check regular_sequence([x, y]);"))


def _call_arguments(text):
    """(start, end) of every nonempty argument of every call in text."""
    spans, opened = [], []
    for i, ch in enumerate(text):
        if ch in "([":
            opened.append((ch, i + 1))
        elif ch in ",)]" and opened:
            ch0, start = opened.pop()
            if ch0 == "(" and text[start:i].strip():
                spans.append((start, i))
            if ch == ",":
                opened.append((ch0, i + 1))
    return spans


def _drop_or_repeat_argument(draw, text):
    """text with one argument of a call dropped or written twice."""
    start, end = draw(st.sampled_from(_call_arguments(text)))
    if draw(st.booleans()):
        return text[:end] + "," + text[start:end] + text[end:]
    if text[end] == ",":
        return text[:start] + text[end + 1:]
    if text[start - 1] == ",":
        return text[:start - 1] + text[end:]
    return text[:start] + text[end:]


@st.composite
def small_scripts(draw):
    """A ring in at most 2 variables, or a monomial subring; an ideal I, or
    a module M with its closure cl; checks on them, 4 statements at most;
    homogeneous polynomials of degree at most 3; then maybe one argument
    of a call dropped or repeated, and up to three token mutations."""
    polys = _list_of(SMALL_POLYS, 1, 2)
    ring = draw(st.one_of(SMALL_RINGS, SUBRING_RINGS))
    stmts = [ring]
    closures = ["trivial", "integral_closure"]
    ideals = st.builds("ideal(R, {})".format, polys)
    modules = st.builds("ideal_module(R, {})".format, polys)
    if "subring(" in ring:
        modules = SUBRING_MODULES
    if draw(st.booleans()):
        stmts.append(f"ideal I = ideal(R, {draw(polys)});")
        ideals = st.one_of(st.just("I"), ideals)
    else:
        stmts += [f"module M = {draw(modules)};",
                  "closure cl = module_closure(M);"]
        closures.append("cl")
    stmts += draw(st.lists(_checks(closures, ideals), min_size=1,
                           max_size=4 - len(stmts)))
    text = "\n".join(stmts)
    if draw(st.booleans()):
        text = _drop_or_repeat_argument(draw, text)
    return _mutate(draw, text)


def _run_cli(text, damage=None, at=0):
    """(exit code, stdout, stderr) of `closure-lab run <script> --json`.

    damage "byte" puts the byte ff, never valid in UTF-8, at offset `at`
    (modulo the length); "export" appends an export to a missing
    directory."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.clab")
        if damage == "export":
            text += f'\nexport json "{os.path.join(tmp, "missing", "y.json")}";'
        data = text.encode()
        if damage == "byte":
            at %= len(data) + 1
            data = data[:at] + b"\xff" + data[at:]
        with open(path, "wb") as fh:
            fh.write(data)
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["run", path, "--json"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_scripts(), st.sampled_from([None, None, "byte", "export"]),
       st.integers(0, 400))
@example(text="ring R = poly(Q, [x, y], lex) / (x); ideal I = ideal(R, x); "
              "check member(x, I);", damage=None, at=0)
def test_cli_exit_code_matches_the_report(text, damage, at):
    """Exit 0, 1 or 2 and no traceback; a script that does not parse is
    an error message with exit 2; otherwise the exit code is 2 when some
    statement has an error, else 1 exactly when some check is false.
    Some scripts are damaged: an invalid UTF-8 byte, or a last statement
    that exports to an unwritable path.  Either is exit 2 with an error
    that is not internal.  Every error names a line of the script."""
    code, out, err = _run_cli(text, damage, at)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert "internal error" not in err
    nlines = (text + ("\nexport" if damage == "export" else "")).count(
        "\n") + 1
    if not out:
        assert code == 2 and err.startswith("error: "), err
        line = re.search(r"\bline (\d+)", err)
        assert line and 1 <= int(line[1]) <= nlines, err
    if damage == "byte":
        assert code == 2 and not out, (code, out)
        assert "not UTF-8 text" in err, err
        return
    if not out:
        return
    stmts = json.loads(out)["statements"]
    if damage == "export":
        assert code == 2
        assert stmts[-1]["error"].startswith("cannot write "), stmts[-1]
    for s in stmts:
        if "error" in s:
            assert 1 <= s["where"]["line"] <= nlines, s
    errors = [s["error"] for s in stmts if "error" in s]
    assert not any(e.startswith("internal error") for e in errors), errors
    failed = any(s.get("ok") is False for s in stmts)
    assert (code == 1) == (failed and not errors)
    assert code == (2 if errors else 1 if failed else 0)
