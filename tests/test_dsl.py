"""Script-language parser: statement forms, printing, diagnostics."""

import re
from pathlib import Path

import pytest

from closurelab.dsl import (PARAMS, SIGNATURES, Call, CallStmt, Expr,
                            ExportStmt, IntArg, ListArg, Name, RingDef,
                            ScriptError, parse_script, print_statements)


def parse_one(text):
    stmts = parse_script(text)
    assert len(stmts) == 1
    return stmts[0]


# --- statement forms ------------------------------------------------------------


def test_ringdef_ast():
    s = parse_one("ring R = poly(Q,[a,b,c],wdegrevlex[2,2,2]) / (a*c - b^2);")
    assert isinstance(s, RingDef)
    assert s.name == "R" and s.form == "poly"
    assert s.field_spec == ("Q",)
    assert s.vars == ("a", "b", "c")
    assert s.order_spec == ("wdegrevlex", (2, 2, 2))
    assert s.relations == ("a*c - b^2",)


def test_ringdef_prime_field_lex():
    s = parse_one("ring P = poly(Fp(5), [x,y], lex);")
    assert s.field_spec == ("Fp", 5)
    assert s.order_spec == ("lex",)
    assert s.relations == ()


def test_subring_def():
    s = parse_one("ring R = subring(Q, [x,y], [x^4, x^3*y, x*y^3, y^4], "
                  "[a,b,c,d]);")
    assert s.form == "subring"
    assert s.images == ("x^4", "x^3*y", "x*y^3", "y^4")
    assert s.pres_names == ("a", "b", "c", "d")


def test_check_member_ast():
    s = parse_one("check member(a*c, closure(cl_M, I));")
    assert isinstance(s, CallStmt) and s.kind == "check"
    assert s.name is None and s.form == "member"
    assert s.args[0] == Expr("a*c")
    assert s.args[1] == Call("closure", (Name("cl_M"), Name("I")))


def test_check_with_list_and_ints():
    s = parse_one("check colon_capturing(clS, R, [a, d], strongA, 3, 1);")
    assert s.args[2] == ListArg((Name("a"), Name("d")))
    assert s.args[4] == IntArg(3)
    assert s.args[5] == IntArg(1)
    s = parse_one("module M = free(P, [0, - 3]);")
    assert s.args[1] == ListArg((IntArg(0), IntArg(-3)))
    assert parse_one(s.show()) == s


def test_moduledef_and_closuredef():
    m = parse_one("module M = ideal_module(R, a, b);")
    assert isinstance(m, CallStmt) and m.kind == "module"
    assert m.name == "M" and m.form == "ideal_module"
    c = parse_one("closure t = trivial;")
    assert isinstance(c, CallStmt) and c.kind == "closure"
    assert c.form == "trivial" and c.args == () and c.bound == {}
    c2 = parse_one("closure both = intersect(clM, t);")
    assert c2.args == (Name("clM"), Name("t"))


def test_idealdef_is_a_call_with_generator_texts():
    text = "ideal I = ideal(R, a^2, b, 3, a*(b + c));"
    s = parse_one(text)
    assert s == CallStmt("ideal", "I", "ideal",
                         (Name("R"), Expr("a^2"), Name("b"), IntArg(3),
                          Expr("a*(b + c)")))
    assert s.bound == {"R": "R", "gens": ("a^2", "b", "3", "a*(b + c)")}
    assert s.show() == text
    with pytest.raises(ScriptError) as err:
        parse_script("ideal I = ideal([R], a);")
    assert err.value.col == 17


def test_modify_and_export():
    m = parse_one("modify T = parameter_chain(R, clS, [a, d], 1);")
    assert isinstance(m, CallStmt) and m.kind == "modify"
    e = parse_one('export json "out.json";')
    assert isinstance(e, ExportStmt)
    assert e.what == "json" and e.path == "out.json"


def test_comments_are_ignored():
    stmts = parse_script("# a comment\nring R = poly(Q, [x], lex); # trail\n")
    assert len(stmts) == 1


# --- diagnostics ------------------------------------------------------------------


def test_syntax_error_position_dangling_star():
    with pytest.raises(ScriptError) as err:
        parse_script("ring R = poly(Q,[a,b],lex) / (a* );")
    assert err.value.line == 1
    # the caret lands on the closing parenthesis
    assert err.value.col == 34
    assert "^" in str(err.value)


def test_scripts_read_decimal_digits_only():
    text = "ring R = poly(Q, [x], wdegrevlex[²]);"
    with pytest.raises(ScriptError) as err:
        parse_script(text)
    assert (err.value.line, err.value.col, err.value.bare_message) == \
        (1, 34, "unexpected character '²'")
    assert parse_one(text.replace("²", "٣")).order_spec == \
        ("wdegrevlex", (3,))


def test_unknown_statement_keyword():
    with pytest.raises(ScriptError) as err:
        parse_script("rang R = poly(Q,[x],lex);")
    assert "ring" in str(err.value)


def test_unknown_check_function():
    with pytest.raises(ScriptError) as err:
        parse_script("check frobenius(x);")
    assert err.value.expected


def test_unterminated_string():
    with pytest.raises(ScriptError):
        parse_script('export json "out;')


def test_error_reports_line_numbers():
    """Every break that splits the source lines counts once, "\r\n" too,
    for the line and the column of an error as for the line shown."""
    with pytest.raises(ScriptError) as err:
        parse_script("ring R = poly(Q, [x], lex);\ncheck member(x*, I);\n")
    assert err.value.line == 2
    for brk in ("\x0c", "\r", "\r\n"):
        with pytest.raises(ScriptError) as err:
            parse_script("ring P = poly(Q, [x, y], lex);" + brk
                         + "ideal I = ideal(P, x @ y);")
        assert (err.value.line, err.value.col) == (2, 22), repr(brk)
        assert str(err.value).split("\n")[1] == \
            "  ideal I = ideal(P, x @ y);"


# Each statement has one argument too many for its form or set head; "@"
# marks where the surplus argument starts.
SURPLUS = [
    ("check member(y, I, @J);", "member", 3),
    ("check equal(I, I, @I);", "equal", 3),
    ("check functorial(trivial, I, [x], @I);", "functorial", 4),
    ("check semi_residual(trivial, I, @I);", "semi_residual", 3),
    ("check faithful(trivial, P, @P);", "faithful", 3),
    ("check colon_capturing(c, [x, y], strongA, 2, 1, @5);",
     "colon_capturing", 6),
    ("check colon_capturing(c, P, [x, y], strongA, 2, 1, @5);",
     "colon_capturing", 7),
    ("check gcc(c, [x, y], @1);", "gcc", 3),
    ("check gcc(c, P, [x, y], @1);", "gcc", 4),
    ("check phantom(c, T, @T);", "phantom", 3),
    ("check dietz_obstruction(c, [x, y], 3, @4);", "dietz_obstruction", 4),
    ("check dietz_obstruction(c, P, [x, y], 3, @4);", "dietz_obstruction", 5),
    ("check regular_sequence([x, y], M, @M);", "regular_sequence", 3),
    ("check regular_sequence(P, [x, y], M, @M);", "regular_sequence", 4),
    ("check trivial_on(c, 5, @6);", "trivial_on", 3),
    ("check trivial_on(c, P, 5, @6);", "trivial_on", 4),
    ("check member(x, closure(c, I, @J));", "closure", 3),
    ("check equal(product(I, M, @M), I);", "product", 3),
    ("check equal(mult(I, I, @I), I);", "mult", 3),
    ("module M = subring_module(R, [1], @[1]);", "subring_module", 3),
    ("module M = free(P, [0], @3);", "free", 3),
    ("module M = syzygy_of_k(P, 1, @2);", "syzygy_of_k", 3),
    ("closure c = module_closure(M, @M);", "module_closure", 2),
    ("modify T = parameter_chain(P, c, [x, y], 1, 3, @9);",
     "parameter_chain", 6),
]


@pytest.mark.parametrize("stmt, head, k", SURPLUS,
                         ids=[f"{h}-{k}" for _s, h, k in SURPLUS])
def test_surplus_argument_is_a_positioned_error(stmt, head, k):
    with pytest.raises(ScriptError) as err:
        parse_script("ring P = poly(Q, [x, y], degrevlex);\n"
                     + stmt.replace("@", ""))
    assert (err.value.line, err.value.col) == (2, stmt.index("@") + 1)
    assert err.value.bare_message == \
        f"{head}: surplus argument {k} (at most {k - 1})"


@pytest.mark.parametrize("stmt", [
    "check faithful(trivial, P);",
    "check colon_capturing(c, P, [x, y], strongA, 2, 1);",
    "check colon_capturing(c, [x, y], strongA, 2, 1);",
    "check dietz_obstruction(c, P, [x, y], 3);",
    "check regular_sequence(P, [x, y], M);",
    "check trivial_on(c, P, 5);",
    "check member(x, ideal(P, x, y, x*y, x^2));",
    "module M = ideal_module(P, x, y, x*y);",
    "closure c = intersect(a, b, c, d);",
    "modify T = parameter_chain(P, c, [x, y], 1, 3);",
])
def test_most_arguments_still_parse(stmt):
    assert len(parse_script(stmt)) == 1


# A well-formed argument of each kind, and one of the wrong shape.
GOOD = {"name": "I", "ring": "P", "closure": "trivial", "set": "I",
        "element": "x", "element|[vector]": "x", "[list]": "[x, y]",
        "[int list]": "[0, 1]", "int": "2", "ideal|[list]": "I"}
WRONG = {"name": "[x]", "ring": "[x]", "closure": "[x]", "set": "[x]",
         "element": "[x]", "element|[vector]": '"s"', "[list]": "x",
         "[int list]": "3", "int": "x", "ideal|[list]": "3"}
# where a form of each statement stands, as "{}"
STANDS = {"check": "check {};", "set": "check member(x, {});",
          "ideal": "ideal J = {};", "module": "module M = {};",
          "closure": "closure c = {};", "modify": "modify T = {};"}


def _signature_cases():
    """(statement, error column, message prefix) for each form: its last
    required argument dropped, and each argument in turn of the wrong
    shape.  An optional ring before other parameters is not one: a
    misshapen argument in its place is bound to the next parameter.  A
    form that an earlier statement has too is named with its statement."""
    seen = set()
    for statement, forms in SIGNATURES.items():
        before = STANDS[statement].index("{}") + 1
        for form in forms:
            label = f"{statement}:{form}" if form in seen else form
            seen.add(form)
            params = PARAMS[form]
            args = [GOOD[p.kind] for p in params]
            required = [i for i, p in enumerate(params)
                        if not (p.optional or p.rest)]
            if required:
                j = required[-1]
                call = f"{form}({', '.join(args[:j])})"
                yield (f"{label}-missing", STANDS[statement].format(call),
                       before + len(call) - 1,
                       f"{form}: argument {j + 1} is missing")
            for i, p in enumerate(params):
                if p.optional and p.kind == "ring" and i + 1 < len(params):
                    continue
                head = f"{form}(" + "".join(a + ", " for a in args[:i])
                call = head + ", ".join([WRONG[p.kind]] + args[i + 1:]) + ")"
                yield (f"{label}-{p.name}", STANDS[statement].format(call),
                       before + len(head),
                       f"{form}: argument {i + 1} must be ")


SIGNATURE_CASES = list(_signature_cases())


@pytest.mark.parametrize("stmt, column, message",
                         [c[1:] for c in SIGNATURE_CASES],
                         ids=[c[0] for c in SIGNATURE_CASES])
def test_every_form_rejects_a_missing_or_misshapen_argument(stmt, column,
                                                            message):
    with pytest.raises(ScriptError) as err:
        parse_script(stmt)
    assert (err.value.line, err.value.col) == (1, column)
    assert err.value.bare_message.startswith(message)


def test_readme_lists_exactly_the_forms_of_the_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.findall(
        r"^(check|set|ideal|module|closure|modify) (\w+)\((.*)\)$",
        readme, re.M)
    assert sorted(listed) == sorted(
        (statement, form, spec) for statement, forms in SIGNATURES.items()
        for form, spec in forms.items())


# --- printing ---------------------------------------------------------------------


FIXTURE = """\
ring R = poly(Q, [a, b, c], wdegrevlex[2,2,2]) / (a*c - b^2);
ideal I = ideal(R, a^2, a*b, b*c, c^2);
module M = ideal_module(R, a, b);
closure clM = module_closure(M);
check member(a*c, closure(clM, I));
check not member(b, closure(clM, I));
check equal(product(I, M), product(I, M));
modify T = parameter_chain(R, clM, [a, c], 1);
export json "out.json";"""


def test_parse_print_identity_on_asts():
    stmts = parse_script(FIXTURE)
    printed = print_statements(stmts)
    assert parse_script(printed) == stmts
    assert printed == FIXTURE


def test_check_not_is_a_negated_check():
    plain, negated = parse_script("check member(b, I);\n"
                                  "check   not member(b, I);")
    assert (plain.negated, negated.negated) == (False, True)
    assert negated.show() == "check not member(b, I);"
    assert negated != plain and len({plain, negated}) == 2
    assert negated.bound == plain.bound


@pytest.mark.parametrize("form", ["dietz_obstruction(trivial, [x], 1)",
                                  "trivial_on(trivial, R)"],
                         ids=["dietz_obstruction", "trivial_on"])
def test_check_not_of_a_valued_form_is_a_positioned_error(form):
    with pytest.raises(ScriptError) as err:
        parse_script(f"ring R = poly(Q, [x], lex);\ncheck not {form};")
    name = form.split("(")[0]
    assert (err.value.line, err.value.col, err.value.bare_message) == \
        (2, 7, f"check not: {name} gives a value, not true or false")


def test_print_parse_normalizes_idempotently():
    messy = "ring   R=poly( Q ,[a,b,c], wdegrevlex[2,2,2])/(a*c-b^2) ;"
    once = print_statements(parse_script(messy))
    twice = print_statements(parse_script(once))
    assert once == twice
