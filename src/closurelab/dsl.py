"""Parser for the closure-lab script language.

Grammar (statements end with ';', '#' starts a comment):

  stmt    := ringdef | iddef | moddef | cldef | check | modify | export
  ringdef := "ring" NAME "=" "poly" "(" field "," varlist "," order ")"
                 ["/" "(" polylist ")"] ";"
           | "ring" NAME "=" "subring" "(" field "," varlist ","
                 "[" polylist "]" ["," varlist] ")" ";"
  field   := "Q" | "Fp" "(" INT ")"
  order   := "lex" | "degrevlex" | "wdegrevlex" "[" intlist "]"
  iddef   := "ideal" NAME "=" call ";"
  moddef  := "module" NAME "=" call ";"
  cldef   := "closure" NAME "=" ("trivial" | "integral_closure" | call) ";"
  check   := "check" ["not"] call ";"
  modify  := "modify" NAME "=" call ";"
  export  := "export" ("json" | "session") STRING ";"
  call    := FORM "(" [arg {"," arg}] ")"

The forms of each statement, and the set-expression heads that may stand
for a set argument, are the keys of SIGNATURES; their parameters and the
kind of each are its values.  Every call is bound against its signature
when the script is parsed; a missing, surplus or misshapen argument is a
syntax error at its position.

The text is scanned once, by poly.tokenize in script mode.  An argument
that is no string, [list] or set head is a balanced run of tokens: an
integer, a negative integer or a name, or else polynomial text, which
check_syntax scans again in polynomial mode.

A statement parses into one of three nodes: RingDef, ExportStmt, or
CallStmt for every other keyword.  Eq, hash and repr read every field of
RingDef and ExportStmt, and of a CallStmt kind, name, form, args and
negated, but not bound, which follows from args.  An ideal statement's
one form is the set head ideal, bound by the same signature: its
generators are element texts, read in the ring when the statement runs.
`check not <form>(...)` holds when the form's check returns false; `not`
before a form that answers a value (VALUED_CHECKS) is a syntax error.

Printing an AST yields canonical source; parsing that source returns an
equal AST.
"""

from __future__ import annotations

from .poly import ParseError, check_syntax, locate, tokenize
from .values import Frozen


# The signature of each form, by statement: "name: kind" per parameter;
# "name?" is optional with default None, "name?: kind = v" defaults to v;
# "*name" takes every remaining argument.  An optional ring that comes
# before other parameters is filled only by a name standing in its place;
# what stands there otherwise is a [list] or an integer.
SIGNATURES = {
    "check": {
        "member": "u: element|[vector], N: set",
        "equal": "A: set, B: set",
        "functorial": "cl: closure, N: set, J: ideal|[list]",
        "semi_residual": "cl: closure, N: set",
        "faithful": "cl: closure, R?: ring",
        "colon_capturing": "cl: closure, R?: ring, xs: [list], "
                           "variant?: name = plain, t?: int, a?: int",
        "gcc": "cl: closure, R?: ring, xs: [list]",
        "phantom": "cl: closure, M: name",
        "dietz_obstruction": "cl: closure, R?: ring, xs: [list], t: int",
        "regular_sequence": "R?: ring, xs: [list], M?: name",
        "trivial_on": "cl: closure, R?: ring, count?: int = 10",
    },
    "set": {
        "closure": "cl: closure, N: set",
        "product": "I: name, M: name",
        "mult": "I: name, J: name",
        "ideal": "R: ring, *gens: element",
    },
    "ideal": {
        "ideal": "R: ring, *gens: element",
    },
    "module": {
        "ideal_module": "R: ring, *gens: element",
        "subring_module": "R: ring, gens: [list]",
        "free": "R: ring, degrees: [int list]",
        "syzygy_of_k": "R: ring, i: int",
    },
    "closure": {
        "module_closure": "M: name",
        "intersect": "*parts: closure",
    },
    "modify": {
        "parameter_chain": "R: ring, cl: closure, xs: [list], steps: int, "
                           "deg_bound?: int = 12",
    },
}

# kind: (what an argument of the kind must be, the kind of a bare argument
# it takes, the kind of the items of a [list] it takes).  Name kinds take
# a name, bare or quoted; an int is nonnegative; an integer is any.
KINDS = {
    "name": ("a name", "name", None),
    "ring": ("a name", "name", None),
    "closure": ("a name", "name", None),
    "set": ("a set expression", "set", None),
    "element": ("an element", "element", None),
    "element|[vector]": ("an element or [vector]", "element", "element"),
    "[list]": ("a [list]", None, "element"),
    "[int list]": ("a [list]", None, "integer"),
    "int": ("a nonnegative integer", "int", None),
    "ideal|[list]": ("an ideal name or [list]", "name", "element"),
}


class Param(Frozen):
    __slots__ = ("name", "kind", "optional", "default", "rest")

    def __init__(self, name: str, kind: str, optional: bool = False,
                 default: object = None, rest: bool = False):
        self._set_slots(name, kind, optional, default, rest)


def _params(spec):
    """The parameters of a signature in SIGNATURES."""
    params = []
    for item in spec.split(", "):
        name, kind = item.split(": ")
        kind, _eq, default = kind.partition(" = ")
        if kind == "int" and default:
            default = int(default)
        params.append(Param(name.strip("*?"), kind, name.endswith("?"),
                            default or None, name.startswith("*")))
    return tuple(params)


# a form name shared by two statements (ideal) has one signature in both
PARAMS = {form: _params(spec) for forms in SIGNATURES.values()
          for form, spec in forms.items()}
CHECK_FNS = tuple(SIGNATURES["check"])
# the checks that answer a value, not true or false: `check not` takes none
VALUED_CHECKS = ("dietz_obstruction", "trivial_on")
SET_HEADS = tuple(SIGNATURES["set"])

CLOSURE_KEYWORDS = ("trivial", "integral_closure")


def show_position(message, where) -> str:
    """message at a position from locate: the line and column, then the
    source line with a caret under the column."""
    caret = " " * (where["column"] - 1) + "^"
    return (f"line {where['line']}, column {where['column']}: {message}\n"
            f"  {where['source']}\n  {caret}")


class ScriptError(ValueError):
    """Lexical or syntax error with position and expectation info."""

    def __init__(self, message, text, pos, expected=()):
        self.pos = pos
        where = locate(text, pos)
        self.line, self.col = where["line"], where["column"]
        self.expected = tuple(expected)
        self.bare_message = message
        if expected:
            message += " (expected " + " | ".join(expected) + ")"
        super().__init__(show_position(message, where))


# --- argument trees ------------------------------------------------------------


class Name(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: str):
        self._set_slots(value)

    def show(self):
        return self.value


class IntArg(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self._set_slots(value)

    def show(self):
        return str(self.value)


class StrArg(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: str):
        self._set_slots(value)

    def show(self):
        return f'"{self.value}"'


class Expr(Frozen):
    __slots__ = ("text",)

    def __init__(self, text: str):
        self._set_slots(text)

    def show(self):
        return self.text


class ListArg(Frozen):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self._set_slots(items)

    def show(self):
        return "[" + ", ".join(x.show() for x in self.items) + "]"


class Call(Frozen):
    # bound: parameter name -> argument value, as Parser.bind gives them;
    # it follows from args, and is left out of eq, hash and repr
    __slots__ = ("head", "args", "bound")
    _fields = ("head", "args")

    def __init__(self, head: str, args: tuple, bound: dict | None = None):
        self._set_slots(head, args, {} if bound is None else bound)

    def show(self):
        return self.head + "(" + ", ".join(x.show() for x in self.args) + ")"


# --- statements -----------------------------------------------------------------


class RingDef(Frozen):
    """form is "poly" or "subring"; field_spec ("Q",) or ("Fp", p);
    order_spec ("lex",), ("degrevlex",) or ("wdegrevlex", ints).
    relations are polynomial texts; a subring has the polynomial texts of
    its images and its presentation names (which may be empty)."""

    __slots__ = ("name", "form", "field_spec", "vars", "order_spec",
                 "relations", "images", "pres_names", "kind")

    def __init__(self, name: str, form: str, field_spec: tuple, vars: tuple,
                 order_spec: tuple = (), relations: tuple = (),
                 images: tuple = (), pres_names: tuple = (),
                 kind: str = "ring"):
        self._set_slots(name, form, field_spec, vars, order_spec, relations,
                        images, pres_names, kind)

    def show(self):
        fs = "Q" if self.field_spec[0] == "Q" else f"Fp({self.field_spec[1]})"
        if self.form == "poly":
            od = self.order_spec
            os_ = od[0] if od[0] != "wdegrevlex" else \
                "wdegrevlex[" + ",".join(map(str, od[1])) + "]"
            base = (f"ring {self.name} = poly({fs}, "
                    f"[{', '.join(self.vars)}], {os_})")
            if self.relations:
                base += " / (" + ", ".join(self.relations) + ")"
            return base + ";"
        srcs = "[" + ", ".join(self.images) + "]"
        extra = f", [{', '.join(self.pres_names)}]" if self.pres_names else ""
        return (f"ring {self.name} = subring({fs}, "
                f"[{', '.join(self.vars)}], {srcs}{extra});")


class CallStmt(Frozen):
    """A statement that is a call: kind is its keyword (ideal, module,
    closure, check or modify), name the name it binds (None for a check),
    form the call's head and args its arguments.  A closure keyword is a
    form without arguments, and prints bare.  negated marks a `check not`,
    which holds when the form's check does not.  bound: parameter name ->
    argument value, as Parser.bind gives them; it follows from args, and
    is left out of eq, hash and repr."""

    __slots__ = ("kind", "name", "form", "args", "bound", "negated")
    _fields = ("kind", "name", "form", "args", "negated")

    def __init__(self, kind: str, name: str | None, form: str, args: tuple,
                 bound: dict | None = None, negated: bool = False):
        self._set_slots(kind, name, form, args,
                        {} if bound is None else bound, negated)

    def show(self):
        call = self.form if self.form in CLOSURE_KEYWORDS else \
            Call(self.form, self.args).show()
        head = self.kind if self.name is None else \
            f"{self.kind} {self.name} ="
        return f"{head}{' not' * self.negated} {call};"


class ExportStmt(Frozen):
    # what: json | session
    __slots__ = ("what", "path", "kind")

    def __init__(self, what: str, path: str, kind: str = "export"):
        self._set_slots(what, path, kind)

    def show(self):
        return f'export {self.what} "{self.path}";'


def print_statements(stmts) -> str:
    return "\n".join(s.show() for s in stmts)


class Span(Frozen):
    """Where a statement stands in its script: the offset of its first
    character, and (text, offset) of each argument that is an element or
    a name, as written."""

    __slots__ = ("script", "start", "args")

    def __init__(self, script: str, start: int, args: tuple = ()):
        self._set_slots(script, start, args)

    def where(self, text=None, pos=0) -> dict:
        """locate() of offset pos in the first argument written as text,
        or of the statement's start when no argument is."""
        at = next((offset + pos for arg, offset in self.args if arg == text),
                  self.start)
        return locate(self.script, at)


def _check_poly_syntax(text: str, offset: int, script: str, end_pos: int):
    """Syntax-only check of a polynomial argument text found at offset.

    Names are resolved when the statement runs; this catches dangling
    operators and unbalanced parentheses at parse time, with script
    coordinates.  An error at the end of text is placed at end_pos.
    """
    try:
        check_syntax(text)
    except ParseError as exc:
        t = exc.token
        if t is None:
            raise ScriptError(exc.bare_message, script,
                              offset + exc.pos) from exc
        if t.kind == "end":
            raise ScriptError("invalid polynomial: unexpected end of "
                              "expression", script, end_pos) from exc
        raise ScriptError(f"invalid polynomial: unexpected {t.value!r}",
                          script, offset + t.pos) from exc


def _value(kind, arg):
    """arg as a bare value of kind, or None when it is not one."""
    if kind == "name":
        return arg.value if isinstance(arg, (Name, StrArg)) else None
    if kind == "set":
        return arg if isinstance(arg, (Name, Call)) else None
    if kind == "element":
        return arg.show() if isinstance(arg, (Name, Expr, IntArg)) else None
    if kind in ("int", "integer") and isinstance(arg, IntArg) and \
            (kind == "integer" or arg.value >= 0):
        return arg.value
    return None


# --- parser ---------------------------------------------------------------------


class Parser:
    def __init__(self, text: str):
        self.text = text
        try:
            self.toks = tokenize(text, script=True)
        except ParseError as exc:
            raise ScriptError(exc.bare_message, text, exc.pos) from None
        self.i = 0
        self.spans = []   # one Span per statement parsed
        self.args = []    # (text, offset) of the statement's raw arguments

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, what=None):
        """The next token, which must be of kind; the error expects what,
        or else the repr of kind (a punctuation character)."""
        t = self.take()
        if t.kind != kind:
            raise ScriptError(f"found {t.value!r}", self.text, t.pos,
                              expected=(what or repr(kind),))
        return t

    def expect_name(self, *allowed):
        t = self.take()
        if t.kind != "name" or (allowed and t.value not in allowed):
            raise ScriptError(f"found {t.value!r}", self.text, t.pos,
                              expected=allowed or ("identifier",))
        return t.value

    def expect_int(self):
        return self.expect("int", "integer").value

    def at(self, kind):
        return self.peek().kind == kind

    # -- argument scanning ------------------------------------------------------

    def scan_arg(self):
        """One argument: name, int, string, list, known call, or raw expr."""
        t = self.peek()
        if t.kind == "string":
            self.take()
            return StrArg(t.value)
        if t.kind == "[":
            return self.scan_list()
        if t.kind == "name" and t.value in SET_HEADS and \
                self.toks[self.i + 1].kind == "(":
            head = self.take().value
            return Call(head, *self.scan_call(head))
        # otherwise: a balanced token run up to a top-level ',' or ')' or ']'
        first, depth = self.i, 0
        while True:
            kind = self.peek().kind
            if kind == "end" or depth == 0 and kind in (",", ";", ")", "]"):
                break
            if kind in ("(", "["):
                depth += 1
            elif kind in (")", "]"):
                depth -= 1
            self.i += 1
        run = self.toks[first:self.i]
        if not run:
            raise ScriptError("empty argument", self.text, self.peek().pos)
        start = run[0].pos
        text = self.text[start:run[-1].end]
        self.args.append((text, start))
        if len(run) == 1 and run[0].kind == "int":
            return IntArg(run[0].value)
        if len(run) == 2 and run[0].kind == "-" and run[1].kind == "int":
            return IntArg(-run[1].value)
        if len(run) == 1 and run[0].kind == "name":
            return Name(text)
        _check_poly_syntax(text, start, self.text, self.peek().pos)
        return Expr(text)

    def scan_list(self):
        self.expect("[")
        items, _starts = self.scan_args_until("]")
        self.expect("]")
        return ListArg(tuple(items))

    def scan_args_until(self, closer):
        """The arguments up to closer, and the position of each."""
        if self.at(closer):
            return [], []
        return self.scan_args()

    def scan_args(self):
        """One argument or more, up to the next one not followed by ',',
        and the position of each."""
        args, starts = [], []
        while True:
            starts.append(self.peek().pos)
            args.append(self.scan_arg())
            if not self.at(","):
                return args, starts
            self.take()

    def scan_call(self, form):
        """'(' arguments ')' of form: the argument tuple and its binding."""
        self.expect("(")
        args, starts = self.scan_args_until(")")
        close = self.expect(")")
        return tuple(args), self.bind(form, args, starts + [close.pos])

    def bind(self, form, args, starts):
        """Parameter name -> value for the arguments of form; a missing,
        surplus or misshapen argument is an error at its position."""
        bound, k = {}, 0
        params = PARAMS[form]
        for i, p in enumerate(params):
            slot = p.optional and p.kind == "ring" and i + 1 < len(params)
            if p.rest:
                bound[p.name] = tuple(self.bind_arg(form, p, j, args[j],
                                                    starts[j])
                                      for j in range(k, len(args)))
                k = len(args)
            elif k == len(args) or \
                    (slot and not isinstance(args[k], (Name, StrArg))):
                if not p.optional:
                    raise ScriptError(f"{form}: argument {k + 1} is missing",
                                      self.text, starts[k])
                bound[p.name] = p.default
            else:
                bound[p.name] = self.bind_arg(form, p, k, args[k],
                                              starts[k])
                k += 1
        if k < len(args):
            raise ScriptError(f"{form}: surplus argument {k + 1} "
                              f"(at most {k})", self.text, starts[k])
        return bound

    def bind_arg(self, form, p, k, arg, pos):
        """The value of argument k, arg, for parameter p of form."""
        what, bare, item = KINDS[p.kind]
        if item and isinstance(arg, ListArg):
            values = tuple(_value(item, x) for x in arg.items)
            if None in values:
                raise ScriptError(f"{form}: {p.name} must be {item}s, found "
                                  f"{arg.show()}", self.text, pos)
            return values
        value = _value(bare, arg)
        if value is None:
            raise ScriptError(f"{form}: argument {k + 1} must be {what}, "
                              f"found {arg.show()}", self.text, pos)
        return value

    # -- statement forms -----------------------------------------------------------

    def parse_script(self):
        stmts = []
        while self.peek().kind != "end":
            start, self.args = self.peek().pos, []
            stmts.append(self.parse_statement())
            self.spans.append(Span(self.text, start, tuple(self.args)))
        return stmts

    def parse_statement(self):
        kw = self.expect_name("ring", "ideal", "module", "closure", "check",
                              "modify", "export")
        if kw == "ring":
            return self.parse_ringdef()
        if kw == "export":
            return self.parse_export()
        return self.parse_call_statement(kw)

    def parse_call_statement(self, kw):
        """'check' call ';', or kw NAME '=' call ';', for a form of
        SIGNATURES[kw] (or a closure keyword, without arguments)."""
        name = None
        if kw != "check":
            name = self.expect_name()
            self.expect("=")
        keywords = CLOSURE_KEYWORDS if kw == "closure" else ()
        negated = kw == "check" and self.at("name") and \
            self.peek().value == "not"
        if negated:
            at = self.take().pos
        form = self.expect_name(*keywords, *SIGNATURES[kw])
        if negated and form in VALUED_CHECKS:
            raise ScriptError(f"check not: {form} gives a value, not true "
                              f"or false", self.text, at)
        args, bound = ((), {}) if form in keywords else \
            self.scan_call(form)
        self.expect(";")
        return CallStmt(kw, name, form, args, bound, negated)

    def parse_field(self):
        name = self.expect_name("Q", "Fp")
        if name == "Q":
            return ("Q",)
        self.expect("(")
        p = self.expect_int()
        self.expect(")")
        return ("Fp", p)

    def parse_list(self, item):
        """'[' item {',' item} ']': the tuple of what item() returns."""
        self.expect("[")
        items = [item()]
        while self.at(","):
            self.take()
            items.append(item())
        self.expect("]")
        return tuple(items)

    def parse_varlist(self):
        return self.parse_list(self.expect_name)

    def parse_order(self):
        name = self.expect_name("lex", "degrevlex", "wdegrevlex")
        if name != "wdegrevlex":
            return (name,)
        return ("wdegrevlex", self.parse_list(self.expect_int))

    def parse_ringdef(self):
        name = self.expect_name()
        self.expect("=")
        form = self.expect_name("poly", "subring")
        self.expect("(")
        fs = self.parse_field()
        self.expect(",")
        vars_ = self.parse_varlist()
        self.expect(",")
        if form == "poly":
            order = self.parse_order()
            self.expect(")")
            rels = ()
            if self.at("/"):
                self.take()
                self.expect("(")
                rels = tuple(a.show() for a in self.scan_args()[0])
                self.expect(")")
            self.expect(";")
            return RingDef(name, "poly", fs, vars_, order, relations=rels)
        images = tuple(arg.show() for arg in self.parse_list(self.scan_arg))
        pres = ()
        if self.at(","):
            self.take()
            pres = self.parse_varlist()
        self.expect(")")
        self.expect(";")
        return RingDef(name, "subring", fs, vars_, ("wdegrevlex", ()),
                       images=images, pres_names=pres)

    def parse_export(self):
        what = self.expect_name("json", "session")
        path = self.expect("string", "string path").value
        self.expect(";")
        return ExportStmt(what, path)


def parse_script(text: str):
    return Parser(text).parse_script()
