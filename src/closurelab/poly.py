"""Exact multivariate polynomial arithmetic over QQ or GF(p).

Polynomials are immutable term maps {exponent tuple: nonzero coefficient}
attached to a PolyRing (variable names, grading weights, coefficient field,
monomial order).  Monomials are plain exponent tuples of non-negative ints;
the monomial primitives below (product, divisibility) and the weighted
degree map builtin operators over the two tuples, so the per-exponent loop
runs in C.  Terms are ordered by the order code of the ring's order
(PolyRing.key, the encode of orders.MonomialCode): printing, leading_term
and sorted_terms go by it, and a polynomial with an exponent past
orders.EXP_BOUND raises UnsupportedInputError when it is first ordered.

Text is read by one scanner, tokenize, for polynomials (PolyRing.parse,
check_syntax) and, with script=True, for closure-lab scripts (dsl): an
integer is a run of decimal digits (str.isdecimal, which int reads), so
'²' is an unexpected character.  Polynomial and script errors place an
offset by one rule, locate: its line and its column on that line.
"""

from __future__ import annotations

from operator import add, le, mul

from .field import QQ, FieldError
from .orders import DEGREVLEX, MonomialOrder
from .orders import UnsupportedInputError  # noqa: F401 (re-exported)
from .values import Record


class ContextError(ValueError):
    """Operands live in different ambient rings."""


class DomainError(ValueError):
    """Operation undefined for this input (e.g. leading term of 0)."""


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    return all(map(le, a, b))


class PolyRing:
    """Ambient polynomial ring: names, grading weights, field, order."""

    def __init__(self, names, field=QQ, order: MonomialOrder = DEGREVLEX,
                 weights=None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.field = field
        self.order = order
        if weights is None:
            if order.kind == "wdegrevlex":
                weights = order.weights
            else:
                weights = (1,) * len(self.names)
        self.weights = tuple(weights)
        if len(self.weights) != len(self.names):
            raise ValueError("one weight per variable required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        self.nvars = len(self.names)
        self.code = order.code(self.nvars)
        self.key = self.code.encode
        self._index = {n: i for i, n in enumerate(self.names)}

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, PolyRing) and self.names == other.names
                and self.field == other.field and self.order == other.order
                and self.weights == other.weights)

    def __hash__(self):
        return hash((self.names, self.weights, self.field, self.order))

    def __repr__(self):
        return (f"PolyRing({','.join(self.names)}; {self.field!r}; "
                f"{self.order.describe()})")

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: self.field.one})

    def const(self, c) -> "Polynomial":
        c = self.field.from_int(c) if isinstance(c, int) else c
        if c == self.field.zero:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, i) -> "Polynomial":
        if isinstance(i, str):
            i = self._index[i]
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff=None) -> "Polynomial":
        coeff = self.field.one if coeff is None else coeff
        if coeff == self.field.zero:
            return self.zero()
        return Polynomial(self, {tuple(exps): coeff})

    def wdeg(self, exps) -> int:
        return sum(map(mul, self.weights, exps))

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms  # never mutated after construction

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ContextError("polynomials from different rings")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        fld = self.ring.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = fld.add(terms.get(m, fld.zero), c)
            if s == fld.zero:
                terms.pop(m, None)
            else:
                terms[m] = s
        return Polynomial(self.ring, terms)

    def __neg__(self):
        fld = self.ring.field
        return Polynomial(self.ring, {m: fld.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        fld = self.ring.field
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = fld.add(terms.get(m, fld.zero), fld.mul(c1, c2))
                if s == fld.zero:
                    terms.pop(m, None)
                else:
                    terms[m] = s
        return Polynomial(self.ring, terms)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scalar_mul(self, c):
        fld = self.ring.field
        if isinstance(c, int):
            c = fld.from_int(c)
        if c == fld.zero:
            return self.ring.zero()
        return Polynomial(self.ring, {m: fld.mul(c, co) for m, co in self.terms.items()})

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        _, lc = self.leading_term()
        return self.scalar_mul(self.ring.field.inv(lc))

    # -- structure -----------------------------------------------------------

    def leading_term(self, key=None):
        """Return (monomial, coefficient) maximal under the active order."""
        if not self.terms:
            raise DomainError("leading term of the zero polynomial")
        key = key or self.ring.key
        m = max(self.terms, key=key)
        return m, self.terms[m]

    def wdeg(self) -> int:
        """Weighted degree (maximum over terms); zero polynomial -> -1."""
        if not self.terms:
            return -1
        return max(self.ring.wdeg(m) for m in self.terms)

    def is_homogeneous(self, weights=None) -> bool:
        if not self.terms:
            return True
        weights = self.ring.weights if weights is None else tuple(weights)
        degs = {sum(map(mul, weights, m)) for m in self.terms}
        return len(degs) == 1

    def sorted_terms(self, key=None):
        key = key or self.ring.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{format_polynomial(self)}>"


# --- printing --------------------------------------------------------------


def _format_monomial(ring: PolyRing, exps) -> str:
    parts = []
    for name, e in zip(ring.names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(f: Polynomial) -> str:
    if f.is_zero():
        return "0"
    fld = f.ring.field
    out = []
    for m, c in f.sorted_terms():
        mono = _format_monomial(f.ring, m)
        cs = fld.fmt(c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        if mono and cs == "1":
            body = mono
        elif mono:
            body = f"{cs}*{mono}"
        else:
            body = cs
        if not out:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


# --- parsing -----------------------------------------------------------------


def locate(text, pos) -> dict:
    """{"line", "column", "source"}: the 1-based line and column of offset
    pos in text, and the text of that line.  Lines end where
    str.splitlines breaks them ("\r\n" is one break); an offset on a break
    is on the line the break ends, and the end of text after a final
    break is on an empty line."""
    number, start = 0, 0
    for number, line in enumerate(text.splitlines(keepends=True), 1):
        source = line.splitlines()[0]
        # the last line, with no break, also holds the end of text
        if pos < start + len(line) or source == line:
            return {"line": number, "column": pos - start + 1,
                    "source": source}
        start += len(line)
    return {"line": number + 1, "column": pos - start + 1, "source": ""}


class ParseError(ValueError):
    """An error at offset pos of text, on line `line` at column `col`
    (locate); the message names the line when text has more than one.
    token is the parser token the grammar stopped at (None for an error
    it did not find: one of the scanner's, or nesting too deep)."""

    def __init__(self, message: str, text: str, pos: int, token=None):
        self.pos = pos
        where = locate(text, pos)
        self.line, self.col = where["line"], where["column"]
        at = f"line {self.line}, column {self.col}" \
            if where["source"] != text else f"column {self.col}"
        super().__init__(f"{message} ({at})")
        self.bare_message = message
        self.text = text
        self.token = token


class Token(Record):
    """kind is int, name, string, end, or the character of a punctuation
    token; text[pos:end] is what was read."""

    __slots__ = ("kind", "value", "pos", "end")

    def __init__(self, kind: str, value: object, pos: int, end: int):
        self.kind = kind
        self.value = value
        self.pos = pos
        self.end = end


_PUNCT = "+-*^()/"
_SCRIPT_PUNCT = _PUNCT + "[]{},;="


def tokenize(text: str, script=False):
    """The tokens of text, the last of kind end: integers (runs of
    str.isdecimal digits, which int reads), names (a letter or '_', then
    str.isalnum characters or '_') and the punctuation of polynomial text.
    A script also has '#' comments to the end of the line, "strings" and
    the punctuation of statements.

    Raises ParseError at any other character, at an unterminated string,
    and at an integer literal too long for int.
    """
    punct = _SCRIPT_PUNCT if script else _PUNCT
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch.isspace():
            pass
        elif ch.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                raise ParseError(f"integer literal too long ({j - i} digits)",
                                 text, i) from None
            toks.append(Token("int", value, i, j))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], i, j))
        elif ch in punct:
            toks.append(Token(ch, ch, i, j))
        elif script and ch == "#":
            j = text.find("\n", j)
            if j < 0:
                j = n
        elif script and ch == '"':
            k = text.find('"', j)
            if k < 0:
                raise ParseError("unterminated string", text, i)
            toks.append(Token("string", text[j:k], i, k + 1))
            j = k + 1
        else:
            raise ParseError(f"unexpected character {ch!r}", text, i)
        i = j
    toks.append(Token("end", None, n, n))
    return toks


MAX_NESTING = 100


class _PolyParser:
    """Recursive descent for `coeff*mon +/- ...` with optional `*`.

    Grammar: expr := term (('+'|'-') term)* ; term := factor (['*'] factor)* ;
    factor := INT ['/' INT] | NAME ['^' INT] | '(' expr ')' | '-' factor.
    The leaves resolve in `number` and `name`.  depth counts the enclosing
    '(' and prefix '-' of a factor; past MAX_NESTING the parser stops with
    a ParseError instead of exhausting Python's recursion limit.
    """

    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.text = text
        self.toks = tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, message, t):
        raise ParseError(message, self.text, t.pos, token=t)

    def expect(self, kind):
        t = self.take()
        if t.kind != kind:
            found = "end of input" if t.kind == "end" else repr(t.value)
            self.fail(f"expected {kind!r}, found {found}", t)
        return t

    def parse(self) -> Polynomial:
        f = self.expr()
        t = self.peek()
        if t.kind != "end":
            self.fail(f"unexpected {t.value!r}", t)
        return f

    def expr(self, depth=0) -> Polynomial:
        t = self.peek()
        if t.kind == "-":
            self.take()
            f = -self.term(depth)
        else:
            f = self.term(depth)
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            g = self.term(depth)
            f = f + g if op == "+" else f - g
        return f

    def term(self, depth) -> Polynomial:
        f = self.factor(depth)
        while True:
            t = self.peek()
            if t.kind == "*":
                self.take()
                f = f * self.factor(depth)
            elif t.kind in ("name", "int", "("):
                f = f * self.factor(depth)
            else:
                return f

    def factor(self, depth) -> Polynomial:
        t = self.take()
        if t.kind in ("(", "-") and depth >= MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING} levels",
                             self.text, t.pos)
        if t.kind == "int":
            den = None
            if self.peek().kind == "/":
                self.take()
                den = self.expect("int").value
            base = self.number(t, den)
        elif t.kind == "name":
            base = self.name(t)
        elif t.kind == "(":
            base = self.expr(depth + 1)
            self.expect(")")
        elif t.kind == "-":
            return -self.factor(depth + 1)
        else:
            found = "end of input" if t.kind == "end" else repr(t.value)
            self.fail(f"unexpected {found}", t)
        if self.peek().kind == "^":
            self.take()
            e = self.expect("int").value
            base = base ** e
        return base

    def number(self, t, den) -> Polynomial:
        """The constant t.value, or t.value/den when den is not None."""
        if den is None:
            return self.ring.const(t.value)
        if den == 0:
            self.fail("zero denominator", t)
        try:
            c = self.ring.field.from_fraction(t.value, den)
        except FieldError as exc:
            raise ParseError(str(exc), self.text, t.pos, token=t) from exc
        return self.ring.const(c)

    def name(self, t) -> Polynomial:
        if t.value not in self.ring._index:
            self.fail(f"unknown variable {t.value!r}", t)
        return self.ring.var(t.value)


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    return _PolyParser(ring, text).parse()


class _AnyPoly:
    """Stands for every polynomial: + - * ^ with it give it back."""

    def __add__(self, other):
        return self

    __sub__ = __mul__ = __pow__ = __add__

    def __neg__(self):
        return self


class _SyntaxParser(_PolyParser):
    """The same grammar with leaves that resolve nothing."""

    def number(self, t, den):
        return _ANY_POLY

    def name(self, t):
        return _ANY_POLY


_ANY_POLY = _AnyPoly()


def check_syntax(text: str) -> None:
    """Raise ParseError where text leaves the polynomial grammar.

    Names, denominators and the field are not looked at.
    """
    _SyntaxParser(None, text).parse()
