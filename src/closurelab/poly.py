"""Exact multivariate polynomial arithmetic over QQ or GF(p).

A Polynomial of a PolyRing (variable names, grading weights, coefficient
field, monomial order) and a Vec, an element of the free module P^ncomps,
are one kernel value (_KernelValue), a polynomial being the rank-one
case: int terms {(comp, m): c}, m the order code of the monomial
(orders.MonomialCode) and a polynomial's terms all in component 0, over
one positive denominator that no prime divides along with every
coefficient (1 over GF(p), where coefficients lie in 1..p-1).  Equal
values compare and hash equal.  Equality, hash, sum, negation, the
product by a polynomial and the degree are written once, in the shared
class; each class says which operands it takes (_operand), and
_with makes a value of the same class and rank, which is how
ring.QuotientRing.nf returns either without a type test.  The public
constructors normalize (_encoded); the engine builds values that are
normal already (_of_kernel).  Exponent tuples and field values appear
only where a value is built from them, read through terms, or printed
(_from_kernel).  An exponent past orders.EXP_BOUND is refused where a
monomial, product or power is formed (a power before it is expanded).
A power squares (_power), for polynomials and ring elements alike.

Text is read by one scanner, tokenize, for polynomials (PolyRing.parse,
check_syntax) and, with script=True, for closure-lab scripts (dsl): an
integer is a run of decimal digits (str.isdecimal, which int reads), so
'²' is an unexpected character.  Polynomial and script errors place an
offset by one rule, locate: its line and its column on that line.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index, le, mul

from .field import QQ, FieldError
from .orders import DEGREVLEX, EXP_BOUND, MonomialOrder, UnsupportedInputError
from .values import Record


class ContextError(ValueError):
    """Operands live in different ambient rings."""


class DomainError(ValueError):
    """Operation undefined for this input (e.g. leading term of 0)."""


def mono_divides(a, b):
    return all(map(le, a, b))


def _natural(value, what) -> int:
    """value as an int >= 0 (operator.index); a bool is refused too."""
    if isinstance(value, bool) or not hasattr(value, "__index__") or \
            index(value) < 0:
        raise DomainError(f"{what} {value!r} is not an integer >= 0")
    return index(value)


# --- kernel terms: int coefficients, p the characteristic (0 for Q) ----------
#
# A kernel term is (comp, m), m the order code of its monomial; a
# polynomial's terms are all in component 0.  Term dicts keep the order in
# which their terms were made.


def _encoded(ring, ncomps, items):
    """(int terms, den) of the items ((comp, exps), coeff) of P^ncomps, in
    the order given, normalized (see the module docstring)."""
    nvars, enc, fld = ring.nvars, ring.code.encode, ring.field
    value_type, p = fld.one.__class__, fld.char
    out = {}
    for (j, m), c in items:
        if not 0 <= j < ncomps:
            raise ContextError(f"term in component {j} outside "
                               f"0..{ncomps - 1}")
        if len(m) != nvars:
            raise ContextError(f"exponents {tuple(m)} of length {len(m)} "
                               f"in a ring of {nvars} variables")
        if c.__class__ is not value_type or p and not 0 <= c < p:
            try:
                c = fld.from_fraction(c.numerator, c.denominator)
            except AttributeError:
                raise ContextError(f"coefficient {c!r} is not a rational "
                                   f"number") from None
        if c if p else c._numerator:
            out[j, enc(m)] = c
    if p:
        return out, 1
    den = lcm(*(c._denominator for c in out.values()))
    return {k: c._numerator * (den // c._denominator)
            for k, c in out.items()}, den


def _content_free(terms, den):
    """(terms, den) divided by the gcd of den and every coefficient: the
    normal form of the value terms / den, den > 0 (1 over GF(p))."""
    if den == 1:
        return terms, 1
    g = gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {k: c // g for k, c in terms.items()}, den // g


def _check_bound(terms, code):
    """Refuse kernel terms with an exponent past EXP_BOUND: a product of
    two monomials within it has none that carries out of its field."""
    xor, add, guard = code.xor, code.add, code.guard
    for _j, m in terms:
        if ((m ^ xor) + add) & guard:
            raise UnsupportedInputError(
                f"a product has an exponent past {EXP_BOUND}")


def _from_kernel(items, den, p, code):
    """[((comp, exps), coeff)] of the items ((comp, m), c) of int terms
    over den, in their order, each coefficient a field value: the one
    decoder, behind the terms views and printing."""
    dec = code.decode
    if p:
        return [((j, dec(m)), c) for (j, m), c in items]
    return [((j, dec(m)), Fraction(c, den)) for (j, m), c in items]


def _sum(a, da, b, db, p):
    """(terms, den) of a / da + b / db, normalized: a's terms first, in
    their order, then b's new ones."""
    den = lcm(da, db)
    fa, fb = den // da, den // db
    terms = {k: c * fa for k, c in a.items()}
    for k, c in b.items():
        s = terms.get(k, 0) + c * fb
        if p:
            s %= p
        if s:
            terms[k] = s
        else:
            terms.pop(k, None)
    return _content_free(terms, den)


def _negated(terms, p):
    return {k: p - c if p else -c for k, c in terms.items()}


def _shift_terms(terms, offset):
    """A copy of kernel terms with every component moved by offset."""
    return {(j + offset, m): c for (j, m), c in terms.items()}


def _product(a, da, b, db, ring):
    """(terms, den) of a / da times b / db, normalized, b the terms of a
    polynomial: each term of a, in its component, times each of b's."""
    p = ring.field.char
    terms: dict = {}
    for (j, m1), c1 in a.items():
        for (_0, m2), c2 in b.items():
            k = (j, m1 + m2)
            s = terms.get(k, 0) + c1 * c2
            if p:
                s %= p
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
    _check_bound(terms, ring.code)
    return _content_free(terms, da * db)


def _term_degrees(terms, ring, shifts=None):
    """The weighted degrees of kernel terms, each plus its component's
    shift when shifts are given."""
    dec, wdeg = ring.code.decode, ring.wdeg
    return {wdeg(dec(m)) + (shifts[j] if shifts else 0) for (j, m) in terms}


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
        return Polynomial._of_kernel(self, {})

    def one(self) -> "Polynomial":
        # the monomial 1 has code 0 in every order
        return Polynomial._of_kernel(self, {(0, 0): 1})

    def const(self, c) -> "Polynomial":
        return self.monomial((0,) * self.nvars, c)

    def var(self, i) -> "Polynomial":
        """The variable named i, or the i-th (from 0)."""
        if type(i) is int and 0 <= i < self.nvars:
            i = self.names[i]
        if not isinstance(i, str) or i not in self._index:
            raise ContextError(f"no variable {i!r} in a ring of the "
                               f"variables {', '.join(self.names)}")
        exps = tuple(int(name == i) for name in self.names)
        return Polynomial._of_kernel(self, {(0, self.key(exps)): 1})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff=1) -> "Polynomial":
        return Polynomial(self, {tuple(exps): coeff})

    def wdeg(self, exps) -> int:
        return sum(map(mul, self.weights, exps))

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)


class _KernelValue:
    """What a Polynomial and a Vec share: ring, rank (ncomps, 1 for a
    polynomial), and int kernel terms over one denominator, normalized (see
    the module docstring), so one equality, hash, sum, negation, product
    and degree serve both.  Each class's _operand says which operands it
    takes; _with makes a value of the same class, ring and rank."""

    __slots__ = ("ring", "ncomps", "_terms", "_den")

    def _with(self, terms, den=1):
        """The value terms / den of this class, ring and rank, both normal
        already; terms is kept, and never changed."""
        v = object.__new__(self.__class__)
        v.ring, v.ncomps, v._terms, v._den = self.ring, self.ncomps, terms, den
        return v

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return (other.__class__ is self.__class__ and self.ring == other.ring
                and self.ncomps == other.ncomps and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.ring, self.ncomps, self._den,
                     frozenset(self._terms.items())))

    def __add__(self, other):
        other = self._operand(other)
        return self._with(*_sum(self._terms, self._den, other._terms,
                                other._den, self.ring.field.char))

    def __neg__(self):
        return self._with(_negated(self._terms, self.ring.field.char),
                          self._den)

    def __sub__(self, other):
        return self + (-self._operand(other))

    def _times(self, poly):
        """This value times the polynomial poly, of the same ring."""
        return self._with(*_product(self._terms, self._den, poly._terms,
                                    poly._den, self.ring))

    def degree(self, shifts=None) -> int:
        """Weighted degree (maximum over terms, each plus its component's
        shift when shifts are given); zero -> -1."""
        return max(_term_degrees(self._terms, self.ring, shifts), default=-1)

    def is_homogeneous(self, shifts=None) -> bool:
        return len(_term_degrees(self._terms, self.ring, shifts)) <= 1


def _power(x, n, one):
    """x ** n, n >= 0, by squaring: at most 2 * n.bit_length() products."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


class Polynomial(_KernelValue):
    """A polynomial of ring, held as int kernel terms over one denominator
    (see the module docstring); terms is a decoding view."""

    __slots__ = ()

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring, self.ncomps = ring, 1
        self._terms, self._den = _encoded(
            ring, 1, (((0, m), c) for m, c in terms.items()))

    @classmethod
    def _of_kernel(cls, ring, terms, den=1):
        """The polynomial terms / den, both normal already; terms is kept,
        and never changed."""
        f = object.__new__(cls)
        f.ring, f.ncomps, f._terms, f._den = ring, 1, terms, den
        return f

    @property
    def terms(self) -> dict:
        """{exps: coeff}, the coefficients field values, in the order the
        polynomial holds its terms: decoded on every read."""
        return {m: c for (_0, m), c in self._decoded(self._terms.items())}

    def _decoded(self, items):
        ring = self.ring
        return _from_kernel(items, self._den, ring.field.char, ring.code)

    def _operand(self, other) -> "Polynomial":
        """other as a polynomial of this ring: an int is a constant."""
        if isinstance(other, Polynomial):
            if self.ring != other.ring:
                raise ContextError("polynomials from different rings")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        raise ContextError(f"cannot combine a polynomial with a "
                           f"{type(other).__name__}")

    # -- arithmetic ----------------------------------------------------------

    __radd__ = _KernelValue.__add__

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return self._times(self._operand(other))

    __rmul__ = __mul__

    def __pow__(self, n):
        n = _natural(n, "power")
        if n > 1 and self._terms:
            # the greatest exponents of the power, refused past the bound
            # before it is expanded
            dec = self.ring.code.decode
            self.ring.key(tuple(n * max(e) for e in zip(
                *(dec(m) for _0, m in self._terms))))
        return _power(self, n, self.ring.one())

    def scalar_mul(self, c):
        return self * self.ring.const(c)

    def monic(self) -> "Polynomial":
        return self.scalar_mul(self.ring.field.inv(self.leading_term()[1])) \
            if self._terms else self

    # -- structure -----------------------------------------------------------

    def sorted_terms(self):
        """[(exps, coeff)], the greatest term under the ring order first."""
        return [(m, c) for (_0, m), c in
                self._decoded(sorted(self._terms.items(), reverse=True))]

    def leading_term(self):
        """(exps, coeff) of the greatest term under the ring order."""
        if not self._terms:
            raise DomainError("leading term of the zero polynomial")
        return self.sorted_terms()[0]

    wdeg = _KernelValue.degree

    # -- printing ------------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{format_polynomial(self)}>"


class Vec(_KernelValue):
    """Element of a free module P^ncomps, held as a Polynomial is, with its
    terms in components 0..ncomps-1.  The constructor encodes
    {(comp, exps): coeff} as Polynomial's does, and refuses a component
    outside 0..ncomps-1 too (ContextError).  from_polys, component and
    to_polys relabel components; terms and str decode.  The engine makes
    vectors of kernel terms that are normal already (_of_kernel, _of_row),
    as RingElem._of_nf takes a normal form.
    """

    __slots__ = ()

    def __init__(self, ring: PolyRing, ncomps: int, terms: dict):
        self.ring = ring
        self.ncomps = ncomps
        self._terms, self._den = _encoded(ring, ncomps, terms.items())

    @classmethod
    def _of_kernel(cls, ring, ncomps, terms, den=1):
        """The vector terms / den, both normal already; terms is kept, and
        never changed."""
        v = object.__new__(cls)
        v.ring, v.ncomps, v._terms, v._den = ring, ncomps, terms, den
        return v

    @classmethod
    def _of_row(cls, ring, ncomps, row):
        """The monic vector of a kernel row (comp, m, lc, terms): a row is
        normalized (gb._normalize), so its terms over its lc are normal."""
        return cls._of_kernel(ring, ncomps, row[3], row[2])

    @classmethod
    def zero(cls, ring, ncomps):
        return cls._of_kernel(ring, ncomps, {})

    @classmethod
    def from_polys(cls, polys):
        """The polynomials' kernel terms relabelled into their components,
        over the lcm of their denominators, which keeps them normal."""
        polys = list(polys)
        if not polys:
            raise ContextError("a vector needs at least one polynomial")
        ring = polys[0].ring
        den = lcm(*(p._den for p in polys))
        terms = {}
        for i, p in enumerate(polys):
            if p.ring != ring:
                raise ContextError("mixed rings in vector")
            f = den // p._den
            for (_0, m), c in p._terms.items():
                terms[i, m] = c * f
        return cls._of_kernel(ring, len(polys), terms, den)

    @classmethod
    def unit(cls, ring, ncomps, comp):
        return cls(ring, ncomps, {(comp, (0,) * ring.nvars): 1})

    @property
    def terms(self) -> dict:
        """{(comp, exps): coeff}, the coefficients field values, in the
        order the vector holds its terms: decoded on every read."""
        return dict(_from_kernel(self._terms.items(), self._den,
                                 self.ring.field.char, self.ring.code))

    def _operand(self, other) -> "Vec":
        if not isinstance(other, Vec) or self.ncomps != other.ncomps or \
                self.ring != other.ring:
            raise ContextError("vectors of different ranks or rings")
        return other

    def component(self, i) -> Polynomial:
        return self.to_polys()[i]

    def to_polys(self):
        parts = [{} for _ in range(self.ncomps)]
        for (j, m), c in self._terms.items():
            parts[j][0, m] = c
        return [Polynomial._of_kernel(self.ring,
                                      *_content_free(terms, self._den))
                for terms in parts]

    def scale(self, poly: Polynomial) -> "Vec":
        """Multiply by a ring element."""
        if poly.ring != self.ring:
            raise ContextError("a vector scaled by another ring's element")
        return self._times(poly)

    def pad(self, ncomps, offset=0) -> "Vec":
        """Reembed into P^ncomps, shifting components by offset."""
        if offset < 0 or offset + self.ncomps > ncomps:
            raise ContextError(f"a vector of rank {self.ncomps} shifted by "
                               f"{offset} does not fit rank {ncomps}")
        return Vec._of_kernel(self.ring, ncomps,
                              _shift_terms(self._terms, offset), self._den)

    def take_components(self, lo, hi) -> "Vec":
        terms = {(j - lo, m): c for (j, m), c in self._terms.items()
                 if lo <= j < hi}
        return Vec._of_kernel(self.ring, hi - lo,
                              *_content_free(terms, self._den))

    def has_vars_below(self, n_elim) -> bool:
        dec = self.ring.code.decode
        return any(any(dec(m)[:n_elim]) for (_j, m) in self._terms)

    def __str__(self):
        return "(" + ", ".join(str(p) for p in self.to_polys()) + ")"

    __repr__ = __str__


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
