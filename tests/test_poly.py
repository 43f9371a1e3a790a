import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from closurelab import poly
from closurelab.field import QQ, prime_field
from closurelab.gb import Vec
from closurelab.linalg import monomials_of_wdeg
from closurelab.orders import (DEGREVLEX, EXP_BOUND, LEX, elimination,
                               wdegrevlex)
from closurelab.poly import (ContextError, DomainError, ParseError, PolyRing,
                             Polynomial, UnsupportedInputError)

R2 = PolyRing(("x", "y"), QQ, DEGREVLEX)
R3 = PolyRing(("a", "b", "c"), QQ, DEGREVLEX)


def test_add_cancellation():
    assert R2.parse("x + y") + R2.parse("x - y") == R2.parse("2*x")


def test_difference_of_squares():
    assert R2.parse("x + y") * R2.parse("x - y") == R2.parse("x^2 - y^2")


def test_frobenius_char_2():
    F2 = PolyRing(("x", "y"), prime_field(2), DEGREVLEX)
    assert F2.parse("(x + y)^2") == F2.parse("x^2 + y^2")


def test_context_error_on_mixed_rings():
    with pytest.raises(ContextError):
        R2.parse("x") + R3.parse("a")


def test_rings_keep_the_eq_hash_contract_and_their_order_code():
    """Rings compare by value, the same ring fast by identity, and equal
    rings hash equal; each keeps the one code of its order."""
    a = PolyRing(("x", "y"), QQ, LEX)
    b = PolyRing(("x", "y"), QQ, LEX)
    assert a == a and a == b and hash(a) == hash(b) and not a != b
    assert a != PolyRing(("x", "y"), QQ, DEGREVLEX)
    assert a != PolyRing(("x", "y"), prime_field(5), LEX)
    assert a.code is LEX.code(2) and a.key == a.code.encode


def test_leading_term_lex():
    L = PolyRing(("x", "y"), QQ, LEX)
    m, c = L.parse("x^2*y + x*y^2").leading_term()
    assert m == (2, 1) and c == Fraction(1)


def test_leading_term_degrevlex_quadric():
    # b^2 beats a*c: the last nonzero entry of (1,-2,1) is positive
    m, c = R3.parse("a*c - b^2").leading_term()
    assert m == (0, 2, 0)
    assert c == Fraction(-1)


def test_leading_term_singleton():
    m, c = R3.parse("5*a^3").leading_term()
    assert m == (3, 0, 0) and c == Fraction(5)


def test_leading_term_of_zero_raises():
    with pytest.raises(DomainError):
        R2.zero().leading_term()


def test_homogeneity():
    assert R2.parse("x^2 + x*y").is_homogeneous()
    assert not R2.parse("x^2 + x").is_homogeneous()
    W = PolyRing(("a", "b", "c"), QQ, wdegrevlex((4, 4, 4)))
    f = W.parse("b^2 + a*c")
    assert f.is_homogeneous()
    assert f.wdeg() == 8


def test_weighted_degrees():
    W = PolyRing(("a", "b", "c"), QQ, wdegrevlex((2, 2, 2)))
    assert W.parse("a*c").wdeg() == 4
    assert W.parse("a + b").wdeg() == 2


# --- parsing and printing -------------------------------------------------------


@pytest.mark.parametrize("text", [
    "x^2 - y^2",
    "2*x*y + 1/2*y^2",
    "-x + y",
    "x^3 + 3*x^2*y + 3*x*y^2 + y^3",
    "0",
    "7",
    "-1/3*x*y",
])
def test_parse_print_round_trip(text):
    f = R2.parse(text)
    assert R2.parse(str(f)) == f


def test_print_uses_caret_and_star():
    assert str(R3.parse("a*c - b^2")) == "-b^2 + a*c"
    assert str(R2.parse("x")) == "x"


def test_parse_optional_star():
    assert R2.parse("2x") == R2.parse("2*x")
    assert R2.parse("3x^2y") == R2.parse("3*x^2*y")


def test_parse_parenthesized_powers():
    assert R2.parse("(x + y)^2") == R2.parse("x^2 + 2*x*y + y^2")


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        R2.parse("x + z")


def test_parse_dangling_operator_column():
    with pytest.raises(ParseError) as err:
        R2.parse("x* ")
    assert err.value.col >= 2


def test_parse_error_on_multi_line_text_names_line_and_column():
    """On text of several lines a parse error names the line and the
    column on it, by the rule that places script errors (locate); on
    one line it names the column alone."""
    cases = [("x +\n\n q", 3, 2, "unknown variable 'q'"),
             ("x +\ny +", 2, 4, "unexpected end of input"),
             ("x\n+ ²", 2, 3, "unexpected character '²'"),
             ("(x\n + y", 2, 5, "expected ')', found end of input")]
    for text, line, col, message in cases:
        with pytest.raises(ParseError) as err:
            R2.parse(text)
        assert (err.value.line, err.value.col) == (line, col), text
        assert str(err.value) == f"{message} (line {line}, column {col})"
    with pytest.raises(ParseError) as err:
        R2.parse("x + q")
    assert (err.value.line, err.value.col) == (1, 5)
    assert str(err.value) == "unknown variable 'q' (column 5)"


def test_parse_rational_coefficients():
    f = R2.parse("1/2*x + 3/4*y")
    assert f.terms[(1, 0)] == Fraction(1, 2)
    assert f.terms[(0, 1)] == Fraction(3, 4)


# --- property tests ----------------------------------------------------------------


def polys(ring, max_terms=4, max_exp=3):
    coeff = st.integers(-4, 4)
    mono = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    term = st.tuples(mono, coeff)
    def build(ts):
        f = ring.zero()
        for m, c in ts:
            f = f + ring.monomial(m, ring.field.from_int(c))
        return f
    return st.lists(term, max_size=max_terms).map(build)


@settings(max_examples=60, deadline=None)
@given(polys(R2), polys(R2), polys(R2))
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@pytest.mark.parametrize("order", [LEX, DEGREVLEX, wdegrevlex((2, 3))])
@settings(max_examples=40, deadline=None)
@given(f=polys(R2), g=polys(R2))
def test_leading_term_multiplicative(order, f, g):
    if f.is_zero() or g.is_zero():
        return
    key = order.code(2).encode
    mf, cf = f.leading_term(key)
    mg, cg = g.leading_term(key)
    mfg, cfg = (f * g).leading_term(key)
    assert mfg == tuple(a + b for a, b in zip(mf, mg))
    assert cfg == cf * cg


@settings(max_examples=40, deadline=None)
@given(polys(R2), polys(R2))
def test_fp_agrees_with_q_mod_p(f, g):
    p = 5
    Fp = PolyRing(("x", "y"), prime_field(p), DEGREVLEX)

    def red(h):
        return Polynomial(Fp, {m: c.numerator % p for m, c in h.terms.items()
                               if c.numerator % p})

    assert red(f * g) == red(f) * red(g)
    assert red(f + g) == red(f) + red(g)


@settings(max_examples=80, deadline=None)
@given(polys(R3, max_terms=5))
def test_print_parse_round_trip_random(f):
    assert R3.parse(str(f)) == f


def test_parse_empty_input_errors():
    with pytest.raises(ParseError):
        R2.parse("")


def test_parse_unbalanced_parentheses():
    with pytest.raises(ParseError):
        R2.parse("(x + y")


def test_parse_rejects_overlong_integer_literal_at_its_column():
    with pytest.raises(ParseError) as err:
        R2.parse("x + " + "7" * 5000 + "*y")
    assert err.value.col == 5
    assert "integer literal too long" in str(err.value)


def test_parse_reads_decimal_digits_only():
    """A character such as '²' passes str.isdigit, but int refuses it:
    it is an unexpected character, and a decimal digit of any script is
    read as its value."""
    with pytest.raises(ParseError) as err:
        R2.parse("x^²")
    assert str(err.value) == "unexpected character '²' (column 3)"
    assert R2.parse("٣*x") == R2.parse("3*x")


@pytest.mark.parametrize("opener", ["(", "-"])
def test_parse_stops_deep_nesting_at_the_first_level_too_many(opener):
    depth = 100
    closer = ")" if opener == "(" else ""
    # 100 parentheses, or an even number of signs, leave x
    assert R2.parse(opener * depth + "x" + closer * depth) == R2.parse("x")
    with pytest.raises(ParseError) as err:
        R2.parse("y + " + opener * 400 + "x" + closer * 400)
    assert err.value.col == 4 + depth + 1
    assert "nested deeper than 100 levels" in str(err.value)


def test_monomial_primitives_match_reference():
    """The monomial primitives, PolyRing.wdeg, Polynomial.is_homogeneous,
    Vec.has_vars_below and the order codes of lex, degrevlex, wdegrevlex
    and elim agree with the generator-expression references on random
    exponent tuples: 0-8 variables (the empty tuple too), exponents 0-40
    (half of them 0, so that dividing pairs occur), weights 1-5."""
    rng = random.Random(11)
    binary = ["mono_mul", "mono_divides"]

    def exps(n):
        return tuple(rng.choice((0, rng.randint(0, 40))) for _ in range(n))

    for trial in range(2700):
        n = trial % 9
        a, c = exps(n), exps(n)
        ab = oracles.mono_mul(a, c)
        for b in (c, ab, a):
            for name in binary:
                assert getattr(poly, name)(a, b) == \
                    getattr(oracles, name)(a, b), (name, a, b)
        w = tuple(rng.randint(1, 5) for _ in range(n))
        ring = PolyRing([f"x{i}" for i in range(n)], QQ, weights=w)
        ref_wdeg = oracles.make_wdegrevlex_key(w)
        assert ring.wdeg(a) == ref_wdeg(a)[0], (w, a)
        f = Polynomial(ring, {a: Fraction(1), ab: Fraction(1)})
        assert f.is_homogeneous() == (ref_wdeg(a)[0] == ref_wdeg(ab)[0])
        k = rng.randint(0, n)
        assert Vec(ring, 1, {(0, a): Fraction(1)}).has_vars_below(k) == \
            any(e > 0 for e in a[:k])
        orders = [LEX, DEGREVLEX]
        orders += [wdegrevlex(w), elimination(rng.randint(1, n))] if n else []
        for order in orders:
            enc, ref = order.code(n).encode, oracles.ref_ring_key(order)
            for b in (c, ab):
                assert (enc(a) < enc(b)) == (ref(a) < ref(b)), (order, a, b)
                assert (enc(a) == enc(b)) == (a == b), (order, a, b)


ORDERS = [LEX, DEGREVLEX, wdegrevlex((2, 1, 3)), elimination(1),
          elimination(2)]


@pytest.mark.parametrize("order", ORDERS,
                         ids=lambda o: o.describe() + str(o.nelim or ""))
def test_terms_are_ordered_like_the_reference_keys(order):
    """sorted_terms (and so printing), leading_term and monomials_of_wdeg
    order monomials by the order code; they order them as the reference
    keys do, on random exponents up to EXP_BOUND."""
    rng = random.Random(f"sorted-{order}")
    ring = PolyRing(("x", "y", "z"), QQ, order)
    ref = oracles.ref_ring_key(order)
    for _ in range(150):
        monos = {tuple(rng.choice((0, 1, 2, rng.randint(0, EXP_BOUND),
                                   EXP_BOUND)) for _ in range(3))
                 for _ in range(rng.randint(1, 8))}
        f = Polynomial(ring, {m: Fraction(rng.randint(1, 9)) for m in monos})
        expected = sorted(monos, key=ref, reverse=True)
        assert [m for m, _c in f.sorted_terms()] == expected
        assert f.leading_term() == (expected[0], f.terms[expected[0]])
        assert str(f) == " + ".join(str(ring.monomial(m, f.terms[m]))
                                    for m in expected)
    for d in range(9):
        monos = monomials_of_wdeg(ring, d)
        assert list(monos) == sorted(monos, key=ref, reverse=True)


@pytest.mark.parametrize("order", ORDERS,
                         ids=lambda o: o.describe() + str(o.nelim or ""))
def test_ordering_an_exponent_past_the_bound_is_unsupported_input(order):
    ring = PolyRing(("x", "y", "z"), QQ, order)
    f = ring.monomial((0, EXP_BOUND + 1, 0)) + ring.var("x")
    for ordering in (str, Polynomial.leading_term, Polynomial.sorted_terms):
        with pytest.raises(UnsupportedInputError,
                           match="out of range") as err:
            ordering(f)
        assert not isinstance(err.value, OverflowError)


@pytest.mark.parametrize("order", ORDERS,
                         ids=lambda o: o.describe() + str(o.nelim or ""))
def test_ordering_exponents_of_another_length_names_the_whole_tuple(order):
    """An exponent tuple of the wrong length is named whole, with its
    length and the number of variables, not as out of range (an elim
    order once showed only the tail past its first block)."""
    ring = PolyRing(("x", "y", "z"), QQ, order)
    for exps in ((1, 0), (0, 1, 0, 2)):
        with pytest.raises(UnsupportedInputError) as err:
            str(Polynomial(ring, {exps: QQ.one}))
        assert str(err.value) == (f"exponents {exps} of length {len(exps)} "
                                  "in an order on 3 variables")
