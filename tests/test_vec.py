"""Vec in kernel form against the tuple/Fraction vector it replaced
(oracles.RefVec), and the refusals of its constructor."""

import random
from fractions import Fraction

import pytest

from closurelab.field import QQ, prime_field
from closurelab.gb import Vec
from closurelab.modules import (free_module, ideal_as_module,
                                ideal_submodule, residue_field,
                                ring_as_module)
from closurelab.orders import (DEGREVLEX, EXP_BOUND, UnsupportedInputError,
                               wdegrevlex)
from closurelab.poly import ContextError, DomainError, PolyRing, Polynomial
from closurelab.ring import make_quotient_ring

from oracles import RefVec


def _coeff(fld, rng):
    if fld.char:
        return rng.randint(1, fld.char - 1)
    return Fraction(rng.choice([n for n in range(-9, 10) if n]),
                    rng.randint(1, 6))


def _random_terms(P, rng, ncomps, like=None):
    """A nonzero term map of P^ncomps; with like, a term map that shares
    some of like's terms, some with the opposite coefficient, so that sums
    and differences cancel terms."""
    fld, terms = P.field, {}
    if like:
        for key, c in like.items():
            pick = rng.random()
            if pick < 0.3:
                terms[key] = fld.neg(c)
            elif pick < 0.5:
                terms[key] = _coeff(fld, rng)
    for _ in range(rng.randint(1, 4)):
        m = tuple(rng.randint(0, 3) for _ in range(P.nvars))
        terms[(rng.randrange(ncomps), m)] = _coeff(fld, rng)
    return terms


def _same(v, ref):
    """v and the reference hold the same terms, in the same order, with
    coefficients of the same types, and print alike."""
    assert v.ncomps == ref.ncomps
    assert repr(list(v.terms.items())) == repr(list(ref.terms.items()))
    assert str(v) == str(ref)


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_vec_matches_the_tuple_reference(field):
    """On random vectors over Q and F5, with and without grading shifts:
    +, -, negation, scale (by a polynomial and by a term, as the
    reference's term_mul), pad and take_components give the
    reference's terms in its order, degree and is_homogeneous its answers,
    and == answers as the reference's does, equal vectors hashing equal
    (a vector and the same vector built from its reduced fractions, or
    through a + b - b)."""
    fld = QQ if field == "Q" else prime_field(5)
    P = PolyRing(("x", "y", "z"), fld, wdegrevlex((1, 2, 1)))
    rng = random.Random(f"vec-{field}")
    seen = {"cancel": 0, "equal": 0, "homogeneous": 0}
    for trial in range(200):
        n = rng.randint(1, 3)
        ta = _random_terms(P, rng, n)
        tb = _random_terms(P, rng, n, like=ta)
        a, b = Vec(P, n, ta), Vec(P, n, tb)
        ra, rb = RefVec(P, n, ta), RefVec(P, n, tb)
        _same(a, ra)
        for got, want in ((a + b, ra + rb), (a - b, ra - rb), (-a, -ra)):
            _same(got, want)
            seen["cancel"] += len(want.terms) < len(ra.terms) + len(rb.terms)
        f = Polynomial(P, {m: c for (_j, m), c in
                           _random_terms(P, rng, 1).items()})
        _same(a.scale(f), ra.scale(f))
        coeff, exps = _coeff(fld, rng), (rng.randint(0, 2), 0, 1)
        _same(a.scale(P.monomial(exps, coeff)), ra.term_mul(coeff, exps))
        _same(a.pad(n + 2, 1), ra.pad(n + 2, 1))
        lo = rng.randint(0, n - 1)
        hi = rng.randint(lo, n)
        _same(a.take_components(lo, hi), ra.take_components(lo, hi))
        shifts = [rng.randint(0, 2) for _ in range(n)]
        for s in (None, shifts):
            assert a.degree(s) == ra.degree(s), trial
            assert a.is_homogeneous(s) == ra.is_homogeneous(s), trial
            seen["homogeneous"] += a.is_homogeneous(s)
        for v, w, rv, rw in ((a, b, ra, rb), (a, a + b - b, ra, ra),
                             (a, Vec(P, n, dict(ra.terms)), ra, ra)):
            assert (v == w) == (rv.terms == rw.terms), trial
            if v == w:
                assert hash(v) == hash(w), trial
                seen["equal"] += 1
    assert seen["cancel"] > 50 and seen["equal"] >= 400, seen
    assert seen["homogeneous"] > 20, seen


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_vec_constructor_normalizes_coefficients(field):
    """The constructor puts each coefficient into the field and drops the
    zero ones: an int over Q is a Fraction, over F5 an int in 1..4; 0, and
    over F5 a multiple of 5, is no term.  Vectors that stand for one value
    compare and hash equal, however their coefficients were written."""
    fld = QQ if field == "Q" else prime_field(5)
    P = PolyRing(("x", "y"), fld, DEGREVLEX)
    x, y = (1, 0), (0, 1)
    v = Vec(P, 2, {(0, x): 2, (1, y): 0, (1, x): -3})
    assert v.terms == {(0, x): fld.from_int(2), (1, x): fld.from_int(-3)}
    assert all(type(c) is type(fld.one) for c in v.terms.values())
    assert Vec(P, 1, {(0, x): 0}).is_zero()
    w = Vec(P, 2, {(0, x): fld.from_int(2), (1, x): fld.from_int(-3)})
    assert v == w and hash(v) == hash(w)
    if field == "F5":
        assert Vec(P, 1, {(0, x): 5}).is_zero()
        assert Vec(P, 1, {(0, x): 7}) == Vec(P, 1, {(0, x): 2})
    else:
        half = Vec(P, 1, {(0, x): Fraction(1, 2), (0, y): Fraction(3, 4)})
        assert half == Vec(P, 1, {(0, x): Fraction(2, 4),
                                  (0, y): Fraction(6, 8)})
        assert str(half) == "(1/2*x + 3/4*y)"


def test_vec_constructor_refuses_malformed_terms():
    """Exponents of another length than the ring's number of variables and
    coefficients that are not rational numbers are refused; before, such a
    vector was built and failed, or printed wrongly, later."""
    P = PolyRing(("x", "y"), QQ, DEGREVLEX)
    with pytest.raises(ContextError, match="of length 3 in a ring of 2"):
        Vec(P, 1, {(0, (1, 0, 0)): 1})
    with pytest.raises(ContextError, match="of length 1 in a ring of 2"):
        Vec(P, 1, {(0, (1,)): 1})
    with pytest.raises(ContextError, match="not a rational number"):
        Vec(P, 1, {(0, (1, 0)): 1.5})


def test_a_product_past_the_exponent_bound_is_refused():
    """A product of vectors whose exponent passes orders.EXP_BOUND raises
    UnsupportedInputError; its order code would carry into the next
    exponent's field.  The bound itself is a valid exponent."""
    P = PolyRing(("x", "y"), QQ, DEGREVLEX)
    v = Vec(P, 1, {(0, (EXP_BOUND - 1, 0)): 1})
    assert v.scale(P.var("x")).terms == {(0, (EXP_BOUND, 0)): 1}
    with pytest.raises(UnsupportedInputError, match="past"):
        v.scale(P.monomial((2, 0)))
    with pytest.raises(UnsupportedInputError, match="past"):
        v.scale(P.parse("x^2 + y"))


@pytest.mark.parametrize("index", [1.5, True, False, "1", -1])
def test_syzygy_and_resolution_indices_must_be_integers(index):
    """syzygy and resolution refuse an index that is not an int >= 0 with
    DomainError; before, 1.5 failed in a slice with TypeError and True
    returned the first syzygy module."""
    P = PolyRing(("x", "y"), QQ, DEGREVLEX)
    k = residue_field(make_quotient_ring(P, []))
    for call in (k.syzygy, k.resolution):
        with pytest.raises(DomainError):
            call(index)
    assert len(k.resolution(1)) == 2 and k.syzygy(0) == k


@pytest.mark.parametrize("entry", [1.5, None, [1]])
def test_uncoercible_entries_are_a_context_error(entry):
    """A ring entry that the ring cannot take is refused with ContextError,
    as every other refused vector is; before, it was a bare TypeError.
    Comparing a ring element with it still answers False."""
    P = PolyRing(("x", "y"), QQ, DEGREVLEX)
    R = make_quotient_ring(P, [])
    with pytest.raises(ContextError, match="cannot coerce"):
        ring_as_module(R).vec([entry])
    assert R.elem("x").__eq__(entry) is NotImplemented
    assert R.elem("x") != entry


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_terms_view_is_the_tuple_dict(field):
    """Vec.terms, which perfbench reads, is {(comp, exps): coeff} with
    Fraction coefficients over Q and ints in [0, p) over F5, as the vector
    held before: for a FPModule.vec value, a generator of a module
    closure, and a normal form of a Groebner basis."""
    from closurelab.closure import ModuleClosure
    fld = QQ if field == "Q" else prime_field(5)
    P = PolyRing(("a", "b", "c"), fld, wdegrevlex((2, 2, 2)))
    R = make_quotient_ring(P, [P.parse("a*c - b^2")])
    one = fld.one

    def check(v, want):
        assert v.terms == want
        assert all(type(c) is type(one) and (not fld.char or 0 <= c < 5)
                   for c in v.terms.values())
        assert all(type(e) is tuple and all(type(x) is int for x in e)
                   for _j, e in v.terms)

    u = ring_as_module(R).vec(["1/2*a^2 - 3*b*c" if not fld.char
                               else "3*a^2 - 3*b*c"])
    c0 = Fraction(1, 2) if not fld.char else 3
    check(u, {(0, (2, 0, 0)): c0, (0, (0, 1, 1)): fld.from_int(-3)})
    closed = ModuleClosure(ideal_as_module(R, ["a", "b"])).closure(
        ideal_submodule(R, ["a^2", "a*b", "b*c", "c^2"]))
    check(closed.gens[0], {(0, (1, 1, 0)): one})
    F = free_module(R, (0, 0))
    span = F.submodule([["a", "b"]]).span
    nf = span.normal_form(F.vec(["2*a + b", "b + c"]))
    check(nf, {(0, (0, 1, 0)): one, (1, (0, 0, 1)): one,
               (1, (0, 1, 0)): fld.from_int(-1)})
