import random
from fractions import Fraction

import pytest

from closurelab import gb, modules
from closurelab import ring as ring_module
from closurelab.field import QQ, prime_field
from closurelab.gb import Vec
from closurelab.linalg import span_rows
from closurelab.orders import DEGREVLEX
from closurelab.poly import ContextError, DomainError, PolyRing, Polynomial
from closurelab.ring import (ParameterSequence, make_quotient_ring,
                             presented_subring)

from oracles import (brute_relation_dim, rank, ref_module_relation_columns,
                     substitute_images)


def test_dimensions(kxy, xyuv, segre):
    assert kxy.dim == 2
    assert xyuv.dim == 3
    assert segre.dim == 2


def test_inhomogeneous_relations_rejected():
    amb = PolyRing(("x", "y"), QQ, DEGREVLEX)
    with pytest.raises(DomainError):
        make_quotient_ring(amb, [amb.parse("x^2 + y")])


def test_normal_form_canonical_equality(segre):
    assert segre.elem("b^2") == segre.elem("a*c")
    assert segre.elem("b^2 - a*c").is_zero()
    assert segre.elem("a + b") != segre.elem("a")


def test_ring_elem_from_any_polynomial_is_its_normal_form(segre):
    """RingElem(R, poly) stores poly's normal form: on the cone b^2 is
    a*c, with the same hash, and their difference is zero."""
    from closurelab.ring import RingElem
    b2 = RingElem(segre, segre.ambient.parse("b^2"))
    ac = segre.elem("a*c")
    assert b2.poly == ac.poly
    assert b2 == ac and hash(b2) == hash(ac)
    assert (b2 - ac).is_zero()


def test_ring_elem_puts_a_polynomial_into_the_field(segre, kxy, kxy_f5):
    """RingElem drops zero terms and puts coefficients into the field
    before the normal form, and refuses an exponent tuple of another
    length, and a polynomial of another ring before its coefficients are
    converted; a polynomial already clean is reduced as it is.  So does
    QuotientRing.nf, for polynomials and vectors."""
    P, P5 = segre.ambient, kxy_f5.ambient
    a, c = (1, 0, 0), (0, 0, 1)
    assert not segre.elem(Polynomial(P, {c: Fraction(0)}))
    padded = segre.elem(Polynomial(P, {a: 1, c: 0}))
    assert padded == segre.elem("a") and hash(padded) == hash(segre.elem("a"))
    assert [c.__class__ for c in padded.poly.terms.values()] == [Fraction]
    x = (1, 0)
    assert kxy_f5.elem(Polynomial(P5, {x: 7})) == kxy_f5.elem("2*x")
    assert kxy_f5.elem(Polynomial(P5, {x: -5})).is_zero()
    with pytest.raises(ContextError, match="different ambient ring"):
        kxy_f5.elem(Polynomial(kxy.ambient, {x: Fraction(1, 5)}))
    with pytest.raises(ContextError, match=r"exponents \(1, 0\) of length 2 "
                       "in a ring of 3 variables"):
        segre.elem(Polynomial(P, {(1, 0): QQ.one}))
    clean = P.parse("a*c - 2*a^2")
    assert segre.elem(clean).poly is clean
    # nf itself, which encodes every value, puts it into the field first
    b2 = (0, 2, 0)
    for value in (Polynomial(P, {b2: 1, c: 0}),
                  Vec(P, 2, {(1, b2): 1, (0, a): 2})):
        got = segre.nf(value)
        assert [c.__class__ for c in got.terms.values()] == \
            [Fraction] * len(got.terms)
    assert segre.nf(Polynomial(P, {b2: 1, c: 0})) == P.parse("a*c")
    assert str(segre.nf(Vec(P, 2, {(1, b2): 1, (0, a): 2}))) == "(2*a, a*c)"
    assert kxy_f5.nf(Polynomial(P5, {x: 7})) == P5.parse("2*x")


def test_hand_built_int_coefficients_over_q_are_read_as_rationals(
        segre, veronese4):
    """A relation, a module generator or a vector built by hand over Q may
    hold int coefficients, as the public Polynomial, monomial and Vec
    constructors allow.  A ring built from such relations, a subring's
    module relations and a basis's membership test and normal form read
    them as the rationals they are."""
    P = segre.ambient
    ac, b2 = (1, 0, 1), (0, 2, 0)
    R = make_quotient_ring(P, [P.monomial(ac, 2) - P.parse("b^2")])
    assert R.ideal_basis == make_quotient_ring(P, ["2*a*c - b^2"]).ideal_basis
    R = make_quotient_ring(P, [Polynomial(P, {ac: 1, b2: -1})])
    assert R.ideal_basis == segre.ideal_basis
    basis = R.free_relation_basis(1)
    assert basis.contains(Vec(P, 1, {(0, ac): 3, (0, b2): -3}))
    assert not basis.contains(Vec(P, 1, {(0, ac): 3}))
    assert basis.normal_form(Vec(P, 1, {(0, b2): 2})) == \
        Vec.from_polys([P.parse("2*a*c")])
    sp = veronese4.presentation
    T = sp.target
    gens = [Polynomial(T, {(0, 0): 1}), Polynomial(T, {(2, 2): 2})]
    cols = sp.module_relation_columns(gens)
    assert cols and cols == sp.module_relation_columns(
        [T.one(), T.parse("2*x^2*y^2")])


def test_normal_form_returns_a_reduced_input_as_it_is(segre, monkeypatch):
    """nf hands back a polynomial none of whose terms an ideal lead (here
    b^2) divides, and runs no reduction for it; one it divides is
    reduced once, against the ring's basis of I P^1 (reduce_terms)."""
    reduced = segre.ambient.parse("a*c + a*b - 3*c^2")
    calls = []
    real = ring_module._reduce_terms

    def counted(terms, rows_of, *args):
        calls.append(rows_of)
        return real(terms, rows_of, *args)

    monkeypatch.setattr(ring_module, "_reduce_terms", counted)
    assert segre.nf(reduced) is reduced and not calls
    assert str(segre.nf(segre.ambient.parse("b^2 + a*b"))) == "a*b + a*c"
    assert len(calls) == 1
    assert calls[0] is segre.free_relation_basis(1)._rows_of


def test_unit_ideal_ring_is_zero():
    """Over the unit ideal every element is 0, integers and one()
    included: each goes through the normal form."""
    amb = PolyRing(("x", "y"), QQ, DEGREVLEX)
    R = make_quotient_ring(amb, ["1"])
    assert R.one().is_zero() and R.elem(5).is_zero()
    assert R.elem("5").is_zero() and R.one() == R.zero() == R.elem(5)
    x, _y = R.gens()
    assert (x + 1).is_zero() and (R.one() + R.one()).is_zero()


def test_elem_arithmetic_random(segre):
    rng = random.Random(5)
    vars_ = segre.gens()
    for _ in range(30):
        x, y, z = (rng.choice(vars_) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z


def test_elem_context_error(kxy, segre):
    with pytest.raises(ContextError):
        kxy.elem("x") + segre.elem("a")


def test_partial_sop_checks(kxy, segre, veronese4):
    assert kxy.is_partial_sop([kxy.elem("x"), kxy.elem("y")])
    assert veronese4.is_partial_sop([veronese4.elem("a"), veronese4.elem("d")])
    # R/(a,b) = k[c] has dimension 1, not 0
    assert not segre.is_partial_sop([segre.elem("a"), segre.elem("b")])
    assert segre.is_partial_sop([segre.elem("a"), segre.elem("c")])


def test_partial_sop_rejects_degenerate_inputs(kxy):
    assert not kxy.is_partial_sop([kxy.zero()])
    assert not kxy.is_partial_sop([kxy.one()])
    assert not kxy.is_partial_sop([kxy.elem("x + x^2")])


def test_parameter_sequence_verification(veronese4):
    seq = ParameterSequence.verified(veronese4, ["a", "d"])
    assert seq.verified_partial_sop
    assert [str(x) for x in seq] == ["a", "d"]
    with pytest.raises(DomainError):
        ParameterSequence.verified(veronese4, ["a", "b", "c"])


def test_nzd_drops_dimension_by_one(segre, xyuv):
    for ring, elem in ((segre, "a"), (segre, "b + c"), (xyuv, "x + y")):
        assert ring.dim_modulo([ring.elem(elem)]) == ring.dim - 1


def test_presented_subring_veronese2():
    T = PolyRing(("x", "y"), QQ, DEGREVLEX)
    R = presented_subring([T.parse("x^2"), T.parse("x*y"), T.parse("y^2")])
    assert R.ambient.weights == (2, 2, 2)
    assert [str(g) for g in R.ideal_basis] == ["b^2 - a*c"]
    assert R.dim == 2
    assert R.domain_status == "subring-of-domain"


def test_presented_subring_single_variable():
    T = PolyRing(("x",), QQ, DEGREVLEX)
    R = presented_subring([T.parse("x")])
    assert R.ideal_basis == []
    assert R.ambient.weights == (1,)
    assert R.dim == 1


def test_presented_subring_veronese4(veronese4):
    assert veronese4.ambient.weights == (4, 4, 4, 4)
    assert veronese4.dim == 2
    sp = veronese4.presentation
    T = sp.target
    # substitution oracle: all relations vanish under the monomial map
    images = [T.parse(t) for t in ("x^4", "x^3*y", "x*y^3", "y^4")]
    assert len(veronese4.ideal_basis) == 4
    for g in veronese4.ideal_basis:
        assert substitute_images(images, g).is_zero(), g


def test_presented_subring_veronese4_runs_two_groebner_bases(monkeypatch):
    calls = []
    real = gb.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gb, "buchberger", counting)
    monkeypatch.setattr(ring_module, "buchberger", counting)
    T = PolyRing(("x", "y"), QQ, DEGREVLEX)
    R = presented_subring([T.parse("x^4"), T.parse("x^3*y"),
                           T.parse("x*y^3"), T.parse("y^4")],
                          names=("a", "b", "c", "d"), target_ring=T)
    assert len(calls) <= 2
    assert [str(g) for g in R.ideal_basis] == [
        "b^3 - a^2*c", "a*c^2 - b^2*d", "c^3 - b*d^2", "b*c - a*d"]


# --- relations of subring modules ---------------------------------------------------


SUBRINGS = {
    "veronese2": (("x", "y"), ["x^2", "x*y", "y^2"]),
    "veronese4": (("x", "y"), ["x^4", "x^3*y", "x*y^3", "y^4"]),
    "cubic": (("x", "y"), ["x^3", "x^2*y", "x*y^2", "y^3"]),
    "segre": (("x", "y", "u", "v"), ["x*u", "x*v", "y*u", "y*v"]),
    "squares": (("x", "y"), ["x^2", "y^2"]),
    "xyz": (("x", "y", "z"), ["x^2", "y^2", "z^2", "x*y*z"]),
}


def _subring(name, field):
    names, images = SUBRINGS[name]
    T = PolyRing(names, field, DEGREVLEX)
    images = [T.parse(f) for f in images]
    return presented_subring(images, field=field, target_ring=T), images


# generator sets on which the two-run reference finishes in well under a
# second
REFERENCE_CASES = [
    ("veronese2", ["x^2 - y^2", "x*y"]), ("veronese2", ["x^3 + y^3"]),
    ("veronese2", ["1", "x*y", "x^2"]), ("veronese4", ["1", "x^2*y^2"]),
    ("veronese4", ["1", "x*y"]), ("veronese4", ["1", "x"]),
    ("cubic", ["x", "y"]), ("cubic", ["x^3 + y^3"]),
    ("segre", ["x + y"]), ("segre", ["1", "x*y", "x^2"]),
    ("squares", ["1", "x*y", "x^2"]), ("squares", ["x^2 - y^2", "x*y"]),
    ("xyz", ["x^2 - y^2", "x*y"]), ("xyz", ["1", "x"]),
]


@pytest.mark.parametrize("field", [QQ, prime_field(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("name, gens", REFERENCE_CASES,
                         ids=[f"{n}-{','.join(g)}" for n, g in REFERENCE_CASES])
def test_module_relation_columns_match_the_reference(name, gens, field):
    R, images = _subring(name, field)
    sp = R.presentation
    gens = [sp.target.parse(g) for g in gens]
    assert sp.module_relation_columns(gens) == \
        ref_module_relation_columns(images, R.ambient, gens)


@pytest.mark.parametrize("gens", [["y^2"], ["x*y^2"], ["x + y"],
                                  ["x^2 - y^2", "x*y"]])
def test_module_relations_agree_with_linear_algebra(gens):
    """Over Veronese-4, every relation vanishes in k[x, y], and the
    relations span the whole relation module in each degree up to 20,
    past the highest relation degree (15) by one step of the grading."""
    R, images = _subring("veronese4", QQ)
    sp, P = R.presentation, R.ambient
    gens = [sp.target.parse(g) for g in gens]
    rels = sp.module_relation_columns(gens)
    assert rels
    for col in rels:
        total = sp.target.zero()
        for l, g in enumerate(gens):
            total = total + substitute_images(images, col.component(l)) * g
        assert total.is_zero(), col
    shifts = tuple(g.wdeg() for g in gens)
    for d in range(21):
        rows, _terms = span_rows(rels, shifts, d, P)
        assert rank(rows, P.field) == \
            brute_relation_dim(images, P, gens, d), d


def test_module_relation_columns_make_one_seeded_run(veronese4, monkeypatch):
    """One Buchberger run over the target component and one component per
    generator, seeded with the graph ring's basis."""
    runs = []
    real_run = gb.buchberger

    def buchberger(cols, ncomps, keyfn, ring=None, seed=None, **kwargs):
        runs.append((ncomps, keyfn.nreal, seed is not None))
        return real_run(cols, ncomps, keyfn, ring, seed, **kwargs)

    for owner in (gb, modules, ring_module):
        monkeypatch.setattr(owner, "buchberger", buchberger)
    sp = veronese4.presentation
    rels = sp.module_relation_columns([sp.target.one(),
                                       sp.target.parse("x^2*y^2")])
    assert len(rels) == 11
    assert runs == [(3, 1, True)]


@pytest.mark.parametrize("gen, message", [
    ("0", "module generator 2 is zero"),
    ("x - x", "module generator 2 is zero"),
    ("x^2 + y^4", "inhomogeneous module generator 2: y^4 + x^2"),
])
def test_module_relation_columns_reject_bad_generators(veronese4, gen,
                                                       message, monkeypatch):
    runs = []
    monkeypatch.setattr(modules, "buchberger",
                        lambda *args, **kwargs: runs.append(args))
    sp = veronese4.presentation
    with pytest.raises(DomainError) as err:
        sp.module_relation_columns([sp.target.one(), sp.target.parse(gen)])
    assert str(err.value) == message
    assert runs == []


def test_ring_elem_hash_agrees_with_equality():
    amb = PolyRing(("a", "b"), QQ, DEGREVLEX)
    R1 = make_quotient_ring(amb, ["a^2"])
    R2 = make_quotient_ring(amb, ["a^2"])
    assert R1 is not R2 and R1 == R2
    assert R1.elem("a + b") == R2.elem("b + a")
    assert len({R1.elem("a + b"), R2.elem("b + a")}) == 1


def test_ring_elem_compares_unequal_to_unparsable_string(kxy):
    assert not kxy.elem("x") == "x+"
    assert kxy.elem("x") != "x+"


def test_ring_elem_negative_power_is_a_domain_error(kxy, segre):
    x = kxy.elem("x")
    assert x ** 0 == kxy.one() and x ** 3 == kxy.elem("x^3")
    for f in (x, segre.elem("b")):
        with pytest.raises(DomainError, match="negative power"):
            f ** -1


def test_descriptor_fields(segre):
    d = segre.descriptor()
    assert d["vars"] == ["a", "b", "c"]
    assert d["dim"] == 2
    assert d["relations"] == ["b^2 - a*c"]
    assert d["domain"] == "assumed"


def test_prime_field_quotient():
    amb = PolyRing(("a", "b", "c"), prime_field(5), DEGREVLEX)
    R = make_quotient_ring(amb, [amb.parse("a*c - b^2")])
    assert R.dim == 2
    assert R.elem("b^2") == R.elem("a*c")
    assert R.elem("5*a").is_zero()
