import itertools
import random

import pytest

from closurelab.orders import (DEGREVLEX, EXP_BOUND, LEX, ModuleOrder,
                               UnsupportedInputError, elimination,
                               wdegrevlex)
from closurelab.poly import mono_divides

from oracles import (as_keyfn, block_key, elim_key, mono_gcd_is_one,
                     mono_lcm, mono_mul, ref_degrevlex_greater, ref_ring_key,
                     top_key)


def all_monos(nvars, max_exp=3):
    return list(itertools.product(range(max_exp + 1), repeat=nvars))


def test_weights_given_as_a_list_make_the_same_order():
    """MonomialOrder keeps its weights as a tuple: an order built from a
    list equals and hashes like wdegrevlex, and a ring over it works."""
    from closurelab.field import QQ
    from closurelab.orders import MonomialOrder
    from closurelab.poly import PolyRing
    order = MonomialOrder("wdegrevlex", [2, 3])
    assert order.weights == (2, 3)
    assert order == wdegrevlex((2, 3))
    assert hash(order) == hash(wdegrevlex((2, 3)))
    ring = PolyRing(("x", "y"), QQ, order)
    assert str(ring.parse("x^3 + y^2")) == "x^3 + y^2"


def test_degrevlex_matches_reference_definition():
    key = DEGREVLEX.code(3).encode
    for a in all_monos(3, 2):
        for b in all_monos(3, 2):
            assert (key(a) > key(b)) == ref_degrevlex_greater(a, b)


def test_degrevlex_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import grevlex
    key = DEGREVLEX.code(3).encode
    for a in all_monos(3, 2):
        for b in all_monos(3, 2):
            assert (key(a) > key(b)) == (grevlex(a) > grevlex(b))


def test_lex_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import lex
    key = LEX.code(2).encode
    for a in all_monos(2, 3):
        for b in all_monos(2, 3):
            assert (key(a) > key(b)) == (lex(a) > lex(b))


def test_wdegrevlex_reference():
    key = wdegrevlex((2, 3)).code(2).encode
    for a in all_monos(2, 3):
        for b in all_monos(2, 3):
            assert (key(a) > key(b)) == ref_degrevlex_greater(a, b, (2, 3))


@pytest.mark.parametrize("order", [LEX, DEGREVLEX, wdegrevlex((1, 2, 3))])
def test_order_is_multiplicative_well_order(order):
    key = order.code(3).encode
    rng = random.Random(7)
    monos = all_monos(3, 2)
    one = (0, 0, 0)
    for _ in range(200):
        a, b, c = rng.choice(monos), rng.choice(monos), rng.choice(monos)
        if key(a) > key(b):
            am = tuple(x + y for x, y in zip(a, c))
            bm = tuple(x + y for x, y in zip(b, c))
            assert key(am) > key(bm)
        if a != one:
            assert key(a) > key(one)


def test_module_order_keys():
    top = as_keyfn(ModuleOrder(DEGREVLEX))
    # same monomial: lower component index wins
    assert top(0, (1, 0)) > top(1, (1, 0))
    # TOP compares the monomial first
    assert top(1, (2, 0)) > top(0, (1, 0))


def test_block_key_separates_blocks():
    bk = as_keyfn(ModuleOrder(DEGREVLEX, 2))
    # any term in the first two components beats any later one
    assert bk(1, (0, 0)) > bk(2, (5, 5))
    assert bk(0, (1, 0)) > bk(3, (4, 4))


def test_elim_key_dominates_eliminated_block():
    ek = elimination(2).code(4).encode
    # x-part nonzero beats x-free regardless of the tail
    assert ek((1, 0, 0, 0)) > ek((0, 0, 9, 9))
    assert ek((0, 1, 2, 0)) > ek((0, 0, 2, 0))


def _box_terms():
    """Every (component, exponents) term with 3 components, 3 variables
    and exponents at most 2."""
    return [(c, m) for c in range(3) for m in all_monos(3, 2)]


@pytest.mark.parametrize("ring_order", [LEX, DEGREVLEX, wdegrevlex((1, 2, 3))],
                         ids=lambda o: o.describe())
def test_module_order_values_sort_like_the_reference_closures(ring_order):
    """Sorting a box of terms gives the same sequence under each order value
    as under the closure it replaced: TOP, the block order for every nreal,
    and TOP over the elimination order for every n."""
    terms = _box_terms()
    rk = ref_ring_key(ring_order)
    cases = [(ModuleOrder(ring_order), top_key(rk))]
    cases += [(ModuleOrder(ring_order, nreal), block_key(rk, nreal))
              for nreal in range(4)]
    cases += [(ModuleOrder(elimination(n)), top_key(elim_key(n)))
              for n in range(1, 4)]
    for order, ref in cases:
        key = as_keyfn(order)
        assert sorted(terms, key=lambda t: key(*t)) == \
            sorted(terms, key=lambda t: ref(*t)), order


def test_order_values_hash_and_compare_by_value():
    assert ModuleOrder(DEGREVLEX) == ModuleOrder(DEGREVLEX)
    assert hash(ModuleOrder(DEGREVLEX, 2)) == hash(ModuleOrder(DEGREVLEX, 2))
    assert ModuleOrder(wdegrevlex((2, 3))) == ModuleOrder(wdegrevlex([2, 3]))
    assert hash(ModuleOrder(wdegrevlex((2, 3)))) == \
        hash(ModuleOrder(wdegrevlex([2, 3])))
    assert elimination(2) == elimination(2)
    assert hash(ModuleOrder(elimination(2))) == \
        hash(ModuleOrder(elimination(2)))
    assert len({ModuleOrder(DEGREVLEX), ModuleOrder(DEGREVLEX)}) == 1
    different = [ModuleOrder(DEGREVLEX), ModuleOrder(DEGREVLEX, 1),
                 ModuleOrder(DEGREVLEX, 2), ModuleOrder(LEX),
                 ModuleOrder(LEX, 1), ModuleOrder(wdegrevlex((2, 3))),
                 ModuleOrder(wdegrevlex((3, 2))),
                 ModuleOrder(elimination(1)), ModuleOrder(elimination(2))]
    for a, b in itertools.combinations(different, 2):
        assert a != b, (a, b)
    assert len(set(different)) == len(different)


# --- order codes: the monomials of the Groebner kernel ------------------------


CODE_ORDERS = [LEX, DEGREVLEX, wdegrevlex((1, 2, 3))]


def _code_cases():
    """(order, nvars) for lex, degrevlex, wdegrevlex[1,2,3] and elim(1) ..
    elim(n - 1) over 1 to 5 variables."""
    return [(order, n) for n in range(1, 6)
            for order in CODE_ORDERS + [elimination(k) for k in range(1, n)]]


def _random_exps(rng, nvars, bound):
    """Exponents up to bound, with small ones and zeros among them."""
    return tuple(rng.choice((0, 1, 2, rng.randint(0, bound), bound))
                 for _ in range(nvars))


def _divides(code, a, b):
    """The kernel's divisibility test on the codes a and b."""
    return not ((((b - a) ^ code.xor) + code.add) & code.guard)


@pytest.mark.parametrize("order,nvars", _code_cases(),
                         ids=lambda x: str(x) if isinstance(x, int)
                         else x.describe() + str(x.nelim or ""))
def test_order_codes_match_the_tuple_orders(order, nvars):
    """The order code against the exponent tuples, on random exponents up
    to EXP_BOUND: decode inverts encode; codes in TOP and block term keys
    sort like the reference tuple keys on (comp, exps); a product is a sum
    of codes; divisibility, lcm and coprimality agree with the tuple
    primitives."""
    rng = random.Random(f"codes-{order}-{nvars}")
    code = order.code(nvars)
    assert code is order.code(nvars)
    monos = [_random_exps(rng, nvars, bound) for bound in
             (3, EXP_BOUND // 2, EXP_BOUND) for _ in range(60)]
    for e in monos:
        assert code.decode(code.encode(e)) == e
        assert _divides(code, 0, code.encode(e))     # within the bound
    terms = [(rng.randrange(3), e) for e in monos]
    rk = ref_ring_key(order)
    for nreal in (None, 0, 1, 2):
        mo = ModuleOrder(order, nreal)
        ref = top_key(rk) if nreal is None else block_key(rk, nreal)
        assert sorted(terms, key=lambda t: mo.term_key(
            (t[0], code.encode(t[1])))) == sorted(terms, key=lambda t: ref(*t))
    for _ in range(400):
        a = _random_exps(rng, nvars, EXP_BOUND // 2)
        b = _random_exps(rng, nvars, EXP_BOUND // 2)
        ca, cb = code.encode(a), code.encode(b)
        ab = mono_mul(a, b)
        assert ca + cb == code.encode(ab)
        for x, y in ((a, b), (b, a), (a, ab), (b, ab), (ab, a), (a, a)):
            assert _divides(code, code.encode(x), code.encode(y)) == \
                mono_divides(x, y), (x, y)
        lcm = code.lcm(ca, cb)
        assert lcm == code.encode(mono_lcm(a, b))
        assert (lcm == ca + cb) == mono_gcd_is_one(a, b)


@pytest.mark.parametrize("order", CODE_ORDERS + [elimination(2)],
                         ids=lambda o: o.describe())
def test_order_codes_refuse_exponents_past_the_bound(order):
    """encode takes exponents up to EXP_BOUND and raises
    UnsupportedInputError past it; a product past the bound fails the
    bound test on its code."""
    code = order.code(3)
    top = (EXP_BOUND, 0, EXP_BOUND)
    assert code.decode(code.encode(top)) == top
    for e in ((EXP_BOUND + 1, 0, 0), (0, 0, EXP_BOUND + 1), (0, 2 ** 40, 0),
              (0, -1, 0)):
        with pytest.raises(UnsupportedInputError):
            code.encode(e)
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        past = code.encode(top) + code.encode(e)
        assert _divides(code, 0, past) == (e == (0, 1, 0))
