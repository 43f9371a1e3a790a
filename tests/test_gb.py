"""Groebner kernel tests: spec examples, invariants, and oracle agreement."""

import itertools
import random
from fractions import Fraction

import pytest

from closurelab.field import QQ, Rationals, prime_field
from closurelab.orders import (DEGREVLEX, EXP_BOUND, LEX, ModuleOrder,
                               elimination)
from closurelab.poly import PolyRing, mono_divides
from closurelab.gb import Vec, buchberger
from closurelab.modules import Submodule, free_module, ideal_submodule
from closurelab.ring import (UnsupportedInputError, _strip_vars,
                             make_quotient_ring, presented_subring)

from oracles import (brute_member, brute_syzygies_complete,
                     buchberger_criterion_holds, fraction_buchberger,
                     fraction_extended_reduce, fraction_normal_form,
                     ref_reduce, ref_undominated, scan_buchberger_rows,
                     vec_syzygies)

R2 = PolyRing(("x", "y"), QQ, DEGREVLEX)
P2 = make_quotient_ring(R2, [])     # k[x,y] as a quotient ring, no ideal
R3 = PolyRing(("a", "b", "c"), QQ, DEGREVLEX)


def ideal_cols(ring, texts):
    return [Vec.from_polys([ring.parse(t)]) for t in texts]


def toric_kernel(images, names):
    """(reduced basis of the kernel of name_i -> images[i], presentation
    ring), from the presented subring."""
    R = presented_subring(images, names=names)
    return R.ideal_basis, R.ambient


def top_basis(cols, ring):
    """Reduced basis of an ideal, given as one-component columns, under TOP
    over the ring order."""
    return buchberger(cols, 1, ModuleOrder(ring.order), ring)


# --- buchberger ------------------------------------------------------------------


def test_single_element_is_its_own_basis():
    gb = top_basis(ideal_cols(R3, ["a*c - b^2"]), R3)
    assert [str(v.component(0)) for v in gb] == ["b^2 - a*c"]


def test_single_binomial_xyuv():
    R4 = PolyRing(("x", "y", "u", "v"), QQ, DEGREVLEX)
    gb = top_basis(ideal_cols(R4, ["x*y - u*v"]), R4)
    assert [str(v.component(0)) for v in gb] == ["x*y - u*v"]


def test_twisted_cubic_reduced_basis():
    R = PolyRing(("x", "y", "z"), QQ, DEGREVLEX)
    gb = buchberger(ideal_cols(R, ["y - x^2", "z - x^3"]), 1,
                    ModuleOrder(R.order), R)
    assert sorted(str(v.component(0)) for v in gb) == \
        ["x*y - z", "x^2 - y", "y^2 - x*z"]


def test_veronese4_toric_basis_vanishes_under_substitution():
    T = PolyRing(("x", "y"), QQ, DEGREVLEX)
    images = [T.parse(t) for t in ("x^4", "x^3*y", "x*y^3", "y^4")]
    gens, P = toric_kernel(images, ("a", "b", "c", "d"))
    assert sorted(str(g) for g in gens) == \
        sorted(["b*c - a*d", "b^3 - a^2*c", "c^3 - b*d^2", "a*c^2 - b^2*d"])

    def substitute(g):
        out = T.zero()
        for m, c in g.terms.items():
            term = T.one().scalar_mul(c)
            for img, e in zip(images, m):
                term = term * img ** e
            out = out + term
        return out

    for g in gens:
        assert substitute(g).is_zero()


def test_veronese4_basis_satisfies_buchberger_criterion():
    T = PolyRing(("x", "y"), QQ, DEGREVLEX)
    images = [T.parse(t) for t in ("x^4", "x^3*y", "x*y^3", "y^4")]
    gens, P = toric_kernel(images, ("a", "b", "c", "d"))
    vecs = buchberger([Vec.from_polys([g]) for g in gens], 1,
                      ModuleOrder(P.order), P)
    assert buchberger_criterion_holds(vecs, 1, ModuleOrder(P.order), P)


def test_reduced_basis_independent_of_generator_order():
    texts = ["x^2*y - 1/2*y^3", "x*y^2 + x^2", "y^4 - x*y"]
    cols = ideal_cols(R2, texts)
    ref = top_basis(cols, R2)
    for perm in itertools.permutations(range(3)):
        gb = top_basis([cols[i] for i in perm], R2)
        assert list(gb) == list(ref)


def test_groebner_matches_sympy_on_random_ideals():
    sympy = pytest.importorskip("sympy")
    import sympy as sp
    xs = sp.symbols("x y")
    rng = random.Random(11)
    monos = [(i, j) for i in range(4) for j in range(4) if 0 < i + j <= 3]
    for trial in range(12):
        texts = []
        for _ in range(rng.randint(1, 3)):
            terms = []
            for _t in range(rng.randint(1, 3)):
                c = rng.randint(-3, 3)
                if c == 0:
                    continue
                i, j = rng.choice(monos)
                terms.append(f"{c}*x^{i}*y^{j}")
            if terms:
                texts.append(" + ".join(terms))
        if not texts:
            continue
        ours = top_basis(ideal_cols(R2, texts), R2)
        ours_set = sorted(str(v.component(0)) for v in ours)
        sym = sp.groebner([sp.sympify(t.replace("^", "**")) for t in texts],
                          *xs, order="grevlex")
        theirs = sorted(str(R2.parse(str(e).replace("**", "^")).monic())
                        for e in sym.exprs)
        assert ours_set == theirs, f"trial {trial}: {texts}"


def _random_columns(ring, rng, ncomps):
    monos = [(i, j) for i in range(3) for j in range(3) if 0 < i + j <= 3]
    cols = []
    for _ in range(rng.randint(2, 4)):
        terms = {}
        for _t in range(rng.randint(1, 4)):
            c = ring.field.from_int(rng.choice((-2, -1, 1, 2, 3)))
            terms[(rng.randrange(ncomps), rng.choice(monos))] = c
        cols.append(Vec(ring, ncomps, terms))
    return cols


@pytest.mark.parametrize("field", [QQ, prime_field(5)], ids=["Q", "F5"])
def test_buchberger_output_is_reduced(field):
    """Random multi-component inputs, under the plain module order and the
    block order of r_preimage: every element is monic, no tail term is
    divisible by a lead in its component, and every input reduces to zero."""
    ring = PolyRing(("x", "y"), field, DEGREVLEX)
    rng = random.Random(31)
    for trial in range(24):
        ncomps = rng.randint(2, 3)
        keyfn = (ModuleOrder(ring.order) if trial % 2 else
                 ModuleOrder(ring.order, rng.randint(1, ncomps - 1)))
        cols = _random_columns(ring, rng, ncomps)
        gb = buchberger(cols, ncomps, keyfn, ring)
        leads = [v.leading(keyfn) for v in gb]
        assert all(lc == field.one for _c, _e, lc in leads), trial
        for v, (comp, exps, _lc) in zip(gb, leads):
            for (j, m) in v.terms:
                if (j, m) == (comp, exps):
                    continue
                assert not any(c == j and mono_divides(e, m)
                               for c, e, _lc in leads), trial
        data = [(c, e, v.terms) for v, (c, e, _lc) in zip(gb, leads)]
        for col in cols:
            assert not ref_reduce(col.terms, data, keyfn, field), trial
        assert buchberger_criterion_holds(gb, ncomps, keyfn, ring), trial


def _random_coeff(field, rng):
    """A nonzero coefficient; over Q with denominators up to 7."""
    if isinstance(field, Rationals):
        num = rng.choice([n for n in range(-50, 51) if n])
        return Fraction(num, rng.randint(1, 7))
    return field.from_int(rng.randint(1, field.p - 1))


def _random_vec(ring, rng, shifts, deg, nterms):
    """A vector of degree deg, homogeneous for the component shifts."""
    terms = {}
    for _t in range(nterms):
        j = rng.randrange(len(shifts))
        monos = [m for m in itertools.product(range(deg + 1),
                                              repeat=ring.nvars)
                 if sum(m) == deg - shifts[j]]
        if monos:
            terms[(j, rng.choice(monos))] = _random_coeff(ring.field, rng)
    return Vec(ring, len(shifts), terms)


def _kernel_form(vecs):
    """Terms in dict order with their coefficient types, for strict
    comparison."""
    return [repr(list(v.terms.items())) for v in vecs]


@pytest.mark.parametrize("field", [QQ, prime_field(5)], ids=["Q", "F5"])
def test_integer_kernel_matches_fraction_reference(field):
    """The integer kernel against the Fraction kernel it replaced, on 210
    random multi-component inputs under three module orders: equal
    reduced bases, normal-form remainders, and the remainders and
    certificates of Submodule.certificate's block basis.  Inputs are
    homogeneous for random component shifts, as every Buchberger input of
    the engine is."""
    ring = PolyRing(("x", "y", "z"), field, DEGREVLEX)
    no_ideal = make_quotient_ring(ring, [])
    rng = random.Random(47)
    for trial in range(210):
        shifts = [rng.randint(0, 1) for _ in range(rng.randint(2, 3))]
        ncomps = len(shifts)
        keyfn = [ModuleOrder(ring.order),
                 ModuleOrder(ring.order, rng.randint(1, ncomps - 1)),
                 ModuleOrder(elimination(rng.randint(1, 2)))][trial % 3]
        cols = [_random_vec(ring, rng, shifts, rng.randint(1, 3),
                            rng.randint(1, 4))
                for _ in range(rng.randint(2, 4))]
        ours = buchberger(cols, ncomps, keyfn, ring)
        ref = fraction_buchberger(cols, ncomps, keyfn, ring)
        assert _kernel_form(ours) == _kernel_form(ref), trial
        combo = Vec.zero(ring, ncomps)
        for col in cols:
            combo = combo + col.term_mul(_random_coeff(field, rng),
                                         rng.choice(((1, 0, 0), (0, 0, 1))))
        probes = [combo, _random_vec(ring, rng, shifts, 3, 4)]
        sub = Submodule(free_module(no_ideal, shifts), tuple(cols))
        big = ncomps + len(cols)
        for v in probes:
            assert _kernel_form([ours.normal_form(v)]) == \
                _kernel_form([fraction_normal_form(ref, keyfn, v)]), trial
            real = sub.ext.normal_form(v.pad(big)).take_components(
                0, ncomps)
            cert = sub.certificate(v)
            ref_real, ref_cert = fraction_extended_reduce(cols, ncomps, v)
            assert _kernel_form([real]) == _kernel_form([ref_real]), trial
            assert (cert is None) == (ref_cert is None), trial
            if cert is not None:
                assert [repr(sorted(c.poly.terms.items())) for c in cert] == \
                    [repr(sorted(c.terms.items())) for c in ref_cert], trial


@pytest.mark.parametrize("field", [QQ, prime_field(5)], ids=["Q", "F5"])
def test_dropped_rows_match_the_all_pairs_reference(field, monkeypatch):
    """The drop-dominated pass checks each row against the non-seed rows
    after it alone; on random seeded and unseeded multi-component runs,
    under TOP and the block order, it keeps the rows that the all-pairs
    reference keeps."""
    from closurelab import gb as gb_module
    real = gb_module._undominated
    seen = {"runs": 0, "seeded": 0, "dropped": 0}

    def checked(basis, nseed, code):
        keep = real(basis, nseed, code)
        leads = [(c, code.decode(m)) for c, m, _lc, _terms in basis]
        assert keep == ref_undominated(leads)
        seen["runs"] += 1
        seen["seeded"] += nseed > 0
        seen["dropped"] += len(basis) - len(keep)
        return keep

    monkeypatch.setattr(gb_module, "_undominated", checked)
    ring = PolyRing(("x", "y", "z"), field, DEGREVLEX)
    rng = random.Random(59)
    for trial in range(60):
        shifts = [rng.randint(0, 1) for _ in range(rng.randint(2, 3))]
        order = ModuleOrder(ring.order, None if trial % 3 else
                            rng.randint(1, len(shifts) - 1))
        cols = [_random_vec(ring, rng, shifts, rng.randint(1, 3),
                            rng.randint(1, 4))
                for _ in range(rng.randint(2, 6))]
        seed = None
        if trial % 2:
            seed = buchberger(cols[:2], len(shifts), order, ring)
            cols = cols[2:] + [_random_vec(ring, rng, shifts, 2, 3)]
        buchberger(cols, len(shifts), order, ring, seed=seed)
    assert min(seen.values()) > 0, seen


def _mixed_columns(ring, rng, shifts, count):
    """Random homogeneous columns for the shifts, about half of them in a
    single component, where the product criterion can apply."""
    cols = []
    for _ in range(count):
        deg, nterms = rng.randint(1, 3), rng.randint(1, 4)
        if rng.random() < 0.5:
            j = rng.randrange(len(shifts))
            cols.append(_random_vec(ring, rng, (shifts[j],), deg,
                                    nterms).pad(len(shifts), offset=j))
        else:
            cols.append(_random_vec(ring, rng, shifts, deg, nterms))
    return cols


def _random_runs(field, seed, trials):
    """(cols, ncomps, order, ring, seed columns or None) of random seeded
    and unseeded runs under TOP, the block order and an elimination
    order."""
    ring = PolyRing(("x", "y", "z"), field, DEGREVLEX)
    rng = random.Random(seed)
    for trial in range(trials):
        shifts = [rng.randint(0, 1) for _ in range(rng.randint(1, 3))]
        ncomps = len(shifts)
        kind = trial % 3
        if kind == 2:
            order = ModuleOrder(elimination(rng.randint(1, 2)))
        elif kind == 1 and ncomps > 1:
            order = ModuleOrder(ring.order, rng.randint(1, ncomps - 1))
        else:
            order = ModuleOrder(ring.order)
        cols = _mixed_columns(ring, rng, shifts, rng.randint(2, 6))
        seed_cols = None
        if trial % 2:
            seed_cols = cols[:3]
            cols = cols[3:] + _mixed_columns(ring, rng, shifts, 2)
        yield cols, ncomps, order, ring, seed_cols


def _row_form(rows):
    """Kernel rows with their terms in dict order, for strict comparison."""
    return [(c, m, lc, list(terms.items())) for c, m, lc, terms in rows]


@pytest.mark.parametrize("field", [QQ, prime_field(5)], ids=["Q", "F5"])
def test_indexed_bookkeeping_matches_the_scanning_reference(field):
    """buchberger settles coprime single-component pairs when they are
    formed, scans only the rows of a term's component, and reduces at the
    end only the rows that a later kept lead reaches.  On random seeded
    and unseeded runs it returns the rows of the reference that queues
    every pair, scans the whole basis and reduces every kept row again:
    equal tuple for tuple, dict order included."""
    seeded = 0
    for cols, ncomps, order, ring, seed_cols in _random_runs(field, 61, 90):
        seed = None
        if seed_cols is not None:
            seeded += 1
            seed = buchberger(seed_cols, ncomps, order, ring)
            assert _row_form(seed._rows) == _row_form(
                scan_buchberger_rows(seed_cols, ncomps, order, ring))
        ours = buchberger(cols, ncomps, order, ring, seed=seed)
        ref = scan_buchberger_rows(cols, ncomps, order, ring, seed=seed)
        assert _row_form(ours._rows) == _row_form(ref)
    assert seeded


@pytest.mark.parametrize("field", [QQ, prime_field(5)], ids=["Q", "F5"])
def test_pairs_settled_when_formed_reduce_to_zero(field, monkeypatch):
    """Every pair that buchberger drops when it is formed (two rows in one
    component only, with leads that share no variable) has an S-vector
    that the final basis reduces to zero.  The rows of a run are read off
    the calls of _lead_mask: the seed's rows first, then each new row."""
    from closurelab import gb as gb_module
    real = gb_module._lead_mask
    rows = []

    def recorded(comp, m, terms, decode):
        mask = real(comp, m, terms, decode)
        rows.append((comp, m, terms, mask))
        return mask

    monkeypatch.setattr(gb_module, "_lead_mask", recorded)
    checked = 0
    for cols, ncomps, order, ring, seed_cols in _random_runs(field, 67, 90):
        fld, dec = ring.field, order.code(ring.nvars).decode
        seed, nseed = None, 0
        if seed_cols is not None:
            seed = buchberger(seed_cols, ncomps, order, ring)
            nseed = len(seed)
        rows.clear()
        final = buchberger(cols, ncomps, order, ring, seed=seed)
        vecs = [Vec(ring, ncomps, {(j, dec(m)): fld.from_int(c)
                                   for (j, m), c in terms.items()})
                for _c, _m, terms, _mask in rows]
        for j, (cj, mj, tj, maskj) in enumerate(rows):
            for i, (ci, mi, ti, maski) in enumerate(rows[:j]):
                if (j < nseed or ci != cj or maski is None or maskj is None
                        or maski & maskj):
                    continue
                ei, ej = dec(mi), dec(mj)
                assert not any(a and b for a, b in zip(ei, ej))
                s_vec = (vecs[i].term_mul(fld.from_int(tj[(cj, mj)]), ej)
                         - vecs[j].term_mul(fld.from_int(ti[(ci, mi)]), ei))
                assert final.contains(s_vec)
                checked += 1
    assert checked > 100, checked


def test_exponent_growth_past_the_bound_is_unsupported():
    """Under lex, x^k reduces by x - y^65536 to terms with ever higher
    powers of y; the reduction stops with UnsupportedInputError when an
    exponent passes the bound of the order codes, not with a wrong
    answer."""
    P = PolyRing(("x", "y"), QQ, LEX)
    gb = top_basis(ideal_cols(P, ["x - y^65536"]), P)
    assert str(gb.normal_form(Vec.from_polys([P.parse("x^3")]))
               .component(0)) == "y^196608"
    with pytest.raises(UnsupportedInputError, match="grew past"):
        gb.normal_form(Vec.from_polys([P.parse("x^65536")]))
    with pytest.raises(UnsupportedInputError, match="exponents up to"):
        gb.normal_form(Vec.from_polys([P.parse(f"x^{EXP_BOUND + 1}")]))


def test_groebner_over_q_does_no_field_arithmetic(monkeypatch):
    """Over Q the kernel works on integers: buchberger, normal_form and
    the block run of a certificate never call the field's arithmetic."""
    ring = PolyRing(("x", "y", "z"), QQ, DEGREVLEX)
    free = free_module(make_quotient_ring(ring, []), (0, 1))
    cols = [Vec.from_polys([ring.parse(a), ring.parse(b)]) for a, b in
            [("1/2*x^2 - y*z", "3/7*y"), ("x*y + 5/3*z^2", "z"),
             ("y^2 - 2*x*z", "-4/5*x")]]
    probe = Vec.from_polys([ring.parse("x^3 + 2/3*y^3 - z^3"),
                            ring.parse("1/9*x^2 - y*z")])
    in_span = cols[0].term_mul(Fraction(3, 2), (0, 1, 0)) + cols[2]

    def forbidden(*_args):
        raise AssertionError("field arithmetic inside the Groebner kernel")

    for name in ("add", "sub", "mul", "inv"):
        monkeypatch.setattr(Rationals, name, forbidden)
    keyfn = ModuleOrder(ring.order)
    gb = buchberger(cols, 2, keyfn, ring)
    assert len(gb) > len(cols)
    assert not gb.normal_form(probe).is_zero()
    assert gb.normal_form(in_span).is_zero()
    assert Submodule(free, tuple(cols)).certificate(in_span) is not None


def test_buchberger_work_counts_are_pinned(monkeypatch):
    """The README cone closure does a fixed amount of kernel work, counted
    from the closure call on (the module and operator are built before).
    The counts guard the pair criteria, the order in which pairs leave
    the queue (see push_pairs in gb.buchberger), the pairs formed (each
    one lcm), the reduction loop, which rows the final pass reduces again
    (in a preimage run, value rows only), the kernel-row canonicalization
    of modules._distinct_monic, the closure's step skip, S (x) R being S
    (no run builds its relation basis again) and minimalization taking
    the preimage generators as they come (none is normalized again); a
    change that means to alter them updates them here."""
    from closurelab import gb as gb_module
    from closurelab import modules as modules_module
    from closurelab import ring as ring_module
    from closurelab.closure import ModuleClosure
    from closurelab.modules import ideal_as_module
    from closurelab.orders import wdegrevlex

    amb = PolyRing(("a", "b", "c"), QQ, wdegrevlex((2, 2, 2)))
    R = make_quotient_ring(amb, [amb.parse("a*c - b^2")])
    cl = ModuleClosure(ideal_as_module(R, ["a", "b"]))
    reduce_terms, normalize = gb_module._reduce_terms, gb_module._normalize
    counts = {"reductions": 0, "to_zero": 0, "normalizations": 0, "pairs": 0}

    def counted_reduce(*args, **kwargs):
        rem, mult = reduce_terms(*args, **kwargs)
        counts["reductions"] += 1
        counts["to_zero"] += not rem
        return rem, mult

    def counted_normalize(*args):
        counts["normalizations"] += 1
        return normalize(*args)

    code = amb.code
    lcm = code.lcm

    def counted_lcm(a, b):
        counts["pairs"] += 1
        return lcm(a, b)

    for owner in (gb_module, modules_module):
        monkeypatch.setattr(owner, "_normalize", counted_normalize)
    for owner in (gb_module, modules_module, ring_module):
        monkeypatch.setattr(owner, "_reduce_terms", counted_reduce)
    monkeypatch.setattr(code, "lcm", counted_lcm)
    closed = cl.closure(ideal_submodule(R, ["a^2", "a*b", "b*c", "c^2"]))
    assert sorted(str(g.component(0)) for g in closed.gens) == \
        ["a*b", "a*c", "a^2", "b*c", "c^2"]
    assert counts == {"reductions": 42, "to_zero": 26, "normalizations": 15,
                      "pairs": 26}


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_syzygy_work_counts_are_pinned(monkeypatch, field):
    """syz^2 of the residue field of the cone, the module that criteria 9
    and 10 close over and that the cone's cl_{syz^2(k)} is built from,
    makes a fixed number of encodings (_to_kernel), decodings
    (_from_kernel), minimalizations and Buchberger runs, counted over the
    whole call on a fresh ring.  The counts guard resolutions staying in
    kernel rows: a syzygy run's rows go to minimal_generators as they
    are, only the generators kept are decoded, and the relations of the
    minimal presentation are not minimalized a second time.  A change
    that means to alter them updates them here."""
    from closurelab import closure as closure_module
    from closurelab import gb as gb_module
    from closurelab import modules as modules_module
    from closurelab import ring as ring_module
    from closurelab.modules import residue_field
    from closurelab.orders import wdegrevlex

    fld = QQ if field == "Q" else prime_field(5)
    amb = PolyRing(("a", "b", "c"), fld, wdegrevlex((2, 2, 2)))
    R = make_quotient_ring(amb, [amb.parse("a*c - b^2")])
    counts = dict.fromkeys(("_to_kernel", "_from_kernel",
                            "minimal_generators", "buchberger"), 0)

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    for name in counts:
        for owner in (gb_module, modules_module, closure_module,
                      ring_module):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name,
                                    counted(name, getattr(owner, name)))
    syz2 = residue_field(R).syzygy(2)
    assert syz2.gen_degrees == (4, 4, 4, 4) and len(syz2.relations) == 4
    assert counts == {"_to_kernel": 10, "_from_kernel": 11,
                      "minimal_generators": 3, "buchberger": 2}


def test_preimage_runs_do_only_the_work_their_callers_read(monkeypatch):
    """The README cone closure, with its ring, operator and N built
    before, computes a fixed number of lead masks (a block run's seed
    index is assembled from the kept indices of its span and of the
    ring's ideal rows, not rebuilt), visits a fixed number of rows in the
    final pass of its preimage runs (the value rows alone) and calls
    QuotientRing.nf never (its generators are made canonical on kernel
    rows).  The image span is seeded with S's own relation basis, which
    S was born with, so no run makes the rows of a copy of it."""
    from closurelab import gb as gb_module
    from closurelab import modules as modules_module
    from closurelab.closure import ModuleClosure
    from closurelab.modules import ideal_as_module
    from closurelab.orders import wdegrevlex
    from closurelab.ring import QuotientRing

    amb = PolyRing(("a", "b", "c"), QQ, wdegrevlex((2, 2, 2)))
    R = make_quotient_ring(amb, [amb.parse("a*c - b^2")])
    cl = ModuleClosure(ideal_as_module(R, ["a", "b"]))
    N = ideal_submodule(R, ["a^2", "a*b", "b*c", "c^2"])
    counts = {"lead_masks": 0, "final_rows": 0, "nf": 0}
    in_block = [False]
    lead_mask, reached = gb_module._lead_mask, gb_module._reached
    run, nf = modules_module.buchberger, QuotientRing.nf

    def counted_lead_mask(*args):
        counts["lead_masks"] += 1
        return lead_mask(*args)

    def counted_reached(terms, *args):
        # the final pass asks it of every row it keeps, with the row's
        # terms as a dict; _undominated asks it of a lead, as a tuple
        counts["final_rows"] += in_block[0] and isinstance(terms, dict)
        return reached(terms, *args)

    def flagged_run(cols, ncomps, keyfn, *args, **kwargs):
        in_block[0] = keyfn.nreal is not None
        try:
            return run(cols, ncomps, keyfn, *args, **kwargs)
        finally:
            in_block[0] = False

    def counted_nf(self, poly):
        counts["nf"] += 1
        return nf(self, poly)

    monkeypatch.setattr(gb_module, "_lead_mask", counted_lead_mask)
    monkeypatch.setattr(gb_module, "_reached", counted_reached)
    monkeypatch.setattr(modules_module, "buchberger", flagged_run)
    monkeypatch.setattr(QuotientRing, "nf", counted_nf)
    closed = cl.closure(N)
    assert sorted(str(g.component(0)) for g in closed.gens) == \
        ["a*b", "a*c", "a^2", "b*c", "c^2"]
    assert counts == {"lead_masks": 25, "final_rows": 6, "nf": 0}


# --- normal forms ------------------------------------------------------------------


def test_normal_form_one_step_reduction():
    gb = top_basis(ideal_cols(R3, ["a*c - b^2"]), R3)
    nf = gb.normal_form(Vec.from_polys([R3.parse("b^2")]))
    assert str(nf.component(0)) == "a*c"


def test_normal_form_toric_zero():
    T = PolyRing(("x", "y"), QQ, DEGREVLEX)
    images = [T.parse(t) for t in ("x^4", "x^3*y", "x*y^3", "y^4")]
    gens, P = toric_kernel(images, ("a", "b", "c", "d"))
    gb = top_basis([Vec.from_polys([g]) for g in gens], P)
    assert gb.contains(Vec.from_polys([P.parse("b^2*d - a*c^2")]))


def test_normal_form_of_basis_elements_is_zero():
    cols = ideal_cols(R2, ["x^2 - y^2", "x*y^3"])
    gb = top_basis(cols, R2)
    for g in gb:
        assert gb.normal_form(g).is_zero() or g not in cols


@pytest.mark.parametrize("field", [QQ, prime_field(5)], ids=["Q", "F5"])
def test_contains_agrees_with_the_normal_form(field, monkeypatch):
    """contains stops at the first leading term that no basis row divides;
    on random members, members with one term added, and random vectors,
    under TOP and the block order, seeded and unseeded, it answers as
    normal_form(v).is_zero() does, and it decodes nothing."""
    from closurelab import gb as gb_module

    def forbidden(*_args):
        raise AssertionError("contains decoded a remainder")

    ring = PolyRing(("x", "y", "z"), field, DEGREVLEX)
    rng = random.Random(67)
    answers = []
    for trial in range(48):
        shifts = [rng.randint(0, 1) for _ in range(rng.randint(2, 3))]
        ncomps = len(shifts)
        order = ModuleOrder(ring.order, None if trial % 2 else
                            rng.randint(1, ncomps - 1))
        cols = [_random_vec(ring, rng, shifts, rng.randint(1, 3),
                            rng.randint(1, 4))
                for _ in range(rng.randint(2, 5))]
        seed = None
        if trial % 4 >= 2:
            seed = buchberger(cols[:2], ncomps, order, ring)
        gb = buchberger(cols[2:] if seed else cols, ncomps, order, ring,
                        seed=seed)
        member = Vec.zero(ring, ncomps)
        for col in cols:
            member = member + col.term_mul(
                _random_coeff(field, rng),
                rng.choice(((0, 0, 0), (1, 0, 0), (0, 1, 1))))
        probes = [member, member + _random_vec(ring, rng, shifts, 2, 1),
                  _random_vec(ring, rng, shifts, 3, 4)]
        with monkeypatch.context() as patch:
            patch.setattr(gb_module, "_from_kernel", forbidden)
            got = [gb.contains(v) for v in probes]
        assert got == [gb.normal_form(v).is_zero() for v in probes], trial
        answers += got
    assert answers.count(True) > 48 and answers.count(False) > 48


def test_membership_with_certificate_recombines():
    sub = ideal_submodule(P2, ["x^2 - y^2", "y^3"])
    target = R2.parse("x^4 - y^4 + x*y^3")
    cert = sub.certificate(Vec.from_polys([target]))
    assert cert is not None
    acc = R2.zero()
    for c, t in zip(cert, ["x^2 - y^2", "y^3"]):
        acc = acc + c.poly * R2.parse(t)
    assert acc == target


# --- syzygies ----------------------------------------------------------------------


def test_koszul_syzygy_of_x_y():
    cols = ideal_cols(R2, ["x", "y"])
    syz = vec_syzygies(P2, cols, 1)
    assert len(syz) == 1
    v = syz[0]
    combo = cols[0].scale(v.component(0)) + cols[1].scale(v.component(1))
    assert combo.is_zero()
    assert brute_syzygies_complete(P2, cols, 1, syz, 6)


def test_single_generator_in_domain_has_no_syzygies():
    syz = vec_syzygies(P2, ideal_cols(R2, ["x^2 + y^2"]), 1)
    assert syz == []


def test_syzygies_compose_to_zero_random():
    rng = random.Random(3)
    monos = [(i, j) for i in range(3) for j in range(3) if 0 < i + j <= 3]
    for _ in range(10):
        cols = []
        for _g in range(rng.randint(2, 3)):
            i, j = rng.choice(monos)
            c = rng.randint(1, 2)
            cols.append(Vec.from_polys(
                [R2.monomial((i, j), QQ.from_int(c))]))
        syz = vec_syzygies(P2, cols, 1)
        for v in syz:
            acc = Vec.zero(R2, 1)
            for q in range(len(cols)):
                acc = acc + cols[q].scale(v.component(q))
            assert acc.is_zero()


# --- intersections, colons, preimages ------------------------------------------------


def test_ideal_intersection_brute_force():
    R = make_quotient_ring(R2, [])
    got = ideal_submodule(R, ["x^2", "y^2"]).intersect(
        ideal_submodule(R, ["x*y"]))
    got_set = {str(v.component(0).monic()) for v in got.gens}
    assert got_set == {"x^2*y", "x*y^2"}
    # brute force: monomials of degree <= 4 in both ideals lie in the result
    for i in range(5):
        for j in range(5 - i):
            in_first = i >= 2 or j >= 2   # monomial membership in (x^2, y^2)
            in_second = i >= 1 and j >= 1
            v = Vec.from_polys([R2.monomial((i, j))])
            if in_first and in_second:
                assert got.contains(v), (i, j)
            else:
                assert not got.contains(v), (i, j)


def test_colon_by_element():
    # (x) : (y) in k[x,y] = (x)
    R = make_quotient_ring(R2, [])
    got = ideal_submodule(R, ["x"]).colon_elem("y")
    assert got.contains(Vec.from_polys([R2.parse("x")]))
    assert not got.contains(Vec.from_polys([R2.parse("y")]))
    assert not got.contains(Vec.from_polys([R2.one()]))


# --- toric kernels ---------------------------------------------------------------------


def test_kernel_of_ring_map_veronese2():
    T = PolyRing(("x", "y"), QQ, DEGREVLEX)
    gens, P = toric_kernel(
        [T.parse("x^2"), T.parse("x*y"), T.parse("y^2")], ("a", "b", "c"))
    assert [str(g) for g in gens] == ["b^2 - a*c"]
    assert P.weights == (2, 2, 2)


def test_kernel_of_ring_map_isomorphism():
    T = PolyRing(("x", "y"), QQ, DEGREVLEX)
    gens, P = toric_kernel([T.parse("x"), T.parse("y")], ("a", "b"))
    assert gens == []


def test_strip_vars_rejects_a_dropped_variable():
    ky = PolyRing(("y",), QQ, DEGREVLEX)
    with pytest.raises(UnsupportedInputError):
        _strip_vars(R2.parse("x*y"), ky, 1)
    assert str(_strip_vars(R2.parse("y^2 - 2*y"), ky, 1)) == "y^2 - 2*y"


def test_kernel_of_ring_map_rejects_non_monomial():
    T = PolyRing(("x", "y"), QQ, DEGREVLEX)
    with pytest.raises(UnsupportedInputError):
        toric_kernel([T.parse("x + y")], ("a",))
    with pytest.raises(UnsupportedInputError):
        toric_kernel([T.one()], ("a",))


# --- membership oracle agreement -------------------------------------------------------


def test_membership_agrees_with_linear_algebra():
    from closurelab.ring import make_quotient_ring
    R = make_quotient_ring(R2, [])
    rng = random.Random(23)
    monos = [(i, j) for i in range(4) for j in range(4) if 0 < i + j <= 4]
    for _ in range(40):
        gens = []
        for _g in range(rng.randint(1, 3)):
            deg_terms = {}
            d = None
            for _t in range(rng.randint(1, 2)):
                i, j = rng.choice(monos)
                if d is None:
                    d = i + j
                if i + j != d:
                    continue
                deg_terms[(i, j)] = QQ.from_int(rng.randint(-2, 2))
            from closurelab.poly import Polynomial
            p = Polynomial(R2, {m: c for m, c in deg_terms.items() if c != 0})
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        cols = [Vec.from_polys([g]) for g in gens]
        gb = top_basis(cols, R2)
        i, j = rng.choice(monos)
        u = Vec.from_polys([R2.monomial((i, j))])
        assert gb.contains(u) == brute_member(R, cols, (0,), u)


def test_twisted_cubic_cone_toric_kernel():
    # k[x^3, x^2 y, x y^2, y^3]: kernel generated by the three 2x2 minors
    T = PolyRing(("x", "y"), QQ, DEGREVLEX)
    images = [T.parse(t) for t in ("x^3", "x^2*y", "x*y^2", "y^3")]
    gens, P = toric_kernel(images, ("a", "b", "c", "d"))
    assert sorted(str(g) for g in gens) == \
        sorted(["b^2 - a*c", "c^2 - b*d", "b*c - a*d"])
    assert P.weights == (3, 3, 3, 3)


def test_segre_product_toric_kernel():
    # k[xu, xv, yu, yv]: one quadric relation (the Segre embedding of P1xP1)
    T = PolyRing(("x", "y", "u", "v"), QQ, DEGREVLEX)
    images = [T.parse(t) for t in ("x*u", "x*v", "y*u", "y*v")]
    gens, P = toric_kernel(images, ("p", "q", "r", "s"))
    assert [str(g) for g in gens] == ["q*r - p*s"]


def test_groebner_matches_sympy_three_vars_and_gf5():
    sympy = pytest.importorskip("sympy")
    import sympy as sp
    from closurelab.field import prime_field
    R3v = PolyRing(("x", "y", "z"), QQ, DEGREVLEX)
    F5 = PolyRing(("x", "y", "z"), prime_field(5), DEGREVLEX)
    xs = sp.symbols("x y z")
    rng = random.Random(29)
    monos = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
             if 0 < i + j + k <= 3]
    for trial in range(8):
        texts = []
        for _ in range(rng.randint(1, 2)):
            terms = []
            for _t in range(rng.randint(1, 3)):
                c = rng.randint(-2, 3)
                if c == 0:
                    continue
                i, j, k = rng.choice(monos)
                terms.append(f"{c}*x^{i}*y^{j}*z^{k}")
            if terms:
                texts.append(" + ".join(terms))
        if not texts:
            continue
        exprs = [sp.sympify(t.replace("^", "**")) for t in texts]
        ours = top_basis(ideal_cols(R3v, texts), R3v)
        theirs = sp.groebner(exprs, *xs, order="grevlex")
        # sympy normalizes content, not leading coefficients: compare monic
        assert sorted(str(v.component(0)) for v in ours) == \
            sorted(str(R3v.parse(str(e).replace("**", "^")).monic())
                   for e in theirs.exprs), f"Q trial {trial}"
        ours5 = top_basis(ideal_cols(F5, texts), F5)
        theirs5 = sp.groebner(exprs, *xs, order="grevlex", modulus=5)

        def norm5(e):
            return str(F5.parse(str(e).replace("**", "^")).monic())

        assert sorted(str(v.component(0)) for v in ours5) == \
            sorted(norm5(e) for e in theirs5.exprs), f"F5 trial {trial}"


def test_leading_terms_accessor():
    gb = top_basis(ideal_cols(R2, ["x^2 - y^2", "x*y"]), R2)
    lts = gb.leading_terms()
    assert all(c == 0 for c, _e in lts)
    assert len(lts) == len(gb)
