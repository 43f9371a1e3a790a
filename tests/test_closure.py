"""Closure operations: membership, computation, checkers, phantom, obstruction."""

import random
from itertools import product

import pytest

from closurelab import closure, modules
from closurelab import ring as ring_module
from closurelab.field import QQ, prime_field
from closurelab.orders import wdegrevlex
from closurelab.poly import ContextError, DomainError, PolyRing, Polynomial
from closurelab.ring import QuotientRing, make_quotient_ring
from closurelab.modules import (FPModule, ModuleMap, Submodule, direct_sum,
                                free_module,
                                ideal_as_module, ideal_submodule,
                                quotient_module, residue_field,
                                ring_as_module, scaled_gens)
from closurelab.closure import (ClosureOp, ModuleClosure,
                                MonomialIntegralClosure, PhantomInstance,
                                TrivialClosure, UnsupportedQueryError,
                                check_colon_capturing, check_faithfulness,
                                check_functoriality,
                                check_generalized_colon_capturing,
                                check_semi_residuality, closure_of_ideal,
                                dietz_obstruction, direct_sum_closure,
                                ideal_member, intersect_closures,
                                is_trivial_on_sample, newton_polyhedron_member,
                                phantom_test)
from closurelab.sampling import sample_ideals
from oracles import (fm_newton_member, random_submodule_pair,
                     ref_closure_preimage, ref_closure_steps)


# --- membership examples -------------------------------------------------------------


def test_square_subring_membership(segre):
    M = ideal_as_module(segre, ["a", "b"])
    clM = ModuleClosure(M, "cl_M")
    out = ideal_member(clM, segre, "a*c", ["a^2", "a*b", "b*c", "c^2"],
                       want_certificate=True)
    assert out.holds
    assert out.certificate is not None
    assert len(out.certificate) == M.ngens


def test_s2_closure_membership(veronese4, s2_module):
    clS = ModuleClosure(s2_module, "cl_S")
    assert ideal_member(clS, veronese4, "b^2", ["a"]).holds
    assert ideal_member(clS, veronese4, "c^2", ["d"]).holds
    assert not ideal_member(clS, veronese4, "b", ["a"]).holds


def test_trivial_membership(kxy):
    triv = TrivialClosure()
    assert not ideal_member(triv, kxy, "x", ["x^2", "y^2"]).holds
    assert ideal_member(triv, kxy, "x^2 + y^2", ["x^2", "y^2"]).holds


def test_integral_closure_membership(kxy):
    ic = MonomialIntegralClosure()
    assert ideal_member(ic, kxy, "x*y", ["x^2", "y^2"]).holds
    assert not ideal_member(ic, kxy, "x", ["x^2", "y^2"]).holds


def test_integral_closure_rejects_bad_inputs(kxy, segre):
    ic = MonomialIntegralClosure()
    with pytest.raises(UnsupportedQueryError):
        ideal_member(ic, kxy, "x", ["x + y"])
    with pytest.raises(UnsupportedQueryError):
        ideal_member(ic, segre, "a", ["b"])


@pytest.mark.parametrize("kind", ["module", "trivial"])
def test_member_refuses_a_vector_of_another_rank(kxy, kind):
    """A rank-2 vector is no element of an ideal's module: both closures
    refuse it.  Before, the module closure answered holds=False."""
    N = ideal_submodule(kxy, ["x^2", "y^2"])
    v = free_module(kxy, (0, 0)).vec(["x*y", "x*y"])
    cl = (ModuleClosure(ideal_as_module(kxy, ["x", "y"])) if kind == "module"
          else TrivialClosure())
    with pytest.raises(ContextError, match="vector of rank 2 in a module "
                                           "of rank 1"):
        cl.member(v, N)


def test_integral_closure_rejects_vector_of_wrong_rank(kxy):
    N = ideal_submodule(kxy, ["x^2", "y^2"])
    u = free_module(kxy, (0, 0)).vec(["x*y", "x*y"])
    with pytest.raises(UnsupportedQueryError):
        MonomialIntegralClosure().member(u, N)


def test_newton_polyhedron_halves():
    assert newton_polyhedron_member((1, 1), [(2, 0), (0, 2)])
    assert not newton_polyhedron_member((1, 0), [(2, 0), (0, 2)])
    assert newton_polyhedron_member((3, 1), [(2, 0), (0, 2)])
    assert newton_polyhedron_member((2, 2), [(4, 0), (0, 3)])
    assert not newton_polyhedron_member((0, 0), [])


@pytest.mark.parametrize("alpha, betas, lengths", [
    ((1,), [(1, 1)], "1, 2"),
    ((1, 1), [(1,), (1, 1)], "1, 2"),
    ((2, 2, 2), [(1, 1)], "2, 3"),
    ((1, 1), [(1, 1), (1,)], "1, 2")],
    ids=["short_alpha", "short_first_beta", "long_alpha", "short_last_beta"])
def test_newton_exponents_of_different_lengths_refused(alpha, betas,
                                                       lengths):
    with pytest.raises(DomainError, match=f"different lengths: {lengths}"):
        newton_polyhedron_member(alpha, betas)
    if len({len(b) for b in betas}) > 1:
        with pytest.raises(DomainError, match=lengths):
            closure.newton_facets(betas)


@pytest.mark.parametrize("n", [2, 3])
def test_newton_facets_match_per_point_fourier_motzkin(n):
    """The facet test against one Fourier-Motzkin run per point, on 220
    random monomial ideals in n variables: the unit ideal, one generator,
    duplicate generators among them.  The points are the generators, some
    of their neighbours, random points of the box, and points on the
    facets."""
    rng = random.Random(1100 + n)
    ideals = [[(0,) * n], [(0,) * n, (2,) * n], [(3,) + (0,) * (n - 1)]]
    while len(ideals) < 220:
        betas = [tuple(rng.randint(0, 4) for _ in range(n))
                 for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.25:
            betas.append(rng.choice(betas))
        ideals.append(betas)
    on_facet = 0
    for betas in ideals:
        facets = closure.newton_facets(betas)
        box = [range(max(b[i] for b in betas) + 2) for i in range(n)]
        tight = [p for p in product(*box)
                 if any(sum(x * y for x, y in zip(a, p)) + k == 0
                        for a, k in facets)]
        points = set(betas) | set(rng.sample(tight, min(3, len(tight))))
        for _ in range(2):
            p, i = list(rng.choice(betas)), rng.randrange(n)
            p[i] = max(p[i] + rng.choice((-1, 1)), 0)
            points.add(tuple(p))
            points.add(tuple(rng.choice(r) for r in box))
        for p in points:
            want = fm_newton_member(p, betas)
            assert newton_polyhedron_member(p, betas) == want, (p, betas)
            on_facet += p in tight
    assert on_facet > 400


def test_integral_closure_computes_the_facets_once(kxy, monkeypatch):
    calls = []
    facets = closure.newton_facets

    def counted(betas):
        calls.append(betas)
        return facets(betas)

    monkeypatch.setattr(closure, "newton_facets", counted)
    N = ideal_submodule(kxy, ["x^2", "y^2"])
    ic = MonomialIntegralClosure()
    closed = ic.closure(N)
    assert len(calls) == 1
    assert {str(g.component(0)) for g in closed.gens} == \
        {"x^2", "x*y", "y^2"}
    assert ic.member(ring_as_module(kxy).vec(["x*y"]), N).holds
    assert not ic.member(ring_as_module(kxy).vec(["x"]), N).holds
    assert len(calls) == 1


# --- closure computation ----------------------------------------------------------------


def test_square_subring_closures_coincide(segre):
    M = ideal_as_module(segre, ["a", "b"])
    clM = ModuleClosure(M, "cl_M")
    I = ["a^2", "a*b", "b*c", "c^2"]
    CI = closure_of_ideal(clM, segre, I)
    CJ = closure_of_ideal(clM, segre, I + ["a*c"])
    assert CI.same_as(CJ)
    assert CI.contains(ring_as_module(segre).vec(["a*c"]))
    assert {str(g.component(0)) for g in CI.gens} == \
        {"a^2", "a*b", "a*c", "b*c", "c^2"}


def test_trivial_closure_is_identity(kxy):
    N = ideal_submodule(kxy, ["x^2", "x*y"])
    assert TrivialClosure().closure(N).same_as(N)


def test_xyuv_closure_contains_xu(xyuv):
    M = ideal_as_module(xyuv, ["x", "u"])
    clM = ModuleClosure(M, "cl_M")
    C = closure_of_ideal(clM, xyuv, ["x^2", "u^2"])
    assert C.contains(ring_as_module(xyuv).vec(["x*u"]))


def test_integral_closure_compute(kxy):
    C = closure_of_ideal(MonomialIntegralClosure(), kxy, ["x^2", "y^2"])
    assert {str(g.component(0)) for g in C.gens} == {"x^2", "x*y", "y^2"}


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_integral_closure_generators_are_the_minimalized_ones(field):
    """MonomialIntegralClosure.closure returns the divisibility-minimal
    monomials of the closure as the minimalized() route does, monic and
    ordered by (degree, str), without its span runs: on random monomial
    ideals under unequal weights, minimalizing them together with N's
    generators gives them back in order."""
    fld = QQ if field == "Q" else prime_field(5)
    amb = PolyRing(("x", "y", "z"), fld, wdegrevlex((1, 2, 3)))
    R = make_quotient_ring(amb, [])
    rng = random.Random(f"integral-{field}")
    ic = MonomialIntegralClosure()
    for _ in range(12):
        gens = []
        for _ in range(rng.randint(1, 4)):
            exps = [rng.randint(0, 3) for _ in range(3)]
            exps[rng.randrange(3)] += 1
            gens.append(Polynomial(amb, {tuple(exps): fld.one}))
        N = ideal_submodule(R, gens)
        got = ic.closure(N).gens
        assert got == Submodule(N.module, got + N.gens).minimalized().gens, \
            gens


def test_closure_extension_and_idempotence(segre,
                                           relation_bases_vs_reference):
    M = ideal_as_module(segre, ["a", "b"])
    clM = ModuleClosure(M)
    N = ideal_submodule(segre, ["a^2", "b*c"])
    C = clM.closure(N)
    assert C.contains_submodule(N)
    assert clM.closure(C).same_as(C)
    assert relation_bases_vs_reference() == {"relations": 1, "rows": 3}


@pytest.mark.parametrize("suite", ["closure axioms", "direct-sum closure",
                                   "cl_(S+T) = cl_S cap cl_T"])
def test_property_suite_instances_keep_born_relation_bases(
        suite, relation_bases_vs_reference):
    """The first instances of three criterion-7 suites pass, and every
    relation basis a module was born with on them (ideal modules, their
    tensors with free modules, direct sums) is the span of its relations
    from scratch."""
    from closurelab import acceptance

    run, count, seed = {
        "closure axioms": (acceptance._closure_axioms_instances, 48, 701),
        "direct-sum closure": (acceptance._direct_sum_instances, 9, 703),
        "cl_(S+T) = cl_S cap cl_T": (
            acceptance._sum_intersection_instances, 6, 705)}[suite]
    ok, detail = run(count, seed)
    assert ok, detail
    seen = relation_bases_vs_reference()
    assert seen["relations"] >= 6 and seen["rows"] > seen["relations"], seen


# --- intersections and direct sums -----------------------------------------------------------


def test_direct_sum_closure_equals_intersection(segre,
                                               relation_bases_vs_reference):
    rng = random.Random(99)
    from closurelab.sampling import random_ideal_gens
    for _ in range(5):
        S = ideal_as_module(segre, random_ideal_gens(segre, rng, 2, 2))
        T = ideal_as_module(segre, random_ideal_gens(segre, rng, 2, 2))
        N = ideal_submodule(segre, random_ideal_gens(segre, rng, 2, 2))
        assert direct_sum_closure(S, T).closure(N).same_as(
            intersect_closures(ModuleClosure(S), ModuleClosure(T)).closure(N))
    seen = relation_bases_vs_reference()
    assert seen["relations"] >= 5, seen


def test_free_summand_makes_intersection_trivial(segre):
    # cl_{R + S} = cl_R cap cl_S and cl_R is trivial on ideals of a domain
    S = ideal_as_module(segre, ["a", "b"])
    R1 = ring_as_module(segre)
    both = direct_sum_closure(R1, S)
    N = ideal_submodule(segre, ["a^2", "a*b", "b*c", "c^2"])
    assert both.closure(N).same_as(N)
    inter = intersect_closures(TrivialClosure(), ModuleClosure(S))
    assert inter.closure(N).same_as(N)


def test_intersection_idempotent(segre):
    S = ideal_as_module(segre, ["a", "b"])
    cl = ModuleClosure(S)
    N = ideal_submodule(segre, ["a^2", "a*b", "b*c", "c^2"])
    assert intersect_closures(cl, cl).closure(N).same_as(cl.closure(N))


def test_same_as_makes_no_span_run_for_generators_it_has(monkeypatch):
    """On one closure-axiom instance (a module closure over F5[x,y]), the
    idempotence check again.same_as(closed) compares two equal generator
    tuples with no Buchberger run; it used to build both spans.  Against
    closed + N only N's generators that closed lacks are tested: one span
    run, closed's, where there were two."""
    from closurelab.acceptance import _property_rings, _random_ideal_module
    from closurelab.sampling import random_ideal_gens

    rng = random.Random("same-as-runs")
    ring = _property_rings()[0]
    cl = ModuleClosure(_random_ideal_module(ring, rng))
    N = ideal_submodule(ring, random_ideal_gens(ring, rng, 2, 3))
    closed = cl.closure(N)
    again = cl.closure(closed)
    bigger = closed.sum(N)
    assert again.gens == closed.gens
    assert any(g not in closed.gens for g in N.gens)
    runs = []
    real = modules.buchberger

    def counting(*args, **kwargs):
        runs.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(modules, "buchberger", counting)
    assert again.same_as(closed)
    assert runs == []
    assert bigger.same_as(closed)
    assert runs == [1]


def test_intersection_closure_is_not_minimalized_again(monkeypatch):
    """On the intersection instances of the closure-axiom suite (a module
    closure meet the trivial closure, over its rings), the closure equals,
    generator for generator, its own minimalization, which it used to
    return; it makes three minimalizations, one per part and one for the
    intersection, not four."""
    from closurelab.acceptance import _property_rings, _random_ideal_module
    from closurelab.sampling import random_ideal_gens

    calls = []
    real = Submodule.minimalized
    real_min, real_edge = modules.minimal_generators, modules._vec_rows

    def counting(M, rows):
        calls.append("rows")
        return real_min(M, rows)

    def edge(M, cols):
        calls.append("vecs")
        return real_edge(M, cols)

    rng = random.Random("intersection-minimalized")
    monkeypatch.setattr(modules, "minimal_generators", counting)
    monkeypatch.setattr(modules, "_vec_rows", edge)
    for ring in _property_rings() * 2:
        cl = intersect_closures(
            ModuleClosure(_random_ideal_module(ring, rng)), TrivialClosure())
        N = ideal_submodule(ring, random_ideal_gens(ring, rng, 2, 3))
        calls.clear()
        closed = cl.closure(N)
        # the rows of the module closure's preimage runs, the trivial
        # part's generators made rows at the Vec edge, then the rows of
        # the intersection's run
        assert calls == ["rows", "vecs", "rows", "rows"]
        assert closed.gens == real(closed).gens
        assert closed.same_as(
            cl.parts[0].closure(N).intersect(cl.parts[1].closure(N)))


def test_module_closure_rejects_zero_module(segre):
    Z = quotient_module(segre, ["1"])
    with pytest.raises(DomainError):
        ModuleClosure(Z)


def test_member_builds_tensor_image_once_per_pair(veronese4, s2_module,
                                                monkeypatch):
    """Four queries on one (S, N) make one Buchberger run, the image span,
    seeded with the relation basis of S (x) R, which is S itself: its
    basis was built by ModuleClosure, which asks whether S is zero.  A
    second N inside the same M costs exactly one run, its own image
    span."""
    runs = []
    real = modules.buchberger

    def counting(cols, ncomps, keyfn, ring, seed=None, **kwargs):
        runs.append((len(cols), seed is not None and len(seed)))
        return real(cols, ncomps, keyfn, ring, seed, **kwargs)

    cl = ModuleClosure(s2_module, "cl_S")
    monkeypatch.setattr(modules, "buchberger", counting)
    answers = [ideal_member(cl, veronese4, u, ["a"]).holds
               for u in ("b^2", "b", "a*b", "b^2")]
    assert answers == [True, False, True, True]
    relation_basis_size = len(s2_module.relation_basis())
    assert relation_basis_size > 2 * len(veronese4.ideal_basis)
    # the image of (a), one column per generator of S
    assert runs == [(2, relation_basis_size)]
    runs.clear()
    answers = [ideal_member(cl, veronese4, u, ["b", "c"]).holds
               for u in ("b", "a*d", "d")]
    assert answers == [True, True, False]
    assert runs == [(4, relation_basis_size)]


def test_closure_normal_forms_only_what_is_not_normal(veronese4, s2_module,
                                                     monkeypatch):
    """One closure reduces modulo the ideal only what some reduction step
    changes: the tensor image columns, relabelled copies of normal forms,
    the rows of a preimage basis that no ideal lead reaches and the
    already normal generators handed to minimalization are not reduced
    again.  The rows an ideal lead reaches are reduced as kernel rows
    (modules._distinct_monic, through QuotientRing.reduce_terms), and
    QuotientRing.nf is not called.
    Minimalization reduces the candidates of a degree block modulo the
    span of those kept below it as kernel rows too, against that span's
    rows, where it called GroebnerBasis.normal_form on decoded Vecs.  The
    rank tests inside a block (modules._outside_later_spans) reduce with
    the same routine; they are not normal forms and are not counted."""
    changed, nf_calls = [], []
    real_reduce, real_nf = modules._reduce_terms, QuotientRing.nf
    real_rank = modules._outside_later_spans
    ideal_rows = veronese4.free_relation_basis(1)._rows_of
    in_rank = [False]

    def counting(terms, rows_of, *args, **kwargs):
        before = dict(terms)
        rem, mult = real_reduce(terms, rows_of, *args, **kwargs)
        kind = "ideal" if rows_of is ideal_rows else "span"
        if not in_rank[0]:
            changed.append((kind, rem != before))
        return rem, mult

    def flagged_rank(*args):
        in_rank[0] = True
        try:
            return real_rank(*args)
        finally:
            in_rank[0] = False

    def counting_nf(self, poly):
        nf_calls.append(poly)
        return real_nf(self, poly)

    N = ideal_submodule(veronese4, ["a^2", "a*b", "b*c", "d^2"])
    cl = ModuleClosure(s2_module, "cl_S")
    monkeypatch.setattr(modules, "_reduce_terms", counting)
    monkeypatch.setattr(ring_module, "_reduce_terms", counting)
    monkeypatch.setattr(modules, "_outside_later_spans", flagged_rank)
    monkeypatch.setattr(QuotientRing, "nf", counting_nf)
    closed = cl.closure(N)
    assert sorted(str(g) for g in closed.gens) == \
        ["(a*b)", "(a*d)", "(a^2)", "(b^2*d)", "(c^2*d)", "(d^2)"]
    # four preimage rows such as b^3, equal to a^2*c in R, in the one
    # preimage run, for the first generator of S; the span it returns
    # already satisfies the second generator, whose step makes no run
    assert changed[:4] == [("ideal", True)] * 4
    # then the candidates of the blocks above the lowest one, two of them
    # changed by the span of the kept candidates below
    assert changed[4:] == [("span", True)] * 2 + [("span", False)] * 2
    assert nf_calls == []


# --- seeded preimages against the block-diagonal reference -------------------------


def _preimage_case(request, case):
    """(S, modules M to take N in) for one closure case."""
    if case == "f5":
        amb = PolyRing(("a", "b", "c"), prime_field(5), wdegrevlex((2, 2, 2)))
        ring = make_quotient_ring(amb, [amb.parse("a*c - b^2")])
    else:
        ring = request.getfixturevalue(
            "veronese4" if case == "veronese4" else "segre")
    S = {"segre": lambda: ideal_as_module(ring, ["a", "b"]),
         "veronese4": lambda: request.getfixturevalue("s2_module"),
         "syz2": lambda: residue_field(ring).syzygy(2),
         "f5": lambda: ideal_as_module(ring, ["a", "b"]),
         "one_generator": lambda: quotient_module(ring, ["a", "b"]),
         "collapse": lambda: direct_sum(ring_as_module(ring),
                                        residue_field(ring))}[case]()
    first = ring.ambient.names[0]
    return S, [ring_as_module(ring), free_module(ring, (0, 0)),
               quotient_module(ring, [first])]


@pytest.mark.parametrize("case", ["segre", "veronese4", "syz2", "f5",
                                  "one_generator", "collapse"])
def test_closure_preimage_matches_the_block_diagonal_reference(
        request, case, raw_preimage):
    """The generators a closure hands to minimalization equal, in order,
    those of one block-diagonal elimination over g copies of the tensor
    target, and those of the loop that makes a seeded preimage run for
    every generator s_i of S (the reference).  The closure skips the run
    of a step whose columns s_i (x) w, for w in the span so far, all lie
    in the image, and makes one run for every other step; the reference's
    run on a skipped step hands its input back unchanged.  When the
    generators become the ideal's multiples alone, the closure makes no
    further run: in the collapse case S = R + k, so the zero submodule of
    a free M has the zero closure, found by the first run."""
    S, ambients = _preimage_case(request, case)
    rng = random.Random(f"closure-preimage-{case}")
    collapsed = 0
    skips = []
    for M in ambients:
        for trial in range(3):
            zero = case == "collapse" and not trial
            N = (M.zero_submodule() if zero
                 else random_submodule_pair(M, rng, max_gens=3))
            steps, satisfied = ref_closure_steps(S, N)
            got, runs = raw_preimage(lambda: ModuleClosure(S).closure(N))
            assert got == ref_closure_preimage(S, N) == steps[-1], \
                (case, M, N.gens)
            assert len(runs) == satisfied.count(False), (case, M, N.gens)
            assert all(steps[i + 1] == steps[i]
                       for i in range(S.ngens) if satisfied[i])
            skips.append(satisfied.count(True))
            if zero and not M.relations:
                assert got == [] and len(runs) == 1
                collapsed += 1
    assert collapsed == (2 if case == "collapse" else 0)
    # every case skips a step somewhere; in two of them some closures skip
    # none
    assert max(skips) > 0
    assert (0 in skips) == (case in ("segre", "one_generator"))


@pytest.mark.parametrize("case", ["segre", "veronese4", "syz2", "f5",
                                  "one_generator", "collapse"])
def test_closure_preimage_runs_match_the_filtered_block_basis(
        request, case, preimages_vs_reference):
    """Every eliminating preimage run of a closure hands back, kernel row
    for kernel row, the value block of the whole block basis, and its
    rows are made canonical as the Vec-level routine makes their
    decoded Vecs; over Q and F5 ("f5")."""
    S, ambients = _preimage_case(request, case)
    rng = random.Random(f"closure-value-block-{case}")
    for M in ambients:
        for _trial in range(2):
            N = random_submodule_pair(M, rng, max_gens=3)
            ModuleClosure(S).closure(N)
    seen = preimages_vs_reference()
    assert seen["calls"] >= 3 and seen["rows"] > seen["calls"], seen
    # an ideal lead reaches rows (and some vanish) except where S's one
    # generator keeps every row in normal form
    assert bool(seen["reached"]) == (case != "one_generator"), seen


def test_closure_makes_one_image_span_and_one_preimage_run_per_unsatisfied_step(
        veronese4, s2_module, raw_preimage, monkeypatch):
    """On an N not seen before, a closure builds the image span once and
    makes one preimage run per generator of S whose step is not already
    satisfied, each over the components of S (x) M and of M; after member
    on the same N it builds no image span."""
    M = free_module(veronese4, (0, 0))
    T = modules.tensor(s2_module, M)
    rng = random.Random("closure-structure")
    N, N2 = (random_submodule_pair(M, rng) for _ in range(2))
    want, want2 = ([(T.ngens + M.ngens, T.ngens)]
                   * ref_closure_steps(s2_module, X)[1].count(False)
                   for X in (N, N2))
    assert (len(want), len(want2)) == (1, 1)
    spans = []
    real = modules.r_span_basis

    def counting(module, cols):
        spans.append(module)
        return real(module, cols)

    monkeypatch.setattr(modules, "r_span_basis", counting)
    monkeypatch.setattr(closure, "r_span_basis", counting)
    cl = ModuleClosure(s2_module)
    _gens, runs = raw_preimage(lambda: cl.closure(N))
    assert runs == want and spans.count(T) == 1
    cl.member(N2.gens[0], N2)
    spans.clear()
    _gens, runs = raw_preimage(lambda: cl.closure(N2))
    assert runs == want2 and spans.count(T) == 0


def _slot_queries(ring, gens_a, gens_b, elems):
    N_a = ideal_submodule(ring, gens_a)
    N_b = ideal_submodule(ring, gens_b)
    N_a_copy = ideal_submodule(ring, gens_a)
    assert N_a_copy is not N_a and N_a_copy.gens == N_a.gens
    return [(N, u) for N in (N_a, N_b, N_a, N_a_copy, N_b) for u in elems]


@pytest.mark.parametrize("case", ["segre", "veronese4"])
def test_member_slot_agrees_with_fresh_closure(request, case):
    if case == "segre":
        ring = request.getfixturevalue("segre")
        S = ideal_as_module(ring, ["a", "b"])
        queries = _slot_queries(ring, ["a^2", "a*b", "b*c", "c^2"],
                                ["a", "c"], ["a*c", "a", "b", "b^2"])
    else:
        ring = request.getfixturevalue("veronese4")
        S = request.getfixturevalue("s2_module")
        queries = _slot_queries(ring, ["a"], ["d"],
                                ["b^2", "b", "c^2", "a*d"])
    cl = ModuleClosure(S)
    R1 = ring_as_module(ring)
    seen = set()
    for N, u in queries:
        v = R1.vec([u])
        for want in (False, True):
            got = cl.member(v, N, want_certificate=want)
            ref = ModuleClosure(S).member(v, N, want_certificate=want)
            assert (got.holds, got.certificate) == \
                (ref.holds, ref.certificate), (N.gens, u, want)
            seen.add(got.holds)
        if u == queries[0][1]:
            assert cl.closure(N).gens == ModuleClosure(S).closure(N).gens
    assert seen == {True, False}


def test_member_checks_ring_after_slot_hit(segre, kxy):
    cl = ModuleClosure(ideal_as_module(segre, ["a", "b"]))
    gens = ["a^2", "a*b", "b*c", "c^2"]
    assert ideal_member(cl, segre, "a*c", gens).holds
    assert ideal_member(cl, segre, "a*c", gens).holds
    with pytest.raises(ContextError):
        ideal_member(cl, kxy, "x", ["x^2"])
    assert ideal_member(cl, segre, "a*c", gens).holds


# --- axiom checkers ---------------------------------------------------------------------------


def test_faithfulness_of_s2_closure(veronese4, s2_module):
    assert check_faithfulness(ModuleClosure(s2_module), veronese4).holds


def test_faithfulness_of_integral_closure(kxy):
    assert check_faithfulness(MonomialIntegralClosure(), kxy).holds


def test_functoriality_instance(segre):
    M = ideal_as_module(segre, ["a", "b"])
    clM = ModuleClosure(M)
    R1 = ring_as_module(segre)
    RJ = quotient_module(segre, ["a"])
    f = ModuleMap(R1, RJ, [["1"]], check=False)
    N = ideal_submodule(segre, ["a^2", "a*b", "b*c", "c^2"])
    assert check_functoriality(clM, f, N).holds


def test_semi_residuality_instance(segre):
    M = ideal_as_module(segre, ["a", "b"])
    clM = ModuleClosure(M)
    N = closure_of_ideal(clM, segre, ["a^2", "a*b", "b*c", "c^2"])
    out = check_semi_residuality(clM, N)
    assert out.holds and not out.note


def test_semi_residuality_vacuous_when_not_closed(segre):
    M = ideal_as_module(segre, ["a", "b"])
    clM = ModuleClosure(M)
    N = ideal_submodule(segre, ["a^2", "a*b", "b*c", "c^2"])  # not closed
    out = check_semi_residuality(clM, N)
    assert out.holds and "vacuous" in out.note


def test_closure_bound_by_n_plus_mm(veronese4, s2_module):
    # faithful module closure: N^cl inside N + mM
    clS = ModuleClosure(s2_module)
    N = ideal_submodule(veronese4, ["a"])
    C = clS.closure(N)
    R1 = ring_as_module(veronese4)
    bound = N.sum(Submodule(R1, tuple(
        scaled_gens(R1, veronese4.maximal_ideal_gens()))))
    for g in C.gens:
        assert bound.contains(g)


# --- colon capturing -----------------------------------------------------------------------------


def test_plain_colon_capturing(kxy, veronese4, s2_module):
    assert check_colon_capturing(TrivialClosure(), kxy, ["x", "y"],
                                 "plain").holds
    out = check_colon_capturing(TrivialClosure(), veronese4, ["a", "d"],
                                "plain")
    assert not out.holds and str(out.witness) == "b^2"
    assert check_colon_capturing(ModuleClosure(s2_module), veronese4,
                                 ["a", "d"], "plain").holds


def test_strong_colon_capturing_variants(veronese4, s2_module):
    clS = ModuleClosure(s2_module)
    assert check_colon_capturing(clS, veronese4, ["a", "d"], "strongB").holds
    for t in (1, 2, 3):
        for a in range(t):
            assert check_colon_capturing(clS, veronese4, ["a", "d"],
                                         "strongA", t=t, a=a).holds


def test_colon_capturing_rejects_non_sop(segre):
    with pytest.raises(DomainError):
        check_colon_capturing(TrivialClosure(), segre, ["a", "b"], "plain")


def test_strong_a_validates_exponents(veronese4, s2_module):
    with pytest.raises(DomainError):
        check_colon_capturing(ModuleClosure(s2_module), veronese4,
                              ["a", "d"], "strongA", t=1, a=1)


# --- generalized colon capturing --------------------------------------------------------------------


def test_gcc_canonical_regular_case(kxy):
    assert check_generalized_colon_capturing(TrivialClosure(), kxy,
                                             ["x", "y"]).holds


def test_gcc_veronese_s2(veronese4, s2_module):
    assert check_generalized_colon_capturing(ModuleClosure(s2_module),
                                             veronese4, ["a", "d"]).holds


class EverythingOnRankTwo(ClosureOp):
    """Negative control: identity on rank-one covers, everything elsewhere.

    Deliberately not a closure operation; the checkers must catch it.
    """

    name = "broken-rank2"

    def member(self, u, N):
        from closurelab.closure import MembershipOutcome
        if N.module.ngens == 1:
            return MembershipOutcome(N.contains(u))
        return MembershipOutcome(True)

    def closure(self, N):
        if N.module.ngens == 1:
            return Submodule(N.module, N.gens)
        return N.module.full_submodule()


class PrincipalBlowup(ClosureOp):
    """Negative control: principal submodules close to everything."""

    name = "broken-principal"

    def member(self, u, N):
        from closurelab.closure import MembershipOutcome
        if len(N.gens) <= 1:
            return MembershipOutcome(True)
        return MembershipOutcome(N.contains(u))

    def closure(self, N):
        if len(N.gens) <= 1:
            return N.module.full_submodule()
        return Submodule(N.module, N.gens)


def test_functoriality_detects_rank_two_blowup(kxy):
    # projection R^2 -> R sends the fake closure of 0 (everything) outside
    # the closure of 0 in R (which is 0)
    R2 = free_module(kxy, (0, 0))
    R1 = ring_as_module(kxy)
    f = ModuleMap(R2, R1, [["1"], ["0"]], check=False)
    out = check_functoriality(EverythingOnRankTwo(), f, R2.zero_submodule())
    assert not out.holds


def test_gcc_detects_broken_closure(kxyz):
    # canonical instance over k[x,y,z], J = (x,y), v = z: (Rv)^cl blows up
    # to everything, but (Jv)^cl = (xz, yz) stays put and misses ker f
    out = check_generalized_colon_capturing(
        PrincipalBlowup(), kxyz, ["x", "y", "z"])
    assert not out.holds
    assert out.witness is not None


def test_gcc_validates_preconditions(kxy):
    R1 = ring_as_module(kxy)
    RJ = quotient_module(kxy, ["x"])
    f = ModuleMap(R1, RJ, [["1"]], check=False)
    with pytest.raises(DomainError):
        check_generalized_colon_capturing(
            TrivialClosure(), kxy, ["x", "y"], M=R1, f=f, v=R1.vec(["x"]))


# --- phantom extensions ----------------------------------------------------------------------------


def test_split_extension_is_phantom(segre):
    inst = PhantomInstance.from_module(free_module(segre, (0, 2)))
    assert phantom_test(TrivialClosure(), inst).holds


def test_parameter_modification_phantom(veronese4, s2_module):
    Mp = FPModule(veronese4, (0, 4), [["b^2", "a"]])
    inst = PhantomInstance.from_module(Mp)
    assert phantom_test(ModuleClosure(s2_module), inst).holds
    assert not phantom_test(TrivialClosure(), inst).holds


def test_top_row_already_in_span_is_phantom(kxy):
    # relation column (x, x): top row x lies in the span of row 2
    M = FPModule(kxy, (0, 0), [["x", "x"]])
    inst = PhantomInstance.from_module(M)
    assert phantom_test(TrivialClosure(), inst).holds


# --- obstruction and triviality --------------------------------------------------------------------


def test_dietz_obstruction_values(kxy):
    assert dietz_obstruction(MonomialIntegralClosure(), kxy,
                             ["x", "y"], 3) == 1
    assert dietz_obstruction(TrivialClosure(), kxy, ["x", "y"], 3) is None


def test_obstruction_in_three_variables(kxyz):
    assert dietz_obstruction(MonomialIntegralClosure(), kxyz,
                             ["x", "y", "z"], 2) == 1


def test_trivial_on_sample_free_closure(segre):
    sample = sample_ideals(segre, 10, seed=42)
    free_cl = ModuleClosure(free_module(segre, (0, 1)))
    assert is_trivial_on_sample(free_cl, sample).holds


def test_nontrivial_closure_detected(segre):
    M = ideal_as_module(segre, ["a", "b"])
    clM = ModuleClosure(M)
    special = ideal_submodule(segre, ["a^2", "a*b", "b*c", "c^2"])
    out = is_trivial_on_sample(clM, [special])
    assert not out.holds
    _N, g = out.witness
    assert str(g.component(0)) == "a*c"


def test_syz2_closure_nontrivial_on_quadric(segre):
    Z = residue_field(segre).syzygy(2)
    cl = ModuleClosure(Z)
    special = ideal_submodule(segre, ["a^2", "a*b", "b*c", "c^2"])
    out = is_trivial_on_sample(cl, [special])
    assert not out.holds


def test_obstruction_absent_for_s2_closure(veronese4, s2_module):
    # exhaustive check t <= 3: the S2-module closure shows no obstruction,
    # as expected for the closure of a maximal Cohen-Macaulay module
    clS = ModuleClosure(s2_module)
    assert dietz_obstruction(clS, veronese4, ["a", "d"], 3) is None


def test_obstruction_absent_for_trivial_on_regular(kxyz):
    assert dietz_obstruction(TrivialClosure(), kxyz,
                             ["x", "y", "z"], 3) is None


def test_cubic_cone_height_one_example():
    # R = k[x,y,z]/(x^3+y^3+z^3): (x, y+z) is a height-one prime of depth 1
    # with x(y+z) outside (x, y+z)^2, so the products I(x,u) and J(x,u)
    # agree for I = (x^2, u^2), J = (x^2, xu, u^2), u = y+z, and the module
    # closure of (x, u) identifies the two ideals.
    from closurelab.field import QQ
    from closurelab.orders import DEGREVLEX
    from closurelab.poly import PolyRing
    from closurelab.ring import make_quotient_ring
    amb = PolyRing(("x", "y", "z"), QQ, DEGREVLEX)
    R = make_quotient_ring(amb, [amb.parse("x^3 + y^3 + z^3")])
    assert R.dim == 2
    M = ideal_as_module(R, ["x", "y + z"])
    # xu is genuinely outside (x^2, u^2)
    I = ideal_submodule(R, ["x^2", "y^2 + 2*y*z + z^2"])
    assert not I.contains(ring_as_module(R).vec(["x*y + x*z"]))
    clM = ModuleClosure(M)
    CI = clM.closure(I)
    assert CI.contains(ring_as_module(R).vec(["x*y + x*z"]))
    J = ideal_submodule(R, ["x^2", "x*y + x*z", "y^2 + 2*y*z + z^2"])
    assert CI.same_as(clM.closure(J))


def test_module_closure_inside_integral_closure_on_monomial_ideals(kxy):
    # ideal-module closures over a domain land inside integral closure:
    # every generator of I^cl_S must pass the Newton-polyhedron test
    import random
    from closurelab.sampling import sample_monomial_ideals, random_ideal_gens
    rng = random.Random(314)
    samples = sample_monomial_ideals(kxy, 8, seed=314)
    for N in samples:
        betas = [next(iter(g.component(0).terms)) for g in N.gens]
        S = ideal_as_module(kxy, random_ideal_gens(kxy, rng, 2, 2))
        closed = ModuleClosure(S).closure(N)
        for g in closed.gens:
            for (_c, exps) in g.terms:
                assert newton_polyhedron_member(exps, betas), \
                    (g, [str(x.component(0)) for x in N.gens])


def test_zero_submodule_closure_torsion_free(segre):
    # torsion-free S: the closure of 0 in R stays 0
    S = ideal_as_module(segre, ["a", "b"])
    R1 = ring_as_module(segre)
    assert ModuleClosure(S).closure(R1.zero_submodule()).same_as(
        R1.zero_submodule())


def test_zero_submodule_closure_with_torsion(segre):
    # S = R/(a) has torsion: the closure of 0 in R becomes (a)
    S = quotient_module(segre, ["a"])
    R1 = ring_as_module(segre)
    closed = ModuleClosure(S).closure(R1.zero_submodule())
    assert closed.same_as(ideal_submodule(segre, ["a"]))


def test_full_closures_under_s2(veronese4, s2_module):
    clS = ModuleClosure(s2_module)
    expect = {
        ("a",): {"a", "b^2"},
        ("d",): {"c^2", "d"},
        ("a", "d"): {"a", "b^2", "c^2", "d"},
    }
    for gens, want in expect.items():
        C = closure_of_ideal(clS, veronese4, list(gens))
        assert {str(g.component(0)) for g in C.gens} == want
