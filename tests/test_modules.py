"""FPModule layer: presentations, membership, tensor, kernels, resolutions."""

import itertools
import random
from collections import Counter

import pytest

from closurelab import gb, modules, poly
from closurelab import ring as ring_module
from closurelab.field import QQ, prime_field
from closurelab.gb import Vec, buchberger
from closurelab.orders import DEGREVLEX, ModuleOrder, wdegrevlex
from closurelab.poly import ContextError, DomainError, PolyRing, Polynomial
from closurelab.modules import (FPModule, ModuleMap, Submodule, direct_sum,
                                free_module, ideal_as_module,
                                ideal_submodule, is_regular_sequence,
                                minimal_generators, quotient_module,
                                residue_field, ring_as_module, scaled_gens,
                                tensor, tensor_elem)
from closurelab.ring import (QuotientRing, make_quotient_ring,
                             presented_subring)
from closurelab.sampling import random_homogeneous_elem, random_ideal_gens

from oracles import (as_keyfn, brute_member, brute_syzygies_complete,
                     graded_dim_of_span, greedy_minimal_generators,
                     ideal_columns, module_graded_dim, outside_later_spans,
                     random_submodule_pair, ref_certificate,
                     ref_colon_preimage, ref_decoded_rows,
                     ref_distinct_monic, ref_ideal_normal_form,
                     ref_intersect_preimage, ref_kernel_preimage,
                     ref_monic_vec, ref_span_basis, ref_syzygy_basis,
                     same_presentation, to_kernel, tuple_lead_nf,
                     vec_minimal_generators, vec_minimal_presentation,
                     vec_resolution, vec_syzygies, verify_resolution)


# --- ideal_as_module ---------------------------------------------------------------


def test_ideal_module_quadric(segre):
    M = ideal_as_module(segre, ["a", "b"])
    assert M.ngens == 2
    assert M.gen_degrees == (2, 2)
    rel_strs = {str(r) for r in M.relations}
    assert rel_strs == {"(-b, a)", "(-c, b)"}
    cols = [Vec.from_polys([segre.elem("a").poly]),
            Vec.from_polys([segre.elem("b").poly])]
    assert brute_syzygies_complete(segre, cols, 1, list(M.relations), 8)


def test_ideal_module_principal_is_free(kxy):
    M = ideal_as_module(kxy, ["x"])
    assert M.ngens == 1 and M.relations == ()


def test_ideal_module_xyuv(xyuv):
    M = ideal_as_module(xyuv, ["x", "u"])
    # y*x - v*u = xy - uv = 0: the column (y, -v) must lie in the relations
    rel_span = M.zero_submodule().sum(Submodule(M, M.relations))
    assert rel_span.contains(M.vec(["y", "-v"]))
    assert rel_span.contains(M.vec(["u", "-x"]))
    assert not rel_span.contains(M.vec(["y", "-u"]))


def test_ideal_module_rejects_zero_generator(segre):
    with pytest.raises(DomainError):
        ideal_as_module(segre, ["a", "b^2 - a*c"])


# --- membership with certificates -----------------------------------------------------


def test_membership_certificate_example(segre):
    M = ideal_as_module(segre, ["a", "b"])
    I = [segre.elem(t) for t in ("a^2", "a*b", "b*c", "c^2")]
    IM = Submodule(M, tuple(scaled_gens(M, I)))
    u = M.vec(["a*c", "0"])     # the element a^2 c of the ideal
    assert IM.contains(u)
    cert = IM.certificate(u)
    assert cert is not None
    # recombination: certificate times generators equals u modulo relations
    gens = list(IM.gens)
    acc = Vec.zero(segre.ambient, M.ngens)
    for c, g in zip(cert, gens):
        acc = acc + g.scale(c.poly)
    assert M.element_is_zero(acc - u)


def test_certificate_with_no_generators_and_no_relations():
    """ideal(R, x) over Q[x,y]/(x) has no generators, and R has no
    relations: the certificate needs no run, and is empty for a member."""
    P = PolyRing(("x", "y"), QQ, DEGREVLEX)
    R = make_quotient_ring(P, [P.parse("x")])
    I = ideal_submodule(R, ["x"])
    assert I.gens == ()
    assert I.certificate(I.module.vec(["x"])) == []
    assert I.certificate(I.module.vec(["0"])) == []
    assert I.certificate(I.module.vec(["y"])) is None


def test_membership_degree_obstruction(kxy):
    N = ideal_submodule(kxy, ["x^2", "y^2"])
    assert not N.contains(ring_as_module(kxy).vec(["x"]))


def test_relation_column_is_zero_in_module(segre):
    M = ideal_as_module(segre, ["a", "b"])
    for col in M.relations:
        assert M.element_is_zero(col)


# --- tensor ----------------------------------------------------------------------------


def test_tensor_unit_law(segre):
    M = ideal_as_module(segre, ["a", "b"])
    R1 = ring_as_module(segre)
    assert same_presentation(tensor(R1, M), M)
    assert same_presentation(tensor(M, R1), M)
    assert same_presentation(tensor(R1, M).minimal_presentation(),
                             M.minimal_presentation())


def test_tensor_of_cyclic_modules(kxy):
    A = quotient_module(kxy, ["x^2"])
    B = quotient_module(kxy, ["y^3", "x*y"])
    assert same_presentation(tensor(A, B),
                             quotient_module(kxy, ["x^2", "y^3", "x*y"]))


def test_tensor_annihilator_example(segre):
    # (a,b) (x) R/(a): the generator images are killed by (a)
    M = ideal_as_module(segre, ["a", "b"])
    B = quotient_module(segre, ["a"])
    T = tensor(M, B)
    a = segre.elem("a")
    for i in range(T.ngens):
        assert T.element_is_zero(T.gen(i).scale(a.poly))


def test_tensor_dimension_against_ideal_arithmetic(segre):
    # T = (a,b) (x) R/(a) = M/aM with M the ideal (a,b): the degreewise
    # dimension must match dim (a,b)_d - dim (a*(a,b))_d, both computed by
    # raw span row-reduction on ideals.
    M = ideal_as_module(segre, ["a", "b"])
    B = quotient_module(segre, ["a"])
    T = tensor(M, B)
    num = [Vec.from_polys([segre.elem(t).poly]) for t in ("a", "b")]
    den = [Vec.from_polys([segre.elem(t).poly]) for t in ("a^2", "a*b")]
    for d in range(0, 7):
        expected = graded_dim_of_span(segre, num, (0,), d) - \
            graded_dim_of_span(segre, den, (0,), d)
        assert module_graded_dim(T, d) == expected


def test_tensor_right_exactness_random(kxy):
    # tensor(S, M/N) == tensor(S, M) / im(tensor(S, N)) on small instances
    rng = random.Random(17)
    for _ in range(6):
        i, j = rng.randint(1, 2), rng.randint(1, 2)
        S = quotient_module(kxy, [f"x^{i}"])
        M = ring_as_module(kxy)
        N = ideal_submodule(kxy, [f"y^{j}"])
        lhs = tensor(S, M.quotient_by(N))
        T = tensor(S, M)
        image_cols = [tensor_elem(S, M, p, n)
                      for p in range(S.ngens) for n in N.gens]
        rhs = T.quotient_by(T.submodule(image_cols))
        assert same_presentation(lhs, rhs)


# --- maps, kernels, images ---------------------------------------------------------------


def test_kernel_of_multiplication_is_zero_on_domain(kxy):
    R1 = ring_as_module(kxy)
    f = ModuleMap(R1, R1, [["x"]])
    assert f.kernel().gens == ()


def test_kernel_matches_syzygies(segre):
    F = free_module(segre, (2, 2))
    R1 = ring_as_module(segre)
    f = ModuleMap(F, R1, [["a"], ["b"]])
    K = f.kernel()
    expected = F.submodule([["b", "-a"], ["c", "-b"]])
    assert K.same_as(expected)


def test_image_of_zero_map(segre):
    F = free_module(segre, (0,))
    z = ModuleMap(F, F, [["0"]])
    assert z.image().same_as(F.zero_submodule())


def test_ill_defined_map_rejected(segre):
    M = quotient_module(segre, ["a"])      # R/(a)
    R1 = ring_as_module(segre)
    with pytest.raises(DomainError):
        ModuleMap(M, R1, [["1"]])          # 1 * a != 0 in R


def test_colon_in_module(veronese4, kxy):
    Ia = ideal_submodule(veronese4, ["a"])
    C = Ia.colon_elem("d")
    R1 = Ia.module
    assert C.contains(R1.vec(["b^2"]))
    assert not Ia.contains(R1.vec(["b^2"]))
    # ((x) : y) = (x) in k[x,y]
    Ix = ideal_submodule(kxy, ["x"])
    assert Ix.colon_elem("y").same_as(Ix)
    # ((0) :_F x) = 0 for free F
    F = free_module(kxy, (0, 1))
    assert F.zero_submodule().colon_elem("x").same_as(F.zero_submodule())


# --- regular sequences ----------------------------------------------------------------


def test_regular_sequence_on_regular_ring(kxy):
    assert is_regular_sequence(["x", "y"], ring_as_module(kxy)).ok


def test_regular_sequence_fails_on_veronese4(veronese4):
    res = is_regular_sequence(["a", "d"], ring_as_module(veronese4))
    assert not res.ok
    assert res.fail_index == 1
    assert str(res.witness.component(0)) == "b^2"


def test_regular_sequence_on_s2_module(veronese4, s2_module):
    assert is_regular_sequence(["a", "d"], s2_module).ok


def test_regular_sequence_detects_m_equal_xsm(kxy):
    # M = R/(x, y): both parameters act as zero and M = (x,y)M fails
    M = quotient_module(kxy, ["x", "y"])
    res = is_regular_sequence(["x", "y"], M)
    assert not res.ok


# --- minimal generators ------------------------------------------------------------------


def _redundant_gens(M, rng):
    """Random generators inside m M, plus copies, multiples and sums."""
    base = [g for _ in range(4)
            for g in random_submodule_pair(M, rng, max_deg=4).gens
            if all(any(m) for (_j, m) in g.terms)]
    gens = list(base)
    for g in base:
        gens.append(g.scale(rng.choice(M.ring.ambient.gens())))
        gens.append(g)
    for g, h in zip(base, base[1:]):
        if g.degree(M.gen_degrees) == h.degree(M.gen_degrees):
            gens.append(g + h)
    rng.shuffle(gens)
    return gens


def _minimalization_modules(kxy, segre):
    """R, R/I and a module with relations, over a polynomial ring and over
    the quadric cone."""
    return [ring_as_module(kxy), quotient_module(kxy, ["x^2", "x*y"]),
            FPModule(kxy, (0, 1), [["x*y", "y"]]), ring_as_module(segre),
            quotient_module(segre, ["a"]), free_module(segre, (0, 2))]


def test_minimalized_keeps_nakayama_count_per_degree(kxy, segre):
    rng = random.Random(20)
    modules = _minimalization_modules(kxy, segre)
    for trial in range(12):
        M = modules[trial % len(modules)]
        ring, shifts, rels = M.ring, M.gen_degrees, list(M.relations)
        gens = _redundant_gens(M, rng)
        kept = Submodule(M, tuple(gens)).minimalized().gens
        m_gens = [g.scale(v) for g in gens for v in ring.ambient.gens()]
        for d in range(0, 10):
            expected = (graded_dim_of_span(ring, gens + rels, shifts, d)
                        - graded_dim_of_span(ring, m_gens + rels, shifts, d))
            got = sum(1 for g in kept if g.degree(M.gen_degrees) == d)
            assert got == expected, (trial, d)
        for g in gens:
            assert brute_member(ring, list(kept) + rels, shifts, g), trial
        for g in kept:
            assert brute_member(ring, gens + rels, shifts, g), trial


def _segre_f5():
    amb = PolyRing(("a", "b", "c"), prime_field(5), wdegrevlex((2, 2, 2)))
    return make_quotient_ring(amb, [amb.parse("a*c - b^2")])


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_minimal_generators_match_greedy_oracle(request, field):
    """Per-degree minimalization keeps the very list the greedy routine
    (one R-span basis per candidate) keeps; the Q inputs are those of
    test_minimalized_keeps_nakayama_count_per_degree."""
    if field == "Q":
        kxy, segre = (request.getfixturevalue(n) for n in ("kxy", "segre"))
        rng = random.Random(20)
    else:
        kxy, segre = request.getfixturevalue("kxy_f5"), _segre_f5()
        rng = random.Random(21)
    mods = _minimalization_modules(kxy, segre)
    for trial in range(12):
        M = mods[trial % len(mods)]
        gens = _redundant_gens(M, rng)
        want = greedy_minimal_generators(M.ring, gens, M.gen_degrees,
                                         M.relations)
        assert minimal_generators(M, modules._vec_rows(M, gens)) == want, \
            trial
        assert list(Submodule(M, tuple(gens)).minimalized().gens) == want


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_minimal_generators_on_rows_match_the_vec_routine(request, field):
    """minimal_generators, its candidates kernel rows, keeps the very list
    the routine on Vecs keeps (oracles.vec_minimal_generators): on random
    candidate lists with copies, multiples and sums, made rows at the Vec
    edge (_vec_rows), and handed over canonical, as the encoded distinct
    monic normal forms a preimage run would hand out; in modules with and
    without relations, over Q and F5."""
    if field == "Q":
        kxy, segre = (request.getfixturevalue(n) for n in ("kxy", "segre"))
    else:
        kxy, segre = request.getfixturevalue("kxy_f5"), _segre_f5()
    rng = random.Random(f"rows-vs-vecs-{field}")
    shapes = Counter()
    for trial in range(24):
        M = _minimalization_modules(kxy, segre)[trial % 6]
        amb = M.ring.ambient
        gens = _redundant_gens(M, rng)
        want = vec_minimal_generators(M, gens)
        assert minimal_generators(M, modules._vec_rows(M, gens)) == want, \
            trial
        canonical = ref_distinct_monic(M.ring, gens)
        key = ModuleOrder(amb.order).term_key
        rows = []
        for v in canonical:
            terms = to_kernel(v.terms, amb.field.char, amb.code)[0]
            terms = dict(sorted(terms.items(), key=lambda t: key(t[0]),
                                reverse=True))
            rows.append((*gb._normalize(terms, amb.field.char), terms))
        assert minimal_generators(M, rows) == want, trial
        shapes["relations" if M.relations else "free"] += 1
        shapes["pruned"] += len(want) < len(canonical)
    assert shapes["relations"] and shapes["free"] and shapes["pruned"] > 12


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_minimal_generators_keep_what_the_field_value_scan_keeps(
        request, field, monkeypatch):
    """The integer echelon behind minimal_generators flags every degree
    block, its normal forms as int kernel terms, as the field-value scan
    flags them read as field values, so the kept sets are equal."""
    if field == "Q":
        kxy, segre = (request.getfixturevalue(n) for n in ("kxy", "segre"))
    else:
        kxy, segre = request.getfixturevalue("kxy_f5"), _segre_f5()
    rng = random.Random(f"echelon-{field}")
    mods = _minimalization_modules(kxy, segre)
    real = modules._outside_later_spans
    blocks = []

    def reference(forms, ring):
        fld = ring.field
        flags = outside_later_spans(
            [{t: fld.from_int(c) for t, c in f.items()} for f in forms], fld)
        assert real(forms, ring) == flags
        blocks.append(len(forms))
        return flags

    for trial in range(12):
        M = mods[trial % len(mods)]
        gens = _redundant_gens(M, rng)
        rows = modules._vec_rows(M, gens)
        got = minimal_generators(M, rows)
        with monkeypatch.context() as patch:
            patch.setattr(modules, "_outside_later_spans", reference)
            assert minimal_generators(M, rows) == got, trial
    assert sum(n > 1 for n in blocks) > 12


def test_minimalized_builds_one_span_per_degree_block(kxy, monkeypatch):
    calls = []
    real = modules.r_span_basis

    def counting(M, cols):
        calls.append((M, len(cols)))
        return real(M, cols)

    monkeypatch.setattr(modules, "r_span_basis", counting)
    texts = ["x^2", "x^3", "x*y^2", "x^2*y", "y^4", "x^2*y^2", "x*y^3"]
    N = ideal_submodule(kxy, texts)
    kept = [str(g) for g in N.minimalized().gens]
    assert kept == ["(x^2)", "(x*y^2)", "(y^4)"]
    # blocks of degree 3 and 4, each span of the candidates kept before it
    assert calls == [(N.module, 1), (N.module, 2)]
    calls.clear()
    M = FPModule(kxy, (0, 1), [["x*y", "y"]])
    gens = tuple(M.vec([t, "0"]) for t in texts)
    Submodule(M, gens).minimalized()
    # the relations in the free cover, then degrees 3 and 4, seeded with
    # the relations' basis: the relations are not input columns again
    assert calls == [(free_module(kxy, (0, 1)), 1), (M, 1), (M, 2)]
    calls.clear()
    Submodule(M, gens).minimalized()
    assert calls == [(M, 1), (M, 2)]    # the relations' basis is M's memo


@pytest.mark.parametrize("extended", [False, True], ids=["span", "extended"])
def test_output_basis_is_not_converted_back_into_the_kernel(
        segre, monkeypatch, extended):
    """An input column made of polynomials is never encoded: from_polys
    relabels their kernel terms, and the column enters the integer kernel
    as it is, in the run (span) or where the block columns are assembled
    (extended); the output basis is built from the kernel rows and never
    decoded or encoded again.  Span and certificate runs take the ideal
    from the ring's kernel rows, as their seed, not as input columns."""
    calls = []

    def counting(real):
        def call(*args):
            calls.append(real.__name__)
            return real(*args)
        return call

    for name in ("_encoded", "_from_kernel"):
        monkeypatch.setattr(poly, name, counting(getattr(poly, name)))
    cols = [Vec.from_polys([segre.ambient.parse(t)])
            for t in ("a^2", "a*b", "b*c")]
    assert calls == []
    if extended:
        out = Submodule(ring_as_module(segre), tuple(cols)).ext
        # the seeded block basis holds I P^3 on the three value components
        assert len(out) == 10
    else:
        out = modules.r_span_basis(ring_as_module(segre), cols)
        assert len(out) == 5
    assert len(list(out)) == len(out)   # its Vecs are its rows' terms
    assert calls == []


# --- seeded span bases against the unseeded reference ------------------------------


def _span_rings(field):
    """The cone, xy = uv, the Veronese-4 ring and k[x, y] over the field."""
    fld = QQ if field == "Q" else prime_field(5)
    cone = PolyRing(("a", "b", "c"), fld, wdegrevlex((2, 2, 2)))
    xyuv = PolyRing(("x", "y", "u", "v"), fld, DEGREVLEX)
    target = PolyRing(("x", "y"), fld, DEGREVLEX)
    veronese = presented_subring(
        [target.parse(t) for t in ("x^4", "x^3*y", "x*y^3", "y^4")],
        names=("a", "b", "c", "d"), target_ring=target)
    return [make_quotient_ring(cone, [cone.parse("a*c - b^2")]),
            make_quotient_ring(xyuv, [xyuv.parse("x*y - u*v")]),
            veronese, make_quotient_ring(target, [])]


def _kernel_rows(basis):
    """A basis's kernel rows with the order of their terms."""
    return [(c, e, lc, list(terms.items())) for c, e, lc, terms in
            basis._rows]


def _span_inputs(M, rng):
    """Random homogeneous columns of M's cover with zero, duplicate and
    redundant ones among them: multiples, sums and relation columns."""
    amb = M.ring.ambient
    if M.ngens == 0:
        return [Vec.zero(amb, 0)] * rng.randint(0, 2)
    cols = [g for _ in range(rng.randint(1, 3))
            for g in random_submodule_pair(M, rng, max_deg=4).gens]
    for g in list(cols):
        choice = rng.randrange(3)
        if choice == 0:
            cols.append(g)
        elif choice == 1:
            cols.append(g.scale(rng.choice(amb.gens())))
        else:
            cols.append(g.scale(amb.const(3)))
    for g, h in zip(cols, cols[1:]):
        if g.degree(M.gen_degrees) == h.degree(M.gen_degrees):
            cols.append(g - h)
    cols += list(M.relations[:1]) + [Vec.zero(amb, M.ngens)]
    rng.shuffle(cols)
    return cols


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_seeded_span_rows_match_the_unseeded_reference(field):
    """r_span_basis, seeded with the module's relation basis, ends with the
    kernel rows, term order included, of one unseeded run on the columns,
    the relations and the ideal on every component."""
    rng = random.Random(f"seeded-span-{field}")
    shapes = {"free": 0, "relations": 0, "empty": 0}
    for ring in _span_rings(field):
        for ncomps in range(4):
            for trial in range(3):
                degrees = tuple(rng.randint(0, 2) for _ in range(ncomps))
                M = free_module(ring, degrees)
                if ncomps and trial:
                    rels = [g for _ in range(trial)
                            for g in random_submodule_pair(M, rng).gens]
                    M = FPModule(ring, degrees, rels)
                cols = _span_inputs(M, rng)
                got = modules.r_span_basis(M, cols)
                want = ref_span_basis(ring, cols + list(M.relations), ncomps)
                assert _kernel_rows(got) == _kernel_rows(want), (
                    ring, degrees, trial)
                shapes["relations" if M.relations else "free"] += 1
                shapes["empty"] += not want._rows
    assert min(shapes.values()) > 0 and shapes["relations"] >= 12, shapes


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_seeded_preimages_match_the_block_diagonal_reference(field,
                                                             raw_preimage):
    """intersect, colon_elem and kernel, each by one preimage run seeded
    with a span basis, hand to minimalization the generators, in order, of
    one block-diagonal elimination with the ideal as input columns; on
    random homogeneous inputs in free modules and modules with relations
    of rank 0-3, zero submodules and maps into the zero module among them."""
    rng = random.Random(f"seeded-preimage-{field}")
    empty = 0
    for ring in _span_rings(field):
        amb = ring.ambient
        for ncomps in range(4):
            for trial in range(3):
                degrees = tuple(rng.randint(0, 2) for _ in range(ncomps))
                M = free_module(ring, degrees)
                if ncomps and trial:
                    M = FPModule(ring, degrees,
                                 random_submodule_pair(M, rng).gens)
                A, B = (random_submodule_pair(M, rng, max_gens=3)
                        if ncomps and trial < 2 else M.zero_submodule()
                        for _ in range(2))
                got, runs = raw_preimage(lambda: A.intersect(B))
                assert got == ref_intersect_preimage(A, B), (M, A.gens)
                assert len(runs) == bool(A.gens or M.relations)
                x = random_homogeneous_elem(ring, rng.randint(1, 2), rng)
                x = x if x is not None else ring.elem(amb.gens()[0])
                got, runs = raw_preimage(lambda: A.colon_elem(x))
                assert got == ref_colon_preimage(A, x), (M, A.gens, x)
                assert len(runs) == bool(ncomps)
                cols = list(A.gens + B.gens + M.relations[:1])
                if not ncomps:
                    cols = [Vec.zero(amb, 0)] * trial
                source = free_module(ring, [max(c.degree(M.gen_degrees), 0)
                                            for c in cols])
                f = ModuleMap(source, M, cols)
                got, runs = raw_preimage(f.kernel)
                assert got == ref_kernel_preimage(f), (M, cols)
                assert len(runs) == bool(cols)
                empty += not got
    assert empty >= 4, empty


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_preimage_runs_match_the_filtered_block_basis(field,
                                                      preimages_vs_reference):
    """The eliminating runs of random intersections, colons, kernels and
    syzygies hand back the value block of the whole block basis, kernel
    row for kernel row, and r_preimage makes of its rows the generators
    the Vec-level routine makes of its decoded Vecs.  Rows that an ideal
    lead reaches come up, and among them rows that vanish modulo I."""
    rng = random.Random(f"value-block-{field}")
    for ring in _span_rings(field):
        for ncomps in range(1, 4):
            degrees = tuple(rng.randint(0, 2) for _ in range(ncomps))
            M = free_module(ring, degrees)
            if ncomps > 1:
                M = FPModule(ring, degrees,
                             random_submodule_pair(M, rng).gens)
            A, B = (random_submodule_pair(M, rng, max_gens=3)
                    for _ in range(2))
            A.intersect(B)
            x = random_homogeneous_elem(ring, rng.randint(1, 2), rng)
            A.colon_elem(x if x is not None else ring.gens()[0])
            cols = list(A.gens + B.gens)
            source = free_module(ring, [c.degree(M.gen_degrees)
                                        for c in cols])
            ModuleMap(source, M, cols).kernel()
            vec_syzygies(ring, cols, ncomps)
    seen = preimages_vs_reference()
    assert seen["calls"] >= 30 and seen["reached"] and seen["vanish"], seen


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_preimage_rows_equal_in_the_ring_give_one_generator(
        field, preimages_vs_reference):
    """In k[a,b,c]/(b^2 - ac), whose ideal lead is b^2, the intersection
    (a) meet (c), the preimage {r a : r a in (c)}, has the reduced basis
    {b^2, ac}: b^2 is ac in the ring, so one generator comes out.  The
    kernel of multiplication by a has the basis {b^2 - ac}, which
    vanishes in the ring, so none does."""
    fld = QQ if field == "Q" else prime_field(5)
    amb = PolyRing(("a", "b", "c"), fld, wdegrevlex((2, 2, 2)))
    R = make_quotient_ring(amb, [amb.parse("a*c - b^2")])
    R1 = ring_as_module(R)
    a, c = (R1.vec([t]) for t in ("a", "c"))
    span = R1.submodule([c]).span
    a = to_kernel(a.terms, fld.char, amb.code)[0]
    rows = modules.r_preimage(R, [a], [a], 1, span, 1)
    assert [str(g) for g in ref_decoded_rows(R, 1, rows)] == ["(a*c)"]
    assert modules.r_preimage(R, [a], [{(0, 0): 1}], 1,
                              R1.relation_basis(), 1) == []
    seen = preimages_vs_reference()
    assert (seen["calls"], seen["rows"], seen["reached"], seen["vanish"],
            seen["meet"]) == (2, 3, 2, 1, 1), seen


def _certificate_form(cert):
    """A certificate as strings and sorted terms, for strict comparison."""
    if cert is None:
        return None
    return [(str(c), sorted(c.poly.terms.items())) for c in cert]


def _combination(N, rng):
    """A random homogeneous combination of N's generators and its module's
    relations (zero when there are none)."""
    M = N.module
    acc = Vec.zero(M.ring.ambient, M.ngens)
    cols = list(N.gens) + list(M.relations)
    if not cols:
        return acc
    top = max(c.degree(M.gen_degrees) for c in cols) + rng.randint(0, 2)
    for c in cols:
        e = random_homogeneous_elem(M.ring, top - c.degree(M.gen_degrees),
                                    rng)
        if e is not None:
            acc = acc + c.scale(e.poly)
    return acc


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_certificates_match_the_extended_run(field):
    """Submodule.certificate, one block run on the generators and the
    relations seeded with I P^s, gives byte for byte the certificates of
    the extended run that takes the ideal as input columns: on members and
    random elements of random submodules of free modules and of modules
    with relations, submodules with no generators among them.  The rings
    are the cone, xy = uv and k[x, y]; inputs stay small, since the
    extended run can take minutes on larger ones."""
    rng = random.Random(f"certificates-{field}")
    seen = {"relations": 0, "no gens": 0, "member": 0, "other": 0}
    cone, xyuv, _veronese, kxy = _span_rings(field)
    for ring in (cone, xyuv, kxy):
        for ncomps in (1, 2):
            for trial in range(8):
                degrees = tuple(rng.randint(0, 1) for _ in range(ncomps))
                M = free_module(ring, degrees)
                if trial % 2:
                    M = FPModule(ring, degrees, random_submodule_pair(
                        M, rng, max_deg=4, max_gens=1).gens)
                N = (random_submodule_pair(M, rng, max_deg=4)
                     if trial % 4 < 3 else M.zero_submodule())
                probes = [_combination(N, rng)]
                probes += random_submodule_pair(M, rng, max_deg=4).gens
                for v in probes:
                    got = N.certificate(v)
                    assert _certificate_form(got) == _certificate_form(
                        ref_certificate(N, v)), (ring, M, N.gens, v)
                    seen["member" if got is not None else "other"] += 1
                seen["relations"] += bool(M.relations)
                seen["no gens"] += not N.gens
    assert min(seen.values()) >= 6, seen


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_certificate_reduces_nothing_modulo_the_ideal(field, monkeypatch):
    """ext holds I on every value component, so the value block of a
    normal form against it is reduced modulo I already: once ext is
    built, certificate makes no QuotientRing.nf call, and each of its
    coefficients is its own normal form.  Members of random submodules
    of free modules over the cone and over xy = uv."""
    rng = random.Random(f"certificate-nf-{field}")
    cone, xyuv, _veronese, _kxy = _span_rings(field)
    real_nf, calls, coeffs = QuotientRing.nf, [], []

    def counting(ring, value):
        calls.append(value)
        return real_nf(ring, value)

    for ring in (cone, xyuv):
        for _ in range(10):
            M = free_module(ring, (0, rng.randint(0, 1)))
            N = random_submodule_pair(M, rng, max_deg=4)
            v = _combination(N, rng)
            N.ext
            monkeypatch.setattr(QuotientRing, "nf", counting)
            cert = N.certificate(v)
            monkeypatch.setattr(QuotientRing, "nf", real_nf)
            assert calls == [] and cert is not None
            coeffs += [c for c in cert if c]
    assert all(c.ring.nf(c.poly) == c.poly for c in coeffs)
    assert len(coeffs) >= 20


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_syzygies_are_the_reduced_basis_of_the_syzygy_module(field):
    """The syzygy run, one preimage run of I P^s under the map the
    columns give, lists the distinct monic normal forms of the reduced
    TOP basis of {a : sum a_l c_l in I P^s}, which the extended run's
    syzygies, projected to the columns, generate."""
    rng = random.Random(f"syzygies-{field}")
    nonempty = 0
    cone, xyuv, _veronese, kxy = _span_rings(field)
    for ring in (cone, xyuv, kxy):
        for ncomps in (1, 2):
            for _trial in range(8):
                degrees = tuple(rng.randint(0, 1) for _ in range(ncomps))
                M = free_module(ring, degrees)
                cols = list(random_submodule_pair(M, rng, max_deg=4,
                                                  max_gens=3).gens)
                got = vec_syzygies(ring, cols, ncomps)
                want = ref_syzygy_basis(ring, cols, ncomps)
                assert [v.terms for v in got] == [v.terms for v in want], (
                    ring, cols)
                nonempty += bool(got)
    assert nonempty >= 6, nonempty


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_free_relation_basis_is_the_reduced_ideal_basis(field):
    """Built from the ring's kernel rows, without a run, it equals the run
    on the ideal columns row for row, under TOP and, moved past nreal real
    components, under the block order; the ring keeps one per rank and
    order, with its index."""
    for ring in _span_rings(field):
        amb = ring.ambient
        for n in range(4):
            for nreal in (None, 0, 2):
                offset = nreal or 0
                want = buchberger(
                    [c.pad(offset + n, offset=offset)
                     for c in ideal_columns(ring, n)], offset + n,
                    ModuleOrder(amb.order, nreal), amb)
                got = ring.free_relation_basis(n, nreal)
                assert got.order == want.order
                assert _kernel_rows(got) == _kernel_rows(want), (ring, n)
                assert [v.terms for v in got] == [v.terms for v in want]
                assert got is ring.free_relation_basis(n, nreal)
                assert got._leads_of is got._leads_of


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_stacked_seed_index_is_the_index_of_its_rows(field):
    """A block run's seed, a span basis stacked on the ring's ideal rows in
    the value components, has the rows and the index (rows by lead
    component, and (index, lead, lead mask) by lead component) of a
    basis built from the same rows."""
    rng = random.Random(f"stacked-{field}")
    for ring in _span_rings(field):
        amb = ring.ambient
        for ncomps in range(3):
            M = free_module(ring, [rng.randint(0, 2) for _ in range(ncomps)])
            span = modules.r_span_basis(
                M, random_submodule_pair(M, rng).gens if ncomps else [])
            for n in range(1, 3):
                lower = ring.free_relation_basis(n, ncomps)
                got = gb.GroebnerBasis.stacked(span, lower)
                want = gb.GroebnerBasis(amb, ncomps + n,
                                        ModuleOrder(amb.order, ncomps),
                                        span._rows + lower._rows)
                assert (got.ncomps, got.order) == (want.ncomps, want.order)
                assert got._rows == want._rows
                assert got._rows_of == want._rows_of
                assert got._leads_of == want._leads_of


def test_seed_of_another_order_ring_or_rank_is_refused(segre, kxy):
    amb = segre.ambient
    seed = segre.free_relation_basis(2)
    cols = [Vec.from_polys([amb.parse("a"), amb.parse("b")])]
    assert len(buchberger(cols, 2, ModuleOrder(amb.order), amb,
                          seed=seed)) == 3
    with pytest.raises(ValueError, match="seed"):
        buchberger(cols, 2, ModuleOrder(amb.order, 1), amb, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        buchberger([c.pad(3) for c in cols], 3, ModuleOrder(amb.order), amb,
                   seed=seed)
    other = kxy.ambient
    with pytest.raises(ValueError, match="seed"):
        buchberger([], 2, ModuleOrder(other.order), other,
                   seed=segre.free_relation_basis(2))


def test_greedy_minimal_generators_uses_the_reference(kxy, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the engine's span routine")

    monkeypatch.setattr(modules, "r_span_basis", refuse)
    gens = [Vec.from_polys([kxy.ambient.parse(t)])
            for t in ("x^2", "x^3", "x*y", "x^2*y")]
    kept = greedy_minimal_generators(kxy, gens, (0,))
    assert [str(g) for g in kept] == ["(x*y)", "(x^2)"]


def test_nf_reduces_a_reached_vector_once(segre, monkeypatch):
    """QuotientRing.nf reduces a vector that an ideal lead (here b^2)
    reaches once, whole, zero components included, against the ring's
    basis of I P^n (reduce_terms); its normal form, unreached, comes back
    as it is, with no reduction."""
    v = Vec.from_polys([segre.ambient.parse(t)
                        for t in ["0", "b^2", "0", "a + c"]])
    bases = []
    real = ring_module._reduce_terms

    def counting(terms, rows_of, *args):
        bases.append(rows_of)
        return real(terms, rows_of, *args)

    monkeypatch.setattr(ring_module, "_reduce_terms", counting)
    w = segre.nf(v)
    assert len(bases) == 1
    assert bases[0] is segre.free_relation_basis(4)._rows_of
    assert segre.nf(w) is w and len(bases) == 1
    assert str(w) == "(0, a*c, 0, a + c)"
    assert w == Vec.from_polys([segre.nf(p) for p in v.to_polys()])


def _reference_rings(field):
    """The rings of _span_rings and k[x, y] modulo the unit ideal."""
    fld = QQ if field == "Q" else prime_field(5)
    return _span_rings(field) + [
        make_quotient_ring(PolyRing(("x", "y"), fld, DEGREVLEX), ["1"])]


def _random_vec(amb, ncomps, rng):
    """A vector of P^ncomps with up to four terms of degree at most 2 in
    each variable, some of its components zero."""
    fld = amb.field
    terms = {}
    for j in rng.sample(range(ncomps), rng.randint(0, ncomps)):
        for _ in range(rng.randint(1, 4)):
            m = tuple(rng.randint(0, 2) for _ in range(amb.nvars))
            terms[(j, m)] = fld.from_int(rng.choice([1, 2, 3, -1, -2]))
    return Vec(amb, ncomps, terms)


def _kernel_row(v):
    """The nonzero Vec v as a normalized kernel row, its terms in
    descending order, as the engine makes its rows."""
    amb = v.ring
    p, key = amb.field.char, ModuleOrder(amb.order).term_key
    terms = dict(sorted(to_kernel(v.terms, p, amb.code)[0].items(),
                        key=lambda t: key(t[0]), reverse=True))
    return (*gb._normalize(terms, p), terms)


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_normal_forms_agree_with_the_fraction_reference(field):
    """QuotientRing.nf of polynomials and of vectors, with zero components
    among them, and the reduction of kernel rows (_distinct_monic) agree
    with the Fraction reducer against the ideal's Fraction basis
    (ref_ideal_normal_form), on the cone, xy = uv, the Veronese-4 ring,
    k[x, y] and the unit ideal.  An input that no ideal lead reaches, its
    reference normal form being itself, comes back as the same object."""
    rng = random.Random(f"nf-{field}")
    seen = Counter()
    for ring in _reference_rings(field):
        amb = ring.ambient
        for _ in range(40):
            ncomps = rng.randint(1, 3)
            v = _random_vec(amb, ncomps, rng)
            want = ref_ideal_normal_form(ring, v)
            reached = want != v
            seen["reached" if reached else "unreached"] += 1
            got = ring.nf(v)
            assert got == want, (ring, v)
            assert reached or got is v
            f = v.component(0)
            got = ring.nf(f)
            assert got == want.component(0), (ring, f)
            assert got is f or want.component(0) != f
            if v.is_zero():
                continue
            row = _kernel_row(v)
            forms = modules._distinct_monic(ring, ncomps, [row])
            assert ref_decoded_rows(ring, ncomps, forms) == (
                [ref_monic_vec(want)] if want else []), (ring, v)
            assert reached or forms[0] is row
    assert seen["reached"] >= 50 and seen["unreached"] >= 50, seen


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_nf_agrees_with_the_tuple_lead_nf(field):
    """QuotientRing.nf, which tests reach and reduces on order codes,
    gives what it gave when it tested reach on exponent tuples and
    reduced a polynomial as a rank-1 Vec (tuple_lead_nf), term order
    included, on the cone, xy = uv, the Veronese-4 ring and k[x, y], for
    polynomials and vectors, reached by an ideal lead and not; a value
    that no lead reaches comes back as the same object from both."""
    rng = random.Random(f"tuple-nf-{field}")
    seen = Counter()
    for ring in _span_rings(field):
        amb = ring.ambient
        for _ in range(60):
            v = _random_vec(amb, rng.randint(1, 3), rng)
            for value in (v, v.component(0)):
                want = tuple_lead_nf(ring, value)
                got = ring.nf(value)
                kind = "poly" if isinstance(value, Polynomial) else "vec"
                seen[kind, want is value] += 1
                assert type(got) is type(want), (ring, value)
                assert list(got.terms.items()) == \
                    list(want.terms.items()), (ring, value)
                assert (got is value) == (want is value), (ring, value)
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


def test_random_homogeneous_elem_reduces_each_draw_once(segre, monkeypatch):
    """Each polynomial random_homogeneous_elem draws is reduced once
    (QuotientRing.nf), and a nonzero normal form becomes the element as
    it is (RingElem._of_nf), with no second reduction."""
    outs = []
    real = QuotientRing.nf

    def counted(self, value):
        outs.append(real(self, value))
        return outs[-1]

    rng = random.Random(4)
    monkeypatch.setattr(QuotientRing, "nf", counted)
    elems = [random_homogeneous_elem(segre, 4, rng) for _ in range(200)]
    monkeypatch.undo()
    assert None not in elems
    drawn = [out for out in outs if out]
    assert len(drawn) == len(elems) == 200
    assert all(e.poly is out for e, out in zip(elems, drawn))
    assert len(outs) - len(drawn) == 1     # one draw, b^2 - a*c, was 0
    assert all(e == segre.elem(e.poly) and e.degree() == 4 for e in elems)


@pytest.mark.parametrize("p", [2, 3])
def test_random_homogeneous_elem_is_nonzero_over_small_fields(p):
    """Over GF(2) and GF(3) a drawn coefficient may be 0 in the field: its
    term is dropped before the normal form, so every element drawn is
    nonzero, has no zero coefficient and is its own normal form."""
    amb = PolyRing(("a", "b", "c"), prime_field(p), wdegrevlex((2, 2, 2)))
    R = make_quotient_ring(amb, [amb.parse("a*c - b^2")])
    rng = random.Random(1)
    elems = [random_homogeneous_elem(R, 4, rng) for _ in range(100)]
    assert None not in elems
    for e in elems:
        assert e and all(e.poly.terms.values()), e
        assert R.elem(e.poly).poly == e.poly


def test_normal_form_work_counts_are_pinned(monkeypatch):
    """Building a few elements, modules and submodules of a fresh cone
    makes a fixed number of normal forms of polynomials and of vectors,
    reached by an ideal lead or not, and reduces each reached one once
    (the ring's reduction modulo I, QuotientRing.reduce_terms).  A
    relation or a generator given as ring elements is a normal form
    already, and is not normalized again as a vector.  A change that
    means to alter the counts updates them here."""
    amb = PolyRing(("a", "b", "c"), QQ, wdegrevlex((2, 2, 2)))
    R = make_quotient_ring(amb, [amb.parse("a*c - b^2")])
    counts = Counter()
    real_nf, real_reduce = QuotientRing.nf, ring_module._reduce_terms

    def counted_nf(self, value):
        out = real_nf(self, value)
        kind = "poly" if isinstance(value, Polynomial) else "vec"
        counts[kind, "reached" if out is not value else "unreached"] += 1
        return out

    def counted_reduce(*args):
        counts["reductions"] += 1
        return real_reduce(*args)

    monkeypatch.setattr(QuotientRing, "nf", counted_nf)
    monkeypatch.setattr(ring_module, "_reduce_terms", counted_reduce)
    a, b, c = R.gens()
    assert str(b * b + a * b - 1 + 1) == "a*b + a*c"
    M = FPModule(R, (0, 0), [["b", "-a"], ["c", "-b"], ["b^2", "b^2"]])
    N = M.submodule([["a*c", "b*c"], ["a", "b"]])
    assert N.contains(M.vec(["b^2", "b*c"]))
    assert str(ModuleMap(M, M, [["b", "0"], ["0", "b"]]).apply(
        M.vec(["b", "b"]))) == "(a*c, a*c)"
    assert counts == {
        ("poly", "unreached"): 21, ("poly", "reached"): 4,
        ("vec", "unreached"): 1, ("vec", "reached"): 3, "reductions": 7}


def test_minimalized_rejects_inhomogeneous_generator(kxy):
    M = ring_as_module(kxy)
    with pytest.raises(DomainError):
        Submodule(M, (M.vec(["x + y^2"]),)).minimalized()


# --- minimal presentations --------------------------------------------------------------


def test_minimal_presentation_removes_unit_relation(kxy):
    M = FPModule(kxy, (1, 1), [["1", "-1"]])   # e0 = e1
    mp = M.minimal_presentation()
    assert mp.ngens == 1 and mp.relations == ()


def test_minimal_presentation_counts_nakayama(kxy):
    # redundant generator: e1 = x e0 gives minimal rank 1 free module
    M = FPModule(kxy, (0, 1), [["x", "-1"]])
    mp = M.minimal_presentation()
    assert mp.ngens == 1
    assert mp.gen_degrees == (0,)
    assert mp.relations == ()


def test_minimal_presentation_of_tensor_unit(segre):
    M = ideal_as_module(segre, ["a", "b"])
    assert same_presentation(
        tensor(ring_as_module(segre), M).minimal_presentation(), M)


def test_equal_modules_present_equally(kxy):
    """Two modules built from the relations e0 + e1 and x*e0 + y*e2, the
    first with its e0 term inserted first or last, are equal and hash
    equal, and present equally: e0 is eliminated, the lowest component
    with a unit entry, whatever order the terms came in."""
    amb = kxy.ambient
    one, x, y = (0, 0), (1, 0), (0, 1)
    other = Vec(amb, 3, {(0, x): QQ.one, (2, y): QQ.one})
    modules_ = [FPModule(kxy, (0, 0, 0), [Vec(amb, 3, dict(terms)), other])
                for terms in ([((0, one), QQ.one), ((1, one), QQ.one)],
                              [((1, one), QQ.one), ((0, one), QQ.one)])]
    A, B = modules_
    assert A == B and hash(A) == hash(B)
    assert list(A.relations[0].terms) != list(B.relations[0].terms)
    for M in modules_:
        assert M.minimal_presentation().presentation_strings() == \
            [["x", "-y"]]


def test_unit_elimination_puts_the_pivot_component_on_top():
    """Each row is reduced by the pivot with the pivot's component on top
    of TOP.  Here the pivot (0, 4, 0) has its unit, e1, as its smallest
    term; a reduction under plain TOP sets the e2 term of (0, 4, 2x + 3y)
    aside before the pivot's multiple of (0, 2x + 3y, 0) adds to it, and
    keeps a wrong x^2 + 4xy + y^2."""
    R = make_quotient_ring(PolyRing(("x", "y"), prime_field(5), DEGREVLEX),
                           [])
    M = FPModule(R, (1, 1, 0), [["0", "4", "2*x + 3*y"], ["0", "4", "0"],
                                ["0", "2*x + 3*y", "0"]])
    assert M.minimal_presentation().descriptor() == {
        "ngens": 2, "gen_degrees": [1, 0], "relations": [["0", "x + 4*y"]]}


def test_minimal_presentation_does_not_depend_on_relation_order(segre):
    """On the cone with degrees (0, 2), the relations (0, -2),
    (a - 2b, 1) and (2b - 3c, 1) present one module in every order: the
    rows are sorted before the unit elimination picks its pivot.  The
    first relation with a unit entry as pivot, in the order given, would
    present the module as [a - 2b, b - 3/2 c], and with the first two
    swapped as [a - 2b, a - 4b + 3c]."""
    rels = [["0", "-2"], ["a - 2*b", "1"], ["2*b - 3*c", "1"]]
    got = {str(FPModule(segre, (0, 2), order).minimal_presentation()
               .descriptor())
           for order in itertools.permutations(rels)}
    assert got == {str({"ngens": 1, "gen_degrees": [0], "relations": [
        ["a - 4*b + 3*c"], ["b - 3/2*c"]]})}


def _sorted_terms(v):
    """The Vec v with its terms inserted in descending term order."""
    key = as_keyfn(ModuleOrder(v.ring.order))
    return Vec(v.ring, v.ncomps, dict(sorted(v.terms.items(),
                                             key=lambda t: key(*t[0]),
                                             reverse=True)))


def _unit_rings(field):
    """k[x, y] and xy = uv over the field."""
    fld = QQ if field == "Q" else prime_field(5)
    return [make_quotient_ring(PolyRing(("x", "y"), fld, DEGREVLEX), []),
            _span_rings(field)[1]]


def _unit_relation_module(ring, rng):
    """A random module with 2-4 generators of degree 0 or 1 and 1-4
    homogeneous relations of degree 0 to 2, most of them with unit entries;
    the terms of each relation in descending term order."""
    amb = ring.ambient
    degrees = tuple(rng.choice((0, 1)) for _ in range(rng.randint(2, 4)))
    cols = []
    for _ in range(rng.randint(1, 4)):
        d = rng.choice((0, 1, 1, 2))
        entries = []
        for shift in degrees:
            e = None
            if d >= shift and rng.random() < 0.7:
                e = random_homogeneous_elem(ring, d - shift, rng)
            entries.append(e.poly if e is not None else amb.zero())
        cols.append(Vec.from_polys(entries))
    return FPModule(ring, degrees, [
        _sorted_terms(r) for r in FPModule(ring, degrees, cols).relations])


def _shuffled(M, rng):
    """M with the terms of each relation inserted in a random order."""
    rels = []
    for r in M.relations:
        terms = list(r.terms.items())
        rng.shuffle(terms)
        rels.append(Vec(r.ring, r.ncomps, dict(terms)))
    return FPModule(M.ring, M.gen_degrees, rels)


def _unit_entries(M):
    return max((sum(not any(m) for _j, m in r.terms) for r in M.relations),
               default=0)


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_minimal_presentation_matches_the_vec_reference(field, monkeypatch):
    """The unit elimination on kernel rows against the one on Vecs
    (oracles.vec_minimal_presentation), on random modules over k[x, y]
    and xy = uv.  When the reference sees every relation's terms in
    descending term order, its first unit term is the lowest component's
    and the presentations are equal, exactly; the relations come in that
    order, and a normal form that sorts its terms keeps them so after
    each round, where Vec arithmetic appends new terms at the end.  The
    reference gets the relations as the engine orders them before its
    first round: normalized, distinct and sorted (modules._by_terms).  With
    the terms shuffled, the reference may drop another generator; the
    generator degrees, the relation count and the Hilbert function up to
    degree 4 still agree."""
    rng = random.Random(f"minimal-presentation-{field}")
    real_nf = QuotientRing.nf

    def sorted_nf(ring, value):
        value = real_nf(ring, value)
        return _sorted_terms(value) if isinstance(value, Vec) else value

    counts = Counter()
    for ring in _unit_rings(field):
        for _trial in range(80):
            M = _unit_relation_module(ring, rng)
            mp = M.minimal_presentation()
            rows = sorted(modules._vec_rows(M, M.relations),
                          key=modules._by_terms)
            ordered = FPModule(ring, M.gen_degrees, [
                Vec._of_row(ring.ambient, M.ngens, row) for row in rows])
            with monkeypatch.context() as patch:
                patch.setattr(QuotientRing, "nf", sorted_nf)
                ref = vec_minimal_presentation(ordered)
            assert mp.descriptor() == ref.descriptor(), M
            counts["modules"] += 1
            counts["two units"] += _unit_entries(M) >= 2
            counts["eliminated"] += mp.ngens < M.ngens
            ref = vec_minimal_presentation(_shuffled(M, rng))
            assert sorted(ref.gen_degrees) == sorted(mp.gen_degrees)
            assert len(ref.relations) == len(mp.relations)
            assert [module_graded_dim(ref, d) for d in range(5)] == \
                [module_graded_dim(mp, d) for d in range(5)]
    assert counts["modules"] == 160, counts
    assert counts["two units"] >= 40 and counts["eliminated"] >= 100, counts


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_presentations_do_not_depend_on_term_order(field):
    """Equal modules present equally: random modules with unit relations
    over k[x, y] and xy = uv, each relation's terms shuffled several
    times, give one minimal presentation, one resolution to length 2 and
    one first syzygy module."""
    rng = random.Random(f"term-order-{field}")

    def described(M):
        steps = [[list(degrees), [[str(p) for p in c.to_polys()]
                                  for c in cols]]
                 for degrees, cols in M.resolution(2)]
        return (M.minimal_presentation().descriptor(), steps,
                M.syzygy(1).descriptor())

    for ring in _unit_rings(field):
        for _trial in range(12):
            M = _unit_relation_module(ring, rng)
            want = described(M)
            for _shuffle in range(4):
                S = _shuffled(M, rng)
                assert S == M and hash(S) == hash(M)
                assert described(S) == want, M


# --- resolutions and syzygies --------------------------------------------------------------


def betti_numbers(M, length):
    """The ranks of the free modules of M's minimal resolution."""
    return [len(degrees) for degrees, _cols in M.resolution(length)]


def test_koszul_resolution(kxy):
    k = residue_field(kxy)
    assert betti_numbers(k, 3) == [1, 2, 1, 0]
    s1 = k.syzygy(1)
    assert s1.ngens == 2
    s2 = k.syzygy(2)
    assert s2.ngens == 1 and s2.relations == ()   # free of rank 1
    assert s2.gen_degrees == (2,)
    s0 = k.syzygy(0)
    assert same_presentation(s0, k)


def test_negative_syzygy_and_resolution_indices_refused(kxy):
    """A negative syzygy index or resolution length is refused, not read
    from the end of the steps list."""
    k = residue_field(kxy)
    with pytest.raises(DomainError, match="-1"):
        k.syzygy(-1)
    with pytest.raises(DomainError, match="-1"):
        k.resolution(-1)


def test_resolution_composites_vanish(segre):
    k = residue_field(segre)
    steps = k.resolution(4)
    for i in range(2, len(steps)):
        prev_cols = steps[i - 1][1]
        cols = steps[i][1]
        ncomp_prev = len(steps[i - 2][0])
        for col in cols:
            acc = Vec.zero(segre.ambient, ncomp_prev)
            for q in range(len(prev_cols)):
                p = col.component(q)
                if p:
                    acc = acc + prev_cols[q].scale(p)
            M0 = free_module(segre, steps[i - 2][0])
            assert M0.element_is_zero(acc)


def test_resolution_minimality(segre):
    k = residue_field(segre)
    steps = k.resolution(4)
    for degrees, cols in steps[1:]:
        for col in cols:
            for i in range(col.ncomps):
                entry = col.component(i)
                assert entry.is_zero() or entry.wdeg() > 0


def test_hypersurface_periodicity(segre):
    # quadric cone: the resolution of k is eventually two-periodic; the
    # second and fourth syzygies agree up to the degree shift wdeg(b^2-ac)=4
    k = residue_field(segre)
    assert betti_numbers(k, 5) == [1, 3, 4, 4, 4, 4]
    s2 = k.syzygy(2)
    s4 = k.syzygy(4)
    assert s2.ngens == 4 and s4.ngens == 4
    assert same_presentation(s2, s4, degree_shift=4)


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_resolution_on_rows_matches_the_vec_route(field):
    """FPModule.resolution, its syzygy rows handed to minimal_generators as
    they are, gives step for step the resolution of the Vec route
    (oracles.vec_resolution: the syzygies decoded, then minimalized on
    Vecs), and its first columns are the minimal presentation's relations,
    not minimalized again; on random ideal modules, quotient modules and
    residue fields over the cone, xy = uv, the Veronese-4 ring and
    k[x, y]."""
    rng = random.Random(f"resolution-rows-{field}")
    shapes = Counter()
    for ring in _span_rings(field):
        for _trial in range(2):
            for M in (ideal_as_module(ring, random_ideal_gens(ring, rng)),
                      quotient_module(ring, random_ideal_gens(ring, rng)),
                      residue_field(ring)):
                steps = M.resolution(3)
                assert steps == vec_resolution(M, 3), (ring, M)
                assert steps[1][1] == M.minimal_presentation().relations
                shapes["relations"] += bool(steps[1][1])
                shapes["syzygies"] += bool(steps[2][1])
                shapes["deep"] += bool(steps[3][1])
    assert min(shapes.values()) >= 6, shapes


def test_quotient_ring_syzygies_complete(segre):
    # generators (a, b, c) of m: engine syzygies generate the degreewise
    # kernel up to degree 8 (linear-algebra oracle)
    cols = [Vec.from_polys([segre.elem(t).poly]) for t in ("a", "b", "c")]
    syz = vec_syzygies(segre, cols, 1)
    assert brute_syzygies_complete(segre, cols, 1, syz, 8)


# --- module equality and descriptors -----------------------------------------------------


def test_same_presentation_distinguishes(kxy):
    A = quotient_module(kxy, ["x^2"])
    B = quotient_module(kxy, ["x^3"])
    assert not same_presentation(A, B)
    assert same_presentation(A, quotient_module(kxy, ["x^2"]))


def test_sum_refuses_a_submodule_of_another_module(kxy):
    """Over k[x, y], (x) plus a submodule of R^2 would hold a rank-2
    generator in a rank-1 submodule; it is refused, as in intersect."""
    I = ideal_submodule(kxy, ["x"])
    other = free_module(kxy, (0, 0)).submodule([["x", "y"]])
    with pytest.raises(ContextError, match="submodules of different modules"):
        I.sum(other)
    both = I.sum(ideal_submodule(kxy, ["y"]))
    assert both.contains(ring_as_module(kxy).vec(["x*y + y^2"]))


def test_direct_sum_presentation(segre):
    M = ideal_as_module(segre, ["a", "b"])
    D = direct_sum(M, ring_as_module(segre))
    assert D.ngens == 3
    assert D.gen_degrees == (2, 2, 0)
    assert len(D.relations) == len(M.relations)


def _born_cases(ring, rng):
    """(label, module) pairs made by the constructors that give a module
    its relation basis: ideal modules (one of a single generator, which
    has no syzygy beyond I), tensors with a free module of rank 2 and
    nonzero degrees on either side, a tensor of two modules with
    relations (built by a run) and direct sums."""
    first = ring.gens()[0]
    max_deg = 2 * max(ring.ambient.weights)
    ideals = [ideal_as_module(ring, random_ideal_gens(ring, rng, 3, max_deg))
              for _ in range(3)]
    S = next((M for M in ideals if M.relations),
             ideal_as_module(ring, [first, first * first]))
    F = free_module(ring, (1, 2))
    Q = quotient_module(ring, [first])
    return ([("ideal", M) for M in ideals]
            + [("one generator", ideal_as_module(ring, [first])),
               ("S x F", tensor(S, F)), ("F x S", tensor(F, S)),
               ("S x Q", tensor(S, Q)), ("S + S", direct_sum(S, S)),
               ("S + F", direct_sum(S, F)), ("F + S", direct_sum(F, S)),
               ("Q + F", direct_sum(Q, F))])


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_born_relation_bases_match_the_span_of_the_relations(field,
                                                           monkeypatch):
    """Every relation basis a constructor gives its module is, kernel row
    for kernel row (terms in order), the span run on its relations,
    r_span_basis(free_module(ring, degrees), relations); only a tensor of
    two modules with relations makes that run, on first use.  S (x) R
    and R (x) S are S itself, and a born module equals, and hashes like,
    the module of its presentation.  On the cone, xy = uv, Veronese-4 and
    k[x, y]."""
    rng = random.Random(f"born-bases-{field}")
    spans = _count_calls(monkeypatch, "r_span_basis")
    shapes = {"relations": 0, "free": 0}
    for ring in _span_rings(field):
        R = ring_as_module(ring)
        cases = _born_cases(ring, rng)
        # one run, the basis of Q, which direct_sum(Q, F) reads
        assert len(spans) == 1
        spans.clear()
        for label, M in cases:
            built = "_relation_span" in vars(M)
            assert built == bool(M.relations and label != "S x Q"), label
            assert tensor(M, R) is M and tensor(R, M) is M
            assert len(spans) == 0, label
            fresh = FPModule(ring, M.gen_degrees, M.relations)
            assert M == fresh and hash(M) == hash(fresh)
            want = modules.r_span_basis(free_module(ring, M.gen_degrees),
                                        M.relations)
            assert _kernel_rows(M.relation_basis()) == _kernel_rows(want), (
                ring, label)
            assert len(spans) == 1 + (label == "S x Q"), label
            spans.clear()
            shapes["relations" if M.relations else "free"] += 1
        assert not ideal_as_module(ring, [ring.gens()[0]]).relations
    assert min(shapes.values()) >= 4, shapes


def test_born_basis_of_another_rank_ring_or_order_is_refused(segre, kxy):
    S = ideal_as_module(segre, ["a", "b"])
    amb = segre.ambient
    cols = S.relations
    for basis in (segre.free_relation_basis(3),
                  segre.free_relation_basis(2, 1),
                  kxy.free_relation_basis(2),
                  buchberger(list(cols), 2, ModuleOrder(amb.order, 0), amb)):
        with pytest.raises(ValueError, match="another ring, rank or order"):
            FPModule._with_basis(segre, S.gen_degrees, cols, basis)
    M = FPModule._with_basis(segre, S.gen_degrees, cols, S.relation_basis())
    assert M == S and M.relation_basis() is S.relation_basis()


def test_graded_dims_match_oracle(segre):
    M = ideal_as_module(segre, ["a", "b"])
    gens = [Vec.from_polys([segre.elem(t).poly]) for t in ("a", "b")]
    for d in range(0, 8):
        assert module_graded_dim(M, d) == \
            graded_dim_of_span(segre, gens, (0,), d)


def test_resolution_exactness_verifier(kxy, segre):
    assert verify_resolution(residue_field(kxy), 3)
    assert verify_resolution(residue_field(segre), 4, bound=8)
    M = ideal_as_module(segre, ["a", "b"])
    assert verify_resolution(M, 3, bound=8)


def test_resolution_memo_is_thread_safe(segre):
    import threading
    k = residue_field(segre)
    results = []

    def work():
        results.append(betti_numbers(k, 4))

    threads = [threading.Thread(target=work) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert results[0] == [1, 3, 4, 4, 4]


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(modules, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(modules, name, counting)
    return calls


def test_submodule_builds_its_bases_once(segre, monkeypatch):
    spans = _count_calls(monkeypatch, "r_span_basis")
    blocks = _count_calls(monkeypatch, "_block_basis")
    N = ideal_submodule(segre, ["a", "b"])
    v = ring_as_module(segre).vec(["a*c"])
    assert N.contains(v) and N.contains(v)
    assert len(spans) == 1
    assert N.certificate(v) == N.certificate(v)
    assert len(blocks) == 1


def test_module_keeps_only_a_presented_relation_basis(segre, monkeypatch):
    spans = _count_calls(monkeypatch, "r_span_basis")
    # an ideal module is born with the basis of its syzygy run
    M = ideal_as_module(segre, ["a", "b"])
    assert M.relation_basis() is M.relation_basis()
    assert len(spans) == 0
    M = quotient_module(segre, ["a", "b"])
    assert M.relation_basis() is M.relation_basis()
    assert len(spans) == 1
    F = free_module(segre, (0, 1))
    before = dict(vars(F))
    # a free module keeps nothing: the ring keeps its basis, one per rank
    assert F.relation_basis() is F.relation_basis()
    assert F.relation_basis() is segre.free_relation_basis(2)
    assert free_module(segre, (3, 3)).relation_basis() is F.relation_basis()
    assert vars(F) == before
    assert len(spans) == 1


def test_kept_relation_basis_leaves_equality_alone(segre):
    M = ideal_as_module(segre, ["a", "b"])
    M.relation_basis()
    fresh = ideal_as_module(segre, ["a", "b"])
    assert M == fresh and hash(M) == hash(fresh)


def test_contains_from_threads_on_one_submodule(segre):
    import threading
    N = ideal_submodule(segre, ["a", "b"])
    R1 = ring_as_module(segre)
    probes = [R1.vec([p]) for p in ("a*c", "c", "b*c", "c^2")]
    results = []

    def work():
        results.append([N.contains(v) for v in probes])

    threads = [threading.Thread(target=work) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [[True, False, True, False]] * 6


def test_colon_by_ideal(kxy, veronese4):
    I = ideal_submodule(kxy, ["x^2*y", "x*y^2"])
    C = I.colon_elem(kxy.elem("x")).intersect(I.colon_elem(kxy.elem("y")))
    expected = ideal_submodule(kxy, ["x*y"])
    assert C.same_as(expected)
    # colon by a two-generator ideal over the Veronese ring
    Ia = ideal_submodule(veronese4, ["a"])
    C2 = Ia.colon_elem(veronese4.elem("d")).intersect(
        Ia.colon_elem(veronese4.elem("c")))
    assert C2.contains(Ia.module.vec(["b^2"]))


def test_vector_of_wrong_length_rejected(segre):
    from closurelab.poly import ContextError
    M = ideal_as_module(segre, ["a", "b"])
    with pytest.raises(ContextError):
        M.vec(["a"])  # needs two coordinates


@pytest.mark.parametrize("arg", ["xy", "x*y", "elem", 3],
                         ids=["str", "product", "elem", "int"])
def test_vec_refuses_what_is_not_a_list_of_entries(kxy, arg):
    """FPModule.vec refuses an argument that is neither a Vec nor a list
    or tuple of entries, naming its type, instead of reading a string's
    characters as entries or iterating what is not iterable."""
    if arg == "elem":
        arg = kxy.elem("x")
    with pytest.raises(ContextError, match=type(arg).__name__):
        ring_as_module(kxy).vec(arg)


def test_vec_from_no_polynomials_refused(kxy):
    with pytest.raises(ContextError, match="at least one polynomial"):
        Vec.from_polys([])
    assert free_module(kxy, ()).vec(()) == Vec.zero(kxy.ambient, 0)


@pytest.mark.parametrize("rank", [1, 3])
def test_vec_of_wrong_rank_rejected(kxy, rank):
    """A Vec whose rank is not the cover's is refused, naming both ranks,
    by membership, certificates and submodule generators."""
    from closurelab.poly import ContextError
    M = free_module(kxy, (0, 0))
    v = Vec(kxy.ambient, rank, {(rank - 1, (1, 0)): QQ.one})
    calls = [M.full_submodule().contains, M.full_submodule().certificate,
             lambda w: M.submodule([w])]
    for call in calls:
        with pytest.raises(ContextError,
                           match=f"vector of rank {rank} in a module of "
                                 f"rank 2"):
            call(v)


@pytest.mark.parametrize("other", ["f5", "xyz"])
def test_vec_over_another_ring_rejected(kxy, other):
    """A Vec over another ring is refused by membership, certificates,
    closure membership and submodule generators, as one of another rank
    is.  Before, an F5 vector x^2 in a module over Q was a member with
    certificate [1], and a vector in z over k[x,y,z] failed with a
    misleading exponent range error, or was kept as a generator."""
    from closurelab.closure import ModuleClosure
    from closurelab.poly import ContextError
    names = ("x", "y") if other == "f5" else ("x", "y", "z")
    fld = prime_field(5) if other == "f5" else QQ
    amb = PolyRing(names, fld, DEGREVLEX)
    exps = (2, 0) if other == "f5" else (0, 0, 1)
    v = Vec(amb, 1, {(0, exps): fld.one})
    N = ideal_submodule(kxy, ["x^2"])
    cl = ModuleClosure(ideal_as_module(kxy, ["x", "y"]))
    calls = [N.contains, N.certificate, lambda w: cl.member(w, N),
             lambda w: N.module.submodule([w])]
    for call in calls:
        with pytest.raises(ContextError, match="vector over another ring"):
            call(v)


def test_map_refuses_an_image_of_another_rank(kxy):
    """An image column of rank 3 in a map into a rank-2 module is refused;
    before, it was kept, apply returned a rank-2 vector with a term in
    component 2, and the kernel failed on it."""
    F1, F2 = free_module(kxy, (0,)), free_module(kxy, (0, 0))
    x_e2 = Vec(kxy.ambient, 3, {(2, (1, 0)): kxy.ambient.field.one})
    with pytest.raises(ContextError, match="vector of rank 3 in a module "
                                           "of rank 2"):
        ModuleMap(F1, F2, [x_e2])


def test_map_applies_only_a_vector_of_its_source_rank(kxy):
    """Applying a map of a rank-1 source to a rank-2 vector is refused;
    before, it returned (0, 0)."""
    F1, F2 = free_module(kxy, (0,)), free_module(kxy, (0, 0))
    f = ModuleMap(F1, F2, [["x", "y"]])
    assert str(f.apply(F1.vec(["x"]))) == "(x^2, x*y)"
    with pytest.raises(ContextError, match="vector of rank 2 in a module "
                                           "of rank 1"):
        f.apply(F2.vec(["x", "y"]))


def test_tensor_elem_refuses_an_index_or_vector_out_of_range(kxy):
    """tensor_elem refuses an index that names no generator of A, and takes
    v through B.vec; over two rank-2 free modules, i = 5 and i = -1 gave a
    rank-4 vector with terms past its rank (-2 and -1 for i = -1), and a
    rank-3 v spilled into the next generator's block, each printing with
    those terms lost.  A valid call is unchanged."""
    A, B = free_module(kxy, (0, 0)), free_module(kxy, (0, 0))
    amb, one = kxy.ambient, kxy.ambient.field.one
    v = B.vec(["x", "y"])
    assert tensor_elem(A, B, 1, v) == Vec(amb, 4, {(2, (1, 0)): one,
                                                   (3, (0, 1)): one})
    assert tensor_elem(A, B, 1, ["x", "y"]) == tensor_elem(A, B, 1, v)
    for i in (5, -1):
        with pytest.raises(ContextError, match=f"generator index {i} "
                                               "outside 0..1"):
            tensor_elem(A, B, i, v)
    v3 = Vec(amb, 3, {(2, (1, 0)): one})
    with pytest.raises(ContextError, match="vector of rank 3 in a module "
                                           "of rank 2"):
        tensor_elem(A, B, 0, v3)


@pytest.mark.parametrize("comp", [2, 3, -1])
def test_vec_with_a_term_past_its_rank_is_refused(kxy, comp):
    """The Vec constructor refuses a term in a component outside
    0..ncomps-1, so FPModule.vec, membership, the trivial closure and
    submodules never meet one.  Before, Vec(P, 2, {(3, x): 1}) was built,
    and printed as (0, 0)."""
    with pytest.raises(ContextError,
                       match=f"term in component {comp} outside 0..1"):
        Vec(kxy.ambient, 2, {(comp, (1, 0)): kxy.ambient.field.one})
    with pytest.raises(ContextError, match="outside 0..1"):
        Vec.unit(kxy.ambient, 2, comp)
    with pytest.raises(ContextError, match="does not fit rank 2"):
        Vec.unit(kxy.ambient, 2, 0).pad(2, 1 if comp > 0 else -1)


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_vec_puts_coefficients_into_the_field(field):
    """A Vec given coefficients that are not nonzero field values (a zero
    term; over F5 a 5 or a -4; over Q an int) is the vector they stand
    for, from its constructor on.  On the cone, with N = (a): a + 0*c,
    a + 5*c and -4*a are a, in N, and 0*c is the zero vector, in N too.
    FPModule.vec gives a Vec back as it is.  A list of polynomials with a
    zero term is answered the same way."""
    from closurelab.closure import ModuleClosure, TrivialClosure
    fld = QQ if field == "Q" else prime_field(5)
    amb = PolyRing(("a", "b", "c"), fld, wdegrevlex((2, 2, 2)))
    R = make_quotient_ring(amb, [amb.parse("a*c - b^2")])
    S = ideal_as_module(R, ["a", "b"])
    N = ideal_submodule(R, ["a"])
    a, c = (0, (1, 0, 0)), (0, (0, 0, 1))
    one, zero = fld.one, fld.zero
    cases = [({a: one, c: zero}, {a: one}), ({c: zero}, {})]
    if field == "F5":
        cases += [({a: one, c: 5}, {a: one}), ({a: -4}, {a: one})]
    else:
        cases += [({a: 1}, {a: one})]
    for terms, clean in cases:
        v = Vec(amb, 1, terms)
        w = N.module.vec(v)
        assert w == Vec(amb, 1, clean), terms
        assert all(type(x) is type(one) for x in w.terms.values()), terms
        assert ModuleClosure(S).member(v, N).holds, terms
        assert N.contains(v), terms
        assert TrivialClosure().member(v, N).holds, terms
    v = Vec(amb, 1, {a: one})
    assert N.module.vec(v) is v
    # the same holds for a vector written as a list of polynomials
    p = Polynomial(amb, {a[1]: one, c[1]: zero})
    assert N.module.vec([p]) == v
    assert ModuleClosure(S).member([p], N).holds


def test_submodule_rejects_inhomogeneous_vector(segre):
    M = ideal_as_module(segre, ["a", "b"])
    with pytest.raises(DomainError):
        M.submodule([["a", "a^2"]])


def test_kernel_of_map_to_zero_module(segre):
    M = ideal_as_module(segre, ["a", "b"])
    Z = FPModule(segre, (), ())
    f = ModuleMap(M, Z, [Z.vec([]) for _ in range(M.ngens)])
    K = f.kernel()
    assert K.same_as(M.full_submodule())
