"""Canonical outputs: a value depends on what it is, not on how it was
built or presented.

Reduced Groebner bases are unique, and minimal generators are chosen by
(degree, string) from them, so the engine's answers may depend only on
the modules involved.  These properties build one value in several ways
and compare what it prints:

- a polynomial parsed, built from its terms in shuffled insertion order,
  built with int, Fraction or unreduced F5 coefficients (and a zero term),
  and built by arithmetic: equal values, hashes, strings and terms, and
  equal ring elements on the cone, xy = uv and Veronese-4;
- `ModuleClosure(S).closure(N)` with N's generators shuffled, scaled or
  repeated, and with S re-presented (generators reordered, a generator
  repeated, or its minimal presentation);
- `intersect` (N with L, and L with N), `colon_elem` and the kernel of
  `ModuleMap` M -> M/N with N's generators shuffled, scaled or repeated;
- the minimal presentation and first syzygy module of a module whose
  relations are scaled, repeated, written with their terms in another
  order or given in another order;
- `TrivialClosure` and `IntersectionClosure(cl_S, trivial)` closures with
  N's generators shuffled, scaled or repeated;
- `phantom_test(cl, M)` under trivial, cl_S and their intersection, with
  M's relations scaled, one repeated, shuffled, or joined by the sum of
  two of one degree; M's generators keep their order, since the first is
  the image of 1;
- session statements on `product(I, F)`, with I written with and
  without a zero generator, and on `mult(I, J)` against the product
  ideal written out: equal records;
- `verify-paper --json` under two string-hash seeds: equal records.

Hypothesis runs derandomized with few examples, as tests/test_dsl_fuzz.py
does: the suite is a fixed, reproducible set of cases.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from closurelab.closure import (IntersectionClosure, ModuleClosure,
                                TrivialClosure, phantom_test)
from closurelab.field import QQ, prime_field
from closurelab.gb import Vec
from closurelab.linalg import monomials_of_wdeg
from closurelab.modify import parameter_chain
from closurelab.modules import (FPModule, ModuleMap, free_module,
                                ideal_as_module, quotient_module,
                                residue_field)
from closurelab.orders import DEGREVLEX, wdegrevlex
from closurelab.poly import PolyRing, Polynomial
from closurelab.ring import make_quotient_ring, presented_subring
from closurelab.sampling import random_homogeneous_elem
from closurelab.session import Session

RINGS = ("cone", "xyuv", "ver4")
FIELDS = (0, 5)

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@cache
def ring(kind, p):
    """The cone k[a,b,c]/(ac - b^2), xy = uv, or the Veronese-4 subring
    k[x^4, x^3y, xy^3, y^4], over Q (p = 0) or GF(p)."""
    fld = QQ if p == 0 else prime_field(p)
    if kind == "cone":
        amb = PolyRing(("a", "b", "c"), fld, wdegrevlex((2, 2, 2)))
        return make_quotient_ring(amb, [amb.parse("a*c - b^2")])
    if kind == "xyuv":
        amb = PolyRing(("x", "y", "u", "v"), fld, DEGREVLEX)
        return make_quotient_ring(amb, [amb.parse("x*y - u*v")])
    target = PolyRing(("x", "y"), fld, DEGREVLEX)
    return presented_subring(
        [target.parse(f) for f in ("x^4", "x^3*y", "x*y^3", "y^4")],
        names=("a", "b", "c", "d"), field=fld, target_ring=target)


rings = st.sampled_from([(kind, p) for kind in RINGS for p in FIELDS])


# --- one polynomial, four ways -----------------------------------------------


def _text(P, terms):
    """terms {exps: (num, den)} as polynomial text."""
    parts = []
    for m, (num, den) in terms.items():
        mono = "*".join(f"{name}^{e}" for name, e in zip(P.names, m) if e)
        parts.append(f"({num}/{den})" + (f"*{mono}" if mono else ""))
    return " + ".join(parts) or "0"


def _four_ways(P, terms, rng):
    """The polynomial sum num/den * x^m of terms, built four ways."""
    fld = P.field
    values = {m: fld.from_fraction(num, den)
              for m, (num, den) in terms.items()}
    parsed = P.parse(_text(P, terms))
    items = list(values.items())
    rng.shuffle(items)
    shuffled = Polynomial(P, dict(items))
    raw = {}
    for m, (num, den) in terms.items():
        if fld.char:
            # an int that is the value plus a multiple of p, or a Fraction
            c = fld.from_fraction(num, den)
            raw[m] = c + fld.char * rng.randint(-2, 2) if rng.random() < 0.7 \
                else Fraction(num, den)
        else:
            raw[m] = num if den == 1 and rng.random() < 0.5 else \
                Fraction(num, den)
    zero = tuple(rng.randint(0, 2) for _ in range(P.nvars))
    if zero not in raw:
        raw[zero] = fld.char * rng.randint(0, 2)
    unreduced = Polynomial(P, raw)
    built = P.zero()
    for m, c in items:
        mono = P.one()
        for i, e in enumerate(m):
            mono = mono * P.var(i) ** e
        built = built + P.const(c) * mono
    extra = P.var(0) * P.var(P.nvars - 1)
    built = built + extra - extra
    return [parsed, shuffled, unreduced, built]


@settings(SETTINGS, max_examples=150)
@given(rings, st.integers(0, 2 ** 32 - 1))
def test_one_polynomial_built_four_ways_is_one_value(kind_p, seed):
    """Equal values, equal hashes, the same str and the same terms, with
    coefficients of the field's type; R.elem of each is one element."""
    R = ring(*kind_p)
    P, rng = R.ambient, random.Random(seed)
    p = P.field.char
    terms = {}
    for _ in range(rng.randint(0, 4)):
        m = tuple(rng.randint(0, 3) for _ in range(P.nvars))
        num = rng.choice([n for n in range(-9, 10) if n % (p or 10 ** 9)])
        terms[m] = (num, rng.choice([1, 1, 2, 3] if not p else [1, 2, 3]))
    ways = _four_ways(P, terms, rng)
    first = ways[0]
    for f in ways:
        assert f == first and hash(f) == hash(first), (str(first), str(f))
        assert str(f) == str(first)
        assert sorted(f.terms.items()) == sorted(first.terms.items())
        assert all(type(c) is type(P.field.one) for c in f.terms.values())
    elems = [R.elem(f) for f in ways]
    for e in elems:
        assert e == elems[0] and hash(e) == hash(elems[0])
        assert str(e) == str(elems[0])


# --- closures: N and S presented differently ---------------------------------


def _elem(R, deg, rng):
    e = None
    while e is None:
        e = random_homogeneous_elem(R, deg, rng)
    return e


def _closure_module(R, kind, rng):
    """S: an ideal module, k, a cyclic quotient or syz^2(k)."""
    if kind == "ideal":
        return ideal_as_module(R, [_elem(R, rng.choice(_degrees(R)), rng)
                                   for _ in range(2)])
    if kind == "k":
        return residue_field(R)
    if kind == "cyclic":
        return quotient_module(R, [_elem(R, rng.choice(_degrees(R)), rng)])
    return residue_field(R).syzygy(2)


def _degrees(R):
    return [d for d in range(1, 5) if monomials_of_wdeg(R.ambient, d)][:2]


def _submodule_gens(R, rank, rng):
    """1-3 random homogeneous vectors of R^rank, each in one component."""
    amb, gens = R.ambient, []
    for _ in range(rng.randint(1, 3)):
        e = _elem(R, rng.choice(_degrees(R)), rng)
        j = rng.randrange(rank)
        gens.append(Vec.from_polys([e.poly]).pad(rank, j) if rank > 1 else
                    Vec.from_polys([e.poly]))
    return gens


def _reordered(S, rng):
    """S with its generators permuted."""
    perm = list(range(S.ngens))
    rng.shuffle(perm)
    amb = S.ring.ambient
    rels = [Vec(amb, S.ngens,
                {(perm[j], m): c for (j, m), c in r.terms.items()})
            for r in S.relations]
    degrees = [0] * S.ngens
    for j, d in enumerate(S.gen_degrees):
        degrees[perm[j]] = d
    return FPModule(S.ring, degrees, rels)


def _repeated(S, rng):
    """S with a copy e_n of generator e_j and the relation e_n - e_j."""
    n, j = S.ngens, rng.randrange(S.ngens)
    amb = S.ring.ambient
    rels = [r.pad(n + 1) for r in S.relations]
    rels.append(Vec.unit(amb, n + 1, n) - Vec.unit(amb, n + 1, j))
    return FPModule(S.ring, S.gen_degrees + (S.gen_degrees[j],), rels)


def _printed(sub):
    return [str(g) for g in sub.gens]


def _regenerated(R, gens, rng):
    """gens scaled by 2, -1 or 3, one of them repeated, all shuffled."""
    other = [g.scale(R.ambient.const(rng.choice((2, -1, 3)))) for g in gens]
    other.append(rng.choice(other))
    rng.shuffle(other)
    return other


@settings(SETTINGS, max_examples=100)
@given(rings, st.sampled_from(["ideal", "k", "cyclic", "syz2"]),
       st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
def test_closure_does_not_depend_on_presentations(kind_p, skind, rank, seed):
    """cl_S(N) prints identically for N's generators shuffled, scaled by
    2, -1 or 3 and one repeated, and for S with its generators reordered,
    a generator repeated, or S's minimal presentation."""
    R, rng = ring(*kind_p), random.Random(seed)
    if kind_p[0] == "ver4" and skind == "syz2":
        skind = "k"
    S = _closure_module(R, skind, rng)
    M = free_module(R, (0,) * rank)
    gens = _submodule_gens(R, rank, rng)
    want = _printed(ModuleClosure(S).closure(M.submodule(gens)))
    other = _regenerated(R, gens, rng)
    assert _printed(ModuleClosure(S).closure(M.submodule(other))) == want
    for S2 in (_reordered(S, rng), _repeated(S, rng),
               S.minimal_presentation()):
        got = _printed(ModuleClosure(S2).closure(M.submodule(gens)))
        assert got == want, (S, S2)


@settings(SETTINGS, max_examples=200)
@given(rings, st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
def test_intersections_colons_and_kernels_do_not_depend_on_presentations(
        kind_p, rank, seed):
    """N.intersect(L), L.intersect(N), N.colon_elem(x) and the kernel of
    the projection M -> M/N print identically for N's generators
    shuffled, scaled by 2, -1 or 3 and one repeated."""
    R, rng = ring(*kind_p), random.Random(seed)
    M = free_module(R, (0,) * rank)
    gens = _submodule_gens(R, rank, rng)
    L = M.submodule(_submodule_gens(R, rank, rng))
    x = _elem(R, _degrees(R)[0], rng)

    def printed(gens):
        N = M.submodule(gens)
        kernel = ModuleMap(M, M.quotient_by(N), M.gens()).kernel()
        return (_printed(N.intersect(L)), _printed(L.intersect(N)),
                _printed(N.colon_elem(x)), _printed(kernel))

    assert printed(_regenerated(R, gens, rng)) == printed(gens)


def _closures(S):
    """The trivial closure, cl_S and their intersection."""
    clS = ModuleClosure(S)
    return (TrivialClosure(), clS,
            IntersectionClosure([clS, TrivialClosure()]))


@settings(SETTINGS, max_examples=40)
@given(rings, st.sampled_from(["ideal", "k", "cyclic"]), st.integers(1, 2),
       st.integers(0, 2 ** 32 - 1))
def test_trivial_and_intersection_closures_do_not_depend_on_generators(
        kind_p, skind, rank, seed):
    """The trivial closure and cl_S intersected with it print identically
    for N's generators shuffled, scaled by 2, -1 or 3 and one repeated.
    Generators are not joined by their sums: minimalization chooses from
    the candidates it is given."""
    R, rng = ring(*kind_p), random.Random(seed)
    trivial, _clS, both = _closures(_closure_module(R, skind, rng))
    M = free_module(R, (0,) * rank)
    gens = _submodule_gens(R, rank, rng)
    other = _regenerated(R, gens, rng)
    for cl in (trivial, both):
        assert _printed(cl.closure(M.submodule(other))) == \
            _printed(cl.closure(M.submodule(gens))), cl.describe()


# --- presentations: relations presented differently --------------------------


def _relation_module(R, rng):
    """A module on 2-3 generators of degree 0 or the ring's least degree d1
    with 1-3 homogeneous relations, many of them with a unit entry."""
    amb, n, d1 = R.ambient, rng.randint(2, 3), _degrees(R)[0]
    degrees = tuple(rng.choice((0, 0, d1)) for _ in range(n))
    rels = []
    for _ in range(rng.randint(1, 3)):
        d = max(degrees) + rng.choice((0, d1))
        entries = []
        for j in range(n):
            e = d - degrees[j]
            if e == 0:
                entries.append(amb.const(rng.choice((0, 1, -2))))
            elif monomials_of_wdeg(amb, e) and rng.random() < 0.7:
                entries.append(_elem(R, e, rng).poly)
            else:
                entries.append(amb.zero())
        rels.append(Vec.from_polys(entries))
    return FPModule(R, degrees, rels)


def _represented(M, rng):
    """M's relations, each scaled and written with its terms in shuffled
    order, one of them repeated, all in shuffled order."""
    amb, fld = M.ring.ambient, M.ring.ambient.field
    rels = []
    for r in M.relations:
        items = list(r.scale(amb.const(rng.choice((1, 2, -1)))).terms.items())
        rng.shuffle(items)
        rels.append(Vec(amb, M.ngens, dict(items)))
    if rels:
        rels.append(rng.choice(rels))
    rng.shuffle(rels)
    assert all(type(c) is type(fld.one) for r in rels
               for c in r.terms.values())
    return FPModule(M.ring, M.gen_degrees, rels)


@settings(SETTINGS, max_examples=100)
@given(rings, st.integers(0, 2 ** 32 - 1))
def test_presentations_do_not_depend_on_how_relations_are_written(kind_p,
                                                                  seed):
    """The minimal presentation and the first syzygy module print the same
    when the relations are scaled, one is repeated, their terms are
    written in another order, or the relations come in another order."""
    R, rng = ring(*kind_p), random.Random(seed)
    M = _relation_module(R, rng)
    want = (M.minimal_presentation().descriptor(), M.syzygy(1).descriptor())
    for _ in range(2):
        N = _represented(M, rng)
        assert (N.minimal_presentation().descriptor(),
                N.syzygy(1).descriptor()) == want, M


# --- phantom tests: relations presented differently --------------------------


def _phantom_representations(M, rng):
    """M with its relations scaled by 2, -1 or 3; one of them repeated;
    all shuffled; and, when two have one degree, their sum appended.
    The generators keep their order; with no relations there is none."""
    amb, rels = M.ring.ambient, list(M.relations)
    if not rels:
        return []
    scaled = [r.scale(amb.const(rng.choice((2, -1, 3)))) for r in rels]
    shuffled = rels[:]
    rng.shuffle(shuffled)
    out = [scaled, rels + [rng.choice(rels)], shuffled]
    degree = [r.degree(M.gen_degrees) for r in rels]
    pairs = [(i, j) for i in range(len(rels)) for j in range(i)
             if degree[i] == degree[j]]
    if pairs:
        i, j = rng.choice(pairs)
        out.append(rels + [rels[i] + rels[j]])
    return [FPModule(M.ring, M.gen_degrees, r) for r in out]


def _phantom_answers(closures, M, rng):
    """phantom_test of each closure on M, asserted to be the same on every
    re-presentation of M's relations."""
    want = [bool(phantom_test(cl, M).holds) for cl in closures]
    for M2 in _phantom_representations(M, rng):
        got = [bool(phantom_test(cl, M2).holds) for cl in closures]
        assert got == want, ([str(r) for r in M.relations],
                             [str(r) for r in M2.relations])
    return want


@cache
def _stages(p):
    """The closure module S2 of Veronese-4 over Q or GF(p), and the stage
    modules of four parameter modifications along a, d under cl_S."""
    R = ring("ver4", p)
    sp = R.presentation
    S = FPModule(R, (0, 4), sp.module_relation_columns(
        [sp.target.one(), sp.target.parse("x^2*y^2")]))
    trace = parameter_chain(R, ModuleClosure(S), ["a", "d"], 4)
    return S, [stage.module for stage in trace.stages[1:]]


@pytest.mark.parametrize("p", FIELDS)
def test_phantom_test_does_not_depend_on_the_relations_of_a_stage(p):
    """Each Veronese-4 stage module is phantom under cl_S and not under
    the trivial closure or the intersection, however its relations are
    written."""
    S, stages = _stages(p)
    rng = random.Random(f"phantom-stages-{p}")
    assert len(stages) == 4
    for M in stages:
        assert _phantom_answers(_closures(S), M, rng) == [False, True, False]


@settings(SETTINGS, max_examples=40)
@given(rings, st.sampled_from(["ideal", "k", "cyclic"]),
       st.integers(0, 2 ** 32 - 1))
def test_phantom_test_does_not_depend_on_how_relations_are_written(
        kind_p, skind, seed):
    """phantom_test under trivial, cl_S and their intersection gives one
    answer for a module and for its relations re-presented."""
    R, rng = ring(*kind_p), random.Random(seed)
    _phantom_answers(_closures(_closure_module(R, skind, rng)),
                     _relation_module(R, rng), rng)


VER4_F = ("ring R = subring(Q, [x, y], [x^4, x^3*y, x*y^3, y^4], "
          "[a, b, c, d]);\nmodule F = free(R, [0, 0]);\n")


def _records(script, skip):
    """The records of a script's statements after the first skip, each
    without its text, evaluated in a fresh session."""
    records = [res.record() for res in Session().eval_text(script)[skip:]]
    for rec in records:
        del rec["src"]
    return records


def test_session_records_do_not_depend_on_the_route_to_a_submodule():
    """product(I, F) with a zero among I's generators is product(I, F)
    without it: equal certificates and equal generator lists.  mult(I, J)
    is its product ideal written out in the same order."""
    checks = ("check member([a, d], product(I, F));\n"
              "check equal(product(I, F), F);\n")
    with_zero, without = (
        _records(VER4_F + f"ideal I = ideal(R, {gens});\n" + checks, 3)
        for gens in ("0, a, d", "a, d"))
    assert with_zero == without
    assert with_zero[0]["certificate"] == ["1", "0", "0", "1"]
    assert with_zero[1]["result"]["left"] == [
        "(0, a)", "(0, d)", "(a, 0)", "(d, 0)"]
    mult, written = (
        _records(VER4_F + "ideal I = ideal(R, a, d);\n"
                 "ideal J = ideal(R, b, c);\n"
                 f"check member(a*b + c*d, {N});\n"
                 f"check equal({N}, ideal(R, b^2, c^2));\n", 4)
        for N in ("mult(I, J)", "ideal(R, a*b, a*c, d*b, d*c)"))
    assert mult == written
    assert mult[0]["certificate"] == ["1", "0", "0", "1"]


def test_verify_paper_records_do_not_depend_on_the_hash_seed():
    """verify-paper --json, without seconds, gives one record list under
    PYTHONHASHSEED 0 and 1: no record depends on the set or dict order
    of strings."""
    runs = []
    for seed in ("0", "1"):
        out = subprocess.run(
            [sys.executable, "-m", "closurelab.cli", "verify-paper",
             "--json"], capture_output=True, text=True, check=True,
            timeout=120, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        records = json.loads(out)
        for rec in records:
            del rec["seconds"]
        runs.append(records)
    assert runs[0] == runs[1]
