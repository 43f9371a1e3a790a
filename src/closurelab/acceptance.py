"""Built-in acceptance suite: one callable per criterion.

Every check is an exact symbolic computation (tolerance: exact equality).
`closure-lab verify-paper` prints one pass/fail line per criterion, and
tests/test_acceptance.py asserts each one.  The runtime targets quoted in
the detail strings are informational.

`run_all` runs the criteria, and criterion 7 suite by suite, on forked
worker processes, one per CPU the process may use.  Its lines and records
are those of running the criteria one after another: the lines still come
in criterion order, each as soon as its result is in.  A record's
`seconds` is the time its own computation took, wherever it ran; for
criterion 7 it is the sum of its suites' times, so the `seconds` of a run
add up to more than its wall time.  The criteria are run in this process
instead when one CPU is usable, when the platform cannot fork, or when
other threads are alive.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time

from .closure import (ModuleClosure, MonomialIntegralClosure,
                      PhantomInstance, TrivialClosure,
                      check_colon_capturing, check_faithfulness,
                      dietz_obstruction, direct_sum_closure,
                      ideal_member, intersect_closures,
                      is_trivial_on_sample, phantom_test)
from .field import QQ, prime_field
from .linalg import (Echelon, graded_span_dim, monomials_of_wdeg, rank,
                     span_rows, vec_coords)
from .modify import parameter_chain
from .modules import (FPModule, Submodule, direct_sum, free_module,
                      ideal_as_module, ideal_submodule,
                      residue_field, ring_as_module, scaled_gens)
from .orders import DEGREVLEX, wdegrevlex
from .poly import PolyRing, Vec
from .ring import make_quotient_ring, presented_subring
from .sampling import random_ideal_gens, sample_ideals
from .values import Record


class CriterionResult(Record):
    __slots__ = ("number", "title", "passed", "detail", "seconds")

    def __init__(self, number: int, title: str, passed: bool, detail: str,
                 seconds: float):
        self.number = number
        self.title = title
        self.passed = passed
        self.detail = detail
        self.seconds = seconds

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag}  criterion {self.number:2d}  {self.title}  "
                f"[{self.seconds:.2f}s]  {self.detail}")

    def record(self) -> dict:
        return {"criterion": self.number, "title": self.title,
                "passed": self.passed, "detail": self.detail,
                "seconds": round(self.seconds, 3)}


def _criterion(number, title):
    def wrap(fn):
        def run():
            t0 = time.monotonic()
            passed, detail = fn()
            return CriterionResult(number, title, passed, detail,
                                   time.monotonic() - t0)
        run.number = number
        run.title = title
        return run
    return wrap


# --- shared fixtures -----------------------------------------------------------


def _segre_ring(field=QQ):
    amb = PolyRing(("a", "b", "c"), field, wdegrevlex((2, 2, 2)))
    return make_quotient_ring(amb, [amb.parse("a*c - b^2")])


def _xyuv_ring(field=QQ):
    amb = PolyRing(("x", "y", "u", "v"), field, DEGREVLEX)
    return make_quotient_ring(amb, [amb.parse("x*y - u*v")])


def _veronese4(field=QQ):
    target = PolyRing(("x", "y"), field, DEGREVLEX)
    R = presented_subring(
        [target.parse("x^4"), target.parse("x^3*y"), target.parse("x*y^3"),
         target.parse("y^4")], names=("a", "b", "c", "d"), field=field,
        target_ring=target)
    sp = R.presentation
    S = FPModule(R, (0, 4), sp.module_relation_columns(
        [target.one(), target.parse("x^2*y^2")]))
    return R, S


def _poly_ring(names, field=QQ):
    return make_quotient_ring(PolyRing(names, field, DEGREVLEX), [])


# --- criteria 1-6: the worked closure examples -------------------------------


@_criterion(1, "square-subring example: I^cl_M = J^cl_M over Q and F5")
def criterion_1():
    notes = []
    for field, fname in ((QQ, "Q"), (prime_field(5), "F5")):
        R = _segre_ring(field)
        M = ideal_as_module(R, ["a", "b"])
        clM = ModuleClosure(M, "cl_M")
        I = ["a^2", "a*b", "b*c", "c^2"]
        J = I + ["a*c"]
        IM = Submodule(M, tuple(scaled_gens(M, [R.elem(g) for g in I])))
        JM = Submodule(M, tuple(scaled_gens(M, [R.elem(g) for g in J])))
        if not IM.same_as(JM):
            return False, f"IM != JM over {fname}"
        CI = clM.closure(ideal_submodule(R, I))
        CJ = clM.closure(ideal_submodule(R, J))
        if not CI.same_as(CJ):
            return False, f"I^cl != J^cl over {fname}"
        if not CI.contains(ring_as_module(R).vec(["a*c"])):
            return False, f"a*c not in I^cl over {fname}"
        notes.append(f"{fname}: IM=JM, I^cl=J^cl, a*c in I^cl")
    return True, "; ".join(notes)


@_criterion(2, "hypersurface xy=uv: IM = JM = (x^3,x^2u,xu^2,u^3)")
def criterion_2():
    R = _xyuv_ring()
    M = ideal_as_module(R, ["x", "u"])
    I = [R.elem(g) for g in ("x^2", "u^2")]
    J = [R.elem(g) for g in ("x^2", "x*u", "u^2")]
    IM = Submodule(M, tuple(scaled_gens(M, I)))
    JM = Submodule(M, tuple(scaled_gens(M, J)))
    if not IM.same_as(JM):
        return False, "IM != JM for the second pair"
    K = ideal_submodule(R, ["x", "u"])
    prodI = ideal_submodule(R, [i * k for i in I
                                for k in (R.elem("x"), R.elem("u"))])
    printed = ideal_submodule(R, ["x^3", "x^2*u", "x*u^2", "u^3"])
    if not prodI.same_as(printed):
        return False, "I(x,u) != (x^3,x^2u,xu^2,u^3) as ideals"
    literal = sorted(str(i * k) for i in I
                     for k in (R.elem("x"), R.elem("u")))
    expected = sorted(["x^3", "x^2*u", "x*u^2", "u^3"])
    if literal != expected:
        return False, f"product generators {literal} differ from print"
    # first pair: computed and reported, never asserted
    I1 = [R.elem(g) for g in ("y^2", "v^2")]
    J1 = [R.elem("y*v")]
    IM1 = Submodule(M, tuple(scaled_gens(M, I1)))
    JM1 = Submodule(M, tuple(scaled_gens(M, J1)))
    eq1 = IM1.same_as(JM1)
    report = f"first pair (y^2,v^2) vs (yv): engine reports IM=JM is {eq1}"
    if not eq1:
        for g in IM1.gens:
            if not JM1.contains(g):
                report += f", witness {g}"
                break
    return True, "second pair verified exactly as printed; " + report


@_criterion(3, "Veronese-4 S2-ification: b^2 in (a)^cl_S and c^2 in (d)^cl_S")
def criterion_3():
    R, S = _veronese4()
    clS = ModuleClosure(S, "cl_S")
    one = ideal_member(clS, R, "b^2", ["a"])
    two = ideal_member(clS, R, "c^2", ["d"])
    if not one.holds:
        return False, "b^2 not in (a)^cl_S"
    if not two.holds:
        return False, "c^2 not in (d)^cl_S"
    neither = ideal_member(TrivialClosure(), R, "b^2", ["a"]).holds
    if neither:
        return False, "b^2 already in (a): presentation broken"
    return True, "both memberships hold (and fail for the trivial closure)"


@_criterion(4, "integral-closure obstruction: t = 1 for (x,y) in k[x,y]")
def criterion_4():
    R = _poly_ring(("x", "y"))
    t = dietz_obstruction(MonomialIntegralClosure(), R, ["x", "y"], 3)
    if t != 1:
        return False, f"expected t = 1, got {t}"
    none = dietz_obstruction(TrivialClosure(), R, ["x", "y"], 3)
    if none is not None:
        return False, f"trivial closure produced obstruction t = {none}"
    return True, "t = 1 for integral closure; none for trivial"


@_criterion(5, "colon-capturing suite on the Veronese-4 ring, sop (a, d)")
def criterion_5():
    R, S = _veronese4()
    clS = ModuleClosure(S, "cl_S")
    triv = check_colon_capturing(TrivialClosure(), R, ["a", "d"], "plain")
    if triv.holds or str(triv.witness) != "b^2":
        return False, f"trivial closure: expected failure with witness b^2, " \
                      f"got holds={triv.holds} witness={triv.witness}"
    plain = check_colon_capturing(clS, R, ["a", "d"], "plain")
    if not plain.holds:
        return False, f"cl_S fails plain colon-capturing: {plain.witness}"
    strong_b = check_colon_capturing(clS, R, ["a", "d"], "strongB")
    if not strong_b.holds:
        return False, f"cl_S fails strongB: {strong_b.witness}"
    for t in (1, 2, 3):
        for a in range(t):
            out = check_colon_capturing(clS, R, ["a", "d"], "strongA",
                                        t=t, a=a)
            if not out.holds:
                return False, f"cl_S fails strongA(t={t},a={a}): {out.witness}"
    return True, "trivial fails with witness b^2; cl_S passes plain, " \
                 "strongB, and strongA for t <= 3, a < t"


@_criterion(6, "phantom flags and image of 1 after the parameter modification")
def criterion_6():
    R, S = _veronese4()
    clS = ModuleClosure(S, "cl_S")
    trace = parameter_chain(R, clS, ["a", "d"], 1)
    if len(trace) != 2:
        return False, "no modification step was taken"
    step = trace.stages[-1]
    if step.descriptor.get("u") != ["b^2"]:
        return False, f"unexpected bad relation: {step.descriptor}"
    inst = PhantomInstance.from_module(trace.current)
    ph_s = phantom_test(clS, inst)
    ph_t = phantom_test(TrivialClosure(), inst)
    if not ph_s.holds:
        return False, "modification is not cl_S-phantom"
    if ph_t.holds:
        return False, "modification is trivially phantom (should fail)"
    if trace.image_of_one_in_m():
        return False, "image of 1 fell into m M'"
    return True, "phantom under cl_S, not under trivial; image of 1 " \
                 "outside m M'"


# --- criterion 7: property suites -------------------------------------------------


def _property_rings():
    return [_poly_ring(("x", "y"), prime_field(5)),
            _poly_ring(("x", "y"), QQ),
            _segre_ring(prime_field(5))]


def _random_ideal_module(ring, rng):
    for _ in range(8):
        gens = random_ideal_gens(ring, rng, max_gens=2, max_deg=3)
        M = ideal_as_module(ring, gens)
        if not M.is_zero_module():
            return M
    return ring_as_module(ring)


def _closure_axioms_instances(count, seed):
    rng = random.Random(seed)
    rings = _property_rings()
    checked = 0
    for i in range(count):
        ring = rings[i % len(rings)]
        kind = i % 4
        if kind == 0:
            cl = TrivialClosure()
        elif kind == 1:
            cl = ModuleClosure(_random_ideal_module(ring, rng))
        elif kind == 2:
            cl = intersect_closures(
                ModuleClosure(_random_ideal_module(ring, rng)),
                TrivialClosure())
        else:
            ring = _poly_ring(("x", "y"), prime_field(5))
            cl = MonomialIntegralClosure()
        if kind == 3:
            exps = [(rng.randint(1, 3), rng.randint(0, 2)) for _ in range(2)]
            gens = ["x^%d*y^%d" % e if e[1] else "x^%d" % e[0] for e in exps]
            N = ideal_submodule(ring, gens)
            Nbig = N.sum(ideal_submodule(ring, ["x^4", "y^4"]))
        else:
            N = ideal_submodule(ring, random_ideal_gens(ring, rng, 2, 3))
            Nbig = N.sum(ideal_submodule(
                ring, random_ideal_gens(ring, rng, 1, 2)))
        closed = cl.closure(N)
        for g in N.gens:                       # extension
            if not closed.contains(g):
                return False, f"extension fails: {g} (instance {i})"
        again = cl.closure(closed)             # idempotence
        if not again.same_as(closed):
            return False, f"idempotence fails (instance {i})"
        for g in closed.gens:                  # order preservation
            if not cl.member(g, Nbig).holds:
                return False, f"order preservation fails (instance {i})"
        checked += 1
    return True, f"{checked} instances (50 per closure kind)"


def _semi_primeness_instances(count, seed):
    rng = random.Random(seed)
    rings = _property_rings()
    for i in range(count):
        ring = rings[i % len(rings)]
        cl = ModuleClosure(_random_ideal_module(ring, rng))
        I = ideal_submodule(ring, random_ideal_gens(ring, rng, 2, 2))
        N = ideal_submodule(ring, random_ideal_gens(ring, rng, 2, 2))
        clI = cl.closure(I)
        clN = cl.closure(N)
        prod_gens = [x * y for x in clI.gens_as_ring_elems()
                     for y in clN.gens_as_ring_elems()]
        IN = ideal_submodule(ring, [x * y for x in I.gens_as_ring_elems()
                                    for y in N.gens_as_ring_elems()])
        target = cl.closure(IN)
        for g in prod_gens:
            if g.is_zero():
                continue
            if not target.contains(ring_as_module(ring).vec([g])):
                return False, f"semi-primeness fails at {g} (instance {i})"
    return True, f"{count} instances"


def _direct_sum_instances(count, seed):
    rng = random.Random(seed)
    rings = _property_rings()
    for i in range(count):
        ring = rings[i % len(rings)]
        cl = ModuleClosure(_random_ideal_module(ring, rng))
        F = free_module(ring, (0, 0))
        n1 = random_ideal_gens(ring, rng, 2, 2)
        n2 = random_ideal_gens(ring, rng, 2, 2)
        N = F.submodule(
            [Vec.from_polys([ring.elem(g).poly]).pad(2) for g in n1] +
            [Vec.from_polys([ring.elem(g).poly]).pad(2, 1) for g in n2])
        whole = cl.closure(N)
        c1 = cl.closure(ideal_submodule(ring, n1))
        c2 = cl.closure(ideal_submodule(ring, n2))
        expected = F.submodule(
            [g.pad(2) for g in c1.gens] + [g.pad(2, offset=1) for g in c2.gens])
        if not whole.same_as(expected):
            return False, f"direct-sum closure mismatch (instance {i})"
    return True, f"{count} instances"


def _faithful_bound_instances(count, seed):
    rng = random.Random(seed)
    rings = _property_rings()
    for i in range(count):
        ring = rings[i % len(rings)]
        cl = ModuleClosure(_random_ideal_module(ring, rng))
        faithful = check_faithfulness(cl, ring)
        if not faithful.holds:
            return False, f"ideal-module closure not faithful (instance {i})"
        N = ideal_submodule(ring, random_ideal_gens(ring, rng, 2, 3))
        closed = cl.closure(N)
        R1 = ring_as_module(ring)
        bound = N.sum(Submodule(R1, tuple(
            scaled_gens(R1, ring.maximal_ideal_gens()))))
        for g in closed.gens:
            if not bound.contains(g):
                return False, f"N^cl exceeds N + mM at {g} (instance {i})"
    return True, f"{count} instances"


def _sum_intersection_instances(count, seed):
    rng = random.Random(seed)
    rings = _property_rings()
    for i in range(count):
        ring = rings[i % len(rings)]
        S = _random_ideal_module(ring, rng)
        T = _random_ideal_module(ring, rng)
        both = direct_sum_closure(S, T)
        inter = intersect_closures(ModuleClosure(S), ModuleClosure(T))
        N = ideal_submodule(ring, random_ideal_gens(ring, rng, 2, 2))
        a = both.closure(N)
        b = inter.closure(N)
        if not a.same_as(b):
            return False, f"cl_(S+T) != cl_S cap cl_T (instance {i})"
    return True, f"{count} instances"


def _containment_monotonicity_instances(count, seed):
    rng = random.Random(seed)
    rings = _property_rings()
    for i in range(count):
        ring = rings[i % len(rings)]
        S = _random_ideal_module(ring, rng)
        SS = direct_sum(S, S)
        T = None
        for _ in range(8):
            extra = [] if rng.random() < 0.3 else [_random_column(SS, rng)]
            K = SS.submodule([v for v in extra if v is not None])
            cand = SS.quotient_by(K)
            if not cand.is_zero_module():
                T = cand
                break
        if T is None:
            continue
        clS = ModuleClosure(S)
        clT = ModuleClosure(T)
        N = ideal_submodule(ring, random_ideal_gens(ring, rng, 2, 2))
        closedS = clS.closure(N)
        for g in closedS.gens:
            if not clT.member(g, N).holds:
                return False, f"cl_S not within cl_T (instance {i}, {g})"
    return True, f"{count} instances"


def _random_column(M, rng):
    from .sampling import random_homogeneous_elem, achievable_degrees
    degs = achievable_degrees(M.ring, 1, 3)
    if not degs:
        return None
    j = rng.randrange(M.ngens)
    e = random_homogeneous_elem(M.ring, rng.choice(degs), rng)
    if e is None:
        return None
    return Vec.from_polys([e.poly]).pad(M.ngens, j)


PROPERTY_SUITES = (
    ("closure axioms", _closure_axioms_instances, 200, 701),
    ("semi-primeness", _semi_primeness_instances, 50, 702),
    ("direct-sum closure", _direct_sum_instances, 50, 703),
    ("faithfulness and N+mM bound", _faithful_bound_instances, 50, 704),
    ("sum vs intersection", _sum_intersection_instances, 50, 705),
    ("containment monotonicity", _containment_monotonicity_instances, 50,
     706),
)


def _run_suite(k):
    """Property suite k as (passed, detail, seconds)."""
    name, fn, count, seed = PROPERTY_SUITES[k]
    t0 = time.monotonic()
    passed, detail = fn(count, seed)
    return passed, f"{name}: {detail}", time.monotonic() - t0


def _criterion_7(outcomes):
    """Criterion 7 from its suites' outcomes, taken in suite order: the
    detail of the first failing suite (later ones are not read), else every
    detail joined; `seconds` is the sum of the suites' own times."""
    details, seconds = [], 0.0
    for passed, detail, secs in outcomes:
        seconds += secs
        if not passed:
            return CriterionResult(7, criterion_7.title, False, detail,
                                   seconds)
        details.append(detail)
    return CriterionResult(7, criterion_7.title, True, "; ".join(details),
                           seconds)


def criterion_7():
    return _criterion_7(map(_run_suite, range(len(PROPERTY_SUITES))))


criterion_7.number = 7
criterion_7.title = "randomized property suites (>= 50 instances each)"


# --- criterion 8: brute-force oracle agreement ------------------------------------


def _brute_ideal_rows(ring, gens, d):
    cols = [Vec.from_polys([ring.elem(g).poly]) for g in gens]
    cols += ring.free_relation_basis(1)
    rows, terms = span_rows(cols, (0,), d, ring.ambient)
    echelon = Echelon(ring.ambient.field)
    for row in rows:
        echelon.add(row)
    return echelon, terms


def _brute_ideal_member(ring, gens, elem) -> bool:
    elem = ring.elem(elem)
    if elem.is_zero():
        return True
    d = elem.degree()
    echelon, terms = _brute_ideal_rows(ring, gens, d)
    coords = vec_coords(Vec.from_polys([elem.poly]), terms,
                        ring.ambient.field)
    return not echelon.add(coords)      # in the span: the rank stays


def _brute_closure_dim(ring, s_gens, n_gens, d):
    """dim_k of {u in R_d : s u in (N S)_* for every generator s} by pure
    linear algebra (no Groebner reduction)."""
    amb = ring.ambient
    fld = amb.field
    monos = monomials_of_wdeg(amb, d)
    if not monos:
        return 0
    prod_gens = [n * s for n in n_gens for s in s_gens]
    constraints = []
    for s in s_gens:
        dd = d + s.degree()
        echelon, terms = _brute_ideal_rows(ring, prod_gens, dd)
        for m in monos:
            p = amb.monomial(m) * s.poly
            coords = vec_coords(Vec.from_polys([p]), terms, fld)
            constraints.append((m, echelon.residual(coords)))
    # one row per coefficient of u, concatenating the residuals across the
    # per-generator constraints; valid u form the left kernel
    ncols = len(monos)
    blocks = []
    for si in range(len(s_gens)):
        blocks.append([constraints[si * len(monos) + mi][1]
                       for mi in range(len(monos))])
    matrix = []
    for mi in range(len(monos)):
        row = []
        for block in blocks:
            row.extend(block[mi])
        matrix.append(row)
    valid_dim = ncols - rank(matrix, fld)
    return valid_dim - graded_span_dim(list(ring.free_relation_basis(1)),
                                       (0,), d, amb)


def _engine_closure_dim(ring, closed, d):
    ideal = list(ring.free_relation_basis(1))
    return (graded_span_dim(list(closed.gens) + ideal, (0,), d, ring.ambient)
            - graded_span_dim(ideal, (0,), d, ring.ambient))


@_criterion(8, "Groebner membership and closures agree with linear algebra")
def criterion_8():
    rng = random.Random(801)
    rings = [_poly_ring(("x", "y")), _segre_ring(),
             _poly_ring(("x", "y", "z"), prime_field(5))]
    member_checks = 0
    for i in range(60):
        ring = rings[i % len(rings)]
        gens = random_ideal_gens(ring, rng, 3, 4)
        N = ideal_submodule(ring, gens)
        degs = [d for d in range(1, 7) if monomials_of_wdeg(ring.ambient, d)]
        from .sampling import random_homogeneous_elem
        u = random_homogeneous_elem(ring, rng.choice(degs), rng)
        if u is None:
            continue
        engine = N.contains(ring_as_module(ring).vec([u]))
        brute = _brute_ideal_member(ring, gens, u)
        if engine != brute:
            return False, f"membership mismatch on {u} (instance {i})"
        member_checks += 1
    closure_checks = 0
    for i in range(24):
        ring = rings[i % 2]
        s_gens = [ring.elem(g) for g in random_ideal_gens(ring, rng, 2, 2)]
        S = ideal_as_module(ring, s_gens)
        if S.is_zero_module():
            continue
        n_gens = [ring.elem(g) for g in random_ideal_gens(ring, rng, 2, 3)]
        cl = ModuleClosure(S)
        closed = cl.closure(ideal_submodule(ring, n_gens))
        for d in range(0, 7):
            brute = _brute_closure_dim(ring, s_gens, n_gens, d)
            engine = _engine_closure_dim(ring, closed, d)
            if brute != engine:
                return False, (f"closure dimension mismatch at degree {d} "
                               f"(instance {i}: engine {engine}, "
                               f"brute {brute})")
        closure_checks += 1
    return True, (f"{member_checks} membership and {closure_checks} closure "
                  f"instances agree up to degree 6")


# --- criteria 9-10: triviality over regular and non-regular rings -----------------


@_criterion(9, "free and top-syzygy closures are trivial over regular rings")
def criterion_9():
    details = []
    for names in (("x", "y"), ("x", "y", "z")):
        ring = _poly_ring(names)
        sample = sample_ideals(ring, 20, seed=901 + len(names))
        free_cl = ModuleClosure(free_module(ring, (0, 1)), "cl_F")
        out = is_trivial_on_sample(free_cl, sample)
        if not out.holds:
            return False, f"cl_F nontrivial over k[{','.join(names)}]: " \
                          f"{out.note}"
        Z = residue_field(ring).syzygy(len(names))
        if Z.relations:
            return False, "top syzygy of k is not free over a regular ring"
        syz_cl = ModuleClosure(Z, "cl_syz")
        out = is_trivial_on_sample(syz_cl, sample)
        if not out.holds:
            return False, f"cl_syz^d(k) nontrivial over k[{','.join(names)}]"
        details.append(f"k[{','.join(names)}]: both trivial on 20 ideals")
    return True, "; ".join(details)


@_criterion(10, "cl_syz^2(k) is nontrivial over the quadric cone")
def criterion_10():
    ring = _segre_ring()
    Z = residue_field(ring).syzygy(2)
    cl = ModuleClosure(Z, "cl_syz2")
    special = ideal_submodule(ring, ["a^2", "a*b", "b*c", "c^2"])
    sample = [special] + sample_ideals(ring, 9, seed=1001)
    out = is_trivial_on_sample(cl, sample)
    if out.holds:
        return False, "closure reported trivial on the sample"
    N, g = out.witness
    witness = str(g.component(0))
    return True, (f"nontrivial: witness {witness} enters the closure of "
                  f"({', '.join(sorted(str(v.component(0)) for v in N.gens))})")


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]


def _units(fn):
    """The independent units of a criterion, as (number, suite): criterion
    7 is one unit per property suite, every other criterion one whole."""
    if fn.number == 7:
        return [(7, k) for k in range(len(PROPERTY_SUITES))]
    return [(fn.number, None)]


def _run_unit(unit):
    """A criterion's CriterionResult, or a suite's (passed, detail,
    seconds)."""
    number, suite = unit
    if suite is not None:
        return _run_suite(suite)
    return next(fn for fn in CRITERIA if fn.number == number)()


def _run_unit_in_worker(unit):
    """`_run_unit` in a pool worker; None when it raised.  An exception
    does not cross back: one whose constructor takes other arguments than
    its message cannot be unpickled in the parent, and that would break
    the pool.  The parent runs a unit that raised again, and gets the
    same exception, since every unit is deterministic."""
    try:
        return _run_unit(unit)
    except Exception:
        return None


def _worker_count(units):
    """Processes to run `units` units on: one per CPU this process may use
    (one where the platform does not say which CPUs those are)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(units, len(os.sched_getaffinity(0)))


def _report(run, verbose):
    """`run(fn)` for each criterion, in criterion order; with `verbose`,
    each line is printed as its result comes in."""
    results = []
    for fn in CRITERIA:
        results.append(run(fn))
        if verbose:
            print(results[-1].line(), flush=True)
    return results


def run_all(verbose=True):
    """Run the criteria and return their results in criterion order, on
    worker processes or in this one as the module docstring says (a
    forked child holds a copy of the calling thread alone, hence no pool
    while other threads are alive).  A unit whose worker raised or died
    is run again in this process; once a worker dies, the pool is broken
    and every unit still out is run here.  Every worker has been reaped
    when this returns or raises."""
    units = [u for fn in CRITERIA for u in _units(fn)]
    workers = _worker_count(len(units))
    if workers > 1:
        import multiprocessing
        if threading.active_count() > 1 or \
                "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers < 2:
        return _report(lambda fn: fn(), verbose)
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    # the closure-axioms suite, about a third of the work, goes first
    units.sort(key=lambda u: u != (7, 0))
    # an interrupt reaches this process alone, which then ends the workers
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
    try:
        pending = {u: pool.submit(_run_unit_in_worker, u) for u in units}

        def outcome(unit):
            try:
                out = pending[unit].result()
            except BrokenProcessPool:
                out = None
            return _run_unit(unit) if out is None else out

        def run(fn):
            if fn.number == 7:
                return _criterion_7(map(outcome, _units(fn)))
            return outcome((fn.number, None))

        return _report(run, verbose)
    except BaseException:
        # an early exit ends the running units too: by the executor's
        # terminate_workers (Python 3.14) where it has one, else by its
        # worker table, read so that a change to it cannot hide the exit
        stop = getattr(pool, "terminate_workers", None)
        if stop is not None:
            stop()
        else:
            for proc in list((getattr(pool, "_processes", None)
                              or {}).values()):
                proc.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
