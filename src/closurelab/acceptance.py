"""Built-in acceptance suite: one callable per criterion.

Every check is an exact symbolic computation (tolerance: exact equality).
`closure-lab verify-paper` prints one pass/fail line per criterion, and
tests/test_acceptance.py asserts each one.  Criteria 1-6 are the paper's
worked examples, stated once, as sections of the scripts in the checkout's
`scripts/` (PAPER_SCRIPTS, `sections`); criteria 7-10 are Python.

`run_all` runs each script once, the other criteria, and criterion 7
suite by suite, on forked worker processes, one per CPU the process may
use.  Its lines and records are those of running the criteria one after
another: the lines still come in criterion order, each as soon as its
result is in.  A record's `seconds` is the time its own computation took,
wherever it ran (criterion 7 adds up its suites'), so the `seconds` of a
run add up to more than its wall time.  The criteria are run in this
process instead when one CPU is usable, when the platform cannot fork, or
when other threads are alive.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
import signal
import threading
import time
from pathlib import Path

from .closure import (ModuleClosure, MonomialIntegralClosure, TrivialClosure,
                      check_faithfulness, direct_sum_closure,
                      intersect_closures, is_trivial_on_sample)
from .dsl import Parser
from .field import QQ, prime_field
from .linalg import (Echelon, graded_span_dim, monomials_of_wdeg, rank,
                     span_rows, vec_coords)
from .modules import (direct_sum, free_module, ideal_as_module,
                      ideal_submodule, residue_field, ring_as_module,
                      scaled_submodule)
from .orders import DEGREVLEX, wdegrevlex
from .poly import PolyRing, Vec
from .ring import make_quotient_ring
from .sampling import random_ideal_gens, sample_ideals
from .session import EvalError, Session
from .values import Record


class CriterionResult(Record):
    __slots__ = ("number", "title", "passed", "detail", "seconds")

    def __init__(self, number: int, title: str, passed: bool, detail: str,
                 seconds: float):
        self._set_slots(number, title, passed, detail, seconds)

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
        run.units = [(_run_criterion, number)]
        return run
    return wrap


def _run_criterion(number):
    """{number: the CriterionResult of CRITERIA's criterion number}."""
    return {number: next(fn for fn in CRITERIA if fn.number == number)()}


# --- criteria 1-6: the worked examples, as sections of the paper scripts ------


SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"
# the scripts that state criteria 1-6, and the criteria each one holds
PAPER_SCRIPTS = {"square_subring.clab": (1,), "hypersurface_xyuv.clab": (2,),
                 "veronese_s2.clab": (3, 5, 6),
                 "integral_obstruction.clab": (4,)}
MARKER = re.compile(r"# criterion (\d+): (.+)")
# facts that are values, not true or false, by criterion and statement
# text: what the statement's record holds (_holds)
VALUES = {2: {"check equal(mult(I, K), ideal(R, x^3, x^2*u, x*u^2, u^3));":
              {"result": {"left": ["u^3", "x*u^2", "x^2*u", "x^3"]}}},
          4: {"check dietz_obstruction(integral_closure, [x, y], 3);":
              {"result": {"t": 1}},
              "check dietz_obstruction(trivial, [x, y], 3);":
              {"result": {"t": None}}},
          5: {"check not colon_capturing(trivial, R, [a, d], plain);":
              {"witness": "b^2"}},
          6: {"modify T = parameter_chain(R, clS, [a, d], 1);":
              {"result": {"stages": [{}, {"step": {"u": ["b^2"]}}],
                          "image_of_one_in_m": False}}}}


def _holds(value, want) -> bool:
    """value holds want: a dict at least its keys and a list as many
    items, each holding what want's does; anything else is equal."""
    if isinstance(want, dict):
        return isinstance(value, dict) and all(
            k in value and _holds(value[k], w) for k, w in want.items())
    if isinstance(want, list):
        return isinstance(value, list) and len(value) == len(want) and \
            all(map(_holds, value, want))
    return type(value) is type(want) and value == want


def sections(text):
    """(line, section, statement, span) of each statement of a script, and
    the title of each section by number: `# criterion N: <title>` starts
    section N, and section 0, the set-up, precedes the first."""
    parser, titles, of_line = Parser(text), {}, [0]
    stmts = parser.parse_script()
    for line in text.split("\n"):
        if m := MARKER.fullmatch(line):
            titles[int(m[1])] = m[2]
        of_line.append(int(m[1]) if m else of_line[-1])
    lines = [span.where()["line"] for span in parser.spans]
    return [(n, of_line[n], stmt, span)
            for n, stmt, span in zip(lines, stmts, parser.spans)], titles


def _run_script(name):
    """The CriterionResult of each section of scripts/name, by number: it
    fails at the first statement of the set-up or the section that is an
    error, a false check or a value other than VALUES gives, or when the
    section lacks a check or a statement VALUES names."""
    stmts, titles = sections((SCRIPTS / name).read_text(encoding="utf-8"))
    if tuple(titles) != PAPER_SCRIPTS[name]:
        raise EvalError(f"{SCRIPTS / name}: sections {tuple(titles)}, "
                        f"expected {PAPER_SCRIPTS[name]}")
    session, out = Session(), {}
    ran = [(line, n, session.eval_statement(stmt, span))
           for line, n, stmt, span in stmts]
    for number, title in titles.items():
        mine = [(line, n, res) for line, n, res in ran if n in (0, number)]
        values, checks, passed = dict(VALUES.get(number, {})), 0, False
        for line, n, res in mine:
            want = values.pop(res.src, {})
            if res.error:
                why = f"error: {res.error}"
            elif res.ok is False:
                why = "does not hold"
            elif not _holds(res.record(), want):
                why = f"does not read {json.dumps(want)}"
            else:
                checks += n == number and res.ok is True
                continue
            detail = f"{name} line {line}: {res.src} {why}"
            break
        else:
            passed = checks > 0 and not values
            own = [line for line, n, _res in mine if n == number]
            if passed:
                detail = (f"{name} lines {own[0]}-{own[-1]}: checks hold "
                          f"({checks}), values as given "
                          f"({len(VALUES.get(number, ()))})")
            else:
                detail = (f"{name}: section {number} lacks "
                          f"{next(iter(values), 'a check')}")
        out[number] = CriterionResult(number, title, passed, detail, sum(
            res.seconds for _line, _n, res in mine))
    return out


def _scripted(number, name):
    """Criterion number, as the section of scripts/name that states it."""
    def run():
        return _run_script(name)[number]
    run.number = number
    run.units = [(_run_script, name)]
    return run


# --- shared fixtures -----------------------------------------------------------


def _segre_ring(field=QQ):
    amb = PolyRing(("a", "b", "c"), field, wdegrevlex((2, 2, 2)))
    return make_quotient_ring(amb, [amb.parse("a*c - b^2")])


def _poly_ring(names, field=QQ):
    return make_quotient_ring(PolyRing(names, field, DEGREVLEX), [])


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
        bound = N.sum(scaled_submodule(R1, ring.maximal_ideal_gens()))
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
criterion_7.units = [(_run_suite, k) for k in range(len(PROPERTY_SUITES))]


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
    residuals = []      # per generator s: the residual of m * s, per m
    for s in s_gens:
        echelon, terms = _brute_ideal_rows(ring, prod_gens, d + s.degree())
        residuals.append([echelon.residual(vec_coords(
            Vec.from_polys([amb.monomial(m) * s.poly]), terms, fld))
            for m in monos])
    # one row per coefficient of u, its residuals across the generators
    # of S side by side; valid u form the left kernel
    matrix = [[c for block in residuals for c in block[mi]]
              for mi in range(len(monos))]
    valid_dim = len(monos) - rank(matrix, fld)
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


CRITERIA = sorted([_scripted(n, name) for name, numbers in
                   PAPER_SCRIPTS.items() for n in numbers] +
                  [criterion_7, criterion_8, criterion_9, criterion_10],
                  key=lambda fn: fn.number)


def _run_unit(unit):
    """The outcome of a unit, (function, argument): a suite's (passed,
    detail, seconds), or else CriterionResults by number."""
    fn, arg = unit
    return fn(arg)


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


def _report(outcome, verbose):
    """The result of each criterion, in criterion order, from outcome(unit)
    of its units; with `verbose`, each line is printed as it comes in."""
    results = []
    for fn in CRITERIA:
        outs = [outcome(unit) for unit in fn.units]
        results.append(_criterion_7(outs) if fn.number == 7 else
                       outs[0][fn.number])
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
    for name in PAPER_SCRIPTS:      # FileNotFoundError before any line
        (SCRIPTS / name).stat()
    units = list(dict.fromkeys(u for fn in CRITERIA for u in fn.units))
    workers = _worker_count(len(units))
    if workers > 1:
        import multiprocessing
        if threading.active_count() > 1 or \
                "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers < 2:
        return _report(functools.cache(_run_unit), verbose)
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    # the closure-axioms suite, about a third of the work, goes first
    units.sort(key=lambda u: u != (_run_suite, 0))
    # an interrupt reaches this process alone, which then ends the workers
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
    try:
        pending = {u: pool.submit(_run_unit_in_worker, u) for u in units}

        @functools.cache
        def outcome(unit):
            try:
                out = pending[unit].result()
            except BrokenProcessPool:
                out = None
            return _run_unit(unit) if out is None else out

        return _report(outcome, verbose)
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
