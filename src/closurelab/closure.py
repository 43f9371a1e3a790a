"""Closure operations on submodules as first-class values.

Supported kinds: the trivial closure, module closures cl_S for a finitely
presented S, finite intersections, and integral closure of monomial ideals
(Newton-polyhedron test).  A module closure decides u in N^cl_M by checking,
for every generator s_i of S, that s_i (x) u lies in the image of
S (x) N -> S (x) M.

Lemma (generators suffice): if s_i (x) u lies in the image for every
generator s_i of S, then s (x) u does for every s in S.  Proof: write
s = sum r_i s_i; then s (x) u = sum r_i (s_i (x) u) stays in the image,
which is a submodule.  This finiteness is what makes the membership
decidable.

The full closure N^cl_M is computed exactly as the kernel of
M -> (+)_i (S (x) M)/im(S (x) N), one summand at a time, never by a
degree-bounded search: for each generator s_i, the span so far shrinks to
its u with s_i (x) u in the image, one seeded preimage run.

Skip rule: when s_i (x) w lies in the image for every generator w of the
span so far, the preimage is the whole span (by R-linearity s_i (x) u is
then in the image for every u = sum r_w w of the span), so that summand's
run is skipped and the span kept.  The generators kept are always
canonical (the unit vectors of M's cover, or the distinct monic normal
forms of the reduced basis a preimage run returned), and a run on them
would hand back the same list, so the closure is unchanged by the skip.

Both member and closure work on kernel rows and terms (gb) from input to
answer.  A Vec holds kernel terms, so nothing is encoded: the image
context relabels N's generators, s_i (x) u is a relabel of u's terms into
the components of s_i, and the span so far stays the rows a preimage run
hands back.  The closure's kept generators are Vecs of their rows, and
the image's Vec generators are built only for certificates.

The axiom checkers are instance-level falsifiers: they verify a stated
inclusion on the given data and report {holds-on-instance} or
{fails-with-witness}; they never claim a proof over all modules.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import gcd
from operator import mul
from weakref import WeakKeyDictionary

from .modules import (FPModule, ModuleMap, Submodule, _minimal_submodule,
                      _unit_rows, direct_sum, free_module, ideal_submodule,
                      quotient_module, r_preimage, r_span_basis,
                      ring_as_module, tensor, tensor_elem)
from .poly import ContextError, DomainError, Vec, _shift_terms, mono_divides
from .ring import ParameterSequence, QuotientRing, RingElem
from .values import Record


class UnsupportedQueryError(ValueError):
    pass


class MembershipOutcome(Record):
    __slots__ = ("holds", "certificate")

    def __init__(self, holds: bool, certificate: object = None):
        self.holds = holds
        self.certificate = certificate

    def __bool__(self):
        return self.holds


class CheckOutcome(Record):
    __slots__ = ("holds", "witness", "note")

    def __init__(self, holds: bool, witness: object = None, note: str = ""):
        self.holds = holds
        self.witness = witness
        self.note = note

    def __bool__(self):
        return self.holds


class ClosureOp:
    """Base interface: membership of one element, and the full closure.

    member takes u as N.module.vec does, which refuses a vector of another
    rank.  Certificates are computed only on request: they need a block
    run on the generators and relations, which the yes/no answer does not.
    """

    name = "closure"

    def member(self, u, N: Submodule,
               want_certificate=False) -> MembershipOutcome:
        raise NotImplementedError

    def closure(self, N: Submodule) -> Submodule:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class TrivialClosure(ClosureOp):
    name = "trivial"

    def member(self, u, N, want_certificate=False):
        u = N.module.vec(u)
        if not N.contains(u):
            return MembershipOutcome(False)
        if not want_certificate:
            return MembershipOutcome(True)
        cert = N.certificate(u)
        return MembershipOutcome(True, [str(c) for c in cert] if cert else None)

    def closure(self, N):
        return Submodule(N.module, N.gens).minimalized()


class _ImageContext:
    """T = S (x) M and the image of S (x) N in it, for N inside M.

    Each generator of N is relabelled into the components p * nb + j of
    each generator s_p of S, nb = M.ngens, its kernel terms as they are
    (Vec.pad); span is their reduced basis with T's relations, which
    answers membership.  The image as a Submodule, with Vec generators
    s_p (x) n_q, is built only when a certificate asks for it, and only its
    block basis (Submodule.ext) is read.
    """

    def __init__(self, S: FPModule, N: Submodule, T: FPModule):
        self.S, self.N, self.T = S, N, T
        nb = N.module.ngens
        self.span = r_span_basis(T, [g.pad(T.ngens, i * nb)
                                     for i in range(S.ngens) for g in N.gens])

    @cached_property
    def image(self) -> Submodule:
        S, N = self.S, self.N
        return self.T.submodule([tensor_elem(S, N.module, p, nq)
                                 for p in range(S.ngens) for nq in N.gens])


class ModuleClosure(ClosureOp):
    """cl_S for a nonzero finitely presented module S."""

    def __init__(self, S: FPModule, label=None):
        if S.is_zero_module():
            raise DomainError("module closure needs a nonzero module")
        self.S = S
        self.name = label or "cl_S"
        self._tensor_slot = None
        self._image_slot = None

    def describe(self):
        return f"module_closure({self.name})"

    def _image_context(self, N: Submodule) -> _ImageContext:
        """S (x) M and the image of S (x) N in it, for N inside M.

        The last result is kept in one slot keyed by (N.module, N.gens),
        compared by value, so an equal but distinct N reuses it, together
        with its span and the image Submodule, with its ext basis, once a
        certificate has built them.  S (x) M has a slot of its own, keyed
        by M, so its relation basis, which S (x) M keeps and which seeds
        the span of every image, is built once per M however many N a
        caller walks through inside it.  One slot each,
        not a table per N or M: memory stays flat.  The slots are read and
        written by single attribute accesses and take no lock: every basis
        in a context is reduced, hence canonical, so two threads racing on
        one closure at worst build two equal contexts and keep either.
        """
        M = N.module
        if M.ring != self.S.ring:
            raise ContextError("closure module over a different ring")
        key = (M, N.gens)
        slot = self._image_slot
        if slot is not None and slot[0] == key:
            return slot[1]
        tensor_slot = self._tensor_slot
        if tensor_slot is None or tensor_slot[0] != M:
            tensor_slot = (M, tensor(self.S, M))
            self._tensor_slot = tensor_slot
        context = _ImageContext(self.S, N, tensor_slot[1])
        self._image_slot = (key, context)
        return context

    def member(self, u, N, want_certificate=False):
        """s_i (x) u is u's kernel terms relabelled into the components of
        s_i, tested against the image span."""
        u = N.module.vec(u)
        context = self._image_context(N)
        terms, nb = u._terms, N.module.ngens
        certs = []
        for i in range(self.S.ngens):
            if not context.span.contains_terms(_shift_terms(terms, i * nb)):
                return MembershipOutcome(False)
            if want_certificate:
                cert = context.image.certificate(
                    tensor_elem(self.S, N.module, i, u))
                certs.append([str(c) for c in cert] if cert else None)
        return MembershipOutcome(True, certs if want_certificate else None)

    def closure(self, N):
        """Keep, for one generator s_i of S at a time, the u of the span so
        far with s_i (x) u in the image: a preimage seeded by its span.

        The span so far is kernel rows throughout: the unit rows of M's
        cover, then the rows a preimage run hands back, relabelled into
        the components of s_i for the run's columns.  A generator whose
        columns s_i (x) w all lie in the image already cannot shrink the
        span (see the skip rule in the module docstring), and it makes no
        run.  The rows kept are canonical, so minimalization takes them as
        they are, and makes Vecs of the generators it keeps.
        """
        M = N.module
        context = self._image_context(N)
        span, nb = context.span, M.ngens
        rows = _unit_rows(nb)
        for i in range(self.S.ngens):
            if all(span.contains_terms(_shift_terms(row[3], i * nb))
                   for row in rows):
                continue
            rows = r_preimage(M.ring,
                              [_shift_terms(row[3], i * nb) for row in rows],
                              [row[3] for row in rows], nb, span,
                              context.T.ngens)
        return _minimal_submodule(M, rows)


class IntersectionClosure(ClosureOp):
    def __init__(self, parts, label=None):
        parts = list(parts)
        if not parts:
            raise DomainError("empty intersection")
        self.parts = parts
        self.name = label or ("intersect(" +
                              ", ".join(p.describe() for p in parts) + ")")

    def describe(self):
        return self.name

    def member(self, u, N, want_certificate=False):
        certs = []
        for part in self.parts:
            out = part.member(u, N, want_certificate)
            if not out.holds:
                return MembershipOutcome(False)
            certs.append(out.certificate)
        return MembershipOutcome(True, certs if want_certificate else None)

    def closure(self, N):
        """The intersection of the parts' closures.  Each part's closure
        comes minimalized, and so does each intersection, so the result
        is not minimalized again."""
        result = None
        for part in self.parts:
            c = part.closure(N)
            result = c if result is None else result.intersect(c)
        return result


def intersect_closures(*parts) -> IntersectionClosure:
    return IntersectionClosure(list(parts))


def direct_sum_closure(S: FPModule, T: FPModule) -> ModuleClosure:
    return ModuleClosure(direct_sum(S, T), label="cl_(S+T)")


# --- integral closure of monomial ideals -------------------------------------


def newton_facets(betas):
    """Inequalities (a, k), meaning a . alpha + k <= 0, that cut out the
    Newton polyhedron conv(betas) + nonnegative orthant.

    alpha lies in it iff some lambda >= 0 with sum 1 has
    sum_q lambda_q beta_q <= alpha.  Integer Fourier-Motzkin eliminates
    the lambdas from that system, in the variables (lambda, alpha), and
    leaves inequalities in alpha alone.  Each derived row is made
    primitive by its gcd and carries the set of input rows it combines.
    After k eliminations a row combining more than k + 1 input rows is
    not an extreme combination, hence redundant (Chernikov), and of rows
    combining the same input rows one is kept.  Rows without variables
    that always hold are dropped; with no betas the row 1 <= 0 remains,
    so no point is inside.  Exponent vectors of different lengths are
    refused.
    """
    betas = [tuple(b) for b in betas]
    t = len(betas)
    n = _common_length(betas)
    system = []                                 # (lambda, alpha, constant)
    for q in range(t):
        system.append(tuple(-(r == q) for r in range(t)) + (0,) * n + (0,))
    system.append((1,) * t + (0,) * n + (-1,))  # sum lambda <= 1
    system.append((-1,) * t + (0,) * n + (1,))  # sum lambda >= 1
    for i in range(n):                          # sum lambda_q beta_qi <= alpha_i
        system.append(tuple(b[i] for b in betas)
                      + tuple(-(j == i) for j in range(n)) + (0,))
    rows = {1 << i: r for i, r in enumerate(system)}   # input rows -> row
    for var in range(t):
        pos = [(h, r) for h, r in rows.items() if r[var] > 0]
        neg = [(h, r) for h, r in rows.items() if r[var] < 0]
        derived = [(h, r) for h, r in rows.items() if r[var] == 0]
        for hp, rp in pos:
            for hn, rn in neg:
                h = hp | hn
                if h.bit_count() <= var + 2:
                    fp, fn = -rn[var], rp[var]
                    derived.append(
                        (h, tuple(fp * x + fn * y for x, y in zip(rp, rn))))
        rows = {}
        for h, r in derived:
            if (any(r[:-1]) or r[-1] > 0) and h not in rows:
                g = gcd(*r)
                rows[h] = tuple(x // g for x in r)
    return tuple(sorted({(r[t:-1], r[-1]) for r in rows.values()}))


def _common_length(vectors) -> int:
    """The length that all the exponent vectors share (0 for none)."""
    lengths = sorted({len(v) for v in vectors})
    if len(lengths) > 1:
        raise DomainError(f"exponent vectors of different lengths: "
                          f"{', '.join(map(str, lengths))}")
    return lengths[0] if lengths else 0


def _inside(alpha, facets) -> bool:
    return all(sum(map(mul, a, alpha)) + k <= 0 for a, k in facets)


def newton_polyhedron_member(alpha, betas) -> bool:
    """Is alpha in conv(betas) + nonnegative orthant?  Exact, on integers;
    alpha and the betas must have one length."""
    alpha, betas = tuple(alpha), [tuple(b) for b in betas]
    _common_length([alpha, *betas])
    return _inside(alpha, newton_facets(betas))


def _monomial_exponents(N: Submodule):
    ring = N.ring
    if not ring.is_polynomial_ring:
        raise UnsupportedQueryError(
            "integral closure is supported over polynomial rings only")
    if N.module.ngens != 1 or N.module.relations:
        raise UnsupportedQueryError(
            "integral closure applies to ideals in the rank-one free module")
    betas = []
    for g in N.gens:
        p = g.component(0)
        if len(p.terms) != 1:
            raise UnsupportedQueryError(
                f"non-monomial ideal generator {p}")
        betas.append(next(iter(p.terms)))
    return betas


_FACETS: WeakKeyDictionary = WeakKeyDictionary()


def _facets_of(N: Submodule):
    """Newton facets of the monomial ideal N, computed once per N.

    They are kept, keyed by N's identity, for as long as N lives, and
    without a lock: two threads racing on one N at worst compute the same
    facets twice.
    """
    facets = _FACETS.get(N)
    if facets is None:
        facets = _FACETS[N] = newton_facets(_monomial_exponents(N))
    return facets


class MonomialIntegralClosure(ClosureOp):
    """Integral closure of monomial ideals via the Newton polyhedron."""

    name = "integral_closure"

    def member(self, u, N, want_certificate=False):
        facets = _facets_of(N)
        if isinstance(u, Vec) and u.ncomps != 1:
            raise UnsupportedQueryError(
                "integral closure applies to elements of the rank-one "
                "free module")
        u = N.module.vec(u)
        for (_comp, exps) in u.terms:
            if not _inside(exps, facets):
                return MembershipOutcome(False)
        return MembershipOutcome(True)

    def closure(self, N):
        facets = _facets_of(N)
        betas = _monomial_exponents(N)
        M = N.module
        if not betas:
            return M.zero_submodule()
        box = [max(col) for col in zip(*betas)]
        inside = [p for p in product(*(range(b + 1) for b in box))
                  if _inside(p, facets)]
        minimal = []
        for p in sorted(inside, key=lambda q: (sum(q), q)):
            if not any(mono_divides(m, p) for m in minimal):
                minimal.append(p)
        # the minimal generators in a polynomial ring, in minimalized()'s order
        amb = M.ring.ambient
        gens = [Vec(amb, 1, {(0, m): amb.field.one}) for m in minimal]
        gens.sort(key=lambda v: (v.degree(M.gen_degrees), str(v)))
        return Submodule(M, tuple(gens))


# --- convenience ---------------------------------------------------------------


def closure_of_ideal(cl: ClosureOp, ring: QuotientRing, gens) -> Submodule:
    return cl.closure(ideal_submodule(ring, gens))


def ideal_member(cl: ClosureOp, ring: QuotientRing, elem, gens,
                 want_certificate=False):
    N = ideal_submodule(ring, gens)
    u = ring_as_module(ring).vec([elem])
    return cl.member(u, N, want_certificate)


# --- axiom and colon-capturing checkers -----------------------------------------


def _ideal_inside(J: Submodule, gens) -> CheckOutcome:
    """Whether every one of gens, elements of R^1, lies in the ideal J; the
    witness is the first that does not, as a polynomial."""
    g = J.first_outside(gens)
    if g is None:
        return CheckOutcome(True)
    return CheckOutcome(False, witness=str(g.component(0)))


def check_faithfulness(cl: ClosureOp, ring: QuotientRing) -> CheckOutcome:
    """m is closed in R."""
    m = ideal_submodule(ring, ring.maximal_ideal_gens())
    return _ideal_inside(m, cl.closure(m).gens)


def check_functoriality(cl: ClosureOp, f: ModuleMap, N: Submodule) -> CheckOutcome:
    """f(N^cl_M) is contained in f(N)^cl_W on this instance."""
    if N.module != f.source:
        raise ContextError("N must live in the source of f")
    closedN = cl.closure(N)
    fN = f.target.submodule([f.apply(g) for g in N.gens])
    for g in closedN.gens:
        if not cl.member(f.apply(g), fN).holds:
            return CheckOutcome(False, witness=str(g))
    return CheckOutcome(True)


def check_semi_residuality(cl: ClosureOp, N: Submodule) -> CheckOutcome:
    """If N is closed in M then 0 is closed in M/N (on this instance)."""
    closedN = cl.closure(N)
    if not N.contains_submodule(closedN):
        return CheckOutcome(True, note="vacuous: N is not closed in M")
    Q = N.module.quotient_by(N)
    zero_closure = cl.closure(Q.zero_submodule())
    for g in zero_closure.gens:
        if not Q.element_is_zero(g):
            return CheckOutcome(False, witness=str(g))
    return CheckOutcome(True)


def _require_sop(ring: QuotientRing, xs) -> ParameterSequence:
    if isinstance(xs, ParameterSequence):
        if not xs.verified_partial_sop:
            raise DomainError("parameter sequence was not verified")
        return xs
    return ParameterSequence.verified(ring, xs)


def check_colon_capturing(cl: ClosureOp, ring: QuotientRing, xs,
                          variant="plain", t=None, a=None) -> CheckOutcome:
    """Colon-capturing instance checks.

    plain:    (x_1..x_k) : x_{k+1}        inside (x_1..x_k)^cl
    strongA:  (x_1^t, x_2..x_k)^cl : x_1^a inside (x_1^{t-a}, x_2..x_k)^cl
    strongB:  (x_1..x_k)^cl : x_{k+1}      inside (x_1..x_k)^cl
    """
    seq = _require_sop(ring, xs)
    elems = list(seq.elems)
    if variant == "plain":
        if len(elems) < 1:
            raise DomainError("need at least one parameter")
        J = ideal_submodule(ring, elems[:-1])
        colon = J.colon_elem(elems[-1])
        return _ideal_inside(cl.closure(J), colon.gens)
    if variant == "strongB":
        if len(elems) < 1:
            raise DomainError("need at least one parameter")
        closed = cl.closure(ideal_submodule(ring, elems[:-1]))
        return _ideal_inside(closed, closed.colon_elem(elems[-1]).gens)
    if variant == "strongA":
        if t is None or a is None or not (0 <= a < t):
            raise DomainError("strongA needs exponents 0 <= a < t")
        x1 = elems[0]
        rest = elems[1:]
        lhs = cl.closure(ideal_submodule(ring, [x1 ** t] + rest))
        colon = lhs.colon_elem(x1 ** a)
        rhs = ideal_submodule(ring, [x1 ** (t - a)] + rest)
        return _ideal_inside(cl.closure(rhs), colon.gens)
    raise DomainError(f"unknown colon-capturing variant {variant!r}")


def check_generalized_colon_capturing(cl: ClosureOp, ring: QuotientRing, xs,
                                      M: FPModule = None, f: ModuleMap = None,
                                      v=None) -> CheckOutcome:
    """(Rv)^cl_M intersect ker f inside (Jv)^cl_M, J = (x_1..x_k).

    Defaults build the canonical instance M = R, f the quotient map onto
    R/J, v = x_{k+1}.
    """
    seq = _require_sop(ring, xs)
    elems = list(seq.elems)
    if len(elems) < 2:
        raise DomainError("need a partial s.o.p. x_1..x_{k+1} with k >= 1")
    J = elems[:-1]
    xk1 = elems[-1]
    RJ = quotient_module(ring, J)
    if M is None:
        M = ring_as_module(ring)
    if f is None:
        if M.ngens != 1:
            raise DomainError("default quotient map needs M = R")
        f = ModuleMap(M, RJ, [[ring.one()]], check=False)
    if v is None:
        v = M.vec([xk1])
    v = M.vec(v)
    if not f.is_surjective():
        raise DomainError("f must be surjective onto R/J")
    fv = f.apply(v)
    expected = RJ.vec([xk1])
    if not RJ.elements_equal(fv, expected):
        raise DomainError("f(v) must equal x_{k+1} modulo J")
    Rv = M.submodule([v])
    closure_Rv = cl.closure(Rv)
    inter = closure_Rv.intersect(f.kernel())
    Jv = M.submodule([v.scale(x.poly) for x in (ring.elem(y) for y in J)])
    for g in inter.gens:
        if not cl.member(g, Jv).holds:
            return CheckOutcome(False, witness=str(g))
    return CheckOutcome(True)


# --- phantom extensions ---------------------------------------------------------


class PhantomInstance:
    """Presentation data for an injection alpha: R -> M, e_1 = alpha(1).

    rows is the n x m matrix (b_ij) whose columns are the relations of M on
    generators e_1..e_n.  The extension is cl-phantom iff the top row lies
    in the cl-closure, inside R^m, of the span of the remaining rows.
    """

    def __init__(self, ring: QuotientRing, rows, col_degrees=None):
        self.ring = ring
        self.rows = [[ring.elem(x) for x in row] for row in rows]
        self.m = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.m:
                raise DomainError("ragged phantom matrix")
        self.col_degrees = col_degrees

    @classmethod
    def from_module(cls, M: FPModule):
        """Instance for alpha: R -> M sending 1 to the first generator."""
        # the relations are stored as normal forms (FPModule.__init__)
        rows = [[RingElem._of_nf(M.ring, col.component(i))
                 for col in M.relations]
                for i in range(M.ngens)]
        degs = [col.degree(M.gen_degrees) for col in M.relations]
        return cls(M.ring, rows, col_degrees=degs)

    def free_cover(self) -> FPModule:
        if self.col_degrees is not None:
            shifts = tuple(-d for d in self.col_degrees)
        else:
            if any(x.is_zero() for x in self.rows[0]):
                raise DomainError("column degrees required when the top row "
                                  "has zero entries")
            shifts = tuple(-x.degree() for x in self.rows[0])
        return free_module(self.ring, shifts)


def phantom_test(cl: ClosureOp, inst: PhantomInstance) -> CheckOutcome:
    if inst.m == 0:
        return CheckOutcome(True, note="no relations: split extension")
    F = inst.free_cover()
    top = F.vec(inst.rows[0])
    span = F.submodule([row for row in inst.rows[1:]])
    return CheckOutcome(bool(cl.member(top, span).holds))


# --- obstructions and triviality -------------------------------------------------


def dietz_obstruction(cl: ClosureOp, ring: QuotientRing, xs, t_max):
    """Smallest t <= t_max with (x_1..x_k)^t in (x_1^{t+1},..,x_k^{t+1})^cl.

    A returned t certifies that cl fails strong colon-capturing version A
    on a faithful closure, hence cannot be a Dietz closure.
    """
    seq = _require_sop(ring, xs)
    elems = list(seq.elems)
    if not elems:
        raise DomainError("need parameters")
    R1 = ring_as_module(ring)
    for t in range(t_max + 1):
        prod = ring.one()
        for x in elems:
            prod = prod * (x ** t)
        N = R1.submodule([[x ** (t + 1)] for x in elems])
        if cl.member(R1.vec([prod]), N).holds:
            return t
    return None


def is_trivial_on_sample(cl: ClosureOp, sample) -> CheckOutcome:
    """closure_compute(N) == N for every N in the sample; witness otherwise."""
    for N in sample:
        g = N.first_outside(cl.closure(N).gens)
        if g is not None:
            return CheckOutcome(False, witness=(N, g),
                                note=f"nontrivial at {g}")
    return CheckOutcome(True)
