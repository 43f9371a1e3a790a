"""Finitely presented graded modules over a quotient ring.

An FPModule is (generator degrees, relation columns); a Submodule is a set
of generating vectors inside the free cover of its ambient module.  All
membership questions reduce to Groebner computations over the ambient
polynomial ring with the defining ideal on every component, so a single
engine answers ideal membership, module membership, colons, kernels and
syzygies uniformly.  A span run starts from the relation basis of its
module (the ideal's reduced basis on every component, plus the relations),
which it takes as a seed.  A free module's relation basis is the ring's.
A module is born with the basis its constructor already holds
(FPModule._with_basis): ideal_as_module keeps the value block of its one
syzygy run, a tensor with a free module relabels copies of the other
factor's rows, direct_sum relabels both factors' rows, and S (x) R is S.
Any other module builds its basis by one span run on first use, and
keeps it.  Every block-order question is one seeded run
(_block_basis) on the columns (map column | value), starting from the
reduced span basis of the target stacked on the ideal's basis on the
value components; both are kept, the span by its owner and the ideal's
rows by the ring (QuotientRing.free_relation_basis), each with its index,
so no seed is rebuilt for a run.  Preimages and syzygies are eliminating
runs, which hand back the value block alone (preimage_basis); their
generators are made canonical on its kernel rows (_distinct_monic).
Membership certificates read the value block of a normal form against
the whole block basis (Submodule.ext).  The ideal never enters a run as
input columns.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby
from operator import itemgetter

from .gb import (GroebnerBasis, Vec, _from_kernel, _normalize, _reduce_terms,
                 _to_kernel, buchberger)
from .linalg import Echelon
from .orders import ModuleOrder
from .poly import ContextError, DomainError, mono_divides
from .ring import QuotientRing


# --- quotient-ring module primitives ----------------------------------------


def ideal_columns(ring: QuotientRing, ncomps: int):
    cols = []
    for g in ring.ideal_basis:
        for j in range(ncomps):
            cols.append(Vec(ring.ambient, ncomps,
                            {(j, m): c for m, c in g.terms.items()}))
    return cols


def r_span_basis(M: FPModule, cols):
    """Groebner basis of the R-span of cols and the relations of M, in the
    cover of M; the run starts from M's relation basis."""
    amb = M.ring.ambient
    return buchberger(list(cols), M.ngens, ModuleOrder(amb.order), amb,
                      seed=M.relation_basis())


def unit_vectors(ring: QuotientRing, t: int):
    return [Vec.unit(ring.ambient, t, l) for l in range(t)]


def r_syzygies(ring: QuotientRing, cols, ncomps):
    """Generators over R of the syzygy module of cols in R^ncomps: the
    preimage of I P^ncomps under the map R^t -> R^ncomps they give, as the
    distinct monic normal forms of the reduced TOP basis of
    {a in P^t : sum a_l cols_l in I P^ncomps}."""
    cols = list(cols)
    return r_preimage(ring, cols, unit_vectors(ring, len(cols)),
                      ring.free_relation_basis(ncomps), ncomps)


def _block_basis(ring: QuotientRing, map_cols, values, span, ncomps,
                 eliminate=False) -> GroebnerBasis:
    """Reduced basis of the span of the columns (map_col_l | value_l), of
    span in P^ncomps and of I P^n in the last n components, in
    P^(ncomps + n) under the block order with P^ncomps dominant; values is
    not empty.  With eliminate, its value block alone (see buchberger).

    span is the target's reduced basis in P^ncomps, relations and ideal
    included.  One run, seeded with span's rows stacked on the ideal's
    basis in the last n components, which the ring keeps.
    """
    n = values[0].ncomps
    big, amb = ncomps + n, ring.ambient
    lower = ring.free_relation_basis(n, ncomps)
    cols = [Vec(amb, big, {**mc.terms, **v.pad(big, offset=ncomps).terms})
            for mc, v in zip(map_cols, values)]
    return buchberger(cols, big, lower.order, amb,
                      seed=GroebnerBasis.stacked(span, lower),
                      eliminate=eliminate)


def preimage_basis(ring: QuotientRing, map_cols, values, span,
                   ncomps) -> GroebnerBasis:
    """Reduced basis of {sum c_l values_l : sum c_l map_cols_l in span}
    + I P^n in P^n, under TOP over the ring order; values is not empty.

    The value block of _block_basis, which the eliminating run hands back
    as it is: its rows are the block basis's rows in the last n
    components, in basis order, relabelled.
    """
    return _block_basis(ring, map_cols, values, span, ncomps, eliminate=True)


def r_preimage(ring: QuotientRing, map_cols, values, span, ncomps):
    """Generators of {sum c_l values_l : sum c_l map_cols_l in span} + I R^n:
    the distinct monic normal forms of the rows of preimage_basis (two of
    them may be equal in R, as b^2 and ac are in k[a,b,c]/(b^2 - ac), and
    one may vanish there)."""
    values = list(values)
    if not values:
        return []
    basis = preimage_basis(ring, map_cols, values, span, ncomps)
    return _distinct_monic(ring, basis.ncomps, basis._rows)


def nf_vec(ring: QuotientRing, v: Vec) -> Vec:
    """Componentwise normal form of v modulo the defining ideal.

    When no term of v is divisible by a lead monomial of the ideal's
    reduced basis, no reduction step applies, so v is its own normal form
    and comes back as it is: relabelled copies of normal forms, such as the
    tensor image columns of ModuleClosure, are not reduced again.
    """
    leads = ring.ideal_leads
    if not any(mono_divides(e, m) for (_j, m) in v.terms for e in leads):
        return v
    return Vec(ring.ambient, v.ncomps,
               {(j, m): c for j in v.support()
                for m, c in ring.nf(v.component(j)).terms.items()})


def _distinct_monic(ring: QuotientRing, ncomps, rows, vecs=None) -> list:
    """The distinct nonzero monic normal forms modulo I P^ncomps of the
    kernel rows (comp, m, lc, terms) under TOP, as Vecs, first occurrences
    in order.

    Each row is normalized (gb._normalize), its terms in descending order,
    lead first.  A row none of whose terms an ideal lead divides is its own
    normal form, and is decoded once, divided by its lc.  Only a row that
    an ideal lead reaches is reduced, against the ring's basis of
    I P^ncomps, and normalized again; it may vanish, or meet another row.
    Rows compare by their int terms, which normalization makes canonical.

    Without vecs the rows are those of one reduced basis, pairwise
    distinct, and they are compared only when a row was reduced.  With
    vecs they are any candidates, always compared, and vecs holds for
    each the monic Vec it encodes, or None: a row that is its own normal
    form comes back as that Vec, not decoded again.
    """
    amb = ring.ambient
    p, code = amb.field.char, amb.code
    xor, add, guard = code.xor, code.add, code.guard
    leads = [e for _c, e, _lc, _t in ring._gb._rows]
    compare = vecs is not None
    forms = []
    for row, vec in zip(rows, vecs if compare else [None] * len(rows)):
        terms = row[3]
        if any(not ((((m - e) ^ xor) + add) & guard)
               for _j, m in terms for e in leads):
            ideal = ring.free_relation_basis(ncomps)
            terms, _mult = _reduce_terms(dict(terms), ideal._rows_of,
                                         ideal._key, code, p)
            if not terms:
                continue
            row, vec, compare = (*_normalize(terms, p), terms), None, True
        forms.append((row, vec))
    if compare:
        seen, unique = set(), []
        for form in forms:
            key = frozenset(form[0][3].items())
            if key not in seen:
                seen.add(key)
                unique.append(form)
        forms = unique
    return [vec if vec is not None
            else Vec(amb, ncomps, _from_kernel(row[3], row[2], p, code))
            for row, vec in forms]


# --- finitely presented modules ----------------------------------------------


class FPModule:
    """Graded module given by generator degrees and relation columns."""

    def __init__(self, ring: QuotientRing, gen_degrees, relations=()):
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        rels = []
        for col in relations:
            col = nf_vec(ring, self.vec(col))
            if col.is_zero():
                continue
            if not col.is_homogeneous(self.gen_degrees):
                raise DomainError(f"inhomogeneous relation column {col}")
            rels.append(col)
        self.relations = tuple(rels)

    # -- plumbing -------------------------------------------------------------

    @property
    def ngens(self):
        return len(self.gen_degrees)

    def __eq__(self, other):
        return (isinstance(other, FPModule) and self.ring == other.ring
                and self.gen_degrees == other.gen_degrees
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.ring, self.gen_degrees, self.relations))

    def vec(self, col) -> Vec:
        """A cover vector from ring elements / strings / polynomials, or a
        Vec of the cover's rank as it is; any other rank is refused."""
        if isinstance(col, Vec):
            if col.ncomps != self.ngens:
                raise ContextError(f"vector of rank {col.ncomps} in a module "
                                   f"of rank {self.ngens}")
            return col
        entries = [self.ring.elem(x).poly for x in col]
        if len(entries) != self.ngens:
            raise ContextError(f"vector of rank {len(entries)} in a module "
                               f"of rank {self.ngens}")
        return Vec.from_polys(entries) if entries else Vec.zero(
            self.ring.ambient, 0)

    def gen(self, i) -> Vec:
        return Vec.unit(self.ring.ambient, self.ngens, i)

    def gens(self):
        return [self.gen(i) for i in range(self.ngens)]

    @classmethod
    def _with_basis(cls, ring, gen_degrees, relations, basis):
        """The module of these relations, born with basis as its relation
        basis: the reduced TOP basis of their span and I P^n, which its
        constructor already holds, so no run builds it again.  A basis of
        another ring, rank or order is refused, as buchberger refuses such
        a seed.  A free module keeps none: its basis is the ring's."""
        module = cls(ring, gen_degrees, relations)
        amb = ring.ambient
        if (basis.ring, basis.ncomps, basis.order) != (
                amb, module.ngens, ModuleOrder(amb.order)):
            raise ValueError("relation basis of another ring, rank or order")
        if module.relations:
            module._relation_span = basis
        return module

    def relation_basis(self) -> GroebnerBasis:
        """Groebner basis of the relation span (the zero submodule).

        A free module's is the ring's basis of I P^n, which the ring keeps
        per rank: there are many free modules, such as the covers of
        preimage runs, and few ranks.  Otherwise it is the span of the
        relations in the free cover, kept as _relation_span: the basis the
        module was born with (_with_basis), or else built on first use.
        """
        if not self.relations:
            return self.ring.free_relation_basis(self.ngens)
        return self._relation_span

    @cached_property
    def _relation_span(self) -> GroebnerBasis:
        """The span of the relations in the free cover, built once."""
        return r_span_basis(free_module(self.ring, self.gen_degrees),
                            self.relations)

    def element_is_zero(self, v: Vec) -> bool:
        if self.ngens == 0:
            return True
        return self.relation_basis().contains(v)

    def elements_equal(self, v, w) -> bool:
        return self.element_is_zero(v - w)

    def is_zero_module(self) -> bool:
        return all(self.element_is_zero(self.gen(i)) for i in range(self.ngens))

    # -- submodules ------------------------------------------------------------

    def submodule(self, gens) -> "Submodule":
        vecs = []
        for g in gens:
            v = nf_vec(self.ring, self.vec(g))
            if not v.is_homogeneous(self.gen_degrees):
                raise DomainError(f"inhomogeneous generator {v}")
            if not v.is_zero():
                vecs.append(v)
        return Submodule(self, tuple(vecs))

    def zero_submodule(self) -> "Submodule":
        return Submodule(self, ())

    def full_submodule(self) -> "Submodule":
        return Submodule(self, tuple(self.gens()))

    def quotient_by(self, sub: "Submodule") -> "FPModule":
        if sub.module != self:
            raise ContextError("submodule of a different module")
        return FPModule(self.ring, self.gen_degrees,
                        self.relations + sub.gens)

    # -- presentation-level operations ----------------------------------------

    def minimal_presentation(self) -> "FPModule":
        return _minimal_presentation(self)

    def resolution(self, length: int):
        """Minimal graded free resolution data up to homological degree length.

        Returns a list [(degrees_0, []), (degrees_1, cols_1), ...] where
        cols_i are the columns of the i-th differential F_i -> F_{i-1},
        written in the cover of F_{i-1}.
        """
        mp = _minimal_presentation(self)
        steps = [(mp.gen_degrees, ())]
        if mp.ngens:
            cols = minimal_generators(free_module(self.ring, mp.gen_degrees),
                                      mp.relations)
            steps.append((tuple(c.degree(mp.gen_degrees) for c in cols),
                          tuple(cols)))
        while len(steps) <= length:
            prev_degrees, prev_cols = steps[-1]
            if not prev_cols:
                steps.append(((), ()))
                continue
            syz = r_syzygies(self.ring, list(prev_cols), len(steps[-2][0]))
            syz = minimal_generators(free_module(self.ring, prev_degrees), syz)
            steps.append((tuple(c.degree(prev_degrees) for c in syz),
                          tuple(syz)))
        return steps[:length + 1]

    def syzygy(self, d: int) -> "FPModule":
        """The d-th syzygy module of the minimal resolution."""
        if d == 0:
            return self.minimal_presentation()
        steps = self.resolution(d + 1)
        degrees_d = steps[d][0]
        rel_cols = steps[d + 1][1] if d + 1 < len(steps) else ()
        return FPModule(self.ring, degrees_d, rel_cols)

    def presentation_strings(self):
        return [[str(self.ring.nf(col.component(i))) for i in range(self.ngens)]
                for col in self.relations]

    def descriptor(self) -> dict:
        return {
            "ngens": self.ngens,
            "gen_degrees": list(self.gen_degrees),
            "relations": self.presentation_strings(),
        }

    def __repr__(self):
        return (f"FPModule(ngens={self.ngens}, degrees={self.gen_degrees}, "
                f"{len(self.relations)} relations)")


class Submodule:
    """Submodule of an FPModule, generated by vectors in its free cover.

    It keeps two bases, each built on first use: span, which answers
    membership, and ext, the block basis whose normal forms give
    certificates.  They are reduced, hence canonical, so two threads
    racing on one submodule at worst build two equal bases and keep
    either.  (On Python 3.11 cached_property holds a lock while it
    computes; from 3.12 it takes none.)
    """

    def __init__(self, module: FPModule, gens):
        self.module = module
        self.gens = tuple(gens)

    @property
    def ring(self):
        return self.module.ring

    @cached_property
    def span(self) -> GroebnerBasis:
        """Reduced basis of the span of gens and the module's relations."""
        return r_span_basis(self.module, self.gens)

    @cached_property
    def ext(self) -> GroebnerBasis:
        """The block basis of the columns (g_l | e_l), one for each
        generator and each relation of the module, seeded with I P^s."""
        cols = list(self.gens) + list(self.module.relations)
        s = self.module.ngens
        return _block_basis(self.ring, cols,
                            unit_vectors(self.ring, len(cols)),
                            self.ring.free_relation_basis(s), s)

    def contains(self, v) -> bool:
        v = self.module.vec(v)
        if self.module.ngens == 0:
            return True
        return self.span.contains(v)

    def certificate(self, v):
        """Coefficients over the submodule generators, or None.

        For a member v, returns ring elements (c_1..c_t) with
        v == sum c_q * gens_q modulo the ambient module's relations: minus
        the value block of the normal form of (v | 0) against ext, whose
        real block is then zero.  With no generators and no relations
        there is nothing to run on, and the certificate is empty.
        """
        v = self.module.vec(v)
        s = self.module.ngens
        t = len(self.gens) + len(self.module.relations)
        if not t:
            return [] if self.contains(v) else None
        full = self.ext.normal_form(v.pad(s + t))
        if not full.take_components(0, s).is_zero():
            return None
        coeffs = (-full.take_components(s, s + t)).to_polys()
        return [self.ring.elem(c) for c in coeffs[:len(self.gens)]]

    def first_outside(self, gens):
        """The first of gens, in order, that is not in this submodule, or
        None."""
        return next((g for g in gens if not self.contains(g)), None)

    def contains_submodule(self, other: "Submodule") -> bool:
        return self.first_outside(other.gens) is None

    def same_as(self, other: "Submodule") -> bool:
        return self.contains_submodule(other) and other.contains_submodule(self)

    def sum(self, other: "Submodule") -> "Submodule":
        if other.module != self.module:
            raise ContextError("submodules of different modules")
        return Submodule(self.module, self.gens + other.gens)

    def intersect(self, other: "Submodule") -> "Submodule":
        """Intersection: the elements of span(self) + relations that
        other's span basis contains."""
        if other.module != self.module:
            raise ContextError("submodules of different modules")
        cols = list(self.gens) + list(self.module.relations)
        gens = r_preimage(self.ring, cols, cols, other.span,
                          self.module.ngens)
        return Submodule(self.module, tuple(gens)).minimalized(canonical=True)

    def colon_elem(self, x) -> "Submodule":
        """(self :_M x) = {m in M : x m in self}."""
        gens = r_preimage(self.ring, scaled_gens(self.module, [x]),
                          self.module.gens(), self.span, self.module.ngens)
        return Submodule(self.module, tuple(gens)).minimalized(canonical=True)

    def minimalized(self, *, canonical=False) -> "Submodule":
        """Prune the generating set to a minimal one (deterministically).

        canonical says that the generators are already distinct monic
        normal forms, as a preimage run hands them out (r_preimage), so
        they are not made canonical again (see minimal_generators)."""
        return Submodule(self.module, tuple(
            minimal_generators(self.module, self.gens, canonical)))

    def gens_as_ring_elems(self):
        if self.module.ngens != 1:
            raise DomainError("not a rank-one cover")
        return [self.ring.elem(g.component(0)) for g in self.gens]

    def descriptor(self):
        return [[str(self.ring.nf(g.component(i)))
                 for i in range(self.module.ngens)] for g in self.gens]

    def __repr__(self):
        return f"Submodule({len(self.gens)} gens of {self.module!r})"


class ModuleMap:
    """Map of FPModules given by images of the source generators."""

    def __init__(self, source: FPModule, target: FPModule, cols, check=True):
        self.source = source
        self.target = target
        if source.ring != target.ring:
            raise ContextError("map between modules over different rings")
        self.cols = tuple(target.vec(c) for c in cols)
        if len(self.cols) != source.ngens:
            raise ContextError("one image per source generator required")
        if check:
            zero = target.submodule(())
            for r in source.relations:
                if not zero.contains(self.apply(r)):
                    raise DomainError(
                        f"map not well defined: relation {r} maps to a "
                        f"nonzero element")

    def apply(self, v) -> Vec:
        v = self.source.vec(v)
        acc = Vec.zero(self.target.ring.ambient, self.target.ngens)
        for i in range(self.source.ngens):
            p = v.component(i)
            if p:
                acc = acc + self.cols[i].scale(p)
        return nf_vec(self.target.ring, acc)

    def image(self) -> Submodule:
        return self.target.submodule(self.cols)

    def kernel(self) -> Submodule:
        gens = r_preimage(self.source.ring, self.cols, self.source.gens(),
                          self.target.relation_basis(), self.target.ngens)
        return Submodule(self.source, tuple(gens)).minimalized(canonical=True)

    def is_surjective(self) -> bool:
        im = self.image()
        return all(im.contains(self.target.gen(i))
                   for i in range(self.target.ngens))


# --- constructors -------------------------------------------------------------


def free_module(ring: QuotientRing, degrees) -> FPModule:
    return FPModule(ring, tuple(degrees), ())


def ring_as_module(ring: QuotientRing) -> FPModule:
    return free_module(ring, (0,))


def quotient_module(ring: QuotientRing, ideal_gens) -> FPModule:
    gens = [ring.elem(g) for g in ideal_gens]
    cols = [Vec.from_polys([g.poly]) for g in gens if not g.is_zero()]
    return FPModule(ring, (0,), cols)


def residue_field(ring: QuotientRing) -> FPModule:
    return quotient_module(ring, ring.maximal_ideal_gens())


def ideal_as_module(ring: QuotientRing, gens) -> FPModule:
    """The ideal (gens) presented as a module: one generator per given gen,
    relations the full syzygy module of the generators.

    One syzygy run: its value block, the reduced basis of the syzygies
    plus I P^t under TOP, is the module's relation basis, and its
    distinct monic rows (as r_syzygies hands them out) the relations."""
    elems = [ring.elem(g) for g in gens]
    if any(e.is_zero() for e in elems):
        raise DomainError("zero ideal generator")
    degrees = tuple(e.degree() for e in elems)
    if not elems:
        return free_module(ring, degrees)
    cols = [Vec.from_polys([e.poly]) for e in elems]
    basis = preimage_basis(ring, cols, unit_vectors(ring, len(cols)),
                           ring.free_relation_basis(1), 1)
    syz = _distinct_monic(ring, basis.ncomps, basis._rows)
    return FPModule._with_basis(ring, degrees, syz, basis)


def ideal_submodule(ring: QuotientRing, gens) -> Submodule:
    """The ideal (gens) as a submodule of the rank-one free module."""
    R1 = ring_as_module(ring)
    return R1.submodule([[g] for g in gens])


def _assembled_basis(ring: QuotientRing, ncomps, parts) -> GroebnerBasis:
    """The union of relation bases whose components are relabelled into
    disjoint sets of P^ncomps by maps that keep their order, as a reduced
    TOP basis: parts are (basis, relabel) pairs.  A relabel that keeps
    the component order keeps the TOP order within a part, and parts
    share no component, so the union is reduced; its rows are sorted by
    lead, descending, as a run leaves them."""
    order = ModuleOrder(ring.ambient.order)
    rows = [(relabel(c), e, lc,
             {(relabel(j), m): x for (j, m), x in t.items()})
            for basis, relabel in parts for c, e, lc, t in basis._rows]
    rows.sort(key=lambda row: order.term_key(row[:2]), reverse=True)
    return GroebnerBasis(ring.ambient, ncomps, order, rows)


def direct_sum(A: FPModule, B: FPModule) -> FPModule:
    """A (+) B, born with A's relation basis and B's shifted past A's
    generators."""
    if A.ring != B.ring:
        raise ContextError("modules over different rings")
    degrees = A.gen_degrees + B.gen_degrees
    n = len(degrees)
    rels = [col.pad(n) for col in A.relations]
    rels += [col.pad(n, offset=A.ngens) for col in B.relations]
    if not rels:
        return FPModule(A.ring, degrees)
    basis = _assembled_basis(A.ring, n, [
        (A.relation_basis(), lambda i: i),
        (B.relation_basis(), lambda j: j + A.ngens)])
    return FPModule._with_basis(A.ring, degrees, rels, basis)


def tensor(A: FPModule, B: FPModule) -> FPModule:
    """A (x) B by the standard presentation: generators a_i (x) b_j and
    relations rel(A) (x) gen(B) plus gen(A) (x) rel(B).

    A (x) R is A itself, and R (x) B is B: same generator degrees and,
    relabelled i -> i, same relations.  When one side is free, the
    relation basis is copies of the other side's, one per generator of
    the free side, relabelled into the components of A (x) B; only when
    both sides have relations is it built by a run, on first use.
    """
    if A.ring != B.ring:
        raise ContextError("modules over different rings")
    for X, Y in ((A, B), (B, A)):
        if Y.gen_degrees == (0,) and not Y.relations:
            return X
    nb = B.ngens
    n = A.ngens * nb

    def idx(i, j):
        return i * nb + j

    degrees = tuple(A.gen_degrees[i] + B.gen_degrees[j]
                    for i in range(A.ngens) for j in range(nb))
    rels = []
    for col in A.relations:
        for j in range(nb):
            rels.append(Vec(A.ring.ambient, n,
                            {(idx(i, j), m): c
                             for (i, m), c in col.terms.items()}))
    for col in B.relations:
        for i in range(A.ngens):
            rels.append(Vec(A.ring.ambient, n,
                            {(idx(i, j), m): c
                             for (j, m), c in col.terms.items()}))
    if not rels or (A.relations and B.relations):
        return FPModule(A.ring, degrees, rels)
    if A.relations:
        parts = [(A.relation_basis(), lambda i, j=j: idx(i, j))
                 for j in range(nb)]
    else:
        parts = [(B.relation_basis(), lambda j, i=i: idx(i, j))
                 for i in range(A.ngens)]
    return FPModule._with_basis(A.ring, degrees, rels,
                                _assembled_basis(A.ring, n, parts))


def tensor_elem(A: FPModule, B: FPModule, i: int, v: Vec) -> Vec:
    """gen_i(A) (x) v as a vector in the cover of tensor(A, B)."""
    nb = B.ngens
    n = A.ngens * nb
    return Vec(A.ring.ambient, n,
               {(i * nb + j, m): c for (j, m), c in v.terms.items()})


# --- minimal presentations -----------------------------------------------------


def _minimal_presentation(M: FPModule) -> FPModule:
    ring = M.ring
    degrees = list(M.gen_degrees)
    cols = [dict(c.terms) for c in M.relations]

    def find_unit():
        for cj, col in enumerate(cols):
            for (i, m), c in col.items():
                if not any(m):
                    return cj, i, c
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        cj, row, c = hit
        fld = ring.ambient.field
        inv = fld.inv(c)
        pivot = Vec(ring.ambient, len(degrees), dict(cols[cj]))
        new_cols = []
        for k, col in enumerate(cols):
            if k == cj:
                continue
            v = Vec(ring.ambient, len(degrees), dict(col))
            entry = v.component(row)
            if entry:
                v = v - pivot.scale(entry.scalar_mul(inv))
            new_cols.append(v)
        # drop the generator `row`
        keep = [i for i in range(len(degrees)) if i != row]
        remap = {old: new for new, old in enumerate(keep)}
        degrees = [degrees[i] for i in keep]
        cols = []
        for v in new_cols:
            v = nf_vec(ring, v)
            terms = {(remap[i], m): c for (i, m), c in v.terms.items()
                     if i != row}
            if terms:
                cols.append(terms)

    rel_vecs = [Vec(ring.ambient, len(degrees), t) for t in cols]
    rel_vecs = minimal_generators(free_module(ring, degrees), rel_vecs)
    return FPModule(ring, tuple(degrees), rel_vecs)


def minimal_generators(M: FPModule, cols, canonical=False):
    """Minimal generating set of the span of cols in M (modulo its relations).

    Graded Nakayama: deduplicate the monic normal forms, sort them by
    (degree, str), then drop each one that the others and the relations
    span, in that order.  The grading is positive with R_0 = k, so a
    candidate of degree d lies in that span exactly when its normal form
    modulo A (the kept candidates of lower degree plus the relations) lies
    in the k-span of the normal forms of the other degree-d candidates.
    Hence one Groebner basis of A per degree block, and rank tests on
    coefficient rows inside the block.  A candidate is printed only to
    order a block of two or more.

    With canonical, cols are distinct monic normal forms already, as
    r_preimage hands them out, and are taken as they are.
    """
    ring, shifts = M.ring, M.gen_degrees
    amb = ring.ambient
    p, code, wdeg = amb.field.char, amb.code, amb.wdeg
    if not canonical:
        key = ModuleOrder(amb.order).term_key
        rows, vecs = [], []
        for col in cols:
            if col.terms:
                terms, den = _to_kernel(col.terms, p, code)
                terms = dict(sorted(terms.items(), key=lambda t: key(t[0]),
                                    reverse=True))
                monic = next(iter(terms.values())) == den
                rows.append((*_normalize(terms, p), terms))
                vecs.append(col if monic else None)
        cols = _distinct_monic(ring, M.ngens, rows, vecs)
    graded = []
    for g in cols:
        degrees = {wdeg(m) + shifts[j] for j, m in g.terms}
        if len(degrees) > 1:
            raise DomainError(f"inhomogeneous generator {g}")
        graded.append((degrees.pop(), g))
    graded.sort(key=itemgetter(0))
    kept: list = []
    # basis of A, built for the first `spanned` kept candidates; without
    # relations the lowest block is already in normal form modulo A = I
    span = M.relation_basis() if M.relations else None
    spanned = 0
    for _d, block in groupby(graded, key=itemgetter(0)):
        block = [g for _d, g in block]
        if len(block) > 1:
            block.sort(key=str)
        if len(kept) > spanned:
            span = r_span_basis(M, kept)
            spanned = len(kept)
        forms = block if span is None else [span.normal_form(g)
                                            for g in block]
        flags = _outside_later_spans(forms, ring.ambient.field)
        kept += [g for g, keep in zip(block, flags) if keep]
    return kept


def _outside_later_spans(vecs, fld):
    """For each vector, whether it lies outside the k-span of those after it.

    Dropping, in order, each vector that the remaining others span keeps
    exactly these: a kept vector spanned by later ones and earlier kept
    ones would make the earliest such kept vector redundant.
    """
    index: dict = {}
    for v in vecs:
        for t in v.terms:
            index.setdefault(t, len(index))
    echelon = Echelon(fld)
    flags = [False] * len(vecs)
    for i in reversed(range(len(vecs))):
        row = [fld.zero] * len(index)
        for t, c in vecs[i].terms.items():
            row[index[t]] = c
        flags[i] = echelon.add(row)
    return flags


# --- regular sequences ----------------------------------------------------------


class RegularSequenceResult:
    def __init__(self, ok, fail_index=None, witness=None, note=""):
        self.ok = ok
        self.fail_index = fail_index
        self.witness = witness
        self.note = note

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "RegularSequenceResult(ok)"
        return (f"RegularSequenceResult(fail at {self.fail_index}, "
                f"witness={self.witness}, {self.note})")


def scaled_gens(M: FPModule, elems):
    """Generators x * e_j of (elems) M inside the cover of M."""
    out = []
    for x in elems:
        x = M.ring.elem(x)
        for j in range(M.ngens):
            out.append(Vec(M.ring.ambient, M.ngens,
                           {(j, m): c for m, c in x.poly.terms.items()}))
    return out


def colon_scan(M: FPModule, elems, degree_bound=None):
    """First index at which elems fails to be a regular sequence on M.

    For each i, with N = (x_1..x_{i-1})M, the generators of (N :_M x_i)
    that lie outside N (and have degree at most degree_bound, if given)
    are witnesses.  Returns (i, N, witness) for the first i with any, the
    witness least by (degree, str); None when there is no such i.
    """
    prev: list = []
    for i, x in enumerate(elems):
        N = Submodule(M, tuple(prev))
        for g in sorted(N.colon_elem(x).gens,
                        key=lambda v: (v.degree(M.gen_degrees), str(v))):
            if degree_bound is not None and g.degree(M.gen_degrees) > degree_bound:
                break
            if not N.contains(g):
                return i, N, g
        prev.extend(scaled_gens(M, [x]))
    return None


def is_regular_sequence(xs, M: FPModule) -> RegularSequenceResult:
    """Check that xs is a regular sequence on M; witness on failure.

    For each i the colon ((x_1..x_{i-1})M :_M x_i) must equal
    (x_1..x_{i-1})M, and M/(xs)M must be nonzero.
    """
    elems = [M.ring.elem(x) for x in xs]
    failure = colon_scan(M, elems)
    if failure is not None:
        i, _N, witness = failure
        return RegularSequenceResult(
            False, i, witness,
            note=f"({elems[i]}) times witness lies in the previous span")
    full = Submodule(M, tuple(scaled_gens(M, elems)))
    if all(full.contains(M.gen(j)) for j in range(M.ngens)):
        return RegularSequenceResult(False, len(elems), None,
                                     note="M equals (xs)M")
    return RegularSequenceResult(True)
