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
keeps it.
Normal forms modulo the ideal are the ring's: QuotientRing.nf for Vecs,
and its reduction of kernel terms for kernel rows (_distinct_monic).
A Vec holds kernel terms (poly.Vec), so no vector is encoded here.

Every block-order question is one seeded run of the one block-run
construction, _block_basis, on the columns (map column | value),
assembled from kernel terms as Vecs: a caller with Vecs hands over their
terms (_unit_pairs for the unit values of syzygies, kernels, colons and
certificates), and the closure hands over the rows it already holds.
The run starts from the reduced span basis of the target stacked on the
ideal's basis on the value components; both are kept, the span by its
owner and the ideal's rows by the ring (QuotientRing.free_relation_basis),
each with its index, so no seed is rebuilt for a run.  Preimages and
syzygies are eliminating runs, which hand back the value block alone;
r_preimage makes them canonical on its kernel rows (_distinct_monic) and
hands the rows to every caller, which makes Vecs (Vec._of_row) only of
what it returns.  minimal_generators takes kernel rows: the closure,
intersect, colon_elem, kernel and resolution hand it those of r_preimage
as they are, so a resolution stays in rows from one syzygy run to the
next, and only the generators kept become Vecs; their rank tests are
reductions of kernel rows too, by gb's one reducer, so no module here
does linear algebra of its own.  Submodule.minimalized sorts and
normalizes its Vecs' terms into rows (_vec_rows), as a minimal
presentation does its relations, which it then sorts by their terms, so
that its unit elimination, in rows, does not see the relations' order.
Membership certificates read the value block of a normal form against
the whole block basis (Submodule.ext).  The ideal never enters a run as
input columns.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby
from operator import itemgetter

from .gb import GroebnerBasis, _normalize, _reduce_terms, buchberger
from .orders import ModuleOrder
from .poly import ContextError, DomainError, Vec, _natural, _shift_terms
from .ring import QuotientRing, RingElem


# --- quotient-ring module primitives ----------------------------------------


def r_span_basis(M: FPModule, cols):
    """Groebner basis of the R-span of cols and the relations of M, in the
    cover of M; the run starts from M's relation basis."""
    amb = M.ring.ambient
    return buchberger(list(cols), M.ngens, ModuleOrder(amb.order), amb,
                      seed=M.relation_basis())


def _unit_pairs(cols):
    """(map columns, values) of the block columns (col_l | e_l), as kernel
    terms: each Vec col_l's terms as they are, and the unit e_l at the
    scale of col_l, its denominator.  These are the block columns of
    syzygies, kernels, colons and certificates."""
    return ([col._terms for col in cols],
            [{(l, 0): col._den} for l, col in enumerate(cols)])  # 0 codes 1


def _unit_rows(n):
    """The kernel rows of the unit vectors e_0..e_{n-1} of P^n."""
    return [(j, 0, 1, {(j, 0): 1}) for j in range(n)]


def _block_basis(ring: QuotientRing, map_cols, values, nvalues, span,
                 ncomps, eliminate=False) -> GroebnerBasis:
    """Reduced basis of the span of the columns (map_col_l | value_l), of
    span in P^ncomps and of I P^n in the last n = nvalues components, in
    P^(ncomps + n) under the block order with P^ncomps dominant; values is
    not empty.  With eliminate (see buchberger), its value block alone,
    the preimage basis: the reduced basis of {sum c_l values_l :
    sum c_l map_cols_l in span} + I P^n in P^n under TOP over the ring
    order, whose rows are the block basis's rows in the last n
    components, in basis order, relabelled.

    map_cols and values are kernel terms in P^ncomps and P^n, each pair
    at one scale; a column is assembled from them as they are.  span is
    the target's reduced basis in P^ncomps, relations and ideal included.
    One run, seeded with span's rows stacked on the ideal's basis in the
    last n components, which the ring keeps.
    """
    lower = ring.free_relation_basis(nvalues, ncomps)
    amb, big = ring.ambient, ncomps + nvalues
    cols = [Vec._of_kernel(amb, big, {**mc, **_shift_terms(v, ncomps)})
            for mc, v in zip(map_cols, values)]
    return buchberger(cols, big, lower.order, amb,
                      seed=GroebnerBasis.stacked(span, lower),
                      eliminate=eliminate)


def r_preimage(ring: QuotientRing, map_cols, values, nvalues, span, ncomps):
    """Generators of {sum c_l values_l : sum c_l map_cols_l in span} + I R^n,
    n = nvalues, the map columns and values as kernel terms: the distinct
    monic normal forms of the rows of the eliminating _block_basis (two
    of them may be equal in R, as b^2 and ac are in k[a,b,c]/(b^2 - ac),
    and one may vanish there), as kernel rows.  A caller that needs Vecs
    makes them of the rows (Vec._of_row); minimal_generators takes them as
    they are."""
    if not values:
        return []
    basis = _block_basis(ring, map_cols, values, nvalues, span, ncomps,
                         eliminate=True)
    return _distinct_monic(ring, nvalues, basis._rows)


def _distinct_monic(ring: QuotientRing, ncomps, rows,
                    compare=False) -> list:
    """The distinct nonzero monic normal forms modulo I P^ncomps of the
    kernel rows (comp, m, lc, terms) under TOP, as kernel rows, first
    occurrences in order.

    Each row is normalized (gb._normalize), its terms in descending order,
    lead first.  The ring reduces a row (QuotientRing.reduce_terms): one
    that no ideal lead reaches comes back as it is, and a reached one is
    normalized again; it may vanish, or meet another row.  Rows compare
    by their int terms, which normalization makes canonical.

    Without compare the rows are those of one reduced basis, pairwise
    distinct, and they are compared only when a row was reduced.  With
    compare they are any candidates, always compared.
    """
    p = ring.ambient.field.char
    forms = []
    for row in rows:
        reduced = ring.reduce_terms(row[3], ncomps)
        if reduced is not None:
            if not reduced[0]:
                continue
            row, compare = (*_normalize(reduced[0], p), reduced[0]), True
        forms.append(row)
    if compare:
        unique = {}
        for row in forms:
            unique.setdefault(frozenset(row[3].items()), row)
        forms = list(unique.values())
    return forms


# --- finitely presented modules ----------------------------------------------


class FPModule:
    """Graded module given by generator degrees and relation columns."""

    def __init__(self, ring: QuotientRing, gen_degrees, relations=()):
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        rels = []
        for col in relations:   # ring elements are normal forms already
            col = ring.nf(self.vec(col)) if isinstance(col, Vec) else \
                self.vec(col)
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
        """A cover vector from a list or tuple of ring elements / strings /
        polynomials, or a Vec over the ambient ring of the cover's rank,
        which is returned as it is (a Vec is normalized when it is made);
        anything else, or a Vec of another ring or rank, is refused."""
        amb, n = self.ring.ambient, len(self.gen_degrees)
        if not isinstance(col, Vec):
            if not isinstance(col, (list, tuple)):
                raise ContextError(f"cannot read a {type(col).__name__} as "
                                   f"a vector: give a Vec or a list of "
                                   f"entries")
            entries = [self.ring.elem(x).poly for x in col]
            col = Vec.from_polys(entries) if entries else Vec.zero(amb, 0)
        if col.ring is not amb and col.ring != amb:
            raise ContextError("vector over another ring")
        if col.ncomps != n:
            raise ContextError(f"vector of rank {col.ncomps} in a module "
                               f"of rank {n}")
        return col

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
            v = self.ring.nf(self.vec(g)) if isinstance(g, Vec) else \
                self.vec(g)
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
        written in the cover of F_{i-1}.  cols_1 are the relations of the
        minimal presentation, already minimal; each later step is the
        syzygy preimage of the previous columns, its kernel rows handed to
        minimal_generators as they are.  A length that is not an int >= 0
        is refused.
        """
        length = _natural(length, "resolution length")
        mp = _minimal_presentation(self)
        ring = self.ring
        steps = [(mp.gen_degrees, ())]
        if mp.ngens:
            steps.append((tuple(c.degree(mp.gen_degrees)
                                for c in mp.relations), mp.relations))
        while len(steps) <= length:
            prev_degrees, prev_cols = steps[-1]
            if not prev_cols:
                steps.append(((), ()))
                continue
            n = len(steps[-2][0])
            rows = r_preimage(ring, *_unit_pairs(prev_cols),
                              len(prev_cols), ring.free_relation_basis(n), n)
            syz = minimal_generators(free_module(ring, prev_degrees), rows)
            steps.append((tuple(c.degree(prev_degrees) for c in syz),
                          tuple(syz)))
        return steps[:length + 1]

    def syzygy(self, d: int) -> "FPModule":
        """The d-th syzygy module of the minimal resolution, d >= 0."""
        d = _natural(d, "syzygy index")
        if d == 0:
            return self.minimal_presentation()
        steps = self.resolution(d + 1)
        degrees_d = steps[d][0]
        rel_cols = steps[d + 1][1] if d + 1 < len(steps) else ()
        return FPModule(self.ring, degrees_d, rel_cols)

    def presentation_strings(self):
        # the relations are stored as normal forms (__init__)
        return [[str(p) for p in col.to_polys()] for col in self.relations]

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
        return _block_basis(self.ring, *_unit_pairs(cols),
                            len(cols), self.ring.free_relation_basis(s), s)

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
        # ext holds I on every value component: each is reduced modulo I
        return [RingElem._of_nf(self.ring, c)
                for c in coeffs[:len(self.gens)]]

    def first_outside(self, gens):
        """The first of gens, in order, that is not in this submodule, or
        None."""
        return next((g for g in gens if not self.contains(g)), None)

    def contains_submodule(self, other: "Submodule") -> bool:
        """Whether every generator of other lies in this submodule.  A
        generator equal to one of gens is in it, and is not tested, so two
        submodules with equal generators compare without a span run."""
        gens = self.gens
        return self.first_outside(
            [g for g in other.gens if g not in gens]) is None

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
        n = self.module.ngens
        cols = [c._terms for c in self.gens + self.module.relations]
        return _minimal_submodule(self.module, r_preimage(
            self.ring, cols, cols, n, other.span, n))

    def colon_elem(self, x) -> "Submodule":
        """(self :_M x) = {m in M : x m in self}."""
        n = self.module.ngens
        return _minimal_submodule(self.module, r_preimage(
            self.ring, *_unit_pairs(scaled_gens(self.module, [x])),
            n, self.span, n))

    def minimalized(self) -> "Submodule":
        """Prune the generating set to a minimal one (deterministically)."""
        return Submodule(self.module, tuple(minimal_generators(
            self.module, _vec_rows(self.module, self.gens))))

    def gens_as_ring_elems(self):
        if self.module.ngens != 1:
            raise DomainError("not a rank-one cover")
        return [self.ring.elem(g.component(0)) for g in self.gens]

    def descriptor(self):
        return [[str(c) for c in self.ring.nf(g).to_polys()]
                for g in self.gens]

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
        return self.target.ring.nf(acc)

    def image(self) -> Submodule:
        return self.target.submodule(self.cols)

    def kernel(self) -> Submodule:
        return _minimal_submodule(self.source, r_preimage(
            self.source.ring, *_unit_pairs(self.cols),
            self.source.ngens, self.target.relation_basis(),
            self.target.ngens))

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
    distinct monic rows (as r_preimage hands them out) the relations."""
    elems = [ring.elem(g) for g in gens]
    if any(e.is_zero() for e in elems):
        raise DomainError("zero ideal generator")
    degrees = tuple(e.degree() for e in elems)
    if not elems:
        return free_module(ring, degrees)
    cols = [Vec.from_polys([e.poly]) for e in elems]
    basis = _block_basis(ring, *_unit_pairs(cols), len(cols),
                         ring.free_relation_basis(1), 1, eliminate=True)
    syz = [Vec._of_row(ring.ambient, basis.ncomps, row)
           for row in _distinct_monic(ring, basis.ncomps, basis._rows)]
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
    # the relabels of A's components, one per generator of B, and of B's
    a_maps = [lambda i, j=j: idx(i, j) for j in range(nb)]
    b_maps = [lambda j, i=i: idx(i, j) for i in range(A.ngens)]

    def relabelled(col, relabel):
        return Vec._of_kernel(A.ring.ambient, n, {
            (relabel(i), m): c for (i, m), c in col._terms.items()}, col._den)

    rels = [relabelled(col, f) for col in A.relations for f in a_maps]
    rels += [relabelled(col, f) for col in B.relations for f in b_maps]
    if not rels or (A.relations and B.relations):
        return FPModule(A.ring, degrees, rels)
    parts = [(A.relation_basis(), f) for f in a_maps] if A.relations else \
        [(B.relation_basis(), f) for f in b_maps]
    return FPModule._with_basis(A.ring, degrees, rels,
                                _assembled_basis(A.ring, n, parts))


def tensor_elem(A: FPModule, B: FPModule, i: int, v) -> Vec:
    """gen_i(A) (x) v as a vector in the cover of tensor(A, B); v is taken
    through B.vec, and an i that indexes no generator of A is refused."""
    if not 0 <= i < A.ngens:
        raise ContextError(f"generator index {i} outside 0..{A.ngens - 1}")
    return B.vec(v).pad(A.ngens * B.ngens, i * B.ngens)


# --- minimal presentations -----------------------------------------------------


def _minimal_presentation(M: FPModule) -> FPModule:
    """M with its unit relations eliminated and the others minimal, on
    kernel rows from _vec_rows to minimal_generators.

    The rows are sorted once, before the first round, by their normalized
    terms, which _vec_rows makes canonical (_by_terms): so the presentation
    does not depend on the order of M's relations.  The pivot is the first
    row with a unit entry, a term of code 0 (the monomial 1); g is the
    lowest component of its unit entries, the first one in term order, and
    by homogeneity the unit is the pivot's one term in g.  Every other row is reduced by the pivot under TOP with g on
    top.  gb._reduce_terms sets a term aside for good once no row reduces
    it, which is safe only when the reducing row leads with its largest
    term; under plain TOP the unit is the pivot's smallest, and a term set
    aside would lose what a later step adds to it.  The remainder, free
    of g and in TOP order, is relabelled past g, the rows are made
    canonical again (_distinct_monic), and generator g goes.
    """
    ring = M.ring
    amb = ring.ambient
    p, code = amb.field.char, amb.code
    term_key = ModuleOrder(amb.order).term_key
    degrees = list(M.gen_degrees)
    rows = sorted(_vec_rows(M, M.relations), key=_by_terms)
    while True:
        pivot = next((row for row in rows if any(not m for _j, m in row[3])),
                     None)
        if pivot is None:
            break
        terms = pivot[3]
        g = min(j for j, m in terms if not m)
        rows_of = {g: [(g, 0, terms[g, 0], terms)]}

        def key(t):
            return t[0] == g, term_key(t)

        reduced = []
        for row in rows:
            if row is not pivot:
                rem = _reduce_terms(dict(row[3]), rows_of, key, code, p)[0]
                if rem:
                    rem = {(j - (j > g), m): c for (j, m), c in rem.items()}
                    reduced.append((*_normalize(rem, p), rem))
        del degrees[g]
        rows = _distinct_monic(ring, len(degrees), reduced, compare=True)
    F = free_module(ring, degrees)
    return FPModule(ring, tuple(degrees), minimal_generators(F, rows))


def _by_terms(row):
    """The sort key of a normalized kernel row: its terms, in order."""
    return tuple(row[3].items())


def _vec_rows(M: FPModule, cols) -> list:
    """The candidates of minimal_generators made of Vecs in the cover of
    M: each one's kernel terms in descending order, normalized, then made
    canonical (_distinct_monic, always compared).  A candidate whose terms
    are not all of one degree is refused."""
    ring, amb = M.ring, M.ring.ambient
    p, key = amb.field.char, ModuleOrder(amb.order).term_key
    rows = []
    for col in cols:
        if col._terms:
            terms = dict(sorted(col._terms.items(),
                                key=lambda t: key(t[0]), reverse=True))
            rows.append((*_normalize(terms, p), terms))
    rows = _distinct_monic(ring, M.ngens, rows, compare=True)
    for row in rows:
        v = Vec._of_row(amb, M.ngens, row)
        if not v.is_homogeneous(M.gen_degrees):
            raise DomainError(f"inhomogeneous generator {v}")
    return rows


def minimal_generators(M: FPModule, rows):
    """Minimal generating set of the span of rows in M (modulo its relations).

    Graded Nakayama: deduplicate the monic normal forms, sort them by
    (degree, str), then drop each one that the others and the relations
    span, in that order.  The grading is positive with R_0 = k, so a
    candidate of degree d lies in that span exactly when its normal form
    modulo A (the kept candidates of lower degree plus the relations) lies
    in the k-span of the normal forms of the other degree-d candidates.
    Hence one Groebner basis of A per degree block, and rank tests inside
    the block (_outside_later_spans).

    The candidates are kernel rows throughout, distinct monic normal forms
    of homogeneous columns, as r_preimage hands them out and _vec_rows
    makes them of Vecs.  A degree is read from the lead, and a candidate is
    decoded to be printed only to order a block of two or more.  Normal
    forms modulo A are reduced against its rows, and the rank tests are
    reductions of those kernel terms too, by the one reducer
    (gb._reduce_terms).  The kept rows come back as Vecs of their terms
    (Vec._of_row).
    """
    shifts, amb, n = M.gen_degrees, M.ring.ambient, M.ngens
    p, dec, wdeg = amb.field.char, amb.code.decode, amb.wdeg
    graded = sorted(((wdeg(dec(row[1])) + shifts[row[0]], row)
                     for row in rows), key=itemgetter(0))
    kept: list = []
    # basis of A, built for the first `spanned` kept candidates; without
    # relations the lowest block is already in normal form modulo A = I
    span = M.relation_basis() if M.relations else None
    spanned = 0
    for _d, block in groupby(graded, key=itemgetter(0)):
        block = [row for _d, row in block]
        if len(block) > 1:
            block.sort(key=lambda row: str(Vec._of_row(amb, n, row)))
        if len(kept) > spanned:
            span = r_span_basis(M, [Vec._of_row(amb, n, row)
                                    for row in kept])
            spanned = len(kept)
        if span is None:
            forms = [row[3] for row in block]
        else:
            forms = [_reduce_terms(dict(row[3]), span._rows_of, span._key,
                                   amb.code, p)[0] for row in block]
        flags = _outside_later_spans(forms, amb)
        kept += [row for row, keep in zip(block, flags) if keep]
    return [Vec._of_row(amb, n, row) for row in kept]


def _minimal_submodule(M: FPModule, rows) -> "Submodule":
    """The submodule of M minimally generated by the kernel rows of a
    preimage run (r_preimage), as minimal_generators keeps them."""
    return Submodule(M, tuple(minimal_generators(M, rows)))


def _outside_later_spans(forms, ring):
    """For each kernel term dict of one degree block of P^n, ring = P,
    whether it lies outside the k-span of those after it, each dict at any
    nonzero scale: Gaussian elimination on kernel rows, from the last
    dict to the first.  Each is reduced against the rows kept so far
    (gb._reduce_terms) and, when a remainder is left, that remainder,
    normalized (gb._normalize), is kept as a row.  In one degree block a
    lead divides a term only if it equals it, so a reduction step clears
    one term, as a pivot column does.

    Dropping, in order, each vector that the remaining others span keeps
    exactly these: a kept vector spanned by later ones and earlier kept
    ones would make the earliest such kept vector redundant.
    """
    p, code, key = ring.field.char, ring.code, ModuleOrder(ring.order).term_key
    rows_of: dict = {}
    flags = [False] * len(forms)
    for i in reversed(range(len(forms))):
        rem = _reduce_terms(dict(forms[i]), rows_of, key, code, p)[0]
        if rem:
            row = (*_normalize(rem, p), rem)
            rows_of.setdefault(row[0], []).append(row)
            flags[i] = True
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
        v = Vec.from_polys([M.ring.elem(x).poly])
        out += [v.pad(M.ngens, j) for j in range(M.ngens)]
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
