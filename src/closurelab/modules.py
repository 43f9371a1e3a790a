"""Finitely presented graded modules over a quotient ring.

An FPModule is (generator degrees, relation columns); a Submodule is a set
of generating vectors inside the free cover of its ambient module.  All
membership questions reduce to Groebner computations over the ambient
polynomial ring with the defining ideal on every component, so a single
engine answers ideal membership, module membership, colons, kernels and
syzygies uniformly.  A span run starts from the relation basis of its
module (the ideal's reduced basis on every component, plus the relations),
which it takes as a seed.  Every block-order question is one seeded run
(_block_basis) on the columns (map column | value), starting from the
reduced span basis of the target and the ideal's basis on the value
components: preimages and syzygies read its value block, membership
certificates the value block of a normal form.  The ideal never enters a
run as input columns.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby

from .gb import GroebnerBasis, Vec, buchberger
from .linalg import (Echelon, graded_span_dim, monomials_of_wdeg, span_rows,
                     vec_coords)
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


def free_relation_basis(ring: QuotientRing, ncomps: int) -> GroebnerBasis:
    """Reduced Groebner basis of I P^ncomps, the relations of R^ncomps.

    It is the ring's reduced ideal basis copied into each component: the
    copies in different components share no term, so each stays reduced.
    The rows are relabelled kernel rows; no Buchberger run is made.  They
    come in basis order, lead descending: the ring's rows are, and under
    TOP equal ring leads go by component, the first one highest.
    """
    rows = [(j, e, lc, {(j, m): c for (_0, m), c in terms.items()})
            for _0, e, lc, terms in ring._gb._rows for j in range(ncomps)]
    return GroebnerBasis(ring.ambient, ncomps,
                         ModuleOrder(ring.ambient.order), rows)


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
                      free_relation_basis(ring, ncomps), ncomps)


def _shifted(rows, offset):
    """Kernel rows with every component moved by offset."""
    return [(c + offset, e, lc,
             {(j + offset, m): x for (j, m), x in t.items()})
            for c, e, lc, t in rows]


def _block_basis(ring: QuotientRing, map_cols, values, span,
                 ncomps) -> GroebnerBasis:
    """Reduced basis of the span of the columns (map_col_l | value_l), of
    span in P^ncomps and of I P^n in the last n components, in
    P^(ncomps + n) under the block order with P^ncomps dominant; values is
    not empty.

    span is the target's reduced basis in P^ncomps, relations and ideal
    included.  One run, seeded with span's rows and, below them, the
    ideal's basis on the last n components.
    """
    n = values[0].ncomps
    big, amb = ncomps + n, ring.ambient
    order = ModuleOrder(amb.order, ncomps)
    seed = GroebnerBasis(amb, big, order, span._rows + _shifted(
        free_relation_basis(ring, n)._rows, ncomps))
    cols = [Vec(amb, big, {**mc.terms, **v.pad(big, offset=ncomps).terms})
            for mc, v in zip(map_cols, values)]
    return buchberger(cols, big, order, amb, seed=seed)


def preimage_basis(ring: QuotientRing, map_cols, values, span,
                   ncomps) -> GroebnerBasis:
    """Reduced basis of {sum c_l values_l : sum c_l map_cols_l in span}
    + I P^n in P^n, under TOP over the ring order; values is not empty.

    The value block of _block_basis: its elements in the last n components
    alone, in basis order, are the reduced basis of the preimage,
    relabelled as they are.
    """
    amb = ring.ambient
    rows = _block_basis(ring, map_cols, values, span, ncomps)._rows
    return GroebnerBasis(amb, values[0].ncomps, ModuleOrder(amb.order),
                         _shifted([r for r in rows if r[0] >= ncomps],
                                  -ncomps))


def r_preimage(ring: QuotientRing, map_cols, values, span, ncomps):
    """Generators of {sum c_l values_l : sum c_l map_cols_l in span} + I R^n:
    the distinct monic normal forms of preimage_basis (two of its elements
    may be equal in R, as b^2 and ac are in k[a,b,c]/(b^2 - ac))."""
    values = list(values)
    if not values:
        return []
    return _distinct_monic(ring, preimage_basis(ring, map_cols, values, span,
                                                ncomps))


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


def _monic_vec(v: Vec, order: ModuleOrder) -> Vec:
    """The nonzero v divided by its lead coefficient under order, whose
    code is looked up once, not once per term."""
    enc, term_key = order.code(v.ring.nvars).encode, order.term_key
    _c, _e, lc = v.leading(lambda j, e: term_key((j, enc(e))))
    fld = v.ring.field
    if lc == fld.one:
        return v
    return v.term_mul(fld.inv(lc), (0,) * v.ring.nvars)


def _distinct_monic(ring: QuotientRing, vecs) -> list:
    """The nonzero monic normal forms of vecs, first occurrences in order."""
    out = []
    seen = set()
    order = ModuleOrder(ring.ambient.order)
    for v in vecs:
        v = nf_vec(ring, v)
        if v.is_zero():
            continue
        v = _monic_vec(v, order)
        key = frozenset(v.terms.items())
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


# --- finitely presented modules ----------------------------------------------


class FPModule:
    """Graded module given by generator degrees and relation columns."""

    def __init__(self, ring: QuotientRing, gen_degrees, relations=()):
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        rels = []
        for col in relations:
            col = nf_vec(ring, self._coerce_col(col))
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

    def _coerce_col(self, col) -> Vec:
        if isinstance(col, Vec):
            if col.ncomps != self.ngens:
                raise ContextError("relation column of wrong length")
            return col
        entries = [self.ring.elem(x).poly for x in col]
        if len(entries) != self.ngens:
            raise ContextError("relation column of wrong length")
        return Vec.from_polys(entries) if entries else Vec.zero(
            self.ring.ambient, 0)

    def vec(self, entries) -> Vec:
        """Build a cover vector from ring elements / strings / polynomials."""
        return self._coerce_col(entries)

    def gen(self, i) -> Vec:
        return Vec.unit(self.ring.ambient, self.ngens, i)

    def gens(self):
        return [self.gen(i) for i in range(self.ngens)]

    def relation_basis(self) -> GroebnerBasis:
        """Groebner basis of the relation span (the zero submodule).

        A free module's is built on each call, cheaply, and not kept:
        there are many of them, such as the covers of preimage runs.
        Otherwise it is the span of the relations in the free cover,
        kept as _relation_span.
        """
        if not self.relations:
            return free_relation_basis(self.ring, self.ngens)
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
            v = g if isinstance(g, Vec) else self.vec(g)
            v = nf_vec(self.ring, v)
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
                            free_relation_basis(self.ring, s), s)

    def contains(self, v) -> bool:
        v = v if isinstance(v, Vec) else self.module.vec(v)
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
        v = v if isinstance(v, Vec) else self.module.vec(v)
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
        return Submodule(self.module, self.gens + other.gens)

    def intersect(self, other: "Submodule") -> "Submodule":
        """Intersection: the elements of span(self) + relations that
        other's span basis contains."""
        if other.module != self.module:
            raise ContextError("submodules of different modules")
        cols = list(self.gens) + list(self.module.relations)
        gens = r_preimage(self.ring, cols, cols, other.span,
                          self.module.ngens)
        return Submodule(self.module, tuple(gens)).minimalized()

    def colon_elem(self, x) -> "Submodule":
        """(self :_M x) = {m in M : x m in self}."""
        gens = r_preimage(self.ring, scaled_gens(self.module, [x]),
                          self.module.gens(), self.span, self.module.ngens)
        return Submodule(self.module, tuple(gens)).minimalized()

    def minimalized(self) -> "Submodule":
        """Prune the generating set to a minimal one (deterministically)."""
        return Submodule(self.module,
                         tuple(minimal_generators(self.module, self.gens)))

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
        self.cols = tuple(target.vec(c) if not isinstance(c, Vec) else c
                          for c in cols)
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
        v = v if isinstance(v, Vec) else self.source.vec(v)
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
        return Submodule(self.source, tuple(gens)).minimalized()

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
    relations the full syzygy module of the generators."""
    elems = [ring.elem(g) for g in gens]
    if any(e.is_zero() for e in elems):
        raise DomainError("zero ideal generator")
    cols = [Vec.from_polys([e.poly]) for e in elems]
    syz = r_syzygies(ring, cols, 1)
    degrees = tuple(e.degree() for e in elems)
    return FPModule(ring, degrees, syz)


def ideal_submodule(ring: QuotientRing, gens) -> Submodule:
    """The ideal (gens) as a submodule of the rank-one free module."""
    R1 = ring_as_module(ring)
    return R1.submodule([[g] for g in gens])


def direct_sum(A: FPModule, B: FPModule) -> FPModule:
    if A.ring != B.ring:
        raise ContextError("modules over different rings")
    degrees = A.gen_degrees + B.gen_degrees
    n = len(degrees)
    rels = [col.pad(n) for col in A.relations]
    rels += [col.pad(n, offset=A.ngens) for col in B.relations]
    return FPModule(A.ring, degrees, rels)


def tensor(A: FPModule, B: FPModule) -> FPModule:
    """A (x) B by the standard presentation: generators a_i (x) b_j and
    relations rel(A) (x) gen(B) plus gen(A) (x) rel(B)."""
    if A.ring != B.ring:
        raise ContextError("modules over different rings")
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
    return FPModule(A.ring, degrees, rels)


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


def minimal_generators(M: FPModule, cols):
    """Minimal generating set of the span of cols in M (modulo its relations).

    Graded Nakayama: deduplicate the monic normal forms, sort them by
    (degree, str), then drop each one that the others and the relations
    span, in that order.  The grading is positive with R_0 = k, so a
    candidate of degree d lies in that span exactly when its normal form
    modulo A (the kept candidates of lower degree plus the relations) lies
    in the k-span of the normal forms of the other degree-d candidates.
    Hence one Groebner basis of A per degree block, and rank tests on
    coefficient rows inside the block.
    """
    ring, shifts = M.ring, M.gen_degrees
    cands = _distinct_monic(ring, cols)
    for g in cands:
        if not g.is_homogeneous(shifts):
            raise DomainError(f"inhomogeneous generator {g}")
    cands.sort(key=lambda g: (g.degree(shifts), str(g)))
    kept: list = []
    # basis of A, built for the first `spanned` kept candidates; without
    # relations the lowest block is already in normal form modulo A = I
    span = M.relation_basis() if M.relations else None
    spanned = 0
    for _d, block in groupby(cands, key=lambda g: g.degree(shifts)):
        block = list(block)
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


def graded_kernel_dim(ring: QuotientRing, cols, ncomps, col_degrees, d,
                      target_shifts=None) -> int:
    """dim_k of the degree-d kernel of the map R^t -> R^ncomps given by cols.

    Pure linear algebra: coefficient vectors whose image lands in the
    defining-ideal span, modulo vectors that are themselves ideal multiples.
    target_shifts are the generator degrees of the target free module.
    """
    amb = ring.ambient
    fld = amb.field
    uterms = []
    for q, dq in enumerate(col_degrees):
        for m in monomials_of_wdeg(amb, d - dq):
            uterms.append((q, m))
    if not uterms:
        return 0
    shifts = tuple(target_shifts) if target_shifts else (0,) * ncomps
    rows_t, terms_t = span_rows(ideal_columns(ring, ncomps), shifts, d, amb)
    # the images that are independent modulo the ideal span: rank of the
    # images and the ideal rows together, less the rank of the ideal rows
    echelon = Echelon(fld)
    for row in rows_t:
        echelon.add(row)
    ideal_rank = echelon.rank
    for (q, m) in uterms:
        echelon.add(vec_coords(cols[q].term_mul(fld.one, m), terms_t, fld))
    valid = len(uterms) - (echelon.rank - ideal_rank)
    return valid - graded_span_dim(ideal_columns(ring, len(cols)),
                                   col_degrees, d, amb)


def verify_resolution(M: FPModule, length: int, bound=None) -> bool:
    """Degreewise exactness check of the minimal resolution of M.

    At every homological degree 1 <= i < length and every internal degree up
    to the bound (default: max generator degree + 6), the kernel of d_i must
    have the same dimension as the image of d_{i+1}.  The image always sits
    inside the kernel (composites vanish), so dimension equality is
    equality.
    """
    steps = M.resolution(length)
    all_degrees = [d for degs, _c in steps for d in degs]
    if bound is None:
        bound = (max(all_degrees) if all_degrees else 0) + 6
    ring = M.ring
    for i in range(1, length):
        degrees_prev = steps[i - 1][0]
        cols_i = steps[i][1]
        degrees_i = steps[i][0]
        cols_next = steps[i + 1][1] if i + 1 < len(steps) else ()
        if not cols_i:
            if any(cols_next):
                return False
            continue
        for d in range(0, bound + 1):
            ker = graded_kernel_dim(ring, list(cols_i), len(degrees_prev),
                                    degrees_i, d, target_shifts=degrees_prev)
            if cols_next:
                ideal = ideal_columns(ring, len(degrees_i))
                im = (graded_span_dim(list(cols_next) + ideal, degrees_i, d,
                                      ring.ambient)
                      - graded_span_dim(ideal, degrees_i, d, ring.ambient))
            else:
                im = 0
            if ker != im:
                return False
    return True


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
