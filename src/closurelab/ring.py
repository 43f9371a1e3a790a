"""Graded quotient rings R = P/I, their elements, and monomial subrings.

"Local" is modeled as graded-local: the maximal ideal m is generated by the
classes of the variables, all of positive weight.  Krull dimension comes
from the leading-term ideal of the reduced defining Groebner basis (the
standard flat-degeneration argument makes this exact for global orders).

The ring owns normal forms modulo I: its bases of I P^n
(free_relation_basis) and reduce_terms, which nf and
modules._distinct_monic call.  nf takes a Polynomial or a Vec alike, both
kernel values of a rank (poly._KernelValue).  A sum of two elements is a
normal form, and a power squares (poly._power), so x ** n takes at most
2 * n.bit_length() normal forms.

A monomial subring is presented through its graph ring, itself a
QuotientRing whose ambient ring carries the elimination order
(SubringPresentation), since every Groebner run is under its ring's own
order: one Groebner basis gives the toric kernel and the rewriting into
presentation variables, and the relations of a subring-generated module
are one seeded preimage run in it.  The subring is over its images'
field (presented_subring refuses another).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .orders import (ModuleOrder, UnsupportedInputError, elimination,
                     wdegrevlex)
from .poly import (ContextError, DomainError, ParseError, PolyRing,
                   Polynomial, Vec, _content_free, _natural, _power)
from .gb import GroebnerBasis, _reached, _reduce_terms, buchberger
from .values import Record


class QuotientRing:
    """P/I for a homogeneous ideal I, elements held as normal forms."""

    def __init__(self, ambient: PolyRing, ideal_gens, domain_status="assumed",
                 presentation=None):
        self.ambient = ambient
        gens = [self._coerce_poly(g) for g in ideal_gens]
        gens = [g for g in gens if not g.is_zero()]
        for g in gens:
            if not g.is_homogeneous():
                raise DomainError(f"inhomogeneous relation: {g}")
        cols = [Vec.from_polys([g]) for g in gens]
        basis = buchberger(cols, 1, ModuleOrder(ambient.order), ambient)
        self.ideal_basis = [v.component(0) for v in basis]
        self.domain_status = domain_status
        self.presentation = presentation
        self._free_bases = {(1, None): basis}   # see free_relation_basis

    def _coerce_poly(self, g) -> Polynomial:
        if isinstance(g, str):
            return self.ambient.parse(g)
        if isinstance(g, RingElem):
            return g.poly
        if not isinstance(g, Polynomial):
            raise ContextError(f"cannot use {g!r} as a ring relation")
        if g.ring != self.ambient:
            raise ContextError("relation from a different ambient ring")
        return g

    # -- element handling ---------------------------------------------------

    def nf(self, value):
        """The normal form modulo I P^n of a Polynomial (n = 1) or a Vec of
        rank n: its kernel terms as they are, reduced by reduce_terms, in a
        value of its class and rank.  A value that no ideal lead reaches
        comes back as it is."""
        amb = self.ambient
        if value.ring is not amb and value.ring != amb:
            raise ContextError("value over a different ambient ring")
        if not self.ideal_basis:
            return value
        reduced = self.reduce_terms(value._terms, value.ncomps)
        if reduced is None:
            return value
        rem, mult = reduced
        return value._with(*_content_free(rem, mult * value._den))

    def reduce_terms(self, terms, ncomps):
        """(rem, mult) for the int terms (comp, m) of P^ncomps, m an order
        code, which are left as they are: rem the int terms of mult times
        their normal form modulo I P^ncomps (gb._reduce_terms against
        free_relation_basis).  None when no ideal lead divides one of
        their monomials (gb._reached): the terms are their own."""
        code = self.ambient.code
        ideal = self.free_relation_basis(ncomps)
        if not _reached(terms, ideal._leads_of, -1, code):
            return None
        return _reduce_terms(dict(terms), ideal._rows_of, ideal._key, code,
                             self.ambient.field.char)

    def free_relation_basis(self, ncomps, nreal=None) -> GroebnerBasis:
        """Reduced Groebner basis of I P^ncomps, the relations of R^ncomps,
        under ModuleOrder(ring order, nreal): under TOP when nreal is None;
        else in the last ncomps components of P^(nreal + ncomps), under the
        block order with nreal real components, as the value block of the
        seed of a block run (GroebnerBasis.stacked).

        It is the ring's reduced ideal basis copied into each component:
        the copies in different components share no term, so each stays
        reduced.  The rows are relabelled kernel rows; no Buchberger run is
        made.  They come in basis order, lead descending: the ring's rows
        are, and equal ring leads go by component, the first one highest.
        The ring keeps one basis per (ncomps, nreal), with the index its
        runs start from (GroebnerBasis._rows_of, _leads_of), so every run
        it seeds shares them.  It is canonical, so two threads that race
        to build one keep either.
        """
        key = (ncomps, nreal)
        basis = self._free_bases.get(key)
        if basis is None:
            offset = nreal or 0
            rows = [(j, e, lc, {(j, m): c for (_0, m), c in terms.items()})
                    for _0, e, lc, terms in self._free_bases[1, None]._rows
                    for j in range(offset, offset + ncomps)]
            basis = self._free_bases.setdefault(key, GroebnerBasis(
                self.ambient, offset + ncomps,
                ModuleOrder(self.ambient.order, nreal), rows))
        return basis

    def elem(self, x) -> "RingElem":
        if isinstance(x, RingElem):
            if x.ring is not self and x.ring != self:
                raise ContextError("element of a different ring")
            return x
        if isinstance(x, str):
            x = self.ambient.parse(x)
        elif isinstance(x, int):
            x = self.ambient.const(x)
        elif not isinstance(x, Polynomial):
            raise ContextError(f"cannot coerce {x!r} into the ring")
        return RingElem(self, x)

    def zero(self):
        return RingElem._of_nf(self, self.ambient.zero())

    def one(self):
        return self.elem(1)

    def gens(self):
        return [self.elem(v) for v in self.ambient.gens()]

    def maximal_ideal_gens(self):
        return self.gens()

    @property
    def is_polynomial_ring(self):
        return not self.ideal_basis

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, QuotientRing)
                and self.ambient == other.ambient
                and self.ideal_basis == other.ideal_basis)

    def __hash__(self):
        return hash((self.ambient, tuple(hash(g) for g in self.ideal_basis)))

    def __repr__(self):
        if self.is_polynomial_ring:
            return f"{self.ambient!r}"
        rels = ", ".join(str(g) for g in self.ideal_basis)
        return f"{self.ambient!r} / ({rels})"

    # -- dimension ----------------------------------------------------------

    @cached_property
    def dim(self) -> int:
        return self.dim_modulo(())

    def dim_modulo(self, elems) -> int:
        """Krull dimension of R/(elems), read from the leads of one run on
        the elements, seeded with the ideal's reduced basis."""
        cols = [Vec.from_polys([self.elem(x).poly]) for x in elems]
        gb = buchberger(cols, 1, ModuleOrder(self.ambient.order), self.ambient,
                        seed=self.free_relation_basis(1))
        nvars, leads = self.ambient.nvars, [e for _c, e in gb.leading_terms()]
        if any(all(e == 0 for e in m) for m in leads):
            return -1  # unit ideal
        supports = [frozenset(i for i, e in enumerate(m) if e) for m in leads]
        for size in range(nvars, -1, -1):
            for subset in combinations(range(nvars), size):
                sset = set(subset)
                if all(not sup <= sset for sup in supports):
                    return size
        return 0

    def is_partial_sop(self, elems) -> bool:
        elems = [self.elem(x) for x in elems]
        for x in elems:
            if x.is_zero() or not x.poly.is_homogeneous() or x.degree() <= 0:
                return False
        return self.dim_modulo(elems) == self.dim - len(elems)

    def descriptor(self) -> dict:
        return {
            "vars": list(self.ambient.names),
            "weights": list(self.ambient.weights),
            "field": repr(self.ambient.field),
            "order": self.ambient.order.describe(),
            "relations": [str(g) for g in self.ideal_basis],
            "dim": self.dim,
            "domain": self.domain_status,
        }


class RingElem:
    """Element of a quotient ring, stored as its normal form: the
    constructor takes the normal form of poly (QuotientRing.nf, which
    refuses another ring; poly is normalized by its own constructor);
    _of_nf takes a poly that is reduced."""

    __slots__ = ("ring", "poly")

    def __init__(self, ring: QuotientRing, poly: Polynomial):
        self.ring = ring
        self.poly = ring.nf(poly)

    @classmethod
    def _of_nf(cls, ring, poly):
        """The element of ring whose normal form poly already is."""
        elem = object.__new__(cls)
        elem.ring = ring
        elem.poly = poly
        return elem

    def is_zero(self):
        return self.poly.is_zero()

    def __bool__(self):
        return bool(self.poly)

    def degree(self):
        return self.poly.wdeg()

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.ring != self.ring:
                raise ContextError("elements of different rings")
            return other
        return self.ring.elem(other)

    def __add__(self, other):
        # a sum of normal forms is one: no lead divides a term of either
        return RingElem._of_nf(self.ring,
                               self.poly + self._coerce(other).poly)

    __radd__ = __add__

    def __neg__(self):
        return RingElem._of_nf(self.ring, -self.poly)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        return RingElem(self.ring, self.poly * other.poly)

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, _natural(n, "power"), self.ring.one())

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            try:
                other = self.ring.elem(other)
            except (ContextError, ParseError):
                return NotImplemented
        return self.ring == other.ring and self.poly == other.poly

    def __hash__(self):
        return hash((self.ring, self.poly))

    def __str__(self):
        return str(self.poly)

    __repr__ = __str__


class ParameterSequence(Record):
    """A partial system of parameters of ring: elems, coerced through
    ring.elem, verified when the sequence is made (DomainError if not)."""

    __slots__ = ("elems",)

    def __init__(self, ring: QuotientRing, elems):
        elems = tuple(ring.elem(x) for x in elems)
        if not ring.is_partial_sop(elems):
            raise DomainError(
                "not a partial system of parameters: (%s)"
                % ", ".join(str(x) for x in elems))
        self._set_slots(elems)

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __getitem__(self, i):
        return self.elems[i]


# --- monomial subrings -------------------------------------------------------


_AUTO_NAMES = "abcdefghijklmnopqrst"


def _strip_vars(poly: Polynomial, target: PolyRing, n_drop: int) -> Polynomial:
    terms = {}
    for m, c in poly.terms.items():
        if any(m[:n_drop]):
            raise UnsupportedInputError(
                f"{poly} involves one of the first {n_drop} variables")
        terms[m[n_drop:]] = c
    return Polynomial(target, terms)


def _lift(f: Polynomial, big: PolyRing) -> Polynomial:
    """f in the ring big, whose first variables are those of f's ring."""
    tail = (0,) * (big.nvars - f.ring.nvars)
    return Polynomial(big, {m + tail: c for m, c in f.terms.items()})


class SubringPresentation:
    """Provenance of a ring presented as the monomial subring k[images] of
    a target polynomial ring k[x_1..x_m], name_i -> images[i].

    images are monomials (single terms, coefficient 1) of positive degree.
    The graph ring B = k[x, names]/(name_i - images[i]) is a QuotientRing
    ordered by the elimination of x and graded by the target weights and
    the image degrees.  Its reduced ideal basis gives the kernel of the
    map: the elements free of x.
    """

    def __init__(self, images, pres_names):
        images = list(images)
        if not images:
            raise UnsupportedInputError("no images given")
        target = images[0].ring
        fld = target.field
        for f in images:
            if f.ring != target:
                raise ContextError("images from different rings")
            if len(f.terms) != 1 or list(f.terms.values())[0] != fld.one:
                raise UnsupportedInputError(
                    "only monomial images are supported (got %s)" % f)
            if f.wdeg() <= 0:
                raise UnsupportedInputError("images must have positive degree")
        pres_names = tuple(pres_names)
        if len(pres_names) != len(images):
            raise ValueError("one presentation name per image")
        if set(pres_names) & set(target.names):
            raise ValueError("presentation names must avoid target names")
        degs = tuple(f.wdeg() for f in images)
        self.target = target
        self.pres_ring = PolyRing(pres_names, fld, wdegrevlex(degs))
        n_t = target.nvars
        big = PolyRing(target.names + pres_names, fld, elimination(n_t),
                       weights=target.weights + degs)
        names = big.gens()[n_t:]
        self.graph = QuotientRing(big, [a - _lift(f, big)
                                        for a, f in zip(names, images)])

    def kernel_gens(self) -> list:
        """Kernel generators: the graph basis elements free of target
        variables, as polynomials in the presentation ring."""
        n_t = self.target.nvars
        return [_strip_vars(g, self.pres_ring, n_t)
                for g in self.graph.ideal_basis
                if not any(any(m[:n_t]) for m in g.terms)]

    def module_relation_columns(self, module_gens):
        """Presentation of the R-module generated inside k[x] by module_gens.

        module_gens are nonzero homogeneous target-ring elements.  Returns
        the relations among them with coefficients in the subring, as
        vectors over the presentation ambient: the reduced basis of the
        relation module under the graph ring's order.  One preimage run in
        the graph ring B on the columns (g_l | e_l), seeded with B's basis
        on every component: its value block, kept raw, is the reduced basis
        of {c : sum c_l g_l = 0 in B}, and its elements free of x are the
        relations.
        """
        from .modules import _block_basis, _unit_pairs  # imports ring
        gens = list(module_gens)
        for l, g in enumerate(gens, 1):
            if g.ring != self.target:
                raise ContextError("module generator not in the target ring")
            if g.is_zero():
                raise DomainError(f"module generator {l} is zero")
            if not g.is_homogeneous():
                raise DomainError(f"inhomogeneous module generator {l}: {g}")
        if not gens:
            return []
        B, n_t, t = self.graph, self.target.nvars, len(gens)
        cols = [Vec.from_polys([_lift(g, B.ambient)]) for g in gens]
        basis = _block_basis(B, *_unit_pairs(cols), t,
                             B.free_relation_basis(1), 1, eliminate=True)
        return [Vec(self.pres_ring, t,
                    {(j, m[n_t:]): c for (j, m), c in v.terms.items()})
                for v in basis if not v.has_vars_below(n_t)]


def presented_subring(images, names=None, field=None, target_ring=None):
    """Quotient ring presenting the monomial subring k[images] of k[x].

    images: monomials (strings or polynomials) in a common target polynomial
    ring; grading weights are the degrees of the images.  The resulting ring
    is a domain by construction, over the images' field k: field, when
    given, must be k (ContextError otherwise).
    """
    if target_ring is None:
        if not images or not isinstance(images[0], Polynomial):
            raise ValueError("need polynomial images or an explicit target ring")
        target_ring = images[0].ring
    if field is not None and field != target_ring.field:
        raise ContextError(f"a subring over {field!r} of a ring over "
                           f"{target_ring.field!r}")
    imgs = [target_ring.parse(f) if isinstance(f, str) else f for f in images]
    if names is None:
        names = []
        pool = iter(n for n in _AUTO_NAMES if n not in target_ring.names)
        for _ in imgs:
            names.append(next(pool))
    names = tuple(names)
    presentation = SubringPresentation(imgs, names)
    return QuotientRing(presentation.pres_ring, presentation.kernel_gens(),
                        domain_status="subring-of-domain",
                        presentation=presentation)


def make_quotient_ring(ambient: PolyRing, ideal_gens) -> QuotientRing:
    gens = list(ideal_gens)
    return QuotientRing(ambient, gens, domain_status="polynomial-ring"
                        if not gens else "assumed")
