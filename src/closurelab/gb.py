"""Groebner-basis kernel for submodules of free modules P^s.

Everything here works over an ambient polynomial ring P; quotient-ring
computations are assembled by callers, which add the defining ideal on
every component, as input columns or as a seed basis.
The engine is Buchberger's algorithm with the normal pair-selection
strategy, the product criterion (applied only where it is valid for
modules) and the chain criterion.  Output bases are reduced, monic and
canonically sorted, hence unique for a given module and order.

Term orders are values (orders.ModuleOrder): TOP over the ring order,
which may be an elimination order, and the block order.  buchberger is
the one constructor of a GroebnerBasis; the basis keeps the kernel rows
the run ended with, and its Vec elements are derived from them.  A run
may start from a known basis (a seed), whose rows it takes as they are.

Inside the kernel every coefficient is a Python int, and one reducer and
one Buchberger loop serve both fields through the characteristic p.  Over
Q a basis element is a primitive integer vector with a positive lead
coefficient, and a reduction step cross-multiplies instead of dividing
(fraction-free, as with primitive polynomial remainder sequences); over
GF(p) a basis element is monic and coefficients are kept in [0, p).
Fractions appear only where a Vec enters the kernel (denominators
cleared) or leaves it (output bases made monic, normal forms divided by
the accumulated multiplier).

Preimages, syzygies, membership certificates and the relations of
subring modules are all one block-order construction, which the callers
assemble (modules._block_basis): one seeded run on the columns
(map column | value) under the block order that keeps the value
components below the real ones.  This module is the kernel alone: Vec,
the integer reducer, GroebnerBasis and buchberger.

All functions are pure over immutable inputs; S-pair processing is
sequential, so outputs are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .poly import (ContextError, PolyRing, Polynomial, mono_div, mono_divides,
                   mono_gcd_is_one, mono_lcm, mono_mul)


class Vec:
    """Element of a free module P^ncomps, as a {(comp, exps): coeff} map."""

    __slots__ = ("ring", "ncomps", "terms")

    def __init__(self, ring: PolyRing, ncomps: int, terms: dict):
        self.ring = ring
        self.ncomps = ncomps
        self.terms = terms

    @classmethod
    def zero(cls, ring, ncomps):
        return cls(ring, ncomps, {})

    @classmethod
    def from_polys(cls, polys):
        polys = list(polys)
        ring = polys[0].ring
        terms = {}
        for i, p in enumerate(polys):
            if p.ring != ring:
                raise ContextError("mixed rings in vector")
            for m, c in p.terms.items():
                terms[(i, m)] = c
        return cls(ring, len(polys), terms)

    @classmethod
    def unit(cls, ring, ncomps, comp):
        return cls(ring, ncomps, {(comp, (0,) * ring.nvars): ring.field.one})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Vec) and self.ring == other.ring
                and self.ncomps == other.ncomps and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.ncomps, frozenset(self.terms.items())))

    def component(self, i) -> Polynomial:
        return Polynomial(self.ring,
                          {m: c for (j, m), c in self.terms.items() if j == i})

    def to_polys(self):
        return [self.component(i) for i in range(self.ncomps)]

    def support(self):
        return sorted({j for (j, _m) in self.terms})

    def __add__(self, other):
        fld = self.ring.field
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = fld.add(terms.get(k, fld.zero), c)
            if s == fld.zero:
                terms.pop(k, None)
            else:
                terms[k] = s
        return Vec(self.ring, self.ncomps, terms)

    def __neg__(self):
        fld = self.ring.field
        return Vec(self.ring, self.ncomps,
                   {k: fld.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, poly: Polynomial) -> "Vec":
        """Multiply by a ring element."""
        fld = self.ring.field
        terms: dict = {}
        for (j, m1), c1 in self.terms.items():
            for m2, c2 in poly.terms.items():
                k = (j, mono_mul(m1, m2))
                s = fld.add(terms.get(k, fld.zero), fld.mul(c1, c2))
                if s == fld.zero:
                    terms.pop(k, None)
                else:
                    terms[k] = s
        return Vec(self.ring, self.ncomps, terms)

    def term_mul(self, coeff, exps) -> "Vec":
        fld = self.ring.field
        return Vec(self.ring, self.ncomps,
                   {(j, mono_mul(m, exps)): fld.mul(c, coeff)
                    for (j, m), c in self.terms.items()})

    def leading(self, keyfn):
        if not self.terms:
            raise ValueError("leading term of zero vector")
        comp, exps = max(self.terms, key=lambda t: keyfn(t[0], t[1]))
        return comp, exps, self.terms[(comp, exps)]

    def pad(self, ncomps, offset=0) -> "Vec":
        """Reembed into P^ncomps, shifting components by offset."""
        return Vec(self.ring, ncomps,
                   {(j + offset, m): c for (j, m), c in self.terms.items()})

    def take_components(self, lo, hi) -> "Vec":
        return Vec(self.ring, hi - lo,
                   {(j - lo, m): c for (j, m), c in self.terms.items()
                    if lo <= j < hi})

    def has_vars_below(self, n_elim) -> bool:
        return any(any(m[:n_elim]) for (_j, m) in self.terms)

    def degree(self, shifts=None) -> int:
        """Weighted degree, assuming homogeneity; shifts indexed by component."""
        if not self.terms:
            return -1
        degs = set()
        for (j, m) in self.terms:
            d = self.ring.wdeg(m) + (shifts[j] if shifts else 0)
            degs.add(d)
        return max(degs)

    def is_homogeneous(self, shifts=None) -> bool:
        degs = {self.ring.wdeg(m) + (shifts[j] if shifts else 0)
                for (j, m) in self.terms}
        return len(degs) <= 1

    def __str__(self):
        return "(" + ", ".join(str(p) for p in self.to_polys()) + ")"

    __repr__ = __str__


# --- integer kernel: int coefficients, p the characteristic (0 for Q) ------


def _to_kernel(terms, p):
    """(int terms, den) with int terms == den * terms; den is 1 over GF(p)."""
    if p:
        return dict(terms), 1
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in terms.items()}, den


def _from_kernel(terms, den, p):
    """Field coefficients of the int terms divided by den."""
    if p:
        return terms
    return {k: Fraction(c, den) for k, c in terms.items()}


def _reduce_terms(terms, basis, keyfn, p, keycache):
    """Fully reduce an int term dict against basis elements, in place.

    basis: list of (comp, exps, lc, body_terms) in kernel form.  Returns
    (rem, mult) with mult * input == rem + (a combination of the basis);
    the terms of rem are in descending order, lead first.  Over GF(p)
    every lc is 1, so mult stays 1.
    """
    rem = []  # (term, coeff, mult when it was set aside)
    mult = 1
    while terms:
        best = None
        bestkey = None
        for t in terms:
            k = keycache.get(t)
            if k is None:
                k = keyfn(t[0], t[1])
                keycache[t] = k
            if bestkey is None or k > bestkey:
                bestkey = k
                best = t
        comp, exps = best
        coeff = terms[best]
        hit = -1
        for idx, (bc, be, _lc, _body) in enumerate(basis):
            if bc == comp and mono_divides(be, exps):
                hit = idx
                break
        if hit < 0:
            rem.append((best, coeff, mult))
            del terms[best]
            continue
        _bc, be, lc, body = basis[hit]
        q = mono_div(exps, be)
        g = gcd(coeff, lc)
        scale, factor = lc // g, coeff // g
        if scale != 1:
            mult *= scale
            for k in terms:
                terms[k] *= scale
        for (j, m), c in body.items():
            k2 = (j, mono_mul(m, q))
            s = terms.get(k2, 0) - c * factor
            if p:
                s %= p
            if s:
                terms[k2] = s
            else:
                terms.pop(k2, None)
    return {t: c * (mult // m) for t, c, m in rem}, mult


def _normalize(terms, p):
    """Make a remainder a kernel basis element in place; returns
    (comp, exps, lc).

    The lead is the first term (see _reduce_terms).  Over Q divide out the
    content, with the sign that makes lc positive; over GF(p) make the
    vector monic.
    """
    comp, exps = lead = next(iter(terms))
    if p:
        inv = pow(terms[lead], -1, p)
        for k in terms:
            terms[k] = terms[k] * inv % p
    else:
        content = gcd(*terms.values())
        if terms[lead] < 0:
            content = -content
        if content != 1:
            for k in terms:
                terms[k] //= content
    return comp, exps, terms[lead]


# --- Buchberger -----------------------------------------------------------


class GroebnerBasis:
    """Reduced Groebner basis of a span of columns in P^ncomps.

    Built by buchberger from its kernel rows (comp, exps, lc, terms), lead
    first and sorted by lead descending (see _reduce_terms).  The elements,
    monic Vecs, are derived from the rows on first use.
    """

    def __init__(self, ring, ncomps, order, rows):
        self.ring = ring
        self.ncomps = ncomps
        self.order = order
        self._rows = rows
        self._keycache: dict = {}

    @cached_property
    def elements(self):
        p = self.ring.field.char
        return [Vec(self.ring, self.ncomps, _from_kernel(terms, lc, p))
                for _c, _e, lc, terms in self._rows]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self._rows)

    def normal_form(self, v: Vec) -> Vec:
        p = self.ring.field.char
        terms, den = _to_kernel(v.terms, p)
        rem, mult = _reduce_terms(terms, self._rows, self.order, p,
                                  self._keycache)
        return Vec(self.ring, self.ncomps, _from_kernel(rem, den * mult, p))

    def contains(self, v: Vec) -> bool:
        return self.normal_form(v).is_zero()

    def leading_terms(self):
        return [(c, e) for (c, e, _lc, _b) in self._rows]


def _single_component(terms):
    comps = {j for (j, _m) in terms}
    return len(comps) == 1


def buchberger(cols, ncomps, keyfn, ring=None, seed=None) -> GroebnerBasis:
    """Reduced Groebner basis of the span of cols in P^ncomps under the
    module order keyfn (a ModuleOrder).

    seed, a GroebnerBasis over the same ring, ncomps and order, adds its
    span: its kernel rows start the basis as they are, and no pair of two
    seed rows is formed, since a Groebner basis meets Buchberger's
    criterion already.  The result is the same reduced basis as with the
    seed's elements appended to cols.
    """
    if ring is None:
        if not cols:
            raise ValueError("need a ring for an empty generating set")
        ring = cols[0].ring
    if seed is not None and (seed.ring, seed.ncomps, seed.order) != (
            ring, ncomps, keyfn):
        raise ValueError("seed basis of another ring, rank or order")
    cols = [c for c in cols if not c.is_zero()]
    if seed is not None and not cols:
        return seed
    p = ring.field.char
    keycache: dict = {}

    basis = []        # (comp, exps, lc, body terms), kernel form
    singles = []      # support in a single component?
    pending = set()   # pending pair indices
    queue = []        # (sortkey, i, j)
    if seed is not None:
        # a seed lead is keyed here, as _reduce_terms keys every other lead,
        # for the final sort
        for row in seed._rows:
            keycache[row[0], row[1]] = keyfn(row[0], row[1])
            basis.append(row)
            singles.append(_single_component(row[3]))

    def push_pairs(new_idx):
        nc, ne, _lc, _b = basis[new_idx]
        for i in range(new_idx):
            ic, ie, _il, _bi = basis[i]
            if ic != nc:
                continue
            lcm = mono_lcm(ie, ne)
            queue.append((keyfn(nc, lcm), i, new_idx))
            pending.add((i, new_idx))

    def add_element(terms):
        basis.append((*_normalize(terms, p), terms))
        singles.append(_single_component(terms))
        push_pairs(len(basis) - 1)

    for col in cols:
        rem, _mult = _reduce_terms(_to_kernel(col.terms, p)[0], basis, keyfn,
                                   p, keycache)
        if rem:
            add_element(rem)

    import heapq
    heapq.heapify(queue)
    while queue:
        _key, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        ci, ei, lc_i, bi = basis[i]
        cj, ej, lc_j, bj = basis[j]
        lcm = mono_lcm(ei, ej)
        # product criterion: valid for module elements only when both live
        # entirely in the shared leading component
        if singles[i] and singles[j] and mono_gcd_is_one(ei, ej):
            continue
        # chain criterion
        skip = False
        for k, (ck, ek, _lk, _bk) in enumerate(basis):
            if k == i or k == j or ck != ci:
                continue
            if mono_divides(ek, lcm):
                pi = (i, k) if i < k else (k, i)
                pj = (j, k) if j < k else (k, j)
                if pi not in pending and pj not in pending:
                    skip = True
                    break
        if skip:
            continue
        # S-vector: cross-multiply both sides to cancel the leading term
        qi, qj = mono_div(lcm, ei), mono_div(lcm, ej)
        g = gcd(lc_i, lc_j)
        fi, fj = lc_j // g, lc_i // g
        terms: dict = {}
        for (cm, m), c in bi.items():
            terms[(cm, mono_mul(m, qi))] = c * fi
        for (cm, m), c in bj.items():
            k2 = (cm, mono_mul(m, qj))
            s = terms.get(k2, 0) - c * fj
            if p:
                s %= p
            if s:
                terms[k2] = s
            else:
                terms.pop(k2, None)
        rem, _mult = _reduce_terms(terms, basis, keyfn, p, keycache)
        if rem:
            add_element(rem)

    # minimalize: drop elements whose lead is divisible by another's lead
    keep = []
    for i, (ci, ei, _li, _bi) in enumerate(basis):
        dominated = False
        for j, (cj, ej, _lj, _bj) in enumerate(basis):
            if i == j or cj != ci:
                continue
            if mono_divides(ej, ei) and (ej != ei or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)

    # interreduce in ascending lead order: a tail term is only divisible by
    # a smaller lead, so reducing each element against the finished ones
    # leaves every tail fully reduced in one pass.  Every lead was keyed
    # into keycache when _reduce_terms selected it.
    keep.sort(key=lambda i: keycache[basis[i][0], basis[i][1]])
    done = []
    for i in keep:
        rem, _mult = _reduce_terms(dict(basis[i][3]), done, keyfn, p,
                                   keycache)
        done.append((*_normalize(rem, p), rem))

    return GroebnerBasis(ring, ncomps, keyfn, done[::-1])

