"""Groebner-basis kernel for submodules of free modules P^s.

Everything here works over an ambient polynomial ring P; quotient-ring
computations are assembled by callers, which add the defining ideal on
every component, as input columns or as a seed basis.
The engine is Buchberger's algorithm with the product criterion (applied
only where it is valid for modules) and the chain criterion.  Its pair
queue is not a strict heap: the pairs among the input columns are
heapified by the key of their lcm, the pairs of every later basis element
are appended to the list unsorted, and each pop takes the list's first
entry (heapq.heappop), which need not be the least pending pair (see
push_pairs in buchberger).  The order is deterministic.  Output bases are
reduced, monic and canonically sorted, hence unique for a given module and
order, whatever the pair order.

Term orders are values (orders.ModuleOrder): TOP over the ring order,
which may be an elimination order, and the block order.  buchberger is
the one constructor of a GroebnerBasis; the basis keeps only the kernel
rows the run ended with, and iterating it decodes them into Vecs.  A run
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

Inside the kernel every monomial is an int too, its order code
(orders.MonomialCode), the one implementation of the ring order: codes
compare the way the order does, a product of monomials is a sum of codes,
and divisibility is one test on the difference of two codes.  Exponent
tuples are converted to codes where a Vec enters the kernel and back
where it leaves, and in leading_terms; Vecs and everything outside this
module keep tuples, which they order by the same codes.  An exponent past
orders.EXP_BOUND raises UnsupportedInputError: encode refuses it on the
way in (if nothing ordered it before), and a reduction that grows one
stops.

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
from math import gcd, lcm
from operator import itemgetter

from .orders import EXP_BOUND, UnsupportedInputError
from .poly import ContextError, PolyRing, Polynomial, mono_mul


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
#
# A kernel term is (comp, m), m the order code of its monomial (see
# orders.MonomialCode); a kernel row is (comp, m, lc, terms), the lead
# first.  Codes add to multiply monomials, and a monomial with lead code e
# divides one with code m iff not (((m - e) ^ xor) + add) & guard.


def _to_kernel(terms, p, code):
    """(int terms, den) with int terms == den * terms, monomials as order
    codes; den is 1 over GF(p)."""
    enc = code.encode
    if p:
        return {(j, enc(m)): c for (j, m), c in terms.items()}, 1
    den = lcm(*(c.denominator for c in terms.values()))
    return {(j, enc(m)): c.numerator * (den // c.denominator)
            for (j, m), c in terms.items()}, den


def _from_kernel(terms, den, p, code):
    """Field coefficients of the int terms divided by den, monomials as
    exponent tuples."""
    dec = code.decode
    if p:
        return {(j, dec(m)): c for (j, m), c in terms.items()}
    if den == 1:
        return {(j, dec(m)): Fraction(c) for (j, m), c in terms.items()}
    return {(j, dec(m)): Fraction(c, den) for (j, m), c in terms.items()}


def _reduce_terms(terms, basis, key, code, p, stop_early=False):
    """Fully reduce an int term dict against basis rows, in place.

    basis: list of (comp, m, lc, body_terms) in kernel form, key the
    term key of the order (_term_key).  Returns
    (rem, mult) with mult * input == rem + (a combination of the basis);
    the terms of rem are in descending order, lead first.  Over GF(p)
    every lc is 1, so mult stays 1.  Every term is checked against the
    exponent bound when it leads: the rows' terms are within it, so no
    product formed here carries out of a field unseen.

    With stop_early the reduction stops at the first leading term that no
    row divides and rem is that term alone: it is nonzero exactly when
    the full remainder is, which is all a membership test needs.
    """
    xor, add, guard = code.xor, code.add, code.guard
    rem = []  # (term, coeff, mult when it was set aside)
    mult = 1
    while terms:
        best = max(terms, key=key)
        comp, m = best
        if ((m ^ xor) + add) & guard:
            raise UnsupportedInputError(
                f"an exponent grew past {EXP_BOUND} in a Groebner "
                f"computation")
        coeff = terms[best]
        for bc, be, lc, body in basis:
            if bc == comp and not ((((m - be) ^ xor) + add) & guard):
                break
        else:
            if stop_early:
                return {best: coeff}, mult
            rem.append((best, coeff, mult))
            del terms[best]
            continue
        q = m - be
        g = gcd(coeff, lc)
        scale, factor = lc // g, coeff // g
        if scale != 1:
            mult *= scale
            for k in terms:
                terms[k] *= scale
        for (j, bm), c in body.items():
            k2 = (j, bm + q)
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
    (comp, m, lc).

    The lead is the first term (see _reduce_terms).  Over Q divide out the
    content, with the sign that makes lc positive; over GF(p) make the
    vector monic.
    """
    comp, m = lead = next(iter(terms))
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
    return comp, m, terms[lead]


# --- Buchberger -----------------------------------------------------------


class GroebnerBasis:
    """Reduced Groebner basis of a span of columns in P^ncomps.

    Built by buchberger from its kernel rows (comp, m, lc, terms), lead
    first and sorted by lead descending (see _reduce_terms).  Iterating
    it gives the elements, monic Vecs, decoded from the rows each time.
    """

    def __init__(self, ring, ncomps, order, rows):
        self.ring = ring
        self.ncomps = ncomps
        self.order = order
        self._code = order.code(ring.nvars)
        self._key = _term_key(order, ncomps)
        self._rows = rows

    def __iter__(self):
        p, code = self.ring.field.char, self._code
        for _c, _e, lc, terms in self._rows:
            yield Vec(self.ring, self.ncomps, _from_kernel(terms, lc, p, code))

    def __len__(self):
        return len(self._rows)

    def normal_form(self, v: Vec) -> Vec:
        p, code = self.ring.field.char, self._code
        terms, den = _to_kernel(v.terms, p, code)
        rem, mult = _reduce_terms(terms, self._rows, self._key, code, p)
        return Vec(self.ring, self.ncomps,
                   _from_kernel(rem, den * mult, p, code))

    def contains(self, v: Vec) -> bool:
        """Is v in the span?  The reduction stops at the first leading
        term that no row divides, which stays in the remainder, so v is
        not a member; nothing is decoded."""
        p, code = self.ring.field.char, self._code
        terms, _den = _to_kernel(v.terms, p, code)
        rem, _mult = _reduce_terms(terms, self._rows, self._key, code, p,
                                   stop_early=True)
        return not rem

    def leading_terms(self):
        """The leads as (comp, exponent tuple), in basis order."""
        dec = self._code.decode
        return [(c, dec(m)) for (c, m, _lc, _b) in self._rows]


def _term_key(order, ncomps):
    """The order's term key; in a single component, where every term key
    is decided by the monomial code, the code itself."""
    return itemgetter(1) if ncomps == 1 else order.term_key


def _single_component(terms):
    comps = {j for (j, _m) in terms}
    return len(comps) == 1


def _undominated(basis, nseed, code):
    """Indices of the basis rows whose lead no other row's lead divides.

    Each row past the seed is fully reduced against the rows before it, and
    the seed rows are reduced among themselves, so only a non-seed row
    after a row can divide its lead.
    """
    xor, add, guard = code.xor, code.add, code.guard
    keep = []
    for i, (ci, ei, _li, _bi) in enumerate(basis):
        for cj, ej, _lj, _bj in basis[max(i + 1, nseed):]:
            if cj == ci and not ((((ei - ej) ^ xor) + add) & guard):
                break
        else:
            keep.append(i)
    return keep


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
    code = keyfn.code(ring.nvars)
    key, mlcm = _term_key(keyfn, ncomps), code.lcm
    xor, add, guard = code.xor, code.add, code.guard

    basis = []        # (comp, m, lc, body terms), kernel form
    singles = []      # support in a single component?
    pending = set()   # pending pair indices
    queue = []        # (sortkey, i, j, lcm)
    if seed is not None:
        basis.extend(seed._rows)
        singles.extend(_single_component(row[3]) for row in seed._rows)
    nseed = len(basis)

    # Pairs are appended, never heap-pushed.  The input columns' pairs are
    # heapified once before the main loop; the pairs of every later
    # element sit unsorted at the end of the list, so heappop takes the
    # list's first entry, not always the least pending pair.  Heap-pushing
    # them did more work (on the closure benchmark 5% more pairs and 2%
    # more reduced S-pairs, and no faster), so this order stays, and the
    # pinned work counts in the tests guard it.
    def push_pairs(new_idx):
        nc, ne, _lc, _b = basis[new_idx]
        for i in range(new_idx):
            ic, ie, _il, _bi = basis[i]
            if ic != nc:
                continue
            lcm = mlcm(ie, ne)
            queue.append((key((nc, lcm)), i, new_idx, lcm))
            pending.add((i, new_idx))

    def add_element(terms):
        basis.append((*_normalize(terms, p), terms))
        singles.append(_single_component(terms))
        push_pairs(len(basis) - 1)

    for col in cols:
        rem, _mult = _reduce_terms(_to_kernel(col.terms, p, code)[0], basis,
                                   key, code, p)
        if rem:
            add_element(rem)

    import heapq
    heapq.heapify(queue)
    while queue:
        _key, i, j, lcm = heapq.heappop(queue)
        pending.discard((i, j))
        ci, ei, lc_i, bi = basis[i]
        cj, ej, lc_j, bj = basis[j]
        # product criterion: valid for module elements only when both live
        # entirely in the shared leading component
        if singles[i] and singles[j] and lcm == ei + ej:
            continue
        # chain criterion
        skip = False
        for k, (ck, ek, _lk, _bk) in enumerate(basis):
            if k == i or k == j or ck != ci:
                continue
            if not ((((lcm - ek) ^ xor) + add) & guard):
                pi = (i, k) if i < k else (k, i)
                pj = (j, k) if j < k else (k, j)
                if pi not in pending and pj not in pending:
                    skip = True
                    break
        if skip:
            continue
        # S-vector: cross-multiply both sides to cancel the leading term
        qi, qj = lcm - ei, lcm - ej
        g = gcd(lc_i, lc_j)
        fi, fj = lc_j // g, lc_i // g
        terms: dict = {}
        for (cm, m), c in bi.items():
            terms[(cm, m + qi)] = c * fi
        for (cm, m), c in bj.items():
            k2 = (cm, m + qj)
            s = terms.get(k2, 0) - c * fj
            if p:
                s %= p
            if s:
                terms[k2] = s
            else:
                terms.pop(k2, None)
        rem, _mult = _reduce_terms(terms, basis, key, code, p)
        if rem:
            add_element(rem)

    # interreduce the undominated rows in ascending lead order: a tail term
    # is only divisible by a smaller lead, so reducing each element against
    # the finished ones leaves every tail fully reduced in one pass
    keep = _undominated(basis, nseed, code)
    keep.sort(key=lambda i: key(basis[i][:2]))
    done = []
    for i in keep:
        rem, _mult = _reduce_terms(dict(basis[i][3]), done, key, code, p)
        done.append((*_normalize(rem, p), rem))

    return GroebnerBasis(ring, ncomps, keyfn, done[::-1])
