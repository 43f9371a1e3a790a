"""Groebner-basis kernel for submodules of free modules P^s.

Everything here works over an ambient polynomial ring P; quotient-ring
computations are assembled by callers, which add the defining ideal on
every component, as input columns or as a seed basis.
The engine is Buchberger's algorithm with the product criterion (applied
only where it is valid for modules) and the chain criterion.  The product
criterion is applied when a pair is formed: a pair of two rows that live
in their lead component alone and have coprime leads is never queued.
Its pair queue is not a strict heap: the pairs among the input columns are
heapified by the key of their lcm, the pairs of every later basis element
are appended to the list unsorted, and each pop takes the list's first
entry (heapq.heappop), which need not be the least pending pair (see
push_pairs in buchberger).  The order is deterministic.  Rows are indexed
by lead component, so reductions, pair formation and the chain criterion
scan only the rows of one component, in basis order.  The final pass
reduces again only the rows whose terms the lead of a later kept row
divides: every other row was fully reduced against the rest when it was
made.  Output bases are reduced, monic and canonically sorted, hence
unique for a given module and order, whatever the pair order.

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
the accumulated multiplier).  A kernel column or term dict may sit at any
nonzero scale: spans, membership and normalized rows do not see it.

Inside the kernel every monomial is an int too, its order code
(orders.MonomialCode), the one implementation of the ring order: codes
compare the way the order does, a product of monomials is a sum of codes,
and divisibility is one test on the difference of two codes.  Exponent
tuples become codes in one place, _to_kernel, where a Vec enters the
kernel: a Vec column of buchberger, the argument of normal_form and
contains, and the edges of the closure path in modules and closure, which
then work on kernel terms and rows (KernelCol columns, contains_terms,
_reduce_terms) until an answer leaves.  Codes become tuples again in
_from_kernel, where a basis or a kept generator is decoded, and in
leading_terms; Vecs keep tuples, which they order by the same codes.  An
exponent past orders.EXP_BOUND raises UnsupportedInputError: encode
refuses it on the way in (if nothing ordered it before), and a reduction
that grows one stops.

Preimages, syzygies, membership certificates and the relations of
subring modules are all one block-order construction, which the callers
assemble (modules._block_basis): one seeded run on the columns
(map column | value) under the block order that keeps the value
components below the real ones.  Its seed stacks the target's span
basis on the ideal's rows in the value components
(GroebnerBasis.stacked), each kept with its index, so the seed's index
is assembled from theirs.  A preimage run eliminates (buchberger's
eliminate): its final pass keeps only the value block, the reduced basis
of the span's intersection with the value components, which is all its
callers read; a certificate run keeps the whole block basis, whose
normal forms it needs.  This module is the kernel alone: Vec, the
integer reducer, GroebnerBasis and buchberger.

All functions are pure over immutable inputs; S-pair processing is
sequential, so outputs are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop
from math import gcd, lcm
from operator import itemgetter

from .orders import EXP_BOUND, ModuleOrder, UnsupportedInputError
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
    codes; den is 1 over GF(p).  A Fraction's _numerator and _denominator
    are read as slots, not through its properties; a value built by hand
    over Q may hold an int, which is first made a Fraction."""
    enc = code.encode
    if p:
        return {(j, enc(m)): c for (j, m), c in terms.items()}, 1
    try:
        den = lcm(*(c._denominator for c in terms.values()))
    except AttributeError:
        return _to_kernel({key: Fraction(c.numerator, c.denominator)
                           for key, c in terms.items()}, p, code)
    return {(j, enc(m)): c._numerator * (den // c._denominator)
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


class KernelCol:
    """A column already in kernel form: its int terms {(comp, m): c}, m
    the monomial's order code, at any nonzero scale.  buchberger takes
    its terms as they are, where it encodes a Vec (_to_kernel)."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms


def _shift_terms(terms, offset):
    """A copy of kernel terms with every component moved by offset."""
    return {(j + offset, m): c for (j, m), c in terms.items()}


def _reduce_terms(terms, rows_of, key, code, p, stop_early=False):
    """Fully reduce an int term dict against basis rows, in place.

    rows_of maps a component to the basis rows (comp, m, lc, body_terms),
    in kernel form, whose lead is in it, in basis order; key is the term
    key of the order (_term_key).  A term is reduced by the first row of
    its component whose lead divides it.  Returns (rem, mult) with
    mult * input == rem + (a combination of the basis); the terms of rem
    are in descending order, lead first.  Over GF(p) every lc is 1, so
    mult stays 1.  Every term is checked against the exponent bound when
    it leads: the rows' terms are within it, so no product formed here
    carries out of a field unseen.

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
        for _bc, be, lc, body in rows_of.get(comp, ()):
            if not ((((m - be) ^ xor) + add) & guard):
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
    The rows indexed by lead component, and the pair data of a run that
    it seeds, are built once per basis, on first use, or assembled from
    the indices of the two bases it stacks (stacked).
    """

    def __init__(self, ring, ncomps, order, rows):
        self.ring = ring
        self.ncomps = ncomps
        self.order = order
        self._code = _order_code(ring, order)
        self._key = _term_key(order, ncomps)
        self._rows = rows

    @classmethod
    def stacked(cls, upper, lower):
        """The rows of upper, then those of lower, over lower's rank and
        order.  upper's rows must lie in components that lower's do not
        use, every term of theirs above every term of lower's: the real
        block of a block order above the value block, as in the seed of a
        block run.  The result is then a reduced basis of the sum, and its
        index is the two indices side by side, lower's shifted past
        upper's rows; no lead mask is computed again."""
        basis = cls(lower.ring, lower.ncomps, lower.order,
                    upper._rows + lower._rows)
        n = len(upper._rows)
        basis._rows_of = {**upper._rows_of, **lower._rows_of}
        basis._leads_of = {**upper._leads_of,
                           **{c: [(k + n, m, mask) for k, m, mask in leads]
                              for c, leads in lower._leads_of.items()}}
        return basis

    @cached_property
    def _rows_of(self):
        """Component -> the rows with their lead in it, in basis order."""
        rows_of = {}
        for row in self._rows:
            rows_of.setdefault(row[0], []).append(row)
        return rows_of

    @cached_property
    def _leads_of(self):
        """Component -> (index, lead, lead mask) of the rows with their
        lead in it, in basis order (see _lead_mask): the pair data that a
        run seeded with this basis starts from."""
        leads_of = {}
        dec = self._code.decode
        for k, (c, m, _lc, terms) in enumerate(self._rows):
            leads_of.setdefault(c, []).append(
                (k, m, _lead_mask(c, m, terms, dec)))
        return leads_of

    def __iter__(self):
        p, code = self.ring.field.char, self._code
        for _c, _e, lc, terms in self._rows:
            yield Vec(self.ring, self.ncomps, _from_kernel(terms, lc, p, code))

    def __len__(self):
        return len(self._rows)

    def normal_form(self, v: Vec) -> Vec:
        p, code = self.ring.field.char, self._code
        terms, den = _to_kernel(v.terms, p, code)
        rem, mult = _reduce_terms(terms, self._rows_of, self._key, code, p)
        return Vec(self.ring, self.ncomps,
                   _from_kernel(rem, den * mult, p, code))

    def contains(self, v: Vec) -> bool:
        """Is v in the span?  v is encoded, and its terms tested
        (contains_terms)."""
        return self.contains_terms(
            _to_kernel(v.terms, self.ring.field.char, self._code)[0])

    def contains_terms(self, terms) -> bool:
        """Are the kernel terms, at any nonzero scale, in the span?  They
        are reduced in place, and the reduction stops at the first leading
        term that no row divides, which stays in the remainder, so they
        are not a member; nothing is decoded."""
        rem, _mult = _reduce_terms(terms, self._rows_of, self._key,
                                   self._code, self.ring.field.char,
                                   stop_early=True)
        return not rem

    def leading_terms(self):
        """The leads as (comp, exponent tuple), in basis order."""
        dec = self._code.decode
        return [(c, dec(m)) for (c, m, _lc, _b) in self._rows]


def _order_code(ring, order):
    """The order code of a module order's ring order on the ring's
    variables.  In every run of the engine that is the ring's own order,
    whose code the ring keeps, so nothing hashes the order to find it."""
    ro = order.ring_order
    return ring.code if ro is ring.order else ro.code(ring.nvars)


def _term_key(order, ncomps):
    """The order's term key; in a single component, where every term key
    is decided by the monomial code, the code itself."""
    return itemgetter(1) if ncomps == 1 else order.term_key


def _lead_mask(comp, m, terms, decode):
    """The variables of the lead monomial m as bits, when every term of the
    row is in the lead's component, else None.  The product criterion
    holds for module elements only when both live entirely in the shared
    lead component: two such rows whose masks are disjoint have coprime
    leads, and their S-vector reduces to zero against the two of them."""
    for j, _m in terms:
        if j != comp:
            return None
    return sum(1 << v for v, x in enumerate(decode(m)) if x)


def _index_leads(basis, indices):
    """Component -> (index, lead) of the given rows, in index order."""
    leads_of = {}
    for k in indices:
        c, e, _lc, _b = basis[k]
        leads_of.setdefault(c, []).append((k, e))
    return leads_of


def _reached(terms, leads_of, after, code):
    """Does the lead of a row with an index past `after` divide one of the
    terms (comp, m)?  leads_of maps a component to (index, lead) pairs in
    index order (_index_leads)."""
    xor, add, guard = code.xor, code.add, code.guard
    for c, m in terms:
        for k, e in reversed(leads_of.get(c, ())):
            if k <= after:
                break
            if not ((((m - e) ^ xor) + add) & guard):
                return True
    return False


def _undominated(basis, nseed, code):
    """Indices of the basis rows whose lead no other row's lead divides.

    Each row past the seed is fully reduced against the rows before it, and
    the seed rows are reduced among themselves, so only a non-seed row
    after a row can divide its lead.
    """
    later = _index_leads(basis, range(nseed, len(basis)))
    return [i for i, (c, e, _lc, _b) in enumerate(basis)
            if c not in later or not _reached(((c, e),), later, i, code)]


def buchberger(cols, ncomps, keyfn, ring=None, seed=None,
               eliminate=False) -> GroebnerBasis:
    """Reduced Groebner basis of the span of cols in P^ncomps under the
    module order keyfn (a ModuleOrder).  A column is a Vec, encoded here,
    or a KernelCol, whose terms are taken as they are (and not changed).

    seed, a GroebnerBasis over the same ring, ncomps and order, adds its
    span: its kernel rows start the basis as they are, and no pair of two
    seed rows is formed, since a Groebner basis meets Buchberger's
    criterion already.  The result is the same reduced basis as with the
    seed's elements appended to cols.

    With eliminate, keyfn a block order with k = keyfn.nreal real
    components, the result is the reduced basis of the span's
    intersection with the last ncomps - k components, relabelled to
    components 0.. under TOP over the same ring order: the rows of the
    full basis with their lead in a value component, in the same order,
    dict order included.  Under the block order such a row lies in the
    value components alone, so no real row can reduce or dominate it,
    and the final pass leaves out the real rows.
    """
    if ring is None:
        if not cols:
            raise ValueError("need a ring for an empty generating set")
        ring = cols[0].ring
    if seed is not None and (seed.ring, seed.ncomps, seed.order) != (
            ring, ncomps, keyfn):
        raise ValueError("seed basis of another ring, rank or order")
    cols = [c for c in cols if c.terms]
    if seed is not None and not cols and not eliminate:
        return seed
    p = ring.field.char
    code = _order_code(ring, keyfn)
    key, mlcm, dec = _term_key(keyfn, ncomps), code.lcm, code.decode
    xor, add, guard = code.xor, code.add, code.guard

    basis = []        # (comp, m, lc, body terms), kernel form
    rows_of = {}      # comp -> the rows with their lead in it, in order
    leads_of = {}     # comp -> (index, lead, lead mask) of those rows
    pending = set()   # pending pair indices
    queue = []        # (sortkey, i, j, lcm)
    if seed is not None:
        basis.extend(seed._rows)
        rows_of = {c: list(rows) for c, rows in seed._rows_of.items()}
        leads_of = {c: list(leads) for c, leads in seed._leads_of.items()}
    nseed = len(basis)

    # A pair is formed only with a row of the same lead component, and a
    # pair of two rows that meet the product criterion (disjoint lead
    # masks, see _lead_mask) is settled here: it gets no lcm and is never
    # queued.  It is never pending either, so the chain criterion counts
    # it as treated, which Buchberger's criteria allow in any order.
    # Pairs are appended, never heap-pushed.  The input columns' pairs are
    # heapified once before the main loop; the pairs of every later
    # element sit unsorted at the end of the list, so heappop takes the
    # list's first entry, not always the least pending pair.  Heap-pushing
    # them did more work (on the closure benchmark 5% more pairs and 2%
    # more reduced S-pairs, and no faster), so this order stays, and the
    # pinned work counts in the tests guard it.
    def push_pairs(new_idx):
        nc, ne, _lc, terms = basis[new_idx]
        nmask = _lead_mask(nc, ne, terms, dec)
        leads = leads_of.setdefault(nc, [])
        for i, ie, imask in leads:
            if nmask is not None and imask is not None and not nmask & imask:
                continue
            lcm = mlcm(ie, ne)
            queue.append((key((nc, lcm)), i, new_idx, lcm))
            pending.add((i, new_idx))
        leads.append((new_idx, ne, nmask))

    def add_element(terms):
        row = (*_normalize(terms, p), terms)
        basis.append(row)
        rows_of.setdefault(row[0], []).append(row)
        push_pairs(len(basis) - 1)

    for col in cols:
        terms = (_to_kernel(col.terms, p, code)[0] if isinstance(col, Vec)
                 else dict(col.terms))
        rem, _mult = _reduce_terms(terms, rows_of, key, code, p)
        if rem:
            add_element(rem)

    heapify(queue)
    while queue:
        _key, i, j, lcm = heappop(queue)
        pending.discard((i, j))
        ci, ei, lc_i, bi = basis[i]
        _cj, ej, lc_j, bj = basis[j]
        # chain criterion: a row k of the component whose lead divides the
        # lcm, and neither (i, k) nor (j, k) pending
        skip = False
        for k, ek, _mk in leads_of[ci]:
            if k == i or k == j:
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
        rem, _mult = _reduce_terms(terms, rows_of, key, code, p)
        if rem:
            add_element(rem)

    # interreduce the undominated rows in ascending lead order: a tail term
    # is only divisible by a smaller lead, so reducing each element against
    # the finished ones leaves every tail fully reduced in one pass.  A row
    # was reduced when it was made against the rows before it (a seed row
    # against the other seed rows), so only the lead of a kept non-seed
    # row after it can divide one of its terms.  Where none does, the row
    # is kept as it is: reducing and normalizing it again would give it
    # back unchanged, dict order included.  An eliminating run keeps the
    # value rows alone; only value rows reach them.
    keep = _undominated(basis, nseed, code)
    if eliminate:
        nreal = keyfn.nreal
        keep = [i for i in keep if basis[i][0] >= nreal]
    later = _index_leads(basis, [k for k in keep if k >= nseed])
    keep.sort(key=lambda i: key(basis[i][:2]))
    done, done_of = [], {}
    for i in keep:
        row = basis[i]
        if _reached(row[3], later, i, code):
            rem, _mult = _reduce_terms(dict(row[3]), done_of, key, code, p)
            row = (*_normalize(rem, p), rem)
        done.append(row)
        done_of.setdefault(row[0], []).append(row)

    if eliminate:
        return GroebnerBasis(ring, ncomps - nreal,
                             ModuleOrder(keyfn.ring_order),
                             _shifted(done[::-1], -nreal))
    return GroebnerBasis(ring, ncomps, keyfn, done[::-1])


def _shifted(rows, offset):
    """Kernel rows with every component moved by offset."""
    return [(c + offset, e, lc, _shift_terms(t, offset))
            for c, e, lc, t in rows]
