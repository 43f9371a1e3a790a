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
scan only the rows of one component, in basis order.  A row whose lead
a later lead divides is marked dominated where their pair is formed (as
Gebauer and Moeller drop it), and the final pass drops it.  That pass
reduces again only the rows whose terms the lead of a later non-seed row
divides (_reached): every other row was fully reduced against the rest
when it was made.  Output bases are reduced, monic and canonically
sorted, hence unique for a given module and order, whatever the pair order.

Term orders are values (orders.ModuleOrder): TOP over the ring order,
which may be an elimination order, and the block order.  A run's order
is over its ring's own order, and buchberger refuses any other, so every
run reads its columns' terms in the ring's code as they are.  buchberger is
the one constructor of a GroebnerBasis; the basis keeps only the kernel
rows the run ended with, and iterating it gives them as Vecs.  A run
may start from a known basis (a seed), whose rows it takes as they are.

Inside the kernel every coefficient is a Python int, and one reducer and
one Buchberger loop serve both fields through the characteristic p.  Over
Q a basis element is a primitive integer vector with a positive lead
coefficient, and a reduction step cross-multiplies instead of dividing
(fraction-free, as with primitive polynomial remainder sequences); over
GF(p) a basis element is monic and coefficients are kept in [0, p).
A Vec, like a Polynomial (both poly._KernelValue), holds such int terms
over one denominator, so Fractions appear only at its edges.  A kernel
column or term dict may sit at any nonzero scale: spans, membership and
normalized rows do not see it.

Inside the kernel every monomial is an int too, its order code
(orders.MonomialCode), the one implementation of the ring order: codes
compare the way the order does, a product of monomials is a sum of codes,
and divisibility is one test on the difference of two codes.  Vecs and
Polynomials hold codes too, so every value enters the kernel as it is.
Exponent tuples become codes only where a Polynomial or a Vec is made of
them (poly._encoded), and codes become tuples again (poly._from_kernel)
only where a value is read or printed.  An exponent past
orders.EXP_BOUND raises UnsupportedInputError: encode refuses it, a
product of polynomials or vectors refuses it (poly._check_bound), and a
reduction that grows one stops.

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
normal forms it needs.  This module is the kernel alone: the integer
reducer, GroebnerBasis and buchberger; Vec lives in poly, next to
Polynomial, and is imported here.

All functions are pure over immutable inputs; S-pair processing is
sequential, so outputs are reproducible bit for bit.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop
from math import gcd
from operator import itemgetter

from .orders import EXP_BOUND, ModuleOrder, UnsupportedInputError
from .poly import Vec, _content_free, _shift_terms


# --- integer kernel: int coefficients, p the characteristic (0 for Q) ------
#
# A kernel term is (comp, m), m the order code of its monomial (see
# orders.MonomialCode); a kernel row is (comp, m, lc, terms), the lead
# first.  Codes add to multiply monomials, and a monomial with lead code e
# divides one with code m iff not (((m - e) ^ xor) + add) & guard.


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
    it gives the elements, monic Vecs of the rows' terms.
    The rows indexed by lead component, and the pair data of a run that
    it seeds, are built once per basis, on first use, or assembled from
    the indices of the two bases it stacks (stacked).
    """

    def __init__(self, ring, ncomps, order, rows):
        self.ring = ring
        self.ncomps = ncomps
        self.order = order
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
        dec = self.ring.code.decode
        for k, (c, m, _lc, terms) in enumerate(self._rows):
            leads_of.setdefault(c, []).append(
                (k, m, _lead_mask(c, m, terms, dec)))
        return leads_of

    def __iter__(self):
        for _c, _e, lc, terms in self._rows:
            yield Vec._of_kernel(self.ring, self.ncomps, terms, lc)

    def __len__(self):
        return len(self._rows)

    def normal_form(self, v: Vec) -> Vec:
        """The normal form of v, whose kernel terms are reduced as they
        are: mult * v._terms == rem + (a combination of the basis)."""
        ring = self.ring
        rem, mult = _reduce_terms(dict(v._terms), self._rows_of, self._key,
                                  ring.code, ring.field.char)
        return Vec._of_kernel(ring, self.ncomps,
                              *_content_free(rem, v._den * mult))

    def contains(self, v: Vec) -> bool:
        """Is v in the span?  Its kernel terms are tested (contains_terms)."""
        return self.contains_terms(dict(v._terms))

    def contains_terms(self, terms) -> bool:
        """Are the kernel terms, at any nonzero scale, in the span?  They
        are reduced in place, and the reduction stops at the first leading
        term that no row divides, which stays in the remainder, so they
        are not a member; nothing is decoded."""
        rem, _mult = _reduce_terms(terms, self._rows_of, self._key,
                                   self.ring.code, self.ring.field.char,
                                   stop_early=True)
        return not rem

    def leading_terms(self):
        """The leads as (comp, exponent tuple), in basis order."""
        dec = self.ring.code.decode
        return [(c, dec(m)) for (c, m, _lc, _b) in self._rows]


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


def _reached(terms, leads_of, after, code):
    """Does the lead of a row with an index past `after` divide one of the
    terms (comp, m)?  leads_of maps a component to the (index, lead, lead
    mask) of the rows with their lead in it, in index order: the pair data
    of a run (GroebnerBasis._leads_of)."""
    xor, add, guard = code.xor, code.add, code.guard
    for c, m in terms:
        for k, e, _mask in reversed(leads_of.get(c, ())):
            if k <= after:
                break
            if not ((((m - e) ^ xor) + add) & guard):
                return True
    return False


def buchberger(cols, ncomps, keyfn, ring, seed=None,
               eliminate=False) -> GroebnerBasis:
    """Reduced Groebner basis of the span of cols in P^ncomps, P = ring,
    under the module order keyfn (a ModuleOrder) over the ring's own
    order; a keyfn over another ring order is refused (ValueError), as a
    foreign seed is.  A column is a Vec, whose kernel terms are taken as
    they are (and not changed).

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
    if keyfn.ring_order is not ring.order and keyfn.ring_order != ring.order:
        raise ValueError("module order over another order than the ring's")
    if seed is not None and (seed.ring, seed.ncomps, seed.order) != (
            ring, ncomps, keyfn):
        raise ValueError("seed basis of another ring, rank or order")
    cols = [c for c in cols if c._terms]
    if seed is not None and not cols and not eliminate:
        return seed
    p = ring.field.char
    code = ring.code
    key, mlcm, dec = _term_key(keyfn, ncomps), code.lcm, code.decode
    xor, add, guard = code.xor, code.add, code.guard

    basis = []        # (comp, m, lc, body terms), kernel form
    rows_of = {}      # comp -> the rows with their lead in it, in order
    leads_of = {}     # comp -> (index, lead, lead mask) of those rows
    pending = set()   # pending pair indices
    dominated = set()  # rows whose lead a later row's lead divides
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
    # A pair whose lcm is the earlier lead marks that row dominated; a new
    # row of lead 1 and mask 0 marks every earlier row of its component,
    # whose pairs the product criterion may settle unformed.  Only a later
    # lead can divide another: rows are reduced when they are made.
    def push_pairs(new_idx):
        nc, ne, _lc, terms = basis[new_idx]
        nmask = _lead_mask(nc, ne, terms, dec)
        leads = leads_of.setdefault(nc, [])
        if nmask == 0:
            dominated.update(i for i, _ie, _imask in leads)
        for i, ie, imask in leads:
            if nmask is not None and imask is not None and not nmask & imask:
                continue
            lcm = mlcm(ie, ne)
            if lcm == ie:
                dominated.add(i)
            queue.append((key((nc, lcm)), i, new_idx, lcm))
            pending.add((i, new_idx))
        leads.append((new_idx, ne, nmask))

    def add_element(terms):
        row = (*_normalize(terms, p), terms)
        basis.append(row)
        rows_of.setdefault(row[0], []).append(row)
        push_pairs(len(basis) - 1)

    for col in cols:
        rem, _mult = _reduce_terms(dict(col._terms), rows_of, key, code, p)
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
    # the finished ones leaves every tail fully reduced in one pass.  An
    # eliminating run keeps the value rows alone.  A row was reduced when
    # it was made against the rows before it (a seed row against the other
    # seed rows), so only the lead of a non-seed row after it can divide
    # one of its terms.  Where none does, the row is kept as it is:
    # reducing and normalizing it again would give it back unchanged, dict
    # order included.  The reach test reads the run's own leads, dropped
    # rows among them, and that changes no answer: the row that dominates
    # a dominated one comes later still, and its lead divides the same
    # term; a real row's lead is in a component no value row has a term in.
    nreal = keyfn.nreal if eliminate else 0
    keep = sorted((i for i, row in enumerate(basis)
                   if row[0] >= nreal and i not in dominated),
                  key=lambda i: key(basis[i][:2]))
    done, done_of = [], {}
    for i in keep:
        row = basis[i]
        if _reached(row[3], leads_of, max(i, nseed - 1), code):
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
