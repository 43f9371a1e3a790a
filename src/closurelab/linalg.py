"""Exact linear algebra over the coefficient field, degreewise.

Used for graded-piece dimension counts (Hilbert-function style checks)
and by the brute-force oracles of the acceptance suite; the samplers take
their monomial lists from it.  Coordinate rows are plain lists of field
values; one fraction-free integer echelon routine, `Echelon`, serves
every rank, residual and independence question, over Q and over GF(p)
alike, and its results leave as field values.  It shares no code with the
Groebner kernel, and no engine module imports it (the rank tests of
minimal generators are reductions of kernel rows), so the oracles stay
independent of the engine.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .poly import PolyRing, Vec


class Echelon:
    """Row echelon form over the coefficient field, one row at a time.

    Rows are sequences of field values, or of ints (read as field values;
    over GF(p) in [0, p));
    denominators are cleared on the way in, so the work is on Python
    ints, sparse by column.  A stored row's pivot is its first nonzero
    column.  Over Q a stored row is a primitive integer vector, and a
    reduction step cross-multiplies instead of dividing, keeping the
    multiplier; over GF(p) a stored row is monic and entries stay in
    [0, p).  Every stored row is reduced
    against the rows stored before it, so reducing a vector against them
    in storage order clears every pivot.  Nothing here calls the Groebner
    kernel.
    """

    def __init__(self, field):
        self.field = field
        self.p = field.char
        self.rows = []          # (pivot column, {column: int})

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, row):
        """(v, den) with v the int entries of den * (row minus a
        combination of the stored rows), zero at every pivot."""
        p = self.p
        if p:
            v = {j: x for j, x in enumerate(row) if x}
            den = 1
        else:
            nonzero = [(j, x) for j, x in enumerate(row) if x]
            den = lcm(*(x.denominator for _j, x in nonzero))
            v = {j: x.numerator * (den // x.denominator) for j, x in nonzero}
        for pivot, stored in self.rows:
            a = v.get(pivot)
            if a is None:
                continue
            lead = stored[pivot]
            g = gcd(a, lead)
            scale, factor = lead // g, a // g
            if scale != 1:
                den *= scale
                for j in v:
                    v[j] *= scale
            for j, c in stored.items():
                x = v.get(j, 0) - factor * c
                if p:
                    x %= p
                if x:
                    v[j] = x
                else:
                    del v[j]
        return v, den

    def add(self, row) -> bool:
        """Store row if it lies outside the span; True if it did."""
        v, _den = self._reduce(row)
        if not v:
            return False
        pivot = min(v)
        if self.p:
            inv = pow(v[pivot], -1, self.p)
            v = {j: x * inv % self.p for j, x in v.items()}
        else:
            g = gcd(*v.values())
            v = {j: x // g for j, x in v.items()}
        self.rows.append((pivot, v))
        return True

    def residual(self, row):
        """row minus the combination of the stored rows that clears every
        pivot, as field values; zero exactly when row lies in the span."""
        v, den = self._reduce(row)
        fld = self.field
        return [fld.from_fraction(v[j], den) if j in v else fld.zero
                for j in range(len(row))]


def rank(rows, field) -> int:
    echelon = Echelon(field)
    for row in rows:
        echelon.add(row)
    return echelon.rank


@lru_cache(maxsize=256)
def monomials_of_wdeg(ring: PolyRing, d: int) -> tuple:
    """All exponent tuples of weighted degree d, sorted descending.

    Cached per (ring, d), rings being equal by value: the acceptance
    suite and the samplers ask for the same few pieces thousands of times.
    """
    out = []

    def rec(i, rem, acc):
        if i == ring.nvars:
            if rem == 0:
                out.append(tuple(acc))
            return
        w = ring.weights[i]
        e = 0
        while e * w <= rem:
            rec(i + 1, rem - e * w, acc + [e])
            e += 1

    if d >= 0:
        rec(0, d, [])
    out.sort(key=ring.key, reverse=True)
    return tuple(out)


def component_terms(ring: PolyRing, shifts, d: int):
    """Cover terms (comp, exps) of degree d for the given component shifts."""
    terms = []
    for j, sh in enumerate(shifts):
        for m in monomials_of_wdeg(ring, d - sh):
            terms.append((j, m))
    return terms


def vec_coords(v: Vec, terms, field):
    idx = {t: i for i, t in enumerate(terms)}
    coords = [field.zero] * len(terms)
    for t, c in v.terms.items():
        if t in idx:
            coords[idx[t]] = c
        elif c != field.zero:
            raise ValueError("vector has a term outside the graded piece")
    return coords


def span_rows(cols, shifts, d, ring):
    """Coordinate rows spanning the degree-d piece of the column span, and
    the terms (component_terms) their coordinates stand for.

    Multiplies every column by all monomials landing it in degree d.
    """
    terms = component_terms(ring, shifts, d)
    rows = []
    for col in cols:
        if col.is_zero():
            continue
        cd = col.degree(shifts)
        for m in monomials_of_wdeg(ring, d - cd):
            rows.append(vec_coords(col.scale(ring.monomial(m)), terms,
                                   ring.field))
    return rows, terms


def graded_span_dim(cols, shifts, d, ring) -> int:
    rows, _terms = span_rows(cols, shifts, d, ring)
    return rank(rows, ring.field)
