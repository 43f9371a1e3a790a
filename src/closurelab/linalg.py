"""Exact dense linear algebra over the coefficient field, degreewise.

Used for graded-piece dimension counts (Hilbert-function style checks) and
by test oracles.  Everything is exact; rows are plain lists of field values.
"""

from __future__ import annotations

from .gb import Vec
from .poly import PolyRing


def row_reduce(rows, field):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != field.zero:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(rows, field) -> int:
    if not rows:
        return 0
    return len(row_reduce(rows, field)[0])


def residual(rref, pivots, vec, field):
    """Reduce vec against an rref span; zero residual means membership."""
    v = list(vec)
    for row, p in zip(rref, pivots):
        if v[p] != field.zero:
            f = v[p]
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
    return v


def monomials_of_wdeg(ring: PolyRing, d: int):
    """All exponent tuples of weighted degree d, sorted descending."""
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
    return out


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


def span_rows(cols, shifts, d, ring, terms=None):
    """Coordinate rows spanning the degree-d piece of the column span.

    Multiplies every column by all monomials landing it in degree d.
    """
    if terms is None:
        terms = component_terms(ring, shifts, d)
    rows = []
    for col in cols:
        if col.is_zero():
            continue
        cd = col.degree(shifts)
        for m in monomials_of_wdeg(ring, d - cd):
            rows.append(vec_coords(col.term_mul(ring.field.one, m), terms,
                                   ring.field))
    return rows, terms


def graded_span_dim(cols, shifts, d, ring) -> int:
    rows, _terms = span_rows(cols, shifts, d, ring)
    return rank(rows, ring.field)
