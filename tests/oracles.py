"""Independent brute-force oracles used to check the Groebner engine.

Everything here avoids the division/Buchberger code paths: membership and
kernel dimensions come from exact row reduction of degreewise coordinate
matrices, and the reference monomial-order comparisons follow the textbook
definitions directly.  Two are earlier implementations kept as references:
`greedy_minimal_generators`, the slow path that the per-degree
minimalization is checked against, and `check_poly_syntax`, the separate
syntax checker the script parser used before it shared the polynomial
grammar.
"""

from closurelab.dsl import ScriptError
from closurelab.gb import Vec
from closurelab.linalg import (monomials_of_wdeg, residual, row_reduce,
                               span_rows, vec_coords)
from closurelab.modules import _distinct_monic, ideal_columns, r_span_basis
from closurelab.poly import ParseError, _tokenize_poly, mono_mul


# --- reference order comparisons ------------------------------------------------


def ref_lex_greater(a, b):
    return a > b


def ref_degrevlex_greater(a, b, weights=None):
    """a > b in (weighted) degrevlex, straight from the definition."""
    weights = weights or (1,) * len(a)
    da = sum(w * e for w, e in zip(weights, a))
    db = sum(w * e for w, e in zip(weights, b))
    if da != db:
        return da > db
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return x - y < 0
    return False


# --- degreewise span membership ---------------------------------------------------


def span_rref(ring, cols, shifts, d):
    rows, terms = span_rows(list(cols) + ideal_columns(ring, len(shifts)),
                            shifts, d, ring.ambient)
    rref, pivots = row_reduce(rows, ring.ambient.field)
    return rref, pivots, terms


def brute_member(ring, cols, shifts, v: Vec) -> bool:
    """Is v in the R-span of cols (inside R^len(shifts))?  Pure linear algebra."""
    if v.is_zero():
        return True
    d = v.degree(shifts)
    rref, pivots, terms = span_rref(ring, cols, shifts, d)
    coords = vec_coords(v, terms, ring.ambient.field)
    return all(x == ring.ambient.field.zero
               for x in residual(rref, pivots, coords, ring.ambient.field))


def brute_ideal_member(ring, gens, elem) -> bool:
    elem = ring.elem(elem)
    if elem.is_zero():
        return True
    return brute_member(ring, [Vec.from_polys([ring.elem(g).poly])
                               for g in gens], (0,),
                        Vec.from_polys([elem.poly]))


def graded_dim_of_span(ring, cols, shifts, d) -> int:
    rref, _p, _t = span_rref(ring, cols, shifts, d)
    rows_i, _t2 = span_rows(ideal_columns(ring, len(shifts)), shifts, d,
                            ring.ambient)
    base = len(row_reduce(rows_i, ring.ambient.field)[0]) if rows_i else 0
    return len(rref) - base


# --- degreewise kernel of a generator map ------------------------------------------


def brute_kernel_dim(ring, cols, ncomps, col_degrees, d) -> int:
    """dim_k of {u in (R^t)_d : sum u_q cols_q == 0 in R^ncomps}.

    cols live in R^ncomps; u is graded with shifts col_degrees.  The kernel
    is computed by reducing each candidate coordinate against the defining
    ideal span and taking the nullspace rank, no Groebner involved.
    """
    amb = ring.ambient
    fld = amb.field
    uterms = []
    for q, dq in enumerate(col_degrees):
        for m in monomials_of_wdeg(amb, d - dq):
            uterms.append((q, m))
    if not uterms:
        return 0
    shifts = tuple(0 for _ in range(ncomps))
    target_rows, target_terms = span_rows(ideal_columns(ring, ncomps),
                                          shifts, d, amb)
    rref, pivots = row_reduce(target_rows, fld) if target_rows else ([], [])
    matrix = []
    for (q, m) in uterms:
        img = cols[q].term_mul(fld.one, m)
        coords = vec_coords(img, target_terms, fld)
        matrix.append(residual(rref, pivots, coords, fld))
    rank = len(row_reduce(matrix, fld)[0]) if matrix and matrix[0] else 0
    valid = len(uterms) - rank
    # coefficient vectors that are themselves ideal multiples represent the
    # zero element of R^t; quotient them out
    t = len(cols)
    rows_ideal, _terms = span_rows(ideal_columns(ring, t), col_degrees, d, amb)
    base = len(row_reduce(rows_ideal, fld)[0]) if rows_ideal else 0
    return valid - base


def brute_syzygies_complete(ring, cols, ncomps, syz_gens, max_degree) -> bool:
    """Do syz_gens span the full degreewise kernel of the cols-map up to
    max_degree?"""
    col_degrees = tuple(c.degree((0,) * ncomps) for c in cols)
    t = len(cols)
    for d in range(0, max_degree + 1):
        want = brute_kernel_dim(ring, cols, ncomps, col_degrees, d)
        have = graded_dim_of_span(ring, syz_gens, col_degrees, d)
        if want != have:
            return False
    return True


# --- reference reduction (for Buchberger-criterion spot checks) ---------------------


def ref_reduce(vec_terms, basis, keyfn, fld):
    """Straightforward top-reduction, written independently of gb._reduce_terms."""
    terms = dict(vec_terms)
    while terms:
        t = max(terms, key=lambda ce: keyfn(ce[0], ce[1]))
        comp, exps = t
        hit = None
        for (bc, be, body) in basis:
            if bc == comp and all(x <= y for x, y in zip(be, exps)):
                hit = (be, body)
                break
        if hit is None:
            return terms  # irreducible leading term: nonzero normal form
        be, body = hit
        q = tuple(x - y for x, y in zip(exps, be))
        c = terms[t]
        for (bcomp, bm), bco in body.items():
            key = (bcomp, mono_mul(bm, q))
            new = fld.sub(terms.get(key, fld.zero), fld.mul(bco, c))
            if new == fld.zero:
                terms.pop(key, None)
            else:
                terms[key] = new
    return {}


def buchberger_criterion_holds(gb_vecs, ncomps, keyfn, ring) -> bool:
    """Every S-pair of the given basis top-reduces to zero (reference code)."""
    fld = ring.field
    data = []
    for v in gb_vecs:
        comp, exps, coeff = v.leading(keyfn)
        assert coeff == fld.one
        data.append((comp, exps, v.terms))
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            ci, ei, bi = data[i]
            cj, ej, bj = data[j]
            if ci != cj:
                continue
            lcm = tuple(max(x, y) for x, y in zip(ei, ej))
            qi = tuple(a - b for a, b in zip(lcm, ei))
            qj = tuple(a - b for a, b in zip(lcm, ej))
            s = {}
            for (c, m), co in bi.items():
                s[(c, mono_mul(m, qi))] = co
            for (c, m), co in bj.items():
                key = (c, mono_mul(m, qj))
                new = fld.sub(s.get(key, fld.zero), co)
                if new == fld.zero:
                    s.pop(key, None)
                else:
                    s[key] = new
            if ref_reduce(s, data, keyfn, fld):
                return False
    return True


# --- minimal generators, one Groebner basis per candidate --------------------------


def greedy_minimal_generators(ring, cols, shifts, relations=()):
    """Deduplicate the monic normal forms, sort them by (degree, str), then
    drop each one that the others and the relations span: one full R-span
    basis per candidate."""
    kept = _distinct_monic(ring, cols)
    kept.sort(key=lambda g: (g.degree(shifts), str(g)))
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        span = r_span_basis(ring, others + list(relations), len(shifts))
        if span.contains(kept[i]):
            kept.pop(i)
        else:
            i += 1
    return kept


# --- polynomial arguments of scripts, a recursive descent of their own -------------


def check_poly_syntax(text: str, offset: int, script: str, end_pos=None):
    """Syntax-only validation of a polynomial expression argument.

    Names are not resolved here; this catches dangling operators and
    unbalanced parentheses at parse time, with script coordinates.
    """
    try:
        toks = _tokenize_poly(text)
    except ParseError as exc:
        raise ScriptError(exc.bare_message, script, offset + exc.pos) from exc

    pos = [0]

    def peek():
        return toks[pos[0]]

    def take():
        t = toks[pos[0]]
        pos[0] += 1
        return t

    def fail(t):
        if t.kind == "end":
            where = end_pos if end_pos is not None else offset + t.pos
            raise ScriptError("invalid polynomial: unexpected end of "
                              "expression", script, where)
        raise ScriptError(f"invalid polynomial: unexpected {t.value!r}",
                          script, offset + t.pos)

    def factor():
        t = take()
        if t.kind == "int":
            if peek().kind == "/":
                take()
                if peek().kind != "int":
                    fail(peek())
                take()
        elif t.kind == "name":
            pass
        elif t.kind == "(":
            expr()
            if peek().kind != ")":
                fail(peek())
            take()
        elif t.kind == "-":
            factor()
            return
        else:
            fail(t)
        if peek().kind == "^":
            take()
            if peek().kind != "int":
                fail(peek())
            take()

    def term():
        factor()
        while peek().kind in ("*", "name", "int", "("):
            if peek().kind == "*":
                take()
            factor()

    def expr():
        if peek().kind == "-":
            take()
        term()
        while peek().kind in ("+", "-"):
            take()
            term()

    expr()
    if peek().kind != "end":
        fail(peek())
