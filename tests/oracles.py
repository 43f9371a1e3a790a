"""Independent brute-force oracles used to check the Groebner engine.

Everything here avoids the division/Buchberger code paths: membership and
kernel dimensions come from exact row reduction of degreewise coordinate
matrices, and the reference monomial-order comparisons follow the textbook
definitions directly.  Two are earlier implementations kept as references:
`greedy_minimal_generators`, the slow path that the per-degree
minimalization is checked against, `vec_minimal_generators`, the
per-degree minimalization on `Vec`s that the one on kernel rows is
checked against, `vec_syzygies` and `vec_resolution`, the syzygies
decoded into `Vec`s and the resolution built from them, that the
resolution on kernel rows is checked against, `ref_span_basis`, the
unseeded span run (the ideal as input columns) that the seeded
`r_span_basis` is checked against, and `ref_relation_basis`, the same
run on a module's relations, that the relation bases modules are born
with are checked against, `ref_preimage`, the unseeded block-diagonal
elimination that the seeded `r_preimage` is checked against, with the
constructions of closures, intersections, colons and kernels that fed
it (`ref_*_preimage`), `ref_closure_steps`, the closure loop that makes
a preimage run for every generator of S, which the step skip of
`ModuleClosure.closure` is checked against, `ref_preimage_basis`, the
whole block basis of an eliminating block run, seeded as built for that
run, filtered to its value block and relabelled, which the eliminating
run and its kept seed index are checked against,
`ideal_columns`, the ideal's basis polynomials copied into each
component, the reference for `QuotientRing.free_relation_basis`,
`ref_distinct_monic` and `ref_monic_vec`, the `Vec`-level
canonicalization (normal form by the `Fraction` reducer against the
ideal's `Fraction` basis, `ref_ideal_normal_form`, monic form, dedup on
field terms) that the kernel-row `_distinct_monic` and the normal forms
of `QuotientRing.nf` are checked against, `tuple_lead_nf`, the
`QuotientRing.nf` that tested reach on the ideal's leads as exponent
tuples and reduced a polynomial through a rank-1 `Vec`, which the `nf`
on order codes is checked against,
with `kernel_terms_vec` and `ref_decoded_rows`, which read kernel terms
and rows as `Vec`s without the engine's decoder,
`ref_module_relation_columns`, the syzygy-then-elimination construction
that subring module relations are checked against, `extended_groebner`,
the run with the ideal as input columns, each with a shadow component,
that certificates (`ref_certificate`) and syzygies (`ref_syzygy_basis`)
are checked against,
`ref_undominated`, the all-pairs drop of dominated rows that the
kernel's pass over later rows is checked against,
`scan_buchberger_rows` and its reducer `scan_reduce_terms`, the integer
kernel with its earlier bookkeeping (every pair queued, whole-basis
scans, every kept row reduced again at the end), which the kernel's
per-component index, product criterion at pair formation and partial
final pass are checked against,
`check_poly_syntax`, the separate
syntax checker the script parser used before it shared the polynomial
grammar, with its scanner `tokenize_poly`, and `tokenize_script`, the
scanner of scripts; the two scanners are the references for
`closurelab.poly.tokenize` in its two modes, the `Fraction` Groebner
kernel (`fraction_buchberger` and its reducer), the reference for the integer kernel in `closurelab.gb`, the
closure key factories `top_key`, `block_key` and `elim_key`, the
references for the order values in `closurelab.orders`, and the
generator-expression monomial primitives (`mono_mul` .. `mono_gcd_is_one`)
and ring order keys (`degrevlex_key`, `make_wdegrevlex_key`), the
references for the builtin-mapping primitives in `closurelab.poly` and
for the order codes in `closurelab.orders`, the field-value row
reduction (`row_reduce`, `rank`, `residual`) and independence scan
(`outside_later_spans`), the references for the integer echelon routine
in `closurelab.linalg`, and the per-point `Fraction` Fourier-Motzkin test
(`fm_newton_member`), the reference for the Newton facets in
`closurelab.closure`.  The oracles here use these
references, so they share no bug with the primitives under test.

Four helpers serve the tests without being references for an engine
path: `module_graded_dim`, a module's Hilbert function by row reduction,
`same_presentation`, module equality through minimal presentations,
`random_submodule_pair`, a sampler of small homogeneous submodules, and
`verify_resolution`, a degreewise exactness check of a minimal resolution
by row reduction (`brute_kernel_dim`).
"""

import heapq
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import itemgetter

from closurelab.dsl import ScriptError
from closurelab.field import Rationals
from closurelab.gb import (GroebnerBasis, Vec, _normalize, _term_key,
                           _to_kernel, buchberger)
from closurelab.linalg import (component_terms, graded_span_dim,
                               monomials_of_wdeg, span_rows, vec_coords)
from closurelab.modules import (FPModule, _unit_pairs, free_module,
                                r_preimage, scaled_gens, tensor, tensor_elem)
from closurelab.orders import ModuleOrder, elimination, wdegrevlex
from closurelab.poly import (ContextError, DomainError, ParseError, PolyRing,
                             Polynomial)
from closurelab.sampling import achievable_degrees, random_homogeneous_elem


# --- reference monomial primitives and order keys -------------------------------


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_gcd_is_one(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def degrevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def make_wdegrevlex_key(weights):
    w = tuple(weights)

    def key(exps):
        return (sum(wi * ei for wi, ei in zip(w, exps)),
                tuple(-e for e in reversed(exps)))

    return key


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


def top_key(ring_key):
    """TOP: the ring monomial first, then the earlier component."""
    def key(comp, exps):
        return (ring_key(exps), -comp)

    return key


def block_key(ring_key, nreal):
    """TOP order with components >= nreal strictly below the rest."""
    def key(comp, exps):
        if comp < nreal:
            return (1, ring_key(exps), -comp)
        return (0, ring_key(exps), -comp)

    return key


def elim_key(n_elim):
    """Ring order eliminating the first n_elim variables (block degrevlex)."""
    def key(exps):
        head, tail = exps[:n_elim], exps[n_elim:]
        return (degrevlex_key(head), degrevlex_key(tail))

    return key


def ref_ring_key(order):
    """The reference key function of a closurelab MonomialOrder."""
    if order.kind == "lex":
        return lambda exps: exps
    if order.kind == "degrevlex":
        return degrevlex_key
    if order.kind == "elim":
        return elim_key(order.nelim)
    return make_wdegrevlex_key(order.weights)


# --- reference row reduction over field values ---------------------------------------


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


def outside_later_spans(vecs, fld):
    """For each vector, a {term: field value} dict, whether it lies
    outside the k-span of those after it."""
    index: dict = {}
    for v in vecs:
        for t in v:
            index.setdefault(t, len(index))
    # each stored row is reduced against the ones stored before it, so
    # `residual` clears their pivots in storage order
    rows, pivots = [], []
    flags = [False] * len(vecs)
    for i in reversed(range(len(vecs))):
        row = [fld.zero] * len(index)
        for t, c in vecs[i].items():
            row[index[t]] = c
        row = residual(rows, pivots, row, fld)
        p = next((k for k, x in enumerate(row) if x != fld.zero), None)
        if p is not None:
            inv = fld.inv(row[p])
            rows.append([fld.mul(inv, x) for x in row])
            pivots.append(p)
            flags[i] = True
    return flags


# --- reference Newton-polyhedron test, one Fourier-Motzkin run per point -----------


def fm_feasible(rows, nvars):
    """Fourier-Motzkin feasibility of {x : row . x <= rhs}, exact rationals.

    rows: list of (coeff tuple, rhs).  Returns True iff feasible.
    """
    rows = [([Fraction(c) for c in cs], Fraction(b)) for cs, b in rows]
    for var in range(nvars):
        pos, neg, rest = [], [], []
        for cs, b in rows:
            c = cs[var]
            if c > 0:
                pos.append((cs, b))
            elif c < 0:
                neg.append((cs, b))
            else:
                rest.append((cs, b))
        new = rest
        for cp, bp in pos:
            for cn, bn in neg:
                f_p, f_n = -cn[var], cp[var]
                cs = [f_p * x + f_n * y for x, y in zip(cp, cn)]
                new.append((cs, f_p * bp + f_n * bn))
        seen = set()
        rows = []
        for cs, b in new:
            scale = None
            for c in cs:
                if c != 0:
                    scale = abs(c)
                    break
            if scale is None:
                if b < 0:
                    return False
                continue
            key = (tuple(c / scale for c in cs), b / scale)
            if key not in seen:
                seen.add(key)
                rows.append((list(key[0]), key[1]))
    return all(b >= 0 for _cs, b in rows)


def fm_newton_member(alpha, betas) -> bool:
    """Is alpha in conv(betas) + nonnegative orthant?  Exact rational LP."""
    betas = [tuple(b) for b in betas]
    if not betas:
        return False
    t = len(betas)
    n = len(alpha)
    rows = []
    for q in range(t):
        row = [Fraction(0)] * t
        row[q] = Fraction(-1)
        rows.append((row, Fraction(0)))          # lambda_q >= 0
    rows.append(([Fraction(1)] * t, Fraction(1)))   # sum <= 1
    rows.append(([Fraction(-1)] * t, Fraction(-1)))  # sum >= 1
    for i in range(n):
        rows.append(([Fraction(b[i]) for b in betas], Fraction(alpha[i])))
    return fm_feasible(rows, t)


# --- degreewise span membership ---------------------------------------------------


def ideal_columns(ring, ncomps):
    """The ideal's reduced basis in each component of P^ncomps, as Vecs
    built from the ring's ideal_basis polynomials: the reference for the
    ring's own basis of I P^ncomps (QuotientRing.free_relation_basis)."""
    return [Vec(ring.ambient, ncomps, {(j, m): c for m, c in g.terms.items()})
            for g in ring.ideal_basis for j in range(ncomps)]


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


def module_graded_dim(M, d) -> int:
    """dim_k of the degree-d piece of M: the cover's terms less the rank of
    the relations and the ideal on every component."""
    terms = component_terms(M.ring.ambient, M.gen_degrees, d)
    cols = list(M.relations) + ideal_columns(M.ring, M.ngens)
    return len(terms) - graded_span_dim(cols, M.gen_degrees, d,
                                        M.ring.ambient)


# --- presentation-level module equality --------------------------------------------


def _degree_sorted(M):
    order = sorted(range(M.ngens), key=lambda i: (M.gen_degrees[i], i))
    pos = {old: new for new, old in enumerate(order)}
    degrees = tuple(M.gen_degrees[i] for i in order)
    rels = [Vec(M.ring.ambient, M.ngens,
                {(pos[j], m): c for (j, m), c in col.terms.items()})
            for col in M.relations]
    return FPModule(M.ring, degrees, rels)


def same_presentation(A, B, degree_shift=0) -> bool:
    """Presentation-level module equality: minimal presentations with
    matched degree data have equal relation-span Groebner bases.

    degree_shift compares A against B with all of B's generator degrees
    lowered by that amount (graded twist).
    """
    if A.ring != B.ring:
        return False
    a, b = A.minimal_presentation(), B.minimal_presentation()
    if sorted(a.gen_degrees) != sorted(d - degree_shift
                                       for d in b.gen_degrees):
        return False
    gba = [v.terms for v in _degree_sorted(a).relation_basis()]
    gbb = [v.terms for v in _degree_sorted(b).relation_basis()]
    return gba == gbb


# --- random submodules ----------------------------------------------------------------


def random_submodule_pair(M, rng, max_deg=4, max_gens=2):
    """A random submodule N of M with small homogeneous generators."""
    degs = achievable_degrees(M.ring, 0, max_deg)
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        j = rng.randrange(M.ngens)
        shift = M.gen_degrees[j]
        cand = [d for d in degs if d - shift >= 0]
        if not cand:
            continue
        e = random_homogeneous_elem(M.ring, rng.choice(cand) - shift, rng)
        if e is None:
            continue
        gens.append(Vec(M.ring.ambient, M.ngens,
                        {(j, m): c for m, c in e.poly.terms.items()}))
    return M.submodule(gens)


# --- degreewise kernel of a generator map ------------------------------------------


def brute_kernel_dim(ring, cols, ncomps, col_degrees, d,
                     target_shifts=None) -> int:
    """dim_k of {u in (R^t)_d : sum u_q cols_q == 0 in R^ncomps}.

    cols live in R^ncomps, whose generators have the degrees target_shifts
    (all 0 by default); u is graded with shifts col_degrees.  The kernel
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
    shifts = tuple(target_shifts) if target_shifts else (0,) * ncomps
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
            ker = brute_kernel_dim(ring, list(cols_i), len(degrees_prev),
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


def ref_undominated(leads):
    """Indices of the leads (comp, exps) that no other lead in the same
    component divides, of equal leads the first: the all-pairs pass with
    which the kernel dropped dominated rows before it checked each row
    against the non-seed rows after it alone."""
    keep = []
    for i, (ci, ei) in enumerate(leads):
        dominated = False
        for j, (cj, ej) in enumerate(leads):
            if i == j or cj != ci:
                continue
            if mono_divides(ej, ei) and (ej != ei or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


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


# --- the Fraction Groebner kernel: field arithmetic on every coefficient ----------


def fraction_reduce_terms(terms, basis, keyfn, fld, keycache=None):
    """Fully reduce a term dict against basis elements, in place.

    basis: list of (comp, exps, inv_lc, body_terms).  Returns the remainder
    term dict.
    """
    kc = keycache if keycache is not None else {}
    rem = {}
    while terms:
        best = None
        bestkey = None
        for t in terms:
            k = kc.get(t)
            if k is None:
                k = keyfn(t[0], t[1])
                kc[t] = k
            if bestkey is None or k > bestkey:
                bestkey = k
                best = t
        comp, exps = best
        coeff = terms[best]
        hit = -1
        for idx, (bc, be, _inv, _body) in enumerate(basis):
            if bc == comp and mono_divides(be, exps):
                hit = idx
                break
        if hit < 0:
            rem[best] = coeff
            del terms[best]
            continue
        _bc, be, inv_lc, body = basis[hit]
        q = mono_div(exps, be)
        factor = fld.mul(coeff, inv_lc)
        for (j, m), c in body.items():
            k2 = (j, mono_mul(m, q))
            s = fld.sub(terms.get(k2, fld.zero), fld.mul(c, factor))
            if s == fld.zero:
                terms.pop(k2, None)
            else:
                terms[k2] = s
    return rem


def fraction_make_monic(terms, keyfn, fld):
    comp, exps = max(terms, key=lambda t: keyfn(t[0], t[1]))
    lc = terms[(comp, exps)]
    if lc != fld.one:
        inv = fld.inv(lc)
        for k in terms:
            terms[k] = fld.mul(terms[k], inv)
    return comp, exps


def fraction_normalize(terms, keyfn, fld):
    """Scale a term dict for stable arithmetic; returns (comp, exps, inv_lc).

    Over the rationals, clear denominators and divide out the integer
    content so coefficients stay small integers; over finite fields, make
    the vector monic.
    """
    comp, exps = max(terms, key=lambda t: keyfn(t[0], t[1]))
    if isinstance(fld, Rationals):
        num_gcd = 0
        den_lcm = 1
        for c in terms.values():
            num_gcd = gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        scale = Fraction(den_lcm, num_gcd)
        if terms[(comp, exps)] < 0:
            scale = -scale
        if scale != 1:
            for k in terms:
                terms[k] = terms[k] * scale
    else:
        fraction_make_monic(terms, keyfn, fld)
    return comp, exps, fld.inv(terms[(comp, exps)])


def fraction_single_component(terms):
    comps = {j for (j, _m) in terms}
    return len(comps) == 1


def fraction_buchberger(cols, ncomps, keyfn, ring=None) -> list:
    """Reduced Groebner basis (list of Vec) of the span of cols in P^ncomps."""
    cols = [c for c in cols if not c.is_zero()]
    if not cols:
        return []
    ring = ring or cols[0].ring
    fld = ring.field
    keycache: dict = {}

    basis = []        # (comp, exps, inv_lc, body terms), content-normalized
    singles = []      # support in a single component?
    pending = set()   # pending pair indices
    queue = []        # (sortkey, i, j)

    def push_pairs(new_idx):
        nc, ne, _inv, _b = basis[new_idx]
        for i in range(new_idx):
            ic, ie, _iv, _bi = basis[i]
            if ic != nc:
                continue
            lcm = mono_lcm(ie, ne)
            queue.append((keyfn(nc, lcm), i, new_idx))
            pending.add((i, new_idx))

    def add_element(terms):
        comp, exps, inv_lc = fraction_normalize(terms, keyfn, fld)
        basis.append((comp, exps, inv_lc, terms))
        singles.append(fraction_single_component(terms))
        push_pairs(len(basis) - 1)

    for col in cols:
        terms = dict(col.terms)
        rem = fraction_reduce_terms(terms, basis, keyfn, fld,
                                    keycache=keycache)
        if rem:
            add_element(rem)

    import heapq
    heapq.heapify(queue)
    while queue:
        _key, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        ci, ei, inv_i, bi = basis[i]
        cj, ej, inv_j, bj = basis[j]
        lcm = mono_lcm(ei, ej)
        # product criterion: valid for module elements only when both live
        # entirely in the shared leading component
        if singles[i] and singles[j] and mono_gcd_is_one(ei, ej):
            continue
        # chain criterion
        skip = False
        for k, (ck, ek, _ik, _bk) in enumerate(basis):
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
        # S-vector: scale both sides to cancel the leading term exactly
        qi, qj = mono_div(lcm, ei), mono_div(lcm, ej)
        terms: dict = {}
        for (cm, m), c in bi.items():
            terms[(cm, mono_mul(m, qi))] = fld.mul(c, inv_i)
        for (cm, m), c in bj.items():
            k2 = (cm, mono_mul(m, qj))
            s = fld.sub(terms.get(k2, fld.zero), fld.mul(c, inv_j))
            if s == fld.zero:
                terms.pop(k2, None)
            else:
                terms[k2] = s
        rem = fraction_reduce_terms(terms, basis, keyfn, fld,
                                    keycache=keycache)
        if rem:
            add_element(rem)

    # minimalize: drop elements whose lead is divisible by another's lead
    keep = []
    for i, (ci, ei, _ii, _bi) in enumerate(basis):
        dominated = False
        for j, (cj, ej, _ij, _bj) in enumerate(basis):
            if i == j or cj != ci:
                continue
            if mono_divides(ej, ei) and (ej != ei or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)

    # interreduce in ascending lead order: a tail term is only divisible by
    # a smaller lead, so reducing each element against the finished ones
    # leaves every tail fully reduced in one pass
    keep.sort(key=lambda i: keyfn(basis[i][0], basis[i][1]))
    done = []
    for i in keep:
        comp, exps, inv_lc, body = basis[i]
        rem = fraction_reduce_terms(dict(body), done, keyfn, fld,
                                    keycache=keycache)
        done.append((comp, exps, inv_lc, rem))

    out = []
    for _c, _e, _inv, terms in reversed(done):
        fraction_make_monic(terms, keyfn, fld)
        out.append(Vec(ring, ncomps, terms))
    return out


def fraction_normal_form(basis_vecs, keyfn, v: Vec) -> Vec:
    """Normal form of v modulo a reduced monic basis, by the Fraction
    reducer."""
    one = v.ring.field.one
    data = [(*b.leading(keyfn)[:2], one, b.terms) for b in basis_vecs]
    rem = fraction_reduce_terms(dict(v.terms), data, keyfn, v.ring.field)
    return Vec(v.ring, v.ncomps, rem)


def fraction_extended_reduce(cols, ncomps, v: Vec):
    """(real remainder, certificate) of v against the columns, as
    ExtendedBasis.reduce computes it, from a Fraction-kernel run."""
    ring = v.ring
    s, t = ncomps, len(cols)
    aug = [col.pad(s + t) + Vec.unit(ring, s + t, s + i)
           for i, col in enumerate(cols)]
    keyfn = block_key(ref_ring_key(ring.order), s)
    basis = fraction_buchberger(aug, s + t, keyfn, ring)
    full = fraction_normal_form(basis, keyfn, v.pad(s + t))
    real = full.take_components(0, s)
    if not real.is_zero():
        return real, None
    return real, (-full.take_components(s, s + t)).to_polys()


# --- the integer kernel's earlier bookkeeping --------------------------------------


def scan_reduce_terms(terms, basis, key, code, p):
    """gb._reduce_terms as it was before rows were indexed by component:
    each leading term scans the whole basis list for the first row of its
    component whose lead divides it."""
    xor, add, guard = code.xor, code.add, code.guard
    rem = []
    mult = 1
    while terms:
        best = max(terms, key=key)
        comp, m = best
        coeff = terms[best]
        for bc, be, lc, body in basis:
            if bc == comp and not ((((m - be) ^ xor) + add) & guard):
                break
        else:
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


def scan_buchberger_rows(cols, ncomps, keyfn, ring, seed=None) -> list:
    """The kernel rows of gb.buchberger as it was before its bookkeeping
    was indexed: pairs of coprime single-component rows queued and dropped
    by the product criterion when popped, the chain criterion, reductions
    and the drop of dominated rows scanning the whole basis, and every kept
    row reduced again at the end."""
    p = ring.field.char
    code = keyfn.code(ring.nvars)
    key, mlcm = _term_key(keyfn, ncomps), code.lcm
    xor, add, guard = code.xor, code.add, code.guard
    cols = [c for c in cols if not c.is_zero()]
    if seed is not None and not cols:
        return list(seed._rows)

    def single(terms):
        return len({j for (j, _m) in terms}) == 1

    basis, singles, pending, queue = [], [], set(), []
    if seed is not None:
        basis.extend(seed._rows)
        singles.extend(single(row[3]) for row in seed._rows)
    nseed = len(basis)

    def add_element(terms):
        basis.append((*_normalize(terms, p), terms))
        singles.append(single(terms))
        new = len(basis) - 1
        nc, ne = basis[new][:2]
        for i in range(new):
            ic, ie = basis[i][:2]
            if ic == nc:
                lcm = mlcm(ie, ne)
                queue.append((key((nc, lcm)), i, new, lcm))
                pending.add((i, new))

    for col in cols:
        rem, _mult = scan_reduce_terms(_to_kernel(col.terms, p, code)[0],
                                       basis, key, code, p)
        if rem:
            add_element(rem)
    heapq.heapify(queue)
    while queue:
        _key, i, j, lcm = heapq.heappop(queue)
        pending.discard((i, j))
        ci, ei, lc_i, bi = basis[i]
        _cj, ej, lc_j, bj = basis[j]
        if singles[i] and singles[j] and lcm == ei + ej:
            continue
        chain = False
        for k, (ck, ek, _lk, _bk) in enumerate(basis):
            if k in (i, j) or ck != ci:
                continue
            if not ((((lcm - ek) ^ xor) + add) & guard):
                pi = (i, k) if i < k else (k, i)
                pj = (j, k) if j < k else (k, j)
                if pi not in pending and pj not in pending:
                    chain = True
                    break
        if chain:
            continue
        qi, qj = lcm - ei, lcm - ej
        g = gcd(lc_i, lc_j)
        fi, fj = lc_j // g, lc_i // g
        terms = {(cm, m + qi): c * fi for (cm, m), c in bi.items()}
        for (cm, m), c in bj.items():
            k2 = (cm, m + qj)
            s = terms.get(k2, 0) - c * fj
            if p:
                s %= p
            if s:
                terms[k2] = s
            else:
                terms.pop(k2, None)
        rem, _mult = scan_reduce_terms(terms, basis, key, code, p)
        if rem:
            add_element(rem)

    keep = []
    for i, (ci, ei, _li, _bi) in enumerate(basis):
        if not any(cj == ci and not ((((ei - ej) ^ xor) + add) & guard)
                   for cj, ej, _lj, _bj in basis[max(i + 1, nseed):]):
            keep.append(i)
    keep.sort(key=lambda i: key(basis[i][:2]))
    done = []
    for i in keep:
        rem, _mult = scan_reduce_terms(dict(basis[i][3]), done, key, code, p)
        done.append((*_normalize(rem, p), rem))
    return done[::-1]


# --- extended runs: the ideal as input columns, each with a shadow ---------------


class ExtendedBasis:
    """Augmented Groebner data for a column span.

    Provides membership with certificates over the original columns and
    generators of the syzygy module of the columns.  basis is the reduced
    augmented basis in P^(s+t), shadow components s..s+t-1; its elements
    with a zero real part are the syzygies.
    """

    def __init__(self, s, basis):
        self.s = s
        self.t = basis.ncomps - s
        self.basis = basis
        self.syzygies = [g.take_components(s, basis.ncomps) for g in basis
                         if g.take_components(0, s).is_zero()]

    def reduce(self, v: Vec):
        """Return (real remainder, certificate) for v in P^s.

        When the remainder is zero, certificate is a list of t polynomials
        with v == sum certificate[q] * column_q.
        """
        full = self.basis.normal_form(v.pad(self.s + self.t))
        real = full.take_components(0, self.s)
        if not real.is_zero():
            return real, None
        shadow = -full.take_components(self.s, self.s + self.t)
        return real, shadow.to_polys()


def extended_groebner(cols, ncomps, ring=None) -> ExtendedBasis:
    """Reduced basis of the columns, each augmented with a unit shadow
    component, under the block order keeping shadows below real terms."""
    cols = list(cols)
    if ring is None:
        ring = cols[0].ring
    s, t = ncomps, len(cols)
    one = (0,) * ring.nvars
    aug = [Vec(ring, s + t, {**col.pad(s + t).terms,
                             (s + i, one): ring.field.one})
           for i, col in enumerate(cols)]
    return ExtendedBasis(s, buchberger(aug, s + t,
                                       ModuleOrder(ring.order, s), ring))


def ref_extended_basis(ring, cols, ncomps) -> ExtendedBasis:
    """The extended run of cols in R^ncomps, the ideal appended on every
    component as input columns, each with a shadow of its own."""
    return extended_groebner(list(cols) + ideal_columns(ring, ncomps),
                             ncomps, ring=ring.ambient)


def ref_certificate(sub, v: Vec):
    """Submodule.certificate by the extended run of the generators and
    the relations, the ideal as input columns."""
    cols = list(sub.gens) + list(sub.module.relations)
    rem, coeffs = ref_extended_basis(sub.ring, cols,
                                     sub.module.ngens).reduce(v)
    if not rem.is_zero():
        return None
    return [sub.ring.elem(c) for c in coeffs[:len(sub.gens)]]


def ref_syzygy_basis(ring, cols, ncomps):
    """The syzygies of cols by their definition: the distinct monic normal
    forms of the reduced TOP basis of the module that the extended run's
    syzygies, projected to the columns, generate."""
    t = len(cols)
    proj = [sv.take_components(0, t)
            for sv in ref_extended_basis(ring, cols, ncomps).syzygies]
    proj = [v for v in proj if not v.is_zero()]
    if not proj:
        return []
    return ref_distinct_monic(ring, buchberger(proj, t,
                                               ModuleOrder(ring.ambient.order),
                                               ring.ambient))


# --- R-spans with the ideal as input columns ----------------------------------------


def ref_span_basis(ring, cols, ncomps):
    """Groebner basis of the R-span of cols: one unseeded run with the
    defining ideal appended on every component as input columns."""
    return buchberger(list(cols) + ideal_columns(ring, ncomps), ncomps,
                      ModuleOrder(ring.ambient.order), ring.ambient)


def ref_relation_basis(M):
    """The relation basis of M from scratch: the span of its relations by
    one unseeded run, the ideal on every component as input columns
    (ref_span_basis), whatever basis M was born with."""
    return ref_span_basis(M.ring, M.relations, M.ngens)


# --- preimages by one block-diagonal elimination -----------------------------------


def ref_preimage(ring, map_cols, target_cols, ncomps):
    """Generators of {u in R^n : sum u_i map_cols_i in R-span(target_cols)}.

    Computed by component elimination: Groebner basis of the span of
    (map_col_j + e_j, target cols, ideal columns) under a block order with
    the first ncomps components dominant; basis vectors supported entirely
    on the tag block are the preimage generators.
    """
    map_cols, target_cols = list(map_cols), list(target_cols)
    n = len(map_cols)
    big = ncomps + n
    amb = ring.ambient
    cols = [mc.pad(big) + Vec.unit(amb, big, ncomps + j)
            for j, mc in enumerate(map_cols)]
    cols += [t.pad(big) for t in target_cols]
    cols += [ic.pad(big) for ic in ideal_columns(ring, ncomps)]
    cols += [ic.pad(big, offset=ncomps) for ic in ideal_columns(ring, n)]
    gb = buchberger(cols, big, ModuleOrder(amb.order, ncomps), amb)
    return ref_distinct_monic(ring, [
        g.take_components(ncomps, big) for g in gb
        if g.take_components(0, ncomps).is_zero()])


def kernel_terms_vec(ring, ncomps, terms) -> Vec:
    """Kernel terms {(comp, code): int} as the Vec they encode, at the
    same scale: each code decoded, each int read as a field value."""
    amb = ring.ambient
    dec, fld = amb.code.decode, amb.field
    return Vec(amb, ncomps, {(j, dec(m)): fld.from_int(c)
                             for (j, m), c in terms.items()})


def ref_decoded_rows(ring, ncomps, rows) -> list:
    """Kernel rows (comp, m, lc, terms) as monic Vecs, each divided by its
    lead coefficient under TOP (ref_monic_vec)."""
    return [ref_monic_vec(kernel_terms_vec(ring, ncomps, row[3]))
            for row in rows]


def ref_preimage_basis(ring, map_cols, values, nvalues, span, ncomps):
    """The eliminating _block_basis from the whole block basis: one run, not
    eliminating, on the block columns merged and padded as Vecs, seeded
    with a basis built for it from span's rows and the ideal's rows moved
    to the last n components (its index built from its rows), then the
    rows in the last n components, in basis order, relabelled to
    components 0..n-1 under TOP."""
    n = nvalues
    big, amb = ncomps + n, ring.ambient
    order = ModuleOrder(amb.order, ncomps)
    ideal = [(c + ncomps, e, lc,
              {(j + ncomps, m): x for (j, m), x in t.items()})
             for c, e, lc, t in ring.free_relation_basis(n)._rows]
    seed = GroebnerBasis(amb, big, order, span._rows + ideal)
    cols = [Vec(amb, big, {**kernel_terms_vec(ring, ncomps, mc).terms,
                           **kernel_terms_vec(ring, n, v).pad(
                               big, offset=ncomps).terms})
            for mc, v in zip(map_cols, values)]
    rows = buchberger(cols, big, order, amb, seed=seed)._rows
    return GroebnerBasis(amb, n, ModuleOrder(amb.order), [
        (c - ncomps, e, lc, {(j - ncomps, m): x for (j, m), x in t.items()})
        for c, e, lc, t in rows if c >= ncomps])


def ref_monic_vec(v: Vec) -> Vec:
    """The nonzero v divided by its lead coefficient under TOP."""
    order = ModuleOrder(v.ring.order)
    enc, term_key = order.code(v.ring.nvars).encode, order.term_key
    _c, _e, lc = v.leading(lambda j, e: term_key((j, enc(e))))
    fld = v.ring.field
    if lc == fld.one:
        return v
    return v.term_mul(fld.inv(lc), (0,) * v.ring.nvars)


def ref_ideal_normal_form(ring, v: Vec) -> Vec:
    """The normal form of v modulo I P^n, n = v.ncomps, by the Fraction
    reducer (fraction_normal_form) against the ideal's fraction basis:
    fraction_buchberger on the ideal's generators in every component,
    under TOP over the reference key of the ring order."""
    keyfn = top_key(ref_ring_key(ring.ambient.order))
    basis = fraction_buchberger(ideal_columns(ring, v.ncomps), v.ncomps,
                                keyfn, ring.ambient)
    return fraction_normal_form(basis, keyfn, v)


def tuple_lead_nf(ring, value):
    """QuotientRing.nf as it was before it worked on order codes: the
    reach test on the ideal's leads as exponent tuples, then
    GroebnerBasis.normal_form against the ring's basis of I P^n, a
    Polynomial going there as a rank-1 Vec and back.  A value that no
    lead reaches comes back as it is."""
    amb = ring.ambient
    if value.ring is not amb and value.ring != amb:
        raise ContextError("value over a different ambient ring")
    poly = isinstance(value, Polynomial)
    monos = value.terms if poly else [m for _j, m in value.terms]
    leads = [e for _c, e in ring.free_relation_basis(1).leading_terms()]
    if not any(mono_divides(e, m) for m in monos for e in leads):
        return value
    if not poly:
        return ring.free_relation_basis(value.ncomps).normal_form(value)
    rem = ring.free_relation_basis(1).normal_form(
        Vec(amb, 1, {(0, m): c for m, c in value.terms.items()}))
    return Polynomial(amb, {m: c for (_0, m), c in rem.terms.items()})


def ref_distinct_monic(ring, vecs) -> list:
    """The nonzero monic normal forms of vecs, first occurrences in order:
    each Vec's normal form (ref_ideal_normal_form), its monic form, and a
    dedup keyed on its field terms."""
    out = []
    seen = set()
    for v in vecs:
        v = ref_ideal_normal_form(ring, v)
        if v.is_zero():
            continue
        v = ref_monic_vec(v)
        key = frozenset(v.terms.items())
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def ref_closure_preimage(S, N):
    """The generators of N^cl_S before minimalization: one preimage of the
    diagonal u -> (s_i (x) u)_i into g copies of (S (x) M)/im(S (x) N)."""
    M = N.module
    T = tensor(S, M)
    image = T.submodule([tensor_elem(S, M, p, nq)
                         for p in range(S.ngens) for nq in N.gens])
    q_rels = list(T.relations) + list(image.gens)
    g, n = S.ngens, M.ngens
    total = g * (g * n)
    amb = M.ring.ambient
    target = []
    for i in range(g):
        target += [c.pad(total, offset=i * g * n) for c in q_rels]
    map_cols = []
    for j in range(n):
        acc = Vec.zero(amb, total)
        for i in range(g):
            acc = acc + Vec.unit(amb, total, i * g * n + i * n + j)
        map_cols.append(acc)
    return ref_preimage(M.ring, map_cols, target, total)


def ref_closure_steps(S, N):
    """The closure loop that runs every step, as (steps, satisfied).

    steps are its generator lists: the unit vectors of M's cover, then,
    for each generator s_i of S, the seeded preimage of the span so far
    under u -> s_i (x) u, run even when every column s_i (x) w already
    lies in the image; the last list is what the closure hands to
    minimalization.  satisfied[i] says whether every column of step i
    reduces to zero against the basis of the image of S (x) N.
    """
    M = N.module
    T = tensor(S, M)
    span = T.submodule([tensor_elem(S, M, p, nq)
                        for p in range(S.ngens) for nq in N.gens]).span
    amb = M.ring.ambient

    def encoded(v):
        return _to_kernel(v.terms, amb.field.char, amb.code)[0]

    steps, satisfied = [M.gens()], []
    for i in range(S.ngens):
        gens = steps[-1]
        cols = [tensor_elem(S, M, i, w) for w in gens]
        satisfied.append(all(span.normal_form(c).is_zero() for c in cols))
        rows = r_preimage(M.ring, [encoded(c) for c in cols],
                          [encoded(w) for w in gens], M.ngens, span, T.ngens)
        steps.append(ref_decoded_rows(M.ring, M.ngens, rows))
    return steps, satisfied


def ref_intersect_preimage(A, B):
    """The generators of A meet B before minimalization: the preimage of
    span(A) + span(B) under the diagonal u -> (u, u)."""
    n = A.module.ngens
    amb = A.ring.ambient
    rels = list(A.module.relations)
    target = [a.pad(2 * n) for a in list(A.gens) + rels]
    target += [b.pad(2 * n, offset=n) for b in list(B.gens) + rels]
    diag = [Vec.unit(amb, 2 * n, j) + Vec.unit(amb, 2 * n, n + j)
            for j in range(n)]
    return ref_preimage(A.ring, diag, target, 2 * n)


def ref_colon_preimage(N, x):
    """The generators of (N :_M x) before minimalization."""
    target = list(N.gens) + list(N.module.relations)
    return ref_preimage(N.ring, scaled_gens(N.module, [x]), target,
                        N.module.ngens)


def ref_kernel_preimage(f):
    """The generators of ker f before minimalization."""
    n = f.source.ngens
    if not f.target.ngens:
        return [Vec.unit(f.source.ring.ambient, n, i) for i in range(n)]
    return ref_preimage(f.source.ring, list(f.cols), list(f.target.relations),
                        f.target.ngens)


# --- subring module relations by syzygies and elimination -------------------------


def ref_module_relation_columns(images, pres_ring, module_gens):
    """Relation columns among module_gens with coefficients in the monomial
    subring k[images], pres_ring's variables mapping to images.

    Two runs in k[x, names] (weights: the target's, then the image
    degrees): the syzygies of (g_1..g_t, name_i - image_i), projected to
    the first t components, span {c : sum c_l g_l in (name_i - image_i)};
    an elimination run under TOP over the elimination of x keeps its
    reduced basis elements free of x.
    """
    target = images[0].ring
    fld, n_t, t = target.field, target.nvars, len(module_gens)
    big = PolyRing(target.names + pres_ring.names, fld,
                   wdegrevlex(target.weights + pres_ring.weights))
    tail = (0,) * pres_ring.nvars

    def lift(f):
        return Polynomial(big, {m + tail: c for m, c in f.terms.items()})

    cols = [Vec.from_polys([lift(g)]) for g in module_gens]
    cols += [Vec.from_polys([big.var(n_t + i) - lift(f)])
             for i, f in enumerate(images)]
    proj = [sv.take_components(0, t)
            for sv in extended_groebner(cols, 1, ring=big).syzygies]
    proj = [v for v in proj if not v.is_zero()]
    if not proj:
        return []
    gb = buchberger(proj, t, ModuleOrder(elimination(n_t)), big)
    return [Vec(pres_ring, t, {(j, m[n_t:]): c for (j, m), c in v.terms.items()})
            for v in gb if not v.has_vars_below(n_t)]


def substitute_images(images, poly):
    """The image of a presentation-ring polynomial in k[x]."""
    target = images[0].ring
    exps = [next(iter(f.terms)) for f in images]
    terms = {}
    for m, c in poly.terms.items():
        x = tuple(sum(e * img[i] for e, img in zip(m, exps))
                  for i in range(target.nvars))
        terms[x] = target.field.add(terms.get(x, target.field.zero), c)
    return Polynomial(target, {x: c for x, c in terms.items()
                               if c != target.field.zero})


def brute_relation_dim(images, pres_ring, module_gens, d) -> int:
    """dim_k of {c in k[names]^t of degree d : sum c_l(images) g_l == 0},
    generator l in degree deg g_l, by the rank of the substituted products."""
    target = images[0].ring
    fld = target.field
    products = [substitute_images(images, pres_ring.monomial(m)) * g
                for g in module_gens
                for m in monomials_of_wdeg(pres_ring, d - g.wdeg())]
    if not products:
        return 0
    terms = sorted({m for p in products for m in p.terms})
    rows = [[p.terms.get(m, fld.zero) for m in terms] for p in products]
    return len(products) - rank(rows, fld)


# --- minimal generators, one Groebner basis per candidate --------------------------


def vec_minimal_generators(M, cols):
    """minimal_generators as it ran on Vecs before its candidates stayed
    kernel rows: the distinct monic normal forms (ref_distinct_monic),
    sorted by (degree, str), one span basis of the kept candidates and
    the relations per degree block (ref_span_basis), the candidates'
    normal forms against it decoded into Vecs (GroebnerBasis.normal_form),
    and the field-value independence scan on their coefficients
    (outside_later_spans)."""
    ring, shifts = M.ring, M.gen_degrees
    graded = []
    for g in ref_distinct_monic(ring, cols):
        degrees = {ring.ambient.wdeg(m) + shifts[j] for j, m in g.terms}
        if len(degrees) > 1:
            raise DomainError(f"inhomogeneous generator {g}")
        graded.append((degrees.pop(), g))
    graded.sort(key=itemgetter(0))
    kept = []
    for _d, block in groupby(graded, key=itemgetter(0)):
        block = sorted((g for _d, g in block), key=str)
        forms = block
        if kept or M.relations:
            span = ref_span_basis(ring, kept + list(M.relations), M.ngens)
            forms = [span.normal_form(g) for g in block]
        flags = outside_later_spans([f.terms for f in forms],
                                    ring.ambient.field)
        kept += [g for g, keep in zip(block, flags) if keep]
    return kept


def vec_syzygies(ring, cols, ncomps):
    """Generators over R of the syzygy module of cols in R^ncomps, as the
    engine listed them before resolutions stayed in kernel rows: the rows
    of one syzygy run (r_preimage of I P^ncomps on the unit pairs of
    cols), decoded into monic Vecs (ref_decoded_rows)."""
    cols = list(cols)
    rows = r_preimage(ring, *_unit_pairs(ring, cols), len(cols),
                      ring.free_relation_basis(ncomps), ncomps)
    return ref_decoded_rows(ring, len(cols), rows)


def vec_resolution(M, length):
    """FPModule.resolution by the Vec route it took before it stayed in
    kernel rows: the minimal presentation's relations minimalized again,
    and each later step the syzygies of the previous columns decoded into
    Vecs (vec_syzygies), then minimalized on Vecs (vec_minimal_generators)."""
    mp = M.minimal_presentation()
    steps = [(mp.gen_degrees, ())]
    if mp.ngens:
        cols = vec_minimal_generators(free_module(M.ring, mp.gen_degrees),
                                      mp.relations)
        steps.append((tuple(c.degree(mp.gen_degrees) for c in cols),
                      tuple(cols)))
    while len(steps) <= length:
        prev_degrees, prev_cols = steps[-1]
        if not prev_cols:
            steps.append(((), ()))
            continue
        syz = vec_syzygies(M.ring, prev_cols, len(steps[-2][0]))
        syz = vec_minimal_generators(free_module(M.ring, prev_degrees), syz)
        steps.append((tuple(c.degree(prev_degrees) for c in syz),
                      tuple(syz)))
    return steps[:length + 1]


def greedy_minimal_generators(ring, cols, shifts, relations=()):
    """Deduplicate the monic normal forms, sort them by (degree, str), then
    drop each one that the others and the relations span: one full R-span
    basis per candidate."""
    kept = ref_distinct_monic(ring, cols)
    kept.sort(key=lambda g: (g.degree(shifts), str(g)))
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        span = ref_span_basis(ring, others + list(relations), len(shifts))
        if span.contains(kept[i]):
            kept.pop(i)
        else:
            i += 1
    return kept


# --- the two scanners that poly.tokenize replaced ------------------------------------


class _Tok:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def tokenize_poly(text: str):
    """The scanner of polynomial text: punctuation tokens have their
    character as kind."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                raise ParseError(f"integer literal too long ({j - i} digits)",
                                 text, i) from None
            toks.append(_Tok("int", value, i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], i))
            i = j
        elif ch in "+-*^()/":
            toks.append(_Tok(ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", text, i)
    toks.append(_Tok("end", None, n))
    return toks


class ScriptToken:
    __slots__ = ("kind", "value", "pos", "end")

    def __init__(self, kind, value, pos, end):
        self.kind = kind    # name int string punct end
        self.value = value
        self.pos = pos
        self.end = end


_PUNCT = "()[]{},;=/^*+-"


def tokenize_script(text: str):
    """The scanner of scripts: punctuation tokens are of kind punct."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                raise ScriptError(f"integer literal too long ({j - i} digits)",
                                  text, i) from None
            toks.append(ScriptToken("int", value, i, j))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(ScriptToken("name", text[i:j], i, j))
            i = j
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise ScriptError("unterminated string", text, i)
            toks.append(ScriptToken("string", text[i + 1:j], i, j + 1))
            i = j + 1
        elif ch in _PUNCT:
            toks.append(ScriptToken("punct", ch, i, i + 1))
            i += 1
        else:
            raise ScriptError(f"unexpected character {ch!r}", text, i)
    toks.append(ScriptToken("end", None, n, n))
    return toks


# --- polynomial arguments of scripts, a recursive descent of their own -------------


def check_poly_syntax(text: str, offset: int, script: str, end_pos=None):
    """Syntax-only validation of a polynomial expression argument.

    Names are not resolved here; this catches dangling operators and
    unbalanced parentheses at parse time, with script coordinates.
    """
    try:
        toks = tokenize_poly(text)
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
