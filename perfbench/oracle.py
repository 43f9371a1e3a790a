"""Correctness oracle for the benchmark, independent of closurelab.

Every ring the benchmark uses is a monomial subring of a polynomial ring
(or the polynomial ring itself), so its elements are checked in that
ambient ring, where no quotient is needed:

* the quadric cone k[a,b,c]/(ac - b^2) as k[x^2, xy, y^2] in k[x,y];
* the hypersurface k[x,y,u,v]/(xy - uv) as the Segre ring
  k[s1 t1, s2 t2, s1 t2, s2 t1] in k[s1,s2,t1,t2];
* the Veronese-4 ring k[x^4, x^3 y, x y^3, y^4] in k[x,y];
* k[x,y,z] as itself.

For an ideal N and a module S embedded in R^r, u lies in N^{cl_S} exactly
when u*S is inside N*S.  Both sides are finite-dimensional in each degree,
so the oracle decides the inclusion degree by degree with exact Gaussian
elimination over Q (fractions) or F5.  Nothing here calls closurelab; the
engine's answers enter only as plain exponent/coefficient data.
"""

from __future__ import annotations

from fractions import Fraction


class Field:
    """Q (p == 0) or GF(p), with just the operations elimination needs."""

    def __init__(self, p=0):
        self.p = p

    def norm(self, c):
        return Fraction(c) if self.p == 0 else int(c) % self.p

    def inv(self, c):
        return 1 / Fraction(c) if self.p == 0 else pow(c, self.p - 2, self.p)

    def mul(self, a, b):
        return a * b if self.p == 0 else a * b % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p


def _add_exps(a, b):
    return tuple(x + y for x, y in zip(a, b))


def poly_mul(fld, f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = _add_exps(m1, m2)
            c = fld.norm(out.get(m, 0) + c1 * c2)
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


class Span:
    """Row echelon form of a set of sparse vectors {coordinate: coeff}."""

    def __init__(self, fld):
        self.fld = fld
        self.rows = {}  # leading coordinate -> row, monic at the lead

    def reduce(self, v):
        """Canonical remainder of v modulo the span (no pivot survives)."""
        fld, rows = self.fld, self.rows
        v = dict(v)
        bound = None
        while True:
            cands = [k for k in v
                     if k in rows and (bound is None or k < bound)]
            if not cands:
                return v
            k = max(cands)
            c = v[k]
            for coord, a in rows[k].items():
                x = fld.sub(v.get(coord, 0), fld.mul(c, a))
                if x:
                    v[coord] = x
                else:
                    v.pop(coord, None)
            bound = k

    def add(self, v) -> bool:
        r = self.reduce(v)
        if not r:
            return False
        lead = max(r)
        inv = self.fld.inv(r[lead])
        self.rows[lead] = {k: self.fld.mul(c, inv) for k, c in r.items()}
        return True

    def __len__(self):
        return len(self.rows)


class RingModel:
    """A graded ring given by the ambient images of its presentation
    variables; all images have the same ambient degree `step`."""

    def __init__(self, p, images):
        self.fld = Field(p)
        self.images = [tuple(e) for e in images]
        self.nvars = len(self.images[0])
        self.step = sum(self.images[0])
        self._levels = [{(0,) * self.nvars}]

    def monomials(self, degree):
        """Ambient exponents of the ring's monomials of ambient degree."""
        if degree % self.step:
            return []
        level = degree // self.step
        while len(self._levels) <= level:
            prev = self._levels[-1]
            self._levels.append({_add_exps(m, g) for m in prev
                                 for g in self.images})
        return sorted(self._levels[level])

    def embed(self, terms):
        """Image of {presentation exps: coeff} in the ambient ring."""
        out = {}
        for exps, c in terms.items():
            m = tuple(sum(e * g[i] for g, e in zip(self.images, exps))
                      for i in range(self.nvars))
            val = self.fld.norm(out.get(m, 0) + self.fld.norm(c))
            if val:
                out[m] = val
            else:
                out.pop(m, None)
        return out

    def scale(self, f, vec):
        """f * vec for a ring element f and a vector (list of polys)."""
        return [poly_mul(self.fld, f, comp) for comp in vec]


def vec_degree(vec):
    for comp in vec:
        for m in comp:
            return sum(m)
    return None


def _coords(vec):
    return {(j, m): c for j, comp in enumerate(vec) for m, c in comp.items()}


def _graded_span(model, gens, degree):
    """Span of the degree-`degree` part of the R-span of gens (vectors)."""
    span = Span(model.fld)
    for g in gens:
        d = vec_degree(g)
        if d is None or d > degree:
            continue
        for m in model.monomials(degree - d):
            span.add(_coords(model.scale({m: 1}, g)))
    return span


class ClosureOracle:
    """Decides u in N^{cl_S} for one ring model, one embedded S and one
    ideal N (each a list of ambient polynomials / vectors)."""

    def __init__(self, model, s_gens, n_gens):
        self.model = model
        self.s_gens = s_gens
        self.ns = [model.scale(n, s) for n in n_gens for s in s_gens]
        self._ns_spans = {}

    def _ns_span(self, degree):
        if degree not in self._ns_spans:
            self._ns_spans[degree] = _graded_span(self.model, self.ns, degree)
        return self._ns_spans[degree]

    def member(self, u) -> bool:
        if not u:
            return True
        du = sum(next(iter(u)))
        for s in self.s_gens:
            us = self.model.scale(u, s)
            d = vec_degree(us)
            if d is None:
                continue
            if self._ns_span(du + vec_degree(s)).reduce(_coords(us)):
                return False
        return True

    def closure_dim(self, degree) -> int:
        """dim_k of the degree part of N^{cl_S}: the kernel of
        R_degree -> (+)_s (ambient)/(N S), u -> (u s)_s."""
        monos = self.model.monomials(degree)
        image = Span(self.model.fld)
        for m in monos:
            row = {}
            for k, s in enumerate(self.s_gens):
                span = self._ns_span(degree + vec_degree(s))
                rem = span.reduce(_coords(self.model.scale({m: 1}, s)))
                row.update({(k, coord): c for coord, c in rem.items()})
            image.add(row)
        return len(monos) - len(image)


def span_dim(model, gens, degree) -> int:
    return len(_graded_span(model, gens, degree))


def in_span(model, gens, v) -> bool:
    d = vec_degree(v)
    if d is None:
        return True
    return not _graded_span(model, gens, d).reduce(_coords(v))


def monomial_integral_member(alpha, betas, kmax=4) -> bool:
    """x^alpha is integral over the monomial ideal (x^beta, ...) when some
    power x^(k alpha), k <= kmax, is divisible by a product of k generators.
    A True answer is a witness; False means none was found up to kmax."""
    sums = {(0,) * len(alpha)}
    for k in range(1, kmax + 1):
        sums = {_add_exps(s, b) for s in sums for b in betas}
        target = tuple(k * a for a in alpha)
        if any(all(x <= y for x, y in zip(s, target)) for s in sums):
            return True
    return False
