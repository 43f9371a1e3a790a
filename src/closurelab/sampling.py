"""Seeded random instances for property suites and triviality sampling.

Everything is driven by an explicit random.Random so identical seeds give
identical instances.
"""

from __future__ import annotations

import random

from .linalg import monomials_of_wdeg
from .modules import ideal_submodule
from .poly import Polynomial
from .ring import QuotientRing, RingElem


def random_homogeneous_elem(ring: QuotientRing, deg: int, rng: random.Random):
    """A nonzero homogeneous normal form of the given degree, drawn as one
    or two terms, or None.  A coefficient that is 0 in the field (3 in
    GF(3)) drops its term."""
    monos = monomials_of_wdeg(ring.ambient, deg)
    if not monos:
        return None
    fld = ring.ambient.field
    for _attempt in range(8):
        nterms = rng.randint(1, 2)
        terms = {}
        for _ in range(nterms):
            m = rng.choice(monos)
            c = rng.randint(1, 3) * rng.choice((1, -1))
            terms[m] = fld.from_int(c)
        p = ring.nf(Polynomial(ring.ambient, terms))
        if not p.is_zero():
            return RingElem._of_nf(ring, p)
    return None


def achievable_degrees(ring: QuotientRing, lo=1, hi=6):
    return [d for d in range(lo, hi + 1)
            if monomials_of_wdeg(ring.ambient, d)]


def random_ideal_gens(ring: QuotientRing, rng: random.Random, max_gens=3,
                      max_deg=4):
    degs = achievable_degrees(ring, 1, max_deg)
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        e = random_homogeneous_elem(ring, rng.choice(degs), rng)
        if e is not None:
            gens.append(e)
    if not gens:
        gens = [ring.gens()[0]]
    return gens


def sample_ideals(ring: QuotientRing, count: int, seed: int):
    """Deterministic list of ideal submodules of R, each with up to three
    generators of degree up to 4."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(ideal_submodule(ring, random_ideal_gens(ring, rng)))
    return out


def sample_monomial_ideals(ring: QuotientRing, count: int, seed: int):
    """Deterministic monomial ideals (for the integral-closure operation),
    each with up to three generators of degree up to 4."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        gens = []
        for _g in range(rng.randint(1, 3)):
            d = rng.choice(achievable_degrees(ring, 1, 4))
            monos = monomials_of_wdeg(ring.ambient, d)
            m = rng.choice(monos)
            gens.append(ring.elem(ring.ambient.monomial(m)))
        out.append(ideal_submodule(ring, gens))
    return out

