"""Seeded inputs of the `member` and `closure` workloads.

Inputs are plain data (exponent tuples and coefficients +1 or -1),
drawn from the benchmark's own generator, so the oracle can read them
without closurelab.  `build` turns them into engine objects; that is part
of set-up.

Make-up of one round, the same on every seed (only the elements change):
two fields (Q, F5); on each, six pairs of a ring and a closure module S:

* quadric cone k[a,b,c]/(ac-b^2): a 2-generator ideal module, syz^2(k)
* hypersurface k[x,y,u,v]/(xy-uv): a 2-generator ideal module
* Veronese-4 ring k[a,b,c,d] = k[x^4,x^3y,xy^3,y^4]: a 2-generator ideal
  module, the S2-ification S = R + R x^2y^2
* k[x,y,z]: a 2-generator ideal module

and for each such pair, six ideals N: 1, 2 or 3 generators, all of level 1
or all of level 2 (the level of a presentation monomial is its number of
variable factors).  `member` asks about four elements u per (S, N), two of
the generators' level and two one level higher; `closure` computes N^{cl_S}
once per (S, N).

The seed draws every N and u.  The ideal modules come from a fixed stream
instead, the same on every seed: four per ring and field, random elements
of level 1, used in turn by successive rounds.  A run's cost then does not
hang on a few draws of S, and set-up stays small.
"""

from __future__ import annotations

import itertools
import random

from oracle import RingModel

# ring kind -> (variable names, ambient images of the variables)
RINGS = {
    "cone": (("a", "b", "c"), [(2, 0), (1, 1), (0, 2)]),
    "xyuv": (("x", "y", "u", "v"),
             [(1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0)]),
    "ver": (("a", "b", "c", "d"), [(4, 0), (3, 1), (1, 3), (0, 4)]),
    "xyz": (("x", "y", "z"), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
}
FIELDS = (0, 5)                # characteristic: Q and F5
EXTRA_MODULES = {"cone": "syz2", "ver": "verS"}
N_SHAPES = [(ngens, level) for ngens in (1, 2, 3) for level in (1, 2)]
U_LEVEL_STEPS = (0, 0, 1, 1)
COEFFS = (1, -1)
IDEAL_MODULE_POOL = 4

# syz^2(k) over the cone is ker(R^3 -> R, e -> (a, b, c)); by hand it is
# spanned by (b,-a,0), (c,0,-a), (0,c,-b), (c,-b,0).  Entries as (coeff,
# variable index) with a, b, c = 0, 1, 2.
SYZ2_EMBEDDING = [
    [(1, 1), (-1, 0), None],
    [(1, 2), None, (-1, 0)],
    [None, (1, 2), (-1, 1)],
    [(1, 2), (-1, 1), None],
]
VERONESE_S_EMBEDDING = [(0, 0), (2, 2)]   # 1 and x^2 y^2 inside k[x,y]


def _monomials(nvars, level):
    return [e for e in itertools.product(range(level + 1), repeat=nvars)
            if sum(e) == level]


def random_element(rng, model, level, max_terms=3):
    """Nonzero (in R) random element: {presentation exps: int coeff}."""
    monos = _monomials(len(model.images), level)
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            terms[rng.choice(monos)] = rng.choice(COEFFS)
        if model.embed(terms):
            return terms


def configs():
    """The (ring kind, characteristic, module kind) list, in run order."""
    out = []
    for p in FIELDS:
        for kind in RINGS:
            out.append((kind, p, "ideal"))
            if kind in EXTRA_MODULES:
                out.append((kind, p, EXTRA_MODULES[kind]))
    return out


def models():
    return {(kind, p): RingModel(p, RINGS[kind][1])
            for kind in RINGS for p in FIELDS}


def make_inputs(workload, seed, rounds):
    """All inputs of one run, as plain data; equal seeds give equal inputs.

    Returns a list of rounds; a round is a list of configs, each a dict with
    the ring kind, characteristic, module kind, ideal-module generators and
    its (N, [u, ...]) pairs.
    """
    mods = models()
    pool_rng = random.Random("ideal-modules")
    pool = {key: [[random_element(pool_rng, model, 1, 2) for _ in range(2)]
                  for _ in range(IDEAL_MODULE_POOL)]
            for key, model in mods.items()}
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for r in range(rounds):
        cfgs = []
        for kind, p, mkind in configs():
            model = mods[kind, p]
            gens = []
            if mkind == "ideal":
                gens = pool[kind, p][r % IDEAL_MODULE_POOL]
            pairs = []
            for ngens, level in N_SHAPES:
                n = [random_element(rng, model, level) for _ in range(ngens)]
                us = []
                if workload == "member":
                    us = [random_element(rng, model, level + step)
                          for step in U_LEVEL_STEPS]
                pairs.append((n, us))
            cfgs.append({"ring": kind, "p": p, "module": mkind,
                         "gens": gens, "pairs": pairs})
        out.append(cfgs)
    return out


# --- engine side (set-up) ---------------------------------------------------


def _engine_ring(cl, kind, p):
    fld = cl.QQ if p == 0 else cl.prime_field(p)
    names = RINGS[kind][0]
    if kind == "cone":
        amb = cl.PolyRing(names, fld, cl.wdegrevlex((2, 2, 2)))
        return cl.make_quotient_ring(amb, [amb.parse("a*c - b^2")])
    if kind == "xyuv":
        amb = cl.PolyRing(names, fld, cl.DEGREVLEX)
        return cl.make_quotient_ring(amb, [amb.parse("x*y - u*v")])
    if kind == "ver":
        target = cl.PolyRing(("x", "y"), fld, cl.DEGREVLEX)
        return cl.presented_subring(
            [target.parse(f) for f in ("x^4", "x^3*y", "x*y^3", "y^4")],
            names=names, field=fld, target_ring=target)
    return cl.make_quotient_ring(cl.PolyRing(names, fld, cl.DEGREVLEX), [])


def _engine_elem(cl, R, terms):
    fld = R.ambient.field
    return R.elem(cl.Polynomial(R.ambient, {m: fld.from_int(c)
                                            for m, c in terms.items()}))


def _engine_module(cl, R, cfg):
    if cfg["module"] == "ideal":
        return cl.ideal_as_module(R, [_engine_elem(cl, R, g)
                                      for g in cfg["gens"]])
    if cfg["module"] == "syz2":
        return cl.residue_field(R).syzygy(2)
    target = R.presentation.target
    return cl.FPModule(R, (0, 4), R.presentation.module_relation_columns(
        [target.one(), target.parse("x^2*y^2")]))


def build(cl, inputs):
    """Engine objects for the inputs: per round, a list of
    (ModuleClosure, N, [u, ...])."""
    rings, closures = {}, {}
    out = []
    for cfgs in inputs:
        ops = []
        for cfg in cfgs:
            key = cfg["ring"], cfg["p"]
            if key not in rings:
                rings[key] = _engine_ring(cl, *key)
            R = rings[key]
            mkey = key + (cfg["module"], repr(cfg["gens"]))
            if mkey not in closures:
                closures[mkey] = cl.ModuleClosure(_engine_module(cl, R, cfg))
            clS = closures[mkey]
            for n, us in cfg["pairs"]:
                N = cl.ideal_submodule(R, [_engine_elem(cl, R, t) for t in n])
                ops.append((clS, N, [N.module.vec([_engine_elem(cl, R, t)])
                                     for t in us]))
        out.append(ops)
    return out


def module_embedding(model, cfg):
    """The closure module S as ambient vectors, for the oracle."""
    if cfg["module"] == "ideal":
        return [[model.embed(g)] for g in cfg["gens"]]
    if cfg["module"] == "verS":
        return [[{m: 1}] for m in VERONESE_S_EMBEDDING]
    out = []
    for row in SYZ2_EMBEDDING:
        out.append([{} if e is None else
                    {model.images[e[1]]: model.fld.norm(e[0])} for e in row])
    return out
