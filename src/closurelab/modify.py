"""Finite-stage module modifications and their traces.

A parameter modification kills a bad relation x_{k+1} u = x_1 u_1 + .. +
x_k u_k by passing to (M + R f_1 + .. + R f_k) / R(u + x_1 f_1 + .. +
x_k f_k); a containment modification forces an element v of G^cl into the
image of G against a chosen x in M.  Only finite chains are built; each
stage records its map and enough data to replay it.

The quotient presentations written here are complete: for both
constructions the kernel of the new free cover is generated by the old
relations together with the displayed new columns, so stage modules can be
fed directly to the phantom-extension test.
"""

from __future__ import annotations

from .closure import ClosureOp, _require_sop, phantom_test
from .modules import (FPModule, ModuleMap, Submodule, colon_scan,
                      ring_as_module, scaled_submodule)
from .poly import ContextError, DomainError, Vec
from .ring import QuotientRing
from .values import Record


class BadRelation(Record):
    """x_{k+1} u = x_1 u_1 + .. + x_k u_k in M, with u outside (x_1..x_k)M.

    xs is the tuple x_1 .. x_{k+1} of ring elements, each coerced through
    module.ring.elem; us are u_1 .. u_k, vectors in the cover of M.
    """

    __slots__ = ("module", "xs", "u", "us")

    def __init__(self, module: FPModule, xs, u: Vec, us: tuple):
        xs = tuple(module.ring.elem(x) for x in xs)
        if len(us) != len(xs) - 1:
            raise DomainError("need one u_i per x_i (i <= k)")
        lhs = u.scale(xs[-1].poly)
        for x, ui in zip(xs[:-1], us):
            lhs = lhs - ui.scale(x.poly)
        if not module.element_is_zero(lhs):
            raise DomainError("the stated relation does not hold in M")
        if scaled_submodule(module, xs[:-1]).contains(u):
            raise DomainError("u lies in (x_1..x_k)M: not a bad relation")
        self._set_slots(module, xs, u, us)

    @property
    def k(self):
        return len(self.xs) - 1

    def descriptor(self):
        return {
            "kind": "parameter",
            "xs": [str(x) for x in self.xs],
            "u": [str(p) for p in self.u.to_polys()],
            "us": [[str(p) for p in ui.to_polys()] for ui in self.us],
        }


def _modified(M: FPModule, degrees, cols):
    """(M', inclusion M -> M'): M' adds generators of the given degrees to
    M, and the columns cols to its relations, padded to the new rank."""
    total = M.ngens + len(degrees)
    amb = M.ring.ambient
    rels = [c.pad(total) for c in M.relations] + cols
    M2 = FPModule(M.ring, M.gen_degrees + tuple(degrees), rels)
    incl = ModuleMap(M, M2, [Vec.unit(amb, total, j)
                             for j in range(M.ngens)])
    return M2, incl


def parameter_modification(M: FPModule, rel: BadRelation):
    """The parameter module modification of M along rel.

    Returns (M', inclusion M -> M').  M' adds generators f_1..f_k and the
    single relation u + x_1 f_1 + .. + x_k f_k.
    """
    if rel.module != M:
        raise ContextError("relation belongs to a different module")
    params = rel.xs[:-1]
    deg_u = rel.u.degree(M.gen_degrees)
    col = Vec.from_polys(rel.u.to_polys() + [x.poly for x in params])
    return _modified(M, [deg_u - x.degree() for x in params], [col])


def containment_modification(M: FPModule, cl: ClosureOp, G: Submodule,
                             v: Vec, x=None):
    """Containment module modification of M relative to x, forcing v x into
    the image of G.

    G is a submodule of a free module R^s with generators e_1..e_k;
    v must lie in G^cl minus G (both verified against cl).  Returns
    (M', inclusion).  M' adds generators f_1..f_k and one relation per
    coordinate of R^s:  v_i x + e_{1i} f_1 + .. + e_{ki} f_k.
    """
    F = G.module
    if F.relations:
        raise DomainError("G must sit inside a free module")
    ring = M.ring
    if F.ring != ring:
        raise ContextError("G lives over a different ring")
    v = F.vec(v)
    if G.contains(v):
        raise DomainError("v already lies in G")
    if not cl.member(v, G).holds:
        raise DomainError("v is not in the closure of G")
    if x is None:
        x = M.gen(0)
    x = M.vec(x)
    deg_vx = v.degree(F.gen_degrees) + x.degree(M.gen_degrees)
    xs = x.to_polys()
    cols = [Vec.from_polys([p * vi for p in xs]
                           + [e.component(i) for e in G.gens])
            for i, vi in enumerate(v.to_polys())]
    return _modified(M, [deg_vx - e.degree(F.gen_degrees) for e in G.gens],
                     cols)


def find_bad_relation(M: FPModule, xs, degree_bound=None):
    """Search for a bad relation on M against the partial s.o.p. xs, a
    ParameterSequence or elements verified here.

    Scans the colon ((x_1..x_{i-1})M : x_i) at the first index where the
    sequence fails to be regular and takes the least witness, by degree
    with a deterministic tie-break.  Returns None when xs is regular on M
    (up to the degree bound).
    """
    elems = _require_sop(M.ring, xs).elems
    failure = colon_scan(M, elems, degree_bound)
    if failure is None:
        return None
    i, N, u = failure
    cert = N.certificate(u.scale(elems[i].poly))
    n = M.ngens
    us = [Vec.from_polys([c.poly for c in cert[l * n:(l + 1) * n]])
          for l in range(i)]
    return BadRelation(M, elems[:i + 1], u, tuple(us))


class Stage(Record):
    __slots__ = ("module", "kind", "descriptor", "map_from_prev", "flags")

    def __init__(self, module: FPModule, kind: str, descriptor: dict,
                 map_from_prev: ModuleMap | None = None,
                 flags: dict | None = None):
        # kind is "start", "parameter" or "containment"
        self._set_slots(module, kind, descriptor, map_from_prev,
                        {} if flags is None else flags)


class ModificationTrace(Record):
    """Chain R = M_0 -> M_1 -> ... of module modifications."""

    __slots__ = ("ring", "stages")

    def __init__(self, ring: QuotientRing, stages):
        self._set_slots(ring, tuple(stages))

    @classmethod
    def start(cls, ring: QuotientRing) -> "ModificationTrace":
        M0 = ring_as_module(ring)
        return cls(ring, (Stage(M0, "start", {"kind": "start"}),))

    @property
    def current(self) -> FPModule:
        return self.stages[-1].module

    def __len__(self):
        return len(self.stages)

    def _phantom_flags(self, cl, before, after):
        return {
            "closure": cl.describe(),
            "phantom_before": bool(phantom_test(cl, before).holds),
            "phantom_after": bool(phantom_test(cl, after).holds),
        }

    def extend_parameter(self, rel: BadRelation,
                         cl: ClosureOp) -> "ModificationTrace":
        M = self.current
        M2, incl = parameter_modification(M, rel)
        flags = self._phantom_flags(cl, M, M2)
        stage = Stage(M2, "parameter", rel.descriptor(), incl, flags)
        return ModificationTrace(self.ring, self.stages + (stage,))

    def extend_containment(self, cl: ClosureOp, G: Submodule, v, x=None
                           ) -> "ModificationTrace":
        M = self.current
        M2, incl = containment_modification(M, cl, G, v, x)
        v = G.module.vec(v)
        desc = {
            "kind": "containment",
            "G": G.descriptor(),
            "v": [str(p) for p in v.to_polys()],
        }
        flags = self._phantom_flags(cl, M, M2)
        stage = Stage(M2, "containment", desc, incl, flags)
        return ModificationTrace(self.ring, self.stages + (stage,))

    def image_of_one(self) -> Vec:
        """Image of 1 under the composite R -> M_t (the first generator)."""
        return self.current.gen(0)

    def image_of_one_in_m(self) -> bool:
        """Exact test: does the image of 1 lie in m * (final stage)?"""
        M = self.current
        mM = scaled_submodule(M, self.ring.maximal_ideal_gens())
        return mM.contains(self.image_of_one())

    def descriptor(self) -> dict:
        return {
            "ring": self.ring.descriptor(),
            "stages": [
                {
                    "kind": st.kind,
                    "step": st.descriptor,
                    "module": st.module.descriptor(),
                    "flags": st.flags,
                }
                for st in self.stages
            ],
            "image_of_one_in_m": self.image_of_one_in_m(),
        }


def parameter_chain(ring: QuotientRing, cl: ClosureOp, xs, steps: int,
                    degree_bound=None) -> ModificationTrace:
    """Run up to `steps` parameter modifications from R along xs, each on
    the least bad relation (see find_bad_relation)."""
    seq = _require_sop(ring, xs)
    trace = ModificationTrace.start(ring)
    for _step in range(steps):
        rel = find_bad_relation(trace.current, seq, degree_bound)
        if rel is None:
            break
        trace = trace.extend_parameter(rel, cl)
    return trace
