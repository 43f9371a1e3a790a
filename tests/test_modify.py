"""Module modifications: bad relations, both modification kinds, traces."""

import pytest

from closurelab.field import QQ
from closurelab.gb import Vec
from closurelab.orders import DEGREVLEX
from closurelab.poly import ContextError, DomainError, PolyRing
from closurelab.ring import ParameterSequence
from closurelab.modules import (Submodule, ideal_as_module, ideal_submodule,
                                nf_vec, ring_as_module, scaled_gens)
from closurelab.closure import (ModuleClosure, MonomialIntegralClosure,
                                PhantomInstance, TrivialClosure, phantom_test)
from closurelab.modify import (BadRelation, ModificationTrace,
                               containment_modification, find_bad_relation,
                               parameter_chain, parameter_modification)


def test_find_bad_relation_veronese(veronese4):
    M = ring_as_module(veronese4)
    rel = find_bad_relation(M, ["a", "d"], 12)
    assert rel is not None
    assert [str(x) for x in rel.xs] == ["a", "d"]
    assert str(rel.u.component(0)) == "b^2"
    assert [str(u.component(0)) for u in rel.us] == ["c^2"]


def test_find_bad_relation_none_on_regular(kxy):
    assert find_bad_relation(ring_as_module(kxy), ["x", "y"], 10) is None


def test_bad_relation_validation(veronese4):
    M = ring_as_module(veronese4)
    seq = ParameterSequence.verified(veronese4, ["a", "d"])
    # stated relation must hold
    with pytest.raises(DomainError):
        BadRelation(M, seq, M.vec(["b^2"]), (M.vec(["c"]),))
    # u inside (x_1..x_k)M is not a bad relation
    with pytest.raises(DomainError):
        BadRelation(M, seq, M.vec(["a*c"]), (M.vec(["b*c - a*d + c^2"]),))


def test_parameter_modification_presentation(veronese4):
    M = ring_as_module(veronese4)
    rel = find_bad_relation(M, ["a", "d"], 12)
    M2, incl = parameter_modification(M, rel)
    assert M2.ngens == 2
    assert M2.gen_degrees == (0, 4)
    assert [str(r) for r in M2.relations] == ["(b^2, a)"]
    # in M', u falls into (x_1..x_k) M'
    aM2 = Submodule(M2, tuple(scaled_gens(M2, [veronese4.elem("a")])))
    assert aM2.contains(incl.apply(rel.u))


def test_modified_witness_is_resolved(veronese4):
    M = ring_as_module(veronese4)
    rel = find_bad_relation(M, ["a", "d"], 12)
    M2, _incl = parameter_modification(M, rel)
    rel2 = find_bad_relation(M2, ["a", "d"], 12)
    # the same witness is never returned again
    if rel2 is not None:
        assert (str(rel2.u), [str(x) for x in rel2.xs]) != \
            (str(rel.u.pad(2)), [str(x) for x in rel.xs])


def test_containment_modification_via_s2(veronese4, s2_module):
    clS = ModuleClosure(s2_module)
    M = ring_as_module(veronese4)
    G = ideal_submodule(veronese4, ["a"])
    v = G.module.vec(["b^2"])
    M2, incl = containment_modification(M, clS, G, v)
    assert M2.ngens == 2
    assert [str(r) for r in M2.relations] == ["(b^2, a)"]
    aM2 = Submodule(M2, tuple(scaled_gens(M2, [veronese4.elem("a")])))
    assert aM2.contains(M2.vec(["b^2", "0"]))


def test_containment_modification_preconditions(veronese4, s2_module):
    clS = ModuleClosure(s2_module)
    M = ring_as_module(veronese4)
    G = ideal_submodule(veronese4, ["a"])
    with pytest.raises(DomainError):
        containment_modification(M, clS, G, G.module.vec(["a*b"]))  # in G
    with pytest.raises(DomainError):
        containment_modification(M, clS, G, G.module.vec(["d"]))  # not in G^cl
    full = G.module.full_submodule()
    with pytest.raises(DomainError):
        containment_modification(M, clS, full, G.module.vec(["b"]))


@pytest.mark.parametrize("bad", ["rank", "ring"])
def test_containment_refuses_an_x_of_another_rank_or_ring(kxyz, bad):
    """containment_modification and extend_containment take x through
    M.vec, which refuses a Vec of another rank or ring; before, a Vec
    skipped that check, and a rank-2 x over a rank-1 M failed with an
    IndexError."""
    M = ring_as_module(kxyz)
    G = ideal_submodule(kxyz, ["x^2", "y^2"])
    cl = MonomialIntegralClosure()
    if bad == "rank":
        x, match = Vec.unit(kxyz.ambient, 2, 1), "vector of rank 2"
    else:
        x = Vec.unit(PolyRing(("x", "y"), QQ, DEGREVLEX), 1, 0)
        match = "vector over another ring"
    M2, _incl = containment_modification(M, cl, G, ["x*y"])
    assert M2.ngens == 3
    with pytest.raises(ContextError, match=match):
        containment_modification(M, cl, G, ["x*y"], x=x)
    with pytest.raises(ContextError, match=match):
        ModificationTrace.start(kxyz).extend_containment(cl, G, ["x*y"],
                                                         x=x)


def test_containment_modification_preserves_phantom(veronese4, s2_module):
    # instance-level check of the preservation lemma along an engine trace
    clS = ModuleClosure(s2_module)
    trace = ModificationTrace.start(veronese4)
    G = ideal_submodule(veronese4, ["a"])
    trace = trace.extend_containment(clS, G, G.module.vec(["b^2"]))
    flags = trace.stages[-1].flags
    assert flags["phantom_before"] and flags["phantom_after"]


def test_trace_image_of_one(veronese4, s2_module):
    clS = ModuleClosure(s2_module)
    start = ModificationTrace.start(veronese4)
    assert not start.image_of_one_in_m()   # 1 is not in m
    trace = parameter_chain(veronese4, clS, ["a", "d"], 1)
    assert len(trace) == 2
    assert not trace.image_of_one_in_m()
    flags = trace.stages[-1].flags
    assert flags["phantom_before"] and flags["phantom_after"]


def test_trace_with_trivial_closure_flags(veronese4):
    trace = parameter_chain(veronese4, TrivialClosure(), ["a", "d"], 1)
    flags = trace.stages[-1].flags
    assert flags["phantom_before"] is True    # R itself splits
    assert flags["phantom_after"] is False    # not trivially phantom
    # the image flag is computed independently of the phantom flags
    assert trace.image_of_one_in_m() is False


def test_chain_stops_on_regular_ring(kxy):
    trace = parameter_chain(kxy, TrivialClosure(), ["x", "y"], 3)
    assert len(trace) == 1


def test_chain_policies_are_deterministic(veronese4, s2_module):
    clS = ModuleClosure(s2_module)
    a = parameter_chain(veronese4, clS, ["a", "d"], 2)
    b = parameter_chain(veronese4, clS, ["a", "d"], 2)
    assert [s.descriptor for s in a.stages] == [s.descriptor for s in b.stages]


def test_trace_descriptor_is_json_ready(veronese4, s2_module):
    import json
    clS = ModuleClosure(s2_module)
    trace = parameter_chain(veronese4, clS, ["a", "d"], 1)
    blob = json.dumps(trace.descriptor(), sort_keys=True)
    assert "image_of_one_in_m" in blob
    assert "parameter" in blob


def test_phantom_instance_from_stage_modules(veronese4, s2_module):
    clS = ModuleClosure(s2_module)
    trace = parameter_chain(veronese4, clS, ["a", "d"], 2)
    for stage in trace.stages[1:]:
        inst = PhantomInstance.from_module(stage.module)
        assert phantom_test(clS, inst).holds


def test_three_step_chain_stays_phantom(veronese4, s2_module):
    clS = ModuleClosure(s2_module)
    trace = parameter_chain(veronese4, clS, ["a", "d"], 3)
    assert len(trace) == 4
    kills = [st.descriptor["u"] for st in trace.stages[1:]]
    assert kills == [["b^2"], ["a*c", "b"], ["b*d", "c"]]
    for st in trace.stages[1:]:
        assert st.flags["phantom_after"] is True
    assert trace.image_of_one_in_m() is False


def test_containment_modification_stores_normal_forms(xyuv):
    """Every relation of the modified module is its own normal form: here
    v_1 x = x*y*v^2 reduces to u*v^3 modulo xy - uv."""
    cl = ModuleClosure(ideal_as_module(xyuv, ["-2*y - 2*u", "3*u - 3*v"]))
    G = ideal_submodule(xyuv, ["-u*v", "-2*u^2 - 3*v^2"])
    M = ring_as_module(xyuv)
    M2, _incl = containment_modification(M, cl, G, G.module.vec(["x*v^2"]),
                                         M.vec(["y"]))
    assert M2.relations
    assert all(nf_vec(xyuv, r) == r for r in M2.relations)
