"""Byte-identity guard for module closures and membership certificates.

`tests/golden/closures.json` holds, for a small seeded sample of closure
modules S and ideals N, the generators of N^cl_S, and for a few elements
u the member answer and its certificate, all as strings.  The sample
covers the quadric cone k[a,b,c]/(ac - b^2) with an ideal module and
syz^2(k), k[x,y,u,v]/(xy - uv) with an ideal module, the Veronese-4 ring
with an ideal module and its S2-ification, and k[x,y,z] with an ideal
module, each over Q and F5.  The first generator of each ideal, and each
u, is scaled by a fraction, so that columns with denominators enter the
engine.  Reduced Groebner bases are canonical, so an engine change that
keeps its answers keeps this file byte for byte.

Regenerate it only with a change that means to alter these outputs:

    PYTHONPATH=src python tests/test_closure_golden.py
"""

import json
import random
from pathlib import Path

from closurelab.closure import ModuleClosure
from closurelab.field import QQ, prime_field
from closurelab.modules import (FPModule, ideal_as_module, ideal_submodule,
                                residue_field, ring_as_module)
from closurelab.orders import DEGREVLEX, wdegrevlex
from closurelab.poly import PolyRing
from closurelab.ring import make_quotient_ring, presented_subring
from closurelab.sampling import random_homogeneous_elem, random_ideal_gens

GOLDEN = Path(__file__).parent / "golden" / "closures.json"


def _rings(fld):
    cone = PolyRing(("a", "b", "c"), fld, wdegrevlex((2, 2, 2)))
    xyuv = PolyRing(("x", "y", "u", "v"), fld, DEGREVLEX)
    target = PolyRing(("x", "y"), fld, DEGREVLEX)
    return {
        "cone": make_quotient_ring(cone, [cone.parse("a*c - b^2")]),
        "xyuv": make_quotient_ring(xyuv, [xyuv.parse("x*y - u*v")]),
        "ver": presented_subring(
            [target.parse(f) for f in ("x^4", "x^3*y", "x*y^3", "y^4")],
            names=("a", "b", "c", "d"), field=fld, target_ring=target),
        "xyz": make_quotient_ring(
            PolyRing(("x", "y", "z"), fld, DEGREVLEX), []),
    }


def _scaled(ring, gens, c):
    """gens with the first one multiplied by the constant c, a string."""
    return [ring.elem(c) * gens[0]] + gens[1:]


def _modules(kind, ring, rng, w):
    """(label, S): an ideal module, and syz^2(k) or S2 where the ring has
    one."""
    gens = random_ideal_gens(ring, rng, max_gens=2, max_deg=w)
    out = [("ideal", ideal_as_module(ring, _scaled(ring, gens, "1/2")))]
    if kind == "cone":
        out.append(("syz2", residue_field(ring).syzygy(2)))
    if kind == "ver":
        target = ring.presentation.target
        out.append(("S2", FPModule(
            ring, (0, 4), ring.presentation.module_relation_columns(
                [target.one(), target.parse("x^2*y^2")]))))
    return out


def sample():
    """The records of the sample, in a fixed order."""
    records = []
    for fname, fld in (("Q", QQ), ("F5", prime_field(5))):
        for kind, ring in _rings(fld).items():
            rng = random.Random(f"closure-golden:{fname}:{kind}")
            R1 = ring_as_module(ring)
            w = min(ring.ambient.weights)   # the degree of a variable
            for label, S in _modules(kind, ring, rng, w):
                cl = ModuleClosure(S)
                for _n in range(2):
                    gens = _scaled(ring, random_ideal_gens(
                        ring, rng, max_gens=3, max_deg=2 * w), "2/3")
                    N = ideal_submodule(ring, gens)
                    closed = cl.closure(N)
                    members = []
                    for deg in (w, 2 * w, 3 * w):
                        u = random_homogeneous_elem(ring, deg, rng)
                        if u is None:
                            continue
                        u = ring.elem("3/2") * u
                        out = cl.member(R1.vec([u]), N, want_certificate=True)
                        members.append({"u": str(u), "holds": out.holds,
                                        "certificate": out.certificate})
                    records.append({
                        "field": fname, "ring": kind, "module": label,
                        "N": [str(g) for g in gens],
                        "closure": [str(g) for g in closed.gens],
                        "members": members})
    return records


def golden_text(records) -> str:
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


def test_closures_and_certificates_match_golden():
    assert golden_text(sample()) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_text(sample()))
