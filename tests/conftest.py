import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the REPL tests start `python -m closurelab.cli`: let it import this
# checkout's src/, as pytest itself does (pyproject.toml, pythonpath)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(__file__).parent.parent / "src")]
    + [p for p in [os.environ.get("PYTHONPATH")] if p])

from closurelab.field import QQ, prime_field
from closurelab.orders import DEGREVLEX, wdegrevlex
from closurelab.poly import PolyRing
from closurelab.ring import make_quotient_ring, presented_subring
from closurelab.modules import FPModule


@pytest.fixture(scope="session")
def kxy():
    return make_quotient_ring(PolyRing(("x", "y"), QQ, DEGREVLEX), [])


@pytest.fixture(scope="session")
def kxyz():
    return make_quotient_ring(PolyRing(("x", "y", "z"), QQ, DEGREVLEX), [])


@pytest.fixture(scope="session")
def kxy_f5():
    return make_quotient_ring(PolyRing(("x", "y"), prime_field(5),
                                       DEGREVLEX), [])


@pytest.fixture(scope="session")
def segre():
    """k[a,b,c]/(ac - b^2) with weights (2,2,2): presents k[[x^2,xy,y^2]]."""
    amb = PolyRing(("a", "b", "c"), QQ, wdegrevlex((2, 2, 2)))
    return make_quotient_ring(amb, [amb.parse("a*c - b^2")])


@pytest.fixture(scope="session")
def xyuv():
    amb = PolyRing(("x", "y", "u", "v"), QQ, DEGREVLEX)
    return make_quotient_ring(amb, [amb.parse("x*y - u*v")])


@pytest.fixture(scope="session")
def veronese4():
    target = PolyRing(("x", "y"), QQ, DEGREVLEX)
    return presented_subring(
        [target.parse("x^4"), target.parse("x^3*y"), target.parse("x*y^3"),
         target.parse("y^4")], names=("a", "b", "c", "d"),
        target_ring=target)


@pytest.fixture(scope="session")
def s2_module(veronese4):
    sp = veronese4.presentation
    gens = [sp.target.one(), sp.target.parse("x^2*y^2")]
    return FPModule(veronese4, (0, 4), sp.module_relation_columns(gens))


def _kernel_rows(basis):
    """A basis's kernel rows with the order of their terms."""
    return [(c, e, lc, list(t.items())) for c, e, lc, t in basis._rows]


@pytest.fixture
def raw_preimage(monkeypatch):
    """probe(thunk) calls thunk and returns the generators it hands to
    minimal_generators, which it must call once, with the kernel rows of
    a preimage run (never Vecs through _vec_rows), decoded by the
    reference (as monic Vecs, in order), and its preimage runs (the
    Buchberger runs under a block order) as (ncomps, nreal) pairs."""
    from closurelab import modules
    from oracles import ref_decoded_rows

    def probe(thunk):
        handed, runs = [], []
        real_min, real_run = modules.minimal_generators, modules.buchberger

        def minimal_generators(M, rows):
            assert all(len(row) == 4 for row in rows)
            handed.append(ref_decoded_rows(M.ring, M.ngens, rows))
            return real_min(M, rows)

        def vec_rows(M, cols):
            raise AssertionError("a preimage hands over Vecs")

        def buchberger(cols, ncomps, keyfn, *args, **kwargs):
            if keyfn.nreal is not None:
                runs.append((ncomps, keyfn.nreal))
            return real_run(cols, ncomps, keyfn, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(modules, "minimal_generators", minimal_generators)
            patch.setattr(modules, "_vec_rows", vec_rows)
            patch.setattr(modules, "buchberger", buchberger)
            thunk()
        assert len(handed) == 1
        return handed[0], runs

    return probe


@pytest.fixture
def preimages_vs_reference(monkeypatch):
    """check() compares every eliminating _block_basis call made since the
    fixture was set up with the references in oracles: the basis, kernel
    row for kernel row (terms in order), with the whole block basis
    filtered (ref_preimage_basis), and the kernel rows r_preimage makes of
    its rows, decoded by the reference, with the Vec-level
    canonicalization (ref_distinct_monic).  It returns counts of the
    calls, the rows, the rows an ideal lead reaches, those that vanish
    modulo I and those that meet an earlier row."""
    from collections import Counter

    from closurelab import modules
    from oracles import (ref_decoded_rows, ref_distinct_monic,
                         ref_preimage_basis)

    calls = []
    real = modules._block_basis

    def recording(*args, eliminate=False):
        basis = real(*args, eliminate=eliminate)
        if eliminate:
            calls.append((args, basis))
        return basis

    def check():
        seen = Counter()
        for args, basis in calls:
            ring = args[0]
            want = ref_preimage_basis(*args)
            assert (basis.ncomps, basis.order) == (want.ncomps, want.order)
            assert _kernel_rows(basis) == _kernel_rows(want), args
            got = ref_decoded_rows(ring, basis.ncomps, modules._distinct_monic(
                ring, basis.ncomps, basis._rows))
            assert got == ref_distinct_monic(ring, want), args
            forms = [ring.nf(v) for v in want]
            seen["calls"] += 1
            seen["rows"] += len(forms)
            seen["reached"] += sum(f != v for f, v in zip(forms, want))
            seen["vanish"] += sum(f.is_zero() for f in forms)
            seen["meet"] += (len(forms) - sum(f.is_zero() for f in forms)
                             - len(got))
        calls.clear()
        return seen

    monkeypatch.setattr(modules, "_block_basis", recording)
    return check


@pytest.fixture
def relation_bases_vs_reference(monkeypatch):
    """check() compares the basis of every module born with one
    (FPModule._with_basis) since the fixture was set up with the relation
    basis from scratch (oracles.ref_relation_basis), kernel row for
    kernel row (terms in order), and checks that the module keeps it, or,
    born free, keeps the ring's basis.  It returns counts of the modules
    born with relations, of those born free and of the basis rows."""
    from collections import Counter

    from closurelab import modules
    from oracles import ref_relation_basis

    born = []
    real = modules.FPModule._with_basis

    def recording(*args):
        module = real(*args)
        born.append((module, args[-1]))
        return module

    def check():
        seen = Counter()
        for module, basis in born:
            kept = module.relation_basis()
            if module.relations:
                assert kept is basis, module
            else:
                assert kept is module.ring.free_relation_basis(module.ngens)
            want = ref_relation_basis(module)
            assert (basis.ncomps, basis.order) == (want.ncomps, want.order)
            assert _kernel_rows(basis) == _kernel_rows(want), module
            seen["relations" if module.relations else "free"] += 1
            seen["rows"] += len(basis)
        born.clear()
        return seen

    monkeypatch.setattr(modules.FPModule, "_with_basis",
                        staticmethod(recording))
    return check
