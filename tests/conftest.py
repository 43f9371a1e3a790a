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


@pytest.fixture
def raw_preimage(monkeypatch):
    """probe(thunk) calls thunk and returns the generators it hands to
    Submodule.minimalized, which it must call once, and its preimage runs
    (the Buchberger runs under a block order) as (ncomps, nreal) pairs."""
    from closurelab import modules

    def probe(thunk):
        handed, runs = [], []
        real_min, real_run = modules.Submodule.minimalized, modules.buchberger

        def minimalized(self):
            handed.append(list(self.gens))
            return real_min(self)

        def buchberger(cols, ncomps, keyfn, *args, **kwargs):
            if keyfn.nreal is not None:
                runs.append((ncomps, keyfn.nreal))
            return real_run(cols, ncomps, keyfn, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(modules.Submodule, "minimalized", minimalized)
            patch.setattr(modules, "buchberger", buchberger)
            thunk()
        assert len(handed) == 1
        return handed[0], runs

    return probe
