"""Outside-in tracer: wraps closurelab's public functions and methods.

The traced run replaces each function named in TARGETS at every place it
is bound in the loaded closurelab modules (modules.py and ring.py import
`buchberger` by name, so patching gb alone would miss their calls), and
each named method on its class.  Every call becomes a span (name, operation
index, parent span, start, end) kept in memory; self time is a span's
length minus the time covered by its child spans.  A name that no longer
exists is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# span name -> (module, attribute or Class.method, ...) bindings it covers
TARGETS = {
    "gb.buchberger": ("closurelab.gb", "buchberger"),
    "gb.extended_groebner": ("closurelab.gb", "extended_groebner"),
    "gb.normal_form": ("closurelab.gb", "GroebnerBasis.normal_form"),
    "ring.build": ("closurelab.ring", "make_quotient_ring",
                   "presented_subring"),
    "modules.tensor": ("closurelab.modules", "tensor"),
    "modules.r_span_basis": ("closurelab.modules", "r_span_basis"),
    "modules.r_preimage": ("closurelab.modules", "r_preimage"),
    "modules.minimalized": ("closurelab.modules", "Submodule.minimalized"),
    "closure.member": ("closurelab.closure", "TrivialClosure.member",
                       "ModuleClosure.member", "IntersectionClosure.member",
                       "MonomialIntegralClosure.member"),
    "closure.closure": ("closurelab.closure", "TrivialClosure.closure",
                        "ModuleClosure.closure", "IntersectionClosure.closure",
                        "MonomialIntegralClosure.closure"),
    "closure.newton": ("closurelab.closure", "newton_polyhedron_member"),
    "closure.checks": ("closurelab.closure", "check_faithfulness",
                       "check_functoriality", "check_semi_residuality",
                       "check_colon_capturing",
                       "check_generalized_colon_capturing", "phantom_test",
                       "dietz_obstruction", "is_trivial_on_sample"),
    "modify.parameter_chain": ("closurelab.modify", "parameter_chain"),
    "dsl.parse": ("closurelab.dsl", "parse_script"),
    "session.eval": ("closurelab.session", "Session.eval_statement"),
}
ACCEPTANCE = ("closurelab.acceptance", "CRITERIA")
CRITERIA = 10


def _order_id(keyfn):
    """Hashable description of a key function, closures included."""
    code = getattr(keyfn, "__code__", None)
    if code is None:
        return keyfn
    cells = tuple(_order_id(c.cell_contents)
                  for c in (keyfn.__closure__ or ()))
    return (keyfn.__qualname__, cells)


class Tracer:
    def __init__(self):
        self.spans = []          # (name, op, parent index, start, end)
        self.stack = []
        self.op = -1
        self.absent = []
        self.counts = dict.fromkeys(
            ("in_cols", "basis_size", "repeats", "comps", "min_in",
             "min_kept"), 0)
        self._seen_inputs = set()
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, self.op, parent, t0, t1)
            if count is not None:
                try:
                    count(args, kwargs, result)
                except (TypeError, KeyError, AttributeError):
                    if f"{name}:counter" not in self.absent:
                        self.absent.append(f"{name}:counter")
            return result

        return wrapper

    # -- per-layer counters ---------------------------------------------------

    def _count_buchberger(self, sig):
        def count(args, kwargs, result):
            b = sig.bind(*args, **kwargs)
            cols = b.arguments["cols"]
            ring = b.arguments.get("ring") or (cols[0].ring if cols else None)
            self.counts["in_cols"] += len(cols)
            self.counts["basis_size"] += len(result)
            key = (ring, b.arguments["ncomps"],
                   _order_id(b.arguments["keyfn"]),
                   tuple(frozenset(c.terms.items()) for c in cols))
            if key in self._seen_inputs:
                self.counts["repeats"] += 1
            self._seen_inputs.add(key)
        return count

    def _count_preimage(self, sig):
        def count(args, kwargs, result):
            b = sig.bind(*args, **kwargs)
            self.counts["comps"] += (b.arguments["ncomps"]
                                     + len(b.arguments["map_cols"]))
        return count

    def _count_minimalized(self, args, kwargs, result):
        self.counts["min_in"] += len(args[0].gens)
        self.counts["min_kept"] += len(result.gens)

    def _counter(self, name, fn):
        if name == "gb.buchberger":
            return self._count_buchberger(inspect.signature(fn))
        if name == "modules.r_preimage":
            return self._count_preimage(inspect.signature(fn))
        if name == "modules.minimalized":
            return self._count_minimalized
        return None

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target in the closurelab modules (importing the ones
        not loaded yet)."""
        mods = {}
        for modname, *_attrs in list(TARGETS.values()) + [ACCEPTANCE]:
            try:
                mods[modname] = importlib.import_module(modname)
            except ImportError:
                mods[modname] = None
        loaded = [m for n, m in sys.modules.items()
                  if n == "closurelab" or n.startswith("closurelab.")]
        for name, (modname, *attrs) in TARGETS.items():
            mod = mods[modname]
            for attr in attrs:
                owner_name, _, meth = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = vars(owner).get(meth) if owner is not None else None
                if not callable(fn):
                    self.absent.append(f"{name}:{attr}")
                    continue
                wrapper = self._wrap(name, fn, self._counter(name, fn))
                if owner_name:
                    self._set(owner, meth, wrapper)
                    continue
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, key, wrapper)
        self._install_criteria()
        return self

    def _install_criteria(self):
        acc = sys.modules.get(ACCEPTANCE[0])
        crit = getattr(acc, ACCEPTANCE[1], None)
        if not isinstance(crit, list):
            self.absent.append("acceptance.CRITERIA")
            return
        self._undo.append((crit, None, list(crit)))
        for i, fn in enumerate(crit):
            number = getattr(fn, "number", i + 1)
            crit[i] = self._wrap(f"acceptance.criterion_{number}", fn)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            if attr is None:
                owner[:] = value
            else:
                setattr(owner, attr, value)
        self._undo = []

    # -- results --------------------------------------------------------------

    def summary(self):
        """{metric name: value} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, _op, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s, total_s = {}, {}, {}
        for i, (name, _op, _parent, t0, t1) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[i])
            total_s[name] = total_s.get(name, 0.0) + (t1 - t0)
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        c = self.counts
        nb = calls.get("gb.buchberger", 0)
        out["gb.buchberger.in_cols"] = c["in_cols"]
        out["gb.buchberger.basis_size"] = c["basis_size"]
        out["gb.buchberger.repeat_share"] = c["repeats"] / nb if nb else 0.0
        out["modules.r_preimage.comps"] = c["comps"]
        out["modules.minimalized.kept_share"] = (
            c["min_kept"] / c["min_in"] if c["min_in"] else 0.0)
        for k in range(1, CRITERIA + 1):
            name = f"acceptance.criterion_{k}"
            out[f"{name}.total_s"] = total_s.get(name, 0.0)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"absent": self.absent,
                       "fields": ["name", "op", "parent", "start", "end"],
                       "spans": self.spans}, fh, separators=(",", ":"))


UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "in_cols": "count",
         "basis_size": "count", "comps": "count", "repeat_share": "ratio",
         "kept_share": "ratio"}


def unit_of(metric):
    return UNITS[metric.rsplit(".", 1)[1]]
