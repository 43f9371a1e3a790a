"""Session environment, statement evaluation, persistence, reporting.

A session maps names to rings, ideals, modules, closures and modification
traces, and appends one result record per evaluated statement.  Replaying
the logged statements from an empty session reproduces the environment
bit-exactly; the environment digest is a sha256 over a canonical dump
(timings never enter digests).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from .closure import (ClosureOp, IntersectionClosure, ModuleClosure,
                      MonomialIntegralClosure, PhantomInstance,
                      TrivialClosure, check_colon_capturing,
                      check_faithfulness, check_functoriality,
                      check_generalized_colon_capturing,
                      check_semi_residuality, dietz_obstruction,
                      is_trivial_on_sample, phantom_test)
from .dsl import (Call, CheckStmt, ClosureDef, Expr, ExportStmt, IdealDef,
                  IntArg, ListArg, ModifyStmt, ModuleDef, Name, RingDef,
                  ScriptError, StrArg, parse_script, print_statements)
from .field import QQ, prime_field
from .gb import Vec
from .modify import parameter_chain
from .modules import (FPModule, ModuleMap, Submodule, free_module,
                      ideal_as_module, ideal_submodule, is_regular_sequence,
                      quotient_module, residue_field, ring_as_module,
                      scaled_gens)
from .orders import DEGREVLEX, LEX, wdegrevlex
from .poly import DomainError, ParseError, PolyRing
from .ring import QuotientRing, make_quotient_ring, presented_subring
from .sampling import sample_ideals, sample_monomial_ideals

SCHEMA_VERSION = "1"
SESSION_HEADER = "# closure-lab-session v1"


class EvalError(ValueError):
    pass


class SessionVersionError(ValueError):
    pass


@dataclass
class IdealValue:
    ring: QuotientRing
    elems: list
    submodule: Submodule

    def gens_strings(self):
        return [str(e) for e in self.elems]


@dataclass
class StatementResult:
    src: str
    kind: str
    ok: object = None          # True/False for boolean checks, None otherwise
    result: object = None
    witness: object = None
    certificate: object = None
    error: str = None
    seconds: float = 0.0

    def record(self):
        out = {"src": self.src, "kind": self.kind}
        if self.ok is not None:
            out["ok"] = self.ok
        if self.result is not None:
            out["result"] = self.result
        if self.witness is not None:
            out["witness"] = self.witness
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.error is not None:
            out["error"] = self.error
        return out


def _submodule_gens(sub: Submodule):
    if sub.module.ngens == 1:
        return sorted(str(g.component(0)) for g in sub.gens)
    return sorted(str(g) for g in sub.gens)


class Session:
    def __init__(self, deg_bound: int = 12, seed: int = 0):
        self.env: dict = {}
        self.log: list = []
        self.last_ring: str = None
        self.deg_bound = deg_bound
        self.seed = seed

    # -- lookups -------------------------------------------------------------

    def _bind(self, name, kind, value):
        """Bind a defined value; called only once the statement's result
        is built, so a failed definition binds nothing."""
        self.env[name] = (kind, value)
        if kind == "ring":
            self.last_ring = name

    def _lookup(self, name, kind=None):
        if name not in self.env:
            raise EvalError(f"unknown name {name!r}")
        k, v = self.env[name]
        if kind is not None and k != kind:
            raise EvalError(f"{name!r} is a {k}, expected a {kind}")
        return v

    def _ring(self, name=None) -> QuotientRing:
        if name is not None:
            return self._lookup(name, "ring")
        if self.last_ring is None:
            raise EvalError("no ring defined yet")
        return self._lookup(self.last_ring, "ring")

    def _closure_arg(self, arg) -> ClosureOp:
        if isinstance(arg, Name):
            if arg.value == "trivial":
                return TrivialClosure()
            if arg.value == "integral_closure":
                return MonomialIntegralClosure()
            return self._lookup(arg.value, "closure")
        raise EvalError(f"expected a closure, found {arg.show()}")

    def _maybe_ring_arg(self, args, idx):
        """Optional ring-name argument at position idx; returns (ring, next)."""
        if idx < len(args) and isinstance(args[idx], Name) and \
                args[idx].value in self.env and \
                self.env[args[idx].value][0] == "ring":
            return self._ring(args[idx].value), idx + 1
        return self._ring(), idx

    def _elems(self, ring: QuotientRing, listarg):
        if not isinstance(listarg, ListArg):
            raise EvalError(f"expected a [list], found {listarg.show()}")
        out = []
        for item in listarg.items:
            out.append(ring.elem(self._arg_text(item)))
        return out

    @staticmethod
    def _arg(fn, args, idx):
        """Argument idx of fn; a missing one is an EvalError."""
        if idx >= len(args):
            raise EvalError(f"{fn}: argument {idx + 1} is missing")
        return args[idx]

    def _name_arg(self, fn, args, idx):
        """Argument idx of fn as a name, bare or quoted."""
        arg = self._arg(fn, args, idx)
        if not isinstance(arg, (Name, StrArg)):
            raise EvalError(f"{fn}: argument {idx + 1} must be a name, "
                            f"found {arg.show()}")
        return arg.value

    def _list_arg(self, fn, args, idx):
        """The items of argument idx of fn, a [list]."""
        arg = self._arg(fn, args, idx)
        if not isinstance(arg, ListArg):
            raise EvalError(f"{fn}: argument {idx + 1} must be a [list], "
                            f"found {arg.show()}")
        return arg.items

    def _int_arg(self, fn, args, idx):
        """Argument idx of fn as a nonnegative integer."""
        arg = self._arg(fn, args, idx)
        if not isinstance(arg, IntArg) or arg.value < 0:
            raise EvalError(f"{fn}: argument {idx + 1} must be a "
                            f"nonnegative integer, found {arg.show()}")
        return arg.value

    @staticmethod
    def _arg_text(arg):
        if isinstance(arg, (Name, Expr)):
            return arg.show()
        if isinstance(arg, IntArg):
            return str(arg.value)
        raise EvalError(f"expected an element expression, found {arg.show()}")

    # -- set expressions -------------------------------------------------------

    def _set_value(self, arg) -> Submodule:
        """Evaluate a set expression to a Submodule."""
        if isinstance(arg, Name):
            value = self._lookup(arg.value)  # raises for an unknown name
            kind = self.env[arg.value][0]
            if kind == "ideal":
                return value.submodule
            if kind == "module":
                return value.full_submodule()
            raise EvalError(f"{arg.value!r} does not name an ideal or module")
        if isinstance(arg, Call):
            head, args = arg.head, arg.args
            if head == "closure":
                cl = self._closure_arg(self._arg(head, args, 0))
                inner = self._set_value(self._arg(head, args, 1))
                return cl.closure(inner)
            if head == "product":
                ideal = self._lookup(self._name_arg(head, args, 0), "ideal")
                M = self._lookup(self._name_arg(head, args, 1), "module")
                return Submodule(M, tuple(scaled_gens(M, ideal.elems)))
            if head == "mult":
                a = self._lookup(self._name_arg(head, args, 0), "ideal")
                b = self._lookup(self._name_arg(head, args, 1), "ideal")
                gens = [x * y for x in a.elems for y in b.elems]
                return ideal_submodule(a.ring, gens)
            if head == "ideal":
                ring = self._ring(self._name_arg(head, args, 0))
                elems = [ring.elem(self._arg_text(x)) for x in args[1:]]
                return ideal_submodule(ring, elems)
        raise EvalError(f"cannot evaluate set expression {arg.show()}")

    def _member_query(self, u_arg, set_arg):
        """member(u, set): direct closure membership when set is closure(...)."""
        if isinstance(set_arg, Call) and set_arg.head == "closure":
            cl = self._closure_arg(self._arg("closure", set_arg.args, 0))
            N = self._set_value(self._arg("closure", set_arg.args, 1))
            u = self._element_in(N.module, u_arg)
            out = cl.member(u, N, want_certificate=True)
            return bool(out.holds), out.certificate
        N = self._set_value(set_arg)
        u = self._element_in(N.module, u_arg)
        ok = N.contains(u)
        cert = N.certificate(u) if ok else None
        return ok, [str(c) for c in cert] if cert else None

    def _element_in(self, M: FPModule, arg) -> Vec:
        if isinstance(arg, ListArg):
            return M.vec([self._arg_text(x) for x in arg.items])
        if M.ngens != 1:
            raise EvalError("element of a higher-rank module must be a "
                            "[vector]")
        return M.vec([self._arg_text(arg)])

    # -- statement evaluation -----------------------------------------------------

    def eval_text(self, text: str):
        stmts = parse_script(text)
        return [self.eval_statement(s) for s in stmts]

    def eval_statement(self, stmt) -> StatementResult:
        t0 = time.monotonic()
        res = StatementResult(src=stmt.show(), kind=stmt.kind)
        try:
            handler = getattr(self, f"_eval_{stmt.kind}")
            handler(stmt, res)
        except (EvalError, DomainError, ParseError, ScriptError,
                ValueError) as exc:
            res.error = str(exc)
            res.ok = None
        except Exception as exc:
            # A defect in the engine, not in the script: it is recorded on
            # the statement (exit code 2) and the session keeps going.
            res.error = f"internal error: {type(exc).__name__}: {exc}"
            res.ok = None
        res.seconds = time.monotonic() - t0
        self.log.append((stmt, res))
        return res

    def _eval_ring(self, stmt: RingDef, res):
        fld = QQ if stmt.field_spec[0] == "Q" else prime_field(stmt.field_spec[1])
        if stmt.form == "poly":
            kind = stmt.order_spec[0]
            if kind == "lex":
                order = LEX
            elif kind == "degrevlex":
                order = DEGREVLEX
            else:
                order = wdegrevlex(stmt.order_spec[1])
            amb = PolyRing(stmt.vars, fld, order)
            rels = [amb.parse(t) for t in stmt.relations]
            ring = make_quotient_ring(amb, rels)
        else:
            target = PolyRing(stmt.vars, fld, DEGREVLEX)
            images = [target.parse(t) for t in stmt.images]
            names = stmt.pres_names or None
            ring = presented_subring(images, names=names, field=fld,
                                     target_ring=target)
        res.result = ring.descriptor()
        self._bind(stmt.name, "ring", ring)

    def _eval_ideal(self, stmt: IdealDef, res):
        ring = self._ring(stmt.ring)
        elems = [ring.elem(t) for t in stmt.polys]
        value = IdealValue(ring, elems, ideal_submodule(ring, elems))
        res.result = {"ring": stmt.ring, "gens": value.gens_strings()}
        self._bind(stmt.name, "ideal", value)

    def _eval_module(self, stmt: ModuleDef, res):
        form, args = stmt.form, stmt.args
        ring = self._ring(self._name_arg(form, args, 0))
        if form == "ideal_module":
            gens = [ring.elem(self._arg_text(a)) for a in args[1:]]
            M = ideal_as_module(ring, gens)
        elif form == "subring_module":
            if ring.presentation is None:
                raise EvalError("subring_module needs a subring-presented ring")
            sp = ring.presentation
            gens = [sp.target.parse(self._arg_text(a))
                    for a in self._list_arg(form, args, 1)]
            rels = sp.module_relation_columns(gens)
            M = FPModule(ring, tuple(g.wdeg() for g in gens), rels)
        elif form == "free":
            degrees = self._list_arg(form, args, 1)
            if not all(isinstance(a, IntArg) for a in degrees):
                raise EvalError(f"free: degrees must be integers, found "
                                f"{args[1].show()}")
            M = free_module(ring, [a.value for a in degrees])
        elif form == "syzygy_of_k":
            M = residue_field(ring).syzygy(self._int_arg(form, args, 1))
        else:
            raise EvalError(f"unknown module form {stmt.form!r}")
        res.result = M.descriptor()
        self._bind(stmt.name, "module", M)

    def _eval_closure(self, stmt: ClosureDef, res):
        if stmt.form == "trivial":
            cl = TrivialClosure()
        elif stmt.form == "integral_closure":
            cl = MonomialIntegralClosure()
        elif stmt.form == "module_closure":
            name = self._name_arg(stmt.form, stmt.args, 0)
            cl = ModuleClosure(self._lookup(name, "module"),
                               label=f"cl_{name}")
        else:
            parts = [self._closure_arg(a) for a in stmt.args]
            cl = IntersectionClosure(parts, label=stmt.name)
        res.result = {"closure": cl.describe()}
        self._bind(stmt.name, "closure", cl)

    def _eval_modify(self, stmt: ModifyStmt, res):
        form, args = stmt.form, stmt.args
        ring = self._ring(self._name_arg(form, args, 0))
        cl = self._closure_arg(self._arg(form, args, 1))
        xs = self._elems(ring, self._arg(form, args, 2))
        steps = self._int_arg(form, args, 3)
        bound = self._int_arg(form, args, 4) \
            if len(args) > 4 else self.deg_bound
        trace = parameter_chain(ring, cl, xs, steps, degree_bound=bound)
        res.result = trace.descriptor()
        self._bind(stmt.name, "trace", trace)

    def _eval_check(self, stmt: CheckStmt, res):
        fn = stmt.fn
        args = stmt.args
        if fn == "member":
            ok, cert = self._member_query(self._arg(fn, args, 0),
                                          self._arg(fn, args, 1))
            res.ok = ok
            res.certificate = cert
            return
        if fn == "equal":
            a = self._set_value(self._arg(fn, args, 0))
            b = self._set_value(self._arg(fn, args, 1))
            if a.module != b.module:
                raise EvalError("cannot compare submodules of different "
                                "ambient modules")
            ok = a.same_as(b)
            res.ok = ok
            res.result = {"left": _submodule_gens(a),
                          "right": _submodule_gens(b)}
            if not ok:
                for g in a.gens:
                    if not b.contains(g):
                        res.witness = str(g if a.module.ngens > 1
                                          else g.component(0))
                        break
                else:
                    for g in b.gens:
                        if not a.contains(g):
                            res.witness = str(g if a.module.ngens > 1
                                              else g.component(0))
                            break
            return
        if fn == "functorial":
            cl = self._closure_arg(self._arg(fn, args, 0))
            N = self._set_value(self._arg(fn, args, 1))
            ring = N.ring
            J_arg = self._arg(fn, args, 2)
            J = [ring.elem(self._arg_text(x)) for x in J_arg.items] \
                if isinstance(J_arg, ListArg) else \
                self._lookup(self._name_arg(fn, args, 2), "ideal").elems
            RJ = quotient_module(ring, J)
            if N.module.ngens != 1 or N.module.relations:
                raise EvalError("functorial check expects N inside R")
            f = ModuleMap(N.module, RJ, [[ring.one()]], check=False)
            out = check_functoriality(cl, f, N)
            res.ok = bool(out.holds)
            res.witness = out.witness
            return
        if fn == "semi_residual":
            cl = self._closure_arg(self._arg(fn, args, 0))
            N = self._set_value(self._arg(fn, args, 1))
            out = check_semi_residuality(cl, N)
            res.ok = bool(out.holds)
            res.witness = out.witness
            res.result = {"note": out.note} if out.note else None
            return
        if fn == "faithful":
            cl = self._closure_arg(self._arg(fn, args, 0))
            if len(args) > 1:
                ring = self._ring(self._name_arg(fn, args, 1))
            elif isinstance(cl, ModuleClosure):
                ring = cl.S.ring
            else:
                ring = self._ring()
            out = check_faithfulness(cl, ring)
            res.ok = bool(out.holds)
            res.witness = out.witness
            return
        if fn == "colon_capturing":
            cl = self._closure_arg(self._arg(fn, args, 0))
            ring, idx = self._maybe_ring_arg(args, 1)
            xs = self._elems(ring, self._arg(fn, args, idx))
            variant = self._name_arg(fn, args, idx + 1) \
                if len(args) > idx + 1 else "plain"
            t = self._int_arg(fn, args, idx + 2) \
                if len(args) > idx + 2 else None
            a = self._int_arg(fn, args, idx + 3) \
                if len(args) > idx + 3 else None
            out = check_colon_capturing(cl, ring, xs, variant, t=t, a=a)
            res.ok = bool(out.holds)
            res.witness = out.witness
            return
        if fn == "gcc":
            cl = self._closure_arg(self._arg(fn, args, 0))
            ring, idx = self._maybe_ring_arg(args, 1)
            xs = self._elems(ring, self._arg(fn, args, idx))
            out = check_generalized_colon_capturing(cl, ring, xs)
            res.ok = bool(out.holds)
            res.witness = out.witness
            return
        if fn == "phantom":
            cl = self._closure_arg(self._arg(fn, args, 0))
            name = self._name_arg(fn, args, 1)
            kind, value = self.env.get(name, (None, None))
            if kind == "trace":
                M = value.current
            elif kind == "module":
                M = value
            else:
                raise EvalError(f"{name!r} is not a module or trace")
            out = phantom_test(cl, PhantomInstance.from_module(M))
            res.ok = bool(out.holds)
            res.certificate = out.data.get("certificate")
            return
        if fn == "dietz_obstruction":
            cl = self._closure_arg(self._arg(fn, args, 0))
            ring, idx = self._maybe_ring_arg(args, 1)
            xs = self._elems(ring, self._arg(fn, args, idx))
            tmax = self._int_arg(fn, args, idx + 1)
            t = dietz_obstruction(cl, ring, xs, tmax)
            res.result = {"t": t}
            return
        if fn == "regular_sequence":
            ring, idx = self._maybe_ring_arg(args, 0)
            xs_arg = self._arg(fn, args, idx)
            M = self._lookup(self._name_arg(fn, args, idx + 1), "module") \
                if len(args) > idx + 1 else ring_as_module(ring)
            xs = self._elems(M.ring, xs_arg)
            out = is_regular_sequence(xs, M)
            res.ok = bool(out)
            if not out:
                res.witness = str(out.witness) if out.witness else out.note
            return
        if fn == "trivial_on":
            cl = self._closure_arg(self._arg(fn, args, 0))
            ring, idx = self._maybe_ring_arg(args, 1)
            count = self._int_arg(fn, args, idx) if len(args) > idx else 10
            if isinstance(cl, MonomialIntegralClosure):
                sample = sample_monomial_ideals(ring, count, self.seed)
            else:
                sample = sample_ideals(ring, count, self.seed)
            out = is_trivial_on_sample(cl, sample)
            res.result = {"trivial": bool(out.holds)}
            if not out.holds:
                N, g = out.witness
                res.witness = {
                    "ideal": _submodule_gens(N),
                    "element": str(g.component(0)),
                }
            return
        raise EvalError(f"unknown check {fn!r}")

    def _eval_export(self, stmt: ExportStmt, res):
        if stmt.what == "json":
            payload = self.report(include_timings=True)
            with open(stmt.path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            res.result = {"written": stmt.path}
        else:
            self.save(stmt.path)
            res.result = {"written": stmt.path}

    # -- reporting and persistence ---------------------------------------------

    def digest(self) -> str:
        items = []
        for name in sorted(self.env):
            kind, value = self.env[name]
            if kind == "ring":
                desc = value.descriptor()
            elif kind == "ideal":
                desc = value.gens_strings()
            elif kind == "module":
                desc = value.descriptor()
            elif kind == "closure":
                desc = value.describe()
            else:
                desc = value.descriptor()
            items.append((name, kind, desc))
        blob = json.dumps(items, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def report(self, include_timings=False) -> dict:
        out = {
            "version": SCHEMA_VERSION,
            "digest": self.digest(),
            "statements": [r.record() for _s, r in self.log],
        }
        if include_timings:
            out["timings"] = {
                "total_s": round(sum(r.seconds for _s, r in self.log), 6),
                "statements_s": [round(r.seconds, 6) for _s, r in self.log],
            }
        return out

    def exit_code(self) -> int:
        if any(r.error for _s, r in self.log):
            return 2
        if any(r.ok is False for _s, r in self.log):
            return 1
        return 0

    def script_text(self) -> str:
        return print_statements([s for s, _r in self.log])

    def save(self, path):
        header = f"{SESSION_HEADER} digest={self.digest()}\n"
        with open(path, "w") as fh:
            fh.write(header)
            fh.write(self.script_text())
            fh.write("\n")

    @classmethod
    def load(cls, path, deg_bound=12, seed=0) -> "Session":
        with open(path) as fh:
            text = fh.read()
        if not text.strip():
            return cls(deg_bound=deg_bound, seed=seed)
        first = text.splitlines()[0]
        if first.startswith("# closure-lab-session"):
            if not first.startswith(SESSION_HEADER):
                raise SessionVersionError(
                    f"unsupported session version: {first.strip()}")
            expected = None
            if "digest=" in first:
                expected = first.split("digest=", 1)[1].strip()
            body = "\n".join(text.splitlines()[1:])
            session = cls(deg_bound=deg_bound, seed=seed)
            session.eval_text(body)
            errors = [r.error for _s, r in session.log if r.error]
            if errors:
                raise EvalError("replay failed: " + errors[0])
            if expected is not None and session.digest() != expected:
                raise EvalError("session digest mismatch after replay")
            return session
        session = cls(deg_bound=deg_bound, seed=seed)
        session.eval_text(text)
        return session
