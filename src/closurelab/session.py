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
from .closure import (ClosureOp, IntersectionClosure, ModuleClosure,
                      MonomialIntegralClosure, PhantomInstance,
                      TrivialClosure, check_colon_capturing,
                      check_faithfulness, check_functoriality,
                      check_generalized_colon_capturing,
                      check_semi_residuality, dietz_obstruction,
                      is_trivial_on_sample, phantom_test)
from .dsl import (Call, CallStmt, ExportStmt, Name, Parser, RingDef,
                  ScriptError, print_statements)
from .field import QQ, prime_field
from .modify import parameter_chain
from .modules import (FPModule, ModuleMap, Submodule, free_module,
                      ideal_as_module, ideal_submodule, is_regular_sequence,
                      quotient_module, residue_field, ring_as_module,
                      scaled_gens)
from .orders import DEGREVLEX, LEX, wdegrevlex
from .poly import DomainError, ParseError, PolyRing, Vec
from .ring import QuotientRing, make_quotient_ring, presented_subring
from .sampling import sample_ideals, sample_monomial_ideals
from .values import Record

SCHEMA_VERSION = "1"
SESSION_HEADER = "# closure-lab-session v1"


class EvalError(ValueError):
    """A statement that cannot be evaluated; text, when given, is the
    argument (a name) that it is about."""

    def __init__(self, message, text=None):
        super().__init__(message)
        self.text = text


class SessionVersionError(ValueError):
    pass


class IdealValue(Record):
    __slots__ = ("ring", "elems", "submodule")

    def __init__(self, ring: QuotientRing, elems: list, submodule: Submodule):
        self.ring = ring
        self.elems = elems
        self.submodule = submodule

    def gens_strings(self):
        return [str(e) for e in self.elems]


class StatementResult(Record):
    __slots__ = ("src", "kind", "ok", "result", "witness", "certificate",
                 "error", "where", "seconds")

    def __init__(self, src: str, kind: str, ok: object = None,
                 result: object = None, witness: object = None,
                 certificate: object = None, error: str = None,
                 where: dict = None, seconds: float = 0.0):
        self.src = src
        self.kind = kind
        self.ok = ok            # True/False for boolean checks, None otherwise
        self.result = result
        self.witness = witness
        self.certificate = certificate
        self.error = error
        self.where = where      # locate() of the error in the script
        self.seconds = seconds

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
        if self.where is not None:
            out["where"] = self.where
        return out


def _located(exc, span):
    """(message, where) of an error of the statement at span: a parse
    error is placed at the character of its argument where parsing stopped
    (its message then needs no column of its own), an error about a name
    at that name, any other at the statement."""
    if isinstance(exc, ParseError):
        return exc.bare_message, span.where(exc.text, exc.pos)
    if isinstance(exc, EvalError):
        return str(exc), span.where(exc.text)
    return str(exc), span.where()


def _a(word):
    return ("an " if word[0] in "aeiou" else "a ") + word


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
            raise EvalError(f"unknown name {name!r}", name)
        k, v = self.env[name]
        if kind is not None and k != kind:
            raise EvalError(f"{name!r} is {_a(k)}, expected {_a(kind)}",
                            name)
        return v

    def _ring(self, name=None) -> QuotientRing:
        """The ring named name, or without a name the last one defined."""
        if name is not None:
            return self._lookup(name, "ring")
        if self.last_ring is None:
            raise EvalError("no ring defined yet")
        return self._lookup(self.last_ring, "ring")

    def _closure(self, name) -> ClosureOp:
        if name == "trivial":
            return TrivialClosure()
        if name == "integral_closure":
            return MonomialIntegralClosure()
        return self._lookup(name, "closure")

    @staticmethod
    def _elems(ring: QuotientRing, texts):
        return [ring.elem(t) for t in texts]

    # -- set expressions -------------------------------------------------------

    def _set_value(self, arg) -> Submodule:
        """Evaluate a set expression, a name or a set-head Call."""
        if isinstance(arg, Name):
            value = self._lookup(arg.value)  # raises for an unknown name
            kind = self.env[arg.value][0]
            if kind == "ideal":
                return value.submodule
            if kind == "module":
                return value.full_submodule()
            raise EvalError(f"{arg.value!r} does not name an ideal or module",
                            arg.value)
        args = arg.bound
        if arg.head == "closure":
            cl = self._closure(args["cl"])
            return cl.closure(self._set_value(args["N"]))
        if arg.head == "product":
            ideal = self._lookup(args["I"], "ideal")
            M = self._lookup(args["M"], "module")
            return Submodule(M, tuple(scaled_gens(M, ideal.elems)))
        if arg.head == "mult":
            I = self._lookup(args["I"], "ideal")
            J = self._lookup(args["J"], "ideal")
            gens = [x * y for x in I.elems for y in J.elems]
            return ideal_submodule(I.ring, gens)
        ring = self._ring(args["R"])
        return ideal_submodule(ring, self._elems(ring, args["gens"]))

    def _member_query(self, u, set_arg):
        """member(u, set): direct closure membership when set is closure(...)."""
        if isinstance(set_arg, Call) and set_arg.head == "closure":
            cl = self._closure(set_arg.bound["cl"])
            N = self._set_value(set_arg.bound["N"])
            out = cl.member(self._element_in(N.module, u), N,
                            want_certificate=True)
            return bool(out.holds), out.certificate
        N = self._set_value(set_arg)
        u = self._element_in(N.module, u)
        ok = N.contains(u)
        cert = N.certificate(u) if ok else None
        return ok, [str(c) for c in cert] if cert else None

    @staticmethod
    def _element_in(M: FPModule, u) -> Vec:
        """u, an element text or a tuple of them, as an element of M."""
        if isinstance(u, tuple):
            return M.vec(list(u))
        if M.ngens != 1:
            raise EvalError("element of a higher-rank module must be a "
                            "[vector]")
        return M.vec([u])

    # -- statement evaluation -----------------------------------------------------

    def eval_text(self, text: str):
        parser = Parser(text)
        stmts = parser.parse_script()
        return [self.eval_statement(s, span)
                for s, span in zip(stmts, parser.spans)]

    def eval_statement(self, stmt, span=None) -> StatementResult:
        """Evaluate one statement into a result record.  With span, the
        statement's dsl.Span, an error also records where it is (see
        _located)."""
        t0 = time.monotonic()
        res = StatementResult(src=stmt.show(), kind=stmt.kind)
        try:
            handler = getattr(self, f"_eval_{stmt.kind}")
            handler(stmt, res)
        except (EvalError, DomainError, ParseError, ScriptError,
                ValueError) as exc:
            res.error = str(exc)
            res.ok = None
            if span is not None:
                res.error, res.where = _located(exc, span)
        except Exception as exc:
            # A defect in the engine, not in the script: it is recorded on
            # the statement (exit code 2) and the session keeps going.
            res.error = f"internal error: {type(exc).__name__}: {exc}"
            res.ok = None
            if span is not None:
                res.where = span.where()
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

    def _eval_ideal(self, stmt: CallStmt, res):
        args = stmt.bound
        ring = self._ring(args["R"])
        elems = self._elems(ring, args["gens"])
        value = IdealValue(ring, elems, ideal_submodule(ring, elems))
        res.result = {"ring": args["R"], "gens": value.gens_strings()}
        self._bind(stmt.name, "ideal", value)

    def _eval_module(self, stmt: CallStmt, res):
        args = stmt.bound
        ring = self._ring(args["R"])
        if stmt.form == "ideal_module":
            M = ideal_as_module(ring, self._elems(ring, args["gens"]))
        elif stmt.form == "subring_module":
            if ring.presentation is None:
                raise EvalError("subring_module needs a subring-presented ring")
            sp = ring.presentation
            gens = [sp.target.parse(t) for t in args["gens"]]
            rels = sp.module_relation_columns(gens)
            M = FPModule(ring, tuple(g.wdeg() for g in gens), rels)
        elif stmt.form == "free":
            M = free_module(ring, list(args["degrees"]))
        else:
            M = residue_field(ring).syzygy(args["i"])
        res.result = M.descriptor()
        self._bind(stmt.name, "module", M)

    def _eval_closure(self, stmt: CallStmt, res):
        args = stmt.bound
        if stmt.form == "module_closure":
            cl = ModuleClosure(self._lookup(args["M"], "module"),
                               label=f"cl_{args['M']}")
        elif stmt.form == "intersect":
            parts = [self._closure(name) for name in args["parts"]]
            cl = IntersectionClosure(parts, label=stmt.name)
        else:
            cl = self._closure(stmt.form)
        res.result = {"closure": cl.describe()}
        self._bind(stmt.name, "closure", cl)

    def _eval_modify(self, stmt: CallStmt, res):
        args = stmt.bound
        ring = self._ring(args["R"])
        cl = self._closure(args["cl"])
        xs = self._elems(ring, args["xs"])
        bound = args["deg_bound"]
        if bound is None:
            bound = self.deg_bound
        trace = parameter_chain(ring, cl, xs, args["steps"],
                                degree_bound=bound)
        res.result = trace.descriptor()
        self._bind(stmt.name, "trace", trace)

    def _eval_check(self, stmt: CallStmt, res):
        fn, args = stmt.form, stmt.bound
        if fn == "member":
            res.ok, res.certificate = self._member_query(args["u"],
                                                         args["N"])
            return
        if fn == "equal":
            a = self._set_value(args["A"])
            b = self._set_value(args["B"])
            if a.module != b.module:
                raise EvalError("cannot compare submodules of different "
                                "ambient modules")
            ok = a.same_as(b)
            res.ok = ok
            res.result = {"left": _submodule_gens(a),
                          "right": _submodule_gens(b)}
            if not ok:
                g = b.first_outside(a.gens)
                if g is None:
                    g = a.first_outside(b.gens)
                res.witness = str(g if a.module.ngens > 1 else g.component(0))
            return
        if fn == "phantom":
            cl = self._closure(args["cl"])
            kind, value = self.env.get(args["M"], (None, None))
            if kind == "trace":
                M = value.current
            elif kind == "module":
                M = value
            else:
                raise EvalError(f"{args['M']!r} is not a module or trace")
            res.ok = bool(phantom_test(
                cl, PhantomInstance.from_module(M)).holds)
            return
        if fn == "regular_sequence":
            ring = self._ring(args["R"])
            M = self._lookup(args["M"], "module") if args["M"] is not None \
                else ring_as_module(ring)
            out = is_regular_sequence(self._elems(M.ring, args["xs"]), M)
            res.ok = bool(out)
            if not out:
                res.witness = str(out.witness) if out.witness else out.note
            return
        cl = self._closure(args["cl"])
        if fn == "functorial":
            N = self._set_value(args["N"])
            ring = N.ring
            J = args["J"]
            J = self._elems(ring, J) if isinstance(J, tuple) else \
                self._lookup(J, "ideal").elems
            RJ = quotient_module(ring, J)
            if N.module.ngens != 1 or N.module.relations:
                raise EvalError("functorial check expects N inside R")
            f = ModuleMap(N.module, RJ, [[ring.one()]], check=False)
            out = check_functoriality(cl, f, N)
            res.ok = bool(out.holds)
            res.witness = out.witness
            return
        if fn == "semi_residual":
            out = check_semi_residuality(cl, self._set_value(args["N"]))
            res.ok = bool(out.holds)
            res.witness = out.witness
            res.result = {"note": out.note} if out.note else None
            return
        if fn == "faithful":
            ring = cl.S.ring if args["R"] is None and \
                isinstance(cl, ModuleClosure) else self._ring(args["R"])
            out = check_faithfulness(cl, ring)
            res.ok = bool(out.holds)
            res.witness = out.witness
            return
        ring = self._ring(args["R"])
        if fn == "trivial_on":
            if isinstance(cl, MonomialIntegralClosure):
                sample = sample_monomial_ideals(ring, args["count"],
                                                self.seed)
            else:
                sample = sample_ideals(ring, args["count"], self.seed)
            out = is_trivial_on_sample(cl, sample)
            res.result = {"trivial": bool(out.holds)}
            if not out.holds:
                N, g = out.witness
                res.witness = {
                    "ideal": _submodule_gens(N),
                    "element": str(g.component(0)),
                }
            return
        xs = self._elems(ring, args["xs"])
        if fn == "dietz_obstruction":
            res.result = {"t": dietz_obstruction(cl, ring, xs, args["t"])}
            return
        if fn == "gcc":
            out = check_generalized_colon_capturing(cl, ring, xs)
        else:
            out = check_colon_capturing(cl, ring, xs, args["variant"],
                                        t=args["t"], a=args["a"])
        res.ok = bool(out.holds)
        res.witness = out.witness

    def _eval_export(self, stmt: ExportStmt, res):
        if stmt.what == "json":
            payload = self.report(include_timings=True)
            _write_text(stmt.path, json.dumps(payload, indent=2,
                                              sort_keys=True))
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
        """Write the session file; EvalError when path cannot be written."""
        _write_text(path, f"{SESSION_HEADER} digest={self.digest()}\n"
                    f"{self.script_text()}\n")

    @classmethod
    def load(cls, path, deg_bound=12, seed=0) -> "Session":
        """Evaluate a script or session file, read as UTF-8 text after any
        leading byte-order mark, with universal newlines.  A file that is
        not raises EvalError naming the file offset of the first bad byte.
        A session file's header is checked: an unsupported version
        raises SessionVersionError before anything runs, and a failed
        statement or a digest other than the recorded one raises EvalError
        after the replay."""
        with open(path, "rb") as fh:
            data = fh.read()
        body = data.removeprefix(b"\xef\xbb\xbf")
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = body.count(b"\n", 0, exc.start) + 1
            raise EvalError(f"{path}: not UTF-8 text (line {line}, byte "
                            f"{len(data) - len(body) + exc.start})") from None
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        session = cls(deg_bound=deg_bound, seed=seed)
        first = text.split("\n", 1)[0]
        header = first.split()
        if header[:2] != SESSION_HEADER.split()[:2]:
            session.eval_text(text)
            return session
        if header[:3] != SESSION_HEADER.split():
            raise SessionVersionError(
                f"unsupported session version: {first.strip()}")
        session.eval_text(text)
        errors = [r for _s, r in session.log if r.error]
        if errors:
            raise EvalError(f"replay failed: line {errors[0].where['line']}: "
                            f"{errors[0].error}")
        digests = [f[len("digest="):] for f in header[3:]
                   if f.startswith("digest=")]
        if digests and digests[0] != session.digest():
            raise EvalError("session digest mismatch after replay")
        return session


def _write_text(path, text):
    """Write text to path; an OS error becomes an EvalError, a user error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise EvalError(
            f"cannot write {path}: {exc.strerror or exc}") from None
