"""closure-lab command line: run scripts, a small REPL, and verify-paper.

Exit codes: 0 all checks passed, 1 some check returned false, 2 error
(including an unexpected exception, reported as one `internal error:` line),
130 interrupted (one `interrupted` line; the REPL returns to its prompt).
"""

from __future__ import annotations

import argparse
import json
import sys

from .dsl import ScriptError, show_position
from .session import EvalError, Session, SessionVersionError


def _print_result(res, stream=None):
    stream = stream if stream is not None else sys.stdout
    if res.error is not None:
        error = res.error if res.where is None else \
            show_position(res.error, res.where)
        print(f"error: {error}", file=stream)
        return
    flag = ""
    if res.ok is True:
        flag = "ok    "
    elif res.ok is False:
        flag = "FALSE "
    line = f"{flag}{res.src}"
    print(line, file=stream)
    if res.result is not None:
        print(f"      -> {json.dumps(res.result, sort_keys=True)}",
              file=stream)
    if res.witness is not None:
        print(f"      witness: {json.dumps(res.witness, sort_keys=True)}",
              file=stream)


def run_script(path, as_json=False, out=None, seed=0):
    try:
        session = Session.load(path, seed=seed)
    except (OSError, ScriptError, SessionVersionError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not as_json:
        for _stmt, res in session.log:
            _print_result(res)
    if as_json or out:
        blob = json.dumps(session.report(include_timings=True), indent=2,
                          sort_keys=True)
        if not out:
            print(blob)
            return session.exit_code()
        try:
            with open(out, "w") as fh:
                fh.write(blob + "\n")
        except OSError as exc:
            print(f"error: cannot write {out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    return session.exit_code()


def repl(seed=0):
    session = Session(seed=seed)
    print("closure-lab repl; statements end with ';', :help for commands")
    buffer = ""
    while True:
        try:
            prompt = "... " if buffer.strip() else "> "
            line = input(prompt)
        except EOFError:
            print()
            return session.exit_code()
        except KeyboardInterrupt:
            print()
            buffer = ""
            continue
        stripped = line.strip()
        if not buffer and stripped.startswith(":"):
            parts = stripped.split(None, 1)
            cmd = parts[0]
            if cmd in (":quit", ":q"):
                return session.exit_code()
            if cmd == ":help":
                print("commands: :quit  :env  :save PATH  :load PATH")
            elif cmd == ":env":
                for name in sorted(session.env):
                    print(f"  {name}: {session.env[name][0]}")
            elif cmd in (":save", ":load") and len(parts) == 1:
                print(f"usage: {cmd} PATH")
            elif cmd == ":save":
                try:
                    session.save(parts[1])
                    print(f"saved {parts[1]}")
                except EvalError as exc:
                    print(f"error: {exc}")
            elif cmd == ":load":
                try:
                    session = Session.load(parts[1], seed=seed)
                    print(f"loaded {parts[1]}")
                except (OSError, ScriptError, SessionVersionError,
                        EvalError) as exc:
                    print(f"error: {exc}")
                except KeyboardInterrupt:
                    print("interrupted")    # the session before stays
            else:
                print("unknown command; :help")
            continue
        buffer += line + "\n"
        if ";" not in line:
            continue
        # an interrupt ends the statement running; those before it stay
        text, buffer, done, note = buffer, "", len(session.log), None
        try:
            session.eval_text(text)
        except ScriptError as exc:
            note = f"error: {exc}"
        except KeyboardInterrupt:
            note = "interrupted"
        for _stmt, res in session.log[done:]:
            _print_result(res)
        if note:
            print(note)


def verify_paper(as_json=False):
    from .acceptance import run_all
    try:
        results = run_all(verbose=not as_json)
    except (FileNotFoundError, ScriptError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if as_json:
        print(json.dumps([r.record() for r in results], indent=2,
                         sort_keys=True))
    ok = all(r.passed for r in results)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="closure-lab",
        description="exact closure-operation computations over graded rings")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a script file")
    p_run.add_argument("script")
    p_run.add_argument("--json", action="store_true", dest="as_json")
    p_run.add_argument("--out", default=None, help="write JSON report here")
    p_run.add_argument("--seed", type=int, default=0)

    p_repl = sub.add_parser("repl", help="interactive session")
    p_repl.add_argument("--seed", type=int, default=0)

    p_ver = sub.add_parser("verify-paper",
                           help="run the built-in acceptance suite")
    p_ver.add_argument("--json", action="store_true", dest="as_json")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_script(args.script, as_json=args.as_json, out=args.out,
                              seed=args.seed)
        if args.command == "repl":
            return repl(seed=args.seed)
        return verify_paper(as_json=args.as_json)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
