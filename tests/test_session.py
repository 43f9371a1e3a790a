"""Session evaluation, reporting, persistence, and the CLI entry point."""

import json

import pytest

from closurelab.cli import main
from closurelab.dsl import ScriptError, parse_script
from closurelab.session import (EvalError, Session, SessionVersionError)


EX81 = """
ring R = poly(Q, [a,b,c], wdegrevlex[2,2,2]) / (a*c - b^2);
ideal I = ideal(R, a^2, a*b, b*c, c^2);
ideal J = ideal(R, a^2, a*b, b*c, c^2, a*c);
module M = ideal_module(R, a, b);
closure clM = module_closure(M);
check member(a*c, closure(clM, I));
check equal(closure(clM, I), closure(clM, J));
check equal(product(I, M), product(J, M));
"""


def test_ex81_script_all_checks_pass():
    s = Session()
    results = s.eval_text(EX81)
    checks = [r for r in results if r.kind == "check"]
    assert len(checks) == 3
    assert all(r.ok for r in checks)
    assert s.exit_code() == 0


def test_member_certificate_surfaces():
    s = Session()
    results = s.eval_text(EX81)
    member = [r for r in results if "member" in r.src][0]
    assert member.certificate is not None


def test_dietz_script_value():
    s = Session()
    res = s.eval_text("""
ring P = poly(Q, [x,y], degrevlex);
check dietz_obstruction(integral_closure, [x,y], 3);
""")[-1]
    assert res.result == {"t": 1}
    assert res.ok is None          # valued check: no pass/fail gate


def test_failing_check_sets_exit_code():
    s = Session()
    s.eval_text("""
ring P = poly(Q, [x,y], degrevlex);
ideal I = ideal(P, x^2, y^2);
check member(x, I);
""")
    assert s.exit_code() == 1


def test_eval_error_sets_exit_code():
    s = Session()
    s.eval_text("""
ring P = poly(Q, [x,y], degrevlex);
check member(z, ideal(P, x));
""")
    assert s.exit_code() == 2


def test_equal_reports_witness():
    s = Session()
    res = s.eval_text("""
ring P = poly(Q, [x,y], degrevlex);
ideal I = ideal(P, x^2);
ideal J = ideal(P, x^2, x*y);
check equal(I, J);
""")[-1]
    assert res.ok is False
    assert res.witness == "x*y"


def test_mult_and_inline_ideals():
    s = Session()
    res = s.eval_text("""
ring H = poly(Q, [x,y,u,v], degrevlex) / (x*y - u*v);
ideal I = ideal(H, x^2, u^2);
ideal K = ideal(H, x, u);
check equal(mult(I, K), ideal(H, x^3, x^2*u, x*u^2, u^3));
""")[-1]
    assert res.ok is True


def test_subring_module_and_phantom_flow():
    s = Session()
    results = s.eval_text("""
ring R = subring(Q, [x,y], [x^4, x^3*y, x*y^3, y^4], [a,b,c,d]);
module S = subring_module(R, [1, x^2*y^2]);
closure clS = module_closure(S);
modify T = parameter_chain(R, clS, [a, d], 1);
check phantom(clS, T);
check phantom(trivial, T);
""")
    assert results[3].result["image_of_one_in_m"] is False
    assert results[4].ok is True
    assert results[5].ok is False


def test_regular_sequence_check():
    s = Session()
    res = s.eval_text("""
ring P = poly(Q, [x,y], degrevlex);
check regular_sequence([x, y]);
""")[-1]
    assert res.ok is True


def test_faithful_inference_from_module_closure():
    s = Session()
    res = s.eval_text("""
ring R = poly(Q, [a,b,c], wdegrevlex[2,2,2]) / (a*c - b^2);
module M = ideal_module(R, a, b);
closure clM = module_closure(M);
check faithful(clM);
""")[-1]
    assert res.ok is True


def test_syzygy_of_k_module_form():
    s = Session()
    res = s.eval_text("""
ring P = poly(Q, [x,y], degrevlex);
module Z = syzygy_of_k(P, 2);
""")[-1]
    assert res.result["ngens"] == 1
    assert res.result["relations"] == []


# --- reporting ---------------------------------------------------------------------


def test_report_schema():
    s = Session()
    s.eval_text(EX81)
    report = s.report(include_timings=True)
    assert report["version"] == "1"
    assert len(report["digest"]) == 64
    assert all("src" in st and "kind" in st for st in report["statements"])
    assert "timings" in report


def test_json_report_deterministic_modulo_timings():
    def run():
        s = Session()
        s.eval_text(EX81)
        return json.dumps(s.report(), sort_keys=True)
    assert run() == run()


def test_export_json_writes_digest(tmp_path):
    out = tmp_path / "report.json"
    s = Session()
    s.eval_text(EX81 + f'\nexport json "{out}";')
    payload = json.loads(out.read_text())
    assert payload["version"] == "1"
    assert payload["digest"] == s.digest()


@pytest.mark.parametrize("what", ["json", "session"])
def test_export_to_an_unwritable_path_is_a_user_error(tmp_path, capsys,
                                                      what):
    out = tmp_path / "missing_dir" / "y.out"
    script = tmp_path / "export.clab"
    script.write_text(f'ring P = poly(Q, [x], lex);\nexport {what} "{out}";\n')
    assert main(["run", str(script)]) == 2
    captured = capsys.readouterr()
    assert f"error: line 2, column 1: cannot write {out}: No such file or " \
        "directory" in captured.out
    assert "internal error" not in captured.out + captured.err
    s = Session()
    (res,) = s.eval_text(f'export {what} "{tmp_path}";')
    assert res.error == f"cannot write {tmp_path}: Is a directory"


# --- persistence --------------------------------------------------------------------


def test_session_save_load_round_trip(tmp_path):
    path = tmp_path / "state.clab"
    s = Session()
    s.eval_text(EX81)
    s.save(path)
    s2 = Session.load(path)
    assert s2.digest() == s.digest()
    assert sorted(s2.env) == sorted(s.env)


def test_session_load_empty_file(tmp_path):
    path = tmp_path / "empty.clab"
    path.write_text("")
    s = Session.load(path)
    assert s.env == {}


def test_session_load_unknown_version(tmp_path):
    path = tmp_path / "future.clab"
    path.write_text("# closure-lab-session v99 digest=feed\n")
    with pytest.raises(SessionVersionError):
        Session.load(path)


def test_session_load_digest_mismatch(tmp_path):
    path = tmp_path / "tampered.clab"
    path.write_text("# closure-lab-session v1 digest=deadbeef\n"
                    "ring P = poly(Q, [x], lex);\n")
    with pytest.raises(EvalError):
        Session.load(path)


@pytest.mark.parametrize("header, message", [
    ("# closure-lab-session v99 digest=feed", "unsupported session version"),
    ("# closure-lab-session v10", "unsupported session version"),
    ("# closure-lab-session v1 digest=deadbeef",
     "session digest mismatch after replay"),
])
def test_cli_run_checks_the_session_header(tmp_path, capsys, header,
                                           message):
    path = tmp_path / "session.clab"
    path.write_text(header + "\nring P = poly(Q, [x], lex);\n")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_cli_run_replays_a_saved_session(tmp_path, capsys):
    s = Session()
    s.eval_text("ring P = poly(Q, [x,y], degrevlex);\n"
                "ideal I = ideal(P, x);\n")
    s.save(tmp_path / "state.clab")
    assert main(["run", str(tmp_path / "state.clab")]) == 0
    assert "ideal I = ideal(P, x);" in capsys.readouterr().out


# --- CLI entry -------------------------------------------------------------------------


def test_cli_run_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.clab"
    good.write_text("ring P = poly(Q, [x,y], degrevlex);\n"
                    "ideal I = ideal(P, x);\n"
                    "check member(x^2, I);\n")
    assert main(["run", str(good)]) == 0
    bad = tmp_path / "bad.clab"
    bad.write_text("ring P = poly(Q, [x,y], degrevlex);\n"
                   "ideal I = ideal(P, x);\n"
                   "check member(y, I);\n")
    assert main(["run", str(bad)]) == 1
    broken = tmp_path / "broken.clab"
    broken.write_text("ring P = poly(Q, [x], lex) / (x* );\n")
    assert main(["run", str(broken)]) == 2
    capsys.readouterr()


VERONESE4 = "ring R = subring(Q, [x,y], [x^4, x^3*y, x*y^3, y^4], [a,b,c,d]);\n"


@pytest.mark.parametrize("gen", ["y^2", "x*y^2", "x + y"])
def test_cli_subring_module_on_one_generator(tmp_path, capsys, gen):
    script = tmp_path / "m.clab"
    script.write_text(VERONESE4 + f"module S = subring_module(R, [{gen}]);\n")
    assert main(["run", str(script), "--json"]) == 0
    module = json.loads(capsys.readouterr().out)["statements"][1]["result"]
    # R g is free: the relations found lie in the defining ideal of R
    assert module["ngens"] == 1 and module["relations"] == []


@pytest.mark.parametrize("gens, message", [
    ("1, 0", "module generator 2 is zero"),
    ("x^2 + y^4", "inhomogeneous module generator 1: y^4 + x^2"),
])
def test_cli_subring_module_rejects_bad_generators(tmp_path, capsys, gens,
                                                   message):
    script = tmp_path / "m.clab"
    script.write_text(VERONESE4 + f"module S = subring_module(R, [{gens}]);\n")
    assert main(["run", str(script), "--json"]) == 2
    statement = json.loads(capsys.readouterr().out)["statements"][1]
    assert statement["error"] == message


# "@" marks the position of the error: the misshapen argument, or the
# closing parenthesis where an argument is missing.
BAD_INTEGERS = [
    ("check dietz_obstruction(trivial, [x,y], @-3);",
     "argument 3 must be a nonnegative integer, found -3"),
    ("module Z = syzygy_of_k(P, @-1);",
     "argument 2 must be a nonnegative integer, found -1"),
    ("check trivial_on(trivial, P, @-2);",
     "argument 3 must be a nonnegative integer, found -2"),
    ("check dietz_obstruction(trivial, [x,y]@);", "argument 3 is missing"),
    ("modify T = parameter_chain(P, trivial, [x,y], @x);",
     "parameter_chain: argument 4 must be a nonnegative integer, found x"),
    ("check colon_capturing(trivial, P, [x,y], strongA, @t, 1);",
     "colon_capturing: argument 5 must be a nonnegative integer, found t"),
]


@pytest.mark.parametrize("stmt, message", BAD_INTEGERS,
                         ids=[f"{s.replace('@', '')}-{m}"
                              for s, m in BAD_INTEGERS])
def test_cli_bad_integer_argument_is_an_error(tmp_path, capsys, stmt,
                                              message):
    script = tmp_path / "neg.clab"
    script.write_text("ring P = poly(Q, [x,y], degrevlex);\n"
                      + stmt.replace("@", "") + "\n")
    assert main(["run", str(script), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    first = captured.err.splitlines()[0]
    assert first.startswith(f"error: line 2, column {stmt.index('@') + 1}: ")
    assert first.endswith(message)


MISSING_OR_MISSHAPEN = [
    ("check member(x@);", "member: argument 2 is missing"),
    ("check equal(I@);", "equal: argument 2 is missing"),
    ("check functorial(trivial, I@);", "functorial: argument 3 is missing"),
    ("check phantom(trivial@);", "phantom: argument 2 is missing"),
    ("check colon_capturing(trivial, P@);",
     "colon_capturing: argument 3 is missing"),
    ("check regular_sequence(@);", "regular_sequence: argument 1 is missing"),
    ("check faithful(@);", "faithful: argument 1 is missing"),
    ("check faithful(trivial, @[x]);",
     "faithful: argument 2 must be a name, found [x]"),
    ("check member(x, closure(trivial@));", "closure: argument 2 is missing"),
    ("check member(x, product(I@));", "product: argument 2 is missing"),
    ("check equal(I, mult(@x*y, I));",
     "mult: argument 1 must be a name, found x*y"),
    ("check member(x, ideal(@));", "ideal: argument 1 is missing"),
    ("module M = free(P@);", "free: argument 2 is missing"),
    ("module M = free(P, @2);", "free: argument 2 must be a [list], found 2"),
    ("module M = free(P, @[0, x]);",
     "free: degrees must be integers, found [0, x]"),
    ("module M = ideal_module(@x + y, x);",
     "ideal_module: argument 1 must be a name, found x + y"),
    ("closure c = module_closure(@);",
     "module_closure: argument 1 is missing"),
    ("modify T = parameter_chain(P, trivial@);",
     "parameter_chain: argument 3 is missing"),
]


@pytest.mark.parametrize("stmt, message", MISSING_OR_MISSHAPEN,
                         ids=[f"{s.replace('@', '')}-{m}"
                              for s, m in MISSING_OR_MISSHAPEN])
def test_missing_or_misshapen_argument_is_a_script_error(stmt, message):
    with pytest.raises(ScriptError) as err:
        parse_script(stmt.replace("@", ""))
    assert err.value.bare_message == message
    assert (err.value.line, err.value.col) == (1, stmt.index("@") + 1)


@pytest.mark.parametrize("stmt, column", [
    ("ideal I = ideal(P, " + "(" * 400 + "x" + ")" * 400 + ");", 120),
    # the first sign belongs to the expression, not to a factor
    ("ideal I = ideal(P, " + "-" * 2000 + "x);", 121),
    ("check dietz_obstruction(trivial, [x,y], " + "1" * 5000 + ");", 41),
    ("ideal I = ideal(P, x + " + "7" * 5000 + "*y);", 24),
    ("check member(x, I, I);", 20),
    ("check equal(I, mult(I, I, I));", 27),
], ids=["nested-parentheses", "nested-signs", "long-integer-argument",
        "long-integer-coefficient", "surplus-check-argument",
        "surplus-set-argument"])
def test_cli_input_beyond_parser_limits_is_a_positioned_error(
        tmp_path, capsys, stmt, column):
    script = tmp_path / "limits.clab"
    script.write_text("ring P = poly(Q, [x,y], degrevlex);\n" + stmt + "\n")
    assert main(["run", str(script)]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert err.startswith(f"error: line 2, column {column}: ")


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_failed_definition_binds_no_name(tmp_path, capsys, flags):
    """A definition whose result cannot be built (here: a coefficient too
    long to print) is an error and leaves its name unbound."""
    script = tmp_path / "big.clab"
    script.write_text("ring P = poly(Q, [x,y], degrevlex);\n"
                      "ideal I = ideal(P, 2^20000*x + y);\n"
                      "check member(x, I);\n")
    assert main(["run", str(script)] + flags) == 2
    captured = capsys.readouterr()
    assert "internal error" not in captured.out + captured.err
    if flags:
        statements = json.loads(captured.out)["statements"]
        assert "Exceeds the limit" in statements[1]["error"]
        assert statements[2]["error"] == "unknown name 'I'"
        assert "ok" not in statements[2]
    else:
        lines = captured.out.splitlines()
        assert lines[-6].startswith("error: line 2, column 1: Exceeds the "
                                    "limit")
        assert lines[-3:] == ["error: line 3, column 17: unknown name 'I'",
                              "  check member(x, I);", " " * 18 + "^"]


def test_unexpected_exception_is_an_internal_error(monkeypatch):
    s = Session()
    s.eval_text("ring P = poly(Q, [x,y], degrevlex);")

    def broken(stmt, res):
        raise KeyError("lost")

    monkeypatch.setattr(s, "_eval_ideal", broken)
    res, after = s.eval_text("ideal I = ideal(P, x);\n"
                             "ring Q2 = poly(Q, [z], degrevlex);")
    assert res.error == "internal error: KeyError: 'lost'"
    assert res.ok is None
    assert after.error is None
    assert s.exit_code() == 2


def test_cli_text_output_goes_to_current_stdout(tmp_path, capsys):
    script = tmp_path / "s.clab"
    script.write_text("ring P = poly(Q, [x,y], degrevlex);\n"
                      "ideal I = ideal(P, x);\n"
                      "check member(x^2, I);\n")
    assert main(["run", str(script)]) == 0
    out = capsys.readouterr().out
    assert "ok    check member(x^2, I);" in out.splitlines()


def test_cli_json_output(tmp_path, capsys):
    script = tmp_path / "s.clab"
    script.write_text("ring P = poly(Q, [x,y], degrevlex);\n"
                      "check dietz_obstruction(integral_closure, [x,y], 3);\n")
    code = main(["run", str(script), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["statements"][-1]["result"] == {"t": 1}


def test_cli_out_file(tmp_path, capsys):
    script = tmp_path / "s.clab"
    out = tmp_path / "o.json"
    script.write_text("ring P = poly(Q, [x,y], degrevlex);\n")
    assert main(["run", str(script), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["version"] == "1"
    capsys.readouterr()


@pytest.mark.parametrize("flags", [["--json"], []])
def test_cli_unwritable_out_is_an_error(tmp_path, capsys, flags):
    script = tmp_path / "s.clab"
    out = tmp_path / "missing" / "o.json"
    script.write_text("ring P = poly(Q, [x,y], degrevlex);\n")
    assert main(["run", str(script), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("argv", ["run", "verify-paper"])
def test_cli_unexpected_exception_is_an_internal_error(tmp_path, capsys,
                                                       monkeypatch, argv):
    import closurelab.acceptance

    def broken(*args, **kwargs):
        raise KeyError("lost")

    script = tmp_path / "s.clab"
    script.write_text("ring P = poly(Q, [x,y], degrevlex);\n")
    monkeypatch.setattr(Session, "report", broken)
    monkeypatch.setattr(closurelab.acceptance, "run_all", broken)
    args = ["run", str(script), "--json"] if argv == "run" else [argv]
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [
        "internal error: KeyError: 'lost'"]


def test_cli_missing_file(capsys):
    assert main(["run", "/nonexistent/path.clab"]) == 2
    capsys.readouterr()


def test_repl_subprocess_smoke(tmp_path):
    import subprocess
    import sys
    script = ("ring P = poly(Q, [x,y], degrevlex);\n"
              "ideal I = ideal(P, x^2, y^2);\n"
              "check member(x*y, closure(integral_closure, I));\n"
              ":env\n"
              f":save {tmp_path / 'state.clab'}\n"
              ":quit\n")
    proc = subprocess.run([sys.executable, "-m", "closurelab.cli", "repl"],
                          input=script, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0
    assert "ok" in proc.stdout
    assert (tmp_path / "state.clab").exists()


def test_cli_run_of_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin.clab"
    path.write_bytes(b"ring P = poly(Q, [x], lex);\n\xff\xfe\n")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: not UTF-8 text (line 2, byte 28)\n"
    with pytest.raises(EvalError, match="not UTF-8 text"):
        Session.load(path)


def test_load_drops_a_leading_byte_order_mark(tmp_path, capsys):
    """A script that starts with a UTF-8 byte-order mark runs as the same
    text without it, and a bad byte after the mark is reported at its
    offset in the file, the mark counted."""
    bom = b"\xef\xbb\xbf"
    plain = tmp_path / "plain.clab"
    plain.write_text(EX81)
    marked = tmp_path / "marked.clab"
    marked.write_bytes(bom + EX81.encode())
    assert main(["run", str(marked)]) == 0
    capsys.readouterr()
    assert Session.load(marked).digest() == Session.load(plain).digest()
    bad = tmp_path / "bad.clab"
    bad.write_bytes(bom + b"ring P = poly(Q, [x], lex);\n\xff\xfe\n")
    assert main(["run", str(bad)]) == 2
    assert capsys.readouterr().err == \
        f"error: {bad}: not UTF-8 text (line 2, byte 31)\n"


def test_load_reads_universal_newlines(tmp_path):
    crlf = tmp_path / "crlf.clab"
    crlf.write_bytes(EX81.replace("\n", "\r\n").encode())
    cr = tmp_path / "cr.clab"
    cr.write_bytes(EX81.replace("\n", "\r").encode())
    want = Session()
    want.eval_text(EX81)
    assert Session.load(crlf).digest() == want.digest()
    assert Session.load(cr).digest() == want.digest()


def test_repl_save_and_load_without_a_path_print_usage():
    import subprocess
    import sys
    script = ":save\n:load \n:env\n:quit\n"
    proc = subprocess.run([sys.executable, "-m", "closurelab.cli", "repl"],
                          input=script, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:] == [
        "> usage: :save PATH", "> usage: :load PATH", "> > "]


def test_repl_reports_unreadable_and_unwritable_files(tmp_path):
    """:load of a file that is not UTF-8 and :save to a missing directory
    print one error line each, and the REPL keeps running."""
    import subprocess
    import sys
    latin = tmp_path / "latin.clab"
    latin.write_bytes(b"\xff\xfe")
    unwritable = tmp_path / "missing_dir" / "x.clab"
    script = (f":load {latin}\n"
              "ring P = poly(Q, [x,y], degrevlex);\n"
              f":save {unwritable}\n"
              ":env\n"
              ":quit\n")
    proc = subprocess.run([sys.executable, "-m", "closurelab.cli", "repl"],
                          input=script, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert f"error: {latin}: not UTF-8 text (line 1, byte 0)" in proc.stdout
    assert (f"error: cannot write {unwritable}: No such file or directory"
            in proc.stdout)
    assert "  P: ring" in proc.stdout
    assert "internal error" not in proc.stdout + proc.stderr


def test_repl_load_of_a_file_that_does_not_parse(tmp_path):
    import subprocess
    import sys
    bad = tmp_path / "bad.clab"
    bad.write_text("ring P = poly(Q, [x], lex);\ncheck member(x*, P);\n")
    script = (f":load {bad}\n"
              "ring P = poly(Q, [x,y], degrevlex);\n"
              ":env\n"
              ":quit\n")
    proc = subprocess.run([sys.executable, "-m", "closurelab.cli", "repl"],
                          input=script, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "error: line 2, column 16: " in proc.stdout
    assert "  P: ring" in proc.stdout


@pytest.mark.parametrize("stmt, message", [
    ("check trivial_on(trivial, I, 3);", "'I' is an ideal, expected a ring"),
    ("check trivial_on(trivial, Z);", "unknown name 'Z'"),
    ("check colon_capturing(trivial, Z, [x], plain);", "unknown name 'Z'"),
    ("check colon_capturing(trivial, I, [x]);",
     "'I' is an ideal, expected a ring"),
])
def test_a_name_in_the_ring_slot_must_name_a_ring(stmt, message):
    s = Session()
    s.eval_text("ring P = poly(Q, [x,y], degrevlex);\n"
                "ideal I = ideal(P, x);\n")
    assert s.eval_text(stmt)[-1].error == message


def test_unknown_name_errors():
    s = Session()
    res = s.eval_text("ring P = poly(Q, [x], lex);\n"
                      "check member(x, closure(noSuchClosure, ideal(P, x)));\n")
    assert res[-1].error is not None
    res2 = s.eval_text("check faithful(P);")
    assert res2[-1].error is not None


def test_kind_mismatch_errors():
    s = Session()
    s.eval_text("ring P = poly(Q, [x,y], degrevlex);\n"
                "ideal I = ideal(P, x);\n")
    res = s.eval_text("closure c = module_closure(I);")
    assert res[-1].error is not None


def test_inhomogeneous_input_reports_error():
    s = Session()
    res = s.eval_text("ring P = poly(Q, [x,y], degrevlex);\n"
                      "ideal I = ideal(P, x^2 + y);\n")
    assert "inhomogeneous" in res[-1].error


def test_member_with_vector_literal():
    s = Session()
    res = s.eval_text("""
ring H = poly(Q, [x,y,u,v], degrevlex) / (x*y - u*v);
ideal I = ideal(H, x^2, u^2);
module M = ideal_module(H, x, u);
check member([x^2, 0], product(I, M));
check member([0, x*u], product(I, M));
""")
    assert res[-2].ok is True
    assert res[-1].ok is True


def test_nested_closure_idempotence_in_script():
    s = Session()
    res = s.eval_text(EX81 +
                      "check equal(closure(clM, I), "
                      "closure(clM, closure(clM, I)));\n")[-1]
    assert res.ok is True


def test_semi_residual_and_functorial_checks():
    s = Session()
    results = s.eval_text("""
ring R = poly(Q, [a,b,c], wdegrevlex[2,2,2]) / (a*c - b^2);
module M = ideal_module(R, a, b);
closure clM = module_closure(M);
ideal I = ideal(R, a^2, a*b, b*c, c^2);
check semi_residual(clM, closure(clM, I));
check functorial(clM, I, [a]);
""")
    assert results[-2].ok is True
    assert results[-1].ok is True


# --- where run-time errors are ---------------------------------------------


PXY = "ring P = poly(Q, [x, y], degrevlex);\n"
SUBRING_R = ("ring R = subring(Fp(5), [x, y], [x^4, x^3*y, x*y^3, y^4], "
             "[a, b, c, d]);\n")


@pytest.mark.parametrize("script,line,column,message", [
    # ParseError: at the character of the polynomial argument
    (SUBRING_R + "module S = subring_module(R, [a]);\n", 2, 31,
     "unknown variable 'a'"),
    (PXY + "ideal I = ideal(P, x^2,\n    x*y + z^2);\n", 3, 11,
     "unknown variable 'z'"),
    # a form feed breaks the line as a newline does
    ("ring P = poly(Q, [x, y], lex);\x0cideal I = ideal(P, x, q);\n", 2, 23,
     "unknown variable 'q'"),
    # EvalError about a name: at the name
    (PXY + "check member(x, J);\n", 2, 17, "unknown name 'J'"),
    (PXY + "ideal I = ideal(P, x);\nclosure c = module_closure(I);\n", 3, 28,
     "'I' is an ideal, expected a module"),
    # DomainError, UnsupportedInputError, FieldError: at the statement
    (PXY + "ideal I = ideal(P, x^2 + y);\n", 2, 1, "inhomogeneous"),
    (PXY + "ideal I = ideal(P, x^2147483648, y);\n", 2, 1,
     "exponents (2147483648, 0) out of range"),
    ("ring F = poly(Fp(4), [x], lex);\n", 1, 1, "4 is not prime"),
], ids=["parse-subring-generator", "parse-second-line",
        "parse-after-form-feed", "unknown-name",
        "kind-mismatch", "domain", "unsupported-exponent", "field"])
def test_runtime_errors_name_their_statement(tmp_path, capsys, script, line,
                                             column, message):
    """An error met while a statement runs names its line and column: the
    text output shows the source line with a caret, the JSON report has
    a where field; the exit code is 2."""
    path = tmp_path / "err.clab"
    path.write_text(script)
    assert main(["run", str(path)]) == 2
    out = capsys.readouterr().out.splitlines()
    source = script.splitlines()[line - 1]
    first = out.index(next(o for o in out if o.startswith("error: ")))
    assert out[first].startswith(f"error: line {line}, column {column}: "
                                 f"{message}"), out
    assert out[first + 1:first + 3] == ["  " + source,
                                        " " * (column + 1) + "^"]
    assert main(["run", str(path), "--json"]) == 2
    (bad,) = [s for s in json.loads(capsys.readouterr().out)["statements"]
              if "error" in s]
    assert bad["error"].startswith(message)
    assert bad["where"] == {"line": line, "column": column, "source": source}


def test_internal_errors_name_their_statement(monkeypatch):
    s = Session()

    def broken(stmt, res):
        raise KeyError("lost")

    monkeypatch.setattr(s, "_eval_ideal", broken)
    res = s.eval_text(PXY + "\n  ideal I = ideal(P, x);")[-1]
    assert res.error == "internal error: KeyError: 'lost'"
    assert res.record()["where"] == {"line": 3, "column": 3,
                                     "source": "  ideal I = ideal(P, x);"}


def test_statements_evaluated_alone_have_no_position():
    s = Session()
    (stmt,) = parse_script("check member(x, J);")
    res = s.eval_statement(stmt)
    assert res.error == "unknown name 'J'"
    assert "where" not in res.record()


def test_exponents_up_to_the_bound_and_past_it(tmp_path, capsys):
    """Exponents up to orders.EXP_BOUND run; a script with one past it is
    an error line at the first statement that orders it (the ideal, which
    prints its generators) and exit 2, with no traceback."""
    path = tmp_path / "big.clab"
    path.write_text(PXY + "ideal I = ideal(P, x^70000, y);\n"
                    "check member(x^70001, I);\n"
                    "check member(x^69999*y^3, I);\n")
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [o for o in out if o.startswith("ok")] == [
        "ok    check member(x^70001, I);",
        "ok    check member(x^69999*y^3, I);"]
    path.write_text(PXY + "ideal I = ideal(P, x^2147483648, y);\n"
                    "check member(x, I);\n")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "internal error" not in captured.out + captured.err
    assert "error: line 2, column 1: exponents (2147483648, 0) out of " \
        "range: monomial orders take exponents up to 2147483647" in \
        captured.out
