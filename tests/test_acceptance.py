"""Acceptance suite: every criterion must pass at exact equality.

Each test prints its one-line PASS/FAIL verdict (run pytest with -s to see
them); `closure-lab verify-paper` prints the same lines.  Each record,
without `seconds`, must also equal its entry in
`tests/golden/verify_paper.json` (see test_golden.py).  The tests after
them run `verify-paper` through the CLI, on a pool of two workers and
in-process, and check its records, its failures, the paper scripts that
state criteria 1-6, a worker that dies, and that no worker outlives it.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from closurelab import acceptance, session
from closurelab.cli import main
from closurelab.closure import CheckOutcome
from closurelab.dsl import parse_script
from closurelab.poly import ParseError

GOLDEN = {rec["criterion"]: rec for rec in json.loads(
    (Path(__file__).parent / "golden" / "verify_paper.json").read_text())}


@pytest.mark.parametrize("criterion", acceptance.CRITERIA,
                         ids=[f"criterion_{fn.number:02d}"
                              for fn in acceptance.CRITERIA])
def test_acceptance_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.detail
    record = result.record()
    del record["seconds"]
    assert record == GOLDEN[result.number]


# --- verify-paper through the CLI, on a pool of workers and in-process ------

WORKERS = pytest.mark.parametrize("workers", [2, 1],
                                  ids=["workers_2", "in_process"])


@pytest.fixture
def pinned(monkeypatch):
    """Pin the worker count of `run_all`; with more than one, check that
    nothing would keep it in-process.  A run that waits on a worker for
    two minutes fails the test."""
    def pin(workers):
        monkeypatch.setattr(acceptance, "_worker_count",
                            lambda units: min(units, workers))
        if workers > 1:
            assert threading.active_count() == 1

    def expire(_signum, _frame):
        raise TimeoutError("verify-paper still running after 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield pin
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _verify_paper_records(capsys):
    code = main(["verify-paper", "--json"])
    records = json.loads(capsys.readouterr().out)
    for rec in records:
        del rec["seconds"]
    return code, records


@WORKERS
def test_verify_paper_json_matches_golden(workers, pinned, capsys):
    pinned(workers)
    code, records = _verify_paper_records(capsys)
    assert code == 0
    assert records == list(GOLDEN.values())
    assert multiprocessing.active_children() == []


def _flip_phantom(monkeypatch):
    real = session.phantom_test
    monkeypatch.setattr(session, "phantom_test", lambda cl, M: CheckOutcome(
        not real(cl, M).holds))


def _shift_obstruction(monkeypatch):
    real = session.dietz_obstruction
    monkeypatch.setattr(session, "dietz_obstruction", lambda *args: (
        lambda t: None if t is None else t + 1)(real(*args)))


@WORKERS
@pytest.mark.parametrize("patch, number, detail", [
    (_flip_phantom, 6, "veronese_s2.clab line 27: check phantom(clS, T); "
     "does not hold"),
    (_shift_obstruction, 4, "integral_obstruction.clab line 7: check "
     "dietz_obstruction(integral_closure, [x, y], 3); does not read "
     '{"result": {"t": 1}}')], ids=["check", "value"])
def test_changed_engine_answer_fails_its_scripted_criterion(
        workers, patch, number, detail, pinned, monkeypatch, capsys):
    """Criteria 1-6 are the scripts' sections: an engine answer changed
    fails the criterion whose section asks for it, at the line of the
    statement, and no other."""
    patch(monkeypatch)
    pinned(workers)
    code, records = _verify_paper_records(capsys)
    assert code == 1
    assert records == [
        {**GOLDEN[number], "passed": False, "detail": detail}
        if rec["criterion"] == number else GOLDEN[rec["criterion"]]
        for rec in records]
    assert multiprocessing.active_children() == []


def test_a_set_up_error_fails_every_section(tmp_path, monkeypatch):
    name = "veronese_s2.clab"
    text = (acceptance.SCRIPTS / name).read_text()
    (tmp_path / name).write_text(text.replace("ideal(R, a);", "ideal(R, q);"))
    monkeypatch.setattr(acceptance, "SCRIPTS", tmp_path)
    results = acceptance._run_script(name)
    assert sorted(results) == [3, 5, 6]
    for result in results.values():
        assert not result.passed
        assert result.detail.startswith(
            "veronese_s2.clab line 8: ideal A = ideal(R, q); error: ")


def test_a_section_fails_without_a_check_or_a_valued_statement(
        tmp_path, monkeypatch):
    name = "integral_obstruction.clab"
    lines = (acceptance.SCRIPTS / name).read_text().splitlines(True)
    (tmp_path / name).write_text("".join(
        line for line in lines if not line.startswith("check member")))
    with monkeypatch.context() as patched:
        patched.setattr(acceptance, "SCRIPTS", tmp_path)
        result = acceptance._run_script(name)[4]
    assert (result.passed, result.detail) == (
        False, "integral_obstruction.clab: section 4 lacks a check")
    missing = "check gcc(trivial, R, [a, d]);"
    monkeypatch.setitem(acceptance.VALUES, 3, {missing: {"ok": True}})
    result = acceptance._run_script("veronese_s2.clab")[3]
    assert (result.passed, result.detail) == (
        False, f"veronese_s2.clab: section 3 lacks {missing}")


def test_paper_scripts_state_criteria_1_to_6():
    """Every statement of a paper script is in its set-up or in a section,
    the sections are criteria 1-6 with their titles, each holds a check,
    and each VALUES entry names a statement of its section."""
    stated = []
    for name, numbers in acceptance.PAPER_SCRIPTS.items():
        text = (acceptance.SCRIPTS / name).read_text()
        stmts, titles = acceptance.sections(text)
        assert [stmt for _l, _n, stmt, _s in stmts] == parse_script(text)
        assert tuple(titles) == numbers
        assert {n for _l, n, _s, _sp in stmts} <= {0, *numbers}
        for number in numbers:
            assert titles[number] == GOLDEN[number]["title"]
            mine = [stmt for _l, n, stmt, _s in stmts if n == number]
            assert any(stmt.kind == "check" for stmt in mine)
            assert set(acceptance.VALUES.get(number, ())) <= \
                {stmt.show() for stmt in mine}
        stated += numbers
    assert sorted(stated) == [1, 2, 3, 4, 5, 6]


def test_missing_paper_script_is_one_error_line(tmp_path, monkeypatch,
                                                capsys):
    for name in ("square_subring.clab", "hypersurface_xyuv.clab"):
        (tmp_path / name).write_text((acceptance.SCRIPTS / name).read_text())
    monkeypatch.setattr(acceptance, "SCRIPTS", tmp_path)
    assert main(["verify-paper"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: [Errno 2] No such file or directory: "
                                f"'{tmp_path / 'veronese_s2.clab'}'"]


def _patch_suite(monkeypatch, k, fn):
    suites = list(acceptance.PROPERTY_SUITES)
    name, _fn, count, seed = suites[k]
    suites[k] = (name, fn, count, seed)
    monkeypatch.setattr(acceptance, "PROPERTY_SUITES", tuple(suites))


@WORKERS
@pytest.mark.parametrize("exc, line", [
    (KeyError("lost"), "KeyError: 'lost'"),
    # its constructor needs more than the message, so it cannot be unpickled
    (ParseError("bad", "x", 0), "ParseError: bad (column 1)")],
    ids=["KeyError", "ParseError"])
def test_raising_suite_is_an_internal_error(workers, exc, line, pinned,
                                            monkeypatch, capsys):
    def raising(count, seed):
        raise exc

    pinned(workers)
    _patch_suite(monkeypatch, 1, raising)
    assert main(["verify-paper"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"internal error: {line}"]
    assert multiprocessing.active_children() == []


def test_dead_worker_unit_is_run_again_in_process(pinned, monkeypatch,
                                                  capsys):
    """A worker that dies, as under the OOM killer, does not hang the
    pass: its unit, and every unit still out of the broken pool, is run
    again in this process, the records are the golden ones, and no worker
    is left."""
    parent = os.getpid()
    _name, real, _count, _seed = acceptance.PROPERTY_SUITES[2]
    ran_here = []

    def dying(count, seed):
        if os.getpid() != parent:
            os._exit(3)
        ran_here.append(seed)
        return real(count, seed)

    _patch_suite(monkeypatch, 2, dying)
    pinned(2)
    code, records = _verify_paper_records(capsys)
    assert code == 0
    assert records == list(GOLDEN.values())
    assert len(ran_here) == 1
    assert multiprocessing.active_children() == []


def test_failing_suite_gives_the_in_process_detail(pinned, monkeypatch,
                                                   capsys):
    _patch_suite(monkeypatch, 3, lambda count, seed: (False, "broken"))
    seen = []
    for workers in (2, 1):
        pinned(workers)
        code, records = _verify_paper_records(capsys)
        assert code == 1
        assert multiprocessing.active_children() == []
        seen.append(records)
    assert seen[0] == seen[1]
    failed = [rec for rec in seen[0] if not rec["passed"]]
    assert failed == [{**GOLDEN[7], "passed": False,
                       "detail": "faithfulness and N+mM bound: broken"}]


def _python(code, **kwargs):
    return subprocess.Popen([sys.executable, "-c", code], text=True,
                            stderr=subprocess.PIPE, **kwargs)


def test_import_leaves_multiprocessing_unloaded():
    proc = _python("import sys, closurelab.cli, closurelab.acceptance\n"
                   "print('multiprocessing' in sys.modules, file=sys.stderr)")
    _out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0 and err.split() == ["False"]


def test_broken_stdout_pipe_leaves_no_child():
    proc = _python(
        "import os, sys\n"
        "from closurelab import acceptance, cli\n"
        "acceptance._worker_count = lambda units: min(units, 2)\n"
        "code = cli.main(['verify-paper'])\n"
        "null = os.path.samestat(os.fstat(1), os.stat(os.devnull))\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    child = True\n"
        "except ChildProcessError:\n"
        "    child = False\n"
        "print(code, null, child, file=sys.stderr)\n",
        stdout=subprocess.PIPE)
    assert proc.stdout.readline().startswith("PASS  criterion  1 ")
    proc.stdout.close()
    _out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err.split() == ["0", "True", "False"]


def test_interrupt_ends_every_worker():
    """An interrupt prints one line and exits 130, whatever interrupt
    handling the test runner passed down."""
    proc = _python("import signal, sys\n"
                   "from closurelab import acceptance, cli\n"
                   "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
                   "acceptance._worker_count = lambda units: min(units, 2)\n"
                   "sys.exit(cli.main(['verify-paper']))\n",
                   stdout=subprocess.PIPE, start_new_session=True)
    assert proc.stdout.readline().startswith("PASS  criterion  1 ")
    os.killpg(proc.pid, signal.SIGINT)
    _out, err = proc.communicate(timeout=120)
    assert proc.returncode == 130
    assert err.splitlines() == ["interrupted"]
    assert "ForkProcess" not in err         # the workers ignore the interrupt
    with pytest.raises(ProcessLookupError):  # and none is left in its group
        os.killpg(proc.pid, 0)
