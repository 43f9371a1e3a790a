"""Acceptance suite: every criterion must pass at exact equality.

Each test prints its one-line PASS/FAIL verdict (run pytest with -s to see
them); `closure-lab verify-paper` prints the same lines.  Each record,
without `seconds`, must also equal its entry in
`tests/golden/verify_paper.json` (see test_golden.py).  The tests after
them run `verify-paper` through the CLI, on a pool of two workers and
in-process, and check its records, its failures, a worker that dies, and
that no worker outlives it.
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

from closurelab import acceptance
from closurelab.cli import main
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
    proc = _python("from closurelab import acceptance, cli\n"
                   "acceptance._worker_count = lambda units: min(units, 2)\n"
                   "cli.main(['verify-paper'])\n",
                   stdout=subprocess.PIPE, start_new_session=True)
    assert proc.stdout.readline().startswith("PASS  criterion  1 ")
    os.killpg(proc.pid, signal.SIGINT)
    _out, err = proc.communicate(timeout=120)
    assert proc.returncode == -signal.SIGINT
    assert err.splitlines()[-1] == "KeyboardInterrupt"
    assert "ForkProcess" not in err         # the workers ignore the interrupt
    with pytest.raises(ProcessLookupError):  # and none is left in its group
        os.killpg(proc.pid, 0)
