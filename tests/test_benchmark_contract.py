"""The `paper` benchmark workload's own check, run on one pass.

`perfbench/paper.py` checks what the committed scripts and `verify-paper`
report against tables keyed on the scripts' statement lines
(`MEMBER_CHECKS`, `EXPECTED_RESULTS`) and on the ten criteria.  A change
to a script or a criterion that the workload would count as a failure
fails here first.  About half a second.
"""

import importlib.util
from pathlib import Path

from closurelab import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _paper_module(monkeypatch):
    """perfbench/paper.py, imported by path with the perfbench modules it
    imports by name (oracle, workloads) on the path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_paper",
                                                  PERFBENCH / "paper.py")
    paper = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(paper)
    return paper


def test_one_pass_of_the_paper_workload_checks_clean(monkeypatch, capsys):
    paper = _paper_module(monkeypatch)
    errors, outputs = [], []
    for name, argv in paper.calls(paper.script_paths(ROOT), 1):
        out, failed = paper.run_call(cli, name, argv,
                                     lambda: errors.append(name))
        assert failed == 0, name
        outputs.append(out)
    capsys.readouterr()
    assert errors == []
    assert paper.check(outputs) == []
