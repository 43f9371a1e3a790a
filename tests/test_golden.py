"""Byte-identity guard for the committed scripts.

`tests/golden/<script>.json` holds the report of `closure-lab run
scripts/<script>.clab --json` without its `timings` block, dumped with
indent 2 and sorted keys.  Reduced Groebner bases are canonical, so a
change to the engine that keeps its answers keeps these reports byte for
byte, digests included.  `tests/golden/verify_paper.json` holds the
records of the acceptance criteria without `seconds`; test_acceptance.py
compares them.  Regenerate a golden file only with a change that means to
alter that output.
"""

import json
from pathlib import Path

import pytest

from closurelab.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCRIPTS = sorted((Path(__file__).parent.parent / "scripts").glob("*.clab"))


def golden_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_report_matches_golden(script, capsys):
    assert main(["run", str(script), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timings"]
    assert golden_text(report) == (GOLDEN / f"{script.stem}.json").read_text()
