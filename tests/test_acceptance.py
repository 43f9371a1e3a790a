"""Acceptance suite: every criterion must pass at exact equality.

Each test prints its one-line PASS/FAIL verdict (run pytest with -s to see
them); `closure-lab verify-paper` prints the same lines.  Each record,
without `seconds`, must also equal its entry in
`tests/golden/verify_paper.json` (see test_golden.py).
"""

import json
from pathlib import Path

import pytest

from closurelab import acceptance

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
