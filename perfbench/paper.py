"""The `paper` workload: the headline user path, in-process through the CLI.

One pass is `closure-lab verify-paper --json` (ten acceptance criteria)
followed by `closure-lab run <script> --json --seed <seed>` on each of the
three committed scripts, all through `closurelab.cli.main` with standard
output captured.  The scripts use no sampling, so the seed reaches the
program but changes none of its work.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from oracle import ClosureOracle, RingModel, monomial_integral_member
from workloads import RINGS, VERONESE_S_EMBEDDING

SCRIPTS = ("integral_obstruction.clab", "square_subring.clab",
           "veronese_s2.clab")
CRITERIA = 10
OPS_PER_PASS = CRITERIA + len(SCRIPTS)

CONE = RingModel(0, RINGS["cone"][1])
VERONESE = RingModel(0, RINGS["ver"][1])
CONE_M = [CONE.embed({(1, 0, 0): 1}), CONE.embed({(0, 1, 0): 1})]  # (a, b)
VERONESE_S = [{m: 1} for m in VERONESE_S_EMBEDDING]

# What the paper and the scripts' comments say each script shows: every
# boolean check holds, and integral closure (not the trivial closure) has
# the parameter-power obstruction at t = 1.
EXPECTED_RESULTS = {
    "check dietz_obstruction(integral_closure, [x, y], 3);": {"t": 1},
    "check dietz_obstruction(trivial, [x, y], 3);": {"t": None},
}


def _cl_member(model, s_gens, n_exps, u_exps):
    """u in N^{cl_S}, with S by ambient generators and N, u by presentation
    monomials."""
    orc = ClosureOracle(model, [[s] for s in s_gens],
                        [model.embed({e: 1}) for e in n_exps])
    return orc.member(model.embed({u_exps: 1}))


# The scripts' `member` checks, rechecked apart from the engine.
MEMBER_CHECKS = {
    "check member(x*y, closure(integral_closure, ideal(P, x^2, y^2)));":
        lambda: monomial_integral_member((1, 1), [(2, 0), (0, 2)]),
    "check member(a*c, closure(clM, I));":
        lambda: _cl_member(CONE, CONE_M, [(2, 0, 0), (1, 1, 0), (0, 1, 1),
                                          (0, 0, 2)], (1, 0, 1)),
    "check member(b^2, closure(clS, A));":
        lambda: _cl_member(VERONESE, VERONESE_S, [(1, 0, 0, 0)],
                           (0, 2, 0, 0)),
    "check member(c^2, closure(clS, D));":
        lambda: _cl_member(VERONESE, VERONESE_S, [(0, 0, 0, 1)],
                           (0, 0, 2, 0)),
}


def script_paths(root):
    paths = [Path(root) / "scripts" / name for name in SCRIPTS]
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise FileNotFoundError("missing scripts: " + ", ".join(missing))
    return paths


def _cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def calls(paths, seed):
    """The CLI calls of one pass, as (name, argv)."""
    return [("verify-paper", ["verify-paper", "--json"])] + [
        (p.name, ["run", str(p), "--json", "--seed", str(seed)])
        for p in paths]


def run_call(cli, name, argv, on_error):
    """One CLI call; returns ((name, exit code, records), failed operations).
    Records are the JSON output with its timing fields removed, or None
    when the call raised or ended in an error (exit code 2)."""
    ops = CRITERIA if name == "verify-paper" else 1
    try:
        code, text = _cli(cli, argv)
        if code == 2:
            return (name, code, None), ops
        records = json.loads(text)
    except Exception:  # one failed operation must not end the run
        on_error()
        return (name, None, None), ops
    if name == "verify-paper":
        for rec in records:
            rec.pop("seconds", None)
    else:
        records.pop("timings", None)
    return (name, code, records), 0


def check(outputs):
    """Problems found in one pass's outputs (empty when all is right)."""
    problems = []
    _name, code, records = outputs[0]
    if records is not None:
        numbers = sorted(r.get("criterion") for r in records)
        if numbers != list(range(1, CRITERIA + 1)):
            problems.append(f"criteria reported: {numbers}")
        for rec in records:
            if rec.get("passed") is not True:
                problems.append(f"criterion {rec.get('criterion')} failed: "
                                f"{rec.get('detail')}")
        if code != 0:
            problems.append(f"verify-paper exit code {code}")
    seen = set()
    for name, code, report in outputs[1:]:
        if report is None:
            continue
        if code != 0:
            problems.append(f"{name}: exit code {code}")
        for st in report["statements"]:
            src = st["src"]
            seen.add(src)
            if "error" in st:
                problems.append(f"{name}: error in {src}: {st['error']}")
            elif src in EXPECTED_RESULTS:
                if st.get("result") != EXPECTED_RESULTS[src]:
                    problems.append(f"{name}: {src} gave {st.get('result')}")
            elif st["kind"] == "check" and st.get("ok") is not True:
                problems.append(f"{name}: {src} did not hold")
            if src in MEMBER_CHECKS and not MEMBER_CHECKS[src]():
                problems.append(f"{name}: oracle rejects {src}")
    if all(report is not None for _n, _c, report in outputs[1:]):
        for src in list(MEMBER_CHECKS) + list(EXPECTED_RESULTS):
            if src not in seen:
                problems.append(f"statement not reported: {src}")
    return problems
