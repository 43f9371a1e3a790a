"""closure-lab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {paper,member,closure} --seed N
                             --seconds S --trace {0,1}

Run from the root of a source checkout; closure-lab is imported from its
`src/`.  One process, one thread, closed loop: each operation starts when
the previous one ends.  The amount of work is fixed by the workload and
`--seconds` (whole rounds, sized to take about that long), never by the
clock, so `wall_s` compares like with like.  Every reported time is in
seconds at reference speed (see ReferenceClock).

Set-up (import of closurelab, rings, modules and inputs) is repeated
SETUPS times from a fresh import and `setup_s` is the median.  The timed
section follows; `peak_rss_mb` is read when it ends; then the outputs are
checked apart from the program (see oracle.py).  With `--trace 1` the last
set-up and the timed section run under the outside-in tracer, and the
per-layer metrics replace the end-to-end ones.  Results and spans are also
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import oracle
import paper
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-ups per run: the median of several damps the noise of a short one.
SETUPS = {"paper": 15, "member": 3, "closure": 3}
CHECKED_PAIRS = 2        # of the six (S, N) pairs per module and round
# Reference clock (see ReferenceClock): sampling period, the size of the
# reference chunk, and the chunk's length at reference speed.
PERIOD = 0.05
REF_MODEL = oracle.RingModel(0, workloads.RINGS["xyuv"][1])
REF_CHUNK_S = 0.0004
# The engine slows down a little more than the chunk does: regressing log
# time on log chunk time gave slopes from 1.0 to 1.2 (per round within a
# run, and per run across ten seeds, on member, closure and paper).
SENSITIVITY = 1.1
# Length of one round (a pass of `paper`) in reference seconds, as measured;
# with --seconds it sets the number of rounds.
ROUND_SECONDS = {"paper": 6.2, "member": 0.72, "closure": 0.95}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "op_ms.p50": "ms", "op_ms.p90": "ms", "op_ms.p99": "ms"}


class SourceMissing(Exception):
    pass


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def forget_closurelab():
    """Drop every closurelab module and free what the last set-up built."""
    for name in [n for n in sys.modules
                 if n == "closurelab" or n.startswith("closurelab.")]:
        del sys.modules[name]
    gc.collect()


def import_closurelab():
    """Import closurelab from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "closurelab" / "__init__.py").is_file():
        raise SourceMissing(f"no closurelab sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cl = importlib.import_module("closurelab")
    if Path(cl.__file__).resolve().parent != (src / "closurelab").resolve():
        raise SourceMissing(f"closurelab was imported from {cl.__file__}")
    return cl


def setup(workload, seed, rounds, tracer=None):
    """Everything before the first timed operation; returns the state."""
    cl = import_closurelab()
    if workload == "paper":
        cli = importlib.import_module("closurelab.cli")
        importlib.import_module("closurelab.acceptance")
        if tracer:
            tracer.install()
        return cli, paper.script_paths(ROOT)
    if tracer:
        tracer.install()
    inputs = workloads.make_inputs(workload, seed, rounds)
    return inputs, workloads.build(cl, inputs)


def _log_error():
    traceback.print_exc(limit=4, file=sys.stderr)


def reference_chunk():
    """A fixed slice of work like the engine's inner loop, done by the
    oracle (no closurelab code): sparse polynomial products over Q on
    tuple exponents, and exact elimination."""
    model = REF_MODEL
    orc = oracle.ClosureOracle(model, [[model.embed({(1, 0, 0, 0): 1})]],
                               [model.embed({(2, 0, 0, 0): 1,
                                             (0, 1, 1, 0): -1})])
    return orc.closure_dim(4)


class ReferenceClock:
    """Converts raw times to seconds at reference speed.

    On a shared machine the same code runs at two speeds, about 1.7 times
    apart, switching every second or so.  A timer signal times
    `reference_chunk` every PERIOD seconds; between two samples, raw time
    counts at the rate (REF_CHUNK_S / mean chunk time of the two) **
    SENSITIVITY, and the samples' own time is left out.  Start it before
    the first timing and stop it after the last, then read intervals with
    `seconds`.
    """

    def __init__(self):
        self.starts, self.ends = [], []
        self._busy = False
        self._cum = None
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def _sample(self, *_signal):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_chunk()
        self.ends.append(time.perf_counter())
        self.starts.append(t0)
        self._busy = False

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        chunk = [e - s for s, e in zip(self.starts, self.ends)]
        self.rates = [(2 * REF_CHUNK_S / (a + b)) ** SENSITIVITY
                      for a, b in zip(chunk, chunk[1:])]
        self._cum = [0.0]
        for i, rate in enumerate(self.rates):
            self._cum.append(self._cum[-1]
                             + (self.starts[i + 1] - self.ends[i]) * rate)

    def at(self, t):
        """Reference seconds from the first sample to raw instant t."""
        i = max(0, bisect.bisect_right(self.ends, t) - 1)
        if i >= len(self.rates):
            return self._cum[-1]
        work = min(t, self.starts[i + 1]) - self.ends[i]
        return self._cum[i] + max(0.0, work) * self.rates[i]

    def seconds(self, t0, t1):
        return self.at(t1) - self.at(t0)


def timed(workload, state, seed, rounds, tracer):
    """The timed section.  Returns (op intervals as lists of raw (start,
    end) pairs, outputs, attempted, failed).  An operation of `paper` is a
    whole pass: its CLI calls, without what the benchmark does between."""
    intervals, outputs, failed = [], [], 0
    now = time.perf_counter
    if workload == "paper":
        cli, paths = state
        for k in range(rounds):
            if tracer:
                tracer.op = k
            parts, out = [], []
            for name, argv in paper.calls(paths, seed):
                t0 = now()
                res, bad = paper.run_call(cli, name, argv, _log_error)
                parts.append((t0, now()))
                out.append(res)
                failed += bad
            intervals.append(parts)
            outputs.append(out)
        return intervals, outputs, rounds * paper.OPS_PER_PASS, failed
    _inputs, built = state
    for ops in built:
        for clS, N, us in ops:
            calls = [(clS.member, u) for u in us] if workload == "member" \
                else [(clS.closure, None)]
            for fn, u in calls:
                if tracer:
                    tracer.op = len(intervals)
                t0 = now()
                try:
                    out = fn(u, N) if u is not None else fn(N)
                except Exception:  # a failed operation must not end the run
                    _log_error()
                    out = None
                    failed += 1
                intervals.append([(t0, now())])
                outputs.append(out)
    return intervals, outputs, len(intervals), failed


# --- checks apart from the program -------------------------------------------


def _terms(vec):
    """{exps: coeff} of a rank-one engine vector."""
    return {m: c for (_j, m), c in vec.terms.items()}


def canonical(workload, outputs):
    """Outputs as plain data: answers, closure generators, reports."""
    if workload == "member":
        return [None if o is None else bool(o.holds) for o in outputs]
    if workload == "closure":
        return [None if o is None else
                sorted(sorted((m, str(c)) for m, c in _terms(g).items())
                       for g in o.gens) for o in outputs]
    return outputs


def check(workload, inputs, outputs, seed):
    """Problems found; the oracle sees a seeded subset of the operations:
    CHECKED_PAIRS (S, N) pairs of every ring and module in every round."""
    if workload == "paper":
        problems = paper.check(outputs[0])
        if any(out != outputs[0] for out in outputs[1:]):
            problems.append("passes gave different outputs")
        return problems
    problems = []
    pick = random.Random(f"check:{workload}:{seed}")
    models = workloads.models()
    per_config = len(workloads.N_SHAPES)
    per_pair = len(workloads.U_LEVEL_STEPS) if workload == "member" else 1
    k = 0
    for cfgs in inputs:
        for cfg in cfgs:
            model = models[cfg["ring"], cfg["p"]]
            where = f"{cfg['ring']}/F{cfg['p'] or 'Q'}/{cfg['module']}"
            for j in pick.sample(range(per_config), CHECKED_PAIRS):
                n_terms, us = cfg["pairs"][j]
                orc = oracle.ClosureOracle(
                    model, workloads.module_embedding(model, cfg),
                    [model.embed(t) for t in n_terms])
                first = k + j * per_pair
                if workload == "member":
                    for u, got in zip(us, outputs[first:first + per_pair]):
                        if got is not None and \
                                got != orc.member(model.embed(u)):
                            problems.append(f"member {where}: {u} in "
                                            f"N={n_terms} answered {got}")
                elif outputs[first] is not None:
                    problems += _check_closure(model, orc, n_terms,
                                               outputs[first], where)
            k += per_config * per_pair
    return problems


def _check_closure(model, orc, n_terms, gens, where):
    """Problems with one closure result; gens are `canonical` generators,
    (exponents, coefficient text) pairs, which the oracle's field reads."""
    vecs = [[model.embed(dict(g))] for g in gens]
    problems = []
    for n in n_terms:
        if not oracle.in_span(model, vecs, [model.embed(n)]):
            problems.append(f"closure {where}: N={n_terms} not inside result")
    for v in vecs:
        if not orc.member(v[0]):
            problems.append(f"closure {where}: generator {v} of the result "
                            f"is not in the closure of N={n_terms}")
    top = max(sum(next(iter(n))) for n in n_terms) + 1
    for level in range(top + 1):
        degree = level * model.step
        got = oracle.span_dim(model, vecs, degree)
        want = orc.closure_dim(degree)
        if got != want:
            problems.append(f"closure {where}: N={n_terms} degree {degree}"
                            f" dimension {got}, linear algebra {want}")
    return problems


# --- main --------------------------------------------------------------------


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl, seed = args.workload, args.seed
    rounds = rounds_for(wl, args.seconds)

    tracer = None
    clock = ReferenceClock()
    setups = []
    state = None
    try:
        for k in range(SETUPS[wl]):
            if args.trace and k == SETUPS[wl] - 1:
                tracer = tracing.Tracer()
            state = None
            forget_closurelab()
            t0 = time.perf_counter()
            state = setup(wl, seed, rounds, tracer)
            setups.append((t0, time.perf_counter()))
    except (SourceMissing, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    intervals, outputs, attempted, failed = timed(wl, state, seed, rounds,
                                                  tracer)
    t1 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    clock.stop()
    if tracer:
        tracer.uninstall()
    wall = clock.seconds(t0, t1)
    setup_s = [clock.seconds(a, b) for a, b in setups]

    t_check = time.perf_counter()
    plain = canonical(wl, outputs)
    problems = check(wl, state[0] if wl != "paper" else None, plain, seed)
    t_check = time.perf_counter() - t_check
    digest = hashlib.sha256(json.dumps(plain, sort_keys=True, default=str)
                            .encode()).hexdigest()

    if tracer:
        values = tracer.summary()
        metrics = {name: {"value": v, "unit": tracing.unit_of(name)}
                   for name, v in values.items()}
    else:
        ms = [1000 * sum(clock.seconds(a, b) for a, b in parts)
              for parts in intervals]
        values = {"wall_s": wall, "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": peak_rss_mb,
                  "op_ms.p50": percentile(ms, 50),
                  "op_ms.p90": percentile(ms, 90),
                  "op_ms.p99": percentile(ms, 99)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    tag = f"{wl}-{seed}-{args.trace}"
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({**result, "rounds": rounds, "wall_s": wall,
                   "raw_wall_s": t1 - t0, "setup_s": setup_s,
                   "raw_setup_s": [b - a for a, b in setups],
                   "mean_rate": statistics.mean(clock.rates),
                   "results_sha256": digest,
                   "problems": problems[:50],
                   "absent": tracer.absent if tracer else []},
                  fh, indent=1, sort_keys=True)
    if tracer:
        tracer.write(OUT / f"trace-{wl}-{seed}.json")
        for name in tracer.absent:
            print(f"absent: {name}", file=sys.stderr)
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(f"{wl} seed {seed}: {rounds} rounds, {attempted} operations, "
          f"wall {wall:.2f} s (raw {t1 - t0:.2f} s), "
          f"checks {t_check:.2f} s, results {digest[:12]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
