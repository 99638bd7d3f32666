"""Per-call times and page faults of one workload, in the benchmark's call order.

    python3 bench/sequence.py --workload forms-large --seed 1 --passes 5

Run from the repository root.  It runs one workload the way
perfbench/run.py does, with run.py's own functions: the workload from
perfbench/workloads.py (its surfaces from perfbench/surfaces.py) built
and warmed up SETUP_REPEATS times, then --passes passes of
`run.run_pass` over the call list in one process, with its speed probes
between calls and its sampler during them.  The only addition is a
wrapper around each call's run() that reads the minor page faults
(ru_minflt) it takes.  It prints one JSON line per call label, in call
order: the command, the median wall time in ms (unscaled, so only runs
on one machine compare), the median minor page faults and the outcomes,
one letter a pass: ok, breakdown or wrong.

A call timed on its own can read far from the same call in this order:
the heap the earlier calls leave decides how many fresh pages it
touches.  On a 2-core machine, `forms` on forms-large's F=200 file took
about 4.9 ms and 390-460 minor faults a call when repeated alone, but
about 3.6 ms and 0-2 faults in forms-large's order.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def counted(call, faults: list):
    """The call with its run() wrapped to append its minor page faults to faults."""

    def run_counted():
        before = minor_faults()
        try:
            return call.run()
        finally:
            faults.append(minor_faults() - before)

    return dataclasses.replace(call, run=run_counted)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    sys.dont_write_bytecode = True
    sys.path[:0] = [SRC, PERFBENCH]
    import run

    run.cap_blas_threads()  # before numpy is imported
    import brokensurf as bs
    import brokensurf.cli  # noqa: F401 - the CLI entry point is called in-process
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    tmp = tempfile.mkdtemp(prefix="sequence-")
    try:
        # set-up as run.main does it: build the workload and warm up every
        # command on the torus, SETUP_REPEATS times
        for _ in range(run.SETUP_REPEATS):
            shutil.rmtree(tmp)
            os.makedirs(tmp)
            work = workloads.WORKLOADS[args.workload](bs, args.seed, tmp)
            run.run_pass(workloads.warm_up(bs, tmp))
        faults, rows = [], {}
        calls = [counted(call, faults) for call in work.calls]
        for _ in range(args.passes):
            faults.clear()
            _, outcomes = run.run_pass(calls)
            for o, n in zip(outcomes, faults):
                runs = rows.setdefault(o.call.label, (o.call.command, []))[1]
                runs.append((1e3 * o.raw_seconds, n, o.status[0]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for label, (command, runs) in rows.items():
        ms, minflt, status = zip(*runs)
        print(json.dumps({
            "label": label,
            "command": command,
            "ms": round(statistics.median(ms), 4),
            "minflt": statistics.median(minflt),
            "outcomes": "".join(status),
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
