"""Benchmark for brokensurf: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload ball-deep --seed 1 --seconds 40 --trace 0

Run from the repository root.  The package is imported from `src/` (it
is not installed).  One process, one caller: each call starts after the
previous one returns, and the workload's call list is repeated as whole
passes until the next pass would overrun `--seconds`.  With `--trace 0`
the last stdout line carries the end-to-end metrics; with `--trace 1` it
carries the per-layer metrics from traced passes, alternated with
untraced ones to measure the tracing overhead.  Earlier stdout lines
record the environment, each surface's census and the work counters.
See NOTES.md for the workloads, metrics and known failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter

now = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5

# Times are scaled to a machine on which the probe loop runs at
# PROBE_REF_NS per step.  On a shared 2-core box the speed flips between
# two levels about 1.7x apart every few seconds.  A call's wall time is
# multiplied by the reference step time over the mean step time of the
# probes around it: one before, one after, and one every SAMPLE_S while it
# runs, taken from a SIGALRM handler (NOTES.md, Steadiness).
PROBE_REF_NS = 83.3
PROBE_STEPS = 6000
SAMPLE_STEPS = 1000
SAMPLE_S = 0.01


def probe(steps: int = PROBE_STEPS) -> float:
    """Nanoseconds per step of a fixed pure-Python loop."""
    t0 = now()
    s = 0.0
    for i in range(steps):
        s += math.sqrt(i) * 1.5
    return 1e9 * (now() - t0) / steps


class SpeedSampler:
    """Probe step times taken by a timer signal while a call runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe(SAMPLE_STEPS))

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def scale_factor(before: float, after: float, during) -> float:
    steps = [before, after, *during]
    return PROBE_REF_NS * len(steps) / sum(steps)


def cap_blas_threads() -> str:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)
    return os.environ["OPENBLAS_NUM_THREADS"]


def environment(blas_cap: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_cap,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def source_digest() -> str:
    """Hash of the package and benchmark sources: keys the counter record."""
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "brokensurf"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def run_pass(calls, tracer=None):
    """Run every call once, in order; returns (scaled pass seconds, outcomes).

    The pass time is the sum of the calls' scaled times, so it leaves out
    the probes and the oracle checks between calls.
    """
    from workloads import Outcome

    outcomes = []
    sampler = SpeedSampler()
    before = min(probe(), probe())
    for call in calls:
        for path in call.out_files:
            if os.path.exists(path):
                os.remove(path)
        if tracer is not None:
            tracer.call_id += 1
        with sampler:
            t0 = now()
            try:
                result = call.run()
            except Exception as exc:  # noqa: BLE001 - any escape is a wrong outcome
                result = exc
                reason = f"raised {type(exc).__name__}: {exc}"
            else:
                reason = None
            seconds = now() - t0
        after = min(probe(), probe())
        if reason is None:
            try:
                reason = call.check(result)
            except Exception as exc:  # noqa: BLE001 - malformed output
                reason = f"oracle raised {type(exc).__name__}: {exc}"
        if reason is None:
            status = "ok"
        elif reason.startswith("breakdown") and call.known_defect:
            status = "breakdown"
        else:
            status = "wrong"
        size = sum(os.path.getsize(p) for p in call.out_files if os.path.exists(p))
        scaled = seconds * scale_factor(before, after, sampler.samples)
        outcomes.append(
            Outcome(call, scaled, seconds, status, "" if status == "ok" else reason, size)
        )
        before = after
    return sum(o.seconds for o in outcomes), outcomes


def pass_counters(outcomes) -> dict:
    return {
        "out_bytes": sum(o.out_bytes for o in outcomes),
        "outcomes": "".join(o.status[0] for o in outcomes),
    }


def call_medians(passes) -> dict:
    """label -> (command, the call's median scaled seconds over the passes)."""
    per_call = {}
    for _, outcomes in passes:
        for o in outcomes:
            per_call.setdefault(o.call.label, (o.call.command, []))[1].append(o.seconds)
    return {label: (cmd, statistics.median(t)) for label, (cmd, t) in per_call.items()}


def end_to_end(passes, setup_s) -> dict:
    """wall_s sums each call's median; a command metric averages them.

    Taking each call's median over the passes first drops the passes that
    a burst of load on the machine slowed down.
    """
    from workloads import COMMANDS

    medians = call_medians(passes)
    metrics = {"wall_s": (sum(t for _, t in medians.values()), "s"),
               "setup_s": (setup_s, "s")}
    for cmd in COMMANDS:
        times = [t for c, t in medians.values() if c == cmd]
        metrics[f"{cmd}_ms"] = (1e3 * statistics.fmean(times), "ms")
    outcomes = [o for _, outs in passes for o in outs]
    metrics["ok_frac"] = (sum(o.status == "ok" for o in outcomes) / len(outcomes), "1")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (peak, "MB")
    return metrics


LAYER_UNITS = {"_ms": "ms", "_us": "us", "_bytes": "B", "_log10": "log10", "_frac": "1"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def check_counter_record(key: str, counters: dict) -> str | None:
    """Compare with the counters an earlier run of the same seed stored."""
    path = os.path.join(STATE, "counters", key + ".json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        if before != counters:
            return f"work counters differ from an earlier run with the same seed ({path})"
        return None
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counters, fh, sort_keys=True)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "brokensurf", "__init__.py")):
        print(f"cannot find the package sources under {SRC}", file=sys.stderr)
        return 1
    blas_cap = cap_blas_threads()
    sys.dont_write_bytecode = True
    sys.path[:0] = [SRC, HERE]

    before = min(probe(), probe())
    t0 = now()
    import brokensurf as bs
    import brokensurf.cli  # noqa: F401 - the CLI entry point is called in-process

    import workloads
    from tracing import WORK_COUNTERS, Tracer

    import_s = (now() - t0) * scale_factor(before, min(probe(), probe()), ())
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 1

    os.makedirs(STATE, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=STATE)
    try:
        # Set-up: generate the seeded surfaces, write the input files and
        # warm up every command once on the torus; repeated, median taken.
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(tmp)
            os.makedirs(tmp)
            before = min(probe(), probe())
            t0 = now()
            work = workloads.WORKLOADS[args.workload](bs, args.seed, tmp)
            run_pass(workloads.warm_up(bs, tmp))
            seconds = now() - t0
            setups.append(seconds * scale_factor(before, min(probe(), probe()), ()))
        setup_s = import_s + statistics.median(setups)

        print(json.dumps({"environment": environment(blas_cap)}, sort_keys=True))
        for s in work.surfaces:
            print(json.dumps({"surface": s.name, "census": s.census}, sort_keys=True))

        tracer = Tracer() if args.trace else None
        passes, traced, layer_rows = [], [], []
        started = now()
        while True:
            passes.append(run_pass(work.calls))
            if tracer is not None:
                tracer.reset()
                with tracer.installed():
                    traced.append(run_pass(work.calls, tracer))
                # Put the layer times on the same scaled clock as the calls.
                outs = traced[-1][1]
                factor = sum(o.seconds for o in outs) / sum(o.raw_seconds for o in outs)
                layer_rows.append({
                    k: v * factor if k.endswith(("_ms", "_us")) else v
                    for k, v in tracer.layer_metrics().items()
                })
            spent = now() - started
            rounds = len(passes)
            if rounds >= 2 and spent * (rounds + 1) / rounds > args.seconds:
                break

        problems = []
        counters = [pass_counters(outs) for _, outs in passes + traced]
        if any(c != counters[0] for c in counters):
            problems.append("work counters differ between passes of one run")
        record = {"passes": counters[0]}
        if layer_rows:
            works = [{k: row[k] for k in WORK_COUNTERS} for row in layer_rows]
            if any(w != works[0] for w in works):
                problems.append("traced work counters differ between passes")
            record["layers"] = works[0]
        key = f"{source_digest()}-{args.workload}-{args.seed}-{args.trace}"
        problem = check_counter_record(key, record)
        if problem:
            problems.append(problem)
        print(json.dumps({"work_counters": record}, sort_keys=True))
        if tracer is not None:
            # The last traced pass's spans: (name, start, end, parent, call id).
            spans = os.path.join(STATE, f"spans-{args.workload}-{args.seed}.json")
            with open(spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
            print(json.dumps({"spans": spans, "count": len(tracer.spans)}))
        medians = call_medians(passes)
        print(json.dumps({"call_median_ms": {k: 1e3 * t for k, (_, t) in medians.items()}}))
        print(json.dumps({"pass_s": [w for w, _ in passes],
                          "traced_pass_s": [w for w, _ in traced]}))

        outcomes = [o for _, outs in passes + traced for o in outs]
        wrong = [o for o in outcomes if o.status == "wrong"]
        failures = Counter(
            (o.call.label, o.status, o.reason) for o in outcomes if o.status != "ok"
        )
        for (label, status, reason), n in sorted(failures.items()):
            print(json.dumps({"failure": label, "status": status, "reason": reason,
                              "count": n}))
        for p in problems:
            print(json.dumps({"problem": p}))

        if args.trace:
            metrics = {
                k: (statistics.median(row[k] for row in layer_rows), layer_unit(k))
                for k in layer_rows[0]
            }
            overhead = (statistics.median(w for w, _ in traced)
                        / statistics.median(w for w, _ in passes) - 1.0)
            metrics["trace.overhead_frac"] = (overhead, "1")
        else:
            metrics = end_to_end(passes, setup_s)
        print(json.dumps({
            "correct": not wrong and not problems,
            "attempted": len(outcomes),
            "failed": len(wrong),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
