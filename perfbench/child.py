"""Run one pass of a workload in this (fresh) process and print its result.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the workload, scale, seed, pass index, whether to trace and
whether to append the self-test's fault operations; or it asks only for
the set-up time.  The last line of
stdout is a JSON object with one record per operation (raw seconds and
reference seconds, see calibrate.py), the process's peak RSS and, when
tracing, the per-layer totals and the top-level spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import workloads
from calibrate import Sampler


def run_op(op: workloads.Op, tracer) -> dict:
    if tracer:
        tracer.begin(op.name)
    t0 = time.perf_counter()
    try:
        value = op.run()
        error = None
    except (Exception, SystemExit) as e:  # a failed operation must not end the pass
        error = "%s: %s" % (type(e).__name__, e)
    t1 = time.perf_counter()
    if tracer:
        tracer.end()
    digest = ""
    if error is None:
        try:
            error = op.check(value)
            digest = op.digest(value)
        except Exception as e:  # malformed output is a wrong output
            error = "unreadable output: %s: %s" % (type(e).__name__, e)
    return {"name": op.name, "t0": t0, "t1": t1, "error": error, "digest": digest}


def setup() -> dict:
    """Time the import of chordlab.cli plus building its parser."""
    with Sampler() as sampler:
        t0 = time.perf_counter()
        import chordlab.cli

        chordlab.cli.build_parser()
        t1 = time.perf_counter()
    raw, ref = sampler.times(t0, t1)
    return {"s": raw, "ref_s": ref}


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("setup"):
        print(json.dumps(setup()))
        return 0
    import chordlab.cli  # noqa: F401  (load every module before timing)

    ops = workloads.build_ops(spec["workload"], spec["scale"], spec["seed"],
                              spec["pass"], spec.get("faults", False))
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    with Sampler() as sampler:
        records = [run_op(op, tracer) for op in ops]
    for rec in records:
        rec["s"], rec["ref_s"] = sampler.times(rec.pop("t0"), rec.pop("t1"))
    out = {
        "ops": records,
        # ru_maxrss is in KiB on Linux
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["layers"] = tracer.metrics(workloads.CHECK_IDS)
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
