"""chordlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from any directory; the program is the `src/chordlab` tree next to this
directory, put on PYTHONPATH (nothing is installed or built).  Load shape:
closed loop, one client, one operation at a time, `enum --jobs 1`.

--trace 0 measures set-up, then runs passes of the workload, each in a
fresh child process, while the next pass should end within S seconds (at
least one), and prints the end-to-end metrics.  --trace 1 runs one untraced and one traced pass on the same
inputs, checks that their outputs are identical, prints the per-layer
metrics and writes the top-level spans to perfbench/out/.  The last line of
stdout is the JSON result; lines before it, starting with "#", give the
machine facts and a readable summary.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170  # every run must end within 180 s
SETUP_SPAWNS = 9

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CHORDLAB_MAX_SIZE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def spawn(argv: list[str], timeout: float) -> tuple[int | None, str]:
    """Run a child in its own process group; on timeout kill the group (the
    child may have started pool workers) and wait for it."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""
    return proc.returncode, out


def measure_setup(deadline: float, spawns: int) -> tuple[list[float], list[float]]:
    """Raw and reference seconds that fresh processes take to import
    chordlab.cli and build its parser; one unrecorded spawn first writes the
    bytecode cache."""
    raw, ref = [], []
    for i in range(spawns + 1):
        rc, out = spawn([sys.executable, str(HERE / "child.py"), '{"setup": true}'],
                        deadline - time.monotonic())
        if rc != 0:
            raise SystemExit("error: cannot import chordlab.cli from %s" % SRC)
        if i:
            t = json.loads(out)
            raw.append(t["s"])
            ref.append(t["ref_s"])
    return raw, ref


def run_pass(spec: dict, deadline: float) -> dict:
    """One pass in a fresh child.  If the child dies or times out, every
    operation of the pass counts as failed."""
    rc, out = spawn([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                    deadline - time.monotonic())
    lines = out.strip().splitlines()
    if rc == 0 and lines:
        return json.loads(lines[-1])
    reason = "timed out" if rc is None else "child exited with code %s" % rc
    n = workloads.op_count(spec["workload"], spec["scale"]) + (2 if spec.get("faults") else 0)
    dead = {"name": "pass", "s": 0.0, "ref_s": 0.0, "error": reason, "digest": ""}
    return {"ops": [dead] * n, "maxrss_mb": 0.0, "dead": True}


def op_medians(passes: list[dict], key: str) -> list[float]:
    """Each operation's median time over the passes: the latency samples.
    One slow pass then moves a percentile no more than it moves wall_s."""
    by_name: dict[str, list[float]] = {}
    for p in passes:
        for op in p["ops"]:
            by_name.setdefault(op["name"], []).append(op[key])
    return [statistics.median(v) for v in by_name.values()]


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks, as numpy's default;
    with few samples it leans on two of them rather than one."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def facts(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for p in sorted((SRC / "chordlab").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, one operation at a time, enum --jobs 1",
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "platform": platform.platform(),
        "commit": commit, "src_sha256": h.hexdigest(),
    }


def failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    ops = [op for p in passes for op in p["ops"]]
    bad = [op for op in ops if op["error"]]
    return len(ops), len(bad), ["%s: %s" % (op["name"], op["error"]) for op in bad[:10]]


def pass_wall(p: dict, key: str = "ref_s") -> float:
    return sum(op[key] for op in p["ops"])


def measure(workload: str, scale: str, seed: int, seconds: float, deadline: float,
            faults: bool = False, setup_spawns: int = SETUP_SPAWNS) -> tuple[dict, dict, list[dict]]:
    """Untraced run: set-up spawns, then at least one pass, and more while
    the next should end within `seconds`.  Times are in reference seconds
    (see calibrate.py)."""
    setup_raw, setup = measure_setup(deadline, setup_spawns)
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        spec = {"workload": workload, "scale": scale, "seed": seed, "pass": len(passes),
                "trace": False, "faults": faults}
        passes.append(run_pass(spec, deadline))
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(passes)
        # start another pass only if it should end within `seconds`
        if (passes[-1].get("dead") or elapsed + per_pass > seconds
                or deadline - time.monotonic() < 2 * per_pass):
            break
    walls = [pass_wall(p) for p in passes]
    op_s = op_medians(passes, "ref_s")
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "op_p50_ms": 1000 * percentile(op_s, 0.5),
        "op_p90_ms": 1000 * percentile(op_s, 0.9),
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in passes),
    }
    diagrams = workloads.diagrams_per_pass(workload, scale)
    raw_wall = statistics.median(pass_wall(p, "s") for p in passes)
    summary = {
        "passes": len(passes), "setup_samples": len(setup), "op_samples": len(op_s),
        "ops_per_pass": len(passes[0]["ops"]),
        "diagrams_per_s": diagrams / wall_s if diagrams and wall_s else None,
        "raw_setup_s": statistics.median(setup_raw), "raw_wall_s": raw_wall,
        "raw_op_p50_ms": 1000 * percentile(op_medians(passes, "s"), 0.5),
        "raw_op_p90_ms": 1000 * percentile(op_medians(passes, "s"), 0.9),
    }
    return metrics, summary, passes


def traced(workload: str, scale: str, seed: int, deadline: float) -> tuple[dict, dict, list[dict]]:
    """One untraced and one traced pass on the same inputs."""
    base = {"workload": workload, "scale": scale, "seed": seed, "pass": 0}
    plain = run_pass(dict(base, trace=False), deadline)
    tr = run_pass(dict(base, trace=True), deadline)
    passes = [plain, tr]
    if not plain.get("dead") and not tr.get("dead"):
        for a, b in zip(plain["ops"], tr["ops"]):
            if a["digest"] != b["digest"] and not b["error"]:
                b["error"] = "traced output differs from the untraced output"
    walls = [pass_wall(p) for p in passes]
    metrics = dict(tr.get("layers", {}))
    metrics["trace.overhead_ratio"] = walls[1] / walls[0] if walls[0] else 0.0
    summary = {"untraced_wall_s": walls[0], "traced_wall_s": walls[1]}
    return metrics, summary, passes


def result_line(metrics: dict, units: dict, passes: list[dict]) -> dict:
    attempted, failed, _ = failures(passes)
    return {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }


def write_spans(args, info: dict, passes: list[dict]) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as f:
        json.dump({"facts": info, "layers": passes[1].get("layers", {}),
                   "spans": passes[1].get("spans", [])}, f, indent=1)
    return path


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    units = declared()[args.trace]
    info = facts(args)
    print("# facts: " + json.dumps(info, sort_keys=True))
    if args.trace:
        metrics, summary, passes = traced(args.workload, "full", args.seed, deadline)
        print("# spans: %s" % write_spans(args, info, passes).relative_to(ROOT))
    else:
        metrics, summary, passes = measure(args.workload, "full", args.seed, args.seconds,
                                           deadline)
    attempted, failed, errors = failures(passes)
    summary["failed_ops_ratio"] = failed / attempted
    print("# summary: " + json.dumps(summary, sort_keys=True))
    for e in errors:
        print("# failed: " + e)
    print(json.dumps(result_line(metrics, units, passes)))
    return 0


# -------------------------------------------------------------------- self-test


def self_test() -> int:
    """Small-scale runs of every workload, traced and untraced, plus a run
    with two injected faults.  Finishes in seconds."""
    problems = []
    units = declared()
    for w in workloads.WORKLOADS:
        deadline = time.monotonic() + DEADLINE_S
        m0, _, p0 = measure(w, "small", 1, 0, deadline, setup_spawns=2)
        m1, _, p1 = traced(w, "small", 1, deadline)
        for trace, m, p in ((0, m0, p0), (1, m1, p1)):
            line = result_line(m, units[trace], p)
            printed = {k: v["unit"] for k, v in line["metrics"].items()}
            if printed != units[trace]:
                problems.append("%s trace %d: metric names or units differ" % (w, trace))
            if not line["correct"]:
                problems.append("%s trace %d: %s" % (w, trace, failures(p)[2] or "incomplete"))
        print("# self-test %s: wall %.2fs, trace overhead %.2f"
              % (w, m0["wall_s"], m1["trace.overhead_ratio"]))
    deadline = time.monotonic() + DEADLINE_S
    _, _, clean = measure("classify", "small", 1, 0, deadline, setup_spawns=1)
    _, _, faulty = measure("classify", "small", 1, 0, deadline, faults=True, setup_spawns=1)
    a0, f0, _ = failures(clean)
    a1, f1, _ = failures(faulty)
    if not (f0 == 0 and f1 == 2 and a1 == a0 + 2 and f1 / a1 > f0 / a0):
        problems.append("fault accounting: clean %d/%d, faulty %d/%d" % (f0, a0, f1, a1))
    print("# self-test faults: failed_ops_ratio %.3f -> %.3f" % (f0 / a0, f1 / a1))
    for p in problems:
        print("# self-test problem: " + p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "chordlab" / "__init__.py").is_file():
        print("error: no chordlab source at %s" % SRC, file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
