"""The nablacheck benchmark: three seeded proof-search workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search|deep_terms|tabled_graphs|all
                             --seed N --seconds S --trace 0|1

Each workload runs in a fresh interpreter (worker.py) that calls the CLI's
entry points in process, for at least S seconds, in repeated passes over
the same seeded operations.  Every verdict is checked against oracles.py,
which shares no code with the engine; corpus files check themselves through
their #assert lines.  The last line of output is one JSON object with the
keys correct, attempted, failed and metrics.  Lines before it name every
metric with its unit, stamp the run (backend, Python, nproc, seed, commit)
and list failed operations one by one.  Span files and a JSON copy of each
result are written under .perfbench/ in the checkout.

Workloads (see workloads.py):
  search         the six corpus files plus a seeded batch of untabled
                 queries over small terms: per-dispatch cost.
  deep_terms     a ladder of list and numeral sizes (16 to 120): cost that
                 grows with term size.
  tabled_graphs  reachability, simulation and bisimulation over all pairs
                 of generated ranked digraphs and LTSs, one session per
                 structure, a 20,000-step budget per query: tables at
                 scale.

Times are scaled to a reference machine speed: a fixed piece of
interpreter work (worker.calibrate, no engine code) is timed every 0.1 s
during each pass, and each operation's time is multiplied by REF_CALIB
over the mean of the samples taken within 0.5 s of it (set-up times by
the pass's mean).  On a shared 2-core x86-64 VM the speed drifted by
10-30% from minute to minute, and the scaling took out most of that.  The
unscaled wall time is printed too; per-layer times are not scaled.

End-to-end metrics (--trace 0), over the plain passes:
  setup_s        parse, load and level-check all sessions of one pass;
                 median over passes
  wall_s         summed latency of one pass's operations; median
  query_p50_ms, query_p90_ms
                 percentiles of the latencies of all operations of all
                 passes (the sample count is printed); failed operations
                 count with the time they took
  steps_per_s    Result.steps summed over a pass over its wall_s; median
  peak_rss_mb    peak resident memory of the workload's process
  size_slope     log-log slope of time against input size, one intercept
                 per series, failed operations left out: deep_terms, each
                 query against its list or numeral length, per kind of
                 query; tabled_graphs, a structure's first round of queries
                 against its nodes or states, digraphs and LTSs apart;
                 search, the `=> false` checks against their list length
  failed_ratio, verdict_errors
                 the most failed operations, and the most verdicts that
                 differ from the oracle, in one pass; printed, and carried
                 by the failed and correct keys, not compared metrics,
                 because they are 0 on some workloads

Per-layer metrics (--trace 1) come from traced passes, which alternate
with plain ones; trace.overhead is the traced wall_s over the plain one.
The counts named in DETERMINISTIC repeat exactly for one seed: the run
says whether they did across its traced passes, and
.perfbench/result-<workload>-<seed>-trace1.json keeps them under "counts"
for comparing two runs.

Known failures at this commit, which the workloads keep clear of because
no operation of a workload may fail: restart storms on tabled structures
with cycles longer than a self-loop, and wrong verdicts later in a session
after a query ran out of budget.  tabled_graphs therefore uses ranked
structures, whose only cycles are self-loops.  known_failures.py
reproduces both failures on two small random structures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Counts that must repeat exactly when one seed runs twice.
DETERMINISTIC = (
    "engine.steps", "unify.calls", "logic.head_unify_calls",
    "tabling.producer_runs", "tabling.restarts", "tabling.entries",
    "engine.answers",
)
CHILD_TIMEOUT = 170.0
CAL_WINDOW = 0.5
# A typical time of worker.calibrate() on a shared 2-core x86-64 VM with
# Python 3.11.7.  Each operation's time is scaled by REF_CALIB over the
# calibration sampled around it (CAL_WINDOW seconds either side), so a
# machine that runs slower for a while moves every number less.
REF_CALIB = 0.0065


def declared_units():
    """Metric name -> unit for the end-to-end and the per-layer metrics
    that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in bench[kind]}
                 for kind in ("end_to_end", "per_layer"))


def stamp(seed):
    """What was measured: the commit if the checkout has one, and a hash of
    the package source either way."""
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "nablacheck")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".def", ".pyx", ".c")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {"seed": seed, "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": h.hexdigest()[:16]}


def run_worker(workload, seed, seconds, trace, out_dir):
    """Run worker.py; return its records and its exit status.  A worker
    still running after CHILD_TIMEOUT seconds is killed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir]
    records = []
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if line.startswith("@@ "):
                records.append(json.loads(line[3:]))
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    return records, code


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    return sorted_values[k]


def op_medians(passes):
    """Each operation's scaled time, as its median over the passes, so a
    pause that hits one pass moves no operation much.  Returns a list of
    (first record of the operation, seconds, whether it failed in a pass)."""
    return [
        (row[0], statistics.median(r["scaled"] for r in row),
         any(r["outcome"] != "ok" for r in row))
        for row in zip(*(p["ops"] for p in passes))
    ]


def slope(ops):
    """Log-log slope of time against input size, fitted by least squares
    with one intercept per group; the times of a group's operations of one
    size are summed into one point.  Failed operations are left out: a
    budget abort costs the budget, whatever the input size."""
    points = {}
    for r, secs, failed in ops:
        if "size" in r and not failed:
            key = (r["group"], r["size"])
            points[key] = points.get(key, 0.0) + secs
    groups = {}
    for (group, size), secs in points.items():
        groups.setdefault(group, []).append((math.log(size), math.log(secs)))
    num = den = 0.0
    for pts in groups.values():
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        num += sum((x - mx) * (y - my) for x, y in pts)
        den += sum((x - mx) ** 2 for x, _ in pts)
    return num / den


def fold_passes(records):
    """Per pass: traced or not, set-up time, finished operations with their
    times scaled for machine speed, and whether the pass ended (a worker
    that dies leaves its last pass unended)."""
    passes = {}
    for r in records:
        if r["t"] == "begin":
            passes[r["pass"]] = {"traced": r["traced"], "setup_s": 0.0,
                                 "ops": [], "cal": [], "ended": False,
                                 "layers": None}
        elif r["t"] == "setup":
            passes[r["pass"]]["setup_s"] += r["s"]
        elif r["t"] == "op":
            passes[r["pass"]]["ops"].append(r)
        elif r["t"] == "cal":
            passes[r["pass"]]["cal"].append((r["at"], r["s"]))
        elif r["t"] == "end_pass":
            passes[r["pass"]].update(ended=True, layers=r.get("layers"))
    for p in passes.values():
        cal = p["cal"]
        if not cal:  # the worker died before the pass's first sample
            p.update(scale=1.0, wall_s=0.0)
            continue
        p["scale"] = REF_CALIB / statistics.fmean(c for _, c in cal)
        for r in p["ops"]:
            r["scaled"] = r["s"] * local_scale(cal, r["at"] - r["s"], r["at"])
        p["wall_s"] = sum(r["scaled"] for r in p["ops"])
    return list(passes.values())


def local_scale(cal, start, end):
    """REF_CALIB over the mean calibration sampled within CAL_WINDOW seconds
    of an operation, or over the sample nearest to it."""
    near = [c for at, c in cal
            if start - CAL_WINDOW <= at <= end + CAL_WINDOW]
    if not near:
        near = [min(cal, key=lambda s: abs(s[0] - end))[1]]
    return REF_CALIB / statistics.fmean(near)


def summarize(records, code, fallback_rss):
    """Fold worker records into metrics, failures and verdict errors, or
    return None when not one operation finished."""
    plan = next((r for r in records if r["t"] == "plan"), None)
    end = next((r for r in records if r["t"] == "end"), None)
    passes = fold_passes(records)
    if plan is None or not any(p["ops"] for p in passes):
        return None
    per_pass = plan["ops"]
    # Operations a dead worker never reached count as failed.
    unrun = sum(per_pass - len(p["ops"]) for p in passes if not p["ended"])
    failed = max(
        sum(r["outcome"] != "ok" for r in p["ops"])
        + (0 if p["ended"] else per_pass - len(p["ops"]))
        for p in passes
    )
    wrong = max(sum(r["outcome"] == "wrong" for r in p["ops"])
                for p in passes)
    ops = [r for p in passes for r in p["ops"]]
    failing = {}
    for r in ops:
        if r["outcome"] != "ok":
            key = (r["label"], r["outcome"], r.get("detail", ""))
            failing[key] = failing.get(key, 0) + 1

    def measured(traced):
        """Ended passes of one kind, or the unended one if none ended."""
        kind = [p for p in passes if p["traced"] == traced and p["ops"]]
        return [p for p in kind if p["ended"]] or kind

    plain = measured(False)
    e2e = {}
    if plain:
        lat = sorted(r["scaled"] for p in plain for r in p["ops"])
        e2e = {
            "setup_s": statistics.median(p["setup_s"] * p["scale"]
                                         for p in plain),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "query_p50_ms": percentile(lat, 50) * 1e3,
            "query_p90_ms": percentile(lat, 90) * 1e3,
            "steps_per_s": statistics.median(
                sum(r["steps"] for r in p["ops"]) / p["wall_s"]
                for p in plain),
            "peak_rss_mb": end["peak_rss_mb"] if end else fallback_rss,
            "size_slope": slope(op_medians(plain)),
        }
    traced = [p for p in measured(True) if p["layers"]]
    layers = {}
    repeat = None
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name] for p in traced)
        if plain:
            layers["trace.overhead"] = (
                statistics.median(p["wall_s"] for p in traced) / e2e["wall_s"])
        if len(traced) > 1:
            repeat = all(len({p["layers"][n] for p in traced}) == 1
                         for n in DETERMINISTIC)
    return {
        "plan": plan, "code": code, "e2e": e2e, "layers": layers,
        "attempted": per_pass, "failed": failed, "unrun": unrun,
        "wrong": wrong,
        "failing": failing, "samples": len(lat) if plain else 0,
        "passes": len(passes), "plain_passes": len(plain), "repeat": repeat,
        "raw_wall_s": statistics.median(sum(r["s"] for r in p["ops"])
                                        for p in plain) if plain else None,
        "scale": statistics.median(p["scale"] for p in plain)
        if plain else None,
        "counts": {n: traced[-1]["layers"][n] for n in DETERMINISTIC}
        if traced else {},
    }


def report(workload, s, units, out):
    """Print the human-readable lines for one workload; units maps every
    metric name to its unit."""
    p = out.write
    p(f"== {workload}: {s['passes']} passes ({s['plain_passes']} plain), "
      f"{s['attempted']} operations per pass, worker exit {s['code']}, "
      f"backend {s['plan']['backend']}, python {s['plan']['python']}\n")
    for name, value in s["e2e"].items():
        extra = (f"  ({s['samples']} samples)"
                 if name.startswith("query_") else "")
        p(f"{workload} {name} {value:.6g} {units[name]}{extra}\n")
    p(f"{workload} failed_ratio {s['failed'] / s['attempted']:.6g} 1"
      f"  ({s['failed']} of {s['attempted']})\n")
    p(f"{workload} verdict_errors {s['wrong']} count  (most in one pass)\n")
    if s["raw_wall_s"] is not None:
        p(f"{workload} unscaled wall_s {s['raw_wall_s']:.6g} s "
          f"(times scaled by {s['scale']:.4g} for machine speed)\n")
    for name, value in s["layers"].items():
        p(f"{workload} {name} {value:.6g} {units.get(name, '1')}\n")
    if s["repeat"] is not None:
        p(f"{workload} deterministic counts repeat across traced passes: "
          f"{'yes' if s['repeat'] else 'NO'}\n")
    if s["unrun"]:
        p(f"{workload} failed: {s['unrun']} operations never ran, the worker "
          f"exited with status {s['code']}\n")
    for (label, outcome, detail), n in sorted(s["failing"].items()):
        p(f"{workload} failed op: {label}: {outcome}"
          f"{': ' + detail if detail else ''} (in {n} passes)\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nablacheck", "engine.py")):
        sys.stderr.write("perfbench: no nablacheck source under src/ next to "
                         "perfbench/; run from the root of a checkout\n")
        return 2
    e2e_units, layer_units = declared_units()
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    st = stamp(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in names:
        records, code = run_worker(w, args.seed, args.seconds, args.trace,
                                   out_dir)
        results[w] = summarize(
            records, code,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
        if results[w] is None:
            sys.stderr.write(f"perfbench: {w}: the worker finished no "
                             f"operation (exit status {code})\n")
            return 1
        report(w, results[w], {**e2e_units, **layer_units}, sys.stdout)
        plan = results[w]["plan"]
        st.update(backend=plan["backend"], python=plan["python"])
        with open(os.path.join(
                out_dir, f"result-{w}-{args.seed}-trace{args.trace}.json"),
                "w", encoding="utf-8") as fh:
            json.dump({"stamp": st, "workload": w, **{
                k: v for k, v in results[w].items() if k != "failing"},
                "failing": [list(k) + [n] for k, n in
                            results[w]["failing"].items()]}, fh, indent=1)
    print("stamp " + json.dumps(st, sort_keys=True))

    units = layer_units if args.trace else e2e_units
    metrics = {}
    for w, s in results.items():
        values = s["layers"] if args.trace else s["e2e"]
        missing = [name for name in units if name not in values]
        if missing:
            sys.stderr.write(f"perfbench: {w}: no pass ended to measure "
                             f"{', '.join(missing)}\n")
            return 1
        for name in units:
            key = name if len(results) == 1 else f"{w}.{name}"
            metrics[key] = {"value": values[name], "unit": units[name]}
    print(json.dumps({
        "correct": all(not s["wrong"] for s in results.values()),
        "attempted": sum(s["attempted"] for s in results.values()),
        "failed": sum(s["failed"] for s in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
