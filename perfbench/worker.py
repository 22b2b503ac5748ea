"""Run one workload in this process and stream what happened.

run.py starts this file once per workload, so each workload gets a fresh
interpreter.  It generates the workload from the seed, then repeats passes
over it until --seconds have gone by.  A pass builds every session anew
(fresh State, definitions loaded and level-checked), then sends its
operations one at a time, each after the previous one has finished: one
client, one thread, closed loop.  Operations go through the CLI's own entry
points (cli.load_file, cli.check_definitions, cli.run_query, and
cli.run_assertion for corpus #assert lines).

With --trace 1 passes alternate between plain and traced; a traced pass
wraps the layer boundaries (tracer.py) and reports per-layer numbers.

Every record is one line on stdout starting with "@@ " and holding JSON,
flushed at once, so that run.py still knows which operations finished if
this process dies.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class _Cell:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail


def _walk(n, table):
    if n < 2:
        return table.get(n, n)
    pair = (_walk(n - 1, table), _walk(n - 2, table))
    cell = _Cell(pair[0], pair)
    return (cell.head + cell.tail[1]) & 0xFFFF


def calibrate():
    """Time of a fixed piece of interpreter work that shares no code with
    the engine: calls, tuples, slotted objects, a dict.  Every object it
    makes dies at once, so it triggers no garbage collection."""
    t0 = time.perf_counter()
    _walk(20, {0: 1, 1: 1})
    return time.perf_counter() - t0


class Calibration:
    """Samples calibrate() every CALIB_EVERY seconds between operations and
    streams each sample, so run.py can scale every operation by how fast
    the machine ran around it."""

    CALIB_EVERY = 0.1

    def __init__(self, index):
        self.index = index
        self.last = -math.inf
        self.tick()

    def tick(self):
        now = time.perf_counter()
        if now - self.last >= self.CALIB_EVERY:
            emit({"t": "cal", "pass": self.index, "at": now,
                  "s": calibrate()})
            self.last = time.perf_counter()


def emit(record):
    sys.stdout.write("@@ " + json.dumps(record) + "\n")
    sys.stdout.flush()


class Runner:
    def __init__(self, nc, sessions, gen_dir):
        self.nc = nc
        self.cli = nc["cli"]
        self.sessions = sessions
        self.paths = []
        for i, s in enumerate(sessions):
            path = s.corpus
            if path is None:
                path = os.path.join(gen_dir, f"session{i}.def")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(s.text)
            self.paths.append(path)
        self.asserts = None  # filled by the run_assertion timer
        run_assertion = self.cli.run_assertion

        def timed_assertion(directive, st, out, filename):
            t0 = time.perf_counter()
            code = run_assertion(directive, st, out, filename)
            end = time.perf_counter()
            self.asserts.append((directive, code, end - t0, end, st.steps))
            return code

        self.cli.run_assertion = timed_assertion

    def run_pass(self, index, traced):
        """Run every session once, streaming a record per set-up and per
        operation; when traced, return the tracer and the number of table
        entries left at the end of the sessions."""
        cli, engine, logic = self.cli, self.nc["engine"], self.nc["logic"]
        emit({"t": "begin", "pass": index, "traced": traced})
        tr = saved = None
        if traced:
            tr, saved = tracer.install(self.nc)
        entries = 0
        out = io.StringIO()
        calib = Calibration(index)
        try:
            for s, path in zip(self.sessions, self.paths):
                self.asserts = []
                t0 = time.perf_counter()
                st = engine.State(defs=logic.DefSet(), max_steps=s.budget
                                  or engine.DEFAULT_STEP_BUDGET)
                cli.load_file(path, st, out)
                cli.check_definitions(st, out, set())
                load = time.perf_counter() - t0
                for directive, code, dt, end, n in self.asserts:
                    load -= dt
                    verdict = {cli.OK: None,
                               cli.WRONG: "expected the other verdict",
                               cli.INCONCLUSIVE: "inconclusive"}[code]
                    self.record(index, None, f"{s.name}:{directive.line}",
                                dt, end, n, verdict)
                emit({"t": "setup", "pass": index, "s": load})
                calib.tick()
                for op in s.ops:
                    buf = io.StringIO()
                    t0 = time.perf_counter()
                    cli.run_query(op.query, st, buf, op.max_answers)
                    end = time.perf_counter()
                    status, answers = oracles.read_output(buf.getvalue())
                    self.record(index, op, op.label, end - t0, end, st.steps,
                                op.judge(status, answers))
                    calib.tick()
                entries += sum(len(t.entries) for t in st.tables.values())
                out.seek(0)
                out.truncate()
        finally:
            if traced:
                tracer.uninstall(tr, saved)
        calib.tick()
        return tr, entries

    def record(self, index, op, label, seconds, end, steps, verdict):
        rec = {"t": "op", "pass": index, "label": label, "s": seconds,
               "at": end, "steps": steps}
        if verdict == "inconclusive":
            rec["outcome"] = "inconclusive"
        elif verdict is not None:
            rec["outcome"] = "wrong"
            rec["detail"] = verdict
        else:
            rec["outcome"] = "ok"
        if op is not None and op.size is not None:
            rec["size"], rec["group"] = op.size, op.group
        emit(rec)


def layer_numbers(tr, entries):
    """Per-layer metrics of one traced pass, from its spans and counts."""
    c = tr.counts
    q = tr.self_time["query"]
    total = tr.total

    def ratio(a, b):
        return a / b if b else 0.0

    head = c.get("unify.head.calls", 0)
    eq = c.get("unify.eq.calls", 0)
    calls = head + eq
    fails = c.get("unify.head.failure", 0) + c.get("unify.eq.failure", 0)
    nonpat = c.get("unify.head.nonpattern", 0) + c.get("unify.eq.nonpattern", 0)
    tab_calls = c.get("tabling.calls", 0)
    runs = c.get("tabling.producer_runs", 0)
    restarts = c.get("tabling.restarts", 0)
    query_s = total["cli.query"]
    load_s = sum(tr.self_time["load"].values())
    return {
        "engine.steps": c.get("engine.steps", 0),
        "engine.self_s": q["engine"],
        "engine.answers": c.get("engine.answers", 0),
        "engine.reify_s": total["engine.reify"],
        "logic.unfold_calls": c.get("logic.unfold_calls", 0),
        "logic.rename_s": total["logic.rename"],
        "logic.head_unify_calls": head,
        "logic.head_match_ratio": ratio(c.get("unify.head.success", 0), head),
        "logic.check_s": total["logic.check"],
        "logic.self_s": q["logic"],
        "unify.calls": calls,
        "unify.busy_s": total["unify.head"] + total["unify.eq"],
        "unify.fail_ratio": ratio(fails, calls),
        "unify.nonpattern": nonpat,
        "unify.self_s": q["unify"],
        "terms.normalize_calls": (tr.calls["terms.normalize"]
                                  + tr.calls["terms.normalize_eta"]),
        "terms.normalize_s": (total["terms.normalize"]
                              + total["terms.normalize_eta"]),
        "terms.self_s": q["terms"],
        "tabling.calls": tab_calls,
        "tabling.producer_runs": runs,
        "tabling.restarts": restarts,
        "tabling.hit_ratio": ratio(tab_calls - (runs - restarts), tab_calls),
        "tabling.entries": entries,
        "tabling.key_s": total["tabling.key"],
        "tabling.self_s": q["tabling"],
        "parser.parse_s": total["parser.parse"],
        "parser.print_s": total["parser.print"],
        "parser.self_s": q["parser"],
        "cli.self_s": q["cli"],
        "cli.load_s": load_s,
        "cli.query_s": query_s,
        "runtime.gc_s": tr.gc_s,
        "runtime.gc_gen2": tr.gc_gen2,
        "trace.accounted": ratio(sum(q.values()), query_s),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nablacheck

    nc = tracer.modules()
    corpus_dir = os.path.join(os.path.dirname(nablacheck.__file__), "corpus")
    sessions = workloads.generate(args.workload, args.seed, corpus_dir)
    gen_dir = os.path.join(args.out, f"gen-{args.workload}-{args.seed}")
    os.makedirs(gen_dir, exist_ok=True)
    runner = Runner(nc, sessions, gen_dir)
    emit({"t": "plan", "ops": sum(s.op_count() for s in sessions),
          "backend": nablacheck.BACKEND,
          "python": platform.python_version()})

    start = time.perf_counter()
    plain = traced = 0
    spans = None
    while True:
        use_trace = bool(args.trace) and traced < plain
        gc.collect()  # each pass starts without the last one's garbage
        tr, entries = runner.run_pass(plain + traced, use_trace)
        end = {"t": "end_pass", "pass": plain + traced}
        if use_trace:
            end["layers"] = layer_numbers(tr, entries)
            spans = tr
            traced += 1
        else:
            plain += 1
        emit(end)
        if (time.perf_counter() - start >= args.seconds
                and (not args.trace or traced >= 1)):
            break
    if spans is not None:
        spans.write_spans(
            os.path.join(args.out, f"spans-{args.workload}-{args.seed}.tsv"))
    emit({"t": "end",
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          / 1024})


if __name__ == "__main__":
    main()
