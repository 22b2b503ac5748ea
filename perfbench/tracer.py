"""Per-layer spans, recorded from outside the program.

install() replaces module attributes of nablacheck with timing wrappers and
returns a Tracer; uninstall() puts the originals back.  Nothing inside the
package changes.  A span opens when a wrapped function is entered (or a
wrapped generator resumed) and closes when it returns, yields or raises.
A function that recurses through its own module attribute is timed at its
outermost call only.  Self time is a span's duration minus its child spans
and the garbage collections that ran inside it, so the self times of all
spans under a root add up to the root's duration.

Layers are named after the modules: parser, logic, engine, unify, terms
(with the reduction kernel it wraps), tabling and cli; runtime is the
garbage collector.
"""

from __future__ import annotations

import gc
import sys
from array import array
from time import perf_counter

# Span name -> layer.  Root spans (cli.load, cli.query) carry the phase.
LAYER = {
    "cli.load": "cli",
    "cli.query": "cli",
    "parser.parse": "parser",
    "parser.print": "parser",
    "parser.print_key": "parser",
    "logic.check": "logic",
    "logic.unfold": "logic",
    "logic.rename": "logic",
    "engine.solve": "engine",
    "engine.producer": "engine",
    "engine.reify": "engine",
    "unify.head": "unify",
    "unify.eq": "unify",
    "terms.normalize": "terms",
    "terms.normalize_eta": "terms",
    "tabling.prove": "tabling",
    "tabling.key": "tabling",
}
LAYERS = ("cli", "parser", "logic", "engine", "unify", "terms", "tabling",
          "runtime")
NAMES = tuple(LAYER)
_ID = {name: i for i, name in enumerate(NAMES)}

# Spans kept for the trace file; counts and times are aggregated past it.
SPAN_CAP = 400_000


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, child time, index]
        self.phase = None  # "load" or "query" while a root span is open
        self.total = dict.fromkeys(NAMES, 0.0)  # inclusive time per span name
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_time = {p: dict.fromkeys(LAYERS, 0.0)
                          for p in ("load", "query")}
        self.counts = {}
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._gc_start = None
        # Span records: name id, parent index, start, end.
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def enter(self, name):
        idx = -1
        if len(self.span_name) < SPAN_CAP:
            idx = len(self.span_name)
            self.span_name.append(_ID[name])
            self.span_parent.append(self.stack[-1][3] if self.stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        start = perf_counter()
        if idx >= 0:
            self.span_start[idx] = start
        self.stack.append([name, start, 0.0, idx])

    def exit(self):
        end = perf_counter()
        name, start, child, idx = self.stack.pop()
        dur = end - start
        if idx >= 0:
            self.span_end[idx] = end
        self.total[name] += dur
        self.calls[name] += 1
        if self.phase is not None:
            self.self_time[self.phase][LAYER[name]] += dur - child
        if self.stack:
            self.stack[-1][2] += dur

    def root(self, phase):
        """Open a root span of a phase; returns the phase to restore.

        An assertion runs inside the load of its corpus file, so a query
        root may nest in a load root: its time leaves the load's self time
        and counts for the query phase.
        """
        outer = self.phase
        self.phase = phase
        self.enter(f"cli.{phase}")
        return outer

    def end_root(self, outer):
        self.exit()
        self.phase = outer

    def on_gc(self, event, info):
        if event == "start":
            self._gc_start = perf_counter()
            return
        if self._gc_start is None:
            return
        dur = perf_counter() - self._gc_start
        self._gc_start = None
        self.gc_s += dur
        if info.get("generation") == 2:
            self.gc_gen2 += 1
        if self.phase is not None:
            self.self_time[self.phase]["runtime"] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def write_spans(self, path):
        """Write the recorded spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{NAMES[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
            if len(self.span_name) >= SPAN_CAP:
                fh.write(f"# truncated at {SPAN_CAP} spans; totals include all\n")


def _span(tr, name, fn):
    def wrapper(*args, **kwargs):
        tr.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.exit()
    return wrapper


def _outermost(tr, name, fn, depth):
    """Span only the outermost of a recursion; depth is shared by the
    functions that recurse into each other."""
    def wrapper(*args, **kwargs):
        if depth[0]:
            return fn(*args, **kwargs)
        depth[0] += 1
        tr.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.exit()
            depth[0] -= 1
    return wrapper


def _resumptions(tr, name, gen):
    """Re-yield gen's items, timing each resumption and the final close."""
    try:
        while True:
            tr.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tr.exit()
            yield item
    finally:
        tr.enter(name)
        try:
            gen.close()
        finally:
            tr.exit()


def _root(tr, phase, fn):
    def wrapper(*args, **kwargs):
        outer = tr.root(phase)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.end_root(outer)
    return wrapper


def install(nc):
    """Wrap the package's layer boundaries; nc maps short module names to
    the imported nablacheck modules.  Returns (tracer, originals)."""
    tr = Tracer()
    cli, engine, logic, tabling, parser = (
        nc["cli"], nc["engine"], nc["logic"], nc["tabling"], nc["parser"])
    unify_mod = nc["unify"]
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    from nablacheck.unify import FAILURE, SUCCESS

    patch(cli, "load_file", _root(tr, "load", cli.load_file))
    patch(cli, "check_definitions", _root(tr, "load", cli.check_definitions))
    patch(cli, "run_query", _root(tr, "query", cli.run_query))
    patch(cli, "run_assertion", _root(tr, "query", cli.run_assertion))
    patch(cli, "parse_file", _span(tr, "parser.parse", cli.parse_file))
    patch(cli, "parse_query", _span(tr, "parser.parse", cli.parse_query))
    patch(logic.DefSet, "check", _span(tr, "logic.check", logic.DefSet.check))

    solve = cli.solve

    def traced_solve(*args, **kwargs):
        tr.enter("engine.solve")
        try:
            result = solve(*args, **kwargs)
        finally:
            tr.exit()
        tr.count("engine.steps", result.steps)
        return result
    patch(cli, "solve", traced_solve)

    reify = engine._reify

    def traced_reify(*args):
        tr.count("engine.answers")
        tr.enter("engine.reify")
        try:
            return reify(*args)
        finally:
            tr.exit()
    patch(engine, "_reify", traced_reify)

    unfold = engine.unfold

    def traced_unfold(*args, **kwargs):
        tr.count("logic.unfold_calls")
        return _resumptions(tr, "logic.unfold", unfold(*args, **kwargs))
    patch(engine, "unfold", traced_unfold)

    rename_depth = [0]
    patch(logic, "replace_clause_vars", _outermost(
        tr, "logic.rename", logic.replace_clause_vars, rename_depth))
    patch(logic, "replace_clause_vars_formula", _outermost(
        tr, "logic.rename", logic.replace_clause_vars_formula, rename_depth))

    def counted_unify(name, unify):
        def wrapper(*args, **kwargs):
            tr.enter(name)
            try:
                r = unify(*args, **kwargs)
            finally:
                tr.exit()
            tr.count(f"{name}.calls")
            if r is SUCCESS:
                tr.count(f"{name}.success")
            elif r is FAILURE:
                tr.count(f"{name}.failure")
            else:
                tr.count(f"{name}.nonpattern")
            return r
        return wrapper
    patch(logic, "unify", counted_unify("unify.head", logic.unify))
    patch(engine, "unify", counted_unify("unify.eq", engine.unify))

    patch(unify_mod, "normalize",
          _span(tr, "terms.normalize", unify_mod.normalize))
    patch(engine, "normalize_eta",
          _span(tr, "terms.normalize_eta", engine.normalize_eta))
    patch(tabling, "normalize_eta",
          _span(tr, "terms.normalize_eta", tabling.normalize_eta))

    key_depth = [0]
    canonical_key = tabling.canonical_key

    def traced_key(*args, **kwargs):
        key_depth[0] += 1
        tr.enter("tabling.key")
        try:
            return canonical_key(*args, **kwargs)
        finally:
            tr.exit()
            key_depth[0] -= 1
    patch(tabling, "canonical_key", traced_key)

    print_depth = [0]
    print_term = parser.print_term

    def traced_print(*args, **kwargs):
        if print_depth[0]:
            return print_term(*args, **kwargs)
        print_depth[0] += 1
        tr.enter("parser.print_key" if key_depth[0] else "parser.print")
        try:
            return print_term(*args, **kwargs)
        finally:
            tr.exit()
            print_depth[0] -= 1
    patch(parser, "print_term", traced_print)

    tabled_prove = tabling.tabled_prove

    def traced_tabled_prove(st, pred, args, defn, producer):
        tr.count("tabling.calls")
        runs = [0]

        def traced_producer():
            runs[0] += 1
            tr.count("tabling.producer_runs")
            if runs[0] > 1:
                tr.count("tabling.restarts")
            return _resumptions(tr, "engine.producer", producer())

        return _resumptions(
            tr, "tabling.prove",
            tabled_prove(st, pred, args, defn, traced_producer))
    patch(tabling, "tabled_prove", traced_tabled_prove)

    gc.callbacks.append(tr.on_gc)
    return tr, saved


def uninstall(tr, saved):
    gc.callbacks.remove(tr.on_gc)
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def modules():
    """The nablacheck modules whose attributes install() replaces."""
    import nablacheck.cli  # noqa: F401  (loads the whole package)

    return {
        name: sys.modules[f"nablacheck.{name}"]
        for name in ("cli", "engine", "logic", "tabling", "parser", "unify")
    }
