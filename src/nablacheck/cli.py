"""The nabla-check command: batch checking and an interactive loop.

Batch mode loads definition files in order, runs their #assert and
#assert_not directives as it goes, then runs any --query goals.  With no
files and no queries it reads statements from standard input instead, one
query or directive at a time, stepping through answers with `;`.

Exit status: 0 when everything passed, 1 when some assertion or query came
out the wrong way around (disproved where proved was expected, or the
reverse), 2 when anything was inconclusive: a resource budget ran out, a
unification problem left the pattern fragment, or the input itself was
broken.  The worst code wins.
"""

from __future__ import annotations

import argparse
import os
import sys

from .engine import DEFAULT_STEP_BUDGET, State, solve, solve_iter
from .errors import NablaCheckError, ParseError
from .logic import DefSet, Formula
from .parser import (
    AssertDirective,
    ClauseItem,
    ClearTablesDirective,
    IncludeDirective,
    LevelDirective,
    ShowTableDirective,
    TableDirective,
    parse_file,
    parse_interaction,
    parse_query,
    print_formula,
)
from .tabling import clear_tables, table_report
from .terms import DEFAULT_NORM_BUDGET

OK, WRONG, INCONCLUSIVE = 0, 1, 2


def _verdict(result, positive):
    """Map a query result onto (exit class, human verdict)."""
    if result.inconclusive:
        return INCONCLUSIVE, f"FAILED (inconclusive: {result.error})"
    if result.proved == positive:
        return OK, "ok"
    return WRONG, f"FAILED ({result.status})"


def run_assertion(directive, st, out, filename):
    st.defs.register_formula(directive.formula)
    kind = "assert" if directive.positive else "assert_not"
    where = f"{filename}:{directive.line}: " if filename else ""
    text = print_formula(directive.formula)
    limit = 1 if directive.positive else None
    result = solve(directive.formula, st, max_answers=limit)
    code, verdict = _verdict(result, directive.positive)
    out.write(f"{where}{kind} {text} ... {verdict}\n")
    return code


def apply_directive(d, st, out, filename=None, include_stack=()):
    td = type(d)
    if td is LevelDirective:
        st.defs.declare_level(d.pred, d.level)
        return OK
    if td is TableDirective:
        st.defs.set_table(d.pred, d.mode)
        return OK
    if td is AssertDirective:
        return run_assertion(d, st, out, filename)
    if td is IncludeDirective:
        base = os.path.dirname(filename) if filename else "."
        return load_file(os.path.join(base, d.path), st, out, include_stack)
    if td is ClearTablesDirective:
        clear_tables(st)
        return OK
    if td is ShowTableDirective:
        out.write(table_report(st, d.pred) + "\n")
        return OK
    raise TypeError(f"not a directive: {d!r}")


def load_file(path, st, out, include_stack=()):
    """Load one definition file, running directives in order."""
    path = os.path.normpath(path)
    if path in include_stack:
        out.write(f"error: {path}: include cycle\n")
        return INCONCLUSIVE
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        out.write(f"error: {e}\n")
        return INCONCLUSIVE
    try:
        items = parse_file(text, filename=path)
    except ParseError as e:
        out.write(f"error: {e}\n")
        return INCONCLUSIVE
    worst = OK
    stack = include_stack + (path,)
    for item in items:
        try:
            if type(item) is ClauseItem:
                st.defs.add_clause(
                    item.pred, item.head_args, item.body,
                    item.var_names, item.line,
                )
            else:
                worst = max(worst, apply_directive(item, st, out, path, stack))
        except NablaCheckError as e:
            out.write(f"error: {path}:{item.line}: {e}\n")
            return INCONCLUSIVE
    return worst


def run_query(text, st, out, max_answers=None):
    """Run one --query goal, printing every answer and a status line."""
    try:
        goal = parse_query(text)
    except ParseError as e:
        out.write(f"error: {e}\n")
        return INCONCLUSIVE
    st.defs.register_formula(goal)
    result = solve(goal, st, max_answers=max_answers)
    for a in result.answers:
        out.write(a.text() + "\n")
    if result.inconclusive:
        out.write(f"% inconclusive: {result.error}\n")
        return INCONCLUSIVE
    if result.proved:
        plural = "" if len(result.answers) == 1 else "s"
        out.write(f"% proved ({len(result.answers)} answer{plural})\n")
        return OK
    out.write("% disproved\n")
    return WRONG


def check_definitions(st, out, warned):
    """Run level inference over everything loaded so far, print fresh
    warnings, and report an error when the levels cannot be made to fit."""
    err = None
    try:
        st.defs.check()
    except NablaCheckError as e:
        err = e
    for w in st.defs.warnings:
        if w not in warned:
            warned.add(w)
            out.write(f"% warning: {w}\n")
    if err is not None:
        out.write(f"error: {err}\n")
        return INCONCLUSIVE
    return OK


def run_interaction(text, st, out, inp):
    """One interactive statement: a directive, or a query stepped with `;`."""
    try:
        stmt = parse_interaction(text)
    except ParseError as e:
        out.write(f"error: {e}\n")
        return INCONCLUSIVE
    if not isinstance(stmt, Formula):
        try:
            return apply_directive(stmt, st, out)
        except NablaCheckError as e:
            out.write(f"error: {e}\n")
            return INCONCLUSIVE
    st.defs.register_formula(stmt)
    st.steps = 0
    count = 0
    gen = solve_iter(stmt, st)
    try:
        for answer in gen:
            count += 1
            out.write(answer.text() + "\n")
            out.write("more (;) ? ")
            out.flush()
            line = inp.readline()
            if not line or not line.strip().startswith(";"):
                return OK
        out.write("no more.\n" if count else "no.\n")
        return OK if count else WRONG
    except NablaCheckError as e:
        out.write(f"error: {e}\n")
        return INCONCLUSIVE
    finally:
        gen.close()


def repl(st, out, inp):
    """Read statements to a closing dot; EOF ends the session."""
    worst = OK
    buf = []
    while True:
        out.write("?= " if not buf else "   ")
        out.flush()
        line = inp.readline()
        if not line:
            break
        bare = line.split("%", 1)[0].rstrip()
        if not bare and not buf:
            continue
        buf.append(line)
        if not bare.endswith("."):
            continue
        text = "".join(buf)
        buf = []
        worst = max(worst, run_interaction(text, st, out, inp))
    out.write("\n")
    return worst


def _positive_int(text):
    """argparse type: a positive decimal integer."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return n


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="nabla-check",
        description="Proof search for a two-level definitional logic "
        "with a fresh-name quantifier.",
    )
    ap.add_argument("files", nargs="*", help="definition files to load")
    ap.add_argument(
        "-q", "--query", action="append", default=[], metavar="GOAL",
        help="goal to run after loading (repeatable)",
    )
    ap.add_argument(
        "--max-answers", type=_positive_int, default=None, metavar="N",
        help="stop each --query after N answers",
    )
    ap.add_argument(
        "--budget", type=_positive_int, metavar="N",
        default=os.environ.get("NABLA_CHECK_BUDGET", str(DEFAULT_STEP_BUDGET)),
        help="per-query step budget (default %d, or NABLA_CHECK_BUDGET)"
        % DEFAULT_STEP_BUDGET,
    )
    ap.add_argument(
        "--norm-budget", type=_positive_int, default=DEFAULT_NORM_BUDGET,
        metavar="N",
        help="work budget for normalizing one term (default %(default)s)",
    )
    ap.add_argument(
        "--show-table", action="append", default=[], metavar="PRED",
        help="dump the table of PRED after the run (repeatable)",
    )
    ap.add_argument(
        "--no-tabling", action="store_true",
        help="ignore #table directives (for comparing search behavior)",
    )
    ap.add_argument(
        "--trace", action="store_true",
        help="log every prover dispatch to stderr",
    )
    args = ap.parse_args(argv)

    out = sys.stdout
    st = State(
        defs=DefSet(),
        max_steps=args.budget,
        norm_budget=args.norm_budget,
        tabling=not args.no_tabling,
        trace=sys.stderr if args.trace else None,
    )
    worst = OK
    warned = set()
    for path in args.files:
        worst = max(worst, load_file(path, st, out))
        if worst == INCONCLUSIVE:
            return worst
        worst = max(worst, check_definitions(st, out, warned))
        if worst == INCONCLUSIVE:
            return worst
    for q in args.query:
        worst = max(worst, run_query(q, st, out, args.max_answers))
    for pred in args.show_table:
        out.write(table_report(st, pred) + "\n")
    if not args.files and not args.query:
        worst = max(worst, repl(st, out, sys.stdin))
    return worst


if __name__ == "__main__":
    sys.exit(main())
