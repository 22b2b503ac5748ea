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
    print_substitution,
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


def _warn(pred):
    """Warn on stderr about a name a goal calls that no loaded file gives a
    clause, a table mode or a level: a probable typo, which would otherwise
    only read as the empty definition solve registers (compile_goal)."""
    sys.stderr.write(f"% warning: {pred} has no clause, #table or #level\n")


def run_assertion(directive, st, out, filename):
    kind = "assert" if directive.positive else "assert_not"
    where = f"{filename}:{directive.line}: " if filename else ""
    text = print_formula(directive.formula)
    limit = 1 if directive.positive else None
    result = solve(directive.formula, st, max_answers=limit, warn=_warn)
    code, verdict = _verdict(result, directive.positive)
    out.write(f"{where}{kind} {text} ... {verdict}\n")
    return code


def apply_directive(d, st, out, filename=None):
    """Run a directive other than #include, which loads a file."""
    td = type(d)
    if td is LevelDirective:
        st.defs.declare_level(d.pred, d.level)
        return OK
    if td is TableDirective:
        st.defs.set_table(d.pred, d.mode)
        return OK
    if td is AssertDirective:
        return run_assertion(d, st, out, filename)
    if td is ClearTablesDirective:
        clear_tables(st)
        return OK
    if td is ShowTableDirective:
        out.write(table_report(st, d.pred) + "\n")
        return OK
    raise TypeError(f"not a directive: {d!r}")


def _open(path, paths, files, out):
    """Push the file at path: its path on paths, its items on files.  OK
    once it is pushed, INCONCLUSIVE once an error is reported."""
    path = os.path.normpath(path)
    if path in paths:
        out.write(f"error: {path}: include cycle\n")
        return INCONCLUSIVE
    try:
        # Decoded as the REPL decodes stdin: the tokenizer places a stray byte.
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            items = parse_file(fh.read(), filename=path)
    except (OSError, ParseError) as e:
        out.write(f"error: {e}\n")
        return INCONCLUSIVE
    except ValueError as e:  # a NUL in the path
        out.write(f"error: {path}: {e}\n")
        return INCONCLUSIVE
    paths.append(path)
    files.append(iter(items))
    return OK


def load_file(path, st, out):
    """Load one definition file, running directives in order.

    An #include loads the named file where it stands.  The files being
    loaded wait on a stack, so a chain of includes of any length uses no
    interpreter stack; a file already on it is an include cycle.  An error
    ends the file it occurs in alone.  Each file's code folds into its
    includer's by max, so one worst code serves all.
    """
    paths = []
    files = []
    worst = _open(path, paths, files, out)
    while files:
        item = next(files[-1], None)
        path = paths[-1]
        try:
            if item is None:  # the file is done
                del files[-1], paths[-1]
            elif type(item) is ClauseItem:
                st.defs.add_clause(
                    item.pred, item.head_args, item.body,
                    item.var_names, item.line,
                )
            elif type(item) is IncludeDirective:
                base = os.path.dirname(path)
                code = _open(os.path.join(base, item.path), paths, files, out)
                worst = max(worst, code)
            else:
                worst = max(worst, apply_directive(item, st, out, path))
        except NablaCheckError as e:
            out.write(f"error: {path}:{item.line}: {e}\n")
            worst = INCONCLUSIVE
            del files[-1], paths[-1]
    return worst


def run_query(text, st, out, max_answers=None):
    """Run one --query goal, printing every answer and a status line; the
    module's parse_query and solve are called, so wrappers on them apply."""
    try:
        goal = parse_query(text)
    except ParseError as e:
        out.write(f"error: {e}\n")
        return INCONCLUSIVE
    result = solve(goal, st, max_answers=max_answers, warn=_warn)
    for a in result.answers:
        out.write(print_substitution(a.bindings) + "\n")
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
    warnings, and print the error when the levels cannot be made to fit,
    unless its text is in warned."""
    err = None
    try:
        st.defs.check()
    except NablaCheckError as e:
        err = e
    for w in st.defs.warnings:
        if w not in warned:
            warned.add(w)
            out.write(f"% warning: {w}\n")
    if err is None:
        return OK
    if str(err) not in warned:
        out.write(f"error: {err}\n")
    return INCONCLUSIVE


def run_interaction(text, st, out, inp):
    """One interactive statement: a directive, followed by the level check
    that follows each batch file, or a query stepped with `;`.
    Returns the exit code and the reply to `more (;) ?` if it was not `;`
    but a statement of its own, ending with a dot (the next query of a
    piped session), else None."""
    try:
        stmt = parse_interaction(text)
    except ParseError as e:
        out.write(f"error: {e}\n")
        return INCONCLUSIVE, None
    if not isinstance(stmt, Formula):
        # The error the last check raised, at a directive or a query, was
        # printed then: print it again only when its text changes.
        warned = {*st.defs.warnings, st.defs.error}
        try:
            code = (load_file(stmt.path, st, out)
                    if type(stmt) is IncludeDirective
                    else apply_directive(stmt, st, out))
        except NablaCheckError as e:
            out.write(f"error: {e}\n")
            code = INCONCLUSIVE
        return max(code, check_definitions(st, out, warned)), None
    count = 0
    gen = solve_iter(stmt, st, _warn)
    try:
        for answer in gen:
            count += 1
            out.write(answer.text() + "\n")
            out.write("more (;) ? ")
            out.flush()
            line = inp.readline()
            if not line.strip().startswith(";"):
                bare = line.split("%", 1)[0].rstrip()
                return OK, line if bare.endswith(".") else None
        out.write("no more.\n" if count else "no.\n")
        return (OK if count else WRONG), None
    except NablaCheckError as e:
        out.write(f"error: {e}\n")
        return INCONCLUSIVE, None
    finally:
        gen.close()


def repl(st, out, inp):
    """Read statements to a closing dot; EOF ends the session, and text
    still waiting for its dot there is an error."""
    worst = OK
    buf = []
    while True:
        out.write("?= " if not buf else "   ")
        out.flush()
        line = inp.readline()
        if not line:
            if buf:
                out.write("\nerror: incomplete statement (no closing dot)")
                worst = INCONCLUSIVE
            break
        bare = line.split("%", 1)[0].rstrip()
        if not bare and not buf:
            continue
        buf.append(line)
        if not bare.endswith("."):
            continue
        text = "".join(buf)
        buf = []
        while text is not None:  # a statement given as a reply runs next
            code, text = run_interaction(text, st, out, inp)
            worst = max(worst, code)
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
    try:
        worst = _run(args, st, out)
        out.flush()
    except BrokenPipeError:
        # The reader of stdout has gone: point stdout at devnull, so that
        # the flush at exit stays silent (the signal module's docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return INCONCLUSIVE
    return worst


def _run(args, st, out):
    """main's work once its options are read; returns the exit code."""
    worst = OK
    warned = set()
    for path in args.files:
        code = load_file(path, st, out)
        # Only an assertion checks levels while a file loads, and it
        # printed the error it met, which ends the run after this file.
        warned.add(st.defs.error)
        worst = max(worst, code, check_definitions(st, out, warned))
        if worst == INCONCLUSIVE:
            return worst
    for q in args.query:
        worst = max(worst, run_query(q, st, out, args.max_answers))
    for pred in args.show_table:
        out.write(table_report(st, pred) + "\n")
    if not args.files and not args.query:
        inp = sys.stdin  # read as UTF-8 whatever the locale, stray bytes
        if hasattr(inp, "buffer"):  # escaped; a StringIO is read as it is
            inp = open(inp.fileno(), encoding="utf-8",
                       errors="surrogateescape", closefd=False)
        worst = max(worst, repl(st, out, inp))
    return worst


if __name__ == "__main__":
    sys.exit(main())
