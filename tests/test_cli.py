"""The nabla-check command: batch runs, queries, the interactive loop."""

import io
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import nablacheck
from nablacheck.cli import load_file, repl, run_assertion, run_query
from nablacheck.engine import State
from nablacheck.parser import parse_file

from conftest import python_calls, run_child, run_cli

MEMB = "memb X (X::L).\nmemb X (Y::L) := memb X L.\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# Batch mode and exit codes
# ---------------------------------------------------------------------------

def test_all_assertions_pass(tmp_path):
    f = write(tmp_path, "ok.def", MEMB + "#assert memb b (a::b::nil).\n")
    code, out = run_cli([f])
    assert code == 0
    assert f"{f}:3: assert memb b (a::b::nil) ... ok" in out


def test_failed_assertion_is_exit_one(tmp_path):
    f = write(tmp_path, "bad.def", MEMB + "#assert memb c (a::b::nil).\n")
    code, out = run_cli([f])
    assert code == 1
    assert "FAILED (disproved)" in out


def test_failed_negative_assertion_reports_proved(tmp_path):
    f = write(tmp_path, "bad.def", MEMB + "#assert_not memb a (a::nil).\n")
    code, out = run_cli([f])
    assert code == 1
    assert "FAILED (proved)" in out


def test_inconclusive_assertion_is_exit_two(tmp_path):
    f = write(tmp_path, "loop.def", "loop := loop.\n#assert loop.\n")
    code, out = run_cli(["--budget", "500", f])
    assert code == 2
    assert "FAILED (inconclusive:" in out


def test_missing_file(tmp_path):
    code, out = run_cli([str(tmp_path / "absent.def")])
    assert code == 2
    assert out.startswith("error:")


def test_a_file_that_is_not_utf8_is_an_error(tmp_path):
    # A stray byte in a file is placed as one at the REPL is.
    (tmp_path / "bad.def").write_bytes(b"p a.\n\xff\xfe\n")
    code, out = run_cli([str(tmp_path / "bad.def")])
    assert code == 2
    assert out == f"error: {tmp_path / 'bad.def'}:2:1: unexpected byte 0xff\n"


def test_an_include_that_is_not_utf8_is_an_error_and_the_includer_goes_on(
        tmp_path):
    (tmp_path / "bad.def").write_bytes(b"p a.\n\xff\xfe\n")
    f = write(tmp_path, "inc.def", '#include "bad.def".\n#assert a = a.\n')
    code, out = run_cli([f])
    assert code == 2
    assert out == (f"error: {tmp_path / 'bad.def'}:2:1: unexpected byte 0xff\n"
                   f"{f}:2: assert a = a ... ok\n")


def test_an_include_path_with_a_nul_byte_is_an_error(tmp_path):
    f = write(tmp_path, "nul.def", '#include "a\0b.def".\n#assert a = a.\n')
    code, out = run_cli([f])
    assert code == 2
    assert "embedded null byte" in out
    assert f"{f}:2: assert a = a ... ok" in out


def test_an_out_of_range_level_skips_the_rest_of_its_file(tmp_path):
    f = write(tmp_path, "f.def", "#level p 2.\n#assert a = a.\n")
    code, out = run_cli([f])
    assert code == 2
    assert out == f"error: {f}:1: level of p must be 0 or 1, not 2\n"


def test_parse_error_reports_location(tmp_path):
    f = write(tmp_path, "syn.def", "p a.\nq :=\n")
    code, out = run_cli([f])
    assert code == 2
    assert "error:" in out and "syn.def:" in out


def test_later_files_see_earlier_definitions(tmp_path):
    one = write(tmp_path, "one.def", MEMB)
    two = write(tmp_path, "two.def", "#assert memb a (a::nil).\n")
    code, out = run_cli([one, two])
    assert code == 0 and "ok" in out


def test_include_resolves_relative_to_the_including_file(tmp_path):
    (tmp_path / "lib").mkdir()
    write(tmp_path / "lib", "list.def", MEMB)
    top = write(
        tmp_path, "top.def",
        '#include "lib/list.def".\n#assert memb a (b::a::nil).\n',
    )
    code, out = run_cli([top])
    assert code == 0 and "ok" in out


def test_include_cycle_is_reported(tmp_path):
    write(tmp_path, "a.def", '#include "b.def".\n')
    write(tmp_path, "b.def", '#include "a.def".\n')
    code, out = run_cli([str(tmp_path / "a.def")])
    assert code == 2
    assert "include cycle" in out


def test_a_long_include_chain_needs_no_interpreter_stack(tmp_path):
    # Each file includes the next; the files being loaded wait on
    # load_file's own stack, so the chain proves under a recursion limit
    # far below its length.
    n = 2000
    for i in range(n):
        write(tmp_path, f"f{i}.def", f'#include "f{i + 1}.def".\n')
    write(tmp_path, f"f{n}.def", "p a.\n")
    script = ("import sys; from nablacheck.cli import main; "
              "sys.setrecursionlimit(200); "
              f"sys.exit(main([{str(tmp_path / 'f0.def')!r}, '-q', 'p a']))")
    proc = run_child(["-c", script])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "% proved" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_worst_exit_code_wins(tmp_path):
    f = write(
        tmp_path, "mixed.def",
        MEMB + "#assert memb a (a::nil).\n#assert memb c (a::nil).\n",
    )
    code, out = run_cli([f])
    assert code == 1
    assert "ok" in out and "FAILED (disproved)" in out


# ---------------------------------------------------------------------------
# Queries from the command line
# ---------------------------------------------------------------------------

def test_query_prints_answers_then_status(tmp_path):
    f = write(tmp_path, "m.def", MEMB)
    code, out = run_cli([f, "--query", "memb X (a::b::nil)"])
    assert code == 0
    lines = out.splitlines()
    assert lines == ["X = a", "X = b", "% proved (2 answers)"]


def test_query_singular_answer_count(tmp_path):
    f = write(tmp_path, "m.def", MEMB)
    code, out = run_cli([f, "-q", "memb X (a::nil)"])
    assert code == 0 and "% proved (1 answer)" in out


def test_python_dash_m_nablacheck_runs_the_command(tmp_path):
    f = write(tmp_path, "m.def", MEMB + "#assert memb b (a::b::nil).\n")
    argv = [f, "-q", "memb X (a::b::nil)", "-q", "memb c (a::nil)"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(nablacheck.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "nablacheck", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    code, out = run_cli(argv)
    assert proc.returncode == code == 1
    assert proc.stdout == out
    assert "X = b" in out and "% disproved" in out
    assert proc.stderr == ""


def test_a_closed_stdout_is_exit_two_without_a_traceback(tmp_path):
    f = write(tmp_path, "p.def", "p a.\n")
    r, w = os.pipe()
    os.close(r)  # nobody reads: the first write meets a broken pipe
    src = os.path.dirname(os.path.dirname(os.path.abspath(nablacheck.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nablacheck", f, "-q", "p X"],
            stdout=w, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
    finally:
        os.close(w)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_disproved_query_is_exit_one(tmp_path):
    f = write(tmp_path, "m.def", MEMB)
    code, out = run_cli([f, "--query", "memb c (a::b::nil)"])
    assert code == 1
    assert "% disproved" in out


def test_a_name_nothing_defines_is_warned_about_on_stderr(tmp_path, capsys):
    f = write(tmp_path, "m.def", MEMB + "#table inductive tab.\n"
              "#assert_not exists X. memb X nil /\\ tab X /\\ typo2 X.\n")
    code, out = run_cli([f, "-q", "exists X. typo X \\/ memb X nil",
                         "-q", "memb a nil => false"])
    assert code == 1
    assert out.splitlines() == [
        f"{f}:4: assert_not exists X. memb X nil /\\ tab X /\\ typo2 X ... ok",
        "% disproved",
        "yes",
        "% proved (1 answer)",
    ]
    # One line per name, in the order of the goals; memb has clauses, tab
    # a table mode, and false is the empty predicate on purpose.
    assert capsys.readouterr().err == (
        "% warning: typo2 has no clause, #table or #level\n"
        "% warning: typo has no clause, #table or #level\n")


def test_max_answers_limits_enumeration(tmp_path):
    f = write(tmp_path, "m.def", MEMB)
    code, out = run_cli(
        [f, "--query", "memb X (a::b::c::nil)", "--max-answers", "1"]
    )
    assert code == 0
    assert out.splitlines() == ["X = a", "% proved (1 answer)"]


def test_queries_run_without_any_file():
    code, out = run_cli(["--query", "exists X. X = f a"])
    assert code == 0
    assert "X = f a" in out


def test_malformed_query_is_exit_two():
    code, out = run_cli(["--query", "exists . oops"])
    assert code == 2 and "error:" in out


def test_budget_env_variable_is_the_default(tmp_path, monkeypatch):
    f = write(tmp_path, "loop.def", "loop := loop.\n")
    monkeypatch.setenv("NABLA_CHECK_BUDGET", "400")
    code, out = run_cli([f, "--query", "loop"])
    assert code == 2
    assert "% inconclusive:" in out and "400" in out


@pytest.mark.parametrize("argv, env", [
    (["--max-answers", "0"], {}),
    (["--max-answers", "-3"], {}),
    (["--budget", "-1"], {}),
    (["--budget", "0"], {}),
    (["--norm-budget", "ten"], {}),
    ([], {"NABLA_CHECK_BUDGET": "abc"}),
    ([], {"NABLA_CHECK_BUDGET": "-5"}),
])
def test_numeric_options_must_be_positive_integers(argv, env):
    src = os.path.dirname(os.path.dirname(os.path.abspath(nablacheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src, **env)
    proc = subprocess.run(
        [sys.executable, "-m", "nablacheck.cli", "-q", "true", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: nabla-check")
    assert "expected a positive integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_no_tabling_flag_disables_tables(tmp_path):
    f = write(
        tmp_path, "cyc.def",
        "edge a b.\nedge b a.\n"
        "reach X Y := edge X Y.\nreach X Y := edge X Z /\\ reach Z Y.\n"
        "#table inductive reach.\n",
    )
    code, out = run_cli([f, "--query", "reach a c"])
    assert code == 1 and "% disproved" in out
    code, out = run_cli([f, "--query", "reach a c", "--no-tabling",
                         "--budget", "2000"])
    assert code == 2 and "% inconclusive:" in out


def test_show_table_dumps_certificate(tmp_path):
    f = write(
        tmp_path, "g.def",
        "move (s N) N.\nlose X := move X Y /\\ lose Y.\n"
        "#table inductive lose.\n",
    )
    code, out = run_cli([f, "--query", "lose (s (s z))", "--show-table", "lose"])
    assert code == 1
    assert "% table lose (inductive):" in out
    assert "disproved lose z." in out


def test_trace_logs_dispatches(tmp_path, capsys):
    f = write(tmp_path, "m.def", MEMB)
    code, out = run_cli([f, "--query", "memb a (a::nil)", "--trace"])
    assert code == 0
    assert "p0  memb a (a::nil)" in capsys.readouterr().err
    # the dispatch log stays off stdout, which holds the answers only
    assert out.splitlines() == ["yes", "% proved (1 answer)"]


# ---------------------------------------------------------------------------
# Definition checking on load
# ---------------------------------------------------------------------------

def test_negation_through_recursion_warns_then_errors(tmp_path):
    f = write(
        tmp_path, "neg.def",
        "bad X := (bad X) => false.\nbad X := (bad a) => false.\n",
    )
    code, out = run_cli([f])
    assert code == 2
    assert out.count("% warning:") == 1
    assert "bad" in out
    assert "error:" in out


def test_declared_level_conflicts_are_errors(tmp_path):
    f = write(
        tmp_path, "lvl.def",
        "p X := forall y. q y => r.\n#level p 0.\nq a.\nr.\n",
    )
    code, out = run_cli([f])
    assert code == 2 and "error:" in out


def test_a_level_conflict_names_the_first_predicate_under_any_hash_seed(
        tmp_path):
    # b and c are first met in a's body; the one in load order is b.
    f = write(tmp_path, "seed.def",
              "a := b /\\ c.\nb := forall x. x = x.\nc := forall x. x = x.\n"
              "#level b 0.\n#level c 0.\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nablacheck.__file__)))
    for seed in range(1, 7):
        proc = subprocess.run(
            [sys.executable, "-m", "nablacheck", f], capture_output=True,
            text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)),
        )
        assert proc.returncode == 2
        assert proc.stdout == ("error: clause of b (line 2) has a level-1 "
                               "body but b is declared level 0\n"), seed


# ---------------------------------------------------------------------------
# Tables after a definition changes
# ---------------------------------------------------------------------------

REACH_AB = """edge a b.
reach X Y := edge X Y.
reach X Y := edge X Z /\\ reach Z Y.
#table inductive reach.
#assert_not reach a c.
"""


def test_a_clause_after_a_table_drops_the_stale_rows(tmp_path):
    f = write(tmp_path, "reach.def",
              REACH_AB + "edge b c.\n#assert reach a c.\n")
    code, out = run_cli([f])
    assert code == 0, out
    assert out.count("... ok") == 2


def test_a_table_mode_after_a_table_drops_the_table(tmp_path):
    # loop b was never asked before: the stale part is the table's mode.
    f = write(tmp_path, "loop.def", """loop X := loop X.
#table inductive loop.
#assert_not loop a.
#table coinductive loop.
#assert loop a.
#assert loop b.
""")
    code, out = run_cli([f])
    assert code == 0, out
    assert out.count("... ok") == 3


def test_a_later_file_drops_the_tables_its_clauses_change(tmp_path):
    t1 = write(tmp_path, "t1.def", REACH_AB)
    t2 = write(tmp_path, "t2.def", "edge b c.\n")
    code, out = run_cli([t1, t2, "-q", "reach a c"])
    assert code == 0, out
    assert "% proved (1 answer)" in out


def test_an_interactive_include_drops_the_tables_it_changes(tmp_path):
    t1 = write(tmp_path, "t1.def", REACH_AB)
    t2 = write(tmp_path, "t2.def", "edge b c.\n")
    code, out = run_cli([], stdin_text=(
        f'#include "{t1}".\nreach a c.\n#include "{t2}".\nreach a c.\n;\n'))
    assert code == 1, out  # the first query, asked before edge b c
    assert "no.\n" in out and "no more.\n" in out


def test_an_interactive_include_checks_levels_as_a_batch_load_does(
        tmp_path):
    # The warning and the error come at the #include, as they do after a
    # file given on the command line; the query reports the error again,
    # and a later include, whose check fails the same way, repeats
    # neither.
    sa = write(tmp_path, "sa.def", "p X := (p X) => false.\n")
    other = write(tmp_path, "other.def", "t a.\n")
    warning = ("% warning: predicate p occurs in the antecedent of its own "
               "definition\n")
    error = ("error: clause of p (line 1): the antecedent of an implication "
             "must be a level-0 formula, but it calls p, which is level 1\n")
    assert run_cli([sa]) == (2, warning + error)
    code, out = run_cli([], stdin_text=(
        f'#include "{sa}".\nq a.\n#include "{other}".\n'))
    assert code == 2
    assert out == f"?= {warning}{error}?= {error}?= ?= \n"


def test_an_interactive_level_clash_is_reported_as_a_batch_load_does(
        tmp_path):
    # A #level typed at the REPL is checked at once, as the same #level at
    # the end of a file is; no query has to follow it.
    ab = "a := b.\nb := forall x. x = x.\n"
    error = ("error: clause of a (line 1) has a level-1 body but a is "
             "declared level 0\n")
    assert run_cli([write(tmp_path, "clash.def", ab + "#level a 0.\n")]) == (
        2, error)
    code, out = run_cli([], stdin_text=(
        f'#include "{write(tmp_path, "ab.def", ab)}".\n#level a 0.\n'))
    assert code == 2
    assert out == f"?= ?= {error}?= \n"


def test_a_directive_does_not_reprint_a_level_error_that_has_not_changed(
        tmp_path):
    # The error comes after the #include that makes it, and after the query
    # it stops, to say why that did not run; the #table between them fails
    # the check the same way and prints nothing.
    clash = write(tmp_path, "clash.def",
                  "a := b.\nb := forall x. x = x.\n#level a 0.\n")
    error = ("error: clause of a (line 1) has a level-1 body but a is "
             "declared level 0\n")
    assert run_cli([], stdin_text=(
        f'#include "{clash}".\n#table inductive q.\na = a.\n')) == (
        2, f"?= {error}?= ?= {error}?= \n")


def test_a_file_that_ends_inconclusive_is_still_checked(tmp_path):
    # The assertion's failed check makes the file inconclusive; the check
    # after the file still runs, so its warning is printed as it is for the
    # file without the assertion, and its error, which the assertion's
    # line printed, is not printed again.
    sa = "p X := (p X) => false.\n"
    _, checked = run_cli([write(tmp_path, "sa.def", sa)])
    warning, error = checked.splitlines()
    assert warning == ("% warning: predicate p occurs in the antecedent of "
                       "its own definition")
    error = error.removeprefix("error: ")
    f = write(tmp_path, "sa_assert.def", sa + "#assert p a.\n")
    assert run_cli([f]) == (
        2, f"{f}:2: assert p a ... FAILED (inconclusive: {error})\n"
        f"{warning}\n")


def test_unrelated_clauses_keep_a_table(tmp_path):
    f = write(tmp_path, "keep.def", REACH_AB + "other z.\n#assert other z.\n")
    code, out = run_cli([f, "--show-table", "reach"])
    assert code == 0, out
    assert "% table reach (inductive): 0 proved, 2 disproved" in out


def test_a_settled_query_costs_few_python_calls(tmp_path):
    # A ground query that one settled table entry answers should cost
    # little more than its lookup.  The counts do not depend on the
    # machine, so they guard the query path where timings cannot: the
    # query made 54 calls and the assertion 42 before the path was cut
    # down (reader, registration, solve, table hit, answer printing), and
    # the assertion 23 before printing its formula took one walk.
    # Registering the names a goal calls is compile_goal's walk, not the
    # walk over arriving clause bodies (DefSet._read_body).
    st = State()
    f = write(tmp_path, "r.def", REACH_AB + "edge b c.\n")
    assert load_file(f, st, io.StringIO()) == 0
    assert run_query("reach a c", st, io.StringIO()) == 0  # settles it
    out = io.StringIO()
    calls = python_calls(run_query, "reach a c", st, out)
    assert out.getvalue() == "yes\n% proved (1 answer)\n"
    assert len(calls) <= 26, calls
    assert "_read_body" not in calls and calls.count("compile_goal") == 1
    directive = parse_file("#assert reach a c.\n")[0]
    out = io.StringIO()
    calls = python_calls(run_assertion, directive, st, out, "r.def")
    assert out.getvalue() == "r.def:1: assert reach a c ... ok\n"
    assert len(calls) <= 20, calls
    assert "_read_body" not in calls and calls.count("compile_goal") == 1


def test_clauses_between_assertions_of_one_predicate_load_in_linear_work(
        tmp_path):
    # p a0. #assert p a0. p a1. ...: each assertion unfolds p, whose index
    # takes in the one clause that arrived since.  Rebuilding the index from
    # every clause made 3.81 times the work per doubling.  The counts, of
    # Python and built-in calls, do not depend on the machine.
    counts = []
    for n in (500, 1000):
        f = write(tmp_path, f"alt{n}.def", "".join(
            f"p a{i}.\n#assert p a{i}.\n" for i in range(n)))
        out = io.StringIO()
        calls = python_calls(load_file, f, State(), out,
                             events=("call", "c_call"))
        assert out.getvalue().count(" ... ok\n") == n
        counts.append(len(calls))
    assert counts[1] <= 2.2 * counts[0], counts


# ---------------------------------------------------------------------------
# Interactive loop
# ---------------------------------------------------------------------------

def test_repl_steps_through_answers():
    code, out = run_cli([], stdin_text="X = a \\/ X = b.\n;\n;\n")
    assert code == 0
    assert "X = a" in out and "X = b" in out
    assert out.count("more (;) ?") == 2
    assert "no more." in out


def test_repl_runs_a_statement_given_as_the_reply_to_more():
    # A piped session: the line after an answer is the next query, and
    # neither ; nor empty, so it runs as a statement of its own.
    out = io.StringIO()
    code = repl(State(), out, io.StringIO(
        "exists X. X = a.\nexists Y. Y = b.\n"))
    assert code == 0
    assert "X = a\n" in out.getvalue() and "Y = b\n" in out.getvalue()


def test_repl_stops_when_not_asked_for_more():
    code, out = run_cli([], stdin_text="X = a \\/ X = b.\nstop\n")
    assert code == 0
    assert "X = a" in out and "X = b" not in out
    assert "no more." not in out


def test_repl_moves_on_at_a_reply_that_is_not_a_statement():
    # stop has no closing dot, so it is not read as a statement: the
    # query after it runs on its own.
    code, out = run_cli([], stdin_text="X = a \\/ X = b.\nstop\na = a.\n")
    assert code == 0
    assert "X = b" not in out and "error" not in out
    assert out.count("yes") == 1


def test_repl_reports_a_statement_left_without_its_dot_at_the_end():
    # The input ends inside a statement: an error, not a silent exit 0.
    code, out = run_cli([], stdin_text="a = b")
    assert code == 2
    assert "error: incomplete statement (no closing dot)" in out
    assert "no." not in out
    code, out = run_cli([], stdin_text="a = a.\nexists X.\n  X = a")
    assert code == 2 and "yes" in out and "incomplete statement" in out


def test_repl_reports_no_for_disproved():
    code, out = run_cli([], stdin_text="a = b.\n")
    assert code == 1
    assert "no.\n" in out


def test_repl_accepts_multiline_statements():
    code, out = run_cli([], stdin_text="Y =\n  f a.\n;\n")
    assert code == 0
    assert "Y = f a" in out
    assert "   " in out  # continuation prompt


def test_repl_runs_assertions_and_directives():
    script = "#assert a = a.\n#assert_not a = b.\n#clear_tables.\n"
    code, out = run_cli([], stdin_text=script)
    assert code == 0
    assert "assert a = a ... ok" in out
    assert "assert_not a = b ... ok" in out


def test_repl_skips_comment_lines():
    code, out = run_cli([], stdin_text="% just a comment\na = a.\n;\n")
    assert code == 0
    assert "no more." in out


def test_repl_reports_an_out_of_range_level():
    code, out = run_cli([], stdin_text="#level p 2.\n")
    assert code == 2
    assert "error: level of p must be 0 or 1, not 2\n" in out


def test_repl_error_statement_is_exit_two():
    code, out = run_cli([], stdin_text="(X = a) => X = a.\n")
    assert code == 2
    assert "error:" in out


@pytest.mark.parametrize("env", [
    {"PYTHONIOENCODING": "utf-8"},  # a strict stdin, as on a UTF-8 desktop
    {"LC_ALL": "C", "PYTHONIOENCODING": ""},  # the POSIX locale
], ids=["utf8", "posix"])
def test_a_byte_that_is_not_utf8_at_the_repl_is_an_error(env):
    # The REPL decodes its input as UTF-8 whatever the locale, and the
    # tokenizer names the stray byte; the statements around it still run.
    src = os.path.dirname(os.path.dirname(os.path.abspath(nablacheck.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "nablacheck"],
        input=b"\xff = a.\na = a.\n", capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, **env),
    )
    assert proc.returncode == 2
    assert proc.stdout.decode() == (
        "?= error: 1:1: unexpected byte 0xff\n?= yes\nmore (;) ? ?= \n")
    assert proc.stderr == b""


# ---------------------------------------------------------------------------
# Ill-behaved problems surface, never misreport
# ---------------------------------------------------------------------------

def test_nonpattern_shows_the_offending_subproblem():
    code, out = run_cli(["--query", "exists F. F (s z) = s z"])
    assert code == 2
    assert "% inconclusive:" in out
    assert "(s z)" in out and "= s z" in out
    assert "proved" not in out and "disproved" not in out
    # An argument F may already depend on is outside the fragment too.
    for query, message in [
        ("nabla n. exists F. F n = n",
         "argument #0 is already visible to F (local level 1): F_0 #0 = #0"),
        ("forall x. exists F. F x = x",
         "argument x is already visible to F (global level): F_1 x_0 = x_0"),
    ]:
        assert run_cli(["--query", query]) == (
            2, f"% inconclusive: {message}\n")


def test_normalization_blowup_shows_the_offending_term():
    code, out = run_cli(["--query", "(x\\ x x) (x\\ x x) = a"])
    assert code == 2
    assert "% inconclusive:" in out
    assert "x\\ x x" in out
    assert "proved" not in out and "disproved" not in out


def test_deep_list_proves_without_a_crash(tmp_path):
    # Run in a child process: a C stack overflow would kill pytest itself.
    # Each step but the last has one candidate clause left, so the 20,000
    # steps keep no choice point open.
    lst = "b::" * 19999 + "a::nil"
    path = write(tmp_path, "deep.def", MEMB + f"#assert memb a ({lst}).\n")
    proc = run_child(["-m", "nablacheck.cli", path])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "inconclusive" not in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr


def test_deeply_nested_input_is_a_parse_error_without_a_crash(tmp_path):
    # 12,000 nested parentheses once overflowed the interpreter stack
    # inside the parser; now the parser refuses them itself.
    n = 12_000
    num = "(s " * n + "z" + ")" * n
    path = write(tmp_path, "nested.def",
                 f"nat z.\nnat (s N) := nat N.\n#assert nat {num}.\n")
    proc = run_child(["-m", "nablacheck.cli", path])
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "error:" in proc.stdout and "nested more than" in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr


def test_query_over_a_long_list_ends_without_a_crash(tmp_path):
    # The query's 20,000 cells are read and closed without recursion, the
    # proof is 20,000 deterministic unfolds, and the answer's 20,000-deep
    # numeral is normalized and printed without recursion either.
    lst = "a::" * 20_000 + "nil"
    path = write(tmp_path, "len.def",
                 "len nil z.\nlen (X::L) (s N) := len L N.\n")
    proc = run_child(["-m", "nablacheck.cli", path, "-q", f"len ({lst}) N"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    num = "s (" * 19_999 + "s z" + ")" * 19_999
    assert proc.stdout == f"N = {num}\n% proved (1 answer)\n"
    assert "Traceback" not in proc.stderr


def test_fact_over_a_long_list_matches_and_prints(tmp_path):
    # An inert clause-head argument is matched whole, and the answer is
    # printed, without recursion through its 40,000 cells.
    lst = "a::" * 40_000 + "nil"
    path = write(tmp_path, "big.def", f"big ({lst}).\n")
    proc = run_child(["-m", "nablacheck.cli", path, "-q", "big L"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == f"L = {lst}\n% proved (1 answer)\n"
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# The first file of README.md and PAPER.md, run as shown
# ---------------------------------------------------------------------------

DOCS = [pathlib.Path(__file__).resolve().parents[1] / name
        for name in ("README.md", "PAPER.md")]


def readme_first_file(doc):
    """The code blocks of doc's "A first file" section: the file, the shell
    transcript and the interactive session."""
    text = doc.read_text(encoding="utf-8")
    section = text.split("## A first file\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```\n")[1::2]


def test_readme_first_file_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for doc in DOCS:
        source, transcript, _ = readme_first_file(doc)
        (tmp_path / "lists.def").write_text(source)
        commands = transcript.split("$ nabla-check")[1:]
        assert any("--max-answers 4" in c for c in commands), doc.name
        for command in commands:
            line, _, shown = command.partition("\n")
            code, out = run_cli(shlex.split(line))
            assert code == 0
            assert out == shown.rstrip("\n") + "\n", (doc.name, line)


def test_readme_first_file_session(tmp_path, monkeypatch):
    # Each prompt line shows the prompt and what was typed after it; with
    # input from a pipe nothing is echoed, so stdout holds the prompt alone.
    # At the end of input the loop prints one more prompt and a newline.
    monkeypatch.chdir(tmp_path)
    for doc in DOCS:
        source, _, session = readme_first_file(doc)
        (tmp_path / "lists.def").write_text(source)
        typed, shown = [], []
        for line in session.splitlines()[1:]:
            for prompt in ("?= ", "more (;) ? "):
                if line.startswith(prompt.rstrip()):
                    typed.append(line[len(prompt):] + "\n")
                    shown.append(prompt)
                    break
            else:
                shown.append(line + "\n")
        code, out = run_cli([], "".join(typed))
        assert code == 0
        assert out == "".join(shown) + "?= \n", doc.name
