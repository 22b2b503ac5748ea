"""The nabla-check command: batch runs, queries, the interactive loop."""

import os
import subprocess
import sys

import pytest

import nablacheck

from conftest import run_cli

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


def test_disproved_query_is_exit_one(tmp_path):
    f = write(tmp_path, "m.def", MEMB)
    code, out = run_cli([f, "--query", "memb c (a::b::nil)"])
    assert code == 1
    assert "% disproved" in out


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


# ---------------------------------------------------------------------------
# Interactive loop
# ---------------------------------------------------------------------------

def test_repl_steps_through_answers():
    code, out = run_cli([], stdin_text="X = a \\/ X = b.\n;\n;\n")
    assert code == 0
    assert "X = a" in out and "X = b" in out
    assert out.count("more (;) ?") == 2
    assert "no more." in out


def test_repl_stops_when_not_asked_for_more():
    code, out = run_cli([], stdin_text="X = a \\/ X = b.\nstop\n")
    assert code == 0
    assert "X = a" in out and "X = b" not in out
    assert "no more." not in out


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


def test_repl_error_statement_is_exit_two():
    code, out = run_cli([], stdin_text="(X = a) => X = a.\n")
    assert code == 2
    assert "error:" in out


# ---------------------------------------------------------------------------
# Ill-behaved problems surface, never misreport
# ---------------------------------------------------------------------------

def test_nonpattern_shows_the_offending_subproblem():
    code, out = run_cli(["--query", "exists F. F (s z) = s z"])
    assert code == 2
    assert "% inconclusive:" in out
    assert "(s z)" in out and "= s z" in out
    assert "proved" not in out and "disproved" not in out


def test_normalization_blowup_shows_the_offending_term():
    code, out = run_cli(["--query", "(x\\ x x) (x\\ x x) = a"])
    assert code == 2
    assert "% inconclusive:" in out
    assert "x\\ x x" in out
    assert "proved" not in out and "disproved" not in out


def test_deep_list_ends_inconclusive_without_a_crash(tmp_path):
    # Run in a child process: a C stack overflow would kill pytest itself.
    lst = "b::" * 19999 + "a::nil"
    path = write(tmp_path, "deep.def", MEMB + f"#assert memb a ({lst}).\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nablacheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "nablacheck.cli", path],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "inconclusive" in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr


def test_deeply_nested_input_is_a_parse_error_without_a_crash(tmp_path):
    # 12,000 nested parentheses once overflowed the interpreter stack
    # inside the parser; now the parser refuses them itself.
    n = 12_000
    num = "(s " * n + "z" + ")" * n
    path = write(tmp_path, "nested.def",
                 f"nat z.\nnat (s N) := nat N.\n#assert nat {num}.\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nablacheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "nablacheck.cli", path],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "error:" in proc.stdout and "nested more than" in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr
