"""The nabla-check command: batch runs, queries, the interactive loop."""

import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import nablacheck

from conftest import run_child, run_cli

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
