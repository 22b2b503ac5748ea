"""Shared helpers: tiny program loading, CLI capture, corpus location."""

from __future__ import annotations

import contextlib
import gc
import importlib.resources
import io
import os
import subprocess
import sys

import pytest

import nablacheck
from nablacheck.engine import State, solve
from nablacheck.parser import (
    ClauseItem,
    LevelDirective,
    TableDirective,
    parse_file,
    parse_query,
)


def python_calls(fn, *args, events=("call",)):
    """The names of the functions fn(*args) calls, fn itself included, as
    sys.setprofile reports them: by default the Python-level ones (a
    generator counts once per resumption), with "c_call" among events the
    built-in ones too; the garbage collector, which may run finalizers, is
    off meanwhile."""
    calls = []

    def profile(frame, event, arg):
        if event in events:
            calls.append(frame.f_code.co_name if event == "call"
                         else arg.__name__)

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def state_from(text, **state_kw):
    """A State with the given clauses and level/table directives loaded.

    Assertion and include directives are for the CLI tests; programs used
    as fixtures keep to clauses and declarations.
    """
    st = State(**state_kw)
    for item in parse_file(text, "<test>"):
        t = type(item)
        if t is ClauseItem:
            st.defs.add_clause(
                item.pred, item.head_args, item.body, item.var_names, item.line
            )
        elif t is LevelDirective:
            st.defs.declare_level(item.pred, item.level)
        elif t is TableDirective:
            st.defs.set_table(item.pred, item.mode)
        else:
            raise AssertionError(f"unexpected directive in fixture: {item!r}")
    return st


def run(st, query_text, max_answers=None):
    """Parse and solve one query against a state."""
    goal = parse_query(query_text)
    return solve(goal, st, max_answers=max_answers)


def load_corpus(name, **state_kw):
    """A State with one shipped corpus file loaded (its assertions must pass)."""
    from nablacheck.cli import load_file

    st = State(**state_kw)
    out = io.StringIO()
    code = load_file(corpus_path(name), st, out)
    assert code == 0, out.getvalue()
    return st


def run_cli(argv, stdin_text=""):
    """Invoke the CLI in-process; returns (exit_code, output_text)."""
    from nablacheck.cli import main

    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


def run_child(argv):
    """Run `python argv...` in a child process that imports this
    nablacheck, under the interpreter's default recursion limit; a crash
    there cannot take pytest down.  Returns the CompletedProcess."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nablacheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env,
        timeout=300,
    )


def corpus_path(name):
    return str(importlib.resources.files("nablacheck") / "corpus" / name)


def corpus_files():
    root = importlib.resources.files("nablacheck") / "corpus"
    return sorted(str(p) for p in root.iterdir() if p.name.endswith(".def"))


@pytest.fixture
def st():
    return State()
