"""Proof search: both prover levels, the implication rule, budgets, answers."""

import ast
import gc
import io
import os
import sys
import tracemalloc

import pytest

from nablacheck import engine, logic
from nablacheck.engine import LEFT0, ONE, RIGHT0, State, prove, solve, solve_iter
from nablacheck.errors import (
    IllFormedFormula,
    BudgetExceeded,
    LevelError,
    NonGroundAntecedent,
    OuterVariableEscape,
)
from nablacheck.logic import Atom, Forall, Imp, Top
from nablacheck.parser import parse_query, print_formula, print_term

from conftest import load_corpus, run, run_child, state_from

MEMB = """
memb X (X::L).
memb X (Y::L) := memb X L.
"""


# ---------------------------------------------------------------------------
# Core connectives
# ---------------------------------------------------------------------------

def test_equality_and_disequality(st):
    assert run(st, "a = a").proved
    assert run(st, "a = b").disproved
    assert run(st, "(x\\ f x) = f").proved
    assert run(st, "(x\\ x) = (x\\ a)").disproved


def test_conjunction_disjunction(st):
    assert run(st, "a = a /\\ b = b").proved
    assert run(st, "a = a /\\ a = b").disproved
    assert run(st, "a = b \\/ b = b").proved
    assert run(st, "a = b \\/ b = c").disproved


def test_quantifier_basics(st):
    assert run(st, "exists X. X = a").proved
    assert run(st, "forall x. x = x").proved
    assert run(st, "forall x. x = a").disproved
    assert run(st, "nabla x. x = x").proved
    assert run(st, "nabla x. nabla y. x = y").disproved


def test_fresh_names_are_not_universal(st):
    # a generic name is not every term: distinguishes nabla from forall
    assert run(st, "forall x. forall y. x = y").disproved
    assert run(st, "exists X. nabla y. X = y").disproved
    assert run(st, "nabla y. exists X. X = y").proved


def test_identity_abstraction_never_matches_constant_function():
    st = State()
    r = run(st, "forall y. (x\\ x) = (x\\ y) => false")
    assert r.proved


def test_enumeration_follows_clause_order():
    st = state_from(MEMB)
    r = run(st, "memb X (a::b::c::nil)")
    assert r.proved
    assert [print_term(a.get("X")) for a in r.answers] == ["a", "b", "c"]


def test_duplicate_list_entries_give_duplicate_answers():
    st = state_from(MEMB)
    r = run(st, "memb X (a::a::nil)")
    assert [print_term(a.get("X")) for a in r.answers] == ["a", "a"]


def test_unification_threads_through_conjunction():
    st = state_from(MEMB)
    r = run(st, "memb X (a::b::nil) /\\ memb X (b::c::nil)")
    assert r.proved
    assert [print_term(a.get("X")) for a in r.answers] == ["b"]


# ---------------------------------------------------------------------------
# Implication: case analysis over antecedent answers
# ---------------------------------------------------------------------------

def test_implication_checks_every_case():
    st = state_from(MEMB)
    assert run(st, "forall x. memb x (a::b::nil) => memb x (b::a::nil)").proved
    assert run(st, "forall x. memb x (a::b::nil) => memb x (a::nil)").disproved


def test_vacuous_antecedent_succeeds():
    st = state_from(MEMB)
    assert run(st, "forall x. memb x nil => false").proved


def test_implication_yields_once_even_with_many_proofs():
    st = state_from(MEMB)
    r = run(st, "forall x. memb x (a::a::a::nil) => memb x (a::b::nil)")
    assert r.proved and len(r.answers) == 1


def test_antecedent_with_logic_variable_is_an_error():
    st = state_from(MEMB)
    r = run(st, "(memb Y (a::nil)) => memb Y (a::nil)")
    assert r.inconclusive
    assert isinstance(r.error, NonGroundAntecedent)


def test_an_antecedent_is_checked_for_groundness_without_closing_it(
        monkeypatch):
    # The implication rule reads the antecedent's values where they are:
    # an untraced proof closes no formula, inside a clause body or not.
    calls = []
    real = logic.replace_clause_vars_formula

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(logic, "replace_clause_vars_formula", counted)
    st = state_from(MEMB + "sub L M := forall x. memb x L => memb x M.\n")
    assert run(st, "sub (a::b::nil) (b::a::c::nil)").proved
    assert run(st, "sub (a::d::nil) (b::a::c::nil)").disproved
    assert run(st, "forall x. memb x (a::nil) => "
                   "(exists y. nabla n. memb y (x::nil))").proved
    assert calls == []


def test_a_non_ground_antecedent_under_a_binder_is_reported_as_before():
    # The error still carries the antecedent closed over its values.
    defs = ("p X (f Y) := Y = X.\n"
            "q Z := (exists y. nabla n. p y (g Z n)) => true.\n")
    for query, antecedent in (
        ("exists X. (exists y. nabla n. p y (g X n)) => true",
         "exists y. nabla n. p y (g X_0 n)"),
        ("exists X. q X", "exists y. nabla n. p y (g X_0 n)"),
        ("exists X. X = a /\\ q (h X W)",
         "exists y. nabla n. p y (g (h X_1 W_0) n)"),
    ):
        r = run(state_from(defs), query)
        assert r.inconclusive and isinstance(r.error, NonGroundAntecedent)
        assert str(r.error) == (
            "unbound logic variable on the left of an implication")
        assert print_formula(r.error.formula) == antecedent


def test_consequent_may_not_pin_outer_variables():
    st = state_from(MEMB)
    r = run(st, "(memb c (a::c::nil)) => Y = c")
    assert r.inconclusive
    assert isinstance(r.error, OuterVariableEscape)
    assert "Y" in str(r.error)


def test_consequent_may_leave_outer_variables_free():
    # Matching a clause variable, or an inner ∃ variable, against an outer
    # variable must bind only the newer variable: binding both to a third
    # one counted as instantiating the outer variable.
    st = state_from("q Y.\nq2 (f Y).\nr a.")
    for query in (
        "exists X. (r a => q X)",
        "exists X. (r a => q2 (f X))",
        "exists X. (r a => exists Y. Y = X)",
    ):
        r = run(st, query)
        assert r.proved, (query, r.error)
        assert [a.text() for a in r.answers] == ["X = ?0"], query


def test_nested_implication_antecedent_rejected():
    st = state_from("p. q. r.")
    r = run(st, "(p => q) => r")
    assert r.inconclusive
    assert isinstance(r.error, IllFormedFormula)


def test_implication_with_nabla_in_antecedent():
    st = state_from(MEMB)
    assert run(st, "nabla x. memb x (a::x::nil) => memb x (x::nil)").proved


def test_exists_in_an_antecedent_reads_universally():
    # The antecedent's ∃ introduces an eigenvariable that case analysis on
    # memb instantiates: once to a, once to the eigenvariable z.
    st = state_from(MEMB)
    assert run(st, "forall z. (exists Y. memb Y (a::z::nil)) => true").proved
    r = run(st, "(exists Y. memb Y (a::b::nil)) => memb c (a::b::nil)")
    assert r.disproved


def test_level_zero_atoms_run_in_the_mode_of_their_side():
    # A level-1 predicate reaches memb on both sides of an implication:
    # the antecedent's memb runs in case-analysis mode (p0<), the
    # consequent's is handed from level-1 mode (p1) to level-0 mode (p0),
    # and that handoff costs a step and a trace line of its own.
    trace = io.StringIO()
    st = state_from(
        MEMB + "sub := forall x. memb x (a::nil) => memb x (b::a::nil).",
        trace=trace,
    )
    r = run(st, "sub")
    assert r.proved
    labels = [line.lstrip()[:3] for line in trace.getvalue().splitlines()]
    assert labels == [
        "p1 ", "p1 ", "p1 ", "p0<", "p0<", "p1 ", "p0 ", "p0 ", "p0 ", "p0<",
    ]
    assert r.steps == 10


def test_trace_indents_by_open_choice_points():
    # The disjunction keeps its right side open, and p X its second clause
    # while the first one's body runs; the last clause leaves none.
    trace = io.StringIO()
    st = state_from("p a.\np b.\nq X := p X \\/ X = c.", trace=trace)
    assert run(st, "exists X. q X /\\ X = b").proved
    assert trace.getvalue().splitlines() == [
        "p0  q X_0 /\\ X_0 = b",
        "p0  q X_0",
        "p0  p X_0 \\/ X_0 = c",
        "  p0  p X_0",
        "    p0  true",
        "    p0  a = b",
        "  p0  true",
        "  p0  b = b",
        "p0  X_0 = c",
        "p0  c = b",
    ]


_REACH = ("reach X Y := edge X Y.\nreach X Y := edge X Z /\\ reach Z Y.\n"
          "#table inductive reach.\n")


@pytest.mark.parametrize("program, queries, steps, lines", [
    # An inductive miss: no body of the production is proved, and failing
    # into its barrier records the call as disproved.
    ("edge a b.\n" + _REACH, ["reach b a"], [4], [
        "p0  reach b a",
        "    p0  edge b a",
        "  p0  edge b Z_0 /\\ reach Z_0 a",
        "  p0  edge b Z_0",
    ]),
    # A table hit: the second call is one step and opens nothing.
    ("edge a b.\n" + _REACH, ["reach a b", "reach a b"], [3, 1], [
        "p0  reach a b",
        "    p0  edge a b",
        "    p0  true",
        "p0  reach a b",
    ]),
    # An inductive loop: reach a b meets its own running call, which fails
    # that branch, and the second clause proves it.
    ("edge a a.\nedge a b.\nreach X Y := edge X Z /\\ reach Z Y.\n"
     "reach X Y := edge X Y.\n#table inductive reach.\n", ["reach a b"],
     [12], [
        "p0  reach a b",
        "    p0  edge a Z_0 /\\ reach Z_0 b",
        "    p0  edge a Z_0",
        "      p0  true",
        "      p0  reach a b",
        "    p0  true",
        "    p0  reach b b",
        "        p0  edge b Z_1 /\\ reach Z_1 b",
        "        p0  edge b Z_1",
        "      p0  edge b b",
        "  p0  edge a b",
        "  p0  true",
    ]),
    # A coinductive loop: sim a a meets its own running call, which holds.
    ("step a a.\nsim P Q := forall P1. step P P1 => exists Q1. step Q Q1 /\\ "
     "sim P1 Q1.\n#table coinductive sim.\n", ["sim a a"], [11], [
        "p1  sim a a",
        "  p1  forall P1. step a P1 => exists Q1. step a Q1 /\\ sim P1 Q1",
        "  p1  step a P1_0 => exists Q1. step a Q1 /\\ sim P1_0 Q1",
        "    p0< step a P1_0",
        "    p0< true",
        "      p1  exists Q1. step a Q1 /\\ sim a Q1",
        "      p1  step a Q1_1 /\\ sim a Q1_1",
        "      p1  step a Q1_1",
        "      p0  step a Q1_1",
        "      p0  true",
        "      p1  sim a a",
    ]),
    # An antecedent calling a tabled level-0 predicate: the ground call is
    # produced on the right (p0), the open one runs untabled in LEFT0.
    ("edge a b.\nedge b c.\n" + _REACH + "safe X := forall Y. reach X Y => "
     "(Y = b \\/ Y = c).\n", ["safe a", "reach a c => false"], [24, 11], [
        "p1  safe a",
        "p1  forall Y. reach a Y => Y = b \\/ Y = c",
        "p1  reach a Y_0 => Y_0 = b \\/ Y_0 = c",
        "  p0< reach a Y_0",
        "    p0< edge a Y_0",
        "    p0< true",
        "      p1  b = b \\/ b = c",
        "        p1  b = b",
        "  p0< edge a Z_1 /\\ reach Z_1 Y_0",
        "  p0< edge a Z_1",
        "  p0< true",
        "  p0< reach b Y_0",
        "    p0< edge b Y_0",
        "    p0< true",
        "      p1  c = b \\/ c = c",
        "        p1  c = b",
        "      p1  c = c",
        "  p0< edge b Z_2 /\\ reach Z_2 Y_0",
        "  p0< edge b Z_2",
        "  p0< true",
        "  p0< reach c Y_0",
        "    p0< edge c Y_0",
        "  p0< edge c Z_3 /\\ reach Z_3 Y_0",
        "  p0< edge c Z_3",
        "p1  reach a c => false",
        "  p0< reach a c",
        "      p0  edge a c",
        "    p0  edge a Z_4 /\\ reach Z_4 c",
        "    p0  edge a Z_4",
        "    p0  true",
        "    p0  reach b c",
        "        p0  edge b c",
        "        p0  true",
        "    p1  false",
        "    p0  false",
    ]),
], ids=["inductive miss", "table hit", "inductive loop", "coinductive loop",
        "tabled antecedent"])
def test_trace_and_steps_of_tabled_calls(program, queries, steps, lines):
    trace = io.StringIO()
    st = state_from(program, trace=trace)
    assert [run(st, q).steps for q in queries] == steps
    assert trace.getvalue().splitlines() == lines


def test_trace_lines_show_goals_closed_over_their_environment():
    # Clause bodies under ∃, ∇ and ∀, with a λ argument, printed as the
    # prover sees them: binders it entered read their values, its own
    # binders stay bound.  The lines are those the prover wrote when it
    # copied each clause body and quantifier body instead.
    trace = io.StringIO()
    st = state_from(
        "r F a.\n"
        "r F b := F = (x\\ f x x).\n"
        "q X := exists Y. nabla n. r (x\\ f x (g n Y)) X \\/ Y = n.\n"
        "top := forall z. exists X. q X /\\ X = b.\n", trace=trace)
    r = run(st, "exists W. q W")
    assert [a.text() for a in r.answers] == ["W = a"] and r.steps == 8
    r = run(st, "top")
    assert r.disproved and r.steps == 14
    assert trace.getvalue().splitlines() == [
        "p0  q W_0",
        "p0  exists Y. nabla n. r (x\\ f x (g n Y)) W_0 \\/ Y = n",
        "p0  nabla n. r (x\\ f x (g n Y_1)) W_0 \\/ Y_1 = n",
        "p0  r (x\\ f x (g #0 Y_1)) W_0 \\/ Y_1 = #0",
        "  p0  r (x\\ f x (g #0 Y_1)) W_0",
        "    p0  true",
        "  p0  (x\\ f x (g #0 Y_1)) = (x\\ f x x)",
        "p0  Y_1 = #0",
        "p1  top",
        "p1  forall z. exists X. q X /\\ X = b",
        "p1  exists X. q X /\\ X = b",
        "p1  q X_5 /\\ X_5 = b",
        "p1  q X_5",
        "p0  q X_5",
        "p0  exists Y. nabla n. r (x\\ f x (g n Y)) X_5 \\/ Y = n",
        "p0  nabla n. r (x\\ f x (g n Y_6)) X_5 \\/ Y_6 = n",
        "p0  r (x\\ f x (g #0 Y_6)) X_5 \\/ Y_6 = #0",
        "  p0  r (x\\ f x (g #0 Y_6)) X_5",
        "    p0  true",
        "    p1  a = b",
        "  p0  (x\\ f x (g #0 Y_6)) = (x\\ f x x)",
        "p0  Y_6 = #0",
    ]


def test_an_exists_prefix_costs_one_closing_walk_per_equation_side(
        monkeypatch):
    # The query's ∃ prefix reaches the prover as its binders' values, so
    # no name copies the rest of the query: the closing walk runs once per
    # side of the equation when the query is compiled and once when the
    # equation is dispatched, whatever the prefix's length.  (A side that
    # is a bare name or an inert term is built without a walk.)
    calls = [0]
    real = logic.replace_clause_vars

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(logic, "replace_clause_vars", counted)
    counts = []
    for n in (10, 4000):
        calls[0] = 0
        names = " ".join(f"X{i}" for i in range(n))
        r = run(State(), f"exists {names}. f X0 b = f a X1")
        assert r.answers[0].text().startswith("X0 = a, X1 = b, X2 = ?0")
        counts.append(calls[0])
    assert counts == [4, 4]


# ---------------------------------------------------------------------------
# Level bookkeeping
# ---------------------------------------------------------------------------

def test_level_one_predicate_cannot_appear_in_antecedent():
    st = state_from(
        """
        move (s N) N.
        win X := move X Y /\\ (forall Z. move Y Z => win Z).
        #level win 1.
        """
    )
    r = run(st, "(win (s z)) => false")
    assert r.inconclusive and isinstance(r.error, IllFormedFormula)


def test_level_zero_modes_refuse_level_one_goals():
    # solve() classifies a query before proving it, so only a direct call
    # can hand a level-0 mode a ∀, an implication or a level-1 atom; the
    # prover runs compiled goals only, and anything else is a TypeError.
    st = state_from("p := forall x. x = x.")
    st.defs.check()
    before = st.checkpoint()
    for mode in (RIGHT0, LEFT0):
        for f in (Forall("x", Top()), Imp(Top(), Top()), Atom("p", ())):
            _, goal = logic.compile_goal(f, st.defs.defs)
            with pytest.raises(LevelError):
                next(prove(goal, st, mode))
    for mode in (RIGHT0, LEFT0, ONE):
        with pytest.raises(TypeError):
            next(prove("p", st, mode))
    # The trail and the signature are restored after each error.
    assert st.checkpoint() == before == (0, 0)


def test_an_unknown_name_is_the_empty_definition_for_every_caller(
        st, capfd):
    # A library solve, with no warn, reads a name nothing defines as the
    # empty definition, as the command does, and writes no warning.
    r = solve(parse_query("exists X. typo X"), st)
    assert r.disproved and r.error is None
    assert st.defs.defs["typo"].clauses == []
    assert capfd.readouterr() == ("", "")


def test_registered_but_clauseless_predicate_is_just_false(st):
    assert run(st, "mystery a").disproved
    assert run(st, "false").disproved


# ---------------------------------------------------------------------------
# Resource limits
# ---------------------------------------------------------------------------

def test_step_budget_reported_as_inconclusive():
    st = state_from("loop := loop.", max_steps=2000)
    r = run(st, "loop")
    assert r.inconclusive
    assert isinstance(r.error, BudgetExceeded)
    assert r.steps >= 2000


def test_open_choice_points_are_bounded():
    # Each call of r leaves its second clause open, so the search keeps one
    # more choice point per step and meets the bound long before the step
    # budget.
    st = state_from("r := r.\nr := r.")
    r = run(st, "r")
    assert r.inconclusive
    assert isinstance(r.error, BudgetExceeded)
    assert "choice points" in str(r.error)
    assert r.steps <= engine.MAX_CHOICE_POINTS + 2


# Each program below opens choice points of one kind only, or, for an
# implication, its barrier and then its case's barrier, so the bound is
# met where that kind of choice point is pushed.
@pytest.mark.parametrize("program, query, bound", [
    ("d := d \\/ a = a.", "d", 5),  # a disjunction's right side
    ("i := a = a => i.", "i", 2),  # an implication's barrier
    ("i := a = a => i.", "i", 1),  # a case's barrier
    ("#table inductive t.\nt X := t (s X).", "t z", 5),  # a production
])
def test_every_kind_of_choice_point_is_bounded(
        monkeypatch, program, query, bound):
    monkeypatch.setattr(engine, "MAX_CHOICE_POINTS", bound)
    r = run(state_from(program), query)
    assert r.inconclusive
    assert isinstance(r.error, BudgetExceeded)
    assert "choice points" in str(r.error)


def test_each_query_of_solve_iter_has_a_budget_of_its_own():
    # The query takes 32 steps: five runs on one budget of 100 all prove.
    st = state_from("nat z.\nnat (s X) := nat X.", max_steps=100)
    goal = parse_query("nat " + "(s " * 30 + "z" + ")" * 30)
    for _ in range(5):
        assert len(list(solve_iter(goal, st))) == 1
        assert st.steps == 32


def test_deterministic_descent_keeps_no_choice_point_and_ends_at_the_budget():
    # One clause: every call is deterministic, so the descent is bounded by
    # the step budget alone, however deep it goes.
    st = state_from("deep X := deep (f X).", max_steps=80)
    r = run(st, "deep a")
    assert r.inconclusive
    assert isinstance(r.error, BudgetExceeded)
    assert "step budget" in str(r.error)
    assert r.steps == 81


# Long proofs and deep terms.  Each runs in a child process under the
# interpreter's default recursion limit, so a crash cannot take pytest down
# and nothing here leans on a limit raised by an earlier test.

_CHILD_HELPERS = f"""
import sys
sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
from conftest import run, state_from

LIMIT = sys.getrecursionlimit()

def num(n):
    return "s (" * (n - 1) + "s z" + ")" * (n - 1) if n else "z"
"""


def _child(script):
    """Run a script after _CHILD_HELPERS in a child process; its stdout
    lines, after checking it exited cleanly."""
    proc = run_child(["-c", _CHILD_HELPERS + script])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    return proc.stdout.splitlines()


def test_long_untabled_proofs_prove_under_the_default_state():
    # Untabled fib 20 is 135,772 steps; a conjunction's continuation no
    # longer nests, so proof length is bounded by the step budget alone.
    out = _child("""
st = state_from(
    "plus z N N.\\n"
    "plus (s M) N (s K) := plus M N K.\\n"
    "fib z z.\\n"
    "fib (s z) (s z).\\n"
    "fib (s (s N)) F := fib (s N) A /\\\\ fib N B /\\\\ plus A B F.\\n")
for n, want in ((16, 987), (18, 2584), (20, 6765)):
    r = run(st, f"exists F. fib ({num(n)}) F")
    print(n, r.status, r.answers[0].text() == "F = " + num(want))
print(sys.getrecursionlimit() == LIMIT)
""")
    assert out == ["16 proved True", "18 proved True", "20 proved True",
                   "True"]


def test_productions_do_not_nest_on_the_interpreter_stack():
    # The Python stack seen when a call is keyed is the same at n = 1,000
    # and n = 4,000, whatever the machine: productions are frames of the
    # prover's loop, not nested generators.
    out = _child("""
from nablacheck import tabling
real_key = tabling.canonical_key
deepest = [0]

def key(*args):
    f, n = sys._getframe(), 0
    while f is not None:
        n += 1
        f = f.f_back
    deepest[0] = max(deepest[0], n)
    return real_key(*args)

tabling.canonical_key = key
FT = ("fibtree z.\\nfibtree (s z).\\n"
      "fibtree (s (s N)) := fibtree (s N) /\\\\ fibtree N.\\n"
      "#table inductive fibtree.\\n")
for n in (1000, 4000):
    deepest[0] = 0
    r = run(state_from(FT), f"fibtree ({num(n)})")
    print(n, r.status, r.steps == 3 * n, deepest[0])
print(sys.getrecursionlimit() == LIMIT)
""")
    (a, status_a, steps_a, depth_a), (b, status_b, steps_b, depth_b) = [
        line.split() for line in out[:2]]
    assert (status_a, steps_a, status_b, steps_b) == ("proved", "True") * 2
    assert depth_a == depth_b
    assert out[2] == "True"


def test_tabled_reach_around_a_long_cycle_is_disproved():
    out = _child("""
n = 2000
st = state_from(
    "".join(f"edge n{i} n{(i + 1) % n}.\\n" for i in range(n))
    + "reach X Y := edge X Y.\\n"
    + "reach X Y := edge X Z /\\\\ reach Z Y.\\n"
    + "#table inductive reach.\\nnode zz.\\n")
print(run(st, "reach n0 zz").status, run(st, "reach n0 n1999").status)
print(sys.getrecursionlimit() == LIMIT)
""")
    assert out == ["disproved proved", "True"]


def test_deep_terms_answer_without_a_traceback():
    out = _child("""
st = state_from("p.\\n")
cells = "a::" * 20000
r = run(st, f"exists T U. ({cells}T) = ({cells}U)")
print(r.status, [a.text() for a in r.answers])
lams = "x\\\\ " * 2000 + "a"
r = run(st, f"exists F. F = ({lams})")
want = "F = " + " ".join(f"x{i}\\\\" if i else "x\\\\" for i in range(2000)) + " a"
print(r.status, r.answers[0].text() == want)
names = " ".join(f"X{i}" for i in range(1000))
r = run(st, f"exists {names}. X0 = a /\\\\ X999 = X0")
print(r.status, r.answers[0].get("X999").name)
print(sys.getrecursionlimit() == LIMIT)
""")
    assert out == ["proved ['T = ?0, U = ?0']", "proved True", "proved a",
                   "True"]


def test_terms_nested_through_first_arguments_prove():
    # g (g (… (x) …) b) b, 4,000 levels deep through first arguments, goes
    # through every walker: parsing, head plans, matching and building
    # heads, unification and abstraction, β-reduction, table keys, answers
    # and printing.  Every shape proves at the default recursion limit and
    # again at 200, so no walker's depth follows the term's.
    out = _child("""
n = 4000

def deep(x):
    return "g (" * n + x + ") b" * n

st = state_from(
    "p X.\\n"
    "t X.\\n"
    "#table inductive t.\\n"
    f"h ({deep('X')}).\\n")
queries = [
    f"exists X Y. X = ({deep('Y')})",
    f"exists Y. ({deep('Y')}) = ({deep('a')})",
    f"exists Y. p ({deep('Y')})",
    f"exists F Z. F = (x\\\\ {deep('x')}) /\\\\ Z = F c /\\\\ Z = ({deep('c')})",
    f"exists F. F = (x\\\\ {deep('x')}) /\\\\ t (F c)",
    "exists Y. h Y",
    f"h ({deep('a')})",
]
for limit in (LIMIT, 200):
    sys.setrecursionlimit(limit)
    print(" ".join(run(st, q).status for q in queries),
          sys.getrecursionlimit() == limit)
print(run(st, queries[1]).answers[0].text())
""")
    shapes = " ".join(["proved"] * 7)
    assert out == [f"{shapes} True", f"{shapes} True", "Y = a"]


def test_no_function_in_the_package_recurses():
    # Depth independence by construction: no module-level function reaches
    # itself through calls by name, and no method through calls on self,
    # directly or through other functions of its module or class.  The
    # CLI's #include loads files on a stack of its own.
    pkg = os.path.dirname(os.path.abspath(engine.__file__))
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        scopes = [(tree.body, ast.Name, "id")] + [
            (node.body, ast.Attribute, "attr")
            for node in tree.body if isinstance(node, ast.ClassDef)]
        for body, kind, field in scopes:
            funcs = {f.name: f for f in body if isinstance(f, ast.FunctionDef)}
            calls = {
                fname: {getattr(c.func, field) for c in ast.walk(f)
                        if isinstance(c, ast.Call)
                        and isinstance(c.func, kind)
                        and (kind is ast.Name
                             or isinstance(c.func.value, ast.Name)
                             and c.func.value.id == "self")
                        and getattr(c.func, field) in funcs}
                for fname, f in funcs.items()}
            for start in funcs:
                seen = set()
                todo = list(calls[start])
                while todo:
                    g = todo.pop()
                    assert g != start, f"{name}: {start} reaches itself"
                    if g not in seen:
                        seen.add(g)
                        todo.extend(calls[g])


def test_the_recursion_limit_is_left_alone():
    limit = sys.getrecursionlimit()
    st = load_corpus("graph.def")
    assert run(st, "reach a d").proved
    assert run(State(), "exists X. X = a").proved
    assert sys.getrecursionlimit() == limit


def test_state_survives_a_budget_error():
    st = state_from(MEMB + "loop := loop.", max_steps=500)
    assert run(st, "loop").inconclusive
    st.max_steps = 10**5
    assert run(st, "memb a (b::a::nil)").proved


# ---------------------------------------------------------------------------
# Answers and the query driver
# ---------------------------------------------------------------------------

def test_unconstrained_variables_print_as_shared_placeholders(st):
    r = run(st, "X = Y")
    assert r.proved and len(r.answers) == 1
    a = r.answers[0]
    assert print_term(a.get("X")) == "?0"
    assert print_term(a.get("Y")) == "?0"
    assert "X = ?0" in a.text() and "Y = ?0" in a.text()


def test_query_variable_under_a_lambda_and_a_quantifier(st):
    # F occurs under both the query's ∃ Y and the λ; closing it over the
    # query must index past both binders.
    r = run(st, "exists Y. Y = (x\\ F x)")
    assert r.proved
    assert [a.text() for a in r.answers] == ["F = ?0, Y = ?0"]


def test_distinct_free_variables_get_distinct_placeholders(st):
    a = run(st, "X = X /\\ Y = Y").answers[0]
    assert print_term(a.get("X")) == "?0"
    assert print_term(a.get("Y")) == "?1"


def test_answer_reports_full_instantiation():
    st = state_from(MEMB)
    a = run(st, "memb (f X) ((f a)::nil)").answers[0]
    assert print_term(a.get("X")) == "a"
    assert a.get("Z") is None


def test_max_answers_stops_early():
    st = state_from(MEMB)
    r = run(st, "memb X (a::b::c::nil)", max_answers=2)
    assert r.proved and len(r.answers) == 2


def test_solve_iter_restores_state_when_closed():
    st = state_from(MEMB)
    goal = parse_query("memb X (a::b::nil)")
    gen = solve_iter(goal, st)
    first = next(gen)
    assert print_term(first.get("X")) == "a"
    gen.close()
    assert len(st.trail) == 0
    assert run(st, "memb b (a::b::nil)").proved


def test_answers_survive_backtracking():
    st = state_from(MEMB)
    r = run(st, "memb X (a::b::nil)")
    # reification snapshots: the first answer still prints a afterwards
    assert [print_term(a.get("X")) for a in r.answers] == ["a", "b"]


def test_deterministic_across_fresh_states():
    def once():
        st = state_from(MEMB)
        r = run(st, "memb X ((f a)::b::nil) /\\ Y = X")
        return [a.text() for a in r.answers], r.status, r.steps

    assert once() == once()


def test_step_counter_counts_work():
    st = state_from(MEMB)
    shallow = run(st, "memb a (a::nil)").steps
    deep = run(st, "memb a (b::b::b::b::a::nil)").steps
    assert 0 < shallow < deep


def test_binder_chains_hold_their_values_in_linear_memory():
    # Each ∀ below leaves a choice point open, its disjunction's right
    # side, which keeps the values of the binders around it.  Entering a
    # binder adds its value to the goal's environment in place, so what
    # the prover holds at the first answer grows linearly with the chain;
    # a copy of the values made at each binder grew as n squared.  Memory,
    # not time, so the bound holds on any machine.
    held = []
    for n in (1000, 2000, 4000):
        goal = parse_query("".join(
            f"forall x{i}. (x{i} = x{i} \\/ true) /\\ " for i in range(n))
            + "true")
        gc.collect()
        tracemalloc.start()
        try:
            answers = solve_iter(goal, State())
            next(answers)
            held.append(tracemalloc.get_traced_memory()[0])
            answers.close()
        finally:
            tracemalloc.stop()
    assert held[1] <= 2.2 * held[0], held
    assert held[2] <= 2.2 * held[1], held


def test_normalization_work_grows_linearly_with_list_length(monkeypatch):
    # Counts calls of the kernel's normal-form walk, not time, so the
    # bound holds on any machine.  Each step of len binds the list's tail,
    # which must not be walked again: a pass over the tail per step would
    # make each doubling cost about four times as much.
    from nablacheck import terms

    nf = terms._nf
    calls = [0]

    def counted(t, fuel, *rest):
        calls[0] += 1
        return nf(t, fuel, *rest)

    monkeypatch.setattr(terms, "_nf", counted)
    counts = []
    for n in (100, 200, 400):
        st = state_from("len nil z.\nlen (X::L) (s N) := len L N.")
        calls[0] = 0
        assert run(st, "len (" + "a::" * n + "nil) N").proved
        counts.append(calls[0])
    assert counts[1] <= 2.1 * counts[0]
    assert counts[2] <= 2.1 * counts[1]
