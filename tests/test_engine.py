"""Proof search: both prover levels, the implication rule, budgets, answers."""

import io

import pytest

from nablacheck.engine import LEFT0, ONE, RIGHT0, State, prove, solve, solve_iter
from nablacheck.errors import (
    IllFormedFormula,
    BudgetExceeded,
    LevelError,
    NonGroundAntecedent,
    OuterVariableEscape,
    UndefinedPredicate,
)
from nablacheck.logic import Atom, Forall, Imp, Top
from nablacheck.parser import parse_query, print_term

from conftest import run, state_from

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
    # can hand a level-0 mode a ∀, an implication or a level-1 atom.
    st = state_from("p := forall x. x = x.")
    st.defs.check()
    for mode in (RIGHT0, LEFT0):
        for f in (Forall("x", Top()), Imp(Top(), Top()), Atom("p", ())):
            with pytest.raises(LevelError):
                next(prove(f, st, mode))
    for mode in (RIGHT0, LEFT0, ONE):
        with pytest.raises(TypeError):
            next(prove("p", st, mode))
    assert st.depth == 0 and len(st.trail) == 0


def test_undefined_predicate_detected_without_registration(st):
    goal = parse_query("mystery a")
    r = solve(goal, st)
    assert r.inconclusive and isinstance(r.error, UndefinedPredicate)


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


def test_depth_cap_reported_as_inconclusive():
    st = state_from("deep X := deep (f X).", max_depth=80)
    r = run(st, "deep a")
    assert r.inconclusive
    assert isinstance(r.error, BudgetExceeded)
    assert "nesting" in str(r.error)


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
    st.defs.register_formula(goal)
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


def test_normalization_work_grows_linearly_with_list_length(monkeypatch):
    # Counts calls of the kernel's normal-form walk, not time, so the
    # bound holds on any machine.  Each step of len binds the list's tail,
    # which must not be walked again: a pass over the tail per step would
    # make each doubling cost about four times as much.
    from nablacheck import terms

    nf = terms._nf
    calls = [0]

    def counted(t, fuel):
        calls[0] += 1
        return nf(t, fuel)

    monkeypatch.setattr(terms, "_nf", counted)
    counts = []
    for n in (100, 200, 400):
        st = state_from("len nil z.\nlen (X::L) (s N) := len L N.")
        calls[0] = 0
        assert run(st, "len (" + "a::" * n + "nil) N").proved
        counts.append(calls[0])
    assert counts[1] <= 2.1 * counts[0]
    assert counts[2] <= 2.1 * counts[1]
