"""Tables: loop handling by mode, dependency tracking, memoization, reports."""

import random

from nablacheck.engine import State
from nablacheck.nodes import App, Bound, Const, Lam, NablaIndex
from nablacheck.tabling import canonical_key, clear_tables, eligible, table_report
from nablacheck.terms import app

from conftest import run, state_from
from oracles import transitive_closure

EDGES = {("a", "b"), ("b", "a"), ("a", "c")}

BACK_AND_FORTH = """
edge a b.
edge b a.
edge a c.
reach X Y := edge X Z /\\ reach Z Y.
reach X Y := edge X Y.
#table inductive reach.
"""


# ---------------------------------------------------------------------------
# Eligibility and keys
# ---------------------------------------------------------------------------

def test_eligibility_by_level(st):
    ground = app(Const("f"), (Const("a"),))
    eigen = st.sig.fresh_eigen("n")
    logic = st.sig.fresh_logic("X")
    assert eligible((ground, Const("b")), 0)
    assert eligible((NablaIndex(0),), 0)
    assert not eligible((ground, eigen), 0)
    assert eligible((ground, eigen), 1)
    assert not eligible((logic,), 0)
    assert not eligible((logic,), 1)


def test_canonical_key_is_eta_short_printed_text():
    f = Const("f")
    assert canonical_key("p", ()) == "p"
    assert canonical_key("p", (app(f, (Const("a"),)),)) == "p (f a)"
    # λx. f x collapses to f, so the key cannot depend on the spelling
    assert canonical_key("p", (Lam(App(f, (Bound(0),))),)) == "p f"


def test_eigenvariable_key_never_collides_with_a_constant():
    # The eigenvariable x prints as x_0 on the page, like the constant x_0;
    # sharing one table entry would answer the second query wrongly.
    st = state_from("r X := X = c => false.\n#table inductive r.")
    assert run(st, "forall x. r x").disproved
    assert run(st, "r x_0").proved
    assert sorted(st.tables["r"].entries) == ["r x@E0", "r x_0"]


# ---------------------------------------------------------------------------
# Loops resolve by mode
# ---------------------------------------------------------------------------

def test_inductive_self_loop_is_disproved():
    st = state_from("p := p.\n#table inductive p.")
    assert run(st, "p").disproved
    assert st.tables["p"].entries["p"] == "disproved"


def test_coinductive_self_loop_is_proved():
    st = state_from("p := p.\n#table coinductive p.")
    assert run(st, "p").proved
    assert st.tables["p"].entries["p"] == "proved"


def test_mutual_loops():
    text = "p := q.\nq := p.\n#table {m} p.\n#table {m} q.\n"
    st = state_from(text.format(m="inductive"))
    assert run(st, "p").disproved
    assert run(st, "q").disproved
    st = state_from(text.format(m="coinductive"))
    assert run(st, "p").proved
    assert run(st, "q").proved


def test_loop_under_constructor_is_still_a_loop():
    st = state_from("stream X := stream X.\n#table coinductive stream.")
    assert run(st, "stream (s z)").proved
    assert run(st, "stream (s z)").proved  # table hit second time


# ---------------------------------------------------------------------------
# Dependency tracking: wrong assumptions must not leave stale entries
# ---------------------------------------------------------------------------

def test_entry_conditioned_on_a_failed_assumption_is_discarded():
    # With the recursive clause first, proving reach a c first explores
    # reach b c, which loops back to reach a c and concludes no, under the
    # assumption reach a c is disproved.  reach a c then succeeds through
    # edge a c, invalidating that assumption: the provisional "reach b c
    # disproved" entry must go, because b reaches c through a.
    st = state_from(BACK_AND_FORTH)
    assert run(st, "reach a c").proved
    assert st.tables["reach"].entries.get("reach b c") != "disproved"
    assert run(st, "reach b c").proved


def test_tabled_relation_matches_closure_oracle_in_any_query_order():
    closure = transitive_closure(EDGES)
    nodes = sorted({x for e in EDGES for x in e})
    pairs = [(x, y) for x in nodes for y in nodes]
    rng = random.Random(7)
    for trial in range(6):
        order = pairs[:]
        rng.shuffle(order)
        st = state_from(BACK_AND_FORTH)
        for x, y in order:
            expected = (x, y) in closure
            r = run(st, f"reach {x} {y}")
            assert not r.inconclusive
            assert r.proved == expected, (trial, x, y, r.status)


def test_settled_rows_survive_and_match_the_oracle():
    closure = transitive_closure(EDGES)
    st = state_from(BACK_AND_FORTH)
    for x in "abc":
        for y in "abc":
            run(st, f"reach {x} {y}")
    rows = set(st.tables["reach"].rows())
    for x in "abc":
        for y in "abc":
            want = "proved" if (x, y) in closure else "disproved"
            assert f"{want} reach {x} {y}." in rows


# ---------------------------------------------------------------------------
# Memoization
# ---------------------------------------------------------------------------

TREE = """
cost z.
cost (s z).
cost (s (s N)) := cost (s N) /\\ cost N.
#table inductive cost.
"""


def _peano(n):
    return "z" if n == 0 else f"(s {_peano(n - 1)})"


def test_memoized_reruns_are_nearly_free():
    st = state_from(TREE)
    first = run(st, f"cost {_peano(12)}")
    again = run(st, f"cost {_peano(12)}")
    assert first.proved and again.proved
    assert again.steps * 10 < first.steps


def test_tabling_collapses_shared_subproblems():
    tabled = state_from(TREE)
    plain = state_from(TREE)
    plain.tabling_enabled = False
    n = _peano(14)
    rt = run(tabled, f"cost {n}")
    rp = run(plain, f"cost {n}")
    assert rt.proved and rp.proved
    assert rp.steps > 8 * rt.steps


# ---------------------------------------------------------------------------
# Abandoned calls leave nothing behind
# ---------------------------------------------------------------------------

def test_budget_abort_leaves_no_entries():
    st = state_from("grow X := grow (f X).\n#table inductive grow.", max_steps=300)
    r = run(st, "grow a")
    assert r.inconclusive
    assert st.tab_stack == []
    assert st.tables["grow"].entries == {}
    st2 = state_from(TREE)
    assert run(st2, f"cost {_peano(6)}").proved


def test_clear_tables_empties_everything():
    st = state_from(TREE)
    run(st, f"cost {_peano(6)}")
    assert st.tables
    clear_tables(st)
    assert st.tables == {} and st.tab_stack == []


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_table_report_shape():
    st = state_from(
        """
        move (s N) N.
        bad X := move X Y /\\ bad Y.
        #table inductive bad.
        """
    )
    run(st, f"bad {_peano(3)}")
    report = table_report(st, "bad")
    lines = report.splitlines()
    assert lines[0].startswith("% table bad (inductive): ")
    assert "0 proved, 4 disproved" in lines[0]
    assert lines[1:] == sorted(lines[1:])
    assert "disproved bad z." in lines
    assert f"disproved bad {_peano(3)}." in lines


def test_table_report_for_missing_table(st):
    assert table_report(st, "nothing") == "% no table for nothing"


def test_report_covers_all_tables_when_unnamed():
    st = state_from(TREE + "p := p.\n#table coinductive p.")
    run(st, "cost z")
    run(st, "p")
    report = table_report(st)
    assert "% table cost (inductive)" in report
    assert "% table p (coinductive)" in report
