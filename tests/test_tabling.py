"""Tables: loop handling by mode, dependency tracking, memoization, reports."""

import collections
import gc
import inspect
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as hs

from nablacheck import nodes, parser, tabling, terms
from nablacheck.engine import State
from nablacheck.nodes import App, Bound, Const, Lam, LogicVar, NablaIndex
from nablacheck.tabling import (
    Table,
    canonical_key,
    clear_tables,
    table_report,
)
from nablacheck.terms import (
    app,
    has_unbound_logic_var,
    normalize_eta,
    struct_eq,
)

from conftest import python_calls, run, state_from
from oracles import (
    free_vars,
    gfp_bisim,
    gfp_sim,
    parity_walks,
    transitive_closure,
)

EDGES = {("a", "b"), ("b", "a"), ("a", "c")}

REACH = """
reach X Y := edge X Z /\\ reach Z Y.
reach X Y := edge X Y.
#table inductive reach.
"""

BACK_AND_FORTH = """
edge a b.
edge b a.
edge a c.
""" + REACH


# ---------------------------------------------------------------------------
# Eligibility and keys
# ---------------------------------------------------------------------------

def test_eligibility_by_level(st):
    ground = app(Const("f"), (Const("a"),))
    eigen = st.fresh_eigen("n")
    logic = st.fresh_logic("X")
    assert canonical_key("p", (ground, Const("b")), 0) is not None
    assert canonical_key("p", (NablaIndex(0),), 0) is not None
    assert canonical_key("p", (ground, eigen), 0) is None
    assert canonical_key("p", (ground, eigen), 1) is not None
    assert canonical_key("p", (logic,), 0) is None
    assert canonical_key("p", (logic,), 1) is None
    # behind a binding, what the variable is bound to counts
    bound = st.fresh_logic("Y")
    bound.binding = app(Const("f"), (eigen,))
    assert canonical_key("p", (bound,), 0) is None
    assert canonical_key("p", (bound,), 1) is not None


def test_eligibility_reads_the_normal_form(st):
    # A variable that β-reduction drops is not in the call: p ((x\ c) X)
    # is the call p c, and so is p (H X) with H bound to x\ c.
    c = Const("c")
    drop = Lam(c, "x")
    x = st.fresh_logic("X")
    h = st.fresh_logic("H")
    h.binding = drop
    for arg in (App(drop, (x,)), App(h, (x,))):
        assert canonical_key("p", (arg,), 0) == ("p", c)
        assert canonical_key("p", (arg,), 1) == ("p", c)
    # A variable that stays is still seen.
    keep = Lam(App(Const("f"), (Bound(0),)), "x")
    assert canonical_key("p", (App(keep, (x,)),), 1) is None
    # Through the prover the same calls settle the row of p c.
    tabled = state_from("p c.\n#table inductive p.")
    assert run(tabled, "exists X. p ((x\\ c) X)").proved
    assert run(tabled, "exists H X. H = (x\\ c) /\\ p (H X)").proved
    assert tabled.tables["p"].rows() == ["proved p c."]


# The term walkers of the kernel and the printer: every function of
# terms.py and parser.py but the entry points that only pass a term on and
# the helpers called once per node.
_WALKERS = {
    name for module in (terms, parser)
    for name, fn in vars(module).items()
    if inspect.isfunction(fn) and fn.__module__ == module.__name__
} - {"deref", "normalize_eta", "print_term", "_rebuild", "_leaf"}

DISPATCH = """
move P (e::R) (P::R).
move P (C::R) (C::R1) := move P R R1.
t B.
#table inductive t.
"""


def _dispatch_walkers(query):
    """The walkers a tabled call of t runs that the same call untabled
    does not: those of its dispatch, eligibility and key included, since
    its production unfolds as the untabled call does."""
    counts = []
    for tabling_enabled in (True, False):
        st = state_from(DISPATCH)
        st.tabling_enabled = tabling_enabled
        calls = python_calls(run, st, query)
        counts.append(collections.Counter(c for c in calls if c in _WALKERS))
    tabled, untabled = counts
    assert not untabled - tabled
    return tabled - untabled


def test_a_tabled_call_walks_each_argument_once_to_decide_and_key_it():
    # A board built by move is a chain of bound variables: _nf rebuilds it
    # into its one inert node, which is the key and shows it ground.
    assert _dispatch_walkers("exists B. move x (o::e::o::nil) B /\\ t B") \
        == {"_nf": 1}
    # A ∇-argument is normalized once and printed once, in one walk: no
    # binder, so no walk for the names binders must avoid.
    assert _dispatch_walkers("nabla x y. t (f y x)") == {"_nf": 1, "_render": 1}


def test_canonical_key_is_eta_short_printed_text():
    f = Const("f")
    assert canonical_key("p", (), 0) == ("p",)
    key = canonical_key("p", (app(f, (Const("a"),)),), 0)
    assert key == canonical_key("p", (app(f, (Const("a"),)),), 0)
    # λx. f x collapses to f, so the key cannot depend on the spelling
    assert canonical_key("p", (Lam(App(f, (Bound(0),))),), 0) == ("p", f)
    # the dump prints a key back as the call's text
    table = Table("p", "inductive")
    table.entries[key] = "proved"
    table.entries[("p", f)] = "disproved"
    assert table.rows() == ["disproved p f.", "proved p (f a)."]


def test_eigenvariable_key_never_collides_with_a_constant():
    # The eigenvariable x prints as x_0 on the page, like the constant x_0;
    # sharing one table entry would answer the second query wrongly.
    st = state_from("r X := X = c => false.\n#table inductive r.")
    assert run(st, "forall x. r x").disproved
    assert run(st, "r x_0").proved
    assert len(st.tables["r"].entries) == 2
    assert st.tables["r"].rows() == ["disproved r x@E0.", "proved r x_0."]


# Arguments are drawn as specs and built into terms, so one spec can be
# built fresh, with shared subterms, or behind a binding made in a State.
_ST = State()
_EIGEN = (_ST.fresh_eigen("x"), _ST.fresh_eigen("x"))  # x@E0, x@E1

_CONSTS = [("const", c) for c in ("a", "z", "nil", "x", "x_0", "x_1")]
_LEAVES = _CONSTS + [("eigen", 0), ("eigen", 1), ("nabla", 0), ("nabla", 1)]


def _specs(leaves, lam):
    def nodes(kids):
        out = [
            hs.tuples(hs.just("app"), hs.sampled_from(["f", "s", "::"]),
                      hs.lists(kids, min_size=1, max_size=3).map(tuple)),
            hs.tuples(hs.just("eta"), kids),  # λx. t x, η-short form t
        ]
        if lam:
            out.append(hs.tuples(hs.just("lam"), kids))  # λx. f x t
        return hs.one_of(*out)
    return hs.recursive(hs.sampled_from(leaves), nodes, max_leaves=8)


_ARGS = hs.lists(hs.one_of(_specs(_CONSTS, False), _specs(_LEAVES, True)),
                 min_size=1, max_size=3).map(tuple)


def _build(spec, shared):
    """The term of a spec; with a dict, equal specs give the same object."""
    if shared is not None and spec in shared:
        return shared[spec]
    kind, x = spec[0], spec[1]
    if kind == "const":
        t = Const(x)
    elif kind == "eigen":
        t = _EIGEN[x]
    elif kind == "nabla":
        t = NablaIndex(x)
    elif kind == "app":
        t = app(Const(x), [_build(k, shared) for k in spec[2]])
    elif kind == "eta":
        t = Lam(app(_build(x, shared), (Bound(0),)), "x")
    else:
        t = Lam(app(Const("f"), (Bound(0), _build(x, shared))), "x")
    if shared is not None:
        shared[spec] = t
    return t


# Leaves that print alike on the page: eigenvariable x with id i is x_i.
_LOOKALIKE = {("eigen", 0): ("const", "x_0"), ("eigen", 1): ("const", "x_1"),
              ("const", "x_0"): ("eigen", 0), ("const", "x_1"): ("eigen", 1)}


def _respell(spec, rnd, change):
    """spec with some subterms η-expanded and, with change, a few leaves
    swapped for look-alikes or others: a near miss."""
    if spec[0] == "app":
        spec = ("app", spec[1],
                tuple(_respell(k, rnd, change) for k in spec[2]))
    elif spec[0] in ("eta", "lam"):
        spec = (spec[0], _respell(spec[1], rnd, change))
    elif change and rnd.random() < 0.4:
        spec = _LOOKALIKE.get(spec) or rnd.choice(_LEAVES)
    return ("eta", spec) if rnd.random() < 0.3 else spec


@pytest.fixture(scope="module")
def two_states():
    return State(), State()


@settings(max_examples=400, deadline=None)
@given(hs.data())
def test_keys_are_equal_exactly_when_the_arguments_are(two_states, data):
    # A collision would answer one call with another's entry: a wrong
    # verdict.  λ binders all carry the hint x, since a key spells binder
    # names and a differing one only costs sharing.  The calls are level 1,
    # where an eigenvariable may be tabled.
    specs1 = data.draw(_ARGS)
    rnd = data.draw(hs.randoms())
    how2 = data.draw(hs.sampled_from(["same", "respelled", "near", "other"]))
    if how2 == "other":
        specs2 = data.draw(_ARGS)
    elif how2 == "same":
        specs2 = specs1
    else:
        specs2 = tuple(_respell(s, rnd, how2 == "near") for s in specs1)
    shared = {}
    sides = []
    for st, specs in zip(two_states, (specs1, specs2)):
        how = data.draw(hs.sampled_from(["fresh", "shared", "bound"]))
        args = tuple(_build(s, shared if how == "shared" else None)
                     for s in specs)
        if how == "bound":  # the arguments as bindings made in a State
            vs = tuple(st.fresh_logic("X") for _ in args)
            for v, a in zip(vs, args):
                v.binding = a
            args = vs
        sides.append(args)
    args1, args2 = sides
    same = len(args1) == len(args2) and all(
        struct_eq(normalize_eta(a), normalize_eta(b))
        for a, b in zip(args1, args2))
    assert (canonical_key("p", args1, 1)
            == canonical_key("p", args2, 1)) == same


# Unbound variables for the eligibility property; nothing binds them.
_OPEN = {("logic", 0): _ST.fresh_logic("X"), ("eigen", 0): _EIGEN[0],
         ("eigen", 1): _EIGEN[1]}
_MIXED = _LEAVES + [("logic", 0)]


def _mixed(spec, rnd):
    """The term of a spec over _MIXED leaves, with now and then a subterm
    (never one with a loose index) behind a bound variable of either kind."""
    kind, x = spec[0], spec[1]
    if spec in _OPEN:
        t = _OPEN[spec]
    elif kind == "app":
        t = app(Const(x), [_mixed(k, rnd) for k in spec[2]])
    elif kind == "eta":
        t = Lam(app(_mixed(x, rnd), (Bound(0),)), "x")
    elif kind == "lam":
        t = Lam(app(Const("f"), (Bound(0), _mixed(x, rnd))), "x")
    else:
        t = _build(spec, None)
    if rnd.random() < 0.3:
        v = (_ST.fresh_logic if rnd.random() < 0.5 else _ST.fresh_eigen)()
        v.binding = t
        t = v
    return t


@settings(max_examples=400, deadline=None)
@given(hs.lists(hs.one_of(_specs(_CONSTS, False), _specs(_MIXED, True)),
                max_size=4), hs.randoms())
def test_inert_fast_paths_agree_with_full_walks(specs, rnd):
    # References: every argument walked for its free variables by the
    # oracle, and every argument normalized before it is keyed, as before
    # inert arguments skipped both.  No spec drops a variable by
    # β-reduction, so an argument's free variables are its normal form's.
    args = tuple(_mixed(s, rnd) for s in specs)
    free = [free_vars(a) for a in args]
    for a, vs in zip(args, free):
        assert has_unbound_logic_var(a) == any(
            isinstance(v, LogicVar) for v in vs)
    parts = ["p"]
    for a in args:
        a = normalize_eta(a)
        if not a.inert:
            parts.append(parser.print_term(a, prec=parser.ATOM, keyed=True))
        else:
            parts.append(a)
    logic = any(isinstance(v, LogicVar) for vs in free for v in vs)
    assert canonical_key("p", args, 1) == (None if logic else tuple(parts))
    assert canonical_key("p", args, 0) == (None if any(free) else tuple(parts))


def test_key_of_a_50000_deep_numeral_needs_no_recursion():
    t = Const("z")
    for _ in range(50_000):
        t = App(Const("s"), (t,))
    key = canonical_key("nat", (t,), 0)
    # one more node is one more lookup: the part below it is reused
    succ = canonical_key("nat", (App(Const("s"), (t,)),), 0)
    assert succ[1].args[0] is key[1]
    # representatives hold no reference to themselves, so they go as soon
    # as nothing uses them, without waiting for the cycle collector
    rep = weakref.ref(key[1])
    gc.disable()
    try:
        del t, key, succ
        assert rep() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Loops resolve by mode
# ---------------------------------------------------------------------------

def test_inductive_self_loop_is_disproved():
    st = state_from("p := p.\n#table inductive p.")
    assert run(st, "p").disproved
    assert st.tables["p"].entries[("p",)] == "disproved"


def test_coinductive_self_loop_is_proved():
    st = state_from("p := p.\n#table coinductive p.")
    assert run(st, "p").proved
    assert st.tables["p"].entries[("p",)] == "proved"


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
    key = canonical_key("reach", (Const("b"), Const("c")), 0)
    assert st.tables["reach"].entries.get(key) != "disproved"
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


REACH2 = """
reach2 X Y := edge X Z /\\ reach2 Z Y.
reach2 X Y := edge X Y.
#table inductive reach2.
"""


REACH_BOTH = REACH2 + """
reach X Y := edge X Y.
reach X Y := edge X Z /\\ reach Z Y.
#table inductive reach.
"""

# Walks of odd and of even length: two inductive tables, each production
# looping through the other.
PARITY = """
odd X Y := edge X Y.
odd X Y := edge X Z /\\ even Z Y.
even X X.
even X Y := edge X Z /\\ odd Z Y.
#table inductive odd.
#table inductive even.
"""

SIM_BISIM = """
sim P Q := forall A P1. step P A P1 => (exists Q1. step Q A Q1 /\\ sim P1 Q1).
#level sim 1.
#table coinductive sim.
bisim P Q :=
  (forall A P1. step P A P1 => (exists Q1. step Q A Q1 /\\ bisim P1 Q1)) /\\
  (forall A Q1. step Q A Q1 => (exists P1. step P A P1 /\\ bisim Q1 P1)).
#level bisim 1.
#table coinductive bisim.
"""


def _edges(pairs):
    return "".join(f"edge n{x} n{y}.\n" for x, y in pairs)


def test_production_resting_on_itself_still_settles():
    # reach2 n4 n2 finishes resting on reach2 n0 n2, itself still running,
    # and reach2 n0 n2 then merges that condition back onto its own key.
    # Kept as a dependency on itself, the entry stayed conditional for
    # good, so the entries that assumed it disproved were never dropped
    # and the second query answered disproved.
    st = state_from(_edges([(0, 4), (0, 5), (2, 0), (2, 3), (3, 0), (3, 5),
                            (4, 2), (5, 3)]) + REACH2)
    assert run(st, "reach2 n4 n2").proved
    assert run(st, "reach2 n0 n2").proved
    assert st.tables["reach2"].counts() == (2, 0)


def test_budget_abort_drops_entries_that_assumed_the_abandoned_call():
    # The first query runs out of budget while reach2 n0 n1 is in progress;
    # entries recorded on the assumption that it is disproved must go with
    # it, or the second query reads one of them.
    st = state_from(_edges([(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]) + REACH2,
                    max_steps=20)
    assert run(st, "reach2 n0 n1").inconclusive
    assert run(st, "reach2 n1 n1").proved


def test_entries_that_assumed_a_conditional_call_inherit_its_conditions():
    # Proving sim n3 n0 records entries that assumed calls which themselves
    # finished conditionally.  Left resting on those finished calls, the
    # entries were never checked again: they fed a restart storm that ran
    # the query out of its budget, and a "proved" entry it left answered
    # sim n2 n0 wrongly.
    trans = [(0, "a", 2), (0, "a", 3), (1, "a", 0), (1, "a", 1), (1, "a", 2),
             (2, "a", 1), (3, "a", 0), (3, "b", 0)]
    text = "".join(f"step n{p} {a} n{q}.\n" for p, a, q in trans)
    st = state_from(text + SIM_BISIM, max_steps=2000)
    assert run(st, "sim n3 n0").disproved
    assert set(st.tables["sim"].entries.values()) <= {"proved", "disproved"}
    assert run(st, "sim n2 n0").disproved


def _record_filings(monkeypatch):
    """Log (key, conditions) of each conditional entry as it is filed."""
    filings = []
    wait = tabling._wait

    def recording_wait(st, home, key, cond):
        filings.append((key, dict(cond.deps)))
        return wait(st, home, key, cond)

    monkeypatch.setattr(tabling, "_wait", recording_wait)
    return filings


# p c loops into both p a and p b while they run, so its entry rests on
# two running calls and waits on the inner one, p b.  p b then finishes
# disproved as assumed, resting on p a, and p c moves down to wait on p a.
TWO_CONDITIONS = """
p a := p b.
p a := {rescue}.
p b := p c.
p c := p a \\/ p b.
#table inductive p.
"""


@pytest.mark.parametrize("rescue, status, rows", [
    # p a succeeds through its second clause, against the assumption, so
    # the entries of p b and p c are dropped.
    ("true", "proved", ["proved p a."]),
    # p a fails too, as assumed: every entry settles.
    ("false", "disproved",
     ["disproved p a.", "disproved p b.", "disproved p c."]),
])
def test_entry_resting_on_two_running_calls(monkeypatch, rescue, status,
                                            rows):
    filings = _record_filings(monkeypatch)
    st = state_from(TWO_CONDITIONS.format(rescue=rescue))
    assert run(st, "p a").status == status
    a, b, c = map(Const, "abc")  # the key parts of p a, p b and p c
    assert filings == [
        (("p", c), {("p", a): "disproved", ("p", b): "disproved"}),
        (("p", c), {("p", a): "disproved"}),
        (("p", b), {("p", a): "disproved"}),
    ]
    assert st.tables["p"].rows() == rows
    assert set(st.tables["p"].entries.values()) <= {"proved", "disproved"}
    assert st.tab_stack == []
    assert run(st, "p b").status == run(st, "p c").status == status


def test_budget_abort_drops_the_entries_an_outer_call_holds(monkeypatch):
    # p b finishes disproved on the assumption that p a is, and waits on
    # p a; p a's second clause then runs out of budget.  p a and p b go,
    # and the settled p d stays.
    filings = _record_filings(monkeypatch)
    st = state_from(
        """
        p a := p b.
        p a := p d /\\ grow z.
        p b := p a.
        p d.
        grow X := grow (s X).
        #table inductive p.
        """,
        max_steps=300,
    )
    assert run(st, "p a").inconclusive
    a, b, d = map(Const, "abd")  # the key parts of p a, p b and p d
    assert filings == [(("p", b), {("p", a): "disproved"})]
    assert st.tab_stack == []
    assert st.tables["p"].entries == {("p", d): "proved"}


def test_conditional_entries_are_filed_a_linear_number_of_times(monkeypatch):
    # On an n-cycle every reach ni zz rests on reach n0 zz.  Filed under
    # the innermost call they rest on, the entries wait on reach n0 zz at
    # once; handed to the frame just below instead, each would be filed
    # once per frame between, n²/2 filings in all.
    filings = _record_filings(monkeypatch)
    counts = []
    for n in (250, 500, 1000):
        del filings[:]
        st = state_from(_edges((i, (i + 1) % n) for i in range(n)) + REACH)
        assert run(st, "reach n0 zz").disproved
        assert st.tables["reach"].counts() == (0, n)
        counts.append(len(filings))
    assert counts[1] <= 2.1 * counts[0] and counts[2] <= 2.1 * counts[1], \
        counts


# ---------------------------------------------------------------------------
# Differential: verdicts against the fixed-point oracles
# ---------------------------------------------------------------------------

def _check_session(st, queries, expected, clear_at):
    """Run queries in order; a verdict may be inconclusive, never wrong.

    Between queries no call is running, so every entry left must be
    settled: a conditional one rests on assumptions nothing will check.
    """
    for i, (pred, x, y) in enumerate(queries):
        if i in clear_at:
            clear_tables(st)
        r = run(st, f"{pred} n{x} n{y}")
        if not r.inconclusive:
            assert r.proved == ((x, y) in expected[pred]), (pred, x, y, i)
        for table in st.tables.values():
            for key, entry in table.entries.items():
                assert entry in ("proved", "disproved"), (key, i)


@settings(max_examples=100, deadline=None)
@given(hs.data())
def test_reach_verdicts_match_the_closure_under_any_order_and_budget(data):
    n = data.draw(hs.integers(2, 5))
    node = hs.integers(0, n - 1)
    edges = data.draw(hs.sets(hs.tuples(node, node), min_size=1, max_size=2 * n))
    budget = data.draw(hs.sampled_from([15, 30, 60, 120, 400, 2000]))
    closure = transitive_closure(edges)
    odd, even = parity_walks(range(n), edges)
    queries = [(p, x, y) for p in ("reach", "reach2", "odd", "even")
               for x in range(n) for y in range(n)]
    data.draw(hs.randoms()).shuffle(queries)
    clear_at = data.draw(hs.sets(hs.integers(1, len(queries) - 1), max_size=2))
    st = state_from(_edges(sorted(edges)) + REACH_BOTH + PARITY,
                    max_steps=budget)
    _check_session(st, queries, {"reach": closure, "reach2": closure,
                                 "odd": odd, "even": even}, clear_at)


@settings(max_examples=60, deadline=None)
@given(hs.data())
def test_sim_verdicts_match_the_greatest_fixed_points(data):
    n = data.draw(hs.integers(2, 4))
    state = hs.integers(0, n - 1)
    trans = data.draw(hs.sets(hs.tuples(state, hs.sampled_from("ab"), state),
                              min_size=1, max_size=2 * n))
    budget = data.draw(hs.sampled_from([15, 30, 60, 120, 400, 2000]))
    states = list(range(n))
    expected = {"sim": gfp_sim(states, trans), "bisim": gfp_bisim(states, trans)}
    queries = [(p, x, y) for p in ("sim", "bisim")
               for x in range(n) for y in range(n)]
    data.draw(hs.randoms()).shuffle(queries)
    clear_at = data.draw(hs.sets(hs.integers(1, len(queries) - 1), max_size=2))
    text = "".join(f"step n{p} {a} n{q}.\n" for p, a, q in sorted(trans))
    st = state_from(text + SIM_BISIM, max_steps=budget)
    _check_session(st, queries, expected, clear_at)


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


def test_tabled_fib_keys_print_nothing_and_grow_linearly(monkeypatch):
    # Printing each key cost O(n) per call and O(n²) per fib n.  A key part
    # is the argument's one node, and each inert node built costs one
    # lookup in the one-node table (nodes.py).
    printed = []
    print_term = parser.print_term

    def counting_print(*args, **kwargs):
        printed.append(args[0])
        return print_term(*args, **kwargs)

    class CountingNodes(dict):
        lookups = 0

        def get(self, key, default=None):
            CountingNodes.lookups += 1
            return dict.get(self, key, default)

    monkeypatch.setattr(parser, "print_term", counting_print)
    lookups = []
    original = nodes._NODES
    with monkeypatch.context() as m:
        # Seeded with every entry, so the nodes made before stay the one
        # node of their structure.
        m.setattr(nodes, "_NODES", CountingNodes(original))
        for n in (100, 200, 400):
            CountingNodes.lookups = 0
            assert run(state_from(TREE), f"cost {_peano(n)}").proved
            lookups.append(CountingNodes.lookups)
        table = nodes._NODES
    original.update(table)  # and so do the nodes made meanwhile
    assert printed == []
    assert lookups[1] <= 2.1 * lookups[0] and lookups[2] <= 2.1 * lookups[1], \
        lookups


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
