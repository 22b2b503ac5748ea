"""Formula layer: classification, level inference, unfolding."""

import pytest
from hypothesis import given, settings, strategies as hs

from conftest import run, state_from

import nablacheck.engine as engine
import nablacheck.logic as logic
import nablacheck.unify as unify_mod
from nablacheck.errors import IllFormedFormula, LevelError
from nablacheck.logic import (
    Atom,
    DefSet,
    Eq,
    Forall,
    Imp,
    Top,
    classify,
    formula_preds,
    instantiate,
    replace_clause_vars,
    replace_clause_vars_formula,
    unfold,
)
from nablacheck.nodes import App, Bound, Const
from nablacheck.parser import parse_file, parse_formula, print_formula
from nablacheck.terms import deref, struct_eq
from nablacheck.unify import FAILURE, unify


def _defs(text):
    ds = DefSet()
    for item in parse_file(text, "<test>"):
        if hasattr(item, "head_args"):
            ds.add_clause(item.pred, item.head_args, item.body, item.var_names)
        elif hasattr(item, "level") and hasattr(item, "pred"):
            ds.declare_level(item.pred, item.level)
        else:
            ds.set_table(item.pred, item.mode)
    return ds


def test_classify_grammar_base_cases():
    lv = {"p": 0, "q": 1}
    assert classify(Top(), lv, strict=True) == 0
    assert classify(Atom("p", (Const("a"),)), lv, strict=True) == 0
    assert classify(Atom("q", (Const("a"),)), lv, strict=True) == 1
    assert classify(Forall("x", Atom("p", (Bound(0),))), lv, strict=True) == 1
    assert classify(Eq(Const("a"), Const("a")), lv, strict=True) == 0


def test_classify_rejects_level_one_antecedent():
    lv = {"p": 0}
    bad = Imp(Forall("x", Atom("p", (Bound(0),))), Top())
    with pytest.raises(IllFormedFormula):
        classify(bad, lv, strict=True)
    # non-strict mode still reports the formula's own level
    assert classify(bad, lv, strict=False) == 1


def test_level_inference_fixpoint_through_mutual_recursion():
    ds = _defs(
        """
        r X.
        p X := forall Y. r Y => r X.
        q X := p X.
        s X := q X \\/ r X.
        """
    )
    ds.check()
    assert ds.level("r") == 0
    assert ds.level("p") == 1
    assert ds.level("q") == 1
    assert ds.level("s") == 1


def test_declared_level_too_low_is_an_error():
    ds = _defs("p X := forall Y. q Y => q X.\nq X.\n#level p 0.\n")
    with pytest.raises(LevelError):
        ds.check()


def test_declared_level_must_be_zero_or_one():
    ds = DefSet()
    with pytest.raises(LevelError):
        ds.declare_level("p", 2)


def test_self_antecedent_warns_then_errors():
    ds = _defs("p X := (p X) => false.\n")
    with pytest.raises(LevelError):
        ds.check()
    assert any("antecedent of its own definition" in w for w in ds.warnings)


def test_well_formed_programs_produce_no_warnings():
    ds = _defs(
        """
        move (s N) N.
        win X := move X Y /\\ (forall Z. move Y Z => win Z).
        """
    )
    ds.check()
    assert ds.warnings == []


def test_false_is_predeclared_and_empty():
    ds = DefSet()
    assert ds.known("false")
    assert ds.defs["false"].clauses == []


def test_formula_preds():
    f = parse_formula("forall X. p X a => q X \\/ r b")
    assert formula_preds(f) == {"p", "q", "r"}


def test_instantiate_replaces_the_bound_variable():
    f = parse_formula("forall x. p x (f x)")
    inner = instantiate(f.body, Const("c"))
    assert print_formula(inner) == "p c (f c)"


def test_unfold_enumerates_clauses_in_source_order():
    st = state_from("memb X (X::L).\nmemb X (Y::L) := memb X L.")
    x = st.sig.fresh_logic("X")
    goal_args = (
        x,
        Const("nil"),
    )
    bodies = list(unfold("memb", goal_args, st))
    assert bodies == []  # nil matches neither cons-headed clause


def test_unfold_binds_and_unbinds_across_alternatives():
    st = state_from("p a.\np b.")
    x = st.sig.fresh_logic("X")
    seen = []
    for body, _ in unfold("p", (x,), st):
        assert isinstance(body, Top)
        seen.append(deref(x))
    assert [t.name for t in seen] == ["a", "b"]
    assert deref(x) is x  # fully undone after exhaustion


def test_unfold_marks_the_last_candidate_clause():
    # After the last clause that can still match, the prover keeps no
    # choice point.  A trailing clause whose head an inert argument rules
    # out before anything is bound does not count, and is not tried.
    st = state_from("fib z.\nfib (s z).\nfib (s (s N)) := fib (s N) /\\ fib N.\n"
                    "p a.\np b.")
    one = App(Const("s"), (Const("z"),))
    assert [last for _, last in unfold("fib", (one,), st)] == [True]
    x = st.sig.fresh_logic("X")
    assert [last for _, last in unfold("fib", (App(Const("s"), (x,)),), st)] \
        == [False, True]
    assert [last for _, last in unfold("p", (x,), st)] == [False, True]
    assert [last for _, last in unfold("p", (Const("a"),), st)] == [True]
    assert list(unfold("p", (Const("c"),), st)) == []
    assert deref(x) is x


def test_unfold_shares_one_fresh_var_per_clause_variable():
    st = state_from("pair X X.")
    u = st.sig.fresh_logic("U")
    v = st.sig.fresh_logic("V")
    hits = 0
    for _ in unfold("pair", (u, v), st):
        hits += 1
        assert deref(u) is deref(v)
    assert hits == 1


def test_unfold_filters_clauses_by_arity():
    st = state_from("p a.\np a b.")
    hit = list(unfold("p", (Const("a"),), st))
    assert len(hit) == 1
    hit2 = list(unfold("p", (Const("a"), Const("b")), st))
    assert len(hit2) == 1


def test_unfold_left_mode_instantiates_eigenvariables():
    st = state_from("p a.")
    e = st.sig.fresh_eigen("x")
    assert list(unfold("p", (e,), st)) == []
    got = []
    for _ in unfold("p", (e,), st, left=True):
        got.append(deref(e))
    assert len(got) == 1 and struct_eq(got[0], Const("a"))


def test_clause_body_sees_head_bindings():
    st = state_from("q X (f X) := r X.")
    y = st.sig.fresh_logic("Y")
    z = st.sig.fresh_logic("Z")
    st.defs.ensure("r")
    hits = 0
    for body, _ in unfold("q", (y, z), st):
        hits += 1
        assert isinstance(body, Atom) and body.pred == "r"
        assert deref(body.args[0]) is deref(y)
        bound = deref(z)
        assert bound.head.name == "f" and deref(bound.args[0]) is deref(y)
    assert hits == 1
    assert deref(y) is y and deref(z) is z


# ---------------------------------------------------------------------------
# First-argument indexing
# ---------------------------------------------------------------------------

def _every_clause(pred, args, st, left=False):
    """Reference unfold: rename and head-unify every clause, no index."""
    defn = st.defs.defs.get(pred)
    if defn is None:
        return
    fresh = st.sig.fresh_eigen if left else st.sig.fresh_logic
    mark = st.checkpoint()
    for clause in defn.clauses:
        if len(clause.head_args) != len(args):
            continue
        env = {name: fresh(name) for name in clause.var_names}
        ok = True
        for pat, arg in zip(clause.head_args, args):
            if unify(replace_clause_vars(pat, env), arg, st,
                     instantiate_eigen=left) is FAILURE:
                ok = False
                break
        if ok:
            # Never claims to be the last clause, so every clause is tried.
            yield replace_clause_vars_formula(clause.body, env), False
        st.undo_to(mark)


# Nested constructor patterns, some repeating a clause variable inside one
# argument or across the two, and one holding a λ.
_NESTED = ["X::L", "X::X::L", "s (s X)", "f (g X) X", "f X (g Y)", "f (x\\ X)"]
# First head arguments: constants, applications (one a redex, one holding a
# λ, one holding a redex without a normal form), clause variables, a
# flexible head, λs and the nested patterns.
_HEADS = ["a", "b", "c", "f a", "f X", "g X b", "f (x\\ x)", "(x\\ f x) a",
          "g ((x\\ x x) (x\\ x x)) a", "X", "Y", "X a", "x\\ f x",
          "x\\ a"] + _NESTED
_SECONDS = ["a", "b", "X", "Y", "f Y"] + _NESTED
_BODIES = ["", " := q X", " := q Y", " := X = Y", " := q a"]
_QUERY_FIRSTS = ["a", "b", "d", "f", "f a", "f b", "g a b", "x\\ f x"]


def _query_texts():
    # On the right: every kind of first argument, answers reported for Y.
    for first in _QUERY_FIRSTS:
        yield f"exists Y. p ({first}) Y"
    yield "exists X Y. p X Y"
    yield "forall x. exists Y. p x Y"
    yield "nabla n. exists Y. p n Y"
    yield "exists Y. forall x. p (f x) Y"
    # Under => false: case analysis, where eigenvariables are instantiable.
    for first in _QUERY_FIRSTS:
        yield f"p ({first}) b => false"
    yield "forall x. p x b => false"
    yield "forall x y. p x y => false"
    yield "nabla n. p n b => false"
    yield "forall x. p (f x) a => false"
    # Partially bound lists, also reached through a bound variable.
    yield "exists Z Y. p (a::Z) Y"
    yield "exists Y. p (f a) (b::Y)"
    yield "exists Z Y. Z = (a::Y) /\\ p Z Z"
    yield "exists Z Y. Z = (f Y) /\\ p Z Y"
    # In an implication's consequent, which may not instantiate X.
    yield "exists X. (q a => p a X)"
    yield "exists X. (q a => exists Y. p X Y)"
    yield "forall x. (q x => exists Y. p x Y)"
    yield "exists X. (q a => p (a::X) X)"
    # Fields holding eigenvariables, ∇-indices, λs, partially bound lists
    # and variables at lower levels than the names around them.
    yield "forall x. exists Y. p (x::Y) Y"
    yield "forall x. exists Y. p (f (g x) x) Y"
    yield "forall x. exists Y. p (x::x::nil) (s (s x))"
    yield "nabla n. exists Y. p (n::n::nil) Y"
    yield "nabla n. exists Y. p (f n (g n)) (s (s n))"
    yield "exists Y. p (f (x\\ a)) Y"
    yield "exists Y. p (f (x\\ x)) (f (x\\ b))"
    yield "exists Y. p (a::a::nil) (s (s Y))"
    yield "exists Z Y. p (a::b::Z) Y"
    yield "exists Z Y. p (s (s Z)) (Z::Y)"
    yield "exists Z. forall x. exists Y. p (x::Z) Y"
    yield "exists Z. forall x. p Z (x::nil)"
    yield "exists Z. forall x. p (f (g x) Z) Z"
    yield "exists Z. nabla n. exists Y. p (f n (g Z)) Y"
    yield "exists Z. nabla n. p (n::Z) Z"
    yield "exists Z. nabla n. p Z (s (s n))"
    yield "forall x. exists Z. p Z (x::nil)"
    yield "nabla n. exists Z. p (s (s Z)) (n::Z)"
    # The same shapes under => false, where eigenvariables bend too.
    yield "forall x. p (x::nil) b => false"
    yield "forall x y. p (x::y) y => false"
    yield "forall x. p (f (g x) x) a => false"
    yield "forall x. p (s (s x)) (x::nil) => false"
    yield "forall x. nabla n. p (x::n::nil) x => false"
    yield "nabla n. p (n::n::nil) (f n (g n)) => false"
    yield "exists Z. forall x. p (x::Z) Z => false"
    yield "exists Z. forall x. p Z (x::x::nil) => false"
    yield "exists Z. nabla n. p (f n (g Z)) a => false"
    yield "forall x. exists Z. p (a::Z) (f (x\\ x)) => false"


def _outcome(st, text):
    r = run(st, text)
    return r.status, [a.text() for a in r.answers], type(r.error).__name__


@settings(max_examples=120, deadline=None)
@given(
    hs.lists(
        hs.tuples(hs.sampled_from(_HEADS), hs.sampled_from(_SECONDS),
                  hs.sampled_from(_BODIES)),
        min_size=1, max_size=8,
    ),
    hs.lists(hs.sampled_from(["a", "b", "f a"]), max_size=3),
)
def test_indexed_unfold_answers_like_trying_every_clause(clauses, q_facts):
    text = "".join(f"p ({h}) ({s}){b}.\n" for h, s, b in clauses)
    text += "".join(f"q ({t}).\n" for t in q_facts)
    indexed = state_from(text, max_steps=5000, norm_budget=500)
    indexed.defs.ensure("q")
    reference = state_from(text, max_steps=5000, norm_budget=500)
    reference.defs.ensure("q")
    for query in _query_texts():
        want_unfold = engine.unfold
        engine.unfold = _every_clause
        try:
            want = _outcome(reference, query)
        finally:
            engine.unfold = want_unfold
        assert _outcome(indexed, query) == want, (text, query)


def test_index_is_rebuilt_after_clauses_are_added():
    st = state_from("p a.\n")
    assert run(st, "p b").disproved
    st.defs.add_clause("p", (Const("b"),), Top(), ())
    assert run(st, "p b").proved


def test_inert_head_argument_meets_a_bound_application_without_unify(
        monkeypatch):
    # s X, with X bound to s z, is normalized as a structure step would and
    # then compared with the fact's inert s (s z): no head unification.
    calls = []
    real = logic.unify

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(logic, "unify", counted)
    st = state_from("q a (s (s z)).\n")
    r = run(st, "exists X. X = s z /\\ q a (s X)")
    assert [a.text() for a in r.answers] == ["X = s z"]
    assert run(st, "exists X. X = z /\\ q a (s X)").disproved
    assert calls == []


def test_head_unifications_grow_linearly_along_a_chain(monkeypatch):
    # Counts the clauses unfold tries, as head unification mostly happens
    # without calling unify.
    tried = [0]
    real_candidates = logic.Definition.candidates

    def counted(self, args, budget):
        clauses, first = real_candidates(self, args, budget)
        tried[0] += len(clauses)
        return clauses, first

    monkeypatch.setattr(logic.Definition, "candidates", counted)
    counts = []
    for n in (16, 32, 64):
        edges = "".join(f"edge n{i} n{i + 1}.\n" for i in range(n - 1))
        st = state_from(
            edges
            + "reach X Y := edge X Y.\n"
            + "reach X Y := edge X Z /\\ reach Z Y.\n"
            + "#table inductive reach.\n"
        )
        tried[0] = 0
        assert run(st, f"reach n0 n{n - 1}").proved
        assert run(st, f"reach n{n - 1} n0").disproved
        counts.append(tried[0])
    # Trying every edge clause on each call made this grow as n squared.
    assert counts[0] > 0
    assert counts[1] <= 2.2 * counts[0], counts
    assert counts[2] <= 2.2 * counts[1], counts


# ---------------------------------------------------------------------------
# Head plans: matching without renaming or unify
# ---------------------------------------------------------------------------

ADDER = """
xor2 0 0 0.  xor2 0 1 1.  xor2 1 0 1.  xor2 1 1 0.
and2 0 0 0.  and2 0 1 0.  and2 1 0 0.  and2 1 1 1.
or2  0 0 0.  or2  0 1 1.  or2  1 0 1.  or2  1 1 1.
full_adder A B Cin S Cout :=
  exists P G H.
    xor2 A B P /\\ xor2 P Cin S /\\
    and2 A B G /\\ and2 P Cin H /\\ or2 G H Cout.
adder3 A2 A1 A0 B2 B1 B0 C S2 S1 S0 :=
  exists C0 C1.
    full_adder A0 B0 0 S0 C0 /\\
    full_adder A1 B1 C0 S1 C1 /\\
    full_adder A2 B2 C1 S2 C.
"""


def _count_head_unify(monkeypatch):
    """A one-element list counting unfold's calls to unify from now on."""
    calls = [0]
    real_unify = logic.unify

    def counted(*args, **kwargs):
        calls[0] += 1
        return real_unify(*args, **kwargs)

    monkeypatch.setattr(logic, "unify", counted)
    return calls


def test_constant_heads_and_first_occurrences_match_without_unify(monkeypatch):
    calls = _count_head_unify(monkeypatch)
    st = state_from(ADDER)
    assert run(st, "and2 1 1 1").proved
    assert run(st, "and2 1 0 1").disproved
    assert run(st, "adder3 1 0 1 0 1 1 1 0 0 0").proved
    assert run(st, "adder3 0 0 1 0 0 1 0 0 0 1").disproved
    r = run(st, "exists C S2 S1 S0. adder3 1 1 1 0 0 1 C S2 S1 S0")
    assert [a.text() for a in r.answers] == ["C = 1, S2 = 0, S1 = 0, S0 = 0"]
    assert calls[0] == 0


def test_first_occurrence_heads_make_fresh_variables_only_for_body_names():
    st = state_from(ADDER + "tri X Y := edge X Z /\\ edge Z Y.\n")
    st.defs.ensure("edge")
    s = st.sig.fresh_logic("S")
    c = st.sig.fresh_logic("C")
    one, zero = Const("1"), Const("0")
    before = st.sig._next_id
    bodies = 0
    for body, _ in unfold("full_adder", (one, zero, one, s, c), st):
        bodies += 1
        assert st.sig._next_id == before
        terms = list(logic.formula_terms(body))
        assert any(t is c for t in terms) and any(t is one for t in terms)
    assert bodies == 1
    for body, _ in unfold("tri", (one, c), st):
        bodies += 1
        assert st.sig._next_id == before + 1
    assert bodies == 2
    assert deref(s) is s and deref(c) is c


LISTS = """
len nil z.
len (X::L) (s N) := len L N.
memb X (X::L).
memb X (Y::L) := memb X L.
append nil L L.
append (X::L) M (X::N) := append L M N.
select X (X::L) L.
select X (Y::L) (Y::M) := select X L M.
plus z N N.
plus (s M) N (s K) := plus M N K.
fibtree z.
fibtree (s z).
fibtree (s (s N)) := fibtree (s N) /\\ fibtree N.
rev L R := rev_acc L nil R.
rev_acc nil A A.
rev_acc (X::L) A R := rev_acc L (X::A) R.
"""


def test_constructor_heads_match_field_by_field_without_unify(monkeypatch):
    calls = _count_head_unify(monkeypatch)
    st = state_from(LISTS)
    # Every argument inert.
    assert run(st, "len (a::b::c::nil) (s (s (s z)))").proved
    assert run(st, "len (a::b::nil) (s z)").disproved
    assert run(st, "memb c (a::b::c::nil)").proved
    assert run(st, "memb d (a::b::c::nil)").disproved
    assert run(st, "append (a::nil) (b::c::nil) (a::b::c::nil)").proved
    assert run(st, "append (a::nil) (b::nil) (b::a::nil)").disproved
    assert run(st, "select b (a::b::c::nil) (a::c::nil)").proved
    assert run(st, "select b (a::b::c::nil) (a::b::nil)").disproved
    assert run(st, "plus (s (s z)) (s z) (s (s (s z)))").proved
    assert run(st, "plus (s z) (s z) (s z)").disproved
    assert run(st, "fibtree (s (s (s (s z))))").proved
    assert run(st, "rev (a::b::c::nil) (c::b::a::nil)").proved
    assert run(st, "rev (a::b::nil) (a::b::nil)").disproved
    # Outputs built in write mode.

    def answers(query):
        return [a.text() for a in run(st, query).answers]

    assert answers("exists N. len (a::b::nil) N") == ["N = s (s z)"]
    assert answers("exists A B. append A B (a::b::nil)") == [
        "A = nil, B = a::b::nil",
        "A = a::nil, B = b::nil",
        "A = a::b::nil, B = nil",
    ]
    assert answers("exists K. plus (s z) (s (s z)) K") == [
        "K = s (s (s z))"]
    assert answers("exists R. rev (a::b::c::nil) R") == ["R = c::b::a::nil"]
    assert answers("exists X. memb X (a::b::nil)") == ["X = a", "X = b"]
    assert calls[0] == 0


def test_write_mode_builds_at_the_variables_levels():
    st = state_from(LISTS)
    # Y is introduced before x, so no instance of Y may mention x.
    assert run(st, "exists Y. forall x. append Y nil (x::nil)").disproved
    assert run(st, "exists Y. nabla x. append Y nil (x::nil)").disproved
    assert run(st, "forall x. exists Y. append Y nil (x::nil)").proved
    assert run(st, "nabla x. exists Y. append Y nil (x::nil)").proved


def test_first_argument_is_normalized_once_per_unfold(monkeypatch):
    firsts = []  # the dereferenced first argument of each len unfold
    normalized = []  # every term normalized, dereferenced

    real_unfold = engine.unfold

    def unfold_len(pred, args, st, left=False):
        if pred == "len":
            firsts.append(deref(args[0]))
        return real_unfold(pred, args, st, left)

    def counting(real):
        def normalize(t, budget=None):
            normalized.append(deref(t))
            return real(t, budget)
        return normalize

    monkeypatch.setattr(engine, "unfold", unfold_len)
    monkeypatch.setattr(logic, "normalize", counting(logic.normalize))
    monkeypatch.setattr(unify_mod, "normalize", counting(unify_mod.normalize))
    st = state_from(LISTS)
    r = run(st, "exists N T. len (a::b::T) N", max_answers=3)
    assert [a.text() for a in r.answers] == [
        "N = s (s z), T = nil",
        "N = s (s (s z)), T = ?0::nil",
        "N = s (s (s (s z))), T = ?0::?1::nil",
    ]
    assert len(firsts) >= 5
    assert [sum(t is a for t in normalized) for a in firsts] == [1] * len(firsts)
