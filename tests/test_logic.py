"""Formula layer: classification, level inference, unfolding."""

import io

import pytest
from hypothesis import given, settings, strategies as hs

from conftest import run, run_cli, state_from
from oracles import LevelOracle
from nablacheck.engine import State

import nablacheck.engine as engine
import nablacheck.logic as logic
import nablacheck.terms as terms_mod
import nablacheck.unify as unify_mod
from nablacheck.errors import IllFormedFormula, LevelError
from nablacheck.logic import (
    And,
    Atom,
    DefSet,
    Eq,
    Exists,
    Forall,
    Imp,
    Or,
    Top,
    replace_clause_vars,
    replace_clause_vars_formula,
    unfold,
)
from nablacheck.nodes import App, Bound, Const, Lam, NablaIndex
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


def _level(f, ds):
    """f's level as the goal compiler finds it against ds."""
    return logic.compile_goal(f, ds.defs)[0]


def test_classify_grammar_base_cases():
    ds = _defs("p a.\nq X := forall Y. p Y.\n")
    ds.check()
    assert _level(Top(), ds) == 0
    assert _level(Atom("p", (Const("a"),)), ds) == 0
    assert _level(Atom("q", (Const("a"),)), ds) == 1
    assert _level(Forall("x", Atom("p", (Bound(0),))), ds) == 1
    assert _level(Eq(Const("a"), Const("a")), ds) == 0


def test_classify_rejects_level_one_antecedent():
    ds = _defs("p a.\n")
    bad = Imp(Forall("x", Atom("p", (Bound(0),))), Top())
    with pytest.raises(IllFormedFormula):
        _level(bad, ds)


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
    assert ds.defs["r"].level == 0
    assert ds.defs["p"].level == 1
    assert ds.defs["q"].level == 1
    assert ds.defs["s"].level == 1


def test_declared_level_too_low_is_an_error():
    ds = _defs("p X := forall Y. q Y => q X.\nq X.\n#level p 0.\n")
    with pytest.raises(LevelError):
        ds.check()


def _count_body_reads(monkeypatch):
    """A list that counts DefSet's walks over arriving clause bodies."""
    reads = []
    read_body = DefSet._read_body

    def counted(self, pred, c):
        reads.append(pred)
        return read_body(self, pred, c)

    monkeypatch.setattr(DefSet, "_read_body", counted)
    return reads


def _forbid_formula_walks_in_check(monkeypatch):
    """Make compile_goal raise when DefSet.check calls it."""
    checking = [False]
    check = DefSet.check

    def flagged(self):
        checking[0] = True
        try:
            return check(self)
        finally:
            checking[0] = False

    def forbidden(fn):
        def guarded(*args, **kwargs):
            if checking[0]:
                raise AssertionError(f"{fn.__name__} called in check")
            return fn(*args, **kwargs)
        return guarded

    monkeypatch.setattr(DefSet, "check", flagged)
    monkeypatch.setattr(logic, "compile_goal", forbidden(logic.compile_goal))


def test_level_inference_walks_each_clause_body_once(monkeypatch):
    # p0 := p1. ... p299 := p300. p300 := forall x. x = x.  Level 1 climbs
    # the whole chain; a fixed point over all clauses would read the
    # callees' levels of every clause once per link, propagation over
    # callers reads each clause's facts, saved by the one walk over its body
    # on arrival, a bounded number of times.
    n = 300
    text = "".join(f"p{i} := p{i + 1}.\n" for i in range(n))
    reads = _count_body_reads(monkeypatch)
    ds = _defs(text + f"p{n} := forall x. x = x.\n")
    assert len(reads) == n + 1
    _forbid_formula_walks_in_check(monkeypatch)
    levels_read = []
    level = logic._LEVEL

    def counted(d):
        levels_read.append(d)
        return level(d)

    monkeypatch.setattr(logic, "_LEVEL", counted)
    for d in ds.defs.values():  # check works from the facts alone
        for c in d.clauses:
            c.body = None
    ds.check()
    assert all(ds.defs[f"p{i}"].level == 1 for i in range(n + 1))
    assert len(reads) == n + 1
    assert len(levels_read) <= 3 * (n + 1)


@pytest.mark.parametrize("n", [1000, 2000])
def test_checks_between_clauses_classify_only_what_arrived(
        monkeypatch, tmp_path, n):
    # e0 a. #assert e0 a. e1 a. #assert e1 a. ...  Each assertion checks
    # the definitions first; a check of every clause made n(n+1) classify
    # calls here (1,001,000 at n = 1,000).  Now each body is walked once,
    # as it arrives, and a check classifies nothing: it reads the facts of
    # what arrived since the last one.
    text = "".join(f"e{i} a.\n#assert e{i} a.\n" for i in range(n))
    reads = _count_body_reads(monkeypatch)
    _forbid_formula_walks_in_check(monkeypatch)
    path = tmp_path / "alternating.def"
    path.write_text(text)
    code, out = run_cli([str(path)])
    assert code == 0
    assert out.count(" ... ok\n") == n
    assert len(reads) == n


def test_a_check_after_new_clauses_finds_what_a_full_check_finds():
    # Level 1 reaches an old caller through a clause that arrives later,
    # and a #level 0 over a #level 1 lets levels fall again.
    ds = state_from("q := r.\np := (q => false).\n").defs
    ds.check()
    assert ds.defs["q"].level == 0
    ds.add_clause("r", (), Forall("x", Top()), (), 3)
    with pytest.raises(LevelError, match=r"clause of p \(line 2\): the ant"):
        ds.check()
    with pytest.raises(LevelError):  # the same error, from a new start
        ds.check()
    assert ds.defs["q"].level == 1
    ds = _defs("s := t.\n#level t 1.\n")
    ds.check()
    assert ds.defs["s"].level == 1
    ds.declare_level("t", 0)
    ds.check()
    assert ds.defs["s"].level == ds.defs["t"].level == 0


def test_a_level_conflict_names_the_first_predicate_in_load_order():
    # Both a and b are declared level 0 and both are level 1: b by its own
    # forall, a through b.  The error names a's clause, the first in load
    # order, though b's is where the forall is.
    st = state_from("a := b.\nb := forall x. x = x.\n#level b 0.\n#level a 0.\n")
    with pytest.raises(LevelError) as exc:
        st.defs.check()
    assert str(exc.value) == (
        "clause of a (line 1) has a level-1 body but a is declared level 0")


_PREDS = ("p", "q", "r", "s", "t")


def _bodies(preds):
    """Clause bodies over the names preds and false, without arguments; ∀
    and ⊃ are the rarer connectives, so that levels often rise late in a
    session, and false, always level 0, often makes an antecedent one."""
    return hs.recursive(
        hs.sampled_from((*preds, "false")).map(Atom),
        lambda sub: hs.one_of(
            hs.tuples(hs.sampled_from((And, Or, And, Or, Imp)), sub, sub).map(
                lambda t: t[0](t[1], t[2])),
            hs.tuples(hs.sampled_from((Exists, Exists, Forall)), sub).map(
                lambda t: t[0]("x", t[1]))),
        max_leaves=5)


@settings(max_examples=500, deadline=None)
@given(hs.data())
def test_level_checks_agree_with_a_check_of_everything(data):
    # Random sessions of clauses, #level declarations (0 over 1 among
    # them) and checks: after every call the levels, whether a check
    # raises and what its error names agree with an oracle that checks
    # everything loaded from scratch (oracles.LevelOracle).
    preds = _PREDS[:data.draw(hs.integers(2, 5))]
    clause = hs.tuples(hs.just("clause"), hs.sampled_from(preds),
                       _bodies(preds))
    ops = data.draw(hs.lists(hs.one_of(
        clause, clause,
        hs.tuples(hs.just("level"), hs.sampled_from(preds),
                  hs.integers(0, 1)),
        hs.just(("check",))), max_size=16))
    ds = DefSet()
    oracle = LevelOracle()
    for line, op in enumerate([*ops, ("check",)], 1):
        if op[0] == "clause":
            ds.add_clause(op[1], (), op[2], (), line)
            oracle.add_clause(op[1], op[2], line)
        elif op[0] == "level":
            ds.declare_level(op[1], op[2])
            oracle.declare_level(op[1], op[2])
        else:
            try:
                ds.check()
                error = None
            except LevelError as e:
                error = str(e)
            assert error == oracle.check(), ops
            assert ds.warnings == oracle.warnings, ops
        assert list(ds.defs) == oracle.order, ops
        assert [ds.defs[p].level for p in oracle.order] == [
            oracle.level(p) for p in oracle.order], ops


def test_declared_level_must_be_zero_or_one():
    ds = DefSet()
    with pytest.raises(LevelError):
        ds.declare_level("p", 2)


def test_self_antecedent_warns_then_errors():
    ds = _defs("p X := (p X) => false.\n")
    with pytest.raises(LevelError, match="but it calls p, which is level 1$"):
        ds.check()
    assert any("antecedent of its own definition" in w for w in ds.warnings)


def test_an_ill_antecedent_error_says_why():
    # A ∀ or an implication of the antecedent's own is named before any
    # level-1 predicate it calls; else the first level-1 callee is.
    for text, why in (
            ("q := r => false.\nr := s.\ns := forall x. x = x.\n",
             "it calls r, which is level 1"),
            ("q := (t /\\ forall x. t) => false.\nt.\n",
             "it holds a forall or an implication"),
            ("q := (r /\\ (t => t)) => t.\nr := forall x. t.\nt.\n",
             "it holds a forall or an implication"),
            ("q := (t \\/ r \\/ s) => t.\nr := forall x. t.\n"
             "s := forall x. t.\nt.\n", "it calls r, which is level 1")):
        with pytest.raises(LevelError) as exc:
            state_from(text).defs.check()
        assert str(exc.value) == (
            "clause of q (line 1): the antecedent of an implication must "
            f"be a level-0 formula, but {why}"), text


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
    assert "false" in ds.defs
    assert ds.defs["false"].clauses == []


def test_defs_keep_load_order():
    # Each clause registers its head, then the names its body calls, in
    # source order, left before right; the arrival walk saves them too.
    ds = _defs("s := forall X. (p X a /\\ t) => q X \\/ r b.\nt.\n")
    assert list(ds.defs) == ["false", "s", "p", "t", "q", "r"]
    c = ds.defs["s"].clauses[0]
    assert [d.pred for d in c.calls] == ["p", "t", "q", "r"]
    assert [d.pred for d in c.ante] == ["p", "t"]
    assert c.own == 1
    assert ds.defs["t"].clauses[0].own == 0


# Closing a stored clause body: (body of `c Y := ...`, how many of its
# outer binders to enter, their values innermost first, the closed body).
# Indices under the body's own λs and formula binders stay bound; those
# that pass them reach the entered binders' values.
_CLOSINGS = [
    ("forall x. p x (f x)", 1, ("c",), "p c (f c)"),
    ("forall x. exists y. p (z\\ f z x y) Y", 0, (),
     "forall x. exists y. p (z\\ f z x y) d"),
    ("exists u. forall x. exists y. p (z\\ f z x y u) Y", 1, ("c",),
     "forall x. exists y. p (z\\ f z x y c) d"),
    ("exists u. exists v. nabla n. q (x\\ y\\ g y x n v u) /\\ v = (w\\ u)",
     2, ("b", "a"), "nabla n. q (x\\ y\\ g y x n b a) /\\ b = (w\\ a)"),
    ("exists u. p (u a) ((x\\ u x) a) (x\\ Y x)", 1, ("f",),
     "p (f a) ((x\\ f x) a) (x\\ d x)"),
    ("exists u. q u => (forall x. q x \\/ q u)", 1, ("c",),
     "q c => forall x. q x \\/ q c"),
]


def test_closing_reads_binder_slots_and_keeps_inner_indices():
    for text, entered, values, closed in _CLOSINGS:
        body = _defs(f"c Y := {text}.").defs["c"].clauses[0].body
        for _ in range(entered):
            body = body.body
        slots = tuple(Const(v) for v in values)
        got = replace_clause_vars_formula(body, {"Y": Const("d")}, slots)
        assert print_formula(got) == closed, text


def test_unfold_enumerates_clauses_in_source_order():
    st = state_from("memb X (X::L).\nmemb X (Y::L) := memb X L.")
    x = st.fresh_logic("X")
    goal_args = (
        x,
        Const("nil"),
    )
    bodies = list(unfold(st.defs.defs["memb"], goal_args, st))
    assert bodies == []  # nil matches neither cons-headed clause


def test_unfold_binds_and_unbinds_across_alternatives():
    st = state_from("p a.\np b.")
    x = st.fresh_logic("X")
    seen = []
    for body, _, _ in unfold(st.defs.defs["p"], (x,), st):
        assert body[0] == logic.TOP and isinstance(body[1], Top)
        seen.append(deref(x))
    assert [t.name for t in seen] == ["a", "b"]
    assert deref(x) is x  # fully undone after exhaustion


def test_unfold_marks_the_last_candidate_clause():
    # After the last clause that can still match, the prover keeps no
    # choice point.  A trailing clause whose head an inert argument rules
    # out before anything is bound does not count, and is not tried.
    st = state_from("fib z.\nfib (s z).\nfib (s (s N)) := fib (s N) /\\ fib N.\n"
                    "p a.\np b.\nq (c X (f b)).\nq (c X (f a)).")
    fib, p, q = (st.defs.defs[name] for name in ("fib", "p", "q"))
    one = App(Const("s"), (Const("z"),))
    assert [last for _, _, last in unfold(fib, (one,), st)] == [True]
    x = st.fresh_logic("X")
    sx = App(Const("s"), (x,))
    assert [last for _, _, last in unfold(fib, (sx,), st)] == [False, True]
    assert [last for _, _, last in unfold(p, (x,), st)] == [False, True]
    assert [last for _, _, last in unfold(p, (Const("a"),), st)] == [True]
    assert list(unfold(p, (Const("c"),), st)) == []
    # An inert field that is not the pattern's node rules a clause out.
    f, k = Const("f"), Const("k")
    cfb = App(Const("c"), (k, App(f, (Const("b"),))))
    assert [last for _, _, last in unfold(q, (cfb,), st)] == [True]
    assert deref(x) is x


def test_unfold_shares_one_fresh_var_per_clause_variable():
    st = state_from("pair X X.")
    u = st.fresh_logic("U")
    v = st.fresh_logic("V")
    hits = 0
    for _ in unfold(st.defs.defs["pair"], (u, v), st):
        hits += 1
        assert deref(u) is deref(v)
    assert hits == 1


def test_unfold_filters_clauses_by_arity():
    st = state_from("p a.\np a b.")
    hit = list(unfold(st.defs.defs["p"], (Const("a"),), st))
    assert len(hit) == 1
    hit2 = list(unfold(st.defs.defs["p"], (Const("a"), Const("b")), st))
    assert len(hit2) == 1


def test_unfold_left_mode_instantiates_eigenvariables():
    st = state_from("p a.")
    e = st.fresh_eigen("x")
    assert list(unfold(st.defs.defs["p"], (e,), st)) == []
    got = []
    for _ in unfold(st.defs.defs["p"], (e,), st, left=True):
        got.append(deref(e))
    assert len(got) == 1 and struct_eq(got[0], Const("a"))


def test_clause_body_sees_head_bindings():
    st = state_from("q X (f X) := r X.")
    y = st.fresh_logic("Y")
    z = st.fresh_logic("Z")
    st.defs.ensure("r")
    hits = 0
    for body, env, _ in unfold(st.defs.defs["q"], (y, z), st):
        hits += 1
        body = replace_clause_vars_formula(body[1], env)
        assert isinstance(body, Atom) and body.pred == "r"
        assert deref(body.args[0]) is deref(y)
        bound = deref(z)
        assert bound.head.name == "f" and deref(bound.args[0]) is deref(y)
    assert hits == 1
    assert deref(y) is y and deref(z) is z


def test_unfold_yields_the_stored_body_uncopied():
    # However large the body, unfolding builds nothing of it: the prover
    # closes each atom's arguments when it dispatches the atom.
    conjuncts = " /\\ ".join(["q X"] * 200)
    st = state_from(f"big X := {conjuncts}.\nq a.")
    x = st.fresh_logic("X")
    (body, env, last), = unfold(st.defs.defs["big"], (x,), st)
    assert body is st.defs.defs["big"].clauses[0].code
    assert env == {"X": x} and last


# ---------------------------------------------------------------------------
# First-argument indexing
# ---------------------------------------------------------------------------

def _every_clause(defn, args, st, left=False):
    """Reference unfold: rename and head-unify every clause, no index."""
    fresh = st.fresh_eigen if left else st.fresh_logic
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
            yield logic.compile_goal(clause.body, st.defs.defs)[1], env, False
        st.undo_to(mark)


# Nested constructor patterns, some repeating a clause variable inside one
# argument, across the two or at different depths, with nested and sibling
# applications, and one holding a λ.
_NESTED = ["X::L", "X::X::L", "s (s X)", "f (g X) X", "f X (g Y)",
           "f (x\\ X)", "f (g (h X)) (g X)", "c (X::Y::L) (s (s X))"]
# First head arguments: constants, applications (one a redex, one holding a
# λ, one holding a redex without a normal form), clause variables, a
# flexible head, λs and the nested patterns.
_HEADS = ["a", "b", "c", "f a", "f X", "g X b", "f (x\\ x)", "(x\\ f x) a",
          "g ((x\\ x x) (x\\ x x)) a", "X", "Y", "X a", "x\\ f x",
          "x\\ a"] + _NESTED
_SECONDS = ["a", "b", "X", "Y", "f Y", "f X", "a::nil", "X::Y"] + _NESTED
_BODIES = ["", " := q X", " := q Y", " := X = Y", " := q a"]
_QUERY_FIRSTS = ["a", "b", "d", "f", "f a", "f b", "g a b", "x\\ f x",
                 "(x\\ f x) a", "a::nil"]


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
    # Level bounds and the normal flag: first occurrences meeting a list
    # with a variable tail, a λ, a ∇-index, a flexible application and a
    # redex; later occurrences meeting inert lists, variables at lower or
    # higher levels than their partner (pruning), and the variable itself
    # (occurs); write mode for X::X::L and f (g X) X with X bound or not.
    yield "exists B. p a (a::B)"
    yield "exists B Y. p (a::B) Y"
    yield "exists B. p (a::B) (a::nil)"
    yield "exists B. p (a::nil) (a::B)"
    yield "exists B C. p (a::B) (C::nil)"
    yield "exists Y. p a (x\\ f x)"
    yield "exists Y. p (x\\ x) (x\\ x)"
    yield "nabla n. exists Y. p (f n) Y"
    yield "nabla n. exists Y. p n (s (s n))"
    yield "exists Y. nabla n. p Y (f n)"
    yield "exists Y. nabla n. p (f n) Y"
    yield "exists Y. nabla n. p (n::Y) Y"
    yield "exists F Y. p (F a) Y"
    yield "nabla n. exists F Y. p (f (F n)) Y"
    yield "exists Z. p Z (f Z)"
    yield "exists Z. p (f Z) Z"
    yield "exists Z. p (Z::Z) Z"
    yield "exists Z. forall x. p Z x"
    yield "exists Z. forall x. p x Z"
    yield "exists Z. forall x. exists Y. p (f Y) Z"
    yield "forall x. exists Z. exists Y. p Z (f Y)"
    yield "exists Z Y. p Z Y /\\ Z = Y"
    yield "exists M. p (a::a::M) M"
    yield "exists M. p (b::a::M) (a::nil)"
    yield "exists X M. p (X::X::M) (f (g X) X)"
    yield "exists X M. X = a /\\ p (X::X::M) (f (g X) X)"
    yield "exists Z. forall x. p Z (x::x::nil)"
    yield "exists Z. p (s (s Z)) (s Z)"
    yield "forall x. exists Z. p (x::Z) (f (g Z) x) => false"
    # The nested and sibling patterns read field by field to the deepest
    # level, failing there or in the sibling, and met by variables below.
    yield "exists Y. p (f (g (h a)) (g a)) Y"
    yield "exists Y. p (f (g (h a)) (g b)) (g Y)"
    yield "exists Z Y. p (f (g Z) (g a)) Y"
    yield "exists Z Y. p (f (g (h Z)) Z) (c Y (s Z))"
    yield "exists Y. p (c (a::b::nil) (s (s a))) Y"
    yield "exists Z Y. p (c (a::Z) (s (s b))) (Z::Y)"
    yield "exists Z Y. p (c Z (s Z)) Y"
    yield "forall x. p (f (g (h x)) (g x)) (c nil (s (s x))) => false"
    yield "forall x. exists Y. p (c (x::Y) (s (s x))) (f (g Y) x)"


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
    # The indexed session takes p's clauses one at a time, a query after
    # each, so its index grows between unfolds.
    text = "".join(f"q ({t}).\n" for t in q_facts)
    indexed = state_from(text, max_steps=5000, norm_budget=500)
    indexed.defs.ensure("q")
    queries = list(_query_texts())
    for i, (h, s, b) in enumerate(clauses):
        _add(indexed, f"p ({h}) ({s}){b}.")
        _outcome(indexed, queries[i * 13 % len(queries)])
    text += "".join(f"p ({h}) ({s}){b}.\n" for h, s, b in clauses)
    reference = state_from(text, max_steps=5000, norm_budget=500)
    reference.defs.ensure("q")
    for query in queries:
        want_unfold = engine.unfold
        engine.unfold = _every_clause
        try:
            want = _outcome(reference, query)
        finally:
            engine.unfold = want_unfold
        assert _outcome(indexed, query) == want, (text, query)


_ARITY_HEADS = ["a", "b", "z", "(s a)", "(s X)", "(X::L)", "(f X Y)", "X",
                "Y"]


def _call_arg(name, st):
    if name == "V":
        return st.fresh_logic("V")
    if name.startswith("s "):
        return App(Const("s"), (Const(name[2:]),))
    return Const(name)


def _trace(st, call):
    """The bodies and last flags unfold yields for p on call's arguments."""
    args = tuple(_call_arg(n, st) for n in call)
    return [(print_formula(body[1]), last)
            for body, _, last in unfold(st.defs.ensure("p"), args, st)]


def _add(st, text):
    """Give st the one clause text holds."""
    c = parse_file(text, "<test>")[0]
    st.defs.add_clause(c.pred, c.head_args, c.body, c.var_names, c.line)


@settings(max_examples=200, deadline=None)
@given(
    hs.lists(hs.lists(hs.sampled_from(_ARITY_HEADS), max_size=3),
             min_size=1, max_size=10),
    hs.lists(hs.sampled_from(["a", "b", "z", "c", "s a", "s z", "V"]),
             max_size=3),
)
def test_unfold_meets_exactly_the_clauses_of_the_calls_arity(heads, call):
    # Mixed arities, keyed and open clauses: unfold yields the clauses,
    # order and last flags it yields from a definition holding only the
    # clauses of the call's arity.
    text = "".join(f"p {' '.join(h)} := q c{i}.\n"
                   for i, h in enumerate(heads))
    mixed = state_from(text)
    alone = state_from("".join(
        line + "\n" for line, h in zip(text.splitlines(), heads)
        if len(h) == len(call)) + "q c.\n")

    assert _trace(mixed, call) == _trace(alone, call), text


# p's clauses in arrival order, two arities: keyed by a constant and by a
# structure's head (one that the sieve reads below), open ones before and
# after keyed ones, and c, a key first seen after calls on it.
_ARRIVALS = ["a", "(s (s X))", "X b", "X", "a Y", "c", "(X::L)", "(f X Y) b",
             "c X", "(s z)", "Y", "X Y", "c", "(s a) a"]
_CALLS = [["a"], ["b"], ["c"], ["z"], ["s a"], ["s z"], ["V"], ["a", "b"],
          ["c", "V"], ["s a", "a"], ["V", "b"], ["z", "z"]]


def test_clauses_join_the_index_between_unfolds(monkeypatch):
    # After each arrival, every call meets the candidates, in the order and
    # with the last flags, of a definition that loaded the same clauses
    # before any unfold, and each clause gets one matcher, however many
    # unfolds its definition saw before and after it arrived.
    made = []
    real_matcher = logic._matcher

    def counted_matcher(clause):
        made.append(clause)
        return real_matcher(clause)

    monkeypatch.setattr(logic, "_matcher", counted_matcher)
    growing = State()
    lines = []
    for i, head in enumerate(_ARRIVALS):
        lines.append(f"p {head} := q c{i}.\n")
        _add(growing, lines[-1])
        at_once = state_from("".join(lines))
        for call in _CALLS:
            assert _trace(growing, call) == _trace(at_once, call), (i, call)
    clauses = growing.defs.defs["p"].clauses
    assert [sum(c is m for m in made) for c in clauses] == [1] * len(clauses)


def test_one_goal_follows_each_defset_it_is_solved_under():
    # The goal, and a clause body two DefSets share, run under the
    # Definitions of the DefSet that runs them: q is level 0 in the first
    # and level 1 in the second, so nothing may carry one's over.
    goal = parse_formula("exists X. p X")
    shared = parse_file("p X := q X.\n", "<shared>")[0]
    states = []
    for fact in ("q a.\n", "q b := forall x. x = x.\n"):
        st = state_from(fact)
        st.defs.add_clause(shared.pred, shared.head_args, shared.body,
                           shared.var_names)
        states.append(st)
    for st, want in [*zip(states, "ab"), *zip(states, "ab")]:
        r = engine.solve(goal, st)
        assert [a.text() for a in r.answers] == [f"X = {want}"], r.error


_FIRST_FILE = """
edge a b.
edge b c.
path X Y := edge X Y.
path X Y := edge X Z /\\ path Z Y.
r a.
q X := r X.
top X := exists Y. q Y /\\ path X Y.
"""
# A clause for edge, dispatched already; a level-1 clause for r, q's
# callee; a table for path, dispatched already.
_SECOND_FILE = """
edge c a.
r b := forall z. z = z.
#table inductive path.
"""
_LATER_QUERIES = ["path c a", "path a d", "exists Y. path c Y", "q b",
                  "exists X. q X", "top a", "top d", "exists X. top X"]


def test_compiled_bodies_follow_definitions_changed_after_queries(tmp_path):
    # Every later query answers as in a session that loaded both files
    # first: same verdicts, answers and steps.
    from nablacheck.cli import load_file

    first, second = tmp_path / "first.def", tmp_path / "second.def"
    first.write_text(_FIRST_FILE)
    second.write_text(_SECOND_FILE)
    out = io.StringIO()

    def outcome(st, query):
        r = run(st, query, max_answers=5)
        return r.status, [a.text() for a in r.answers], r.steps

    session = State()
    assert load_file(str(first), session, out) == 0
    for query in ("path a c", "exists Y. path a Y", "q a", "top a"):
        assert not run(session, query).inconclusive, query
    assert load_file(str(second), session, out) == 0
    fresh = State()
    for path in (first, second):
        assert load_file(str(path), fresh, out) == 0
    for query in _LATER_QUERIES:
        assert outcome(session, query) == outcome(fresh, query), query
    assert outcome(fresh, "path a d")[0] == "disproved"
    assert outcome(fresh, "q b")[0] == "proved"


def test_a_clause_added_after_a_query_joins_the_index():
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
    # without calling unify: each clause's matcher is wrapped as it is made.
    tried = [0]
    real_matcher = logic._matcher

    def counted_matcher(clause):
        match = real_matcher(clause)

        def counted(*args):
            tried[0] += 1
            return match(*args)
        return counted

    monkeypatch.setattr(logic, "_matcher", counted_matcher)
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
    s = st.fresh_logic("S")
    c = st.fresh_logic("C")
    one, zero = Const("1"), Const("0")
    before = st.next_id
    bodies = 0
    adder = st.defs.defs["full_adder"]
    for body, env, _ in unfold(adder, (one, zero, one, s, c), st):
        bodies += 1
        assert st.next_id == before
        todo, terms = [replace_clause_vars_formula(body[1], env)], []
        while todo:  # the atoms' arguments; the body holds ∃, ∧ and atoms
            g = todo.pop()
            if type(g) is Atom:
                terms += g.args
            else:
                todo += (g.body,) if type(g) is Exists else (g.left, g.right)
        assert any(t is c for t in terms) and any(t is one for t in terms)
    assert bodies == 1
    for body, _, _ in unfold(st.defs.defs["tri"], (one, c), st):
        bodies += 1
        assert st.next_id == before + 1
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
    # A rigid head that is no constant fails a constructor pattern.
    assert run(st, "forall e. memb a (e a)").disproved
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


def test_head_unifications_go_through_the_modules_unify(monkeypatch):
    # A matcher looks unify up in logic's globals when it calls it, so a
    # wrapper installed after the matchers were built sees every call, and
    # the counts of none above cannot pass for want of a wrapper.
    st = state_from(LISTS)
    query = "exists A B. append A (b::B) (a::b::c::nil)"
    assert run(st, query).proved
    calls = _count_head_unify(monkeypatch)
    r = run(st, query)
    assert [a.text() for a in r.answers] == ["A = a::nil, B = c::nil"]
    assert calls[0] == 4


def test_a_step_after_a_head_unification_unifies_too(monkeypatch):
    # Once a step has left its pattern to unify, every clause variable has
    # a fresh variable, so a later first occurrence is unified with its
    # own, as renaming the clause and unifying each argument would do.
    calls = _count_head_unify(monkeypatch)
    st = state_from("p (x\\ X) Y.\n")
    assert run(st, "p (x\\ a) b").proved
    assert calls[0] == 2


def test_write_mode_builds_at_the_variables_levels():
    st = state_from(LISTS)
    # Y is introduced before x, so no instance of Y may mention x.
    assert run(st, "exists Y. forall x. append Y nil (x::nil)").disproved
    assert run(st, "exists Y. nabla x. append Y nil (x::nil)").disproved
    assert run(st, "forall x. exists Y. append Y nil (x::nil)").proved
    assert run(st, "nabla x. exists Y. append Y nil (x::nil)").proved


def test_first_occurrence_takes_an_argument_only_within_the_nabla_depth():
    # A fresh variable made at ∇ depth 1 cannot see #1, so unify fails
    # there; at depth 2 the argument itself becomes the value.
    st = state_from("p X.\n")
    arg = App(Const("f"), (NablaIndex(1),))
    st.nabla_depth = 1
    assert list(unfold(st.defs.defs["p"], (arg,), st)) == []
    st.nabla_depth = 2
    [(_, env, _)] = unfold(st.defs.defs["p"], (arg,), st)
    assert env["X"] is arg


def test_write_mode_builds_later_occurrences_without_unify(monkeypatch):
    calls = _count_head_unify(monkeypatch)
    st = state_from(LISTS + "dup X (X::X::L).\nsame X X.\n")
    # A later occurrence in write mode: X::X::L built around X's value.
    r = run(st, "exists V. dup (f a) V")
    assert [a.text() for a in r.answers] == ["V = f a::f a::?0"]
    r = run(st, "exists B V. dup (a::B) V")
    assert [a.text() for a in r.answers] == ["B = ?0, V = (a::?0)::(a::?0)::?1"]
    assert calls[0] == 0
    # V's value is V itself: not built, and unify's occurs check fails it.
    assert run(st, "exists V. dup V V").disproved
    assert calls[0] == 1
    # A later occurrence where neither side is inert goes to unify: the
    # variable itself (occurs), a name it cannot see, a variable tail.
    assert run(st, "exists Z. same Z (f Z)").disproved
    assert run(st, "exists Z. forall x. same Z (f x)").disproved
    assert run(st, "exists B. same (a::B) (a::b::nil)").proved
    assert calls[0] == 4


def test_a_first_occurrence_takes_a_binding_past_the_pattern_check():
    # X := H e is a pattern binding; once e := a, f X reaches H a, which
    # is not a pattern.  The first occurrence of Y takes f X as it is,
    # without a walk, so the goal proves where renaming the clause and
    # unifying ends inconclusive with NonPatternError (nodes.py).  q
    # holds of every term, so the proof is sound.
    st = state_from("q Y.\n")
    r = run(st, "exists H. forall e. exists X. X = H e /\\ (e = a => q (f X))")
    assert [a.text() for a in r.answers] == ["H = ?0"]
    assert r.proved


def test_first_argument_is_normalized_once_per_unfold(monkeypatch):
    # One timeline of unfold starts and normalizations; each unfold is
    # charged the normalizations of its own first argument made between
    # its start and the next unfold's.  A normal first argument (a list
    # with a variable tail) is never normalized; one holding a redex is
    # normalized by the unfold that meets it, once, and the tails it
    # passes on are normal.
    events = []  # ("unfold", dereferenced first argument) or ("norm", term)

    real_unfold = engine.unfold

    def unfold_len(defn, args, st, left=False):
        if defn.pred == "len":
            events.append(("unfold", deref(args[0])))
        return real_unfold(defn, args, st, left)

    def counting(real):
        def normalize(t, budget=None):
            events.append(("norm", deref(t)))
            return real(t, budget)
        return normalize

    monkeypatch.setattr(engine, "unfold", unfold_len)
    monkeypatch.setattr(logic, "normalize", counting(logic.normalize))
    monkeypatch.setattr(unify_mod, "normalize", counting(unify_mod.normalize))
    st = state_from(LISTS)

    def counts(query):
        del events[:]
        r = run(st, query, max_answers=3)
        assert [a.text() for a in r.answers] == [
            "N = s (s z), T = nil",
            "N = s (s (s z)), T = ?0::nil",
            "N = s (s (s (s z))), T = ?0::?1::nil",
        ]
        starts = [i for i, (kind, _) in enumerate(events) if kind == "unfold"]
        assert len(starts) >= 5
        return [
            sum(kind == "norm" and t is events[i][1]
                for kind, t in events[i:j])
            for i, j in zip(starts, starts[1:] + [len(events)])
        ]

    normal = counts("exists N T. len (a::b::T) N")
    assert normal == [0] * len(normal)
    redex = counts("exists N T. len ((x\\ x) a::b::T) N")
    assert redex == [1] + [0] * (len(redex) - 1)


def _walk_size(t):
    """The nodes a normalizing walk of t visits: through bindings, and
    stopping at inert nodes."""
    n = 0
    todo = [t]
    while todo:
        u = deref(todo.pop())
        n += 1
        if type(u) is Lam:
            todo.append(u.body)
        elif type(u) is App and not u.inert:
            todo.append(u.head)
            todo.extend(u.args)
    return n


@pytest.mark.parametrize("query, sizes", [
    # A list with a variable tail, bound at the end.
    ("exists N T. len ({}T) N /\\ T = nil", (100, 200, 400)),
    # A term that grows by one node at each step.
    ("exists X Y. build {} X Y", (100, 200, 400)),
])
def test_terms_with_variables_cost_work_linear_in_their_size(
        monkeypatch, query, sizes):
    # Node visits of normalization and of the unifier's abstraction walk,
    # and head unifications: each unfold normalized the whole list and
    # unify copied it into a binding, which made these grow as n squared.
    work = {"nf": 0, "abstract": 0, "head unify": 0}
    real_nf, real_abstract = terms_mod._nf, unify_mod._abstract
    real_unify = logic.unify

    def nf(t, fuel, *rest):
        work["nf"] += _walk_size(t)
        return real_nf(t, fuel, *rest)

    def abstract(u, *rest):
        work["abstract"] += _walk_size(u)
        return real_abstract(u, *rest)

    def head_unify(*args, **kwargs):
        work["head unify"] += 1
        return real_unify(*args, **kwargs)

    monkeypatch.setattr(terms_mod, "_nf", nf)
    monkeypatch.setattr(unify_mod, "_abstract", abstract)
    monkeypatch.setattr(logic, "unify", head_unify)
    st = state_from(LISTS + "build z X X.\nbuild (s N) X Y := "
                    "build N (g X b) Y.\n")
    counts = []
    for n in sizes:
        arg = ("a::" * n if "len" in query
               else "(s " * n + "z" + ")" * n)
        for k in work:
            work[k] = 0
        r = run(st, query.format(arg), max_answers=1)
        assert r.proved, r.error
        counts.append(dict(work))
    for small, large in zip(counts, counts[1:]):
        for k in work:
            assert large[k] <= 2.2 * small[k] + 10, (k, counts)
