"""Concrete syntax: lexing, precedence, directives, pretty-printing."""

import random

import pytest
from hypothesis import given, settings, strategies as hs

from nablacheck import parser
from nablacheck.errors import ParseError
from nablacheck.logic import And, Atom, Eq, Exists, Forall, Imp, Nabla, Or, Top
from nablacheck.nodes import App, Bound, ClauseVar, Const, Lam
from nablacheck.parser import (
    MAX_NESTING,
    AssertDirective,
    ClauseItem,
    ClearTablesDirective,
    IncludeDirective,
    LevelDirective,
    ShowTableDirective,
    TableDirective,
    parse_file,
    parse_formula,
    parse_interaction,
    parse_query,
    parse_term,
    print_formula,
    print_term,
)
from nablacheck.terms import struct_eq

from conftest import run_child


def formula_eq(f, g):
    """Structural formula equality ignoring binder name hints."""
    if type(f) is not type(g):
        return False
    t = type(f)
    if t is Top:
        return True
    if t is Atom:
        return f.pred == g.pred and len(f.args) == len(g.args) and all(
            struct_eq(x, y) for x, y in zip(f.args, g.args)
        )
    if t is Eq:
        return struct_eq(f.lhs, g.lhs) and struct_eq(f.rhs, g.rhs)
    if t in (And, Or, Imp):
        return formula_eq(f.left, g.left) and formula_eq(f.right, g.right)
    return formula_eq(f.body, g.body)  # binders


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

def test_application_and_cons():
    t = parse_term("f a (g b) c")
    assert struct_eq(
        t,
        App(Const("f"), (Const("a"), App(Const("g"), (Const("b"),)), Const("c"))),
    )
    t = parse_term("a::b::nil")
    cons = Const("::")
    assert struct_eq(
        t, App(cons, (Const("a"), App(cons, (Const("b"), Const("nil")))))
    )


def test_lambda_binds_to_the_right():
    t = parse_term("x\\ y\\ f x y")
    assert struct_eq(t, Lam(Lam(App(Const("f"), (Bound(1), Bound(0))))))


def test_uppercase_names_become_clause_vars():
    t = parse_term("f X _acc")
    assert type(t.args[0]) is ClauseVar and t.args[0].name == "X"
    assert type(t.args[1]) is ClauseVar and t.args[1].name == "_acc"


def test_lambda_shadowing_resolves_to_innermost():
    t = parse_term("x\\ x\\ x")
    assert struct_eq(t, Lam(Lam(Bound(0))))


def test_integers_are_constants():
    t = parse_term("f 0 1 42")
    assert [a.name for a in t.args] == ["0", "1", "42"]


# ---------------------------------------------------------------------------
# Formulas and precedence
# ---------------------------------------------------------------------------

def test_connective_precedence_chain():
    f = parse_formula("p /\\ q \\/ r => s")
    assert type(f) is Imp
    assert type(f.left) is Or
    assert type(f.left.left) is And
    # parentheses around a formula and around terms inside it
    f = parse_formula("(" * 100 + "p /\\ (q a) = (q a)" + ")" * 100 + " /\\ r")
    assert type(f) is And and type(f.left) is And
    assert type(f.left.right) is Eq


def test_implication_associates_right():
    f = parse_formula("p => q => r")
    assert type(f) is Imp and type(f.right) is Imp and type(f.left) is Atom


def test_quantifier_scope_extends_right():
    f = parse_formula("forall x. p x /\\ q x")
    assert type(f) is Forall and type(f.body) is And


def test_multi_name_quantifier_nests():
    f = parse_formula("exists X Y. p X Y")
    assert type(f) is Exists and type(f.body) is Exists
    atom = f.body.body
    assert struct_eq(atom.args[0], Bound(1)) and struct_eq(atom.args[1], Bound(0))


def test_equality_binds_tighter_than_implication():
    f = parse_formula("(x\\ x) = (x\\ y) => false")
    assert type(f) is Imp and type(f.left) is Eq
    assert type(f.right) is Atom and f.right.pred == "false"


def test_nabla_and_lambda_interplay():
    f = parse_formula("nabla x. (y\\ y) x = x")
    assert type(f) is Nabla and type(f.body) is Eq


def test_true_keyword():
    assert type(parse_formula("true")) is Top


def test_query_variables_close_in_first_occurrence_order():
    f = parse_query("memb X (a::Y::nil) /\\ p Y X")
    assert type(f) is Exists and f.name == "X"
    assert type(f.body) is Exists and f.body.name == "Y"
    atom = f.body.body.left
    assert struct_eq(atom.args[0], Bound(1))  # X is the outer binder


def test_query_without_variables_stays_bare():
    f = parse_query("p a")
    assert type(f) is Atom


# ---------------------------------------------------------------------------
# Items and directives
# ---------------------------------------------------------------------------

def test_clause_item_fields():
    (item,) = parse_file("pv L B := memb B L.")
    assert type(item) is ClauseItem
    assert item.pred == "pv"
    assert item.var_names == ("L", "B")
    assert len(item.head_args) == 2
    assert type(item.body) is Atom and item.body.pred == "memb"


def test_fact_gets_top_body():
    (item,) = parse_file("edge a b.")
    assert type(item.body) is Top


def test_directive_forms():
    items = parse_file(
        """
        #level win 1.
        #table inductive reach.
        #table coinductive sim.
        #assert p a.
        #assert_not p b.
        #include "lib/base.def".
        #clear_tables.
        #show_table reach.
        """
    )
    kinds = [type(i) for i in items]
    assert kinds == [
        LevelDirective,
        TableDirective,
        TableDirective,
        AssertDirective,
        AssertDirective,
        IncludeDirective,
        ClearTablesDirective,
        ShowTableDirective,
    ]
    assert items[0].pred == "win" and items[0].level == 1
    assert items[1].mode == "inductive" and items[2].mode == "coinductive"
    assert items[3].positive and not items[4].positive
    assert items[5].path == "lib/base.def"
    assert items[7].pred == "reach"


def test_assert_directive_closes_query_variables():
    (item,) = parse_file("#assert memb X (a::nil).")
    assert type(item.formula) is Exists


def test_comments_and_whitespace():
    items = parse_file("% a comment\np a. % trailing\n\n% another\nq b.\n")
    assert [i.pred for i in items] == ["p", "q"]


def test_interaction_accepts_directive_or_query():
    d = parse_interaction("#clear_tables.")
    assert type(d) is ClearTablesDirective
    f = parse_interaction("exists X. X = a.")
    assert type(f) is Exists


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        parse_file("p a.\nq b", filename="bad.def")
    assert "bad.def:2" in str(exc.value)
    with pytest.raises(ParseError):
        parse_formula("forall. p")
    with pytest.raises(ParseError):
        parse_term("f (a")
    with pytest.raises(ParseError):
        parse_file("p := .")


def test_nesting_past_the_bound_is_a_parse_error():
    k = MAX_NESTING - 1  # parse_term's own level plus k parentheses
    assert parse_term("(s " * k + "z" + ")" * k).inert
    with pytest.raises(ParseError, match="nested more than"):
        parse_term("(s " * (k + 1) + "z" + ")" * (k + 1))
    with pytest.raises(ParseError, match="nested more than"):
        parse_term("x\\ " * (k + 1) + "x")
    with pytest.raises(ParseError, match="nested more than"):
        parse_formula("p => " * (k + 1) + "p")
    # list length is not nesting
    lst = parse_term("a::" * 3 * MAX_NESTING + "nil")
    n = 0
    while type(lst) is App:
        lst = lst.args[1]
        n += 1
    assert n == 3 * MAX_NESTING and lst.name == "nil"


DEEP_SCRIPT = """
from nablacheck.errors import ParseError
from nablacheck.logic import Exists
from nablacheck.nodes import App, Const
from nablacheck.parser import parse_query, parse_term, print_term

n = 100_000
try:
    parse_term("(" * n + "z" + ")" * n)
except ParseError as e:
    assert "nested more than" in str(e), e
else:
    raise AssertionError("no ParseError")
goal = parse_query("len (" + "a::" * 20_000 + "nil) N")
assert type(goal) is Exists and goal.name == "N"
num = Const("z")
for _ in range(20_000):
    num = App(Const("s"), (num,))
assert print_term(num) == "s (" * 19_999 + "s z" + ")" * 19_999
lst = Const("nil")
for _ in range(40_000):
    lst = App(Const("::"), (Const("a"), lst))
assert print_term(lst) == "a::" * 40_000 + "nil"
print("ok")
"""


def test_deep_input_parses_and_prints_under_the_default_recursion_limit():
    # A child process with no State, so the interpreter's default limit
    # holds: parsing, closing query variables and printing do not recurse
    # once per level.
    proc = run_child(["-c", DEEP_SCRIPT])
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr[-2000:]


def test_unknown_table_mode_rejected_at_registration():
    from nablacheck.errors import NablaCheckError
    from nablacheck.logic import DefSet

    (item,) = parse_file("#table sideways p.")
    assert item.mode == "sideways"  # the grammar is permissive here
    ds = DefSet()
    with pytest.raises(NablaCheckError):
        ds.set_table(item.pred, item.mode)


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------

GOLDEN = [
    "p",
    "p a (f b) c",
    "memb c (a::b::nil)",
    "a::b::nil = a::b::nil",
    "p /\\ q \\/ r => s",
    "(p \\/ q) /\\ r",
    "p => q => r",
    "(p => q) => r",
    "forall y. (x\\ x) = (x\\ y) => false",
    "nabla x. exists Y. Y = x",
    "forall h. nabla x. p x (h x)",
    "pv nil (all (x\\ imp (p x a) (p x a)))",
    "true",
    "p (x\\ x) \\/ q",
]


@pytest.mark.parametrize("src", GOLDEN)
def test_print_parse_golden_fixed_point(src):
    f = parse_formula(src)
    printed = print_formula(f)
    assert printed == src
    assert formula_eq(parse_formula(printed), f)


def test_printer_invents_readable_binder_names():
    t = Lam(App(Const("f"), (Bound(0),)))
    s = print_term(t)
    assert "\\" in s
    assert formula_eq(
        parse_formula(f"a = ({s})"), parse_formula("a = (x\\ f x)")
    )


def test_printer_avoids_captured_hints():
    # two binders that both want to print as x
    t = Lam(Lam(App(Const("f"), (Bound(1), Bound(0)))), hint="x")
    t.body.hint = "x"
    s = print_term(t)
    back = parse_term(s)
    assert struct_eq(back, t)


# ---------------------------------------------------------------------------
# Randomized: printing then parsing is the identity
# ---------------------------------------------------------------------------

def _rand_term(rng, depth, bound):
    pick = rng.random()
    if depth <= 0 or pick < 0.35:
        pool = ["a", "b", "c"] + list(bound)
        return rng.choice(pool)
    if pick < 0.55:
        v = f"w{rng.randrange(100)}"
        return f"({v}\\ {_rand_term(rng, depth - 1, bound + (v,))})"
    head = rng.choice(["f", "g"] + list(bound))
    args = " ".join(
        _rand_term(rng, 0, bound) if rng.random() < 0.7
        else _rand_term(rng, depth - 1, bound)
        for _ in range(rng.randrange(1, 3))
    )
    return f"({head} {args})"


def _rand_formula(rng, depth, bound):
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        if rng.random() < 0.5:
            return f"p {_rand_term(rng, 1, bound)}"
        return f"{_rand_term(rng, 1, bound)} = {_rand_term(rng, 1, bound)}"
    if pick < 0.45:
        v = f"x{rng.randrange(100)}"
        q = rng.choice(["forall", "exists", "nabla"])
        return f"{q} {v}. {_rand_formula(rng, depth - 1, bound + (v,))}"
    op = rng.choice(["/\\", "\\/", "=>"])
    lhs = _rand_formula(rng, depth - 1, bound)
    rhs = _rand_formula(rng, depth - 1, bound)
    return f"({lhs}) {op} ({rhs})"


@settings(max_examples=300, deadline=None)
@given(hs.integers(0, 10**9))
def test_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    src = _rand_formula(rng, 3, ())
    f = parse_formula(src)
    printed = print_formula(f)
    again = parse_formula(printed)
    assert formula_eq(f, again)
    assert print_formula(again) == printed


def test_nested_binders_sharing_a_hint_are_named_in_linear_time(monkeypatch):
    # Counts the names tried against the avoid set, not time, so the bound
    # holds on any machine: a search from suffix 0 at every binder would
    # make each doubling cost four times as much.
    tries = [0]

    class Counting(set):
        def __contains__(self, name):
            tries[0] += 1
            return set.__contains__(self, name)

    real = parser._const_names
    monkeypatch.setattr(parser, "_const_names",
                        lambda roots: Counting(real(roots)))
    counts = []
    for n in (1000, 2000, 4000):
        t = parse_term("x\\ " * n + "a")
        tries[0] = 0
        printed = print_term(t)
        assert printed.endswith(f"x{n - 2}\\ x{n - 1}\\ a")
        counts.append(tries[0])
    assert counts[1] <= 2.1 * counts[0]
    assert counts[2] <= 2.1 * counts[1]


@pytest.mark.parametrize("src, want", [
    # Siblings reuse a name once its scope has closed.
    ("f (x\\ x) (x\\ x\\ x) (x\\ x)", "f (x\\ x) (x\\ x1\\ x1) (x\\ x)"),
    ("x\\ f (x\\ x\\ x) (x\\ x)", "x\\ f (x1\\ x2\\ x2) (x1\\ x1)"),
    # A hint with a digit, or a constant, takes a suffix another hint
    # would have used, and the next binder skips it.
    ("x1\\ x\\ x\\ f x x1", "x1\\ x\\ x2\\ f x2 x1"),
    ("x\\ x1\\ x\\ x1\\ g x x1", "x\\ x1\\ x2\\ x11\\ g x2 x11"),
    ("x\\ x\\ f x1 (y\\ x\\ x) (x\\ x)", "x\\ x2\\ f x1 (y\\ x3\\ x3) (x3\\ x3)"),
    ("x\\ y\\ x\\ y\\ x\\ g x y", "x\\ y\\ x1\\ y1\\ x2\\ g x2 y1"),
])
def test_binder_names_are_the_smallest_free_suffix(src, want):
    assert print_term(parse_term(src)) == want
