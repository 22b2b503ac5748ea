"""Concrete syntax: lexing, precedence, directives, pretty-printing."""

import gc
import random
import time

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

import oracles
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


def test_a_name_resolves_to_its_innermost_binder_across_quantifiers():
    # Shadowing inside one quantifier's names, a λ inside quantifiers, and
    # query variables, whose indices count every binder around them.
    f = parse_formula("forall x x. p x")
    assert struct_eq(f.body.body.args[0], Bound(0))
    f = parse_formula("forall x y. p (x\\ f x y) x")
    first, second = f.body.body.args
    assert struct_eq(first, Lam(App(Const("f"), (Bound(0), Bound(1)))))
    assert struct_eq(second, Bound(1))
    # exists X. exists Y. forall x. p (y\ x\ g x y X) x Y
    f = parse_query("forall x. p (y\\ x\\ g x y X) x Y")
    first, second, third = f.body.body.body.args
    assert struct_eq(first, Lam(Lam(App(Const("g"),
                                        (Bound(0), Bound(1), Bound(4))))))
    assert struct_eq(second, Bound(0)) and struct_eq(third, Bound(1))


def test_a_term_under_many_binders_reads_in_linear_time():
    # Each name is found in one lookup, in a table from names to the
    # places of their binders; a scan of the binders in scope made n =
    # 4,000 take 14 times as long as n = 1,000.
    def best(n):
        xs = [f"x{i}" for i in range(n)]
        text = ("exists X. X = (" + "".join(x + "\\ " for x in xs) + "f "
                + " ".join(xs) + ").")
        times = []
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(5):
                start = time.perf_counter()
                parse_query(text)
                times.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        return min(times)

    small, large = best(1000), best(4000)
    assert large < 8 * small, (small, large)


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


def test_the_end_of_input_is_reported_after_the_last_line():
    # eof stands after the last character: on a line of its own after a
    # trailing newline, and past a trailing comment.
    with pytest.raises(ParseError) as exc:
        parse_file("p a.\nq b\n")
    assert str(exc.value) == "3:1: expected '.', found ''"
    with pytest.raises(ParseError) as exc:
        parse_file("p a.\nq b % no dot\n% last")
    assert str(exc.value) == "3:7: expected '.', found ''"
    with pytest.raises(ParseError) as exc:
        parse_term("f (a %c")
    assert str(exc.value) == "1:8: expected ')', found ''"


# Pieces of input: every kind of token, whitespace and line breaks, blank
# lines, comments, strings, and characters no token starts with.
_PIECES = [
    "p", "memb", "x", "f", "a", "nil", "z", "s", "X", "Y", "_acc", "x'",
    "0", "12", "\u0663", "forall", "exists", "nabla", "true",
    "(", ")", "\\", ".", "=", ":=", "::", "=>", "/\\", "\\/",
    "#assert", "#assert_not", "#table", "#level", "#include", "#show_table",
    "#clear_tables", "#bogus", "inductive", '"lib.def"', '""', '"a % b"',
    "% a comment", "%", "\n", "\n\n", "\n  \n", " ", "\t", "\r\n",
    ":", "/", "#", "#A", '"x', "@", "\u00e9",
    "p a.\n", "memb X (X::L).\n", "q := forall x. p x => false.\n",
    "#assert exists X. memb X (a::nil).\n",
]


@settings(max_examples=500, deadline=None)
@given(hs.lists(hs.tuples(hs.sampled_from(_PIECES),
                          hs.sampled_from(["", " ", "\n"])), max_size=24))
def test_tokens_and_error_positions_agree_with_the_reference_lexer(pieces):
    # tests/oracles.py keeps the lexer that made a Token per match over the
    # whole text.  Token texts, kinds and lines must be its own, and every
    # ParseError, the lexer's or the parser's, must stand where the
    # reference puts the token it names.
    text = "".join(piece + sep for piece, sep in pieces)
    tokens, error = oracles.reference_tokens(text)
    blamed = []
    column = parser._column

    def recorded(text, texts, lines, i):
        blamed.append(i)
        return column(text, texts, lines, i)

    parser._column = recorded
    try:
        if error is not None:
            with pytest.raises(ParseError) as exc:
                parser.tokenize(text, "t.def")
            message, line, col = error
            assert str(exc.value) == f"t.def:{line}:{col}: {message}"
            return
        texts, kinds, lines = parser.tokenize(text, "t.def")
        assert list(zip(kinds, texts, lines)) == [t[:3] for t in tokens]
        for parse in (parse_file, parse_query, parse_term, parse_formula,
                      parse_interaction):
            blamed.clear()
            try:
                parse(text, "t.def")
            except ParseError as e:
                _, _, line, col = tokens[blamed[-1]]
                assert (e.line, e.column) == (line, col)
    finally:
        parser._column = column


@pytest.mark.parametrize("parse, text, where, message", [
    # true is a formula, never a term
    (parse_formula, "a = true", "1:5", "expected a term, found 'true'"),
    (parse_file, "p a.\nq (true).", "2:4", "expected a term, found 'true'"),
    # a connective or quantifier inside a term
    (parse_file, "p (a /\\ b).", "1:6", "expected a term, found '/\\\\'"),
    (parse_query, "X = (a = b)", "1:8", "expected a term, found '='"),
    (parse_term, "f (forall x. q)", "1:4", "expected a term, found 'forall'"),
    # a λ where a formula stands, reported at its bound name
    (parse_query, "a /\\ (x\\ b)", "1:7", "expected a formula"),
    (parse_file, "p := q =>\n (y\\ r).", "2:3", "expected a formula"),
    # a term whose head is not a constant where a formula stands
    (parse_query, "exists X. X a", "1:11", "expected a formula"),
    (parse_file, "p := X a.", "1:6", "expected a formula"),
    (parse_formula, "(x\\ c) a", "1:2", "expected a formula"),
    # a clause head that is not an atom, reported after the head
    (parse_file, "X a := true.", "1:5",
     "a clause head must be a predicate applied to terms"),
    (parse_file, "(x\\ p) a.", "1:9",
     "a clause head must be a predicate applied to terms"),
])
def test_sort_errors_carry_message_and_location(parse, text, where, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == f"{where}: {message}"


def test_a_sort_error_comes_before_a_later_syntax_error():
    # The reader checks an operand's sort when its operator takes it, so
    # the /\ inside the first argument is reported before the unclosed
    # parenthesis at the end.
    with pytest.raises(ParseError) as exc:
        parse_query("p (a /\\ b) (c")
    assert str(exc.value) == "1:6: expected a term, found '/\\\\'"


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
