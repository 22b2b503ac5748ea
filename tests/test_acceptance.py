"""The acceptance gate: eight checks the package must pass as a whole.

Each test here states an end-to-end guarantee: the flagship theorems prove
fast, the fresh-name quantifier obeys its algebraic laws on randomized
instances, unification agrees with a brute-force ground oracle, the tabled
relations agree with independent fixed-point computations, exported tables
check out as certificates, tabling actually changes the search complexity,
batch runs are bit-for-bit reproducible, and ill-posed problems surface as
errors instead of verdicts.
"""

import collections
import itertools
import random
import time

import pytest

from nablacheck.engine import State, solve
from nablacheck.errors import BudgetExceeded, NonPatternError
from nablacheck.nodes import App, Bound, Const, Lam, NablaIndex, Var
from nablacheck.parser import parse_query
from nablacheck.tabling import table_report
from nablacheck.terms import deref
from nablacheck.unify import FAILURE, undo_to, unify

from conftest import corpus_files, load_corpus, run, run_cli, state_from
from oracles import (
    _fresh,
    factors_through,
    free_vars,
    gfp_bisim,
    gfp_sim,
    ground_equal,
    ground_unifiers,
    sim_certificate_violations,
    table_rows,
    transitive_closure,
    win_certificate_violations,
    win_set,
)


def _peano(n):
    return "z" if n == 0 else f"(s {_peano(n - 1)})"


def _decode_peano(text):
    return text.count("s ") + text.count("s)")  # spelled-out numerals only


# ---------------------------------------------------------------------------
# 1. The flagship theorems prove within a second on default budgets
# ---------------------------------------------------------------------------

def test_criterion_1_flagship_theorems():
    st = State()
    goal = parse_query("forall y. ((x\\ x) = (x\\ y)) => false")
    t0 = time.perf_counter()
    r = solve(goal, st)
    dt = time.perf_counter() - t0
    assert r.proved, r.status
    assert dt < 1.0, dt

    st = load_corpus("meta_pv.def")
    goal = parse_query(
        "forall r s t. pv nil (all (x\\ imp (p x r) "
        "(all (y\\ imp (p y s) (p x t))))) => r = t"
    )
    t0 = time.perf_counter()
    r = solve(goal, st)
    dt = time.perf_counter() - t0
    assert r.proved, r.status
    assert dt < 1.0, dt


# ---------------------------------------------------------------------------
# 2. The fresh-name quantifier's equivalences, randomized
# ---------------------------------------------------------------------------

# closed formulas over one fresh name, used by the connective families
PROP = [
    lambda x: f"{x} = {x}",
    lambda x: f"{x} = a",
    lambda x: "a = a",
    lambda x: "a = b",
    lambda x: f"f {x} = f {x}",
    lambda x: f"f {x} = f a",
    lambda x: f"memb {x} (a::{x}::nil)",
    lambda x: f"memb {x} (a::b::nil)",
    lambda x: f"memb a ({x}::a::nil)",
]

# term templates over a fresh name and a second parameter
TPL = [
    lambda x, y: y,
    lambda x, y: x,
    lambda x, y: "a",
    lambda x, y: f"(f {x})",
    lambda x, y: f"(f {y})",
    lambda x, y: f"(f {x} {y})",
    lambda x, y: f"(f {y} {x})",
    lambda x, y: f"(g (f {y}))",
    lambda x, y: f"(f {x} {x})",
]


def _conn_instance(rng, op):
    a, b = rng.choice(PROP), rng.choice(PROP)
    lhs = f"nabla x. (({a('x')}) {op} ({b('x')}))"
    rhs = f"(nabla x. {a('x')}) {op} (nabla x. {b('x')})"
    return lhs, rhs


def _forall_instance(rng):
    t, s = rng.choice(TPL), rng.choice(TPL)
    lhs = f"nabla x. forall y. {t('x', 'y')} = {s('x', 'y')}"
    rhs = f"forall h. nabla x. {t('x', '(h x)')} = {s('x', '(h x)')}"
    return lhs, rhs


def _exists_instance(rng):
    t, s = rng.choice(TPL), rng.choice(TPL)
    lhs = f"nabla x. exists Y. {t('x', 'Y')} = {s('x', 'Y')}"
    rhs = f"exists H. nabla x. {t('x', '(H x)')} = {s('x', '(H x)')}"
    return lhs, rhs


def _eq_instance(rng):
    t, s = rng.choice(TPL), rng.choice(TPL)
    lhs = f"nabla x. {t('x', 'a')} = {s('x', 'a')}"
    rhs = f"(x\\ {t('x', 'a')}) = (x\\ {s('x', 'a')})"
    return lhs, rhs


FAMILIES = {
    "and": lambda rng: _conn_instance(rng, "/\\"),
    "or": lambda rng: _conn_instance(rng, "\\/"),
    "imp": lambda rng: _conn_instance(rng, "=>"),
    "forall": _forall_instance,
    "exists": _exists_instance,
    "eq": _eq_instance,
}

CORNERS = [
    ("and", "nabla x. (x = a /\\ x = x)",
     "(nabla x. x = a) /\\ (nabla x. x = x)"),
    ("or", "nabla x. (x = a \\/ x = x)",
     "(nabla x. x = a) \\/ (nabla x. x = x)"),
    ("imp", "nabla x. (x = a => false)",
     "(nabla x. x = a) => (nabla x. false)"),
    ("imp", "nabla x. (x = x => memb x (x::nil))",
     "(nabla x. x = x) => (nabla x. memb x (x::nil))"),
    ("forall", "nabla x. forall y. x = y",
     "forall h. nabla x. x = (h x)"),
    ("forall", "nabla x. forall y. y = y",
     "forall h. nabla x. (h x) = (h x)"),
    ("exists", "nabla x. exists Y. Y = x",
     "exists H. nabla x. (H x) = x"),
    ("exists", "nabla x. exists Y. f Y x = f x x",
     "exists H. nabla x. f (H x) x = f x x"),
    ("eq", "nabla x. x = a", "(x\\ x) = (x\\ a)"),
    ("eq", "nabla x. f x = f x", "(x\\ f x) = (x\\ f x)"),
]


def test_criterion_2_fresh_name_equivalences():
    st = state_from("memb X (X::L).\nmemb X (Y::L) := memb X L.\n")
    rng = random.Random(20260817)
    instances = list(CORNERS)
    for fam, make in sorted(FAMILIES.items()):
        for _ in range(35):
            lhs, rhs = make(rng)
            instances.append((fam, lhs, rhs))
    assert len(instances) >= 200

    discrepancies = []
    verdicts_seen = {fam: set() for fam in FAMILIES}
    for fam, lhs, rhs in instances:
        left = run(st, lhs)
        right = run(st, rhs)
        assert not left.inconclusive, (lhs, left.error)
        assert not right.inconclusive, (rhs, right.error)
        if left.proved != right.proved:
            discrepancies.append((fam, lhs, left.status, rhs, right.status))
        verdicts_seen[fam].add(left.proved)
    assert discrepancies == []
    for fam, seen in verdicts_seen.items():
        assert seen == {True, False}, f"family {fam} never varied: {seen}"


# ---------------------------------------------------------------------------
# 3. Unification against brute-force ground instantiation
# ---------------------------------------------------------------------------

def _unification_universe(st, x_var, y_var):
    """Every term of the declared grammar: leaves a, b, X, Y, #0; unary
    applications under heads a, b, X, Y; binary applications under a;
    abstractions; constructor depth at most three."""
    a, b, n0 = Const("a"), Const("b"), NablaIndex(0)
    leaves = [a, b, x_var, y_var, n0]
    unary = [App(h, (u,)) for h in (a, b, x_var, y_var) for u in leaves]
    binary = [App(a, (u, v)) for u in leaves for v in leaves]
    lams = [Lam(u) for u in leaves + [Bound(0)]]
    depth2 = unary + binary + lams
    depth3 = [App(h, (u,)) for h in (a, x_var) for u in depth2]
    depth3 += [
        Lam(App(h, (w,)))
        for h in (a, x_var, y_var)
        for w in (Bound(0), a, n0)
    ]
    return leaves + depth2 + depth3


def _arities(terms):
    """Each unbound variable in terms, bindings followed, mapped to the
    number of arguments it is applied to, or 0 where it stands alone."""
    out = {}
    todo = list(terms)
    while todo:
        t = deref(todo.pop())
        if type(t) is Lam:
            todo.append(t.body)
        elif type(t) is App:
            h = deref(t.head)
            if isinstance(h, Var):
                out[h.id] = len(t.args)
            else:
                todo.append(h)
            todo.extend(t.args)
        elif isinstance(t, Var):
            out.setdefault(t.id, 0)
    return out


def _oracle_verdict(st, t, s, variables, typed=False):
    """Unify t and s and check the outcome against every ground unifier
    over the variables' universes (oracles.universe_for): a failure must
    have none, and a success must make t and s equal and be more general
    than each of them.  typed: each variable's universe, the residuals'
    too, is that of the arity it is applied at.  "nonpattern", "failure"
    or "success"; the state is left as it was."""
    sigmas = list(ground_unifiers(t, s, variables,
                                  _arities((t, s)) if typed else None))
    mark = len(st.trail)
    try:
        r = unify(t, s, st)
    except NonPatternError:
        assert len(st.trail) == mark
        return "nonpattern"
    try:
        if r is FAILURE:
            assert sigmas == [], (repr(t), repr(s), sigmas[0])
            return "failure"
        residuals = {u for v in variables for u in free_vars(v)}
        opaque = {u.id: ("c", _fresh("k")) for u in residuals}
        assert ground_equal(t, s, opaque), (repr(t), repr(s))
        theta = [(v, v) for v in variables]
        arities = _arities((t, s)) if typed else None
        for sigma in sigmas:
            assert factors_through(theta, sigma, list(residuals), arities), (
                repr(t), repr(s), sigma,
            )
        return "success"
    finally:
        undo_to(st.trail, mark)


def test_criterion_3_unification_matches_ground_oracle():
    st = State()
    x_var = st.fresh_logic("X")
    y_var = st.fresh_logic("Y")
    st.nabla_depth = 1  # #0 exists but predates neither variable
    terms = _unification_universe(st, x_var, y_var)
    pairs = list(itertools.product(terms, repeat=2))

    t0 = time.perf_counter()
    verdicts = collections.Counter(
        _oracle_verdict(st, t, s, [x_var, y_var]) for t, s in pairs)
    elapsed = time.perf_counter() - t0

    assert sum(verdicts.values()) == len(pairs)
    assert verdicts["nonpattern"] and verdicts["failure"] and verdicts["success"]
    assert elapsed < 60.0, (elapsed, len(pairs))


def test_criterion_3_two_argument_flex_pairs_match_ground_oracle():
    # Two-argument patterns at ∇ depth 2, so that the flex-flex cases meet
    # arguments in different orders, shared or not: _same_var keeps only
    # the arguments both sides hold at the same position, and _flex_flex
    # the arguments both variables share or the other one sees (Z sees
    # #0).  Terms are paired with terms of their own type, and each
    # variable ranges over every closed normal term of the arity it is
    # applied at.
    st = State()
    x_var = st.fresh_logic("X")
    y_var = st.fresh_logic("Y")
    st.nabla_depth = 1
    z_var = st.fresh_logic("Z")
    st.nabla_depth = 2
    n0, n1, x = NablaIndex(0), NablaIndex(1), Bound(0)
    base = [
        App(x_var, (n0, n1)), App(x_var, (n1, n0)), App(y_var, (n0, n1)),
        App(y_var, (n1, n0)), App(x_var, (n0,)), App(y_var, (n1,)),
        App(x_var, (n0, n0)), App(z_var, (n1,)), n0, n1, Const("a"),
    ]
    lams = [Lam(App(x_var, (n1, x))), Lam(App(y_var, (x, n0))),
            Lam(App(y_var, (n1, x))), Lam(App(z_var, (x,)))]
    pairs = [*itertools.product(base, repeat=2),
             *itertools.product(lams, repeat=2)]

    t0 = time.perf_counter()
    verdicts = collections.Counter()
    for t, s in pairs:
        occurring = {u for w in (t, s) for u in free_vars(w)}
        variables = [v for v in (x_var, y_var, z_var) if v in occurring]
        verdicts[_oracle_verdict(st, t, s, variables, typed=True)] += 1
    elapsed = time.perf_counter() - t0

    assert verdicts["nonpattern"] and verdicts["failure"] and verdicts["success"]
    assert elapsed < 10.0, (elapsed, verdicts)


# ---------------------------------------------------------------------------
# 4. Tabled relations equal independent fixed points
# ---------------------------------------------------------------------------

REACH_DEF = """
reach X Y := edge X Z /\\ reach Z Y.
reach X Y := edge X Y.
#table inductive reach.
"""

WIN_DEF = """
win X := move X Y /\\ (forall Z. move Y Z => win Z).
#level win 1.
#table inductive win.
"""

SIM_DEF = """
sim P Q := forall A P1. step P A P1 => (exists Q1. step Q A Q1 /\\ sim P1 Q1).
#level sim 1.
#table coinductive sim.
bisim P Q :=
  (forall A P1. step P A P1 => (exists Q1. step Q A Q1 /\\ bisim P1 Q1)) /\\
  (forall A Q1. step Q A Q1 => (exists P1. step P A P1 /\\ bisim Q1 P1)).
#level bisim 1.
#table coinductive bisim.
"""


def _random_graph(rng, n_nodes=12, n_edges=18):
    nodes = [f"n{i}" for i in range(n_nodes)]
    edges = set()
    while len(edges) < n_edges:
        edges.add((rng.choice(nodes), rng.choice(nodes)))
    return nodes, edges


def _random_lts(rng, n_states=8, n_trans=14):
    states = [f"q{i}" for i in range(n_states)]
    trans = set()
    while len(trans) < n_trans:
        trans.add((rng.choice(states), rng.choice("ab"), rng.choice(states)))
    return states, sorted(trans)


GAME_MOVE_SIZES = (1, 2, 4)
GAME_TOP = 20


def _game_moves():
    positions = range(GAME_TOP + 1)
    return [
        (n, n - k) for n in positions for k in GAME_MOVE_SIZES if n - k >= 0
    ]


def test_criterion_4_reachability_equals_transitive_closure():
    rng = random.Random(41)
    nodes, edges = _random_graph(rng)
    text = "\n".join(f"edge {x} {y}." for x, y in sorted(edges))
    st = state_from(text + REACH_DEF)
    closure = transitive_closure(edges)
    for x, y in itertools.product(nodes, repeat=2):
        r = run(st, f"reach {x} {y}")
        assert not r.inconclusive
        assert r.proved == ((x, y) in closure), (x, y, r.status)


def test_criterion_4_win_equals_backward_induction():
    moves = _game_moves()
    winners = win_set(moves, range(GAME_TOP + 1))
    text = "\n".join(
        "move " + "(s " * k + "N" + ")" * k + " N." for k in GAME_MOVE_SIZES
    )
    st = state_from(text + WIN_DEF)
    for n in range(GAME_TOP + 1):
        r = run(st, f"win {_peano(n)}")
        assert not r.inconclusive
        assert r.proved == (n in winners), (n, r.status)


def test_criterion_4_sim_and_bisim_equal_greatest_fixpoints():
    rng = random.Random(43)
    states, trans = _random_lts(rng)
    text = "\n".join(f"step {p} {act} {q}." for p, act, q in trans)
    st = state_from(text + SIM_DEF)
    sim_oracle = gfp_sim(states, trans)
    bisim_oracle = gfp_bisim(states, trans)
    for p, q in itertools.product(states, repeat=2):
        r = run(st, f"sim {p} {q}")
        assert not r.inconclusive
        assert r.proved == ((p, q) in sim_oracle), ("sim", p, q, r.status)
        r = run(st, f"bisim {p} {q}")
        assert not r.inconclusive
        assert r.proved == ((p, q) in bisim_oracle), ("bisim", p, q, r.status)


# ---------------------------------------------------------------------------
# 5. Exported tables are independently checkable certificates
# ---------------------------------------------------------------------------

def test_criterion_5_sim_table_passes_the_closure_walker():
    rng = random.Random(43)
    states, trans = _random_lts(rng)
    text = "\n".join(f"step {p} {act} {q}." for p, act, q in trans)
    st = state_from(text + SIM_DEF)
    for p, q in itertools.product(states, repeat=2):
        run(st, f"sim {p} {q}")
    proved = set()
    for status, rest in table_rows(table_report(st, "sim")):
        _, p, q = rest.split()
        if status == "proved":
            proved.add((p, q))
    assert proved == gfp_sim(states, trans)
    assert sim_certificate_violations(proved, trans) == []

    st = load_corpus("ccs_sim.def")
    ccs_states = ["p", "q", "q1", "r", "t", "s0", "s1", "s2", "s3",
                  "u0", "u1", "u2", "u4", "u5"]
    for p, q in itertools.product(ccs_states, repeat=2):
        run(st, f"sim {p} {q}")
    proved = {
        tuple(rest.split()[1:])
        for status, rest in table_rows(table_report(st, "sim"))
        if status == "proved"
    }
    assert sim_certificate_violations(proved, [
        ("p", "a", "p"), ("q", "a", "q1"), ("q1", "a", "q"),
        ("r", "a", "r"), ("t", "b", "t"),
        ("s0", "a", "s1"), ("s1", "b", "s2"), ("s1", "c", "s3"),
        ("u0", "a", "u1"), ("u1", "b", "u2"),
        ("u0", "a", "u4"), ("u4", "c", "u5"),
    ]) == []


def test_criterion_5_win_table_is_a_validated_strategy():
    moves = _game_moves()
    text = "\n".join(
        "move " + "(s " * k + "N" + ")" * k + " N." for k in GAME_MOVE_SIZES
    )
    st = state_from(text + WIN_DEF)
    for n in range(GAME_TOP + 1):
        run(st, f"win {_peano(n)}")
    statuses = {}
    for status, rest in table_rows(table_report(st, "win")):
        assert rest.startswith("win ")
        statuses[_decode_peano(rest)] = status
    assert set(statuses) == set(range(GAME_TOP + 1))
    succ = {n: [m for (x, m) in moves if x == n] for n in range(GAME_TOP + 1)}
    assert win_certificate_violations(statuses, succ) == []
    winners = win_set(moves, range(GAME_TOP + 1))
    assert {n for n, s in statuses.items() if s == "proved"} == winners


# ---------------------------------------------------------------------------
# 6. Tabling changes what terminates and how much work repeats
# ---------------------------------------------------------------------------

CYCLE = """
edge a b.
edge b c.
edge c a.
reach X Y := edge X Z /\\ reach Z Y.
reach X Y := edge X Y.
#table inductive reach.
"""

FIB = """
fib z.
fib (s z).
fib (s (s N)) := fib (s N) /\\ fib N.
#table inductive fib.
"""


def test_criterion_6_tabling_turns_divergence_into_failure():
    tabled = state_from(CYCLE)
    r = run(tabled, "reach a e")
    assert r.disproved

    untabled = state_from(CYCLE, max_steps=10**5)
    untabled.tabling_enabled = False
    r = run(untabled, "reach a e")
    assert r.inconclusive
    assert isinstance(r.error, BudgetExceeded)


def test_criterion_6_tabling_collapses_repeated_subproblems():
    n = _peano(24)
    tabled = state_from(FIB)
    rt = run(tabled, f"fib {n}")
    untabled = state_from(FIB, max_steps=10**7)
    untabled.tabling_enabled = False
    ru = run(untabled, f"fib {n}")
    assert rt.proved and ru.proved
    assert ru.steps >= 50 * rt.steps, (ru.steps, rt.steps)


# ---------------------------------------------------------------------------
# 7. Batch runs are reproducible to the byte
# ---------------------------------------------------------------------------

EXTRA_TABLE_DUMPS = {
    "graph.def": ["--show-table", "reach", "--show-table", "reach2",
                  "--show-table", "fibtree"],
    "games.def": ["--show-table", "win"],
    "ccs_sim.def": ["--show-table", "sim", "--show-table", "bisim"],
    "pi_sim.def": ["--show-table", "sim"],
    "tictactoe.def": ["--show-table", "wins"],
}


def test_criterion_7_full_corpus_runs_are_byte_identical():
    def full_run():
        chunks = []
        for path in corpus_files():
            name = path.rsplit("/", 1)[-1]
            code, out = run_cli([path] + EXTRA_TABLE_DUMPS.get(name, []))
            assert code == 0, (name, out)
            chunks.append(f"== {name} ==\n{out}")
        return "".join(chunks).encode()

    first = full_run()
    second = full_run()
    assert first == second


# ---------------------------------------------------------------------------
# 8. Ill-posed problems become errors, never verdicts
# ---------------------------------------------------------------------------

def test_criterion_8_nonpattern_is_reported_not_decided(tmp_path):
    code, out = run_cli(["--query", "exists F. F (s z) = s z"])
    assert code == 2
    assert "% inconclusive:" in out
    assert "(s z)" in out and "=" in out  # the offending subproblem, printed
    assert "proved" not in out and "disproved" not in out

    f = tmp_path / "np.def"
    f.write_text("#assert exists F. F (s z) = s z.\n")
    code, out = run_cli([str(f)])
    assert code == 2
    assert "FAILED (inconclusive:" in out


def test_criterion_8_normalization_blowup_is_reported_not_decided(tmp_path):
    code, out = run_cli(["--query", "(x\\ x x) (x\\ x x) = a"])
    assert code == 2
    assert "% inconclusive:" in out
    assert "x\\ x x" in out  # the diverging term, printed
    assert "proved" not in out and "disproved" not in out

    f = tmp_path / "omega.def"
    f.write_text("#assert_not (x\\ x x) (x\\ x x) = a.\n")
    code, out = run_cli([str(f)])
    assert code == 2
    assert "FAILED (inconclusive:" in out
