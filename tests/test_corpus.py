"""The shipped example programs, checked against independent oracles."""

import collections
import io
import itertools
import re

import pytest

from nablacheck.cli import load_file
from nablacheck.engine import State
from nablacheck.tabling import table_report

from conftest import corpus_files, corpus_path, load_corpus, run
from oracles import (
    adder3_expected,
    bits3,
    decode_peano,
    gfp_bisim,
    gfp_sim,
    sim_certificate_violations,
    table_rows,
    transitive_closure,
    ttt_wins,
    win_certificate_violations,
    win_set,
)


def _peano(n):
    return "z" if n == 0 else f"(s {_peano(n - 1)})"


# ---------------------------------------------------------------------------
# Every shipped file passes its own assertions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name", [p.rsplit("/", 1)[-1] for p in corpus_files()]
)
def test_corpus_file_passes(name):
    st = State()
    out = io.StringIO()
    assert load_file(corpus_path(name), st, out) == 0, out.getvalue()
    text = out.getvalue()
    assert "FAILED" not in text


# ---------------------------------------------------------------------------
# Graph reachability against the closure oracle
# ---------------------------------------------------------------------------

GRAPH_EDGES = {("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")}
GRAPH_NODES = ["a", "b", "c", "d", "e"]  # e exists only in queries


@pytest.mark.parametrize("pred", ["reach", "reach2"])
def test_reachability_matches_transitive_closure(pred):
    closure = transitive_closure(GRAPH_EDGES)
    st = load_corpus("graph.def")
    for x, y in itertools.product(GRAPH_NODES, repeat=2):
        r = run(st, f"{pred} {x} {y}")
        assert not r.inconclusive
        assert r.proved == ((x, y) in closure), (pred, x, y, r.status)


# ---------------------------------------------------------------------------
# The adder against integer arithmetic, exhaustively
# ---------------------------------------------------------------------------

def test_adder_agrees_with_arithmetic_on_all_inputs():
    st = load_corpus("graph.def")
    for a, b in itertools.product(range(8), repeat=2):
        a2, a1, a0 = bits3(a)
        b2, b1, b0 = bits3(b)
        c, s2, s1, s0 = adder3_expected(a, b)
        r = run(st, f"adder3 {a2} {a1} {a0} {b2} {b1} {b0} {c} {s2} {s1} {s0}")
        assert r.proved, (a, b)
        wrong = f"adder3 {a2} {a1} {a0} {b2} {b1} {b0} {c} {s2} {s1} {1 - s0}"
        assert run(st, wrong).disproved, (a, b)


def test_adder_outputs_are_a_function_of_the_inputs():
    st = load_corpus("graph.def")
    for a, b in [(5, 3), (7, 7), (0, 0), (6, 1)]:
        a2, a1, a0 = bits3(a)
        b2, b1, b0 = bits3(b)
        r = run(st, f"adder3 {a2} {a1} {a0} {b2} {b1} {b0} C S2 S1 S0")
        assert len(r.answers) == 1
        got = tuple(
            int(r.answers[0].get(n).name) for n in ("C", "S2", "S1", "S0")
        )
        assert got == adder3_expected(a, b)


def test_peano_value_of_bits():
    st = load_corpus("graph.def")
    for v in range(8):
        b2, b1, b0 = bits3(v)
        assert run(st, f"bits_value ({b0}::{b1}::{b2}::nil) {_peano(v)}").proved


# ---------------------------------------------------------------------------
# The subtraction game against backward induction
# ---------------------------------------------------------------------------

GAME_TOP = 12
GAME_POSITIONS = range(GAME_TOP + 1)
GAME_MOVES = [
    (n, n - k) for n in GAME_POSITIONS for k in (1, 2) if n - k >= 0
]


def test_win_matches_backward_induction():
    winners = win_set(GAME_MOVES, GAME_POSITIONS)
    assert winners == {n for n in GAME_POSITIONS if n % 3 != 0}
    st = load_corpus("games.def")
    for n in GAME_POSITIONS:
        r = run(st, f"win {_peano(n)}")
        assert not r.inconclusive
        assert r.proved == (n in winners), n


def test_win_table_is_a_checkable_strategy():
    st = load_corpus("games.def")
    for n in GAME_POSITIONS:
        run(st, f"win {_peano(n)}")
    statuses = {}
    for status, rest in table_rows(table_report(st, "win")):
        assert rest.startswith("win ")
        statuses[decode_peano(rest[4:])] = status
    assert set(statuses) == set(GAME_POSITIONS)
    succ = {n: [m for (x, m) in GAME_MOVES if x == n] for n in GAME_POSITIONS}
    assert win_certificate_violations(statuses, succ) == []


# ---------------------------------------------------------------------------
# Tic-tac-toe against backward induction
# ---------------------------------------------------------------------------

def test_tictactoe_table_matches_backward_induction():
    # The file's assertions settle every position reachable from theirs,
    # the empty board included; each row must agree with the oracle.
    st = load_corpus("tictactoe.def")
    rows = table_rows(table_report(st, "wins"))
    statuses = collections.Counter()
    for status, rest in rows:
        m = re.fullmatch(r"wins ([xo]) \(((?:[xoe]::){9})nil\)", rest)
        assert m, rest
        board = tuple(m.group(2).split("::")[:-1])
        assert (status == "proved") == ttt_wins(m.group(1), board), rest
        statuses[status] += 1
    assert ("disproved", "wins x (e::e::e::e::e::e::e::e::e::nil)") in rows
    assert statuses["proved"] >= 713 and statuses["disproved"] >= 272, \
        statuses


# ---------------------------------------------------------------------------
# Process equivalences against greatest-fixpoint oracles
# ---------------------------------------------------------------------------

CCS_TRANS = [
    ("p", "a", "p"),
    ("q", "a", "q1"),
    ("q1", "a", "q"),
    ("r", "a", "r"),
    ("t", "b", "t"),
    ("s0", "a", "s1"),
    ("s1", "b", "s2"),
    ("s1", "c", "s3"),
    ("u0", "a", "u1"),
    ("u1", "b", "u2"),
    ("u0", "a", "u4"),
    ("u4", "c", "u5"),
]
CCS_STATES = sorted({x for (x, _, _) in CCS_TRANS} | {y for (_, _, y) in CCS_TRANS})


def test_simulation_matches_greatest_fixpoint():
    oracle = gfp_sim(CCS_STATES, CCS_TRANS)
    st = load_corpus("ccs_sim.def")
    for p, q in itertools.product(CCS_STATES, repeat=2):
        r = run(st, f"sim {p} {q}")
        assert not r.inconclusive
        assert r.proved == ((p, q) in oracle), (p, q, r.status)


def test_bisimulation_matches_greatest_fixpoint():
    oracle = gfp_bisim(CCS_STATES, CCS_TRANS)
    st = load_corpus("ccs_sim.def")
    for p, q in itertools.product(CCS_STATES, repeat=2):
        r = run(st, f"bisim {p} {q}")
        assert not r.inconclusive
        assert r.proved == ((p, q) in oracle), (p, q, r.status)


def test_bisimulation_refines_mutual_simulation():
    sim = gfp_sim(CCS_STATES, CCS_TRANS)
    bisim = gfp_bisim(CCS_STATES, CCS_TRANS)
    assert bisim <= sim
    assert ("u0", "s0") in sim and ("s0", "u0") not in sim


def test_sim_table_is_simulation_closed():
    st = load_corpus("ccs_sim.def")
    for p, q in itertools.product(CCS_STATES, repeat=2):
        run(st, f"sim {p} {q}")
    proved = set()
    for status, rest in table_rows(table_report(st, "sim")):
        _, p, q = rest.split()
        if status == "proved":
            proved.add((p, q))
    assert proved == gfp_sim(CCS_STATES, CCS_TRANS)
    assert sim_certificate_violations(proved, CCS_TRANS) == []


# ---------------------------------------------------------------------------
# The object-logic prover
# ---------------------------------------------------------------------------

def test_provability_forces_identical_conclusions():
    st = load_corpus("meta_pv.def")
    same = (
        "forall r s t. pv nil (all (x\\ imp (p x r) "
        "(all (y\\ imp (p y s) (p x t))))) => r = t"
    )
    r = run(st, same)
    assert r.proved
    other = same.replace("=> r = t", "=> r = s")
    assert run(st, other).disproved


def test_hypothetical_reasoning_examples():
    st = load_corpus("meta_pv.def")
    assert run(st, "pv nil (imp q (imp r q))").proved
    assert run(st, "pv (q::nil) q").proved
    assert run(st, "pv nil q").disproved
    assert run(st, "nabla x. pv ((p x a)::nil) (p x a)").proved


def test_failure_is_finite_and_negation_observes_it():
    st = load_corpus("finite_failure.def")
    assert run(st, "neq (f a) (f b)").proved
    assert run(st, "neq (f a) (f a)").disproved
    for n in range(9):
        r = run(st, f"even {_peano(n)}")
        assert r.proved == (n % 2 == 0)
        r = run(st, f"(even {_peano(n)}) => false")
        assert r.proved == (n % 2 == 1)
