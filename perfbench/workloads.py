"""Seeded workload generators.

A workload is a list of sessions.  A session is one fresh engine State: its
definitions are loaded (set-up), then its operations run one after another.
An operation is one query, whose answers an oracle checks, or one
#assert/#assert_not line of a shipped corpus file, which checks itself.
The seed chooses the constants and labels, and on tabled_graphs which
pairs are asked twice and in what order; the shape of each workload (how
many operations of which kind and size) is fixed, so that runs with
different seeds cost about the same and can be compared.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import re

import oracles as O

WORKLOADS = ("search", "deep_terms", "tabled_graphs")

CORPUS = (
    "finite_failure.def",
    "graph.def",
    "games.def",
    "ccs_sim.def",
    "pi_sim.def",
    "meta_pv.def",
)

# Per-query step budget on the tabled structures, as `--budget` would set it.
# No query on them needs more than about 2,000 steps.
TABLED_BUDGET = 20000

_ASSERT_LINE = re.compile(r"^#assert(_not)?\b", re.M)


class Op:
    """One query and how to judge its printed result.

    check(answers) returns None when the answers are right, else a message.
    size and group place the operation on a size_slope series: the times
    of a group's operations of one size are summed into one point.
    """

    __slots__ = ("label", "query", "expect", "max_answers", "check", "size",
                 "group")

    def __init__(self, label, query, expect, max_answers=None, check=None,
                 size=None, group=None):
        self.label = label
        self.query = query
        self.expect = expect  # "proved" or "disproved"
        self.max_answers = max_answers
        self.check = check
        self.size = size
        self.group = group

    def judge(self, status, answers):
        """None when the output is right; "inconclusive"; or the mismatch."""
        if status == "inconclusive":
            return "inconclusive"
        if status != self.expect:
            return f"expected {self.expect}, got {status}"
        if self.check is not None:
            return self.check(answers)
        return None


class Session:
    """A definition text (or a corpus file) plus the operations run on it."""

    __slots__ = ("name", "text", "corpus", "ops", "budget")

    def __init__(self, name, text=None, corpus=None, ops=(), budget=None):
        self.name = name
        self.text = text
        self.corpus = corpus
        self.ops = list(ops)
        self.budget = budget

    def op_count(self):
        if self.corpus is not None:
            with open(self.corpus, encoding="utf-8") as fh:
                return len(_ASSERT_LINE.findall(fh.read()))
        return len(self.ops)


def generate(name, seed, corpus_dir):
    if name == "search":
        return search(seed, corpus_dir)
    if name == "deep_terms":
        return deep_terms(seed)
    if name == "tabled_graphs":
        return tabled_graphs(seed)
    raise ValueError(f"unknown workload: {name}")


def _expect_answers(expected):
    """Checker for a query whose answers are known as a set of dicts."""
    want = sorted(tuple(sorted(a.items())) for a in expected)

    def check(answers):
        got = sorted(tuple(sorted(a.items())) for a in answers)
        if got != want:
            return f"answers differ: {len(got)} printed, {len(want)} expected"
        return None

    return check


def _names(rng, k):
    """k distinct constants of equal length."""
    return [f"c{i:02d}" for i in rng.sample(range(100), k)]


# ---------------------------------------------------------------------------
# search: many dispatches over small terms, no tabling
# ---------------------------------------------------------------------------

SEARCH_DEFS = """
memb X (X::L).
memb X (Y::L) := memb X L.

subset nil L.
subset (X::S) L := memb X L /\\ subset S L.

select X (X::L) L.
select X (Y::L) (Y::M) := select X L M.
perm nil nil.
perm L (X::P) := select X L M /\\ perm M P.

plus z N N.
plus (s M) N (s K) := plus M N K.

fibtree z.
fibtree (s z).
fibtree (s (s N)) := fibtree (s N) /\\ fibtree N.

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

FIB_SIZES = (11, 12, 13, 14, 15, 15)
FAILURE_LADDER = (4, 8, 16, 32, 64)
# How many operations of each kind a pass makes.  The percentiles of a
# pass's latencies must fall inside runs of operations of like cost, not
# on the edge between two: a few cheap kinds make up most of the batch,
# adder backward queries sit around p90, and the dozen and a half dearer
# operations stay above it.
PLUS_FAILURES = tuple((b, c) for b in (0, 2, 5) for c in (0, 1, 3, 5)) * 2
ADDITIONS = tuple((i, (5 * i + 3) % 8) for i in range(8)) * 8
SUBSET_ROUNDS, ADDER_BACKWARD_ROUNDS = 3, 5


def _bits(v, n):
    return [str((v >> i) & 1) for i in reversed(range(n))]


def _subset_check(items, limit):
    allowed = set(items)

    def check(answers):
        if len(answers) != limit:
            return f"{len(answers)} answers, expected {limit}"
        for a in answers:
            got = O.list_items(a.get("S", ""))
            if got is None or not set(got) <= allowed:
                return f"not a subset: {a}"
        return None

    return check


def _perm_check(items, limit):
    def check(answers):
        seen = set()
        for a in answers:
            got = O.list_items(a.get("P", ""))
            if got is None or sorted(got) != sorted(items):
                return f"not a permutation: {a}"
            seen.add(tuple(got))
        if len(seen) != len(answers) or len(answers) != limit:
            return f"{len(seen)} distinct of {len(answers)}, expected {limit}"
        return None

    return check


def search(seed, corpus_dir):
    """The seed picks the constants in the lists; the operations and their
    order are the same for every seed."""
    rng = random.Random(f"search:{seed}")
    ops = []
    for n in FIB_SIZES:
        ops.append(Op(f"fibtree {n}", f"fibtree ({O.peano_text(n)})", "proved"))
    for k, limit in ((3, 6), (4, 12), (5, 12), (5, 20)) * SUBSET_ROUNDS:
        items = _names(rng, k)
        ops.append(Op(f"subset {k} limit {limit}",
                      f"subset S ({O.list_text(items)})", "proved",
                      max_answers=limit, check=_subset_check(items, limit)))
    for k, limit in ((3, None), (4, None), (5, None), (6, 60)):
        items = _names(rng, k)
        total = math.factorial(k)
        want = total if limit is None else min(limit, total)
        ops.append(Op(f"perm {k} limit {limit}",
                      f"perm ({O.list_text(items)}) P", "proved",
                      max_answers=limit, check=_perm_check(items, want)))
    for n in FAILURE_LADDER * 2:
        items = _names(rng, n + 1)
        absent, present = items[0], items[-1]
        lst = O.list_text(items[1:])
        ops.append(Op(f"failure ladder {n} absent",
                      f"(memb {absent} ({lst})) => false", "proved",
                      size=n, group="absent"))
        ops.append(Op(f"failure ladder {n} last",
                      f"(memb {present} ({lst})) => false", "disproved",
                      size=n, group="last"))
    for b, c in PLUS_FAILURES:
        ops.append(Op(f"plus failure {b} {c}",
                      f"(exists X. plus X ({O.peano_text(b)}) "
                      f"({O.peano_text(c)})) => false",
                      "proved" if c < b else "disproved"))
    for a, b in ADDITIONS:
        s = _bits(a + b, 4)
        ops.append(Op(f"adder {a}+{b}",
                      "adder3 " + " ".join(_bits(a, 3) + _bits(b, 3))
                      + " C S2 S1 S0", "proved",
                      check=_expect_answers([dict(zip(("C", "S2", "S1", "S0"), s))])))
    for s in list(range(15)) * ADDER_BACKWARD_ROUNDS:
        pairs = [(a, s - a) for a in range(8) if 0 <= s - a < 8]
        names = ("A2", "A1", "A0", "B2", "B1", "B0")
        want = [dict(zip(names, _bits(a, 3) + _bits(b, 3))) for a, b in pairs]
        ops.append(Op(f"adder backward {s}",
                      "adder3 A2 A1 A0 B2 B1 B0 " + " ".join(_bits(s, 4)),
                      "proved", check=_expect_answers(want)))
    sessions = [
        Session(f"corpus {f}", corpus=os.path.join(corpus_dir, f))
        for f in CORPUS
    ]
    batch = Session("search batch", text=SEARCH_DEFS, ops=ops)
    sessions.append(batch)
    return sessions


# ---------------------------------------------------------------------------
# deep_terms: few dispatches, each over a large term
# ---------------------------------------------------------------------------

DEEP_DEFS = """
len nil z.
len (X::L) (s N) := len L N.

memb X (X::L).
memb X (Y::L) := memb X L.

append nil L L.
append (X::L) M (X::N) := append L M N.

rev L R := rev_acc L nil R.
rev_acc nil A A.
rev_acc (X::L) A R := rev_acc L (X::A) R.

fib z.
fib (s z).
fib (s (s N)) := fib (s N) /\\ fib N.
#table inductive fib.

move (s N) N.
move (s (s N)) N.
move (s (s (s (s N)))) N.
win X := move X Y /\\ (forall Z. move Y Z => win Z).
#level win 1.
#table inductive win.
"""

DEEP_RUNGS = 10
DEEP_SMALLEST, DEEP_RUNG_RATIO = 16, 1.225  # rungs from 16 to about 100
WIN_MOVES = (1, 2, 4)
APPEND_LIMIT = 6


def _distinct_constants(rng, n):
    """n distinct constants of equal length, in seeded order."""
    return [f"e{i:03d}" for i in rng.sample(range(1000), n)]


def _deep_op(kind, n, rng):
    """One operation of a kind over a list or numeral of n elements."""
    items = _distinct_constants(rng, n + 1)
    absent, items = items[0], items[1:]
    lst = O.list_text(items)
    num = O.peano_text(n)
    if kind == "len":
        return Op(f"len {n}", f"len ({lst}) N", "proved",
                  check=_expect_answers([{"N": num}]))
    if kind == "len check":
        return Op(f"len check {n}", f"len ({lst}) ({num})", "proved")
    if kind == "memb last":
        return Op(f"memb last {n}", f"memb {items[-1]} ({lst})", "proved")
    if kind == "memb absent":
        return Op(f"memb absent {n}", f"memb {absent} ({lst})", "disproved")
    if kind == "append pivot":
        pivot = rng.randrange(2 * n // 5, 3 * n // 5)
        return Op(f"append pivot {n}",
                  f"append A ({items[pivot]}::B) ({lst})", "proved",
                  check=_expect_answers([{
                      "A": O.list_text(items[:pivot]),
                      "B": O.list_text(items[pivot + 1:]),
                  }]))
    if kind == "append splits":
        return Op(f"append splits {n}", f"append A B ({lst})", "proved",
                  max_answers=APPEND_LIMIT,
                  check=_expect_answers([
                      {"A": O.list_text(items[:i]), "B": O.list_text(items[i:])}
                      for i in range(APPEND_LIMIT)
                  ]))
    if kind == "rev":
        return Op(f"rev {n}", f"rev ({lst}) R", "proved",
                  check=_expect_answers([{"R": O.list_text(items[::-1])}]))
    if kind == "rev check":
        return Op(f"rev check {n}",
                  f"rev ({lst}) ({O.list_text(items[::-1])})", "proved")
    if kind == "fib":
        return Op(f"fib {n}", f"fib ({num})", "proved")
    wins = O.win_positions(n, WIN_MOVES)
    return Op(f"win {n}", f"win ({num})", "proved" if wins[n] else "disproved")


DEEP_KINDS = ("len", "len check", "memb last", "memb absent", "append pivot",
              "append splits", "rev", "rev check", "fib", "win")


def deep_terms(seed):
    """One session per rung.  Each kind of operation climbs its own ladder,
    offset from the others by a fraction of a rung, so the sizes (and the
    latencies) of all operations spread evenly rather than in clumps.  The
    order within a session is fixed: where the garbage collector's pauses
    fall depends on it, and each pause is large next to one operation."""
    rng = random.Random(f"deep_terms:{seed}")
    sessions = []
    for rung in range(DEEP_RUNGS):
        ops = []
        for k, kind in enumerate(DEEP_KINDS):
            n = round(DEEP_SMALLEST
                      * DEEP_RUNG_RATIO ** (rung + k / len(DEEP_KINDS)))
            op = _deep_op(kind, n, rng)
            op.size, op.group = n, kind
            ops.append(op)
        sessions.append(Session(f"deep rung {rung}", text=DEEP_DEFS, ops=ops))
    return sessions


# ---------------------------------------------------------------------------
# tabled_graphs: constant-size keys over large fact bases
# ---------------------------------------------------------------------------

REACH_DEFS = """
reach X Y := edge X Y.
reach X Y := edge X Z /\\ reach Z Y.
#table inductive reach.

reach2 X Y := edge X Z /\\ reach2 Z Y.
reach2 X Y := edge X Y.
#table inductive reach2.
"""

SIM_DEFS = """
sim P Q :=
  forall A P1. step P A P1 => (exists Q1. step Q A Q1 /\\ sim P1 Q1).
#level sim 1.
#table coinductive sim.

bisim P Q :=
  (forall A P1. step P A P1 => (exists Q1. step Q A Q1 /\\ bisim P1 Q1)) /\\
  (forall A Q1. step Q A Q1 => (exists P1. step P A P1 /\\ bisim Q1 P1)).
#level bisim 1.
#table coinductive bisim.
"""

# Every edge and transition goes from a node to one of equal or higher rank,
# so the only cycles are self-loops.  On structures with longer cycles the
# engine at this commit can fall into restart storms, and after a budget
# abort later queries of the session can come out wrong (known_failures.py
# reproduces both); the benchmark needs workloads on which no operation
# fails, so it keeps to ranked structures, where neither happens.
# The shapes come from fixed generator seeds, not from the run's seed: the
# cost of a coinductive query depends much on the exact shape, and with
# seeded shapes the interquartile spread of query_p90_ms over five seeds
# was 14% of its median.  The run's seed names the nodes and picks and orders the
# second round of queries.
GRAPH_SIZES = (12, 18, 24, 32)
LTS_SIZES = (8, 12, 16, 24)


def ranked_graph(n, rng):
    """2n distinct edges (x, y) with x <= y."""
    edges = set()
    while len(edges) < 2 * n:
        x = rng.randrange(n)
        edges.add((x, rng.randrange(x, n)))
    return sorted(edges)


def ranked_lts(n, rng):
    """2n distinct transitions (p, a, q) with p <= q and a in {a, b}."""
    trans = set()
    while len(trans) < 2 * n:
        p = rng.randrange(n)
        trans.add((p, rng.choice("ab"), rng.randrange(p, n)))
    return sorted(trans)


AGAIN_SHARE = 4  # one pair in this many is asked a second time


def _pair_ops(rels, names, truth, rng, group):
    """Every pair for each relation once in a fixed order (productions),
    then a seeded sample of them again in seeded order (mostly table hits).
    Only the first round, the same work under every seed, feeds size_slope."""
    first = [
        (rel, p, q) for rel in rels
        for p, q in itertools.product(names, repeat=2)
    ]
    again = rng.sample(first, len(first) // AGAIN_SHARE)
    ops = []
    for rnd, batch in (("first", first), ("again", again)):
        for rel, p, q in batch:
            op = Op(f"{rel} {p} {q} ({rnd})", f"{rel} {p} {q}",
                    "proved" if (p, q) in truth[rel] else "disproved")
            if rnd == "first":
                op.size, op.group = len(names), group
            ops.append(op)
    return ops


def tabled_graphs(seed):
    rng = random.Random(f"tabled_graphs:{seed}")
    sessions = []
    for n in GRAPH_SIZES:
        label = rng.sample(range(100), n)
        names = [f"n{label[i]:02d}" for i in range(n)]
        edges = [(names[x], names[y]) for x, y in ranked_graph(
            n, random.Random(f"graph:{n}"))]
        text = "".join(f"edge {x} {y}.\n" for x, y in edges) + REACH_DEFS
        closure = O.reach_closure(names, edges)
        ops = _pair_ops(("reach", "reach2"), names,
                        {"reach": closure, "reach2": closure}, rng, "graph")
        sessions.append(Session(f"graph {n}", text=text, ops=ops,
                                budget=TABLED_BUDGET))
    for n in LTS_SIZES:
        label = rng.sample(range(100), n)
        names = [f"q{label[i]:02d}" for i in range(n)]
        trans = [(names[p], a, names[q]) for p, a, q in ranked_lts(
            n, random.Random(f"lts:{n}"))]
        text = "".join(f"step {p} {a} {q}.\n" for p, a, q in trans) + SIM_DEFS
        truth = {"sim": O.gfp_sim(names, trans),
                 "bisim": O.gfp_bisim(names, trans)}
        ops = _pair_ops(("sim", "bisim"), names, truth, rng, "lts")
        sessions.append(Session(f"lts {n}", text=text, ops=ops,
                                budget=TABLED_BUDGET))
    return sessions
