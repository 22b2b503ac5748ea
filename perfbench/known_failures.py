"""Reproduce the tabling failures that the benchmark's workloads avoid.

Usage, from the root of a checkout:

    python3 perfbench/known_failures.py

On digraphs and LTSs with cycles longer than a self-loop, some tabled
queries keep discarding and recomputing conditional entries until their
step budget runs out (restart storms), and once a query of a session has
run out of budget, later queries of that session can come out disproved
although they hold.  tabled_graphs keeps to ranked structures, whose only
cycles are self-loops, because the benchmark needs workloads on which no
operation fails; this script keeps the failures in view.  It asks every
pair of two such structures, in one session each, with --budget 1000, and
prints how many answers were inconclusive or wrong.  Each structure takes
a few seconds.

Larger cases seen before: `reach n0 n0` on a 60-node, 120-edge random
graph ran 1,000,001 steps in about 295 s and ended inconclusive; on a
20-state, 40-transition random LTS, 152 of 800 sim/bisim queries went over
a 20,000-step budget.
"""

from __future__ import annotations

import io
import itertools
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402

BUDGET = 1000


def random_graph(n, rng):
    """2n distinct edges between any two nodes."""
    edges = set()
    while len(edges) < 2 * n:
        edges.add((rng.randrange(n), rng.randrange(n)))
    return sorted(edges)


def random_lts(n, rng):
    """2n distinct transitions between any two states."""
    trans = set()
    while len(trans) < 2 * n:
        trans.add((rng.randrange(n), rng.choice("ab"), rng.randrange(n)))
    return sorted(trans)


def cases():
    """(name, definitions, relations, truth per relation, node names)."""
    names = [f"n{i:02d}" for i in range(16)]
    edges = [(names[x], names[y])
             for x, y in random_graph(16, random.Random("graph:16"))]
    closure = O.reach_closure(names, edges)
    yield ("16-node random digraph, reach2",
           "".join(f"edge {x} {y}.\n" for x, y in edges) + W.REACH_DEFS,
           {"reach2": closure}, names)
    names = [f"q{i:02d}" for i in range(8)]
    trans = [(names[p], a, names[q])
             for p, a, q in random_lts(8, random.Random("lts:8"))]
    yield ("8-state random LTS, sim and bisim",
           "".join(f"step {p} {a} {q}.\n" for p, a, q in trans) + W.SIM_DEFS,
           {"sim": O.gfp_sim(names, trans),
            "bisim": O.gfp_bisim(names, trans)}, names)


def main():
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    from nablacheck import cli, engine, logic

    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    for i, (name, text, truth, names) in enumerate(cases()):
        path = os.path.join(out_dir, f"known-failure{i}.def")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        st = engine.State(defs=logic.DefSet(), max_steps=BUDGET)
        cli.load_file(path, st, io.StringIO())
        cli.check_definitions(st, io.StringIO(), set())
        asked = inconclusive = wrong = 0
        first_wrong = None
        for rel, holds in truth.items():
            for p, q in itertools.product(names, repeat=2):
                buf = io.StringIO()
                cli.run_query(f"{rel} {p} {q}", st, buf)
                status, _ = O.read_output(buf.getvalue())
                asked += 1
                if status == "inconclusive":
                    inconclusive += 1
                elif status != ("proved" if (p, q) in holds else "disproved"):
                    wrong += 1
                    first_wrong = first_wrong or f"{rel} {p} {q}: {status}"
        print(f"{name} ({path}): {asked} queries, {inconclusive} "
              f"inconclusive, {wrong} wrong"
              + (f", first {first_wrong}" if first_wrong else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
