"""Reference answers for the benchmark, computed without the engine.

Nothing here imports nablacheck.  Reachability is a breadth-first closure,
simulation and bisimulation are greatest fixed points by iterated
refinement, the subtraction game is solved by backward induction, and the
list and numeral queries are plain Python arithmetic.  Engine output is
read back from the text the CLI prints, so the check sees exactly what a
user would.
"""

from __future__ import annotations

from collections import deque


# ---------------------------------------------------------------------------
# Reading CLI output
# ---------------------------------------------------------------------------

def read_output(text):
    """Split run_query output into (status, answers).

    status is "proved", "disproved" or "inconclusive"; answers is a list of
    {variable: printed term} dicts, one per answer line ("yes" is {}).
    """
    lines = text.splitlines()
    if not lines:
        return "error", []
    last = lines[-1]
    if last.startswith("% proved"):
        status = "proved"
    elif last == "% disproved":
        status = "disproved"
    elif last.startswith("% inconclusive"):
        status = "inconclusive"
    else:
        return "error", []
    answers = []
    for line in lines[:-1]:
        if line == "yes":
            answers.append({})
            continue
        answer = {}
        for part in line.split(", "):  # printed terms contain no comma
            name, _, term = part.partition(" = ")
            answer[name] = term
        answers.append(answer)
    return status, answers


def list_text(items):
    return "::".join(list(items) + ["nil"])


def list_items(text):
    """Elements of a printed ground list of constants, or None."""
    parts = text.split("::")
    if parts[-1] != "nil" or any(not p or " " in p for p in parts[:-1]):
        return None
    return parts[:-1]


def peano_text(n):
    out = "z"
    for _ in range(n):
        out = f"s ({out})" if out != "z" else "s z"
    return out


# ---------------------------------------------------------------------------
# Fixed points over finite structures
# ---------------------------------------------------------------------------

def reach_closure(nodes, edges):
    """All (x, y) with a path of one or more edges from x to y."""
    succ = {n: [] for n in nodes}
    for x, y in edges:
        succ[x].append(y)
    closure = set()
    for start in nodes:
        seen = set()
        frontier = deque(succ[start])
        while frontier:
            y = frontier.popleft()
            if y in seen:
                continue
            seen.add(y)
            frontier.extend(succ[y])
        closure.update((start, y) for y in seen)
    return closure


def _moves(trans):
    out = {}
    for p, a, q in trans:
        out.setdefault(p, []).append((a, q))
    return out


def gfp_sim(states, trans):
    """The largest simulation: remove pairs until every move is matched."""
    moves = _moves(trans)
    rel = {(p, q) for p in states for q in states}
    changed = True
    while changed:
        changed = False
        for p, q in sorted(rel):
            if not all(
                any(b == a and (p1, q1) in rel for b, q1 in moves.get(q, ()))
                for a, p1 in moves.get(p, ())
            ):
                rel.discard((p, q))
                changed = True
    return rel


def gfp_bisim(states, trans):
    """The largest bisimulation, by the same refinement in both directions."""
    moves = _moves(trans)
    rel = {(p, q) for p in states for q in states}

    def matched(p, q):
        return all(
            any(b == a and (p1, q1) in rel for b, q1 in moves.get(q, ()))
            for a, p1 in moves.get(p, ())
        )

    changed = True
    while changed:
        changed = False
        for p, q in sorted(rel):
            if not (matched(p, q) and matched(q, p)):
                rel.discard((p, q))
                changed = True
    return rel


def win_positions(top, move_sizes):
    """Backward induction: a position wins when some move reaches a
    position from which every move lands on a win again (the shape of the
    `win` definition); positions with no move lose."""
    wins = []
    for n in range(top + 1):
        ok = False
        for k in move_sizes:
            m = n - k
            if m < 0:
                continue
            if all(wins[m - j] for j in move_sizes if m - j >= 0):
                ok = True
                break
        wins.append(ok)
    return wins
