"""Reference implementations the tests trust instead of the engine.

Everything here recomputes expected results from first principles with
machinery deliberately unlike the package's own: named terms instead of de
Bruijn indices, single-step leftmost-outermost rewriting instead of
environment-passing normalization, explicit set fixpoints instead of proof
search, table-text walkers instead of table objects.  The Term node classes
are shared as plain data; no algorithm is.

Named terms are tuples:

    ("c", name)            constant (also "#k" for a nabla index)
    ("v", name)            a named bound variable
    ("lam", name, body)    abstraction
    ("ap", fun, arg)       application, curried
"""

from __future__ import annotations

import functools
import itertools
import re

from nablacheck.nodes import (
    App,
    Bound,
    Const,
    EigenVar,
    Lam,
    LogicVar,
    NablaIndex,
    Var,
)

_fresh_counter = itertools.count()


def _fresh(base="_r"):
    return f"{base}{next(_fresh_counter)}"


# ---------------------------------------------------------------------------
# Package term -> named term
# ---------------------------------------------------------------------------

def to_named(t, env=(), assign=None):
    """Convert a package term to a named term.

    env maps de Bruijn depth to names (innermost first).  assign maps
    variable ids to named terms and is how the oracle instantiates logic
    variables; an unbound variable with no assignment is an error, because
    every oracle comparison is over ground instances.
    """
    while isinstance(t, Var) and t.binding is not None:
        t = t.binding
    tt = type(t)
    if tt is Const:
        return ("c", t.name)
    if tt is NablaIndex:
        return ("c", f"#{t.index}")
    if tt is Bound:
        return ("v", env[t.index])
    if tt is Lam:
        name = _fresh("x")
        return ("lam", name, to_named(t.body, (name,) + tuple(env), assign))
    if tt is App:
        out = to_named(t.head, env, assign)
        for a in t.args:
            out = ("ap", out, to_named(a, env, assign))
        return out
    if isinstance(t, Var):
        if assign is None or t.id not in assign:
            raise ValueError(f"oracle met an uninstantiated variable: {t!r}")
        return assign[t.id]
    raise TypeError(f"not a term: {t!r}")


def free_vars(t):
    """The unbound variables of a package term, bindings followed, each
    once, in order of first occurrence."""
    found = {}

    def visit(u):
        while isinstance(u, Var) and u.binding is not None:
            u = u.binding
        if isinstance(u, Var):
            found.setdefault(id(u), u)
        elif type(u) is Lam:
            visit(u.body)
        elif type(u) is App:
            visit(u.head)
            for a in u.args:
                visit(a)

    visit(t)
    return list(found.values())


# ---------------------------------------------------------------------------
# Normalization by repeated single-step rewriting
# ---------------------------------------------------------------------------

def free_names(nt):
    k = nt[0]
    if k == "c":
        return set()
    if k == "v":
        return {nt[1]}
    if k == "lam":
        return free_names(nt[2]) - {nt[1]}
    return free_names(nt[1]) | free_names(nt[2])


def substitute(nt, name, value):
    """Capture-avoiding substitution of value for the variable name."""
    k = nt[0]
    if k == "c":
        return nt
    if k == "v":
        return value if nt[1] == name else nt
    if k == "lam":
        bound, body = nt[1], nt[2]
        if bound == name:
            return nt
        if bound in free_names(value):
            renamed = _fresh(bound)
            body = substitute(body, bound, ("v", renamed))
            bound = renamed
        return ("lam", bound, substitute(body, name, value))
    return ("ap", substitute(nt[1], name, value), substitute(nt[2], name, value))


def beta_step(nt):
    """One leftmost-outermost beta step, or None when nt is beta-normal."""
    k = nt[0]
    if k == "ap":
        fun, arg = nt[1], nt[2]
        if fun[0] == "lam":
            return substitute(fun[2], fun[1], arg)
        step = beta_step(fun)
        if step is not None:
            return ("ap", step, arg)
        step = beta_step(arg)
        if step is not None:
            return ("ap", fun, step)
        return None
    if k == "lam":
        step = beta_step(nt[2])
        if step is not None:
            return ("lam", nt[1], step)
        return None
    return None


def eta_step(nt):
    """One eta contraction anywhere, or None."""
    k = nt[0]
    if k == "lam":
        name, body = nt[1], nt[2]
        if (
            body[0] == "ap"
            and body[2] == ("v", name)
            and name not in free_names(body[1])
        ):
            return body[1]
        step = eta_step(body)
        if step is not None:
            return ("lam", name, step)
        return None
    if k == "ap":
        step = eta_step(nt[1])
        if step is not None:
            return ("ap", step, nt[2])
        step = eta_step(nt[2])
        if step is not None:
            return ("ap", nt[1], step)
        return None
    return None


def nf(nt, fuel=4000):
    """Beta-eta normal form by exhaustive single-stepping."""
    for _ in range(fuel):
        step = beta_step(nt)
        if step is None:
            break
        nt = step
    else:
        raise RuntimeError("oracle normalization ran out of fuel")
    for _ in range(fuel):
        step = eta_step(nt)
        if step is None:
            return nt
        nt = step
    raise RuntimeError("oracle eta contraction ran out of fuel")


def alpha_eq(a, b, amap=None, bmap=None):
    if amap is None:
        amap, bmap = {}, {}
    if a[0] != b[0]:
        return False
    k = a[0]
    if k == "c":
        return a[1] == b[1]
    if k == "v":
        return amap.get(a[1], a[1]) == bmap.get(b[1], b[1])
    if k == "lam":
        shared = _fresh("a")
        amap = dict(amap, **{a[1]: shared})
        bmap = dict(bmap, **{b[1]: shared})
        return alpha_eq(a[2], b[2], amap, bmap)
    return alpha_eq(a[1], b[1], amap, bmap) and alpha_eq(a[2], b[2], amap, bmap)


def ground_equal(t, s, assign=None):
    """Beta-eta equality of two package terms under a ground assignment."""
    return alpha_eq(nf(to_named(t, assign=assign)), nf(to_named(s, assign=assign)))


# ---------------------------------------------------------------------------
# Ground-instantiation universes for the unification oracle
# ---------------------------------------------------------------------------

ATOM_A = ("c", "a")
ATOM_B = ("c", "b")


def universe_for(v, arity=None):
    """Closed ground values a variable may legally take.

    The level conditions reduce here to: a variable with local level l was
    introduced under l nabla binders, so only #0 … #(l-1) may occur in its
    value.  (The enumerated problems contain no eigenvariables, so global
    levels do not constrain anything.)  The atoms are a, b and those
    indices.  By default the values are the atoms and the λs over one
    variable whose body is an atom or that variable.  With an arity k,
    they are the closed normal terms of the type of a function of k
    arguments at base type, no constant taking any: k λs over an atom or
    one of their variables.
    """
    atoms = [ATOM_A, ATOM_B] + [("c", f"#{i}") for i in range(v.local_level)]
    if arity is None:
        return atoms + [("lam", "w", body) for body in [("v", "w")] + atoms]
    names = [f"w{i}" for i in range(arity)]
    out = []
    for body in [("v", w) for w in names] + atoms:
        for w in reversed(names):
            body = ("lam", w, body)
        out.append(body)
    return out


def assignments(variables, arities=None):
    """Every ground assignment over the variables' universes, arities
    mapping a variable's id to the arity of its universe, if given."""
    variables = list(variables)
    pools = [universe_for(v, arities and arities.get(v.id)) for v in variables]
    for combo in itertools.product(*pools):
        yield {v.id: val for v, val in zip(variables, combo)}


def ground_unifiers(t, s, variables, arities=None):
    """All assignments (from the universes) making t and s equal."""
    for a in assignments(variables, arities):
        if ground_equal(t, s, a):
            yield a


def factors_through(theta, sigma, residual_vars, arities=None):
    """Does the ground unifier sigma factor through the computed mgu?

    theta is a list of (variable, package-term snapshot) pairs; sigma maps
    variable ids to named ground terms; residual_vars are the unbound
    variables remaining in the snapshots.  True when some ground
    instantiation rho of the residuals makes every snapshot equal to
    sigma's value for its variable.  arities is as for assignments.
    """
    for rho in assignments(list(residual_vars), arities):
        if all(
            alpha_eq(nf(to_named(snap, assign=rho)), nf(sigma[v.id]))
            for (v, snap) in theta
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Relation fixpoints
# ---------------------------------------------------------------------------

def transitive_closure(edges):
    """All (x, y) connected by a nonempty edge path."""
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for (x, y) in list(closure):
            for (y2, z) in edges:
                if y2 == y and (x, z) not in closure:
                    closure.add((x, z))
                    changed = True
    return closure


def parity_walks(nodes, edges):
    """(odd, even): the (x, y) joined by a walk of odd, resp. even, length.

    Breadth-first search over (node, parity) states from each start; the
    empty walk makes every (x, x) even.
    """
    succ = {x: [y for (x2, y) in edges if x2 == x] for x in nodes}
    odd, even = set(), set()
    for x in nodes:
        seen = {(x, 0)}
        queue = [(x, 0)]
        for y, parity in queue:
            (odd if parity else even).add((x, y))
            for z in succ[y]:
                if (z, 1 - parity) not in seen:
                    seen.add((z, 1 - parity))
                    queue.append((z, 1 - parity))
    return odd, even


def win_set(moves, positions):
    """Least fixed point of: win(x) iff some move reaches a position all of
    whose moves land in win."""
    succ = {p: [y for (x, y) in moves if x == p] for p in positions}
    win = set()
    changed = True
    while changed:
        changed = False
        for p in positions:
            if p in win:
                continue
            if any(all(k in win for k in succ[y]) for y in succ[p]):
                win.add(p)
                changed = True
    return win


_TTT_LINES = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7),
              (2, 5, 8), (0, 4, 8), (2, 4, 6))


def _ttt_line(p, board):
    return any(all(board[i] == p for i in line) for line in _TTT_LINES)


def _ttt_moves(p, board):
    return [board[:i] + (p,) + board[i + 1:]
            for i, cell in enumerate(board) if cell == "e"]


@functools.lru_cache(maxsize=None)
def ttt_wins(p, board):
    """Backward induction over tictactoe.def's rules: can p, to move on
    board (a tuple of nine cells "x", "o" or "e"), force a line?  Some move
    either completes one, or leaves an empty cell and every reply of the
    other player completes none and leaves a position p wins again."""
    q = "o" if p == "x" else "x"
    return any(
        _ttt_line(p, b1) or "e" in b1 and all(
            not _ttt_line(q, b2) and ttt_wins(p, b2)
            for b2 in _ttt_moves(q, b1))
        for b1 in _ttt_moves(p, board))


def gfp_sim(states, trans):
    """Greatest simulation over a finite LTS given as (p, a, q) triples."""
    out = {p: [(a, q) for (x, a, q) in trans if x == p] for p in states}
    rel = set(itertools.product(states, states))
    changed = True
    while changed:
        changed = False
        for (p, q) in list(rel):
            ok = all(
                any(a2 == a and (p1, q1) in rel for (a2, q1) in out[q])
                for (a, p1) in out[p]
            )
            if not ok:
                rel.discard((p, q))
                changed = True
    return rel


def gfp_bisim(states, trans):
    rel = set(itertools.product(states, states))
    out = {p: [(a, q) for (x, a, q) in trans if x == p] for p in states}
    changed = True
    while changed:
        changed = False
        for (p, q) in list(rel):
            forward = all(
                any(a2 == a and (p1, q1) in rel for (a2, q1) in out[q])
                for (a, p1) in out[p]
            )
            backward = all(
                any(a2 == a and (q1, p1) in rel for (a2, p1) in out[p])
                for (a, q1) in out[q]
            )
            if not (forward and backward):
                rel.discard((p, q))
                changed = True
    return rel


# ---------------------------------------------------------------------------
# Certificate walkers over exported table text
# ---------------------------------------------------------------------------

def table_rows(report_text):
    """Parse `status pred arg...` rows out of a table report."""
    rows = []
    for line in report_text.splitlines():
        line = line.strip()
        if line.startswith("%") or not line:
            continue
        status, rest = line.split(" ", 1)
        rows.append((status, rest.rstrip(".")))
    return rows


def decode_peano(text):
    """Number of successor applications in a printed Peano numeral."""
    if not re.fullmatch(r"[sz()\s]+", text):
        raise ValueError(f"not a numeral: {text!r}")
    return len(re.findall(r"\bs\b", text))


def sim_certificate_violations(proved_pairs, trans):
    """Pairs in the certificate that are not simulation-closed within it.

    proved_pairs is a set of (p, q) state-name pairs; trans the full LTS.
    A sound certificate has no violations: every move of p is matched by a
    move of q into another certified pair.
    """
    out = {}
    for (x, a, y) in trans:
        out.setdefault(x, []).append((a, y))
    bad = []
    for (p, q) in proved_pairs:
        for (a, p1) in out.get(p, []):
            if not any(
                a2 == a and (p1, q1) in proved_pairs for (a2, q1) in out.get(q, [])
            ):
                bad.append((p, q, a, p1))
    return bad


def win_certificate_violations(statuses, moves):
    """Check a win/lose table move-by-move against the game graph.

    statuses maps position -> "proved" | "disproved"; moves maps position ->
    list of successors.  For a proved position some move must lead to a
    position whose every reply is again proved in the table; for a disproved
    position every move must admit a reply that is again disproved in the
    table.  Returns the positions whose rows cannot be justified.
    """
    bad = []
    for p, status in statuses.items():
        succ = moves.get(p, [])
        if status == "proved":
            ok = any(
                all(statuses.get(k) == "proved" for k in moves.get(m, []))
                for m in succ
            )
            if not ok:
                bad.append(p)
        else:
            ok = all(
                any(statuses.get(k) == "disproved" for k in moves.get(m, []))
                for m in succ
            )
            if not ok:
                bad.append(p)
    return bad


# ---------------------------------------------------------------------------
# Adder ground truth
# ---------------------------------------------------------------------------

def adder3_expected(a, b):
    """(carry, s2, s1, s0) of the 3-bit sum of a and b."""
    total = a + b
    return ((total >> 3) & 1, (total >> 2) & 1, (total >> 1) & 1, total & 1)


def bits3(v):
    """(b2, b1, b0) of a value < 8."""
    return ((v >> 2) & 1, (v >> 1) & 1, v & 1)


# ---------------------------------------------------------------------------
# Lexer positions
# ---------------------------------------------------------------------------

# One alternation per token kind, whitespace and comments included, matched
# one after another over the whole text.
_REFERENCE_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<directive>\#[a-z_]+)
    | (?P<name>[a-z][A-Za-z0-9_']*)
    | (?P<uvar>[A-Z_][A-Za-z0-9_']*)
    | (?P<int>\d+)
    | (?P<string>"[^"\n]*")
    | (?P<punct>:=|::|=>|/\\|\\/|[()\\.=])
    """,
    re.VERBOSE,
)
_REFERENCE_KEYWORDS = {"forall", "exists", "nabla", "true"}


def reference_tokens(text):
    """(tokens, error): the tokens of text as (kind, text, line, column),
    an ("eof", "", line, column) token last, by one pass of matches over the
    whole text that counts the newlines in each run of whitespace, and
    error, None or the (message, line, column) of the first character no
    token starts with, where the tokens stop."""
    tokens = []
    line = 1
    bol = 0  # where the current line starts
    pos = 0
    for m in _REFERENCE_TOKEN.finditer(text):
        start = m.start()
        if start != pos:
            break
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            newlines = text.count("\n", start, pos)
            if newlines:
                line += newlines
                bol = text.rindex("\n", start, pos) + 1
        elif kind != "comment":
            tok = m.group()
            if kind == "name" and tok in _REFERENCE_KEYWORDS:
                kind = "kw"
            tokens.append((kind, tok, line, start - bol + 1))
    if pos < len(text):
        return tokens, (f"unexpected character {text[pos]!r}", line,
                        pos - bol + 1)
    tokens.append(("eof", "", line, pos - bol + 1))
    return tokens, None


# ---------------------------------------------------------------------------
# Level checking
# ---------------------------------------------------------------------------

def _subformulas(f, inside=False):
    """(node, inside) for every node of the formula f, in source order,
    inside saying whether the node lies in an implication's antecedent."""
    kind = type(f).__name__
    yield f, inside
    if kind in ("And", "Or", "Imp"):
        yield from _subformulas(f.left, inside or kind == "Imp")
        yield from _subformulas(f.right, inside)
    elif kind in ("Exists", "Forall", "Nabla"):
        yield from _subformulas(f.body, inside)


def _is_level_one(f, one):
    """Does f use ∀ or ⊃, or call a predicate in the set one?"""
    return any(type(g).__name__ in ("Forall", "Imp")
               or type(g).__name__ == "Atom" and g.pred in one
               for g, _ in _subformulas(f))


class LevelOracle:
    """A session of clauses, #level declarations and level checks, each
    check recomputed from everything loaded: the level-1 predicates as a
    least fixed point over all clauses, then the first predicate declared
    level 0 among them, then the first clause with an implication whose
    antecedent is level 1.  levels and warnings are those of the last
    check, as a DefSet keeps them."""

    def __init__(self):
        self.order = ["false"]  # every name, in the order first met
        self.clauses = []  # (pred, body, line), in arrival order
        self.declared = {}
        self.levels = {}
        self.warnings = []

    def _meet(self, name):
        if name not in self.order:
            self.order.append(name)

    def add_clause(self, pred, body, line):
        self._meet(pred)
        for g, _ in _subformulas(body):
            if type(g).__name__ == "Atom":
                self._meet(g.pred)
        self.clauses.append((pred, body, line))

    def declare_level(self, pred, level):
        self._meet(pred)
        self.declared[pred] = level

    def level(self, pred):
        return self.levels.get(pred, 0)

    def check(self):
        """The message of the error a check should raise, or None."""
        one = {p for p, lv in self.declared.items() if lv == 1}
        while True:
            more = {p for p, body, _ in self.clauses
                    if p not in one and _is_level_one(body, one)}
            if not more:
                break
            one |= more
        self.levels = {p: int(p in one) for p in self.order}
        in_order = [c for p in self.order for c in self.clauses if c[0] == p]
        for p in self.order:
            if self.declared.get(p) == 0 and p in one:
                line = next(line for q, body, line in in_order
                            if q == p and _is_level_one(body, one))
                return (f"clause of {p} (line {line}) has a level-1 body "
                        f"but {p} is declared level 0")
        self.warnings = [
            f"predicate {p} occurs in the antecedent of its own definition"
            for p in self.order
            if any(q == p and inside and type(g).__name__ == "Atom"
                   and g.pred == p
                   for q, body, _ in self.clauses
                   for g, inside in _subformulas(body))]
        for p, body, line in in_order:
            nodes = list(_subformulas(body))
            if not any(type(g).__name__ == "Imp" and _is_level_one(g.left, one)
                       for g, _ in nodes):
                continue
            if any(inside and type(g).__name__ in ("Forall", "Imp")
                   for g, inside in nodes):
                why = "it holds a forall or an implication"
            else:
                callee = next(g.pred for g, inside in nodes if inside
                              and type(g).__name__ == "Atom" and g.pred in one)
                why = f"it calls {callee}, which is level 1"
            return (f"clause of {p} (line {line}): the antecedent of an "
                    f"implication must be a level-0 formula, but {why}")
        return None
