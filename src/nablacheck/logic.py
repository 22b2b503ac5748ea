"""Formulas, definitions-as-fixed-points, level checking, and unfolding.

The two-level grammar:

    level 0:  ⊤ | atom | = | ∧ | ∨ | ∃ | ∇
    level 1:  additionally ∀ and (level-0 ⊃ level-1)

A definition clause may use a body only up to the level of its head
predicate, so Level-0 goals never grow an implication or a ∀ by unfolding.

Quantifier bodies share the term language's de Bruijn indices: the variable
bound by ∃/∀/∇ occurs as Bound(k) inside the argument terms of the body,
counting formula binders and term-level λs together.

Clause variables (implicitly ∀-quantified at the clause head) are stored as
ClauseVar placeholder terms.  unfold() maps each one to the term it matches
in the call or to a fresh variable, so two unfolds never share variables,
and yields the clause's compiled body (compile_goal) with that map, copying
nothing.  The prover keeps such an environment with each goal, adds the
values of the formula binders it enters, and builds the arguments of an
atom or an equation from it when it is dispatched.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter, itemgetter
from types import FunctionType

from .errors import IllFormedFormula, LevelError
from .nodes import (
    App, Bound, ClauseVar, Const, EigenVar, Lam, LogicVar, NablaIndex, Term,
    Var, app,
)
from .terms import deref, has_unbound_logic_var, normalize
from .unify import bind, fits, is_flex, undo_to, unify


# ---------------------------------------------------------------------------
# Formula syntax
# ---------------------------------------------------------------------------

class Formula:
    __slots__ = ()


class Top(Formula):
    __slots__ = ()

    def __repr__(self):
        return "Top"


class Atom(Formula):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args=()):
        self.pred = pred
        self.args = tuple(args)

    def __repr__(self):
        return f"Atom({self.pred}, {list(self.args)})"


class Eq(Formula):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        return f"Eq({self.lhs!r}, {self.rhs!r})"


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return f"And({self.left!r}, {self.right!r})"


class Or(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return f"Or({self.left!r}, {self.right!r})"


class Imp(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return f"Imp({self.left!r}, {self.right!r})"


class _Binder(Formula):
    __slots__ = ("name", "body")

    def __init__(self, name: str, body: Formula):
        self.name = name
        self.body = body

    def __repr__(self):
        return f"{type(self).__name__}({self.name}, {self.body!r})"


class Exists(_Binder):
    __slots__ = ()


class Forall(_Binder):
    __slots__ = ()


class Nabla(_Binder):
    __slots__ = ()


# ---------------------------------------------------------------------------
# Goal compilation
# ---------------------------------------------------------------------------

# Compiled goals.  A record is a tuple (tag, formula, scope, x, y): the
# formula it was compiled from, the keys of the formula binders around it
# as a chain (key, outer), innermost first, or (), and per tag: an atom's
# Definition and argument builders, an equation's two builders, the two
# sides' records of ∧, ∨ and ⊃, or a binder's key and its body's record.
ATOM, AND, EQ, EXISTS, OR, TOP, NABLA, FORALL, IMP = range(9)
_TAG = {Atom: ATOM, And: AND, Eq: EQ, Exists: EXISTS, Or: OR, Top: TOP,
        Nabla: NABLA, Forall: FORALL, Imp: IMP}
# Argument builders, (kind, x): KEY reads env[x], TERM is the inert term x,
# REST closes x over env with replace_clause_vars, and APP, an atom's
# argument c X1 … Xn only, applies c to the values of the keys x[1].
KEY, TERM, REST, APP = range(4)
_INERT = attrgetter("inert")
_LEVEL = attrgetter("level")


class _Keyed(dict):
    """replace_clause_vars' env and slots at compile time: a clause variable
    stays, a binder i places out becomes a clause variable named by its key."""

    def __init__(self, outer):
        self.outer = outer  # the binders' keys, outermost first

    def __missing__(self, k):
        return ClauseVar(k if type(k) is str else self.outer[-1 - k])


def _builders(ts, keys, atom=False):
    """The builders of the terms ts, inside the binders whose keys are
    keys; for an atom's arguments, APP where it applies, and in place of
    the tuple an itemgetter when every one reads env, or them as a list."""
    if atom and all(map(_INERT, ts)):
        return list(ts)
    out = []
    for t in ts:
        tt = type(t)
        if t.inert:
            out.append((TERM, t))
        elif tt is ClauseVar:
            out.append((KEY, t.name))
        elif tt is Bound:
            out.append((KEY, keys[-1 - t.index]))
        elif atom and tt is App and type(t.head) is Const and all(
                type(a) is ClauseVar or type(a) is Bound for a in t.args):
            out.append((APP, (t.head, tuple([
                a.name if type(a) is ClauseVar else keys[-1 - a.index]
                for a in t.args]))))
        else:
            out.append((REST, replace_clause_vars(t, _Keyed(keys),
                                                  _Keyed(keys))))
    if (atom and len(out) > 1 and out[0][0] == KEY
            and all(kind == KEY for kind, _ in out)):
        return itemgetter(*[x for _, x in out])
    return tuple(out)


def compile_goal(f, defs, warn=None):
    """(level, record): f's level, the least (0 or 1) whose grammar
    generates it, an atom counting at its Definition's level, and f
    compiled, in one walk.  A name defs lacks becomes an empty Definition,
    the definition of a predicate with no clauses, so its goals fail as
    false's do.  An implication whose antecedent is not level 0 raises
    IllFormedFormula.  With warn, warn gets, sorted, each name f calls
    that has no clause, table mode or declared level, false aside.

    Each formula binder in f gets a key of its own, 0, 1, ... in walk order;
    entering it stores its value under that key in the goal's environment,
    beside the clause variables', and an index reaching it reads that key.
    A binder is entered again only after backtracking past every goal that
    read its value, so the environment grows in place, as a WAM frame holds
    its permanent variables, and nothing is copied.  An atom's record holds
    its callee's Definition.  The walk is terms.py's, left to right.
    """
    unknown = []  # with warn, the names f calls that nothing defines
    ill = False
    keys = []  # the keys of the binders around g, outermost first
    scope = ()
    count = 0  # the binders met so far
    todo = [f]
    done = []  # (level, record) of each formula walked
    while todo:
        g = todo.pop()
        tg = type(g)
        x = y = None
        if tg is tuple:  # the parts of g[0] are done
            g = g[0]
            tg = type(g)
            lv, y = done.pop()
            if tg is And or tg is Or or tg is Imp:
                left, x = done.pop()
                ill = ill or (tg is Imp and left != 0)
                lv = 1 if tg is Imp else max(lv, left)
            else:  # a binder: y is its body
                x = keys.pop()
                scope = scope[1]
                lv = 1 if tg is Forall else lv
        elif tg is Atom:
            x = defs.get(g.pred)
            if x is None:
                x = defs[g.pred] = Definition(g.pred)
            if warn is not None and not x.clauses and x.table_mode is None \
                    and x.declared_level is None and g.pred != "false":
                unknown.append(g.pred)
            lv = x.level
            y = _builders(g.args, keys, True)
        elif tg is Eq:
            lv = 0
            x, y = _builders((g.lhs, g.rhs), keys)
        elif tg is Top:
            lv = 0
        elif tg is And or tg is Or or tg is Imp:
            todo += ((g,), g.right, g.left)
            continue
        elif tg is Exists or tg is Forall or tg is Nabla:
            keys.append(count)
            scope = (count, scope)
            count += 1
            todo += ((g,), g.body)
            continue
        else:
            raise TypeError(f"not a formula: {g!r}")
        done.append((lv, (_TAG[tg], g, scope, x, y)))
    for p in sorted(set(unknown)) if unknown else ():
        warn(p)
    if ill:
        raise IllFormedFormula(
            "the antecedent of an implication must be a level-0 formula")
    return done[0]


# ---------------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------------

class Clause:
    """One definition clause: head arguments, body and clause variables.

    var_names lists the clause variables in order of first appearance,
    head before body.  plan is the head plan, one step per head argument,
    each one of

    - _CONST, an inert term: a constant, or a constant applied to inert
      terms;
    - _FIRST, the first occurrence in the head of a clause variable;
    - _VALUE, a later occurrence of a clause variable;
    - a _Struct step, any other redex-free application c P1 … Pn with a
      constant head, holding one step per field, built the same way, so
      s (s N) and X::Y::L nest;
    - _OTHER, anything else (a λ, an application with a variable head, a
      term with a β-redex).

    Occurrences are counted left to right and depth first, the order the
    walk visits them.  The plan, and match, the clause's head matcher
    compiled from it (_matcher), are built when the clause joins its
    definition's index, at the first unfold after it arrived, so loading a
    file does not pay for it; a clause whose first step is _CONST or a
    _Struct is keyed by that argument's head constant.  So is sieve: the
    first head argument is a _Struct step whose fields meet a _CONST or
    _Struct step before any _VALUE or _OTHER one.
    The index tells clauses apart by the first argument's head constant
    only, and sieve marks the ones an inert first argument can still rule
    out below it (_rules_out), as s z rules out fib (s (s N)).  The plan
    and every walk over it keep their place on explicit stacks.

    code, the body compiled against the Definitions of the DefSet that made
    the clause (compile_goal), is built with the plan, inside a query whose
    level check has passed, and like it once: its atoms name Definitions,
    whose clauses, levels and table modes the prover reads at dispatch.

    calls, ante and own, the facts the level check reads, are set by the
    one walk over the body, on arrival (DefSet._read_body): the Definitions
    it calls, as dict keys in source order; those it calls inside an
    antecedent, likewise; and 1 when it has a ∀ or ⊃ of its own, 2 when one
    sits inside an antecedent, where no levels make it well formed, else 0.
    """

    __slots__ = ("head_args", "body", "var_names", "line", "plan", "sieve",
                 "match", "code", "calls", "ante", "own")

    def __init__(self, head_args, body, var_names, line=None):
        self.head_args = tuple(head_args)
        self.body = body
        self.var_names = tuple(var_names)
        self.line = line


class Definition:
    """The clauses of one predicate, with a first-argument index per arity.

    A clause is keyed by the constant name c when its first head argument
    is the constant c, or an application headed by c that contains no
    β-redex; every other clause (first argument a clause variable, a
    flexible application, a λ or a redex, or no argument at all) is open.
    The index holds, per arity, the clauses of that arity and a map from
    each key c to those keyed c or open, in source order, with the open
    clauses alone for names no clause is keyed by; a call meets only its
    own arity.  The index is kept for good and grows as clauses arrive:
    DefSet.add_clause() puts each new clause on _new, and the next unfold()
    prepares those (see Clause) and appends each to its arity's buckets in
    source order (_index_new), so loading does no extra work, and a clause
    that arrives after queries have run, from an #include or between
    assertions, costs what it would have cost at the start.
    """

    __slots__ = (
        "pred", "clauses", "declared_level", "level", "table_mode", "_index",
        "_new",
    )

    def __init__(self, pred):
        self.pred = pred
        self.clauses = []
        self.declared_level = None
        self.level = 0
        self.table_mode = None  # None | "inductive" | "coinductive"
        self._index = {}  # arity -> (key -> clauses, open clauses, clauses)
        self._new = []  # the clauses the index does not hold yet


def _redex_free(t):
    stack = [t]
    while stack:
        u = stack.pop()
        tu = type(u)
        if tu is Lam:
            stack.append(u.body)
        elif tu is App and not u.inert:
            if type(u.head) is Lam:
                return False
            stack.append(u.head)
            stack.extend(u.args)
    return True


_CONST, _FIRST, _VALUE, _OTHER = "const", "first", "value", "other"


class _Struct:
    """Head-plan step for a redex-free application c P1 … Pn: one step per
    field.  writable says the fields hold only inert terms, clause
    variables and such applications, so the pattern can be built for an
    unbound variable without unify (_build)."""

    __slots__ = ("steps", "writable")

    def __init__(self, steps):
        self.steps = steps
        self.writable = all(
            s is not _OTHER and (type(s) is not _Struct or s.writable)
            for s in steps
        )


def _head_plan(clause):
    """One step per head argument (see Clause), built as terms.py's walkers
    build a term.  seen collects the clause variables met so far in the
    order unfold walks the plan, so a _FIRST step is the first occurrence
    that walk meets."""
    seen = set()
    todo = list(clause.head_args[::-1])
    done = []
    inside = 0  # the _Struct steps open around the pattern visited
    while todo:
        pat = todo.pop()
        tp = type(pat)
        if tp is tuple:  # the fields of pat[0] are done
            m = len(done) - len(pat[0].args)
            done[m:] = [_Struct(tuple(done[m:]))]
            inside -= 1
        elif pat.inert:
            done.append(_CONST)
        elif tp is ClauseVar:
            if pat.name in seen:
                done.append(_VALUE)
            else:
                seen.add(pat.name)
                done.append(_FIRST)
        elif tp is App and type(pat.head) is Const and (
                inside or _redex_free(pat)):
            # The fields of a redex-free application are redex-free too.
            inside += 1
            todo.append((pat,))
            todo.extend(pat.args[::-1])
        else:
            seen.update(_clause_var_names(pat))
            done.append(_OTHER)
    return tuple(done)


def _clause_var_names(t):
    stack = [t]
    while stack:
        u = stack.pop()
        tu = type(u)
        if tu is ClauseVar:
            yield u.name
        elif tu is Lam:
            stack.append(u.body)
        elif tu is App and not u.inert:
            stack.append(u.head)
            stack.extend(u.args)


def _index_new(defn, defs):
    """Prepare each clause that arrived since the last unfold (see Clause)
    and append it, in source order, to its arity's buckets in defn's
    index (see Definition)."""
    index = defn._index
    for clause in defn._new:
        clause.code = compile_goal(clause.body, defs)[1]
        plan = clause.plan = _head_plan(clause)
        clause.match = _matcher(clause)
        steps = plan[0].steps if plan and type(plan[0]) is _Struct else ()
        step = next((s for s in steps if s is not _FIRST), _OTHER)
        clause.sieve = step is not _VALUE and step is not _OTHER
        keyed, open_, all_ = index.setdefault(
            len(clause.head_args), ({}, [], []))
        all_.append(clause)
        key = None
        if plan and (plan[0] is _CONST or type(plan[0]) is _Struct):
            first = clause.head_args[0]
            key = first.name if type(first) is Const else first.head.name
        if key is None:
            open_.append(clause)
            for bucket in keyed.values():
                bucket.append(clause)
        else:
            bucket = keyed.get(key)
            if bucket is None:
                bucket = keyed[key] = list(open_)
            bucket.append(clause)
    defn._new = []


class DefSet:
    """All definitions of a session, with level inference and checks.

    Every predicate name that appears anywhere in loaded input or in a
    query (head, body, assertion, directive, goal) is registered here,
    including ones that never get a clause: those unfold to the empty
    stream, which is how `false` works.  A query registers the names it
    calls as it compiles (compile_goal), so a typo reads as a goal that
    fails, for every caller.

    changed logs each clause and table mode that arrived, in order, as
    (Definition, Clause or None); callers maps each name to the predicates
    whose clause bodies call it.  From both the engine finds the tables a
    change may have made stale (tabling.py); check() reads changed too.
    """

    def __init__(self):
        self.defs: dict[str, Definition] = {}
        self.warnings: list[str] = []
        self.changed: list[tuple] = []
        self.callers: dict[str, set] = {}
        # What check() has not seen yet: the arrivals in changed from
        # _seen on and the names of #level declarations that arrived since
        # it last passed, and whether it must start over (full).
        self._seen = 0
        self._declared = []
        self._full = False
        self._warned = set()  # the predicates warnings name
        self.error = None  # the text of the error the last check raised
        # The canonical empty predicate: `g => false` is how negation is
        # written, so it is predeclared with no clauses.
        self.ensure("false")

    def ensure(self, pred) -> Definition:
        d = self.defs.get(pred)
        if d is None:
            d = Definition(pred)
            self.defs[pred] = d
        return d

    def add_clause(self, pred, head_args, body, var_names, line=None):
        """Give pred a clause, last in source order; the next unfold of
        pred adds it to the index (see Definition)."""
        d = self.ensure(pred)
        c = Clause(head_args, body, var_names, line)
        d.clauses.append(c)
        d._new.append(c)
        self.changed.append((d, c))
        self._read_body(pred, c)

    def _read_body(self, pred, c):
        """The one walk over the body of pred's new clause c: set its facts
        (see Clause), register each name it calls and record pred among
        that name's callers."""
        defs = self.defs
        calls = {}
        ante = {}
        own = 0
        inside = 0  # the antecedents around the node visited
        todo = [c.body]
        while todo:
            g = todo.pop()
            tg = type(g)
            if tg is Atom:
                e = defs.get(g.pred) or self.ensure(g.pred)
                calls[e] = None
                if inside:
                    ante[e] = None
            elif tg is And or tg is Or:
                todo += (g.right, g.left)
            elif tg is Imp:  # None ends the antecedent, which is walked first
                own = 2 if inside else own or 1
                inside += 1
                todo += (g.right, None, g.left)
            elif tg is Exists or tg is Forall or tg is Nabla:
                if tg is Forall:
                    own = 2 if inside else own or 1
                todo.append(g.body)
            elif g is None:
                inside -= 1
        c.calls, c.ante, c.own = calls, ante, own
        for e in calls:
            self.callers.setdefault(e.pred, set()).add(pred)

    def declare_level(self, pred, level):
        if level not in (0, 1):
            raise LevelError(f"level of {pred} must be 0 or 1, not {level}")
        d = self.ensure(pred)
        if d.declared_level == 1 and level == 0:
            self._full = True  # levels may fall, which only a new start finds
        d.declared_level = level
        self._declared.append(pred)

    def set_table(self, pred, mode):
        if mode not in ("inductive", "coinductive"):
            raise LevelError(f"unknown table mode: {mode}")
        d = self.ensure(pred)
        d.table_mode = mode
        self.changed.append((d, None))

    def affected(self, names):
        """names and the names whose definitions reach one of them through
        clause bodies: a walk over callers from names only."""
        seen = set(names)
        todo = list(seen)
        while todo:
            new = self.callers.get(todo.pop(), set()) - seen
            seen |= new
            todo.extend(new)
        return seen

    def check(self):
        """Infer levels, verify clause bodies fit their heads, gather warnings.

        A predicate is level 1 when it is declared so, when a clause of its
        own has a ∀ or an implication, or when a clause calls a level-1
        predicate; so the level-1 predicates are those that reach one of the
        first two kinds through clause bodies.  A predicate declared level 0
        among them is an error, reported for the first such predicate in
        load order; so is a clause whose antecedent is not level 0.

        Only what arrived since the last check that passed is looked at,
        through the facts each clause got on arrival (Clause).  Levels only
        rise as clauses arrive, so level 1 spreads from the new clauses and
        declarations that are level 1, the calls of level-1 predicates
        included, up callers, and stops at predicates already level 1, whose
        callers are.  The strict pass, which needs every antecedent at level
        0, runs on the new clauses and on the clauses of the callers of each
        predicate that rose.  After a check that failed, or a #level 0 over
        a #level 1, levels may have to fall, and the next check starts over
        from every clause.  Each check that passes reports what a check of
        everything would.  The text of the error a check raises stays in
        error until a check passes.
        """
        changed = self.changed
        if self._seen == len(changed) and not (self._declared or self._full):
            return
        defs = self.defs
        declared = self._declared
        if self._full:  # every clause is in changed
            for d in defs.values():
                d.level = 0
            declared = [p for p, d in defs.items()
                        if d.declared_level is not None]
        fresh = [(d, c) for d, c in changed[0 if self._full else self._seen:]
                 if c is not None]
        self._full = True  # until this check passes
        todo = [p for p in declared if defs[p].declared_level == 1]
        todo += [d.pred for d, c in fresh if d.level == 0
                 and (c.own or 1 in map(_LEVEL, c.calls))]
        raised = []
        while todo:
            d = defs[todo.pop()]
            if d.level == 0:
                d.level = 1
                raised.append(d.pred)
                todo.extend(self.callers.get(d.pred, ()))
        clash = {p for p in raised + declared
                 if defs[p].declared_level == 0 and defs[p].level}
        if clash:
            d = next(d for d in defs.values() if d.pred in clash)
            c = next(c for c in d.clauses
                     if c.own or 1 in map(_LEVEL, c.calls))
            self.error = (f"clause of {d.pred} (line {c.line}) has a level-1 "
                          f"body but {d.pred} is declared level 0")
            raise LevelError(self.error)
        # Name negation through recursion before the strict pass rejects
        # the clause: its predicate has an implication, so is level 1.
        new = {d.pred for d, c in fresh
               if d.pred not in self._warned and d in c.ante}
        if new:
            self._warned |= new
            self.warnings = [
                f"predicate {p} occurs in the antecedent of its own "
                "definition" for p in defs if p in self._warned]
        # Final strict pass: antecedents must have settled at level 0.
        recheck = {q for p in raised for q in self.callers.get(p, ())}
        clauses = [c for _, c in fresh]
        clauses += [c for q in recheck for c in defs[q].clauses]
        ill = {c for c in clauses if c.own == 2 or 1 in map(_LEVEL, c.ante)}
        if ill:
            d, c = next((d, c) for d in defs.values() for c in d.clauses
                        if c in ill)
            why = ("it holds a forall or an implication" if c.own == 2 else
                   f"it calls {next(e.pred for e in c.ante if e.level)}, "
                   "which is level 1")
            self.error = (f"clause of {d.pred} (line {c.line}): the antecedent "
                          f"of an implication must be a level-0 formula, but "
                          f"{why}")
            raise LevelError(self.error)
        self._seen = len(changed)
        self.error = None
        self._declared = []
        self._full = False


# ---------------------------------------------------------------------------
# Unfolding
# ---------------------------------------------------------------------------

def replace_clause_vars(t, env, slots=(), depth=0):
    """Close a stored term: each clause variable becomes its value in env,
    and Bound(k) with k >= depth, an index that passes the depth binders
    enclosing t and reaches a formula binder, becomes that binder's value
    slots[k - depth] (innermost first; compiled terms read binders from env
    by key instead).  Values are closed, so nothing is shifted.  The walk is
    terms.py's, but builds every node that is not inert anew."""
    tt = type(t)
    if tt is ClauseVar:
        return env[t.name]
    if tt is Bound:
        return slots[t.index - depth] if t.index >= depth else t
    if t.inert:
        return t
    todo = [t]
    done = []
    while todo:
        t = todo.pop()
        tt = type(t)
        if tt is tuple:
            t = t[0]
            if type(t) is Lam:
                depth -= 1
                done[-1] = Lam(done[-1], t.hint)
            else:
                m = len(done) - len(t.args)  # the head is done[m - 1]
                done[m - 1:] = [app(done[m - 1], done[m:])]
        elif tt is App and not t.inert:
            todo.append((t,))
            todo.extend(t.args[::-1])
            todo.append(t.head)
        elif tt is ClauseVar:
            done.append(env[t.name])
        elif tt is Lam:
            todo.append((t,))
            depth += 1
            todo.append(t.body)
        elif tt is Bound and t.index >= depth:
            done.append(slots[t.index - depth])
        else:
            done.append(t)
    return done[0]


def replace_clause_vars_formula(f, env, slots=(), depth=0):
    """Close a stored formula as replace_clause_vars closes a term, each
    formula binder inside f counting in depth.  The prover closes only an
    implication's antecedent this way, and each --trace line.  The walk is
    the term walkers' (terms.py), each connective and binder rebuilt at its
    marker, so no binder prefix or connective chain costs interpreter stack.
    """
    todo = [f]
    done = []
    while todo:
        f = todo.pop()
        tf = type(f)
        if tf is tuple:
            f = f[0]
            tf = type(f)
            if tf is And or tf is Or or tf is Imp:
                right = done.pop()
                done[-1] = tf(done[-1], right)
            else:
                depth -= 1
                done[-1] = tf(f.name, done[-1])
        elif tf is Atom:
            done.append(Atom(f.pred, tuple(
                [replace_clause_vars(a, env, slots, depth) for a in f.args])))
        elif tf is Eq:
            done.append(Eq(replace_clause_vars(f.lhs, env, slots, depth),
                           replace_clause_vars(f.rhs, env, slots, depth)))
        elif tf is And or tf is Or or tf is Imp:
            todo.append((f,))
            todo.append(f.right)
            todo.append(f.left)
        elif tf is Exists or tf is Forall or tf is Nabla:
            todo.append((f,))
            depth += 1
            todo.append(f.body)
        else:
            done.append(f)
    return done[0]


def closes_ground(f, env, slots=()):
    """Would replace_clause_vars_formula(f, env, slots) hold no unbound
    logic variable?  Each value is read where it is, nothing is built, and
    an index bound inside f reads nothing, so env's stale values under the
    keys of binders inside f are never read."""
    todo = [f]
    depth = 0  # the λs and binders of f around the node visited
    while todo:
        t = todo.pop()
        tt = type(t)
        if t is None:  # the end of a binder's scope
            depth -= 1
        elif tt is ClauseVar or tt is Bound and t.index >= depth:
            if has_unbound_logic_var(env[t.name] if tt is ClauseVar
                                     else slots[t.index - depth]):
                return False
        elif tt is Atom or tt is App and not t.inert:
            todo += t.args if tt is Atom else (t.head, *t.args)
        elif tt is Lam or tt is Exists or tt is Forall or tt is Nabla:
            depth += 1
            todo += (None, t.body)
        elif tt is Eq or tt is And or tt is Or or tt is Imp:
            todo += (t.lhs, t.rhs) if tt is Eq else (t.left, t.right)
        elif isinstance(t, Var) and has_unbound_logic_var(t):
            return False
    return True


def unfold(defn, args, st, left=False):
    """Yield (body, env, last) for each clause of the Definition defn whose
    head matches a call with these arguments: the clause's compiled body
    itself (Clause.code), uncopied, the environment mapping each of its
    clause variables to its value, and whether the clause is the last
    candidate, so that no later clause of the call's arity is left to try.
    Trailing clauses that the call's inert arguments rule out before
    anything is bound (_rules_out, tried on the clauses Clause.sieve marks)
    do not count and are not tried: they would fail without a trace.

    Clauses are tried in source order, only those of the call's arity in
    the definition's index, which first takes in the clauses that arrived
    since the last unfold.  When some clause of that arity is keyed, the
    first argument is normalized as unify would see it, unless it is
    normal (nodes.py), so a normalization error surfaces where trying that
    clause would raise it, and if its head is a constant only the clauses
    keyed by that name or open take part.  A clause skipped this way is exactly one whose head
    unification would return FAILURE at the rigid-rigid head-name check:
    its first head argument is a redex-free term headed by another
    constant, so its normalization cannot fail and unification cannot
    raise NonPatternError before that check.  Every clause is matched
    against that first argument, so it is normalized at most once per
    unfold, not once per clause, and a list with a variable tail, being
    normal, not at all.

    Each clause's matcher takes its head plan's steps (see Clause) left
    to right, fields depth first, and each does what renaming the clause
    apart and unifying would do.  A value that is not normal is normalized
    first, as unify would; a normal one is taken as it is.

    - An inert pattern meets an inert argument, or an application
      normalized as unify would see it that is then inert, by identity
      (equal inert terms are one node, nodes.py), and an unbound
      instantiable variable by binding it to the pattern itself on the
      trail; a rigid eigenvariable or a ∇-index fails the clause.
    - The first occurrence of a clause variable takes any normal argument
      other than a λ whose local and ∇ bounds fit the current ∇ depth as
      its value: a fresh variable made now would be bound to exactly that
      term.  (unify binds a variable to a λ's η-expansion, whose binders
      print under other names.)
    - A later occurrence meets the value taken before: two inert terms
      by identity, an inert term and an unbound
      instantiable variable, on either side, by binding the variable.
    - c P1 … Pn, in read mode, meets an application with a constant head
      by comparing the head constant and the arity and then matching the
      fields in order with the field steps: the order in which
      unify._unify takes two rigid applications' arguments, so the first
      failure and any error come from the same field as before.  In write
      mode it meets an unbound instantiable variable a, if the fields hold
      only constants, clause variables and such applications, by binding
      a to c Y1 … Yn (_build): a new variable, of the kind fresh variables
      have, for each first occurrence, at a's global level and the lesser
      of a's local level and the ∇ depth, the levels unify's pruning step
      gives, and for each later occurrence its value, when that fits a's
      levels or is one of the new variables.  A constant, a rigid
      eigenvariable, a ∇-index or an application with a rigid head other
      than c fails the clause.
    - Anything else (a λ, a flexible application, a later occurrence
      where neither side is inert, a value that does not fit in write
      mode, a pattern that is not writable) first makes fresh variables,
      in var_names order, for the clause variables that have no value
      yet, then unifies the renamed pattern with that argument or field,
      so pattern and normalization errors surface as they always did and
      clause variables keep their relative levels.

    Clause variables that occur only in the body become fresh variables
    after the head matched.  Fresh variables are logic variables normally
    and eigenvariables on the left of an implication, where an
    unconstrained premise variable reads universally.  Bindings are undone
    when the clause does not match and when the consumer moves on to the
    next clause, not when the generator is dropped: a consumer that stops
    early restores its own checkpoint, so the prover may drop the
    generator once the last candidate is yielded.  The ∇ depth is left to
    the consumer, which restores it with its checkpoint before it resumes
    the generator; matching never moves it.
    Verdicts, answers, their order and step counts are those of renaming
    every clause and unifying each head argument; only the ids of fresh
    variables differ.
    """
    if defn._new:
        _index_new(defn, st.defs.defs)
    entry = defn._index.get(len(args))
    if entry is None:
        return
    keyed, open_, clauses = entry
    first = None
    if keyed:
        first = deref(args[0])
        if not first.normal:
            first = normalize(first, st.norm_budget)
        head = first.head if type(first) is App else first
        if type(head) is Const:
            clauses = keyed.get(head.name, open_)
            if not clauses:
                return
        args = (first, *args[1:])
    fresh = st.fresh_eigen if left else st.fresh_logic
    # The first clause needs no check: none comes before it to be the last.
    last = len(clauses) - 1
    while last > 0:
        clause = clauses[last]
        if not (clause.sieve
                and _rules_out(clause.plan, clause.head_args, args)):
            break
        last -= 1
    final = clauses[last]
    trail = st.trail  # checkpoints taken inline; see engine.State
    mark = len(trail)
    for clause in clauses:
        env = clause.match(args, first, st, left)
        if env is not None:
            if len(env) < len(clause.var_names):
                _fresh_rest(env, clause.var_names, fresh)
            yield clause.code, env, clause is final
        undo_to(trail, mark)
        if clause is final:
            return


# A head matcher is straight-line code: for each plan step, in walk order,
# the lines below, which take the common cases of the walk unfold
# describes on the value {a} met, with deref inline (a binding is None or
# a term, and terms are true), and call a helper for the rest with the
# context c.  P<i>, N<i>, H<i> and T<i> are step i's pattern, variable
# name, head constant and _Struct.  A step inside a _Struct runs only
# while its guard G<i> says the application met is read field by field,
# so the code is flat however deep the head.  It returns env, or None.
_LINES = {
    _CONST: """
    while {a}.binding: {a} = {a}.binding
    if {a} is not P{i} and ({a}.inert or not _step(_CONST, {a}, P{i}, c)):
        return""",
    # An inert term is normal, is no λ and has lbound 0.
    _FIRST: """
    while {a}.binding: {a} = {a}.binding
    if N{i} not in env and {a}.normal and type({a}) is not Lam and (
            {a}.lbound <= st.nabla_depth): env[N{i}] = {a}
    elif not _step(_FIRST, {a}, P{i}, c): return""",
    _VALUE: """
    while {a}.binding: {a} = {a}.binding
    if ({a} is not env[N{i}] or not {a}.inert) and not _step(
            _VALUE, {a}, P{i}, c): return""",
    _OTHER: """
    while {a}.binding: {a} = {a}.binding
    if not _rest(P{i}, {a}, c): return""",
    _Struct: """
    while {a}.binding: {a} = {a}.binding
    if not {a}.normal and {a} is not first:
        {a} = normalize({a}, st.norm_budget)
    if type({a}) is App and {a}.head is H{i} and len({a}.args) == {n}:
        {fields}= {a}.args
        G{i} = True
    elif not _struct({a}, P{i}, T{i}, c): return""",
}


def _matcher(clause):
    """clause's head matcher: the code compiled once per plan shape (the
    arity, then each step in walk order, a _Struct as its arity) with its
    constants as the defaults of the parameters after the four passed."""
    shape = [len(clause.plan)]
    consts = [clause.var_names]
    todo = [*zip(clause.plan, clause.head_args)][::-1]
    while todo:
        step, pat = todo.pop()
        if type(step) is _Struct:
            shape.append(len(step.steps))
            consts += (pat, pat.head, step)
            todo += [*zip(step.steps, pat.args)][::-1]
        else:
            shape.append(step)
            consts += ((pat, pat.name) if step is _FIRST or step is _VALUE
                       else (pat,))
    return FunctionType(_compile(tuple(shape)), globals(), "match",
                        tuple(consts))


@cache
def _compile(shape):
    """The code of the head matchers of plans of this shape (_matcher)."""
    params = ["args, first, st, left, var_names"]
    todo = [(f"A{j}", None) for j in range(shape[0] - 1, -1, -1)]
    unpack = "".join(f"A{j}, " for j in range(shape[0]))
    body = ["    env = {}", "    c = first, env, st, left, var_names",
            f"    {unpack}= args" if unpack else ""]
    for i, step in enumerate(shape[1:]):
        v, g = todo.pop()
        params.append(f"P{i}")
        kind, fields = step, ""
        if type(step) is int:
            kind, fields = _Struct, "".join(f"F{i}_{j}, " for j in range(step))
            todo += [(f"F{i}_{j}", f"G{i}") for j in range(step - 1, -1, -1)]
            params += (f"H{i}", f"T{i}")
            body.append(f"    G{i} = False")
        elif step is _FIRST or step is _VALUE:
            params.append(f"N{i}")
        lines = _LINES[kind].format(a=v, i=i, n=step, fields=fields)
        body.append(f"    if {g}:" + lines.replace("\n", "\n    ") if g
                    else lines)
    scope = {}
    exec(f"def match({', '.join(params)}):\n" + "\n".join(body)
         + "\n    return env", globals(), scope)
    return scope["match"].__code__


def _step(step, a, pat, c):
    """The rest of a _CONST, _FIRST or _VALUE step on the value a, which
    the matcher has not taken as it is (see unfold)."""
    first, env, st, left, _ = c
    if not a.normal and a is not first:
        a = normalize(a, st.norm_budget)
    ta = type(a)
    if step is _CONST:
        if ta is LogicVar or left and ta is EigenVar:
            bind(a, pat, st.trail)
            return True
        if ta is App and a.normal and not a.inert:
            # Read as it is above; its bindings may make it inert.
            a = normalize(a, st.norm_budget)
        if a.inert:
            return a is pat
        if ta is EigenVar or ta is NablaIndex:
            return False
    elif step is _FIRST:
        if pat.name not in env and (a.inert or a.normal and ta is not Lam
                                    and a.lbound <= st.nabla_depth):
            env[pat.name] = a
            return True
    else:
        v = deref(env[pat.name])
        if a.inert and v.inert:
            return a is v
        x, y = (v, a) if a.inert else (a, v)  # bind x, flexible, to y
        if y.inert and is_flex(x, left):
            bind(x, y, st.trail)
            return True
    return _rest(pat, a, c)


def _struct(a, pat, step, c):
    """The rest of a _Struct step, pattern pat, on the value a, which is no
    application of pat's constant to as many arguments."""
    _, env, st, left, _ = c
    ta = type(a)
    if ta is App:
        if not is_flex(a.head, left):
            return False
    elif is_flex(a, left):
        t = _build(step, pat, env, st, left, a) if step.writable else None
        if t is not None:
            bind(a, t, st.trail)
            return True
    elif ta is not Lam:
        return False
    return _rest(pat, a, c)


def _rest(pat, a, c):
    """Make fresh variables, in var_names order, for the clause variables
    that have no value yet, then unify the renamed pattern with a."""
    _, env, st, left, var_names = c
    if len(env) < len(var_names):
        _fresh_rest(env, var_names, st.fresh_eigen if left else st.fresh_logic)
    return unify(replace_clause_vars(pat, env), a, st, instantiate_eigen=left)


def _rules_out(steps, pats, values):
    """Would the matcher fail on these values before it normalizes,
    unifies or binds anything?  True if so; None when the walk reaches a
    step that could do any of that, so only inert values are read; False
    when it passes every step.  A clause ruled out may be skipped with
    nothing lost, and the prover keeps no choice point for it.  The walk
    is the matcher's, on a stack of zip iterators."""
    its = []
    it = zip(steps, pats, values)
    while True:
        for step, pat, value in it:
            a = value if value.binding is None else deref(value)
            if not a.inert or step is _VALUE or step is _OTHER:
                return None
            if step is _CONST:
                if a is not pat:
                    return True
            elif step is not _FIRST:  # a _Struct step
                if (type(a) is not App or a.head is not pat.head
                        or len(a.args) != len(pat.args)):
                    return True
                its.append(it)
                it = zip(step.steps, pat.args, a.args)
                break
        else:
            if not its:
                return False
            it = its.pop()


def _build(step, pat, env, st, left, a):
    """The term unify binds the unbound variable a to when it meets the
    pattern of a writable _Struct step, or None when unify is needed.
    Each first occurrence becomes a new variable at a's global level and
    the lesser of a's local level and the ∇ depth, the levels unify's
    pruning step gives; such a name has no other occurrence yet, so a
    fresh variable made for it before is referenced by env alone and is
    replaced.  A later occurrence stands as its value when that is one of
    these new variables or fits a (unify.fits); any other value returns
    None.  Fields are built left to right on a stack of zip iterators."""
    kind = EigenVar if left else LogicVar
    g = a.global_level
    l = min(a.local_level, st.nabla_depth)
    made = set()  # the names given a new variable here
    its = []  # (iterator, pattern) of the applications suspended
    it = zip(step.steps, pat.args)
    done = []
    while True:
        for sub, p in it:
            if sub is _FIRST:
                p = env[p.name] = st.fresh_at(kind, p.name, g, l)
                made.add(p.name)
            elif sub is _VALUE:
                name = p.name
                p = deref(env[name])
                if name not in made and not fits(p, a):
                    return None
            elif sub is not _CONST:
                its.append((it, pat))
                it = zip(sub.steps, p.args)
                pat = p
                break
            done.append(p)
        else:
            m = len(done) - len(pat.args)
            done[m:] = [App(pat.head, tuple(done[m:]))]
            if not its:
                return done[0]
            it, pat = its.pop()


def _fresh_rest(env, var_names, fresh):
    """Fresh variables, in var_names order, for the clause variables that
    have no value yet."""
    for name in var_names:
        if name not in env:
            env[name] = fresh(name)
