"""Formulas, definitions-as-fixed-points, level checking, and unfolding.

The two-level grammar:

    level 0:  ⊤ | atom | = | ∧ | ∨ | ∃ | ∇
    level 1:  additionally ∀ and (level-0 ⊃ level-1)

A definition clause may use a body only up to the level of its head
predicate, so Level-0 goals never grow an implication or a ∀ by unfolding.

Quantifier bodies share the term language's de Bruijn indices: the variable
bound by ∃/∀/∇ occurs as Bound(k) inside the argument terms of the body,
counting formula binders and term-level λs together.  instantiate() closes
the outermost formula binder with a term.

Clause variables (implicitly ∀-quantified at the clause head) are stored as
ClauseVar placeholder terms; unfold() replaces them by the terms they match
in the call or by fresh variables, so two unfolds never share variables.
"""

from __future__ import annotations

from .errors import IllFormedFormula, LevelError
from .nodes import (
    App, ClauseVar, Const, EigenVar, Lam, LogicVar, NablaIndex, Term, Var, app
)
from .terms import deref, normalize, subst
from .unify import SUCCESS, bind, unify


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


# The formula walkers below follow, in a loop, the child the grammar
# nests on: a binder's body, the left side of the left-associative /\ and
# \/, the right side of the right-associative =>.  They recurse only into
# the other side, so a long prefix of binders or a long chain of one
# connective costs no interpreter stack.  A frame records the node passed
# and, for a connective, its other side's result.


def instantiate(f: Formula, value: Term, depth: int = 0) -> Formula:
    """Close the formula binder at the given depth with a term."""
    frames = None
    while True:
        tf = type(f)
        if tf is Atom:
            f = Atom(f.pred, tuple([subst(a, value, depth) for a in f.args]))
            break
        if frames is None:
            frames = []
        if tf is And or tf is Or:
            frames.append((tf, instantiate(f.right, value, depth)))
            f = f.left
        elif tf is Exists or tf is Forall or tf is Nabla:
            frames.append((tf, f.name))
            depth += 1
            f = f.body
        elif tf is Eq:
            f = Eq(subst(f.lhs, value, depth), subst(f.rhs, value, depth))
            break
        elif tf is Imp:
            frames.append((Imp, instantiate(f.left, value, depth)))
            f = f.right
        else:
            break  # Top stays
    return f if frames is None else _rebuild(f, frames)


def _rebuild(f, frames):
    """Put the nodes a formula walker passed back around its result f."""
    while frames:
        tf, other = frames.pop()
        if tf is And or tf is Or:
            f = tf(f, other)
        elif tf is Imp:
            f = Imp(other, f)
        else:
            f = tf(other, f)
    return f


def formula_terms(f):
    """Yield the argument terms of every atom and equation in f."""
    stack = [f]
    while stack:
        g = stack.pop()
        tg = type(g)
        if tg is Atom:
            for a in g.args:
                yield a
        elif tg is Eq:
            yield g.lhs
            yield g.rhs
        elif tg is And or tg is Or or tg is Imp:
            stack.append(g.left)
            stack.append(g.right)
        elif tg is Exists or tg is Forall or tg is Nabla:
            stack.append(g.body)


def formula_preds(f, acc=None):
    """All predicate names occurring in f."""
    acc = set() if acc is None else acc
    stack = [f]
    while stack:
        g = stack.pop()
        tg = type(g)
        if tg is Atom:
            acc.add(g.pred)
        elif tg is And or tg is Or or tg is Imp:
            stack.append(g.left)
            stack.append(g.right)
        elif tg is Exists or tg is Forall or tg is Nabla:
            stack.append(g.body)
    return acc


def antecedent_preds(f, acc=None):
    """Predicate names occurring inside some implication antecedent of f."""
    acc = set() if acc is None else acc
    stack = [f]
    while stack:
        g = stack.pop()
        tg = type(g)
        if tg is Imp:
            formula_preds(g.left, acc)
            stack.append(g.right)
        elif tg is And or tg is Or:
            stack.append(g.left)
            stack.append(g.right)
        elif tg is Exists or tg is Forall or tg is Nabla:
            stack.append(g.body)
    return acc


# ---------------------------------------------------------------------------
# Level classification
# ---------------------------------------------------------------------------

def classify(f, level_of=None, strict=True) -> int:
    """The least level (0 or 1) whose grammar generates f.

    level_of maps predicate names to their level (missing names count as 0).
    With strict on, an implication whose antecedent is not level 0 raises
    IllFormedFormula; with strict off it is tolerated so level inference can
    iterate to its fixed point before complaining.
    """
    getter = {}.get if level_of is None else level_of.get
    if type(f) is Atom:
        return getter(f.pred, 0)
    # Walked in the order of a left-to-right recursion, on a stack whose
    # entries are a formula, or an implication whose antecedent's level
    # is the last entry of levels.
    levels = [0]  # levels[-1]: the level of the antecedent being walked
    stack = [f]
    while stack:
        g = stack.pop()
        tg = type(g)
        if tg is tuple:  # an antecedent was walked
            if levels.pop() != 0 and strict:
                raise IllFormedFormula(
                    "the antecedent of an implication must be a level-0 formula"
                )
            levels[-1] = 1
            stack.append(g[0].right)
        elif tg is Top or tg is Eq:
            pass
        elif tg is Atom:
            if getter(g.pred, 0):
                levels[-1] = 1
        elif tg is And or tg is Or:
            stack.append(g.right)
            stack.append(g.left)
        elif tg is Exists or tg is Nabla:
            stack.append(g.body)
        elif tg is Forall:
            levels[-1] = 1
            stack.append(g.body)
        elif tg is Imp:
            stack.append((g,))
            stack.append(g.left)
            levels.append(0)
        else:
            raise TypeError(f"not a formula: {g!r}")
    return levels[0]


# ---------------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------------

class Clause:
    """One definition clause: head arguments, body and clause variables.

    var_names lists the clause variables in order of first appearance,
    head before body.  plan is the head plan unfold() walks: one step per
    head argument, each one of

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
    walk visits them.  The plan is built with the definition's index, on
    the first unfold, so loading a file does not pay for it.  So is sieve:
    the first head argument is a _Struct step whose fields meet a _CONST or
    _Struct step before any _VALUE or _OTHER one.  The index tells clauses
    apart by the first argument's head constant only, and sieve marks the
    ones an inert first argument can still rule out below it (_rules_out),
    as s z rules out fib (s (s N)).
    """

    __slots__ = ("head_args", "body", "var_names", "line", "plan", "sieve")

    def __init__(self, head_args, body, var_names, line=None):
        self.head_args = tuple(head_args)
        self.body = body
        self.var_names = tuple(var_names)
        self.line = line
        self.plan = None
        self.sieve = False


class Definition:
    """The clauses of one predicate, with a first-argument index.

    A clause is keyed by the constant name c when its first head argument
    is the constant c, or an application headed by c that contains no
    β-redex; every other clause (first argument a clause variable, a
    flexible application, a λ or a redex, or no argument at all) is open.
    The index maps each key c to the clauses keyed c or open, in source
    order, and keeps the open clauses alone for names no clause is keyed
    by.  candidates() builds it on first use, together with the head plan
    of every clause (see Clause), so loading does no extra work;
    add_clause() drops it, since the REPL can #include more clauses after
    queries have run.
    """

    __slots__ = (
        "pred", "clauses", "declared_level", "level", "table_mode", "_index"
    )

    def __init__(self, pred):
        self.pred = pred
        self.clauses = []
        self.declared_level = None
        self.level = 0
        self.table_mode = None  # None | "inductive" | "coinductive"
        self._index = None  # (key -> clauses, open clauses, arities)

    def add_clause(self, clause):
        self.clauses.append(clause)
        self._index = None

    def candidates(self, args, budget):
        """The clauses whose head can match a call with these arguments,
        and the first argument normalized, or None if it was not.

        The first argument is normalized only when there is one, some clause
        is keyed and some clause has the call's arity, which is exactly when
        trying every clause would normalize it too, so a normalization error
        surfaces where it always did.  A clause left out is keyed by a
        constant other than the head constant of the normalized first
        argument.
        """
        if self._index is None:
            self._index = _build_index(self.clauses)
        keyed, open_, arities = self._index
        if not (keyed and args) or len(args) not in arities:
            return self.clauses, None
        first = deref(args[0])
        if not first.inert:
            first = normalize(first, budget)
        head = first.head if type(first) is App else first
        if type(head) is not Const:
            return self.clauses, first
        return keyed.get(head.name, open_), first


def _clause_key(clause):
    """The constant name a clause is keyed by, or None if it is open."""
    if not clause.head_args:
        return None
    first = clause.head_args[0]
    if type(first) is Const:
        return first.name
    if type(first) is App and type(first.head) is Const and _redex_free(first):
        return first.head.name
    return None


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
    field.  writable says the fields hold only inert terms, first
    occurrences and such applications, so the pattern can be built for an
    unbound variable without unify."""

    __slots__ = ("steps", "writable")

    def __init__(self, steps):
        self.steps = steps
        self.writable = all(
            s is _CONST or s is _FIRST or (type(s) is _Struct and s.writable)
            for s in steps
        )


def _head_plan(clause):
    """One step per head argument (see Clause).  seen collects the clause
    variables met so far in the order unfold walks the plan, so a _FIRST
    step is the first occurrence that walk meets."""
    seen = set()
    return tuple(_step(pat, seen) for pat in clause.head_args)


def _step(pat, seen, redex_free=False):
    """The plan step of one pattern; redex_free says pat lies inside an
    application already found redex-free.  The last field of a _Struct is
    walked in a loop, the others recursively, in order."""
    fields = []  # the steps of all fields but the last, per _Struct passed
    while True:
        if pat.inert:
            step = _CONST
            break
        tp = type(pat)
        if tp is ClauseVar:
            if pat.name in seen:
                step = _VALUE
            else:
                seen.add(pat.name)
                step = _FIRST
            break
        if tp is App and type(pat.head) is Const and (
                redex_free or _redex_free(pat)):
            redex_free = True
            args = pat.args
            fields.append([_step(field, seen, True) for field in args[:-1]])
            pat = args[-1]
            continue
        seen.update(_clause_var_names(pat))
        step = _OTHER
        break
    while fields:
        steps = fields.pop()
        steps.append(step)
        step = _Struct(tuple(steps))
    return step


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


def _build_index(clauses):
    keyed = {}
    open_ = []
    arities = set()
    for clause in clauses:
        if clause.plan is None:
            clause.plan = _head_plan(clause)
            if clause.plan and type(clause.plan[0]) is _Struct:
                for step in clause.plan[0].steps:
                    if step is not _FIRST:
                        clause.sieve = step is not _VALUE and step is not _OTHER
                        break
        arities.add(len(clause.head_args))
        key = _clause_key(clause)
        if key is None:
            open_.append(clause)
            for bucket in keyed.values():
                bucket.append(clause)
        else:
            bucket = keyed.get(key)
            if bucket is None:
                bucket = keyed[key] = list(open_)
            bucket.append(clause)
    return keyed, open_, arities


class DefSet:
    """All definitions of a session, with level inference and checks.

    Every predicate name that appears anywhere in loaded input (head, body,
    assertion, directive) is registered here, including ones that never get
    a clause: those unfold to the empty stream, which is how `false` works.
    Unregistered names are rejected at query time as probable typos.
    """

    def __init__(self):
        self.defs: dict[str, Definition] = {}
        self.warnings: list[str] = []
        self._checked = False
        # The canonical empty predicate: `g => false` is how negation is
        # written, so it is predeclared with no clauses.
        self.ensure("false")

    def ensure(self, pred) -> Definition:
        d = self.defs.get(pred)
        if d is None:
            d = Definition(pred)
            self.defs[pred] = d
        return d

    def known(self, pred) -> bool:
        return pred in self.defs

    def register_formula(self, f):
        for p in formula_preds(f):
            self.ensure(p)

    def add_clause(self, pred, head_args, body, var_names, line=None):
        self.ensure(pred).add_clause(Clause(head_args, body, var_names, line))
        self.register_formula(body)
        self._checked = False

    def declare_level(self, pred, level):
        if level not in (0, 1):
            raise LevelError(f"level of {pred} must be 0 or 1, not {level}")
        self.ensure(pred).declared_level = level
        self._checked = False

    def set_table(self, pred, mode):
        if mode not in ("inductive", "coinductive"):
            raise LevelError(f"unknown table mode: {mode}")
        self.ensure(pred).table_mode = mode

    def level(self, pred) -> int:
        return self.defs[pred].level if pred in self.defs else 0

    def levels(self) -> dict:
        return {p: d.level for p, d in self.defs.items()}

    def check(self):
        """Infer levels, verify clause bodies fit their heads, gather warnings.

        Level inference runs the obvious fixed point: levels start at the
        declared value (or 0) and only ever grow, so at most two passes
        change anything.
        """
        if self._checked:
            return
        for d in self.defs.values():
            d.level = d.declared_level if d.declared_level is not None else 0
        changed = True
        while changed:
            changed = False
            lv = self.levels()
            for d in self.defs.values():
                for c in d.clauses:
                    body_level = classify(c.body, lv, strict=False)
                    if body_level > d.level:
                        if d.declared_level is not None:
                            raise LevelError(
                                f"clause of {d.pred} (line {c.line}) has a level-"
                                f"{body_level} body but {d.pred} is declared level "
                                f"{d.declared_level}"
                            )
                        d.level = body_level
                        changed = True
        # Diagnose negation-through-recursion before the strict pass gets a
        # chance to reject the clause for level reasons: the warning is the
        # useful half of that error message.
        self.warnings = []
        for d in self.defs.values():
            for c in d.clauses:
                if d.pred in antecedent_preds(c.body):
                    self.warnings.append(
                        f"predicate {d.pred} occurs in the antecedent of its own "
                        "definition; stratification is not checked"
                    )
                    break
        # Final strict pass: antecedents must have settled at level 0.
        lv = self.levels()
        for d in self.defs.values():
            for c in d.clauses:
                try:
                    classify(c.body, lv, strict=True)
                except IllFormedFormula as e:
                    raise LevelError(
                        f"clause of {d.pred} (line {c.line}): {e}"
                    ) from None
        self._checked = True


# ---------------------------------------------------------------------------
# Unfolding
# ---------------------------------------------------------------------------

def replace_clause_vars(t, env):
    """Substitute clause-variable placeholders; fresh vars are λ-closed, so
    no index shifting is needed.  λ bodies and last arguments are walked in
    a loop."""
    tt = type(t)
    if tt is ClauseVar:
        return env[t.name]
    frames = None
    while True:
        if tt is App:
            if t.inert:
                break
            args = t.args
            head = t.head
            if type(head) is ClauseVar:
                head = env[head.name]
            elif type(head) is Lam:
                head = replace_clause_vars(head, env)
            if frames is None:
                frames = []
            frames.append(
                (head, [replace_clause_vars(a, env) for a in args[:-1]]))
            t = args[-1]
        elif tt is Lam:
            if frames is None:
                frames = []
            frames.append(t.hint)
            t = t.body
        else:
            if tt is ClauseVar:
                t = env[t.name]
            break
        tt = type(t)
    if frames is None:
        return t
    while frames:
        fr = frames.pop()
        if type(fr) is tuple:
            head, args = fr
            args.append(t)
            t = app(head, args)
        else:
            t = Lam(t, fr)
    return t


def replace_clause_vars_formula(f, env):
    frames = None
    while True:
        tf = type(f)
        if tf is Atom:
            f = Atom(f.pred,
                     tuple([replace_clause_vars(a, env) for a in f.args]))
            break
        if frames is None:
            frames = []
        if tf is And or tf is Or:
            frames.append((tf, replace_clause_vars_formula(f.right, env)))
            f = f.left
        elif tf is Exists or tf is Forall or tf is Nabla:
            frames.append((tf, f.name))
            f = f.body
        elif tf is Eq:
            f = Eq(replace_clause_vars(f.lhs, env),
                   replace_clause_vars(f.rhs, env))
            break
        elif tf is Imp:
            frames.append((Imp, replace_clause_vars_formula(f.left, env)))
            f = f.right
        else:
            break
    return f if frames is None else _rebuild(f, frames)


def unfold(pred, args, st, left=False):
    """Yield the body instance of each clause whose head matches the atom,
    paired with whether the clause is the last candidate, so that no later
    clause of the call's arity is left to try.  Trailing clauses that the
    call's inert arguments rule out before anything is bound (_rules_out,
    tried on the clauses Clause.sieve marks) do not count and are not
    tried: they would fail without a trace.

    Clauses are tried in source order, only the candidates of the
    definition's first-argument index.  The first argument is normalized
    as unify would see it, and if its head is a constant only the clauses
    keyed by that name or open take part.  A clause skipped this way is
    exactly one whose head unification would return FAILURE at the
    rigid-rigid head-name check: its first head argument is a redex-free
    term headed by another constant, so its normalization cannot fail and
    unification cannot raise NonPatternError before that check.  Every
    clause is matched against that normalized first argument, so it is
    normalized once per unfold, not once per clause.

    Each clause's head plan (see Clause) is walked left to right, fields
    depth first, and each step does what renaming the clause apart and
    unifying would do:

    - an inert pattern meets an inert argument by comparing structure,
      and an unbound instantiable variable by binding it to the pattern
      itself on the trail;
    - the first occurrence of a clause variable takes the dereferenced
      argument itself as its value where unify would bind a fresh
      variable to that very term: an inert term, a ∇-index in scope, an
      eigenvariable introduced before (right mode), or an unbound
      instantiable variable at or below the current levels;
    - a later occurrence meets the value taken before: two inert terms
      by comparing their structure, an inert term and an unbound
      instantiable variable, on either side, by binding the variable;
    - c P1 … Pn, in read mode, meets an application, normalized as unify
      would, by comparing the head constant and the arity and then
      matching the fields in order with the field steps: the order of
      unify._rigid_rigid, so the first failure and any error come from
      the same field as before.  In write mode it meets an unbound
      instantiable variable a, if the fields hold only constants, first
      occurrences and such applications, by binding a to c Y1 … Yn, with
      a new variable, of the kind fresh variables have, for each first
      occurrence, at a's global level and the lesser of a's local level
      and the ∇ depth: the levels unify's pruning step gives.  A
      constant, a rigid eigenvariable, a ∇-index or an application with
      a rigid head other than c fails the clause;
    - anything else (a λ, a flexible application, a later occurrence or
      a first occurrence that meets any other term, a pattern that is not
      writable) first makes fresh variables, in var_names order, for the
      clause variables that have no value yet, then unifies the renamed
      pattern with that argument or field, so pattern and normalization
      errors surface as they always did and clause variables keep their
      relative levels.

    Clause variables that occur only in the body become fresh variables
    after the head matched.  Fresh variables are logic variables normally
    and eigenvariables on the left of an implication, where an
    unconstrained premise variable reads universally.  Bindings are undone
    when the clause does not match and when the consumer moves on to the
    next clause, not when the generator is dropped: a consumer that stops
    early restores its own checkpoint, so the prover may drop the
    generator once the last candidate is yielded.
    Verdicts, answers, their order and step counts are those of renaming
    every clause and unifying each head argument; only the ids of fresh
    variables differ.
    """
    defn = st.defs.defs.get(pred)
    if defn is None:
        return
    fresh = st.sig.fresh_eigen if left else st.sig.fresh_logic
    arity = len(args)
    clauses, first = defn.candidates(args, st.norm_budget)
    if first is not None:
        args = (first, *args[1:])
    # The first clause needs no check: none comes before it to be the last.
    last = len(clauses) - 1
    while last > 0:
        clause = clauses[last]
        if len(clause.head_args) == arity and not (
                clause.sieve
                and _rules_out(clause.plan, clause.head_args, args)):
            break
        last -= 1
    final = clauses[last] if clauses else None
    mark = st.checkpoint()
    for clause in clauses:
        if len(clause.head_args) == arity:
            var_names = clause.var_names
            env = {}
            if _match(clause.plan, clause.head_args, args, first, env, st,
                      left, var_names):
                if len(env) < len(var_names):
                    _fresh_rest(env, var_names, fresh)
                yield (replace_clause_vars_formula(clause.body, env),
                       clause is final)
            st.undo_to(mark)
        if clause is final:
            return


def _match(steps, pats, values, normal, env, st, left, var_names):
    """Walk plan steps over head patterns and the values they meet,
    binding on the trail and filling env; False when the clause fails.

    At the top the values are the atom's arguments and normal is the one
    of them candidates() normalized, or None: a _Struct step normalizes
    any other application that is not inert, as unify would.  For fields
    normal is True: they belong to an application this walk normalized,
    and a binding made since can have exposed a redex only at the head of
    a field whose head variable it bound, which is the case unify's _whnf
    normalizes again.  The fields of a last _Struct step are walked by the
    loop, those of any other recursively.
    """
    sig = st.sig
    trail = st.trail
    while True:
        for step, pat, value in zip(steps, pats, values):
            a = deref(value) if isinstance(value, Var) else value
            ta = type(a)
            if step is _CONST:
                if ta is Const:
                    if type(pat) is not Const or a.name != pat.name:
                        return False
                    continue
                if ta is LogicVar or (left and ta is EigenVar):
                    bind(a, pat, trail)
                    continue
                if a.inert:
                    if a is pat or _same_inert(a, pat):
                        continue
                    return False
                # A rigid eigenvariable or a ∇-index: unify would fail at
                # the rigid-rigid check.
                if ta is EigenVar or ta is NablaIndex:
                    return False
                # An application, normalized as a _Struct step would: if
                # that leaves it inert, its structure decides.
                if ta is App and a is not normal and (
                    normal is not True
                    or isinstance(a.head, Var) and a.head.binding is not None
                ):
                    a = normalize(a, st.norm_budget)
                    if a.inert:
                        if _same_inert(a, pat):
                            continue
                        return False
            elif step is _FIRST:
                if pat.name not in env and (a.inert or _passes(a, sig, left)):
                    env[pat.name] = a
                    continue
            elif step is _VALUE:
                v = deref(env[pat.name])
                if a.inert:
                    if v.inert:
                        if v is a or _same_inert(v, a):
                            continue
                        return False
                    tv = type(v)
                    if tv is LogicVar or (left and tv is EigenVar):
                        bind(v, a, trail)
                        continue
                elif v.inert and (ta is LogicVar or (left and ta is EigenVar)):
                    bind(a, v, trail)
                    continue
            elif step is not _OTHER:  # a _Struct step
                if ta is App and not a.inert and a is not normal and (
                    normal is not True
                    or isinstance(a.head, Var) and a.head.binding is not None
                ):
                    a = normalize(a, st.norm_budget)
                    ta = type(a)
                if ta is App:
                    head = a.head
                    if type(head) is Const:
                        if (head.name != pat.head.name
                                or len(a.args) != len(pat.args)):
                            return False
                        if step is steps[-1]:
                            break
                        if not _match(step.steps, pat.args, a.args, True, env,
                                      st, left, var_names):
                            return False
                        continue
                    if not (type(head) is LogicVar
                            or (left and type(head) is EigenVar)):
                        return False
                elif ta is LogicVar or (left and ta is EigenVar):
                    if step.writable:
                        g = a.global_level
                        l = min(a.local_level, sig.nabla_depth)
                        kind = EigenVar if left else LogicVar
                        bind(a, _build(step, pat, env, sig, kind, g, l), trail)
                        continue
                elif ta is not Lam:
                    return False
            if len(env) < len(var_names):
                _fresh_rest(env, var_names,
                            sig.fresh_eigen if left else sig.fresh_logic)
            if unify(replace_clause_vars(pat, env), a, st,
                     instantiate_eigen=left) is not SUCCESS:
                return False
        else:
            return True
        # The last step is a _Struct met by an application: its fields next.
        steps, pats, values, normal = step.steps, pat.args, a.args, True


def _rules_out(steps, pats, values):
    """Would _match fail on these values before it normalizes, unifies or
    binds anything?  True if so; None when the walk reaches a step that
    could do any of that, so only inert values are read; False when it
    passes every step.  A clause ruled out may be skipped with nothing
    lost, and the prover keeps no choice point for it."""
    while True:
        for step, pat, value in zip(steps, pats, values):
            a = deref(value) if isinstance(value, Var) else value
            if not a.inert or step is _VALUE or step is _OTHER:
                return None
            if step is _CONST:
                if type(a) is Const:
                    if type(pat) is not Const or a.name != pat.name:
                        return True
                elif a is not pat and not _same_inert(a, pat):
                    return True
            elif step is not _FIRST:  # a _Struct step
                if (type(a) is not App or a.head.name != pat.head.name
                        or len(a.args) != len(pat.args)):
                    return True
                if step is steps[-1]:
                    break
                out = _rules_out(step.steps, pat.args, a.args)
                if out is not False:
                    return out
        else:
            return False
        steps, pats, values = step.steps, pat.args, a.args


def _same_inert(t, s):
    """Do two inert terms have one structure?  This is unify's verdict on
    them, reached without recursion or trail."""
    stack = [(t, s)]
    while stack:
        t, s = stack.pop()
        if t is s:
            continue
        if type(t) is Const or type(s) is Const:
            if type(t) is not type(s) or t.name != s.name:
                return False
        elif t.head.name != s.head.name or len(t.args) != len(s.args):
            return False
        else:
            stack.extend(zip(t.args, s.args))
    return True


def _build(step, pat, env, sig, kind, g, l):
    """The term unify binds an unbound variable to when it meets the
    pattern of a writable _Struct step: pat with a new variable of class
    kind at levels (g, l) for each first occurrence.  Such a name has no
    other occurrence yet, so a fresh variable made for it before is
    referenced by env alone and is replaced.  Fields are built in order,
    the last one's _Struct in a loop."""
    frames = None  # (head, built fields but the last) per _Struct passed
    while True:
        fields = []
        steps = step.steps
        for sub, p in zip(steps, pat.args):
            if sub is _FIRST:
                p = env[p.name] = sig.fresh_at(kind, p.name, g, l)
            elif sub is not _CONST:
                if sub is steps[-1]:
                    break
                p = _build(sub, p, env, sig, kind, g, l)
            fields.append(p)
        else:
            t = App(pat.head, tuple(fields))
            break
        if frames is None:
            frames = []
        frames.append((pat.head, fields))
        step, pat = sub, p
    if frames is not None:
        while frames:
            head, fields = frames.pop()
            fields.append(t)
            t = App(head, tuple(fields))
    return t


def _fresh_rest(env, var_names, fresh):
    """Fresh variables, in var_names order, for the clause variables that
    have no value yet."""
    for name in var_names:
        if name not in env:
            env[name] = fresh(name)


def _passes(a, sig, left):
    """Would unify bind a fresh clause variable, made now, to the
    dereferenced non-inert argument a itself?"""
    ta = type(a)
    if ta is NablaIndex:
        return a.index < sig.nabla_depth
    if ta is LogicVar or (left and ta is EigenVar):
        return a.global_level < sig.next_global and a.local_level <= sig.nabla_depth
    if ta is EigenVar:
        return a.global_level < sig.next_global
    return False
