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

from .errors import IllFormedFormula, LevelError, NonPatternError
from .nodes import (
    App, ClauseVar, Const, EigenVar, Lam, LogicVar, NablaIndex, Term, Var, app
)
from .terms import deref, normalize, subst
from .unify import FAILURE, SUCCESS, bind, unify


# ---------------------------------------------------------------------------
# Formula syntax
# ---------------------------------------------------------------------------

class Formula:
    __slots__ = ()


class Top(Formula):
    __slots__ = ()
    __match_args__ = ()

    def __repr__(self):
        return "Top"


class Atom(Formula):
    __slots__ = ("pred", "args")
    __match_args__ = ("pred", "args")

    def __init__(self, pred: str, args=()):
        self.pred = pred
        self.args = tuple(args)

    def __repr__(self):
        return f"Atom({self.pred}, {list(self.args)})"


class Eq(Formula):
    __slots__ = ("lhs", "rhs")
    __match_args__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        return f"Eq({self.lhs!r}, {self.rhs!r})"


class And(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return f"And({self.left!r}, {self.right!r})"


class Or(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return f"Or({self.left!r}, {self.right!r})"


class Imp(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return f"Imp({self.left!r}, {self.right!r})"


class _Binder(Formula):
    __slots__ = ("name", "body")
    __match_args__ = ("name", "body")

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


def instantiate(f: Formula, value: Term, depth: int = 0) -> Formula:
    """Close the formula binder at the given depth with a term."""
    tf = type(f)
    if tf is Atom:
        return Atom(f.pred, tuple(subst(a, value, depth) for a in f.args))
    if tf is Eq:
        return Eq(subst(f.lhs, value, depth), subst(f.rhs, value, depth))
    if tf is And or tf is Or or tf is Imp:
        return tf(instantiate(f.left, value, depth), instantiate(f.right, value, depth))
    if tf is Exists or tf is Forall or tf is Nabla:
        return tf(f.name, instantiate(f.body, value, depth + 1))
    return f  # Top


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
    tf = type(f)
    if tf is Imp:
        formula_preds(f.left, acc)
        antecedent_preds(f.right, acc)
    elif tf is And or tf is Or:
        antecedent_preds(f.left, acc)
        antecedent_preds(f.right, acc)
    elif tf is Exists or tf is Forall or tf is Nabla:
        antecedent_preds(f.body, acc)
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
    if level_of is None:
        level_of = {}
    getter = level_of.get if hasattr(level_of, "get") else None

    def level(g):
        tg = type(g)
        if tg is Top or tg is Eq:
            return 0
        if tg is Atom:
            return getter(g.pred, 0) if getter else level_of(g.pred)
        if tg is And or tg is Or:
            return max(level(g.left), level(g.right))
        if tg is Exists or tg is Nabla:
            return level(g.body)
        if tg is Forall:
            level(g.body)
            return 1
        if tg is Imp:
            if level(g.left) != 0 and strict:
                raise IllFormedFormula(
                    "the antecedent of an implication must be a level-0 formula"
                )
            level(g.right)
            return 1
        raise TypeError(f"not a formula: {g!r}")

    return level(f)


# ---------------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------------

class Clause:
    """One definition clause: head arguments, body and clause variables.

    var_names lists the clause variables in order of first appearance,
    head before body.  plan is the head plan unfold() walks: one step per
    head argument, _CONST for a constant, _FIRST for the first occurrence
    in the head of a clause variable, _OTHER for anything else.  It is
    built with the definition's index, on the first unfold, so loading a
    file does not pay for it.
    """

    __slots__ = ("head_args", "body", "var_names", "line", "plan")

    def __init__(self, head_args, body, var_names, line=None):
        self.head_args = tuple(head_args)
        self.body = body
        self.var_names = tuple(var_names)
        self.line = line
        self.plan = None


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
        """The clauses whose head can match a call with these arguments.

        The first argument is normalized only when there is one, some clause
        is keyed and some clause has the call's arity, which is exactly when
        trying every clause would normalize it too, so a normalization error
        surfaces where it always did.  A clause left out is keyed by a constant other
        than the head constant of the normalized first argument.
        """
        if self._index is None:
            self._index = _build_index(self.clauses)
        keyed, open_, arities = self._index
        if not (keyed and args) or len(args) not in arities:
            return self.clauses
        first = deref(args[0])
        if not first.inert:
            first = normalize(first, budget)
        head = first.head if type(first) is App else first
        if type(head) is not Const:
            return self.clauses
        return keyed.get(head.name, open_)


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


_CONST, _FIRST, _OTHER = "const", "first", "other"


def _head_plan(clause):
    seen = set()
    plan = []
    for pat in clause.head_args:
        tp = type(pat)
        if tp is Const:
            plan.append(_CONST)
        elif tp is ClauseVar and pat.name not in seen:
            plan.append(_FIRST)
        else:
            plan.append(_OTHER)
        seen.update(_clause_var_names(pat))
    return tuple(plan)


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
    no index shifting is needed."""
    tt = type(t)
    if tt is ClauseVar:
        return env[t.name]
    if tt is Lam:
        return Lam(replace_clause_vars(t.body, env), t.hint)
    if tt is App:
        if t.inert:
            return t
        return app(
            replace_clause_vars(t.head, env),
            tuple(replace_clause_vars(a, env) for a in t.args),
        )
    return t


def replace_clause_vars_formula(f, env):
    tf = type(f)
    if tf is Atom:
        return Atom(f.pred, tuple(replace_clause_vars(a, env) for a in f.args))
    if tf is Eq:
        return Eq(replace_clause_vars(f.lhs, env), replace_clause_vars(f.rhs, env))
    if tf is And or tf is Or or tf is Imp:
        return tf(
            replace_clause_vars_formula(f.left, env),
            replace_clause_vars_formula(f.right, env),
        )
    if tf is Exists or tf is Forall or tf is Nabla:
        return tf(f.name, replace_clause_vars_formula(f.body, env))
    return f


def unfold(pred, args, st, left=False):
    """Yield the body instance of each clause whose head matches the atom.

    Clauses are tried in source order, only the candidates of the
    definition's first-argument index.  The first argument is normalized
    as unify would see it, and if its head is a constant only the clauses
    keyed by that name or open take part.  A clause skipped this way is
    exactly one whose head unification would return FAILURE at the
    rigid-rigid head-name check: its first head argument is a redex-free
    term headed by another constant, so its normalization cannot fail and
    unification cannot raise NonPattern before that check.

    Each clause's head plan (see Clause) is walked left to right, and each
    step does what renaming the clause apart and unifying would do:

    - a constant meets an argument that dereferences to a constant by
      comparing names, and an unbound instantiable variable by binding it
      on the trail;
    - the first occurrence of a clause variable takes the dereferenced
      argument itself as its value where unify would bind a fresh
      variable to that very term: an inert term, a ∇-index in scope, an
      eigenvariable introduced before (right mode), or an unbound
      instantiable variable at or below the current levels;
    - anything else first makes fresh variables, in var_names order, for
      the clause variables that have no value yet, then unifies the
      renamed argument, so NonPattern and normalization errors surface as
      they always did and clause variables keep their relative levels.

    Clause variables that occur only in the body become fresh variables
    after the head matched.  Fresh variables are logic variables normally
    and eigenvariables on the left of an implication, where an
    unconstrained premise variable reads universally.  Bindings are undone
    once the consumer moves on, or when the clause does not match.
    Verdicts, answers, their order and step counts are those of renaming
    every clause and unifying each head argument; only the ids of fresh
    variables differ.
    """
    defn = st.defs.defs.get(pred)
    if defn is None:
        return
    sig = st.sig
    trail = st.trail
    fresh = sig.fresh_eigen if left else sig.fresh_logic
    arity = len(args)
    for clause in defn.candidates(args, st.norm_budget):
        if len(clause.head_args) != arity:
            continue
        var_names = clause.var_names
        mark = st.checkpoint()
        try:
            env = {}
            ok = True
            for step, pat, arg in zip(clause.plan, clause.head_args, args):
                if step is _CONST:
                    a = deref(arg) if isinstance(arg, Var) else arg
                    ta = type(a)
                    if ta is Const:
                        if a.name != pat.name:
                            ok = False
                            break
                        continue
                    if ta is LogicVar or (left and ta is EigenVar):
                        bind(a, pat, trail)
                        continue
                    # Another constant's application, a rigid eigenvariable
                    # or a ∇-index: unify would fail at the rigid-rigid check.
                    if a.inert or ta is EigenVar or ta is NablaIndex:
                        ok = False
                        break
                elif step is _FIRST and pat.name not in env:
                    a = deref(arg) if isinstance(arg, Var) else arg
                    if a.inert or _passes(a, sig, left):
                        env[pat.name] = a
                        continue
                if len(env) < len(var_names):
                    _fresh_rest(env, var_names, fresh)
                r = unify(replace_clause_vars(pat, env), arg, st, instantiate_eigen=left)
                if r is SUCCESS:
                    continue
                if r is FAILURE:
                    ok = False
                    break
                raise NonPatternError(r.lhs, r.rhs, r.reason)
            if ok:
                if len(env) < len(var_names):
                    _fresh_rest(env, var_names, fresh)
                yield replace_clause_vars_formula(clause.body, env)
        finally:
            st.undo_to(mark)


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
