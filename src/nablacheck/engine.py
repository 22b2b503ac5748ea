"""The prover and the query driver.

One prover, prove(), runs in three modes.  RIGHT0 handles the restricted
grammar (⊤, =, ∧, ∨, ∃, ∇, atoms): it is a backtracking enumerator whose
answers are substitution states, delivered by yielding with the bindings in
place on the shared trail.  ONE adds ∀ and implication.  An implication
A => B is proved by enumerating every answer of A in LEFT0 and checking B
under each one; the answer stream of A is the case analysis, so A must not
contain free logic variables when the check starts, and a proof of B may not
instantiate variables the answers left free.  LEFT0 is the level-0 grammar
on the left of an implication: there the sequent's eigenvariables are
instantiable, which is what turns clause matching into case analysis.

The prover restores its bindings when a consumer stops early, so closing a
generator always leaves the state as it was found.  Step accounting: every
prover dispatch ticks one unit against the per-query budget, and the nesting
of live generators is capped separately so runaway descent fails as a
budget error instead of exhausting the interpreter stack.
"""

from __future__ import annotations

import sys

# Called through the modules, so wrappers installed on them apply; imported
# here, not inside the prover or the answer path, where an import statement
# costs time in proportion to the live generator stack.
from . import parser, tabling
from .errors import (
    BudgetExceeded,
    LevelError,
    NablaCheckError,
    NonGroundAntecedent,
    OuterVariableEscape,
    UndefinedPredicate,
)
from .logic import (
    And,
    Atom,
    DefSet,
    Eq,
    Exists,
    Forall,
    Formula,
    Imp,
    Nabla,
    Or,
    Top,
    classify,
    formula_preds,
    formula_terms,
    instantiate,
    unfold,
)
from .nodes import Const, NablaIndex, Lam, App, Var
from .terms import (
    DEFAULT_NORM_BUDGET,
    Signature,
    deref,
    has_unbound_logic_var,
    normalize_eta,
)
from .unify import SUCCESS, Trail, unify

DEFAULT_STEP_BUDGET = 1000000
DEFAULT_MAX_DEPTH = 6000

# Prover modes: level 0 on the right, level 0 on the left of an implication
# (case analysis), and level 1.  _LABEL holds each mode's --trace label.
RIGHT0, LEFT0, ONE = 0, 1, 2
_LABEL = ("p0 ", "p0<", "p1 ")

__all__ = [
    "State",
    "Answer",
    "Result",
    "prove",
    "RIGHT0",
    "LEFT0",
    "ONE",
    "solve",
    "solve_iter",
    "DEFAULT_STEP_BUDGET",
    "DEFAULT_MAX_DEPTH",
]


class State:
    """Everything one proof search mutates, plus its resource limits.

    checkpoint()/undo_to() save and restore the trail together with the
    signature counters; the variable id counter is deliberately left out so
    identities stay unique for the life of the session (table keys depend
    on that).
    """

    __slots__ = (
        "sig",
        "trail",
        "defs",
        "tables",
        "tab_stack",
        "steps",
        "max_steps",
        "norm_budget",
        "tabling_enabled",
        "depth",
        "max_depth",
        "trace",
    )

    def __init__(
        self,
        defs=None,
        max_steps=DEFAULT_STEP_BUDGET,
        norm_budget=DEFAULT_NORM_BUDGET,
        tabling=True,
        max_depth=DEFAULT_MAX_DEPTH,
        trace=None,
    ):
        self.sig = Signature()
        self.trail = Trail()
        self.defs = defs if defs is not None else DefSet()
        self.tables = {}
        self.tab_stack = []
        self.steps = 0
        self.max_steps = max_steps
        self.norm_budget = norm_budget
        self.tabling_enabled = tabling
        self.depth = 0
        self.max_depth = max_depth
        self.trace = trace
        limit = 3 * max_depth + 20000
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)

    def checkpoint(self):
        return (self.trail.mark(), self.sig.next_global, self.sig.nabla_depth)

    def undo_to(self, cp):
        mark, next_global, nabla_depth = cp
        self.trail.undo_to(mark)
        self.sig.next_global = next_global
        self.sig.nabla_depth = nabla_depth

    def tick(self):
        self.steps += 1
        if self.steps > self.max_steps:
            raise BudgetExceeded(self.max_steps)

    def _enter(self, f, which):
        self.depth += 1
        if self.depth > self.max_depth:
            self.depth -= 1
            raise BudgetExceeded(
                self.max_steps,
                f"search nesting exceeded {self.max_depth} live subgoals",
            )
        if self.trace is not None:
            indent = "  " * min(self.depth - 1, 40)
            self.trace.write(f"{indent}{which} {parser.print_formula(f)}\n")


def prove(f, st, mode=ONE):
    """Enumerate the answers of a formula in one of the three modes.

    Yields once per answer with the bindings in place; backtracking happens
    by resuming, and all bindings are undone when the generator is exhausted
    or closed.  RIGHT0 and LEFT0 accept only the level-0 grammar.  In LEFT0
    (an implication's antecedent) eigenvariables are instantiable and fresh
    clause and ∃ variables are introduced as eigenvariables, reading the
    antecedent's own quantifiers universally.  ONE adds ∀ and implication,
    and hands each level-0 atom to RIGHT0 as a dispatch of its own.
    """
    st.tick()
    st._enter(f, _LABEL[mode])
    try:
        tf = type(f)
        if tf is Top:
            yield
        elif tf is Eq:
            mark = st.trail.mark()
            if unify(f.lhs, f.rhs, st,
                     instantiate_eigen=mode == LEFT0) is SUCCESS:
                try:
                    yield
                finally:
                    st.trail.undo_to(mark)
        elif tf is And:
            for _ in prove(f.left, st, mode):
                yield from prove(f.right, st, mode)
        elif tf is Or:
            yield from prove(f.left, st, mode)
            yield from prove(f.right, st, mode)
        elif tf is Exists:
            cp = st.checkpoint()
            if mode == LEFT0:
                v = st.sig.fresh_eigen(f.name)
            else:
                v = st.sig.fresh_logic(f.name)
            body = instantiate(f.body, v)
            try:
                yield from prove(body, st, mode)
            finally:
                st.undo_to(cp)
        elif tf is Nabla:
            d = st.sig.nabla_depth
            body = instantiate(f.body, NablaIndex(d))
            st.sig.nabla_depth = d + 1
            try:
                yield from prove(body, st, mode)
            finally:
                st.sig.nabla_depth = d
        elif tf is Atom:
            defn = st.defs.defs.get(f.pred)
            if defn is None:
                raise UndefinedPredicate(f.pred)
            if defn.level == 0:
                if mode == ONE:
                    yield from prove(f, st, RIGHT0)
                    return
            elif mode != ONE:
                raise LevelError(
                    f"level-1 predicate {f.pred} reached in a level-0 context"
                )
            if (st.tabling_enabled and defn.table_mode is not None
                    and tabling.eligible(f.args, defn.level)):
                # The producer unfolds directly; routing back through the
                # table would only meet this call's own in-progress mark.
                # Ground level-0 calls prove the same in either mode, so
                # the producer always runs on the right and the entry is
                # shared.
                body_mode = RIGHT0 if defn.level == 0 else ONE

                def producer():
                    for body in unfold(f.pred, f.args, st):
                        yield from prove(body, st, body_mode)

                yield from tabling.tabled_prove(
                    st, f.pred, f.args, defn, producer)
            else:
                for body in unfold(f.pred, f.args, st, left=mode == LEFT0):
                    yield from prove(body, st, mode)
        elif mode != ONE and isinstance(f, Formula):
            raise LevelError(f"{tf.__name__} is not a level-0 connective")
        elif tf is Forall:
            cp = st.checkpoint()
            v = st.sig.fresh_eigen(f.name)
            body = instantiate(f.body, v)
            try:
                yield from prove(body, st, mode)
            finally:
                st.undo_to(cp)
        elif tf is Imp:
            yield from _prove_imp(f, st)
        else:
            raise TypeError(f"not a formula: {f!r}")
    finally:
        st.depth -= 1


def _prove_imp(f, st):
    """The stream-checking implication rule.

    Every answer of the antecedent (computed in case-analysis mode) must
    admit a proof of the consequent.  The consequent check consumes at most
    one answer per case and must not bind any variable that predates it;
    such a binding would prove only one instance of the case, so it is
    reported as an error rather than treated as success.  When every case
    passes, the implication yields exactly once and binds nothing.
    """
    a, b = f.left, f.right
    for t in formula_terms(a):
        if has_unbound_logic_var(t):
            raise NonGroundAntecedent(a)
    for _ in prove(a, st, LEFT0):
        id_floor = st.sig._next_id
        mark_b = st.trail.mark()
        holds = False
        gen = prove(b, st)
        try:
            for _ in gen:
                escaped = [
                    v for v in st.trail.bound_since(mark_b) if v.id < id_floor
                ]
                if escaped:
                    raise OuterVariableEscape(
                        "proving the consequent instantiated "
                        + ", ".join(v.name for v in escaped)
                        + ", which the antecedent's answer left free"
                    )
                holds = True
                break
        finally:
            gen.close()
        st.trail.undo_to(mark_b)
        if not holds:
            return
    yield


# ---------------------------------------------------------------------------
# Query driver
# ---------------------------------------------------------------------------

class Answer:
    """One reified answer: query variable names paired with snapshot terms.

    Variables the proof left unconstrained appear as placeholder constants
    ?0, ?1, ... numbered in discovery order, shared across the whole answer,
    so the snapshot survives backtracking.
    """

    __slots__ = ("bindings",)

    def __init__(self, bindings):
        self.bindings = tuple(bindings)

    def __repr__(self):
        return f"Answer({self.text()})"

    def text(self):
        return parser.print_substitution(self.bindings)

    def get(self, name):
        for n, t in self.bindings:
            if n == name:
                return t
        return None


class Result:
    """The outcome of one query: proved, disproved, or inconclusive."""

    __slots__ = ("status", "answers", "error", "steps")

    def __init__(self, status, answers, error, steps):
        self.status = status
        self.answers = answers
        self.error = error
        self.steps = steps

    @property
    def proved(self):
        return self.status == "proved"

    @property
    def disproved(self):
        return self.status == "disproved"

    @property
    def inconclusive(self):
        return self.status == "inconclusive"

    def __repr__(self):
        return f"Result({self.status}, {len(self.answers)} answers)"


def _reify(names, variables, budget):
    placeholders = {}

    def snap(t):
        t = deref(t)
        tt = type(t)
        if tt is Lam:
            return Lam(snap(t.body), t.hint)
        if tt is App:
            if t.inert:
                return t
            head = snap(t.head)
            return App(head, tuple(snap(a) for a in t.args))
        if isinstance(t, Var):
            c = placeholders.get(t.id)
            if c is None:
                c = Const(f"?{len(placeholders)}")
                placeholders[t.id] = c
            return c
        return t

    return Answer(
        (name, snap(normalize_eta(v, budget)))
        for name, v in zip(names, variables)
    )


def solve_iter(goal, st):
    """Yield reified answers of a query, lazily.

    The top-level ∃ prefix names the query variables reported in each
    answer.  Closing the generator restores the state.  Errors propagate;
    solve() below folds them into a Result.
    """
    st.defs.check()
    for p in sorted(formula_preds(goal)):
        if not st.defs.known(p):
            raise UndefinedPredicate(p)
    level = classify(goal, st.defs.levels(), strict=True)
    cp = st.checkpoint()
    names = []
    variables = []
    g = goal
    try:
        while type(g) is Exists:
            v = st.sig.fresh_logic(g.name)
            names.append(g.name)
            variables.append(v)
            g = instantiate(g.body, v)
        for _ in prove(g, st, RIGHT0 if level == 0 else ONE):
            yield _reify(names, variables, st.norm_budget)
    finally:
        st.undo_to(cp)


def solve(goal, st, max_answers=None):
    """Run a query to completion (or to max_answers) and report.

    proved: at least one answer was found.  disproved: the search space was
    exhausted with none.  inconclusive: the search hit a resource limit or
    left the decidable fragment, with the offending error attached.
    """
    st.steps = 0
    answers = []
    error = None
    gen = solve_iter(goal, st)
    try:
        for a in gen:
            answers.append(a)
            if max_answers is not None and len(answers) >= max_answers:
                break
    except NablaCheckError as e:
        error = e
    except RecursionError:
        error = BudgetExceeded(st.max_steps, "interpreter recursion limit hit")
    finally:
        gen.close()
    if error is not None:
        status = "inconclusive"
    elif answers:
        status = "proved"
    else:
        status = "disproved"
    return Result(status, answers, error, st.steps)
