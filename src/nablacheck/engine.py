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

The prover is one loop over two stacks.  The goal list holds what is left
to prove, each goal a compiled record (logic.compile_goal) with its
environment and its mode; a conjunction pushes both sides and an atom
pushes the compiled body of the clause it unfolds to, uncopied.  A record
is dispatched on its small integer tag; an atom's holds its callee's
Definition, so no predicate is looked up by name.  A goal's environment
is the dict unfold filled for the clause the record belongs to, which maps
its clause variables to their values, and to which each formula binder
entered on the way down from the clause body (or the query) adds its value
under the binder's key: ∃, ∀ and ∇ copy nothing.  Only when an atom or an
equation is dispatched are its arguments built, each by the builder its
record chose: a clause variable or a bound name reads the environment, an
inert term is itself, c X1 … Xn applies c to read values, and only the
rest are closed over the environment (logic.replace_clause_vars).  The
choice-point stack holds what to try on
backtracking, each entry with the checkpoint it restores: the remaining
clauses of a call, the right side of a disjunction, an implication's
barrier (reached once every case of its antecedent held), the barrier of
the case being checked (reached when its consequent fails) and a tabled
call's production barrier (reached when no body of the production was
proved).  A call whose last candidate clause is being tried leaves no
choice point, so a deterministic proof of any length holds none open.  An
implication enumerates its antecedent's answers above its barrier, and
each answer opens a case whose consequent runs above the case's barrier:
the consequent's first proof cuts back below that barrier and backtracks
into the antecedent for the next case, and failing into the case's barrier
fails the implication.  A production runs its bodies above its barrier the
same way (see tabling.py): the first proof cuts back below the barrier and
hands the outcome to the table.  Since nothing nests, neither a long proof
nor a long production uses the interpreter stack.

The prover restores its bindings when a consumer stops early, so closing a
generator always leaves the state as it was found.  Resource limits: every
dispatch of a goal ticks one unit against the per-query step budget, and at
most MAX_CHOICE_POINTS choice points may be open at once, so a search that
keeps an unbounded frontier of alternatives ends as a budget error rather
than exhausting memory.  Both raise BudgetExceeded.  --trace writes one line
per dispatch, indented by the number of choice points open at the time;
the line shows the goal closed over its environment.
"""

from __future__ import annotations

from functools import partial

# Called through the modules, so wrappers installed on them apply.
from . import logic, parser, tabling
from .errors import (
    BudgetExceeded,
    LevelError,
    NablaCheckError,
    NonGroundAntecedent,
    OuterVariableEscape,
)
from .logic import (
    AND, APP, ATOM, EQ, EXISTS, FORALL, IMP, KEY, NABLA, OR, REST, TERM, TOP,
    DefSet, compile_goal, unfold,
)
from .nodes import App, Const, EigenVar, Lam, LogicVar, NablaIndex, Var
from .terms import (
    DEFAULT_NORM_BUDGET,
    _rebuild,
    deref,
    normalize_eta,
)
from .unify import undo_to, unify

DEFAULT_STEP_BUDGET = 1000000
# The most choice points a search may hold open.  A tabled call that waits
# on another holds one (its production's barrier), so reach around a
# 2,000-node cycle peaks at 2,001; an untabled search that opens one per
# step, as graph.def does without tabling, stops here after about 1.4 s
# and 30 MB.  CHANGES.md has the measurements.
MAX_CHOICE_POINTS = 10000

# Prover modes: level 0 on the right, level 0 on the left of an implication
# (case analysis), and level 1.  _LABEL holds each mode's --trace label.
RIGHT0, LEFT0, ONE = 0, 1, 2
_LABEL = ("p0 ", "p0<", "p1 ")
# A goal-list entry is (record, env, mode, rest): env maps the clause
# variables and the keys of the binders entered to their values.  Markers
# on the goal list, in a goal's mode slot: an antecedent answer opens its
# case, a consequent held in its case, a production's body was proved.  The
# record slot holds the consequent's record and the position of the
# implication's barrier (env is the consequent's), or the position of the
# barrier the marker closes.
_CASE, _HELD, _PRODUCED = 3, 4, 5
# Choice-point kinds.  An entry is (kind, checkpoint, x, y, goals): the
# clause alternatives (unfold's generator, their mode) of a call, a goal
# list to resume (a disjunction's right side with what follows it, or what
# follows an implication, reached once every case of its antecedent held),
# a case barrier (the position of the implication's barrier, the first
# variable id the case did not know), or a production barrier (the tabled
# call's generator, its table frame); goals is what follows on success.
_CLAUSES, _GOALS, _CASE_BARRIER, _PRODUCTION = range(4)

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
    "MAX_CHOICE_POINTS",
]


class State:
    """Everything one proof search mutates, plus its resource limits.

    The level discipline: a fresh variable records its place in the order
    of introductions (global level) and nabla_depth, the number of
    ∇-binders in scope (local level).  It may later depend exactly on the
    eigenvariables of a smaller global level and the ∇-indices below its
    local level; the unifier enforces this.  next_id, the one introduction
    counter, gives each variable its id and a quantifier's variable
    (fresh_logic, fresh_eigen) its global level too; pruning copies
    existing levels (fresh_at).  Level tests only compare two variables,
    and along a branch a later variable gets the larger number whether the
    count is rewound or not: a rewind would only reuse the numbers of
    variables no live term reaches, so none is made, and ids also name
    variables for printing and table keys.  Under ∀x.∃Y.∇n.∀z a fresh
    State introduces x^{0,0}, Y^{1,0}, #0, z^{2,1}.

    trail lists the variables bound, most recent last.  A checkpoint is
    (trail length, nabla_depth): undo_to() unbinds what was bound since and
    restores the depth, and nothing else lowers it; prove() does the same
    inline when it unfolds a call and when it backtracks.  steps counts the
    current query's dispatches against max_steps, from 0 (solve_iter).
    """

    __slots__ = (
        "nabla_depth",
        "next_id",
        "trail",
        "defs",
        "tables",
        "tables_seen",
        "tab_stack",
        "steps",
        "max_steps",
        "norm_budget",
        "tabling_enabled",
        "trace",
    )

    def __init__(
        self,
        defs=None,
        max_steps=DEFAULT_STEP_BUDGET,
        norm_budget=DEFAULT_NORM_BUDGET,
        tabling=True,
        trace=None,
    ):
        self.nabla_depth = 0
        self.next_id = 0
        self.trail = []
        self.defs = defs if defs is not None else DefSet()
        self.tables = {}
        self.tables_seen = 0  # how many of defs.changed the tables have seen
        self.tab_stack = []
        self.steps = 0
        self.max_steps = max_steps
        self.norm_budget = norm_budget
        self.tabling_enabled = tabling
        self.trace = trace

    def fresh_logic(self, name="H"):
        return self.fresh_at(LogicVar, name, self.next_id, self.nabla_depth)

    def fresh_eigen(self, name="h"):
        return self.fresh_at(EigenVar, name, self.next_id, self.nabla_depth)

    def fresh_at(self, cls, name, global_level, local_level):
        """A fresh variable of class cls with explicit levels."""
        i = self.next_id
        self.next_id = i + 1
        return cls(name, i, global_level, local_level)

    def checkpoint(self):
        return (len(self.trail), self.nabla_depth)

    def undo_to(self, cp):
        undo_to(self.trail, cp[0])
        self.nabla_depth = cp[1]


def _too_many(st):
    return BudgetExceeded(
        st.max_steps,
        f"proof search kept more than {MAX_CHOICE_POINTS} choice points open",
    )


def prove(goal, st, mode=ONE, env=None):
    """Enumerate the answers of a compiled goal (logic.compile_goal) in one
    of the three modes.

    env holds the values of the clause variables and formula binders the
    goal reads, by key: solve_iter proves a query's body with the values of
    its ∃ prefix this way.  Binders the goal enters add their values to it.

    Yields once per answer with the bindings in place; backtracking happens
    by resuming, and all bindings are undone when the generator is exhausted
    or closed.  RIGHT0 and LEFT0 accept only the level-0 grammar.  In LEFT0
    (an implication's antecedent) eigenvariables are instantiable and fresh
    clause and ∃ variables are introduced as eigenvariables, reading the
    antecedent's own quantifiers universally.  ONE adds ∀ and implication,
    and hands each level-0 atom to RIGHT0 as a dispatch of its own.
    """
    trail = st.trail  # for checkpoints taken inline; see State
    trace = st.trace
    max_steps = st.max_steps
    steps = st.steps  # counted here, stored back at each yield and exit
    close = logic.replace_clause_vars  # read here, so a wrapper applies
    base, base_depth = len(trail), st.nabla_depth
    goals = (goal, {} if env is None else env, mode, None)
    cps = []
    try:
        # Each pass dispatches one goal; a goal that succeeds continues with
        # the goals after it, and one that fails falls through to
        # backtracking below.
        while True:
            if goals is None:
                st.steps = steps
                yield
                steps = st.steps
            elif goals[2] > ONE:  # a marker
                g, env, mode, goals = goals
                if mode == _CASE:
                    b, imp = g
                    cps.append((_CASE_BARRIER, st.checkpoint(), imp,
                                st.next_id, None))
                    if len(cps) > MAX_CHOICE_POINTS:
                        raise _too_many(st)
                    goals = (b, env, ONE, (len(cps) - 1, None, _HELD, None))
                    continue
                barrier = cps[g]
                if mode == _HELD:
                    floor = barrier[3]
                    escaped = [v for v in trail[barrier[1][0]:]
                               if v.id < floor]
                    if escaped:
                        raise OuterVariableEscape(
                            "proving the consequent instantiated "
                            + ", ".join(v.name for v in escaped)
                            + ", which the antecedent's answer left free"
                        )
                    del cps[g:]
                else:  # _PRODUCED
                    del cps[g:]
                    st.undo_to(barrier[1])
                    barrier[3].found = True
                    if next(barrier[2], False) is None:
                        goals = barrier[4]
                        continue
            else:
                g, env, mode, goals = goals
                steps += 1
                if steps > max_steps:
                    st.steps = steps
                    raise BudgetExceeded(max_steps)
                tag = g[0]
                if trace is not None:
                    f_closed = logic.replace_clause_vars_formula(
                        g[1], env, _values(g[2], env))
                    trace.write(f"{'  ' * min(len(cps), 40)}{_LABEL[mode]}"
                                f" {parser.print_formula(f_closed)}\n")
                if tag == ATOM:
                    defn = g[3]
                    if defn.level == 0:
                        if mode == ONE:
                            goals = (g, env, RIGHT0, goals)
                            continue
                    elif mode != ONE:
                        raise LevelError(
                            f"level-1 predicate {defn.pred} reached in a "
                            "level-0 context"
                        )
                    build = g[4]
                    if type(build) is tuple:
                        args = []
                        for kind, x in build:
                            if kind == KEY:
                                x = env[x]
                            elif kind == REST:
                                x = close(x, env)
                            elif kind == APP:
                                x = App(x[0],
                                        tuple(map(env.__getitem__, x[1])))
                            args.append(x)
                    elif type(build) is list:  # every argument is inert
                        args = build
                    else:  # an itemgetter: every argument reads env
                        args = build(env)
                    if (st.tabling_enabled and defn.table_mode is not None
                            and (key := tabling.canonical_key(
                                defn.pred, args, defn.level, st.norm_budget))
                            is not None):
                        # The producer unfolds directly; routing back
                        # through the table would only meet this call's own
                        # frame.
                        call = tabling.tabled_prove(
                            st, defn.pred, key, defn,
                            partial(unfold, defn, args, st))
                        item = next(call, False)
                        if item is None:  # settled, or a loop: it holds
                            continue
                        if item is not False:
                            _open_production(call, item, defn, st, cps, goals)
                    else:
                        cp = (len(trail), st.nabla_depth)
                        alts = unfold(defn, args, st, mode == LEFT0)
                        item = next(alts, None)
                        if item is not None:
                            body, env, last = item
                            if not last:
                                cps.append((_CLAUSES, cp, alts, mode, goals))
                                if len(cps) > MAX_CHOICE_POINTS:
                                    raise _too_many(st)
                            goals = (body, env, mode, goals)
                            continue
                elif tag == AND:
                    goals = (g[3], env, mode, (g[4], env, mode, goals))
                    continue
                elif tag == EQ:
                    kind, x = g[3]
                    lhs = (env[x] if kind == KEY else
                           x if kind == TERM else close(x, env))
                    kind, x = g[4]
                    rhs = (env[x] if kind == KEY else
                           x if kind == TERM else close(x, env))
                    if unify(lhs, rhs, st, instantiate_eigen=mode == LEFT0):
                        continue
                elif tag == EXISTS:
                    if mode == LEFT0:
                        env[g[3]] = st.fresh_eigen(g[1].name)
                    else:
                        env[g[3]] = st.fresh_logic(g[1].name)
                    goals = (g[4], env, mode, goals)
                    continue
                elif tag == OR:
                    cps.append((_GOALS, st.checkpoint(), None, None,
                                (g[4], env, mode, goals)))
                    if len(cps) > MAX_CHOICE_POINTS:
                        raise _too_many(st)
                    goals = (g[3], env, mode, goals)
                    continue
                elif tag == TOP:
                    continue
                elif tag == NABLA:
                    d = st.nabla_depth
                    st.nabla_depth = d + 1
                    env[g[3]] = NablaIndex(d)
                    goals = (g[4], env, mode, goals)
                    continue
                elif tag != FORALL and tag != IMP:
                    raise TypeError(f"not a compiled goal: {g!r}")
                elif mode != ONE:
                    raise LevelError(
                        f"{type(g[1]).__name__} is not a level-0 connective")
                elif tag == FORALL:
                    env[g[3]] = st.fresh_eigen(g[1].name)
                    goals = (g[4], env, mode, goals)
                    continue
                else:  # IMP
                    # The antecedent must be ground, its values read where
                    # they are; it is closed only for the error.
                    slots = _values(g[2], env)
                    if not logic.closes_ground(g[1].left, env, slots):
                        raise NonGroundAntecedent(
                            logic.replace_clause_vars_formula(
                                g[1].left, env, slots))
                    # Every answer of the antecedent opens a case; the
                    # barrier is reached once all of them held.
                    cps.append((_GOALS, st.checkpoint(), None, None, goals))
                    if len(cps) > MAX_CHOICE_POINTS:
                        raise _too_many(st)
                    case = ((g[4], len(cps) - 1), env, _CASE, None)
                    goals = (g[3], env, LEFT0, case)
                    continue
            # Backtrack to the newest choice point that has an alternative.
            while cps:
                cp = cps.pop()
                mark, st.nabla_depth = cp[1]
                undo_to(trail, mark)
                kind = cp[0]
                if kind == _CLAUSES:
                    item = next(cp[2], None)
                    if item is None:
                        continue
                    body, env, last = item
                    if not last:
                        cps.append(cp)
                    goals = (body, env, cp[3], cp[4])
                elif kind == _GOALS:
                    goals = cp[4]
                elif kind == _CASE_BARRIER:  # the consequent failed a case
                    del cps[cp[2]:]
                    continue
                else:  # _PRODUCTION: no body was proved
                    next(cp[2], False)
                    continue
                break
            else:
                return
    finally:
        st.steps = steps
        # Abandoned productions drop their table entries, innermost first.
        for cp in reversed(cps):
            if cp[0] == _PRODUCTION:
                cp[2].close()
        while len(trail) > base:
            trail.pop().binding = None
        st.nabla_depth = base_depth


def _values(scope, env):
    """The values of the formula binders around a record, innermost first,
    as replace_clause_vars_formula reads them for its stored formula."""
    values = []
    while scope:
        key, scope = scope
        values.append(env[key])
    return values


def _open_production(call, frame, defn, st, cps, goals):
    """Push a tabled call's production barrier, and above it the bodies as
    the call's clause alternatives, which failing into tries first.  Ground
    level-0 calls prove the same in either mode, so the bodies always run
    on the right and the table entry is shared."""
    cp = st.checkpoint()
    cps.append((_PRODUCTION, cp, call, frame, goals))
    body_mode = RIGHT0 if defn.level == 0 else ONE
    cps.append((_CLAUSES, cp, frame.bodies, body_mode,
                (len(cps) - 1, None, _PRODUCED, None)))
    if len(cps) > MAX_CHOICE_POINTS:
        raise _too_many(st)


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


_YES = Answer(())  # the one answer of a query without variables


class Result:
    """The outcome of one query, flagged: proved, disproved or inconclusive."""

    __slots__ = ("status", "answers", "error", "steps", "proved", "disproved",
                 "inconclusive")

    def __init__(self, status, answers, error, steps):
        self.status = status
        self.answers = answers
        self.error = error
        self.steps = steps
        self.proved = status == "proved"
        self.disproved = status == "disproved"
        self.inconclusive = status == "inconclusive"

    def __repr__(self):
        return f"Result({self.status}, {len(self.answers)} answers)"


def _reify(names, variables, budget):
    """The query variables' snapshot; _YES when there are none."""
    if not names:
        return _YES
    placeholders = {}
    return Answer(
        (name, _snap(normalize_eta(v, budget), placeholders))
        for name, v in zip(names, variables)
    )


def _snap(t, placeholders):
    """t with bindings followed and each unbound variable replaced by its
    placeholder constant, numbered in discovery order; built bottom-up on
    the term walkers' stacks (terms.py)."""
    todo = [t]
    done = []
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            done.append(_rebuild(t[0], done))
            continue
        t = deref(t)
        tt = type(t)
        if tt is Lam:
            todo.append((t,))
            todo.append(t.body)
        elif tt is App and not t.inert:
            todo.append((t,))
            todo.extend(t.args[::-1])
            todo.append(t.head)
        elif isinstance(t, Var):
            c = placeholders.get(t.id)
            if c is None:
                c = placeholders[t.id] = Const(f"?{len(placeholders)}")
            done.append(c)
        else:
            done.append(t)
    return done[0]


def solve_iter(goal, st, warn=None):
    """Yield reified answers of a query, lazily.

    The top-level ∃ prefix names the query variables reported in each
    answer.  Closing the generator restores the state.  Errors propagate;
    solve() below folds them into a Result.  Neither the prover nor any
    term walker recurses, so no term or proof is too deep for the
    interpreter's stack.  Tables a changed definition may have made stale
    are dropped first, and one walk over the goal finds its level and
    registers the names it calls, passing warn those nothing defines
    (compile_goal).  st.steps counts each query's own budget from 0, and
    the prover's restore suffices, as the ∃ prefix binds nothing.
    """
    st.steps = 0
    st.defs.check()
    if st.tables_seen != len(st.defs.changed):
        tabling.drop_stale_tables(st)
    level, g = compile_goal(goal, st.defs.defs, warn=warn)
    names = []
    variables = []
    env = {}
    while g[0] == EXISTS:
        name = g[1].name
        v = env[g[3]] = st.fresh_logic(name)
        names.append(name)
        variables.append(v)
        g = g[4]
    proofs = prove(g, st, RIGHT0 if level == 0 else ONE, env)
    try:
        for _ in proofs:
            yield _reify(names, variables, st.norm_budget)
    finally:
        proofs.close()


def solve(goal, st, max_answers=None, warn=None):
    """Run a query to completion (or to max_answers) and report.

    proved: at least one answer was found.  disproved: the search space was
    exhausted with none.  inconclusive: the search hit a resource limit or
    left the decidable fragment, with the offending error attached.  warn
    is solve_iter's.
    """
    answers = []
    error = None
    gen = solve_iter(goal, st, warn)
    try:
        for a in gen:
            answers.append(a)
            if max_answers is not None and len(answers) >= max_answers:
                break
    except NablaCheckError as e:
        error = e
    finally:
        gen.close()
    status = ("inconclusive" if error is not None
              else "proved" if answers else "disproved")
    return Result(status, answers, error, st.steps)
