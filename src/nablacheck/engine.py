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
to prove, each goal a formula with its mode; a conjunction pushes both
sides and an atom pushes the body of the clause it unfolds to.  The
choice-point stack holds what to try on backtracking, each entry with the
checkpoint it restores: the remaining clauses of a call, the right side of
a disjunction, an implication's barrier (reached once every case of its
antecedent held), the barrier of the case being checked (reached when its
consequent fails) and a tabled call's production barrier (reached when no
body of the production was proved).  A call whose last candidate clause
is being tried leaves no choice point, so a deterministic proof of any
length holds none open.  An implication enumerates its antecedent's
answers above its barrier, and each answer opens a case whose consequent
runs above the case's barrier: the consequent's first proof cuts back
below that barrier and backtracks into the antecedent for the next case,
and failing into the case's barrier fails the implication.  A production
runs its bodies above its barrier the same way (see tabling.py): the
first proof cuts back below the barrier and hands the outcome to the
table.  Since nothing nests, neither a long proof nor a long production
uses the interpreter stack.

The prover restores its bindings when a consumer stops early, so closing a
generator always leaves the state as it was found.  Resource limits: every
dispatch of a goal ticks one unit against the per-query step budget, and at
most MAX_CHOICE_POINTS choice points may be open at once, so a search that
keeps an unbounded frontier of alternatives ends as a budget error rather
than exhausting memory.  Both raise BudgetExceeded.  --trace writes one line
per dispatch, indented by the number of choice points open at the time.
"""

from __future__ import annotations

# Called through the modules, so wrappers installed on them apply.
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
# Markers on the goal list, in a goal's mode slot: an antecedent answer
# opens its case, a consequent held in its case, a production's body was
# proved.  The formula slot holds the consequent and the position of the
# implication's barrier, or the position of the barrier the marker closes.
_CASE, _HELD, _PRODUCED = 3, 4, 5
# Choice-point kinds.  An entry is (kind, checkpoint, x, y, goals): the
# clause alternatives (unfold's generator, their mode) of a call, the right
# side of a disjunction (it, its mode), an implication's barrier, a case
# barrier (the position of the implication's barrier, the first variable id
# the case did not know), or a production barrier (the tabled call's
# generator, its Production); goals is what follows on success.
_CLAUSES, _OR, _IMP, _CASE_BARRIER, _PRODUCTION = range(5)

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

    checkpoint()/undo_to() save and restore the trail together with the
    signature counters; the variable id counter is deliberately left out so
    identities stay unique for the life of the session (table keys depend
    on that).  prove() does the same inline where it is hot: unfolding a
    call and backtracking.
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
        self.sig = Signature()
        self.trail = Trail()
        self.defs = defs if defs is not None else DefSet()
        self.tables = {}
        self.tab_stack = []
        self.steps = 0
        self.max_steps = max_steps
        self.norm_budget = norm_budget
        self.tabling_enabled = tabling
        self.trace = trace

    def checkpoint(self):
        return (self.trail.mark(), self.sig.next_global, self.sig.nabla_depth)

    def undo_to(self, cp):
        mark, next_global, nabla_depth = cp
        self.trail.undo_to(mark)
        self.sig.next_global = next_global
        self.sig.nabla_depth = nabla_depth


def _too_many(st):
    return BudgetExceeded(
        st.max_steps,
        f"proof search kept more than {MAX_CHOICE_POINTS} choice points open",
    )


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
    sig = st.sig
    trail = st.trail._entries  # for checkpoints taken inline; see State
    trace = st.trace
    max_steps = st.max_steps
    steps = st.steps  # counted here, stored back at each yield and exit
    base = (len(trail), sig.next_global, sig.nabla_depth)
    goals = (f, mode, None)
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
            elif goals[1] > ONE:  # a marker
                f, mode, goals = goals
                if mode == _CASE:
                    b, imp = f
                    cps.append((_CASE_BARRIER, st.checkpoint(), imp,
                                sig._next_id, None))
                    if len(cps) > MAX_CHOICE_POINTS:
                        raise _too_many(st)
                    goals = (b, ONE, (len(cps) - 1, _HELD, None))
                    continue
                barrier = cps[f]
                if mode == _HELD:
                    floor = barrier[3]
                    since = st.trail.bound_since(barrier[1][0])
                    escaped = [v for v in since if v.id < floor]
                    if escaped:
                        raise OuterVariableEscape(
                            "proving the consequent instantiated "
                            + ", ".join(v.name for v in escaped)
                            + ", which the antecedent's answer left free"
                        )
                    del cps[f:]
                else:  # _PRODUCED
                    del cps[f:]
                    st.undo_to(barrier[1])
                    barrier[3].found = True
                    if next(barrier[2], False) is None:
                        goals = barrier[4]
                        continue
            else:
                f, mode, goals = goals
                steps += 1
                if steps > max_steps:
                    st.steps = steps
                    raise BudgetExceeded(max_steps)
                if trace is not None:
                    trace.write(f"{'  ' * min(len(cps), 40)}{_LABEL[mode]}"
                                f" {parser.print_formula(f)}\n")
                tf = type(f)
                if tf is Atom:
                    defn = st.defs.defs.get(f.pred)
                    if defn is None:
                        raise UndefinedPredicate(f.pred)
                    if defn.level == 0:
                        if mode == ONE:
                            goals = (f, RIGHT0, goals)
                            continue
                    elif mode != ONE:
                        raise LevelError(
                            f"level-1 predicate {f.pred} reached in a "
                            "level-0 context"
                        )
                    if (st.tabling_enabled and defn.table_mode is not None
                            and tabling.eligible(f.args, defn.level)):
                        # The producer unfolds directly; routing back
                        # through the table would only meet this call's own
                        # frame.
                        call = tabling.tabled_prove(
                            st, f.pred, f.args, defn,
                            lambda p=f.pred, a=f.args: unfold(p, a, st))
                        item = next(call, False)
                        if item is None:  # settled, or a loop: it holds
                            continue
                        if item is not False:
                            _open_production(call, item, defn, st, cps, goals)
                    else:
                        cp = (len(trail), sig.next_global, sig.nabla_depth)
                        alts = unfold(f.pred, f.args, st, mode == LEFT0)
                        item = next(alts, None)
                        if item is not None:
                            body, last = item
                            if not last:
                                cps.append((_CLAUSES, cp, alts, mode, goals))
                                if len(cps) > MAX_CHOICE_POINTS:
                                    raise _too_many(st)
                            goals = (body, mode, goals)
                            continue
                elif tf is And:
                    goals = (f.left, mode, (f.right, mode, goals))
                    continue
                elif tf is Eq:
                    if unify(f.lhs, f.rhs, st,
                             instantiate_eigen=mode == LEFT0) is SUCCESS:
                        continue
                elif tf is Exists:
                    if mode == LEFT0:
                        v = sig.fresh_eigen(f.name)
                    else:
                        v = sig.fresh_logic(f.name)
                    goals = (instantiate(f.body, v), mode, goals)
                    continue
                elif tf is Or:
                    cps.append((_OR, st.checkpoint(), f.right, mode, goals))
                    if len(cps) > MAX_CHOICE_POINTS:
                        raise _too_many(st)
                    goals = (f.left, mode, goals)
                    continue
                elif tf is Top:
                    continue
                elif tf is Nabla:
                    d = sig.nabla_depth
                    body = instantiate(f.body, NablaIndex(d))
                    sig.nabla_depth = d + 1
                    goals = (body, mode, goals)
                    continue
                elif mode != ONE and isinstance(f, Formula):
                    raise LevelError(
                        f"{tf.__name__} is not a level-0 connective")
                elif tf is Forall:
                    v = sig.fresh_eigen(f.name)
                    goals = (instantiate(f.body, v), mode, goals)
                    continue
                elif tf is Imp:
                    a = f.left
                    for t in formula_terms(a):
                        if has_unbound_logic_var(t):
                            raise NonGroundAntecedent(a)
                    # Every answer of the antecedent opens a case; the
                    # barrier is reached once all of them held.
                    cps.append((_IMP, st.checkpoint(), None, None, goals))
                    if len(cps) > MAX_CHOICE_POINTS:
                        raise _too_many(st)
                    goals = (a, LEFT0, ((f.right, len(cps) - 1), _CASE, None))
                    continue
                else:
                    raise TypeError(f"not a formula: {f!r}")
            # Backtrack to the newest choice point that has an alternative.
            while cps:
                cp = cps.pop()
                mark, sig.next_global, sig.nabla_depth = cp[1]
                while len(trail) > mark:
                    trail.pop().binding = None
                kind = cp[0]
                if kind == _CLAUSES:
                    item = next(cp[2], None)
                    if item is None:
                        continue
                    body, last = item
                    if not last:
                        cps.append(cp)
                    goals = (body, cp[3], cp[4])
                elif kind == _OR:
                    goals = (cp[2], cp[3], cp[4])
                elif kind == _IMP:  # every case held
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
        mark, sig.next_global, sig.nabla_depth = base
        while len(trail) > mark:
            trail.pop().binding = None


def _open_production(call, production, defn, st, cps, goals):
    """Push a tabled call's production barrier, and above it the bodies as
    the call's clause alternatives, which failing into tries first.  Ground
    level-0 calls prove the same in either mode, so the bodies always run
    on the right and the table entry is shared."""
    cp = st.checkpoint()
    cps.append((_PRODUCTION, cp, call, production, goals))
    body_mode = RIGHT0 if defn.level == 0 else ONE
    cps.append((_CLAUSES, cp, production.bodies, body_mode,
                (len(cps) - 1, _PRODUCED, None)))
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
    return Answer(
        (name, _snap(normalize_eta(v, budget), placeholders))
        for name, v in zip(names, variables)
    )


def _snap(t, placeholders):
    """t with bindings followed and each unbound variable replaced by its
    placeholder constant, numbered in discovery order; built bottom-up on
    an explicit stack, where a 1-tuple rebuilds its node from the parts
    finished last."""
    done = []
    todo = [t]
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            t = t[0]
            if type(t) is Lam:
                done.append(Lam(done.pop(), t.hint))
            else:
                m = len(done) - len(t.args)
                args = tuple(done[m:])
                del done[m:]
                done[-1] = App(done[-1], args)
            continue
        t = deref(t)
        tt = type(t)
        if tt is Lam:
            todo.append((t,))
            todo.append(t.body)
        elif tt is App and not t.inert:
            todo.append((t,))
            todo.extend(reversed(t.args))
            todo.append(t.head)
        elif isinstance(t, Var):
            c = placeholders.get(t.id)
            if c is None:
                c = placeholders[t.id] = Const(f"?{len(placeholders)}")
            done.append(c)
        else:
            done.append(t)
    return done[0]


def solve_iter(goal, st):
    """Yield reified answers of a query, lazily.

    The top-level ∃ prefix names the query variables reported in each
    answer.  Closing the generator restores the state.  Errors propagate;
    solve() below folds them into a Result.  A term walker that still
    recurses may meet the interpreter's recursion limit on a deep enough
    term; that ends the query here as a budget error.
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
    except RecursionError:
        raise BudgetExceeded(
            st.max_steps, "interpreter recursion limit hit") from None
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
    finally:
        gen.close()
    if error is not None:
        status = "inconclusive"
    elif answers:
        status = "proved"
    else:
        status = "disproved"
    return Result(status, answers, error, st.steps)
