"""Tables: memoized atom outcomes that double as proof certificates.

A tabled predicate records, per variable-free call, whether the call was
proved or disproved.  While a call is being established it is marked in
progress; running into the mark again is a loop, and the table's mode
decides what a loop means: an inductive loop fails the branch (a least
fixed point admits no self-supporting proof), a coinductive loop succeeds
(the infinite unfolding is itself the witness).

A production is a frame of the prover's loop (engine.py), not a nested
search.  tabled_prove is two-phase: it opens the call's frame and yields
it, the prover runs the frame's bodies above a barrier until the first
proof or until none is left, and on resumption tabled_prove records the
outcome and yields the call's one answer, if any.  A production opened
inside another finishes before it does, so each runs once, st.tab_stack
holds exactly the running productions, innermost last, and a running
call's table entry is its frame.  A loop is an assumption about a running
call, which can turn out wrong once that call finishes through its other
branches, so every production records the assumptions it consumed: a loop
hit names the running call, and a consumed conditional entry or a finished
child passes on its conditions.  A frame gains assumptions only while on
top, so each names the frame itself or a call below it, which is still
running when the frame finishes: no condition can have settled before the
entry resting on it is recorded, and nothing reruns.  Assumptions a call
makes about itself need no tracking: a least fixed point always has a
loop-free proof if it has any, and dually a greatest fixed point fails
outright only if loops cannot save it.  That argument assumes definitions do not smuggle a
predicate into its own negation through an implication; level checking
warns about the direct case and the rest is the user's contract.

A call that finishes with other assumptions still open is recorded
conditionally on them.  Every condition names a running call, so each
conditional entry waits on the frame of its innermost condition, and when
that call finishes one pass over the frame's waiting list resolves them: an
entry that assumed the other outcome is dropped (it recomputes on demand),
one with no condition left is settled, and any other takes over the
finished call's conditions and waits on the innermost call it now rests on,
further down the stack.  Every assumption about a call is its table's mode,
so the conditions taken over never contradict the entry's own.  A finished
entry has nothing waiting on it, and when the outermost call finishes
nothing is left conditional.  Waiting on the innermost condition rather
than on the frame just below, an entry moves only when a call it rests on
finishes: on a cycle of n calls that is n moves, not n²/2.  A call abandoned
by a resource limit takes every enclosing production with it: the prover
closes their generators innermost first, each drops its own entry and its
waiting list, and only settled entries remain.

Entries persist across queries, so a finished table is a reusable
certificate of everything it settled; the CLI dumps it in source syntax.
A table is dropped before the next query once a clause or a table mode
arrives for its predicate or for one its definition reaches
(drop_stale_tables): its rows may no longer hold.

Eligibility: the outcome of a call must be a single bit, so no unbound
logic variable may remain in the arguments, and for a level-0 predicate no
unbound variable at all (on the left of an implication eigenvariables are
instantiable too).  The test reads the arguments' βη-normal forms, the
ones the key is made of, which hold no binding: an inert one is ground,
one whose gbound is negative holds no variable (nodes.py), and only in
any other does a level-1 call look for a logic variable.  So a variable
that β-reduction drops, as X in (x\\ c) X, does not count.  ∇-indices
are fine; two calls differing by an injective renaming of indices or
eigenvariables get distinct keys, which costs sharing, never soundness.

Keys.  A call is keyed by the tuple (pred, part, ...), one part per
βη-short argument: an inert argument, one built from constants alone, by
its node, which is the one node of its structure (nodes.py), so equal
parts are identical and a key is hashed and compared by identity with no
walk of the term; an argument holding a variable, a ∇-index or a λ by its
printed text (variables spelled by kind and id).  A node and a string
never coincide, so parts of different kinds never do either.  Row text
for a table dump is printed from the parts only when the table is shown.
"""

from __future__ import annotations

from operator import attrgetter

from . import parser
from .terms import has_unbound_logic_var, normalize_eta

PROVED = "proved"
DISPROVED = "disproved"


class _Frame:
    """A running call's table entry, which tabled_prove yields to the
    prover as its request to run the call's production.

    bodies is the iterator producer() returned; the prover tries the
    bodies as the call's alternatives above a barrier, sets found when one
    is proved, and resumes tabled_prove.  depth is the frame's index in
    st.tab_stack, assumed maps each call its production assumed to the
    status assumed, and waiting lists the conditional entries whose
    innermost condition is this call, each as (its table's entries, its
    key, the entry).
    """

    __slots__ = ("depth", "assumed", "waiting", "bodies", "found")

    def __init__(self, depth):
        self.depth = depth
        self.assumed = {}
        self.waiting = []
        self.bodies = None
        self.found = False


class _Cond:
    """A settled outcome still conditioned on open calls."""

    __slots__ = ("status", "deps")

    def __init__(self, status, deps):
        self.status = status
        self.deps = deps  # key -> status this entry needs that call to reach


class Table:
    """Entries of one tabled predicate: call key -> status.

    A key is the tuple canonical_key builds; rows() prints it back to the
    call's source text.
    """

    __slots__ = ("pred", "mode", "entries")

    def __init__(self, pred, mode):
        self.pred = pred
        self.mode = mode
        self.entries = {}

    def rows(self):
        """Settled entries as source-syntax lines, sorted."""
        return sorted(
            f"{status} "
            + " ".join(p if type(p) is str
                       else parser.print_term(p, prec=parser.ATOM) for p in key)
            + "."
            for key, status in self.entries.items()
            if status is PROVED or status is DISPROVED
        )

    def counts(self):
        proved = sum(1 for s in self.entries.values() if s is PROVED)
        disproved = sum(1 for s in self.entries.values() if s is DISPROVED)
        return proved, disproved


def canonical_key(pred, args, level, budget=None):
    """The key of a call: (pred, part, ...) over βη-short arguments, or
    None when the call may not be tabled (see Eligibility above).

    An inert argument is its node, and any other its printed text, where
    variables print by kind and id; so a call on an eigenvariable never
    shares a key with a call on a constant.  Equal keys mean structurally
    equal arguments; the converse fails only for λs whose binder names
    differ, which costs sharing, never soundness.
    """
    parts = [pred]
    for a in args:
        while a.binding:
            a = a.binding
        if not a.inert:  # an inert term is its own βη-short form
            a = normalize_eta(a, budget)
            if not a.inert:
                if a.gbound >= 0 and (level == 0
                                      or has_unbound_logic_var(a)):
                    return None
                a = parser.print_term(a, prec=parser.ATOM, keyed=True)
        parts.append(a)
    return tuple(parts)


def _wait(st, home, key, cond):
    """File the conditional entry home[key] under its innermost condition."""
    tables = st.tables
    inner = max((tables[k[0]].entries[k] for k in cond.deps),
                key=attrgetter("depth"))
    inner.waiting.append((home, key, cond))


def tabled_prove(st, pred, key, defn, producer):
    """Prove a call through its table, under the key canonical_key gave it.

    producer is a zero-argument callable returning an iterator over the
    call's unfolding, in unfold's items (it must not route back through
    the table).  A settled entry answers immediately; a running call's
    frame is a loop and answers by the table's mode: either way this
    generator yields None once if the call holds and nothing otherwise.
    Otherwise the production runs once, in two phases: the generator
    yields the call's _Frame, the prover looks for one proof of its bodies
    and resumes it, and the outcome is recorded before the call yields its
    one answer, if it has one.  Closing the generator at the frame abandons
    the production.  The call binds nothing: its arguments carry
    no instantiable variable.
    """
    table = st.tables.get(pred)
    if table is None:
        table = st.tables[pred] = Table(pred, defn.table_mode)
    stack = st.tab_stack
    entries = table.entries
    entry = entries.get(key)
    if type(entry) is _Frame:  # a loop, which the table's mode decides
        entry = PROVED if table.mode == "coinductive" else DISPROVED
        stack[-1].assumed[key] = entry
    elif type(entry) is _Cond:
        stack[-1].assumed.update(entry.deps)
        entry = entry.status
    if entry is not None:
        if entry is PROVED:
            yield
        return

    frame = _Frame(len(stack))
    stack.append(frame)
    entries[key] = frame
    try:
        frame.bodies = producer()
        yield frame
    except BaseException:
        # Every production above this one has dropped its entries already.
        stack.pop()
        del entries[key]
        for home, k, _ in frame.waiting:
            del home[k]
        raise
    stack.pop()
    # Every other assumption names a call still running below this one.
    deps = frame.assumed
    deps.pop(key, None)  # self-assumptions discharge themselves
    status = PROVED if frame.found else DISPROVED
    for home, k, v in frame.waiting:
        if v.deps.pop(key) is status:
            v.deps.update(deps)
            if v.deps:
                _wait(st, home, k, v)
            else:
                home[k] = v.status
        else:
            del home[k]
    if deps:
        entries[key] = cond = _Cond(status, deps)
        _wait(st, entries, key, cond)
        stack[-1].assumed.update(deps)
    else:
        entries[key] = status
    if frame.found:
        yield


def clear_tables(st):
    st.tables.clear()
    del st.tab_stack[:]


def drop_stale_tables(st):
    """Drop the tables of the predicates whose definitions reach one that
    a clause or a table mode arrived for since st.tables_seen."""
    changed = st.defs.changed
    if st.tables:
        stale = st.defs.affected(d.pred for d, _ in changed[st.tables_seen:])
        for pred in [p for p in st.tables if p in stale]:
            del st.tables[pred]
    st.tables_seen = len(changed)


def table_report(st, pred=None):
    """Printable dump of one table (or all), certificate style."""
    lines = []
    preds = [pred] if pred is not None else sorted(st.tables)
    for p in preds:
        table = st.tables.get(p)
        if table is None:
            lines.append(f"% no table for {p}")
            continue
        proved, disproved = table.counts()
        lines.append(
            f"% table {p} ({table.mode}): "
            f"{proved} proved, {disproved} disproved"
        )
        lines.extend(table.rows())
    return "\n".join(lines)
