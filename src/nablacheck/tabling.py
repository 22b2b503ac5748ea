"""Tables: memoized atom outcomes that double as proof certificates.

A tabled predicate records, per variable-free call, whether the call was
proved or disproved.  While a call is being established it is marked in
progress; running into the mark again is a loop, and the table's mode
decides what a loop means: an inductive loop fails the branch (a least
fixed point admits no self-supporting proof), a coinductive loop succeeds
(the infinite unfolding is itself the witness).

A production is a frame of the prover's loop (engine.py), not a nested
search.  tabled_prove is two-phase: it opens the call's frame and yields a
Production, the prover runs the bodies above a barrier until the first
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
Eligibility: the outcome of a call must be a single bit, so no unbound
logic variable may remain in the arguments, and for a level-0 predicate no
unbound variable at all (on the left of an implication eigenvariables are
instantiable too).  ∇-indices are fine; two calls differing by an
injective renaming of indices or eigenvariables get distinct keys, which
costs sharing, never soundness.

Keys.  A call is keyed by the tuple (pred, part, ...), one part per
βη-short argument: a constant by its name, any other variable-free
argument by its canonical node, and an argument holding a variable, a
∇-index or a λ by its printed text (variables spelled by kind and id).
Canonical nodes are hash-consed: one process-wide representative per
structure, shared by all equal terms and compared by identity, and each
keyed App caches its representative (nodes.py).  Keying a call whose
arguments extend already keyed terms therefore costs one lookup per new
node, not a walk of the whole term.  No constant name contains `@`, `#`
or a backslash, and no printed part lacks one, so parts of different kinds
never coincide.  Row text for a table dump is printed from the parts only
when the table is shown.
"""

from __future__ import annotations

import weakref
from operator import attrgetter

from . import parser
from .nodes import App, Const
from .terms import has_unbound_logic_var, has_unbound_var, normalize_eta

PROVED = "proved"
DISPROVED = "disproved"


class _Frame:
    """A running call's table entry.

    depth is its index in st.tab_stack, assumed maps each call its
    production assumed to the status assumed, and waiting lists the
    conditional entries whose innermost condition is this call, each as
    (its table's entries, its key, the entry).
    """

    __slots__ = ("depth", "assumed", "waiting")

    def __init__(self, depth):
        self.depth = depth
        self.assumed = {}
        self.waiting = []


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


def eligible(args, level):
    """May a call with these arguments be tabled?"""
    if level == 0:
        return not any(has_unbound_var(a) for a in args)
    return not any(has_unbound_logic_var(a) for a in args)


def canonical_key(pred, args, budget=None):
    """The key of a call: (pred, part, ...) over βη-short arguments.

    A constant argument is its name, another inert one its canonical node,
    and any other its printed text, where variables print by kind and id in
    a form no constant can spell; so a call on an eigenvariable never shares
    a key with a call on a constant.  Equal keys mean structurally equal
    arguments; the converse fails only for λs whose binder names differ,
    which costs sharing, never soundness.
    """
    parts = [pred]
    for a in args:
        a = normalize_eta(a, budget)
        if not a.inert:
            parts.append(parser.print_term(a, prec=parser.ATOM, keyed=True))
        elif type(a) is Const:
            parts.append(a.name)
        else:
            parts.append(_canonical(a))
    return tuple(parts)


# (head name, child parts...) -> the representative App of that structure.
# A child part is a constant's name or a child's representative, so the
# keys of a term's representatives keep its children's alive; an entry
# lives while anything holds its representative.  The table is a function
# of structure alone, so every State may share it.
_CANON = weakref.WeakValueDictionary()


def _canonical(t):
    """The representative of an inert App, found or built bottom-up.

    Walks, with an explicit stack, only the nodes not canonicalised yet,
    and caches each one's representative in its canon slot.
    """
    rep = t.canon
    if rep is not None:
        return rep
    done = []  # parts of finished nodes, in walk order
    todo = [t]
    while todo:
        u = todo.pop()
        if type(u) is tuple:  # all children of u are done
            u = u[0]
            m = len(done) - len(u.args)
            kids = done[m:]
            del done[m:]
            key = (u.head.name, *kids)
            rep = _CANON.get(key)
            if rep is None:
                rep = App(u.head, tuple(
                    k if type(k) is App else a for k, a in zip(kids, u.args)))
                _CANON[key] = rep
            if rep is not u:  # a representative passed back in keeps none
                u.canon = rep
            done.append(rep)
        elif type(u) is Const:
            done.append(u.name)
        else:
            rep = u.canon
            if rep is not None:
                done.append(rep)
            else:
                todo.append((u,))
                todo.extend(reversed(u.args))
    return done[0]


def _wait(st, home, key, cond):
    """File the conditional entry home[key] under its innermost condition."""
    tables = st.tables
    inner = max((tables[k[0]].entries[k] for k in cond.deps),
                key=attrgetter("depth"))
    inner.waiting.append((home, key, cond))


class Production:
    """A request, yielded by tabled_prove, to run a call's production.

    bodies is the iterator producer() returned.  The prover tries the
    bodies as the call's alternatives above a barrier, sets found when one
    is proved, and resumes tabled_prove.
    """

    __slots__ = ("bodies", "found")

    def __init__(self, bodies):
        self.bodies = bodies
        self.found = False


def tabled_prove(st, pred, args, defn, producer):
    """Prove an eligible call through its table.

    producer is a zero-argument callable returning an iterator over the
    call's unfolding, in unfold's items (it must not route back through
    the table).  A settled entry answers immediately; a running call's
    frame is a loop and answers by the table's mode: either way this
    generator yields None once if the call holds and nothing otherwise.
    Otherwise the production runs once, in two phases: the generator
    yields a Production, the prover looks for one proof of its bodies and
    resumes it, and the outcome is recorded before the call yields its one
    answer, if it has one.  Closing the generator at the Production
    abandons the production.  The call binds nothing: its arguments carry
    no instantiable variable.
    """
    table = st.tables.get(pred)
    if table is None:
        table = st.tables[pred] = Table(pred, defn.table_mode)
    stack = st.tab_stack
    entries = table.entries
    key = canonical_key(pred, args, st.norm_budget)
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
        production = Production(producer())
        yield production
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
    found = production.found
    status = PROVED if found else DISPROVED
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
    if found:
        yield


def clear_tables(st):
    st.tables.clear()
    del st.tab_stack[:]


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
