"""Tables: memoized atom outcomes that double as proof certificates.

A tabled predicate records, per variable-free call, whether the call was
proved or disproved.  While a call is being established it is marked in
progress; running into the mark again is a loop, and the table's mode
decides what a loop means: an inductive loop fails the branch (a least
fixed point admits no self-supporting proof), a coinductive loop succeeds
(the infinite unfolding is itself the witness).

A loop is an assumption about the looped-on call, and the assumption can
turn out wrong once that call finishes through its other branches.  Every
production therefore tracks the assumptions it consumed.  A call that
finishes while some of them are still open is recorded provisionally,
conditioned on those calls, and entries that assumed it while it ran now
rest on those calls instead; so every condition names a running call, and
when the outermost call finishes nothing is left provisional.  When an
assumed call settles the right way the condition is discharged, and when it
settles the wrong way the dependent entries are discarded (they recompute
on demand).  Assumptions a call makes about itself need no tracking: a
least fixed point always has a loop-free proof if it has any, and dually a
greatest fixed point fails outright only if loops cannot save it.  That
argument assumes definitions do not smuggle a predicate into its own
negation through an implication; level checking warns about the direct case
and the rest is the user's contract.

Productions nest, so each runs once.  A call drains its producer to the
first answer before its only yield, so st.tab_stack holds exactly the
running productions, innermost last, and a running call's entry is its
frame.  A frame gains assumptions only while on top, each naming itself or
a call below: a loop hit names a running call, and a consumed conditional
entry's or finished child's conditions name running calls (by induction).
The calls below are still running when the frame finishes, so its
conditions are its assumptions other than its own key; none can have
settled, and nothing reruns.  No code inside a production catches an
exception, so an abandoned call takes every enclosing production with it.

Entries persist across queries, so a finished table is a reusable
certificate of everything it settled; the CLI dumps it in source syntax.
Eligibility: the outcome of a call must be a single bit, so no unbound
logic variable may remain in the arguments, and for a level-0 predicate no
unbound variable at all (on the left of an implication eigenvariables are
instantiable too).  ∇-indices are fine; two calls differing by an
injective renaming of indices or eigenvariables get distinct keys, which
costs sharing, never soundness.  A call abandoned by a resource limit
leaves no entry behind, and takes the entries that assumed it along.

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

from . import parser
from .nodes import App, Const
from .terms import has_unbound_logic_var, has_unbound_var, normalize_eta

PROVED = "proved"
DISPROVED = "disproved"


class _Frame:
    """A running call's table entry: the assumptions its production used."""

    __slots__ = ("assumed",)

    def __init__(self):
        self.assumed = {}  # key -> assumed status


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
            + " ".join(p if type(p) is str else parser.print_term(p, prec=3)
                       for p in key)
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
            parts.append(parser.print_term(a, prec=3, keyed=True))
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


def _table_of(st, key):
    return st.tables.get(key[0])


def _record_cond(st, key, cond):
    """Enter a finished call's conditional entry.

    Entries that assumed the call while it ran now rest on its conditions
    instead, or are dropped if they assumed the other outcome or a
    condition the other way.  So every condition names a call that is
    still running, and once the outermost call finishes nothing is left
    conditional.
    """
    _table_of(st, key).entries[key] = cond
    doomed = []
    for _, k, v in _conditioned_on(st, key):
        if v.deps.pop(key) is cond.status and all(
            v.deps.get(d, s) is s for d, s in cond.deps.items()
        ):
            v.deps.update(cond.deps)
            _file(st, k, cond.deps)
        else:
            doomed.append(k)
    _file(st, key, cond.deps)
    for k in doomed:
        _discard(st, k)


def _file(st, key, deps):
    """File key under each call it rests on.

    st.tab_dependents maps a key to the keys (an ordered set) of the
    conditional entries resting on it, so settling or dropping a call
    visits only those.  A filing can go stale (the dependent was settled,
    dropped, or recorded again on other calls); readers skip every key
    whose entry is not a _Cond still resting on the call.
    """
    dependents = st.tab_dependents
    for k in deps:
        dependents.setdefault(k, {})[key] = None


def _conditioned_on(st, k0):
    """Take the filings under k0: (table, key, entry) of each live one.

    Once k0 finishes or is dropped, nothing is filed under it again until
    it runs anew, so its filings are consumed here.
    """
    out = []
    for k in st.tab_dependents.pop(k0, ()):
        table = _table_of(st, k)
        v = table.entries.get(k)
        if type(v) is _Cond and k0 in v.deps:
            out.append((table, k, v))
    return out


def _settle(st, key, status):
    """Propagate a plain settlement through conditional entries."""
    settled = [(key, status)]
    while settled:
        k0, s0 = settled.pop()
        doomed = []
        for table, k, v in _conditioned_on(st, k0):
            if v.deps[k0] is s0:
                del v.deps[k0]
                if not v.deps:
                    table.entries[k] = v.status
                    settled.append((k, v.status))
            else:
                doomed.append(k)
        for k in doomed:
            _discard(st, k)


def _discard(st, key):
    """Drop an entry whose support failed, and everything resting on it."""
    doomed = [key]
    while doomed:
        k0 = doomed.pop()
        table = _table_of(st, k0)
        if table is None or k0 not in table.entries:
            continue
        del table.entries[k0]
        doomed.extend(k for _, k, _ in _conditioned_on(st, k0))


def tabled_prove(st, pred, args, defn, producer):
    """Prove an eligible call through its table.

    producer is a zero-argument callable returning a fresh answer generator
    for the call's unfolding (it must not route back through the table).  A
    settled entry answers immediately; a running call's frame is a loop and
    answers by the table's mode.  Otherwise the producer runs once, for at
    most one answer, and the outcome is recorded before this call becomes
    the one answer itself.  The call binds nothing: its arguments carry no
    instantiable variable.
    """
    table = st.tables.get(pred)
    if table is None:
        table = st.tables[pred] = Table(pred, defn.table_mode)
    stack = st.tab_stack
    key = canonical_key(pred, args, st.norm_budget)
    entry = table.entries.get(key)
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

    frame = _Frame()
    stack.append(frame)
    table.entries[key] = frame
    try:
        found = False
        gen = producer()
        try:
            for _ in gen:
                found = True
                break
        finally:
            gen.close()
    except BaseException:
        stack.pop()
        _discard(st, key)  # with every entry that assumed this call
        raise
    stack.pop()
    # Every other assumption names a call still running below this one.
    deps = frame.assumed
    deps.pop(key, None)  # self-assumptions discharge themselves
    status = PROVED if found else DISPROVED
    if deps:
        _record_cond(st, key, _Cond(status, deps))
        stack[-1].assumed.update(deps)
    else:
        table.entries[key] = status
        _settle(st, key, status)
    if found:
        yield


def clear_tables(st):
    st.tables.clear()
    st.tab_dependents.clear()
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
