"""The term kernel: reduction, normal forms, equality, free variables.

The reduction kernel is deref, shift and _nf, which computes the β-normal
form and, for normalize_eta, the βη-normal form in the same walk.  It holds
no state: fresh variables, their levels and the ∇ depth belong to the proof
search (engine.State).

Bindings of variables are always λ-closed (the unifier abstracts pattern
arguments before binding), so shift and _subst_fuel treat every Var
atomically.

Inert terms (see nodes.py: Const-headed, variable-free) contain no index,
no variable and no redex, so shift and _nf return at an inert node without
descending into it: the result is the same object.  This keeps the cost of
passes over bound lists and numerals independent of their length.  The
flag is fixed at construction and no binding can reach inside an inert
node, so it never goes stale.  Every walker also returns an application or
λ whose parts all come back unchanged as the same object (_rebuild), so
normalizing a normal term builds nothing: logic.unfold keeps the first
argument it normalized for every clause it tries, and that costs no copy of
a long list with a variable tail.

The fuel accounting in normalize charges one unit per β-step and one per
node visited while performing the substitution, so both reduction counts and
intermediate term sizes stay bounded by the budget.
"""

from __future__ import annotations

from .errors import NormalizationDepthExceeded
from .nodes import (
    App,
    Bound,
    ClauseVar,
    EigenVar,
    Lam,
    LogicVar,
    NablaIndex,
    app,
)

__all__ = [
    "DEFAULT_NORM_BUDGET",
    "normalize",
    "normalize_eta",
    "equal_modulo",
    "struct_eq",
    "has_unbound_logic_var",
    "shift",
    "deref",
]

BACKEND = "pure"  # stamped on benchmark results; the only reduction kernel
DEFAULT_NORM_BUDGET = 100000


def deref(t):
    """Follow logic-variable bindings at the head of t."""
    while t.binding is not None:
        t = t.binding
    return t


# Every walker below has one shape and no recursion.  A todo stack holds
# what is left to visit, each node's children pushed in reverse so that
# they are visited left to right, and a done stack holds the results.  A
# node to be rebuilt leaves a marker, the 1-tuple (node,), under its
# children; when the marker comes back up, _rebuild takes the children's
# results off done.  A walker that counts the λs around the node it visits
# (shift's cutoff, the index _subst_fuel replaces) adds one when it enters
# a λ and takes it off at the λ's marker.  So a term of any depth, through
# any argument, costs no interpreter stack.  The walkers of logic.py,
# unify.py and engine.py have the same shape, and the hot ones return a
# leaf or an inert term before they make any stack.


def _rebuild(u, done):
    """u rebuilt from its parts' results, taken off the end of done: a λ's
    body, or an application's head and then its arguments.  u itself when
    every part came back as the same object, so a walk that changes
    nothing builds nothing."""
    if type(u) is Lam:
        body = done.pop()
        return u if body is u.body else Lam(body, u.hint)
    args = u.args
    m = len(done) - len(args)
    parts = tuple(done[m:])
    del done[m:]
    head = done.pop()
    # Terms define no __eq__, so == compares the parts by identity.
    if head is u.head and parts == args:
        return u
    return app(head, parts)


def shift(t, by, cutoff=0):
    """Add `by` to every λ-index in t that is >= cutoff.  With a negative
    `by`, None when an index it would drop (one that would fall below
    cutoff) occurs: so shift(t, -1) is t with its outermost loose binder
    removed, or None when t uses that binder."""
    todo = [t]
    done = []
    while todo:
        t = todo.pop()
        tt = type(t)
        if tt is tuple:
            t = t[0]
            if type(t) is Lam:
                cutoff -= 1
            done.append(_rebuild(t, done))
        elif tt is App and not t.inert:
            todo.append((t,))
            todo.extend(t.args[::-1])
            todo.append(t.head)
        elif tt is Lam:
            todo.append((t,))
            cutoff += 1
            todo.append(t.body)
        elif tt is Bound and t.index >= cutoff:
            if t.index + by < cutoff:
                return None
            done.append(Bound(t.index + by))
        else:
            done.append(t)
    return done[0]


def _subst_fuel(t, value, j, fuel):
    """Replace Bound(j) by value in t, closing that binder, with work
    charged against the normalization budget: one unit per node visited,
    inert ones included.  Indices above j step down by one; value is
    shifted as it crosses the binders inside t."""
    todo = [t]
    done = []
    while todo:
        t = todo.pop()
        tt = type(t)
        if tt is tuple:
            t = t[0]
            if type(t) is Lam:
                j -= 1
            done.append(_rebuild(t, done))
            continue
        fuel[0] -= 1
        if fuel[0] < 0:
            raise NormalizationDepthExceeded(fuel[1], fuel[2])
        if tt is App:
            todo.append((t,))
            todo.extend(t.args[::-1])
            todo.append(t.head)
        elif tt is Lam:
            todo.append((t,))
            j += 1
            todo.append(t.body)
        elif tt is Bound and t.index >= j:
            k = t.index
            if k == j:
                done.append(shift(value, j) if j else value)
            else:
                done.append(Bound(k - 1))
        else:
            done.append(t)
    return done[0]


def _nf(t, fuel, eta=False):
    """β-normal form of t, bindings followed; βη-normal with eta.  A λ or
    an application whose parts all come back as the same objects is
    returned itself.  fuel is [work left, the budget, the term normalized],
    the last two for the error that reports running out.

    A λ is rebuilt after its body, so with eta the body is βη-normal when
    λx. t x is met, and contracting it to t, when x is not free in t,
    leaves a βη-normal term: t is not a λ (t x would be a β-redex)."""
    while t.binding:
        t = t.binding
    if t.inert or type(t) is not App and type(t) is not Lam:
        return t  # no walk for a leaf or an inert term
    todo = [t]
    done = []
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            u = _rebuild(t[0], done)
            if eta and type(u) is Lam and type(u.body) is App:
                u = _eta(u, t[0], todo)
            done.append(u)
            continue
        while t.binding:
            t = t.binding
        tt = type(t)
        if tt is Lam:
            todo.append((t,))
            todo.append(t.body)
            continue
        if tt is not App or t.inert:
            done.append(t)
            continue
        head = deref(t.head)
        if head is not t.head or type(head) is Lam:
            args = list(t.args)
            while True:
                th = type(head)
                if th is Lam and args:
                    fuel[0] -= 1
                    if fuel[0] < 0:
                        raise NormalizationDepthExceeded(fuel[1], fuel[2])
                    head = deref(_subst_fuel(head.body, args.pop(0), 0, fuel))
                elif th is App:
                    args = list(head.args) + args
                    head = deref(head.head)
                else:
                    break
            if not args:
                todo.append(head)
                continue
            # The spine is rigid or flex now; its arguments are next.
            t = App(head, tuple(args))
        todo.append((t,))
        todo.extend(t.args[::-1])
        done.append(head)
    return done[0]


def _eta(u, lam, todo):
    """u, the λ lam rebuilt over a βη-normal application, η-contracted in
    one shift with the λs whose markers come next on _nf's todo, each the
    body of the next: as many layers as the trailing arguments … B1 B0
    reach, cut at the least of them the rest uses.  Their markers go."""
    head, args = u.body.head, u.body.args
    k = 0
    for a in reversed(args):
        if type(a) is not Bound or a.index != k:
            break
        k += 1
        m = todo[-k] if k <= len(todo) else None  # the marker of layer k
        if type(m) is not tuple or getattr(m[0], "body", None) is not lam:
            break
        lam = m[0]
    walk = [(a, 0) for a in (head, *args[:len(args) - k])]
    while walk and k:
        t, d = walk.pop()
        if type(t) is Bound and t.index >= d:
            k = min(k, t.index - d)
        elif type(t) is Lam:
            walk.append((t.body, d + 1))
        elif type(t) is App and not t.inert:
            walk.extend((a, d) for a in (t.head, *t.args))
    del todo[len(todo) - k + 1:]  # nothing when k is 0 or 1
    return shift(app(head, args[:-k]), -k) if k else u


def normalize(t, budget=None):
    """β-normal form of t with all variable bindings dereferenced.

    Raises NormalizationDepthExceeded when the reduction work (β-steps plus
    substitution traversal) passes the budget, which is how terms without a
    normal form surface.
    """
    if budget is None:
        budget = DEFAULT_NORM_BUDGET
    return _nf(t, [budget, budget, t])


def normalize_eta(t, budget=None):
    """Canonical βη-short form, in the one walk that β-normalizes (_nf),
    under normalize's budget; the basis of equal_modulo, table keys and
    answers.  A βη-normal term comes back as the same object."""
    if budget is None:
        budget = DEFAULT_NORM_BUDGET
    return _nf(t, [budget, budget, t], True)


def equal_modulo(t, s, budget=None):
    """αβη-equality of two terms under the current bindings."""
    return struct_eq(normalize_eta(t, budget), normalize_eta(s, budget))


def struct_eq(t, s):
    """Structural equality: α via de Bruijn, variables by identity.

    Binder hints are ignored.  Bindings are dereferenced, but the terms are
    not normalized here; normalize first if β-redexes may differ.
    """
    todo = [(t, s)]
    while todo:
        t, s = todo.pop()
        t = deref(t)
        s = deref(s)
        if t is s:
            continue
        tt = type(t)
        if tt is not type(s) or t.inert and s.inert:
            return False  # equal inert terms are one node (nodes.py)
        if tt is ClauseVar:
            if t.name != s.name:
                return False
        elif tt is Bound or tt is NablaIndex:
            if t.index != s.index:
                return False
        elif tt is Lam:
            todo.append((t.body, s.body))
        elif tt is App:
            targs = t.args
            sargs = s.args
            if len(targs) != len(sargs):
                return False
            todo.extend(zip(reversed(targs), reversed(sargs)))
            todo.append((t.head, s.head))
        else:
            return False  # distinct Var objects
    return True


def has_unbound_logic_var(t):
    """Does t hold an unbound logic variable, bindings followed?  The walk
    stops at the first, and enters no subterm whose gbound is negative: a
    node that holds no variable at all (nodes.py), inert ones included."""
    while t.binding is not None:
        t = t.binding
    if t.gbound < 0 or type(t) is EigenVar:
        return False  # no walk for a leaf, an inert term or a closed one
    stack = [t]
    while stack:
        t = stack.pop()
        while t.binding is not None:
            t = t.binding
        if t.gbound < 0:
            continue
        tt = type(t)
        if tt is LogicVar:
            return True
        if tt is App:
            stack.append(t.head)
            stack.extend(t.args)
        elif tt is Lam:
            stack.append(t.body)
    return False
