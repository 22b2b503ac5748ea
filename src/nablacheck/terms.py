"""Term-level operations: signatures, fresh variables, normal forms, equality.

The (global, local) annotation discipline: a fresh variable records the
number of quantifiers introduced before it (global level, shared counter for
eigen- and logic variables) and the number of ∇-binders in scope (local
level).  A variable may later depend exactly on the eigenvariables with a
strictly smaller global level and the ∇-indices below its local level; the
unifier enforces this.

So under the prefix ∀x.∃Y.∇n.∀z the introductions are
x^{0,0}, Y^{1,0}, #0, z^{2,1}.

This module is also the reduction kernel (deref, shift, subst, _nf,
eta_contract).  Bindings of variables are always λ-closed (the unifier
abstracts pattern arguments before binding), so shift and subst treat every
Var atomically.

Inert terms (see nodes.py: Const-headed, variable-free) contain no index,
no variable and no redex, so shift, subst, _nf, eta_contract and _uses_index
return at an inert node without descending into it: the result is the same
object.  This keeps the cost of passes over bound lists and numerals
independent of their length.  The flag is fixed at construction and no
binding can reach inside an inert node, so it never goes stale.  _nf also
returns an application or λ whose parts all come back unchanged as the
same object, so normalizing a normal term builds nothing: logic.unfold
keeps the first argument it normalized for every clause it tries, and
that costs no copy of a long list with a variable tail.

The fuel accounting in normalize charges one unit per β-step and one per
node visited while performing the substitution, so both reduction counts and
intermediate term sizes stay bounded by the budget.
"""

from __future__ import annotations

from operator import is_

from .errors import NormalizationDepthExceeded
from .nodes import (
    App,
    Bound,
    ClauseVar,
    Const,
    EigenVar,
    Lam,
    LogicVar,
    NablaIndex,
    Var,
    app,
)

__all__ = [
    "Signature",
    "DEFAULT_NORM_BUDGET",
    "normalize",
    "normalize_eta",
    "equal_modulo",
    "struct_eq",
    "iter_free_vars",
    "has_unbound_logic_var",
    "has_unbound_var",
    "shift",
    "subst",
    "deref",
]

BACKEND = "pure"  # stamped on benchmark results; the only reduction kernel
DEFAULT_NORM_BUDGET = 100000


class Signature:
    """Mutable introduction state of one proof branch.

    next_global counts quantifier introductions (eigen and logic variables
    share it, so the introduction order is totally recorded); nabla_depth is
    the number of ∇-binders currently in scope.  Both are saved and restored
    by the engine's checkpoints, together with the trail.  The id counter is
    never rolled back: ids give variables a stable identity for printing.
    """

    __slots__ = ("next_global", "nabla_depth", "_next_id")

    def __init__(self):
        self.next_global = 0
        self.nabla_depth = 0
        self._next_id = 0

    def _take_id(self):
        i = self._next_id
        self._next_id += 1
        return i

    def fresh_logic(self, name="H"):
        v = LogicVar(name, self._take_id(), self.next_global, self.nabla_depth)
        self.next_global += 1
        return v

    def fresh_eigen(self, name="h"):
        v = EigenVar(name, self._take_id(), self.next_global, self.nabla_depth)
        self.next_global += 1
        return v

    def fresh_like(self, template, global_level, local_level, name=None):
        """A fresh variable of the same kind with explicit levels (pruning)."""
        cls = EigenVar if isinstance(template, EigenVar) else LogicVar
        return self.fresh_at(cls, name or template.name, global_level, local_level)

    def fresh_at(self, cls, name, global_level, local_level):
        """A fresh variable of class cls with explicit levels."""
        return cls(name, self._take_id(), global_level, local_level)


def deref(t):
    """Follow logic-variable bindings at the head of t."""
    while isinstance(t, Var) and t.binding is not None:
        t = t.binding
    return t


# The walkers below follow a term's last child (a λ's body, an
# application's last argument: a list's tail, a numeral's predecessor) in a
# loop and recurse only into the other children, so a long list, numeral
# or λ chain costs no interpreter stack.  The loop records one frame per
# node it passes, a Lam or a (head, arguments before the last) pair, and
# rebuilds the result from them bottom-up.


def shift(t, by, cutoff=0):
    """Add `by` to every λ-index in t that is >= cutoff."""
    frames = None
    while True:
        tt = type(t)
        if tt is App:
            if t.inert:
                break
            args = t.args
            head = t.head
            if type(head) is Bound or type(head) is Lam:
                head = shift(head, by, cutoff)
            if frames is None:
                frames = []
            frames.append((head, [shift(a, by, cutoff) for a in args[:-1]]))
            t = args[-1]
        elif tt is Lam:
            if frames is None:
                frames = []
            frames.append(t)
            cutoff += 1
            t = t.body
        else:
            if tt is Bound and t.index >= cutoff:
                t = Bound(t.index + by)
            break
    if frames is None:
        return t
    while frames:
        fr = frames.pop()
        if type(fr) is Lam:
            if t is not fr.body:
                t = Lam(t, fr.hint)
            else:
                t = fr
        else:
            head, args = fr
            args.append(t)
            t = app(head, args)
    return t


def subst(t, value, j=0):
    """Replace Bound(j) by value in t, closing that binder.

    Indices above j step down by one; value is shifted as it crosses the
    binders inside t.
    """
    frames = None
    while True:
        tt = type(t)
        if tt is App:
            if t.inert:
                break
            args = t.args
            head = t.head
            if type(head) is Bound or type(head) is Lam:
                head = subst(head, value, j)
            if frames is None:
                frames = []
            frames.append((head, [subst(a, value, j) for a in args[:-1]]))
            t = args[-1]
        elif tt is Lam:
            if frames is None:
                frames = []
            frames.append(t.hint)
            j += 1
            t = t.body
        else:
            if tt is Bound:
                k = t.index
                if k == j:
                    t = shift(value, j) if j else value
                elif k > j:
                    t = Bound(k - 1)
            break
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


def _subst_fuel(t, value, j, fuel):
    """subst with work charged against the normalization budget: one unit
    per node visited, inert ones included."""
    frames = []
    while True:
        fuel[0] -= 1
        if fuel[0] < 0:
            raise NormalizationDepthExceeded(fuel[1])
        tt = type(t)
        if tt is Lam:
            frames.append(t.hint)
            j += 1
            t = t.body
        elif tt is App:
            args = t.args
            head = _subst_fuel(t.head, value, j, fuel)
            frames.append(
                (head, [_subst_fuel(a, value, j, fuel) for a in args[:-1]]))
            t = args[-1]
        else:
            if tt is Bound:
                k = t.index
                if k == j:
                    t = shift(value, j) if j else value
                elif k > j:
                    t = Bound(k - 1)
            break
    while frames:
        fr = frames.pop()
        if type(fr) is tuple:
            head, args = fr
            args.append(t)
            t = app(head, args)
        else:
            t = Lam(t, fr)
    return t


def _nf(t, fuel):
    """β-normal form of t, bindings followed.  A λ, or an application
    whose parts all come back as the same objects, is returned itself."""
    frames = None  # a Lam, or (application, normal head, normal args but last)
    while True:
        if isinstance(t, Var):
            t = deref(t)
        tt = type(t)
        if tt is Lam:
            if frames is None:
                frames = []
            frames.append(t)
            t = t.body
            continue
        if tt is not App or t.inert:
            break
        head = deref(t.head)
        args = list(t.args)
        while True:
            th = type(head)
            if th is Lam and args:
                fuel[0] -= 1
                if fuel[0] < 0:
                    raise NormalizationDepthExceeded(fuel[1])
                head = deref(_subst_fuel(head.body, args.pop(0), 0, fuel))
            elif th is App:
                args = list(head.args) + args
                head = deref(head.head)
            else:
                break
        if not args:
            t = head
            continue
        # head is a non-App, non-Lam atom here: the spine is rigid or flex.
        last = args.pop()
        for i in range(len(args)):
            args[i] = _nf(args[i], fuel)
        if frames is None:
            frames = []
        frames.append((t, head, args))
        t = last
    if frames is None:
        return t
    while frames:
        fr = frames.pop()
        if type(fr) is Lam:
            if t is not fr.body:
                t = Lam(t, fr.hint)
            else:
                t = fr
        else:
            u, head, nf_args = fr
            nf_args.append(t)
            if head is u.head and all(map(is_, nf_args, u.args)):
                t = u  # already normal, like an unchanged λ above
            else:
                t = App(head, tuple(nf_args))
    return t


def eta_contract(t):
    """η-short form of a β-normal term: λx.(f x) becomes f when x is unused.

    β-normal input stays β-normal (the dropped argument leaves an atomic
    head), so normalize-then-eta_contract yields a canonical βη form.
    """
    frames = None
    while True:
        if isinstance(t, Var):
            t = deref(t)
        tt = type(t)
        if tt is Lam:
            if frames is None:
                frames = []
            frames.append(t)
            t = t.body
        elif tt is App and not t.inert:
            args = t.args
            head = t.head
            if isinstance(head, Var) or type(head) is Lam:
                head = eta_contract(head)
            if frames is None:
                frames = []
            frames.append((head, [eta_contract(a) for a in args[:-1]]))
            t = args[-1]
        else:
            break
    if frames is None:
        return t
    while frames:
        fr = frames.pop()
        if type(fr) is not Lam:
            head, args = fr
            args.append(t)
            t = app(head, args)
            continue
        body = t
        t = fr if body is fr.body else Lam(body, fr.hint)
        if type(body) is App:
            last = body.args[-1]
            if type(last) is Bound and last.index == 0:
                trunk = (
                    App(body.head, body.args[:-1])
                    if len(body.args) > 1
                    else body.head
                )
                if not _uses_index(trunk, 0):
                    t = shift(trunk, -1)
    return t


def _uses_index(t, j):
    while True:
        tt = type(t)
        if tt is Bound:
            return t.index == j
        if tt is Lam:
            j += 1
            t = t.body
        elif tt is App and not t.inert:
            args = t.args
            if _uses_index(t.head, j):
                return True
            for a in args[:-1]:
                if _uses_index(a, j):
                    return True
            t = args[-1]
        else:
            return False


def normalize(t, budget=None):
    """β-normal form of t with all variable bindings dereferenced.

    Raises NormalizationDepthExceeded when the reduction work (β-steps plus
    substitution traversal) passes the budget, which is how terms without a
    normal form surface.
    """
    if budget is None:
        budget = DEFAULT_NORM_BUDGET
    try:
        return _nf(t, [budget, budget])
    except NormalizationDepthExceeded as e:
        if e.term is None:
            e.term = t
        raise


def normalize_eta(t, budget=None):
    """Canonical βη-short form; the basis of equal_modulo and table keys."""
    return eta_contract(normalize(t, budget))


def equal_modulo(t, s, budget=None):
    """αβη-equality of two terms under the current bindings."""
    return struct_eq(normalize_eta(t, budget), normalize_eta(s, budget))


def struct_eq(t, s):
    """Structural equality: α via de Bruijn, variables by identity.

    Binder hints are ignored.  Bindings are dereferenced, but the terms are
    not normalized here; normalize first if β-redexes may differ.
    """
    while True:
        t = deref(t)
        s = deref(s)
        if t is s:
            return True
        tt = type(t)
        if tt is not type(s):
            return False
        if tt is Const:
            return t.name == s.name
        if tt is Bound or tt is NablaIndex:
            return t.index == s.index
        if tt is Lam:
            t = t.body
            s = s.body
        elif tt is App:
            targs = t.args
            sargs = s.args
            if len(targs) != len(sargs) or not struct_eq(t.head, s.head):
                return False
            for a, b in zip(targs[:-1], sargs):
                if not struct_eq(a, b):
                    return False
            t = targs[-1]
            s = sargs[-1]
        elif tt is ClauseVar:
            return t.name == s.name
        else:
            return False  # distinct Var objects


def iter_free_vars(t):
    """Yield every unbound Var reachable in t (through bindings), once."""
    seen = set()
    stack = [t]
    while stack:
        u = deref(stack.pop())
        tu = type(u)
        if tu is App:
            if u.inert:
                continue
            stack.append(u.head)
            stack.extend(u.args)
        elif tu is Lam:
            stack.append(u.body)
        elif isinstance(u, Var):
            if id(u) not in seen:
                seen.add(id(u))
                yield u


def has_unbound_logic_var(t):
    return any(isinstance(v, LogicVar) for v in iter_free_vars(t))


def has_unbound_var(t):
    for _ in iter_free_vars(t):
        return True
    return False
