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
binding can reach inside an inert node, so it never goes stale.

The fuel accounting in normalize charges one unit per β-step and one per
node visited while performing the substitution, so both reduction counts and
intermediate term sizes stay bounded by the budget.
"""

from __future__ import annotations

from .errors import NablaCheckError, NormalizationDepthExceeded
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
    "abstract_over_nabla",
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
        return cls(name or template.name, self._take_id(), global_level, local_level)


def deref(t):
    """Follow logic-variable bindings at the head of t."""
    while isinstance(t, Var) and t.binding is not None:
        t = t.binding
    return t


def shift(t, by, cutoff=0):
    """Add `by` to every λ-index in t that is >= cutoff."""
    tt = type(t)
    if tt is Bound:
        return Bound(t.index + by) if t.index >= cutoff else t
    if tt is Lam:
        body = shift(t.body, by, cutoff + 1)
        return t if body is t.body else Lam(body, t.hint)
    if tt is App:
        if t.inert:
            return t
        return app(
            shift(t.head, by, cutoff),
            tuple(shift(a, by, cutoff) for a in t.args),
        )
    return t


def subst(t, value, j=0):
    """Replace Bound(j) by value in t, closing that binder.

    Indices above j step down by one; value is shifted as it crosses the
    binders inside t.
    """
    tt = type(t)
    if tt is Bound:
        k = t.index
        if k == j:
            return shift(value, j) if j else value
        return Bound(k - 1) if k > j else t
    if tt is Lam:
        return Lam(subst(t.body, value, j + 1), t.hint)
    if tt is App:
        if t.inert:
            return t
        return app(
            subst(t.head, value, j),
            tuple(subst(a, value, j) for a in t.args),
        )
    return t


def _subst_fuel(t, value, j, fuel):
    """subst with work charged against the normalization budget."""
    fuel[0] -= 1
    if fuel[0] < 0:
        raise NormalizationDepthExceeded(fuel[1])
    tt = type(t)
    if tt is Bound:
        k = t.index
        if k == j:
            return shift(value, j) if j else value
        return Bound(k - 1) if k > j else t
    if tt is Lam:
        return Lam(_subst_fuel(t.body, value, j + 1, fuel), t.hint)
    if tt is App:
        return app(
            _subst_fuel(t.head, value, j, fuel),
            tuple(_subst_fuel(a, value, j, fuel) for a in t.args),
        )
    return t


def _nf(t, fuel):
    t = deref(t)
    tt = type(t)
    if tt is Lam:
        body = _nf(t.body, fuel)
        return t if body is t.body else Lam(body, t.hint)
    if tt is not App or t.inert:
        return t
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
        return _nf(head, fuel)
    # head is a non-App, non-Lam atom here: the spine is rigid or flex.
    return App(head, tuple(_nf(a, fuel) for a in args))


def eta_contract(t):
    """η-short form of a β-normal term: λx.(f x) becomes f when x is unused.

    β-normal input stays β-normal (the dropped argument leaves an atomic
    head), so normalize-then-eta_contract yields a canonical βη form.
    """
    t = deref(t)
    tt = type(t)
    if tt is Lam:
        body = eta_contract(t.body)
        if type(body) is App:
            last = body.args[-1]
            if type(last) is Bound and last.index == 0:
                trunk = (
                    App(body.head, body.args[:-1])
                    if len(body.args) > 1
                    else body.head
                )
                if not _uses_index(trunk, 0):
                    return shift(trunk, -1)
        return t if body is t.body else Lam(body, t.hint)
    if tt is App:
        if t.inert:
            return t
        return app(eta_contract(t.head), tuple(eta_contract(a) for a in t.args))
    return t


def _uses_index(t, j):
    tt = type(t)
    if tt is Bound:
        return t.index == j
    if tt is Lam:
        return _uses_index(t.body, j + 1)
    if tt is App:
        if t.inert:
            return False
        if _uses_index(t.head, j):
            return True
        return any(_uses_index(a, j) for a in t.args)
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
        return struct_eq(t.body, s.body)
    if tt is App:
        if len(t.args) != len(s.args):
            return False
        if not struct_eq(t.head, s.head):
            return False
        return all(struct_eq(a, b) for a, b in zip(t.args, s.args))
    if tt is ClauseVar:
        return t.name == s.name
    return False  # distinct Var objects


def abstract_over_nabla(t, k):
    """λ-abstract every occurrence of ∇-index k in t.

    Callers must ensure no unbound variable in t has a local level above k,
    otherwise a later binding could smuggle #k past the new binder.
    """
    for v in iter_free_vars(t):
        if v.local_level > k:
            raise NablaCheckError(
                "abstract_over_nabla: live variable could still capture the index"
            )
    return Lam(_abstract_nabla(t, k, 0))


def _abstract_nabla(t, k, depth):
    t = deref(t)
    tt = type(t)
    if tt is NablaIndex:
        return Bound(depth) if t.index == k else t
    if tt is Bound:
        # A λ-index free in t crosses the new binder.
        return Bound(t.index + 1) if t.index >= depth else t
    if tt is Lam:
        return Lam(_abstract_nabla(t.body, k, depth + 1), t.hint)
    if tt is App:
        if t.inert:
            return t
        return app(
            _abstract_nabla(t.head, k, depth),
            tuple(_abstract_nabla(a, k, depth) for a in t.args),
        )
    return t


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
