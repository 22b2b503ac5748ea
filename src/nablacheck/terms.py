"""Term-level operations: signatures, fresh variables, normal forms, equality.

The (global, local) annotation discipline: a fresh variable records the
number of quantifiers introduced before it (global level, shared counter for
eigen- and logic variables) and the number of ∇-binders in scope (local
level).  A variable may later depend exactly on the eigenvariables with a
strictly smaller global level and the ∇-indices below its local level; the
unifier enforces this.

So under the prefix ∀x.∃Y.∇n.∀z the introductions are
x^{0,0}, Y^{1,0}, #0, z^{2,1}.
"""

from __future__ import annotations

from .errors import NablaCheckError, NormalizationDepthExceeded
from .kernel import deref, eta_contract, normalize as _kernel_normalize, shift, subst
from .nodes import (
    App,
    Bound,
    ClauseVar,
    Const,
    EigenVar,
    Lam,
    LogicVar,
    NablaIndex,
    Term,
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


def normalize(t, budget=None):
    """β-normal form with bindings dereferenced; raises when budget runs out."""
    try:
        return _kernel_normalize(t, DEFAULT_NORM_BUDGET if budget is None else budget)
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
