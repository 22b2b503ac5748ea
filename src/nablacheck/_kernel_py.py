"""Reduction kernel, pure-Python reference implementation.

The compiled kernel (_kernel_c.pyx) mirrors this module function for
function; nablacheck.kernel picks one at import time.  Keep the two in sync:
a property test compares their outputs on randomized terms.

Bindings of variables are always λ-closed (the unifier abstracts pattern
arguments before binding), so shift and subst treat every Var atomically.

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

from .errors import NormalizationDepthExceeded
from .nodes import App, Bound, Lam, Var, app

BACKEND = "pure"


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


def normalize(t, budget=100000):
    """β-normal form of t with all variable bindings dereferenced.

    Raises NormalizationDepthExceeded when the reduction work (β-steps plus
    substitution traversal) passes the budget, which is how terms without a
    normal form surface.
    """
    return _nf(t, [budget, budget])


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
