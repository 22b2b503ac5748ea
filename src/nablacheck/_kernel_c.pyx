# cython: language_level=3
# cython: boundscheck=False
"""Reduction kernel, compiled variant.

Function-for-function port of _kernel_py; that module is the reference,
including the inert-term early returns documented there.
The term representation is shared (plain Python classes from nodes.py), so
the speedup comes from compiled control flow, typed locals, and cheaper
recursion, not from a different data layout.
"""

from .errors import NormalizationDepthExceeded
from .nodes import App, Bound, Lam, Var, app

BACKEND = "compiled"


def deref(t):
    """Follow logic-variable bindings at the head of t."""
    while isinstance(t, Var):
        b = t.binding
        if b is None:
            return t
        t = b
    return t


def shift(t, long by, long cutoff=0):
    """Add `by` to every λ-index in t that is >= cutoff."""
    return _shift(t, by, cutoff)


cdef object _shift(object t, long by, long cutoff):
    tt = type(t)
    if tt is Bound:
        if <long> t.index >= cutoff:
            return Bound(<long> t.index + by)
        return t
    if tt is Lam:
        body = _shift(t.body, by, cutoff + 1)
        if body is t.body:
            return t
        return Lam(body, t.hint)
    if tt is App:
        if t.inert:
            return t
        return app(
            _shift(t.head, by, cutoff),
            tuple([_shift(a, by, cutoff) for a in t.args]),
        )
    return t


def subst(t, value, long j=0):
    """Replace Bound(j) by value in t, closing that binder."""
    return _subst(t, value, j)


cdef object _subst(object t, object value, long j):
    cdef long k
    tt = type(t)
    if tt is Bound:
        k = <long> t.index
        if k == j:
            if j:
                return _shift(value, j, 0)
            return value
        if k > j:
            return Bound(k - 1)
        return t
    if tt is Lam:
        return Lam(_subst(t.body, value, j + 1), t.hint)
    if tt is App:
        if t.inert:
            return t
        return app(
            _subst(t.head, value, j),
            tuple([_subst(a, value, j) for a in t.args]),
        )
    return t


cdef object _subst_fuel(object t, object value, long j, list fuel):
    cdef long k
    fuel[0] = <long> fuel[0] - 1
    if <long> fuel[0] < 0:
        raise NormalizationDepthExceeded(fuel[1])
    tt = type(t)
    if tt is Bound:
        k = <long> t.index
        if k == j:
            if j:
                return _shift(value, j, 0)
            return value
        if k > j:
            return Bound(k - 1)
        return t
    if tt is Lam:
        return Lam(_subst_fuel(t.body, value, j + 1, fuel), t.hint)
    if tt is App:
        return app(
            _subst_fuel(t.head, value, j, fuel),
            tuple([_subst_fuel(a, value, j, fuel) for a in t.args]),
        )
    return t


def normalize(t, long budget=100000):
    """β-normal form of t with all variable bindings dereferenced."""
    cdef list fuel = [budget, budget]
    return _nf(t, fuel)


cdef object _nf(object t, list fuel):
    t = deref(t)
    tt = type(t)
    if tt is Lam:
        body = _nf(t.body, fuel)
        if body is t.body:
            return t
        return Lam(body, t.hint)
    if tt is not App or t.inert:
        return t
    head = deref(t.head)
    cdef list args = list(t.args)
    while True:
        th = type(head)
        if th is Lam and args:
            fuel[0] = <long> fuel[0] - 1
            if <long> fuel[0] < 0:
                raise NormalizationDepthExceeded(fuel[1])
            head = deref(_subst_fuel(head.body, args.pop(0), 0, fuel))
        elif th is App:
            args = list(head.args) + args
            head = deref(head.head)
        else:
            break
    if not args:
        return _nf(head, fuel)
    return App(head, tuple([_nf(a, fuel) for a in args]))


def eta_contract(t):
    """η-short form of a β-normal term: λx.(f x) becomes f when x is unused."""
    return _eta(t)


cdef object _eta(object t):
    t = deref(t)
    tt = type(t)
    if tt is Lam:
        body = _eta(t.body)
        if type(body) is App:
            last = body.args[-1]
            if type(last) is Bound and <long> last.index == 0:
                if len(body.args) > 1:
                    trunk = App(body.head, body.args[:-1])
                else:
                    trunk = body.head
                if not _uses_index(trunk, 0):
                    return _shift(trunk, -1, 0)
        if body is t.body:
            return t
        return Lam(body, t.hint)
    if tt is App:
        if t.inert:
            return t
        return app(_eta(t.head), tuple([_eta(a) for a in t.args]))
    return t


cdef bint _uses_index(object t, long j):
    tt = type(t)
    if tt is Bound:
        return <long> t.index == j
    if tt is Lam:
        return _uses_index(t.body, j + 1)
    if tt is App:
        if t.inert:
            return False
        if _uses_index(t.head, j):
            return True
        for a in t.args:
            if _uses_index(a, j):
                return True
        return False
    return False
