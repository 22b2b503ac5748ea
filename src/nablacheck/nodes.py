"""λ-tree term syntax.

Terms use de Bruijn indices for λ-bound variables and a separate family of
∇-indices (#0, #1, ...) for names introduced by the fresh-name quantifier.
Eigenvariables and logic variables carry a (global, local) level pair that
records where along the quantifier prefix they were introduced; the
unification side conditions read quantifier dependencies off these levels.

Application is kept in spine form: App.head is never itself an App.  Use the
app() constructor instead of App() when the head is not known to be atomic.

ClauseVar is a placeholder for an implicitly quantified definition-clause
variable.  It only ever occurs inside stored definitions.  The prover runs
a clause's stored body together with the values unfolding gave its clause
variables, and replaces every ClauseVar with its value when it builds the
arguments of a dispatched atom or equation, so none reaches unification.

Inert terms.  Every node carries an `inert` flag, fixed when the node is
built: a Const is inert, and an App is inert when its head is a Const and
all of its arguments are inert.  Nothing else is: not a Var (bound or not),
a ClauseVar, a Bound, a NablaIndex or a Lam.  An inert term therefore holds
no variable, no λ-index, no ∇-index and no redex, so it is its own β-normal
and η-short form, survives shifting, substitution, abstraction and clause
renaming unchanged, and passes every occurs and level check.  Passes whose
cost grows with term size return it as it is instead of walking it.

The flag cannot go stale.  Nodes are never mutated after construction, and
the only mutable cell, Var.binding, lives in a node that is never inert, so
no binding made or undone later can change what an inert node contains.

One node per inert term.  Equal inert terms are the same object: Const
finds or makes the one constant of its name, and App the one inert
application of its head and arguments, so two inert terms are equal
exactly when they are identical, and every comparison of inert terms,
whatever their size, is an `is` test.  The table that finds them (_NODES)
maps a constant's name, or the ids of an inert application's head and
arguments, to a weak reference to the node, so it keeps no node alive:
a node goes as soon as nothing else holds it.  An entry cannot answer
wrongly.  While its node lives, the node holds the children whose ids
make the key, so no other object has those ids; once the node is gone,
the entry's reference is dead, and the next lookup of that key makes a
new node in its place.  Dead entries are swept whenever the table has
doubled since the last sweep.  Applications that are not inert hold a
variable, an index or a λ, and each is a node of its own.

Level bounds and the normal flag.  Every node also carries, fixed when it
is built, upper bounds on what its variables may reach: gbound, the
largest global level of a variable it contains (-1 if none), and lbound,
the ∇ depth it needs, the largest of its variables' local levels and one
more than each free ∇-index it holds (0 if none).  A variable counts by
its own levels, bound or not, and an inert node has the trivial bounds
(-1, 0).  normal says that no application in the node is headed by a λ or
by a variable; leaves are normal, and a ClauseVar is not.

The bounds cannot go stale.  Every binding site respects levels: the
unifier's pruning step, head matching's write mode (logic._build) and the
paths that store a term as it is, which check these bounds first.  An
eigenvariable is visible to a variable only when it is below it at both
levels (unify._visible_to), since one at a higher local level may yet be
bound, on the left of an implication, to a term holding a ∇-index the
variable cannot see.  So whatever a variable is ever bound to holds no
variable above its levels and no ∇-index at or above its local level,
and the bounds, taken from the variable's own levels, stay upper bounds
as bindings come and go.

normal describes the node's own structure only: a variable is normal
whatever it is bound to, and a binding may hold an application headed by
a variable (X := H e is a pattern binding).  So a normal node is
β-normal, and its flexible applications are patterns, only modulo
bindings: through one it may reach an application whose head variable
has been bound since, a redex, or whose arguments have been, which may
leave the pattern fragment (H a, once e := a).  The walkers that read a
normal term as it is (unify._whnf, logic's matchers) normalize a redex
again where they reach its head.  The paths that store a normal term
without a walk (the matchers' first occurrences, and write mode where
unify.fits holds) do not look inside bindings, and so skip the pattern
check: with the clause q Y., the goal
exists H. forall e. exists X. X = H e /\\ (e = a => q (f X))
proves, Y taking f X as it is, where renaming the clause and unifying
meets a variable applied to a and ends inconclusive with NonPatternError.  Where no
binding holds an application headed by a variable, as in first-order
programs, normalize returns a normal term with only its bindings
followed.
"""

from __future__ import annotations

import weakref


class Term:
    __slots__ = ()
    inert = False
    normal = False
    gbound = -1
    lbound = 0
    binding = None  # set only in a Var, so deref needs no type test


# The one-node table (see the module docstring): a constant's name, or
# the ids of an inert application's head and arguments, to a weak
# reference to the node.  It is a function of structure alone, so every
# State may share it.
_NODES = {}
_sweep_at = 0  # the size at which the dead entries are swept next
_new = object.__new__
_ref = weakref.ref


def _sweep():
    global _sweep_at
    for k in [k for k, r in _NODES.items() if r() is None]:
        del _NODES[k]
    _sweep_at = 2 * len(_NODES)


class Const(Term):
    """A constant (object-level constructor or defined-predicate symbol),
    one node per name."""

    __slots__ = ("name", "__weakref__")
    inert = True
    normal = True

    def __new__(cls, name: str):
        ref = _NODES.get(name)
        if ref is not None:
            c = ref()
            if c is not None:
                return c
        c = _new(cls)
        c.name = name
        _NODES[name] = _ref(c)
        if len(_NODES) > _sweep_at:
            _sweep()
        return c

    def __repr__(self):
        return f"Const({self.name!r})"


class Bound(Term):
    """A λ-bound variable as a de Bruijn index (0 = innermost binder)."""

    __slots__ = ("index",)
    normal = True

    def __init__(self, index: int):
        self.index = index

    def __repr__(self):
        return f"Bound({self.index})"


class NablaIndex(Term):
    """The index-th ∇-bound name, counted from the outside in (0-based)."""

    __slots__ = ("index", "lbound")
    normal = True

    def __init__(self, index: int):
        self.index = index
        self.lbound = index + 1

    def __repr__(self):
        return f"#{self.index}"


class Var(Term):
    """Shared representation of eigen- and logic variables.

    binding is the destructive-unification cell; assignments are recorded on
    the trail so backtracking can reset them.  A term stored in a binding is
    always closed with respect to λ (the unifier abstracts pattern arguments
    before binding), so shifting and substitution never need to enter it.

    Eigenvariables use the cell only while the Level-0 prover runs on the
    left of an implication, where case analysis on a definition may
    instantiate them.
    """

    __slots__ = ("name", "id", "global_level", "local_level", "binding")
    normal = True

    def __init__(self, name: str, vid: int, global_level: int, local_level: int):
        self.name = name
        self.id = vid
        self.global_level = global_level
        self.local_level = local_level
        self.binding = None

    def __repr__(self):
        kind = "E" if isinstance(self, EigenVar) else "L"
        bound = "*" if self.binding is not None else ""
        return (
            f"{kind}({self.name}@{self.id}"
            f"^{{{self.global_level},{self.local_level}}}{bound})"
        )


# A variable's bounds are its own levels: the slots themselves, read
# under the names every node answers to.
Var.gbound = Var.global_level
Var.lbound = Var.local_level


class EigenVar(Var):
    __slots__ = ()


class LogicVar(Var):
    __slots__ = ()


class Lam(Term):
    """λ-abstraction.  hint is a printing name only; equality ignores it."""

    __slots__ = ("body", "hint", "gbound", "lbound", "normal")

    def __init__(self, body: Term, hint: str | None = None):
        self.body = body
        self.hint = hint
        self.gbound = body.gbound
        self.lbound = body.lbound
        self.normal = body.normal

    def __repr__(self):
        return f"Lam({self.body!r})"


class App(Term):
    """An application in spine form, one node per inert structure."""

    __slots__ = ("head", "args", "inert", "normal", "gbound", "lbound",
                 "__weakref__")

    def __new__(cls, head: Term, args: tuple):
        th = type(head)
        inert = th is Const
        normal = inert or th is Bound or th is NablaIndex
        g = head.gbound
        l = head.lbound
        for a in args:
            if not a.inert:
                inert = False
                if not a.normal:
                    normal = False
                if a.gbound > g:
                    g = a.gbound
                if a.lbound > l:
                    l = a.lbound
        if inert:
            # Spelled out for one and two arguments, the common cases, as
            # building the key is most of the cost of finding the node.
            n = len(args)
            key = ((id(head), id(args[0])) if n == 1 else
                   (id(head), id(args[0]), id(args[1])) if n == 2 else
                   (id(head), *map(id, args)))
            ref = _NODES.get(key)
            if ref is not None:
                t = ref()
                if t is not None:
                    return t
        t = _new(cls)
        t.head = head
        t.args = args
        t.inert = inert
        t.normal = normal
        t.gbound = g
        t.lbound = l
        if inert:
            _NODES[key] = _ref(t)
            if len(_NODES) > _sweep_at:
                _sweep()
        return t

    def __repr__(self):
        return f"App({self.head!r}, {list(self.args)!r})"


class ClauseVar(Term):
    """A clause variable, read from an environment by its name.  In a term
    compiled by logic.compile_goal the name may instead be the int key of
    the formula binder the term's index reached."""

    __slots__ = ("name",)

    def __init__(self, name: str | int):
        self.name = name

    def __repr__(self):
        return f"ClauseVar({self.name!r})"


def app(head: Term, args) -> Term:
    """Smart application constructor: flattens spines, drops empty arg lists.

    Does not β-reduce; App(Lam(...), args) is a legal (redex) term.
    """
    args = tuple(args)
    if not args:
        return head
    if type(head) is App:
        return App(head.head, head.args + args)
    return App(head, args)
