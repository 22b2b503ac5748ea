"""Higher-order pattern unification with level annotations.

The solvable fragment: every occurrence of an instantiable variable F^{g,l}
is applied to pairwise-distinct arguments, each one an atom F cannot already
depend on — a λ-bound variable of an enclosing binder, an eigenvariable with
global level above g, or a ∇-index at or above l.  Problems outside the
fragment raise NonPatternError, an error surfaced to the caller, never a
silent failure.

Each flexible occurrence's arguments are read once, through _whnf and the
pattern check, into one table from each argument's key to its position
(_pattern).  Every flex case reads that table: abstraction, pruning and
both flex–flex cases, so a pattern argument is found in constant time.

Which variables are instantiable depends on the caller.  Everywhere except
inside an implication's antecedent only logic variables bend
(instantiate_eigen=False); the Level-0 prover running on the left of an
implication performs case analysis on definitions, which may instantiate the
sequent's eigenvariables, so there both kinds bend with the same level side
conditions.

Bindings happen in place and are logged on st.trail, a list of the
variables bound (engine.State); undo_to rewinds it to an earlier length in
LIFO order.  unify() returns True or False; when it fails, and when it
raises, the trail is already rewound to its length at the call.

Level side conditions when binding F^{g,l} := u (after abstracting F's
pattern arguments): u contains no rigid eigenvariable with global >= g or
local > l, no ∇-index at or above l, and no occurrence of F.  A variable H^{g',l'} inside u with
g' > g or l' > l is not rejected but lowered: H is bound to a fresh variable
over the arguments that survive F's horizon, the standard pruning step.

Inert terms (nodes.py) contain no variable, λ-index or ∇-index, so the
occurs, level and ∇ checks are all vacuous on them: _abstract returns an
inert subterm as it is, and a binding to an inert term stores that very
object, whatever its size.  Equal inert terms are one node (nodes.py), so
two inert terms unify at once when they are that node and fail at once
otherwise.  That shortcut is kept to inert terms on purpose: F (s z) =
F (s z) is outside the pattern fragment and must stay an error, not become
a proof.  The flag is fixed when a node is built and no binding can reach
inside an inert node, so it never goes stale as bindings come and go.

Normalization.  unify() normalizes each side once, and not at all when
the side is inert; two inert terms are answered by identity without
entering the unifier.  Below that, a subterm of a normal term is
normal, so _unify only dereferences each subterm it visits (_whnf).  The
one way a binding made by a sibling subproblem can expose a redex is by
binding the head variable of an application, and only then is that
application normalized again.  Pattern arguments and the terms walked by
_abstract get the same check.
"""

from __future__ import annotations

from .errors import NonPatternError
from .nodes import App, Bound, Const, EigenVar, Lam, LogicVar, NablaIndex, Var, app
from .terms import _rebuild, deref, normalize, shift


# unify()'s results, by name.
SUCCESS = True
FAILURE = False


class _Fail(Exception):
    pass


def bind(var, value, trail):
    var.binding = value
    trail.append(var)


def undo_to(trail, mark):
    """Unbind the variables bound since the trail was mark long."""
    while len(trail) > mark:
        trail.pop().binding = None


def unify(t, s, st, instantiate_eigen=False):
    """Unify two terms in place under the state st; True or False.

    On success the accumulated bindings form a most general unifier of the
    level-respecting solutions.  On failure, and when a problem outside the
    pattern fragment raises NonPatternError or normalization runs out of
    budget, the trail has been rewound, so the state is exactly as before
    the call.
    """
    if t.inert and s.inert:
        return t is s
    trail = st.trail
    mark = len(trail)
    budget = st.norm_budget
    try:
        _unify(
            t if t.inert else normalize(t, budget),
            s if s.inert else normalize(s, budget),
            st,
            instantiate_eigen,
        )
        return True
    except _Fail:
        undo_to(trail, mark)
        return False
    except BaseException:
        undo_to(trail, mark)
        raise


def is_flex(h, left):
    """Is h an unbound variable unification may bind (left: on the left
    of an implication, where eigenvariables bend too)?"""
    if not isinstance(h, Var) or h.binding is not None:
        return False
    return isinstance(h, LogicVar) or (left and isinstance(h, EigenVar))


def _spine(t):
    if type(t) is App:
        return deref(t.head), t.args
    return t, ()


def _eta_expand(lam, u, st):
    """The pair k η-steps make of the abstraction lam and a term u that is
    not one: lam's body under its k leading λs, each through _whnf, and u
    shifted once by k and applied to Bound(k-1) … Bound(0)."""
    k = 0
    while type(lam) is Lam:
        lam = _whnf(lam.body, st)
        k += 1
    return lam, app(shift(u, k), tuple(map(Bound, range(k - 1, -1, -1))))


def _whnf(t, st):
    """t dereferenced, normalized again only if its head variable has been
    bound since t was normalized: the one way a binding exposes a redex."""
    t = deref(t)
    if type(t) is App:
        h = t.head
        if isinstance(h, Var) and h.binding is not None:
            return normalize(t, st.norm_budget)
    return t


def _unify(t, s, st, left):
    """Unify two normal terms, raising _Fail.  Pairs wait on a stack, and
    two rigid applications push their argument pairs in reverse, so each
    pair is unified, subproblems and all, before the next."""
    todo = [(t, s)]
    while todo:
        t, s = todo.pop()
        t = _whnf(t, st)
        s = _whnf(s, st)
        if t.inert and s.inert:
            if t is s:
                continue
            raise _Fail
        tl, sl = type(t), type(s)
        if tl is Lam and sl is Lam:
            todo.append((t.body, s.body))
            continue
        if tl is Lam:
            todo.append(_eta_expand(t, s, st))
            continue
        if sl is Lam:
            s, t = _eta_expand(s, t, st)
            todo.append((t, s))
            continue
        th, targs = _spine(t)
        sh, sargs = _spine(s)
        tflex = is_flex(th, left)
        sflex = is_flex(sh, left)
        if tflex and sflex:
            if th is sh:
                _same_var(th, targs, sargs, st, t, s)
            else:
                _flex_flex(th, targs, sh, sargs, st, t, s)
        elif tflex:
            _bind_flex(th, targs, s, st, left, t)
        elif sflex:
            _bind_flex(sh, sargs, t, st, left, s)
        else:
            tt = type(th)
            if tt is not type(sh) or len(targs) != len(sargs):
                raise _Fail
            if tt is Bound or tt is NablaIndex:
                if th.index != sh.index:
                    raise _Fail
            elif th is not sh:  # a variable or a constant
                raise _Fail
            todo.extend(zip(reversed(targs), reversed(sargs)))


def _atom_key(a):
    """Identity key for a pattern argument (distinctness, membership)."""
    ta = type(a)
    if ta is Bound:
        return ("b", a.index)
    if ta is NablaIndex:
        return ("n", a.index)
    return ("v", id(a))


def _pattern(f, args, st, lhs, rhs):
    """The arguments of the flexible f, each through _whnf, as its pattern
    table: each one's key (_atom_key) to its position and itself, in order.
    NonPatternError unless they meet the pattern condition for f."""
    table = {}
    for a in args:
        a = _whnf(a, st)
        ta = type(a)
        if not (ta is Bound or ta is NablaIndex or isinstance(a, EigenVar)):
            raise NonPatternError(lhs, rhs, (
                "argument of %s is not a λ-bound variable, eigenvariable, "
                "or ∇-index" % f.name))
        if _visible_to(f, a):
            raise NonPatternError(lhs, rhs, (
                "argument #%d is already visible to %s (local level %d)"
                % (a.index, f.name, f.local_level) if ta is NablaIndex else
                "argument %s is already visible to %s (global level)"
                % (a.name, f.name)))
        k = _atom_key(a)
        if k in table:
            raise NonPatternError(lhs, rhs, "repeated argument of %s" % f.name)
        table[k] = (len(table), a)
    return table


def _visible_to(v, atom):
    """May atom occur in a binding of v under the level discipline?  An
    eigenvariable must be below v at both levels: one at a higher local
    level may yet be bound, on the left of an implication, to a term
    holding a ∇-index v cannot see."""
    ta = type(atom)
    if ta is Bound:
        return False
    if ta is NablaIndex:
        return atom.index < v.local_level
    return (atom.global_level < v.global_level
            and atom.local_level <= v.local_level)


def _wrap_lams(body, n):
    for _ in range(n):
        body = Lam(body)
    return body


def fits(u, v):
    """May the closed term u be bound to the variable v as it is, with no
    walk (head matching's write mode, logic._build)?  Yes when u is
    normal and its bounds (nodes.py) are strictly below v's levels: then
    u holds no ∇-index and no variable that v cannot see, and not v
    itself, so _abstract would return u unchanged."""
    return u.normal and u.gbound < v.global_level and u.lbound <= v.local_level


def _bind_flex(f, fargs, rigid, st, left, flex_term):
    table = _pattern(f, fargs, st, flex_term, rigid)
    body = _abstract(rigid, f, table, 0, st, left, flex_term, rigid)
    bind(f, _wrap_lams(body, len(table)), st.trail)


def _abstract(u, f, table, depth, st, left, lhs, rhs):
    """Rewrite u into the body of f's binding, table being f's pattern table.

    Occurrences of f's pattern arguments become λ-indices of the new binding;
    atoms f can see pass through; instantiable variables beyond f's horizon
    get pruned; anything else has no level-respecting unifier.  The walk is
    terms.py's; depth counts the λs entered.
    """
    todo = [u]
    done = []
    while todo:
        u = todo.pop()
        if type(u) is tuple:
            u = u[0]
            if type(u) is Lam:
                depth -= 1
            done.append(_rebuild(u, done))
            continue
        u = _whnf(u, st)
        if u.inert:
            done.append(u)
            continue
        tu = type(u)
        if tu is Lam:
            todo.append((u,))
            depth += 1
            todo.append(u.body)
            continue
        head, args = _spine(u)
        if is_flex(head, left):
            if head is f:
                raise _Fail  # occurs check
            done.append(_prune_flex(head, args, f, table, depth, st, lhs, rhs))
            continue
        h = _cross(head, f, table, depth)
        if h is None:
            raise _Fail
        done.append(h)
        if tu is App:
            todo.append((u,))
            todo.extend(args[::-1])
    return done[0]


def _cross(a, f, table, depth):
    """Atom a, met under depth λs, as it reads inside f's binding body.

    a itself if f can see it (a constant, a λ bound inside the body, or an
    atom visible at f's levels), the λ-index of the pattern argument it is
    (f's pattern table), or None when f can reach it neither way.
    """
    ta = type(a)
    if ta is Bound:
        if a.index < depth:
            return a
        a = Bound(a.index - depth)
    elif ta is Const or _visible_to(f, a):
        return a
    hit = table.get(_atom_key(a))
    return None if hit is None else Bound(depth + len(table) - 1 - hit[0])


def _bind_fresh(v, table, sel, k, trail):
    """Bind v, whose pattern table is table, to the fresh variable k applied
    to the atoms sel lists as (key, atom) pairs: each of v's own arguments
    as the λ-index of its position, any other atom as itself."""
    n = len(table)
    out = []
    for ka, a in sel:
        hit = table.get(ka)
        out.append(a if hit is None else Bound(n - 1 - hit[0]))
    bind(v, _wrap_lams(app(k, tuple(out)), n), trail)


def _prune_flex(h, hargs, f, table, depth, st, lhs, rhs):
    """Translate an occurrence of flex h inside f's binding body.

    Arguments of h that f can reach (directly visible, local λ, or one of
    f's own pattern arguments) survive; the rest force h down to a fresh
    variable over the survivors at the pointwise-minimum levels.
    """
    own = _pattern(h, hargs, st, lhs, rhs)
    survivors = []  # (key in own, translation inside f's body)
    for ka, (_, z) in own.items():
        tr = _cross(z, f, table, depth)
        if tr is not None:
            survivors.append((ka, tr))
    translated = tuple(tr for _, tr in survivors)
    if (len(survivors) == len(own) and h.global_level <= f.global_level
            and h.local_level <= f.local_level):
        return app(h, translated)
    hp = st.fresh_at(type(h), h.name, min(f.global_level, h.global_level),
                     min(f.local_level, h.local_level))
    _bind_fresh(h, own, survivors, hp, st.trail)
    return app(hp, translated)


def _same_var(f, targs, sargs, st, lhs, rhs):
    if len(targs) != len(sargs):
        raise NonPatternError(
            lhs, rhs, "same variable applied at different arities")
    ttable = _pattern(f, targs, st, lhs, rhs)
    stable = _pattern(f, sargs, st, lhs, rhs)
    # The arguments the two sides hold at the same position.
    kept = [(ka, a) for (ka, (_, a)), kb in zip(ttable.items(), stable)
            if ka == kb]
    if len(kept) == len(ttable):
        return  # identical flex terms, nothing to do
    k = st.fresh_at(type(f), f.name, f.global_level, f.local_level)
    _bind_fresh(f, ttable, kept, k, st.trail)


def _flex_flex(f, targs, h, sargs, st, lhs, rhs):
    if not targs and not sargs:
        # Bare variables: bind the one at higher levels to the other, so a
        # variable at or below its partner's levels is left untouched.
        if h.global_level <= f.global_level and h.local_level <= f.local_level:
            bind(f, h, st.trail)
            return
        if f.global_level <= h.global_level and f.local_level <= h.local_level:
            bind(h, f, st.trail)
            return
    ttable = _pattern(f, targs, st, lhs, rhs)
    stable = _pattern(h, sargs, st, lhs, rhs)
    g = min(f.global_level, h.global_level)
    l = min(f.local_level, h.local_level)
    cls = LogicVar if type(f) is LogicVar else type(h)
    k = st.fresh_at(cls, f.name, g, l)
    # f's arguments that h shares or can see, then h's own that f can see.
    sel = [(ka, a) for ka, (_, a) in ttable.items()
           if ka in stable or _visible_to(h, a)]
    sel += [(ka, a) for ka, (_, a) in stable.items()
            if ka not in ttable and _visible_to(f, a)]
    _bind_fresh(f, ttable, sel, k, st.trail)
    _bind_fresh(h, stable, sel, k, st.trail)
