"""Higher-order pattern unification with level annotations.

The solvable fragment: every occurrence of an instantiable variable F^{g,l}
is applied to pairwise-distinct arguments, each one an atom F cannot already
depend on — a λ-bound variable of an enclosing binder, an eigenvariable with
global level above g, or a ∇-index at or above l.  Problems outside the
fragment raise NonPatternError, an error surfaced to the caller, never a
silent failure.

Which variables are instantiable depends on the caller.  Everywhere except
inside an implication's antecedent only logic variables bend
(instantiate_eigen=False); the Level-0 prover running on the left of an
implication performs case analysis on definitions, which may instantiate the
sequent's eigenvariables, so there both kinds bend with the same level side
conditions.

Bindings happen in place and are logged on a trail; undo_to rewinds them in
LIFO order.  On FAILURE, and when unify() raises, the trail is already
rewound to the state at the call.

Level side conditions when binding F^{g,l} := u (after abstracting F's
pattern arguments): u contains no eigenvariable with global >= g, no ∇-index
at or above l, and no occurrence of F.  A variable H^{g',l'} inside u with
g' > g or l' > l is not rejected but lowered: H is bound to a fresh variable
over the arguments that survive F's horizon, the standard pruning step.

Inert terms (nodes.py) contain no variable, λ-index or ∇-index, so the
occurs, level and ∇ checks are all vacuous on them: _abstract returns an
inert subterm as it is, and a binding to an inert term stores that very
object, whatever its size.  Two identical inert terms unify at once.  That
shortcut is kept to inert terms on purpose: F (s z) = F (s z) is outside
the pattern fragment and must stay an error, not become a proof.  The flag
is fixed when a node is built and no binding can reach inside an inert
node, so it never goes stale as bindings come and go.

Normalization.  unify() normalizes each side once, and not at all when
the side is inert; two identical inert terms or two constants are answered
without entering the unifier.  Below that, a subterm of a normal term is
normal, so _unify only dereferences each subterm it visits (_whnf).  The
one way a binding made by a sibling subproblem can expose a redex is by
binding the head variable of an application, and only then is that
application normalized again.  Pattern arguments and the terms walked by
_abstract get the same check.
"""

from __future__ import annotations

from .errors import NonPatternError
from .nodes import App, Bound, Const, EigenVar, Lam, LogicVar, NablaIndex, Var, app
from .terms import DEFAULT_NORM_BUDGET, deref, normalize, shift


class Trail:
    """LIFO log of variable bindings for backtracking."""

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries = []

    def mark(self):
        return len(self._entries)

    def push(self, var):
        self._entries.append(var)

    def undo_to(self, mark):
        entries = self._entries
        while len(entries) > mark:
            entries.pop().binding = None

    def bound_since(self, mark):
        """The variables bound after the given mark (most recent last)."""
        return self._entries[mark:]

    def __len__(self):
        return len(self._entries)


class _SuccessType:
    __slots__ = ()

    def __repr__(self):
        return "Success"


class _FailureType:
    __slots__ = ()

    def __repr__(self):
        return "Failure"


SUCCESS = _SuccessType()
FAILURE = _FailureType()


class _Fail(Exception):
    pass


class UnifyCtx:
    """Minimal state for standalone unification (tests, oracles).

    The engine's State object offers the same three attributes and is passed
    in its place.
    """

    __slots__ = ("sig", "trail", "norm_budget")

    def __init__(self, sig, norm_budget=DEFAULT_NORM_BUDGET):
        self.sig = sig
        self.trail = Trail()
        self.norm_budget = norm_budget


def bind(var, value, trail):
    var.binding = value
    trail.push(var)


def unify(t, s, st, instantiate_eigen=False):
    """Unify two terms in place; returns SUCCESS or FAILURE.

    On SUCCESS the accumulated bindings form a most general unifier of the
    level-respecting solutions.  On FAILURE, and when a problem outside the
    pattern fragment raises NonPatternError or normalization runs out of
    budget, the trail has been rewound, so the state is exactly as before
    the call.
    """
    if t.inert and s.inert:
        if t is s:
            return SUCCESS
        if type(t) is Const and type(s) is Const:
            return SUCCESS if t.name == s.name else FAILURE
    mark = st.trail.mark()
    budget = st.norm_budget
    try:
        _unify(
            t if t.inert else normalize(t, budget),
            s if s.inert else normalize(s, budget),
            st,
            instantiate_eigen,
        )
        return SUCCESS
    except _Fail:
        st.trail.undo_to(mark)
        return FAILURE
    except BaseException:
        st.trail.undo_to(mark)
        raise


def _is_flex(h, left):
    if not isinstance(h, Var) or h.binding is not None:
        return False
    return isinstance(h, LogicVar) or (left and isinstance(h, EigenVar))


def _spine(t):
    if type(t) is App:
        return deref(t.head), t.args
    return t, ()


def _eta_body(u):
    """Body of the η-expansion of a non-abstraction u."""
    u = shift(u, 1)
    if type(u) is App:
        return App(u.head, u.args + (Bound(0),))
    return App(u, (Bound(0),))


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
    """Unify two normal terms, raising _Fail.  Rigid applications unify
    their arguments in order; the last pair, and the bodies of λs, are
    taken in this loop rather than by recursion."""
    while True:
        t = _whnf(t, st)
        s = _whnf(s, st)
        if t is s and t.inert:
            return
        tl, sl = type(t), type(s)
        if tl is Lam and sl is Lam:
            t, s = t.body, s.body
            continue
        if tl is Lam:
            t, s = t.body, _eta_body(s)
            continue
        if sl is Lam:
            t, s = _eta_body(t), s.body
            continue
        th, targs = _spine(t)
        sh, sargs = _spine(s)
        tflex = _is_flex(th, left)
        sflex = _is_flex(sh, left)
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
            _rigid_rigid(th, targs, sh, sargs, st, left)
            if targs:
                t, s = targs[-1], sargs[-1]
                continue
        return


def _rigid_rigid(th, targs, sh, sargs, st, left):
    """Check two rigid heads and arities, and unify all arguments but the
    last, which _unify takes next."""
    tt, ts = type(th), type(sh)
    if tt is not ts:
        raise _Fail
    if tt is Bound or tt is NablaIndex:
        if th.index != sh.index:
            raise _Fail
    elif isinstance(th, Var):
        if th is not sh:
            raise _Fail
    else:  # Const
        if th.name != sh.name:
            raise _Fail
    if len(targs) != len(sargs):
        raise _Fail
    for a, b in zip(targs[:-1], sargs):
        _unify(a, b, st, left)


def _atom_key(a):
    """Identity key for a pattern argument (distinctness, membership)."""
    ta = type(a)
    if ta is Bound:
        return ("b", a.index)
    if ta is NablaIndex:
        return ("n", a.index)
    return ("v", id(a))


def _check_pattern_args(f, args, lhs, rhs):
    """Raise NonPatternError unless args meet the pattern condition for f."""
    seen = set()
    for a in args:
        a = deref(a)
        ta = type(a)
        if ta is Bound:
            pass
        elif ta is NablaIndex:
            if a.index < f.local_level:
                raise NonPatternError(
                    lhs,
                    rhs,
                    "argument #%d is already visible to %s (local level %d)"
                    % (a.index, f.name, f.local_level),
                )
        elif isinstance(a, EigenVar) and a.binding is None:
            if a.global_level <= f.global_level:
                raise NonPatternError(
                    lhs,
                    rhs,
                    "argument %s is already visible to %s (global level)"
                    % (a.name, f.name),
                )
        else:
            raise NonPatternError(
                lhs,
                rhs,
                "argument of %s is not a λ-bound variable, eigenvariable, "
                "or ∇-index" % f.name,
            )
        k = _atom_key(a)
        if k in seen:
            raise NonPatternError(lhs, rhs, "repeated argument of %s" % f.name)
        seen.add(k)


def _visible_to(v, atom):
    """May atom occur in a binding of v under the level discipline?"""
    ta = type(atom)
    if ta is Bound:
        return False
    if ta is NablaIndex:
        return atom.index < v.local_level
    return atom.global_level < v.global_level


def _position(atom, args):
    key = _atom_key(atom)
    for i, a in enumerate(args):
        if _atom_key(deref(a)) == key:
            return i
    return None


def _wrap_lams(body, n):
    for _ in range(n):
        body = Lam(body)
    return body


def _bind_flex(f, fargs, rigid, st, left, flex_term):
    fargs = [_whnf(a, st) for a in fargs]
    _check_pattern_args(f, fargs, flex_term, rigid)
    n = len(fargs)
    body = _abstract(rigid, f, fargs, 0, st, left, flex_term, rigid)
    bind(f, _wrap_lams(body, n), st.trail)


def _abstract(u, f, fargs, depth, st, left, lhs, rhs):
    """Rewrite u into the body of f's binding.

    Occurrences of f's pattern arguments become λ-indices of the new binding;
    atoms f can see pass through; instantiable variables beyond f's horizon
    get pruned; anything else has no level-respecting unifier.  λ bodies and
    last arguments are walked in a loop, the other arguments recursively,
    in order.
    """
    frames = []  # a Lam, or (head, arguments but the last) of an application
    while True:
        u = _whnf(u, st)
        if u.inert:
            break
        tu = type(u)
        if tu is Lam:
            frames.append(u)
            depth += 1
            u = u.body
            continue
        head, args = _spine(u)
        if _is_flex(head, left):
            if head is f:
                raise _Fail  # occurs check
            u = _prune_flex(head, args, f, fargs, depth, st, lhs, rhs)
            break
        h = _cross(head, f, fargs, depth)
        if h is None:
            raise _Fail
        if tu is not App:
            u = h
            break
        frames.append((h, [_abstract(a, f, fargs, depth, st, left, lhs, rhs)
                           for a in args[:-1]]))
        u = args[-1]
    while frames:
        fr = frames.pop()
        if type(fr) is Lam:
            u = Lam(u, fr.hint)
        else:
            h, done = fr
            done.append(u)
            u = app(h, done)
    return u


def _cross(a, f, fargs, depth):
    """Atom a, met under depth λs, as it reads inside f's binding body.

    a itself if f can see it (a constant, a λ bound inside the body, or an
    atom visible at f's levels), the λ-index of the pattern argument it is,
    or None when f can reach it neither way.
    """
    ta = type(a)
    if ta is Bound:
        if a.index < depth:
            return a
        a = Bound(a.index - depth)
    elif ta is Const or _visible_to(f, a):
        return a
    pos = _position(a, fargs)
    return None if pos is None else Bound(depth + len(fargs) - 1 - pos)


def _prune_flex(h, hargs, f, fargs, depth, st, lhs, rhs):
    """Translate an occurrence of flex h inside f's binding body.

    Arguments of h that f can reach (directly visible, local λ, or one of
    f's own pattern arguments) survive; the rest force h down to a fresh
    variable over the survivors at the pointwise-minimum levels.
    """
    hargs = [_whnf(a, st) for a in hargs]
    _check_pattern_args(h, hargs, lhs, rhs)
    survivors = []  # (position in hargs, translation inside f's body)
    for i, z in enumerate(hargs):
        tr = _cross(z, f, fargs, depth)
        if tr is not None:
            survivors.append((i, tr))
    within_levels = (
        h.global_level <= f.global_level and h.local_level <= f.local_level
    )
    if within_levels and len(survivors) == len(hargs):
        return app(h, tuple(tr for _, tr in survivors))
    hp = st.sig.fresh_like(
        h,
        min(f.global_level, h.global_level),
        min(f.local_level, h.local_level),
    )
    m = len(hargs)
    inner = tuple(Bound(m - 1 - i) for i, _ in survivors)
    bind(h, _wrap_lams(app(hp, inner), m), st.trail)
    return app(hp, tuple(tr for _, tr in survivors))


def _same_var(f, targs, sargs, st, lhs, rhs):
    if len(targs) != len(sargs):
        raise NonPatternError(
            lhs, rhs, "same variable applied at different arities")
    targs = [_whnf(a, st) for a in targs]
    sargs = [_whnf(a, st) for a in sargs]
    _check_pattern_args(f, targs, lhs, rhs)
    _check_pattern_args(f, sargs, lhs, rhs)
    n = len(targs)
    kept = [
        i for i in range(n) if _atom_key(targs[i]) == _atom_key(sargs[i])
    ]
    if len(kept) == n:
        return  # identical flex terms, nothing to do
    k = st.sig.fresh_like(f, f.global_level, f.local_level)
    body = app(k, tuple(Bound(n - 1 - i) for i in kept))
    bind(f, _wrap_lams(body, n), st.trail)


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
    targs = [_whnf(a, st) for a in targs]
    sargs = [_whnf(a, st) for a in sargs]
    _check_pattern_args(f, targs, lhs, rhs)
    _check_pattern_args(h, sargs, lhs, rhs)
    g = min(f.global_level, h.global_level)
    l = min(f.local_level, h.local_level)
    template = f if isinstance(f, LogicVar) else h
    k = st.sig.fresh_like(template, g, l, name=f.name)
    tkeys = [_atom_key(a) for a in targs]
    skeys = [_atom_key(a) for a in sargs]
    sel = []
    selkeys = set()
    for a, ka in zip(targs, tkeys):
        if ka in skeys or _visible_to(h, a):
            sel.append(a)
            selkeys.add(ka)
    for a, ka in zip(sargs, skeys):
        if ka not in selkeys and ka not in tkeys and _visible_to(f, a):
            sel.append(a)
            selkeys.add(ka)

    def mk_binding(args, keys):
        n = len(args)
        out = []
        for a in sel:
            ka = _atom_key(a)
            if ka in keys:
                out.append(Bound(n - 1 - keys.index(ka)))
            else:
                out.append(a)
        return _wrap_lams(app(k, tuple(out)), n)

    bind(f, mk_binding(targs, tkeys), st.trail)
    bind(h, mk_binding(sargs, skeys), st.trail)
