"""Term layer: levels, normalization, eta, equality, abstraction."""

import pytest
from hypothesis import given, settings, strategies as hs

from nablacheck.engine import State, _snap
from nablacheck.errors import NormalizationDepthExceeded
from nablacheck.logic import Top, replace_clause_vars, unfold
from nablacheck.nodes import App, Bound, ClauseVar, Const, Lam, NablaIndex, app
from nablacheck.terms import (
    deref,
    equal_modulo,
    has_unbound_logic_var,
    normalize,
    normalize_eta,
    shift,
    struct_eq,
)
from nablacheck.parser import parse_term
from nablacheck.unify import SUCCESS, _abstract, bind, unify
from oracles import alpha_eq, free_vars, nf, to_named

a, b, f, g = Const("a"), Const("b"), Const("f"), Const("g")


def test_levels_follow_the_quantifier_prefix():
    # Introductions under the prefix: forall x, exists Y, nabla, forall z.
    st = State()
    x = st.fresh_eigen("x")
    y = st.fresh_logic("Y")
    st.nabla_depth += 1
    z = st.fresh_eigen("z")
    assert (x.global_level, x.local_level) == (0, 0)
    assert (y.global_level, y.local_level) == (1, 0)
    assert (z.global_level, z.local_level) == (2, 1)
    assert len({x.id, y.id, z.id}) == 3


def test_variables_made_after_a_rewind_or_a_pruning_come_last():
    # A variable's global level is its id, so one made after a checkpoint
    # is restored, or after unify prunes a variable to lower levels, is
    # above every variable made before it.
    st = State()
    x = st.fresh_logic("X")
    cp = st.checkpoint()
    dead = st.fresh_eigen("d")
    st.undo_to(cp)
    y = st.fresh_logic("Y")
    assert unify(x, app(f, (y,)), st) is SUCCESS
    pruned = deref(y)
    assert pruned is not y and pruned.global_level == x.global_level
    z = st.fresh_logic("Z")
    for v, older in ((y, (x, dead)), (z, (x, dead, y, pruned))):
        assert v.global_level == v.id
        assert all(v.global_level > u.global_level for u in older)


def test_beta_reduction_basics():
    assert struct_eq(normalize(app(Lam(Bound(0)), (a,))), a)
    two = app(Lam(Lam(app(Bound(1), (Bound(0),)))), (f, a))
    assert struct_eq(normalize(two), app(f, (a,)))


def test_partial_application_keeps_spine_form():
    t = normalize(app(Lam(Lam(app(f, (Bound(1), Bound(0))))), (a,)))
    assert struct_eq(t, Lam(app(f, (a, Bound(0)))))


def test_reduction_under_binders():
    t = Lam(app(Lam(Bound(0)), (Bound(0),)))
    assert struct_eq(normalize(t), Lam(Bound(0)))


def test_divergent_term_hits_the_budget_and_reports_itself():
    omega = Lam(app(Bound(0), (Bound(0),)))
    loop = app(omega, (omega,))
    with pytest.raises(NormalizationDepthExceeded) as exc:
        normalize(loop, budget=500)
    assert exc.value.term is loop
    assert "x\\ x x" in str(exc.value)


def test_a_substitution_larger_than_the_budget_hits_it():
    # One β-step leaves 2 units of 3, and substituting into f x x x x
    # visits more nodes than that.
    t = app(Lam(app(f, (Bound(0),) * 4)), (a,))
    with pytest.raises(NormalizationDepthExceeded) as exc:
        normalize(t, budget=3)
    assert exc.value.term is t
    assert struct_eq(normalize(t, budget=7), app(f, (a,) * 4))


def test_eta_contraction_to_canonical_form():
    assert struct_eq(normalize_eta(Lam(app(f, (Bound(0),)))), f)
    assert struct_eq(
        normalize_eta(Lam(app(f, (a, Bound(0))))), app(f, (a,))
    )
    # x\ f x x is not an eta redex
    t = Lam(app(f, (Bound(0), Bound(0))))
    assert struct_eq(normalize_eta(t), t)
    # x\ f (g x) x contracts only the outer application
    t = Lam(app(f, (app(g, (Bound(0),)), Bound(0))))
    assert struct_eq(normalize_eta(t), t)


def test_eta_does_not_capture():
    # x\ x x: the argument x is the binder itself, no contraction
    t = Lam(app(Bound(0), (Bound(0),)))
    assert struct_eq(normalize_eta(t), t)


def test_equal_modulo_alpha_beta_eta():
    lhs = Lam(app(f, (Bound(0),)), hint="x")
    rhs = Lam(app(f, (Bound(0),)), hint="y")
    assert equal_modulo(lhs, rhs)
    assert equal_modulo(lhs, f)
    assert equal_modulo(app(Lam(Bound(0)), (f,)), f)
    assert not equal_modulo(f, g)


def test_struct_eq_variables_by_identity():
    st = State()
    x1 = st.fresh_logic("X")
    x2 = st.fresh_logic("X")
    assert struct_eq(x1, x1)
    assert not struct_eq(x1, x2)


def test_unbound_variable_queries():
    st = State()
    x = st.fresh_logic("X")
    e = st.fresh_eigen("x")
    t = app(f, (x, e))
    assert has_unbound_logic_var(t)
    assert not has_unbound_logic_var(app(f, (e,)))
    assert [v.id for v in free_vars(t)] == [x.id, e.id]
    # binding removes the variable from view
    x.binding = a
    assert not has_unbound_logic_var(t)
    x.binding = None


def test_binding_is_transparent_to_normalize():
    st = State()
    x = st.fresh_logic("X")
    x.binding = Lam(Bound(0))
    t = normalize(app(x, (a,)))
    assert struct_eq(t, a)
    x.binding = None


# ---------------------------------------------------------------------------
# Randomized: normal forms of terms with shared leaves
# ---------------------------------------------------------------------------

def _leaf():
    return hs.sampled_from(
        [a, b, f, Bound(0), Bound(1), NablaIndex(0), NablaIndex(1)]
    )


def _terms():
    return hs.recursive(
        _leaf(),
        lambda sub: hs.one_of(
            hs.builds(Lam, sub),
            hs.builds(
                lambda h, args: app(h, tuple(args)),
                sub,
                hs.lists(sub, min_size=1, max_size=3),
            ),
        ),
        max_leaves=16,
    )


@settings(max_examples=150, deadline=None)
@given(_terms())
def test_normalize_is_idempotent(t):
    try:
        n1 = normalize(t, budget=2000)
    except NormalizationDepthExceeded:
        return
    n2 = normalize(n1, budget=2000)
    assert struct_eq(n1, n2)


@settings(max_examples=150, deadline=None)
@given(_terms())
def test_eta_short_is_a_fixed_point(t):
    try:
        n1 = normalize_eta(t, budget=2000)
    except NormalizationDepthExceeded:
        return
    assert struct_eq(normalize_eta(n1, budget=2000), n1)
    assert normalize_eta(n1, budget=2000) is n1


_ATOMS = [a, b, f, g, NablaIndex(0)]


@hs.composite
def _closed_terms(draw, depth=0, size=12):
    """A term closed under depth binders, with η-redexes put in: chains of
    k λs over a trunk applied to their k variables, whose trunk either
    leaves those variables alone, so that the chain contracts, or is drawn
    where it may use them (x\\ f x x), so that it must not."""
    kind = draw(hs.integers(0, 4 if size > 1 else 0))
    if kind == 0:
        return draw(hs.sampled_from(_ATOMS + [Bound(i) for i in range(depth)]))
    if kind == 1:
        return Lam(draw(_closed_terms(depth + 1, size - 1)))
    if kind == 2:
        head = draw(_closed_terms(depth, size // 2))
        args = draw(hs.lists(_closed_terms(depth, size // 2),
                             min_size=1, max_size=2))
        return app(head, tuple(args))
    k = draw(hs.integers(1, 3))
    if kind == 3:
        trunk = shift(draw(_closed_terms(depth, size - 1)), k)
    else:
        trunk = draw(_closed_terms(depth + k, size - 1))
    t = app(trunk, tuple(Bound(i) for i in range(k - 1, -1, -1)))
    for _ in range(k):
        t = Lam(t)
    return t


@settings(max_examples=1000, deadline=None)
@given(_closed_terms())
def test_eta_short_form_matches_the_single_step_oracle(t):
    # The oracle (tests/oracles.py) β-reduces by leftmost-outermost steps
    # on named terms, then η-contracts one redex at a time; the kernel
    # contracts each λ as it rebuilds it, with one shift.
    try:
        expected = nf(to_named(t))
    except RuntimeError:  # no normal form within the oracle's fuel
        return
    assert alpha_eq(to_named(normalize_eta(t)), expected)


# ---------------------------------------------------------------------------
# Inert terms: Const-headed and variable-free, passed through unchanged
# ---------------------------------------------------------------------------

def _recompute_inert(t):
    """The inert predicate, recomputed from the structure below t."""
    if type(t) is Const:
        return True
    if type(t) is App:
        return type(t.head) is Const and all(_recompute_inert(x) for x in t.args)
    return False


def _subterms(t):
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if type(u) is App:
            stack.append(u.head)
            stack.extend(u.args)
        elif type(u) is Lam:
            stack.append(u.body)


def _var_leaf(bound):
    v = State().fresh_logic("X")
    if bound:
        v.binding = a  # bound to an inert term, still not inert itself
    return v


def _mixed_terms():
    leaf = hs.one_of(
        hs.sampled_from([a, b, f, Bound(0), NablaIndex(0), ClauseVar("Y")]),
        hs.builds(_var_leaf, hs.booleans()),
    )
    return hs.recursive(
        leaf,
        lambda sub: hs.one_of(
            hs.builds(Lam, sub),
            hs.builds(
                lambda h, args: app(h, tuple(args)),
                sub,
                hs.lists(sub, min_size=1, max_size=3),
            ),
            hs.builds(
                lambda h, args: App(h, tuple(args)),
                sub,
                hs.lists(sub, min_size=1, max_size=3),
            ),
        ),
        max_leaves=16,
    )


@settings(max_examples=200, deadline=None)
@given(_mixed_terms())
def test_inert_flag_matches_a_recomputation(t):
    for u in _subterms(t):
        assert u.inert == _recompute_inert(u)


def _list(n):
    t = Const("nil")
    for _ in range(n):
        t = app(Const("::"), (a, t))
    return t


def test_size_dependent_passes_return_inert_terms_unchanged():
    s, z = Const("s"), Const("z")
    num = app(s, (app(s, (z,)),))
    for t in (_list(50), num, app(f, (num, _list(3)))):
        assert t.inert
        assert normalize(t) is t
        assert normalize_eta(t) is t
        assert shift(t, 3) is t
        assert replace_clause_vars(t, {}, (b,)) is t
        st = State()
        v = st.fresh_logic("X")
        assert _abstract(t, v, [], 0, st, False, v, t) is t


def test_binding_to_an_inert_list_stores_the_list_itself():
    st = State()
    v = st.fresh_logic("L")
    lst = _list(1000)
    assert unify(v, lst, st) is SUCCESS
    assert v.binding is lst
    # inside a head match, the tail is bound without a copy as well
    x = st.fresh_logic("X")
    tail = st.fresh_logic("T")
    assert unify(app(Const("::"), (x, tail)), lst, st) is SUCCESS
    assert tail.binding is lst.args[1]


# Inert terms as specs: a constant's name, or (functor, spec, ...).
_INERT_SPECS = hs.recursive(
    hs.sampled_from(["a", "b"]),
    lambda sub: hs.one_of(
        hs.tuples(hs.just("f"), sub), hs.tuples(hs.just("g"), sub, sub)),
    max_leaves=5,
)


def _paths(spec, path=()):
    """Every position in spec, as the argument indices leading to it."""
    yield path
    if type(spec) is tuple:
        for i, c in enumerate(spec[1:]):
            yield from _paths(c, path + (i,))


def _at(spec, path):
    for i in path:
        spec = spec[1 + i]
    return spec


def _term(spec, hole=None, filler=None, path=()):
    """spec built with the node constructors, filler standing at hole."""
    if path == hole:
        return filler
    if type(spec) is str:
        return Const(spec)
    return App(Const(spec[0]), tuple(
        _term(c, hole, filler, path + (i,)) for i, c in enumerate(spec[1:])))


def _text(spec):
    if type(spec) is str:
        return spec
    return " ".join([spec[0]] + [f"({_text(c)})" for c in spec[1:]])


def _spec(t):
    """A term's structure, read back as a spec."""
    if type(t) is Const:
        return t.name
    return (t.head.name, *map(_spec, t.args))


def _by_route(route, spec, hole):
    """spec built along one route; the routes that fill a hole build the
    subterm at hole with the node constructors and the rest around it."""
    sub = _term(_at(spec, hole))
    if route == "nodes":
        return _term(spec)
    if route == "parser":
        return parse_term(_text(spec))
    if route == "clause variables":
        return replace_clause_vars(_term(spec, hole, ClauseVar("X")),
                                   {"X": sub})
    if route == "β-redex":
        return normalize(App(Lam(_term(spec, hole, Bound(0))), (sub,)))
    st = State()
    v = st.fresh_logic("V")
    if route == "answer":
        bind(v, sub, st.trail)
        return _snap(_term(spec, hole, v), {})
    # Write mode: mk X P[X] met by (sub, V) binds V to P[sub] through
    # _build, when P[X] is a constructor pattern.
    st.defs.add_clause("mk", (ClauseVar("X"), _term(spec, hole, ClauseVar("X"))),
                       Top(), ("X",))
    for _ in unfold(st.defs.defs["mk"], (sub, v), st):
        return deref(v)


_ROUTES = ["nodes", "parser", "clause variables", "β-redex", "answer",
           "write mode"]


@settings(max_examples=300, deadline=None)
@given(_INERT_SPECS, hs.data())
def test_inert_terms_built_by_any_routes_are_one_node_exactly_when_equal(
        spec, data):
    other = data.draw(hs.one_of(hs.just(spec), _INERT_SPECS))
    built = []
    for s in (spec, other):
        route = data.draw(hs.sampled_from(_ROUTES))
        hole = data.draw(hs.sampled_from(list(_paths(s))))
        t = _by_route(route, s, hole)
        assert t.inert and _spec(t) == s, (route, hole)
        built.append(t)
    t, u = built
    assert (t is u) == (spec == other) == struct_eq(t, u)
