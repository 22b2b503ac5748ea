"""Term layer: levels, normalization, eta, equality, abstraction."""

import pytest
from hypothesis import given, settings, strategies as hs

from nablacheck.errors import NormalizationDepthExceeded
from nablacheck.nodes import App, Bound, ClauseVar, Const, Lam, NablaIndex, app
from nablacheck.terms import (
    Signature,
    abstract_over_nabla,
    equal_modulo,
    has_unbound_logic_var,
    has_unbound_var,
    iter_free_vars,
    normalize,
    normalize_eta,
    shift,
    struct_eq,
    subst,
)
from nablacheck.unify import SUCCESS, UnifyCtx, _abstract, unify

a, b, f, g = Const("a"), Const("b"), Const("f"), Const("g")


def test_levels_follow_the_quantifier_prefix():
    # Introductions under the prefix: forall x, exists Y, nabla, forall z.
    sig = Signature()
    x = sig.fresh_eigen("x")
    y = sig.fresh_logic("Y")
    sig.nabla_depth += 1
    z = sig.fresh_eigen("z")
    assert (x.global_level, x.local_level) == (0, 0)
    assert (y.global_level, y.local_level) == (1, 0)
    assert (z.global_level, z.local_level) == (2, 1)
    assert len({x.id, y.id, z.id}) == 3


def test_ids_survive_counter_rewind():
    sig = Signature()
    saved = sig.next_global
    v1 = sig.fresh_logic()
    sig.next_global = saved  # what a checkpoint undo does
    v2 = sig.fresh_logic()
    assert v1.id != v2.id
    assert v1.global_level == v2.global_level


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
    sig = Signature()
    x1 = sig.fresh_logic("X")
    x2 = sig.fresh_logic("X")
    assert struct_eq(x1, x1)
    assert not struct_eq(x1, x2)


def test_abstract_over_nabla_roundtrip():
    t = app(f, (NablaIndex(0), a, NablaIndex(1)))
    lam = abstract_over_nabla(t, 1)
    assert struct_eq(lam, Lam(app(f, (NablaIndex(0), a, Bound(0)))))
    back = normalize(app(lam, (NablaIndex(1),)))
    assert struct_eq(back, t)


def test_abstract_over_nabla_under_existing_binder():
    t = Lam(app(f, (Bound(0), NablaIndex(0))))
    lam = abstract_over_nabla(t, 0)
    assert struct_eq(lam, Lam(Lam(app(f, (Bound(0), Bound(1))))))


def test_unbound_variable_queries():
    sig = Signature()
    x = sig.fresh_logic("X")
    e = sig.fresh_eigen("x")
    t = app(f, (x, e))
    assert has_unbound_var(t)
    assert has_unbound_logic_var(t)
    assert not has_unbound_logic_var(app(f, (e,)))
    assert has_unbound_var(app(f, (e,)))
    assert {v.id for v in iter_free_vars(t)} == {x.id, e.id}
    # binding removes the variable from view
    x.binding = a
    assert not has_unbound_logic_var(t)
    x.binding = None


def test_binding_is_transparent_to_normalize():
    sig = Signature()
    x = sig.fresh_logic("X")
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
    v = Signature().fresh_logic("X")
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
        assert subst(t, b) is t
        st = UnifyCtx(Signature())
        v = st.sig.fresh_logic("X")
        assert _abstract(t, v, [], 0, st, False, v, t) is t


def test_binding_to_an_inert_list_stores_the_list_itself():
    st = UnifyCtx(Signature())
    v = st.sig.fresh_logic("L")
    lst = _list(1000)
    assert unify(v, lst, st) is SUCCESS
    assert v.binding is lst
    # inside a head match, the tail is bound without a copy as well
    x = st.sig.fresh_logic("X")
    tail = st.sig.fresh_logic("T")
    assert unify(app(Const("::"), (x, tail)), lst, st) is SUCCESS
    assert tail.binding is lst.args[1]
