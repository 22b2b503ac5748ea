"""Pattern unification: level side conditions, abstraction, pruning, trail."""

import pytest
from hypothesis import example, given, settings, strategies as hs

from conftest import python_calls, run

from nablacheck.engine import State, solve
from nablacheck.errors import NonPatternError
from nablacheck.nodes import (
    App, Bound, Const, EigenVar, Lam, LogicVar, NablaIndex, Var, app,
)
from nablacheck.parser import parse_query
from nablacheck.terms import (
    deref,
    equal_modulo,
    normalize,
    struct_eq,
)
from nablacheck import unify as unify_mod
from nablacheck.unify import FAILURE, SUCCESS, undo_to, unify
from oracles import free_vars

a, b, f, g = Const("a"), Const("b"), Const("f"), Const("g")


def test_logic_var_binds_to_earlier_eigenvariable():
    st = State()
    x = st.fresh_eigen("x")      # global 0
    y = st.fresh_logic("Y")      # global 1: may depend on x
    assert unify(y, x, st) is SUCCESS
    assert deref(y) is x


def test_logic_var_rejects_later_eigenvariable():
    st = State()
    y = st.fresh_logic("Y")      # global 0
    st.fresh_eigen("x")
    z = st.fresh_eigen("z")      # global 2: introduced after Y
    assert unify(y, z, st) is FAILURE
    assert deref(y) is y


def test_local_level_guards_nabla_indices():
    st = State()
    before = st.fresh_logic("F")          # local 0: #0 is invisible
    st.nabla_depth = 1
    after = st.fresh_logic("G")           # local 1: #0 is visible
    assert unify(before, NablaIndex(0), st) is FAILURE
    assert unify(after, NablaIndex(0), st) is SUCCESS
    assert struct_eq(deref(after), NablaIndex(0))


def test_flex_rigid_abstracts_the_pattern_arguments():
    st = State()
    fv = st.fresh_logic("F")              # knows neither x nor #0
    x = st.fresh_eigen("x")
    st.nabla_depth = 1
    lhs = app(fv, (x, NablaIndex(0)))
    rhs = app(g, (x, x, NablaIndex(0)))
    assert unify(lhs, rhs, st) is SUCCESS
    assert struct_eq(
        deref(fv), Lam(Lam(app(g, (Bound(1), Bound(1), Bound(0)))))
    )
    assert equal_modulo(lhs, rhs)


def test_occurs_check_fails():
    st = State()
    x = st.fresh_logic("X")
    assert unify(x, app(f, (x,)), st) is FAILURE
    assert deref(x) is x


def test_rigid_occurrence_of_invisible_eigen_fails():
    st = State()
    x = st.fresh_logic("X")
    y = st.fresh_eigen("y")               # later: invisible to X
    assert unify(x, app(f, (y,)), st) is FAILURE


def test_flex_occurrence_is_pruned_not_failed():
    st = State()
    x = st.fresh_logic("X")               # global 0
    st.fresh_eigen("x")
    later = st.fresh_logic("Y")           # global 2, too permissive
    assert unify(x, app(f, (later,)), st) is SUCCESS
    t = deref(x)
    assert type(t) is App and t.head is f
    (pruned,) = free_vars(t)
    assert pruned.global_level <= x.global_level
    assert deref(later) is pruned


def test_rigid_rigid_decomposition_and_clash():
    st = State()
    x = st.fresh_logic("X")
    assert unify(app(f, (x, b)), app(f, (a, b)), st) is SUCCESS
    assert struct_eq(deref(x), a)
    assert unify(app(f, (a,)), app(g, (a,)), st) is FAILURE
    assert unify(app(f, (a,)), app(f, (a, b)), st) is FAILURE


def test_eta_expansion_bridges_lam_and_atom():
    st = State()
    assert unify(Lam(app(f, (Bound(0),))), f, st) is SUCCESS
    assert unify(Lam(app(f, (Bound(0),))), g, st) is FAILURE


def test_same_var_arity_mismatch_is_non_pattern():
    st = State()
    x = st.fresh_logic("X")
    st.nabla_depth = 2
    with pytest.raises(NonPatternError):
        unify(app(x, (NablaIndex(0), NablaIndex(1))), app(x, (NablaIndex(0),)), st)


def test_constant_argument_is_non_pattern():
    st = State()
    x = st.fresh_logic("X")
    with pytest.raises(NonPatternError) as e:
        unify(app(x, (a,)), a, st)
    assert e.value.lhs is not None and e.value.rhs is not None


def test_identical_non_pattern_terms_stay_non_pattern():
    # Only inert terms unify by identity; F (s z) is outside the fragment.
    st = State()
    x = st.fresh_logic("F")
    t = app(x, (app(Const("s"), (Const("z"),)),))
    with pytest.raises(NonPatternError):
        unify(t, t, st)


def test_repeated_argument_is_non_pattern():
    st = State()
    x = st.fresh_logic("X")
    st.nabla_depth = 1
    with pytest.raises(NonPatternError):
        unify(app(x, (NablaIndex(0), NablaIndex(0))), a, st)


def test_eigenvariable_below_only_by_global_level_is_a_pattern_argument():
    # e is below F by its global level but above it by its local level, so
    # F cannot see e (_visible_to) and F e is a pattern: F := x\ a.
    st = State()
    fv = st.fresh_at(LogicVar, "F", 5, 0)
    e = st.fresh_at(EigenVar, "e", 3, 2)
    assert unify(app(fv, (e,)), a, st) is SUCCESS
    assert struct_eq(deref(fv), Lam(a))


def test_same_var_positional_intersection():
    st = State()
    x = st.fresh_logic("X")
    st.nabla_depth = 2
    i0, i1 = NablaIndex(0), NablaIndex(1)
    assert unify(app(x, (i0, i1)), app(x, (i1, i0)), st) is SUCCESS
    assert equal_modulo(app(x, (i0, i1)), app(x, (i1, i0)))
    # positions disagree everywhere, so the result ignores both arguments
    assert equal_modulo(app(x, (i0, i1)), app(x, (i0, i0)))


def test_same_var_keeps_agreeing_positions():
    st = State()
    x = st.fresh_logic("X")
    st.nabla_depth = 3
    i0, i1, i2 = NablaIndex(0), NablaIndex(1), NablaIndex(2)
    assert unify(app(x, (i0, i1)), app(x, (i0, i2)), st) is SUCCESS
    # the disagreeing second argument is dropped, the first survives
    assert equal_modulo(app(x, (i0, i1)), app(x, (i0, i2)))
    assert not equal_modulo(app(x, (i1, i0)), app(x, (i2, i0)))


def test_different_vars_keep_common_arguments():
    st = State()
    x = st.fresh_logic("X")
    y = st.fresh_logic("Y")
    st.nabla_depth = 1
    i0 = NablaIndex(0)
    assert unify(app(x, (i0,)), app(y, (i0,)), st) is SUCCESS
    assert equal_modulo(app(x, (i0,)), app(y, (i0,)))


def test_flex_flex_bare_variables_alias():
    st = State()
    x = st.fresh_logic("X")
    y = st.fresh_logic("Y")
    assert unify(x, y, st) is SUCCESS
    assert deref(x) is deref(y)


def test_bare_variables_bind_only_the_one_at_higher_levels():
    st = State()
    x = st.fresh_logic("X")
    y = st.fresh_logic("Y")
    for lhs, rhs in ((x, y), (y, x)):
        mark = len(st.trail)
        assert unify(lhs, rhs, st) is SUCCESS
        assert st.trail[mark:] == [y]
        assert deref(y) is x and x.binding is None
        undo_to(st.trail, mark)
    # Incomparable levels: each may see something the other may not, so
    # both are bound to a new variable at the lower levels.
    u = st.fresh_at(LogicVar, "X", 1, 0)
    v = st.fresh_at(LogicVar, "X", 0, 1)
    mark = len(st.trail)
    assert unify(u, v, st) is SUCCESS
    assert len(st.trail[mark:]) == 2
    k = deref(u)
    assert k is deref(v) and (k.global_level, k.local_level) == (0, 0)


def _count_normalize(monkeypatch):
    calls = [0]
    real = unify_mod.normalize

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(unify_mod, "normalize", counted)
    return calls


def test_each_side_is_normalized_at_most_once(monkeypatch):
    calls = _count_normalize(monkeypatch)
    st = State()
    x = st.fresh_logic("X")
    y = st.fresh_logic("Y")
    z = st.fresh_logic("Z")
    lhs = app(f, (x, app(g, (y, a)), y))
    rhs = app(f, (app(g, (b,)), app(g, (z, a)), app(g, (b,))))
    # Both sides are normal (variables count as normal, whatever they are
    # bound to), so neither is normalized.
    assert unify(lhs, rhs, st) is SUCCESS
    assert calls[0] == 0
    assert equal_modulo(lhs, rhs)
    # Nor is a variable against an inert term, or two constants.
    calls[0] = 0
    w = st.fresh_logic("W")
    assert unify(w, app(g, (a, b)), st) is SUCCESS
    assert calls[0] == 0
    calls[0] = 0
    assert unify(a, Const("a"), st) is SUCCESS
    assert unify(a, b, st) is FAILURE
    assert calls[0] == 0


def test_redex_exposed_by_a_sibling_binding_is_normalized(monkeypatch):
    calls = _count_normalize(monkeypatch)
    st = State()
    fv = st.fresh_logic("F")
    lhs = app(f, (fv, app(fv, (a,))))
    two = Lam(app(g, (Bound(0), Bound(0))))
    assert unify(lhs, app(f, (two, app(g, (a, b)))), st) is FAILURE
    calls[0] = 0
    assert unify(lhs, app(f, (two, app(g, (a, a)))), st) is SUCCESS
    # Once for the side holding F a, which is not normal, and once more for
    # F a after F was bound; the other side is normal.
    assert calls[0] == 2
    assert struct_eq(normalize(lhs), app(f, (two, app(g, (a, a)))))


def test_pattern_argument_exposed_as_a_redex_is_normalized():
    # The first argument binds X to an application K e of a new variable
    # K, the second binds K to the identity, so F X is the pattern F e.
    st = State()
    fv = st.fresh_logic("F")
    h = st.fresh_logic("H")
    e = st.fresh_eigen("e")
    x = st.fresh_logic("X")
    lhs = app(f, (x, h, app(fv, (x,))))
    rhs = app(f, (app(h, (e,)), Lam(Bound(0)), app(fv, (e,))))
    assert unify(lhs, rhs, st) is SUCCESS
    assert equal_modulo(lhs, rhs)


def test_eigenvariables_are_rigid_unless_asked():
    st = State()
    x = st.fresh_eigen("x")
    assert unify(x, a, st) is FAILURE
    assert unify(x, a, st, instantiate_eigen=True) is SUCCESS
    assert struct_eq(deref(x), a)


def test_instantiable_eigens_unify_with_each_other():
    st = State()
    r = st.fresh_eigen("r")
    t = st.fresh_eigen("t")
    assert unify(r, t, st, instantiate_eigen=True) is SUCCESS
    assert deref(r) is deref(t)


def test_trail_undo_restores_everything():
    st = State()
    x = st.fresh_logic("X")
    y = st.fresh_logic("Y")
    mark = len(st.trail)
    assert unify(app(f, (x, y)), app(f, (a, b)), st) is SUCCESS
    assert st.trail[mark:]
    undo_to(st.trail, mark)
    assert deref(x) is x and deref(y) is y
    assert len(st.trail) == mark


def test_failure_leaves_no_bindings():
    st = State()
    x = st.fresh_logic("X")
    mark = len(st.trail)
    # X binds to a first, then b clashes; the trail must be rewound
    assert unify(app(f, (x, x)), app(f, (a, b)), st) is FAILURE
    assert len(st.trail) == mark
    assert deref(x) is x


def test_non_pattern_leaves_no_bindings():
    st = State()
    x = st.fresh_logic("X")
    y = st.fresh_logic("Y")
    mark = len(st.trail)
    with pytest.raises(NonPatternError):
        unify(app(f, (x, app(y, (a,)))), app(f, (b, b)), st)
    assert len(st.trail) == mark
    assert deref(x) is x


def test_beta_redexes_normalize_before_unification():
    st = State()
    x = st.fresh_logic("X")
    lhs = app(Lam(app(f, (Bound(0),))), (x,))
    assert unify(lhs, app(f, (a,)), st) is SUCCESS
    assert struct_eq(deref(x), a)


# ---------------------------------------------------------------------------
# Randomized: success means the two sides became equal, failure is clean
# ---------------------------------------------------------------------------

def _ground():
    return hs.recursive(
        hs.sampled_from([a, b, NablaIndex(0)]),
        lambda sub: hs.one_of(
            hs.builds(lambda s: app(f, (s,)), sub),
            hs.builds(lambda s, t: app(g, (s, t)), sub, sub),
            hs.builds(Lam, sub),
        ),
        max_leaves=6,
    )


@settings(max_examples=200, deadline=None)
@given(_ground(), _ground(), hs.integers(0, 2))
def test_unify_postconditions(lhs_g, rhs_g, nvars):
    st = State()
    st.nabla_depth = 1
    xs = [st.fresh_logic(f"X{i}") for i in range(nvars)]
    lhs = app(f, (lhs_g, *xs))
    rhs = app(f, (rhs_g, *(reversed(xs))))
    mark = len(st.trail)
    r = unify(lhs, rhs, st)
    if r is SUCCESS:
        assert equal_modulo(lhs, rhs)
    else:
        assert len(st.trail) == mark
    undo_to(st.trail, mark)


@pytest.mark.parametrize("n", [10, 2000])
def test_a_variable_meets_a_chain_of_lambdas_with_one_shift(monkeypatch, n):
    # The flexible side is η-expanded once for the whole chain, shifted by
    # n in one walk, where one η-step per λ made the work quadratic in n.
    shifts = []
    real_shift = unify_mod.shift

    def counting(t, by, cutoff=0):
        shifts.append(by)
        return real_shift(t, by, cutoff)

    monkeypatch.setattr(unify_mod, "shift", counting)
    r = run(State(), "exists F. F = (" + "x\\ " * n + "a)")
    assert r.proved and len(r.answers) == 1
    assert shifts == [n]
    # The η case stays: a variable equals its own η-expansion.
    assert run(State(), "exists X. X = (y\\ X y)").proved


def test_a_chain_of_lambdas_over_all_its_variables_unifies_in_linear_work():
    # X = (x0\ … x(n-1)\ f x0 … x(n-1)) binds X through the pattern table
    # of X's n arguments and reads back, η-contracted in one shift, as f.
    # A scan of the arguments per atom crossed, or a shift per contracted
    # λ, made the Python call count grow about 3.9× from n = 500 to 1,000;
    # linear work doubles it.
    def calls(n):
        names = ["x%d" % i for i in range(n)]
        goal = parse_query("exists X. X = (" + "".join(x + "\\ " for x in names)
                           + "f " + " ".join(names) + ")")
        results = []
        count = len(python_calls(lambda: results.append(solve(goal, State()))))
        r, = results
        assert r.proved and [a.text() for a in r.answers] == ["X = f"], r.answers
        return count

    small, large = calls(500), calls(1000)
    assert large <= 2.5 * small, (small, large)


# ---------------------------------------------------------------------------
# Level bounds and the normal flag (nodes.py) under random unifications
# ---------------------------------------------------------------------------

_SHAPES = hs.recursive(
    hs.one_of(
        hs.tuples(hs.just("c"), hs.sampled_from("ab")),
        hs.tuples(hs.just("v"), hs.integers(0, 5)),
        hs.tuples(hs.just("n"), hs.integers(0, 2)),
        hs.tuples(hs.just("b"), hs.integers(0, 1)),
    ),
    lambda sub: hs.one_of(
        hs.tuples(hs.just("lam"), sub),
        hs.tuples(hs.just("app"), hs.sampled_from("fg"),
                  hs.lists(sub, min_size=1, max_size=2)),
    ),
    max_leaves=6,
)


def _from_shape(shape, pool, lams=0):
    """A closed term: constants, λs, ∇-indices and the pool's variables."""
    kind = shape[0]
    if kind == "c":
        return Const(shape[1])
    if kind == "v":
        return pool[shape[1] % len(pool)]
    if kind == "n":
        return NablaIndex(shape[1])
    if kind == "b":
        return Bound(shape[1] % lams) if lams else a
    if kind == "lam":
        return Lam(_from_shape(shape[1], pool, lams + 1))
    return App(Const(shape[1]),
               tuple(_from_shape(s, pool, lams) for s in shape[2]))


def _walked_bounds(t):
    """(gbound, lbound) of t recomputed by a walk through bindings."""
    t = deref(t)
    if isinstance(t, Var):
        return t.global_level, t.local_level
    if type(t) is NablaIndex:
        return -1, t.index + 1
    if type(t) is Lam:
        return _walked_bounds(t.body)
    if type(t) is App:
        parts = [_walked_bounds(u) for u in (t.head, *t.args)]
        return max(g for g, _ in parts), max(l for _, l in parts)
    return -1, 0


def _nodes(t):
    """Every node reachable from t, through bindings too."""
    todo = [t]
    while todo:
        u = todo.pop()
        yield u
        if isinstance(u, Var) and u.binding is not None:
            todo.append(u.binding)
        elif type(u) is Lam:
            todo.append(u.body)
        elif type(u) is App:
            todo.append(u.head)
            todo.extend(u.args)


@settings(max_examples=300, deadline=None)
@given(
    hs.lists(hs.tuples(hs.booleans(), hs.integers(0, 6), hs.integers(0, 2)),
             min_size=1, max_size=6),
    hs.lists(hs.tuples(_SHAPES, _SHAPES, hs.booleans()),
             min_size=1, max_size=6),
)
# A logic variable meeting a rigid eigenvariable below it globally but
# above it locally: binding one to the other would break the bounds.
@example([(False, 5, 0), (True, 3, 2)], [(("v", 0), ("v", 1), False)])
def test_bounds_and_normal_flag_hold_under_any_bindings(levels, problems):
    # Variables at random levels, eigen- or logic, and random unifications
    # in either mode.  After each one, every node's cached bounds are at
    # least those a walk through the bindings finds, and a node flagged
    # normal normalizes to itself with only its bindings followed.
    st = State()
    pool = [st.fresh_at(EigenVar if eigen else LogicVar, f"V{i}", g, l)
            for i, (eigen, g, l) in enumerate(levels)]
    terms = []
    for lhs, rhs, left in problems:
        t, s = _from_shape(lhs, pool), _from_shape(rhs, pool)
        terms += [t, s]
        try:
            unify(t, s, st, instantiate_eigen=left)
        except NonPatternError:
            pass
        for root in terms:
            for u in _nodes(root):
                g, l = _walked_bounds(u)
                assert u.gbound >= g and u.lbound >= l, u
                if u.normal:
                    assert struct_eq(normalize(u), u), u
