"""Engine unit tests: registration checks, step semantics, exploration."""

from dataclasses import replace
from enum import IntEnum

import pytest

from hilcheck.engine import (Assertion, BoolDomain, ChoiceEntry, ChoicePoint,
                             Group, IntDomain, ModelError, SymbolicDomain,
                             UpdateFunctions, Var, VerdictKind, explore,
                             first_value_resolver, log_resolver, probed_model,
                             register_model, replay_counterexample,
                             resolve_initial, step)


class Level(IntEnum):
    Low = 0
    Mid = 1
    High = 2


def _noop(*views_and_ctx):
    return {}


def _updates(**overrides) -> UpdateFunctions:
    fields = dict(env_input=_noop, sys_input=_noop, beh_input=_noop,
                  env_output=_noop, sys_output=_noop, beh_output=_noop,
                  env_state=_noop, sys_state=_noop, beh_state=_noop)
    fields.update(overrides)
    return UpdateFunctions(**fields)


def _counter_model(**kwargs):
    """One env-state counter incremented each iteration."""
    def env_state(ei, e, ctx):
        return {"n": e.n + 1}

    defaults = dict(
        variables=[Var("n", Group.ENV_STATE, IntDomain(0, 100), 0)],
        updates=_updates(env_state=env_state),
    )
    defaults.update(kwargs)
    return register_model(**defaults)


# --- registration validation ---------------------------------------------

def test_register_rejects_empty_variable_list():
    with pytest.raises(ModelError, match="at least one variable"):
        register_model(variables=[], updates=_updates())


def test_register_rejects_duplicate_variable():
    v = Var("x", Group.ENV_STATE, IntDomain(0, 1), 0)
    with pytest.raises(ModelError, match="duplicate variable"):
        register_model(variables=[v, v], updates=_updates())


def test_same_name_in_different_groups_is_fine():
    model = register_model(
        variables=[Var("x", Group.ENV_STATE, IntDomain(0, 1), 0),
                   Var("x", Group.BEH_STATE, IntDomain(0, 1), 1)],
        updates=_updates())
    state, _ = resolve_initial(model)
    assert state.value(Group.ENV_STATE, "x") == 0
    assert state.value(Group.BEH_STATE, "x") == 1


def test_variable_names_must_be_identifiers():
    with pytest.raises(ModelError, match="identifier"):
        Var("not a name", Group.ENV_STATE, IntDomain(0, 1), 0)


@pytest.mark.parametrize("name", ["class", "None", "_x", "__dict__"])
def test_keywords_and_underscore_names_are_rejected_when_the_var_is_made(name):
    with pytest.raises(ModelError, match="not a keyword and does not start "
                                         "with '_'"):
        Var(name, Group.ENV_STATE, IntDomain(0, 1), 0)


def test_names_that_tuple_defines_are_plain_variables():
    names = ("count", "index", "match", "self")
    seen = []

    def env_state(ei, e, ctx):
        seen.append(tuple(e[name] for name in names))
        return {"count": e.count + 1, "index": e.index}

    model = register_model(
        variables=[Var(name, Group.ENV_STATE, IntDomain(0, 9), i)
                   for i, name in enumerate(names)],
        updates=_updates(env_state=env_state))
    state, _ = resolve_initial(model)
    result = step(model, state, first_value_resolver)
    assert seen[-1] == (0, 1, 2, 3)
    assert result.state.value(Group.ENV_STATE, "count") == 1


def test_register_rejects_out_of_domain_init():
    with pytest.raises(ModelError, match="initial value 999 outside the "
                                         "domain of env_state.n"):
        Var("n", Group.ENV_STATE, IntDomain(0, 100), 999)


def test_register_rejects_bool_for_int_domain():
    # bool is not an acceptable stand-in for an integer value
    with pytest.raises(ModelError, match="outside the domain"):
        Var("n", Group.ENV_STATE, IntDomain(0, 100), True)


@pytest.mark.parametrize("domain, value", [
    (SymbolicDomain(tuple(Level)), 1),
    (SymbolicDomain(tuple(Level)), True),
    (SymbolicDomain(tuple(Level)), 2.0),
    (IntDomain(0, 2), Level.Mid),
], ids=["int in enum", "bool in enum", "float in enum", "enum in int"])
def test_a_value_belongs_only_if_it_has_a_members_type(domain, value):
    # each of these compares equal to a member
    assert value in domain.values()
    assert not domain.contains(value)
    assert all(domain.contains(member) for member in domain.values())


def test_an_update_writing_an_int_into_an_enum_variable_is_rejected():
    def env_state(ei, e, ctx):
        return {"level": 1}

    with pytest.raises(ModelError, match="outside its"):
        register_model(
            variables=[Var("level", Group.ENV_STATE,
                           SymbolicDomain(tuple(Level)), Level.Low)],
            updates=_updates(env_state=env_state))


@pytest.mark.parametrize("key", ["n", ("env_state", "n"), (Group.ENV_STATE,)],
                         ids=["bare name", "string group", "one-tuple"])
def test_a_variable_is_named_only_by_group_and_name(key):
    with pytest.raises(ModelError, match="unknown variable"):
        _counter_model(init_choices=[(key, ChoicePoint("pick", (0,)))])
    with pytest.raises(ModelError, match="unknown variable"):
        probed_model(_counter_model(), key)


def test_unhashable_variable_key_is_a_model_error():
    key = (Group.ENV_STATE, ["n"])
    model = _counter_model()
    with pytest.raises(ModelError, match="unknown variable"):
        probed_model(model, key)
    with pytest.raises(ModelError, match="unknown variable"):
        _counter_model(init_choices=[(key, ChoicePoint("pick", (0,)))])
    state, _ = resolve_initial(model)
    with pytest.raises(ModelError, match="unknown variable"):
        state.value(*key)


def test_choice_point_rejects_system_site():
    with pytest.raises(ModelError, match="deterministic"):
        ChoicePoint("bad", (0, 1), site=Group.SYS_OUTPUT)


def test_choice_point_rejects_empty_and_duplicate_domains():
    with pytest.raises(ModelError, match="empty domain"):
        ChoicePoint("p", ())
    with pytest.raises(ModelError, match="duplicate"):
        ChoicePoint("p", (1, 1))


def test_register_rejects_duplicate_choice_ids():
    cp = ChoicePoint("p", (0, 1), site=Group.ENV_INPUT)
    with pytest.raises(ModelError, match="duplicate choice point"):
        _counter_model(choices=[cp, cp])


def test_register_rejects_duplicate_assertion_ids():
    a = Assertion("a", lambda s: True)
    with pytest.raises(ModelError, match="duplicate assertion"):
        _counter_model(assertions=[a, a])


def test_init_choice_must_fit_variable_domain():
    cp = ChoicePoint("pick", (0, 999), site=None)
    with pytest.raises(ModelError, match="outside the domain"):
        _counter_model(init_choices=[((Group.ENV_STATE, "n"), cp)])


def test_init_choice_must_use_site_none():
    cp = ChoicePoint("pick", (0, 1), site=Group.ENV_INPUT)
    with pytest.raises(ModelError, match="site None"):
        _counter_model(init_choices=[((Group.ENV_STATE, "n"), cp)])


def test_register_rejects_two_init_choices_for_one_variable():
    # the second draw would silently overwrite the first
    first = ChoicePoint("first", (0, 1), site=None)
    second = ChoicePoint("second", (1, 2), site=None)
    with pytest.raises(ModelError, match="two initialisation choices target "
                                         "env_state.n"):
        _counter_model(init_choices=[((Group.ENV_STATE, "n"), first),
                                     ((Group.ENV_STATE, "n"), second)])


def test_register_dry_run_catches_broken_updates():
    def bad(ei, e, ctx):
        return {"nope": 1}
    with pytest.raises(ModelError, match="unknown"):
        _counter_model(updates=_updates(env_state=bad))


def test_register_dry_run_wraps_raising_update():
    def bad(ei, e, ctx):
        raise KeyError("oops")
    with pytest.raises(ModelError, match="raised"):
        _counter_model(updates=_updates(env_state=bad))


def test_assertion_exception_becomes_model_error():
    # a predicate broken on every state is caught by the registration dry run
    with pytest.raises(ModelError, match="broken"):
        _counter_model(assertions=[Assertion("broken", lambda s: 1 // 0 == 0)])

    # one that only breaks on later states surfaces when stepping there
    fragile = Assertion(
        "fragile", lambda s: 1 // (2 - s.value(Group.ENV_STATE, "n")) >= 0)
    model = _counter_model(assertions=[fragile])
    state, _ = resolve_initial(model)
    state = step(model, state, first_value_resolver).state
    with pytest.raises(ModelError, match="fragile"):
        step(model, state, first_value_resolver)   # n becomes 2


# --- step semantics -------------------------------------------------------

def test_slot_execution_order():
    order = []

    def spy(name):
        def fn(*args):
            order.append(name)
            return {}
        return fn

    updates = UpdateFunctions(
        env_input=spy("env_in"), sys_input=spy("sys_in"),
        beh_input=spy("beh_in"), env_output=spy("env_out"),
        sys_output=spy("sys_out"), beh_output=spy("beh_out"),
        env_state=spy("env_state"), sys_state=spy("sys_state"),
        beh_state=spy("beh_state"))
    model = register_model(
        variables=[Var("x", Group.ENV_STATE, IntDomain(0, 1), 0)],
        updates=updates)
    order.clear()
    state, _ = resolve_initial(model)
    step(model, state, first_value_resolver)
    assert order == ["env_in", "sys_in", "beh_in",
                     "env_state", "sys_state", "beh_state",
                     "env_out", "sys_out", "beh_out"]


def test_inputs_see_previous_iteration_outputs_see_current_input_and_state():
    """env_input reads the OLD sys_output; an output reads this step's input
    and its model's NEW state; a state update reads its OLD state."""
    seen = {}

    def env_input(sys_out, env_state, ctx):
        seen["sys_out_at_input"] = sys_out.y
        return {"x": (env_state.cnt + 1) % 10}

    def env_output(env_in, env_state, ctx):
        seen["env_in_at_output"] = env_in.x
        seen["cnt_at_output"] = env_state.cnt
        return {}

    def env_state_fn(env_in, env_state, ctx):
        seen["cnt_at_state"] = env_state.cnt
        return {"cnt": (env_state.cnt + 1) % 10}

    def sys_output(sys_in, sys_state):
        return {"y": (sys_state.s + 5) % 10}

    def sys_state(sys_in, sys_state_view):
        return {"s": (sys_state_view.s + 1) % 10}

    model = register_model(
        variables=[Var("x", Group.ENV_INPUT, IntDomain(0, 9), 3),
                   Var("cnt", Group.ENV_STATE, IntDomain(0, 9), 3),
                   Var("y", Group.SYS_OUTPUT, IntDomain(0, 9), 7),
                   Var("s", Group.SYS_STATE, IntDomain(0, 9), 0),
                   Var("z", Group.ENV_OUTPUT, IntDomain(0, 9), 0)],
        updates=_updates(env_input=env_input, env_output=env_output,
                         env_state=env_state_fn, sys_output=sys_output,
                         sys_state=sys_state))
    state, _ = resolve_initial(model)
    result = step(model, state, first_value_resolver)
    assert seen["sys_out_at_input"] == 7      # previous iteration's value
    assert seen["env_in_at_output"] == 4      # this iteration's fresh value
    assert seen["cnt_at_state"] == 3          # the state update's old state
    assert seen["cnt_at_output"] == 4         # the output's new state
    assert result.state.value(Group.SYS_STATE, "s") == 1
    assert result.state.value(Group.SYS_OUTPUT, "y") == 6  # from NEW s=1

    result2 = step(model, result.state, first_value_resolver)
    assert seen["sys_out_at_input"] == 6
    assert result2.state.value(Group.SYS_OUTPUT, "y") == 7  # from s=2


def test_draws_are_logged_in_slot_order():
    """One draw in each of the six drawing slots lands in the log in step
    order: inputs, then states, then outputs."""
    drawing = ("env_input", "beh_input", "env_state", "beh_state",
               "env_output", "beh_output")

    def draw(point_id):
        def fn(*views_and_ctx):
            views_and_ctx[-1].choose(point_id)
            return {}
        return fn

    # declared in a different order from the step, which must not matter
    choices = [ChoicePoint(name, (0, 1), site=Group[name.upper()])
               for name in reversed(drawing)]
    model = register_model(
        variables=[Var("x", Group.ENV_STATE, IntDomain(0, 1), 0)],
        updates=_updates(**{name: draw(name) for name in drawing}),
        choices=choices)
    state, _ = resolve_initial(model)
    result = step(model, state, first_value_resolver)
    assert result.drawn == tuple(ChoiceEntry(1, name, 0) for name in drawing)


def test_group_views_expose_group_and_reject_unknown_names():
    checked = []

    def env_state(ei, e, ctx):
        assert e["x"] == e.x == 1
        assert ei.moved == ei["moved"] == 0
        for read in (lambda: e.ghost, lambda: e["ghost"], lambda: ei.x,
                     lambda: e.count, lambda: e.index):
            with pytest.raises(ModelError, match=r"no variable '\w+' in "
                                                 r"group env_(state|in)$"):
                read()
        for key in (0, None, ("x",), ["x"]):
            with pytest.raises(ModelError, match="no variable"):
                e[key]
        for name in ("_x", "_secret", "__weakref__"):
            with pytest.raises(AttributeError):
                getattr(e, name)
        with pytest.raises(AttributeError):
            e.x = 0
        with pytest.raises(AttributeError):
            e.ghost = 0
        with pytest.raises(TypeError):
            e["x"] = 0
        checked.append(True)
        return {}

    def beh_state(bi, b, ctx):
        # groups of no variables get views too, and still reject names
        with pytest.raises(ModelError, match="variable 'x' in group beh_in"):
            bi.x
        return {}

    model = register_model(
        variables=[Var("x", Group.ENV_STATE, IntDomain(0, 1), 1),
                   Var("moved", Group.ENV_INPUT, IntDomain(0, 1), 0)],
        updates=_updates(env_state=env_state, beh_state=beh_state))
    state, _ = resolve_initial(model)
    step(model, state, first_value_resolver)
    assert checked


def test_models_of_one_shape_share_their_view_classes():
    seen = []

    def env_state(ei, e, ctx):
        seen.append(type(e))
        return {}

    # each registration's trial step hands env_state one view
    for name, init in (("x", 0), ("x", 1), ("y", 0)):
        register_model(
            variables=[Var(name, Group.ENV_STATE, IntDomain(0, 1), init)],
            updates=_updates(env_state=env_state))
    x_first, x_second, y = seen
    assert x_first is x_second
    assert y is not x_first and y._fields == ("y",)


def test_step_calls_the_update_functions_a_replaced_model_carries():
    model = _counter_model()
    calls = []

    def env_state(ei, e, ctx):
        calls.append(e.n)
        return {"n": e.n + 5}

    swapped = replace(model, updates=replace(model.updates,
                                             env_state=env_state))
    state, _ = resolve_initial(swapped)
    assert step(swapped, state, first_value_resolver).state.value(
        Group.ENV_STATE, "n") == 5
    assert calls == [0]
    assert step(model, state, first_value_resolver).state.value(
        Group.ENV_STATE, "n") == 1
    assert calls == [0]


def test_omitted_variables_carry_over():
    def env_state(ei, e, ctx):
        return {"a": e.a + 1}

    model = register_model(
        variables=[Var("a", Group.ENV_STATE, IntDomain(0, 9), 0),
                   Var("b", Group.ENV_STATE, IntDomain(0, 9), 4)],
        updates=_updates(env_state=env_state))
    state, _ = resolve_initial(model)
    result = step(model, state, first_value_resolver)
    assert result.state.value(Group.ENV_STATE, "a") == 1
    assert result.state.value(Group.ENV_STATE, "b") == 4


def test_none_return_is_a_model_error():
    def bad(ei, e, ctx):
        return None

    with pytest.raises(ModelError, match="returned None"):
        _counter_model(updates=_updates(env_state=bad))


def test_out_of_domain_update_is_a_model_error():
    def env_state(ei, e, ctx):
        return {"n": e.n + 1}

    model = register_model(
        variables=[Var("n", Group.ENV_STATE, IntDomain(0, 1), 0)],
        updates=_updates(env_state=env_state))
    state, _ = resolve_initial(model)
    result = step(model, state, first_value_resolver)
    with pytest.raises(ModelError, match="outside its"):
        step(model, result.state, first_value_resolver)


def test_iteration_counter_advances():
    model = _counter_model()
    state, _ = resolve_initial(model)
    assert state.iteration == 0
    for expected in (1, 2, 3):
        state = step(model, state, first_value_resolver).state
        assert state.iteration == expected
        assert state.value(Group.ENV_STATE, "n") == expected


def test_step_is_pure():
    model = _counter_model()
    state, _ = resolve_initial(model)
    first = step(model, state, first_value_resolver)
    second = step(model, state, first_value_resolver)
    assert first.state == second.state
    assert state.value(Group.ENV_STATE, "n") == 0  # untouched


# --- choice mechanics -----------------------------------------------------

def test_choose_validates_site_and_id():
    cp = ChoicePoint("envpick", (0, 1), site=Group.ENV_INPUT)

    def beh_output(bi, b, ctx):
        ctx.choose("envpick")   # declared for env_input, drawn from beh_output
        return {}

    with pytest.raises(ModelError, match="declared for"):
        _counter_model(updates=_updates(beh_output=beh_output), choices=[cp])

    def env_input(so, e, ctx):
        ctx.choose("nosuch")
        return {}

    with pytest.raises(ModelError, match="unknown choice point"):
        _counter_model(updates=_updates(env_input=env_input))


def test_init_choice_cannot_be_drawn_mid_step():
    cp = ChoicePoint("seed", (0, 1), site=None)

    def env_input(so, e, ctx):
        ctx.choose("seed")
        return {}

    with pytest.raises(ModelError, match="initialisation choice"):
        register_model(
            variables=[Var("x", Group.ENV_STATE, IntDomain(0, 1), 0)],
            updates=_updates(env_input=env_input),
            init_choices=[((Group.ENV_STATE, "x"), cp)])


def test_a_step_choice_point_must_name_its_site():
    # no update draws it: without a site it could be drawn nowhere
    with pytest.raises(ModelError, match="choice point 'x' has no site"):
        _counter_model(choices=[ChoicePoint("x", (1, 2))])


def test_resolver_value_must_be_in_domain():
    cp = ChoicePoint("p", (0, 1), site=Group.ENV_INPUT)

    def env_input(so, e, ctx):
        return {"v": ctx.choose("p")}

    model = register_model(
        variables=[Var("v", Group.ENV_INPUT, IntDomain(0, 5), 0)],
        updates=_updates(env_input=env_input), choices=[cp])
    state, _ = resolve_initial(model)
    with pytest.raises(ModelError, match="outside the domain"):
        step(model, state, lambda cp, it: 42)


def test_drawn_value_must_have_the_type_of_its_choice_domain():
    cp = ChoicePoint("p", tuple(Level), site=Group.ENV_INPUT)

    def env_input(so, e, ctx):
        return {"v": ctx.choose("p")}

    model = register_model(
        variables=[Var("v", Group.ENV_INPUT, SymbolicDomain(tuple(Level)),
                       Level.Low)],
        updates=_updates(env_input=env_input), choices=[cp])
    state, _ = resolve_initial(model)
    with pytest.raises(ModelError, match="outside the domain of 'p'"):
        step(model, state, lambda cp, it: 1)

    seeded = _counter_model(init_choices=[
        ((Group.ENV_STATE, "n"), ChoicePoint("seed", (0, 1), site=None))])
    with pytest.raises(ModelError, match="outside the domain of 'seed'"):
        resolve_initial(seeded, lambda cp, it: True)


def test_init_choices_resolve_in_declared_order_at_iteration_zero():
    cps = [((Group.ENV_STATE, "x"), ChoicePoint("first", (5, 6), site=None)),
           ((Group.ENV_STATE, "y"), ChoicePoint("second", (7,), site=None))]
    model = register_model(
        variables=[Var("x", Group.ENV_STATE, IntDomain(0, 9), 0),
                   Var("y", Group.ENV_STATE, IntDomain(0, 9), 0)],
        updates=_updates(), init_choices=cps)
    state, log = resolve_initial(model)
    assert log == (ChoiceEntry(0, "first", 5), ChoiceEntry(0, "second", 7))
    assert state.value(Group.ENV_STATE, "x") == 5
    assert state.value(Group.ENV_STATE, "y") == 7


def test_log_resolver_replays_and_rejects_mismatches():
    cp = ChoicePoint("p", (0, 1, 2), site=Group.ENV_INPUT)

    def env_input(so, e, ctx):
        return {"v": ctx.choose("p")}

    model = register_model(
        variables=[Var("v", Group.ENV_INPUT, IntDomain(0, 5), 0)],
        updates=_updates(env_input=env_input), choices=[cp])
    state, _ = resolve_initial(model)
    good = log_resolver([ChoiceEntry(1, "p", 2)])
    assert step(model, state, good).state.value(Group.ENV_INPUT, "v") == 2

    stale = log_resolver([ChoiceEntry(9, "p", 2)])
    with pytest.raises(ModelError, match="replay mismatch"):
        step(model, state, stale)
    empty = log_resolver([])
    with pytest.raises(ModelError, match="exhausted"):
        step(model, state, empty)
