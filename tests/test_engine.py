"""Engine unit tests: registration checks, step semantics, exploration."""

from dataclasses import replace
from enum import Enum, IntEnum

import pytest

from hilcheck.engine import (Assertion, BoolDomain, ChoiceEntry, ChoicePoint,
                             Group, IntDomain, ModelError, SymbolicDomain,
                             UpdateFunctions, Var, probed_model,
                             register_model, resolve_initial, run_path, step)

from _reference import reference_step


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


@pytest.mark.parametrize("name, group, message", [
    (1, Group.ENV_STATE, "variable name 1 must be an identifier"),
    ("x", "env_state", "variable 'x' needs a Group, got 'env_state'"),
], ids=["int name", "string group"])
def test_a_var_needs_a_string_name_and_a_group(name, group, message):
    with pytest.raises(ModelError, match=message):
        Var(name, group, IntDomain(0, 1), 0)


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
    stepped, _ = step(model, state)
    assert seen[-1] == (0, 1, 2, 3)
    assert stepped.value(Group.ENV_STATE, "count") == 1


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


@pytest.mark.parametrize("key", ["n", ("env_state", "n"), (Group.ENV_STATE,),
                                 [Group.ENV_STATE, "n"],
                                 (Group.ENV_STATE, "ghost")],
                         ids=["bare name", "string group", "one-tuple", "list",
                              "undeclared"])
def test_a_variable_is_named_only_by_group_and_name(key):
    # a choice point sited at anything but a group or a declared variable
    with pytest.raises(ModelError, match="choice point 'pick' targets "
                                         "unknown variable"):
        _counter_model(choices=[ChoicePoint("pick", (0,), site=key)])
    with pytest.raises(ModelError, match="unknown variable"):
        probed_model(_counter_model(), key)


def test_unhashable_variable_key_is_a_model_error():
    key = (Group.ENV_STATE, ["n"])
    model = _counter_model()
    with pytest.raises(ModelError, match="unknown variable"):
        probed_model(model, key)
    with pytest.raises(ModelError, match="unknown variable"):
        _counter_model(choices=[ChoicePoint("pick", (0,), site=key)])
    state, _ = resolve_initial(model)
    with pytest.raises(ModelError, match="unknown variable"):
        state.value(*key)


def test_choice_point_rejects_system_site():
    with pytest.raises(ModelError, match="deterministic"):
        ChoicePoint("bad", (0, 1), site=Group.SYS_OUTPUT)


def test_choice_point_rejects_empty_and_duplicate_domains():
    with pytest.raises(ModelError, match="empty domain"):
        ChoicePoint("p", (), site=Group.ENV_INPUT)
    with pytest.raises(ModelError, match="duplicate"):
        ChoicePoint("p", (1, 1), site=Group.ENV_INPUT)
    with pytest.raises(ModelError, match=r"empty integer domain \[2, 1\]"):
        IntDomain(2, 1)


@pytest.mark.parametrize("declare, message", [
    (lambda: ChoicePoint("p", (0.5, (1, 2)), site=Group.ENV_INPUT),
     "choice point 'p': member 0.5 is not an int, bool, str or Enum"),
    (lambda: ChoicePoint("p", ([1],), site=Group.ENV_INPUT),
     r"choice point 'p': member \[1\] is not"),
    (lambda: SymbolicDomain((0.5, 1.5)), "member 0.5 is not"),
    (lambda: IntDomain(0, 2.5), r"bounds must be ints, got \[0, 2.5\]"),
    (lambda: IntDomain(False, True), "bounds must be ints"),
    (lambda: ChoicePoint(5, (0, 1), site=Group.ENV_INPUT),
     "choice point id 5 must be a non-empty printable ASCII str with no "
     "space"),
    (lambda: Assertion(7, lambda s: True), "assertion id 7 must be a "
                                           "non-empty printable ASCII str"),
    (lambda: ChoicePoint("", (0, 1), site=Group.ENV_INPUT),
     "choice point id '' must be a non-empty"),
    (lambda: Assertion("", lambda s: True), "assertion id '' must be"),
    (lambda: Assertion("-", lambda s: True),
     "assertion id '-' is what a trace writes for no failed assertion"),
    (lambda: _counter_model(name=""), "model name '' must be"),
    (lambda: Var("caf\u00e9", Group.ENV_STATE, IntDomain(0, 1), 0),
     "must be an identifier of ASCII characters"),
    (lambda: SymbolicDomain(("ok", "\u00e9")),
     "member label '\u00e9' must be"),
    (lambda: SymbolicDomain(tuple(Enum("Mood", ["na\u00efve"]))),
     "member label 'na\u00efve' must be"),
    (lambda: SymbolicDomain(("ok", "tab\tbed")), r"member label 'tab\\tbed'"),
    (lambda: Var("x", Group.ENV_STATE, (0, 1), 0),
     r"variable 'x' needs an IntDomain, BoolDomain or SymbolicDomain, got "
     r"\(0, 1\)"),
    (lambda: IntDomain(10**5000, 10**5000 + 1),
     "integer domain bounds must be writable in decimal"),
    (lambda: IntDomain(-10**5000, 0),
     "integer domain bounds must be writable in decimal"),
], ids=["float and tuple candidates", "unhashable candidate",
        "float members", "float bound", "bool bounds", "int point id",
        "int assertion id", "empty point id", "empty assertion id",
        "dash assertion id", "empty model name", "non-ascii variable name",
        "non-ascii member", "non-ascii enum member name", "tab in a member",
        "tuple domain", "bounds past the int-to-str limit",
        "negative bound past the int-to-str limit"])
def test_declarations_reject_what_a_trace_cannot_hold(declare, message):
    with pytest.raises(ModelError, match=message):
        declare()


def test_register_rejects_duplicate_choice_ids():
    cp = ChoicePoint("p", (0, 1), site=Group.ENV_INPUT)
    with pytest.raises(ModelError, match="duplicate choice point"):
        _counter_model(choices=[cp, cp])
    # an initialisation choice shares the ids of step choices
    seed = ChoicePoint("p", (0, 1), site=(Group.ENV_STATE, "n"))
    with pytest.raises(ModelError, match="duplicate choice point 'p'"):
        _counter_model(choices=[cp, seed])


def test_register_rejects_duplicate_assertion_ids():
    a = Assertion("a", lambda s: True)
    with pytest.raises(ModelError, match="duplicate assertion"):
        _counter_model(assertions=[a, a])


def test_init_choice_must_fit_variable_domain():
    cp = ChoicePoint("pick", (0, 999), site=(Group.ENV_STATE, "n"))
    with pytest.raises(ModelError, match="'pick' offers 999, outside the "
                                         "domain of env_state.n"):
        _counter_model(choices=[cp])


def test_register_rejects_two_init_choices_for_one_variable():
    # the second draw would silently overwrite the first
    first = ChoicePoint("first", (0, 1), site=(Group.ENV_STATE, "n"))
    second = ChoicePoint("second", (1, 2), site=(Group.ENV_STATE, "n"))
    with pytest.raises(ModelError, match="two initialisation choices target "
                                         "env_state.n"):
        _counter_model(choices=[first, second])


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
    run_path(model, 1)
    with pytest.raises(ModelError, match="fragile"):
        run_path(model, 2)   # n becomes 2

    # a ModelError is the model's own error, and surfaces as it is
    ghost = Assertion("A", lambda s: s.value(Group.ENV_STATE, "ghost") == 0)
    with pytest.raises(ModelError, match="^unknown variable env_state.ghost$"):
        _counter_model(assertions=[ghost])


def test_the_trial_step_runs_even_when_the_initial_state_violates():
    # the initial state violates both assertions, yet registration still
    # takes the trial step and evaluates the assertions on its state
    never = Assertion("Never", lambda s: False)

    def broken(ei, e, ctx):
        raise KeyError("oops")

    with pytest.raises(ModelError, match="update for env_state raised"):
        _counter_model(updates=_updates(env_state=broken), assertions=[never])

    later = Assertion("Later", lambda s: s.iteration > 0 and 1 // 0 == 0)
    with pytest.raises(ModelError, match="assertion 'Later' raised "
                                         ".* at iteration 1"):
        _counter_model(assertions=[never, later])


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
    step(model, state)
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
    state, _ = step(model, state)
    assert seen["sys_out_at_input"] == 7      # previous iteration's value
    assert seen["env_in_at_output"] == 4      # this iteration's fresh value
    assert seen["cnt_at_state"] == 3          # the state update's old state
    assert seen["cnt_at_output"] == 4         # the output's new state
    assert state.value(Group.SYS_STATE, "s") == 1
    assert state.value(Group.SYS_OUTPUT, "y") == 6  # from NEW s=1

    state, _ = step(model, state)
    assert seen["sys_out_at_input"] == 6
    assert state.value(Group.SYS_OUTPUT, "y") == 7  # from s=2


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
    _, drawn = step(model, state)
    assert drawn == tuple(ChoiceEntry(1, name, 0) for name in drawing)


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
    step(model, state)
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
    assert step(swapped, state)[0].value(Group.ENV_STATE, "n") == 5
    assert calls == [0]
    assert step(model, state)[0].value(Group.ENV_STATE, "n") == 1
    assert calls == [0]


def test_omitted_variables_carry_over():
    def env_state(ei, e, ctx):
        return {"a": e.a + 1}

    model = register_model(
        variables=[Var("a", Group.ENV_STATE, IntDomain(0, 9), 0),
                   Var("b", Group.ENV_STATE, IntDomain(0, 9), 4)],
        updates=_updates(env_state=env_state))
    state, _ = resolve_initial(model)
    stepped, _ = step(model, state)
    assert stepped.value(Group.ENV_STATE, "a") == 1
    assert stepped.value(Group.ENV_STATE, "b") == 4


def test_none_return_is_a_model_error():
    def bad(ei, e, ctx):
        return None

    with pytest.raises(ModelError, match="returned None"):
        _counter_model(updates=_updates(env_state=bad))


@pytest.mark.parametrize("returned", [5, [("n", 1)], "n"],
                         ids=["int", "list", "str"])
def test_any_non_mapping_return_is_a_model_error(returned):
    def bad(ei, e, ctx):
        return returned

    with pytest.raises(ModelError) as raised:
        _counter_model(updates=_updates(env_state=bad))
    assert str(raised.value) == (f"update for env_state returned "
                                 f"{returned!r} (return a mapping, possibly "
                                 "empty)")


def test_out_of_domain_update_is_a_model_error():
    def env_state(ei, e, ctx):
        return {"n": e.n + 1}

    model = register_model(
        variables=[Var("n", Group.ENV_STATE, IntDomain(0, 1), 0)],
        updates=_updates(env_state=env_state))
    state, _ = resolve_initial(model)
    stepped, _ = step(model, state)
    with pytest.raises(ModelError, match="outside its"):
        step(model, stepped)


@pytest.mark.parametrize("domain, held, written", [
    (BoolDomain(), True, 1),
    (IntDomain(0, 3), 1, True),
], ids=["1 for True", "True for 1"])
def test_a_write_equal_to_the_held_value_but_of_another_type_is_rejected(
        domain, held, written):
    # 1 == True, so only the very object held may skip the domain check
    returns = {}

    def env_state(ei, e, ctx):
        return dict(returns)

    model = register_model(
        variables=[Var("v", Group.ENV_STATE, domain, held)],
        updates=_updates(env_state=env_state))
    state, _ = resolve_initial(model)
    returns["v"] = held
    assert step(model, state)[0].values == (held,)
    returns["v"] = written
    for stepper in (step, reference_step):
        with pytest.raises(ModelError, match=rf"^update produced {written!r} "
                                             r"for env_state\.v, outside its "
                                             "domain"):
            stepper(model, state)


def test_a_later_update_sees_the_one_field_an_earlier_one_changed():
    """Of three fields each of env_input and env_state writes, one changes
    and two are written as the very objects they hold.  The later updates
    that read the group must see the change."""
    def env_input(so, e, ctx):
        return {"a": 0, "b": (e.tick + 1) % 10, "c": 0}

    def env_state(ei, e, ctx):
        return {"p": 0, "tick": ei.b, "q": 0}

    def env_output(ei, e, ctx):
        return {"seen_b": ei.b, "seen_tick": e.tick}

    digit = IntDomain(0, 9)
    model = register_model(
        variables=[Var(name, group, digit, 0) for group, names in (
            (Group.ENV_INPUT, "abc"), (Group.ENV_STATE, ("p", "tick", "q")),
            (Group.ENV_OUTPUT, ("seen_b", "seen_tick"))) for name in names],
        updates=_updates(env_input=env_input, env_state=env_state,
                         env_output=env_output))
    state, _ = resolve_initial(model)
    for iteration in (1, 2, 3):
        expected = reference_step(model, state)
        state, _ = step(model, state)
        assert (state.values, ()) == expected
        # a b c, p tick q, seen_b seen_tick
        assert state.values == (0, iteration, 0, 0, iteration, 0,
                                iteration, iteration)


@pytest.mark.parametrize("site", [Group.ENV_INPUT, Group.ENV_STATE],
                         ids=["its own site", "the later row's site"])
def test_a_context_kept_past_its_update_raises_and_draws_nothing(site):
    kept = []
    draw_late = []

    def env_input(so, e, ctx):
        kept.append(ctx)
        return {}

    def env_state(ei, e, ctx):
        if draw_late:
            kept[-1].choose("p")
        return {}

    model = register_model(
        variables=[Var("n", Group.ENV_STATE, IntDomain(0, 1), 0)],
        updates=_updates(env_input=env_input, env_state=env_state),
        choices=[ChoicePoint("p", (0, 1), site=site)])
    state, _ = resolve_initial(model)
    draw_late.append(True)
    for stepper in (step, reference_step):
        values = iter([1])
        with pytest.raises(ModelError):
            stepper(model, state, values)
        assert list(values) == [1]
    # after the step, too
    with pytest.raises(ModelError, match="context of an update that had "
                                         "returned"):
        kept[0].choose("p")


def test_a_context_kept_by_an_update_that_raised_draws_nothing():
    kept = []
    fails = [True]

    def env_input(so, e, ctx):
        kept.append(ctx)
        if fails:
            raise RuntimeError("boom")
        return {}

    declared = dict(
        variables=[Var("n", Group.ENV_STATE, IntDomain(0, 1), 0)],
        updates=_updates(env_input=env_input),
        choices=[ChoicePoint("p", (0, 1), site=Group.ENV_INPUT)])
    with pytest.raises(ModelError, match="^update for env_in raised "
                                         "RuntimeError"):
        register_model(**declared)
    with pytest.raises(ModelError, match="context of an update that had "
                                         "returned"):
        kept[-1].choose("p")

    fails.clear()
    model = register_model(**declared)
    state, _ = resolve_initial(model)
    fails.append(True)
    values = iter([1])
    with pytest.raises(ModelError, match=r"raised RuntimeError\('boom'\) at "
                                         "iteration 1"):
        step(model, state, values)
    with pytest.raises(ModelError, match="context of an update that had "
                                         "returned"):
        kept[-1].choose("p")
    assert list(values) == [1]


def test_iteration_counter_advances():
    model = _counter_model()
    state, _ = resolve_initial(model)
    assert state.iteration == 0
    for expected in (1, 2, 3):
        state, _ = step(model, state)
        assert state.iteration == expected
        assert state.value(Group.ENV_STATE, "n") == expected


def test_step_is_pure():
    model = _counter_model()
    state, _ = resolve_initial(model)
    first = step(model, state)
    second = step(model, state)
    assert first == second
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
    cp = ChoicePoint("seed", (0, 1), site=(Group.ENV_STATE, "x"))

    def env_input(so, e, ctx):
        ctx.choose("seed")
        return {}

    with pytest.raises(ModelError, match="choice point 'seed' is an "
                                         "initialisation choice and cannot "
                                         "be drawn during a step"):
        register_model(
            variables=[Var("x", Group.ENV_STATE, IntDomain(0, 1), 0)],
            updates=_updates(env_input=env_input), choices=[cp])


def test_a_step_choice_point_must_name_its_site():
    # without a site it could be drawn nowhere
    with pytest.raises(TypeError, match="site"):
        ChoicePoint("x", (1, 2))


def test_a_drawn_value_must_be_in_domain():
    cp = ChoicePoint("p", (0, 1), site=Group.ENV_INPUT)

    def env_input(so, e, ctx):
        return {"v": ctx.choose("p")}

    model = register_model(
        variables=[Var("v", Group.ENV_INPUT, IntDomain(0, 5), 0)],
        updates=_updates(env_input=env_input), choices=[cp])
    state, _ = resolve_initial(model)
    with pytest.raises(ModelError, match="outside the domain"):
        step(model, state, [42])


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
        step(model, state, [1])

    seeded = _counter_model(choices=[
        ChoicePoint("seed", (0, 1), site=(Group.ENV_STATE, "n"))])
    with pytest.raises(ModelError, match="outside the domain of 'seed'"):
        resolve_initial(seeded, [True])


def test_init_choices_resolve_in_declared_order_at_iteration_zero():
    # list order, not variable order, and step points do not take part
    cps = [ChoicePoint("first", (5, 6), site=(Group.ENV_STATE, "y")),
           ChoicePoint("stepped", (0, 1), site=Group.ENV_INPUT),
           ChoicePoint("second", (7,), site=(Group.ENV_STATE, "x"))]
    model = register_model(
        variables=[Var("x", Group.ENV_STATE, IntDomain(0, 9), 0),
                   Var("y", Group.ENV_STATE, IntDomain(0, 9), 0)],
        updates=_updates(), choices=cps)
    state, log = resolve_initial(model)
    assert log == (ChoiceEntry(0, "first", 5), ChoiceEntry(0, "second", 7))
    assert state.value(Group.ENV_STATE, "x") == 7
    assert state.value(Group.ENV_STATE, "y") == 5


def test_step_draws_the_values_it_is_given_then_first_values():
    cp = ChoicePoint("p", (0, 1, 2), site=Group.ENV_INPUT)

    def env_input(so, e, ctx):
        return {"v": ctx.choose("p")}

    model = register_model(
        variables=[Var("v", Group.ENV_INPUT, IntDomain(0, 5), 0)],
        updates=_updates(env_input=env_input), choices=[cp])
    state, _ = resolve_initial(model)
    assert step(model, state, [2])[0].value(Group.ENV_INPUT, "v") == 2
    # an iterator gives up only the values drawn
    values = iter([1, 2])
    assert step(model, state, values)[1] == (ChoiceEntry(1, "p", 1),)
    assert list(values) == [2]
    assert step(model, state)[1] == (ChoiceEntry(1, "p", 0),)
