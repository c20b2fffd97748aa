"""Exploration tests: verdict shapes, search order, probing, replay."""

import pytest

from hilcheck.engine import (Assertion, ChoiceEntry, ChoicePoint, Group,
                             IntDomain, ModelError, UpdateFunctions, Var,
                             VerdictKind, explore, probed_model,
                             register_model, replay_counterexample,
                             resolve_initial, step)


def _noop(*args):
    return {}


def _updates(**overrides) -> UpdateFunctions:
    fields = dict(env_input=_noop, sys_input=_noop, beh_input=_noop,
                  env_output=_noop, sys_output=_noop, beh_output=_noop,
                  env_state=_noop, sys_state=_noop, beh_state=_noop)
    fields.update(overrides)
    return UpdateFunctions(**fields)


def _accumulator(limit: int, domain=(0, 1, 2), assertions=None):
    """env-state total accumulates a drawn amount every iteration; the
    default assertion caps the running total at `limit`."""
    cp = ChoicePoint("amount", tuple(domain), site=Group.ENV_STATE)

    def env_state(ei, e, ctx):
        return {"total": min(99, e.total + ctx.choose("amount"))}

    if assertions is None:
        assertions = [Assertion("TotalCapped",
                                lambda s: s.value(Group.ENV_STATE, "total") <= limit)]
    return register_model(
        variables=[Var("total", Group.ENV_STATE, IntDomain(0, 99), 0)],
        updates=_updates(env_state=env_state), choices=[cp],
        assertions=assertions)


def test_safe_when_no_path_violates():
    model = _accumulator(limit=99)
    verdict = explore(model, 3)
    assert verdict.kind is VerdictKind.Safe
    assert verdict.bound == 3
    assert verdict.paths_explored == 27   # 3 draws of 3 values
    assert str(verdict) == "Safe(3)"
    assert len(verdict.trace) == 4        # witness path retained


def test_unsafe_returns_lexicographically_first_counterexample():
    # first violating path in declared-domain DFS order draws 0,0,...,2:
    # the earliest prefix keeps low values as long as possible, then the
    # first index that can still violate within the bound does
    model = _accumulator(limit=1)
    verdict = explore(model, 3)
    assert verdict.kind is VerdictKind.Unsafe
    assert verdict.failed_assertion == "TotalCapped"
    drawn = [e.value for e in verdict.choice_log]
    assert drawn == [0, 0, 2]
    assert verdict.trace[-1].value(Group.ENV_STATE, "total") == 2
    assert verdict.trace[-1].iteration == 3


def test_violating_path_stops_at_first_bad_iteration():
    model = _accumulator(limit=0, domain=(1, 2))
    verdict = explore(model, 5)
    assert verdict.kind is VerdictKind.Unsafe
    assert verdict.trace[-1].iteration == 1          # violated immediately
    assert verdict.paths_explored == 1
    assert [e.value for e in verdict.choice_log] == [1]


def test_initial_state_violation_gives_length_one_trace():
    model = register_model(
        variables=[Var("x", Group.ENV_STATE, IntDomain(0, 9), 5)],
        updates=_updates(),
        assertions=[Assertion("NeverFive",
                              lambda s: s.value(Group.ENV_STATE, "x") != 5)])
    verdict = explore(model, 10)
    assert verdict.kind is VerdictKind.Unsafe
    assert len(verdict.trace) == 1
    assert verdict.trace[0].iteration == 0
    assert verdict.choice_log == ()


def test_first_declared_assertion_wins_on_simultaneous_violation():
    both = [Assertion("first", lambda s: s.value(Group.ENV_STATE, "total") <= 1),
            Assertion("second", lambda s: s.value(Group.ENV_STATE, "total") <= 1)]
    model = _accumulator(limit=1, domain=(2,), assertions=both)
    verdict = explore(model, 2)
    assert verdict.kind is VerdictKind.Unsafe
    assert verdict.failed_assertion == "first"


def test_bound_below_one_is_rejected():
    model = _accumulator(limit=99)
    with pytest.raises(ModelError, match="bound"):
        explore(model, 0)


@pytest.mark.parametrize("bound, ceiling, message", [
    (2.5, 10, "bound must be an int of at least 1, got 2.5"),
    (True, 10, "bound must be an int of at least 1, got True"),
    (2, 2.5, "path ceiling must be an int of at least 1, got 2.5"),
    (2, True, "path ceiling must be an int of at least 1, got True"),
], ids=["float bound", "bool bound", "float ceiling", "bool ceiling"])
def test_bound_and_ceiling_must_be_ints(bound, ceiling, message):
    # a trace header writes the bound, as the int it must be
    with pytest.raises(ModelError, match=message):
        explore(_accumulator(limit=99), bound, path_ceiling=ceiling)


def test_unsafe_is_monotone_in_the_bound():
    model = _accumulator(limit=3)
    small = explore(model, 2)           # max total after 2 draws is 4 > 3
    large = explore(model, 6)
    assert small.kind is VerdictKind.Unsafe
    assert large.kind is VerdictKind.Unsafe
    # the witness may differ: deeper bounds reach violations under earlier
    # prefixes, and DFS reports the lex-first one
    assert [e.value for e in small.choice_log] == [2, 2]
    assert [e.value for e in large.choice_log] == [0, 0, 0, 0, 2, 2]
    assert explore(model, 1).kind is VerdictKind.Safe


def test_path_ceiling_yields_model_error_verdict():
    model = _accumulator(limit=99)
    verdict = explore(model, 8, path_ceiling=100)   # 3^8 paths needed
    assert verdict.kind is VerdictKind.ModelError
    assert "choice explosion" in verdict.message
    assert verdict.paths_explored == 100


def test_structural_error_mid_search_becomes_verdict():
    cp = ChoicePoint("amount", (0, 1), site=Group.ENV_STATE)

    def env_state(ei, e, ctx):
        # overflows its domain once the draw comes up 1 twice
        return {"total": e.total + 2 * ctx.choose("amount")}

    model = register_model(
        variables=[Var("total", Group.ENV_STATE, IntDomain(0, 3), 0)],
        updates=_updates(env_state=env_state), choices=[cp])
    verdict = explore(model, 4)
    assert verdict.kind is VerdictKind.ModelError
    assert "outside its" in verdict.message


def test_a_late_non_mapping_return_becomes_a_model_error_verdict():
    def env_state(ei, e, ctx):
        return 5 if e.n >= 2 else {"n": e.n + 1}

    model = register_model(
        variables=[Var("n", Group.ENV_STATE, IntDomain(0, 9), 0)],
        updates=_updates(env_state=env_state))
    verdict = explore(model, 5)
    assert verdict.kind is VerdictKind.ModelError
    assert verdict.paths_explored == 1
    assert verdict.message == ("update for env_state returned 5 "
                               "(return a mapping, possibly empty)")


def test_explore_counts_conditional_draws_correctly():
    gate = ChoicePoint("gate", (0, 1), site=Group.BEH_OUTPUT)
    extra = ChoicePoint("extra", (0, 1, 2), site=Group.BEH_OUTPUT)

    def beh_output(bi, b, ctx):
        value = ctx.choose("gate")
        if value == 1:
            value += ctx.choose("extra")
        return {"out": value}

    model = register_model(
        variables=[Var("out", Group.BEH_OUTPUT, IntDomain(0, 3), 0)],
        updates=_updates(beh_output=beh_output), choices=[gate, extra])
    verdict = explore(model, 1)
    # gate=0 is one leaf; gate=1 fans out over three extras
    assert verdict.kind is VerdictKind.Safe
    assert verdict.paths_explored == 4

    verdict2 = explore(model, 2)
    assert verdict2.paths_explored == 16


def test_explore_is_deterministic():
    model = _accumulator(limit=2)
    assert explore(model, 3) == explore(model, 3)


def test_init_choices_explored_before_step_choices():
    seed = ChoicePoint("seed", (0, 3), site=(Group.ENV_STATE, "total"))
    model = _accumulator(limit=3)
    # listed after the step choice, drawn before it
    seeded = register_model(
        variables=model.variables, updates=model.updates,
        choices=[model.choices["amount"], seed],
        assertions=model.assertions)
    verdict = explore(seeded, 2)
    assert verdict.kind is VerdictKind.Unsafe
    # lex-first violation: seed 0 then draws 0,0 is safe at bound 2 only if
    # total stays <= 3; seed 0 draws (0,0)->0 ok (2,2)... the first failing
    # path under DFS is seed=0, draws 2,2 -> 4
    assert verdict.choice_log[0] == ChoiceEntry(0, "seed", 0)
    values = [e.value for e in verdict.choice_log[1:]]
    assert values == [2, 2]


# --- probing ---------------------------------------------------------------

def _probe_model():
    return register_model(
        variables=[Var("x", Group.ENV_STATE, IntDomain(0, 2), 0),
                   Var("x", Group.BEH_STATE, IntDomain(0, 5), 0),
                   Var("y", Group.BEH_STATE, IntDomain(0, 5), 0)],
        updates=_updates(),
        assertions=[Assertion("SmallX",
                              lambda s: s.value(Group.ENV_STATE, "x") <= 1)])


def test_probe_variable_sweeps_initial_values():
    model = _probe_model()
    verdict = explore(probed_model(model, (Group.ENV_STATE, "x")), 2)
    assert verdict.kind is VerdictKind.Unsafe
    assert verdict.choice_log == (ChoiceEntry(0, "probe:x", 2),)
    assert verdict.trace[0].value(Group.ENV_STATE, "x") == 2
    assert len(verdict.trace) == 1
    assert verdict.paths_explored == 3   # 0 and 1 safe, 2 violates


def test_probe_rejects_unknown_names():
    model = _probe_model()
    with pytest.raises(ModelError, match="unknown variable beh_state.ghost"):
        probed_model(model, (Group.BEH_STATE, "ghost"))


def test_probe_rejects_a_model_that_already_declares_the_probe_id():
    clash = ChoicePoint("probe:n", (0, 1), site=Group.ENV_INPUT)

    def env_input(so, e, ctx):
        return {"tick": ctx.choose("probe:n")}

    model = register_model(
        variables=[Var("tick", Group.ENV_INPUT, IntDomain(0, 1), 0),
                   Var("n", Group.ENV_STATE, IntDomain(0, 3), 0)],
        updates=_updates(env_input=env_input), choices=[clash])
    with pytest.raises(ModelError, match="duplicate choice point 'probe:n'"):
        probed_model(model, (Group.ENV_STATE, "n"))


def test_probe_leaves_original_model_unchanged():
    model = _probe_model()
    before = explore(model, 2)
    explore(probed_model(model, (Group.ENV_STATE, "x")), 2)
    assert explore(model, 2) == before
    assert "probe:x" not in model.choices


# --- settled paths ---------------------------------------------------------

def test_settled_path_repeats_its_state_without_stepping():
    # the counter saturates at 3 after three steps; the fourth step returns
    # its input and draws nothing, so no later iteration calls an update
    calls = []

    def env_state(ei, e, ctx):
        calls.append(e.n)
        return {"n": min(3, e.n + 1)}

    model = register_model(
        variables=[Var("n", Group.ENV_STATE, IntDomain(0, 9), 0)],
        updates=_updates(env_state=env_state),
        assertions=[Assertion("Early", lambda s: s.iteration < 7)])
    calls.clear()
    verdict = explore(model, 10)
    assert calls == [0, 1, 2, 3]
    assert verdict.kind is VerdictKind.Unsafe
    assert verdict.failed_assertion == "Early"
    assert verdict.paths_explored == 1
    assert [s.iteration for s in verdict.trace] == list(range(8))

    stepped = [resolve_initial(model)[0]]
    for _ in range(7):
        stepped.append(step(model, stepped[-1])[0])
    assert verdict.trace == tuple(stepped)
    assert replay_counterexample(model, verdict) == verdict.trace


def test_a_state_that_draws_keeps_stepping_after_it_repeats():
    tick = ChoicePoint("tick", (1,), site=Group.ENV_STATE)

    def env_state(ei, e, ctx):
        return {"n": min(2, e.n + ctx.choose("tick"))}

    model = register_model(
        variables=[Var("n", Group.ENV_STATE, IntDomain(0, 9), 0)],
        updates=_updates(env_state=env_state), choices=[tick])
    verdict = explore(model, 6)
    assert verdict.kind is VerdictKind.Safe
    assert [s.value(Group.ENV_STATE, "n") for s in verdict.trace] == \
        [0, 1, 2, 2, 2, 2, 2]
    assert verdict.choice_log == tuple(ChoiceEntry(i, "tick", 1)
                                       for i in range(1, 7))


# --- replay ----------------------------------------------------------------

def test_replay_reproduces_counterexample():
    model = _accumulator(limit=3)
    verdict = explore(model, 4)
    assert verdict.kind is VerdictKind.Unsafe
    trace = replay_counterexample(model, verdict)
    assert trace == verdict.trace


def test_replay_rejects_safe_verdicts():
    model = _accumulator(limit=99)
    verdict = explore(model, 2)
    with pytest.raises(ModelError, match="only Unsafe"):
        replay_counterexample(model, verdict)

    # an Unsafe verdict without a trace has nothing to replay either
    from dataclasses import replace
    model = _accumulator(limit=3)
    verdict = explore(model, 4)
    for bare in (replace(verdict, trace=None),
                 replace(verdict, trace=(), choice_log=())):
        with pytest.raises(ModelError,
                           match="^verdict has no trace to replay$"):
            replay_counterexample(model, bare)


def test_replay_rejects_a_trace_the_log_does_not_reproduce():
    from dataclasses import replace

    def env_state(ei, e, ctx):
        return {"n": e.n + 1}

    model = register_model(
        variables=[Var("n", Group.ENV_STATE, IntDomain(0, 9), 0)],
        updates=_updates(env_state=env_state),
        assertions=[Assertion("Small",
                              lambda s: s.value(Group.ENV_STATE, "n") < 2)])
    verdict = explore(model, 5)
    assert verdict.trace[-1].iteration == 2
    # one more step still violates, but the first violation ends the path
    later, _ = step(model, verdict.trace[-1])
    overlong = replace(verdict, trace=verdict.trace + (later,))
    with pytest.raises(ModelError, match="'Small' at iteration 2, before"):
        replay_counterexample(model, overlong)

    trace = verdict.trace
    altered = replace(verdict, trace=(trace[0], replace(trace[1], values=(5,)),
                                      trace[2]))
    with pytest.raises(ModelError, match="replay mismatch at iteration 1"):
        replay_counterexample(model, altered)
    with pytest.raises(ModelError, match="did not reproduce"):
        replay_counterexample(model, replace(verdict, trace=trace[:-1]))


@pytest.mark.parametrize("edit, message", [
    (lambda log: (ChoiceEntry(9, "amount", 0),) + log[1:],
     r"replay mismatch: log has \(9, amount\), run drew \(1, amount\)"),
    (lambda log: log[:-1],
     r"replay log exhausted at 'amount' \(iteration 3\)"),
    (lambda log: (ChoiceEntry(1, "amount", 7),) + log[1:],
     "replay mismatch: drew 7, outside the domain of 'amount'"),
], ids=["entry at another iteration", "log runs out",
        "value outside its point"])
def test_replay_rejects_a_log_the_run_does_not_draw(edit, message):
    from dataclasses import replace
    model = _accumulator(limit=1)
    verdict = explore(model, 3)
    assert [(e.iteration, e.value) for e in verdict.choice_log] == [
        (1, 0), (2, 0), (3, 2)]
    edited = replace(verdict, choice_log=edit(verdict.choice_log))
    with pytest.raises(ModelError, match=message):
        replay_counterexample(model, edited)


def test_replay_detects_tampered_logs():
    from dataclasses import replace
    model = _accumulator(limit=3)
    verdict = explore(model, 4)
    tampered = replace(verdict,
                       choice_log=tuple(ChoiceEntry(e.iteration, e.point_id, 0)
                                        for e in verdict.choice_log))
    with pytest.raises(ModelError, match="replay"):
        replay_counterexample(model, tampered)
