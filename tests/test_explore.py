"""Exploration tests: verdict shapes, search order, probing, the walk and
its memo, replay."""

from dataclasses import fields, replace

import pytest

from hilcheck import engine
from hilcheck.acc import AccCommand
from hilcheck.engine import (Assertion, ChoiceEntry, ChoicePoint, Group,
                             IntDomain, ModelError, UpdateFunctions, Var,
                             VerdictKind, probed_model,
                             register_model, replay_counterexample,
                             resolve_initial, run_path, step)
from hilcheck.scenarios import SCENARIOS, build_model

from _helpers import explore, updates as _updates


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
    verdict = explore(model, 3, path_ceiling=27)
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
    verdict = explore(model, 1, path_ceiling=4)
    # gate=0 is one leaf; gate=1 fans out over three extras
    assert verdict.kind is VerdictKind.Safe
    assert verdict.paths_explored == 4

    verdict2 = explore(model, 2, path_ceiling=16)
    assert verdict2.kind is VerdictKind.Safe
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
    # its input and draws nothing, so the path ends there: no later
    # iteration calls an update or an assertion, and the trace repeats the
    # settled state to the bound
    calls, checked = [], []

    def env_state(ei, e, ctx):
        calls.append(e.n)
        return {"n": min(3, e.n + 1)}

    def capped(s):
        checked.append(s.value(Group.ENV_STATE, "n"))
        return s.value(Group.ENV_STATE, "n") <= 3

    model = register_model(
        variables=[Var("n", Group.ENV_STATE, IntDomain(0, 9), 0)],
        updates=_updates(env_state=env_state),
        assertions=[Assertion("Capped", capped)])
    calls.clear()
    checked.clear()
    verdict = explore(model, 10)
    assert calls == [0, 1, 2, 3]
    assert checked == [0, 1, 2, 3]   # once per state evaluated
    assert verdict.kind is VerdictKind.Safe
    assert verdict.paths_explored == 1
    assert [s.iteration for s in verdict.trace] == list(range(11))

    stepped = [resolve_initial(model)[0]]
    for _ in range(10):
        stepped.append(step(model, stepped[-1])[0])
    assert verdict.trace == tuple(stepped)


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


# --- the walk and its memo -------------------------------------------------

def _counting_function(name: str, fn, calls: dict):
    """`fn`, counting its calls in `calls[name]`."""
    def counted(*args):
        calls[name] += 1
        return fn(*args)
    return counted


def _counting(model, calls: dict):
    """`model` with each update function and assertion predicate counting
    its calls in `calls`, under its slot's name or its assertion's id."""
    updates = UpdateFunctions(**{
        f.name: _counting_function(f.name, getattr(model.updates, f.name),
                                   calls)
        for f in fields(UpdateFunctions)})
    assertions = tuple(
        replace(a, predicate=_counting_function(a.assert_id, a.predicate,
                                                calls))
        for a in model.assertions)
    return replace(model, updates=updates, assertions=assertions)


BRANCHING = replace(SCENARIOS["manual-override"],
                    command_domain=(AccCommand.Maintain, AccCommand.Decelerate))


# each row's update calls, in `UpdateFunctions` order: env_input,
# sys_input, beh_input, env_output, sys_output, beh_output, env_state,
# sys_state, beh_state
@pytest.mark.parametrize(
    "config, bound, kind, paths, steps, states, draws, updated", [
        # 4 initial states, each the root of a tree of 1 + 3 + ... + 3^5 =
        # 364 nodes, 1,452 of them stepped to in all; states repeat across
        # paths, so the walk steps 804 times and counts the subtrees of 108
        # of the states it steps to at once, before their assertions; 1,340
        # step draws and one initialisation draw per initial state; every
        # row runs once per distinct value of the variables it reads, and
        # beh_output, the one row that draws in a step, once per distinct
        # value of them and sequence of its draws: a hit on its trie draws
        # its values with no call
        (BRANCHING, 5, VerdictKind.Safe, 972, 804, 700, 1344,
         (3, 24, 4, 5, 15, 6, 9, 42, 20)),
        # the witness is the 19,684th path, which a walk with no memo
        # reaches after 29,532 steps
        (BRANCHING, 12, VerdictKind.Unsafe, 19684, 264, 130, 444,
         (2, 33, 5, 5, 18, 6, 8, 24, 9)),
        # every draw at initialisation, so no memo: 864 paths of 10 steps
        # each, and one draw per node of the initialisation tree, 1,552;
        # every state is distinct, but the variables a row reads repeat
        # their values, so 821 update calls take the place of 9 x 8,640
        # (env_input, which reads sys_out.speed alone, runs 4 times)
        (replace(SCENARIOS["lowered-speed"], route_length=3,
                 separation_only=True),
         10, VerdictKind.Safe, 864, 8640, 9504, 1552,
         (4, 30, 3, 32, 19, 3, 577, 52, 101)),
    ], ids=["branching", "branching-12", "route-sweep"])
def test_each_node_of_the_choice_tree_is_stepped_and_checked_once(
        config, bound, kind, paths, steps, states, draws, updated,
        monkeypatch):
    model = build_model(config)   # its trial step is not counted
    updates = [f.name for f in fields(UpdateFunctions)]
    asserted = [a.assert_id for a in model.assertions]
    calls = dict.fromkeys(updates + asserted + ["draw", "step"], 0)
    model = _counting(model, calls)
    for name in ("draw", "step"):
        monkeypatch.setattr(engine, f"_{name}",
                            _counting_function(name, getattr(engine,
                                                             f"_{name}"),
                                               calls))
    verdict = explore(model, bound, path_ceiling=paths)
    assert (verdict.kind, verdict.paths_explored) == (kind, paths)
    assert calls == {**dict(zip(updates, updated)),
                     **dict.fromkeys(asserted, states), "draw": draws,
                     "step": steps}


def _counter_model(seen: list):
    """2 x 200 initial states, each stepping a counter three times, which
    `env_state` reads alone and appends to `seen`; unsafe where the flag
    is 1 and the counter reaches 150."""
    flag = ChoicePoint("flag", (0, 1), site=(Group.BEH_STATE, "flag"))
    start = ChoicePoint("start", tuple(range(200)),
                        site=(Group.ENV_STATE, "n"))

    def env_state(ei, e, ctx):
        seen.append(e.n)
        return {"n": (e.n + 1) % 200}

    def met(s):
        return (s.value(Group.BEH_STATE, "flag"),
                s.value(Group.ENV_STATE, "n")) != (1, 150)

    return register_model(
        variables=[Var("n", Group.ENV_STATE, IntDomain(0, 199), 0),
                   Var("flag", Group.BEH_STATE, IntDomain(0, 1), 0)],
        updates=_updates(env_state=env_state), choices=[flag, start],
        assertions=[Assertion("Not150", met)])


def test_a_row_that_outgrows_its_table_is_cleared_and_stays_exact():
    # the second 200 initial states repeat the first's inputs of the
    # env_state row, 600 table entries later; its table, full long
    # before, has been cleared, and those inputs are called again
    seen = []
    model = _counter_model(seen)
    seen.clear()
    verdict = explore(model, 3)
    assert verdict.kind is VerdictKind.Unsafe
    assert verdict.paths_explored == 348
    assert verdict.choice_log == (ChoiceEntry(0, "flag", 1),
                                  ChoiceEntry(0, "start", 147))
    assert len(set(seen)) == 200 > engine._TABLE_SIZE
    # the first sweep calls each counter once, and the second, from
    # cleared tables, the 150 it reaches again
    assert len(seen) >= 200 + 150
    trace, log, violated = run_path(model, 3, [1, 147])
    assert (verdict.trace, verdict.choice_log) == (trace, log)
    assert violated == ("Not150",)


def test_a_row_holds_at_most_its_cap_and_shares_equal_writes(monkeypatch):
    # the env_state row of the 200-counter search makes 200 distinct
    # writes, past the cap: its table and the dict interning its writes
    # are cleared together, and equal writes it holds are one tuple
    model = _counter_model([])
    step = engine._step
    held = {}

    def spied(model, start, iteration, values, rows):
        stepped = step(model, start, iteration, values, rows)
        # no live row, so no sibling step, and each step runs every row
        assert len(rows) == len(Group)
        for target, *_, table, interned in rows:
            if table is None:
                assert interned is None
                continue
            assert len(table) <= engine._TABLE_SIZE
            assert len(interned) <= engine._TABLE_SIZE
            shared = {}
            for writes in table.values():
                assert shared.setdefault(writes, writes) is writes
                assert interned[writes] is writes
            held[target] = max(held.get(target, 0), len(interned))
        return stepped

    monkeypatch.setattr(engine, "_step", spied)
    assert explore(model, 3).paths_explored == 348
    # no step point is sited, so every row is tabled; only env_state's
    # writes differ, and the other eight rows hold their empty writes as
    # one empty tuple each
    assert held[Group.ENV_STATE] == engine._TABLE_SIZE
    assert {held[group] for group in Group} - {engine._TABLE_SIZE} == {1}


# --- drawing rows: their tries and a sibling's resumption -----------------

def _drawing_model(schedule):
    """beh_output draws, on its k-th call, the points of `schedule(k)` in
    order, each of 0 and 1, and writes how many of them drew 1; it reads
    no variable, so every call has one key."""
    calls = []

    def beh_output(bi, b, ctx):
        calls.append(None)
        return {"y": sum(ctx.choose(point)
                         for point in schedule(len(calls)))}

    return register_model(
        variables=[Var("y", Group.BEH_OUTPUT, IntDomain(0, 2), 0)],
        updates=_updates(beh_output=beh_output),
        choices=[ChoicePoint(point, (0, 1), site=Group.BEH_OUTPUT)
                 for point in ("a", "b")])


def test_a_drawing_row_s_trie_draws_its_values_with_no_call():
    # two draws a call, four paths a step: the walk draws each path's
    # values down the trie, so its update runs once per leaf, and every
    # value is drawn once, by the walk or by the call
    calls = []
    model = _drawing_model(lambda k: calls.append(k) or ("a", "b"))
    calls.clear()   # the registration's trial step is not counted
    verdict = explore(model, 2)
    assert verdict.kind is VerdictKind.Safe
    assert verdict.paths_explored == 16
    assert len(calls) == 4
    trace, log, _ = run_path(model, 2, [1, 0, 0, 1])
    assert [s.value(Group.BEH_OUTPUT, "y") for s in trace] == [0, 1, 1]
    assert [(e.iteration, e.point_id, e.value) for e in log] == [
        (1, "a", 1), (1, "b", 0), (2, "a", 0), (2, "b", 1)]


def test_a_call_that_draws_another_point_than_its_trie_is_an_error():
    # the second call in the search, on the same key after the same draw
    # of a, draws b first
    model = _drawing_model(lambda k: ("a",) if k < 3 else ("b",))
    verdict = explore(model, 1)
    assert verdict.kind is VerdictKind.ModelError
    assert verdict.message.startswith(
        "update for beh_out drew 'b' where, on the same views and draws, "
        "it drew 'a' before")


def test_a_call_that_stops_before_its_trie_does_is_an_error():
    # the second call in the search draws a, where the first drew a and
    # then b
    model = _drawing_model(lambda k: ("a", "b") if k < 3 else ("a",))
    verdict = explore(model, 1)
    assert verdict.kind is VerdictKind.ModelError
    assert verdict.message.startswith(
        "update for beh_out returned after drawing 'a' where, on the same "
        "views and draws, it drew 'b' next before")


def test_a_drawing_row_holds_at_most_its_cap_and_shares_equal_writes(
        monkeypatch):
    # beh_output reads a counter of 200 values, one per initial state,
    # and draws one of two writes: its trie is cleared at the cap, and
    # each leaf is one of its interned writes
    start = ChoicePoint("start", tuple(range(200)),
                        site=(Group.BEH_STATE, "n"))
    model = register_model(
        variables=[Var("n", Group.BEH_STATE, IntDomain(0, 199), 0),
                   Var("y", Group.BEH_OUTPUT, IntDomain(0, 1), 0)],
        updates=_updates(
            beh_state=lambda bi, b, ctx: {"n": (b.n + 1) % 200},
            beh_output=lambda bi, b, ctx: {"y": ctx.choose("p")}),
        choices=[start, ChoicePoint("p", (0, 1), site=Group.BEH_OUTPUT)])
    step = engine._step
    held = []

    def leaves(node):
        if type(node) is engine._Fork:
            for child in node.children.values():
                yield from leaves(child)
        else:
            yield node

    def spied(model, start, iteration, values, rows):
        stepped = step(model, start, iteration, values, rows)
        trie = rows[-1][1]
        assert len(trie.roots) <= engine._TABLE_SIZE
        assert len(trie.interned) <= 2
        for root in trie.roots.values():
            for writes in leaves(root):
                assert trie.interned[writes] is writes
        held.append(len(trie.roots))
        return stepped

    monkeypatch.setattr(engine, "_step", spied)
    assert explore(model, 2).paths_explored == 800
    assert max(held) == engine._TABLE_SIZE


def test_a_sibling_steps_from_its_node_s_prefix_with_the_drawing_rows(
        monkeypatch):
    # env_state counts and beh_output, the last row, draws: a node's
    # first child runs all nine rows from the node's state, each sibling
    # only beh_output, from the valuation the first eight made, the count
    # already stepped
    model = register_model(
        variables=[Var("n", Group.ENV_STATE, IntDomain(0, 9), 0),
                   Var("y", Group.BEH_OUTPUT, IntDomain(0, 2), 0)],
        updates=_updates(
            env_state=lambda ei, e, ctx: {"n": e.n + 1},
            beh_output=lambda bi, b, ctx: {"y": ctx.choose("p")}),
        choices=[ChoicePoint("p", (0, 1, 2), site=Group.BEH_OUTPUT)])
    step = engine._step
    stepped = []

    def spied(model, start, iteration, values, rows):
        stepped.append((len(rows), iteration, start))
        return step(model, start, iteration, values, rows)

    monkeypatch.setattr(engine, "_step", spied)
    verdict = explore(model, 2)
    assert verdict.paths_explored == 9
    assert stepped == [(9, 1, (0, 0)), (9, 2, (1, 0)), (1, 2, (2, 0)),
                       (1, 2, (2, 0)), (1, 1, (1, 0)), (9, 2, (1, 1)),
                       (1, 2, (2, 1)), (1, 2, (2, 1)), (1, 1, (1, 0)),
                       (9, 2, (1, 2)), (1, 2, (2, 2)), (1, 2, (2, 2))]


def test_a_path_that_draws_at_every_iteration_walks_any_depth():
    # one frame per step, on the walk's own stack
    tick = ChoicePoint("tick", (1,), site=Group.ENV_STATE)

    def env_state(ei, e, ctx):
        return {"n": (e.n + ctx.choose("tick")) % 7}

    model = register_model(
        variables=[Var("n", Group.ENV_STATE, IntDomain(0, 6), 0)],
        updates=_updates(env_state=env_state), choices=[tick])
    verdict = explore(model, 5000, path_ceiling=1)
    assert verdict.kind is VerdictKind.Safe
    assert verdict.paths_explored == 1
    assert len(verdict.trace) == len(verdict.choice_log) + 1 == 5001
    assert verdict.trace[-1].value(Group.ENV_STATE, "n") == 5000 % 7


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
