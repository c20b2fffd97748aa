"""Search correctness against a flat-enumeration oracle.

Each family of `_oracle.FAMILIES` is swept once (`_sweep.swept`): each of
its randomized small models is checked two ways, explore()'s depth-first
walk with its memo, its per-row tables and tries and its siblings' prefixes,
and brute enumeration of the choice-vector product over the longest
schedule, each distinct prefix the runs consume run once through a
reference step that shares no code with the engine's.  Both must agree on
the verdict, on the violated assertion and iteration, on the witness path,
and on the number of paths run: every complete run for a safe model, the
runs up to and including the first violating or raising one otherwise.
The enumeration also checks that initialisation points are drawn in their
list order, and, on a fixed schedule, step points on the schedule
whatever their list order, and that `run_path`, which steps by the
`_step` `explore`'s walk takes, gives on every path what the reference
gives.

220 random models; 100 more that saturate instead of wrapping and run to a
bound of 6 to 10, so most of their paths settle into a fixed point well
before it: the engine's path ends there, its state repeated to the bound,
and the reference steps and checks every iteration.  55 of them hold a
clock capped at an iteration from which an assertion may fail, so their
paths settle only once the clock stops.

60 write-path models hold several int, bool and symbolic variables per
group, written in part, with equal ints that are new objects, keep their
drawing contexts and try to draw through them later, and on some branches
write True into an int variable that holds 1, so their search ends in a
ModelError on the first path that does.  In half of them, on some
branches, an update draws through a context an earlier row of its step
kept, or one no point is sited at draws through its own, cued by a flag
its input update sets in a view it reads, and the refusal ends the search
in a ModelError with the reference's message.

100 raising models keep their drawing contexts and raise on some branches,
and each later call tries to draw through the context its update kept
last, one kept by an update that raised among them.

60 cycling models hold one counter per state group and never draw after
initialisation, so each path comes back to its initial valuation, one to
three steps before the bound, and must step on from it.

100 late-failing models are random ones whose one assertion fails only
once a clock has reached a depth and two residues meet, so most of them
fail on a path after the first.

50 repeating models hold one-bit variables and draw from two or three
step points, so distinct draws often reach equal states: `explore` counts
such a state's subtree once, where it has explored it with the same depth
left, and must still count every path.

100 conditional-writes models are late-failing ones whose updates each
write one of two variables of their group, which one as their input
says, so in 94 of them some update writes an equal value to each of the
two in one search: the tables, which share equal writes, must keep those
apart.

100 declared-reads models hold one to three variables per group, and
each update declares a random part of its groups' variables, or none, or
is left undeclared, and reads only what it declares, some of it only on
some inputs: its views hold its declared variables alone and its table
is keyed by their values.  Registered again with no declaration, the
same model gets the same verdict, and in 81 of them `explore` then
calls its updates more often.

100 variable-schedule models have drawing updates whose next point, or
none, depends on their input and on what they drew before in the call,
all of one domain, so the oracle enumerates the product over the
longest schedule and runs each distinct prefix the runs consume: every
safe one runs fewer paths than that product holds, and in 61 of them a
drawing row's trie serves a call part-way, whose context hands back the
values the row drew before it.

100 mixed-types models hold symbolic domains of int, IntEnum and bool
members, weigh each value by its type, and on some branches write a
value equal to a member of another type, which is no member, so 37 of
their searches end in a ModelError.

In many models of every family some row reads an input it has read
before in the search, and takes its writes from its table, or, where its
call gets a live context, draws its values down its trie to them, instead
of calling its update.

A path ceiling at each model's path count changes nothing, and one below it
ends the search after exactly that many paths.
"""

import itertools
import statistics
from collections import Counter
from dataclasses import fields, replace

from hilcheck import engine
from hilcheck.engine import UpdateFunctions, explore

from _modelgen import generate
from _oracle import FAMILIES
from _sweep import Swept, outcomes, swept


def settles(expected) -> bool:
    """Whether the oracle's witness path has a step that drew nothing and
    returned its input's values."""
    drew = {entry.iteration for entry in expected.choice_log}
    trace = expected.first_trace
    return any(after.values == before.values and after.iteration not in drew
               for before, after in zip(trace, trace[1:]))


def test_explore_matches_flat_enumeration_on_all_seeds():
    kinds = outcomes("random")
    assert kinds == FAMILIES["random"].outcomes
    # the corpus must actually exercise both outcomes to mean anything
    assert kinds["Safe"] >= 20, kinds
    assert kinds["Unsafe"] >= 20, kinds


def test_explore_matches_flat_enumeration_on_settling_models():
    # the family's row pins 32 Safe
    assert outcomes("settling") == FAMILIES["settling"].outcomes
    results = [model.expected for model in swept("settling")]
    # a path settles only once its clock, if any, has stopped, and only on
    # values its assertions passed, so no Unsafe witness settles
    settled = [r for r in results if settles(r)]
    assert len(settled) == 16
    assert {r.kind for r in settled} == {"Safe"}
    assert sum(r.failed == "late" for r in results) == 37


def test_explore_matches_flat_enumeration_on_write_path_models():
    assert outcomes("write-path") == FAMILIES["write-path"].outcomes
    # what ended each search in a ModelError: a wrong-typed write, a draw
    # through a context an earlier row kept, one through a context no
    # point is sited at
    ends = dict.fromkeys(("outside its domain", "had returned",
                          "is declared for"), 0)
    for model in swept("write-path"):
        if model.expected.kind == "ModelError":
            end, = (end for end in ends if end in model.verdict.message)
            ends[end] += 1
    assert ends == {"outside its domain": 20, "had returned": 7,
                    "is declared for": 2}


def test_explore_matches_flat_enumeration_on_raising_models():
    assert outcomes("raising") == FAMILIES["raising"].outcomes
    for model in swept("raising"):
        if model.expected.kind == "ModelError":
            assert " raised RuntimeError(" in model.verdict.message


def test_explore_matches_flat_enumeration_on_cycling_models():
    assert outcomes("cycling") == FAMILIES["cycling"].outcomes
    # a safe witness comes back to its initial valuation and steps on
    for model in swept("cycling"):
        if model.expected.kind == "Safe":
            trace = model.expected.first_trace
            assert trace[0].values in [s.values for s in trace[2:-1]], \
                model.seed
            assert not settles(model.expected), model.seed


def writes_one_value_to_two_variables(model: Swept) -> bool:
    """Whether, in one search of the model, some update writes an equal
    value to one variable of its group on one input and to the other on
    another: the writes a row's table must keep apart."""
    written: dict[tuple[str, object], set] = {}

    def recording(name: str, fn):
        def recorded(*args):
            returned = fn(*args)
            for var, value in returned.items():
                if var != "t":   # the clock of a late-failing model
                    written.setdefault((name, value), set()).add(var)
            return returned
        return recorded

    updates = UpdateFunctions(**{
        f.name: recording(f.name, getattr(model.gen.model.updates, f.name))
        for f in fields(UpdateFunctions)})
    explore(replace(model.gen.model, updates=updates), model.gen.bound,
            path_ceiling=model.expected.paths)
    return any(len(variables) > 1 for variables in written.values())


def test_explore_matches_flat_enumeration_on_conditional_writes_models():
    assert outcomes("conditional-writes") \
        == FAMILIES["conditional-writes"].outcomes
    assert sum(map(writes_one_value_to_two_variables,
                   swept("conditional-writes"))) == 94


def update_calls(model, bound: int, ceiling: int) -> int:
    """How many times `explore` calls the model's updates."""
    calls = 0

    def counting(fn):
        def counted(*args):
            nonlocal calls
            calls += 1
            return fn(*args)
        return counted

    updates = UpdateFunctions(**{
        f.name: counting(getattr(model.updates, f.name))
        for f in fields(UpdateFunctions)})
    explore(replace(model, updates=updates), bound, path_ceiling=ceiling)
    return calls


def test_explore_matches_flat_enumeration_on_declared_reads_models():
    assert outcomes("declared-reads") == FAMILIES["declared-reads"].outcomes
    # the same model with no `reads` hands every update whole groups and
    # keys its tables by them: the same verdict, from as many update calls
    # or more
    fewer = 0
    for model in swept("declared-reads"):
        gen, paths = model.gen, model.expected.paths
        whole = engine.register_model(
            gen.model.variables, gen.model.updates,
            tuple(gen.model.choices.values()), gen.model.assertions,
            gen.model.name)
        assert explore(whole, gen.bound, path_ceiling=paths) \
            == model.verdict, model.seed
        narrow = update_calls(gen.model, gen.bound, paths)
        wide = update_calls(whole, gen.bound, paths)
        assert narrow <= wide, model.seed
        fewer += narrow < wide
    assert fewer == 81


def trie_hands_back_draws(model: Swept, monkeypatch) -> bool:
    """Whether `explore` on the model calls a drawing update whose live
    context first hands back values its row's trie drew in the step."""
    handed = False

    class Counted(engine.StepContext):
        __slots__ = ()

        def __init__(self, model, iteration, values, site, entries, drawn):
            nonlocal handed
            handed |= bool(drawn)
            super().__init__(model, iteration, values, site, entries, drawn)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "StepContext", Counted)
        explore(model.gen.model, model.gen.bound,
                path_ceiling=model.expected.paths)
    return handed


def schedule_varies(model: Swept) -> tuple[bool, bool]:
    """Whether, on the oracle's first or witness path, a drawing slot
    draws nothing in one iteration and draws in another, and whether one
    of its calls draws two values."""
    choices = model.gen.model.choices
    slots = {cp.site for cp in model.gen.step_points}
    drawn = Counter((entry.iteration, choices[entry.point_id].site)
                    for entry in model.expected.choice_log
                    if entry.iteration > 0)
    counts = [drawn[iteration, slot] for slot in slots
              for iteration in range(
                  1, model.expected.first_trace[-1].iteration + 1)]
    return 0 in counts and any(counts), max(counts, default=0) >= 2


def test_explore_matches_flat_enumeration_on_variable_schedule_models(
        monkeypatch):
    assert outcomes("variable-schedule") \
        == FAMILIES["variable-schedule"].outcomes
    models = swept("variable-schedule")
    # a run consumes a prefix of the longest schedule, so a safe model
    # runs fewer paths than the product over it holds
    for model in models:
        if model.expected.kind == "Safe":
            assert model.expected.paths < model.gen.runs, model.seed
    varies = [schedule_varies(model) for model in models]
    assert sum(none for none, _ in varies) == 46
    assert sum(two for _, two in varies) == 34
    assert sum(trie_hands_back_draws(model, monkeypatch)
               for model in models) == 61


def test_explore_matches_flat_enumeration_on_mixed_types_models():
    assert outcomes("mixed-types") == FAMILIES["mixed-types"].outcomes
    # each search that ends in a ModelError ends at a value equal to a
    # member of another type of the variable's domain
    for model in swept("mixed-types"):
        if model.expected.kind == "ModelError":
            assert "outside its domain" in model.verdict.message, model.seed


def unsafe_path_indices(name: str) -> list[int]:
    """Each Unsafe model's violating path: how many paths the search ran
    up to and including it."""
    return [model.expected.paths for model in swept(name)
            if model.expected.kind == "Unsafe"]


def test_explore_matches_flat_enumeration_on_late_failing_models():
    assert outcomes("late-failing") == FAMILIES["late-failing"].outcomes
    late = unsafe_path_indices("late-failing")
    # most fail only after backtracking, where most random models fail on
    # their first path
    assert sum(n == 1 for n in late) == 10
    assert statistics.median(late) == 5
    assert sum(n == 1 for n in unsafe_path_indices("random")) == 139


def stateless_steps(model: Swept) -> int:
    """How many steps a search that counted no subtree at once would run on
    a repeating model: its models draw in every step, so no path settles,
    and a path after the first steps on from the iteration of its first
    draw that differs from the path before it."""
    gen, expected = model.gen, model.expected
    points = list(gen.init_points) + list(gen.step_points) * gen.bound
    vectors = itertools.product(*(cp.domain for cp in points))
    total, previous = 0, None
    for n, vector in enumerate(itertools.islice(vectors, expected.paths), 1):
        steps = gen.bound
        if n == expected.paths and expected.kind == "Unsafe":
            steps = expected.violation_iteration
        if previous is None:
            shared = 0
        else:
            first = next(i for i, (a, b) in enumerate(zip(vector, previous))
                         if a != b) - len(gen.init_points)
            shared = max(0, first // len(gen.step_points))
        total += steps - shared
        previous = vector
    return total


def test_explore_matches_flat_enumeration_on_repeating_models(monkeypatch):
    assert outcomes("repeating") == FAMILIES["repeating"].outcomes
    steps = 0
    step = engine._step

    def counted(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    monkeypatch.setattr(engine, "_step", counted)
    repeated = 0
    for model in swept("repeating"):
        steps = 0
        explore(model.gen.model, model.gen.bound)
        stateless = stateless_steps(model)
        assert steps <= stateless, model.seed
        repeated += steps < stateless
    # the models where `explore` reaches a state it counts at once
    assert repeated == 30


def served_from_a_table(model: Swept, monkeypatch) -> bool:
    """Whether `explore` on the model serves some update call from its
    tables: a step that ends having called fewer than its nine updates."""
    calls, served = 0, False

    def counting(fn):
        def counted(*args):
            nonlocal calls
            calls += 1
            return fn(*args)
        return counted

    step = engine._step

    def stepped(*args):
        nonlocal served
        before = calls
        result = step(*args)
        served |= calls - before < len(fields(UpdateFunctions))
        return result

    updates = UpdateFunctions(**{
        f.name: counting(getattr(model.gen.model.updates, f.name))
        for f in fields(UpdateFunctions)})
    # undone after this model, so the next one's wrapper wraps the
    # engine's own step, not this one
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_step", stepped)
        explore(replace(model.gen.model, updates=updates), model.gen.bound,
                path_ceiling=model.expected.paths)
    return served


def test_repeated_inputs_are_served_from_tables(monkeypatch):
    # the models where a row reads an input it has read before in the
    # search, and takes its writes from its table or, where its call gets
    # a live context, from its trie
    served = {name: sum(served_from_a_table(model, monkeypatch)
                        for model in swept(name)) for name in FAMILIES}
    assert served == {"random": 83, "settling": 71, "write-path": 36,
                      "raising": 26, "cycling": 41, "late-failing": 84,
                      "repeating": 43, "conditional-writes": 86,
                      "declared-reads": 84, "variable-schedule": 63,
                      "mixed-types": 73}, served


def test_path_ceiling_at_and_one_below_each_path_count():
    # the sweep explored at the oracle's path count n, and at n - 1 where
    # n >= 2, which must end in a ModelError after exactly n - 1 paths;
    # unbounded, the search is the one at n
    branching = dict.fromkeys(FAMILIES, 0)
    for name in FAMILIES:
        for seed, gen, expected, at_count in swept(name):
            assert explore(gen.model, gen.bound) == at_count, \
                f"{name} seed {seed}"
            branching[name] += expected.paths >= 2
    assert branching == {"random": 76, "settling": 19, "write-path": 41,
                         "raising": 29, "cycling": 23, "late-failing": 79,
                         "repeating": 40, "conditional-writes": 80,
                         "declared-reads": 73, "variable-schedule": 62,
                         "mixed-types": 69}, branching


def test_generated_models_have_bounded_run_counts():
    for model in swept("random")[:50]:
        assert 1 <= model.gen.runs <= 400
    for seed in FAMILIES["random"].seeds[:50]:
        assert 1 <= generate(seed, settling=True).runs <= 400
