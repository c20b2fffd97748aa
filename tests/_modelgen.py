"""Random small-model generator for cross-checking the explorer.

Every generated model but a variable-schedule one draws from each of its
choice points exactly once per iteration, on a fixed schedule, so the set
of complete runs is exactly the cartesian product of all choice domains
over the bound.  A variable-schedule model draws a prefix of its longest
schedule, from points of one shared domain, so its runs are the distinct
prefixes of that product's vectors that they consume.  That is what lets
the flat-enumeration oracle in _oracle.py enumerate runs without any
knowledge of the search algorithm.  The draws follow the engine's step
order (inputs, then states, then outputs), which is also the order the
oracle feeds values in; each update combines every view its row reads, so
the outputs' reads of this step's new state are exercised too.

Initialisation and step points share one `choices` list in a seeded random
order.  Initialisation points are drawn in their list order, and step
points on the schedule whatever their list order, so the oracle expects the
points in those two orders.

A settling model saturates its updates at each variable's cap instead of
wrapping, and its states climb by at most one a step, so most paths reach a
fixed point within its longer bound, some variables still changing after
the rest have stopped.  Its variables are declared in a shuffled order, so
such a variable can sit at any position.  It has no step point or one,
whose draws the saturated state absorbs.  It may have a clock: a variable
`t` of a state group, at any position, that counts the steps up to a cap
`late`, and an assertion that fails once the clock is at its cap while a
variable is at its own, so a violation can come late, after the rest of
the state has stopped.  Assertions read only a state's values, so the
clock is what a late one reads.

A late-failing model is a random one whose only assertion is such a clock
one: it fails once the clock, capped at 1 to the bound, is at its cap
while two residues of pairwise sums meet, a conjunction that the first
path seldom reaches.

A repeating model is a random one whose variables each hold one bit, with
two or three step points at distinct slots and at most one assertion, so
paths that drew differently often reach equal states, at the same
iteration or at another.

A conditional-writes model is a late-failing one whose every group holds
a second variable, `<name>2`, and whose updates choose by their input
which of the two they write: an update writes its value to `<name>2`
where the sum it wrapped went round its domain an odd number of times,
else to `<name>`.  So one update writes equal values to two variables on
different inputs.  Each update reads the sum of the two, so a write to
either feeds the next step.

A declared-reads model (`generate_declared_reads`) declares, per update,
a random part of the variables of the groups it is handed, and reads
only that, some of it only on some inputs, so its views and its table
keys hold the declared variables alone.

A variable-schedule model (`generate_variable_schedule`) has drawing
updates that choose which point they draw next, or none, by their input
and by what they drew before in the call.

A mixed-types model (`generate_mixed_types`) holds symbolic domains of
int, IntEnum and bool members, weighs each value by its type, and on some
branches writes a value equal to a member of another type.

A raising model's drawing updates keep their contexts, and each call first
tries to draw through the one its update kept last, which must be refused.
On some branches where a point drew its last candidate, never on the path
of first values that `register_model`'s trial step takes, the update then
raises, so a search ends in a ModelError there, and a later call, in this
search or a later one on the same model, tries a context kept by an update
that raised.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import IntEnum

from hilcheck.engine import (Assertion, ChoicePoint, Group, IntDomain,
                             ModelError, SymbolicDomain, UpdateFunctions, Var,
                             register_model)

from _helpers import noop
from _reference import ORDER

# slots that may draw, in the order the engine executes them
_DRAW_SLOTS = (Group.ENV_INPUT, Group.BEH_INPUT, Group.ENV_STATE,
               Group.BEH_STATE, Group.ENV_OUTPUT, Group.BEH_OUTPUT)

_SLOT_VAR = {
    Group.ENV_INPUT: "ei", Group.SYS_INPUT: "si", Group.BEH_INPUT: "bi",
    Group.ENV_OUTPUT: "eo", Group.SYS_OUTPUT: "so", Group.BEH_OUTPUT: "bo",
    Group.ENV_STATE: "e", Group.SYS_STATE: "s", Group.BEH_STATE: "b",
}


@dataclass(frozen=True)
class GeneratedModel:
    model: object
    bound: int
    init_points: tuple[ChoicePoint, ...]  # in draw order
    # draws per iteration, in order: on a variable schedule, as many as
    # the longest, each point of the one domain they all share
    step_points: tuple[ChoicePoint, ...]
    variable: bool = False   # whether its schedule is variable

    @property
    def runs(self) -> int:
        total = 1
        for cp in self.init_points:
            total *= len(cp.domain)
        per_iter = 1
        for cp in self.step_points:
            per_iter *= len(cp.domain)
        return total * per_iter ** self.bound


def refused(ctx, point: ChoicePoint) -> None:
    """Draw `point` through a context that had returned or is not its
    update's own: the draw must fail, draw nothing, and the update go on."""
    try:
        ctx.choose(point.point_id)
    except ModelError:
        return
    raise AssertionError(f"{point.point_id} was drawn through a context "
                         "that had returned or is not its own")


def _rand_domain(rng: random.Random) -> tuple[int, ...]:
    size = rng.randint(1, 3)
    return tuple(sorted(rng.sample(range(0, 5), size)))


def _draw_layout(rng: random.Random, bound: int, max_runs: int,
                 settling: bool = False, repeating: bool = False):
    """(bound, init domains, step point sites, step domains): draw layouts
    sampled until the run count fits the budget, the bound lowered on each
    miss."""
    for _ in range(50):
        n_init = rng.randint(0, 2)
        init_domains = tuple(_rand_domain(rng) for _ in range(n_init))
        site_of: list[Group] = []
        if settling:
            site_of.extend(rng.sample(_DRAW_SLOTS, rng.randint(0, 1)))
        elif repeating:
            site_of.extend(sorted(rng.sample(_DRAW_SLOTS, rng.randint(2, 3)),
                                  key=_DRAW_SLOTS.index))
        else:
            for slot in _DRAW_SLOTS:
                for _ in range(rng.randint(0, 1)):
                    site_of.append(slot)
        step_domains = tuple(_rand_domain(rng) for _ in site_of)
        total = 1
        for dom in init_domains:
            total *= len(dom)
        per_iter = 1
        for dom in step_domains:
            per_iter *= len(dom)
        if total * per_iter ** bound <= max_runs:
            break
        bound = max(2, bound - 1)
    return bound, init_domains, site_of, step_domains


def generate(seed: int, max_runs: int = 400, settling: bool = False,
             raising: bool = False, late_failing: bool = False,
             repeating: bool = False,
             conditional: bool = False) -> GeneratedModel:
    """Build one random model whose complete-run count is at most max_runs;
    a settling one if `settling`, a raising one if `raising`, a late-failing
    one if `late_failing`, a repeating one if `repeating`, a
    conditional-writes one if `conditional`."""
    rng = random.Random(seed)

    caps = {name: 1 if repeating
            else rng.randint(2, 9 if settling else 6)
            for name in _SLOT_VAR.values()}
    coeff = {name: rng.randint(1, 2) for name in _SLOT_VAR.values()}
    offset = {name: rng.randint(0, 3) for name in _SLOT_VAR.values()}

    bound = rng.randint(6, 10) if settling else rng.randint(2, 4)
    bound, init_domains, site_of, step_domains = _draw_layout(
        rng, bound, max_runs, settling, repeating)

    step_points = []
    draws: dict[Group, list[ChoicePoint]] = {slot: [] for slot in _DRAW_SLOTS}
    for k, (slot, dom) in enumerate(zip(site_of, step_domains)):
        cp = ChoicePoint(f"d{k}", dom, site=slot)
        step_points.append(cp)
        draws[slot].append(cp)

    def clamp(name: str, value: int) -> int:
        if settling:
            return min(caps[name], value)
        return value % (caps[name] + 1)

    def written(name: str, value: int) -> dict:
        """The write of `value`, clamped, to `name`, or, in a conditional
        model where `value` wraps round `name`'s domain an odd number of
        times, to `<name>2`: which variable depends on the input, not on
        the value written alone."""
        if conditional and value // (caps[name] + 1) % 2:
            return {f"{name}2": clamp(name, value)}
        return {name: clamp(name, value)}

    def val(view, name: str) -> int:
        """`name`'s value in `view`, plus `<name>2`'s in a conditional
        model, so what an update wrote to either feeds the next step."""
        if conditional:
            return view[name] + view[f"{name}2"]
        return view[name]

    def accumulate(name: str, own: int, rest: int) -> int:
        """A state's next value, before it is clamped.  A settling state
        climbs from its own value by at most one, so the states saturate
        one by one."""
        if settling:
            return own + min(1, rest)
        return coeff[name] * own + rest

    kept: dict[tuple[Group, type], object] = {}
    # the state group holding a settling model's clock `t`, and its cap
    clock: dict[Group, int] = {}

    def tick(group: Group, view) -> dict:
        """The clock's next value if `group` holds it: one more a step, up
        to its cap."""
        return {"t": min(clock[group], view.t + 1)} if group in clock else {}

    def drawn(ctx, slot: Group, rest: int) -> int:
        """`rest` plus the values `slot` draws.  A raising model's update
        raises where a point drew its last candidate and `rest` is a
        multiple of `modulus`."""
        if raising and draws[slot]:
            # kept per context class: a run of the reference and one of
            # the engine each find their own, or the two could agree on a
            # context one of them left open
            key = slot, type(ctx)
            if key in kept:
                refused(kept[key], draws[slot][0])
            kept[key] = ctx
        total = rest
        for cp in draws[slot]:
            value = ctx.choose(cp.point_id)
            if raising and value == cp.domain[-1] != cp.domain[0] \
                    and rest % modulus == 0:
                raise RuntimeError(f"{cp.point_id} drew {value}")
            total += value
        return total

    def env_input(so, e, ctx):
        return written("ei", drawn(ctx, Group.ENV_INPUT, val(so, "so")
                                   + coeff["ei"] * val(e, "e")
                                   + offset["ei"]))

    def sys_input(bo, eo, s):
        return written("si", val(bo, "bo") + val(eo, "eo")
                       + coeff["si"] * val(s, "s") + offset["si"])

    def beh_input(b, eo, so, ctx):
        return written("bi", drawn(ctx, Group.BEH_INPUT,
                                   coeff["bi"] * val(b, "b") + val(eo, "eo")
                                   + val(so, "so") + offset["bi"]))

    def env_output(ei, e, ctx):
        return written("eo", drawn(ctx, Group.ENV_OUTPUT, val(ei, "ei")
                                   + coeff["eo"] * val(e, "e")
                                   + offset["eo"]))

    def sys_output(si, s):
        return written("so", val(si, "si") + coeff["so"] * val(s, "s")
                       + offset["so"])

    def beh_output(bi, b, ctx):
        return written("bo", drawn(ctx, Group.BEH_OUTPUT, val(bi, "bi")
                                   + coeff["bo"] * val(b, "b")
                                   + offset["bo"]))

    def env_state(ei, e, ctx):
        return {**written("e", accumulate("e", val(e, "e"), drawn(
                    ctx, Group.ENV_STATE, val(ei, "ei") + offset["e"]))),
                **tick(Group.ENV_STATE, e)}

    def sys_state(si, s):
        return {**written("s", accumulate("s", val(s, "s"),
                                          val(si, "si") + offset["s"])),
                **tick(Group.SYS_STATE, s)}

    def beh_state(bi, b, ctx):
        return {**written("b", accumulate("b", val(b, "b"), drawn(
                    ctx, Group.BEH_STATE, val(bi, "bi") + offset["b"]))),
                **tick(Group.BEH_STATE, b)}

    updates = UpdateFunctions(
        env_input=env_input, sys_input=sys_input, beh_input=beh_input,
        env_output=env_output, sys_output=sys_output, beh_output=beh_output,
        env_state=env_state, sys_state=sys_state, beh_state=beh_state)

    variables = [Var(name, group, IntDomain(0, caps[name]),
                     rng.randint(0, caps[name]))
                 for group, name in _SLOT_VAR.items()]
    if conditional:
        # no draw of rng, so the rest of the model is its random twin's
        variables += [Var(f"{name}2", group, IntDomain(0, caps[name]), 0)
                      for group, name in _SLOT_VAR.items()]

    init_targets = rng.sample(["e", "s", "b"], len(init_domains))
    choices = list(step_points)
    for k, (name, dom) in enumerate(zip(init_targets, init_domains)):
        dom = tuple(v % (caps[name] + 1) for v in dom)
        dom = tuple(dict.fromkeys(dom))  # dedupe, keep order
        group = next(g for g, n in _SLOT_VAR.items() if n == name)
        choices.append(ChoicePoint(f"init{k}", dom, site=(group, name)))

    assertions = []
    if late_failing:
        n_asserts = 0
    else:
        n_asserts = (rng.randint(0, 1) if settling or repeating
                     else rng.randint(1, 2))
    for k in range(n_asserts):
        watched = rng.sample(list(_SLOT_VAR.items()), 3)
        weights = [rng.randint(0, 2) for _ in watched]
        modulus = rng.randint(3, 7)
        forbidden = rng.randrange(modulus)

        def pred(state, watched=watched, weights=weights,
                 modulus=modulus, forbidden=forbidden):
            total = sum(w * state.value(group, name)
                        for w, (group, name) in zip(weights, watched))
            return total % modulus != forbidden

        assertions.append(Assertion(f"a{k}", pred))
    late = None
    if settling and rng.random() < 0.5:
        group, name = rng.choice(list(_SLOT_VAR.items()))
        late = rng.randint(2, bound)

        def met(state, group=group, name=name):
            return state.value(group, name) >= caps[name]
    elif late_failing:
        late = rng.randint(1, bound)
        moduli = [rng.randint(2, 4) for _ in range(2)]
        residues = [(rng.sample(list(_SLOT_VAR.items()), 2), m,
                     rng.randrange(m)) for m in moduli]

        def met(state, residues=residues):
            return all(sum(state.value(group, name) for group, name in pair)
                       % m == residue for pair, m, residue in residues)

    # shuffled last, so every earlier draw of rng is as it was
    rng.shuffle(choices)
    if settling:
        rng.shuffle(variables)
    modulus = rng.randint(1, 2) if raising else None
    if late is not None:
        # the clock after every other draw, so the family's models without
        # one are as they were
        at = rng.choice((Group.ENV_STATE, Group.SYS_STATE, Group.BEH_STATE))
        variables.insert(rng.randint(0, len(variables)),
                         Var("t", at, IntDomain(0, late), 0))
        clock[at] = late

        def capped_late(state, late=late, at=at):
            return state.value(at, "t") < late or not met(state)

        assertions.append(Assertion("late", capped_late))
    model = register_model(variables=variables, updates=updates,
                           choices=choices, assertions=assertions,
                           name=f"gen{seed}")
    return GeneratedModel(
        model=model, bound=bound,
        init_points=tuple(cp for cp in choices
                          if not isinstance(cp.site, Group)),
        step_points=tuple(step_points))


_STATES = (Group.ENV_STATE, Group.SYS_STATE, Group.BEH_STATE)


def generate_cycling(seed: int) -> GeneratedModel:
    """Build one random model whose paths return to their initial
    valuation before the bound.

    Only the three state groups hold a variable, a counter that steps by
    one modulo its cap plus one, and no update draws, so from any start a
    path's valuation comes back after the least common multiple of the
    moduli, a period of 2 to 12 steps, and the bound runs one to three
    steps past it.  Up to two initialisation points draw counters'
    starting values, and up to one assertion forbids a residue of a
    weighted sum of the counters.
    """
    rng = random.Random(seed)
    caps = {group: rng.randint(1, 3) for group in _STATES}
    bound = math.lcm(*(cap + 1 for cap in caps.values())) + rng.randint(1, 3)

    def counter(group: Group):
        def update(*args):
            own = args[1]   # a state update reads its input, then its state
            return {"c": (own.c + 1) % (caps[group] + 1)}
        return update

    updates = UpdateFunctions(**{group.name.lower(): counter(group)
                                 if group in _STATES else noop
                                 for group in Group})
    variables = [Var("c", group, IntDomain(0, caps[group]),
                     rng.randint(0, caps[group])) for group in _STATES]
    choices = [ChoicePoint(f"init{k}", tuple(sorted(rng.sample(
                   range(caps[group] + 1), rng.randint(1, caps[group] + 1)))),
                           site=(group, "c"))
               for k, group in enumerate(rng.sample(_STATES,
                                                    rng.randint(0, 2)))]
    assertions = []
    if rng.random() < 0.5:
        weights = {group: rng.randint(1, 2) for group in _STATES}
        modulus = rng.randint(3, 7)
        forbidden = rng.randrange(modulus)

        def pred(state):
            return sum(weights[group] * state.value(group, "c")
                       for group in _STATES) % modulus != forbidden

        assertions.append(Assertion("a0", pred))
    model = register_model(variables=variables, updates=updates,
                           choices=choices, assertions=assertions,
                           name=f"cyc{seed}")
    return GeneratedModel(model=model, bound=bound,
                          init_points=tuple(choices), step_points=())


# a write-path model's symbolic members, and the first int that is not one
# of the interpreter's shared small ints: a sum from it up is a new object
_SYMBOLS = ("lo", "mid", "hi")
_BIG = 257

# the drawing slot just before each system slot, in step order
_DRAWN_BEFORE = {Group.SYS_INPUT: Group.ENV_INPUT,
                 Group.SYS_STATE: Group.ENV_STATE,
                 Group.SYS_OUTPUT: Group.ENV_OUTPUT}


# a drawing slot -> the input slot before it whose group it reads in the
# same step
_CUED_BY = {Group.ENV_STATE: Group.ENV_INPUT, Group.BEH_STATE: Group.BEH_INPUT,
            Group.ENV_OUTPUT: Group.ENV_INPUT,
            Group.BEH_OUTPUT: Group.BEH_INPUT}


def _numeric(value) -> int:
    if isinstance(value, str):
        return _SYMBOLS.index(value)
    if value >= _BIG:
        return value - _BIG
    return int(value)


def generate_write_path(seed: int, max_runs: int = 120) -> GeneratedModel:
    """Build one random model that works the engine's write path.

    Every group holds an int `n`, a bool `f` and a symbolic `s`, and some a
    `big` int from 257 up, written as a new but often equal object.  Each
    update reads every variable of every view it gets, by name, and writes
    a partial, shuffled subset of its group: each name always, never, or
    depending on the values it read.  One drawing update may keep a
    variable `one` at 1 and, on branches where its point drew its last
    candidate, write True there, which the domain check must reject.  The
    drawing updates keep their contexts.  A system update draws through
    the one of the drawing update just before it, which the engine must
    refuse, drawing nothing, and the update goes on.  In about half the
    models, on branches where its point drew its last candidate and its
    sum is odd, a drawing update may draw its point again through the
    context an earlier row kept in the same step, and a state or output
    update no point is sited at may draw some point through its own
    context where its model's input point drew its last candidate in the
    step.  That input update says so in a bool `cue` of its group, which
    the state or output update reads in its view, so whether it draws
    depends on its views alone, as the purity rule asks.  The engine must
    refuse both draws, and the refusal ends the run in a ModelError whose
    message the oracle compares with the reference's.  None of these
    branches is on the path of first values that `register_model`'s trial
    step takes.  Draws follow the fixed schedule, as in `generate`.
    """
    rng = random.Random(seed)
    bound, init_domains, site_of, step_domains = _draw_layout(
        rng, rng.randint(2, 4), max_runs)
    point_of: dict[Group, ChoicePoint] = {}
    for k, (slot, dom) in enumerate(zip(site_of, step_domains)):
        point_of[slot] = ChoicePoint(f"d{k}", dom, site=slot)

    cap = {group: rng.randint(2, 6) for group in Group}
    offset = {group: rng.randint(0, 5) for group in Group}
    names = {group: ["n", "f", "s"] + (["big"] if rng.random() < 0.5 else [])
             for group in Group}
    triggers = [slot for slot, cp in point_of.items() if len(cp.domain) > 1]
    trigger = rng.choice(triggers) if triggers and rng.random() < 0.7 else None
    if trigger is not None:
        names[trigger].append("one")
    # how each update writes each name: always, never, or as its values say
    how = {group: {name: rng.choice(("always", "never", "sometimes"))
                   for name in names[group]} for group in Group}
    for group in Group:
        rng.shuffle(names[group])
    # drawing slots whose update may draw its point through an earlier
    # one's context too
    borrowers = {slot: rng.choice(_DRAW_SLOTS[:_DRAW_SLOTS.index(slot)])
                 for slot in point_of
                 if slot is not _DRAW_SLOTS[0] and rng.random() < 0.5}
    reads = {target: [group for group, _ in row] for _, target, row in ORDER}
    kept: dict[Group, object] = {}
    # a drawing slot no point is sited at -> (the input slot whose `cue`,
    # set where its point drew its last candidate, it reads, the point it
    # then draws)
    misdrawn: dict[Group, tuple[Group, ChoicePoint]] = {}
    # the input slots whose `cue` a misdrawing slot reads
    cues: set[Group] = set()

    def make_update(target: Group):
        def update(*args):
            if target in _DRAW_SLOTS:
                *views, ctx = args
                kept[target] = ctx
            else:
                views, ctx = args, None
            t = offset[target] + sum(
                _numeric(getattr(view, name))
                for view, group in zip(views, reads[target])
                for name in names[group])
            drew = last = None
            if target in point_of:
                point = point_of[target]
                drew = ctx.choose(point.point_id)
                t += drew
                last = drew == point.domain[-1] != point.domain[0]
                if target in borrowers and last and t % 2 == 1:
                    # refused: ends the run
                    kept[borrowers[target]].choose(point.point_id)
            elif target in misdrawn and views[
                    reads[target].index(misdrawn[target][0])].cue:
                ctx.choose(misdrawn[target][1].point_id)   # refused too
            elif target in _DRAWN_BEFORE and _DRAWN_BEFORE[target] in point_of:
                before = _DRAWN_BEFORE[target]
                refused(kept[before], point_of[before])
            written = {"n": t % (cap[target] + 1), "f": t % 2 == 1,
                       "s": _SYMBOLS[t % 3], "big": _BIG + t % 4, "one": 1}
            returned = {name: written[name] for name in names[target]
                        if how[target][name] == "always"
                        or how[target][name] == "sometimes" and t % 3 != 0}
            if target is trigger and drew == point_of[target].domain[-1] \
                    and t % 2 == 0:
                returned["one"] = True   # equal to the 1 it holds
            if target in cues:
                returned["cue"] = last
            return returned
        return update

    updates = UpdateFunctions(**{group.name.lower(): make_update(group)
                                 for group in Group})

    def declared(group: Group, name: str) -> Var:
        if name == "n":
            return Var(name, group, IntDomain(0, cap[group]),
                       rng.randint(0, cap[group]))
        if name == "f":
            return Var(name, group, SymbolicDomain((False, True)),
                       rng.random() < 0.5)
        if name == "s":
            return Var(name, group, SymbolicDomain(_SYMBOLS),
                       rng.choice(_SYMBOLS))
        if name == "big":
            return Var(name, group, IntDomain(_BIG, _BIG + 3), _BIG)
        return Var(name, group, IntDomain(0, 3), 1)

    variables = [declared(group, name)
                 for group in Group for name in names[group]]
    rng.shuffle(variables)

    choices = list(point_of.values())
    states = [Group.ENV_STATE, Group.SYS_STATE, Group.BEH_STATE]
    for k, (group, dom) in enumerate(zip(rng.sample(states, len(init_domains)),
                                         init_domains)):
        dom = tuple(dict.fromkeys(v % (cap[group] + 1) for v in dom))
        choices.append(ChoicePoint(f"init{k}", dom, site=(group, "n")))
    rng.shuffle(choices)

    watched = [(group, name) for group in Group for name in names[group]]
    assertions = []
    for k in range(rng.randint(0, 2)):
        picked = rng.sample(watched, 3)
        modulus = rng.randint(4, 9)
        forbidden = rng.randrange(modulus)

        def pred(state, picked=picked, modulus=modulus, forbidden=forbidden):
            return sum(_numeric(state.value(group, name))
                       for group, name in picked) % modulus != forbidden

        assertions.append(Assertion(f"a{k}", pred))

    # after every other draw of rng, so the rest of each model is as it
    # was; in about half the models no refusal ends a run
    if rng.random() < 0.5:
        borrowers.clear()
    else:
        for slot, cue in _CUED_BY.items():
            if slot not in point_of and cue in point_of \
                    and len(point_of[cue].domain) > 1 and rng.random() < 0.5:
                misdrawn[slot] = cue, rng.choice(choices)
                cues.add(cue)
        variables += [Var("cue", cue, SymbolicDomain((False, True)), False)
                      for cue in sorted(cues, key=_DRAW_SLOTS.index)]

    model = register_model(variables=variables, updates=updates,
                           choices=choices, assertions=assertions,
                           name=f"wp{seed}")
    return GeneratedModel(
        model=model, bound=bound,
        init_points=tuple(cp for cp in choices
                          if not isinstance(cp.site, Group)),
        step_points=tuple(point_of[slot] for slot in _DRAW_SLOTS
                          if slot in point_of))


def generate_declared_reads(seed: int, max_runs: int = 400) -> GeneratedModel:
    """Build one random model whose updates declare what they read.

    Every group holds one to three int variables.  Each update declares a
    random subset, in random order, of the variables of the groups its row
    reads, none at all in some, or, in about one in five, is left out of
    `reads` and reads them all.  It reads only what it declares, by
    attribute or by item, some of it only where the sum it has read so far
    is odd, and writes that sum, plus its draws and an offset, to some
    variables of its group, each wrapped to its domain; some it writes
    only where the sum is not a multiple of 3.  So whether a row's table
    may answer a call depends on the declared variables alone.  Draws
    follow the fixed schedule, as in `generate`.
    """
    rng = random.Random(seed)
    bound, init_domains, site_of, step_domains = _draw_layout(
        rng, rng.randint(2, 4), max_runs)
    draws: dict[Group, list[ChoicePoint]] = {slot: [] for slot in _DRAW_SLOTS}
    step_points = []
    for k, (slot, dom) in enumerate(zip(site_of, step_domains)):
        cp = ChoicePoint(f"d{k}", dom, site=slot)
        step_points.append(cp)
        draws[slot].append(cp)

    names = {group: [f"{_SLOT_VAR[group]}{k}"
                     for k in range(rng.randint(1, 3))] for group in Group}
    cap = {(group, name): rng.randint(1, 4)
           for group in Group for name in names[group]}
    offset = {group: rng.randint(0, 3) for group in Group}
    reads: dict[Group, list[tuple[Group, str]]] = {}
    # each update's reads, in the order it makes them: (group, name,
    # weight, read only where the sum so far is odd, read by item)
    plans: dict[Group, list[tuple]] = {}
    # each update's writes: (name, written only where the sum is not a
    # multiple of 3)
    writes: dict[Group, list[tuple[str, bool]]] = {}
    for _, target, row in ORDER:
        every = [(group, name) for group, _ in row for name in names[group]]
        draw = rng.random()
        if draw < 0.2:
            chosen = every
        elif draw < 0.35:
            chosen = reads[target] = []
        else:
            chosen = reads[target] = rng.sample(every,
                                                rng.randint(1, len(every)))
        plans[target] = [(group, name, rng.randint(1, 2),
                          k > 0 and rng.random() < 0.3, rng.random() < 0.5)
                         for k, (group, name) in enumerate(chosen)]
        writes[target] = [(name, rng.random() < 0.3)
                          for name in names[target] if rng.random() < 0.8]

    groups = {target: [group for group, _ in row] for _, target, row in ORDER}

    def make_update(target: Group):
        def update(*args):
            if target in _DRAW_SLOTS:
                *views, ctx = args
            else:
                views, ctx = args, None
            view_of = dict(zip(groups[target], views))
            t = offset[target]
            for group, name, weight, when_odd, by_item in plans[target]:
                if when_odd and t % 2 == 0:
                    continue
                view = view_of[group]
                t += weight * (view[name] if by_item else getattr(view, name))
            for cp in draws.get(target, ()):
                t += ctx.choose(cp.point_id)
            return {name: (t + k) % (cap[target, name] + 1)
                    for k, (name, sometimes) in enumerate(writes[target])
                    if not sometimes or t % 3 != 0}
        return update

    updates = UpdateFunctions(**{group.name.lower(): make_update(group)
                                 for group in Group})
    variables = [Var(name, group, IntDomain(0, cap[group, name]),
                     rng.randint(0, cap[group, name]))
                 for group in Group for name in names[group]]

    choices = list(step_points)
    for k, (group, dom) in enumerate(zip(
            rng.sample([Group.ENV_STATE, Group.SYS_STATE, Group.BEH_STATE],
                       len(init_domains)), init_domains)):
        name = names[group][0]
        dom = tuple(dict.fromkeys(v % (cap[group, name] + 1) for v in dom))
        choices.append(ChoicePoint(f"init{k}", dom, site=(group, name)))
    rng.shuffle(choices)

    watched = [(group, name) for group in Group for name in names[group]]
    assertions = []
    for k in range(rng.randint(0, 1)):
        picked = rng.sample(watched, min(3, len(watched)))
        weights = [rng.randint(1, 2) for _ in picked]
        modulus = rng.randint(4, 9)
        forbidden = rng.randrange(modulus)

        def pred(state, picked=picked, weights=weights, modulus=modulus,
                 forbidden=forbidden):
            return sum(w * state.value(group, name)
                       for w, (group, name) in zip(weights, picked)) \
                % modulus != forbidden

        assertions.append(Assertion(f"a{k}", pred))

    model = register_model(variables=variables, updates=updates,
                           choices=choices, assertions=assertions,
                           name=f"dr{seed}", reads=reads)
    return GeneratedModel(
        model=model, bound=bound,
        init_points=tuple(cp for cp in choices
                          if not isinstance(cp.site, Group)),
        step_points=tuple(step_points))


def generate_variable_schedule(seed: int, max_runs: int = 256
                               ) -> GeneratedModel:
    """Build one random model whose draw schedule varies.

    One or two drawing slots hold one to three step points each, all of
    one shared domain.  Each call of such a slot's update draws at most a
    fixed one or two values: it starts at the point its input picks, or
    draws nothing, and after each draw moves to the point that its input
    and the value drawn pick, or stops.  So which point a call draws next
    depends on its views and on what it has drawn so far, as the purity
    rule allows, and the schedule's longest form, each slot's most draws
    in every iteration, bounds every run.  Each update writes its group's
    one variable from every view it reads, its draws and the points that
    drew them, wrapped to the variable's domain; up to one assertion
    forbids a residue of a weighted sum of three variables.
    """
    rng = random.Random(seed)
    domain = tuple(sorted(rng.sample(range(4), rng.randint(2, 3))))
    slots = sorted(rng.sample(_DRAW_SLOTS, rng.randint(1, 2)),
                   key=_DRAW_SLOTS.index)
    points: dict[Group, list[ChoicePoint]] = {}
    for slot in slots:
        points[slot] = [ChoicePoint(f"{_SLOT_VAR[slot]}{k}", domain, site=slot)
                        for k in range(rng.randint(1, 3))]
    most = {slot: rng.randint(1, 2) for slot in slots}
    init = [ChoicePoint("init0", tuple(range(rng.randint(1, 2))),
                        site=(rng.choice(_STATES), "x"))
            for _ in range(rng.randint(0, 1))]
    # the runs of the longest schedule: the bound lowered to fit
    starts = len(init[0].domain) if init else 1
    per_step = len(domain) ** sum(most.values())
    bound = 4
    while bound > 1 and starts * per_step ** bound > max_runs:
        bound -= 1
    caps = {group: rng.randint(2, 6) for group in Group}
    offset = {group: rng.randint(0, 3) for group in Group}
    reads = {target: [group for group, _ in row] for _, target, row in ORDER}

    def make_update(target: Group):
        def update(*args):
            if target in _DRAW_SLOTS:
                *views, ctx = args
            else:
                views, ctx = args, None
            rest = offset[target] + sum(view.x for view in views)
            total = rest
            if target in points:
                choices = points[target]
                k = rest % (len(choices) + 1)   # none at len(choices)
                for _ in range(most[target]):
                    if k == len(choices):
                        break
                    value = ctx.choose(choices[k].point_id)
                    total += value * (k + 1)
                    k = (k + 1 + value + rest) % (len(choices) + 1)
            return {"x": total % (caps[target] + 1)}
        return update

    updates = UpdateFunctions(**{group.name.lower(): make_update(group)
                                 for group in Group})
    variables = [Var("x", group, IntDomain(0, caps[group]),
                     rng.randint(0, caps[group])) for group in Group]
    assertions = []
    if rng.random() < 0.7:
        watched = rng.sample(list(Group), 3)
        weights = [rng.randint(1, 2) for _ in watched]
        modulus = rng.randint(4, 8)
        forbidden = rng.randrange(modulus)

        def pred(state):
            return sum(w * state.value(group, "x")
                       for w, group in zip(weights, watched)) \
                % modulus != forbidden

        assertions.append(Assertion("a0", pred))
    choices = [cp for slot in slots for cp in points[slot]] + init
    rng.shuffle(choices)
    model = register_model(variables=variables, updates=updates,
                           choices=choices, assertions=assertions,
                           name=f"vs{seed}")
    return GeneratedModel(
        model=model, bound=bound, init_points=tuple(init),
        step_points=tuple(points[slot][0] for slot in slots
                          for _ in range(most[slot])),
        variable=True)


class Tone(IntEnum):
    """The IntEnum of a mixed-types model: each member equals an int, and
    LOW and MID equal a bool."""

    LOW = 0
    MID = 1
    HIGH = 2


def _kinds(n: int) -> list[type]:
    """The types whose values can equal `n`: int, and Tone and bool where
    one of their values does."""
    return [int] + [Tone] * (n <= 2) + [bool] * (n <= 1)


def _mixed(rng: random.Random) -> tuple:
    """Two to four members of distinct numbers from 0 to 3, each an int,
    a Tone or a bool at random, so no two are equal."""
    numbers = sorted(rng.sample(range(4), rng.randint(2, 4)))
    return tuple(rng.choice(_kinds(n))(n) for n in numbers)


def _weigh(value) -> int:
    """A number for `value` that branches on its type: equal values of
    different types weigh differently."""
    if type(value) is bool:
        return 3 if value else 2
    if isinstance(value, Tone):
        return 2 * value + 1
    return value


def generate_mixed_types(seed: int, max_runs: int = 256) -> GeneratedModel:
    """Build one random model whose symbolic domains mix types.

    Every group holds one variable `x` and every step point draws from a
    domain whose members are ints, `Tone` members and bools, of distinct
    numbers, so a value of one type can equal a member of another.  Each
    update weighs every value it reads and draws by its type (`_weigh`)
    and writes the member its total picks.  On branches where a point
    drew its last candidate and the total is odd, never on the path of
    first values that `register_model`'s trial step takes, it writes that
    member's twin instead: an equal value of another type of the same
    domain, which is no member, so the run ends in a ModelError.  Draws
    follow the fixed schedule, as in `generate`.
    """
    rng = random.Random(seed)
    bound, init_domains, site_of, step_domains = _draw_layout(
        rng, rng.randint(2, 4), max_runs)
    draws: dict[Group, list[ChoicePoint]] = {slot: [] for slot in _DRAW_SLOTS}
    step_points = []
    for k, (slot, size) in enumerate(zip(site_of, map(len, step_domains))):
        cp = ChoicePoint(f"d{k}", _mixed(rng)[:size], site=slot)
        step_points.append(cp)
        draws[slot].append(cp)
    members = {group: _mixed(rng) for group in Group}
    offset = {group: rng.randint(0, 3) for group in Group}
    reads = {target: [group for group, _ in row] for _, target, row in ORDER}

    def twin(member, domain: tuple):
        """A value equal to `member` of another type some member of its
        `domain` has, or `member` itself where there is none."""
        kinds = {type(other) for other in domain} - {type(member)}
        others = [kind for kind in _kinds(int(member)) if kind in kinds]
        return others[0](int(member)) if others else member

    def make_update(target: Group):
        def update(*args):
            if target in _DRAW_SLOTS:
                *views, ctx = args
            else:
                views, ctx = args, None
            total = offset[target] + sum(_weigh(view.x) for view in views)
            last = False
            for cp in draws.get(target, ()):
                value = ctx.choose(cp.point_id)
                total += _weigh(value)
                last |= value == cp.domain[-1] != cp.domain[0]
            member = members[target][total % len(members[target])]
            if last and total % 2:
                member = twin(member, members[target])
            return {"x": member}
        return update

    updates = UpdateFunctions(**{group.name.lower(): make_update(group)
                                 for group in Group})
    variables = [Var("x", group, SymbolicDomain(members[group]),
                     rng.choice(members[group])) for group in Group]
    choices = list(step_points)
    for k, (group, size) in enumerate(zip(rng.sample(_STATES,
                                                     len(init_domains)),
                                          map(len, init_domains))):
        choices.append(ChoicePoint(f"init{k}", members[group][:size],
                                   site=(group, "x")))
    rng.shuffle(choices)
    assertions = []
    if rng.random() < 0.7:
        watched = rng.sample(list(Group), 3)
        modulus = rng.randint(4, 8)
        forbidden = rng.randrange(modulus)

        def pred(state):
            return sum(_weigh(state.value(group, "x"))
                       for group in watched) % modulus != forbidden

        assertions.append(Assertion("a0", pred))
    model = register_model(variables=variables, updates=updates,
                           choices=choices, assertions=assertions,
                           name=f"mt{seed}")
    return GeneratedModel(
        model=model, bound=bound,
        init_points=tuple(cp for cp in choices
                          if not isinstance(cp.site, Group)),
        step_points=tuple(step_points))
