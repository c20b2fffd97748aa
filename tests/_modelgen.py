"""Random small-model generator for cross-checking the explorer.

Every generated model draws from each of its choice points exactly once per
iteration, on a fixed schedule, so the set of complete runs is exactly the
cartesian product of all choice domains over the bound.  That property is
what lets the flat-enumeration oracle in _oracle.py enumerate runs without
any knowledge of the search algorithm.  The draws follow the engine's step
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
whose draws the saturated state absorbs, and may have an assertion that
fails only from some iteration on, at a capped variable, so a violation can
come after the path has settled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from hilcheck.engine import (Assertion, BoolDomain, ChoicePoint, Group,
                             IntDomain, ModelError, SymbolicDomain,
                             UpdateFunctions, Var, register_model)

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
    step_points: tuple[ChoicePoint, ...]  # draws per iteration, in order

    @property
    def runs(self) -> int:
        total = 1
        for cp in self.init_points:
            total *= len(cp.domain)
        per_iter = 1
        for cp in self.step_points:
            per_iter *= len(cp.domain)
        return total * per_iter ** self.bound


def _rand_domain(rng: random.Random) -> tuple[int, ...]:
    size = rng.randint(1, 3)
    return tuple(sorted(rng.sample(range(0, 5), size)))


def _draw_layout(rng: random.Random, bound: int, max_runs: int,
                 settling: bool = False):
    """(bound, init domains, step point sites, step domains): draw layouts
    sampled until the run count fits the budget, the bound lowered on each
    miss."""
    for _ in range(50):
        n_init = rng.randint(0, 2)
        init_domains = tuple(_rand_domain(rng) for _ in range(n_init))
        site_of: list[Group] = []
        if settling:
            site_of.extend(rng.sample(_DRAW_SLOTS, rng.randint(0, 1)))
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


def generate(seed: int, max_runs: int = 400,
             settling: bool = False) -> GeneratedModel:
    """Build one random model whose complete-run count is at most max_runs;
    a settling one if `settling`."""
    rng = random.Random(seed)

    caps = {name: rng.randint(2, 9 if settling else 6)
            for name in _SLOT_VAR.values()}
    coeff = {name: rng.randint(1, 2) for name in _SLOT_VAR.values()}
    offset = {name: rng.randint(0, 3) for name in _SLOT_VAR.values()}

    bound = rng.randint(6, 10) if settling else rng.randint(2, 4)
    bound, init_domains, site_of, step_domains = _draw_layout(
        rng, bound, max_runs, settling)

    step_points = []
    draw_ids: dict[Group, list[str]] = {slot: [] for slot in _DRAW_SLOTS}
    for k, (slot, dom) in enumerate(zip(site_of, step_domains)):
        cp = ChoicePoint(f"d{k}", dom, site=slot)
        step_points.append(cp)
        draw_ids[slot].append(cp.point_id)

    def clamp(name: str, value: int) -> int:
        if settling:
            return min(caps[name], value)
        return value % (caps[name] + 1)

    def accumulate(name: str, own: int, rest: int) -> int:
        """A state's next value.  A settling state climbs from its own value
        by at most one, so the states saturate one by one."""
        if settling:
            return min(caps[name], own + min(1, rest))
        return clamp(name, coeff[name] * own + rest)

    def drawn_sum(ctx, slot: Group) -> int:
        return sum(ctx.choose(point_id) for point_id in draw_ids[slot])

    def env_input(so, e, ctx):
        return {"ei": clamp("ei", so.so + coeff["ei"] * e.e + offset["ei"]
                            + drawn_sum(ctx, Group.ENV_INPUT))}

    def sys_input(bo, eo, s):
        return {"si": clamp("si", bo.bo + eo.eo + coeff["si"] * s.s
                            + offset["si"])}

    def beh_input(b, eo, so, ctx):
        return {"bi": clamp("bi", coeff["bi"] * b.b + eo.eo + so.so
                            + offset["bi"] + drawn_sum(ctx, Group.BEH_INPUT))}

    def env_output(ei, e, ctx):
        return {"eo": clamp("eo", ei.ei + coeff["eo"] * e.e + offset["eo"]
                            + drawn_sum(ctx, Group.ENV_OUTPUT))}

    def sys_output(si, s):
        return {"so": clamp("so", si.si + coeff["so"] * s.s + offset["so"])}

    def beh_output(bi, b, ctx):
        return {"bo": clamp("bo", bi.bi + coeff["bo"] * b.b + offset["bo"]
                            + drawn_sum(ctx, Group.BEH_OUTPUT))}

    def env_state(ei, e, ctx):
        return {"e": accumulate("e", e.e, ei.ei + offset["e"]
                                + drawn_sum(ctx, Group.ENV_STATE))}

    def sys_state(si, s):
        return {"s": accumulate("s", s.s, si.si + offset["s"])}

    def beh_state(bi, b, ctx):
        return {"b": accumulate("b", b.b, bi.bi + offset["b"]
                                + drawn_sum(ctx, Group.BEH_STATE))}

    updates = UpdateFunctions(
        env_input=env_input, sys_input=sys_input, beh_input=beh_input,
        env_output=env_output, sys_output=sys_output, beh_output=beh_output,
        env_state=env_state, sys_state=sys_state, beh_state=beh_state)

    variables = [Var(name, group, IntDomain(0, caps[name]),
                     rng.randint(0, caps[name]))
                 for group, name in _SLOT_VAR.items()]

    init_targets = rng.sample(["e", "s", "b"], len(init_domains))
    choices = list(step_points)
    for k, (name, dom) in enumerate(zip(init_targets, init_domains)):
        dom = tuple(v % (caps[name] + 1) for v in dom)
        dom = tuple(dict.fromkeys(dom))  # dedupe, keep order
        group = next(g for g, n in _SLOT_VAR.items() if n == name)
        choices.append(ChoicePoint(f"init{k}", dom, site=(group, name)))

    assertions = []
    n_asserts = rng.randint(0, 1) if settling else rng.randint(1, 2)
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
    if settling and rng.random() < 0.5:
        group, name = rng.choice(list(_SLOT_VAR.items()))
        late = rng.randint(2, bound)

        def capped_late(state, group=group, name=name, late=late):
            return (state.iteration < late
                    or state.value(group, name) < caps[name])

        assertions.append(Assertion("late", capped_late))

    # shuffled last, so every earlier draw of rng is as it was
    rng.shuffle(choices)
    if settling:
        rng.shuffle(variables)
    model = register_model(variables=variables, updates=updates,
                           choices=choices, assertions=assertions,
                           name=f"gen{seed}")
    return GeneratedModel(
        model=model, bound=bound,
        init_points=tuple(cp for cp in choices
                          if not isinstance(cp.site, Group)),
        step_points=tuple(step_points))


# a write-path model's symbolic members, and the first int that is not one
# of the interpreter's shared small ints: a sum from it up is a new object
_SYMBOLS = ("lo", "mid", "hi")
_BIG = 257

# the drawing slot just before each system slot, in step order
_DRAWN_BEFORE = {Group.SYS_INPUT: Group.ENV_INPUT,
                 Group.SYS_STATE: Group.ENV_STATE,
                 Group.SYS_OUTPUT: Group.ENV_OUTPUT}


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
    drawing updates keep their contexts: a system update draws through the
    one of the drawing update just before it, and a drawing update may
    draw its own point through an earlier one; the engine must refuse both
    and draw nothing, and the update goes on.  Draws follow the fixed
    schedule, as in `generate`.
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
    # drawing slots whose update draws its point through an earlier one's
    # context too
    borrowers = {slot: rng.choice(_DRAW_SLOTS[:_DRAW_SLOTS.index(slot)])
                 for slot in point_of
                 if slot is not _DRAW_SLOTS[0] and rng.random() < 0.5}
    reads = {target: [group for group, _ in row] for _, target, row in ORDER}
    kept: dict[Group, object] = {}

    def refused(ctx, point: ChoicePoint) -> None:
        try:
            ctx.choose(point.point_id)
        except ModelError:
            return
        raise AssertionError(f"{point.point_id} was drawn through a context "
                             "that had returned or is not its own")

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
            drew = None
            if target in point_of:
                drew = ctx.choose(point_of[target].point_id)
                t += drew
                if target in borrowers:
                    refused(kept[borrowers[target]], point_of[target])
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
            return returned
        return update

    updates = UpdateFunctions(**{group.name.lower(): make_update(group)
                                 for group in Group})

    def declared(group: Group, name: str) -> Var:
        if name == "n":
            return Var(name, group, IntDomain(0, cap[group]),
                       rng.randint(0, cap[group]))
        if name == "f":
            return Var(name, group, BoolDomain(), rng.random() < 0.5)
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

    model = register_model(variables=variables, updates=updates,
                           choices=choices, assertions=assertions,
                           name=f"wp{seed}")
    return GeneratedModel(
        model=model, bound=bound,
        init_points=tuple(cp for cp in choices
                          if not isinstance(cp.site, Group)),
        step_points=tuple(point_of[slot] for slot in _DRAW_SLOTS
                          if slot in point_of))
